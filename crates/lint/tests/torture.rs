//! Torture tests: the lexer and the rule scanner are total functions of
//! their input. They never panic, always terminate, and give the same
//! diagnostics when run twice over the same text, whether the text is
//! byte soup, a shuffle of adversarial Rust fragments (nested block
//! comments, raw-string fences, char literals holding `"` and `{`,
//! half-open delimiters) or systematically unbalanced comment nesting
//! around a fenced raw string, whose lexed output is checked too.

use distscroll_lint::scan_source;
use proptest::collection::vec;
use proptest::prelude::*;

/// Scans `text` where both rules are armed and renders the result.
fn scan_rendered(text: &str) -> Vec<String> {
    scan_source(text, "crates/ingest/src/torture.rs")
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// A token the `raw-decoder` rule fires on at an ingest path.
const CTOR: &str = "StreamDecoder::new()";

/// Individually innocuous fragments; shuffled together they produce the
/// half-open comment, fence and literal states hand-rolled lexers get
/// wrong, plus the tokens both rules key on.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "/*", "*/", "/* /* nested */ open", "r\"raw\"", "r#\"", "\"#", "r##\"a \"# b\"##",
    "'\"'", "'{'", "'}'", "'\\''", "'\\\\'", "fn f<'a>(x: &'a str) {}", "\"// not a comment\"",
    "\"/* not open\"",
    "let guard = m.lock();", "let (a, b) = lock_unpoisoned(m)", "drop(guard);",
    "pool.par_map(|x| x);", "StreamDecoder::new()", "let", "=", ";", "{", "}", "\n",
];

proptest! {
    #[test]
    fn byte_soup_is_total_and_deterministic(bytes in vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert_eq!(scan_rendered(&text), scan_rendered(&text));
    }

    #[test]
    fn fragment_soup_is_total_and_deterministic(
        picks in vec(0usize..FRAGMENTS.len(), 0..40),
        sep in 0usize..3,
        noise in "[ -~]{0,16}",
    ) {
        let mut parts: Vec<&str> = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        parts.push(&noise);
        let text = parts.join([" ", "\n", ""][sep]);
        let first = scan_rendered(&text);
        prop_assert_eq!(&first, &scan_rendered(&text));
        let lines = text.lines().count().max(1);
        for d in scan_source(&text, "crates/ingest/src/torture.rs") {
            prop_assert!(d.line >= 1 && d.line <= lines);
        }
    }

    #[test]
    fn unbalanced_nesting_resolves_to_the_right_state(
        open in 0usize..8,
        close in 0usize..8,
        fences in 0usize..4,
        tail in "[ -~]{0,16}",
    ) {
        let (opens, closes, fence) = ("/* ".repeat(open), " */".repeat(close), "#".repeat(fences));
        let text = format!("{opens}r{fence}\"{CTOR}\"{fence} {closes}\n{CTOR}\n{tail}");
        prop_assert_eq!(scan_rendered(&text), scan_rendered(&text));
        // The raw string is blanked or inside the comment, so line 1
        // never fires; the probe on line 2 is code, and fires, exactly
        // when every opener was closed.
        let diags = scan_source(&text, "crates/ingest/src/torture.rs");
        let fired: Vec<usize> = diags.iter().map(|d| d.line).filter(|&l| l <= 2).collect();
        prop_assert_eq!(fired, if open <= close { vec![2] } else { vec![] });
    }
}
