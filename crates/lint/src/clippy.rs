//! The self-test of the rules that rustc and clippy enforce.
//!
//! `fixtures/clippy/` is a package of its own whose `src/*.rs` files are
//! known-bad and known-clean snippets. [`self_test`] runs clippy over it
//! and requires, file by file, exactly the findings each file's
//! `//@ expect: <lint>@<line>` lines name; a file without any must come
//! out clean. Clippy finds the repository's `clippy.toml` by walking up
//! from the package, so deleting one of its entries fails the self-test.
//! The package restates `[workspace.lints]`, and the self-test fails if
//! the two tables differ.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use crate::{check_fixture, entries, read, LintError};

/// Runs `cargo clippy --offline` over `root/crates/lint/fixtures/clippy`
/// (target dir `root/target/lint-fixtures`) and checks every fixture.
/// Returns one summary line per fixture file.
///
/// # Errors
///
/// [`LintError::Fixture`] when the lint tables differ, clippy reports
/// nothing, or a file's findings differ from its header;
/// [`LintError::Io`] when a file cannot be read or cargo cannot start.
pub fn self_test(root: &Path) -> Result<Vec<String>, LintError> {
    let pkg = root.join("crates/lint/fixtures/clippy");
    let workspace = read(&root.join("Cargo.toml"))?;
    let restated = read(&pkg.join("Cargo.toml"))?;
    for tool in ["rust", "clippy"] {
        let (ours, theirs) = (
            table(&workspace, &format!("[workspace.lints.{tool}]")),
            table(&restated, &format!("[lints.{tool}]")),
        );
        if ours != theirs {
            return Err(LintError::Fixture(format!(
                "fixtures/clippy [lints.{tool}] is {theirs:?}, the workspace's is {ours:?}"
            )));
        }
    }

    let output = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["clippy", "--offline", "--quiet", "--all-targets"])
        .args(["--message-format=json", "--manifest-path"])
        .arg(pkg.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(root.join("target/lint-fixtures"))
        .output()
        .map_err(|e| LintError::Io(format!("cargo clippy: {e}")))?;
    let mut found: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    for (file, line, lint) in findings(&String::from_utf8_lossy(&output.stdout)) {
        found.entry(file).or_default().push((line, lint));
    }
    if found.is_empty() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(LintError::Fixture(format!(
            "clippy found nothing:\n{stderr}"
        )));
    }

    let mut summaries = Vec::new();
    for name in entries(&pkg.join("src"))? {
        let name = format!("src/{name}");
        let got = found.remove(&name).unwrap_or_default();
        let text = read(&pkg.join(&name))?;
        summaries.push(format!("clippy/{}", check_fixture(&name, &text, got)?));
    }
    match found.into_iter().next() {
        Some((file, got)) => Err(LintError::Fixture(format!("unexpected in {file}: {got:?}"))),
        None => Ok(summaries),
    }
}

/// The `(file, line, lint id)` of every diagnostic with a lint code in
/// cargo's JSON message stream, one object per line, deduplicated
/// across targets. In each message the top-level `code` precedes the
/// `spans` array, whose first entry is the primary span; quotes inside
/// strings are escaped, so the keys cannot match message text.
fn findings(json_lines: &str) -> BTreeSet<(String, usize, String)> {
    let field = |text: &str, key: &str| -> Option<String> {
        let rest = &text[text.find(key)? + key.len()..];
        Some(rest[..rest.find(['"', ','])?].to_string())
    };
    json_lines
        .lines()
        .filter(|l| l.contains(r#""reason":"compiler-message""#))
        .filter_map(|l| {
            let lint = field(l, r#""code":{"code":""#)?;
            let spans = &l[l.find(r#""spans":["#)?..];
            let line = field(spans, r#""line_start":"#)?.parse().ok()?;
            Some((field(spans, r#""file_name":""#)?, line, lint))
        })
        .collect()
}

/// The entry lines of a TOML table, comments and blank lines left out.
fn table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .map(str::trim)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_read_the_top_level_code_and_primary_span() {
        let stream = concat!(
            r#"{"reason":"compiler-artifact","package_id":"x"}"#,
            "\n",
            r#"{"reason":"compiler-message","message":{"message":"a \"spans\":[ b","code":{"code":"clippy::panic","explanation":null},"spans":[{"file_name":"src/a.rs","line_start":12,"is_primary":true}],"children":[{"code":null,"spans":[{"file_name":"src/b.rs","line_start":1}]}]}}"#,
            "\n",
            r#"{"reason":"compiler-message","message":{"message":"aborting","code":null,"spans":[]}}"#,
        );
        let got: Vec<_> = findings(stream).into_iter().collect();
        assert_eq!(got, vec![("src/a.rs".into(), 12, "clippy::panic".into())]);
    }

    #[test]
    fn tables_skip_comments_and_stop_at_the_next_header() {
        let toml = "[a]\nx = 1\n[lints.clippy]\n# why\npanic = \"deny\"\n\n[package]\ny = 2\n";
        assert_eq!(table(toml, "[lints.clippy]"), vec!["panic = \"deny\""]);
        assert!(table(toml, "[lints.rust]").is_empty());
    }
}
