//! The two rules no compiler scope can express, and the per-file scan.
//!
//! `guard-across-fanout` follows `let` bindings through a function body:
//! a binding initialized from `.lock()` or `lock_unpoisoned(..)` is live
//! until its block closes or an explicit `drop(name)`. `raw-decoder` is
//! a path-scoped token rule.

use crate::lex::{has_token, is_ident_char, token_at, LexState};
use crate::{Diagnostic, Rule};

/// The files in `crates/ingest` that may open a `StreamDecoder`: the
/// shard registry, whose sessions are the fleet's books, and the
/// capture-side load generator, whose decoders are the ground truth
/// the fleet is checked against.
const DECODER_SITES: &[&str] = &["crates/ingest/src/shard.rs", "crates/ingest/src/loadgen.rs"];

const DECODER_CTORS: &[&str] = &[
    "StreamDecoder::new",
    "StreamDecoder::with_arq",
    "StreamDecoder::with_arq_resync",
    "StreamDecoder::default",
];

/// How many lines a `let` statement may span before the scanner
/// classifies what it has: a termination guard, not a real limit.
const MAX_LET_SPAN: usize = 40;

/// A live lock-guard binding.
struct Guard {
    name: String,
    line: usize,
    depth: usize,
}

/// A `let` statement being accumulated up to its `;`.
struct PendingLet {
    text: String,
    line: usize,
    depth: usize,
    spanned: usize,
}

/// Scans one file's text as if it lived at the workspace-relative,
/// `/`-separated `path` (the rules are path-scoped).
pub fn scan_source(text: &str, path: &str) -> Vec<Diagnostic> {
    let fanout_scope = !path.starts_with("crates/par/");
    let decoder_scope = path.starts_with("crates/ingest/") && !DECODER_SITES.contains(&path);
    let mut lex = LexState::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut pending: Option<PendingLet> = None;
    let mut depth = 0usize;
    let mut diags = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let code = lex.code(raw);
        let mut report = |rule, message: String| {
            diags.push(Diagnostic {
                file: path.to_string(),
                line,
                rule,
                message,
                snippet: raw.trim().to_string(),
            });
        };

        if decoder_scope && DECODER_CTORS.iter().any(|c| has_token(&code, c)) {
            report(
                Rule::RawDecoder,
                "StreamDecoder opened outside the shard registry — ingest sessions are opened \
                 by crates/ingest/src/shard.rs, so every decoder's counters land in exactly one \
                 shard's books"
                    .to_string(),
            );
        }
        if fanout_scope && (has_token(&code, "par_map") || has_token(&code, "par_map_ctx")) {
            let live: Vec<String> = guards
                .iter()
                .filter(|g| g.line < line)
                .map(|g| format!("`{}` (line {})", g.name, g.line))
                .collect();
            if !live.is_empty() {
                report(
                    Rule::GuardAcrossFanout,
                    format!(
                        "lock guard {} is live across this fan-out — workers contending on it \
                         while the caller holds a pool token can deadlock the --jobs budget; \
                         drop the guard first or lock inside the worker closure",
                        live.join(", ")
                    ),
                );
            }
        }

        // Track braces and `let` statements for the guard bindings.
        let let_at = token_at(&code, "let").filter(|_| pending.is_none());
        for (pos, c) in code.char_indices() {
            if Some(pos) == let_at {
                let text = code[pos + "let".len()..].to_string();
                pending = Some(PendingLet {
                    text,
                    line,
                    depth,
                    spanned: 0,
                });
            } else if c == '{' {
                depth += 1;
            } else if c == '}' {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
        }
        let started_here = let_at.is_some();
        if let Some(mut acc) = pending.take() {
            if !started_here {
                acc.text.push(' ');
                acc.text.push_str(&code);
                acc.spanned += 1;
            }
            if acc.text.contains(';') || acc.spanned >= MAX_LET_SPAN || depth < acc.depth {
                guards.extend(guard_bindings(&acc));
            } else {
                pending = Some(acc);
            }
        }
        for name in dropped_names(&code) {
            if let Some(pos) = guards.iter().rposition(|g| g.name == name) {
                guards.remove(pos);
            }
        }
    }
    diags
}

/// The guards a finished `let` statement binds: every lower-case
/// identifier of its pattern, if its initializer takes a lock.
fn guard_bindings(acc: &PendingLet) -> Vec<Guard> {
    let (pattern, init) = split_let(&acc.text);
    // A `match`/`if` body's statements are not the initializer.
    let init = init.split('{').next().unwrap_or_default();
    if !(init.contains(".lock()") || init.contains("lock_unpoisoned(")) {
        return Vec::new();
    }
    let pattern = pattern.split(':').next().unwrap_or_default();
    pattern
        .split(|c: char| !is_ident_char(c))
        .filter(|w| w.starts_with(|c: char| c.is_lowercase() || c == '_'))
        .filter(|w| !matches!(*w, "_" | "mut" | "ref" | "box"))
        .map(|name| Guard {
            name: name.to_string(),
            line: acc.line,
            depth: acc.depth,
        })
        .collect()
}

/// Splits a `let` statement (after the keyword) into pattern and
/// initializer at the first standalone `=`.
fn split_let(text: &str) -> (&str, &str) {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        let prev = if i == 0 { b' ' } else { bytes[i - 1] };
        let next = bytes.get(i + 1).copied().unwrap_or(b' ');
        if b == b'=' && !matches!(next, b'=' | b'>') && !b"=<>!+-*/%&|^".contains(&prev) {
            return (&text[..i], &text[i + 1..]);
        }
    }
    (text, "")
}

/// Names passed to a `drop(..)` call on this line.
fn dropped_names(code: &str) -> Vec<&str> {
    code.match_indices("drop(")
        .filter(|(pos, _)| !code[..*pos].chars().next_back().is_some_and(is_ident_char))
        .filter_map(|(pos, _)| {
            let inner = &code[pos + "drop(".len()..];
            let name = inner[..inner.find(')')?].trim();
            (!name.is_empty() && name.chars().all(is_ident_char)).then_some(name)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(text: &str, path: &str) -> Vec<(Rule, usize)> {
        scan_source(text, path)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    const HELD: &str = "fn f(m: &Mutex<u32>, jobs: &[J]) {\n    let guard = lock_unpoisoned(m);\n    par_map(jobs, &(), |_, j| work(j));\n}\n";

    #[test]
    fn guard_live_across_fanout_fires_outside_par_only() {
        let hit = vec![(Rule::GuardAcrossFanout, 3)];
        assert_eq!(rules_at(HELD, "crates/ingest/src/service.rs"), hit);
        assert_eq!(rules_at(HELD, "crates/ingest/tests/t.rs"), hit);
        assert!(rules_at(HELD, "crates/par/src/pool.rs").is_empty());
    }

    #[test]
    fn dropped_scoped_or_per_worker_guards_are_clean() {
        let dropped = "fn f() {\n    let g = m.lock();\n    drop(g);\n    par_map(a, b, c);\n}\n";
        let scoped = "fn f() {\n    {\n        let g = m\n            .lock();\n    }\n    par_map(a, b, c);\n}\n";
        let worker = "fn f() {\n    par_map(a, b, |_, m| {\n        lock_unpoisoned(m).bump();\n    });\n}\n";
        for text in [dropped, scoped, worker] {
            assert!(
                rules_at(text, "crates/ingest/src/service.rs").is_empty(),
                "{text}"
            );
        }
    }

    #[test]
    fn multiline_let_and_tuple_patterns_bind_guards() {
        let text =
            "fn f() {\n    let (a, _b) = (m\n        .lock(), 1);\n    par_map_ctx(x, y, z);\n}\n";
        let diags = scan_source(text, "crates/eval/src/runner.rs");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`a` (line 2), `_b` (line 2)"));
    }

    #[test]
    fn raw_decoder_scoped_to_ingest_outside_its_two_sites() {
        let text = "fn f() -> StreamDecoder { StreamDecoder::with_arq_resync() }\n";
        let hit = vec![(Rule::RawDecoder, 1)];
        assert_eq!(rules_at(text, "crates/ingest/src/service.rs"), hit);
        assert_eq!(rules_at(text, "crates/ingest/tests/backpressure.rs"), hit);
        assert!(rules_at(text, "crates/ingest/src/shard.rs").is_empty());
        assert!(rules_at(text, "crates/ingest/src/loadgen.rs").is_empty());
        assert!(rules_at(text, "crates/host/src/session.rs").is_empty());
        let prose = "// StreamDecoder::new() in a comment\nlet s = \"StreamDecoder::new()\";\n";
        assert!(rules_at(prose, "crates/ingest/src/service.rs").is_empty());
    }

    #[test]
    fn an_escaped_quote_char_does_not_shift_guard_scopes() {
        // A `{` misread out of `'\''` would keep `g` live past its block.
        let text =
            "fn f() {\n    let g = m.lock();\n    let c = ['\\'','{'];\n}\npar_map(a, b, c);\n";
        assert!(rules_at(text, "crates/ingest/src/service.rs").is_empty());
    }
}
