//! Workspace static analysis: the invariants the executor and the
//! evaluation pipeline rely on, checked by machine instead of by
//! convention.
//!
//! The harness promises byte-identical reports at any `--jobs` value.
//! That promise rests on rules no compiler enforces: all threading goes
//! through `distscroll-par`, no eval-path code reads the wall clock or
//! an ambient RNG, nothing iterates an unordered map on the way to a
//! report, every `unsafe` block is audited, and library code fails
//! through `Result` instead of panicking mid-experiment. This crate is
//! a dependency-free semantic analyzer that walks the non-vendored
//! workspace sources and flags violations of exactly those rules;
//! `cargo run -p xtask -- lint` drives it, CI runs it on every push.
//!
//! Since PR 8 the scanner is no longer a pure line matcher: a
//! brace-aware parser ([`parse`]) recovers items, `#[cfg(test)]`
//! regions and `let`-binding lifetimes, a workspace symbol index
//! ([`index`]) is built as a by-product, results are cached per file
//! under `target/lint-cache` ([`cache`]), and diagnostics are emitted
//! as SARIF 2.1.0 ([`sarif`]) alongside the JSON report.
//!
//! # Rules
//!
//! | id | scope | forbids |
//! |----|-------|---------|
//! | `thread-discipline` | everywhere but `crates/par` | `thread::spawn` / `thread::scope` / `thread::Builder` / `rayon` |
//! | `wall-clock` | library code of `core`, `eval`, `baselines`, `host`, `ingest` | `Instant::now` / `SystemTime::now` |
//! | `ambient-rng` | library code of `core`, `eval`, `baselines`, `host`, `ingest` | `thread_rng` / `rand::random` / `from_entropy` / `OsRng` |
//! | `unordered-iter` | first-party library code | `HashMap` / `HashSet` (use `BTreeMap` / `BTreeSet`) |
//! | `unsafe-audit` | everywhere | `unsafe` outside the audited allowlist, or without a `// SAFETY:` comment |
//! | `panic-hygiene` | first-party library code outside tests | `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` |
//! | `event-drain` | everywhere but `crates/core` | `drain_events` / `drain_telemetry` (allocate-per-poll; use the sink or `drain_*_into` forms) |
//! | `raw-seq` | everywhere but `crates/hw` | `from_raw` — ARQ sequence numbers come from `decode_data` / `decode_ack`, never hand-built |
//! | `raw-decoder` | `crates/ingest` outside `src/shard.rs` | `StreamDecoder::new` / `::with_arq` / `::with_arq_resync` / `::default` — fleet sessions are opened by the shard registry only |
//! | `fixed-tick` | everywhere but `crates/hw` and `#[cfg(test)]` | `clock.advance` / `board.step` — register a deadline with `distscroll_hw::sched` and drive time through the device dispatch |
//! | `guard-across-fanout` | everywhere but `crates/par` | a `.lock()` / `lock_unpoisoned()` guard binding still live at a `par_map` / `par_map_ctx` call — deadlock risk under the token budget |
//! | `serial-arith` | everywhere but `crates/hw` | raw `+` `-` `<` `>` on a wrapping serial number (`Seq16`, 16-bit stamps) — use the RFC 1982 helpers |
//! | `unused-pragma` | everywhere | a valid `lint:allow` pragma that suppresses zero diagnostics |
//! | `bad-pragma` | everywhere | `lint:allow` pragmas that name no known rule or carry no reason |
//!
//! Vendored crates (`rand`, `proptest`) are excluded, the
//! same set the clippy CI job excludes. "Library code" excludes
//! `tests/`, `benches/`, `examples/`, binary entry points
//! (`main.rs`, `src/bin/`) and `#[cfg(test)]` modules.
//!
//! # Allow pragmas
//!
//! A violation that is *intended* must say so, on its own line or at
//! the end of the offending line:
//!
//! ```text
//! // lint:allow(wall-clock) timing is the measured quantity here, not an input
//! let t0 = std::time::Instant::now();
//! ```
//!
//! The rule name must be known and the reason non-empty — a pragma
//! missing either is itself a violation (`bad-pragma`), and a valid
//! pragma that suppresses nothing is one too (`unused-pragma`), so
//! suppressions stay auditable and can never rot.
//!
//! # Self-test
//!
//! `fixtures/` holds known-bad snippets, each declaring the virtual
//! path it should be scanned as and the exact diagnostics it must
//! produce. [`self_test`] fails if any seeded violation goes unflagged
//! or any extra diagnostic appears — the linter is tested against its
//! own spec on every CI run.

pub mod cache;
pub mod index;
pub mod json;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod scan;

pub use cache::CacheStats;
pub use index::IndexStats;
pub use rules::{scan_source, FileContext, FileKind, Rule, ALL_RULES, RULES_VERSION};
pub use sarif::diagnostics_to_sarif;
pub use scan::{scan_workspace, scan_workspace_with, ScanOptions, ScanReport};

use std::fmt;
use std::path::PathBuf;

/// One finding: a rule violated at a line of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
    /// The offending line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message,
            self.snippet
        )
    }
}

/// Failures of the scan itself (I/O, malformed fixtures) — *not* lint
/// findings, which are data, not errors.
#[derive(Debug)]
pub enum LintError {
    /// A file or directory could not be read.
    Io {
        /// What the scanner was trying to read.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A fixture file violates the fixture grammar.
    Fixture(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            LintError::Fixture(msg) => write!(f, "fixture error: {msg}"),
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io { source, .. } => Some(source),
            LintError::Fixture(_) => None,
        }
    }
}

/// Escapes a string for inclusion in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a machine-readable JSON document (schema 2):
/// scan totals, cache accounting (`hits`/`misses` each on their own
/// line so CI can assert the warm run with a grep), symbol-index
/// stats, and the diagnostics themselves — the artifact the CI
/// `static-analysis` job uploads.
pub fn diagnostics_to_json(
    diags: &[Diagnostic],
    files_scanned: usize,
    cache: &CacheStats,
    index: &IndexStats,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 2,\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"violations\": {},\n", diags.len()));
    out.push_str("  \"cache\": {\n");
    out.push_str(&format!("    \"enabled\": {},\n", cache.enabled));
    out.push_str(&format!("    \"hits\": {},\n", cache.hits));
    out.push_str(&format!("    \"misses\": {}\n", cache.misses));
    out.push_str("  },\n");
    out.push_str("  \"index\": {\n");
    out.push_str(&format!("    \"crates\": {},\n", index.crates));
    out.push_str(&format!("    \"modules\": {},\n", index.modules));
    out.push_str(&format!("    \"fns\": {},\n", index.fns));
    out.push_str(&format!("    \"impls\": {},\n", index.impls));
    out.push_str(&format!("    \"uses\": {},\n", index.uses));
    out.push_str(&format!("    \"bindings\": {}\n", index.bindings));
    out.push_str("  },\n");
    out.push_str("  \"diagnostics\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let comma = if i + 1 < diags.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\", \
             \"snippet\": \"{}\"}}{comma}\n",
            json_escape(&d.file),
            d.line,
            d.rule.name(),
            json_escape(&d.message),
            json_escape(&d.snippet),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the scanner against every fixture under `fixture_dir` and
/// checks that each produces *exactly* its declared diagnostics.
///
/// A fixture is a `.rs` file that is never compiled; its header
/// declares how to scan it and what must be found:
///
/// ```text
/// //@ path: crates/eval/src/bad_clock.rs
/// //@ expect: wall-clock@5
/// //@ expect: wall-clock@6
/// ```
///
/// `path` is the virtual workspace path the snippet is scanned as
/// (rules are path-scoped); each `expect` names a rule and the 1-based
/// line it must fire on. No `expect` lines means the fixture must scan
/// clean. Returns the list of per-fixture summaries on success.
///
/// # Errors
///
/// Returns [`LintError::Fixture`] when a fixture is malformed, misses
/// an expected diagnostic, or produces an unexpected one, and
/// [`LintError::Io`] when the fixture directory cannot be read.
pub fn self_test(fixture_dir: &std::path::Path) -> Result<Vec<String>, LintError> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(fixture_dir)
        .map_err(|source| LintError::Io {
            path: fixture_dir.to_path_buf(),
            source,
        })?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(LintError::Fixture(format!(
            "no .rs fixtures found under {}",
            fixture_dir.display()
        )));
    }

    let mut summaries = Vec::new();
    let mut rules_covered: Vec<Rule> = Vec::new();
    let mut all_diags: Vec<Diagnostic> = Vec::new();
    for path in &entries {
        let text = std::fs::read_to_string(path).map_err(|source| LintError::Io {
            path: path.clone(),
            source,
        })?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let (virtual_path, expected) = parse_fixture_header(&name, &text)?;

        let ctx = FileContext::classify(&virtual_path);
        let diags = scan_source(&text, &ctx);
        let mut found: Vec<(Rule, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
        all_diags.extend(diags);
        found.sort();
        let mut expected_sorted = expected.clone();
        expected_sorted.sort();

        if found != expected_sorted {
            return Err(LintError::Fixture(format!(
                "{name}: scanned as {virtual_path}\n  expected: {}\n  found:    {}",
                render_expectations(&expected_sorted),
                render_expectations(&found),
            )));
        }
        for (rule, _) in &found {
            if !rules_covered.contains(rule) {
                rules_covered.push(*rule);
            }
        }
        summaries.push(format!(
            "{name}: {} diagnostic(s) as expected",
            expected.len()
        ));
    }

    // The fixture suite must exercise every rule, so a new rule cannot
    // land without a known-bad snippet proving the scanner catches it.
    for rule in ALL_RULES {
        if !rules_covered.contains(rule) {
            return Err(LintError::Fixture(format!(
                "no fixture exercises rule `{}` — add a known-bad snippet",
                rule.name()
            )));
        }
    }

    // The SARIF emitter is part of the contract: render every fixture
    // diagnostic and prove the document parses as JSON with one rule
    // descriptor per rule.
    let sarif_doc = sarif::diagnostics_to_sarif(&all_diags);
    let parsed = json::parse(&sarif_doc)
        .map_err(|e| LintError::Fixture(format!("emitted SARIF is not valid JSON: {e}")))?;
    let rules_len = parsed
        .get("runs")
        .and_then(|r| r.as_arr())
        .and_then(|runs| runs.first())
        .and_then(|run| run.get("tool"))
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(|r| r.as_arr())
        .map(<[_]>::len);
    if rules_len != Some(ALL_RULES.len()) {
        return Err(LintError::Fixture(format!(
            "SARIF rule table has {rules_len:?} entries, expected {}",
            ALL_RULES.len()
        )));
    }
    summaries.push(format!(
        "sarif: {} result(s) validated against the 2.1.0 shape",
        all_diags.len()
    ));
    Ok(summaries)
}

fn render_expectations(list: &[(Rule, usize)]) -> String {
    if list.is_empty() {
        return "(clean)".to_string();
    }
    list.iter()
        .map(|(r, l)| format!("{}@{l}", r.name()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parses the `//@ path:` / `//@ expect:` fixture header.
fn parse_fixture_header(name: &str, text: &str) -> Result<(String, Vec<(Rule, usize)>), LintError> {
    let mut virtual_path = None;
    let mut expected = Vec::new();
    for line in text.lines() {
        let Some(directive) = line.trim().strip_prefix("//@") else {
            continue;
        };
        let directive = directive.trim();
        if let Some(p) = directive.strip_prefix("path:") {
            virtual_path = Some(p.trim().to_string());
        } else if let Some(e) = directive.strip_prefix("expect:") {
            let e = e.trim();
            let (rule_name, line_no) = e.split_once('@').ok_or_else(|| {
                LintError::Fixture(format!("{name}: expect `{e}` is not rule@line"))
            })?;
            let rule = Rule::from_name(rule_name.trim()).ok_or_else(|| {
                LintError::Fixture(format!("{name}: unknown rule `{rule_name}` in expect"))
            })?;
            let line_no: usize = line_no.trim().parse().map_err(|_| {
                LintError::Fixture(format!("{name}: bad line number in expect `{e}`"))
            })?;
            expected.push((rule, line_no));
        } else {
            return Err(LintError::Fixture(format!(
                "{name}: unknown fixture directive `//@ {directive}`"
            )));
        }
    }
    let virtual_path = virtual_path
        .ok_or_else(|| LintError::Fixture(format!("{name}: missing `//@ path:` directive")))?;
    Ok((virtual_path, expected))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_document_shape_holds() {
        let diags = vec![Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            rule: Rule::PanicHygiene,
            message: "no".into(),
            snippet: "x.unwrap()".into(),
        }];
        let cache = CacheStats {
            enabled: true,
            hits: 7,
            misses: 3,
        };
        let index = IndexStats {
            crates: 2,
            modules: 5,
            fns: 40,
            impls: 6,
            uses: 12,
            bindings: 90,
        };
        let doc = diagnostics_to_json(&diags, 10, &cache, &index);
        assert!(doc.contains("\"schema\": 2"));
        assert!(doc.contains("\"files_scanned\": 10"));
        assert!(doc.contains("\"hits\": 7"));
        assert!(doc.contains("\"misses\": 3"));
        assert!(doc.contains("\"fns\": 40"));
        assert!(doc.contains("\"rule\": \"panic-hygiene\""));
        assert!(doc.contains("\"line\": 3"));
        // The report must itself parse under the bundled JSON reader.
        json::parse(&doc).expect("schema-2 report must be valid JSON");
    }

    #[test]
    fn fixture_header_parses_path_and_expectations() {
        let text = "//@ path: crates/eval/src/x.rs\n//@ expect: wall-clock@4\nfn f() {}\n";
        let (path, expected) = parse_fixture_header("t.rs", text).expect("valid header");
        assert_eq!(path, "crates/eval/src/x.rs");
        assert_eq!(expected, vec![(Rule::WallClock, 4)]);
    }

    #[test]
    fn fixture_header_rejects_unknown_rules_and_missing_path() {
        assert!(parse_fixture_header("t.rs", "//@ expect: nope@4\n").is_err());
        assert!(parse_fixture_header("t.rs", "fn f() {}\n").is_err());
    }

    #[test]
    fn self_test_passes_on_the_shipped_fixtures() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let summaries = self_test(&dir).expect("shipped fixtures must satisfy the self-test");
        assert!(summaries.len() >= 8, "expected a broad fixture suite");
    }
}
