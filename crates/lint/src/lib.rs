//! Workspace static analysis for the two invariants that no compiler
//! scope can express.
//!
//! The harness promises byte-identical reports at any `--jobs` value.
//! Most of what that rests on, rustc and clippy enforce: the root
//! `clippy.toml` bans threads outside `distscroll-par`, wall clocks,
//! hash collections, manual tick stepping and hand-wired filters;
//! `[workspace.lints]` denies panics in library code, undocumented
//! `unsafe` and suppressions without a reason; visibility and types
//! keep sequence numbers and stamps honest, and `clippy.toml` bans
//! their raw accessors. A sanctioned exception is an
//! `#[expect(<lint>, reason = "…")]`, an error once it stops matching.
//! DESIGN.md §10 maps every rule to its enforcer. This crate checks the
//! rest, over every non-vendored `.rs` file:
//!
//! | id | scope | forbids |
//! |----|-------|---------|
//! | `guard-across-fanout` | everywhere but `crates/par` | a `.lock()` / `lock_unpoisoned()` guard binding still live at a `par_map` / `par_map_ctx` call — deadlock risk under the token budget |
//! | `raw-decoder` | `crates/ingest` outside `src/shard.rs` and `src/loadgen.rs` | `StreamDecoder::new` / `::with_arq` / `::with_arq_resync` / `::default` — fleet sessions are opened by the shard registry |
//!
//! `cargo run -p xtask -- lint` runs [`scan_workspace`]; `-- lint
//! --self-test` runs [`self_test`] and [`clippy::self_test`].

pub mod clippy;
mod lex;
mod rules;

pub use rules::scan_source;

use std::fmt;
use std::path::Path;

/// The rules this crate checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// A mutex guard binding live across a `par_map`/`par_map_ctx`.
    GuardAcrossFanout,
    /// A `StreamDecoder` opened in `crates/ingest` outside the shard
    /// registry and the capture-side load generator.
    RawDecoder,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 2] = [Rule::GuardAcrossFanout, Rule::RawDecoder];

    /// The stable kebab-case id used in reports and fixtures.
    pub fn name(self) -> &'static str {
        match self {
            Rule::GuardAcrossFanout => "guard-across-fanout",
            Rule::RawDecoder => "raw-decoder",
        }
    }
}

/// One finding: a rule violated at a line of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Explanation with the suggested fix.
    pub message: String,
    /// The offending line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Diagnostic { file, line, .. } = self;
        let (rule, message, snippet) = (self.rule.name(), &self.message, &self.snippet);
        write!(f, "{file}:{line}: [{rule}] {message}\n    {snippet}")
    }
}

/// Why a scan or self-test could not finish or did not hold.
#[derive(Debug)]
pub enum LintError {
    /// A file could not be read or cargo could not be started.
    Io(String),
    /// A fixture is malformed, or its findings differ from its header.
    Fixture(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(msg) => write!(f, "I/O error: {msg}"),
            LintError::Fixture(msg) => write!(f, "fixture error: {msg}"),
        }
    }
}

/// Reads a file, or says which one could not be read.
pub(crate) fn read(path: &Path) -> Result<String, LintError> {
    std::fs::read_to_string(path).map_err(|e| LintError::Io(format!("{}: {e}", path.display())))
}

/// The sorted names of `dir`'s entries, hidden ones and build output left out.
pub(crate) fn entries(dir: &Path) -> Result<Vec<String>, LintError> {
    let read = std::fs::read_dir(dir).map_err(|e| LintError::Io(format!("{}: {e}", dir.display())));
    let mut names: Vec<String> = read?
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|n| !n.starts_with('.') && n != "target" && n != "results")
        .collect();
    names.sort();
    Ok(names)
}

/// Workspace-relative prefixes excluded from the scan: the vendored
/// crates (the same set the clippy CI job excludes) and the fixtures.
const SKIP_PREFIXES: &[&str] = &["crates/rand/", "crates/proptest/", "crates/lint/fixtures/"];

/// Scans every non-vendored `.rs` file under `root`, in path order.
/// Returns the findings and the number of files scanned.
///
/// # Errors
///
/// [`LintError::Io`] when a directory or file cannot be read: the scan
/// is all-or-nothing, so a permissions problem cannot shrink coverage.
pub fn scan_workspace(root: &Path) -> Result<(Vec<Diagnostic>, usize), LintError> {
    let (mut dirs, mut files) = (vec![String::new()], Vec::new());
    while let Some(dir) = dirs.pop() {
        for name in entries(&root.join(&dir))? {
            let path = if dir.is_empty() {
                name
            } else {
                format!("{dir}/{name}")
            };
            if SKIP_PREFIXES
                .iter()
                .any(|p| format!("{path}/").starts_with(p))
            {
                continue;
            } else if root.join(&path).is_dir() {
                dirs.push(path);
            } else if path.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut diags = Vec::new();
    for rel in &files {
        diags.extend(scan_source(&read(&root.join(rel))?, rel));
    }
    Ok((diags, files.len()))
}

/// Runs the scanner over every `fixture_dir/*.rs` and checks that each
/// produces exactly its declared diagnostics, and that every rule is
/// exercised. A fixture is never compiled; its header names the virtual
/// workspace path it is scanned as, and each finding it must produce:
///
/// ```text
/// //@ path: crates/ingest/src/service.rs
/// //@ expect: raw-decoder@7
/// ```
///
/// Returns one summary line per fixture.
///
/// # Errors
///
/// [`LintError::Fixture`] when a fixture is malformed or its findings
/// differ from its header; [`LintError::Io`] when a file cannot be read.
pub fn self_test(fixture_dir: &Path) -> Result<Vec<String>, LintError> {
    let mut summaries = Vec::new();
    let mut covered = Vec::new();
    for name in entries(fixture_dir)?
        .into_iter()
        .filter(|n| n.ends_with(".rs"))
    {
        let text = read(&fixture_dir.join(&name))?;
        let path = text.lines().find_map(|l| l.strip_prefix("//@ path: "));
        let path = path.ok_or_else(|| LintError::Fixture(format!("{name}: no `//@ path:`")))?;
        let diags = scan_source(&text, path.trim());
        covered.extend(diags.iter().map(|d| d.rule));
        let found = diags.iter().map(|d| (d.line, d.rule.name().to_string()));
        summaries.push(check_fixture(&name, &text, found.collect())?);
    }
    match Rule::ALL.into_iter().find(|r| !covered.contains(r)) {
        Some(rule) => Err(LintError::Fixture(format!(
            "no fixture exercises `{}`",
            rule.name()
        ))),
        None => Ok(summaries),
    }
}

/// Checks a fixture's `(line, id)` findings against the
/// `//@ expect: <id>@<line>` lines of its text; returns its summary.
pub(crate) fn check_fixture(
    name: &str,
    text: &str,
    mut found: Vec<(usize, String)>,
) -> Result<String, LintError> {
    let mut expected = Vec::new();
    for e in text.lines().filter_map(|l| l.strip_prefix("//@ expect: ")) {
        let parsed = e
            .split_once('@')
            .and_then(|(id, line)| Some((line.trim().parse().ok()?, id.to_string())));
        let bad = || LintError::Fixture(format!("{name}: `{e}` is not <id>@<line>"));
        expected.push(parsed.ok_or_else(bad)?);
    }
    expected.sort();
    found.sort();
    if found != expected {
        return Err(LintError::Fixture(format!(
            "{name}\n  expected: {expected:?}\n  found:    {found:?}"
        )));
    }
    Ok(format!("{name}: {} finding(s) as expected", found.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn workspace_scan_is_clean_and_covers_the_tree() {
        let (diags, files) = scan_workspace(&root()).unwrap();
        assert!(
            files > 60,
            "expected the first-party tree, got {files} files"
        );
        let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
        assert!(diags.is_empty(), "lint findings:\n{}", rendered.join("\n"));
    }

    #[test]
    fn self_test_passes_on_the_shipped_fixtures() {
        let summaries = self_test(&root().join("crates/lint/fixtures")).unwrap();
        assert_eq!(summaries.len(), 4);
    }
}
