//! Workspace discovery and the scan driver: which files the linter
//! looks at, and how the per-file cache and the symbol index thread
//! through a run.
//!
//! The walk is deterministic (directory entries are sorted) so the
//! diagnostic order — and the JSON artifact CI uploads — is stable
//! across machines, the same property the scanner exists to enforce
//! elsewhere. The cache never changes the output, only whether a file
//! is re-parsed: a hit replays the stored diagnostics and index rows,
//! a miss scans fresh and stores them.

use std::path::{Path, PathBuf};

use crate::cache::{CacheEntry, CacheStats, ScanCache};
use crate::index::SymbolIndex;
use crate::parse::parse_file;
use crate::rules::{scan_parsed, FileContext};
use crate::{Diagnostic, LintError};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "results"];

/// Workspace-relative prefixes excluded from the scan: vendored crates
/// (tracking upstream APIs, not held to the workspace bar — the same
/// set the clippy CI job excludes) and the linter's own known-bad
/// fixtures.
const SKIP_PREFIXES: &[&str] = &["crates/rand/", "crates/proptest/", "crates/lint/fixtures/"];

/// Knobs for one workspace scan.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Consult and update `target/lint-cache/cache.json`.
    pub use_cache: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions { use_cache: true }
    }
}

/// The outcome of a workspace scan.
#[derive(Debug)]
pub struct ScanReport {
    /// Every finding, in path order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files were scanned (hits + misses).
    pub files_scanned: usize,
    /// Cache accounting for this run.
    pub cache: CacheStats,
    /// The workspace symbol index built (or replayed) by the scan.
    pub index: SymbolIndex,
}

/// Walks `root` and scans every non-vendored `.rs` file with the
/// default options (cache on).
///
/// # Errors
///
/// Returns [`LintError::Io`] when a directory or file cannot be read —
/// the scan is all-or-nothing so a permissions problem cannot silently
/// shrink coverage.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, LintError> {
    scan_workspace_with(root, ScanOptions::default())
}

/// [`scan_workspace`] with explicit options.
///
/// # Errors
///
/// Returns [`LintError::Io`] when a directory or file cannot be read.
pub fn scan_workspace_with(root: &Path, opts: ScanOptions) -> Result<ScanReport, LintError> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut cache = if opts.use_cache {
        ScanCache::load(root)
    } else {
        ScanCache::default()
    };
    let mut stats = CacheStats {
        enabled: opts.use_cache,
        ..CacheStats::default()
    };
    let mut index = SymbolIndex::default();
    let mut diagnostics = Vec::new();

    for rel in &files {
        let abs = root.join(rel);
        let text = std::fs::read_to_string(&abs).map_err(|source| LintError::Io {
            path: abs.clone(),
            source,
        })?;
        let hash = crate::cache::content_hash(&text);
        if let Some(entry) = cache.get(rel, hash) {
            stats.hits += 1;
            diagnostics.extend(entry.diags.iter().cloned());
            index.add_file(rel, entry.items.clone(), entry.bindings);
            continue;
        }
        stats.misses += 1;
        let parsed = parse_file(&text);
        let ctx = FileContext::classify(rel);
        let diags = scan_parsed(&parsed, &ctx);
        index.add_file(rel, parsed.items.clone(), parsed.bindings.len());
        if opts.use_cache {
            cache.put(
                rel,
                CacheEntry {
                    hash,
                    diags: diags.clone(),
                    items: parsed.items,
                    bindings: parsed.bindings.len(),
                },
            );
        }
        diagnostics.extend(diags);
    }
    if opts.use_cache {
        cache.save(root);
    }
    Ok(ScanReport {
        diagnostics,
        files_scanned: files.len(),
        cache: stats,
        index,
    })
}

/// Recursively collects workspace-relative `/`-separated `.rs` paths.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();

    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with('.') {
            continue;
        }
        let rel = relative_slash_path(root, &path);
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            let rel_dir = format!("{rel}/");
            if SKIP_PREFIXES
                .iter()
                .any(|p| rel_dir.starts_with(p) || *p == rel_dir)
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") && !SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            out.push(rel);
        }
    }
    Ok(())
}

/// `root`-relative path with `/` separators regardless of platform.
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        // crates/lint -> crates -> workspace root
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf)
            .unwrap_or_default()
    }

    /// Uncached scan so the test result reflects the sources as they
    /// are, never a stale cache file.
    fn scan_fresh() -> ScanReport {
        scan_workspace_with(&workspace_root(), ScanOptions { use_cache: false })
            .expect("workspace scan must run")
    }

    #[test]
    fn workspace_scan_is_clean_and_covers_the_tree() {
        let report = scan_fresh();
        assert!(
            report.files_scanned > 60,
            "expected to scan the whole first-party tree, got {} files",
            report.files_scanned
        );
        let rendered: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
        assert!(
            report.diagnostics.is_empty(),
            "workspace must lint clean:\n{}",
            rendered.join("\n")
        );
    }

    #[test]
    fn vendored_crates_and_fixtures_are_excluded() {
        let report = scan_fresh();
        for d in &report.diagnostics {
            for p in SKIP_PREFIXES {
                assert!(!d.file.starts_with(p), "{} should be excluded", d.file);
            }
        }
        assert!(report.files_scanned > 0);
    }

    #[test]
    fn symbol_index_covers_the_workspace() {
        let report = scan_fresh();
        let stats = report.index.stats();
        assert!(stats.crates >= 8, "crates indexed: {}", stats.crates);
        assert!(stats.fns > 200, "fns indexed: {}", stats.fns);
        assert!(stats.impls > 30, "impls indexed: {}", stats.impls);
        assert!(stats.bindings > 500, "bindings indexed: {}", stats.bindings);
        // A symbol that must exist: the ARQ sequence type's home.
        assert!(
            report
                .index
                .lookup("Seq16")
                .iter()
                .any(|(p, _)| *p == "crates/hw/src/arq.rs"),
            "Seq16 must be indexed in crates/hw/src/arq.rs"
        );
    }

    #[test]
    fn warm_cache_replays_identical_diagnostics_and_index() {
        // Use a private temp copy of the cache dir semantics: scan the
        // real tree twice with the cache on. The second run must be
        // all hits and byte-identical in its products.
        let root = workspace_root();
        let cold = scan_workspace_with(&root, ScanOptions { use_cache: true })
            .expect("cold scan must run");
        let warm = scan_workspace_with(&root, ScanOptions { use_cache: true })
            .expect("warm scan must run");
        assert_eq!(warm.cache.misses, 0, "warm run must re-scan nothing");
        assert_eq!(warm.cache.hits, warm.files_scanned);
        assert_eq!(cold.diagnostics, warm.diagnostics);
        assert_eq!(cold.index.stats(), warm.index.stats());
    }
}
