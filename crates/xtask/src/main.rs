//! Repo task driver, `cargo xtask` style: plain Rust instead of shell
//! for anything that must behave identically on every machine.
//!
//! ```text
//! cargo run -p xtask -- lint                 # scan the workspace; exit 1 on findings
//! cargo run -p xtask -- lint --self-test     # the lint fixtures, and clippy over its fixtures
//!
//! cargo run -p xtask -- fuzz                 # fuzz the wire front door; exit 1 on violation
//! cargo run -p xtask -- fuzz --iters N       # mutated inputs per target (default 10000)
//! cargo run -p xtask -- fuzz --seed S        # run seed (default 20050607)
//! cargo run -p xtask -- fuzz --target NAME   # frame | stream | arq (repeatable)
//! cargo run -p xtask -- fuzz --grow          # persist new-signature inputs into the corpus
//! cargo run -p xtask -- fuzz --init-corpus   # write the built-in seeds and exit
//! cargo run -p xtask -- fuzz --replay        # corpus replay only, no mutation
//! ```
//!
//! Exit codes: `0` clean, `1` violations found (or a fixture the
//! scanner failed to flag), `2` usage / I/O errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use distscroll_fuzz::{corpus, FuzzConfig, TargetKind};

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo run -p xtask -- lint [--self-test]\n\
         \x20      cargo run -p xtask -- fuzz [--iters N] [--seed S] [--target NAME]... \
         [--corpus DIR] [--out DIR] [--grow] [--init-corpus] [--replay] [--root DIR]"
    );
    ExitCode::from(2)
}

/// The workspace root: two levels above this crate's manifest dir.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(args.collect()),
        Some("fuzz") => fuzz(args.collect()),
        _ => usage(),
    }
}

fn fuzz(args: Vec<String>) -> ExitCode {
    let root = default_root();
    let mut cfg = FuzzConfig {
        corpus_dir: root.join("fuzz").join("corpus"),
        out_dir: root.join("target").join("fuzz"),
        ..FuzzConfig::default()
    };
    let mut explicit_targets: Vec<TargetKind> = Vec::new();
    let mut init_corpus = false;
    let mut replay_only = false;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iters" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => cfg.iters = n,
                _ => return usage(),
            },
            "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => cfg.seed = s,
                _ => return usage(),
            },
            "--target" => match it.next().as_deref().map(TargetKind::parse) {
                Some(Some(kind)) => {
                    if !explicit_targets.contains(&kind) {
                        explicit_targets.push(kind);
                    }
                }
                _ => {
                    eprintln!("fuzz: unknown target — known targets: frame, stream, arq");
                    return ExitCode::from(2);
                }
            },
            "--corpus" => match it.next() {
                Some(dir) => cfg.corpus_dir = PathBuf::from(dir),
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(dir) => cfg.out_dir = PathBuf::from(dir),
                None => return usage(),
            },
            "--root" => match it.next() {
                Some(dir) => {
                    let r = PathBuf::from(dir);
                    cfg.corpus_dir = r.join("fuzz").join("corpus");
                    cfg.out_dir = r.join("target").join("fuzz");
                }
                None => return usage(),
            },
            "--grow" => cfg.grow = true,
            "--init-corpus" => init_corpus = true,
            "--replay" => replay_only = true,
            _ => return usage(),
        }
    }
    if !explicit_targets.is_empty() {
        cfg.targets = explicit_targets;
    }
    if replay_only {
        cfg.iters = 0;
    }

    if init_corpus {
        let seeds = corpus::builtin_seeds();
        let mut written = 0usize;
        for seed in &seeds {
            match corpus::save(&cfg.corpus_dir, seed) {
                Ok(_) => written += 1,
                Err(e) => {
                    eprintln!("fuzz: cannot write corpus entry: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        println!(
            "fuzz: wrote {written} seed(s) to {}",
            cfg.corpus_dir.display()
        );
        return ExitCode::SUCCESS;
    }

    let reports = match distscroll_fuzz::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fuzz: error — {e}");
            return ExitCode::from(2);
        }
    };

    let mut total_execs = 0u64;
    let mut total_violations = 0usize;
    for r in &reports {
        total_execs += r.executions;
        total_violations += r.violations.len();
        println!(
            "fuzz: {:6} — {} execution(s) ({} corpus), {} signature(s), {} violation(s)",
            r.target,
            r.executions,
            r.corpus_entries,
            r.new_signatures,
            r.violations.len()
        );
        for v in &r.violations {
            let origin = match v.iteration {
                Some(i) => format!("iteration {i}"),
                None => "corpus replay".to_string(),
            };
            eprintln!(
                "fuzz: VIOLATION [{}] at {origin} (seed {}): {}",
                v.target, cfg.seed, v.message
            );
            eprintln!(
                "fuzz:   reproducer: {} ({} bytes, minimized from {})",
                v.repro_path.display(),
                v.minimized_len,
                v.input_len
            );
        }
    }
    if total_violations == 0 {
        println!(
            "fuzz: PASS — {total_execs} execution(s), 0 violations (seed {})",
            cfg.seed
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("fuzz: FAIL — {total_violations} violation(s) in {total_execs} execution(s)");
        ExitCode::FAILURE
    }
}

fn lint(args: Vec<String>) -> ExitCode {
    let root = default_root();
    match args.as_slice() {
        [] => {}
        [flag] if flag == "--self-test" => return lint_self_test(&root),
        _ => return usage(),
    }
    let (diags, files) = match distscroll_lint::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: error — {e}");
            return ExitCode::from(2);
        }
    };
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("lint: PASS — {files} files scanned, 0 violations");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "lint: FAIL — {} violation(s) across {files} files scanned",
            diags.len()
        );
        ExitCode::FAILURE
    }
}

/// Both halves of the self-test: the scanner's own fixtures, then clippy
/// over the fixture package of the rules rustc and clippy enforce.
fn lint_self_test(root: &Path) -> ExitCode {
    let fixtures = root.join("crates").join("lint").join("fixtures");
    let result = distscroll_lint::self_test(&fixtures).and_then(|mut summaries| {
        summaries.extend(distscroll_lint::clippy::self_test(root)?);
        Ok(summaries)
    });
    match result {
        Ok(summaries) => {
            for s in &summaries {
                println!("self-test: {s}");
            }
            println!("self-test: PASS — {} fixtures", summaries.len());
            ExitCode::SUCCESS
        }
        Err(distscroll_lint::LintError::Fixture(msg)) => {
            eprintln!("self-test: FAIL — {msg}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("self-test: error — {e}");
            ExitCode::from(2)
        }
    }
}
