//! Command-line harness: regenerate any figure or experiment.
//!
//! ```text
//! distscroll-eval [--effort quick|full] [--seed N] [--jobs N] [--out DIR] \
//!                 [--list] [--only ID] <id>... | all
//! ```
//!
//! The experiment set comes from the registry in
//! `distscroll_eval::experiments` — `--list` prints every id with its
//! report id and title. `--only ID` (or a positional id) selects one
//! experiment; both the CLI id (`fig4`) and the report id (`F4`) are
//! accepted, case-insensitively. Reports print to stdout; with `--out`
//! each is also written to `DIR/<id>.txt`.
//!
//! `--jobs N` caps the worker threads (`1` forces the serial path, `0`
//! or absent means auto). Reports are byte-for-byte identical at any
//! jobs count. Each report is followed by its wall clock on stdout;
//! the pipeline benchmark lives in `perfbench/` (see its README).

use std::io::Write as _;

use distscroll_eval::experiments::{self, Effort, REGISTRY};

fn usage() -> ! {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id()).collect();
    eprintln!(
        "usage: distscroll-eval [--quick | --effort quick|full] [--seed N] [--jobs N] \
         [--out DIR] [--list] [--only ID] <{}|all>",
        ids.join("|")
    );
    std::process::exit(2);
}

/// Prints the registry as an aligned `id / report / title` listing.
fn list_experiments() {
    println!("{:<12} {:<9} title", "id", "report");
    for e in REGISTRY {
        println!("{:<12} {:<9} {}", e.id(), e.report_id(), e.title());
    }
}

fn main() {
    let mut effort = Effort::Full;
    let mut seed = 20050607u64; // the paper's year and venue date
    let mut jobs = 0usize; // 0 = auto
    let mut out_dir: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => effort = Effort::Quick,
            "--effort" => {
                effort = match args.next().as_deref() {
                    Some("quick") => Effort::Quick,
                    Some("full") => Effort::Full,
                    _ => usage(),
                };
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                out_dir = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--list" => {
                list_experiments();
                return;
            }
            "--only" => {
                targets.push(args.next().unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => usage(),
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown option {flag:?}");
                usage();
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }

    let ids: Vec<&str> = if targets.iter().any(|t| t == "all") {
        REGISTRY.iter().map(|e| e.id()).collect()
    } else {
        targets
            .iter()
            .map(|t| match experiments::find(t) {
                Some(e) => e.id(),
                None => {
                    eprintln!("error: unknown experiment id {t:?} (try --list)");
                    usage();
                }
            })
            .collect()
    };

    experiments::set_jobs(jobs);
    let timed = experiments::run_ids_timed(&ids, effort, seed);

    println!(
        "DistScroll reproduction — experiment harness (seed {seed}, {effort:?}, jobs {})\n",
        if jobs == 0 {
            "auto".to_string()
        } else {
            jobs.to_string()
        }
    );
    let mut holds = 0;
    for (r, secs) in &timed {
        println!("{r}");
        println!("wall clock: {secs:.2} s\n");
        if r.shape_holds {
            holds += 1;
        }
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{}.txt", r.id.to_lowercase());
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::File::create(&path))
                .and_then(|mut f| f.write_all(r.render().as_bytes()));
            if let Err(e) = written {
                eprintln!("error: cannot write report {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "== summary: {holds}/{} experiments hold the paper's shape ==",
        timed.len()
    );
    if holds < timed.len() {
        std::process::exit(1);
    }
}
