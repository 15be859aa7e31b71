//! One module per reproduced figure, table or open question.
//!
//! Every experiment has the same signature — `run(effort, seed) ->
//! ExperimentReport` — and is registered once in [`REGISTRY`], the
//! single ordered list the CLI binary and the integration tests both
//! enumerate. Adding an experiment means adding a module and one line
//! to the `registry!` invocation; no other list in the workspace needs
//! touching.

pub mod ablation;
pub mod arq;
pub mod button_layout;
pub mod direction;
pub mod fastscroll;
pub mod fig4;
pub mod fig5;
pub mod ingest;
pub mod islands;
pub mod link;
pub mod long_menus;
pub mod pda;
pub mod range_sweep;
pub mod recognizer;
pub mod robustness;
pub mod shootout;
pub mod study;

/// How much compute to spend: tests and CI use `Quick`, the recorded
/// results in EXPERIMENTS.md use `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Effort {
    /// Scaled-down runs (seconds).
    Quick,
    /// Paper-grade runs (minutes).
    #[default]
    Full,
}

impl Effort {
    /// Picks `q` under quick effort, `f` under full.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Effort::Quick => q,
            Effort::Full => f,
        }
    }
}

/// The rendered outcome of one experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentReport {
    /// Stable identifier (F4, F5, T-island, S6, E1…E7, L1).
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// What the paper states or asks, quoted or paraphrased.
    pub paper_claim: String,
    /// Rendered tables and plots, in presentation order.
    pub sections: Vec<String>,
    /// One-line findings.
    pub findings: Vec<String>,
    /// Whether the paper's qualitative shape holds in the reproduction.
    pub shape_holds: bool,
}

impl ExperimentReport {
    /// Full text rendering (what the CLI prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("######## {} — {} ########\n", self.id, self.title));
        out.push_str(&format!("paper: {}\n\n", self.paper_claim));
        for s in &self.sections {
            out.push_str(s);
            out.push('\n');
        }
        out.push_str("findings:\n");
        for f in &self.findings {
            out.push_str(&format!("  * {f}\n"));
        }
        out.push_str(&format!(
            "shape vs paper: {}\n",
            if self.shape_holds {
                "HOLDS"
            } else {
                "DOES NOT HOLD"
            }
        ));
        out
    }
}

impl std::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// The worker-token budget for the harness, settable from the CLI.
///
/// `0` means "auto" (the machine's available parallelism); `1` forces
/// the serial path everywhere. Experiments read it through [`jobs`] at
/// their fan-out points; `distscroll-par` enforces it globally, so
/// nested fan-outs (users inside experiments) borrow
/// from this one budget instead of multiplying threads. Results are
/// byte-for-byte identical at any value — parallelism only reorders
/// *execution*, never records — so a process-wide knob is safe.
static JOBS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Sets the worker-token budget (`0` = auto, `1` = serial).
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, std::sync::atomic::Ordering::Relaxed);
}

/// The effective worker-token budget.
pub fn jobs() -> usize {
    distscroll_par::resolve_jobs(JOBS.load(std::sync::atomic::Ordering::Relaxed))
}

/// A registered experiment: stable ids, a one-line title and the
/// standard `run(effort, seed)` entry point every consumer drives.
///
/// Implementations are zero-sized entries generated by the `registry!`
/// macro below; consumers hold them as `&'static dyn Experiment` out of
/// [`REGISTRY`] and never name the concrete types.
pub trait Experiment: Sync {
    /// CLI id (`fig4`, `longmenus`, …) — what the harness accepts.
    fn id(&self) -> &'static str;
    /// Report id (`F4`, `E4`, …) — what the rendered header carries.
    fn report_id(&self) -> &'static str;
    /// One-line human-readable title (what `--list` prints).
    fn title(&self) -> &'static str;
    /// Runs the experiment.
    fn run(&self, effort: Effort, seed: u64) -> ExperimentReport;
}

/// Declares the experiment registry: one zero-sized entry type per
/// experiment plus the canonical [`REGISTRY`] and [`ALL_IDS`] orders.
macro_rules! registry {
    ($(($entry:ident, $module:ident, $cli:literal, $report:literal, $title:literal),)+) => {
        $(
            #[doc = concat!("Registry entry driving [`", stringify!($module), "::run`].")]
            struct $entry;

            impl Experiment for $entry {
                fn id(&self) -> &'static str {
                    $cli
                }
                fn report_id(&self) -> &'static str {
                    $report
                }
                fn title(&self) -> &'static str {
                    $title
                }
                fn run(&self, effort: Effort, seed: u64) -> ExperimentReport {
                    $module::run(effort, seed)
                }
            }
        )+

        /// Canonical experiment order: the CLI ids, as `run_all` reports
        /// them. Derived from the same `registry!` rows as [`REGISTRY`].
        pub const ALL_IDS: [&str; [$($cli),+].len()] = [$($cli),+];

        /// Every experiment in canonical presentation order — the single
        /// source of truth the CLI and the tests enumerate.
        pub static REGISTRY: [&'static dyn Experiment; ALL_IDS.len()] = [$(&$entry),+];
    };
}

registry! {
    (Fig4, fig4, "fig4", "F4", "sensor transfer curve, linear axes"),
    (Fig5, fig5, "fig5", "F5", "sensor transfer curve, logarithmic axes"),
    (Islands, islands, "islands", "T-island", "the Section 4.2 island mapping, tabulated"),
    (Study, study, "study", "S6", "initial user study: discovery and nearly-errorless use"),
    (Shootout, shootout, "shootout", "E1", "distance scrolling vs buttons, wheel, tilt and yoyo"),
    (RangeSweep, range_sweep, "range", "E2", "is the 4-30 cm scrolling range appropriate?"),
    (Direction, direction, "direction", "E3", "scroll towards oneself or away: the cost of a wrong stereotype"),
    (LongMenus, long_menus, "longmenus", "E4", "long menus: chunks of 10 vs speed-dependent scrolling vs naive"),
    (Fastscroll, fastscroll, "fastscroll", "E5", "advanced users exploiting the <4 cm fold-back for fast browsing"),
    (Robustness, robustness, "robustness", "E6", "clothing colour and light conditions: robustness of the curve"),
    (Ablation, ablation, "ablation", "E7", "design ablations: gaps, equalization, filters, tick rate"),
    (Buttons, button_layout, "buttons", "E8", "button layouts: three buttons vs two slidable vs one large"),
    (Pda, pda, "pda", "E9", "the minimized PDA add-on: host-rendered UI over the radio"),
    (Link, link, "link", "L1", "the wireless telemetry link to the host PC"),
    (Arq, arq, "arq", "L2", "reliable telemetry transport (ARQ) over the lossy link"),
    (Ingest, ingest, "ingest", "L3", "fleet-scale telemetry ingest: multiplexed ARQ sessions"),
    (RecognizerBand, recognizer, "recognizer", "R1", "segmented recognizer: usable band under tremor and fold-back"),
}

/// Looks up a registry entry by CLI id or report id, ASCII
/// case-insensitively: `fig4`, `F4` and `f4` all find Figure 4.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    REGISTRY
        .iter()
        .copied()
        .find(|e| e.id().eq_ignore_ascii_case(id) || e.report_id().eq_ignore_ascii_case(id))
}

/// Runs one experiment by CLI or report id; `None` for an unknown id.
pub fn run_id(id: &str, effort: Effort, seed: u64) -> Option<ExperimentReport> {
    find(id).map(|e| e.run(effort, seed))
}

/// Runs every experiment and reports in the canonical order.
///
/// The experiments fan out under a [`jobs`] token budget; each is internally deterministic (all stochasticity
/// flows from `seed`), and the join reassembles reports in canonical
/// order, so the output is identical to running them one after another.
pub fn run_all(effort: Effort, seed: u64) -> Vec<ExperimentReport> {
    run_ids_timed(&ALL_IDS, effort, seed)
        .into_iter()
        .map(|(report, _)| report)
        .collect()
}

/// Runs the given experiments in parallel, returning `(report, secs)`
/// in input order. `secs` is each experiment's wall clock as measured
/// inside the fan-out, so concurrent experiments share the machine.
///
/// # Panics
///
/// Panics on an unknown id.
#[expect(
    clippy::panic,
    reason = "documented panic (# Panics); callers validate ids against ALL_IDS first"
)]
pub fn run_ids_timed(ids: &[&str], effort: Effort, seed: u64) -> Vec<(ExperimentReport, f64)> {
    distscroll_par::par_map(jobs(), ids, |_, id| {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock here is the measured quantity (the CLI's printed per-experiment wall clock); it never feeds report bytes"
        )]
        let t0 = std::time::Instant::now();
        let report =
            run_id(id, effort, seed).unwrap_or_else(|| panic!("unknown experiment id {id:?}"));
        (report, t0.elapsed().as_secs_f64())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_picks_sides() {
        assert_eq!(Effort::Quick.pick(1, 2), 1);
        assert_eq!(Effort::Full.pick(1, 2), 2);
    }

    #[test]
    fn registry_ids_are_unique_and_match_all_ids() {
        let cli: Vec<&str> = REGISTRY.iter().map(|e| e.id()).collect();
        assert_eq!(cli, ALL_IDS, "ALL_IDS mirrors the registry order");
        let mut every: Vec<&str> = REGISTRY
            .iter()
            .flat_map(|e| [e.id(), e.report_id()])
            .collect();
        every.sort_unstable();
        let n = every.len();
        every.dedup();
        assert_eq!(every.len(), n, "CLI and report ids never collide");
    }

    #[test]
    fn find_accepts_cli_and_report_ids_in_any_case() {
        for e in REGISTRY {
            for key in [e.id().to_uppercase(), e.report_id().to_lowercase()] {
                let hit = find(&key).unwrap_or_else(|| panic!("{key:?} should resolve"));
                assert_eq!(hit.id(), e.id(), "lookup of {key:?}");
            }
        }
        assert!(find("no-such-experiment").is_none());
    }

    #[test]
    fn registry_titles_are_single_lines() {
        for e in REGISTRY {
            assert!(!e.title().is_empty(), "{} has a title", e.id());
            assert!(!e.title().contains('\n'), "{} title is one line", e.id());
        }
    }

    #[test]
    fn report_renders_all_parts() {
        let r = ExperimentReport {
            id: "F4",
            title: "demo".into(),
            paper_claim: "claim".into(),
            sections: vec!["body".into()],
            findings: vec!["finding".into()],
            shape_holds: true,
        };
        let text = r.render();
        for needle in ["F4", "demo", "claim", "body", "finding", "HOLDS"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
