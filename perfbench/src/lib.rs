//! The DistScroll pipeline benchmark.
//!
//! One workload runs per process, single-threaded (`jobs = 1`, which
//! the worker pool runs inline). A run makes *passes* until its wall
//! budget is spent; each pass builds the workload's inputs and system
//! under test from the seed (timed as set-up), runs it to completion
//! (timed as the measured region, with one latency sample per
//! operation), and checks its outputs. Every pass of a run is identical, so their output
//! digests must agree. See `README.md` beside this crate for the
//! workloads, the metrics and the noise they are built to absorb.

pub mod fleet;
pub mod stats;
pub mod study;
pub mod trace;

use std::time::Instant;

use stats::{percentile, tail_percentile, Digest};
use trace::{Layer, NoTrace, Probe, Site, SiteTotals, Tracer};

/// Named per-pass counters a workload reports (all deterministic).
pub type Counters = Vec<(&'static str, f64)>;

/// What one pass of a workload produced.
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// Simulated device-seconds the pass completed.
    pub sim_s: f64,
    /// Wall time of each operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted (trials, or batches offered).
    pub attempted: u64,
    /// Operations failed (broken trials, or shed batches).
    pub failed: u64,
    /// Digest of the pass's simulated outputs.
    pub digest: Digest,
    /// Per-layer counts and ratios.
    pub counters: Counters,
    /// Every correctness gate that failed, described.
    pub gate_failures: Vec<String>,
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §6 selection study over the lossy ARQ link.
    Study,
    /// Fleet replay with every session resident.
    FleetIngest,
    /// Fleet replay with sessions evicted and resynced every round.
    FleetChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Study, Workload::FleetIngest, Workload::FleetChurn];

    /// The workloads `BENCHMARK.json` lists: all but `FleetChurn`,
    /// whose gate fails until an evicted session resumes without
    /// delivering records twice.
    pub const LISTED: [Workload; 2] = [Workload::Study, Workload::FleetIngest];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::FleetIngest => "fleet_ingest",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Cohort and block size of one `study` pass.
    pub study: study::StudyScale,
    /// Devices in one fleet pass.
    pub devices: u64,
    /// Passes the run makes at least.
    pub passes: usize,
    /// Wall time, s, the run keeps starting passes for: it stops at the
    /// first pass boundary past this budget (and not before `passes`).
    pub seconds: f64,
    /// Trace every other pass (the others stay untraced, so the
    /// tracing overhead is measured under the same conditions).
    pub trace: bool,
}

impl RunConfig {
    /// A run of `passes` passes at the benchmark's stated input sizes:
    /// 32 participants × 40 trials, or a fleet of 10 000 devices. Set
    /// [`RunConfig::seconds`] to keep it going for a wall-time budget.
    pub fn new(workload: Workload, seed: u64, passes: usize, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            study: study::StudyScale {
                participants: 32,
                trials: 40,
            },
            devices: 10_000,
            passes,
            seconds: 0.0,
            trace,
        }
    }
}

/// A pass's system under test.
enum Sut {
    Study(study::Study),
    Fleet(fleet::Fleet),
}

/// Timings and outcome of one pass.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Whether the pass was traced.
    pub traced: bool,
    /// Set-up wall time, s.
    pub setup_s: f64,
    /// Measured-region wall time, s.
    pub wall_s: f64,
    /// The pass's outputs.
    pub outcome: PassOutcome,
}

/// Builds and runs one pass under `probe`.
fn one_pass<P: Probe>(cfg: &RunConfig, probe: &mut P) -> (f64, f64, PassOutcome) {
    let started = Instant::now();
    let root = probe.enter(Site::Setup);
    let sut = match cfg.workload {
        Workload::Study => Sut::Study(study::setup(cfg.seed, cfg.study, probe)),
        Workload::FleetIngest => Sut::Fleet(fleet::setup(
            cfg.seed,
            cfg.devices,
            fleet::Regime::Resident,
            probe,
        )),
        Workload::FleetChurn => Sut::Fleet(fleet::setup(
            cfg.seed,
            cfg.devices,
            fleet::Regime::Churn,
            probe,
        )),
    };
    probe.exit(root);
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let outcome = match sut {
        Sut::Study(s) => study::run(s, probe),
        Sut::Fleet(f) => fleet::run(f, probe),
    };
    (setup_s, started.elapsed().as_secs_f64(), outcome)
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunResult {
    /// The configuration run.
    pub cfg: RunConfig,
    /// Every pass, in order.
    pub passes: Vec<PassRecord>,
    /// Per-site span totals over the traced passes.
    pub totals: [SiteTotals; Site::COUNT],
    /// The tracer, for writing the spans out.
    pub tracer: Option<Tracer>,
    /// Correctness gates that failed, across all passes.
    pub gate_failures: Vec<String>,
    /// The process's peak resident set when the first pass ended, MB:
    /// one pass's working set, read before the per-pass records the run
    /// keeps (more of them the faster the machine) can add to it.
    pub peak_rss_mb: f64,
}

/// Runs `cfg`, checking every pass's gates and that every pass's
/// digest equals the first's.
pub fn run(cfg: RunConfig) -> RunResult {
    let mut tracer = cfg.trace.then(Tracer::default);
    let mut passes = Vec::with_capacity(cfg.passes);
    let mut first_pass_rss_mb = 0.0;
    let started = Instant::now();
    for i in 0.. {
        if i >= cfg.passes.max(1) && started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let (setup_s, wall_s, outcome) = match tracer.as_mut() {
            Some(t) if i % 2 == 1 => one_pass(&cfg, t),
            _ => one_pass(&cfg, &mut NoTrace),
        };
        passes.push(PassRecord {
            traced: tracer.is_some() && i % 2 == 1,
            setup_s,
            wall_s,
            outcome,
        });
        if i == 0 {
            first_pass_rss_mb = peak_rss_mb();
        }
    }

    let mut gate_failures: Vec<String> = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        gate_failures.extend(
            p.outcome
                .gate_failures
                .iter()
                .map(|g| format!("pass {i}: {g}")),
        );
        if let Some(first) = passes.first() {
            if p.outcome.digest != first.outcome.digest {
                gate_failures.push(format!(
                    "pass {i}: digest {} differs from pass 0's {}",
                    p.outcome.digest.hex(),
                    first.outcome.digest.hex()
                ));
            }
            if p.outcome.latencies_ms.len() != first.outcome.latencies_ms.len() {
                gate_failures.push(format!(
                    "pass {i}: {} operations timed, pass 0 timed {}",
                    p.outcome.latencies_ms.len(),
                    first.outcome.latencies_ms.len()
                ));
            }
        }
    }
    let pool = distscroll_par::pool_stats();
    if pool.workers_spawned != 0 {
        gate_failures.push(format!(
            "{} pool workers spawned: the run was not single-threaded",
            pool.workers_spawned
        ));
    }
    let totals = tracer
        .as_mut()
        .map_or([SiteTotals::default(); Site::COUNT], Tracer::totals);
    RunResult {
        cfg,
        passes,
        totals,
        tracer,
        gate_failures,
        peak_rss_mb: first_pass_rss_mb,
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

impl RunResult {
    fn untraced(&self) -> impl Iterator<Item = &PassRecord> {
        self.passes.iter().filter(|p| !p.traced)
    }

    fn traced(&self) -> impl Iterator<Item = &PassRecord> {
        self.passes.iter().filter(|p| p.traced)
    }

    /// The digest every pass agreed on (pass 0's).
    pub fn digest(&self) -> String {
        self.passes
            .first()
            .map_or_else(String::new, |p| p.outcome.digest.hex())
    }

    /// Operations attempted and failed, over all passes.
    pub fn attempted_failed(&self) -> (u64, u64) {
        self.passes.iter().fold((0, 0), |(a, f), p| {
            (a + p.outcome.attempted, f + p.outcome.failed)
        })
    }

    /// Untraced operation latencies, sorted, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .untraced()
            .flat_map(|p| p.outcome.latencies_ms.iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Each operation's slow decile over the untraced passes, sorted,
    /// ms: the nearest-rank p90 of its wall times across the passes.
    /// Every pass repeats the same operations in the same order (their
    /// digests and operation counts agree), so operation `i` of one pass
    /// is operation `i` of every other. See [`RunResult::end_to_end`]
    /// for why the slow decile.
    pub fn operation_slow_ms(&self) -> Vec<f64> {
        let passes: Vec<&[f64]> = self
            .untraced()
            .map(|p| p.outcome.latencies_ms.as_slice())
            .collect();
        let ops = passes.first().map_or(0, |l| l.len());
        let mut slow: Vec<f64> = (0..ops)
            .map(|i| slow_decile(passes.iter().filter_map(|l| l.get(i).copied())))
            .collect();
        slow.sort_by(f64::total_cmp);
        slow
    }

    /// The untraced passes' rate at their slow decile: simulated
    /// device-seconds per wall-second, where the wall per simulated
    /// second is each pass's nearest-rank p90.
    fn slow_throughput(&self) -> f64 {
        let cost = slow_decile(
            self.untraced()
                .filter(|p| p.outcome.sim_s > 0.0)
                .map(|p| p.wall_s / p.outcome.sim_s),
        );
        if cost > 0.0 {
            1.0 / cost
        } else {
            0.0
        }
    }

    /// Simulated device-seconds completed over `passes`, per
    /// wall-second of their measured regions: a ratio of totals, which
    /// compares the traced and untraced passes of one run (they
    /// alternate, so both see the same machine).
    fn throughput<'a>(passes: impl Iterator<Item = &'a PassRecord>) -> f64 {
        let (sim_s, wall_s) =
            passes.fold((0.0, 0.0), |(s, w), p| (s + p.outcome.sim_s, w + p.wall_s));
        if wall_s > 0.0 {
            sim_s / wall_s
        } else {
            0.0
        }
    }

    /// The end-to-end metrics, from the untraced passes.
    ///
    /// The machine the benchmark was built on holds a steady slow state
    /// and leaves it in fast spells of a second to more than a run, so
    /// a mean or a median of a run's samples moves with the share of
    /// the run those spells took. The time metrics therefore describe
    /// the steady state: every repeated unit (an operation for the
    /// latencies, a pass for the throughput, a pass's set-up) is taken
    /// at its slow decile over the run's passes, which stays put while
    /// at least a tenth of the run is slow. A change to the program
    /// moves every repetition, and so the decile, with it.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let slow = self.operation_slow_ms();
        vec![
            metric("throughput", self.slow_throughput(), "sim-s/s"),
            metric(
                "latency_p50_ms",
                percentile(&slow, 500).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "latency_p90_ms",
                percentile(&slow, 900).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "setup_s",
                slow_decile(self.untraced().map(|p| p.setup_s)),
                "s",
            ),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }

    /// Human-readable lines beside the metrics: the operations and
    /// passes the time metrics rest on, then the pooled samples' median,
    /// the highest percentile with at least ten samples beyond it, the
    /// sample count, and the untraced passes' ratio-of-totals rate.
    pub fn latency_summary(&self) -> String {
        let ops = self.operation_slow_ms().len();
        let passes = self.untraced().count();
        let lat = self.latencies_ms();
        let p50 = percentile(&lat, 500).unwrap_or(0.0);
        let tail = match tail_percentile(lat.len()).and_then(|p| Some((p, percentile(&lat, p)?))) {
            Some((p, v)) => format!("p{} {v:.4} ms, ", f64::from(p) / 10.0),
            None => String::new(),
        };
        format!(
            "slow deciles of {ops} operations over {passes} passes\n\
             pooled latency per operation: p50 {p50:.4} ms, {tail}n={}\n\
             ratio-of-totals throughput: {:.1} sim-s/s",
            lat.len(),
            Self::throughput(self.untraced())
        )
    }

    /// The per-layer metrics, from the traced passes.
    pub fn per_layer(&self) -> Vec<Metric> {
        let t = |s: Site| self.totals[s as usize];
        let traced_wall: f64 = self.traced().map(|p| p.setup_s + p.wall_s).sum();
        let wall_ns = (traced_wall * 1e9).max(1.0);
        let share = |ns: u64| ns as f64 / wall_ns * 100.0;
        let layer_self = |l: Layer| -> u64 {
            Site::ALL
                .into_iter()
                .filter(|s| s.layer() == l)
                .map(|s| t(s).self_ns)
                .sum()
        };
        let per = |s: Site, scale: f64| {
            let x = t(s);
            if x.calls == 0 {
                0.0
            } else {
                x.total_ns as f64 / x.calls as f64 / scale
            }
        };
        // Counters are per pass and identical across passes.
        let counters: Counters = self
            .passes
            .first()
            .map(|p| p.outcome.counters.clone())
            .unwrap_or_default();
        let traced_passes = self.traced().count().max(1) as f64;
        let counter = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let per_unit = |s: Site, units: f64| {
            let units = units * traced_passes;
            if units > 0.0 {
                t(s).self_ns as f64 / units
            } else {
                0.0
            }
        };
        let spans_ns: u64 = Site::ALL.into_iter().map(|s| t(s).self_ns).sum();
        let untraced_tput = Self::throughput(self.untraced());
        let traced_tput = Self::throughput(self.traced());
        let overhead = if traced_tput > 0.0 {
            (untraced_tput / traced_tput - 1.0) * 100.0
        } else {
            0.0
        };
        let (spans, _) = self.tracer.as_ref().map_or((0, 0), Tracer::counts);

        let mut out = vec![
            metric("core.tick.ns", per(Site::CoreTick, 1.0), "ns/tick"),
            metric("core.share", share(layer_self(Layer::Core)), "%"),
            metric("user.step.ns", per(Site::UserStep, 1.0), "ns/step"),
            metric("user.share", share(layer_self(Layer::User)), "%"),
            metric(
                "host.decode.ns_per_byte",
                per_unit(Site::HostDecode, counter("host.bytes")),
                "ns/B",
            ),
            metric("host.decode.share", share(t(Site::HostDecode).self_ns), "%"),
            metric(
                "host.session.ns_per_record",
                per_unit(Site::HostSession, counter("host.records")),
                "ns/record",
            ),
            metric(
                "host.session.share",
                share(t(Site::HostSession).self_ns),
                "%",
            ),
            metric(
                "ingest.ns_per_byte",
                per_unit(Site::IngestProcess, counter("ingest.bytes")),
                "ns/B",
            ),
            metric("ingest.round.ms", per(Site::IngestProcess, 1e6), "ms/round"),
            metric("ingest.share", share(layer_self(Layer::Ingest)), "%"),
            metric(
                "ingest.round.share",
                share(t(Site::IngestProcess).self_ns),
                "%",
            ),
            metric("ingest.offer.ns", per(Site::IngestOffer, 1.0), "ns/offer"),
            metric(
                "ingest.offer.share",
                share(t(Site::IngestOffer).self_ns),
                "%",
            ),
            metric(
                "loadgen.capture.ms",
                per(Site::LoadgenCapture, 1e6),
                "ms/capture",
            ),
            metric("loadgen.share", share(layer_self(Layer::Loadgen)), "%"),
            metric("bench.share", share(layer_self(Layer::Bench)), "%"),
            metric(
                "trace.untraced.share",
                share((wall_ns as u64).saturating_sub(spans_ns)),
                "%",
            ),
            metric("trace.wall_s", traced_wall, "s"),
            metric("trace.overhead", overhead, "%"),
            metric("trace.spans", spans as f64, "count"),
        ];
        for name in COUNTER_METRICS {
            out.push(metric(name, counter(name), counter_unit(name)));
        }
        out
    }
}

/// The slow decile of a unit's times: their nearest-rank p90; 0 when
/// there are none.
fn slow_decile(times: impl Iterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = times.collect();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 900).unwrap_or(0.0)
}

/// The per-pass counters every workload reports (zero where a workload
/// does not exercise the layer).
pub const COUNTER_METRICS: [&str; 14] = [
    "hw.arq.sent",
    "hw.arq.retransmit_ratio",
    "hw.arq.duplicates",
    "hw.link.crc_failures",
    "hw.link.bytes_skipped",
    "study.ticks_per_trial",
    "ingest.frames_in",
    "ingest.records_per_frame",
    "ingest.crc_failures",
    "ingest.shed_batches",
    "ingest.evicted",
    "ingest.resyncs",
    "ingest.sessions_opened",
    "ingest.peak_sessions",
];

fn counter_unit(name: &str) -> &'static str {
    match name {
        "hw.arq.retransmit_ratio" | "ingest.records_per_frame" => "ratio",
        "study.ticks_per_trial" => "ticks",
        _ => "count",
    }
}

/// The process's peak resident set, MB (`VmHWM` from `/proc`); 0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
