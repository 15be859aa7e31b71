//! Spans around the benchmark's calls into each layer.
//!
//! A workload is written once, generic over [`Probe`]. The untraced
//! run passes [`NoTrace`], whose methods are empty and inline away, so
//! the end-to-end figures carry no instrumentation. The traced run
//! passes a [`Tracer`], which reads the clock at every span boundary
//! and keeps the spans in memory.
//!
//! Self time is a span's duration minus the durations of its direct
//! children ([`self_times`]). Spans nest strictly (one thread, closed
//! in reverse order of opening), so children never overlap and the
//! subtraction is exact.

use std::io::Write;
use std::time::Instant;

/// Where a span sits in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `distscroll_user`: the synthetic participant's motor controller.
    User,
    /// `distscroll_core`: the device, and everything under its tick
    /// (sensors, recognizer, firmware, board, device-side link and ARQ).
    Core,
    /// `distscroll_host`: stream decode and the session log.
    Host,
    /// `distscroll_ingest`: the fleet service and its shards.
    Ingest,
    /// `distscroll_ingest::loadgen`: template capture and cohort build.
    Loadgen,
    /// The benchmark's own loop: operation roots and set-up glue.
    Bench,
}

/// One instrumented call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// Root: building a workload's inputs and system under test.
    Setup,
    /// Root: one selection trial (the study's operation).
    Trial,
    /// Root: settling, inter-trial rest and the end-of-block drain.
    Idle,
    /// Root: one fleet round, offer plus `process_round`.
    Round,
    /// Root: closing the fleet's books.
    Finish,
    /// `PositionAim::new` / `PositionAim::step`.
    UserStep,
    /// `DistScrollDevice::tick`.
    CoreTick,
    /// `DistScrollDevice::run_for_ms`.
    CoreRun,
    /// `DistScrollDevice::poll_events` / `poll_telemetry` / `host_send`.
    CorePoll,
    /// `DistScrollDevice::new` and its configuration.
    CoreBuild,
    /// `StreamDecoder::push_bytes_with`, records excluded.
    HostDecode,
    /// `SessionLog::ingest` / `selections`.
    HostSession,
    /// `IngestService::offer`.
    IngestOffer,
    /// `IngestService::process_round`.
    IngestProcess,
    /// `IngestService::new` / `finish`.
    IngestBooks,
    /// `loadgen::capture_template`.
    LoadgenCapture,
    /// `CohortLoad::new`.
    LoadgenCohort,
}

impl Site {
    /// Every site, in discriminant order.
    pub const ALL: [Site; 17] = [
        Site::Setup,
        Site::Trial,
        Site::Idle,
        Site::Round,
        Site::Finish,
        Site::UserStep,
        Site::CoreTick,
        Site::CoreRun,
        Site::CorePoll,
        Site::CoreBuild,
        Site::HostDecode,
        Site::HostSession,
        Site::IngestOffer,
        Site::IngestProcess,
        Site::IngestBooks,
        Site::LoadgenCapture,
        Site::LoadgenCohort,
    ];
    /// Number of sites (the aggregate table's length).
    pub const COUNT: usize = Site::ALL.len();

    /// The layer the call belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Site::Setup | Site::Trial | Site::Idle | Site::Round | Site::Finish => Layer::Bench,
            Site::UserStep => Layer::User,
            Site::CoreTick | Site::CoreRun | Site::CorePoll | Site::CoreBuild => Layer::Core,
            Site::HostDecode | Site::HostSession => Layer::Host,
            Site::IngestOffer | Site::IngestProcess | Site::IngestBooks => Layer::Ingest,
            Site::LoadgenCapture | Site::LoadgenCohort => Layer::Loadgen,
        }
    }

    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Site::Setup => "bench.setup",
            Site::Trial => "bench.trial",
            Site::Idle => "bench.idle",
            Site::Round => "bench.round",
            Site::Finish => "bench.finish",
            Site::UserStep => "user.step",
            Site::CoreTick => "core.tick",
            Site::CoreRun => "core.run_for_ms",
            Site::CorePoll => "core.poll",
            Site::CoreBuild => "core.build",
            Site::HostDecode => "host.decode",
            Site::HostSession => "host.session",
            Site::IngestOffer => "ingest.offer",
            Site::IngestProcess => "ingest.process_round",
            Site::IngestBooks => "ingest.books",
            Site::LoadgenCapture => "loadgen.capture",
            Site::LoadgenCohort => "loadgen.cohort",
        }
    }
}

/// An open span, handed back to [`Probe::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(u32);

/// The instrumentation a workload is generic over.
pub trait Probe {
    /// Opens a span at `site`.
    fn enter(&mut self, site: Site) -> Open;
    /// Closes the span `open`, which must be the innermost open one.
    fn exit(&mut self, open: Open);

    /// Runs `f` inside a span at `site`.
    #[inline]
    fn span<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        let open = self.enter(site);
        let out = f();
        self.exit(open);
        out
    }
}

/// The untraced probe: records nothing and compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl Probe for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _site: Site) -> Open {
        Open(0)
    }

    #[inline(always)]
    fn exit(&mut self, _open: Open) {}
}

/// One recorded span. `parent` indexes the buffer the span was
/// recorded into; `op` numbers the root span it descends from, so the
/// spans of one operation share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The call site.
    pub site: Site,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; `start_ns` until closed.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation (root span) this span belongs to.
    pub op: u32,
}

/// Per-site aggregate: calls, summed duration, summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteTotals {
    /// Spans closed at the site.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
}

/// Self time per site over a buffer of closed spans whose `parent`
/// indices point into the same buffer.
pub fn self_times(spans: &[Span]) -> [SiteTotals; Site::COUNT] {
    let mut out = [SiteTotals::default(); Site::COUNT];
    // Self time is accumulated signed: a parent's children may be
    // visited before or after the parent itself.
    let mut self_ns = [0i128; Site::COUNT];
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = &mut out[s.site as usize];
        t.calls += 1;
        t.total_ns += dur;
        self_ns[s.site as usize] += i128::from(dur);
        if let Some(parent) = s.parent.and_then(|p| spans.get(p as usize)) {
            self_ns[parent.site as usize] -= i128::from(dur);
        }
    }
    for (t, s) in out.iter_mut().zip(self_ns) {
        t.self_ns = u64::try_from(s).unwrap_or(0);
    }
    out
}

/// Spans buffered before they are folded into the per-site totals.
const FOLD_AT: usize = 1 << 16;
/// Spans kept for the written trace; later spans are only aggregated,
/// which bounds memory on long runs.
const KEEP: usize = 1 << 18;

/// The recording probe.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Spans of the operations since the last fold.
    buf: Vec<Span>,
    /// Open spans, innermost last, as indices into `buf`.
    stack: Vec<u32>,
    next_op: u32,
    totals: [SiteTotals; Site::COUNT],
    /// The first [`KEEP`] spans, with `parent` rebased to this vector.
    kept: Vec<Span>,
    /// Spans recorded in all.
    recorded: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            buf: Vec::with_capacity(FOLD_AT + 1024),
            stack: Vec::new(),
            next_op: 0,
            totals: [SiteTotals::default(); Site::COUNT],
            kept: Vec::new(),
            recorded: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Folds the buffered spans into the totals, keeping a prefix for
    /// the written trace. Only called between operations, so every
    /// buffered span is closed and its parent is in the buffer.
    fn fold(&mut self) {
        let folded = self_times(&self.buf);
        for (t, f) in self.totals.iter_mut().zip(folded) {
            t.calls += f.calls;
            t.total_ns += f.total_ns;
            t.self_ns += f.self_ns;
        }
        let base = self.kept.len() as u32;
        let room = KEEP.saturating_sub(self.kept.len());
        self.kept.extend(self.buf.iter().take(room).map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..*s
        }));
        self.buf.clear();
    }

    /// Per-site totals over every span recorded so far. Must be called
    /// with no span open.
    pub fn totals(&mut self) -> [SiteTotals; Site::COUNT] {
        self.fold();
        self.totals
    }

    /// Spans recorded in all, and how many of them the written trace
    /// holds.
    pub fn counts(&self) -> (u64, usize) {
        (self.recorded, self.kept.len())
    }

    /// Writes the kept spans as tab-separated
    /// `id parent op name start_ns end_ns` lines (`-` for no parent).
    pub fn write_tsv<W: Write>(&mut self, mut out: W) -> std::io::Result<()> {
        self.fold();
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op,
                s.site.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Probe for Tracer {
    #[inline]
    fn enter(&mut self, site: Site) -> Open {
        let parent = self.stack.last().copied();
        let op = match parent.and_then(|p| self.buf.get(p as usize)) {
            Some(p) => p.op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let idx = self.buf.len() as u32;
        let start_ns = self.now_ns();
        self.buf.push(Span {
            site,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.stack.push(idx);
        self.recorded += 1;
        Open(idx)
    }

    #[inline]
    fn exit(&mut self, open: Open) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
        if let Some(s) = self.buf.get_mut(open.0 as usize) {
            s.end_ns = end_ns;
        }
        if self.stack.is_empty() && self.buf.len() >= FOLD_AT {
            self.fold();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(site: Site, start_ns: u64, end_ns: u64, parent: Option<u32>, op: u32) -> Span {
        Span {
            site,
            start_ns,
            end_ns,
            parent,
            op,
        }
    }

    /// A trial of 100 ns holding a user step (10 ns) and a tick (50 ns)
    /// that contains a poll (20 ns); then an idle root of 30 ns holding
    /// a run_for_ms of 25 ns.
    fn hand_built() -> Vec<Span> {
        vec![
            span(Site::Trial, 0, 100, None, 1),
            span(Site::UserStep, 5, 15, Some(0), 1),
            span(Site::CoreTick, 20, 70, Some(0), 1),
            span(Site::CorePoll, 40, 60, Some(2), 1),
            span(Site::Idle, 100, 130, None, 2),
            span(Site::CoreRun, 102, 127, Some(4), 2),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = self_times(&hand_built());
        let at = |s: Site| t[s as usize];
        assert_eq!(at(Site::Trial).total_ns, 100);
        assert_eq!(at(Site::Trial).self_ns, 100 - 10 - 50);
        assert_eq!(at(Site::CoreTick).self_ns, 50 - 20);
        assert_eq!(at(Site::CorePoll).self_ns, 20);
        assert_eq!(at(Site::UserStep).self_ns, 10);
        assert_eq!(at(Site::Idle).self_ns, 30 - 25);
        assert_eq!(at(Site::CoreRun).self_ns, 25);
        // Self times partition the root spans' wall time exactly.
        let self_sum: u64 = t.iter().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, 100 + 30);
        assert_eq!(at(Site::Trial).calls, 1);
        assert_eq!(at(Site::Setup), SiteTotals::default());
    }

    #[test]
    fn self_time_does_not_depend_on_span_order() {
        let mut spans = hand_built();
        // Children listed before their parents: rebase the indices.
        spans.reverse();
        let n = spans.len() as u32;
        for s in &mut spans {
            s.parent = s.parent.map(|p| n - 1 - p);
        }
        assert_eq!(self_times(&spans), self_times(&hand_built()));
    }

    #[test]
    fn tracer_nests_numbers_operations_and_writes_every_span() {
        let mut tr = Tracer::default();
        for _ in 0..3 {
            let root = tr.enter(Site::Trial);
            tr.span(Site::UserStep, || ());
            let tick = tr.enter(Site::CoreTick);
            tr.span(Site::CorePoll, || ());
            tr.exit(tick);
            tr.exit(root);
        }
        let totals = tr.totals();
        assert_eq!(totals[Site::Trial as usize].calls, 3);
        assert_eq!(totals[Site::CorePoll as usize].calls, 3);
        let trial = totals[Site::Trial as usize];
        let children: u64 = [Site::UserStep, Site::CoreTick]
            .iter()
            .map(|&s| totals[s as usize].total_ns)
            .sum();
        assert_eq!(trial.self_ns + children, trial.total_ns);
        assert_eq!(tr.counts(), (12, 12));

        let mut out = Vec::new();
        tr.write_tsv(&mut out).expect("in-memory write");
        let text = String::from_utf8(out).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 13, "header plus one line per span");
        assert!(lines[1].starts_with("0\t-\t1\tbench.trial\t"));
        assert!(lines[4].starts_with("3\t2\t1\tcore.poll\t"));
        assert!(lines[5].starts_with("4\t-\t2\tbench.trial\t"));
    }

    #[test]
    fn site_table_is_in_discriminant_order() {
        for (i, s) in Site::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "{}", s.name());
        }
    }

    #[test]
    fn no_trace_is_transparent() {
        let mut p = NoTrace;
        assert_eq!(p.span(Site::CoreTick, || 41 + 1), 42);
    }
}
