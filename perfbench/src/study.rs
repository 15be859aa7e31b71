//! `study`: the paper's §6 selection study, run over the wireless link.
//!
//! Each participant of a sampled cohort holds one paper-profile device
//! (`arq = true`) and works through a chained block of selection tasks
//! in a 12-entry flat menu. The device streams telemetry over a lossy
//! radio to a host decoder and session log, which poll and acknowledge
//! every 100 ms of simulated time; after the block the host drains the
//! link until the device's retransmit queue is empty. This is the only
//! workload on which every stage runs, from the hand to `SessionLog`.

use std::time::Instant;

use distscroll_baselines::technique::TRIAL_TIMEOUT_S;
use distscroll_baselines::{TrialResult, TrialSetup};
use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::{Event, TimedEvent};
use distscroll_core::menu::Menu;
use distscroll_core::profile::{DeviceProfile, DirectionMapping};
use distscroll_eval::task::TaskPlan;
use distscroll_host::session::SessionLog;
use distscroll_host::telemetry::StreamDecoder;
use distscroll_hw::arq::LinkQuality;
use distscroll_hw::board::Telemetry;
use distscroll_hw::clock::SimDuration;
use distscroll_hw::link::RadioChannel;
use distscroll_hw::power::Battery;
use distscroll_user::population::{sample_cohort, UserParams};
use distscroll_user::strategy::{DeviceGeometry, PositionAim, UserCommand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{Probe, Site};
use crate::{Counters, PassOutcome};

/// Entries in the study menu.
pub const MENU_ENTRIES: usize = 12;
/// Host poll-and-ack period, simulated milliseconds.
const POLL_MS: u64 = 100;
/// Rest before the block, in poll periods.
const SETTLE_POLLS: u32 = 5;
/// Rest between trials, in poll periods.
const REST_POLLS: u32 = 2;
/// Rest after the block, in poll periods: long enough for the
/// retransmit queue's backoff to resend whatever the radio lost.
const DRAIN_POLLS: u32 = 30;

/// Cohort size and block length of one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyScale {
    /// Participants sampled per pass.
    pub participants: usize,
    /// Trials per participant.
    pub trials: usize,
}

/// One participant's system under test: device, host and user model.
#[derive(Debug)]
struct Participant {
    user: UserParams,
    plan: TaskPlan,
    dev: DistScrollDevice,
    decoder: StreamDecoder,
    log: SessionLog,
    rng: StdRng,
}

/// The study's inputs and systems under test, built from the seed.
#[derive(Debug)]
pub struct Study {
    participants: Vec<Participant>,
}

/// The device as the study configures it: paper profile, ARQ on, a
/// battery that outlasts any block, and the lossy hallway radio (5 %
/// frame drop, 1e-5 bit error rate, 30 ms jitter).
fn build_device(seed: u64) -> DistScrollDevice {
    let mut profile = DeviceProfile::paper();
    profile.arq = true;
    let mut dev = DistScrollDevice::new(profile, Menu::flat(MENU_ENTRIES), seed);
    dev.set_battery(Battery::with_capacity(1e12));
    let mut radio = RadioChannel::lossy(0.05, 1e-5);
    radio.jitter = SimDuration::from_millis(30);
    dev.set_radio(radio);
    dev
}

/// Builds one pass's cohort from `seed`.
pub fn setup<P: Probe>(seed: u64, scale: StudyScale, probe: &mut P) -> Study {
    let mut rng = StdRng::seed_from_u64(seed);
    let cohort = sample_cohort(scale.participants, &mut rng);
    let participants = cohort
        .into_iter()
        .map(|user| {
            let own: u64 = rng.gen();
            let dev = probe.span(Site::CoreBuild, || build_device(own));
            Participant {
                user,
                plan: TaskPlan::block(MENU_ENTRIES, scale.trials, 1, own.rotate_left(21)),
                dev,
                decoder: StreamDecoder::with_arq(),
                log: SessionLog::new(),
                rng: StdRng::seed_from_u64(own.rotate_left(42)),
            }
        })
        .collect();
    Study { participants }
}

/// Per-pass tallies the checks and the per-layer counters read.
#[derive(Debug, Default)]
struct Tally {
    trials: u64,
    failed: u64,
    ticks_in_trials: u64,
    bytes_decoded: u64,
    records: u64,
    sim_s: f64,
    tx: LinkQuality,
    rx: LinkQuality,
    crc_failures: u64,
    bytes_skipped: u64,
    gate_failures: Vec<String>,
}

/// Polls the device's radio into the host, then sends the host's ack
/// back: one 100 ms link round.
fn pump<P: Probe>(p: &mut Participant, air: &mut Vec<u8>, tally: &mut Tally, probe: &mut P) {
    let Participant {
        dev, decoder, log, ..
    } = p;
    air.clear();
    probe.span(Site::CorePoll, || {
        dev.poll_telemetry(&mut |t: &Telemetry| air.extend_from_slice(&t.bytes));
    });
    tally.bytes_decoded += air.len() as u64;
    let decode = probe.enter(Site::HostDecode);
    decoder.push_bytes_with(air, |rec| {
        let s = probe.enter(Site::HostSession);
        log.ingest(rec);
        probe.exit(s);
        tally.records += 1;
    });
    probe.exit(decode);
    if let Some(ack) = decoder.ack_payload() {
        probe.span(Site::CorePoll, || dev.host_send(&ack));
    }
}

/// The tick count an `Activated` event is stamped with on the wire (a
/// flat menu has no submenus, so these are exactly the selections).
/// The event happens during tick `at / period`; the firmware stamps
/// its records after counting that tick, hence the `+ 1`.
fn activation_tick(ev: &TimedEvent, tick_us: u64) -> Option<u64> {
    matches!(ev.event, Event::Activated { .. }).then(|| ev.at.as_micros() / tick_us + 1)
}

/// Runs the device for `polls` link rounds with the hand at rest.
/// Returns `false` if the device failed.
fn rest<P: Probe>(
    p: &mut Participant,
    polls: u32,
    air: &mut Vec<u8>,
    activations: &mut Vec<u64>,
    tally: &mut Tally,
    probe: &mut P,
) -> bool {
    let tick_us = p.dev.firmware().tick_period().as_micros();
    for _ in 0..polls {
        let dev = &mut p.dev;
        if probe
            .span(Site::CoreRun, || dev.run_for_ms(POLL_MS))
            .is_err()
        {
            return false;
        }
        probe.span(Site::CorePoll, || {
            dev.poll_events(&mut |ev: &TimedEvent| {
                activations.extend(activation_tick(ev, tick_us))
            });
        });
        pump(p, air, tally, probe);
    }
    true
}

/// One selection trial on the participant's running device, as the
/// trial runner of `distscroll-baselines` drives it, with the host
/// polled every 100 ms of simulated time. Returns the trial's result
/// and whether the device stayed up.
fn trial<P: Probe>(
    p: &mut Participant,
    setup: &TrialSetup,
    air: &mut Vec<u8>,
    activations: &mut Vec<u64>,
    tally: &mut Tally,
    probe: &mut P,
) -> (TrialResult, bool) {
    let profile = p.dev.firmware().profile();
    let geometry = DeviceGeometry {
        near_cm: profile.near_cm,
        far_cm: profile.far_cm,
        n_entries: setup.n_entries,
        toward_is_down: profile.direction == DirectionMapping::TowardIsDown,
    };
    let tick_us = p.dev.firmware().tick_period().as_micros();
    let poll = SimDuration::from_millis(POLL_MS);
    let start_cm = p.dev.distance();
    let (user, rng) = (p.user, &mut p.rng);
    let mut aim = probe.span(Site::UserStep, || {
        PositionAim::new(
            user,
            geometry,
            setup.target_idx,
            start_cm,
            setup.trial_number,
            rng,
        )
    });
    let t0 = p.dev.now();
    let mut next_poll = t0 + poll;
    let mut t = 0.0;
    let mut selected: Option<usize> = None;
    let mut alive = true;
    while t < TRIAL_TIMEOUT_S {
        let (dev, rng) = (&mut p.dev, &mut p.rng);
        let highlighted = dev.highlighted();
        let (pos, cmd) = probe.span(Site::UserStep, || aim.step(t, highlighted, rng));
        dev.set_distance(pos);
        match cmd {
            UserCommand::PressSelect => dev.press_select(),
            UserCommand::ReleaseSelect => dev.release_select(),
            UserCommand::None => {}
        }
        let tick = probe.enter(Site::CoreTick);
        let ok = dev.tick().is_ok();
        dev.poll_events(&mut |ev: &TimedEvent| {
            if let Event::Activated { path } = &ev.event {
                selected = path
                    .last()
                    .and_then(|l| l.trim_start_matches("Item ").parse::<usize>().ok());
            }
            activations.extend(activation_tick(ev, tick_us));
        });
        probe.exit(tick);
        tally.ticks_in_trials += 1;
        if !ok {
            alive = false;
            break;
        }
        if dev.now() >= next_poll {
            next_poll += poll;
            pump(p, air, tally, probe);
        }
        if selected.is_some() && aim.is_done() {
            break;
        }
        t = p.dev.now().saturating_since(t0).as_secs_f64();
    }
    let result = match selected {
        Some(idx) => TrialResult {
            time_s: t,
            selected_idx: Some(idx),
            correct: idx == setup.target_idx,
            corrections: aim.corrections(),
        },
        None => TrialResult::timeout(t, aim.corrections()),
    };
    (result, alive)
}

/// Runs one pass: every participant's block, drained and checked.
pub fn run<P: Probe>(mut study: Study, probe: &mut P) -> PassOutcome {
    let mut tally = Tally::default();
    let mut latencies_ms = Vec::new();
    let mut digest = crate::stats::Digest::default();
    let mut air = Vec::new();
    for (pid, p) in study.participants.iter_mut().enumerate() {
        let plan = p.plan.clone();
        let Some(first) = plan.setups().first() else {
            continue;
        };
        // Park the hand on the first start entry and let it settle
        // (every entry of a flat menu has an island).
        if let Some(start_cm) = p.dev.island_center_cm(first.start_idx) {
            p.dev.set_distance(start_cm);
        }
        // Device-side activation ticks in order, and where each
        // trial's share of them starts and ends.
        let mut device: Vec<u64> = Vec::new();
        let root = probe.enter(Site::Idle);
        let mut alive = rest(p, SETTLE_POLLS, &mut air, &mut device, &mut tally, probe);
        probe.exit(root);

        let mut per_trial: Vec<(std::ops::Range<usize>, bool)> = Vec::with_capacity(plan.len());
        for setup in plan.setups() {
            let from = device.len();
            let started = Instant::now();
            let root = probe.enter(Site::Trial);
            let (result, ok) = if alive {
                trial(p, setup, &mut air, &mut device, &mut tally, probe)
            } else {
                (TrialResult::timeout(0.0, 0), false)
            };
            probe.exit(root);
            latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let root = probe.enter(Site::Idle);
            alive = ok && rest(p, REST_POLLS, &mut air, &mut device, &mut tally, probe);
            probe.exit(root);
            tally.trials += 1;
            digest.debug(&(pid, setup, result));
            per_trial.push((from..device.len(), alive));
        }

        // Drain: the hand rests while lost frames are resent.
        let root = probe.enter(Site::Idle);
        alive = alive && rest(p, DRAIN_POLLS, &mut air, &mut device, &mut tally, probe);
        probe.exit(root);
        if !alive {
            tally
                .gate_failures
                .push(format!("study: participant {pid}: the device failed"));
        }

        // The host's selections against the device's activations: the
        // same ticks, in the same order, each exactly once.
        let root = probe.enter(Site::Finish);
        let log = &p.log;
        let host: Vec<u64> = probe.span(Site::HostSession, || {
            log.selections().iter().map(|s| s.at_tick).collect()
        });
        probe.exit(root);
        for (range, ok) in &per_trial {
            let once = device[range.clone()]
                .iter()
                .all(|a| host.iter().filter(|h| *h == a).count() == 1);
            if !ok || !once {
                tally.failed += 1;
            }
        }
        if host != device {
            tally.gate_failures.push(format!(
                "study: participant {pid}: {} host selections do not match {} device activations in order",
                host.len(),
                device.len()
            ));
        }
        digest.debug(&host);

        let tx = p.dev.firmware().arq_quality().unwrap_or_default();
        let rx = p.decoder.arq_quality().unwrap_or_default();
        tally.tx.merge(&tx);
        tally.rx.merge(&rx);
        tally.crc_failures += p.decoder.crc_failures();
        tally.bytes_skipped += p.decoder.link_bytes_skipped();
        digest.debug(&(
            tx,
            rx,
            p.decoder.records_ok(),
            p.decoder.records_bad(),
            p.decoder.crc_failures(),
            p.decoder.link_byte_accounting(),
        ));
        tally.sim_s += p.dev.now().as_secs_f64();
    }
    if tally.failed > 0 {
        tally
            .gate_failures
            .push(format!("study: {} failed trials", tally.failed));
    }

    let trials = tally.trials.max(1) as f64;
    let counters: Counters = vec![
        ("hw.arq.sent", tally.tx.sent as f64),
        (
            "hw.arq.retransmit_ratio",
            tally.tx.retransmitted as f64 / tally.tx.sent.max(1) as f64,
        ),
        ("hw.arq.duplicates", tally.rx.duplicates as f64),
        ("hw.link.crc_failures", tally.crc_failures as f64),
        ("hw.link.bytes_skipped", tally.bytes_skipped as f64),
        (
            "study.ticks_per_trial",
            tally.ticks_in_trials as f64 / trials,
        ),
        ("host.bytes", tally.bytes_decoded as f64),
        ("host.records", tally.records as f64),
    ];
    PassOutcome {
        sim_s: tally.sim_s,
        latencies_ms,
        attempted: tally.trials,
        failed: tally.failed,
        digest,
        counters,
        gate_failures: tally.gate_failures,
    }
}
