//! L2 — reliable telemetry transport (ARQ) over the lossy link.
//!
//! L1 characterizes the raw link: at 10 % frame drop a tenth of the
//! telemetry simply vanishes, which no study logging through this link
//! can tolerate. This experiment drives the selective-repeat ARQ from
//! `distscroll_hw::arq` end to end — firmware retransmit queue, lossy
//! radio in both directions, host-side dedup/reorder under the stream
//! decoder — as a fault-injection campaign: sweep drop probability ×
//! bit-error rate × jitter and compare the fraction of emitted records
//! a host actually receives, and whether the interaction-event sequence
//! reconstructs exactly (in order, exactly once), with ARQ on and off.

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::TimedEvent;
use distscroll_core::menu::Menu;
use distscroll_core::profile::{DeviceProfile, RecognizerKind};
use distscroll_host::session::SessionLog;
use distscroll_host::telemetry::{EventKind, Record, StreamDecoder};
use distscroll_hw::arq::LinkQuality;
use distscroll_hw::board::Telemetry;
use distscroll_hw::clock::SimDuration;
use distscroll_hw::link::RadioChannel;
use distscroll_hw::power::Battery;

use crate::report::Table;

use super::{Effort, ExperimentReport};

/// One swept link condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCondition {
    /// Frame-drop probability, both directions.
    pub drop_prob: f64,
    /// Bit error rate, both directions.
    pub ber: f64,
    /// Arrival jitter in milliseconds (reorders frames on the air).
    pub jitter_ms: u64,
}

/// One session's outcome under a condition, with or without ARQ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArqOutcome {
    /// The swept condition.
    pub condition: LinkCondition,
    /// Whether the reliable transport was on.
    pub arq: bool,
    /// Records the firmware emitted (states + events).
    pub emitted: u64,
    /// Records the host decoded.
    pub delivered: u64,
    /// `delivered / emitted`.
    pub delivered_frac: f64,
    /// Interaction events the device logged (ground truth).
    pub events_expected: usize,
    /// Did the host see exactly that event sequence — in order,
    /// exactly once, nothing invented?
    pub events_exact: bool,
    /// Is the reconstructed session timeline monotonic?
    pub session_monotonic: bool,
    /// Merged transmit- + receive-side counters (ARQ sessions only;
    /// zeroed otherwise).
    pub quality: LinkQuality,
}

/// Drives one scripted session through a lossy/jittery channel and
/// reconstructs it on the host side.
///
/// The script sweeps the hand across the islands and clicks on a fixed
/// cadence, so the event stream holds every tag kind the link must
/// preserve; the tail runs with the hand at rest so the retransmit
/// queue can drain before the books are balanced.
pub fn run_session(condition: LinkCondition, arq: bool, session_ms: u64, seed: u64) -> ArqOutcome {
    run_session_with_recognizer(condition, arq, session_ms, seed, RecognizerKind::Classic)
}

/// Like [`run_session`], with the firmware recognizer selectable: the
/// transport must deliver the event stream faithfully whichever front
/// end produced it (the segmented recognizer coalesces highlights, so
/// its sessions exercise a sparser, burstier record pattern).
pub fn run_session_with_recognizer(
    condition: LinkCondition,
    arq: bool,
    session_ms: u64,
    seed: u64,
    recognizer: RecognizerKind,
) -> ArqOutcome {
    let mut profile = DeviceProfile::paper();
    profile.arq = arq;
    profile.recognizer = recognizer;
    let mut dev = DistScrollDevice::new(profile, Menu::flat(8), seed);
    dev.set_battery(Battery::with_capacity(1e12));
    let mut radio = RadioChannel::lossy(condition.drop_prob, condition.ber);
    radio.jitter = SimDuration::from_millis(condition.jitter_ms);
    dev.set_radio(radio);

    let mut decoder = if arq {
        StreamDecoder::with_arq()
    } else {
        StreamDecoder::new()
    };
    let mut expected: Vec<EventKind> = Vec::new();
    let mut got: Vec<EventKind> = Vec::new();
    let mut log = SessionLog::new();
    let mut air: Vec<u8> = Vec::new();

    let pump = |dev: &mut DistScrollDevice,
                decoder: &mut StreamDecoder,
                got: &mut Vec<EventKind>,
                log: &mut SessionLog,
                air: &mut Vec<u8>| {
        air.clear();
        dev.poll_telemetry(&mut |t: &Telemetry| air.extend_from_slice(&t.bytes));
        decoder.push_bytes_with(air, |rec| {
            if let Record::Event(e) = rec {
                got.push(e.kind);
            }
            log.ingest(rec);
        });
        if let Some(ack) = decoder.ack_payload() {
            dev.host_send(&ack);
        }
    };

    let steps = session_ms / 100;
    for s in 0..steps {
        // A slow sweep across the 4–30 cm range keeps the highlight
        // moving; periodic clicks add activations and back-ups.
        let phase = (s as f64 * 0.37).sin();
        dev.set_distance(17.0 + 13.0 * phase);
        // lint:allow(panic-hygiene) battery is sized for the scripted run; Err means the harness broke, not data
        dev.run_for_ms(100).expect("fresh battery");
        if s % 7 == 3 {
            // lint:allow(panic-hygiene) battery is sized for the scripted run; Err means the harness broke, not data
            dev.click_select().expect("fresh battery");
        }
        if s % 11 == 6 {
            // lint:allow(panic-hygiene) battery is sized for the scripted run; Err means the harness broke, not data
            dev.click_back().expect("fresh battery");
        }
        dev.poll_events(&mut |e: &TimedEvent| {
            if let Some(kind) = EventKind::from_tag(e.event.wire_tag()) {
                expected.push(kind);
            }
        });
        pump(&mut dev, &mut decoder, &mut got, &mut log, &mut air);
    }
    // Idle tail: the hand rests, the retransmit queue drains through
    // its exponential backoff, late acks land.
    for _ in 0..30 {
        // lint:allow(panic-hygiene) battery is sized for the scripted run; Err means the harness broke, not data
        dev.run_for_ms(100).expect("fresh battery");
        dev.poll_events(&mut |e: &TimedEvent| {
            if let Some(kind) = EventKind::from_tag(e.event.wire_tag()) {
                expected.push(kind);
            }
        });
        pump(&mut dev, &mut decoder, &mut got, &mut log, &mut air);
    }

    let emitted = dev.firmware().records_emitted();
    let delivered = decoder.records_ok();
    let mut quality = dev.firmware().arq_quality().unwrap_or_default();
    if let Some(rx) = decoder.arq_quality() {
        quality.merge(&rx);
    }
    let session_monotonic = log.records().windows(2).all(|w| w[0].tick <= w[1].tick);
    ArqOutcome {
        condition,
        arq,
        emitted,
        delivered,
        delivered_frac: delivered as f64 / emitted.max(1) as f64,
        events_expected: expected.len(),
        events_exact: got == expected,
        session_monotonic,
        quality,
    }
}

/// Runs L2.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let session_ms = effort.pick(3_000, 12_000);
    let conditions: &[LinkCondition] = effort.pick(
        &[
            LinkCondition {
                drop_prob: 0.0,
                ber: 0.0,
                jitter_ms: 0,
            },
            LinkCondition {
                drop_prob: 0.1,
                ber: 0.0,
                jitter_ms: 2,
            },
        ][..],
        &[
            LinkCondition {
                drop_prob: 0.0,
                ber: 0.0,
                jitter_ms: 0,
            },
            LinkCondition {
                drop_prob: 0.02,
                ber: 0.0,
                jitter_ms: 1,
            },
            LinkCondition {
                drop_prob: 0.05,
                ber: 0.0005,
                jitter_ms: 2,
            },
            LinkCondition {
                drop_prob: 0.1,
                ber: 0.0,
                jitter_ms: 2,
            },
            LinkCondition {
                drop_prob: 0.2,
                ber: 0.001,
                jitter_ms: 5,
            },
        ][..],
    );

    let mut table = Table::new(
        format!("record delivery, fire-and-forget vs ARQ ({session_ms} ms sessions)"),
        &[
            "drop prob",
            "bit error rate",
            "jitter",
            "raw delivered",
            "arq delivered",
            "arq events exact",
        ],
    );
    let mut counters = Table::new(
        "ARQ transport counters per condition",
        &[
            "drop prob",
            "sent",
            "retransmitted",
            "acked",
            "expired",
            "shed",
            "duplicates",
            "out-of-order",
        ],
    );

    let mut pairs: Vec<(ArqOutcome, ArqOutcome)> = Vec::new();
    for (i, &condition) in conditions.iter().enumerate() {
        let session_seed = seed.wrapping_add(0x9e37_79b9 * (i as u64 + 1));
        let raw = run_session(condition, false, session_ms, session_seed);
        let arq = run_session(condition, true, session_ms, session_seed);
        table.row(&[
            format!("{:.0}%", condition.drop_prob * 100.0),
            format!("{:.4}", condition.ber),
            format!("{} ms", condition.jitter_ms),
            format!("{:.1}%", raw.delivered_frac * 100.0),
            format!("{:.1}%", arq.delivered_frac * 100.0),
            if arq.events_exact { "yes" } else { "NO" }.into(),
        ]);
        counters.row(&[
            format!("{:.0}%", condition.drop_prob * 100.0),
            format!("{}", arq.quality.sent),
            format!("{}", arq.quality.retransmitted),
            format!("{}", arq.quality.acked),
            format!("{}", arq.quality.expired),
            format!("{}", arq.quality.shed_state),
            format!("{}", arq.quality.duplicates),
            format!("{}", arq.quality.out_of_order),
        ]);
        pairs.push((raw, arq));
    }

    // The same sweep with the segmented-recognizer firmware: the
    // transport guarantee is recognizer-agnostic, so the exactly-once
    // ordered reconstruction must survive the sparser, coalesced record
    // pattern the state machine emits.
    let mut seg_table = Table::new(
        "segmented-recognizer firmware over the same channels (ARQ on)",
        &["drop prob", "bit error rate", "delivered", "events exact"],
    );
    let mut seg_outcomes: Vec<ArqOutcome> = Vec::new();
    for (i, &condition) in conditions.iter().enumerate() {
        let session_seed = seed.wrapping_add(0x7f4a_7c15 * (i as u64 + 1));
        let out = run_session_with_recognizer(
            condition,
            true,
            session_ms,
            session_seed,
            RecognizerKind::Segmented,
        );
        seg_table.row(&[
            format!("{:.0}%", condition.drop_prob * 100.0),
            format!("{:.4}", condition.ber),
            format!("{:.1}%", out.delivered_frac * 100.0),
            if out.events_exact { "yes" } else { "NO" }.into(),
        ]);
        seg_outcomes.push(out);
    }

    // Shape: a clean channel is perfect either way; ARQ never delivers
    // less than fire-and-forget; at the headline 10 % drop condition the
    // raw link loses about a tenth of the records while ARQ stays above
    // 99 % with the event sequence intact — and every ARQ session
    // reconstructs an exactly-ordered, monotonic timeline.
    let clean = &pairs[0];
    let clean_perfect = clean.0.delivered_frac > 0.999 && clean.1.delivered_frac > 0.999;
    let arq_never_worse = pairs
        .iter()
        .all(|(raw, arq)| arq.delivered_frac >= raw.delivered_frac - 0.005);
    let headline = pairs
        .iter()
        .find(|(raw, _)| (raw.condition.drop_prob - 0.1).abs() < 1e-9 && raw.condition.ber == 0.0)
        .copied();
    let headline_holds = headline.is_some_and(|(raw, arq)| {
        arq.delivered_frac >= 0.99 && raw.delivered_frac >= 0.80 && raw.delivered_frac <= 0.97
    });
    let arq_faithful = pairs
        .iter()
        .all(|(_, arq)| arq.events_exact && arq.session_monotonic);
    let segmented_faithful = seg_outcomes
        .iter()
        .all(|o| o.events_exact && o.session_monotonic && o.delivered_frac >= 0.99);

    let mut findings = vec![
        format!(
            "clean channel: {:.2}% raw vs {:.2}% arq delivery",
            clean.0.delivered_frac * 100.0,
            clean.1.delivered_frac * 100.0
        ),
        "every ARQ session reconstructs the event sequence exactly once, in order, on a \
         monotonic timeline"
            .into(),
        format!(
            "the segmented-recognizer firmware's burstier stream survives every condition: \
             exact reconstruction {} of {} sessions",
            seg_outcomes
                .iter()
                .filter(|o| o.events_exact && o.session_monotonic)
                .count(),
            seg_outcomes.len()
        ),
    ];
    if let Some((raw, arq)) = headline {
        findings.insert(
            1,
            format!(
                "at 10% frame drop the raw link delivers {:.1}% of records; ARQ recovers \
                 {:.1}% with {} retransmissions and {} duplicates discarded",
                raw.delivered_frac * 100.0,
                arq.delivered_frac * 100.0,
                arq.quality.retransmitted,
                arq.quality.duplicates
            ),
        );
    }

    ExperimentReport {
        id: "L2",
        title: "reliable telemetry transport (ARQ) over the lossy link".into(),
        paper_claim: "the wireless link to the PC carries the telemetry the studies are \
                      scored from (Sec. 3.2, Sec. 6); a lossy or reordering channel must not \
                      corrupt the reconstructed session"
            .into(),
        sections: vec![table.render(), counters.render(), seg_table.render()],
        findings,
        shape_holds: clean_perfect
            && arq_never_worse
            && headline_holds
            && arq_faithful
            && segmented_faithful,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_shape_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
    }

    #[test]
    fn arq_beats_fire_and_forget_at_ten_percent_drop() {
        let condition = LinkCondition {
            drop_prob: 0.1,
            ber: 0.0,
            jitter_ms: 2,
        };
        let raw = run_session(condition, false, 3_000, 7);
        let arq = run_session(condition, true, 3_000, 7);
        assert!(
            raw.delivered_frac > 0.80 && raw.delivered_frac < 0.97,
            "fire-and-forget should lose about a tenth: {}",
            raw.delivered_frac
        );
        assert!(
            arq.delivered_frac >= 0.99,
            "arq should recover nearly everything: {}",
            arq.delivered_frac
        );
        assert!(arq.events_exact && arq.session_monotonic);
        assert!(arq.quality.retransmitted > 0, "loss must force retransmits");
    }

    #[test]
    fn raw_session_never_panics_under_heavy_loss() {
        let condition = LinkCondition {
            drop_prob: 0.3,
            ber: 0.01,
            jitter_ms: 8,
        };
        let raw = run_session(condition, false, 2_000, 11);
        assert!(raw.delivered_frac < 1.0);
    }
}
