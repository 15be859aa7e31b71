//! A/B equivalence: [`ClassicChain`] against a verbatim replica of the
//! pre-refactor inline firmware chain.
//!
//! The refactor moved the slew gate → median → EMA chain out of
//! `crates/core/src/firmware.rs` and behind the [`Recognizer`] trait.
//! The byte-identity contract on the default path rests on the two
//! performing the exact same `f64` operations in the same order, so
//! this suite replays deterministic and property-generated code streams
//! through both and demands tick-for-tick identical output — in both
//! gating modes, and across a mid-stream reset. The replica sorts its
//! median window afresh on every push, so the suite also holds the
//! incremental [`MedianFilter`] window to a full sort.
//!
//! [`MedianFilter`]: distscroll_sensors::filter::MedianFilter

#![expect(
    clippy::disallowed_methods,
    reason = "the A/B reference wires the stages by hand on purpose"
)]

use distscroll_recognizer::{ClassicChain, ClassicConfig, Recognizer, SLEW_GIVE_UP_TICKS};
use distscroll_sensors::filter::{Ema, SlewGate};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The median stage as it stood before the incremental window: copy the
/// last `len` samples and sort them by `total_cmp` on every push. Kept
/// here as its own code so the A/B does not compare `MedianFilter` with
/// itself.
struct SortedMedian {
    window: VecDeque<f64>,
    len: usize,
}

impl SortedMedian {
    fn new(len: usize) -> Self {
        SortedMedian {
            window: VecDeque::with_capacity(len),
            len,
        }
    }

    fn push(&mut self, x: f64) -> f64 {
        if self.window.len() == self.len {
            self.window.pop_front();
        }
        self.window.push_back(x);
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }

    fn reset(&mut self) {
        self.window.clear();
    }
}

/// The pre-refactor inline chain, copied operation for operation from
/// the firmware's tick step 1 as it stood before the extraction
/// (`git show`: `x = slew.push(x)` under the profile gate, then
/// `median.push`, then `ema.push`, then round-and-clamp to a code).
struct InlineChain {
    median: SortedMedian,
    ema: Ema,
    slew: SlewGate,
    gate_on: bool,
}

impl InlineChain {
    fn new(cfg: &ClassicConfig) -> Self {
        InlineChain {
            median: SortedMedian::new(cfg.median_len),
            ema: Ema::new(cfg.ema_alpha),
            slew: SlewGate::new(cfg.slew_max_codes, SLEW_GIVE_UP_TICKS),
            gate_on: cfg.slew_enabled,
        }
    }

    fn tick(&mut self, raw: u16) -> u16 {
        let mut x = f64::from(raw);
        if self.gate_on {
            x = self.slew.push(x);
        }
        x = self.median.push(x);
        x = self.ema.push(x);
        x.round().clamp(0.0, 1023.0) as u16
    }

    fn reset(&mut self) {
        self.median.reset();
        self.ema.reset();
        self.slew.reset();
    }
}

/// Replays one stream through both implementations and asserts
/// tick-for-tick equality.
fn assert_equivalent(cfg: &ClassicConfig, stream: &[u16]) {
    let mut chain = ClassicChain::new(cfg);
    let mut inline = InlineChain::new(cfg);
    for (t, &raw) in stream.iter().enumerate() {
        let a = chain.process(raw, t as u64);
        let b = inline.tick(raw);
        assert_eq!(a, b, "tick {t}: chain {a} != inline {b} on raw {raw}");
    }
}

/// A deterministic stream exercising every regime the firmware sees:
/// settled hold, slow drift, fold-back-style jumps, and ADC extremes.
fn torture_stream() -> Vec<u16> {
    let mut s = Vec::new();
    s.extend(std::iter::repeat_n(500u16, 30));
    s.extend((0..60).map(|i| 500 + i * 3));
    s.extend(std::iter::repeat_n(900u16, 12)); // held outlier: gate gives up
    s.extend([0, 1023, 0, 1023, 512]); // rail-to-rail thrash
    s.extend((0..40).map(|i| 512 + ((i * 37) % 200)));
    s
}

#[test]
fn paper_config_matches_inline_chain_tick_for_tick() {
    assert_equivalent(&ClassicConfig::paper(), &torture_stream());
}

#[test]
fn open_gate_config_matches_inline_chain_tick_for_tick() {
    let cfg = ClassicConfig {
        slew_enabled: false,
        ..ClassicConfig::paper()
    };
    assert_equivalent(&cfg, &torture_stream());
}

#[test]
fn mid_stream_reset_stays_equivalent() {
    let cfg = ClassicConfig::paper();
    let mut chain = ClassicChain::new(&cfg);
    let mut inline = InlineChain::new(&cfg);
    let stream = torture_stream();
    for (t, &raw) in stream.iter().enumerate() {
        if t == stream.len() / 2 {
            chain.reset();
            inline.reset();
        }
        assert_eq!(chain.process(raw, t as u64), inline.tick(raw), "tick {t}");
    }
}

proptest! {
    // Arbitrary ADC streams: equivalence holds on both gating modes,
    // for any window length the profile validator would accept.
    #[test]
    fn arbitrary_streams_are_equivalent(
        stream in proptest::collection::vec(0u16..=1023, 1..300),
        half_window in 0usize..5,
        gate_on in any::<bool>(),
    ) {
        let cfg = ClassicConfig {
            // Odd lengths 1..=9 — the set the profile validator accepts.
            median_len: 2 * half_window + 1,
            slew_enabled: gate_on,
            ..ClassicConfig::paper()
        };
        assert_equivalent(&cfg, &stream);
    }

    // Replay determinism: the chain is a pure function of its input
    // stream — two instances fed the same codes agree forever.
    #[test]
    fn replay_is_deterministic(stream in proptest::collection::vec(any::<u16>(), 1..300)) {
        let cfg = ClassicConfig::paper();
        let mut a = ClassicChain::new(&cfg);
        let mut b = ClassicChain::new(&cfg);
        for (t, &raw) in stream.iter().enumerate() {
            prop_assert_eq!(a.process(raw, t as u64), b.process(raw, t as u64));
        }
    }

    // Torture: the chain never panics and always yields a valid ADC
    // code, even on raw values far beyond the 10-bit converter.
    #[test]
    fn arbitrary_u16_streams_never_panic(
        stream in proptest::collection::vec(any::<u16>(), 1..300),
    ) {
        let mut chain = ClassicChain::new(&ClassicConfig::paper());
        for (t, &raw) in stream.iter().enumerate() {
            let code = chain.process(raw, t as u64);
            prop_assert!(code <= 1023);
        }
    }
}
