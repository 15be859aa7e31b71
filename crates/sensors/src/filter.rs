//! Small-RAM signal filters for the firmware.
//!
//! The PIC 18F452 has 1536 bytes of RAM (paper, Section 4), so the
//! firmware's whole signal chain must fit in a few dozen bytes. These are
//! the classic embedded filters it uses:
//!
//! * [`MedianFilter`] — kills the GP2D120's occasional wild readings
//!   (specular banding, §4.2) without lagging edges much,
//! * [`Ema`] — exponential smoothing of the remaining noise,
//! * [`Debouncer`] — integrating debounce for the bouncy buttons (§4.5),
//! * [`SlewGate`] — rejects physically implausible jumps, the firmware's
//!   guard against the <4 cm fold-back aliasing (§4.2),
//! * [`Hysteresis`] — a two-threshold comparator used by the island
//!   mapping's boundaries.

use std::collections::VecDeque;

/// A running median over a fixed odd-length window.
///
/// Window length is a runtime parameter (the E7 ablation sweeps it), but
/// memory stays bounded: the filter refuses windows longer than 15
/// samples, which would not fit the PIC's budget anyway.
///
/// Beside the arrival-order window the filter keeps the same samples
/// sorted by [`f64::total_cmp`], so a push removes one entry and inserts
/// one instead of re-sorting the window every tick. Values equal under
/// `total_cmp` have identical bits, so the median is the one a full sort
/// would pick for every input, NaN and ±0 included.
#[derive(Debug, Clone)]
pub struct MedianFilter {
    window: VecDeque<f64>,
    /// `sorted[..window.len()]` holds the window in `total_cmp` order;
    /// the entries past it are stale.
    sorted: [f64; 15],
    len: usize,
}

impl PartialEq for MedianFilter {
    fn eq(&self, other: &Self) -> bool {
        let n = self.window.len();
        self.len == other.len
            && self.window == other.window
            && self.sorted[..n] == other.sorted[..n]
    }
}

impl MedianFilter {
    /// A median filter over `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `len` is even, zero, or greater than 15.
    pub fn new(len: usize) -> Self {
        assert!(len % 2 == 1, "median window must be odd");
        assert!(
            (1..=15).contains(&len),
            "median window must fit embedded ram"
        );
        MedianFilter {
            window: VecDeque::with_capacity(len),
            sorted: [0.0; 15],
            len,
        }
    }

    /// Pushes a sample and returns the current median.
    ///
    /// Until the window has filled, the median of the samples seen so far
    /// is returned (standard warm-up behaviour).
    pub fn push(&mut self, x: f64) -> f64 {
        use std::cmp::Ordering::{Greater, Less};
        let n = self.window.len();
        let sorted = &mut self.sorted;
        // The hole the new sample moves into: one past the end while the
        // window warms up, else the outgoing sample's slot. Entries shift
        // in plain loops rather than `copy_within`: at most 15 move, and a
        // `memmove` call costs more than the shifts themselves.
        let mut i = n;
        if n == self.len {
            if let Some(old) = self.window.pop_front() {
                let old = old.to_bits();
                i = 0;
                while sorted[i].to_bits() != old {
                    i += 1;
                }
                while i + 1 < n && sorted[i + 1].total_cmp(&x) == Less {
                    sorted[i] = sorted[i + 1];
                    i += 1;
                }
            }
        }
        while i > 0 && sorted[i - 1].total_cmp(&x) == Greater {
            sorted[i] = sorted[i - 1];
            i -= 1;
        }
        sorted[i] = x;
        self.window.push_back(x);
        sorted[self.window.len() / 2]
    }

    /// Bytes of state this window costs on the PIC (2-byte samples).
    pub fn ram_bytes(&self) -> usize {
        self.len * 2
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.window.clear();
    }
}

/// First-order exponential moving average: `y += alpha * (x - y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ema {
    alpha: f64,
    state: Option<f64>,
}

impl Ema {
    /// An EMA with smoothing factor `alpha` in `(0, 1]`; `1.0` disables
    /// smoothing.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ema { alpha, state: None }
    }

    /// Pushes a sample and returns the smoothed value. The first sample
    /// initializes the state directly (no zero-bias).
    pub fn push(&mut self, x: f64) -> f64 {
        let y = match self.state {
            Some(y) => y + self.alpha * (x - y),
            None => x,
        };
        self.state = Some(y);
        y
    }

    /// The current smoothed value, if any sample has been seen.
    pub fn value(&self) -> Option<f64> {
        self.state
    }

    /// Clears the state.
    pub fn reset(&mut self) {
        self.state = None;
    }
}

/// Integrating debouncer for a two-level signal.
///
/// A counter rises while the raw input is active and falls while it is
/// not; the debounced output only toggles at the counter's ends. This is
/// the standard firmware debounce that ignores the [`gpio`] bounce
/// chatter entirely.
///
/// [`gpio`]: ../../distscroll_hw/gpio/index.html
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Debouncer {
    counter: u8,
    threshold: u8,
    state: bool,
}

impl Debouncer {
    /// A debouncer that needs `threshold` consecutive agreeing samples to
    /// switch state.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: u8) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Debouncer {
            counter: 0,
            threshold,
            state: false,
        }
    }

    /// Pushes a raw sample (`true` = active); returns the debounced state.
    pub fn push(&mut self, raw: bool) -> bool {
        if raw == self.state {
            self.counter = 0;
        } else {
            self.counter += 1;
            if self.counter >= self.threshold {
                self.state = raw;
                self.counter = 0;
            }
        }
        self.state
    }

    /// The current debounced state.
    pub fn state(&self) -> bool {
        self.state
    }

    /// Pushes a raw sample and reports a rising edge of the debounced
    /// state (the firmware's "button clicked" condition).
    pub fn push_edge(&mut self, raw: bool) -> bool {
        let before = self.state;
        let after = self.push(raw);
        after && !before
    }
}

/// Slew-rate gate: rejects samples that imply an impossibly fast change.
///
/// A hand can move the device at a couple of metres per second at most;
/// a fold-back alias (the <4 cm region mapping onto a far-away voltage)
/// shows up as a teleport. The gate holds the last plausible value when
/// a sample jumps more than `max_step`, but yields after `give_up`
/// consecutive rejections so a genuinely new position wins eventually.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlewGate {
    max_step: f64,
    give_up: u8,
    rejected: u8,
    state: Option<f64>,
}

impl SlewGate {
    /// A gate allowing at most `max_step` change per sample, yielding
    /// after `give_up` consecutive rejections.
    ///
    /// # Panics
    ///
    /// Panics if `max_step` is not positive or `give_up` is zero.
    pub fn new(max_step: f64, give_up: u8) -> Self {
        assert!(max_step > 0.0, "max step must be positive");
        assert!(give_up > 0, "give-up count must be positive");
        SlewGate {
            max_step,
            give_up,
            rejected: 0,
            state: None,
        }
    }

    /// Pushes a sample; returns the gated value.
    pub fn push(&mut self, x: f64) -> f64 {
        match self.state {
            None => {
                self.state = Some(x);
                x
            }
            Some(last) => {
                if (x - last).abs() <= self.max_step {
                    self.rejected = 0;
                    self.state = Some(x);
                    x
                } else {
                    self.rejected += 1;
                    if self.rejected >= self.give_up {
                        self.rejected = 0;
                        self.state = Some(x);
                        x
                    } else {
                        last
                    }
                }
            }
        }
    }

    /// Clears the state.
    pub fn reset(&mut self) {
        self.state = None;
        self.rejected = 0;
    }
}

/// A two-threshold comparator (Schmitt trigger).
///
/// Output goes high when the input exceeds `high`, low when it drops
/// below `low`; in between, the previous output holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hysteresis {
    low: f64,
    high: f64,
    state: bool,
}

impl Hysteresis {
    /// A comparator with the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low < high, "low threshold must be below high");
        Hysteresis {
            low,
            high,
            state: false,
        }
    }

    /// Pushes a sample; returns the comparator output.
    pub fn push(&mut self, x: f64) -> bool {
        if x > self.high {
            self.state = true;
        } else if x < self.low {
            self.state = false;
        }
        self.state
    }

    /// The current output.
    pub fn state(&self) -> bool {
        self.state
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the filter tests exercise the stages directly"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn median_kills_single_outliers() {
        let mut m = MedianFilter::new(5);
        for _ in 0..5 {
            m.push(1.0);
        }
        assert_eq!(m.push(99.0), 1.0, "one outlier cannot move a 5-tap median");
        assert_eq!(m.push(1.0), 1.0);
    }

    #[test]
    fn median_warms_up_gracefully() {
        let mut m = MedianFilter::new(5);
        assert_eq!(m.push(3.0), 3.0);
        // Two samples: upper-median convention picks sorted[1].
        assert_eq!(m.push(1.0), 3.0);
        assert_eq!(m.push(1.0), 1.0);
    }

    #[test]
    fn median_tracks_step_changes_with_lag() {
        let mut m = MedianFilter::new(3);
        for _ in 0..3 {
            m.push(0.0);
        }
        assert_eq!(m.push(5.0), 0.0, "first sample of a step is outvoted");
        assert_eq!(m.push(5.0), 5.0, "majority reached");
    }

    /// The median a full copy-and-sort of `window` picks: the reference
    /// the incremental filter is held to.
    fn sorted_median(window: &VecDeque<f64>) -> f64 {
        let mut v: Vec<f64> = window.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    /// Maps a generated `(selector, value)` pair onto a stream that is
    /// mostly special values: heavy duplicates, both zeros, NaNs with
    /// different signs and payloads, and infinities.
    fn stream_sample((selector, value): (u8, f64)) -> f64 {
        match selector % 12 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => -f64::NAN,
            4 => f64::from_bits(0x7ff0_0000_0000_0001),
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            7 => 1.0,
            8 => -2.5,
            _ => value,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn incremental_median_equals_a_full_sort(
            half in 0usize..8,
            samples in collection::vec((any::<u8>(), any::<f64>()), 0..120),
            reset_at in 0usize..120,
        ) {
            let len = 2 * half + 1;
            let mut m = MedianFilter::new(len);
            let mut reference = VecDeque::new();
            for (i, &pair) in samples.iter().enumerate() {
                if i == reset_at {
                    m.reset();
                    reference.clear();
                }
                let x = stream_sample(pair);
                if reference.len() == len {
                    reference.pop_front();
                }
                reference.push_back(x);
                let got = m.push(x);
                let want = sorted_median(&reference);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "window {} sample {}: {} vs {}", len, i, got, want
                );
            }
        }
    }

    #[test]
    fn median_ram_cost_is_reported() {
        assert_eq!(MedianFilter::new(5).ram_bytes(), 10);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn median_rejects_even_windows() {
        let _ = MedianFilter::new(4);
    }

    #[test]
    fn ema_converges_to_constant_input() {
        let mut e = Ema::new(0.3);
        let mut y = 0.0;
        e.push(0.0);
        for _ in 0..100 {
            y = e.push(10.0);
        }
        assert!((y - 10.0).abs() < 1e-6);
    }

    #[test]
    fn ema_first_sample_initializes_directly() {
        let mut e = Ema::new(0.1);
        assert_eq!(e.push(7.0), 7.0);
        assert_eq!(e.value(), Some(7.0));
    }

    #[test]
    fn ema_alpha_one_is_passthrough() {
        let mut e = Ema::new(1.0);
        e.push(1.0);
        assert_eq!(e.push(42.0), 42.0);
    }

    #[test]
    fn debouncer_needs_consecutive_agreement() {
        let mut d = Debouncer::new(3);
        assert!(!d.push(true));
        assert!(!d.push(true));
        assert!(d.push(true), "third consecutive sample switches");
        // Chatter does not switch it back.
        assert!(d.push(false));
        assert!(d.push(true));
        assert!(d.push(false));
        assert!(d.state());
    }

    #[test]
    fn debouncer_edge_fires_once_per_press() {
        let mut d = Debouncer::new(2);
        let presses: Vec<bool> = [true, true, true, true, false, false, true, true]
            .iter()
            .map(|&raw| d.push_edge(raw))
            .collect();
        assert_eq!(presses.iter().filter(|&&e| e).count(), 2);
    }

    #[test]
    fn slew_gate_holds_on_teleports_then_yields() {
        let mut g = SlewGate::new(1.0, 3);
        assert_eq!(g.push(10.0), 10.0);
        assert_eq!(g.push(10.5), 10.5);
        assert_eq!(g.push(50.0), 10.5, "teleport rejected");
        assert_eq!(g.push(50.0), 10.5, "still rejected");
        assert_eq!(g.push(50.0), 50.0, "persistent new value wins");
    }

    #[test]
    fn slew_gate_passes_smooth_motion() {
        let mut g = SlewGate::new(1.0, 3);
        for i in 0..20 {
            let x = i as f64 * 0.9;
            assert_eq!(g.push(x), x);
        }
    }

    #[test]
    fn hysteresis_has_no_chatter_in_the_dead_band() {
        let mut h = Hysteresis::new(1.0, 2.0);
        assert!(!h.push(1.5), "starts low, dead band holds");
        assert!(h.push(2.5), "crosses high");
        assert!(h.push(1.5), "dead band holds high");
        assert!(!h.push(0.5), "crosses low");
    }

    #[test]
    #[should_panic(expected = "low threshold must be below high")]
    fn hysteresis_rejects_inverted_thresholds() {
        let _ = Hysteresis::new(2.0, 1.0);
    }
}
