//! The paper's filter chain as a [`Recognizer`]: slew gate → median →
//! EMA, extracted from the firmware loop without changing a single
//! floating-point operation.

use distscroll_sensors::filter::{Ema, MedianFilter, SlewGate};

use crate::{Recognizer, StageCost};

/// Ticks a rejected outlier must persist before the slew gate yields to
/// it. The gate must hold longer than one sensor sample-and-hold period
/// (~4 ticks), or a held outlier wins by persistence.
pub const SLEW_GIVE_UP_TICKS: u8 = 8;

/// The classic chain's per-stage cost table. The cycle figures are the
/// split of the PIC18 measurement the firmware used to carry as part of
/// one opaque per-tick constant: comparing-and-holding in the gate,
/// the insertion sort behind a 9-tap median, and one fixed-point
/// multiply-accumulate for the EMA.
pub const CLASSIC_STAGES: &[StageCost] = &[
    StageCost {
        name: "slew gate",
        cycles: 8,
        ram_bytes: 6,
    },
    StageCost {
        name: "median",
        cycles: 48,
        // The window buffer scales with the configured length and is
        // accounted dynamically in `ram_bytes()`.
        ram_bytes: 0,
    },
    StageCost {
        name: "ema",
        cycles: 6,
        ram_bytes: 6,
    },
];

/// Configuration for [`ClassicChain`] — the firmware's filter settings
/// with the slew-gate activation already resolved (the profile gates it
/// on `filters.slew_gate && !expert_foldback`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassicConfig {
    /// Median window length (odd, 1 disables).
    pub median_len: usize,
    /// EMA smoothing factor in `(0, 1]`.
    pub ema_alpha: f64,
    /// Maximum plausible change per tick, in ADC codes, for the gate.
    pub slew_max_codes: f64,
    /// Whether the gate actually runs (resolved from the profile).
    pub slew_enabled: bool,
}

impl ClassicConfig {
    /// The shipping chain: 9-tap median, light EMA, gate on.
    #[must_use]
    pub fn paper() -> Self {
        ClassicConfig {
            median_len: 9,
            ema_alpha: 0.45,
            slew_max_codes: 120.0,
            slew_enabled: true,
        }
    }
}

/// The legacy chain behind the [`Recognizer`] trait.
///
/// Fed the same raw codes, `process` performs the exact same `f64`
/// operations in the same order as the pre-refactor inline firmware
/// code — `crates/recognizer/tests/classic_chain_equivalence.rs` pins
/// that down tick for tick against a verbatim replica.
#[derive(Debug, Clone)]
pub struct ClassicChain {
    median: MedianFilter,
    ema: Ema,
    slew: SlewGate,
    slew_enabled: bool,
}

impl ClassicChain {
    /// Builds the chain.
    ///
    /// # Panics
    ///
    /// Panics if `median_len` is even or exceeds the filter's cap — the
    /// device profile validates these bounds before construction.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the chain owns its stages and counts them against its budgets"
    )]
    pub fn new(cfg: &ClassicConfig) -> Self {
        ClassicChain {
            median: MedianFilter::new(cfg.median_len),
            ema: Ema::new(cfg.ema_alpha),
            slew: SlewGate::new(cfg.slew_max_codes, SLEW_GIVE_UP_TICKS),
            slew_enabled: cfg.slew_enabled,
        }
    }
}

impl Recognizer for ClassicChain {
    fn name(&self) -> &'static str {
        "classic-chain"
    }

    fn process(&mut self, raw: u16, _tick: u64) -> u16 {
        let mut x = f64::from(raw);
        if self.slew_enabled {
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

    fn stage_costs(&self) -> &'static [StageCost] {
        CLASSIC_STAGES
    }

    fn ram_bytes(&self) -> usize {
        self.median.ram_bytes() + CLASSIC_STAGES.iter().map(|s| s.ram_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_chain_budget_and_ram_match_the_firmware_constants() {
        let c = ClassicChain::new(&ClassicConfig::paper());
        // 8 + 48 + 6: the split of the old opaque TICK_CYCLES figure.
        assert_eq!(c.cycle_budget(), 62);
        // 9-tap window (18 bytes) + the fixed stage state the firmware
        // used to lump into its `+ 16` literal (the remaining 4 bytes of
        // that literal are the button debouncers, still firmware-owned).
        assert_eq!(c.ram_bytes(), 18 + 12);
    }

    #[test]
    fn disabled_gate_passes_jumps_through() {
        let mut gated = ClassicChain::new(&ClassicConfig::paper());
        let mut open = ClassicChain::new(&ClassicConfig {
            slew_enabled: false,
            ..ClassicConfig::paper()
        });
        for t in 0..20 {
            gated.process(500, t);
            open.process(500, t);
        }
        // A fold-back-style jump held for a few ticks: the gate rejects
        // it, the open chain's median starts passing it through.
        let (mut g, mut o) = (0, 0);
        for t in 20..26 {
            g = gated.process(900, t);
            o = open.process(900, t);
        }
        assert!(o > g, "open chain must react faster: gated {g}, open {o}");
    }

    #[test]
    fn reset_clears_history() {
        let mut c = ClassicChain::new(&ClassicConfig::paper());
        for t in 0..50 {
            c.process(800, t);
        }
        c.reset();
        let mut fresh = ClassicChain::new(&ClassicConfig::paper());
        for t in 0..10 {
            assert_eq!(c.process(300, 50 + t), fresh.process(300, t));
        }
    }
}
