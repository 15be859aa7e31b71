//! The recognizer layer: everything between a raw ADC code and the code
//! the island mapping consumes.
//!
//! The paper's prototype wires its defense against sensor noise, hand
//! tremor and the <4 cm fold-back alias straight into the firmware loop
//! as a filter chain (slew gate → median → EMA, Section 4.2). This crate
//! lifts that pipeline into a first-class, swappable component with two
//! implementations:
//!
//! * [`ClassicChain`] — the paper's chain, extracted verbatim. Fed the
//!   same raw codes it performs the exact same `f64` operations in the
//!   same order as the pre-refactor inline code, so a device running it
//!   is byte-identical to one built before the refactor.
//! * [`Segmented`] — the stream-segmented recognizer the ROADMAP calls
//!   for: raw samples are grouped into motion streams split on idle gaps
//!   and fold-back discontinuities, a state machine classifies each
//!   stream (deliberate submovement vs. physiological tremor vs.
//!   fold-back ghost), and output is rate-normalized — fractional
//!   accumulation with non-deliberate updates coalesced at the display
//!   redraw cadence.
//!
//! Both implement [`Recognizer`] and report their own cycle budget and
//! RAM footprint through named per-stage [`StageCost`] constants, so the
//! firmware's schedulability analysis and PIC RAM accounting stop
//! hiding filter costs inside magic literals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classic;
mod segmented;

pub use classic::{ClassicChain, ClassicConfig, CLASSIC_STAGES, SLEW_GIVE_UP_TICKS};
pub use segmented::{Segmented, SegmentedConfig, StreamState, SEGMENTED_STAGES};

/// The budgeted cost of one recognizer stage, as the C firmware would
/// account for it: MCU cycles charged per sample and bytes of PIC RAM
/// the stage's state occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCost {
    /// Stage name, for schedulability reports.
    pub name: &'static str,
    /// Cycles charged per processed sample.
    pub cycles: u64,
    /// Bytes of RAM the stage's fixed state costs (window buffers that
    /// scale with configuration are reported by [`Recognizer::ram_bytes`]
    /// on top of this).
    pub ram_bytes: usize,
}

/// Sums the per-sample cycle budget of a stage list.
#[must_use]
pub fn cycle_budget(stages: &[StageCost]) -> u64 {
    stages.iter().map(|s| s.cycles).sum()
}

/// A distance-input recognizer: consumes one raw ADC code per firmware
/// tick and yields the code the island mapping should see.
///
/// Implementations are pure state machines over their inputs — no
/// clocks, no randomness — so identical input streams yield identical
/// output streams (the property the replay-determinism proptests pin
/// down).
pub trait Recognizer {
    /// Short identifier for reports and benches.
    fn name(&self) -> &'static str;

    /// Processes one raw sample taken at `tick` and returns the code to
    /// feed the island lookup.
    fn process(&mut self, raw: u16, tick: u64) -> u16;

    /// Clears all stream state (the firmware calls this when the island
    /// map is rebuilt for a new menu level).
    fn reset(&mut self);

    /// The per-stage cost table. Stages are always charged, whether or
    /// not a runtime branch skips their work this tick — the C code is
    /// compiled in either way, and a constant budget is what the
    /// schedulability analysis needs.
    fn stage_costs(&self) -> &'static [StageCost];

    /// Total cycles charged per processed sample.
    fn cycle_budget(&self) -> u64 {
        cycle_budget(self.stage_costs())
    }

    /// Bytes of PIC RAM the recognizer's state costs, including
    /// configuration-dependent window buffers.
    fn ram_bytes(&self) -> usize;
}

/// A concrete recognizer chosen by the device profile — an enum rather
/// than a trait object so the firmware stays `Debug` and statically
/// dispatched on the hot path. Both variants are boxed, so the enum is a
/// pointer whatever either engine's window buffers cost.
#[derive(Debug, Clone)]
pub enum AnyRecognizer {
    /// The paper's filter chain.
    Classic(Box<ClassicChain>),
    /// The stream-segmented state machine.
    Segmented(Box<Segmented>),
}

impl Recognizer for AnyRecognizer {
    fn name(&self) -> &'static str {
        match self {
            AnyRecognizer::Classic(r) => r.name(),
            AnyRecognizer::Segmented(r) => r.name(),
        }
    }

    fn process(&mut self, raw: u16, tick: u64) -> u16 {
        match self {
            AnyRecognizer::Classic(r) => r.process(raw, tick),
            AnyRecognizer::Segmented(r) => r.process(raw, tick),
        }
    }

    fn reset(&mut self) {
        match self {
            AnyRecognizer::Classic(r) => r.reset(),
            AnyRecognizer::Segmented(r) => r.reset(),
        }
    }

    fn stage_costs(&self) -> &'static [StageCost] {
        match self {
            AnyRecognizer::Classic(r) => r.stage_costs(),
            AnyRecognizer::Segmented(r) => r.stage_costs(),
        }
    }

    fn ram_bytes(&self) -> usize {
        match self {
            AnyRecognizer::Classic(r) => r.ram_bytes(),
            AnyRecognizer::Segmented(r) => r.ram_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_budget_sums_stages() {
        assert_eq!(
            cycle_budget(CLASSIC_STAGES),
            CLASSIC_STAGES.iter().map(|s| s.cycles).sum::<u64>()
        );
        assert!(cycle_budget(SEGMENTED_STAGES) > 0);
    }

    #[test]
    fn any_recognizer_dispatches_names() {
        let c = AnyRecognizer::Classic(Box::new(ClassicChain::new(&ClassicConfig::paper())));
        assert_eq!(c.name(), "classic-chain");
        assert!(c.cycle_budget() > 0);
        assert!(c.ram_bytes() > 0);
    }
}
