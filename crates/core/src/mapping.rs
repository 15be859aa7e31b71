//! The island mapping of Section 4.2 — the paper's core mechanism.
//!
//! "The sensor values are not linear in the measurement range of the
//! sensor. Therefore, we could not choose a linear mapping between sensor
//! values and structure entities. … The mapping of sensor values to
//! elements proceeded as follows. We first chose how many entities lie in
//! a given data structure and then distributed these entities as
//! described over the sensor range. We calculated the expected sensor
//! values by inserting the distance from the object in front of the
//! sensor in the function in Figure 5. … We then defined islands around
//! the calculated sensor values in such a manner that in this interval a
//! specific entry is selected. These islands do not cover the complete
//! spectrum of possible values, there are intervals in which no entry is
//! selected. By this, we provide the user with the perception that the
//! entries are equally spaced on the complete scrollable distance. No
//! selection or change happens if the device is held in a distance
//! between two of those islands."
//!
//! Concretely: entries are spaced **equally in physical distance**,
//! converted through the fitted curve into ADC-code intervals (islands)
//! separated by dead zones. Holding the device in a dead zone keeps the
//! previous selection — the dead zones *are* the hysteresis.
//!
//! [`IslandMap::linear_in_code`] builds the naive alternative the paper
//! rejects (entries equally spaced in ADC code), used by ablation E7 to
//! show why the inverse-curve equalization matters.

use std::sync::LazyLock;

use distscroll_sensors::calibrate::{fit_inverse_curve, InverseCurveFit};
use distscroll_sensors::gp2d120;

use crate::CoreError;

/// ADC code for a voltage at the board's 5 V reference, 10 bits.
pub fn volts_to_code(volts: f64) -> u16 {
    (volts / 5.0 * 1023.0).round().clamp(0.0, 1023.0) as u16
}

/// The 27 datasheet points the paper curve is fitted through: the ideal
/// sensor voltage every centimetre across the valid 4–30 cm range.
fn paper_points() -> Vec<(f64, f64)> {
    (0..=26)
        .map(|i| {
            let d = 4.0 + f64::from(i);
            (d, gp2d120::ideal_voltage(d))
        })
        .collect()
}

/// The fit behind [`paper_curve`], run once per process: its inputs are
/// datasheet constants, so every fit would return the same bits.
#[expect(
    clippy::expect_used,
    reason = "the ideal curve always fits its own law; covered by unit tests"
)]
static PAPER_CURVE: LazyLock<InverseCurveFit> = LazyLock::new(|| {
    fit_inverse_curve(&paper_points()).expect("the ideal curve always fits its own law")
});

/// The fitted curve every device boots with, exactly as the authors
/// calibrated it: sample the sensor at known distances across the valid
/// range and fit the idealized law through the points.
///
/// The fit runs once per process and each call returns a copy of it. A
/// device that calibrates its own unit on the jig
/// ([`crate::device::DistScrollDevice::calibrate_on_jig`]) or loads a
/// stored record ([`crate::device::DistScrollDevice::load_calibration`])
/// replaces its own copy, never this one.
pub fn paper_curve() -> InverseCurveFit {
    *PAPER_CURVE
}

/// One island: the ADC-code interval that selects one entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Island {
    /// Entry index this island selects (0 = nearest the body).
    pub index: usize,
    /// Physical centre of the island, cm from the body.
    pub center_cm: f64,
    /// Physical width of the island, cm.
    pub width_cm: f64,
    /// Lowest ADC code inside the island (its *far* edge).
    pub lo_code: u16,
    /// Highest ADC code inside the island (its *near* edge).
    pub hi_code: u16,
    /// ADC code at the island centre.
    pub center_code: u16,
}

impl Island {
    /// Whether an ADC code falls inside this island.
    pub fn contains(&self, code: u16) -> bool {
        (self.lo_code..=self.hi_code).contains(&code)
    }
}

/// Where an ADC code landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IslandHit {
    /// Inside the island of entry `index`.
    Entry(usize),
    /// In a dead zone between two islands: hold the previous selection.
    Gap,
    /// Closer than the near edge (possibly the <4 cm fold-back region).
    TooNear,
    /// Farther than the far edge (or out of the sensor's range entirely).
    TooFar,
}

/// The computed island layout for one menu level.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandMap {
    islands: Vec<Island>,
    near_code: u16,
    far_code: u16,
    near_cm: f64,
    far_cm: f64,
    /// True when the islands are strictly descending and disjoint in code
    /// space (`prev.lo_code > cur.hi_code` for every adjacent pair), which
    /// every non-degenerate builder produces. Enables the binary-search
    /// lookup; degenerate dense maps (overlap-collapsed far entries) fall
    /// back to the first-match linear scan to keep nearer-entry-wins
    /// semantics.
    searchable: bool,
}

impl IslandMap {
    /// Builds the paper's mapping: `n` entries equally spaced in distance
    /// over `[near_cm, far_cm]`, with `gap_fraction` of every slot given
    /// to dead zones, converted through `curve` into ADC codes.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadMapping`] if `n` is zero, the range is inverted,
    /// or the gap fraction leaves no island width.
    pub fn build(
        n: usize,
        near_cm: f64,
        far_cm: f64,
        gap_fraction: f64,
        curve: &InverseCurveFit,
    ) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::BadMapping {
                reason: "zero entries",
            });
        }
        if !(near_cm.is_finite() && far_cm.is_finite() && far_cm > near_cm) {
            return Err(CoreError::BadMapping {
                reason: "inverted or non-finite range",
            });
        }
        if !(0.0..1.0).contains(&gap_fraction) {
            return Err(CoreError::BadMapping {
                reason: "gap fraction outside 0..1",
            });
        }
        let slot = (far_cm - near_cm) / n as f64;
        let width = slot * (1.0 - gap_fraction);
        let mut islands: Vec<Island> = Vec::with_capacity(n);
        for i in 0..n {
            let center_cm = near_cm + (i as f64 + 0.5) * slot;
            let near_edge_cm = center_cm - width / 2.0;
            let far_edge_cm = center_cm + width / 2.0;
            // Voltage falls with distance: near edge -> high code. With a
            // zero gap, rounding can land two adjacent edges on the same
            // code; the nearer island keeps it (islands stay disjoint).
            let mut hi_code = volts_to_code(curve.voltage_at(near_edge_cm));
            if let Some(prev) = islands.last() {
                hi_code = hi_code.min(prev.lo_code.saturating_sub(1));
            }
            let lo_code = volts_to_code(curve.voltage_at(far_edge_cm));
            let center_code = volts_to_code(curve.voltage_at(center_cm)).min(hi_code);
            if lo_code >= hi_code {
                return Err(CoreError::BadMapping {
                    reason: "islands collapse below adc resolution; use fewer entries or chunking",
                });
            }
            islands.push(Island {
                index: i,
                center_cm,
                width_cm: width,
                lo_code,
                hi_code,
                center_code,
            });
        }
        Ok(IslandMap::assemble(
            islands,
            volts_to_code(curve.voltage_at(near_cm)),
            volts_to_code(curve.voltage_at(far_cm)),
            near_cm,
            far_cm,
        ))
    }

    /// The naive mapping the paper rejects: entries equally spaced in
    /// **ADC code** rather than in distance (ablation E7). "When moving
    /// the sensor close to an object, many entities would be scrolled
    /// with only a small amount of movement."
    ///
    /// # Errors
    ///
    /// As [`IslandMap::build`].
    pub fn linear_in_code(
        n: usize,
        near_cm: f64,
        far_cm: f64,
        gap_fraction: f64,
        curve: &InverseCurveFit,
    ) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::BadMapping {
                reason: "zero entries",
            });
        }
        if !(0.0..1.0).contains(&gap_fraction) {
            return Err(CoreError::BadMapping {
                reason: "gap fraction outside 0..1",
            });
        }
        let near_code = volts_to_code(curve.voltage_at(near_cm));
        let far_code = volts_to_code(curve.voltage_at(far_cm));
        if far_code >= near_code {
            return Err(CoreError::BadMapping {
                reason: "inverted or non-finite range",
            });
        }
        let slot = f64::from(near_code - far_code) / n as f64;
        let width = slot * (1.0 - gap_fraction);
        let mut islands = Vec::with_capacity(n);
        for i in 0..n {
            // Entry 0 nearest the body = highest codes.
            let center_code_f = f64::from(near_code) - (i as f64 + 0.5) * slot;
            let hi_code = (center_code_f + width / 2.0).round() as u16;
            let lo_code = (center_code_f - width / 2.0).round() as u16;
            if lo_code >= hi_code {
                return Err(CoreError::BadMapping {
                    reason: "islands collapse below adc resolution; use fewer entries or chunking",
                });
            }
            let center_cm = curve
                .distance_at(center_code_f / 1023.0 * 5.0)
                .unwrap_or(far_cm);
            islands.push(Island {
                index: i,
                center_cm,
                width_cm: 0.0,
                lo_code,
                hi_code,
                center_code: center_code_f.round() as u16,
            });
        }
        Ok(IslandMap::assemble(
            islands, near_code, far_code, near_cm, far_cm,
        ))
    }

    /// Builds a gapless, collapse-tolerant mapping used by the
    /// [`Continuous`](crate::long_menu::LongMenuStrategy::Continuous)
    /// long-menu strategy: every entry gets its equal slice of distance
    /// with no dead zones, even when far slices squeeze below one ADC
    /// code. Overlapping islands are resolved in favour of the nearer
    /// entry, so some far entries become *unreachable* — the physical
    /// degradation that motivates the paper's long-menu question (E4).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadMapping`] only for structurally invalid input
    /// (zero entries, inverted range).
    pub fn build_dense(
        n: usize,
        near_cm: f64,
        far_cm: f64,
        curve: &InverseCurveFit,
    ) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::BadMapping {
                reason: "zero entries",
            });
        }
        if !(near_cm.is_finite() && far_cm.is_finite() && far_cm > near_cm) {
            return Err(CoreError::BadMapping {
                reason: "inverted or non-finite range",
            });
        }
        let slot = (far_cm - near_cm) / n as f64;
        let mut islands = Vec::with_capacity(n);
        let mut next_free_hi = volts_to_code(curve.voltage_at(near_cm));
        for i in 0..n {
            let center_cm = near_cm + (i as f64 + 0.5) * slot;
            let hi_ideal = volts_to_code(curve.voltage_at(center_cm - slot / 2.0));
            let lo_ideal = volts_to_code(curve.voltage_at(center_cm + slot / 2.0));
            // Nearer entries own contested codes; clamp into what is left.
            let hi_code = hi_ideal.min(next_free_hi);
            let lo_code = lo_ideal.min(hi_code);
            next_free_hi = lo_code.saturating_sub(1);
            islands.push(Island {
                index: i,
                center_cm,
                width_cm: slot,
                lo_code,
                hi_code,
                center_code: volts_to_code(curve.voltage_at(center_cm)).clamp(lo_code, hi_code),
            });
        }
        Ok(IslandMap::assemble(
            islands,
            volts_to_code(curve.voltage_at(near_cm)),
            volts_to_code(curve.voltage_at(far_cm)),
            near_cm,
            far_cm,
        ))
    }

    /// Entries that no in-range ADC code selects — entries that can never
    /// be reached by any hand position (a dense map's failure mode).
    pub fn unreachable_entries(&self) -> Vec<usize> {
        let mut reachable = vec![false; self.islands.len()];
        for code in self.far_code..=self.near_code {
            if let IslandHit::Entry(i) = self.lookup(code) {
                reachable[i] = true;
            }
        }
        reachable
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| if r { None } else { Some(i) })
            .collect()
    }

    /// Number of entries mapped.
    pub fn len(&self) -> usize {
        self.islands.len()
    }

    /// `true` if no entries are mapped (cannot happen via `build`).
    pub fn is_empty(&self) -> bool {
        self.islands.is_empty()
    }

    /// The islands, ordered by entry index (nearest first).
    pub fn islands(&self) -> &[Island] {
        &self.islands
    }

    /// Finishes construction: computes whether the island list supports
    /// the binary-search lookup (strictly descending, disjoint code
    /// ranges — see the `searchable` field).
    fn assemble(
        islands: Vec<Island>,
        near_code: u16,
        far_code: u16,
        near_cm: f64,
        far_cm: f64,
    ) -> Self {
        let searchable = islands
            .windows(2)
            .all(|pair| pair[0].lo_code > pair[1].hi_code);
        IslandMap {
            islands,
            near_code,
            far_code,
            near_cm,
            far_cm,
            searchable,
        }
    }

    /// Classifies an ADC code. O(log n) over the islands for every map
    /// the standard builders produce (this sits on the firmware's
    /// per-sample hot path); degenerate overlap-collapsed dense maps use
    /// [`IslandMap::lookup_scan`], whose first-match order resolves
    /// contested codes in favour of the nearer entry.
    pub fn lookup(&self, code: u16) -> IslandHit {
        if code > self.near_code {
            return IslandHit::TooNear;
        }
        if code < self.far_code {
            return IslandHit::TooFar;
        }
        if !self.searchable {
            return self.lookup_scan(code);
        }
        // Islands are ordered nearest-first: lo_code strictly decreasing.
        // Find the first island whose range could still contain `code`.
        let i = self.islands.partition_point(|isl| isl.lo_code > code);
        match self.islands.get(i) {
            Some(isl) if isl.contains(code) => IslandHit::Entry(isl.index),
            _ => IslandHit::Gap,
        }
    }

    /// Reference linear-scan classification: first island containing the
    /// code wins, in entry order (nearest first). The binary-search
    /// [`IslandMap::lookup`] must agree with this on every code — the
    /// exhaustive equivalence test below holds it to that.
    pub fn lookup_scan(&self, code: u16) -> IslandHit {
        if code > self.near_code {
            return IslandHit::TooNear;
        }
        if code < self.far_code {
            return IslandHit::TooFar;
        }
        match self.islands.iter().find(|i| i.contains(code)) {
            Some(island) => IslandHit::Entry(island.index),
            None => IslandHit::Gap,
        }
    }

    /// Classifies a physical distance (test/analysis convenience; the
    /// firmware only ever sees codes).
    pub fn lookup_cm(&self, cm: f64, curve: &InverseCurveFit) -> IslandHit {
        self.lookup(volts_to_code(curve.voltage_at(cm)))
    }

    /// Fraction of the code span covered by islands (1 − dead-zone
    /// fraction in code space); an analysis aid for E7.
    pub fn code_coverage(&self) -> f64 {
        let covered: u32 = self
            .islands
            .iter()
            .map(|i| u32::from(i.hi_code - i.lo_code) + 1)
            .sum();
        let span = u32::from(self.near_code - self.far_code) + 1;
        f64::from(covered) / f64::from(span)
    }
}

/// Hysteresis over island hits: dead zones and out-of-range readings keep
/// the previous selection (paper: "no selection or change happens if the
/// device is held in a distance between two of those islands").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MappingState {
    last: Option<usize>,
}

impl MappingState {
    /// A state with no selection yet.
    pub fn new() -> Self {
        MappingState::default()
    }

    /// Feeds a hit; returns the currently-selected entry, if any.
    pub fn resolve(&mut self, hit: IslandHit) -> Option<usize> {
        if let IslandHit::Entry(i) = hit {
            self.last = Some(i);
        }
        self.last
    }

    /// The current selection without feeding a new hit.
    pub fn current(&self) -> Option<usize> {
        self.last
    }

    /// Forgets the selection (menu level changed).
    pub fn reset(&mut self) {
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map10() -> IslandMap {
        IslandMap::build(10, 4.0, 30.0, 0.35, &paper_curve()).unwrap()
    }

    #[test]
    fn binary_search_lookup_matches_linear_scan_on_every_code() {
        let curve = paper_curve();
        let mut maps: Vec<IslandMap> = Vec::new();
        for n in [1usize, 2, 5, 8, 10, 16, 25] {
            maps.push(IslandMap::build(n, 4.0, 30.0, 0.35, &curve).unwrap());
            maps.push(IslandMap::build(n, 4.0, 30.0, 0.0, &curve).unwrap());
            maps.push(IslandMap::linear_in_code(n, 4.0, 30.0, 0.35, &curve).unwrap());
            maps.push(IslandMap::build_dense(n, 4.0, 30.0, &curve).unwrap());
        }
        // Dense maps with many far entries collapse into overlapping
        // degenerate islands — the case that must take the scan fallback.
        maps.push(IslandMap::build_dense(120, 4.0, 30.0, &curve).unwrap());
        maps.push(IslandMap::build_dense(400, 4.0, 30.0, &curve).unwrap());
        for (mi, m) in maps.iter().enumerate() {
            for code in 0u16..=1023 {
                assert_eq!(
                    m.lookup(code),
                    m.lookup_scan(code),
                    "map {mi} diverges at code {code}"
                );
            }
        }
    }

    #[test]
    fn islands_are_equally_spaced_in_distance() {
        let m = map10();
        let centers: Vec<f64> = m.islands().iter().map(|i| i.center_cm).collect();
        let slot = 26.0 / 10.0;
        for (i, c) in centers.iter().enumerate() {
            let expected = 4.0 + (i as f64 + 0.5) * slot;
            assert!(
                (c - expected).abs() < 1e-9,
                "island {i} centre {c} vs {expected}"
            );
        }
        // Equal width in cm everywhere — the perceptual-equal-spacing goal.
        for i in m.islands() {
            assert!((i.width_cm - slot * 0.65).abs() < 1e-9);
        }
    }

    #[test]
    fn islands_are_not_equally_spaced_in_code() {
        // The whole point of Section 4.2: near islands span many more
        // codes than far islands.
        let m = map10();
        let near_span = m.islands()[0].hi_code - m.islands()[0].lo_code;
        let far_span = m.islands()[9].hi_code - m.islands()[9].lo_code;
        assert!(
            near_span > 5 * far_span,
            "near island spans {near_span} codes, far spans {far_span}"
        );
    }

    #[test]
    fn islands_do_not_overlap_and_leave_gaps() {
        let m = map10();
        for w in m.islands().windows(2) {
            // Entry i is nearer (higher codes) than entry i+1.
            assert!(
                w[1].hi_code < w[0].lo_code,
                "islands {} and {} overlap or touch",
                w[0].index,
                w[1].index
            );
        }
        assert!(m.code_coverage() < 1.0, "gaps must exist");
        assert!(m.code_coverage() > 0.3, "islands must still dominate");
    }

    #[test]
    fn island_centres_resolve_to_their_entry() {
        let m = map10();
        let curve = paper_curve();
        for i in m.islands() {
            assert_eq!(m.lookup(i.center_code), IslandHit::Entry(i.index));
            assert_eq!(m.lookup_cm(i.center_cm, &curve), IslandHit::Entry(i.index));
        }
    }

    #[test]
    fn midpoints_between_islands_are_gaps() {
        let m = map10();
        let curve = paper_curve();
        for w in m.islands().windows(2) {
            let mid_cm = (w[0].center_cm + w[1].center_cm) / 2.0;
            assert_eq!(
                m.lookup_cm(mid_cm, &curve),
                IslandHit::Gap,
                "between islands {} and {}",
                w[0].index,
                w[1].index
            );
        }
    }

    #[test]
    fn out_of_range_codes_classify() {
        let m = map10();
        let curve = paper_curve();
        assert_eq!(m.lookup_cm(2.0, &curve), IslandHit::TooNear);
        assert_eq!(m.lookup(1023), IslandHit::TooNear);
        assert_eq!(m.lookup(0), IslandHit::TooFar);
    }

    #[test]
    fn every_code_in_span_classifies_consistently() {
        let m = map10();
        let mut last_entry: Option<usize> = None;
        // Walk codes from near (high) to far (low): entries must appear in
        // increasing index order with gaps in between, never backwards.
        for code in (0..=700u16).rev() {
            if let IslandHit::Entry(i) = m.lookup(code) {
                if let Some(prev) = last_entry {
                    assert!(
                        i == prev || i == prev + 1,
                        "entry order broke at code {code}"
                    );
                }
                last_entry = Some(i);
            }
        }
        assert_eq!(last_entry, Some(9), "all ten entries reachable");
    }

    #[test]
    fn single_entry_menu_maps() {
        let m = IslandMap::build(1, 4.0, 30.0, 0.35, &paper_curve()).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(m.islands()[0].center_code), IslandHit::Entry(0));
    }

    #[test]
    fn too_many_entries_collapse_and_error() {
        // At 200 entries the far islands are far below one ADC code wide.
        let err = IslandMap::build(200, 4.0, 30.0, 0.35, &paper_curve()).unwrap_err();
        assert!(matches!(err, CoreError::BadMapping { .. }));
    }

    #[test]
    fn build_validates_inputs() {
        let curve = paper_curve();
        assert!(IslandMap::build(0, 4.0, 30.0, 0.3, &curve).is_err());
        assert!(IslandMap::build(5, 30.0, 4.0, 0.3, &curve).is_err());
        assert!(IslandMap::build(5, 4.0, 30.0, 1.5, &curve).is_err());
    }

    #[test]
    fn linear_in_code_is_equal_in_code_not_distance() {
        let curve = paper_curve();
        let m = IslandMap::linear_in_code(10, 4.0, 30.0, 0.35, &curve).unwrap();
        let spans: Vec<u16> = m.islands().iter().map(|i| i.hi_code - i.lo_code).collect();
        let min = *spans.iter().min().unwrap();
        let max = *spans.iter().max().unwrap();
        assert!(max - min <= 2, "code spans should be near-equal: {spans:?}");
        // Distance centres are heavily skewed towards the near end.
        let d01 = m.islands()[1].center_cm - m.islands()[0].center_cm;
        let d89 = m.islands()[9].center_cm - m.islands()[8].center_cm;
        assert!(
            d89 > 3.0 * d01,
            "far entries far apart: {d01:.2} cm vs {d89:.2} cm"
        );
    }

    #[test]
    fn mapping_state_holds_through_gaps_and_out_of_range() {
        let mut st = MappingState::new();
        assert_eq!(st.resolve(IslandHit::Gap), None);
        assert_eq!(st.resolve(IslandHit::Entry(3)), Some(3));
        assert_eq!(st.resolve(IslandHit::Gap), Some(3));
        assert_eq!(st.resolve(IslandHit::TooFar), Some(3));
        assert_eq!(st.resolve(IslandHit::TooNear), Some(3));
        assert_eq!(st.resolve(IslandHit::Entry(4)), Some(4));
        st.reset();
        assert_eq!(st.current(), None);
    }

    #[test]
    fn dense_map_small_n_reaches_everything() {
        let m = IslandMap::build_dense(10, 4.0, 30.0, &paper_curve()).unwrap();
        assert!(m.unreachable_entries().is_empty());
        assert!(
            (m.code_coverage() - 1.0).abs() < 0.05,
            "dense maps have no gaps"
        );
    }

    #[test]
    fn dense_map_large_n_loses_far_entries() {
        let m = IslandMap::build_dense(200, 4.0, 30.0, &paper_curve()).unwrap();
        let lost = m.unreachable_entries();
        assert!(!lost.is_empty(), "200 entries cannot all fit the code span");
        // The casualties are at the far end, where codes are scarce.
        let min_lost = *lost.iter().min().unwrap();
        assert!(
            min_lost > 100,
            "near entries stay reachable, first loss at {min_lost}"
        );
    }

    #[test]
    fn dense_map_islands_never_overlap() {
        let m = IslandMap::build_dense(120, 4.0, 30.0, &paper_curve()).unwrap();
        for w in m.islands().windows(2) {
            assert!(
                w[1].hi_code < w[0].lo_code,
                "dense islands must not overlap: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    /// The process-wide curve is the fit itself, bit for bit: caching it
    /// changed when the fit runs, not what it returns.
    #[test]
    fn paper_curve_is_a_fresh_fit_bit_for_bit() {
        let fresh = fit_inverse_curve(&paper_points()).unwrap();
        for cached in [paper_curve(), paper_curve()] {
            assert_eq!(cached.a.to_bits(), fresh.a.to_bits());
            assert_eq!(cached.d0.to_bits(), fresh.d0.to_bits());
            assert_eq!(cached.c.to_bits(), fresh.c.to_bits());
            assert_eq!(cached.r2.to_bits(), fresh.r2.to_bits());
            assert_eq!(cached.rmse.to_bits(), fresh.rmse.to_bits());
        }
    }

    #[test]
    fn paper_curve_matches_sensor_model() {
        let curve = paper_curve();
        for d in [4.0, 10.0, 20.0, 30.0] {
            let v_model = distscroll_sensors::gp2d120::ideal_voltage(d);
            assert!((curve.voltage_at(d) - v_model).abs() < 0.01);
        }
    }
}
