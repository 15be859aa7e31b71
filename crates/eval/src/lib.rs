//! The experiment harness: every figure and open question of the paper.
//!
//! The DistScroll paper contains two data figures (4 and 5: the sensor
//! transfer curve on linear and logarithmic axes), a described-but-not-
//! tabulated island mapping (Section 4.2), a qualitative initial user
//! study (Section 6) and five explicitly enumerated open research
//! questions (Section 7). This crate regenerates all of them against
//! the simulated stack:
//!
//! | id | paper artifact | module |
//! |----|----------------|--------|
//! | F4 | Figure 4: voltage vs. distance, linear axes | [`experiments::fig4`] |
//! | F5 | Figure 5: the same on log axes | [`experiments::fig5`] |
//! | T-island | §4.2 island table | [`experiments::islands`] |
//! | S6 | §6 initial user study | [`experiments::study`] |
//! | E1 | §7: DistScroll vs. other techniques (Fitts) | [`experiments::shootout`] |
//! | E2 | §7: is 4–30 cm the right range? | [`experiments::range_sweep`] |
//! | E3 | §7: scroll towards or away? | [`experiments::direction`] |
//! | E4 | §7: long menus (chunks vs. SDAZ vs. naive) | [`experiments::long_menus`] |
//! | E5 | §4.2: expert fold-back fast scrolling | [`experiments::fastscroll`] |
//! | E6 | §4.2: clothing / light robustness | [`experiments::robustness`] |
//! | E7 | design ablations (gaps, filters, equalization) | [`experiments::ablation`] |
//! | L1 | §3.2 wireless link reliability | [`experiments::link`] |
//!
//! Supporting machinery:
//!
//! * [`stats`] — summaries, regression, Welch's t-test, Cohen's d,
//! * [`task`] — seeded task-sequence generation,
//! * [`runner`] — cohort × technique × condition trial loops,
//! * [`report`] — text tables and ASCII plots (the "figures").
//!
//! Every experiment takes an [`experiments::Effort`] so tests can run
//! scaled-down versions of exactly the same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod stats;
pub mod task;
