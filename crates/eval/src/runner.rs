//! Cohort × technique × condition trial loops.
//!
//! [`run_block`] runs one user through one block on one technique;
//! [`run_users`] fans a cohort out over `jobs` threads — each
//! worker-chunk builds its *own* technique instance via the context
//! factory, so no `&mut` state crosses chunks and per-user setup cost
//! is amortized over the chunk — and [`run_cohort`] is the standard
//! plan-per-user instance of it. Everything is seeded per
//! `(user, block)`, so the records are **identical at any `jobs`
//! count**: results are keyed by user index and the join reassembles
//! them in `(user_id, trial)` order, byte-for-byte equal to the serial
//! path.

use distscroll_baselines::{ScrollTechnique, TrialResult, TrialSetup};
use distscroll_user::population::UserParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{Proportion, Summary};
use crate::task::TaskPlan;

/// One completed trial with its context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialRecord {
    /// Index of the user within the cohort.
    pub user_id: usize,
    /// The task.
    pub setup: TrialSetup,
    /// What happened.
    pub result: TrialResult,
}

/// Builds a fresh technique instance for one worker-chunk.
///
/// The original runner threaded a single `&mut dyn ScrollTechnique`
/// through every user, which serializes the cohort. All techniques are
/// stateless across trials (their per-trial state lives in the devices
/// they build per trial), so sharing one instance across the users of a
/// worker-chunk produces the same records as building one per user —
/// and lets chunks run concurrently while amortizing construction.
pub type TechniqueFactory<'a> = dyn Fn() -> Box<dyn ScrollTechnique> + Sync + 'a;

/// Runs one user through a task plan.
pub fn run_block(
    technique: &mut dyn ScrollTechnique,
    user: &UserParams,
    user_id: usize,
    plan: &TaskPlan,
    seed: u64,
) -> Vec<TrialRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    plan.setups()
        .iter()
        .map(|setup| TrialRecord {
            user_id,
            setup: *setup,
            result: technique.run_trial(user, setup, &mut rng),
        })
        .collect()
}

/// Fans a cohort out over up to `jobs` threads and returns every user's records concatenated in
/// `(user_id, trial)` order.
///
/// `mk_ctx` builds the per-chunk context — typically a technique
/// instance — once per worker-chunk; `per_user` receives it mutably for
/// every user of the chunk. `per_user` must derive all stochasticity
/// from `(user_id, user)` — the discipline every experiment already
/// follows via per-user seeds — and the context must be
/// observationally stateless across users, which together make the
/// output independent of `jobs` and of chunk boundaries. The
/// determinism regression tests compare runs whose chunk boundaries
/// differ, so a technique that smuggles state across trials fails loud.
pub fn run_users<C, G, F>(
    cohort: &[UserParams],
    jobs: usize,
    mk_ctx: G,
    per_user: F,
) -> Vec<TrialRecord>
where
    G: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &UserParams) -> Vec<TrialRecord> + Sync,
{
    let per_user_records = distscroll_par::par_map_ctx(jobs, cohort, mk_ctx, per_user);
    let mut records = Vec::with_capacity(per_user_records.iter().map(Vec::len).sum());
    for user_records in per_user_records {
        records.extend(user_records);
    }
    records
}

/// Runs every user of a cohort through (their own copy of) a task plan,
/// fanned out over up to `jobs` threads (`jobs = 1` forces the
/// serial path; the records are identical either way).
///
/// Each user gets a distinct trial seed derived from `seed` and a
/// distinct task seed, as a counterbalanced study would. One technique
/// instance is constructed per worker-chunk and reused across that
/// chunk's users.
pub fn run_cohort(
    factory: &TechniqueFactory,
    cohort: &[UserParams],
    n_entries: usize,
    trials_per_user: usize,
    seed: u64,
    jobs: usize,
) -> Vec<TrialRecord> {
    run_users(cohort, jobs, factory, |technique, user_id, user| {
        let plan = TaskPlan::block(n_entries, trials_per_user, 1, seed ^ (user_id as u64) << 17);
        run_block(
            technique.as_mut(),
            user,
            user_id,
            &plan,
            seed.wrapping_add(user_id as u64 * 7919),
        )
    })
}

/// Aggregate view of a set of trial records.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStats {
    /// Selection times of *correct* trials, summarized.
    pub time: Summary,
    /// Error rate with its Wilson interval.
    pub errors: Proportion,
    /// Mean corrective actions per trial.
    pub corrections: Summary,
    /// Trials that timed out entirely.
    pub timeouts: usize,
}

/// Why a record set cannot be summarized.
///
/// A condition that fails this badly (every trial wrong or timed out)
/// used to abort the whole run with a panic; inside a parallel worker
/// that would tear down every sibling experiment, so it is now a value
/// the caller renders as a degenerate row instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummarizeError {
    /// No records at all.
    Empty,
    /// Records exist but no trial finished correctly, so there are no
    /// selection times to summarize. Carries the record count.
    NoCorrectTrials {
        /// Total trials in the degenerate record set.
        records: usize,
    },
}

impl std::fmt::Display for SummarizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummarizeError::Empty => f.write_str("no records to summarize"),
            SummarizeError::NoCorrectTrials { records } => {
                write!(f, "no correct trials among {records} records")
            }
        }
    }
}

impl std::error::Error for SummarizeError {}

/// Summarizes trial records; `Err` on empty or all-failure sets.
pub fn summarize(records: &[TrialRecord]) -> Result<BlockStats, SummarizeError> {
    if records.is_empty() {
        return Err(SummarizeError::Empty);
    }
    let times: Vec<f64> = records
        .iter()
        .filter(|r| r.result.correct)
        .map(|r| r.result.time_s)
        .collect();
    if times.is_empty() {
        return Err(SummarizeError::NoCorrectTrials {
            records: records.len(),
        });
    }
    let errors = records.iter().filter(|r| !r.result.correct).count();
    let timeouts = records
        .iter()
        .filter(|r| r.result.selected_idx.is_none())
        .count();
    let corrections: Vec<f64> = records
        .iter()
        .map(|r| f64::from(r.result.corrections))
        .collect();
    Ok(BlockStats {
        time: Summary::of(&times),
        errors: Proportion::of(errors, records.len()),
        corrections: Summary::of(&corrections),
        timeouts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use distscroll_baselines::buttons::ButtonsTechnique;
    use distscroll_user::population::sample_cohort;

    #[test]
    fn block_runs_every_task_in_order() {
        let mut tech = ButtonsTechnique::new();
        let plan = TaskPlan::block(12, 8, 1, 3);
        let records = run_block(&mut tech, &UserParams::expert(), 0, &plan, 42);
        assert_eq!(records.len(), 8);
        for (r, s) in records.iter().zip(plan.setups()) {
            assert_eq!(r.setup, *s);
        }
    }

    #[test]
    fn cohort_runs_are_reproducible() {
        let mut rng = StdRng::seed_from_u64(0);
        let cohort = sample_cohort(4, &mut rng);
        let run = |cohort: &[UserParams]| {
            run_cohort(&|| Box::new(ButtonsTechnique::new()), cohort, 10, 5, 77, 1)
        };
        assert_eq!(run(&cohort), run(&cohort));
    }

    #[test]
    fn parallel_cohort_matches_serial_cohort() {
        let mut rng = StdRng::seed_from_u64(9);
        let cohort = sample_cohort(6, &mut rng);
        let factory: &TechniqueFactory = &|| Box::new(ButtonsTechnique::new());
        let serial = run_cohort(factory, &cohort, 10, 4, 123, 1);
        for jobs in [2, 4, 8] {
            let parallel = run_cohort(factory, &cohort, 10, 4, 123, jobs);
            assert_eq!(
                serial, parallel,
                "jobs={jobs} must reproduce the serial records"
            );
        }
    }

    #[test]
    fn cohort_records_arrive_in_user_then_trial_order() {
        let mut rng = StdRng::seed_from_u64(4);
        let cohort = sample_cohort(5, &mut rng);
        let records = run_cohort(&|| Box::new(ButtonsTechnique::new()), &cohort, 8, 3, 50, 8);
        let order: Vec<(usize, u32)> = records
            .iter()
            .map(|r| (r.user_id, r.setup.trial_number))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "records must stay in (user_id, trial) order");
    }

    #[test]
    fn summarize_counts_errors_and_timeouts() {
        let setup = TrialSetup::new(8, 0, 4, 1);
        let records = vec![
            TrialRecord {
                user_id: 0,
                setup,
                result: TrialResult {
                    time_s: 1.0,
                    selected_idx: Some(4),
                    correct: true,
                    corrections: 0,
                },
            },
            TrialRecord {
                user_id: 0,
                setup,
                result: TrialResult {
                    time_s: 2.0,
                    selected_idx: Some(3),
                    correct: false,
                    corrections: 2,
                },
            },
            TrialRecord {
                user_id: 0,
                setup,
                result: TrialResult::timeout(30.0, 5),
            },
        ];
        let stats = summarize(&records).expect("one correct trial is summarizable");
        assert_eq!(stats.time.n, 1);
        assert_eq!(stats.errors.k, 2);
        assert_eq!(stats.timeouts, 1);
        assert!((stats.corrections.mean - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_reports_degenerate_sets_instead_of_panicking() {
        let setup = TrialSetup::new(8, 0, 4, 1);
        let records = vec![TrialRecord {
            user_id: 0,
            setup,
            result: TrialResult::timeout(30.0, 0),
        }];
        assert_eq!(
            summarize(&records),
            Err(SummarizeError::NoCorrectTrials { records: 1 })
        );
        assert_eq!(summarize(&[]), Err(SummarizeError::Empty));
        let msg = SummarizeError::NoCorrectTrials { records: 1 }.to_string();
        assert!(msg.contains("no correct trials"), "{msg}");
    }
}
