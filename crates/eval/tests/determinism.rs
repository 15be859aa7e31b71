//! The parallel harness's load-bearing guarantee: the worker-token
//! budget must never change a single record or rendered report.
//!
//! `run_cohort` fans users out over `jobs` threads and `run_all` fans
//! whole experiments out; both slot results by input index and
//! reassemble in order, and every unit of work derives its
//! stochasticity from per-(user, block) seeds. Chunk boundaries — and
//! therefore which users share one technique instance — differ between
//! job counts, so these tests also catch a technique that smuggles
//! state across trials, a threaded RNG, or a shared `&mut` instance.
//! `--jobs N` spawns real helper threads on any core count, so the
//! parallel runs are never the serial path in disguise.

use distscroll_baselines::buttons::ButtonsTechnique;
use distscroll_baselines::distscroll::DistScrollTechnique;
use distscroll_baselines::ScrollTechnique;
use distscroll_eval::experiments::{run_all, set_jobs, Effort, REGISTRY};
use distscroll_eval::runner::{run_cohort, TechniqueFactory};
use distscroll_user::population::sample_cohort;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn cohort_records_identical_at_jobs_1_2_4_and_8() {
    let mut rng = StdRng::seed_from_u64(20050607);
    let cohort = sample_cohort(8, &mut rng);
    let factories: [&TechniqueFactory; 2] = [
        &|| Box::new(DistScrollTechnique::paper()) as Box<dyn ScrollTechnique>,
        &|| Box::new(ButtonsTechnique::new()) as Box<dyn ScrollTechnique>,
    ];
    for factory in factories {
        let serial = run_cohort(factory, &cohort, 10, 6, 77, 1);
        for jobs in [2, 4, 8] {
            let parallel = run_cohort(factory, &cohort, 10, 6, 77, jobs);
            assert_eq!(
                serial, parallel,
                "jobs={jobs} must reproduce the serial records exactly"
            );
        }
    }
}

#[test]
fn registry_reports_identical_at_jobs_1_2_4_and_8() {
    set_jobs(1);
    let serial = run_all(Effort::Quick, 20050607);

    // The serial pass must cover the registry exactly, in order — a
    // hand-written experiment list that drifted from REGISTRY fails here.
    let expected: Vec<&str> = REGISTRY.iter().map(|e| e.report_id()).collect();
    let got: Vec<&str> = serial.iter().map(|r| r.id).collect();
    assert_eq!(got, expected, "run_all must enumerate the registry");

    for jobs in [2, 4, 8] {
        set_jobs(jobs);
        let parallel = run_all(Effort::Quick, 20050607);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.id, p.id, "canonical order must survive the fan-out");
            assert_eq!(
                s.render(),
                p.render(),
                "experiment {} rendered differently at --jobs 1 vs --jobs {jobs}",
                s.id
            );
        }
    }
    set_jobs(0);
}
