//! Property tests for the processor-sharing engine — conservation laws
//! that must hold for any workload.

use gpu_sim::{ContentionModel, FluidJob, FluidSim};
use proptest::prelude::*;

fn jobs_strategy() -> impl Strategy<Value = Vec<FluidJob>> {
    proptest::collection::vec((0.0f64..500_000.0, 100.0f64..80_000.0), 1..40).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (arrival, work))| FluidJob {
                id: i as u64,
                arrival_us: arrival,
                work_us: work,
            })
            .collect()
    })
}

proptest! {
    /// Every job completes exactly once, never faster than isolated.
    #[test]
    fn fluid_conservation(jobs in jobs_strategy(), coef in 0.0f64..2.0) {
        let sim = FluidSim::new(ContentionModel::new(coef));
        let done = sim.run(&jobs);
        prop_assert_eq!(done.len(), jobs.len());
        let mut ids: Vec<u64> = done.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..jobs.len() as u64).collect::<Vec<_>>());
        for d in &done {
            let j = &jobs[d.id as usize];
            prop_assert!(d.start_us >= j.arrival_us - 1e-6);
            prop_assert!(d.end_us >= d.start_us + j.work_us - 1e-6,
                "job {} finished faster than isolated", d.id);
        }
    }

    /// With zero contention the device behaves like infinite parallel
    /// lanes: completion = admission + work.
    #[test]
    fn fluid_zero_contention_is_exact(jobs in jobs_strategy()) {
        let sim = FluidSim::new(ContentionModel::new(0.0));
        let done = sim.run(&jobs);
        for d in &done {
            let j = &jobs[d.id as usize];
            prop_assert!((d.end_us - (j.arrival_us + j.work_us)).abs() < 1e-6);
        }
    }

    /// Higher contention never helps any individual job.
    #[test]
    fn fluid_contention_monotone(jobs in jobs_strategy(), c1 in 0.0f64..1.0, extra in 0.01f64..1.0) {
        let lo = FluidSim::new(ContentionModel::new(c1)).run(&jobs);
        let hi = FluidSim::new(ContentionModel::new(c1 + extra)).run(&jobs);
        let find = |v: &[gpu_sim::fluid::FluidCompletion], id| {
            v.iter().find(|d| d.id == id).unwrap().end_us
        };
        for j in &jobs {
            prop_assert!(find(&hi, j.id) + 1e-6 >= find(&lo, j.id));
        }
    }

    /// Admission quantum never admits a job earlier (note: a *completion*
    /// can actually get faster — delaying a competitor's admission frees
    /// the device — so the invariant is on starts, not ends).
    #[test]
    fn fluid_quantum_never_admits_early(jobs in jobs_strategy(), q in 100.0f64..50_000.0) {
        let free = FluidSim::new(ContentionModel::new(0.5)).run(&jobs);
        let gated = FluidSim::with_admission_quantum(ContentionModel::new(0.5), q).run(&jobs);
        for j in &jobs {
            let f = free.iter().find(|d| d.id == j.id).unwrap().start_us;
            let g = gated.iter().find(|d| d.id == j.id).unwrap().start_us;
            prop_assert!(g + 1e-6 >= f, "quantum admitted job {} early: {f} -> {g}", j.id);
            // Admission lands on a barrier (or coincides with one for jobs
            // admitted while the device drains a backlog).
            prop_assert!(g + 1e-6 >= j.arrival_us);
        }
    }
}
