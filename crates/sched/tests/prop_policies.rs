//! Property tests over all serving policies: conservation, causality,
//! non-overlap, and SPLIT-specific scheduling invariants, for arbitrary
//! workloads.

use proptest::prelude::*;
use sched::policy::SplitCfg;
use sched::{simulate, ModelRuntime, ModelTable, Policy};
use workload::Arrival;

/// A deployment of 1-4 models with varied block structure.
fn table_strategy() -> impl Strategy<Value = ModelTable> {
    proptest::collection::vec((2_000.0f64..60_000.0, 1usize..4, 1.0f64..1.3), 1..4).prop_map(
        |models| {
            let mut t = ModelTable::new();
            for (i, (exec, blocks, overhead)) in models.into_iter().enumerate() {
                let name = format!("m{i}");
                if blocks == 1 {
                    t.insert(ModelRuntime::vanilla(name, i as u32, exec));
                } else {
                    let total = exec * overhead;
                    let blocks_us = vec![total / blocks as f64; blocks];
                    t.insert(ModelRuntime::split(name, i as u32, exec, blocks_us));
                }
            }
            t
        },
    )
}

fn workload_strategy() -> impl Strategy<Value = (ModelTable, Vec<Arrival>)> {
    (
        table_strategy(),
        proptest::collection::vec((0.0f64..400_000.0, 0usize..4), 1..60),
    )
        .prop_map(|(table, raw)| {
            let n_models = table.len();
            let mut arrivals: Vec<Arrival> = raw
                .into_iter()
                .map(|(at, m)| Arrival {
                    id: 0,
                    model: format!("m{}", m % n_models),
                    arrival_us: at,
                })
                .collect();
            arrivals.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
            for (i, a) in arrivals.iter_mut().enumerate() {
                a.id = i as u64;
            }
            (table, arrivals)
        })
}

fn all_policies() -> Vec<Policy> {
    let mut p = Policy::all_default();
    p.push(Policy::StreamParallel(Default::default()));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation + causality for every policy.
    #[test]
    fn policies_serve_everything_causally((table, arrivals) in workload_strategy()) {
        for policy in all_policies() {
            let r = simulate(&policy, &arrivals, &table);
            prop_assert_eq!(r.completions.len(), arrivals.len(), "{}", policy.name());
            let mut ids: Vec<u64> = r.completions.iter().map(|c| c.id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..arrivals.len() as u64).collect::<Vec<_>>());
            for c in &r.completions {
                prop_assert!(c.start_us + 1e-9 >= c.arrival_us, "{}: {c:?}", policy.name());
                prop_assert!(c.end_us > c.arrival_us, "{}: {c:?}", policy.name());
                prop_assert!(c.e2e_us() + 1e-6 >= c.exec_us, "{}: beat isolated: {c:?}", policy.name());
            }
        }
    }

    /// Sequential policies never overlap device spans.
    #[test]
    fn sequential_policies_never_overlap((table, arrivals) in workload_strategy()) {
        for policy in [
            Policy::Split(SplitCfg::default()),
            Policy::ClockWork,
            Policy::Prema(Default::default()),
        ] {
            let r = simulate(&policy, &arrivals, &table);
            prop_assert!(r.trace.first_overlap().is_none(), "{}", policy.name());
        }
    }

    /// SPLIT: requests of one task type complete in arrival order.
    #[test]
    fn split_same_task_completion_order((table, arrivals) in workload_strategy()) {
        let r = simulate(&Policy::Split(SplitCfg::default()), &arrivals, &table);
        let mut by_task: std::collections::HashMap<u32, Vec<(f64, f64)>> = Default::default();
        for c in &r.completions {
            by_task.entry(c.task).or_default().push((c.arrival_us, c.end_us));
        }
        for (task, mut v) in by_task {
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in v.windows(2) {
                prop_assert!(w[0].1 <= w[1].1 + 1e-9,
                    "task {task}: FIFO violated ({} ends after {})", w[0].1, w[1].1);
            }
        }
    }

    /// SPLIT: blocks of one request never interleave with blocks of the
    /// *same* request out of order, and each request runs exactly its
    /// planned number of blocks.
    #[test]
    fn split_runs_exactly_the_planned_blocks((table, arrivals) in workload_strategy()) {
        let cfg = SplitCfg { alpha: 4.0, elastic: None };
        let r = simulate(&Policy::Split(cfg), &arrivals, &table);
        for a in &arrivals {
            let planned = table.get(&a.model).blocks_us.len();
            let spans: Vec<_> = (r.trace.events().iter())
                .filter(|e| e.req == a.id && e.block.is_some())
                .collect();
            prop_assert_eq!(spans.len(), planned, "request {}", a.id);
            for w in spans.windows(2) {
                prop_assert!(w[0].end_us <= w[1].start_us + 1e-9);
            }
        }
    }

    /// Work conservation for SPLIT: total device busy time equals the sum
    /// of every request's planned block time (elasticity off).
    #[test]
    fn split_work_conservation((table, arrivals) in workload_strategy()) {
        let cfg = SplitCfg { alpha: 4.0, elastic: None };
        let r = simulate(&Policy::Split(cfg), &arrivals, &table);
        let busy: f64 = r.trace.events().iter().map(|e| e.duration_us()).sum();
        let expected: f64 = arrivals.iter().map(|a| table.get(&a.model).split_total_us()).sum();
        prop_assert!((busy - expected).abs() < 1e-6 * expected.max(1.0));
    }

    /// Determinism: every policy is a pure function of its inputs.
    #[test]
    fn policies_are_deterministic((table, arrivals) in workload_strategy()) {
        for policy in all_policies() {
            let a = simulate(&policy, &arrivals, &table);
            let b = simulate(&policy, &arrivals, &table);
            prop_assert_eq!(a.completions, b.completions, "{}", policy.name());
        }
    }
}
