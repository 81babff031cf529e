//! Property tests over the lifecycle telemetry every policy emits:
//! for arbitrary workloads the recording must be structurally
//! well-formed ([`split_telemetry::Recorder::validate`]), its block
//! spans must not overlap on a stream (checked again through
//! [`gpu_sim::Trace::first_overlap`]), and events must be conserved —
//! every arrival has exactly one arrival event and one completion
//! event.

use gpu_sim::Trace;
use proptest::prelude::*;
use sched::{simulate, ModelRuntime, ModelTable, Policy};
use split_telemetry::Event;
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
        proptest::collection::vec((0.0f64..400_000.0, 0usize..4), 1..50),
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

/// The five serving policies the lifecycle recorder must cover.
fn all_policies() -> Vec<Policy> {
    let mut p = Policy::all_default();
    p.push(Policy::StreamParallel(Default::default()));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lifecycle_recording_is_well_formed_for_every_policy(
        (table, arrivals) in workload_strategy()
    ) {
        for policy in all_policies() {
            let r = simulate(&policy, &arrivals, &table);
            let errors = r.recorder.validate();
            prop_assert!(
                errors.is_empty(),
                "{}: lifecycle invariants violated: {errors:?}",
                policy.name()
            );

            // Conservation: one arrival and one completion event per
            // submitted request, covering exactly the submitted ids.
            let mut arrived: Vec<u64> = Vec::new();
            let mut completed: Vec<u64> = Vec::new();
            for e in r.recorder.events() {
                match e {
                    Event::Arrival { req, .. } => arrived.push(*req),
                    Event::Completion { req, .. } => completed.push(*req),
                    _ => {}
                }
            }
            arrived.sort_unstable();
            completed.sort_unstable();
            let want: Vec<u64> = (0..arrivals.len() as u64).collect();
            prop_assert_eq!(&arrived, &want, "{}: arrivals", policy.name());
            prop_assert_eq!(&completed, &want, "{}: completions", policy.name());

            // Re-check stream exclusivity through the trace machinery:
            // rebuilding a Trace from the recorded block spans must show
            // no same-stream overlap.
            let mut spans = Trace::new();
            let mut open: std::collections::HashMap<u64, f64> =
                std::collections::HashMap::new();
            for e in r.recorder.events() {
                match e {
                    Event::BlockStart { req, t_us, .. } => {
                        open.insert(*req, *t_us);
                    }
                    Event::BlockEnd { req, block, stream, t_us } => {
                        let start = open.remove(req).expect("validated pairing");
                        spans.record(
                            *req,
                            "req",
                            Some(*block as u32),
                            *stream as usize,
                            start,
                            *t_us,
                        );
                    }
                    _ => {}
                }
            }
            let overlap = spans.first_overlap();
            prop_assert!(
                overlap.is_none(),
                "{}: same-stream overlap: {overlap:?}",
                policy.name()
            );
        }
    }

    #[test]
    fn split_decision_events_cover_every_arrival(
        (table, arrivals) in workload_strategy()
    ) {
        let r = simulate(&Policy::Split(Default::default()), &arrivals, &table);
        let decisions = r
            .recorder
            .events()
            .filter(|e| matches!(e, Event::PreemptDecision { .. }))
            .count();
        let enqueues = r
            .recorder
            .events()
            .filter(|e| matches!(e, Event::Enqueue { .. }))
            .count();
        prop_assert_eq!(decisions, arrivals.len());
        prop_assert_eq!(enqueues, arrivals.len());
        // Derived metrics see every decision.
        let reg = r.metrics();
        prop_assert_eq!(
            reg.histogram("sched.preempt.decision_ns").count(),
            arrivals.len() as u64
        );
    }
}
