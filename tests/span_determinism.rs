//! Span-tree determinism across worker-thread counts.
//!
//! Span ids are a pure function of (request id, phase, occurrence) —
//! never a shared counter — so the forest rebuilt from a simulation
//! must be bit-identical whether the pool ran one worker or four.
//! Timestamps are compared via `f64::to_bits`, i.e. exact equality,
//! not tolerance.

use split_repro::experiment;
use split_repro::gpu_sim::DeviceConfig;
use split_repro::rayon;
use split_repro::sched::Policy;
use split_repro::split_obs::{build_spans, Span, SpanKind, ROOT_SPAN_ID};
use split_repro::workload::Scenario;

fn spans_with_threads(threads: usize) -> Vec<Span> {
    rayon::with_threads(threads, || {
        let dev = DeviceConfig::jetson_nano();
        let deployment = experiment::paper_deployment(&dev);
        let result = experiment::run_scenario(
            &Policy::Split(Default::default()),
            Scenario::table2(3),
            &deployment,
        );
        build_spans(&result.recorder)
    })
}

/// Two span forests are bit-identical: same order, same ids, same
/// phases, and timestamps equal down to the last mantissa bit.
fn assert_bit_identical(a: &[Span], b: &[Span]) {
    assert_eq!(a.len(), b.len(), "span counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.ctx, y.ctx, "span context differs");
        assert_eq!(x.kind, y.kind, "span kind differs for {:?}", x.ctx);
        assert_eq!(x.model, y.model, "model differs for {:?}", x.ctx);
        assert_eq!(
            x.start_us.to_bits(),
            y.start_us.to_bits(),
            "start_us bits differ for {:?}",
            x.ctx
        );
        assert_eq!(
            x.end_us.to_bits(),
            y.end_us.to_bits(),
            "end_us bits differ for {:?}",
            x.ctx
        );
    }
}

#[test]
fn span_trees_are_bit_identical_across_thread_counts() {
    let single = spans_with_threads(1);
    let quad = spans_with_threads(4);
    assert!(!single.is_empty(), "scenario produced no spans");
    assert_bit_identical(&single, &quad);
}

#[test]
fn span_ids_derive_from_phase_not_construction_order() {
    let spans = spans_with_threads(1);
    for sp in &spans {
        match sp.kind {
            SpanKind::Request => {
                assert_eq!(sp.ctx.span_id, ROOT_SPAN_ID);
                assert_eq!(sp.ctx.parent, None);
            }
            SpanKind::Block { index, .. } => {
                // Phase code 2 in the high word, block index low.
                assert_eq!(
                    sp.ctx.span_id,
                    (3u64 << 32) | index as u64,
                    "block id must encode its index"
                );
            }
            _ => assert!(sp.ctx.span_id > u32::MAX as u64, "phase-coded ids only"),
        }
        if sp.kind != SpanKind::Request {
            assert_eq!(sp.ctx.parent, Some(ROOT_SPAN_ID));
        }
    }
    // Ids are unique within every trace.
    let mut per_trace: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
        std::collections::HashMap::new();
    for sp in &spans {
        assert!(
            per_trace
                .entry(sp.ctx.trace_id)
                .or_default()
                .insert(sp.ctx.span_id),
            "duplicate span id {} in trace {}",
            sp.ctx.span_id,
            sp.ctx.trace_id
        );
    }
}
