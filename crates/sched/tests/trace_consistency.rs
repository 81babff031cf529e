//! Completions and device traces must tell the same story: the trace is
//! not decoration, it is the ground truth the completions summarize.

use sched::policy::{PremaCfg, SplitCfg};
use sched::{simulate, ModelRuntime, ModelTable, Policy};
use workload::Arrival;

fn table() -> ModelTable {
    let mut t = ModelTable::new();
    t.insert(ModelRuntime::vanilla("short", 0, 8_000.0));
    t.insert(ModelRuntime::split(
        "mid",
        1,
        30_000.0,
        vec![16_000.0, 16_500.0],
    ));
    t.insert(ModelRuntime::split("long", 2, 60_000.0, vec![22_000.0; 3]));
    t
}

fn workload(n: u64) -> Vec<Arrival> {
    (0..n)
        .map(|i| Arrival {
            id: i,
            model: ["short", "mid", "long"][(i % 3) as usize].into(),
            arrival_us: i as f64 * 9_000.0,
        })
        .collect()
}

#[test]
fn split_completions_match_trace_spans() {
    let r = simulate(
        &Policy::Split(SplitCfg {
            alpha: 4.0,
            elastic: None,
        }),
        &workload(30),
        &table(),
    );
    for c in &r.completions {
        let spans: Vec<_> = (r.trace.events().iter())
            .filter(|e| e.req == c.id && e.model == c.model && e.block.is_some())
            .collect();
        assert!(!spans.is_empty(), "request {} left no trace", c.id);
        let first = spans
            .iter()
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        let last = spans.iter().map(|e| e.end_us).fold(0.0f64, f64::max);
        assert!(
            (first - c.start_us).abs() < 1e-9,
            "{}: {first} vs {}",
            c.id,
            c.start_us
        );
        assert!(
            (last - c.end_us).abs() < 1e-9,
            "{}: {last} vs {}",
            c.id,
            c.end_us
        );
        // Total traced device time equals the plan's block sum.
        let traced: f64 = spans.iter().map(|e| e.duration_us()).sum();
        let planned = table().get(&c.model).split_total_us();
        assert!(
            (traced - planned).abs() < 1e-6,
            "{}: {traced} vs {planned}",
            c.id
        );
    }
}

#[test]
fn clockwork_trace_is_one_span_per_request() {
    let r = simulate(&Policy::ClockWork, &workload(20), &table());
    assert_eq!(r.trace.events().len(), 20);
    for c in &r.completions {
        let spans: Vec<_> = (r.trace.events().iter())
            .filter(|e| e.req == c.id && e.model == c.model && e.block.is_none())
            .collect();
        assert_eq!(spans.len(), 1);
        assert!((spans[0].duration_us() - c.exec_us).abs() < 1e-9);
    }
}

#[test]
fn prema_trace_covers_each_request_exactly_once() {
    // Request granularity: each request is one contiguous traced span
    // (plus its switch overhead folded in).
    let r = simulate(&Policy::Prema(PremaCfg::default()), &workload(20), &table());
    for c in &r.completions {
        let spans: Vec<_> = (r.trace.events().iter())
            .filter(|e| e.req == c.id && e.model == c.model && e.block.is_none())
            .collect();
        assert_eq!(spans.len(), 1, "request {}", c.id);
        assert!(spans[0].duration_us() >= c.exec_us - 1e-9);
    }
}

#[test]
fn npu_prema_trace_chunks_sum_to_exec() {
    let cfg = PremaCfg::npu_style();
    let r = simulate(&Policy::Prema(cfg.clone()), &workload(20), &table());
    for c in &r.completions {
        let spans: Vec<_> = (r.trace.events().iter())
            .filter(|e| e.req == c.id && e.model == c.model && e.block.is_none())
            .collect();
        let traced: f64 = spans.iter().map(|e| e.duration_us()).sum();
        // Work plus at most one switch overhead per chunk.
        let max_chunks = (c.exec_us / cfg.checkpoint_us).ceil();
        assert!(traced + 1e-6 >= c.exec_us, "request {}", c.id);
        assert!(
            traced <= c.exec_us + max_chunks * cfg.switch_overhead_us + 1e-6,
            "request {}: traced {traced}",
            c.id
        );
    }
}

#[test]
fn busy_time_is_work_conserving_for_sequential_policies() {
    let arrivals = workload(40);
    let t = table();
    let total_exec: f64 = arrivals.iter().map(|a| t.get(&a.model).exec_us).sum();
    for policy in [Policy::ClockWork, Policy::Prema(PremaCfg::default())] {
        let r = simulate(&policy, &arrivals, &t);
        let busy: f64 = r.trace.events().iter().map(|e| e.duration_us()).sum();
        assert!(busy + 1e-6 >= total_exec, "{}", policy.name());
        // Overheads are bounded (PREMA pays per-switch costs only).
        assert!(busy <= total_exec * 1.2, "{}: busy {busy}", policy.name());
    }
}
