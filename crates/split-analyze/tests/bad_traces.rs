//! Golden "bad trace" fixtures: each hand-built simulation result
//! violates exactly one scheduling invariant and must produce exactly the
//! matching diagnostic code — no more, no less. These pin down both that
//! the analyzer fires and that its checks do not bleed into each other.

use gpu_sim::Trace;
use sched::{Completion, ModelRuntime, ModelTable, SimResult};
use split_analyze::{lint_schedule, ScheduleLintCfg};
use workload::Arrival;

fn arrival(id: u64, model: &str, t: f64) -> Arrival {
    Arrival {
        id,
        model: model.into(),
        arrival_us: t,
    }
}

fn completion(id: u64, model: &str, arrival_us: f64, start_us: f64, end_us: f64) -> Completion {
    Completion {
        id,
        model: model.into(),
        task: 0,
        arrival_us,
        start_us,
        end_us,
        exec_us: 100.0,
    }
}

fn vanilla_table() -> ModelTable {
    let mut t = ModelTable::new();
    t.insert(ModelRuntime::vanilla("m", 0, 100.0));
    t
}

/// Two spans overlap on stream 0; everything else is consistent.
#[test]
fn overlapping_streams_fixture_is_exactly_sa101() {
    let arrivals = vec![arrival(0, "m", 0.0), arrival(1, "m", 10.0)];
    let mut trace = Trace::new();
    trace.record(0, "m", None, 0, 0.0, 100.0);
    trace.record(1, "m", None, 0, 50.0, 150.0); // starts while request 0 still runs
    let result = SimResult {
        completions: vec![
            completion(0, "m", 0.0, 0.0, 100.0),
            completion(1, "m", 10.0, 50.0, 150.0),
        ],
        trace,
        recorder: Default::default(),
    };
    let table = vanilla_table();
    let report = lint_schedule(&arrivals, &result, &ScheduleLintCfg::structural(&table));
    assert_eq!(report.len(), 1, "{}", report.render_text());
    assert_eq!(
        report.with_code("SA101").len(),
        1,
        "{}",
        report.render_text()
    );
}

/// A split request's second block is cut short mid-block (§3.4 forbids
/// this: preemption may only happen at block boundaries).
#[test]
fn mid_block_preemption_fixture_is_exactly_sa102() {
    let mut table = ModelTable::new();
    table.insert(ModelRuntime::split("s", 0, 100.0, vec![50.0, 50.0]));
    let arrivals = vec![arrival(0, "s", 0.0)];
    let mut trace = Trace::new();
    trace.record(0, "s", Some(0), 0, 0.0, 50.0);
    trace.record(0, "s", Some(1), 0, 60.0, 95.0); // 35µs of a declared 50µs block
    let result = SimResult {
        completions: vec![completion(0, "s", 0.0, 0.0, 95.0)],
        trace,
        recorder: Default::default(),
    };
    let report = lint_schedule(&arrivals, &result, &ScheduleLintCfg::block_granular(&table));
    assert_eq!(report.len(), 1, "{}", report.render_text());
    assert_eq!(
        report.with_code("SA102").len(),
        1,
        "{}",
        report.render_text()
    );
}

/// A split request runs block 0 and then block 2: a block index was
/// skipped, though both spans last their declared time.
#[test]
fn skipped_block_index_fixture_is_exactly_sa102() {
    let mut table = ModelTable::new();
    table.insert(ModelRuntime::split("s", 0, 100.0, vec![50.0, 50.0]));
    let arrivals = vec![arrival(0, "s", 0.0)];
    let mut trace = Trace::new();
    trace.record(0, "s", Some(0), 0, 0.0, 50.0);
    trace.record(0, "s", Some(2), 0, 50.0, 100.0);
    let result = SimResult {
        completions: vec![completion(0, "s", 0.0, 0.0, 100.0)],
        trace,
        recorder: Default::default(),
    };
    let report = lint_schedule(&arrivals, &result, &ScheduleLintCfg::block_granular(&table));
    assert_eq!(report.len(), 1, "{}", report.render_text());
    let sa102 = report.with_code("SA102");
    assert_eq!(sa102.len(), 1, "{}", report.render_text());
    assert!(
        sa102[0].message.contains("span 1 is labeled block 2"),
        "{}",
        report.render_text()
    );
}

/// A request arrives, is never dropped, and never completes.
#[test]
fn lost_request_fixture_is_exactly_sa103() {
    let arrivals = vec![arrival(0, "m", 0.0), arrival(1, "m", 10.0)];
    let mut trace = Trace::new();
    trace.record(0, "m", None, 0, 0.0, 100.0);
    let result = SimResult {
        completions: vec![completion(0, "m", 0.0, 0.0, 100.0)],
        trace,
        recorder: Default::default(),
    };
    let table = vanilla_table();
    let report = lint_schedule(&arrivals, &result, &ScheduleLintCfg::structural(&table));
    assert_eq!(report.len(), 1, "{}", report.render_text());
    assert_eq!(
        report.with_code("SA103").len(),
        1,
        "{}",
        report.render_text()
    );
}

/// A completion claiming less wall time than its own device work.
#[test]
fn impossible_latency_fixture_is_exactly_sa104() {
    let arrivals = vec![arrival(0, "m", 0.0)];
    let mut trace = Trace::new();
    trace.record(0, "m", None, 0, 0.0, 100.0);
    let result = SimResult {
        // end_us says 80µs e2e, but the span occupies 100µs of device time
        // — and the span also runs past the claimed completion.
        completions: vec![completion(0, "m", 0.0, 0.0, 80.0)],
        trace,
        recorder: Default::default(),
    };
    let table = vanilla_table();
    let report = lint_schedule(&arrivals, &result, &ScheduleLintCfg::structural(&table));
    assert!(
        !report.with_code("SA104").is_empty(),
        "{}",
        report.render_text()
    );
    for d in &report.diagnostics {
        assert_eq!(d.code, "SA104", "{}", report.render_text());
    }
}
