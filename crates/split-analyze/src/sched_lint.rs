//! Schedule/trace analyzer: replay a [`SimResult`] and statically check
//! the scheduler invariants the paper's claims rest on.
//!
//! Invariant catalog (DESIGN.md §9):
//! * `SA101` — two spans overlap on the same stream (serialized-stream
//!   policies only; RT-A and Stream-Parallel deliberately model
//!   concurrency, so their lanes may legitimately overlap)
//! * `SA102` — preemption happened mid-block: a request's block indices
//!   are not contiguous from 0, or a span's duration does not match the
//!   block time declared by the deployment (block-granular policies only)
//! * `SA103` — event conservation: every arrival must be matched by
//!   exactly one completion or an explicit drop, and nothing completes
//!   that never arrived
//! * `SA104` — QoS infeasibility: a completion claims less wall time than
//!   the device work it performed, or runs outside its own lifetime
//! * `SA105` — the lifecycle recording itself is structurally broken
//!   (delegated to [`split_telemetry::Recorder::validate`])
//! * `SA106` — nondeterminism: the same policy over the same input
//!   produced a structurally different result on a second run

use crate::diag::{Diagnostic, Report};
use sched::{simulate, ModelTable, Policy, SimResult};
use split_telemetry::Event;
use std::collections::{BTreeMap, BTreeSet};
use workload::Arrival;

/// Configuration for [`lint_schedule`].
#[derive(Debug, Clone, Default)]
pub struct ScheduleLintCfg<'a> {
    /// The deployment the schedule served. Required for the `SA102`
    /// block-duration checks; without it only structural checks run.
    pub models: Option<&'a ModelTable>,
    /// Enforce §3.4 block granularity (`SA102`). Only meaningful for
    /// block-granular policies (SPLIT, block round-robin); time-slicing
    /// baselines like PREMA legitimately cut spans at arbitrary points.
    pub block_granular: bool,
    /// Requests the policy explicitly dropped (admission control);
    /// counted on the completion side of `SA103` conservation.
    pub dropped: &'a [u64],
    /// Enforce `SA101` (no same-stream overlap). True for policies that
    /// serialize each stream (SPLIT, ClockWork, PREMA, SJF); false for
    /// concurrency-modeling baselines (RT-A, Stream-Parallel) whose
    /// `lane % 8` coloring reuses streams across co-running requests.
    pub serialized_streams: bool,
    /// Absolute timing tolerance, µs.
    pub time_tol_us: f64,
}

impl<'a> ScheduleLintCfg<'a> {
    /// Strict configuration for a block-granular policy over `models`.
    pub fn block_granular(models: &'a ModelTable) -> Self {
        Self {
            models: Some(models),
            block_granular: true,
            dropped: &[],
            serialized_streams: true,
            time_tol_us: 1e-6,
        }
    }

    /// Structural-only configuration (serialized baselines: ClockWork,
    /// PREMA, SJF).
    pub fn structural(models: &'a ModelTable) -> Self {
        Self {
            models: Some(models),
            block_granular: false,
            dropped: &[],
            serialized_streams: true,
            time_tol_us: 1e-6,
        }
    }

    /// Configuration for concurrency-modeling baselines (RT-A,
    /// Stream-Parallel) whose streams legitimately overlap.
    pub fn concurrent(models: &'a ModelTable) -> Self {
        Self {
            serialized_streams: false,
            ..Self::structural(models)
        }
    }
}

/// One executed span attributed to a request.
#[derive(Debug, Clone, Copy)]
struct Span {
    stream: usize,
    start_us: f64,
    end_us: f64,
    /// Block index the policy recorded (`None` for unsplit spans).
    block: Option<u32>,
}

/// Statically check one simulation result against the invariants above.
pub fn lint_schedule(arrivals: &[Arrival], result: &SimResult, cfg: &ScheduleLintCfg) -> Report {
    let mut report = Report::new();
    let tol = if cfg.time_tol_us > 0.0 {
        cfg.time_tol_us
    } else {
        1e-6
    };

    // SA105: the recording's own structural invariants.
    for msg in result.recorder.validate() {
        report.push(
            Diagnostic::error("SA105", "lifecycle recording", msg)
                .with_help("the policy emitted a malformed event sequence"),
        );
    }

    // Attribute device spans to requests.
    let mut spans: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for e in result.trace.events() {
        spans.entry(e.req).or_default().push(Span {
            stream: e.stream,
            start_us: e.start_us,
            end_us: e.end_us,
            block: e.block,
        });
    }
    for list in spans.values_mut() {
        list.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    }

    // SA101: same-stream spans must not overlap. Independent sweep over
    // the raw trace (the recorder's lane re-coloring must not be the only
    // thing standing between us and an overlap).
    let mut by_stream: BTreeMap<usize, Vec<(f64, f64, u64)>> = BTreeMap::new();
    if cfg.serialized_streams {
        for (req, list) in &spans {
            for s in list {
                by_stream
                    .entry(s.stream)
                    .or_default()
                    .push((s.start_us, s.end_us, *req));
            }
        }
    }
    for (stream, mut list) in by_stream {
        list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in list.windows(2) {
            let ((_, end1, r1), (start2, _, r2)) = (w[0], w[1]);
            if start2 + tol < end1 {
                report.push(Diagnostic::error(
                    "SA101",
                    format!("stream {stream} @ {start2:.3}µs"),
                    format!(
                        "request {r2}'s span starts at {start2:.3}µs while \
                         request {r1}'s span is still executing (until {end1:.3}µs)"
                    ),
                ));
            }
        }
    }

    // SA103: conservation — arrivals = completions + drops, exactly.
    let arrival_ids: BTreeSet<u64> = arrivals.iter().map(|a| a.id).collect();
    let dropped_ids: BTreeSet<u64> = cfg.dropped.iter().copied().collect();
    let mut completion_count: BTreeMap<u64, usize> = BTreeMap::new();
    for c in &result.completions {
        *completion_count.entry(c.id).or_insert(0) += 1;
    }
    for &id in &arrival_ids {
        match (completion_count.get(&id), dropped_ids.contains(&id)) {
            (Some(1), false) | (None, true) => {}
            (None, false) => report.push(
                Diagnostic::error(
                    "SA103",
                    format!("request {id}"),
                    "request arrived but was neither completed nor dropped",
                )
                .with_help("a lost request silently violates its QoS target"),
            ),
            (Some(n), false) => report.push(Diagnostic::error(
                "SA103",
                format!("request {id}"),
                format!("request completed {n} times"),
            )),
            (Some(_), true) => report.push(Diagnostic::error(
                "SA103",
                format!("request {id}"),
                "request was both dropped and completed",
            )),
        }
    }
    for id in completion_count.keys() {
        if !arrival_ids.contains(id) {
            report.push(Diagnostic::error(
                "SA103",
                format!("request {id}"),
                "completion for a request that never arrived",
            ));
        }
    }

    // SA104: per-completion feasibility.
    let arrival_t: BTreeMap<u64, f64> = arrivals.iter().map(|a| (a.id, a.arrival_us)).collect();
    for c in &result.completions {
        let ctx = format!("request {} ({})", c.id, c.model);
        if c.end_us + tol < c.arrival_us {
            report.push(Diagnostic::error(
                "SA104",
                ctx.clone(),
                format!(
                    "completes at {:.3}µs before its arrival at {:.3}µs",
                    c.end_us, c.arrival_us
                ),
            ));
        }
        if let Some(&at) = arrival_t.get(&c.id) {
            if (c.arrival_us - at).abs() > tol {
                report.push(Diagnostic::error(
                    "SA104",
                    ctx.clone(),
                    format!(
                        "completion records arrival {:.3}µs but the trace arrival is {:.3}µs",
                        c.arrival_us, at
                    ),
                ));
            }
        }
        if let Some(list) = spans.get(&c.id) {
            let busy: f64 = list.iter().map(|s| s.end_us - s.start_us).sum();
            if c.e2e_us() + tol < busy {
                report.push(
                    Diagnostic::error(
                        "SA104",
                        ctx.clone(),
                        format!(
                            "end-to-end latency {:.3}µs is less than the {busy:.3}µs \
                             of device time its spans occupy",
                            c.e2e_us()
                        ),
                    )
                    .with_help("no request can finish faster than its own device work"),
                );
            }
            for s in list {
                if s.start_us + tol < c.arrival_us || s.end_us > c.end_us + tol {
                    report.push(Diagnostic::error(
                        "SA104",
                        ctx.clone(),
                        format!(
                            "span [{:.3}, {:.3}]µs runs outside the request's \
                             lifetime [{:.3}, {:.3}]µs",
                            s.start_us, s.end_us, c.arrival_us, c.end_us
                        ),
                    ));
                }
            }
        }
    }

    // SA102: block-granularity (§3.4) — only for block-granular policies.
    if cfg.block_granular {
        let downgraded: BTreeSet<u64> = result
            .recorder
            .events()
            .filter_map(|e| match e {
                Event::Downgrade { req, .. } => Some(*req),
                _ => None,
            })
            .collect();
        for c in &result.completions {
            let ctx = format!("request {} ({})", c.id, c.model);
            let Some(list) = spans.get(&c.id) else {
                continue; // SA103/SA105 already cover requests with no spans.
            };
            // Block indices, in execution order, must be 0, 1, 2, ….
            for (i, s) in list.iter().enumerate() {
                if let Some(b) = s.block {
                    if b as usize != i {
                        report.push(
                            Diagnostic::error(
                                "SA102",
                                ctx.clone(),
                                format!(
                                    "span {i} is labeled block {b}; blocks must run 0, 1, 2, …"
                                ),
                            )
                            .with_help(
                                "a skipped or repeated block index means a block was \
                                 abandoned or restarted mid-request",
                            ),
                        );
                    }
                }
            }
            // Durations must match the deployment's declared block times —
            // a truncated span is a mid-block preemption.
            if let Some(models) = cfg.models {
                let m = models.get(&c.model);
                let expected: Vec<f64> = if downgraded.contains(&c.id) {
                    vec![m.exec_us]
                } else {
                    m.blocks_us.clone()
                };
                if list.len() != expected.len() {
                    report.push(Diagnostic::error(
                        "SA102",
                        ctx.clone(),
                        format!(
                            "executed {} block span(s) but the deployment declares {}",
                            list.len(),
                            expected.len()
                        ),
                    ));
                } else {
                    for (i, (s, want)) in list.iter().zip(&expected).enumerate() {
                        let got = s.end_us - s.start_us;
                        if (got - want).abs() > tol.max(1e-9 * want.abs()) {
                            report.push(
                                Diagnostic::error(
                                    "SA102",
                                    format!("{ctx} block {i}"),
                                    format!(
                                        "block ran for {got:.3}µs but the plan declares \
                                         {want:.3}µs — the block was cut short or stretched"
                                    ),
                                )
                                .with_help(
                                    "§3.4 allows preemption only at block boundaries, \
                                     never inside a block",
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    report
}

/// Zero out the wall-clock field of a decision event so two runs of the
/// same simulation compare structurally equal.
fn structural(e: &Event) -> Event {
    match e {
        Event::PreemptDecision {
            req,
            position,
            comparisons,
            stop,
            t_us,
            ..
        } => Event::PreemptDecision {
            req: *req,
            position: *position,
            comparisons: *comparisons,
            stop: stop.clone(),
            decision_ns: 0,
            publish_ns: 0,
            t_us: *t_us,
        },
        other => other.clone(),
    }
}

/// Determinism auditor (`SA106`): run `policy` twice over the same input
/// and structurally diff the results. Completions, device spans, and
/// lifecycle events (modulo wall-clock decision timings) must be
/// identical — a divergence means scheduling depends on ambient state
/// such as hash-map iteration order.
pub fn audit_determinism(policy: &Policy, arrivals: &[Arrival], models: &ModelTable) -> Report {
    let mut report = Report::new();
    let a = simulate(policy, arrivals, models);
    let b = simulate(policy, arrivals, models);
    let ctx = format!("policy {}", policy.name());

    if a.completions != b.completions {
        let i = a
            .completions
            .iter()
            .zip(&b.completions)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.completions.len().min(b.completions.len()));
        report.push(
            Diagnostic::error(
                "SA106",
                format!("{ctx} completion {i}"),
                format!(
                    "two runs over identical input diverge at completion {i}: \
                     {:?} vs {:?}",
                    a.completions.get(i),
                    b.completions.get(i)
                ),
            )
            .with_help("scheduling consults nondeterministic state (HashMap iteration order?)"),
        );
    }
    if a.trace.events() != b.trace.events() {
        report.push(Diagnostic::error(
            "SA106",
            format!("{ctx} trace"),
            "two runs over identical input produced different device traces",
        ));
    }
    let ea: Vec<Event> = a.recorder.events().map(structural).collect();
    let eb: Vec<Event> = b.recorder.events().map(structural).collect();
    if ea != eb {
        let i = ea
            .iter()
            .zip(&eb)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| ea.len().min(eb.len()));
        report.push(Diagnostic::error(
            "SA106",
            format!("{ctx} lifecycle event {i}"),
            format!(
                "two runs over identical input diverge at event {i}: {:?} vs {:?}",
                ea.get(i),
                eb.get(i)
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::policy::SplitCfg;
    use sched::ModelRuntime;

    fn table() -> ModelTable {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::vanilla("short", 0, 10_000.0));
        t.insert(ModelRuntime::split("long", 1, 60_000.0, vec![22_000.0; 3]));
        t
    }

    fn arrivals(n: u64) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                id: i,
                model: (if i % 3 == 0 { "long" } else { "short" }).into(),
                arrival_us: i as f64 * 9_000.0,
            })
            .collect()
    }

    #[test]
    fn split_schedule_lints_clean() {
        let t = table();
        let a = arrivals(30);
        let r = simulate(&Policy::Split(SplitCfg::default()), &a, &t);
        let rep = lint_schedule(&a, &r, &ScheduleLintCfg::block_granular(&t));
        assert!(rep.is_empty(), "{}", rep.render_text());
    }

    #[test]
    fn baseline_schedules_lint_clean_structurally() {
        let t = table();
        let a = arrivals(30);
        for p in [
            Policy::ClockWork,
            Policy::Prema(Default::default()),
            Policy::Sjf,
        ] {
            let r = simulate(&p, &a, &t);
            let rep = lint_schedule(&a, &r, &ScheduleLintCfg::structural(&t));
            assert!(rep.is_empty(), "{}: {}", p.name(), rep.render_text());
        }
        for p in [
            Policy::Rta(Default::default()),
            Policy::StreamParallel(Default::default()),
        ] {
            let r = simulate(&p, &a, &t);
            let rep = lint_schedule(&a, &r, &ScheduleLintCfg::concurrent(&t));
            assert!(rep.is_empty(), "{}: {}", p.name(), rep.render_text());
        }
    }

    #[test]
    fn all_default_policies_are_deterministic() {
        let t = table();
        let a = arrivals(40);
        for p in Policy::all_default() {
            let rep = audit_determinism(&p, &a, &t);
            assert!(rep.is_empty(), "{}: {}", p.name(), rep.render_text());
        }
    }

    #[test]
    fn lost_request_is_sa103() {
        let t = table();
        let a = arrivals(6);
        let mut r = simulate(&Policy::ClockWork, &a, &t);
        r.completions.pop();
        let rep = lint_schedule(&a, &r, &ScheduleLintCfg::structural(&t));
        assert!(!rep.with_code("SA103").is_empty(), "{}", rep.render_text());
    }

    #[test]
    fn dropped_requests_balance_conservation() {
        let t = table();
        let a = arrivals(6);
        let mut r = simulate(&Policy::ClockWork, &a, &t);
        let dropped_id = r.completions.last().unwrap().id;
        r.completions.pop();
        let dropped = [dropped_id];
        let cfg = ScheduleLintCfg {
            dropped: &dropped,
            ..ScheduleLintCfg::structural(&t)
        };
        let rep = lint_schedule(&a, &r, &cfg);
        // The drop balances the ledger but the recorder still carries the
        // full lifecycle, so only SA103 must be silent.
        assert!(rep.with_code("SA103").is_empty(), "{}", rep.render_text());
    }
}
