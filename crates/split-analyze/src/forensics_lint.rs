//! Forensics-bundle analyzer (`SA4xx`): verifies that incident bundles
//! keep the promises the forensics subsystem makes.
//!
//! A bundle is only useful if it can be trusted during an incident, so
//! every claim it carries is checkable from the document alone:
//!
//! * `SA401` — an outlier's root-cause components do not reconcile with
//!   its exact e2e decomposition (residual beyond 1 ns,
//!   [`split_obs::SUM_TOLERANCE_US`]) or a component is negative;
//! * `SA402` — the tail-sampling invariant is broken: a QoS-violating
//!   completion inside the incident window is *not* captured with its
//!   full trace (per-model `captured < violated`, or the verdict's
//!   `captured_violating != violating`);
//! * `SA403` — the flight ring's causal order is broken: sequence
//!   numbers not strictly increasing, a request's records not
//!   time-monotone, or a record before its request's `Arrival` / after
//!   its `Completion`;
//! * `SA404` — the verdict's aggregation is inconsistent with the
//!   outlier list (cause shares don't sum to 1, counts don't match,
//!   named top/culprit model absent from the outliers).

use crate::diag::{Diagnostic, Report};
use split_forensics::{FlightKind, IncidentBundle, SampleReason};
use split_obs::SUM_TOLERANCE_US;
use std::collections::BTreeMap;

/// Lint one incident bundle.
pub fn lint_bundle(bundle: &IncidentBundle) -> Report {
    let mut report = Report::new();
    lint_attribution_exactness(bundle, &mut report);
    lint_sampling_invariant(bundle, &mut report);
    lint_flight_order(bundle, &mut report);
    lint_verdict(bundle, &mut report);
    report
}

/// Lint a batch of bundles, prefixing each diagnostic with the bundle's
/// position so merged reports stay attributable.
pub fn lint_bundles(bundles: &[IncidentBundle]) -> Report {
    let mut all = Report::new();
    for (i, b) in bundles.iter().enumerate() {
        for mut d in lint_bundle(b).diagnostics {
            d.context = format!("bundle {i}: {}", d.context);
            all.push(d);
        }
    }
    all
}

/// `SA401`: every retained outlier's decomposition must be exact.
fn lint_attribution_exactness(bundle: &IncidentBundle, report: &mut Report) {
    for o in &bundle.outliers {
        if o.reason == SampleReason::Dropped {
            // Drops never executed; their attribution is all-zero by
            // construction and carries no decomposition claim.
            continue;
        }
        let a = &o.attribution;
        let ctx = format!("request {} ({})", a.req, a.model);
        let residual = a.residual_us();
        if residual.abs() > SUM_TOLERANCE_US {
            report.push(
                Diagnostic::error(
                    "SA401",
                    ctx.clone(),
                    format!(
                        "root-cause components sum to {:.4} µs but e2e is {:.4} µs \
                         (residual {:+.4} µs, tolerance ±{} µs)",
                        a.components_sum_us(),
                        a.e2e_us(),
                        residual,
                        SUM_TOLERANCE_US
                    ),
                )
                .with_help(
                    "the classification was made from a decomposition that no longer \
                     partitions [arrival, completion]; the root-cause label cannot be trusted",
                ),
            );
        }
        for (name, v) in [
            ("queue", a.queue_us),
            ("compute", a.compute_us),
            ("transfer", a.transfer_us),
            ("stall", a.stall_us),
            ("sched", a.sched_us),
        ] {
            if v < -1e-9 {
                report.push(Diagnostic::error(
                    "SA401",
                    ctx.clone(),
                    format!("negative {name} component: {v:.4} µs"),
                ));
            }
        }
    }
}

/// `SA402`: every violating completion in the window must be captured.
fn lint_sampling_invariant(bundle: &IncidentBundle, report: &mut Report) {
    let v = &bundle.verdict;
    if v.captured_violating != v.violating {
        report.push(
            Diagnostic::error(
                "SA402",
                "verdict",
                format!(
                    "{} QoS-violating completions in the incident window but only {} \
                     captured with full traces",
                    v.violating, v.captured_violating
                ),
            )
            .with_help(
                "the tail sampler must retain every violating request; head-sampling \
                 one away makes the incident unexplainable",
            ),
        );
    }
    for m in &bundle.models {
        if m.captured < m.violated {
            report.push(Diagnostic::error(
                "SA402",
                format!("model {}", m.model),
                format!(
                    "{} violations in the window but only {} traces captured",
                    m.violated, m.captured
                ),
            ));
        }
    }
    // Internal consistency: the verdict's capture count must match the
    // outlier list it summarizes.
    let marked = bundle.outliers.iter().filter(|o| o.violated).count() as u64;
    if marked != v.captured_violating {
        report.push(Diagnostic::error(
            "SA402",
            "verdict",
            format!(
                "verdict claims {} captured violating traces but {} outliers are \
                 marked violating",
                v.captured_violating, marked
            ),
        ));
    }
    for o in &bundle.outliers {
        if o.violated && o.spans.is_empty() {
            report.push(Diagnostic::error(
                "SA402",
                format!("request {} ({})", o.attribution.req, o.attribution.model),
                "violating outlier captured without its span tree",
            ));
        }
    }
}

/// `SA403`: the flight ring must read as a causally ordered history.
fn lint_flight_order(bundle: &IncidentBundle, report: &mut Report) {
    let records = &bundle.flight.records;
    for w in records.windows(2) {
        if w[1].seq <= w[0].seq {
            report.push(
                Diagnostic::error(
                    "SA403",
                    format!("flight seq {} → {}", w[0].seq, w[1].seq),
                    "sequence numbers not strictly increasing",
                )
                .with_help("a torn or duplicated seqlock slot survived the snapshot"),
            );
        }
    }
    // Per-request: time monotone in seq order, Arrival first,
    // Completion last.
    let mut by_req: BTreeMap<u64, Vec<&split_forensics::FlightRecord>> = BTreeMap::new();
    for r in records {
        if r.req != split_forensics::NO_REQ {
            by_req.entry(r.req).or_default().push(r);
        }
    }
    for (req, rs) in &by_req {
        for w in rs.windows(2) {
            if w[1].t_us < w[0].t_us {
                report.push(Diagnostic::error(
                    "SA403",
                    format!("request {req}"),
                    format!(
                        "records run backwards in time: {:?}@{:.3} µs then {:?}@{:.3} µs",
                        w[0].kind, w[0].t_us, w[1].kind, w[1].t_us
                    ),
                ));
            }
        }
        if let Some(pos) = rs.iter().position(|r| r.kind == FlightKind::Arrival) {
            if pos != 0 {
                report.push(Diagnostic::error(
                    "SA403",
                    format!("request {req}"),
                    format!("{:?} recorded before the request's Arrival", rs[0].kind),
                ));
            }
        }
        if let Some(pos) = rs.iter().position(|r| r.kind == FlightKind::Completion) {
            if pos != rs.len() - 1 {
                report.push(Diagnostic::error(
                    "SA403",
                    format!("request {req}"),
                    format!(
                        "{:?} recorded after the request's Completion",
                        rs[pos + 1].kind
                    ),
                ));
            }
        }
    }
}

/// `SA404`: the verdict must aggregate the outlier list exactly.
fn lint_verdict(bundle: &IncidentBundle, report: &mut Report) {
    let v = &bundle.verdict;
    let n = bundle.outliers.len() as u64;
    if v.outliers != n {
        report.push(Diagnostic::error(
            "SA404",
            "verdict",
            format!(
                "verdict counts {} outliers but the bundle holds {n}",
                v.outliers
            ),
        ));
    }
    let count_sum: u64 = v.cause_shares.iter().map(|c| c.count).sum();
    if count_sum != n {
        report.push(Diagnostic::error(
            "SA404",
            "verdict",
            format!("cause-share counts sum to {count_sum}, not the {n} outliers"),
        ));
    }
    if n > 0 {
        let share_sum: f64 = v.cause_shares.iter().map(|c| c.share).sum();
        if (share_sum - 1.0).abs() > 1e-9 {
            report.push(Diagnostic::error(
                "SA404",
                "verdict",
                format!("cause shares sum to {share_sum:.9}, not 1"),
            ));
        }
    }
    if v.captured_violating > v.violating {
        report.push(Diagnostic::error(
            "SA404",
            "verdict",
            format!(
                "more captured violating traces ({}) than violations ({})",
                v.captured_violating, v.violating
            ),
        ));
    }
    if !v.top_model.is_empty()
        && !bundle
            .outliers
            .iter()
            .any(|o| o.attribution.model == v.top_model)
    {
        report.push(Diagnostic::error(
            "SA404",
            "verdict",
            format!("top model {:?} has no outlier in the bundle", v.top_model),
        ));
    }
    if !v.culprit_model.is_empty()
        && !bundle
            .outliers
            .iter()
            .any(|o| o.culprit_model == v.culprit_model)
    {
        report.push(Diagnostic::error(
            "SA404",
            "verdict",
            format!(
                "culprit model {:?} blamed by no outlier in the bundle",
                v.culprit_model
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::{simulate, ModelRuntime, ModelTable, Policy};
    use split_forensics::{investigate, ForensicsCfg, TailSampler};
    use split_obs::SloCfg;
    use workload::Arrival;

    /// An overloaded SPLIT simulation whose investigation fires at least
    /// one alert: every third request is a long model, arrivals outpace
    /// the device by far.
    fn incident_bundle() -> IncidentBundle {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::vanilla("short", 0, 10_000.0));
        t.insert(
            ModelRuntime::split("long", 1, 60_000.0, vec![22_000.0; 3])
                .with_transfer_bytes(vec![1 << 20, 1 << 20]),
        );
        let arrivals: Vec<Arrival> = (0..40)
            .map(|i| Arrival {
                id: i,
                model: (if i % 3 == 0 { "long" } else { "short" }).into(),
                arrival_us: i as f64 * 2_000.0,
            })
            .collect();
        let result = simulate(&Policy::Split(Default::default()), &arrivals, &t);
        let cfg = ForensicsCfg {
            slo: SloCfg {
                fast_window_us: 50_000.0,
                slow_window_us: 400_000.0,
                ..SloCfg::default()
            },
            sampler: TailSampler::default(),
        };
        let inv = investigate(&result.recorder, Some(&result.trace), &cfg);
        assert!(
            !inv.bundles.is_empty(),
            "fixture must fire an alert ({})",
            inv.alerts.summary()
        );
        inv.bundles.into_iter().next().unwrap()
    }

    #[test]
    fn real_bundle_is_clean() {
        let report = lint_bundle(&incident_bundle());
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn broken_decomposition_raises_sa401() {
        let mut b = incident_bundle();
        let o = b
            .outliers
            .iter_mut()
            .find(|o| o.reason != SampleReason::Dropped)
            .unwrap();
        o.attribution.queue_us += 5.0;
        let report = lint_bundle(&b);
        assert!(
            report.diagnostics.iter().any(|d| d.code == "SA401"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn uncaptured_violation_raises_sa402() {
        let mut b = incident_bundle();
        assert!(b.verdict.violating > 0, "fixture has violations");
        // Pretend one violating trace was head-sampled away.
        let victim = b.outliers.iter().position(|o| o.violated).unwrap();
        b.outliers.remove(victim);
        b.verdict.captured_violating -= 1;
        let report = lint_bundle(&b);
        assert!(
            report.diagnostics.iter().any(|d| d.code == "SA402"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn violating_outlier_without_spans_raises_sa402() {
        let mut b = incident_bundle();
        let victim = b.outliers.iter().position(|o| o.violated).unwrap();
        b.outliers[victim].spans.clear();
        let report = lint_bundle(&b);
        assert!(report.diagnostics.iter().any(|d| d.code == "SA402"));
    }

    #[test]
    fn scrambled_flight_ring_raises_sa403() {
        let mut b = incident_bundle();
        assert!(b.flight.records.len() >= 2, "fixture records flight data");
        b.flight.records.swap(0, 1);
        let report = lint_bundle(&b);
        assert!(
            report.diagnostics.iter().any(|d| d.code == "SA403"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn inconsistent_verdict_raises_sa404() {
        let mut b = incident_bundle();
        b.verdict.outliers += 3;
        if let Some(cs) = b.verdict.cause_shares.first_mut() {
            cs.share += 0.25;
        }
        let report = lint_bundle(&b);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"SA404"), "{}", report.render_text());
    }

    #[test]
    fn bundle_index_prefixes_batch_context() {
        let mut b = incident_bundle();
        b.verdict.outliers += 1;
        let report = lint_bundles(&[b]);
        assert!(report.diagnostics[0].context.starts_with("bundle 0:"));
    }
}
