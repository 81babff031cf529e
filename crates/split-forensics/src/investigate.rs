//! The forensics driver: from a lifecycle recording to incident
//! bundles.
//!
//! [`investigate`] replays a recording through the burn-rate
//! [`SloMonitor`] exactly the way the live runtime feeds it (one
//! `observe_outcome` per completion, in completion order), then scopes
//! one [`IncidentBundle`] per fired alert: the incident window runs
//! from `fired_at − slow_window` (the data that burned the slow
//! window) to the alert's resolution (or the end of the recording).
//! Within the window the tail sampler picks the outliers, each outlier
//! is classified, per-model head counters summarize everything that
//! was *not* retained, and the verdict aggregates the labels.
//!
//! The bundle's flight ring is the ring snapshot filtered to the
//! window; its `capacity`/`appended`/`dropped` counters stay
//! ring-global so the reader can judge how much history the ring held.
//! [`investigate`] projects that snapshot from the recording itself
//! ([`FlightSnapshot::from_events`] at [`DEFAULT_CAPACITY`]); the live
//! runtime passes its real ring to [`bundles_for_alerts`].

use crate::bundle::{
    CauseShare, DepthSample, IncidentBundle, ModelStat, OutlierReport, SampleReason, SpanRecord,
    Verdict, BUNDLE_SCHEMA,
};
use crate::classify::{classify, RootCause};
use crate::ring::{FlightKind, FlightSnapshot, DEFAULT_CAPACITY};
use crate::sampling::{violates, Retain, TailSampler};
use split_obs::attribution::attribute_spans;
use split_obs::{build_spans, AlertLog, Attribution, SloCfg, SloMonitor, Span};
use split_telemetry::{Event, Recorder};
use std::collections::BTreeMap;

/// Forensics configuration: the SLO in force plus the sampling policy.
#[derive(Debug, Clone, Default)]
pub struct ForensicsCfg {
    /// SLO / burn-rate alert configuration.
    pub slo: SloCfg,
    /// Tail-sampling policy.
    pub sampler: TailSampler,
}

/// Everything [`investigate`] learned from one recording.
#[derive(Debug, Clone)]
pub struct Investigation {
    /// The replayed alert history.
    pub alerts: AlertLog,
    /// One bundle per fired alert, in fire order.
    pub bundles: Vec<IncidentBundle>,
    /// Attribution of every completed request (completion order).
    pub attributions: Vec<Attribution>,
}

impl Investigation {
    /// Total QoS-violating completions across the recording (not just
    /// inside incident windows).
    pub fn violating(&self, alpha: f64) -> usize {
        self.attributions
            .iter()
            .filter(|a| violates(a, alpha))
            .count()
    }
}

/// Replay `rec` through the SLO monitor and build one incident bundle
/// per fired alert, with the flight ring a quiescent
/// [`DEFAULT_CAPACITY`] recorder fed `rec` would hold; `trace` supplies
/// device-busy context when available.
pub fn investigate(
    rec: &Recorder,
    trace: Option<&gpu_sim::Trace>,
    cfg: &ForensicsCfg,
) -> Investigation {
    let spans = build_spans(rec);
    let mut attributions = attribute_spans(&spans);
    attributions.sort_by(|a, b| a.completion_us.total_cmp(&b.completion_us));

    let last_t = rec.events().map(Event::t_us).fold(0.0_f64, f64::max);

    let mut monitor = SloMonitor::new(cfg.slo.clone());
    for a in &attributions {
        monitor.observe_outcome(a.completion_us, a.e2e_us(), a.compute_us);
    }
    monitor.advance(last_t);
    let alerts = monitor.log().clone();

    let flight = FlightSnapshot::from_events(rec.events(), DEFAULT_CAPACITY);
    let bundles = bundles_for_alerts(rec, &flight, trace, cfg, &alerts);

    Investigation {
        alerts,
        bundles,
        attributions,
    }
}

/// Build one incident bundle per alert in `alerts`, against the given
/// recording. This is [`investigate`] without the SLO replay — the live
/// runtime calls it with the alert log its own monitor produced, so
/// bundles describe the alerts that *actually* fired, not a
/// reconstruction.
pub fn bundles_for_alerts(
    rec: &Recorder,
    flight: &FlightSnapshot,
    trace: Option<&gpu_sim::Trace>,
    cfg: &ForensicsCfg,
    alerts: &AlertLog,
) -> Vec<IncidentBundle> {
    if alerts.alerts.is_empty() {
        return Vec::new();
    }
    let spans = build_spans(rec);
    let mut attributions = attribute_spans(&spans);
    attributions.sort_by(|a, b| a.completion_us.total_cmp(&b.completion_us));
    let last_t = rec.events().map(Event::t_us).fold(0.0_f64, f64::max);

    // Model names for requests that never completed (drop forensics).
    let arrival_models: BTreeMap<u64, (String, f64)> = rec
        .events()
        .filter_map(|e| match e {
            Event::Arrival { req, model, t_us } => Some((*req, (model.clone(), *t_us))),
            _ => None,
        })
        .collect();

    alerts
        .alerts
        .iter()
        .map(|alert| {
            let start = (alert.fired_at_us - cfg.slo.slow_window_us).max(0.0);
            let end = alert
                .resolved_at_us
                .unwrap_or(last_t)
                .max(alert.fired_at_us);
            build_bundle(
                alert,
                start,
                end,
                &attributions,
                &spans,
                rec,
                flight,
                trace,
                cfg,
                &arrival_models,
            )
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn build_bundle(
    alert: &split_obs::Alert,
    start: f64,
    end: f64,
    attributions: &[Attribution],
    spans: &[Span],
    rec: &Recorder,
    flight: &FlightSnapshot,
    trace: Option<&gpu_sim::Trace>,
    cfg: &ForensicsCfg,
    arrival_models: &BTreeMap<u64, (String, f64)>,
) -> IncidentBundle {
    let alpha = cfg.slo.alpha;
    let in_window: Vec<&Attribution> = attributions
        .iter()
        .filter(|a| a.completion_us >= start && a.completion_us <= end)
        .collect();

    // Spans grouped by request once, so outlier extraction is O(spans).
    let mut spans_by_req: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for sp in spans {
        spans_by_req
            .entry(sp.ctx.trace_id)
            .or_default()
            .push(SpanRecord::from(sp));
    }

    let owned: Vec<Attribution> = in_window.iter().map(|a| (*a).clone()).collect();
    let mut outliers: Vec<OutlierReport> = cfg
        .sampler
        .select(&owned, alpha)
        .into_iter()
        .map(|(i, retain)| {
            let attr = owned[i].clone();
            let c = classify(&attr, spans);
            OutlierReport {
                violated: retain == Retain::Violating,
                reason: match retain {
                    Retain::Violating => SampleReason::Violating,
                    Retain::TopK => SampleReason::TopK,
                },
                cause: c.cause,
                interference_us: c.interference_us,
                culprit_model: c.culprit_model,
                spans: spans_by_req.get(&attr.req).cloned().unwrap_or_default(),
                attribution: attr,
            }
        })
        .collect();

    // Dropped requests (flight `Drop` records in the window) are always
    // retained: they are the most extreme tail of all.
    for r in &flight.records {
        if r.kind == FlightKind::Drop && r.t_us >= start && r.t_us <= end {
            let (model, arrival_us) = arrival_models
                .get(&r.req)
                .cloned()
                .unwrap_or((String::new(), r.t_us));
            outliers.push(OutlierReport {
                attribution: Attribution {
                    req: r.req,
                    model,
                    arrival_us,
                    completion_us: arrival_us,
                    queue_us: 0.0,
                    compute_us: 0.0,
                    transfer_us: 0.0,
                    stall_us: 0.0,
                    sched_us: 0.0,
                },
                violated: false,
                reason: SampleReason::Dropped,
                cause: RootCause::QueueDominated,
                interference_us: 0.0,
                culprit_model: String::new(),
                spans: Vec::new(),
            });
        }
    }

    // Head counters: the window's whole population, retained or not.
    let mut models: BTreeMap<&str, ModelStat> = BTreeMap::new();
    for a in &in_window {
        let m = models.entry(a.model.as_str()).or_insert_with(|| ModelStat {
            model: a.model.clone(),
            completed: 0,
            violated: 0,
            captured: 0,
            mean_e2e_us: 0.0,
            max_e2e_us: 0.0,
        });
        m.completed += 1;
        m.violated += u64::from(violates(a, alpha));
        m.mean_e2e_us += a.e2e_us();
        m.max_e2e_us = m.max_e2e_us.max(a.e2e_us());
    }
    for o in &outliers {
        if let Some(m) = models.get_mut(o.attribution.model.as_str()) {
            m.captured += 1;
        }
    }
    let models: Vec<ModelStat> = models
        .into_values()
        .map(|mut m| {
            m.mean_e2e_us /= m.completed.max(1) as f64;
            m
        })
        .collect();

    let violating = in_window.iter().filter(|a| violates(a, alpha)).count() as u64;
    let captured_violating = outliers.iter().filter(|o| o.violated).count() as u64;
    let verdict = build_verdict(&outliers, violating, captured_violating);

    let queue_depths: Vec<DepthSample> = rec
        .events()
        .filter_map(|e| match e {
            Event::QueueDepth { depth, t_us } if *t_us >= start && *t_us <= end => {
                Some(DepthSample {
                    t_us: *t_us,
                    depth: *depth as u64,
                })
            }
            _ => None,
        })
        .collect();
    let peak_queue_depth = queue_depths.iter().map(|d| d.depth).max().unwrap_or(0);

    let device_busy_pct = trace
        .filter(|_| end > start)
        .map(|t| 100.0 * t.busy_us_between(start, end) / (end - start))
        .unwrap_or(0.0);

    let scoped_flight = FlightSnapshot {
        capacity: flight.capacity,
        appended: flight.appended,
        dropped: flight.dropped,
        records: flight
            .records
            .iter()
            .filter(|r| r.t_us >= start && r.t_us <= end)
            .cloned()
            .collect(),
    };

    IncidentBundle {
        schema: BUNDLE_SCHEMA.to_string(),
        alert: alert.clone(),
        alpha,
        objective: cfg.slo.objective,
        window_start_us: start,
        window_end_us: end,
        queue_depths,
        peak_queue_depth,
        device_busy_pct,
        flight: scoped_flight,
        outliers,
        models,
        verdict,
    }
}

fn build_verdict(outliers: &[OutlierReport], violating: u64, captured_violating: u64) -> Verdict {
    let total = outliers.len() as u64;
    let mut counts: BTreeMap<RootCause, u64> = BTreeMap::new();
    for o in outliers {
        *counts.entry(o.cause).or_default() += 1;
    }
    let mut cause_shares: Vec<CauseShare> = counts
        .into_iter()
        .map(|(cause, count)| CauseShare {
            cause,
            count,
            share: count as f64 / total.max(1) as f64,
        })
        .collect();
    cause_shares.sort_by_key(|s| std::cmp::Reverse(s.count));

    // Model with the most violating outliers (all outliers as a
    // fallback so a TopK-only bundle still names its subject).
    let mut by_model: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for o in outliers {
        let e = by_model.entry(o.attribution.model.as_str()).or_default();
        e.0 += u64::from(o.violated);
        e.1 += 1;
    }
    let top_model = by_model
        .iter()
        .max_by_key(|(_, &(v, n))| (v, n))
        .map(|(m, _)| (*m).to_string())
        .unwrap_or_default();

    // Most-blamed interferer, weighted by overlapped time.
    let mut blame: BTreeMap<&str, f64> = BTreeMap::new();
    for o in outliers {
        if !o.culprit_model.is_empty() {
            *blame.entry(o.culprit_model.as_str()).or_default() += o.interference_us;
        }
    }
    let culprit_model = blame
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(m, _)| (*m).to_string())
        .unwrap_or_default();

    let text = match cause_shares.first() {
        None => "no outliers captured in the incident window".to_string(),
        Some(top) => {
            let mut t = format!(
                "p99 regression: {:.0}% {} on {}",
                top.share * 100.0,
                top.cause.label(),
                if top_model.is_empty() {
                    "?"
                } else {
                    &top_model
                }
            );
            if !culprit_model.is_empty() {
                t.push_str(&format!(" behind {culprit_model} bursts"));
            }
            t
        }
    };

    Verdict {
        text,
        cause_shares,
        top_model,
        culprit_model,
        outliers: total,
        violating,
        captured_violating,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::FlightRing;

    fn small_cfg() -> ForensicsCfg {
        ForensicsCfg {
            slo: SloCfg {
                alpha: 4.0,
                objective: 0.10,
                fast_window_us: 100.0,
                slow_window_us: 1_000.0,
                fast_burn: 1.0,
                slow_burn: 1.0,
            },
            sampler: TailSampler {
                window_us: 1_000.0,
                top_k: 1,
            },
        }
    }

    /// Requests every 10 µs; `bad` ones queue 50 µs before a 1 µs block
    /// (e2e 51 > 4×1 → violation), good ones run immediately.
    fn recording(n: u64, bad: impl Fn(u64) -> bool) -> Recorder {
        let mut r = Recorder::new();
        for i in 0..n {
            let t0 = i as f64 * 10.0;
            let (bs, be) = if bad(i) {
                (t0 + 50.0, t0 + 51.0)
            } else {
                (t0, t0 + 1.0)
            };
            r.record(Event::Arrival {
                req: i,
                model: if i % 2 == 0 { "resnet50" } else { "gpt2" }.into(),
                t_us: t0,
            });
            r.record(Event::BlockStart {
                req: i,
                block: 0,
                stream: 0,
                t_us: bs,
            });
            r.record(Event::BlockEnd {
                req: i,
                block: 0,
                stream: 0,
                t_us: be,
            });
            r.record(Event::Completion { req: i, t_us: be });
        }
        r
    }

    #[test]
    fn clean_recording_produces_no_bundles() {
        let rec = recording(20, |_| false);
        let inv = investigate(&rec, None, &small_cfg());
        assert_eq!(inv.alerts.fired(), 0);
        assert!(inv.bundles.is_empty());
        assert_eq!(inv.attributions.len(), 20);
    }

    #[test]
    fn burst_fires_alert_and_captures_every_violation() {
        // 30 requests, every one after #9 violating: burn rockets past
        // both thresholds.
        let rec = recording(30, |i| i >= 10);
        let inv = investigate(&rec, None, &small_cfg());
        assert!(inv.alerts.fired() >= 1, "alert must fire");
        assert_eq!(inv.bundles.len(), inv.alerts.fired());
        let b = &inv.bundles[0];
        // Sampling invariant: every violating completion in the window
        // is captured.
        assert_eq!(b.verdict.captured_violating, b.verdict.violating);
        assert!(b.verdict.violating > 0);
        // Attribution exactness rides into the bundle (SA401).
        for o in &b.outliers {
            assert!(o.attribution.residual_us().abs() < split_obs::SUM_TOLERANCE_US);
        }
        assert!(
            b.verdict.text.starts_with("p99 regression:"),
            "{}",
            b.verdict.text
        );
        assert!(!b.models.is_empty());
    }

    #[test]
    fn dropped_requests_enter_the_bundle_from_the_flight_ring() {
        let rec = recording(30, |i| i >= 10);
        let ring = FlightRing::with_capacity(64);
        ring.record(150.0, 999, FlightKind::Drop, 0, 0);
        let alerts = investigate(&rec, None, &small_cfg()).alerts;
        let bundles = bundles_for_alerts(&rec, &ring.snapshot(), None, &small_cfg(), &alerts);
        let b = &bundles[0];
        let dropped: Vec<&OutlierReport> = b
            .outliers
            .iter()
            .filter(|o| o.reason == SampleReason::Dropped)
            .collect();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].attribution.req, 999);
    }

    #[test]
    fn verdict_shares_sum_to_one() {
        let rec = recording(30, |i| i >= 10);
        let inv = investigate(&rec, None, &small_cfg());
        let v = &inv.bundles[0].verdict;
        let total: f64 = v.cause_shares.iter().map(|c| c.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let count: u64 = v.cause_shares.iter().map(|c| c.count).sum();
        assert_eq!(count, v.outliers);
    }
}
