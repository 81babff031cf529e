//! Runtime-Aware (RT-A) baseline: concurrent multi-stream execution with
//! operator alignment (paper §5.3; Yu et al., ICCAD 2021).
//!
//! RT-A merges the resident models into one super-graph whose operators
//! are grouped by resource affinity and co-issued on multiple GPU streams.
//! Alignment is great for throughput — contention is low because aligned
//! operators have complementary demands — but it welds the residents'
//! schedules together: a short request admitted alongside a long one has
//! its operators spread across the whole merged execution and completes
//! only when the *group* completes (the paper's Figure 1: "request A has
//! to be aligned with request B and wait for the completion of request
//! B"). New arrivals join at the next alignment barrier (group end).
//!
//! We model this as gang execution: every waiting request is admitted as
//! one aligned group; the group's makespan is the summed work inflated by
//! the residual aligned-contention factor; all members finish at the
//! group's end.

use crate::engine::SimResult;
use crate::request::{Completion, ModelTable};
use gpu_sim::Trace;
use serde::{Deserialize, Serialize};
use workload::Arrival;

/// RT-A configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RtaCfg {
    /// Residual contention among aligned streams: a `k`-member group's
    /// makespan is `Σ work · (1 + c·(k−1)/k)` (1.0 for a lone request).
    pub aligned_coef: f64,
}

impl Default for RtaCfg {
    fn default() -> Self {
        Self {
            aligned_coef: gpu_sim::DeviceConfig::default().aligned_contention_coef,
        }
    }
}

/// Serve the trace with RT-A's aligned gang execution.
pub fn rta(arrivals: &[Arrival], models: &ModelTable, cfg: &RtaCfg) -> SimResult {
    let mut trace = Trace::new();
    let mut completions = Vec::with_capacity(arrivals.len());
    let mut now = 0.0f64;
    let mut next = 0usize;

    while next < arrivals.len() {
        if arrivals[next].arrival_us > now {
            now = arrivals[next].arrival_us;
        }
        // Admit every request that has arrived by the barrier: one group.
        let mut group = Vec::new();
        while next < arrivals.len() && arrivals[next].arrival_us <= now + 1e-9 {
            group.push(&arrivals[next]);
            next += 1;
        }
        let k = group.len();
        let total_work: f64 = group.iter().map(|a| models.get(&a.model).exec_us).sum();
        let stretch = 1.0 + cfg.aligned_coef * (k as f64 - 1.0) / k as f64;
        let makespan = total_work * stretch;
        let start = now;
        let end = now + makespan;
        for (lane, a) in group.iter().enumerate() {
            let m = models.get(&a.model);
            trace.record(a.id, m.name.clone(), None, lane % 8, start, end);
            completions.push(Completion {
                id: a.id,
                model: m.name.clone(),
                task: m.task,
                arrival_us: a.arrival_us,
                start_us: start,
                end_us: end,
                exec_us: m.exec_us,
            });
        }
        now = end;
    }

    completions.sort_by(|a, b| a.end_us.total_cmp(&b.end_us).then(a.id.cmp(&b.id)));
    SimResult {
        completions,
        trace,
        recorder: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelRuntime;

    fn table() -> ModelTable {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::vanilla("short", 0, 10_000.0));
        t.insert(ModelRuntime::vanilla("long", 1, 60_000.0));
        t
    }

    fn arrival(id: u64, model: &str, t: f64) -> Arrival {
        Arrival {
            id,
            model: model.into(),
            arrival_us: t,
        }
    }

    #[test]
    fn lone_request_runs_unstretched() {
        let r = rta(
            &[arrival(0, "short", 3_000.0)],
            &table(),
            &RtaCfg::default(),
        );
        let c = &r.completions[0];
        assert_eq!(c.start_us, 3_000.0);
        assert!((c.e2e_us() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn group_members_finish_together() {
        // Both waiting at t=0: admitted as one aligned group; the short is
        // welded to the long's schedule — the Figure 1 pathology.
        let cfg = RtaCfg { aligned_coef: 0.4 };
        let r = rta(
            &[arrival(0, "long", 0.0), arrival(1, "short", 0.0)],
            &table(),
            &cfg,
        );
        let (a, b) = (&r.completions[0], &r.completions[1]);
        assert_eq!(a.end_us, b.end_us, "aligned group must co-complete");
        // makespan = 70ms * (1 + 0.4/2) = 84 ms.
        assert!((a.end_us - 84_000.0).abs() < 1e-6, "got {}", a.end_us);
    }

    #[test]
    fn late_arrival_waits_for_the_barrier() {
        let cfg = RtaCfg { aligned_coef: 0.0 };
        let r = rta(
            &[arrival(0, "long", 0.0), arrival(1, "short", 2_000.0)],
            &table(),
            &cfg,
        );
        let short = r.completions.iter().find(|c| c.id == 1).unwrap();
        // Barrier at 60 ms (long group end), then runs alone 10 ms.
        assert_eq!(short.start_us, 60_000.0);
        assert!((short.e2e_us() - 68_000.0).abs() < 1e-6);
    }

    #[test]
    fn batching_boosts_throughput_but_spreads_latency() {
        // Five shorts at once: RT-A ends them all at the group end; the
        // *last* one beats sequential, the *first* one loses.
        let cfg = RtaCfg { aligned_coef: 0.25 };
        let arrivals: Vec<Arrival> = (0..5).map(|i| arrival(i, "short", 0.0)).collect();
        let r = rta(&arrivals, &table(), &cfg);
        let makespan = 50_000.0 * (1.0 + 0.25 * 4.0 / 5.0);
        for c in &r.completions {
            assert!((c.end_us - makespan).abs() < 1e-6);
        }
        // Sequential would finish the 5th at 50 ms; the gang ends at 60 ms
        // — but sequential's *first* ends at 10 ms vs the gang's 60 ms.
        assert!(makespan < 5.0 * 10_000.0 * 1.25);
    }

    #[test]
    fn all_complete_under_load() {
        let arrivals: Vec<Arrival> = (0..50)
            .map(|i| {
                arrival(
                    i,
                    if i % 4 == 0 { "long" } else { "short" },
                    i as f64 * 5_000.0,
                )
            })
            .collect();
        let r = rta(&arrivals, &table(), &RtaCfg::default());
        assert_eq!(r.completions.len(), 50);
        for c in &r.completions {
            assert!(c.e2e_us() >= c.exec_us - 1e-6);
        }
    }
}
