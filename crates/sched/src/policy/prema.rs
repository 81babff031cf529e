//! PREMA baseline: predictive token-based preemptive multi-tasking
//! (paper §5.3; Choi & Rhu, HPCA 2020).
//!
//! PREMA time-multiplexes the accelerator with *token-based dynamic
//! priority*: each waiting request accumulates tokens proportional to its
//! normalized waiting time (its "slowdown pressure"), scaled so short
//! models gain priority fast; whenever the device frees, the scheduler
//! hands it to the highest-token request. Switching to a different request
//! pays a state save/restore penalty.
//!
//! PREMA's native checkpointing is an **NPU hardware feature**; on the
//! paper's GPU testbed (Jetson + ONNX Runtime) a running model cannot be
//! suspended mid-graph, so the faithful GPU port preempts at *request*
//! granularity — the default here (`checkpoint_us = ∞`). Finite
//! checkpoints recreate the original NPU behaviour and are used by the
//! preemption-granularity ablation bench.

use super::serial::{serve, Discipline, Dispatch, Req, Slice};
use crate::engine::SimResult;
use crate::request::ModelTable;
use serde::{Deserialize, Serialize};
use workload::Arrival;

/// PREMA configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PremaCfg {
    /// Preemption granularity: the device re-decides ownership this often.
    /// `f64::INFINITY` (the GPU-faithful default) means request
    /// granularity; finite values model PREMA's native NPU checkpointing.
    pub checkpoint_us: f64,
    /// Context save/restore penalty when the chosen request changes, µs.
    pub switch_overhead_us: f64,
}

impl Default for PremaCfg {
    fn default() -> Self {
        Self {
            checkpoint_us: f64::INFINITY,
            switch_overhead_us: 150.0,
        }
    }
}

impl PremaCfg {
    /// The original NPU-style configuration with hardware checkpointing
    /// (used by the preemption-granularity ablation).
    pub fn npu_style() -> Self {
        Self {
            checkpoint_us: 4_000.0,
            switch_overhead_us: 150.0,
        }
    }
}

struct Pending<'a> {
    req: Req<'a>,
    remaining_us: f64,
    started: Option<f64>,
}

/// PREMA's rules: the highest-token request runs one checkpoint (or the
/// rest of its work), paying the switch penalty when it is not the
/// request that ran last.
struct Tokens<'a> {
    cfg: &'a PremaCfg,
    pending: Vec<Pending<'a>>,
    last_run: Option<u64>,
}

impl<'a> Discipline<'a> for Tokens<'a> {
    fn admit(&mut self, req: Req<'a>) {
        self.pending.push(Pending {
            req,
            remaining_us: req.model.exec_us,
            started: None,
        });
    }

    fn dispatch(&mut self, now: f64) -> Option<Dispatch<'a>> {
        // Token = static priority (1/exec: shorter ⇒ higher) × waiting time.
        // Adding 1 keeps fresh arrivals schedulable.
        let pick = (self.pending.iter().enumerate())
            .map(|(i, p)| (i, (1.0 + (now - p.req.arrival_us)) / p.req.model.exec_us))
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))?
            .0;
        let p = &mut self.pending[pick];
        let switch = self.last_run != Some(p.req.id);
        let overhead_us = if switch {
            self.cfg.switch_overhead_us
        } else {
            0.0
        };
        // Run [now, now+overhead+slice); a new arrival mid-slice waits for
        // the checkpoint (PREMA cannot preempt inside a checkpoint).
        let run_us = p.remaining_us.min(self.cfg.checkpoint_us);
        let started_us = *p.started.get_or_insert(now + overhead_us);
        self.last_run = Some(p.req.id);
        p.remaining_us -= run_us;
        let (req, done) = (p.req, p.remaining_us <= 1e-9);
        if done {
            // Before any later arrival is pushed: the tie-break reads
            // the waiting set's order.
            self.pending.swap_remove(pick);
        }
        Some(Dispatch::Run(Slice {
            req,
            start_us: now,
            overhead_us,
            run_us,
            block: None,
            started_us,
            done,
        }))
    }
}

/// Serve the trace with PREMA's token scheduler.
pub fn prema(arrivals: &[Arrival], models: &ModelTable, cfg: &PremaCfg) -> SimResult {
    assert!(cfg.checkpoint_us > 0.0);
    let tokens = Tokens {
        cfg,
        pending: Vec::new(),
        last_run: None,
    };
    serve(arrivals, models, tokens).0
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
    fn all_requests_complete() {
        let arrivals: Vec<Arrival> = (0..20)
            .map(|i| {
                arrival(
                    i,
                    if i % 3 == 0 { "long" } else { "short" },
                    i as f64 * 15_000.0,
                )
            })
            .collect();
        let r = prema(&arrivals, &table(), &PremaCfg::default());
        assert_eq!(r.completions.len(), 20);
        assert!(r.trace.first_overlap().is_none());
        for c in &r.completions {
            assert!(c.e2e_us() >= c.exec_us - 1e-6, "{c:?}");
        }
    }

    #[test]
    fn npu_checkpointing_lets_short_preempt() {
        // Long starts; short arrives mid-run. With NPU-style hardware
        // checkpointing, the short's wait is bounded by ~checkpoint.
        let arrivals = vec![arrival(0, "long", 0.0), arrival(1, "short", 1_000.0)];
        let cfg = PremaCfg {
            checkpoint_us: 4_000.0,
            switch_overhead_us: 100.0,
        };
        let r = prema(&arrivals, &table(), &cfg);
        let short = r.completions.iter().find(|c| c.id == 1).unwrap();
        // Far better than the 59 ms FCFS wait.
        assert!(
            short.e2e_us() < 25_000.0,
            "short e2e {} should beat FCFS",
            short.e2e_us()
        );
        let long = r.completions.iter().find(|c| c.id == 0).unwrap();
        assert!(long.e2e_us() >= 60_000.0);
    }

    #[test]
    fn gpu_default_cannot_preempt_midrun_but_reorders_queue() {
        // Default (request granularity): the short waits for the in-flight
        // long request, but jumps ahead of *queued* long requests thanks
        // to its faster token growth.
        let arrivals = vec![
            arrival(0, "long", 0.0),
            arrival(1, "long", 1_000.0),
            arrival(2, "short", 2_000.0),
        ];
        let r = prema(&arrivals, &table(), &PremaCfg::default());
        let short = r.completions.iter().find(|c| c.id == 2).unwrap();
        let second_long = r.completions.iter().find(|c| c.id == 1).unwrap();
        // Short runs right after the in-flight long, before the queued one.
        assert!(short.end_us < second_long.end_us);
        assert!(short.start_us >= 60_000.0, "cannot preempt mid-run");
    }

    #[test]
    fn switch_overhead_charged_only_on_switches() {
        // One lone request: exactly one switch.
        let arrivals = vec![arrival(0, "long", 0.0)];
        let cfg = PremaCfg {
            checkpoint_us: 10_000.0,
            switch_overhead_us: 500.0,
        };
        let r = prema(&arrivals, &table(), &cfg);
        let c = &r.completions[0];
        assert!((c.e2e_us() - 60_500.0).abs() < 1e-6, "got {}", c.e2e_us());
    }

    #[test]
    fn deterministic() {
        let arrivals: Vec<Arrival> = (0..30)
            .map(|i| {
                arrival(
                    i,
                    if i % 2 == 0 { "long" } else { "short" },
                    i as f64 * 9_000.0,
                )
            })
            .collect();
        let a = prema(&arrivals, &table(), &PremaCfg::default());
        let b = prema(&arrivals, &table(), &PremaCfg::default());
        assert_eq!(a.completions, b.completions);
    }
}
