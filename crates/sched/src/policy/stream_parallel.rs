//! Stream-Parallel baseline: native GPU multi-stream concurrency
//! (paper Figure 1's first lane; NVIDIA CUDA streams, paper ref.\[24\]).
//!
//! Every request is launched on its own stream the moment it arrives. No
//! alignment, no scheduling — maximal concurrency and maximal resource
//! contention: with `k` resident requests each runs at `1/(1+c·(k−1))` of
//! isolated speed. Modeled exactly by the processor-sharing engine.

use crate::engine::SimResult;
use crate::request::{Completion, ModelTable};
use gpu_sim::{ContentionModel, FluidJob, FluidSim, Trace};
use serde::{Deserialize, Serialize};
use workload::Arrival;

/// Stream-Parallel configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamParallelCfg {
    /// Raw (unaligned) contention coefficient.
    pub contention_coef: f64,
}

impl Default for StreamParallelCfg {
    fn default() -> Self {
        Self {
            contention_coef: gpu_sim::DeviceConfig::default().contention_coef,
        }
    }
}

/// Serve the trace with one stream per request.
pub fn stream_parallel(
    arrivals: &[Arrival],
    models: &ModelTable,
    cfg: &StreamParallelCfg,
) -> SimResult {
    let jobs: Vec<FluidJob> = arrivals
        .iter()
        .map(|a| FluidJob {
            id: a.id,
            arrival_us: a.arrival_us,
            work_us: models.get(&a.model).exec_us,
        })
        .collect();
    let done = FluidSim::new(ContentionModel::new(cfg.contention_coef)).run(&jobs);

    let mut trace = Trace::new();
    let mut completions: Vec<Completion> = done
        .iter()
        .map(|d| {
            let a = &arrivals[d.id as usize];
            let m = models.get(&a.model);
            trace.record(
                d.id,
                m.name.clone(),
                None,
                (d.id % 8) as usize,
                d.start_us,
                d.end_us,
            );
            Completion {
                id: d.id,
                model: m.name.clone(),
                task: m.task,
                arrival_us: a.arrival_us,
                start_us: d.start_us,
                end_us: d.end_us,
                exec_us: m.exec_us,
            }
        })
        .collect();
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
    fn starts_immediately_but_contends() {
        let cfg = StreamParallelCfg {
            contention_coef: 1.0,
        };
        let r = stream_parallel(
            &[arrival(0, "long", 0.0), arrival(1, "short", 0.0)],
            &table(),
            &cfg,
        );
        let short = r.completions.iter().find(|c| c.id == 1).unwrap();
        assert_eq!(short.start_us, 0.0, "no admission delay");
        // Short does 10 ms of work at rate 1/2 → 20 ms.
        assert!((short.e2e_us() - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn heavy_contention_hurts_everyone() {
        let cfg = StreamParallelCfg {
            contention_coef: 0.85,
        };
        let arrivals: Vec<Arrival> = (0..4).map(|i| arrival(i, "short", 0.0)).collect();
        let r = stream_parallel(&arrivals, &table(), &cfg);
        for c in &r.completions {
            // slowdown(4) = 3.55: every request far above isolated time.
            assert!(c.e2e_us() > 2.0 * c.exec_us, "{c:?}");
        }
    }

    #[test]
    fn all_requests_complete() {
        let arrivals: Vec<Arrival> = (0..60)
            .map(|i| {
                arrival(
                    i,
                    if i % 5 == 0 { "long" } else { "short" },
                    i as f64 * 4_000.0,
                )
            })
            .collect();
        let r = stream_parallel(&arrivals, &table(), &StreamParallelCfg::default());
        assert_eq!(r.completions.len(), 60);
    }
}
