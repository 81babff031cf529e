//! Block-level round-robin — the *partial preemption* strawman of the
//! paper's Figure 3(a).
//!
//! Splitting a model into blocks opens two scheduling choices: run a
//! preempting request's blocks **together** (SPLIT's rule, Figure 3b) or
//! time-slice blocks fairly among whoever is waiting. The fair-looking
//! round-robin turns out to be wrong: a request's completion time is the
//! end of its *last* block, so interleaving delays every participant's
//! last block and the total latency of the preemptor grows
//! ("the partial preemption produces straggler and increases total
//! latency of request A" — §3.4, observation 1). This module exists so
//! that claim is measured, not asserted.

use super::serial::{serve, Discipline, Dispatch, Req, Slice};
use crate::engine::SimResult;
use crate::request::ModelTable;
use std::collections::VecDeque;
use workload::Arrival;

struct Live<'a> {
    req: Req<'a>,
    next_block: usize,
    started: Option<f64>,
}

/// Block round-robin's waiting set: the rotation of resident requests.
struct Rotation<'a> {
    live: VecDeque<Live<'a>>,
}

impl<'a> Discipline<'a> for Rotation<'a> {
    fn admit(&mut self, req: Req<'a>) {
        self.live.push_back(Live {
            req,
            next_block: 0,
            started: None,
        });
    }

    fn dispatch(&mut self, now: f64) -> Option<Dispatch<'a>> {
        let r = self.live.front_mut()?;
        let blocks = &r.req.model.blocks_us;
        let idx = r.next_block;
        r.next_block += 1;
        let slice = Slice {
            req: r.req,
            start_us: now,
            overhead_us: 0.0,
            run_us: blocks[idx],
            block: Some(idx as u32),
            started_us: *r.started.get_or_insert(now),
            done: r.next_block == blocks.len(),
        };
        if slice.done {
            self.live.pop_front();
        }
        Some(Dispatch::Run(slice))
    }

    /// Back of the rotation, behind anyone who arrived during the block:
    /// someone else's block runs next.
    fn requeue(&mut self) {
        self.live.rotate_left(1);
    }
}

/// Serve the trace with round-robin *block* scheduling: the device cycles
/// through the resident requests, one block each.
pub fn block_round_robin(arrivals: &[Arrival], models: &ModelTable) -> SimResult {
    let rotation = Rotation {
        live: VecDeque::new(),
    };
    serve(arrivals, models, rotation).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelRuntime;

    fn table() -> ModelTable {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::split("a", 0, 28_000.0, vec![10_000.0; 3]));
        t.insert(ModelRuntime::split(
            "b",
            1,
            15_000.0,
            vec![8_000.0, 8_000.0],
        ));
        t
    }

    fn arrival(id: u64, model: &str, at: f64) -> Arrival {
        Arrival {
            id,
            model: model.into(),
            arrival_us: at,
        }
    }

    #[test]
    fn blocks_interleave_round_robin() {
        // A arrives first, B during A's first block: blocks alternate.
        let arrivals = vec![arrival(0, "a", 0.0), arrival(1, "b", 2_000.0)];
        let r = block_round_robin(&arrivals, &table());
        let spans: Vec<(&str, u64, Option<u32>)> = (r.trace.events().iter())
            .map(|e| (&*e.model, e.req, e.block))
            .collect();
        assert_eq!(
            spans,
            vec![
                ("a", 0, Some(0)),
                ("b", 1, Some(0)),
                ("a", 0, Some(1)),
                ("b", 1, Some(1)),
                ("a", 0, Some(2))
            ]
        );
    }

    #[test]
    fn partial_preemption_stretches_the_preemptor() {
        // Figure 3's comparison: under round-robin, B's last block lands
        // after A's interleaved blocks; under SPLIT's full preemption B
        // runs contiguously and finishes sooner.
        let arrivals = vec![arrival(0, "a", 0.0), arrival(1, "b", 2_000.0)];
        let t = table();
        let partial = block_round_robin(&arrivals, &t);
        let full = crate::policy::split(
            &arrivals,
            &t,
            &crate::policy::SplitCfg {
                alpha: 4.0,
                elastic: None,
            },
        );
        let b_partial = partial.completions.iter().find(|c| c.id == 1).unwrap();
        let b_full = full.completions.iter().find(|c| c.id == 1).unwrap();
        assert!(
            b_full.e2e_us() < b_partial.e2e_us(),
            "full {} must beat partial {}",
            b_full.e2e_us(),
            b_partial.e2e_us()
        );
    }

    #[test]
    fn conservation_and_no_overlap() {
        let arrivals: Vec<Arrival> = (0..30)
            .map(|i| arrival(i, if i % 2 == 0 { "a" } else { "b" }, i as f64 * 9_000.0))
            .collect();
        let r = block_round_robin(&arrivals, &table());
        assert_eq!(r.completions.len(), 30);
        assert!(r.trace.first_overlap().is_none());
        for c in &r.completions {
            assert!(c.e2e_us() >= c.exec_us - 1e-6);
        }
    }
}
