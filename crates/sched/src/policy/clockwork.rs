//! ClockWork baseline: sequential, non-preemptive, first-come-first-served
//! (paper §5.3).
//!
//! ClockWork's thesis is *predictability*: one request owns the GPU at a
//! time and runs its whole (unsplit) model. A short request arriving
//! behind a long one simply waits — the latency pathology SPLIT attacks
//! (Figure 1's "Sequential" lane).

use super::serial::{serve, whole, Discipline, Dispatch, Req, Slice};
use crate::engine::SimResult;
use crate::request::ModelTable;
use std::collections::VecDeque;
use workload::Arrival;

/// First come, first served; with a target, a request whose predicted
/// response ratio at dispatch exceeds it is dropped instead.
struct Fifo<'a> {
    target_alpha: Option<f64>,
    waiting: VecDeque<Req<'a>>,
}

impl<'a> Discipline<'a> for Fifo<'a> {
    const SERVICE_ORDER: bool = true;

    fn admit(&mut self, req: Req<'a>) {
        self.waiting.push_back(req);
    }

    fn dispatch(&mut self, now: f64) -> Option<Dispatch<'a>> {
        let s = whole(self.waiting.pop_front()?, now);
        // FCFS makes the wait known at arrival exact at dispatch: nothing
        // behind the request can run first, and a dropped one never
        // occupies the device.
        let predicted_rr = |s: &Slice| (s.start_us - s.req.arrival_us + s.run_us) / s.run_us;
        Some(match self.target_alpha {
            Some(alpha) if predicted_rr(&s) > alpha => Dispatch::Drop(s.req.id),
            _ => Dispatch::Run(s),
        })
    }
}

/// Serve the trace FCFS, whole models, no preemption.
pub fn clockwork(arrivals: &[Arrival], models: &ModelTable) -> SimResult {
    let fifo = Fifo {
        target_alpha: None,
        waiting: VecDeque::new(),
    };
    serve(arrivals, models, fifo).0
}

/// ClockWork's signature admission control (§7: "dropping tasks predicted
/// to be stragglers upon arrival"): a request whose *predicted* response
/// ratio — queueing delay visible at arrival plus its own execution over
/// its isolated time — already exceeds `target_alpha` is dropped instead
/// of queued.
///
/// Returns the completions of admitted requests plus the ids of dropped
/// ones. The paper's Figure 6 comparison cannot drop (every request is
/// scored), which is why [`clockwork`] is the baseline there; this
/// variant backs the admission-control ablation.
pub fn clockwork_with_dropping(
    arrivals: &[Arrival],
    models: &ModelTable,
    target_alpha: f64,
) -> (SimResult, Vec<u64>) {
    assert!(
        target_alpha > 1.0,
        "a target below 1x isolated time drops everything"
    );
    let fifo = Fifo {
        target_alpha: Some(target_alpha),
        waiting: VecDeque::new(),
    };
    serve(arrivals, models, fifo)
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
    fn fcfs_order_is_arrival_order() {
        let arrivals = vec![arrival(0, "long", 0.0), arrival(1, "short", 1_000.0)];
        let r = clockwork(&arrivals, &table());
        assert_eq!(r.completions.len(), 2);
        // Short waits for the whole long request.
        let short = &r.completions[1];
        assert_eq!(short.start_us, 60_000.0);
        assert_eq!(short.end_us, 70_000.0);
        assert!((short.response_ratio() - 6.9).abs() < 1e-9);
        assert!(r.trace.first_overlap().is_none());
    }

    #[test]
    fn idle_gaps_are_respected() {
        let arrivals = vec![arrival(0, "short", 0.0), arrival(1, "short", 100_000.0)];
        let r = clockwork(&arrivals, &table());
        assert_eq!(r.completions[1].start_us, 100_000.0);
        assert_eq!(r.completions[1].response_ratio(), 1.0);
    }

    #[test]
    fn empty_trace() {
        let r = clockwork(&[], &table());
        assert!(r.completions.is_empty());
    }

    #[test]
    fn dropping_rejects_predicted_stragglers() {
        // Short behind a long request: predicted RR = (59 + 10)/10 = 6.9,
        // over a target of 4 → dropped. A later short is admitted.
        let arrivals = vec![
            arrival(0, "long", 0.0),
            arrival(1, "short", 1_000.0),
            arrival(2, "short", 100_000.0),
        ];
        let (r, dropped) = clockwork_with_dropping(&arrivals, &table(), 4.0);
        assert_eq!(dropped, vec![1]);
        assert_eq!(r.completions.len(), 2);
        assert!(r.completions.iter().all(|c| c.response_ratio() <= 4.0));
    }

    #[test]
    fn dropping_admits_everything_when_idle() {
        let arrivals: Vec<Arrival> = (0..5)
            .map(|i| arrival(i, "short", i as f64 * 100_000.0))
            .collect();
        let (r, dropped) = clockwork_with_dropping(&arrivals, &table(), 2.0);
        assert!(dropped.is_empty());
        assert_eq!(r.completions.len(), 5);
    }

    #[test]
    fn admitted_requests_never_violate_the_admission_target() {
        // The whole point of ClockWork's predictability: if a request is
        // admitted, FCFS guarantees the prediction was exact.
        let arrivals: Vec<Arrival> = (0..60)
            .map(|i| {
                arrival(
                    i,
                    if i % 2 == 0 { "long" } else { "short" },
                    i as f64 * 12_000.0,
                )
            })
            .collect();
        let (r, dropped) = clockwork_with_dropping(&arrivals, &table(), 3.0);
        assert!(!dropped.is_empty(), "this load must drop something");
        for c in &r.completions {
            assert!(c.response_ratio() <= 3.0 + 1e-9, "{c:?}");
        }
    }

    #[test]
    #[should_panic(expected = "drops everything")]
    fn dropping_rejects_bad_target() {
        clockwork_with_dropping(&[], &table(), 0.5);
    }
}
