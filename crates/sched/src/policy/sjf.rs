//! Shortest-Job-First baseline (non-preemptive).
//!
//! Not one of the paper's comparators, but the classical queueing-theory
//! reference point: SJF minimizes *mean* waiting time among
//! non-preemptive disciplines, yet it starves long requests under
//! pressure and cannot bound a short request's wait once a long model is
//! in flight. Comparing SPLIT against SJF separates how much of SPLIT's
//! win comes from *ordering* (which SJF also has, crudely) versus
//! *block-boundary preemption* (which only SPLIT has).

use super::serial::{serve, LeastKey};
use crate::engine::SimResult;
use crate::request::ModelTable;
use workload::Arrival;

/// Serve the trace shortest-job-first, whole models, non-preemptive.
/// Ties break by arrival order.
pub fn sjf(arrivals: &[Arrival], models: &ModelTable) -> SimResult {
    serve(arrivals, models, LeastKey::new(|r| r.model.exec_us)).0
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

    fn arrival(id: u64, model: &str, at: f64) -> Arrival {
        Arrival {
            id,
            model: model.into(),
            arrival_us: at,
        }
    }

    #[test]
    fn short_jumps_queued_long() {
        // Long running; another long and a short both waiting: SJF runs
        // the short next.
        let arrivals = vec![
            arrival(0, "long", 0.0),
            arrival(1, "long", 1_000.0),
            arrival(2, "short", 2_000.0),
        ];
        let r = sjf(&arrivals, &table());
        let short = r.completions.iter().find(|c| c.id == 2).unwrap();
        let second_long = r.completions.iter().find(|c| c.id == 1).unwrap();
        assert!(short.end_us < second_long.end_us);
        // But it cannot preempt the in-flight long request.
        assert!(short.start_us >= 60_000.0);
    }

    #[test]
    fn equal_jobs_stay_fifo() {
        let arrivals: Vec<Arrival> = (0..5)
            .map(|i| arrival(i, "short", i as f64 * 100.0))
            .collect();
        let r = sjf(&arrivals, &table());
        let order: Vec<u64> = r.completions.iter().map(|c| c.id).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn long_requests_can_starve_under_pressure() {
        // A long request queued behind a steady stream of shorts waits for
        // all of them — the SJF pathology SPLIT's response-ratio aging
        // avoids.
        let mut arrivals = vec![arrival(0, "short", 0.0), arrival(1, "long", 1_000.0)];
        for i in 0..8 {
            arrivals.push(arrival(2 + i, "short", 2_000.0 + i as f64 * 1_000.0));
        }
        let r = sjf(&arrivals, &table());
        let long = r.completions.iter().find(|c| c.id == 1).unwrap();
        // The long runs only after all 9 shorts.
        assert!(long.start_us >= 9.0 * 10_000.0 - 1e-6, "{}", long.start_us);
    }

    #[test]
    fn conservation() {
        let arrivals: Vec<Arrival> = (0..40)
            .map(|i| {
                arrival(
                    i,
                    if i % 3 == 0 { "long" } else { "short" },
                    i as f64 * 8_000.0,
                )
            })
            .collect();
        let r = sjf(&arrivals, &table());
        assert_eq!(r.completions.len(), 40);
        assert!(r.trace.first_overlap().is_none());
        for c in &r.completions {
            assert!(c.e2e_us() >= c.exec_us - 1e-6);
        }
    }
}
