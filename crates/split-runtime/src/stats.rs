//! Preemption-decision latency statistics.
//!
//! §3.4 claims the greedy preemption achieves "near-optimal preemption at
//! microsecond-scale". With the combining core the latency a client sees
//! is slot-publish → decision-applied: the time from a client making its
//! request visible in its combining slot to the combiner having placed it
//! in the queue. That is what this collector keeps, and what
//! `ShutdownReport` and the contention benchmarks quote. The admission
//! alone (`SplitMachine::admit` wall time, greedy scan included) is the
//! `decision_ns` of each recorded `PreemptDecision` event.
//!
//! It is backed by [`split_telemetry::Histogram`], so on top of
//! count/mean/max the collector answers distribution queries —
//! [`DecisionStats::p50_ns`] / [`DecisionStats::p99_ns`] — with the
//! histogram's ≤12.5% relative bucket error; count, mean, and max stay
//! exact (the histogram tracks them with dedicated atomics).

use split_telemetry::Histogram;

/// Lock-free aggregate of decision durations (nanoseconds).
#[derive(Debug, Default)]
pub struct DecisionStats {
    /// Publish→applied latency (what clients experience).
    decide: Histogram,
}

impl DecisionStats {
    /// Fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one decision's publish→applied latency.
    pub fn record(&self, ns: u64) {
        self.decide.record(ns);
    }

    /// Number of decisions recorded.
    pub fn count(&self) -> u64 {
        self.decide.count()
    }

    /// Mean publish→applied decision time, nanoseconds (0 before any
    /// decision).
    pub fn mean_ns(&self) -> f64 {
        if self.decide.count() == 0 {
            0.0
        } else {
            self.decide.mean()
        }
    }

    /// Worst publish→applied decision time, nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.decide.max()
    }

    /// Median publish→applied decision time, nanoseconds
    /// (bucket-approximate).
    pub fn p50_ns(&self) -> u64 {
        self.decide.p50()
    }

    /// 99th-percentile publish→applied decision time, nanoseconds
    /// (bucket-approximate).
    pub fn p99_ns(&self) -> u64 {
        self.decide.p99()
    }

    /// 99.9th-percentile publish→applied decision time, nanoseconds
    /// (bucket-approximate).
    pub fn p999_ns(&self) -> u64 {
        self.decide.p999()
    }

    /// The underlying publish→applied histogram (e.g. for merging into
    /// a registry snapshot).
    pub fn histogram(&self) -> &Histogram {
        &self.decide
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let s = DecisionStats::new();
        assert_eq!(s.mean_ns(), 0.0);
        s.record(100);
        s.record(300);
        s.record(200);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean_ns(), 200.0);
        assert_eq!(s.max_ns(), 300);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let s = DecisionStats::new();
        for ns in 1..=1_000u64 {
            s.record(ns);
        }
        let (p50, p99, p999, max) = (s.p50_ns(), s.p99_ns(), s.p999_ns(), s.max_ns());
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(p99 <= p999, "p99 {p99} > p999 {p999}");
        assert!(p999 <= max, "p999 {p999} > max {max}");
        // Log-bucketed: p50 within 12.5% of the true median 500.
        assert!((p50 as f64 - 500.0).abs() <= 500.0 * 0.125, "p50 {p50}");
        assert_eq!(max, 1_000);
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let s = Arc::new(DecisionStats::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        s.record(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.count(), 8000);
        assert_eq!(s.max_ns(), 999);
    }
}
