//! Elastic model splitting (paper §3.3, "Limitation of evenly-sized model
//! splitting and elastic model splitting in SPLIT").
//!
//! Splitting buys preemption opportunities at the price of splitting
//! overhead. Two workload regimes make that trade a loss:
//!
//! * **high request density** — the device is saturated, so the overhead
//!   directly grows the backlog and hurts everyone;
//! * **same-type floods** — requests of one task are FIFO among themselves
//!   (§3.4), so there is nothing to preempt *between* them and the
//!   overhead is pure waste.
//!
//! The [`ElasticController`] watches a sliding window of recent arrivals
//! and answers, per arrival, whether that request should run split or
//! vanilla. Hysteresis (distinct on/off thresholds) prevents flapping at
//! the boundary.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Elastic-splitting thresholds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticConfig {
    /// Sliding-window length, µs.
    pub window_us: f64,
    /// Disable splitting when windowed arrival rate exceeds this
    /// (requests per second).
    pub density_off_per_s: f64,
    /// Re-enable splitting when the rate falls back below this
    /// (must be ≤ `density_off_per_s`; the gap is the hysteresis band).
    pub density_on_per_s: f64,
    /// Disable splitting when one task type exceeds this fraction of the
    /// windowed arrivals (requires at least `min_samples`).
    pub same_type_frac: f64,
    /// Minimum windowed arrivals before the same-type rule can trigger.
    pub min_samples: usize,
}

impl ElasticConfig {
    /// Check the documented constraints. Deserialized or hand-built
    /// configs must pass through here (the controller refuses invalid
    /// ones): the hysteresis band must not be inverted
    /// (`density_on_per_s ≤ density_off_per_s`), the window positive, the
    /// same-type fraction a fraction, and `min_samples` at least 1 (a
    /// zero-sample same-type rule would fire on an empty window).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.window_us.is_finite() && self.window_us > 0.0) {
            return Err(format!(
                "window_us must be positive, got {}",
                self.window_us
            ));
        }
        if !(self.density_off_per_s.is_finite() && self.density_off_per_s >= 0.0) {
            return Err(format!(
                "density_off_per_s must be finite and non-negative, got {}",
                self.density_off_per_s
            ));
        }
        if !(self.density_on_per_s.is_finite() && self.density_on_per_s >= 0.0) {
            return Err(format!(
                "density_on_per_s must be finite and non-negative, got {}",
                self.density_on_per_s
            ));
        }
        if self.density_on_per_s > self.density_off_per_s {
            return Err(format!(
                "hysteresis band inverted: density_on_per_s ({}) must be ≤ density_off_per_s ({})",
                self.density_on_per_s, self.density_off_per_s
            ));
        }
        if !(0.0..=1.0).contains(&self.same_type_frac) {
            return Err(format!(
                "same_type_frac must be within [0, 1], got {}",
                self.same_type_frac
            ));
        }
        if self.min_samples == 0 {
            return Err("min_samples must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for ElasticConfig {
    fn default() -> Self {
        Self {
            window_us: 500_000.0,
            // The Jetson-class device sustains ~35 req/s of the Table 1 mix;
            // beyond that the queue only grows and overhead is poison.
            density_off_per_s: 40.0,
            density_on_per_s: 30.0,
            same_type_frac: 0.75,
            min_samples: 6,
        }
    }
}

/// A point-in-time view of an [`ElasticController`] for observers
/// (dashboards, shutdown reports). Plain data: taking one never blocks
/// on anything the controller itself holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticSnapshot {
    /// Current mode (true = requests are dispatched split).
    pub splitting: bool,
    /// Arrivals currently inside the sliding window.
    pub window_len: usize,
    /// Windowed arrival rate (requests per second) the mode decisions
    /// are judged against.
    pub rate_per_s: f64,
}

/// Sliding-window arrival monitor deciding split vs. vanilla execution.
#[derive(Debug, Clone)]
pub struct ElasticController {
    cfg: ElasticConfig,
    /// Recent arrivals: (time, task type).
    window: VecDeque<(f64, u32)>,
    /// Arrivals per task type inside `window`, kept up to date as
    /// arrivals enter and leave it: one `(task, count)` per distinct task
    /// in the window, in no particular order (only their maximum is read).
    counts: Vec<(u32, usize)>,
    /// Current mode (true = splitting enabled).
    splitting: bool,
}

impl ElasticController {
    /// Controller with the given thresholds; splitting starts enabled.
    ///
    /// # Panics
    /// Panics when [`ElasticConfig::validate`] rejects `cfg`.
    pub fn new(cfg: ElasticConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ElasticConfig: {e}");
        }
        Self {
            cfg,
            window: VecDeque::new(),
            counts: Vec::new(),
            splitting: true,
        }
    }

    /// Record the arrival of a request of `task` at `now_us` and return
    /// whether that request should be dispatched *split* (true) or
    /// vanilla (false). Called once per arrival; costs O(#tasks in the
    /// window) plus the evictions, never a pass over the whole window.
    pub fn on_arrival(&mut self, now_us: f64, task: u32) -> bool {
        self.window.push_back((now_us, task));
        match self.counts.iter_mut().find(|c| c.0 == task) {
            Some(c) => c.1 += 1,
            None => self.counts.push((task, 1)),
        }
        let window_us = self.cfg.window_us;
        while let Some(&(_, old)) = self.window.front().filter(|(t, _)| now_us - t > window_us) {
            self.window.pop_front();
            let i = self.counts.iter().position(|c| c.0 == old);
            let i = i.expect("windowed task is counted");
            self.counts[i].1 -= 1;
            if self.counts[i].1 == 0 {
                self.counts.swap_remove(i);
            }
        }

        let n = self.window.len();
        let rate_per_s = n as f64 / (self.cfg.window_us / 1e6);
        let dominant = self.counts.iter().map(|c| c.1).max().unwrap_or(0);
        let same_type_flood =
            n >= self.cfg.min_samples && (dominant as f64 / n as f64) >= self.cfg.same_type_frac;

        if self.splitting {
            if rate_per_s > self.cfg.density_off_per_s || same_type_flood {
                self.splitting = false;
            }
        } else if rate_per_s < self.cfg.density_on_per_s && !same_type_flood {
            self.splitting = true;
        }
        self.splitting
    }

    /// Current mode without recording an arrival.
    pub fn splitting_enabled(&self) -> bool {
        self.splitting
    }

    /// Windowed arrival count (for tests and telemetry).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Point-in-time view for observers; does not record an arrival.
    pub fn snapshot(&self) -> ElasticSnapshot {
        ElasticSnapshot {
            splitting: self.splitting,
            window_len: self.window.len(),
            rate_per_s: self.window.len() as f64 / (self.cfg.window_us / 1e6),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-recount rule the incremental tally replaced: every
    /// arrival re-tallies the whole window. Kept as the reference the
    /// controller must match decision for decision.
    struct RecountController {
        cfg: ElasticConfig,
        window: VecDeque<(f64, u32)>,
        splitting: bool,
    }

    impl RecountController {
        fn on_arrival(&mut self, now_us: f64, task: u32) -> bool {
            self.window.push_back((now_us, task));
            while let Some(&(t, _)) = self.window.front() {
                if now_us - t > self.cfg.window_us {
                    self.window.pop_front();
                } else {
                    break;
                }
            }
            let n = self.window.len();
            let rate_per_s = n as f64 / (self.cfg.window_us / 1e6);
            let mut dominant = 0usize;
            if n >= self.cfg.min_samples {
                let mut counts = std::collections::BTreeMap::new();
                for &(_, t) in &self.window {
                    *counts.entry(t).or_insert(0usize) += 1;
                }
                dominant = counts.values().copied().max().unwrap_or(0);
            }
            let same_type_flood = n >= self.cfg.min_samples
                && (dominant as f64 / n as f64) >= self.cfg.same_type_frac;
            if self.splitting {
                if rate_per_s > self.cfg.density_off_per_s || same_type_flood {
                    self.splitting = false;
                }
            } else if rate_per_s < self.cfg.density_on_per_s && !same_type_flood {
                self.splitting = true;
            }
            self.splitting
        }

        fn snapshot(&self) -> ElasticSnapshot {
            ElasticSnapshot {
                splitting: self.splitting,
                window_len: self.window.len(),
                rate_per_s: self.window.len() as f64 / (self.cfg.window_us / 1e6),
            }
        }
    }

    /// Valid configs: the on threshold a fraction of the off threshold,
    /// windows from 1 ms to 2 s.
    fn config_strategy() -> impl Strategy<Value = ElasticConfig> {
        (
            1_000.0f64..2_000_000.0,
            0.0f64..400.0,
            0.0f64..=1.0,
            0.0f64..=1.0,
            1usize..16,
        )
            .prop_map(|(window_us, off, on_frac, same_type_frac, min_samples)| {
                ElasticConfig {
                    window_us,
                    density_off_per_s: off,
                    density_on_per_s: off * on_frac,
                    same_type_frac,
                    min_samples,
                }
            })
    }

    /// Arrival sequences over a mix of 1–8 tasks; a quarter of the gaps
    /// are zero (simultaneous arrivals), the rest up to 100 ms.
    fn arrivals_strategy() -> impl Strategy<Value = Vec<(f64, u32)>> {
        (1u32..9).prop_flat_map(|tasks| {
            proptest::collection::vec((0u8..4, 0.0f64..100_000.0, 0..tasks), 0..400).prop_map(
                |steps| {
                    let mut now = 0.0;
                    steps
                        .into_iter()
                        .map(|(draw, gap, task)| {
                            if draw > 0 {
                                now += gap;
                            }
                            (now, task)
                        })
                        .collect()
                },
            )
        })
    }

    proptest! {
        /// The incremental tally decides exactly as a full recount.
        #[test]
        fn incremental_tally_matches_full_recount(
            cfg in config_strategy(),
            arrivals in arrivals_strategy(),
        ) {
            let mut fast = ElasticController::new(cfg.clone());
            let mut reference = RecountController {
                cfg,
                window: VecDeque::new(),
                splitting: true,
            };
            for (now, task) in arrivals {
                prop_assert_eq!(fast.on_arrival(now, task), reference.on_arrival(now, task));
                prop_assert_eq!(fast.snapshot(), reference.snapshot());
            }
            let tallied: usize = fast.counts.iter().map(|c| c.1).sum();
            prop_assert_eq!(tallied, fast.window_len());
        }
    }

    fn ctl() -> ElasticController {
        ElasticController::new(ElasticConfig {
            window_us: 1_000_000.0, // 1 s window for easy arithmetic
            density_off_per_s: 10.0,
            density_on_per_s: 5.0,
            same_type_frac: 0.8,
            min_samples: 5,
        })
    }

    #[test]
    fn sparse_mixed_traffic_keeps_splitting() {
        let mut c = ctl();
        for i in 0..8 {
            // 2 req/s, alternating tasks.
            assert!(c.on_arrival(i as f64 * 500_000.0, (i % 4) as u32));
        }
    }

    #[test]
    fn density_flood_disables_splitting() {
        let mut c = ctl();
        let mut last = true;
        for i in 0..30 {
            // 30 requests in 1s, mixed types → 30/s >> 10/s.
            last = c.on_arrival(i as f64 * 33_000.0, (i % 5) as u32);
        }
        assert!(!last, "flood must disable splitting");
    }

    #[test]
    fn recovery_needs_hysteresis_band() {
        let mut c = ctl();
        for i in 0..30 {
            c.on_arrival(i as f64 * 33_000.0, (i % 5) as u32);
        }
        assert!(!c.splitting_enabled());
        // Rate between on (5/s) and off (10/s): 8/s → stays OFF.
        let mut t = 1_200_000.0;
        for i in 0..10 {
            c.on_arrival(t, (i % 5) as u32);
            t += 125_000.0;
        }
        assert!(!c.splitting_enabled(), "must not flap inside the band");
        // Rate clearly below 5/s → recovers.
        for i in 0..6 {
            t += 400_000.0;
            c.on_arrival(t, (i % 5) as u32);
        }
        assert!(c.splitting_enabled(), "must recover at low rate");
    }

    #[test]
    fn same_type_flood_disables_splitting() {
        let mut c = ctl();
        let mut last = true;
        for i in 0..8 {
            // Only 8/s... below density threshold? 8 < 10 → density ok,
            // but all the same task → FIFO makes splitting pointless.
            last = c.on_arrival(i as f64 * 125_000.0, 7);
        }
        assert!(!last, "same-type flood must disable splitting");
    }

    #[test]
    fn same_type_rule_needs_min_samples() {
        let mut c = ctl();
        // Three same-type arrivals: below min_samples, keep splitting.
        for i in 0..3 {
            assert!(c.on_arrival(i as f64 * 100_000.0, 7));
        }
    }

    #[test]
    fn window_expires_old_arrivals() {
        let mut c = ctl();
        for i in 0..20 {
            c.on_arrival(i as f64 * 10_000.0, (i % 3) as u32);
        }
        assert_eq!(c.window_len(), 20);
        c.on_arrival(10_000_000.0, 0);
        assert_eq!(c.window_len(), 1, "stale entries must be evicted");
    }

    #[test]
    fn snapshot_reflects_mode_and_window() {
        let mut c = ctl();
        let idle = c.snapshot();
        assert!(idle.splitting);
        assert_eq!(idle.window_len, 0);
        assert_eq!(idle.rate_per_s, 0.0);
        for i in 0..30 {
            c.on_arrival(i as f64 * 33_000.0, (i % 5) as u32);
        }
        let flooded = c.snapshot();
        assert!(!flooded.splitting, "flood must be visible to observers");
        assert_eq!(flooded.window_len, c.window_len());
        assert!(flooded.rate_per_s > 10.0);
    }

    #[test]
    #[should_panic(expected = "hysteresis band inverted")]
    fn bad_band_rejected() {
        ElasticController::new(ElasticConfig {
            density_on_per_s: 50.0,
            density_off_per_s: 10.0,
            ..ElasticConfig::default()
        });
    }

    #[test]
    fn validate_accepts_default_and_flags_each_field() {
        assert!(ElasticConfig::default().validate().is_ok());
        // The documented `density_on_per_s ≤ density_off_per_s` constraint
        // (the satellite's inverted-band case) is now enforced.
        let inverted = ElasticConfig {
            density_on_per_s: 50.0,
            density_off_per_s: 10.0,
            ..ElasticConfig::default()
        };
        assert!(inverted.validate().unwrap_err().contains("inverted"));
        // Equal thresholds are a legal (degenerate, zero-width) band.
        let flat = ElasticConfig {
            density_on_per_s: 10.0,
            density_off_per_s: 10.0,
            ..ElasticConfig::default()
        };
        assert!(flat.validate().is_ok());
        let bad_window = ElasticConfig {
            window_us: 0.0,
            ..ElasticConfig::default()
        };
        assert!(bad_window.validate().unwrap_err().contains("window_us"));
        let nan_window = ElasticConfig {
            window_us: f64::NAN,
            ..ElasticConfig::default()
        };
        assert!(nan_window.validate().is_err());
        let nan_density = ElasticConfig {
            density_off_per_s: f64::NAN,
            ..ElasticConfig::default()
        };
        assert!(nan_density.validate().is_err());
        let bad_frac = ElasticConfig {
            same_type_frac: 1.5,
            ..ElasticConfig::default()
        };
        assert!(bad_frac.validate().unwrap_err().contains("same_type_frac"));
        let zero_samples = ElasticConfig {
            min_samples: 0,
            ..ElasticConfig::default()
        };
        assert!(zero_samples.validate().unwrap_err().contains("min_samples"));
    }
}
