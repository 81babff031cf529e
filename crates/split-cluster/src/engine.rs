//! The sharded cluster engine: route, then simulate every lane in
//! parallel, then merge.
//!
//! Each lane is an independent single-stream SPLIT (or baseline)
//! scheduler over its speed-scaled table, so the per-lane simulations
//! share no state and can run on the deterministic `SPLIT_THREADS` pool.
//! Determinism at any thread count follows from three properties:
//!
//! 1. routing is a sequential pass ([`crate::route`]) — the per-lane
//!    sub-traces do not depend on the pool at all;
//! 2. the parallel map collects shard results in lane-index order
//!    (the vendored pool's `ParIter::map` guarantee), so the shard
//!    vector is identical however the work was stolen;
//! 3. every merge (metrics via [`split_telemetry::Registry::merge`],
//!    sketches via [`split_telemetry::QuantileSketch::merge`], the FNV
//!    digest fold) is either order-independent or applied in fixed lane
//!    order over that vector.
//!
//! Memory stays bounded at fleet scale: each shard's full lifecycle
//! recording is reduced to a [`ShardReport`] (completions, aggregate
//! metrics, per-model sketches) inside the parallel closure and the
//! `SimResult` is dropped there — a 1M-request run never holds more
//! than a few shards' raw event streams at once.

use crate::fleet::{Fleet, Placement};
use crate::router::{route, RouteCfg, RouteReport};
use rayon::prelude::*;
use sched::{simulate, Completion, Policy};
use split_obs::DeviceSaturation;
use split_telemetry::{QuantileSketch, Registry};
use std::collections::BTreeMap;
use workload::Arrival;

/// Relative accuracy of the per-model e2e latency sketches.
const SKETCH_ALPHA: f64 = 0.01;

/// One lane's simulation, reduced to what the cluster keeps.
pub struct ShardReport {
    /// Lane index.
    pub lane: usize,
    /// Device the lane belongs to.
    pub device: usize,
    /// Partition index within the device.
    pub stream: usize,
    /// Requests routed to (and completed by) the lane.
    pub routed: u64,
    /// Completions with original trace ids, in completion order.
    pub completions: Vec<Completion>,
    /// FNV-1a fingerprint of the lane's schedule.
    pub digest: u64,
    /// Busy device time, µs.
    pub busy_us: f64,
    /// Lane timeline span (first start to last end), µs.
    pub span_us: f64,
    /// Peak queue depth observed by the lane's scheduler.
    pub queue_peak: i64,
    /// Aggregate lifecycle metrics for the lane.
    pub metrics: Registry,
    /// Per-model end-to-end latency sketches (µs samples).
    pub sketches: BTreeMap<String, QuantileSketch>,
}

/// The merged outcome of a fleet run.
pub struct ClusterResult {
    /// Scheduling policy each lane ran.
    pub policy: String,
    /// Routing telemetry.
    pub route: RouteReport,
    /// Per-lane shard reports, lane-major.
    pub shards: Vec<ShardReport>,
}

impl ClusterResult {
    /// Total requests completed across all shards.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completions.len() as u64).sum()
    }

    /// Cluster-level QoS outcomes, sorted by request id (deterministic
    /// regardless of shard interleaving).
    pub fn outcomes(&self) -> Vec<qos_metrics::RequestOutcome> {
        let mut out: Vec<qos_metrics::RequestOutcome> = self
            .shards
            .iter()
            .flat_map(|s| s.completions.iter().map(Completion::to_outcome))
            .collect();
        out.sort_by_key(|o| o.id);
        out
    }

    /// FNV-1a fold of the per-shard schedule digests in lane order —
    /// the single number two runs must agree on to have produced the
    /// same cluster schedule.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for s in &self.shards {
            eat(s.lane as u64);
            eat(s.digest);
        }
        h
    }

    /// Merge every shard's metrics registry (counters add, gauges take
    /// the peak, histograms fold bucket-wise).
    pub fn merged_metrics(&self) -> Registry {
        let merged = Registry::new();
        for s in &self.shards {
            merged.merge(&s.metrics);
        }
        merged
    }

    /// Merge the per-model latency sketches across shards, in lane
    /// order per model.
    pub fn merged_sketches(&self) -> BTreeMap<String, QuantileSketch> {
        let mut merged: BTreeMap<String, QuantileSketch> = BTreeMap::new();
        for s in &self.shards {
            for (model, sketch) in &s.sketches {
                merged
                    .entry(model.clone())
                    .and_modify(|m| m.merge(sketch))
                    .or_insert_with(|| sketch.clone());
            }
        }
        merged
    }

    /// Longest shard timeline span, µs — the cluster run's makespan.
    pub fn span_us(&self) -> f64 {
        self.shards.iter().map(|s| s.span_us).fold(0.0, f64::max)
    }

    /// Reduce the shards of each device into one saturation row.
    pub fn device_saturation(&self, fleet: &Fleet) -> Vec<DeviceSaturation> {
        fleet
            .devices()
            .iter()
            .enumerate()
            .map(|(device, gpu)| {
                let shards: Vec<&ShardReport> =
                    self.shards.iter().filter(|s| s.device == device).collect();
                let routed = shards.iter().map(|s| s.routed).sum();
                let completed = shards.iter().map(|s| s.completions.len() as u64).sum();
                let busy_us = shards.iter().map(|s| s.busy_us).sum();
                let span_us = shards.iter().map(|s| s.span_us).fold(0.0, f64::max);
                let queue_peak = shards.iter().map(|s| s.queue_peak).max().unwrap_or(0);
                let demand_us: f64 = self
                    .route
                    .lanes
                    .iter()
                    .filter(|l| l.device == device)
                    .map(|l| l.demand_us)
                    .sum();
                let offered_load =
                    demand_us / (gpu.streams.max(1) as f64 * self.route.span_us.max(1.0));
                let mut sketch: Option<QuantileSketch> = None;
                for s in &shards {
                    for m in s.sketches.values() {
                        match &mut sketch {
                            Some(acc) => acc.merge(m),
                            None => sketch = Some(m.clone()),
                        }
                    }
                }
                let (p50, p99) = sketch
                    .as_ref()
                    .filter(|s| s.count() > 0)
                    .map(|s| (s.p50().round() as u64, s.p99().round() as u64))
                    .unwrap_or((0, 0));
                DeviceSaturation {
                    device,
                    class: gpu.class.clone(),
                    streams: gpu.streams,
                    routed,
                    completed,
                    offered_load,
                    busy_us,
                    span_us,
                    queue_peak,
                    p50_e2e_us: p50,
                    p99_e2e_us: p99,
                }
            })
            .collect()
    }
}

/// Reduce one lane's `SimResult` into a [`ShardReport`], remapping the
/// renumbered completions back to original trace ids.
fn summarize(
    lane: usize,
    fleet: &Fleet,
    original_ids: &[u64],
    result: sched::SimResult,
) -> ShardReport {
    let info = fleet.lanes()[lane];
    let metrics = result.metrics();
    let queue_peak = metrics.gauge("queue.depth.peak").get();
    let mut completions = result.completions;
    for c in &mut completions {
        c.id = original_ids[c.id as usize];
    }
    let mut sketches: BTreeMap<String, QuantileSketch> = BTreeMap::new();
    for c in &completions {
        let e2e = c.e2e_us().round() as u64;
        // Allocate the key only on the model's first completion.
        match sketches.get_mut(&*c.model) {
            Some(sketch) => sketch.record(e2e),
            None => {
                let mut sketch = QuantileSketch::new(SKETCH_ALPHA);
                sketch.record(e2e);
                sketches.insert(c.model.to_string(), sketch);
            }
        }
    }
    let (busy_us, span_us) = {
        let events = result.trace.events();
        let busy = events.iter().map(|e| e.duration_us()).sum();
        let start = events
            .iter()
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        let end = events.iter().map(|e| e.end_us).fold(0.0, f64::max);
        (busy, if events.is_empty() { 0.0 } else { end - start })
    };
    // Digest over the remapped completions so it is comparable across
    // routing policies and thread counts.
    let digest = {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for c in &completions {
            eat(c.id);
            eat(c.start_us.to_bits());
            eat(c.end_us.to_bits());
        }
        h
    };
    ShardReport {
        lane,
        device: info.device,
        stream: info.stream,
        routed: original_ids.len() as u64,
        completions,
        digest,
        busy_us,
        span_us,
        queue_peak,
        metrics,
        sketches,
    }
}

/// Serve `arrivals` across the fleet: route with `route_cfg`, run one
/// `policy` scheduler per lane in parallel on the deterministic pool,
/// and merge the shard results.
pub fn simulate_fleet(
    policy: &Policy,
    arrivals: &[Arrival],
    fleet: &Fleet,
    placement: &Placement,
    route_cfg: &RouteCfg,
) -> ClusterResult {
    let outcome = route(arrivals, fleet, placement, route_cfg);
    let report = outcome.report;
    // Renumber each lane's sub-trace to dense local ids (policies may
    // index arrivals by id) and keep the reverse map for the report.
    let shard_inputs: Vec<(usize, Vec<u64>, Vec<Arrival>)> = outcome
        .assignments
        .into_iter()
        .enumerate()
        .map(|(lane, arrs)| {
            let ids: Vec<u64> = arrs.iter().map(|a| a.id).collect();
            let local: Vec<Arrival> = arrs
                .into_iter()
                .enumerate()
                .map(|(i, mut a)| {
                    a.id = i as u64;
                    a
                })
                .collect();
            (lane, ids, local)
        })
        .collect();

    let shards: Vec<ShardReport> = shard_inputs
        .into_par_iter()
        .map(|(lane, ids, arrs)| {
            let result = simulate(policy, &arrs, fleet.lane_table(lane));
            summarize(lane, fleet, &ids, result)
        })
        .collect();

    ClusterResult {
        policy: policy.name().to_string(),
        route: report,
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RoutePolicy;
    use gpu_sim::FleetSpec;
    use sched::{ModelRuntime, ModelTable};

    fn base_table() -> ModelTable {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::vanilla("small", 0, 8_000.0));
        t.insert(ModelRuntime::split("big", 1, 40_000.0, vec![15_000.0; 3]));
        t
    }

    fn arrivals(n: u64, gap_us: f64) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                id: i,
                model: (if i % 3 == 0 { "big" } else { "small" }).to_string(),
                arrival_us: i as f64 * gap_us,
            })
            .collect()
    }

    #[test]
    fn fleet_run_conserves_requests() {
        let fleet = Fleet::new(&FleetSpec::heterogeneous(4), &base_table());
        let placement = Placement::full(&fleet, &base_table());
        let a = arrivals(240, 1_500.0);
        for policy in RoutePolicy::all() {
            let res = simulate_fleet(
                &Policy::Split(Default::default()),
                &a,
                &fleet,
                &placement,
                &RouteCfg { policy, seed: 9 },
            );
            assert_eq!(res.completed(), 240, "{}", policy.name());
            let outcomes = res.outcomes();
            let ids: Vec<u64> = outcomes.iter().map(|o| o.id).collect();
            assert_eq!(ids, (0..240).collect::<Vec<_>>(), "{}", policy.name());
        }
    }

    #[test]
    fn merged_metrics_count_every_request() {
        let fleet = Fleet::new(&FleetSpec::heterogeneous(4), &base_table());
        let placement = Placement::full(&fleet, &base_table());
        let a = arrivals(150, 2_000.0);
        let res = simulate_fleet(
            &Policy::Split(Default::default()),
            &a,
            &fleet,
            &placement,
            &RouteCfg::default(),
        );
        let merged = res.merged_metrics();
        assert_eq!(merged.counter("requests.arrived").get(), 150);
        assert_eq!(merged.counter("requests.completed").get(), 150);
        assert_eq!(merged.histogram("request.e2e_us").count(), 150);
        let total_sketch: u64 = res.merged_sketches().values().map(|s| s.count()).sum();
        assert_eq!(total_sketch, 150);
    }

    #[test]
    fn same_inputs_same_digest_different_policy_not() {
        let fleet = Fleet::new(&FleetSpec::heterogeneous(4), &base_table());
        let placement = Placement::full(&fleet, &base_table());
        let a = arrivals(200, 1_200.0);
        let cfg = RouteCfg::default();
        let split = Policy::Split(Default::default());
        let x = simulate_fleet(&split, &a, &fleet, &placement, &cfg);
        let y = simulate_fleet(&split, &a, &fleet, &placement, &cfg);
        assert_eq!(x.digest(), y.digest());
        let z = simulate_fleet(&Policy::ClockWork, &a, &fleet, &placement, &cfg);
        assert_ne!(x.digest(), z.digest(), "schedules should differ");
    }

    #[test]
    fn device_saturation_covers_every_device() {
        let fleet = Fleet::new(&FleetSpec::heterogeneous(4), &base_table());
        let placement = Placement::full(&fleet, &base_table());
        let a = arrivals(200, 1_500.0);
        let res = simulate_fleet(
            &Policy::Split(Default::default()),
            &a,
            &fleet,
            &placement,
            &RouteCfg::default(),
        );
        let rows = res.device_saturation(&fleet);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows.iter().map(|r| r.routed).sum::<u64>(), 200);
        assert_eq!(rows.iter().map(|r| r.completed).sum::<u64>(), 200);
        for r in &rows {
            assert!(r.utilization() >= 0.0 && r.utilization() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn empty_lanes_are_harmless() {
        // A tiny trace on a big fleet leaves most lanes empty.
        let fleet = Fleet::new(&FleetSpec::heterogeneous(8), &base_table());
        let placement = Placement::full(&fleet, &base_table());
        let a = arrivals(3, 50_000.0);
        let res = simulate_fleet(
            &Policy::Split(Default::default()),
            &a,
            &fleet,
            &placement,
            &RouteCfg::default(),
        );
        assert_eq!(res.completed(), 3);
        assert!(res.shards.iter().any(|s| s.routed == 0));
    }
}
