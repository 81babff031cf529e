//! Every call splitbench makes into the SPLIT reproduction.
//!
//! The other modules time, check and report; only this one names the
//! program's functions, so a later change to a public entry point meets
//! the benchmark here and nowhere else. The untraced operations go
//! through the public entry points (`simulate`, `simulate_fleet`,
//! `Client::infer`); their `_traced` twins call the stage functions
//! behind those entry points one at a time, each inside a span.

use crate::spans::Tracer;
use rand::prelude::*;
use split_repro::experiment;
use split_repro::gpu_sim::{DeviceConfig, FleetSpec};
use split_repro::model_zoo::benchmark_models;
use split_repro::qos_metrics::violation_rate;
use split_repro::sched::policy::{self, SplitCfg};
use split_repro::sched::{attach_lifecycle, simulate, ModelTable, Policy, SimResult};
use split_repro::split_analyze::{lint_attribution, lint_cluster, lint_schedule, ScheduleLintCfg};
use split_repro::split_cluster::{
    mean_exec_us, route, simulate_fleet, ClusterResult, Fleet, Placement, RouteCfg, ShardReport,
};
use split_repro::split_core::{PlanSet, SplitPlan};
use split_repro::split_runtime::ServerConfig;
use split_repro::split_telemetry::{Event, QuantileSketch, Recorder};
use split_repro::split_watch::WatchCfg;
use split_repro::workload::PoissonGen;
use std::collections::BTreeMap;
use std::hint::black_box;

pub use split_repro::split_runtime::{Deployment, Server};
use split_repro::split_runtime::{InferenceReply, RequestStatus};
pub use split_repro::workload::Arrival;

/// The latency-target multiplier the paper scores violations at.
pub const ALPHA: f64 = 4.0;

/// FNV-1a over 64-bit words: the digest the program itself uses.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

// -------------------------------------------------------------------- pool

/// Workers the program's pool uses by default: `SPLIT_THREADS`, else the
/// core count.
pub fn pool_width() -> usize {
    split_repro::rayon::current_threads()
}

/// Run `f` with the program's pool pinned to `workers`.
pub fn with_pool<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    split_repro::rayon::with_threads(workers, f)
}

// ---------------------------------------------------------------- workload

/// Poisson arrivals with uniformly drawn paper models, generated the way
/// `RequestTrace::generate` does (a `PoissonGen` for times and a separate
/// `StdRng` for models) but from the benchmark's own seed.
pub fn arrivals(lambda_us: f64, count: usize, seed: u64) -> Vec<Arrival> {
    let models = &experiment::PAPER_MODEL_NAMES;
    let mut times = PoissonGen::new(lambda_us, seed);
    let mut pick = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..count)
        .map(|i| Arrival {
            id: i as u64,
            model: models[pick.random_range(0..models.len())].to_string(),
            arrival_us: times.next_arrival_us(),
        })
        .collect()
}

// ------------------------------------------------------------------- setup

/// The paper deployment: calibrate the five models and GA-split the long
/// ones (the offline stage every workload starts from).
pub fn deployment() -> Deployment {
    experiment::paper_deployment(&DeviceConfig::jetson_nano())
}

/// [`deployment`] one model at a time, with calibration and planning in
/// separate spans.
pub fn deployment_traced(t: &mut Tracer) -> Deployment {
    let dev = DeviceConfig::jetson_nano();
    let mut plans = PlanSet::new();
    for (i, id) in benchmark_models().into_iter().enumerate() {
        let graph = t.span("model-zoo.calibrate", i as u64, |_| {
            id.build_calibrated(&dev)
        });
        let plan = t.span("split-core.plan", i as u64, |_| {
            if experiment::SPLIT_MODELS.contains(&id) {
                SplitPlan::offline(&graph, &dev, 2..=4, experiment::OFFLINE_SEED).0
            } else {
                SplitPlan::vanilla(&graph, &dev)
            }
        });
        plans.insert(plan);
    }
    let mut d = Deployment::new();
    d.deploy_all(&plans);
    d
}

/// Whether two deployments serve identical model tables.
pub fn same_deployment(a: &Deployment, b: &Deployment) -> bool {
    a.table().iter().eq(b.table().iter())
}

// ---------------------------------------------------- paper-fig6: policies

/// The paper's comparison set: SPLIT, ClockWork, PREMA, RT-A.
pub fn paper_policies() -> Vec<Policy> {
    Policy::all_default()
}

/// One paper-fig6 operation: serve the trace with every policy through
/// `simulate`, project SPLIT's result (metrics snapshot, attribution,
/// drift), and score all four. Returns the folded schedule digest.
pub fn fig6_op(arrivals: &[Arrival], d: &Deployment, policies: &[Policy]) -> u64 {
    let mut digest = Fnv::new();
    for p in policies {
        let r = simulate(p, arrivals, d.table());
        digest.eat(r.schedule_digest());
        if matches!(p, Policy::Split(_)) {
            black_box(r.metrics().snapshot());
            black_box(r.attribution());
            black_box(r.drift(WatchCfg::default()));
        }
        black_box(violation_rate(&r.outcomes(), ALPHA));
    }
    digest.finish()
}

/// A paper policy's scheduling loop alone, without the lifecycle attach
/// that `simulate` adds, in a span named after the policy.
fn traced_policy(
    t: &mut Tracer,
    iter: u64,
    p: &Policy,
    arrivals: &[Arrival],
    table: &ModelTable,
) -> SimResult {
    match p {
        Policy::Split(cfg) => t.span("sched.split", iter, |_| policy::split(arrivals, table, cfg)),
        Policy::ClockWork => t.span("sched.clockwork", iter, |_| {
            policy::clockwork(arrivals, table)
        }),
        Policy::Prema(cfg) => t.span("sched.prema", iter, |_| policy::prema(arrivals, table, cfg)),
        Policy::Rta(cfg) => t.span("sched.rta", iter, |_| policy::rta(arrivals, table, cfg)),
        other => unreachable!("{} is not one of the paper's policies", other.name()),
    }
}

/// Counts read from SPLIT's lifecycle recording.
#[derive(Clone, Copy, Default)]
pub struct SchedCounts {
    pub events: u64,
    pub queue_peak: u64,
    pub decisions: u64,
    pub comparisons: u64,
}

impl SchedCounts {
    fn of(rec: &Recorder) -> Self {
        let mut c = SchedCounts {
            events: rec.len() as u64,
            ..Default::default()
        };
        for e in rec.events() {
            match e {
                Event::QueueDepth { depth, .. } => c.queue_peak = c.queue_peak.max(*depth as u64),
                Event::PreemptDecision { comparisons, .. } => {
                    c.decisions += 1;
                    c.comparisons += *comparisons as u64;
                }
                _ => {}
            }
        }
        c
    }

    /// Mean greedy-preemption comparisons per decision.
    pub fn comparisons_per_decision(&self) -> f64 {
        self.comparisons as f64 / self.decisions.max(1) as f64
    }

    pub fn add(&mut self, o: SchedCounts) {
        self.events += o.events;
        self.queue_peak = self.queue_peak.max(o.queue_peak);
        self.decisions += o.decisions;
        self.comparisons += o.comparisons;
    }
}

/// [`fig6_op`] stage by stage: each policy loop, each lifecycle attach,
/// each projection, each scoring and each result's drop in its own span.
/// With `counts`, also counts SPLIT's lifecycle recording (untimed use
/// only: the count is not part of the operation).
pub fn fig6_op_traced(
    t: &mut Tracer,
    iter: u64,
    arrivals: &[Arrival],
    d: &Deployment,
    policies: &[Policy],
    mut counts: Option<&mut SchedCounts>,
) -> u64 {
    t.span("paper-fig6.iter", iter, |t| {
        let mut digest = Fnv::new();
        for p in policies {
            let raw = traced_policy(t, iter, p, arrivals, d.table());
            let r = t.span("sched.attach", iter, |_| attach_lifecycle(arrivals, raw));
            digest.eat(r.schedule_digest());
            if matches!(p, Policy::Split(_)) {
                if let Some(c) = counts.as_deref_mut() {
                    c.add(SchedCounts::of(&r.recorder));
                }
                t.span("split-telemetry.metrics", iter, |_| {
                    black_box(r.metrics().snapshot())
                });
                t.span("split-obs.attribution", iter, |_| {
                    black_box(r.attribution())
                });
                t.span("split-watch.drift", iter, |_| {
                    black_box(r.drift(WatchCfg::default()))
                });
            }
            t.span("qos-metrics.score", iter, |_| {
                black_box(violation_rate(&r.outcomes(), ALPHA))
            });
            t.span("sched.drop", iter, |_| drop(r));
        }
        digest.finish()
    })
}

/// What the correctness pass over one simulation input found.
pub struct Checked {
    /// Schedule digest the measured operation must reproduce.
    pub digest: u64,
    /// Response ratios of SPLIT's requests.
    pub rr: Vec<f64>,
    /// Requests served within the latency target (response ratio ≤ α),
    /// over every schedule the operation computes.
    pub met: usize,
    /// One message per failed check.
    pub failures: Vec<String>,
}

/// How many of `ratios` are within the latency target.
fn within_target(ratios: impl Iterator<Item = f64>) -> usize {
    ratios.filter(|&rr| rr <= ALPHA).count()
}

/// The untimed correctness pass over one trace: every policy's schedule
/// is linted with the configuration `bench::verify_schedule` uses, plus
/// the attribution lint.
pub fn fig6_check(arrivals: &[Arrival], d: &Deployment, policies: &[Policy]) -> Checked {
    let mut digest = Fnv::new();
    let (mut rr, mut met, mut failures) = (Vec::new(), 0, Vec::new());
    for p in policies {
        let r = simulate(p, arrivals, d.table());
        digest.eat(r.schedule_digest());
        met += within_target(r.completions.iter().map(|c| c.response_ratio()));
        let cfg = match p {
            Policy::Split(_) => ScheduleLintCfg::block_granular(d.table()),
            Policy::Rta(_) => ScheduleLintCfg::concurrent(d.table()),
            _ => ScheduleLintCfg::structural(d.table()),
        };
        let mut report = lint_schedule(arrivals, &r, &cfg);
        report.merge(lint_attribution(&r));
        if !report.is_empty() {
            failures.push(format!("{}: {}", p.name(), report.render_text()));
        }
        if r.completions.len() != arrivals.len() {
            failures.push(format!(
                "{}: {} of {} requests completed",
                p.name(),
                r.completions.len(),
                arrivals.len()
            ));
        }
        if matches!(p, Policy::Split(_)) {
            rr = r.completions.iter().map(|c| c.response_ratio()).collect();
        }
    }
    Checked {
        digest: digest.finish(),
        rr,
        met,
        failures,
    }
}

// ------------------------------------------------------ fleets: the cluster

/// A fleet with every model placed on every device, over the paper
/// deployment.
pub struct FleetSetup {
    pub deployment: Deployment,
    fleet: Fleet,
    placement: Placement,
}

impl FleetSetup {
    pub fn new(spec: &str) -> Self {
        let deployment = deployment();
        let spec = FleetSpec::parse(spec).expect("benchmark fleet spec parses");
        let fleet = Fleet::new(&spec, deployment.table());
        let placement = Placement::full(&fleet, deployment.table());
        Self {
            deployment,
            fleet,
            placement,
        }
    }

    pub fn lanes(&self) -> usize {
        self.fleet.lanes().len()
    }

    /// Mean Poisson gap, µs, that offers `jetson_units` Jetson Nanos'
    /// worth of work with the paper's uniform model mix.
    pub fn interval_us(&self, jetson_units: f64) -> f64 {
        mean_exec_us(self.deployment.table()) / jetson_units
    }
}

fn split_policy() -> Policy {
    Policy::Split(SplitCfg::default())
}

/// One fleet operation: `simulate_fleet` with SPLIT on every lane, then
/// the cluster-level merges a reader of the result performs. Returns the
/// cluster schedule digest.
pub fn fleet_op(arrivals: &[Arrival], s: &FleetSetup) -> u64 {
    let r = simulate_fleet(
        &split_policy(),
        arrivals,
        &s.fleet,
        &s.placement,
        &RouteCfg::default(),
    );
    black_box(r.merged_metrics().snapshot());
    black_box(r.merged_sketches());
    r.digest()
}

/// [`fleet_op`] stage by stage on one thread: route, then each lane's
/// SPLIT loop, lifecycle attach, metrics projection and shard summary,
/// then the merges. With `counts`, also counts every lane's lifecycle
/// recording (untimed use only).
pub fn fleet_op_traced(
    t: &mut Tracer,
    iter: u64,
    arrivals: &[Arrival],
    s: &FleetSetup,
    mut counts: Option<&mut SchedCounts>,
) -> u64 {
    let cfg = SplitCfg::default();
    t.span("fleet.iter", iter, |t| {
        let (report, lanes) = t.span("split-cluster.route", iter, |_| {
            let outcome = route(arrivals, &s.fleet, &s.placement, &RouteCfg::default());
            // simulate_fleet renumbers each lane's sub-trace to dense
            // local ids and keeps the originals for the shard report.
            let lanes: Vec<(Vec<u64>, Vec<Arrival>)> = outcome
                .assignments
                .into_iter()
                .map(|arrs| {
                    let ids = arrs.iter().map(|a| a.id).collect();
                    let local = arrs
                        .into_iter()
                        .enumerate()
                        .map(|(i, a)| Arrival { id: i as u64, ..a })
                        .collect();
                    (ids, local)
                })
                .collect();
            (outcome.report, lanes)
        });
        let shards: Vec<ShardReport> = lanes
            .into_iter()
            .enumerate()
            .map(|(lane, (ids, arrs))| {
                t.span("split-cluster.lane", lane as u64, |t| {
                    let table = s.fleet.lane_table(lane);
                    let raw = t.span("sched.split", lane as u64, |_| {
                        policy::split(&arrs, table, &cfg)
                    });
                    let r = t.span("sched.attach", lane as u64, |_| {
                        attach_lifecycle(&arrs, raw)
                    });
                    if let Some(c) = counts.as_deref_mut() {
                        c.add(SchedCounts::of(&r.recorder));
                    }
                    let metrics = t.span("split-telemetry.metrics", lane as u64, |_| r.metrics());
                    t.span("split-cluster.summarize", lane as u64, |_| {
                        shard_report(lane, &s.fleet, &ids, r, metrics)
                    })
                })
            })
            .collect();
        let result = ClusterResult {
            policy: split_policy().name().to_string(),
            route: report,
            shards,
        };
        t.span("split-cluster.merge", iter, |_| {
            black_box(result.merged_metrics().snapshot());
            black_box(result.merged_sketches());
        });
        result.digest()
    })
}

/// The shard summary `simulate_fleet` builds for each lane (private to
/// the engine, so rebuilt here from public pieces; the traced digest is
/// checked against the untraced one, which pins the two together).
fn shard_report(
    lane: usize,
    fleet: &Fleet,
    ids: &[u64],
    r: SimResult,
    metrics: split_repro::split_telemetry::Registry,
) -> ShardReport {
    let info = fleet.lanes()[lane];
    let queue_peak = metrics.gauge("queue.depth.peak").get();
    let mut completions = r.completions;
    for c in &mut completions {
        c.id = ids[c.id as usize];
    }
    let mut sketches: BTreeMap<String, QuantileSketch> = BTreeMap::new();
    let mut digest = Fnv::new();
    for c in &completions {
        sketches
            .entry(c.model.to_string())
            .or_default()
            .record(c.e2e_us().round() as u64);
        digest.eat(c.id);
        digest.eat(c.start_us.to_bits());
        digest.eat(c.end_us.to_bits());
    }
    let events = r.trace.events();
    let busy_us = events.iter().map(|e| e.duration_us()).sum();
    let start = events
        .iter()
        .map(|e| e.start_us)
        .fold(f64::INFINITY, f64::min);
    let end = events.iter().map(|e| e.end_us).fold(0.0, f64::max);
    ShardReport {
        lane,
        device: info.device,
        stream: info.stream,
        routed: ids.len() as u64,
        completions,
        digest: digest.finish(),
        busy_us,
        span_us: if events.is_empty() { 0.0 } else { end - start },
        queue_peak,
        metrics,
        sketches,
    }
}

/// The untimed correctness pass over a fleet run: the SA601–SA603
/// cluster lints. SA603 (a lane offered more than it can serve) is the
/// premise of an oversubscribed fleet, so there it must fire, and
/// anywhere else it must not.
pub fn fleet_check(arrivals: &[Arrival], s: &FleetSetup, oversubscribed: bool) -> Checked {
    let r = simulate_fleet(
        &split_policy(),
        arrivals,
        &s.fleet,
        &s.placement,
        &RouteCfg::default(),
    );
    let report = lint_cluster(arrivals, &s.fleet, &s.placement, &r);
    let saturated = report.with_code("SA603").len();
    let mut failures = Vec::new();
    if report.len() > saturated {
        failures.push(report.render_text());
    }
    if oversubscribed && saturated == 0 {
        failures.push("SA603 did not fire: the fleet is not oversubscribed".into());
    }
    if !oversubscribed && saturated > 0 {
        failures.push(report.render_text());
    }
    let rr: Vec<f64> = r.outcomes().iter().map(|o| o.response_ratio()).collect();
    Checked {
        digest: r.digest(),
        met: within_target(rr.iter().copied()),
        rr,
        failures,
    }
}

// ----------------------------------------------------------- live: runtime

/// The paper deployment served by the threaded runtime with its default
/// configuration: α = 4, elastic splitting on, clock compression 100.
pub fn start_server(d: Deployment) -> Server {
    Server::start(d, ServerConfig::default())
}

/// Simulated time per wall time on the server's clock.
pub fn compression(server: &Server) -> f64 {
    server.clock().compression()
}

/// Wall time the executor has spent busy-spinning, ns.
pub fn spin_ns(server: &Server) -> u64 {
    server.clock().spin_ns()
}

/// What the benchmark keeps of one reply; times are simulated µs.
pub struct Reply {
    /// Served to completion (not dropped, channel not disconnected).
    pub completed: bool,
    pub response_ratio: f64,
    pub arrival_us: f64,
    pub start_us: f64,
    pub end_us: f64,
    /// For a request run as a single block: completion minus start minus
    /// the model's isolated execution time.
    pub single_block_overrun_us: Option<f64>,
}

impl Reply {
    fn of(r: Option<InferenceReply>) -> Self {
        match r {
            Some(r) => Reply {
                completed: r.status == RequestStatus::Completed,
                response_ratio: r.response_ratio(),
                arrival_us: r.arrival_us,
                start_us: r.start_us,
                end_us: r.end_us,
                single_block_overrun_us: (r.blocks_run == 1)
                    .then_some(r.end_us - r.start_us - r.exec_us),
            },
            None => Reply {
                completed: false,
                response_ratio: f64::NAN,
                arrival_us: f64::NAN,
                start_us: f64::NAN,
                end_us: f64::NAN,
                single_block_overrun_us: None,
            },
        }
    }
}

/// One open-loop stream against the live server.
pub struct Stream {
    /// Wall µs from each measured untraced request's due time to `infer`
    /// returning.
    pub admit_us: Vec<f64>,
    /// The same for the measured requests sent inside a span.
    pub traced_admit_us: Vec<f64>,
    /// Wall µs by which the pacer sent each measured request late.
    pub late_us: Vec<f64>,
    /// Every request's reply, warmup included.
    pub replies: Vec<Reply>,
}

/// Send `arrivals` open-loop, measuring from the `warmup`-th on: the
/// pacer spins on the server clock until each request is due (the first
/// `lead_us` simulated µs from now), calls `Client::infer`, and collects
/// every reply after the last send. With a tracer, every other `infer`
/// call is a span, so traced and untraced sends share the host's state.
pub fn live_stream(
    server: &Server,
    arrivals: &[Arrival],
    warmup: usize,
    lead_us: f64,
    mut t: Option<&mut Tracer>,
) -> Stream {
    let client = server.client();
    let clock = server.clock();
    let compression = clock.compression();
    let base = clock.now_us() + lead_us;
    let mut pending = Vec::with_capacity(arrivals.len());
    let mut s = Stream {
        admit_us: Vec::with_capacity(arrivals.len()),
        traced_admit_us: Vec::new(),
        late_us: Vec::with_capacity(arrivals.len()),
        replies: Vec::new(),
    };
    for (i, a) in arrivals.iter().enumerate() {
        let due = base + a.arrival_us;
        let mut now = clock.now_us();
        while now < due {
            std::hint::spin_loop();
            now = clock.now_us();
        }
        let (rx, traced) = match t.as_deref_mut() {
            Some(t) if i % 2 == 1 => (
                t.span("split-runtime.infer", i as u64, |_| client.infer(&a.model)),
                true,
            ),
            _ => (client.infer(&a.model), false),
        };
        if i >= warmup {
            let admit = (clock.now_us() - due) / compression;
            s.late_us.push((now - due) / compression);
            if traced {
                s.traced_admit_us.push(admit);
            } else {
                s.admit_us.push(admit);
            }
        }
        pending.push(rx);
    }
    s.replies = pending
        .into_iter()
        .map(|rx| Reply::of(rx.recv().ok()))
        .collect();
    s
}

/// What the benchmark keeps of the server's shutdown report.
pub struct LiveReport {
    pub decision_p50_ns: u64,
    pub decision_p99_ns: u64,
    /// Counts over the server's (ring-bounded) lifecycle recording.
    pub counts: SchedCounts,
    /// Structural violations in that recording.
    pub recording_errors: Vec<String>,
}

pub fn shutdown(server: Server) -> LiveReport {
    let report = server.shutdown();
    LiveReport {
        decision_p50_ns: report.p50_decision_ns,
        decision_p99_ns: report.p99_decision_ns,
        counts: SchedCounts::of(&report.recorder),
        recording_errors: recording_errors(&report.recorder),
    }
}

/// Structural violations in a server's lifecycle recording. The server
/// records into a bounded ring; once it has evicted a request's arrival,
/// that request's remaining events cannot be checked, so only requests
/// whose arrival survived (and the device-level samples) are validated.
fn recording_errors(rec: &Recorder) -> Vec<String> {
    if rec.dropped() == 0 {
        return rec.validate();
    }
    let whole: std::collections::BTreeSet<u64> = rec
        .events()
        .filter_map(|e| match e {
            Event::Arrival { req, .. } => Some(*req),
            _ => None,
        })
        .collect();
    let kept = rec
        .events()
        .filter(|e| e.req().is_none_or(|r| whole.contains(&r)))
        .cloned()
        .collect();
    Recorder::from_events(kept).validate()
}
