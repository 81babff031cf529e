//! Uniform entry point over the four policies.

use crate::policy::{
    clockwork, prema, rta, sjf, split, stream_parallel, PremaCfg, RtaCfg, SplitCfg,
    StreamParallelCfg,
};
use crate::request::{Completion, ModelTable};
use gpu_sim::{BlockEvents, Trace, TransferRecord};
use workload::Arrival;

/// A policy choice with its configuration.
#[derive(Debug, Clone)]
pub enum Policy {
    /// SPLIT (§3).
    Split(SplitCfg),
    /// ClockWork baseline (§5.3).
    ClockWork,
    /// PREMA baseline (§5.3).
    Prema(PremaCfg),
    /// Runtime-Aware baseline (§5.3).
    Rta(RtaCfg),
    /// Native multi-stream concurrency (Figure 1's first lane; not part of
    /// the Figure 6/7 comparison set).
    StreamParallel(StreamParallelCfg),
    /// Shortest-Job-First (classical reference, not a paper comparator).
    Sjf,
}

impl Policy {
    /// Display name used in figures/tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Split(_) => "SPLIT",
            Policy::ClockWork => "ClockWork",
            Policy::Prema(_) => "PREMA",
            Policy::Rta(_) => "RT-A",
            Policy::StreamParallel(_) => "Stream-Parallel",
            Policy::Sjf => "SJF",
        }
    }

    /// The paper's Figure 6/7 comparison set (SPLIT + three baselines)
    /// with default configurations.
    pub fn all_default() -> Vec<Policy> {
        vec![
            Policy::Split(SplitCfg::default()),
            Policy::ClockWork,
            Policy::Prema(PremaCfg::default()),
            Policy::Rta(RtaCfg::default()),
        ]
    }
}

/// The result of serving a trace: completions, the device trace, and a
/// per-request lifecycle recording.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Completed requests in completion order.
    pub completions: Vec<Completion>,
    /// Device execution trace.
    pub trace: Trace,
    /// Lifecycle telemetry. Policies contribute their decision-level
    /// events (preemption decisions, elastic downgrades); [`simulate`]
    /// merges in the uniform events every policy shares — arrivals,
    /// block spans, completions, queue depth, utilization.
    pub recorder: split_telemetry::Recorder,
    /// Flight-recorder snapshot, projected lazily from the lifecycle on
    /// first access — read it through [`SimResult::flight`]. Whether
    /// recording is enabled is still decided at simulate time
    /// ([`attach_lifecycle`] pins the disabled snapshot when
    /// [`split_forensics::flight_enabled`] is off, e.g. under
    /// `SPLIT_FLIGHT=0` or a perfbench off-measurement).
    pub flight: std::sync::OnceLock<split_forensics::FlightSnapshot>,
}

impl SimResult {
    /// Convert completions into metric outcomes.
    pub fn outcomes(&self) -> Vec<qos_metrics::RequestOutcome> {
        self.completions
            .iter()
            .map(Completion::to_outcome)
            .collect()
    }

    /// Derive a metrics registry (decision latency, jump counts, e2e and
    /// wait histograms, …) from the lifecycle recording.
    pub fn metrics(&self) -> split_telemetry::Registry {
        split_telemetry::registry_from_events(&self.recorder)
    }

    /// Rebuild every request's causal span tree (arrival → queue →
    /// blocks → transfers → stalls → completion) from the lifecycle
    /// recording.
    pub fn spans(&self) -> Vec<split_obs::Span> {
        split_obs::build_spans(&self.recorder)
    }

    /// Critical-path attribution for every completed request: e2e
    /// latency decomposed into queue / compute / transfer / stall /
    /// sched components (sum = e2e within 1 ns; linted as `SA301`).
    pub fn attribution(&self) -> Vec<split_obs::Attribution> {
        split_obs::attribute(&self.recorder)
    }

    /// Flight-recorder view of this run: bit-for-bit the bounded-ring
    /// snapshot a quiescent [`split_forensics::FlightRing`] fed every
    /// causal event would return. The projection is computed here, on
    /// first access — the engine already retains the whole lifecycle in
    /// [`SimResult::recorder`], so the always-on recorder adds no work
    /// to the serving path itself (the perfbench on/off pair gates that
    /// at ≤ 5% p50). Live server threads, where writes race, record
    /// through the real ring instead.
    pub fn flight(&self) -> &split_forensics::FlightSnapshot {
        self.flight.get_or_init(|| {
            split_forensics::FlightSnapshot::from_events(
                self.recorder.events(),
                split_forensics::flight_capacity(),
            )
        })
    }

    /// Run the tail-latency forensics pipeline over this result: replay
    /// the SLO monitor, and build one incident bundle per fired
    /// burn-rate alert (outliers sampled, classified, and aggregated
    /// into a verdict).
    pub fn investigate(
        &self,
        cfg: &split_forensics::ForensicsCfg,
    ) -> split_forensics::Investigation {
        split_forensics::investigate(&self.recorder, self.flight(), Some(&self.trace), cfg)
    }

    /// FNV-1a fingerprint of the schedule: every completion's id and
    /// exact start/end bits, in completion order. Two runs produced the
    /// same schedule iff the digests match — the cheap equality the
    /// cluster determinism tests and SA601 compare across thread counts.
    pub fn schedule_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for c in &self.completions {
            eat(c.id);
            eat(c.start_us.to_bits());
            eat(c.end_us.to_bits());
        }
        h
    }

    /// Drift-watch view of this run: replay the lifecycle through a
    /// [`split_watch::DriftWatch`] (windowed sketches + change-point
    /// detectors) and return the finalized report. Like
    /// [`SimResult::flight`], the projection is computed on demand from
    /// the retained recorder, so simulation itself pays nothing for it.
    pub fn drift(&self, cfg: split_watch::WatchCfg) -> split_watch::DriftReport {
        let mut watch = split_watch::DriftWatch::new(cfg);
        for e in self.recorder.events() {
            watch.feed(e);
        }
        watch.finalize();
        watch.report()
    }
}

/// [`event_rank`] of the events the derived runs produce on demand.
const ARRIVAL_RANK: u8 = 0;
const QUEUE_DEPTH_RANK: u8 = 4;
const TRANSFER_RANK: u8 = 7;
const COMPLETION_RANK: u8 = 8;

/// Ordering rank for events sharing a timestamp, so a merged recording
/// satisfies [`split_telemetry::Recorder::validate`]: a request arrives
/// before it is enqueued, a block ends before the next one starts at the
/// same boundary, and completion follows the final block end.
fn event_rank(e: &split_telemetry::Event) -> u8 {
    use split_telemetry::Event as E;
    match e {
        E::Arrival { .. } => ARRIVAL_RANK,
        E::Downgrade { .. } => 1,
        E::PreemptDecision { .. } => 2,
        E::Enqueue { .. } => 3,
        E::QueueDepth { .. } => QUEUE_DEPTH_RANK,
        E::BlockEnd { .. } => 5,
        E::BlockStart { .. } => 6,
        E::Transfer { .. } => TRANSFER_RANK,
        E::Completion { .. } => COMPLETION_RANK,
        E::Utilization { .. } | E::Mark { .. } => 9,
    }
}

/// The recording's order key `(t_us, rank)` packed into one integer:
/// the time maps onto `u64` the way [`f64::total_cmp`] orders it, and the
/// rank fills the low byte, so comparing two keys is comparing
/// `(t_us.total_cmp, rank)`.
fn order_key(t_us: f64, rank: u8) -> u128 {
    let bits = t_us.to_bits() as i64;
    let total = bits ^ (((bits >> 63) as u64) >> 1) as i64;
    let unsigned = (total as u64) ^ (1 << 63);
    (u128::from(unsigned) << 8) | u128::from(rank)
}

/// [`order_key`] of an event: its time, then [`event_rank`].
fn merge_key(e: &split_telemetry::Event) -> u128 {
    order_key(e.t_us(), event_rank(e))
}

fn arrival_key(a: &Arrival) -> u128 {
    order_key(a.arrival_us, ARRIVAL_RANK)
}

fn transfer_key(t: &TransferRecord) -> u128 {
    order_key(t.start_us, TRANSFER_RANK)
}

fn completion_key(c: &Completion) -> u128 {
    order_key(c.end_us, COMPLETION_RANK)
}

fn step_key(step: &(f64, i64)) -> u128 {
    order_key(step.0, QUEUE_DEPTH_RANK)
}

/// One source of the merged recording. The derived sources produce
/// their events on demand instead of filling a vector first.
enum Run<'a> {
    /// Events made up front.
    Events(std::vec::IntoIter<split_telemetry::Event>),
    /// One arrival event per request.
    Arrivals(std::slice::Iter<'a, Arrival>),
    /// The trace's block start/end pairs.
    Blocks(Box<BlockEvents<'a>>),
    /// One transfer event per transfer record of the trace.
    Transfers(std::slice::Iter<'a, TransferRecord>),
    /// One completion event per completed request.
    Completions(std::slice::Iter<'a, Completion>),
    /// The in-system request count after each arrival (+1) and
    /// completion (−1) step.
    QueueDepth {
        steps: std::vec::IntoIter<(f64, i64)>,
        depth: i64,
    },
}

impl Run<'_> {
    /// Key of the next event, if any.
    fn head_key(&self) -> Option<u128> {
        match self {
            Run::Events(it) => it.as_slice().first().map(merge_key),
            Run::Arrivals(it) => it.as_slice().first().map(arrival_key),
            Run::Blocks(it) => it.peek().map(merge_key),
            Run::Transfers(it) => it.as_slice().first().map(transfer_key),
            Run::Completions(it) => it.as_slice().first().map(completion_key),
            Run::QueueDepth { steps, .. } => steps.as_slice().first().map(step_key),
        }
    }

    /// Whether the remaining events are in key order.
    fn in_key_order(&self) -> bool {
        match self {
            Run::Events(it) => it.as_slice().is_sorted_by_key(merge_key),
            Run::Arrivals(it) => it.as_slice().is_sorted_by_key(arrival_key),
            // A block end ranks before a block start, so pairs of spans
            // that run one at a time are in key order.
            Run::Blocks(it) => it.is_sequential(),
            Run::Transfers(it) => it.as_slice().is_sorted_by_key(transfer_key),
            Run::Completions(it) => it.as_slice().is_sorted_by_key(completion_key),
            Run::QueueDepth { steps, .. } => steps.as_slice().is_sorted_by_key(step_key),
        }
    }
}

impl Iterator for Run<'_> {
    type Item = split_telemetry::Event;

    fn next(&mut self) -> Option<split_telemetry::Event> {
        use split_telemetry::Event as E;
        match self {
            Run::Events(it) => it.next(),
            Run::Arrivals(it) => it.next().map(|a| E::Arrival {
                req: a.id,
                model: a.model.clone(),
                t_us: a.arrival_us,
            }),
            Run::Blocks(it) => it.next(),
            Run::Transfers(it) => it.next().map(TransferRecord::event),
            Run::Completions(it) => it.next().map(|c| E::Completion {
                req: c.id,
                t_us: c.end_us,
            }),
            Run::QueueDepth { steps, depth } => steps.next().map(|(t_us, d)| {
                *depth += d;
                E::QueueDepth {
                    depth: (*depth).max(0) as usize,
                    t_us,
                }
            }),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Run::Events(it) => it.size_hint(),
            Run::Arrivals(it) => it.size_hint(),
            Run::Blocks(it) => it.size_hint(),
            Run::Transfers(it) => it.size_hint(),
            Run::Completions(it) => it.size_hint(),
            Run::QueueDepth { steps, .. } => steps.size_hint(),
        }
    }
}

/// Stable k-way merge of `runs` on [`merge_key`]. Ties go to the earlier
/// run, then to the earlier event within it, so the result is exactly
/// what a stable sort of the runs' concatenation returns (DESIGN.md §8).
/// A run that is not already in key order is made and stably sorted
/// first.
fn merge_runs(runs: Vec<Run<'_>>) -> Vec<split_telemetry::Event> {
    let mut heads: Vec<Run<'_>> = Vec::with_capacity(runs.len());
    for run in runs {
        if run.in_key_order() {
            heads.push(run);
        } else {
            let mut events: Vec<_> = run.collect();
            events.sort_by_key(merge_key);
            heads.push(Run::Events(events.into_iter()));
        }
    }
    // Ask for a size class rather than the exact length. The lanes of a
    // fleet record within a few percent of one another, so they ask for
    // one size and each reuses the buffer the last one freed, instead of
    // growing the heap or mapping fresh memory for a slightly larger one.
    let mut out = Vec::with_capacity(size_class(heads.iter().map(|r| r.size_hint().0).sum()));
    // Head keys live apart from the runs so the per-event scan reads one
    // small contiguous array. Removing an exhausted run keeps the others
    // in run order, which the tie rule depends on.
    heads.retain(|r| r.head_key().is_some());
    let mut keys: Vec<u128> = heads.iter().filter_map(Run::head_key).collect();
    while heads.len() > 1 {
        let mut best = 0;
        for (i, &k) in keys.iter().enumerate().skip(1) {
            if k < keys[best] {
                best = i;
            }
        }
        // Keep taking from the chosen run while its head stays strictly
        // below every other run's: no tie can arise, so no rescan is due.
        let bound = (keys.iter().enumerate())
            .filter(|&(i, _)| i != best)
            .map(|(_, &k)| k)
            .min()
            .expect("at least two runs");
        let run = &mut heads[best];
        loop {
            out.extend(run.next());
            match run.head_key() {
                Some(k) if k < bound => {}
                Some(k) => {
                    keys[best] = k;
                    break;
                }
                None => {
                    keys.remove(best);
                    heads.remove(best);
                    break;
                }
            }
        }
    }
    out.extend(heads.into_iter().flatten());
    out
}

/// `n` rounded up to one of eight steps per doubling (exact below 64),
/// so it exceeds `n` by less than 12.5%.
fn size_class(n: usize) -> usize {
    if n < 64 {
        return n;
    }
    let step = 1 << (n.ilog2() - 3);
    n.div_ceil(step) * step
}

/// Number of utilization samples synthesized over a trace's span.
const UTILIZATION_BUCKETS: usize = 64;

/// The lifecycle events as runs for [`merge_runs`], in the run order
/// that breaks its ties: arrivals, block start/end pairs, transfers,
/// completions, queue depth, utilization, and the policy's own decision
/// events. Each run is in key order by construction except the block
/// pairs of a multi-stream trace (and arrivals or completions a caller
/// passes out of time order).
fn lifecycle_runs<'a>(
    arrivals: &'a [Arrival],
    completions: &'a [Completion],
    trace: &'a Trace,
    policy_events: Vec<split_telemetry::Event>,
) -> Vec<Run<'a>> {
    let utilization = {
        let span = trace
            .events()
            .iter()
            .map(|e| e.end_us)
            .fold(None::<f64>, |m, e| Some(m.map_or(e, |m| m.max(e))));
        match span {
            Some(span) => {
                let t0 = trace
                    .events()
                    .iter()
                    .map(|e| e.start_us)
                    .fold(f64::INFINITY, f64::min);
                let bucket = ((span - t0) / UTILIZATION_BUCKETS as f64).max(1.0);
                trace.utilization_series(bucket)
            }
            None => Vec::new(),
        }
    };

    // In-system request count: +1 on arrival, -1 on completion
    // (completions first on ties so an instant never over-counts).
    let mut steps: Vec<(f64, i64)> = Vec::with_capacity(arrivals.len() + completions.len());
    steps.extend(arrivals.iter().map(|a| (a.arrival_us, 1)));
    steps.extend(completions.iter().map(|c| (c.end_us, -1)));
    steps.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    vec![
        Run::Arrivals(arrivals.iter()),
        Run::Blocks(Box::new(trace.block_events())),
        Run::Transfers(trace.transfers().iter()),
        Run::Completions(completions.iter()),
        Run::QueueDepth {
            steps: steps.into_iter(),
            depth: 0,
        },
        Run::Events(utilization.into_iter()),
        Run::Events(policy_events.into_iter()),
    ]
}

/// Rebuild `result.recorder` as the full lifecycle recording: the
/// policy's own decision events plus the uniform events derived from
/// arrivals, the device trace, and completions, merged into
/// `(t_us, event_rank)` order. Every policy goes through [`simulate`],
/// so recordings from SPLIT and the baselines validate and export
/// identically. Public so harnesses that call a policy function directly
/// (e.g. the Figure 3 round-robin ablation) can still produce a full
/// recording.
pub fn attach_lifecycle(arrivals: &[Arrival], mut result: SimResult) -> SimResult {
    let policy_events = std::mem::take(&mut result.recorder).into_events();
    let events = merge_runs(lifecycle_runs(
        arrivals,
        &result.completions,
        &result.trace,
        policy_events,
    ));

    // Pin the recording decision now (scoped `with_flight` overrides
    // end with the caller): off pins the disabled snapshot; on leaves
    // the cell empty for `SimResult::flight` to project lazily.
    if !split_forensics::flight_enabled() {
        let _ = result
            .flight
            .set(split_forensics::FlightSnapshot::disabled());
    }

    result.recorder = split_telemetry::Recorder::from_events(events);
    result
}

/// The policy's own result, before [`attach_lifecycle`].
fn serve(policy: &Policy, arrivals: &[Arrival], models: &ModelTable) -> SimResult {
    match policy {
        Policy::Split(cfg) => split(arrivals, models, cfg),
        Policy::ClockWork => clockwork(arrivals, models),
        Policy::Prema(cfg) => prema(arrivals, models, cfg),
        Policy::Rta(cfg) => rta(arrivals, models, cfg),
        Policy::StreamParallel(cfg) => stream_parallel(arrivals, models, cfg),
        Policy::Sjf => sjf(arrivals, models),
    }
}

/// Serve `arrivals` over `models` with the chosen policy.
pub fn simulate(policy: &Policy, arrivals: &[Arrival], models: &ModelTable) -> SimResult {
    attach_lifecycle(arrivals, serve(policy, arrivals, models))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelRuntime;
    use proptest::prelude::*;
    use split_telemetry::Event;

    #[test]
    fn size_class_rounds_up_by_under_an_eighth() {
        let mut last = 0;
        for n in (0..5_000).chain([65_535, 65_536, 67_791, 1 << 40]) {
            let c = size_class(n);
            assert!(c >= n && c >= last, "{n} -> {c}");
            assert!(n < 64 && c == n || c - n < n / 8, "{n} -> {c}");
            last = c;
        }
        // Lanes a few percent apart share a class.
        assert_eq!(size_class(67_034), size_class(67_791));
    }

    /// The algorithm [`merge_runs`] replaced, kept as its reference: a
    /// stable sort of the runs' concatenation.
    fn sort_concatenation(runs: Vec<Run<'_>>) -> Vec<Event> {
        let mut events: Vec<Event> = runs.into_iter().flatten().collect();
        events.sort_by(|a, b| {
            a.t_us()
                .total_cmp(&b.t_us())
                .then(event_rank(a).cmp(&event_rank(b)))
        });
        events
    }

    /// Every field of `e`, each `f64` compared by its bits: `Debug` tells
    /// every other field apart, and the `f64` fields are `t_us`, a
    /// transfer's `dur_us` and a utilization sample's `busy`.
    fn exact(e: &Event) -> (String, u64, u64) {
        let extra = match e {
            Event::Transfer { dur_us, .. } => dur_us.to_bits(),
            Event::Utilization { busy, .. } => busy.to_bits(),
            _ => 0,
        };
        (format!("{e:?}"), e.t_us().to_bits(), extra)
    }

    fn exact_all<'a>(events: impl IntoIterator<Item = &'a Event>) -> Vec<(String, u64, u64)> {
        events.into_iter().map(exact).collect()
    }

    /// A deployment whose block and execution times are whole
    /// milliseconds, so block boundaries of different requests, and
    /// arrivals on the same grid, land on the same instant.
    fn grid_table() -> impl Strategy<Value = ModelTable> {
        collection::vec((1u32..6, 1usize..4), 1..4).prop_map(|models| {
            let mut t = ModelTable::new();
            for (i, (ms, blocks)) in models.into_iter().enumerate() {
                let block_us = f64::from(ms) * 1_000.0;
                let name = format!("m{i}");
                if blocks == 1 {
                    t.insert(ModelRuntime::vanilla(name, i as u32, block_us));
                } else {
                    let exec = block_us * blocks as f64;
                    t.insert(ModelRuntime::split(
                        name,
                        i as u32,
                        exec,
                        vec![block_us; blocks],
                    ));
                }
            }
            t
        })
    }

    /// Arrivals on a 1 ms grid, many of them simultaneous.
    fn grid_workload() -> impl Strategy<Value = (ModelTable, Vec<Arrival>)> {
        (grid_table(), collection::vec((0u32..25, 0usize..4), 1..40)).prop_map(|(table, raw)| {
            let n = table.len();
            let mut arrivals: Vec<Arrival> = raw
                .into_iter()
                .map(|(slot, m)| Arrival {
                    id: 0,
                    model: format!("m{}", m % n),
                    arrival_us: f64::from(slot) * 1_000.0,
                })
                .collect();
            arrivals.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
            for (i, a) in arrivals.iter_mut().enumerate() {
                a.id = i as u64;
            }
            (table, arrivals)
        })
    }

    /// Every `Policy` variant plus the Figure 3 block round-robin, as the
    /// raw results `attach_lifecycle` receives.
    fn raw_results(arrivals: &[Arrival], table: &ModelTable) -> Vec<(&'static str, SimResult)> {
        let mut policies = Policy::all_default();
        policies.push(Policy::StreamParallel(Default::default()));
        policies.push(Policy::Sjf);
        policies.push(Policy::Split(crate::policy::SplitCfg {
            alpha: 4.0,
            elastic: None,
        }));
        let mut out: Vec<(&'static str, SimResult)> = policies
            .iter()
            .map(|p| (p.name(), serve(p, arrivals, table)))
            .collect();
        out.push((
            "block-RR",
            crate::policy::block_round_robin(arrivals, table),
        ));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The merged recording is the stable sort of the concatenated
        /// runs, event for event and bit for bit, for every policy.
        #[test]
        fn attach_merge_equals_sorted_concatenation((table, arrivals) in grid_workload()) {
            for (name, raw) in raw_results(&arrivals, &table) {
                let expected = sort_concatenation(lifecycle_runs(
                    &arrivals,
                    &raw.completions,
                    &raw.trace,
                    raw.recorder.clone().into_events(),
                ));
                let merged = attach_lifecycle(&arrivals, raw);
                prop_assert_eq!(
                    exact_all(merged.recorder.events()),
                    exact_all(&expected),
                    "{}",
                    name
                );
                prop_assert!(merged.recorder.validate().is_empty(), "{}", name);
            }
        }

        /// Runs with heavy key ties across and within runs, some of them
        /// out of order (the pre-sort and fallback paths), merge to the
        /// stable sort of their concatenation.
        #[test]
        fn merge_runs_is_a_stable_sort(
            runs in collection::vec(
                (collection::vec((0u8..4, 0u8..6, 0u64..1_000), 0..12), 0u8..2),
                0..6,
            ),
            stamps in collection::vec((0u8..4, 0u8..4), 0..12),
            sorted in (0u8..2, 0u8..2),
        ) {
            let runs: Vec<Vec<Event>> = runs
                .into_iter()
                .map(|(raw, sorted)| {
                    let mut run: Vec<Event> = raw
                        .into_iter()
                        .map(|(t, kind, req)| {
                            let t_us = f64::from(t) * 0.5;
                            match kind {
                                0 => Event::Completion { req, t_us },
                                1 => Event::QueueDepth { depth: req as usize, t_us },
                                2 => Event::BlockEnd { req, block: 0, stream: 0, t_us },
                                3 => Event::BlockStart { req, block: 0, stream: 0, t_us },
                                4 => Event::Arrival { req, model: "m".into(), t_us },
                                _ => Event::Utilization { busy: req as f64 / 1e3, t_us },
                            }
                        })
                        .collect();
                    if sorted == 1 {
                        run.sort_by_key(merge_key);
                    }
                    run
                })
                .collect();
            let mut arrivals: Vec<Arrival> = stamps
                .iter()
                .enumerate()
                .map(|(i, &(t, _))| Arrival {
                    id: i as u64,
                    model: "m".into(),
                    arrival_us: f64::from(t) * 0.5,
                })
                .collect();
            let mut completions: Vec<Completion> = stamps
                .iter()
                .enumerate()
                .map(|(i, &(t, dt))| Completion {
                    id: i as u64,
                    model: "m".into(),
                    task: 0,
                    arrival_us: f64::from(t) * 0.5,
                    start_us: f64::from(t) * 0.5,
                    end_us: f64::from(t + dt) * 0.5,
                    exec_us: 1.0,
                })
                .collect();
            if sorted.0 == 1 {
                arrivals.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
            }
            if sorted.1 == 1 {
                completions.sort_by(|a, b| a.end_us.total_cmp(&b.end_us));
            }
            let all = |runs: &[Vec<Event>]| {
                let mut all = vec![
                    Run::Arrivals(arrivals.iter()),
                    Run::Completions(completions.iter()),
                ];
                all.extend(runs.iter().map(|r| Run::Events(r.clone().into_iter())));
                all
            };
            let expected = sort_concatenation(all(&runs));
            prop_assert_eq!(exact_all(&merge_runs(all(&runs))), exact_all(&expected));
        }
    }

    #[test]
    fn merge_key_orders_like_total_cmp() {
        let times = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for &a in &times {
            for &b in &times {
                let ka = merge_key(&Event::Completion { req: 0, t_us: a });
                let kb = merge_key(&Event::Completion { req: 0, t_us: b });
                assert_eq!(ka.cmp(&kb), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    fn table() -> ModelTable {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::vanilla("short", 0, 10_000.0));
        t.insert(ModelRuntime::split("long", 1, 60_000.0, vec![21_000.0; 3]));
        t
    }

    fn arrivals(n: u64) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                id: i,
                model: (if i % 3 == 0 { "long" } else { "short" }).into(),
                arrival_us: i as f64 * 12_000.0,
            })
            .collect()
    }

    #[test]
    fn every_policy_serves_every_request() {
        let a = arrivals(40);
        let t = table();
        for p in Policy::all_default() {
            let r = simulate(&p, &a, &t);
            assert_eq!(r.completions.len(), 40, "{}", p.name());
            let mut ids: Vec<u64> = r.completions.iter().map(|c| c.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..40).collect::<Vec<_>>(), "{}", p.name());
        }
    }

    #[test]
    fn names_are_the_paper_names() {
        let names: Vec<&str> = Policy::all_default().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["SPLIT", "ClockWork", "PREMA", "RT-A"]);
    }

    #[test]
    fn outcomes_match_completions() {
        let a = arrivals(10);
        let r = simulate(&Policy::ClockWork, &a, &table());
        let o = r.outcomes();
        assert_eq!(o.len(), r.completions.len());
        for (c, o) in r.completions.iter().zip(&o) {
            assert_eq!(c.id, o.id);
            assert!((c.response_ratio() - o.response_ratio()).abs() < 1e-12);
        }
    }

    /// The headline qualitative claim of Figure 1: with a short request
    /// arriving behind a long one, SPLIT's short-request latency beats all
    /// three baselines.
    #[test]
    fn split_wins_the_figure1_scenario() {
        let t = table();
        let a = vec![
            Arrival {
                id: 0,
                model: "long".into(),
                arrival_us: 0.0,
            },
            Arrival {
                id: 1,
                model: "short".into(),
                arrival_us: 2_000.0,
            },
        ];
        let e2e = |p: &Policy| {
            simulate(p, &a, &t)
                .completions
                .iter()
                .find(|c| c.id == 1)
                .unwrap()
                .e2e_us()
        };
        let split = e2e(&Policy::Split(crate::policy::SplitCfg {
            alpha: 4.0,
            elastic: None,
        }));
        for p in [
            Policy::ClockWork,
            Policy::Prema(Default::default()),
            Policy::Rta(Default::default()),
        ] {
            assert!(
                split < e2e(&p),
                "SPLIT {} must beat {} {}",
                split,
                p.name(),
                e2e(&p)
            );
        }
    }
}
