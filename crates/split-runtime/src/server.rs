//! The threaded SPLIT server (paper §4, Figure 4).
//!
//! All scheduler state is one [`SplitMachine`] — the simulator's decision
//! code — owned by a single flat-combining decision core
//! ([`crate::combiner::CombiningCore`]). There is no responder thread and
//! no condvar; the handlers only add clock reads, timing, telemetry and
//! replies:
//!
//! * **clients** publish `Infer` operations (the private `CoreOp` enum)
//!   into cache-padded
//!   combining slots from their own threads; whichever thread currently
//!   combines stamps the arrival and admits it to the machine (timing
//!   both the admission and the client-visible publish→apply latency);
//! * the **token-assigner/executor** thread publishes `NextBlock`
//!   operations: each grants the device token to
//!   the queue head for one block (a clock-compressed sleep standing in
//!   for the GPU kernel launches) and retires the previous block,
//!   completing requests whose last block finished.
//!
//! Preemption therefore happens exactly at block boundaries: whoever the
//! scheduler moved to the head while a block was in flight gets the token
//! next. Replies travel on per-request channels as soon as the last block
//! completes — the asynchronous read/write split of §4.2.
//!
//! Shutdown is two-phase and cannot lose accepted work: the ingest gate
//! closes first (new `infer` calls observe a disconnected reply channel),
//! then the core is marked closed under the combiner discipline, which
//! drains every already-published request before the flag lands. An
//! `infer` that returned has *by construction* been decided — the old
//! channel design's drop window (a send landing after the shutdown drain
//! observed `Empty`) no longer exists.

use crate::clock::SimClock;
use crate::combiner::CombiningCore;
use crate::deployment::Deployment;
use crate::messages::{InferenceReply, RequestStatus};
use crate::stats::DecisionStats;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use sched::policy::{SplitCfg, SplitMachine};
use split_core::ElasticController;
use split_forensics::{FlightKind, FlightRing, FlightSnapshot, ForensicsCfg, IncidentBundle};
use split_obs::slo::AlertSource;
use split_obs::{AlertLog, SloCfg, SloMonitor};
use split_telemetry::{Event, Recorder, RecorderMode, SharedRecorder};
use split_watch::{DriftReport, DriftWatch, WatchCfg};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Ring capacity for the server's lifecycle recorder: enough for
/// thousands of in-flight requests (≈6 events each) while bounding a
/// long-running server's memory. Evictions are counted, not silent.
const RECORDER_RING: usize = 65_536;

/// How long the executor parks on an idle queue before re-polling. A
/// backstop only — the combiner explicitly unparks it on arrival.
const EXECUTOR_PARK: Duration = Duration::from_micros(200);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Latency-target multiplier α for response-ratio comparisons.
    pub alpha: f64,
    /// Elastic-splitting thresholds (`None` = always split).
    pub elastic: Option<split_core::ElasticConfig>,
    /// Clock compression (simulated time vs wall time).
    pub compression: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            alpha: 4.0,
            elastic: Some(split_core::ElasticConfig::default()),
            compression: 100.0,
        }
    }
}

/// Everything the decision core owns. Only the current combiner touches
/// it; there is no finer-grained locking inside.
struct CoreState {
    /// Each request's payload is its reply channel.
    machine: SplitMachine<Sender<InferenceReply>>,
    closed: bool,
    next_id: u64,
    accepted: u64,
    served: u64,
    /// The executor thread, for idle wakeups.
    executor: Option<Thread>,
    /// Set when the executor was told `Idle`; the next accepted arrival
    /// clears it and unparks the executor.
    executor_idle: bool,
}

/// Operations clients and the executor publish into combining slots.
enum CoreOp {
    /// A client inference request.
    Infer {
        model: String,
        reply: Sender<InferenceReply>,
    },
    /// The executor asking for the next block, retiring the one it just
    /// ran (if any).
    NextBlock { finished: Option<BlockGrant> },
}

/// The device-token grant handed to the executor, and handed back once
/// it slept through the block.
struct BlockGrant {
    id: u64,
    block: usize,
    blk_us: f64,
}

/// Responses written back through the slots.
enum CoreResp {
    /// Request decided (enqueued, or replied `Dropped` for an unknown
    /// model).
    Accepted,
    /// Ingest already closed; the dropped reply sender tells the client.
    Rejected,
    /// Executor: run this block.
    Run(BlockGrant),
    /// Executor: queue empty, park until an arrival unparks you.
    Idle,
    /// Executor: queue empty and server closed — exit.
    Done,
}

type Core = CombiningCore<CoreOp, CoreResp, CoreState>;

struct Shared {
    clock: SimClock,
    decisions: DecisionStats,
    recorder: SharedRecorder,
    /// Burn-rate SLO monitor, fed on every completion; observable live
    /// via [`Server::alerts`] and in the shutdown report.
    slo: Mutex<SloMonitor>,
    /// Streaming drift watch, fed by the combiner (arrivals, judged
    /// completions, downgrades). Regime events it emits are forwarded
    /// into the SLO alert log as informational alerts.
    drift: Mutex<DriftWatch>,
    /// Always-on flight recorder: every causal event also lands here as
    /// a compact lock-free record.
    flight: FlightRing,
    /// Flight history frozen the instant each burn-rate alert fired, so
    /// it survives even if the ring wraps before shutdown.
    frozen: Mutex<FrozenFlight>,
    /// Phase 1 of shutdown: once set, `infer` returns a disconnected
    /// reply channel without publishing.
    ingest_closed: AtomicBool,
    /// Test hook: nanoseconds each combined `Infer` spins before the
    /// decision, simulating a slow combiner pass (see
    /// [`Server::set_combiner_stall_ns`]).
    combiner_stall_ns: AtomicU64,
}

/// Flight records frozen at burn-rate alert fires. Each freeze copies
/// only what an incident bundle can scope and no earlier freeze holds:
/// the records appended since the previous freeze that fall in the new
/// alert's window (from `fired − slow window` on) or in the previous
/// burn-rate alert's window (its post-fire part). So memory grows with
/// the incident windows, not by a whole ring per alert.
#[derive(Default)]
struct FrozenFlight {
    /// Ring records (of its epoch) that earlier freezes have looked at.
    seen: u64,
    snapshots: Vec<FlightSnapshot>,
}

impl FrozenFlight {
    fn freeze(&mut self, ring: &FlightRing, scope: FreezeScope) {
        let snap = ring.snapshot_since(self.seen, |r| {
            r.t_us >= scope.from_us || r.t_us <= scope.prev_end_us
        });
        self.seen = snap.appended;
        self.snapshots.push(snap);
    }
}

/// The time ranges a freeze keeps (see [`FrozenFlight`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FreezeScope {
    /// Start of the newly fired alert's bundle window.
    from_us: f64,
    /// End of the previous burn-rate alert's bundle window (−∞ if none).
    prev_end_us: f64,
}

impl FreezeScope {
    /// Scope for the burn-rate alert that just fired, the last one in
    /// `log`. The windows are those `bundles_for_alerts` scopes.
    fn of(log: &AlertLog, slow_window_us: f64) -> Self {
        let mut burns = log
            .alerts
            .iter()
            .rev()
            .filter(|a| a.source == AlertSource::BurnRate);
        let fired = burns.next().expect("a burn-rate alert fired");
        FreezeScope {
            from_us: (fired.fired_at_us - slow_window_us).max(0.0),
            prev_end_us: burns.next().map_or(f64::NEG_INFINITY, |a| {
                a.resolved_at_us.unwrap_or(a.fired_at_us).max(a.fired_at_us)
            }),
        }
    }
}

impl Shared {
    /// Record a lifecycle event in both the full recorder and (its
    /// compact projection) the flight ring.
    fn record(&self, e: Event) {
        self.flight.record_event(&e);
        self.recorder.record(e);
    }
}

fn handle_infer(
    shared: &Shared,
    st: &mut CoreState,
    model: String,
    reply: Sender<InferenceReply>,
    publish: Instant,
) -> CoreResp {
    let stall = shared.combiner_stall_ns.load(Ordering::Relaxed);
    if stall > 0 {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < stall {
            std::hint::spin_loop();
        }
    }
    if st.closed {
        // Dropping `reply` disconnects the client's receiver: the
        // rejection is observable, never a silent loss.
        return CoreResp::Rejected;
    }
    let now = shared.clock.now_us();
    let id = st.next_id;
    st.next_id += 1;
    let t0 = Instant::now();
    let admission = match st.machine.admit(now, id, &model, reply) {
        Ok(admission) => admission,
        Err(reply) => {
            shared.record(Event::Mark {
                label: format!("dropped:{model}"),
                t_us: now,
            });
            // Mark events don't project into the flight ring, so drops
            // get an explicit compact record of their own.
            shared.flight.record(now, id, FlightKind::Drop, 0, 0);
            let _ = reply.send(InferenceReply {
                id,
                model,
                status: RequestStatus::Dropped,
                arrival_us: now,
                start_us: 0.0,
                end_us: 0.0,
                exec_us: 0.0,
                blocks_run: 0,
            });
            return CoreResp::Accepted;
        }
    };
    let decision_ns = t0.elapsed().as_nanos() as u64;
    // Client-visible latency: from the request becoming visible in its
    // combining slot to the decision having been applied. Includes the
    // wait for the current combiner pass — the number §3.4's
    // microsecond-scale claim is judged on under contention.
    let publish_ns = publish.elapsed().as_nanos() as u64;
    shared.decisions.record(publish_ns);
    st.accepted += 1;
    {
        let mut drift = shared.drift.lock();
        drift.observe_arrival(now, &model);
        if admission.downgraded_from.is_some() {
            drift.observe_drop(now, &model);
        }
    }
    // Recorded under the core lock so event order matches scheduling
    // order across every combining thread.
    shared.record(Event::Arrival {
        req: id,
        model,
        t_us: now,
    });
    admission.record(id, now, decision_ns, publish_ns, |e| shared.record(e));
    shared.record(Event::QueueDepth {
        depth: st.machine.queued(),
        t_us: now,
    });
    if st.executor_idle {
        st.executor_idle = false;
        if let Some(t) = &st.executor {
            t.unpark();
        }
    }
    CoreResp::Accepted
}

fn handle_next_block(
    shared: &Shared,
    st: &mut CoreState,
    finished: Option<BlockGrant>,
) -> CoreResp {
    if let Some(fin) = finished {
        let end = shared.clock.now_us();
        shared.record(Event::BlockEnd {
            req: fin.id,
            block: fin.block,
            stream: 0,
            t_us: end,
        });
        if let Some((done, blocks_run, reply)) = st.machine.retire(end) {
            shared.record(Event::Completion {
                req: fin.id,
                t_us: end,
            });
            shared.record(Event::QueueDepth {
                depth: st.machine.queued(),
                t_us: end,
            });
            let freeze = {
                let mut slo = shared.slo.lock();
                let before = slo.log().fired();
                let e2e = done.e2e_us();
                slo.observe_outcome(end, e2e, done.exec_us);
                let burn_scope = (slo.log().fired() > before)
                    .then(|| FreezeScope::of(slo.log(), slo.cfg().slow_window_us));
                // Feed the drift watch with the already-judged verdict
                // (same α rule the SLO monitor just applied) and forward
                // any regime events into the alert log. Lock order is
                // always slo → drift.
                let violated = done.exec_us > 0.0 && e2e > slo.cfg().alpha * done.exec_us;
                let mut drift = shared.drift.lock();
                drift.observe_completion(end, &done.model, e2e, violated);
                for ev in drift.drain_events() {
                    slo.observe_regime(&ev);
                }
                burn_scope
            };
            if let Some(scope) = freeze {
                // Freeze the pre-incident history the instant the alert
                // fires, before the ring can wrap over it.
                shared.frozen.lock().freeze(&shared.flight, scope);
            }
            let _ = reply.send(InferenceReply {
                id: fin.id,
                model: done.model.to_string(),
                status: RequestStatus::Completed,
                arrival_us: done.arrival_us,
                start_us: done.start_us,
                end_us: end,
                exec_us: done.exec_us,
                blocks_run,
            });
            st.served += 1;
        }
    }

    if st.machine.queued() == 0 {
        if st.closed {
            return CoreResp::Done;
        }
        st.executor_idle = true;
        return CoreResp::Idle;
    }

    // Token assignment: the head owns the device for one block.
    let now = shared.clock.now_us();
    let g = st.machine.dispatch(now).expect("the device is idle");
    shared.record(Event::BlockStart {
        req: g.id,
        block: g.block,
        stream: 0,
        t_us: now,
    });
    // Activation hand-off at the boundary into this block. Its time is
    // already folded into the block's profiled duration (§4); the event
    // attributes traffic, it does not add latency.
    if let Some(bytes) = g.boundary_bytes {
        shared.record(Event::Transfer {
            req: g.id,
            bytes,
            t_us: now,
            dur_us: 0.0,
        });
    }
    CoreResp::Run(BlockGrant {
        id: g.id,
        block: g.block,
        blk_us: g.blk_us,
    })
}

fn executor_loop(shared: &Shared, core: &Core) -> u64 {
    core.with_state(|st| st.executor = Some(std::thread::current()));
    let mut finished: Option<BlockGrant> = None;
    loop {
        match core.submit(CoreOp::NextBlock {
            finished: finished.take(),
        }) {
            CoreResp::Run(g) => {
                shared.clock.sleep_us(g.blk_us);
                finished = Some(g);
            }
            CoreResp::Idle => std::thread::park_timeout(EXECUTOR_PARK),
            CoreResp::Done => break,
            CoreResp::Accepted | CoreResp::Rejected => {
                unreachable!("infer response delivered to the executor")
            }
        }
    }
    core.with_state(|st| st.served)
}

/// A running SPLIT server.
pub struct Server {
    shared: Arc<Shared>,
    core: Arc<Core>,
    executor: Option<std::thread::JoinHandle<u64>>,
}

/// A cheap cloneable handle for submitting requests.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    core: Arc<Core>,
}

impl Client {
    /// Submit an inference request; the reply arrives on the returned
    /// channel when the request completes (or the channel disconnects if
    /// the server is gone). Returns only once the scheduling decision
    /// has been applied, so a returned receiver is never silently lost
    /// to a racing shutdown.
    pub fn infer(&self, model: impl Into<String>) -> Receiver<InferenceReply> {
        let (reply_tx, reply_rx) = bounded(1);
        // A closed ingest gate means the server is shutting down; the
        // disconnected reply channel communicates that to the caller.
        if self.shared.ingest_closed.load(Ordering::SeqCst) {
            return reply_rx;
        }
        let _ = self.core.submit(CoreOp::Infer {
            model: model.into(),
            reply: reply_tx,
        });
        reply_rx
    }
}

/// A point-in-time view of scheduler state (see [`Server::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Requests currently queued (including the one whose block is
    /// running).
    pub queued: usize,
    /// Whether a block is executing right now.
    pub block_in_flight: bool,
    /// `(request id, task)` of the queue head, if any.
    pub head: Option<(u64, u32)>,
    /// Preemption decisions made so far.
    pub decisions: u64,
}

/// Final report returned by [`Server::shutdown`].
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Requests fully served.
    pub served: u64,
    /// Preemption decisions made.
    pub decisions: u64,
    /// Mean decision latency (slot-publish → decision applied),
    /// nanoseconds.
    pub mean_decision_ns: f64,
    /// Worst decision latency, nanoseconds.
    pub max_decision_ns: u64,
    /// Median decision latency, nanoseconds (bucket-approximate).
    pub p50_decision_ns: u64,
    /// 99th-percentile decision latency, nanoseconds
    /// (bucket-approximate).
    pub p99_decision_ns: u64,
    /// 99.9th-percentile decision latency, nanoseconds
    /// (bucket-approximate).
    pub p999_decision_ns: u64,
    /// The server's lifecycle recording (ring-bounded; see
    /// [`Server::telemetry`]).
    pub recorder: Recorder,
    /// Burn-rate alert history (summarize with [`AlertLog::summary`]).
    pub alerts: AlertLog,
    /// One self-contained forensic bundle per fired alert: flight-ring
    /// history, queue depths, the violating requests' span trees, and
    /// an aggregated root-cause verdict. Empty when no alert fired.
    pub incidents: Vec<IncidentBundle>,
    /// Finalized drift-watch report: windowed latency sketches and any
    /// regime-shift events detected while serving.
    pub drift: DriftReport,
}

impl Server {
    /// Start the server over a deployment.
    pub fn start(deployment: Deployment, cfg: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            clock: SimClock::new(cfg.compression),
            decisions: DecisionStats::new(),
            recorder: SharedRecorder::with_mode(RecorderMode::Ring(RECORDER_RING)),
            slo: Mutex::new(SloMonitor::new(SloCfg {
                alpha: cfg.alpha,
                ..SloCfg::default()
            })),
            drift: Mutex::new(DriftWatch::new(WatchCfg {
                alpha: cfg.alpha,
                ..WatchCfg::default()
            })),
            flight: FlightRing::new(),
            frozen: Mutex::new(FrozenFlight::default()),
            ingest_closed: AtomicBool::new(false),
            combiner_stall_ns: AtomicU64::new(0),
        });
        let machine = SplitMachine::new(
            deployment.table().clone(),
            &SplitCfg {
                alpha: cfg.alpha,
                elastic: cfg.elastic,
            },
        );
        let core = {
            let shared = Arc::clone(&shared);
            Arc::new(CombiningCore::new(
                CoreState {
                    machine,
                    closed: false,
                    next_id: 0,
                    accepted: 0,
                    served: 0,
                    executor: None,
                    executor_idle: false,
                },
                // Runs on whichever thread currently combines, with the
                // core lock held.
                move |st, op, publish| match op {
                    CoreOp::Infer { model, reply } => {
                        handle_infer(&shared, st, model, reply, publish)
                    }
                    CoreOp::NextBlock { finished } => handle_next_block(&shared, st, finished),
                },
            ))
        };
        let executor = {
            let shared = Arc::clone(&shared);
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("split-executor".into())
                .spawn(move || executor_loop(&shared, &core))
                .expect("spawn executor")
        };

        Self {
            shared,
            core,
            executor: Some(executor),
        }
    }

    /// A client handle (clone freely across threads).
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            core: Arc::clone(&self.core),
        }
    }

    /// The simulated clock (for tests that want timestamps).
    pub fn clock(&self) -> &SimClock {
        &self.shared.clock
    }

    /// A point-in-time view of the scheduler state (telemetry; passes
    /// through the decision core briefly, serving any pending
    /// operations on the way).
    pub fn snapshot(&self) -> QueueSnapshot {
        let decisions = self.shared.decisions.count();
        self.core.with_state(|st| QueueSnapshot {
            queued: st.machine.queued(),
            block_in_flight: st.machine.block_in_flight(),
            head: st.machine.head(),
            decisions,
        })
    }

    /// A point-in-time view of the elastic-splitting controller, or
    /// `None` when elasticity is disabled. Reads through the decision
    /// core's [`CombiningCore::with_state`] — the full combiner
    /// discipline, no separate server lock — so an observer sees
    /// exactly the mode the next dispatch decision will use, and never
    /// waits behind more than the in-flight combiner pass.
    pub fn elastic(&self) -> Option<split_core::ElasticSnapshot> {
        self.core
            .with_state(|st| st.machine.elastic().map(ElasticController::snapshot))
    }

    /// A snapshot of the server's lifecycle recording so far (arrivals,
    /// preemption decisions, block executions, completions, queue
    /// depth). Ring-bounded; exportable with
    /// [`split_telemetry::perfetto::write_chrome_trace`].
    pub fn telemetry(&self) -> Recorder {
        self.shared.recorder.snapshot()
    }

    /// A snapshot of the burn-rate alert history so far (takes the SLO
    /// lock briefly).
    pub fn alerts(&self) -> AlertLog {
        self.shared.slo.lock().log().clone()
    }

    /// Test hook: make every combined `Infer` spin for `ns` nanoseconds
    /// before deciding, simulating a slow combiner pass. Used to prove
    /// the report's decision percentiles measure publish→apply.
    #[doc(hidden)]
    pub fn set_combiner_stall_ns(&self, ns: u64) {
        self.shared.combiner_stall_ns.store(ns, Ordering::Relaxed);
    }

    /// Two-phase close: gate the ingest, then mark the core closed.
    /// `with_state` drains already-published requests *before* the flag
    /// lands (they are accepted) and again after (gate-raced stragglers
    /// are rejected observably). Idempotent.
    fn initiate_shutdown(&self) {
        self.shared.ingest_closed.store(true, Ordering::SeqCst);
        self.core.with_state(|st| {
            st.closed = true;
            if let Some(t) = &st.executor {
                t.unpark();
            }
        });
    }

    /// Stop accepting requests, drain the queue, join the executor, and
    /// report.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.initiate_shutdown();
        let served = self
            .executor
            .take()
            .map(|h| h.join().expect("executor panicked"));
        let accepted = self.core.with_state(|st| st.accepted);
        debug_assert!(
            served.unwrap_or(0) <= accepted,
            "served {} must not exceed accepted {accepted}",
            served.unwrap_or(0)
        );
        let recorder = self.shared.recorder.snapshot();
        let (alerts, slo_cfg) = {
            let slo = self.shared.slo.lock();
            (slo.log().clone(), slo.cfg().clone())
        };
        // Merge the fire-time freezes (pre-incident history that may
        // since have been overwritten) with the final ring state.
        let flight = {
            let mut merged = self.shared.flight.snapshot();
            for snap in self.shared.frozen.lock().snapshots.drain(..) {
                merged = merged.merge(&snap);
            }
            merged
        };
        let incidents = split_forensics::bundles_for_alerts(
            &recorder,
            &flight,
            None,
            &ForensicsCfg {
                slo: slo_cfg,
                sampler: Default::default(),
            },
            &alerts,
        );
        let drift = {
            let mut watch = self.shared.drift.lock();
            watch.finalize();
            watch.report()
        };
        ShutdownReport {
            served: served.unwrap_or(0),
            decisions: self.shared.decisions.count(),
            mean_decision_ns: self.shared.decisions.mean_ns(),
            max_decision_ns: self.shared.decisions.max_ns(),
            p50_decision_ns: self.shared.decisions.p50_ns(),
            p99_decision_ns: self.shared.decisions.p99_ns(),
            p999_decision_ns: self.shared.decisions.p999_ns(),
            recorder,
            alerts,
            incidents,
            drift,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Idempotent: shutdown() takes the handle; a bare drop still
        // stops the executor.
        self.initiate_shutdown();
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployment() -> Deployment {
        let mut d = Deployment::new();
        d.deploy_vanilla("short", 10_000.0);
        let plan = split_core::SplitPlan {
            model: "long".into(),
            cuts: vec![40, 80],
            block_times_us: vec![22_000.0, 22_000.0, 22_000.0],
            vanilla_us: 60_000.0,
            overhead_ratio: 0.1,
            std_us: 0.0,
            fitness: -1.0,
            transfer_bytes: vec![0, 0],
        };
        d.deploy_plan(&plan);
        d
    }

    fn config() -> ServerConfig {
        ServerConfig {
            alpha: 4.0,
            elastic: None,
            compression: 2_000.0,
        }
    }

    #[test]
    fn serves_a_single_request() {
        let server = Server::start(deployment(), config());
        let rx = server.client().infer("short");
        let reply = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(reply.status, RequestStatus::Completed);
        assert_eq!(reply.blocks_run, 1);
        assert!(reply.e2e_us() >= 10_000.0 * 0.5, "{}", reply.e2e_us());
        let report = server.shutdown();
        assert_eq!(report.served, 1);
        assert_eq!(report.decisions, 1);
    }

    #[test]
    fn split_model_runs_all_blocks() {
        let server = Server::start(deployment(), config());
        let rx = server.client().infer("long");
        let reply = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(reply.blocks_run, 3);
        assert!(reply.e2e_us() >= 60_000.0 * 0.5);
        server.shutdown();
    }

    #[test]
    fn unknown_model_is_dropped() {
        let server = Server::start(deployment(), config());
        let rx = server.client().infer("ghost");
        let reply = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(reply.status, RequestStatus::Dropped);
        server.shutdown();
    }

    #[test]
    fn short_request_preempts_long_between_blocks() {
        // Gentle compression so the 22 ms block spans ~2.2 real ms and the
        // short request reliably lands inside block 0.
        let server = Server::start(
            deployment(),
            ServerConfig {
                alpha: 4.0,
                elastic: None,
                compression: 10.0,
            },
        );
        let client = server.client();
        let long_rx = client.infer("long");
        // Give the long request a head start into its first block.
        std::thread::sleep(std::time::Duration::from_millis(1));
        let short_rx = client.infer("short");
        let long = long_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        let short = short_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        assert!(
            short.end_us < long.end_us,
            "short ({}) must finish before long ({})",
            short.end_us,
            long.end_us
        );
        // The short request never waits for the whole long model.
        assert!(short.e2e_us() < 60_000.0, "short e2e {}", short.e2e_us());
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_get_replies() {
        let server = Server::start(deployment(), config());
        let mut rxs = Vec::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let client = server.client();
                std::thread::spawn(move || {
                    (0..10)
                        .map(|i| client.infer(if (t + i) % 3 == 0 { "long" } else { "short" }))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            rxs.extend(h.join().unwrap());
        }
        let mut completed = 0;
        for rx in rxs {
            let r = rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
            assert_eq!(r.status, RequestStatus::Completed);
            completed += 1;
        }
        assert_eq!(completed, 40);
        let report = server.shutdown();
        assert_eq!(report.served, 40);
        assert_eq!(report.decisions, 40);
        // §3.4: decisions are microsecond-scale — now measured from
        // slot publish, not lock acquisition.
        assert!(
            report.mean_decision_ns < 1_000_000.0,
            "mean decision {} ns",
            report.mean_decision_ns
        );
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let server = Server::start(deployment(), config());
        let client = server.client();
        let rxs: Vec<_> = (0..5).map(|_| client.infer("short")).collect();
        let report = server.shutdown();
        assert_eq!(report.served, 5, "shutdown must drain the queue");
        for rx in rxs {
            assert_eq!(rx.recv().unwrap().status, RequestStatus::Completed);
        }
    }

    #[test]
    fn infer_racing_shutdown_never_loses_accepted_requests() {
        // Regression for the old channel-ingest drop window: a request
        // whose `infer` returned could still be lost if its send landed
        // after the shutdown drain observed Empty. Now `infer` returns
        // only after the decision applied, so returned ⇒ decided, and
        // racing clients either complete or observe a disconnect.
        for round in 0..10 {
            let server = Server::start(deployment(), config());
            let client = server.client();
            // These receivers exist before shutdown begins: they MUST
            // all complete.
            let pre: Vec<_> = (0..3).map(|_| client.infer("short")).collect();
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    let client = client.clone();
                    std::thread::spawn(move || {
                        (0..5).map(|_| client.infer("short")).collect::<Vec<_>>()
                    })
                })
                .collect();
            let report = server.shutdown();
            let mut completed = 0u64;
            for rx in pre {
                let r = rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("pre-shutdown infer must be served");
                assert_eq!(r.status, RequestStatus::Completed, "round {round}");
                completed += 1;
            }
            for h in racers {
                for rx in h.join().unwrap() {
                    match rx.recv_timeout(Duration::from_secs(10)) {
                        Ok(r) => {
                            assert_eq!(r.status, RequestStatus::Completed, "round {round}");
                            completed += 1;
                        }
                        // Raced past the close: an observable rejection,
                        // never a hang.
                        Err(e) => assert_eq!(
                            e,
                            crossbeam::channel::RecvTimeoutError::Disconnected,
                            "round {round}"
                        ),
                    }
                }
            }
            assert_eq!(
                report.served, completed,
                "round {round}: every accepted request must be served"
            );
        }
    }

    #[test]
    fn decision_latency_measures_publish_to_apply() {
        // Baseline: unstalled combiner, publish→apply stays far below
        // the stall we are about to inject.
        let server = Server::start(deployment(), config());
        let client = server.client();
        for _ in 0..8 {
            client
                .infer("short")
                .recv_timeout(Duration::from_secs(10))
                .unwrap();
        }
        let baseline = server.shutdown();
        assert!(
            baseline.p50_decision_ns < 1_500_000,
            "unstalled p50 {} ns",
            baseline.p50_decision_ns
        );

        // Stalled: every combiner pass spins 2 ms before deciding. The
        // publish→apply histogram must shift by the stall; the
        // admission time must not.
        const STALL_NS: u64 = 2_000_000;
        let server = Server::start(deployment(), config());
        server.set_combiner_stall_ns(STALL_NS);
        let client = server.client();
        for _ in 0..8 {
            client
                .infer("short")
                .recv_timeout(Duration::from_secs(10))
                .unwrap();
        }
        let stalled = server.shutdown();
        // Histogram buckets carry ≤12.5% relative error; leave slack.
        assert!(
            stalled.p50_decision_ns >= STALL_NS * 7 / 8,
            "stalled p50 {} ns must absorb the {STALL_NS} ns stall",
            stalled.p50_decision_ns
        );
        assert!(stalled.p999_decision_ns >= stalled.p50_decision_ns);
        let mut decisions = 0;
        for e in stalled.recorder.events() {
            if let Event::PreemptDecision {
                decision_ns,
                publish_ns,
                ..
            } = e
            {
                decisions += 1;
                assert!(
                    *publish_ns >= STALL_NS,
                    "publish→apply {publish_ns} ns below the stall"
                );
                assert!(
                    *decision_ns < STALL_NS,
                    "admission {decision_ns} ns must not include the stall"
                );
            }
        }
        assert_eq!(decisions, 8);
    }

    #[test]
    fn snapshot_reflects_queue_state() {
        // Gentle compression so the queued phase is long enough for the
        // polling observer to catch it even on a contended host.
        let server = Server::start(
            deployment(),
            ServerConfig {
                alpha: 4.0,
                elastic: None,
                compression: 20.0,
            },
        );
        let idle = server.snapshot();
        assert_eq!(idle.queued, 0);
        assert!(!idle.block_in_flight);
        assert_eq!(idle.head, None);

        // Queue several long requests and observe a non-empty snapshot.
        let client = server.client();
        let rxs: Vec<_> = (0..4).map(|_| client.infer("long")).collect();
        // Spin briefly until the scheduler has enqueued at least one.
        let mut snap = server.snapshot();
        for _ in 0..200 {
            if snap.queued > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
            snap = server.snapshot();
        }
        assert!(snap.queued > 0, "queue never became visible");
        assert!(snap.head.is_some());
        for rx in rxs {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        let done = server.snapshot();
        assert_eq!(done.queued, 0);
        assert_eq!(done.decisions, 4);
        server.shutdown();
    }

    #[test]
    fn drop_without_shutdown_does_not_hang() {
        let server = Server::start(deployment(), config());
        let _ = server.client().infer("short");
        drop(server);
    }

    #[test]
    fn telemetry_recording_is_well_formed() {
        let server = Server::start(deployment(), config());
        let client = server.client();
        let rxs: Vec<_> = (0..6)
            .map(|i| client.infer(if i % 2 == 0 { "long" } else { "short" }))
            .collect();
        for rx in rxs {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        let report = server.shutdown();
        let errors = report.recorder.validate();
        assert!(errors.is_empty(), "lifecycle violations: {errors:?}");
        assert!(report.p50_decision_ns <= report.p99_decision_ns);
        assert!(report.p99_decision_ns <= report.p999_decision_ns);
        assert!(report.p999_decision_ns <= report.max_decision_ns);

        let count = |f: fn(&Event) -> bool| report.recorder.events().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, Event::Arrival { .. })), 6);
        assert_eq!(count(|e| matches!(e, Event::Completion { .. })), 6);
        assert_eq!(
            count(|e| matches!(e, Event::PreemptDecision { .. })),
            6,
            "one decision per accepted request"
        );
        // 3 long (3 blocks) + 3 short (1 block) = 12 block executions.
        assert_eq!(count(|e| matches!(e, Event::BlockStart { .. })), 12);
        // 3 long requests × 2 block boundaries = 6 activation hand-offs.
        assert_eq!(count(|e| matches!(e, Event::Transfer { .. })), 6);

        // The recording exports to a loadable Perfetto document.
        let doc = split_telemetry::trace_events(&report.recorder, "split-runtime");
        let span_cat = |cat: &str| {
            doc.get("traceEvents")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(|p| p.as_str()) == Some("X")
                        && e.get("cat").and_then(|c| c.as_str()) == Some(cat)
                })
                .count()
        };
        assert_eq!(span_cat("block"), 12);
        assert_eq!(span_cat("io"), 6);
    }

    #[test]
    fn quiet_server_raises_no_alerts() {
        // Clock compression turns thread-wakeup wall latency into
        // simulated queue time, so even a lone request can breach a
        // small α on a loaded host; a huge α isolates the plumbing.
        let server = Server::start(
            deployment(),
            ServerConfig {
                alpha: 1e9,
                ..config()
            },
        );
        let rx = server.client().infer("short");
        rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        let report = server.shutdown();
        assert_eq!(report.alerts.fired(), 0);
        assert_eq!(report.alerts.summary(), "0 fired, 0 active");
    }

    #[test]
    fn overload_fires_a_burn_rate_alert() {
        let server = Server::start(deployment(), config());
        let client = server.client();
        // Flood the queue: request k waits ~k × 10 ms of simulated time,
        // so most requests blow e2e > α × exec and the violation rate
        // swamps the 10% objective in both burn windows.
        let rxs: Vec<_> = (0..30).map(|_| client.infer("short")).collect();
        for rx in rxs {
            rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        }
        let report = server.shutdown();
        assert!(
            report.alerts.fired() >= 1,
            "overload must trip the burn-rate alert ({})",
            report.alerts.summary()
        );
        let a = &report.alerts.alerts[0];
        assert!(a.fast_burn_at_fire >= 1.0);
        assert!(a.slow_burn_at_fire >= 1.0);
    }

    #[test]
    fn overload_produces_incident_bundles() {
        let server = Server::start(deployment(), config());
        let client = server.client();
        let rxs: Vec<_> = (0..30).map(|_| client.infer("short")).collect();
        for rx in rxs {
            rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        }
        let report = server.shutdown();
        assert!(report.alerts.fired() >= 1, "precondition: alert fires");
        assert_eq!(
            report.incidents.len(),
            report.alerts.alerts.len(),
            "one bundle per fired alert"
        );
        for bundle in &report.incidents {
            // Tail-sampling invariant: every violating request in the
            // incident window is captured with its full span tree.
            assert_eq!(
                bundle.verdict.captured_violating, bundle.verdict.violating,
                "bundle must capture 100% of violating requests"
            );
            assert!(
                bundle.verdict.violating > 0,
                "overload window has violations"
            );
            assert_eq!(
                bundle.flight.capacity,
                split_forensics::DEFAULT_CAPACITY as u64
            );
            assert!(!bundle.flight.records.is_empty());
            // Every outlier's root-cause components reconcile with its
            // exact e2e decomposition.
            for o in &bundle.outliers {
                if matches!(o.reason, split_forensics::SampleReason::Dropped) {
                    continue;
                }
                let a = &o.attribution;
                assert!(
                    (a.components_sum_us() - a.e2e_us()).abs() <= 1e-3,
                    "attribution must reconcile for req {}",
                    a.req
                );
                assert!(!o.spans.is_empty(), "outliers carry span trees");
            }
            assert!(bundle.verdict.text.contains("p99 regression"));
        }
    }

    #[test]
    fn shutdown_report_carries_conserving_drift_watch() {
        let server = Server::start(deployment(), config());
        let client = server.client();
        let rxs: Vec<_> = (0..8)
            .map(|i| client.infer(if i % 2 == 0 { "long" } else { "short" }))
            .collect();
        for rx in rxs {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        let report = server.shutdown();
        assert!(report.drift.conservation_holds(), "{:?}", report.drift.fed);
        assert_eq!(report.drift.fed.arrivals, 8);
        assert_eq!(report.drift.fed.completions, 8);
        assert!(!report.drift.windows.is_empty());
        // Per-model rows carry windowed quantiles for both models.
        let models: std::collections::BTreeSet<_> = report
            .drift
            .windows
            .iter()
            .flat_map(|w| w.models.iter().map(|r| r.model.clone()))
            .collect();
        assert!(
            models.contains("short") && models.contains("long"),
            "{models:?}"
        );
    }

    #[test]
    fn freezes_keep_incident_windows_once() {
        let burn = |fired: f64, resolved: Option<f64>| split_obs::Alert {
            fired_at_us: fired,
            resolved_at_us: resolved,
            fast_burn_at_fire: 1.0,
            slow_burn_at_fire: 1.0,
            source: AlertSource::BurnRate,
            detail: String::new(),
        };
        let regime = split_obs::Alert {
            source: AlertSource::RegimeShift,
            ..burn(150.0, Some(150.0))
        };
        let mut log = AlertLog::default();
        log.alerts.push(burn(50.0, None));
        assert_eq!(
            FreezeScope::of(&log, 100.0),
            FreezeScope {
                from_us: 0.0,
                prev_end_us: f64::NEG_INFINITY
            }
        );
        log.alerts[0].resolved_at_us = Some(120.0);
        log.alerts.push(regime);
        log.alerts.push(burn(400.0, None));
        let second = FreezeScope::of(&log, 100.0);
        assert_eq!(
            second,
            FreezeScope {
                from_us: 300.0,
                prev_end_us: 120.0
            }
        );

        let ring = FlightRing::with_capacity(64);
        let mut frozen = FrozenFlight::default();
        for t in 0..6 {
            ring.record(f64::from(t) * 10.0, 0, FlightKind::Arrival, 0, 0);
        }
        frozen.freeze(
            &ring,
            FreezeScope {
                from_us: 20.0,
                prev_end_us: f64::NEG_INFINITY,
            },
        );
        for t in 6..50 {
            ring.record(f64::from(t) * 10.0, 0, FlightKind::Arrival, 0, 0);
        }
        frozen.freeze(&ring, second);
        let times: Vec<Vec<f64>> = frozen
            .snapshots
            .iter()
            .map(|s| s.records.iter().map(|r| r.t_us).collect())
            .collect();
        // Nothing is copied twice, and the gap between the first
        // alert's window end (120) and the second's start (300) is not
        // copied at all.
        let mut second_times = vec![60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0];
        second_times.extend((30..50).map(|t| f64::from(t) * 10.0));
        assert_eq!(times, vec![vec![20.0, 30.0, 40.0, 50.0], second_times]);
        assert_eq!(frozen.seen, 50);
    }
}
