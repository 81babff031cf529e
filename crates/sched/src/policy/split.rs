//! The SPLIT policy (paper §3): sequential block-granular execution with
//! greedy response-ratio preemption and elastic splitting.
//!
//! The device runs one *block* at a time (predictable latency, §6). The
//! waiting queue holds whole requests; on every arrival the greedy
//! preemption algorithm ([`split_core::PreemptQueue::insert`]) decides the
//! new request's queue position — so a short request preempts a long one *at
//! the next block boundary*, never mid-kernel and never per-block
//! (full preemption, Figure 3b). The elastic controller downgrades
//! requests to vanilla execution during floods (§3.3).
//!
//! Every decision lives in the clock-free [`SplitMachine`], driven by
//! [`split`] in event time and by split-runtime's combiner in wall time.

use crate::engine::SimResult;
use crate::request::{Completion, ModelRuntime, ModelTable};
use gpu_sim::Trace;
use serde::{Deserialize, Serialize};
use split_core::{ElasticConfig, ElasticController, PreemptDecision, PreemptQueue, QueueEntry};
use split_telemetry::{Event, Recorder};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;
use workload::Arrival;

/// SPLIT policy configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitCfg {
    /// Latency-target multiplier α used inside response-ratio comparisons
    /// (footnote 3; the evaluation sweeps the *metric's* α separately).
    pub alpha: f64,
    /// Elastic splitting thresholds; `None` disables elasticity (always
    /// split — used by the ablation bench).
    pub elastic: Option<ElasticConfig>,
}

impl Default for SplitCfg {
    fn default() -> Self {
        Self {
            alpha: 4.0,
            elastic: Some(ElasticConfig::default()),
        }
    }
}

/// Everything the machine tracks about one resident request, in a single
/// map entry; the model is an index into the machine's table.
struct ReqState<T> {
    model: usize,
    blocks: VecDeque<f64>,
    arrival_us: f64,
    started: Option<f64>,
    blocks_done: usize,
    tag: T,
}

/// SPLIT's scheduler as a state machine that reads no clock: elastic
/// admission (§3.3), greedy preemption on every arrival (§3.4), and the
/// token assigner that hands the queue head one block at a time (§4).
/// `T` is a per-request payload handed back on completion.
pub struct SplitMachine<T = ()> {
    models: ModelTable,
    alpha: f64,
    elastic: Option<ElasticController>,
    queue: PreemptQueue,
    /// Per-request state (a `BTreeMap`: keyed lookups only, but a sorted
    /// map keeps every path deterministic by construction — audited by
    /// split-analyze).
    states: BTreeMap<u64, ReqState<T>>,
    /// The request whose block is on the device.
    running: Option<u64>,
}

/// The outcome of [`SplitMachine::admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    /// Where greedy preemption placed the request.
    pub decision: PreemptDecision,
    /// The declared block count, when elasticity runs a split model as
    /// one vanilla block.
    pub downgraded_from: Option<usize>,
    /// Queued requests the insertion pushed back.
    pub displaced: usize,
}

impl Admission {
    /// Emit `Downgrade` (if any), `PreemptDecision` and `Enqueue` into
    /// `sink`, with the driver's wall-clock latencies.
    pub fn record(
        &self,
        req: u64,
        t_us: f64,
        decision_ns: u64,
        publish_ns: u64,
        mut sink: impl FnMut(Event),
    ) {
        if let Some(from_blocks) = self.downgraded_from {
            sink(Event::Downgrade {
                req,
                from_blocks,
                to_blocks: 1,
                t_us,
            });
        }
        sink(Event::PreemptDecision {
            req,
            position: self.decision.position,
            comparisons: self.decision.comparisons,
            stop: format!("{:?}", self.decision.stop),
            decision_ns,
            publish_ns,
            t_us,
        });
        sink(Event::Enqueue {
            req,
            position: self.decision.position,
            displaced: self.displaced,
            t_us,
        });
    }
}

/// The device token for one block, from [`SplitMachine::dispatch`].
pub struct Grant<'a> {
    /// Request id.
    pub id: u64,
    /// Index among the blocks this request has run: a downgraded request
    /// runs one vanilla block, b0 (block indices are contiguous from 0).
    pub block: usize,
    /// Block length, µs.
    pub blk_us: f64,
    /// Activation bytes crossing the boundary into this block.
    pub boundary_bytes: Option<u64>,
    /// The request's model.
    pub model: &'a ModelRuntime,
}

/// Number of queued requests pushed back by an insertion at `position`
/// in a queue now `queue_len` long. Saturating: a policy returning
/// `position == queue_len` (insertion past the tail) yields 0 displaced
/// rather than underflowing.
fn displaced_count(queue_len: usize, position: usize) -> usize {
    queue_len.saturating_sub(1).saturating_sub(position)
}

impl<T> SplitMachine<T> {
    /// An idle machine serving `models`.
    pub fn new(models: ModelTable, cfg: &SplitCfg) -> Self {
        Self {
            models,
            alpha: cfg.alpha,
            elastic: cfg.elastic.clone().map(ElasticController::new),
            queue: PreemptQueue::new(),
            states: BTreeMap::new(),
            running: None,
        }
    }

    /// Admit request `id` for `model` at `now`: elastic admission, then
    /// greedy preemption. An undeployed model hands `tag` back and
    /// changes no state.
    pub fn admit(&mut self, now: f64, id: u64, model: &str, tag: T) -> Result<Admission, T> {
        let Some(index) = self.models.index_of(model) else {
            return Err(tag);
        };
        let m = self.models.at(index);
        let use_split = match self.elastic.as_mut() {
            Some(ctl) => ctl.on_arrival(now, m.task),
            None => true,
        };
        let blocks: VecDeque<f64> = if use_split {
            m.blocks_us.iter().copied().collect()
        } else {
            std::iter::once(m.exec_us).collect()
        };
        let entry = QueueEntry {
            id,
            task: m.task,
            exec_us: m.exec_us,
            left_us: blocks.iter().sum(),
            arrival_us: now,
        };
        let downgraded_from = (!use_split && m.blocks_us.len() > 1).then_some(m.blocks_us.len());
        self.states.insert(
            id,
            ReqState {
                model: index,
                blocks,
                arrival_us: now,
                started: None,
                blocks_done: 0,
                tag,
            },
        );
        let decision = self.queue.insert(entry, self.alpha);
        debug_assert!(
            decision.position < self.queue.len(),
            "greedy preemption returned position {} past queue of {}",
            decision.position,
            self.queue.len()
        );
        let displaced = displaced_count(self.queue.len(), decision.position);
        Ok(Admission {
            decision,
            downgraded_from,
            displaced,
        })
    }

    /// Hand the device to the queue head for its next block, or `None`
    /// while a block runs or nothing waits.
    pub fn dispatch(&mut self, now: f64) -> Option<Grant<'_>> {
        if self.running.is_some() {
            return None;
        }
        let head = self.queue.head_mut()?;
        let id = head.id;
        let st = self.states.get_mut(&id).expect("queued request has state");
        let blk_us = st.blocks.pop_front().expect("queued request has blocks");
        // The in-flight block leaves the entry's `left_us`; later
        // preemption decisions see it as `base_wait` instead.
        head.left_us -= blk_us;
        let block = st.blocks_done;
        st.blocks_done += 1;
        st.started.get_or_insert(now);
        self.running = Some(id);
        let model = self.models.at(st.model);
        Some(Grant {
            id,
            block,
            blk_us,
            boundary_bytes: block
                .checked_sub(1)
                .and_then(|b| model.transfer_bytes.get(b).copied()),
            model,
        })
    }

    /// End the block in flight at `now`. After its last block a request
    /// leaves with its block count and payload; otherwise it stays at its
    /// position, and the next dispatch picks whoever is head now — that
    /// is exactly where block-boundary preemption happens.
    pub fn retire(&mut self, now: f64) -> Option<(Completion, usize, T)> {
        let id = self.running.take().expect("a block in flight");
        let Entry::Occupied(state) = self.states.entry(id) else {
            panic!("running request has state");
        };
        if !state.get().blocks.is_empty() {
            return None;
        }
        let st = state.remove();
        self.queue.remove(id).expect("running request is queued");
        let m = self.models.at(st.model);
        let completion = Completion {
            id,
            model: m.name.clone(),
            task: m.task,
            arrival_us: st.arrival_us,
            start_us: st.started.expect("started"),
            end_us: now,
            exec_us: m.exec_us,
        };
        Some((completion, st.blocks_done, st.tag))
    }

    /// Requests queued, including the one whose block runs.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// `(request id, task)` of the queue head.
    pub fn head(&self) -> Option<(u64, u32)> {
        self.queue.head().map(|e| (e.id, e.task))
    }

    /// Whether a block is on the device.
    pub fn block_in_flight(&self) -> bool {
        self.running.is_some()
    }

    /// The elastic controller, when elasticity is on.
    pub fn elastic(&self) -> Option<&ElasticController> {
        self.elastic.as_ref()
    }
}

/// Serve the trace with SPLIT.
///
/// # Panics
/// When an arrival names a model `models` does not deploy.
pub fn split(arrivals: &[Arrival], models: &ModelTable, cfg: &SplitCfg) -> SimResult {
    let mut machine = SplitMachine::new(models.clone(), cfg);
    let mut trace = Trace::new();
    let mut completions = Vec::with_capacity(arrivals.len());
    // Decision-level telemetry; the engine layer merges in the uniform
    // lifecycle events (arrivals, blocks, completions, queue depth).
    let mut recorder = Recorder::new();
    let mut block_end: Option<f64> = None;
    let mut now = 0.0f64;
    let mut next = 0usize;

    loop {
        if let Some(g) = machine.dispatch(now) {
            let (name, id, idx) = (&g.model.name, g.id, g.block);
            trace.record(format!("{name}#{id}/b{idx}"), 0, now, now + g.blk_us);
            // Entering block N crosses boundary N−1: attribute the
            // activation traffic. Zero duration — the transfer cost is
            // already folded into the block overhead (§4), so schedules
            // and latencies are unchanged.
            if let Some(bytes) = g.boundary_bytes {
                trace.record_transfer(id, bytes, now, 0.0);
            }
            block_end = Some(now + g.blk_us);
        }
        // An arrival goes first unless a block ends strictly before it.
        let arrival = arrivals
            .get(next)
            .filter(|a| block_end.is_none_or(|te| a.arrival_us < te - 1e-12));
        if let Some(a) = arrival {
            now = a.arrival_us;
            next += 1;
            let t0 = Instant::now();
            let admission = machine
                .admit(now, a.id, &a.model, ())
                .unwrap_or_else(|()| panic!("model {:?} not deployed", a.model));
            let decision_ns = t0.elapsed().as_nanos() as u64;
            // The discrete-event simulator has no slot-publish step: the
            // decision is applied synchronously, so publish-to-applied
            // equals the admission itself.
            admission.record(a.id, now, decision_ns, decision_ns, |e| recorder.record(e));
        } else if let Some(te) = block_end.take() {
            now = te;
            if let Some((c, _, ())) = machine.retire(now) {
                completions.push(c);
            }
        } else {
            break;
        }
    }

    completions.sort_by(|a, b| a.end_us.total_cmp(&b.end_us).then(a.id.cmp(&b.id)));
    SimResult {
        completions,
        trace,
        recorder,
        flight: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use split_core::greedy_preempt;

    /// The simulator loop as it stood before [`SplitMachine`]: the
    /// reference [`split`] must reproduce bit for bit.
    fn reference(arrivals: &[Arrival], models: &ModelTable, cfg: &SplitCfg) -> SimResult {
        struct St<'a> {
            model: &'a ModelRuntime,
            blocks: VecDeque<f64>,
            arrival_us: f64,
            started: Option<f64>,
            blocks_done: usize,
        }
        let mut elastic = cfg.elastic.clone().map(ElasticController::new);
        let mut states: BTreeMap<u64, St<'_>> = BTreeMap::new();
        let mut queue: Vec<QueueEntry> = Vec::new();
        let mut running: Option<(u64, f64)> = None;
        let mut trace = Trace::new();
        let mut completions = Vec::new();
        let mut recorder = Recorder::new();
        let mut now = 0.0f64;
        let mut next = 0usize;
        loop {
            if running.is_none() {
                if let Some(head) = queue.first_mut() {
                    let id = head.id;
                    let st = states.get_mut(&id).unwrap();
                    let blk = st.blocks.pop_front().unwrap();
                    head.left_us -= blk;
                    let idx = st.blocks_done;
                    st.blocks_done += 1;
                    trace.record(format!("{}#{id}/b{idx}", st.model.name), 0, now, now + blk);
                    if idx > 0 {
                        if let Some(&bytes) = st.model.transfer_bytes.get(idx - 1) {
                            trace.record_transfer(id, bytes, now, 0.0);
                        }
                    }
                    st.started.get_or_insert(now);
                    running = Some((id, now + blk));
                    continue;
                }
            }
            let t_arrival = arrivals.get(next).map(|a| a.arrival_us);
            let t_block_end = running.map(|(_, e)| e);
            let arrival_first = match (t_arrival, t_block_end) {
                (None, None) => break,
                (Some(ta), Some(te)) => ta < te - 1e-12,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if arrival_first {
                now = t_arrival.unwrap();
                let a = &arrivals[next];
                next += 1;
                let m = models.get(&a.model);
                let use_split = match elastic.as_mut() {
                    Some(ctl) => ctl.on_arrival(now, m.task),
                    None => true,
                };
                let blocks: VecDeque<f64> = if use_split {
                    m.blocks_us.iter().copied().collect()
                } else {
                    std::iter::once(m.exec_us).collect()
                };
                if !use_split && m.blocks_us.len() > 1 {
                    recorder.record(Event::Downgrade {
                        req: a.id,
                        from_blocks: m.blocks_us.len(),
                        to_blocks: 1,
                        t_us: now,
                    });
                }
                let left: f64 = blocks.iter().sum();
                states.insert(
                    a.id,
                    St {
                        model: m,
                        blocks,
                        arrival_us: now,
                        started: None,
                        blocks_done: 0,
                    },
                );
                let decision = greedy_preempt(
                    &mut queue,
                    QueueEntry {
                        id: a.id,
                        task: m.task,
                        exec_us: m.exec_us,
                        left_us: left,
                        arrival_us: now,
                    },
                    cfg.alpha,
                );
                recorder.record(Event::PreemptDecision {
                    req: a.id,
                    position: decision.position,
                    comparisons: decision.comparisons,
                    stop: format!("{:?}", decision.stop),
                    decision_ns: 0,
                    publish_ns: 0,
                    t_us: now,
                });
                recorder.record(Event::Enqueue {
                    req: a.id,
                    position: decision.position,
                    displaced: queue
                        .len()
                        .saturating_sub(1)
                        .saturating_sub(decision.position),
                    t_us: now,
                });
            } else {
                now = t_block_end.unwrap();
                let (id, _) = running.take().unwrap();
                if states[&id].blocks.is_empty() {
                    let pos = queue.iter().position(|e| e.id == id).unwrap();
                    queue.remove(pos);
                    let st = states.remove(&id).unwrap();
                    completions.push(Completion {
                        id,
                        model: st.model.name.clone(),
                        task: st.model.task,
                        arrival_us: st.arrival_us,
                        start_us: st.started.unwrap(),
                        end_us: now,
                        exec_us: st.model.exec_us,
                    });
                }
            }
        }
        completions.sort_by(|a, b| a.end_us.total_cmp(&b.end_us).then(a.id.cmp(&b.id)));
        SimResult {
            completions,
            trace,
            recorder,
            flight: Default::default(),
        }
    }

    /// Recorder events with the wall-clock latencies zeroed, for exact
    /// comparison.
    fn timeless(r: &Recorder) -> Vec<Event> {
        r.events()
            .cloned()
            .map(|mut e| {
                if let Event::PreemptDecision {
                    decision_ns,
                    publish_ns,
                    ..
                } = &mut e
                {
                    *decision_ns = 0;
                    *publish_ns = 0;
                }
                e
            })
            .collect()
    }

    /// Whole-millisecond blocks, some split with boundary traffic, so
    /// arrivals on the 1 ms grid coincide with block ends.
    fn grid_workload() -> impl Strategy<Value = (ModelTable, Vec<Arrival>)> {
        let models = collection::vec((1u32..6, 1usize..4), 1..4);
        (models, collection::vec((0u32..25, 0usize..4), 1..60)).prop_map(|(models, raw)| {
            let mut t = ModelTable::new();
            for (i, &(ms, blocks)) in models.iter().enumerate() {
                let block_us = f64::from(ms) * 1_000.0;
                let exec = block_us * blocks as f64 * 0.9;
                let bytes = (1..blocks as u64).map(|b| b * 4_096).collect();
                let m =
                    ModelRuntime::split(format!("m{i}"), i as u32, exec, vec![block_us; blocks]);
                t.insert(m.with_transfer_bytes(bytes));
            }
            let mut arrivals: Vec<Arrival> = raw
                .into_iter()
                .map(|(slot, m)| {
                    arrival(
                        0,
                        &format!("m{}", m % models.len()),
                        f64::from(slot) * 1_000.0,
                    )
                })
                .collect();
            arrivals.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
            for (i, a) in arrivals.iter_mut().enumerate() {
                a.id = i as u64;
            }
            (t, arrivals)
        })
    }

    /// Elasticity that downgrades within a few same-type arrivals.
    fn touchy() -> ElasticConfig {
        ElasticConfig {
            window_us: 5_000.0,
            density_off_per_s: 600.0,
            density_on_per_s: 300.0,
            same_type_frac: 0.6,
            min_samples: 3,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn machine_driver_matches_reference_loop(
            (table, arrivals) in grid_workload(),
            elastic in 0u8..2,
        ) {
            let cfg = SplitCfg { alpha: 4.0, elastic: (elastic == 1).then(touchy) };
            let got = split(&arrivals, &table, &cfg);
            let want = reference(&arrivals, &table, &cfg);
            prop_assert_eq!(&got.completions, &want.completions);
            prop_assert_eq!(got.trace.events(), want.trace.events());
            prop_assert_eq!(got.trace.transfers(), want.trace.transfers());
            prop_assert_eq!(timeless(&got.recorder), timeless(&want.recorder));
        }
    }

    /// Eight models, four of them split, 5–60 ms: the tasks of a deep
    /// lane.
    fn mixed_table() -> ModelTable {
        let mut t = ModelTable::new();
        for i in 0..8u32 {
            let exec = 5_000.0 + f64::from(i) * 7_500.0;
            t.insert(if i % 2 == 1 {
                ModelRuntime::split(format!("m{i}"), i, exec, vec![exec * 0.55; 2])
                    .with_transfer_bytes(vec![65_536])
            } else {
                ModelRuntime::vanilla(format!("m{i}"), i, exec)
            });
        }
        t
    }

    /// A Poisson stream offered at 2.5× the device's capacity: the queue
    /// grows past a thousand requests, so greedy preemption runs on a
    /// queue of many blocks.
    fn oversubscribed(seed: u64, requests: usize) -> Vec<Arrival> {
        let mut gen = workload::PoissonGen::new(32_500.0 / 2.5, seed);
        let mut pick = seed;
        (0..requests as u64)
            .map(|id| {
                // splitmix64 for the model draw.
                pick = pick.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = pick;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let model = format!("m{}", (z ^ (z >> 31)) % 8);
                arrival(id, &model, gen.next_arrival_us())
            })
            .collect()
    }

    #[test]
    fn machine_driver_matches_reference_loop_on_deep_queues() {
        for seed in 1..=4u64 {
            let arrivals = oversubscribed(seed, 3_000);
            let cfg = SplitCfg {
                alpha: 4.0,
                elastic: (seed % 2 == 1).then(ElasticConfig::default),
            };
            let got = split(&arrivals, &mixed_table(), &cfg);
            let want = reference(&arrivals, &mixed_table(), &cfg);
            assert_eq!(got.completions, want.completions, "seed {seed}");
            assert_eq!(got.trace.events(), want.trace.events(), "seed {seed}");
            assert_eq!(got.trace.transfers(), want.trace.transfers());
            assert_eq!(timeless(&got.recorder), timeless(&want.recorder));
            let peak = got
                .recorder
                .events()
                .filter_map(|e| match e {
                    Event::Enqueue {
                        position,
                        displaced,
                        ..
                    } => Some(position + displaced + 1),
                    _ => None,
                })
                .max();
            assert!(peak > Some(1_000), "seed {seed}: queue peaked at {peak:?}");
        }
    }

    #[test]
    fn unknown_model_returns_its_tag_and_changes_nothing() {
        let mut m = SplitMachine::new(table(), &cfg_no_elastic());
        m.admit(0.0, 0, "long", 'a').unwrap();
        assert_eq!(m.admit(1.0, 1, "ghost", 'b'), Err('b'));
        assert_eq!((m.queued(), m.head()), (1, Some((0, 1))));
        let g = m.dispatch(2.0).unwrap();
        assert_eq!((g.id, g.block), (0, 0));
    }

    #[test]
    fn dispatch_is_none_while_a_block_runs() {
        let mut m = SplitMachine::new(table(), &cfg_no_elastic());
        assert!(m.dispatch(0.0).is_none(), "nothing queued");
        m.admit(0.0, 0, "long", ()).unwrap();
        assert!(m.dispatch(0.0).is_some());
        m.admit(1.0, 1, "short", ()).unwrap();
        assert!(m.block_in_flight());
        assert!(m.dispatch(1.0).is_none());
        assert!(m.retire(22_000.0).is_none(), "long has blocks left");
        // The short request preempted at the boundary.
        let g = m.dispatch(22_000.0).unwrap();
        assert_eq!((g.id, g.block, g.boundary_bytes), (1, 0, None));
        let (c, blocks_run, ()) = m.retire(32_000.0).unwrap();
        assert_eq!((c.id, c.start_us, blocks_run), (1, 22_000.0, 1));
        let g = m.dispatch(32_000.0).unwrap();
        assert_eq!((g.id, g.block), (0, 1));
    }

    #[test]
    fn downgraded_request_runs_one_block_b0() {
        let elastic = ElasticConfig {
            min_samples: 1,
            ..touchy()
        };
        let cfg = SplitCfg {
            alpha: 4.0,
            elastic: Some(elastic),
        };
        let mut m = SplitMachine::new(table(), &cfg);
        let mut downgraded = None;
        for id in 0..4 {
            let a = m.admit(id as f64, id, "long", ()).unwrap();
            if a.downgraded_from.is_some() {
                assert_eq!(a.downgraded_from, Some(3));
                downgraded.get_or_insert(id);
            }
        }
        let id = downgraded.expect("a same-type flood downgrades");
        let mut t = 10.0;
        loop {
            let g = m.dispatch(t).expect("work left");
            let (gid, block, blk) = (g.id, g.block, g.blk_us);
            t += blk;
            if gid == id {
                assert_eq!((block, blk), (0, 60_000.0), "one vanilla block, b0");
                let (c, blocks_run, ()) = m.retire(t).expect("done after b0");
                assert_eq!((c.id, blocks_run), (id, 1));
                break;
            }
            m.retire(t);
        }
    }

    #[test]
    fn displaced_count_saturates_at_tail_insertion() {
        assert_eq!(displaced_count(5, 2), 2);
        assert_eq!(displaced_count(5, 4), 0);
        assert_eq!(displaced_count(1, 0), 0);
        // A policy returning position == queue length (insert past the
        // tail) must yield 0, not underflow.
        assert_eq!(displaced_count(3, 3), 0);
        assert_eq!(displaced_count(0, 0), 0);
        assert_eq!(displaced_count(0, 7), 0);
    }

    /// Long model split into 3 even blocks with 10% overhead; short
    /// unsplit.
    fn table() -> ModelTable {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::vanilla("short", 0, 10_000.0));
        t.insert(ModelRuntime::split(
            "long",
            1,
            60_000.0,
            vec![22_000.0, 22_000.0, 22_000.0],
        ));
        t
    }

    fn arrival(id: u64, model: &str, t: f64) -> Arrival {
        Arrival {
            id,
            model: model.into(),
            arrival_us: t,
        }
    }

    fn cfg_no_elastic() -> SplitCfg {
        SplitCfg {
            alpha: 4.0,
            elastic: None,
        }
    }

    #[test]
    fn lone_request_runs_all_blocks_back_to_back() {
        let r = split(&[arrival(0, "long", 0.0)], &table(), &cfg_no_elastic());
        let c = &r.completions[0];
        assert_eq!(c.start_us, 0.0);
        assert!((c.end_us - 66_000.0).abs() < 1e-9);
        assert_eq!(r.trace.events().len(), 3);
        assert!(r.trace.first_overlap().is_none());
    }

    #[test]
    fn short_preempts_at_block_boundary() {
        // Long starts at 0; short arrives at 1 ms. It must wait only for
        // the in-flight block (ends at 22 ms), not the whole long model.
        let r = split(
            &[arrival(0, "long", 0.0), arrival(1, "short", 1_000.0)],
            &table(),
            &cfg_no_elastic(),
        );
        let short = r.completions.iter().find(|c| c.id == 1).unwrap();
        assert_eq!(short.start_us, 22_000.0);
        assert!((short.e2e_us() - 31_000.0).abs() < 1e-9);
        // The long request resumes after the short one.
        let long = r.completions.iter().find(|c| c.id == 0).unwrap();
        assert!((long.end_us - 76_000.0).abs() < 1e-9);
        // Full preemption: the long model's remaining blocks run
        // contiguously after the short request (no interleaving).
        let events: Vec<&str> = r.trace.events().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(
            events,
            vec!["long#0/b0", "short#1/b0", "long#0/b1", "long#0/b2"]
        );
    }

    #[test]
    fn same_task_requests_stay_fifo() {
        let r = split(
            &[
                arrival(0, "short", 0.0),
                arrival(1, "short", 100.0),
                arrival(2, "short", 200.0),
            ],
            &table(),
            &cfg_no_elastic(),
        );
        let ends: Vec<(u64, f64)> = r.completions.iter().map(|c| (c.id, c.end_us)).collect();
        assert_eq!(ends.iter().map(|e| e.0).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn long_cannot_preempt_short() {
        let r = split(
            &[
                arrival(0, "short", 0.0),
                arrival(1, "long", 10.0),
                arrival(2, "short", 20.0),
            ],
            &table(),
            &cfg_no_elastic(),
        );
        // Second short jumps the waiting long request.
        let c2 = r.completions.iter().find(|c| c.id == 2).unwrap();
        let c1 = r.completions.iter().find(|c| c.id == 1).unwrap();
        assert!(c2.end_us < c1.end_us);
    }

    #[test]
    fn elastic_flood_falls_back_to_vanilla() {
        // A dense same-type flood of long requests: elastic mode must
        // disable splitting, so no splitting overhead is paid.
        let arrivals: Vec<Arrival> = (0..12)
            .map(|i| arrival(i, "long", i as f64 * 1_000.0))
            .collect();
        let elastic = ElasticConfig {
            window_us: 1_000_000.0,
            density_off_per_s: 5.0,
            density_on_per_s: 2.0,
            same_type_frac: 0.9,
            min_samples: 4,
        };
        let r = split(
            &arrivals,
            &table(),
            &SplitCfg {
                alpha: 4.0,
                elastic: Some(elastic),
            },
        );
        assert_eq!(r.completions.len(), 12);
        // Later requests run vanilla (60 ms each, one trace event), so the
        // tail of the trace must contain unsplit long spans.
        let has_vanilla_span = r
            .trace
            .events()
            .iter()
            .any(|e| e.label.starts_with("long") && (e.duration_us() - 60_000.0).abs() < 1e-6);
        assert!(has_vanilla_span, "flood must trigger vanilla execution");
    }

    #[test]
    fn conservation_and_sanity_under_load() {
        let mut arrivals = Vec::new();
        for i in 0..100 {
            let m = if i % 3 == 0 { "long" } else { "short" };
            arrivals.push(arrival(i, m, i as f64 * 7_000.0));
        }
        let r = split(&arrivals, &table(), &SplitCfg::default());
        assert_eq!(r.completions.len(), 100);
        assert!(r.trace.first_overlap().is_none());
        for c in &r.completions {
            assert!(c.end_us > c.arrival_us);
            assert!(c.e2e_us() >= c.exec_us - 1e-6, "{c:?}");
        }
    }

    #[test]
    fn deterministic() {
        let arrivals: Vec<Arrival> = (0..50)
            .map(|i| {
                arrival(
                    i,
                    if i % 4 == 0 { "long" } else { "short" },
                    i as f64 * 6_500.0,
                )
            })
            .collect();
        let a = split(&arrivals, &table(), &SplitCfg::default());
        let b = split(&arrivals, &table(), &SplitCfg::default());
        assert_eq!(a.completions, b.completions);
    }
}
