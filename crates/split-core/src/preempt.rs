//! Fast greedy preemption based on response ratio (paper §3.4,
//! Algorithm 1).
//!
//! Every request arrival asks: where in the waiting queue should the new
//! request go? Recomputing a globally optimal order is too slow for
//! millisecond-scale inference, so SPLIT exploits three facts the paper
//! proves out:
//!
//! 1. all blocks of a request should preempt **together** (full preemption,
//!    Figure 3) — so the queue holds whole requests, never loose blocks;
//! 2. swapping two *neighbors* never changes anyone else's waiting time —
//!    so a greedy bubble pass is sound;
//! 3. requests of the same task type must stay FIFO — equal execution time
//!    and equal targets mean reordering them can only hurt.
//!
//! The algorithm appends the new request at the tail and bubbles it
//! forward past each neighbor while doing so lowers the *pair's average
//! response ratio*, stopping at the queue head, at a same-task neighbor,
//! or when a swap stops helping — exactly the three stopping conditions of
//! §3.4. Worst case O(n) neighbor comparisons; typically O(k) where k is
//! the number of distinct task types present. Each comparison is a couple
//! of flops: everything but the pair's own remaining and execution times
//! cancels out of it (see [`greedy_preempt`]). [`PreemptQueue`] makes the
//! same decisions on deep queues while skipping whole blocks of entries
//! that the new request provably passes.
//!
//! The response ratio follows Algorithm 1's `ResponseRatio`: predicted
//! end-to-end latency over the *latency target* `α·Ext(t)` (footnote 3,
//! after PREMA), so a ratio above 1 predicts a QoS violation.

use serde::{Deserialize, Serialize};

/// One waiting request as the preemption algorithm sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueEntry {
    /// Request id (for tracing; not used in decisions).
    pub id: u64,
    /// Task type — requests of the same task stay FIFO.
    pub task: u32,
    /// Isolated execution time `Ext(t)`, µs (the vanilla model time).
    pub exec_us: f64,
    /// Remaining device time this request still needs (all its unexecuted
    /// blocks, including splitting overhead), µs.
    pub left_us: f64,
    /// Arrival time, µs.
    pub arrival_us: f64,
}

/// Response ratio of a request given its predicted remaining wait
/// (Algorithm 1's `ResponseRatio`):
/// `(waited + waiting + left) / (α · exec)`.
///
/// `waited` is time already spent in the system (`now − arrival`);
/// `waiting_us` the predicted further wait before its turn.
#[inline]
pub fn response_ratio(entry: &QueueEntry, waiting_us: f64, now_us: f64, alpha: f64) -> f64 {
    debug_assert!(alpha > 0.0);
    let waited = (now_us - entry.arrival_us).max(0.0);
    let target = alpha * entry.exec_us;
    (waited + waiting_us + entry.left_us) / target
}

/// Outcome of one preemption decision.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreemptDecision {
    /// Index at which the new request was inserted.
    pub position: usize,
    /// How many neighbor comparisons the bubble pass made.
    pub comparisons: usize,
    /// Which stopping condition ended the pass.
    pub stop: StopReason,
}

/// Why the bubble pass stopped (§3.4's three conditions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// Reached the head of the queue: the new request has top priority.
    QueueHead,
    /// The neighbor ahead is the same task type (FIFO per task).
    SameTask,
    /// Swapping would not lower the pair's average response ratio.
    NoGain,
}

/// Insert `new` into `queue` (ordered head-first) with the greedy
/// preemption rule.
///
/// Swapping `new` with the request ahead changes the pair's summed
/// response ratio by `(L_new/E_ahead − L_ahead/E_new)/α`: the front wait,
/// both requests' waits and the clock cancel (DESIGN.md §6). So the pass
/// swaps iff `L_new·E_new < L_ahead·E_ahead` (Smith's rule), keeping the
/// `1e-12` tolerance in response-ratio units: the test is
/// `L_ahead/E_new − L_new/E_ahead > α·1e-12` multiplied through by
/// `E_ahead·E_new`, so a step costs three multiplications and no division.
///
/// Returns the decision; `queue` is modified in place.
///
/// ```
/// use split_core::{greedy_preempt, QueueEntry};
///
/// // A long request waits; a short one arrives and preempts it.
/// let mut queue = vec![QueueEntry {
///     id: 1, task: 0, exec_us: 60_000.0, left_us: 66_000.0, arrival_us: 0.0,
/// }];
/// let short = QueueEntry {
///     id: 2, task: 1, exec_us: 5_000.0, left_us: 5_000.0, arrival_us: 100.0,
/// };
/// let decision = greedy_preempt(&mut queue, short, 4.0);
/// assert_eq!(decision.position, 0);
/// assert_eq!(queue[0].id, 2);
/// ```
pub fn greedy_preempt(queue: &mut Vec<QueueEntry>, new: QueueEntry, alpha: f64) -> PreemptDecision {
    let pass = Pass::new(&new, alpha);
    let mut comparisons = 0usize;
    let (position, stop) = pass.bubble(queue, &mut comparisons);
    queue.insert(position, new);
    PreemptDecision {
        position,
        comparisons,
        stop: stop.unwrap_or(StopReason::QueueHead),
    }
}

/// The new request's side of the pair test, hoisted out of the scan.
struct Pass {
    task: u32,
    /// `L_new·E_new`.
    key: f64,
    /// `α·1e-12·E_new`.
    tolerance: f64,
}

impl Pass {
    fn new(new: &QueueEntry, alpha: f64) -> Self {
        debug_assert!(alpha > 0.0);
        Self {
            task: new.task,
            key: new.left_us * new.exec_us,
            tolerance: alpha * 1e-12 * new.exec_us,
        }
    }

    /// Bubble from the tail of `run` toward its head: the index the new
    /// request reaches, and why it stopped (`None`: it passed the whole
    /// run). Each entry tested adds one to `comparisons`.
    #[inline]
    fn bubble(&self, run: &[QueueEntry], comparisons: &mut usize) -> (usize, Option<StopReason>) {
        let mut pos = run.len();
        while pos > 0 {
            let ahead = &run[pos - 1];
            if ahead.task == self.task {
                return (pos, Some(StopReason::SameTask));
            }
            *comparisons += 1;
            // α·E_ahead·E_new·(current − swapped) > α·E_ahead·E_new·1e-12.
            if ahead.left_us * ahead.exec_us - self.key > self.tolerance * ahead.exec_us {
                pos -= 1;
            } else {
                return (pos, Some(StopReason::NoGain));
            }
        }
        (0, None)
    }

    /// Whether the new request passes every entry of `block`: no task
    /// bit matches and the block's bound clears the pair test
    /// (DESIGN.md §6).
    #[inline]
    fn clears(&self, block: &Block) -> bool {
        block.tasks & task_bit(self.task) == 0
            && block.min_le - self.key > self.tolerance * block.max_e
    }
}

/// Entries per block of a [`PreemptQueue`] before it splits in two.
const BLOCK_CAP: usize = 64;
/// A block shorter than this after a removal merges into a neighbour.
const BLOCK_MIN: usize = BLOCK_CAP / 4;

fn task_bit(task: u32) -> u64 {
    1 << (task % 64)
}

/// A run of consecutive queue entries with a conservative summary of
/// them: every entry has `left_us·exec_us ≥ min_le`, `exec_us ≤ max_e`,
/// and its task's bit set in `tasks`. The queue head is exempt (see
/// [`PreemptQueue`]).
#[derive(Debug, Clone)]
struct Block {
    entries: Vec<QueueEntry>,
    min_le: f64,
    max_e: f64,
    tasks: u64,
    /// Entries have left since the last refresh, so the summary may be
    /// wider than they need.
    loose: bool,
}

impl Block {
    fn new(entries: Vec<QueueEntry>) -> Self {
        let mut block = Self {
            entries,
            min_le: f64::INFINITY,
            max_e: 0.0,
            tasks: 0,
            loose: false,
        };
        block.refresh(0);
        block
    }

    /// Recompute the summary from the entries at and after `from`.
    fn refresh(&mut self, from: usize) {
        let (mut min_le, mut max_e, mut tasks) = (f64::INFINITY, 0.0f64, 0u64);
        // Compare-and-assign rather than `f64::min`: no NaN handling, so
        // the loop is not one long dependency chain.
        for e in &self.entries[from..] {
            let le = e.left_us * e.exec_us;
            if le < min_le {
                min_le = le;
            }
            if e.exec_us > max_e {
                max_e = e.exec_us;
            }
            tasks |= task_bit(e.task);
        }
        (self.min_le, self.max_e, self.tasks) = (min_le, max_e, tasks);
        self.loose = false;
    }

    /// Widen the summary to cover `e`.
    fn cover(&mut self, e: &QueueEntry) {
        self.min_le = self.min_le.min(e.left_us * e.exec_us);
        self.max_e = self.max_e.max(e.exec_us);
        self.tasks |= task_bit(e.task);
    }

    /// Append `next`'s entries, widening the summary to cover them.
    fn absorb(&mut self, next: Block) {
        self.entries.extend(next.entries);
        self.min_le = self.min_le.min(next.min_le);
        self.max_e = self.max_e.max(next.max_e);
        self.tasks |= next.tasks;
        self.loose |= next.loose;
    }
}

/// The waiting queue of one device, ordered head-first, with greedy
/// preemption as its insert.
///
/// [`PreemptQueue::insert`] decides exactly as [`greedy_preempt`] on a
/// `Vec` holding the same entries: the same position, comparison count,
/// stop reason and resulting order. It is faster on deep queues. The
/// entries live in blocks of at most 64, each with a conservative
/// summary (least `left_us·exec_us`, greatest `exec_us`, a bitmask of
/// `task % 64`). The bubble pass skips a whole block when the summary
/// proves the new request passes every entry in it, and scans the block
/// with the exact pair test otherwise (DESIGN.md §6). The head, whose
/// `left_us` shrinks on every dispatch, is left out of the summaries and
/// always tested exactly. Insert and remove move at most one block's
/// entries. A queue that fits one block is a plain `Vec` run by
/// [`greedy_preempt`] and keeps no summary.
///
/// Entries must have finite, non-negative `left_us` and `exec_us`.
///
/// ```
/// use split_core::{preempt::StopReason, PreemptQueue, QueueEntry};
///
/// let mut queue = PreemptQueue::new();
/// let long = QueueEntry { id: 1, task: 0, exec_us: 60_000.0, left_us: 66_000.0, arrival_us: 0.0 };
/// let short = QueueEntry { id: 2, task: 1, exec_us: 5_000.0, left_us: 5_000.0, arrival_us: 100.0 };
/// queue.insert(long, 4.0);
/// let decision = queue.insert(short, 4.0);
/// assert_eq!((decision.position, decision.stop), (0, StopReason::QueueHead));
/// assert_eq!(queue.head().map(|e| e.id), Some(2));
/// assert_eq!(queue.remove(2).map(|e| e.id), Some(2));
/// assert_eq!(queue.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PreemptQueue {
    /// Never holds an empty block beside another block. While there is
    /// more than one, every block's summary covers its entries except
    /// the queue head.
    blocks: Vec<Block>,
    len: usize,
}

impl From<Vec<QueueEntry>> for PreemptQueue {
    /// A queue holding `entries` in their given order, head first.
    fn from(entries: Vec<QueueEntry>) -> Self {
        let blocks = entries
            .chunks(BLOCK_CAP / 2)
            .map(|run| {
                let mut block = Vec::with_capacity(BLOCK_CAP + 1);
                block.extend_from_slice(run);
                Block::new(block)
            })
            .collect();
        Self {
            blocks,
            len: entries.len(),
        }
    }
}

impl PreemptQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries, head first.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.blocks.iter().flat_map(|b| &b.entries)
    }

    /// The queue head.
    pub fn head(&self) -> Option<&QueueEntry> {
        self.blocks.first()?.entries.first()
    }

    /// The queue head, to charge it a dispatched block's time.
    pub fn head_mut(&mut self) -> Option<&mut QueueEntry> {
        self.blocks.first_mut()?.entries.first_mut()
    }

    /// Insert `new` with the greedy preemption rule; see
    /// [`greedy_preempt`] for the rule and the decision.
    pub fn insert(&mut self, new: QueueEntry, alpha: f64) -> PreemptDecision {
        self.len += 1;
        if self.blocks.len() <= 1 {
            if self.blocks.is_empty() {
                self.blocks
                    .push(Block::new(Vec::with_capacity(BLOCK_CAP + 1)));
            }
            let decision = greedy_preempt(&mut self.blocks[0].entries, new, alpha);
            self.split_if_full(0);
            return decision;
        }
        let pass = Pass::new(&new, alpha);
        let mut comparisons = 0usize;
        // Entries the new request passes, from the tail.
        let mut passed = 0usize;
        let mut b = self.blocks.len();
        let (block, at, stop) = loop {
            if b == 0 {
                break (0, 0, StopReason::QueueHead);
            }
            b -= 1;
            if self.blocks[b].loose && !pass.clears(&self.blocks[b]) {
                self.blocks[b].refresh(usize::from(b == 0));
            }
            let block = &self.blocks[b];
            let n = block.entries.len();
            // Entries to test one by one: none when the summary clears the
            // block, except the head, which no summary covers.
            let exact = if pass.clears(block) {
                usize::from(b == 0)
            } else {
                n
            };
            comparisons += n - exact;
            let (at, stop) = pass.bubble(&block.entries[..exact], &mut comparisons);
            passed += n - at;
            if let Some(stop) = stop {
                break (b, at, stop);
            }
        };
        let target = &mut self.blocks[block];
        if block == 0 && at == 0 {
            // The old head moves behind the new one and loses its exemption.
            let head = target.entries[0].clone();
            target.cover(&head);
        } else {
            target.cover(&new);
        }
        target.entries.insert(at, new);
        self.split_if_full(block);
        PreemptDecision {
            position: self.len - 1 - passed,
            comparisons,
            stop,
        }
    }

    /// Remove the entry with `id`. The search runs from the head, so it
    /// is cheap for the request that was last dispatched: only arrivals
    /// since its block began can sit ahead of it.
    pub fn remove(&mut self, id: u64) -> Option<QueueEntry> {
        let (b, i) = self.blocks.iter().enumerate().find_map(|(b, block)| {
            block
                .entries
                .iter()
                .position(|e| e.id == id)
                .map(|i| (b, i))
        })?;
        let entry = self.blocks[b].entries.remove(i);
        self.len -= 1;
        if self.blocks.len() > 1 {
            self.rebalance(b);
        }
        Some(entry)
    }

    /// Split block `b` in two once it outgrows [`BLOCK_CAP`]; both halves
    /// get fresh summaries.
    fn split_if_full(&mut self, b: usize) {
        if self.blocks[b].entries.len() <= BLOCK_CAP {
            return;
        }
        let front = &mut self.blocks[b];
        let mut back = Vec::with_capacity(BLOCK_CAP + 1);
        back.extend(front.entries.drain(front.entries.len() / 2..));
        front.refresh(usize::from(b == 0));
        self.blocks.insert(b + 1, Block::new(back));
    }

    /// After a removal from block `b` of a multi-block queue: drop it if
    /// empty, and merge it into a neighbour if short. Its summary stays
    /// valid but may be loose; the next pass that needs it refreshes it.
    fn rebalance(&mut self, b: usize) {
        let n = self.blocks[b].entries.len();
        if n == 0 {
            self.blocks.remove(b);
            return;
        }
        self.blocks[b].loose = true;
        if n >= BLOCK_MIN {
            return;
        }
        let fits = |other: &Block| n + other.entries.len() <= BLOCK_CAP;
        if self.blocks.get(b + 1).is_some_and(fits) {
            let next = self.blocks.remove(b + 1);
            self.blocks[b].absorb(next);
        } else if b > 0 && fits(&self.blocks[b - 1]) {
            let this = self.blocks.remove(b);
            self.blocks[b - 1].absorb(this);
        }
    }
}

/// The paper's Algorithm 1, transliterated.
///
/// The pseudocode walks `i = 1..N` while maintaining
/// `l_waiting = Σ Ext(t_n)` and subtracting one request's remaining time
/// per step — i.e. it considers insertion slots from the **tail toward the
/// head**, comparing the new request's response-ratio delta against the
/// displaced request's. Spelled out, the insertion condition at each step
/// is exactly "swapping the pair lowers their summed response ratio",
/// which is what [`greedy_preempt`] implements as a bubble pass; the
/// equivalence is property-tested (`tests/prop_preempt.rs`). This
/// transliteration keeps every response-ratio term, waits and clock
/// included, so a reader can diff the code against the paper line by
/// line, and so that property test is what proves the terms
/// [`greedy_preempt`] drops do cancel.
///
/// Differences from the printed pseudocode, both necessary for it to be
/// executable (and both noted in DESIGN.md):
/// * line 6's same-type early-return inserts the new request *behind* the
///   matching request (FIFO per task, §3.4) rather than dropping it;
/// * line 12's `ResponseRatio(l_waiting + Ext_left(t_i), t_i, T)` reads as
///   the displaced request's ratio *after* being jumped, which requires
///   adding the **new** request's remaining time (`Ext_left(t_new)`), not
///   its own — the printed subscript is a typo.
pub fn algorithm1_preempt(
    queue: &mut Vec<QueueEntry>,
    new: QueueEntry,
    base_wait_us: f64,
    now_us: f64,
    alpha: f64,
) -> PreemptDecision {
    let n = queue.len();
    // l_waiting ← Σ Ext_left(t_n) (+ the in-flight block everyone waits on).
    let mut l_waiting: f64 = base_wait_us + queue.iter().map(|e| e.left_us).sum::<f64>();
    let mut comparisons = 0usize;

    // i = 1 is the LAST queued request, i = N the first (see module docs).
    for i in 0..n {
        let t_i = &queue[n - 1 - i];
        if t_i.task == new.task {
            // FIFO per task: the new request goes right behind its sibling.
            let pos = n - i;
            queue.insert(pos, new);
            return PreemptDecision {
                position: pos,
                comparisons,
                stop: StopReason::SameTask,
            };
        }
        comparisons += 1;
        // RR of the new request behind / in front of t_i.
        let rr_new_back = response_ratio(&new, l_waiting, now_us, alpha);
        l_waiting -= t_i.left_us;
        let rr_new_front = response_ratio(&new, l_waiting, now_us, alpha);
        // RR of t_i if jumped (waits the new request's time too) / not.
        let rr_i_back = response_ratio(t_i, l_waiting + new.left_us, now_us, alpha);
        let rr_i_front = response_ratio(t_i, l_waiting, now_us, alpha);

        // Keep bubbling only while the swap lowers the pair's total RR;
        // otherwise insert behind t_i.
        let gain_new = rr_new_back - rr_new_front;
        let loss_i = rr_i_back - rr_i_front;
        if gain_new <= loss_i + 1e-12 {
            let pos = n - i;
            queue.insert(pos, new);
            return PreemptDecision {
                position: pos,
                comparisons,
                stop: StopReason::NoGain,
            };
        }
    }

    queue.insert(0, new);
    PreemptDecision {
        position: 0,
        comparisons,
        stop: StopReason::QueueHead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, task: u32, exec: f64, arrival: f64) -> QueueEntry {
        QueueEntry {
            id,
            task,
            exec_us: exec,
            left_us: exec,
            arrival_us: arrival,
        }
    }

    const ALPHA: f64 = 4.0;

    #[test]
    fn empty_queue_inserts_at_head() {
        let mut q = Vec::new();
        let d = greedy_preempt(&mut q, entry(1, 0, 100.0, 0.0), ALPHA);
        assert_eq!(d.position, 0);
        assert_eq!(d.stop, StopReason::QueueHead);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn short_preempts_long() {
        // A long request waits; a short one arrives: the short one's RR
        // gain dwarfs the long one's loss, so it jumps ahead.
        let mut q = vec![entry(1, 0, 60_000.0, 0.0)];
        let d = greedy_preempt(&mut q, entry(2, 1, 5_000.0, 0.0), ALPHA);
        assert_eq!(d.position, 0, "short request must preempt");
        assert_eq!(q[0].id, 2);
        assert_eq!(q[1].id, 1);
    }

    #[test]
    fn long_does_not_preempt_short() {
        let mut q = vec![entry(1, 1, 5_000.0, 0.0)];
        let d = greedy_preempt(&mut q, entry(2, 0, 60_000.0, 0.0), ALPHA);
        assert_eq!(d.position, 1, "long request must queue behind");
        assert_eq!(d.stop, StopReason::NoGain);
    }

    #[test]
    fn same_task_stays_fifo() {
        let mut q = vec![entry(1, 3, 10_000.0, 0.0)];
        let d = greedy_preempt(&mut q, entry(2, 3, 10_000.0, 100.0), ALPHA);
        assert_eq!(d.position, 1);
        assert_eq!(d.stop, StopReason::SameTask);
        assert_eq!(d.comparisons, 0, "same-task check precedes any RR math");
    }

    #[test]
    fn same_task_blocks_further_bubbling() {
        // Queue: [long(task0), short(task7)]; new short of task7 cannot
        // pass its sibling even though it could pass the long one.
        let mut q = vec![entry(1, 7, 5_000.0, 0.0), entry(2, 0, 60_000.0, 0.0)];
        let d = greedy_preempt(&mut q, entry(3, 7, 5_000.0, 10.0), ALPHA);
        // Bubbles past the long request (tail) then stops at the sibling.
        assert_eq!(q.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 3, 2]);
        assert_eq!(d.stop, StopReason::SameTask);
    }

    #[test]
    fn worst_case_comparisons_are_linear() {
        // N distinct long tasks ahead; a very short new request bubbles all
        // the way to the head: exactly N comparisons.
        let n = 64;
        let mut q: Vec<QueueEntry> = (0..n)
            .map(|i| entry(i as u64, i as u32, 50_000.0, 0.0))
            .collect();
        let d = greedy_preempt(&mut q, entry(999, 999, 100.0, 0.0), ALPHA);
        assert_eq!(d.position, 0);
        assert_eq!(d.comparisons, n);
        assert_eq!(d.stop, StopReason::QueueHead);
    }

    #[test]
    fn swap_improves_pair_average_every_time() {
        // Whatever the queue, after insertion the pair-average RR cannot be
        // improved by moving the new request one step in either direction.
        let now = 1_000.0;
        let mut q = vec![
            entry(1, 0, 40_000.0, 0.0),
            entry(2, 1, 9_000.0, 100.0),
            entry(3, 2, 25_000.0, 200.0),
        ];
        let new = entry(4, 3, 12_000.0, now);
        let base = 500.0;
        let d = greedy_preempt(&mut q, new, ALPHA);
        let pos = d.position;

        let pair_sum = |q: &Vec<QueueEntry>, i: usize| {
            let front_wait: f64 = base + q[..i].iter().map(|e| e.left_us).sum::<f64>();
            response_ratio(&q[i], front_wait, now, ALPHA)
                + response_ratio(&q[i + 1], front_wait + q[i].left_us, now, ALPHA)
        };

        // Moving the new request back by one must not lower that pair sum.
        if pos + 1 < q.len() {
            let mut alt = q.clone();
            alt.swap(pos, pos + 1);
            assert!(pair_sum(&alt, pos) + 1e-12 >= pair_sum(&q, pos));
        }
        // Moving it forward by one must not lower that pair sum either
        // (that's exactly why the bubble stopped).
        if pos > 0 && q[pos - 1].task != q[pos].task {
            let mut alt = q.clone();
            alt.swap(pos - 1, pos);
            assert!(pair_sum(&alt, pos - 1) + 1e-12 >= pair_sum(&q, pos - 1));
        }
    }

    /// A queue of `n` distinct long tasks, as a `PreemptQueue` and a `Vec`.
    fn long_queues(n: usize) -> (PreemptQueue, Vec<QueueEntry>) {
        let mut q = PreemptQueue::new();
        let mut v = Vec::new();
        for i in 0..n {
            let e = entry(i as u64, i as u32, 50_000.0, 0.0);
            assert_eq!(q.insert(e.clone(), ALPHA), greedy_preempt(&mut v, e, ALPHA));
        }
        (q, v)
    }

    #[test]
    fn queue_from_vec_keeps_its_order() {
        let v: Vec<QueueEntry> = (0..200)
            .map(|i| {
                entry(
                    i,
                    (i % 7) as u32,
                    1_000.0 + (i * 7_919 % 60_000) as f64,
                    0.0,
                )
            })
            .collect();
        let mut q = PreemptQueue::from(v.clone());
        let mut v = v;
        assert!(q.iter().eq(v.iter()));
        for (id, task, exec) in [(900, 3, 500.0), (901, 99, 500.0), (902, 99, 90_000.0)] {
            let new = entry(id, task, exec, 0.0);
            assert_eq!(
                q.insert(new.clone(), ALPHA),
                greedy_preempt(&mut v, new, ALPHA)
            );
        }
        assert!(q.iter().eq(v.iter()));
    }

    #[test]
    fn queue_sees_a_charged_head() {
        // Every block clears a short newcomer, but the head has almost
        // finished: its block must not be skipped on a stale bound.
        let (mut q, mut v) = long_queues(3 * BLOCK_CAP);
        q.head_mut().unwrap().left_us = 10.0;
        v[0].left_us = 10.0;
        let new = entry(999, 999, 1_000.0, 0.0);
        let want = greedy_preempt(&mut v, new.clone(), ALPHA);
        assert_eq!((want.position, want.stop), (1, StopReason::NoGain));
        assert_eq!(q.insert(new, ALPHA), want);
        assert!(q.iter().eq(v.iter()));
    }

    #[test]
    fn queue_sees_a_charged_head_that_was_passed() {
        // A shorter newcomer takes the head; the charged one behind it must
        // still stop the next arrival.
        let (mut q, mut v) = long_queues(3 * BLOCK_CAP);
        q.head_mut().unwrap().left_us = 10.0;
        v[0].left_us = 10.0;
        for (id, exec, at) in [(1_000, 100.0, 0), (1_001, 1_000.0, 2)] {
            let new = entry(id, id as u32, exec, 0.0);
            let want = greedy_preempt(&mut v, new.clone(), ALPHA);
            assert_eq!(want.position, at);
            assert_eq!(q.insert(new, ALPHA), want);
        }
        assert!(q.iter().eq(v.iter()));
    }

    #[test]
    fn queue_drains_from_the_head_and_merges() {
        let (mut q, mut v) = long_queues(3 * BLOCK_CAP);
        for k in 0..3 * BLOCK_CAP as u64 - 2 {
            assert_eq!(q.remove(k), Some(v.remove(0)));
            // A newcomer of the task at the tail stops there.
            let tail = v.last().unwrap().task;
            let new = entry(1_000 + k, tail, 1_000.0, 0.0);
            let want = greedy_preempt(&mut v, new.clone(), ALPHA);
            assert_eq!(q.insert(new, ALPHA), want);
            assert_eq!(q.remove(1_000 + k), Some(v.pop().unwrap()));
            // A short newcomer passes everything up to its own task.
            for at in [0, 20, 40] {
                if at >= v.len() {
                    break;
                }
                let new = entry(2_000 + k, v[at].task, 1_000.0, 0.0);
                let want = greedy_preempt(&mut v, new.clone(), ALPHA);
                assert_eq!(q.insert(new, ALPHA), want);
                assert_eq!(want.position, at + 1);
                assert_eq!(q.remove(2_000 + k), Some(v.remove(at + 1)));
            }
        }
        assert!(q.iter().eq(v.iter()));
        assert_eq!(q.remove(7), None);
    }

    #[test]
    fn response_ratio_matches_eq3() {
        // RR = (waited + waiting + left) / (α·exec).
        let e = QueueEntry {
            id: 1,
            task: 0,
            exec_us: 10_000.0,
            left_us: 11_000.0,
            arrival_us: 500.0,
        };
        let rr = response_ratio(&e, 2_000.0, 3_000.0, 2.0);
        // waited = 2500, waiting = 2000, left = 11000, target = 20000.
        assert!((rr - (2_500.0 + 2_000.0 + 11_000.0) / 20_000.0).abs() < 1e-12);
    }
}
