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
//! cancels out of it (see [`greedy_preempt`]).
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
    debug_assert!(alpha > 0.0);
    let key = new.left_us * new.exec_us;
    let tolerance = alpha * 1e-12 * new.exec_us;
    let mut pos = queue.len();
    let mut comparisons = 0usize;
    let mut stop = StopReason::QueueHead;

    while pos > 0 {
        let ahead = &queue[pos - 1];
        if ahead.task == new.task {
            stop = StopReason::SameTask;
            break;
        }
        comparisons += 1;
        // α·E_ahead·E_new·(current − swapped) > α·E_ahead·E_new·1e-12.
        if ahead.left_us * ahead.exec_us - key > tolerance * ahead.exec_us {
            pos -= 1;
        } else {
            stop = StopReason::NoGain;
            break;
        }
    }

    queue.insert(pos, new);
    PreemptDecision {
        position: pos,
        comparisons,
        stop,
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
