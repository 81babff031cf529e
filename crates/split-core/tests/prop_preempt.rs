//! Property tests for the greedy preemption algorithm: the §3.4
//! guarantees must hold for arbitrary queues.

use proptest::prelude::*;
use split_core::{algorithm1_preempt, greedy_preempt, response_ratio, PreemptDecision, QueueEntry};

const ALPHA: f64 = 4.0;

fn entry_strategy() -> impl Strategy<Value = QueueEntry> {
    (0u32..8, 1_000.0f64..80_000.0, 0.0f64..50_000.0).prop_map(|(task, exec, arrival)| QueueEntry {
        id: 0,
        task,
        exec_us: exec,
        left_us: exec * 1.1, // some splitting overhead
        arrival_us: arrival,
    })
}

fn queue_strategy() -> impl Strategy<Value = Vec<QueueEntry>> {
    proptest::collection::vec(entry_strategy(), 0..24).prop_map(numbered)
}

fn numbered(mut q: Vec<QueueEntry>) -> Vec<QueueEntry> {
    for (i, e) in q.iter_mut().enumerate() {
        e.id = i as u64;
    }
    q
}

/// `x` moved by `ulps` representable values (positive finite `x`).
fn nudge(mut x: f64, ulps: i32) -> f64 {
    for _ in 0..ulps.unsigned_abs() {
        x = if ulps > 0 { x.next_up() } else { x.next_down() };
    }
    x
}

/// A new request and a queue in which about half the entries tie with it
/// under Smith's rule: they belong to other tasks, and their
/// `left_us·exec_us` lies within a few ulps of the new request's. Their
/// remaining time stays within 0.5–1.5× their execution time, as a real
/// queue's does.
fn near_tie_strategy() -> impl Strategy<Value = (Vec<QueueEntry>, QueueEntry)> {
    let row = (entry_strategy(), 0u8..2, 0.5f64..1.5, -4i32..5);
    (entry_strategy(), proptest::collection::vec(row, 0..24)).prop_map(|(mut new, rows)| {
        new.id = 999;
        let product = new.left_us * new.exec_us;
        let q = rows
            .into_iter()
            .map(|(mut e, tie, left_frac, ulps)| {
                if tie == 1 {
                    if e.task == new.task {
                        e.task = (e.task + 1) % 8;
                    }
                    e.exec_us = (product / left_frac).sqrt();
                    e.left_us = nudge(product / e.exec_us, ulps);
                }
                e
            })
            .collect();
        (numbered(q), new)
    })
}

/// The deep-queue regime of an oversubscribed lane: hundreds of waiting
/// requests of many tasks, partly executed, behind an in-flight backlog
/// of up to 1e8 µs, at a clock of 1e8 µs.
const DEEP_NOW: f64 = 1e8;

fn deep_entry_strategy() -> impl Strategy<Value = QueueEntry> {
    (
        0u32..512,
        1_000.0f64..80_000.0,
        0.05f64..1.2,
        0.0f64..DEEP_NOW,
    )
        .prop_map(|(task, exec, left_frac, arrival)| QueueEntry {
            id: 0,
            task,
            exec_us: exec,
            left_us: exec * left_frac,
            arrival_us: arrival,
        })
}

fn deep_queue_strategy() -> impl Strategy<Value = Vec<QueueEntry>> {
    proptest::collection::vec(deep_entry_strategy(), 200..600).prop_map(numbered)
}

/// Sum of the two neighbors' response ratios at position `i`.
fn pair_sum(q: &[QueueEntry], i: usize, base: f64, now: f64) -> f64 {
    let front_wait: f64 = base + q[..i].iter().map(|e| e.left_us).sum::<f64>();
    response_ratio(&q[i], front_wait, now, ALPHA)
        + response_ratio(&q[i + 1], front_wait + q[i].left_us, now, ALPHA)
}

/// Local optimality: after insertion at `d.position`, swapping the new
/// request with either neighbor cannot lower that pair's summed response
/// ratio (unless the forward neighbor is same-task, where FIFO
/// overrides).
fn assert_locally_optimal(
    q: &[QueueEntry],
    d: &PreemptDecision,
    base: f64,
    now: f64,
) -> TestCaseResult {
    let i = d.position;
    // Backward swap (new moves one later).
    if i + 1 < q.len() {
        let before = pair_sum(q, i, base, now);
        let mut alt = q.to_vec();
        alt.swap(i, i + 1);
        let after = pair_sum(&alt, i, base, now);
        prop_assert!(
            after + 1e-9 >= before,
            "moving the new request back would improve the pair"
        );
    }
    // Forward swap (new moves one earlier), unless FIFO stopped it.
    if i > 0 && q[i - 1].task != q[i].task {
        let before = pair_sum(q, i - 1, base, now);
        let mut alt = q.to_vec();
        alt.swap(i - 1, i);
        let after = pair_sum(&alt, i - 1, base, now);
        prop_assert!(after + 1e-9 >= before, "the bubble stopped too early");
    }
    Ok(())
}

/// The bubble pass and the paper's transliterated Algorithm 1, which
/// keeps every response-ratio term, choose the same insertion position
/// (and hence produce identical queues).
fn assert_algorithm1_agrees(
    q: Vec<QueueEntry>,
    new: QueueEntry,
    base: f64,
    now: f64,
) -> TestCaseResult {
    let mut q1 = q.clone();
    let mut q2 = q;
    let d1 = greedy_preempt(&mut q1, new.clone(), ALPHA);
    let d2 = algorithm1_preempt(&mut q2, new, base, now, ALPHA);
    prop_assert_eq!(d1, d2);
    prop_assert_eq!(q1, q2);
    Ok(())
}

proptest! {
    /// Insertion keeps everyone present and in a valid position.
    #[test]
    fn preempt_preserves_queue(mut q in queue_strategy(), new in entry_strategy()) {
        let n = q.len();
        let mut new = new;
        new.id = 999;
        let d = greedy_preempt(&mut q, new, ALPHA);
        prop_assert_eq!(q.len(), n + 1);
        prop_assert!(d.position <= n);
        prop_assert_eq!(q[d.position].id, 999);
        // Every original entry still present, in the same relative order.
        let rest: Vec<u64> = q.iter().filter(|e| e.id != 999).map(|e| e.id).collect();
        prop_assert_eq!(rest, (0..n as u64).collect::<Vec<_>>());
    }

    /// FIFO per task: the new request never sits in front of an
    /// earlier-arrived request of the same task.
    #[test]
    fn preempt_respects_same_task_fifo(mut q in queue_strategy(), new in entry_strategy()) {
        let mut new = new;
        new.id = 999;
        let task = new.task;
        greedy_preempt(&mut q, new, ALPHA);
        let my_pos = q.iter().position(|e| e.id == 999).unwrap();
        for e in &q[my_pos + 1..] {
            prop_assert!(e.task != task,
                "jumped ahead of same-task request {}", e.id);
        }
    }

    /// Local optimality, judged by the full response ratios with an
    /// arbitrary in-flight remainder ahead of the queue.
    #[test]
    fn preempt_is_locally_optimal(mut q in queue_strategy(), new in entry_strategy(), base in 0.0f64..30_000.0) {
        let mut new = new;
        new.id = 999;
        let d = greedy_preempt(&mut q, new, ALPHA);
        assert_locally_optimal(&q, &d, base, 60_000.0)?;
    }

    /// Local optimality where neighbors tie with the new request.
    #[test]
    fn preempt_is_locally_optimal_on_near_ties((mut q, new) in near_tie_strategy(), base in 0.0f64..30_000.0) {
        let d = greedy_preempt(&mut q, new, ALPHA);
        assert_locally_optimal(&q, &d, base, 60_000.0)?;
    }

    /// Local optimality on deep queues behind a long backlog.
    #[test]
    fn preempt_is_locally_optimal_on_deep_queues(mut q in deep_queue_strategy(), new in deep_entry_strategy(), base in 0.0f64..1e8) {
        let mut new = new;
        new.id = 999;
        let d = greedy_preempt(&mut q, new, ALPHA);
        assert_locally_optimal(&q, &d, base, DEEP_NOW)?;
    }

    /// Comparisons are bounded by the queue length (O(n) worst case).
    #[test]
    fn preempt_comparisons_linear(mut q in queue_strategy(), new in entry_strategy()) {
        let n = q.len();
        let mut new = new;
        new.id = 999;
        let d = greedy_preempt(&mut q, new, ALPHA);
        prop_assert!(d.comparisons <= n);
    }

    /// For two-entry queues the greedy order matches the brute-force
    /// best order by total response ratio (FIFO permitting).
    #[test]
    fn preempt_matches_bruteforce_on_pairs(a in entry_strategy(), b in entry_strategy()) {
        let now = 60_000.0;
        let mut a = a; a.id = 1;
        let mut b = b; b.id = 2;
        prop_assume!(a.task != b.task);
        let mut q = vec![a.clone()];
        greedy_preempt(&mut q, b.clone(), ALPHA);

        let total = |first: &QueueEntry, second: &QueueEntry| {
            response_ratio(first, 0.0, now, ALPHA)
                + response_ratio(second, first.left_us, now, ALPHA)
        };
        let greedy_total = total(&q[0], &q[1]);
        let best = total(&a, &b).min(total(&b, &a));
        prop_assert!((greedy_total - best).abs() < 1e-9,
            "greedy {greedy_total} vs best {best}");
    }
}

proptest! {
    /// The closed-form pair test drops waits and the clock; Algorithm 1
    /// keeps them. Agreement on arbitrary inputs is what shows they
    /// cancel.
    #[test]
    fn algorithm1_equals_bubble_pass(
        q in queue_strategy(),
        new in entry_strategy(),
        base in 0.0f64..30_000.0,
    ) {
        let mut new = new;
        new.id = 999;
        assert_algorithm1_agrees(q, new, base, 60_000.0)?;
    }

    /// Agreement where the pair test sits on its tolerance.
    #[test]
    fn algorithm1_equals_bubble_pass_on_near_ties(
        (q, new) in near_tie_strategy(),
        base in 0.0f64..30_000.0,
    ) {
        assert_algorithm1_agrees(q, new, base, 60_000.0)?;
    }

    /// Agreement on deep queues behind a long backlog, where Algorithm 1's
    /// response ratios run to ~1e4 and carry the most rounding.
    #[test]
    fn algorithm1_equals_bubble_pass_on_deep_queues(
        q in deep_queue_strategy(),
        new in deep_entry_strategy(),
        base in 0.0f64..1e8,
    ) {
        let mut new = new;
        new.id = 999;
        assert_algorithm1_agrees(q, new, base, DEEP_NOW)?;
    }
}
