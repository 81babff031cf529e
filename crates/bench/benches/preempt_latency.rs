//! The §3.4 claim, measured: greedy preemption decisions are
//! microsecond-scale with O(n) worst case — versus the "recalculate every
//! priority and re-sort" strawman the paper argues against (§2.3). The
//! `queue/*` entries run the same decisions on `PreemptQueue`, the
//! block-skipping queue the SPLIT machine uses.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use split_core::{greedy_preempt, response_ratio, PreemptQueue, QueueEntry};
use std::hint::black_box;

fn queue(n: usize) -> Vec<QueueEntry> {
    (0..n)
        .map(|i| QueueEntry {
            id: i as u64,
            // Distinct tasks, execution times spread 5..65 ms.
            task: i as u32,
            exec_us: 5_000.0 + (i as f64 * 7_919.0) % 60_000.0,
            left_us: 5_000.0 + (i as f64 * 7_919.0) % 60_000.0,
            arrival_us: i as f64 * 100.0,
        })
        .collect()
}

fn newcomer(n: usize) -> QueueEntry {
    QueueEntry {
        id: n as u64 + 1,
        task: u32::MAX,
        exec_us: 1_000.0,
        left_us: 1_000.0,
        arrival_us: (n as f64) * 100.0,
    }
}

/// The strawman: recompute every request's response ratio and fully
/// re-sort on each arrival (the "dynamic priority recalculation" §2.3
/// deems too slow).
fn full_resort(queue: &mut Vec<QueueEntry>, new: QueueEntry, now: f64, alpha: f64) {
    queue.push(new);
    // Score by response ratio assuming each request ran next.
    queue.sort_by(|a, b| {
        let ra = response_ratio(a, 0.0, now, alpha);
        let rb = response_ratio(b, 0.0, now, alpha);
        rb.total_cmp(&ra)
    });
}

fn bench_preempt(c: &mut Criterion) {
    let mut group = c.benchmark_group("preempt_latency");
    for n in [8usize, 64, 512, 4096] {
        group.bench_function(format!("greedy/queue{n}"), |b| {
            b.iter_batched(
                || (queue(n), newcomer(n)),
                |(mut q, new)| black_box(greedy_preempt(&mut q, new, 4.0)),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("full_resort/queue{n}"), |b| {
            b.iter_batched(
                || (queue(n), newcomer(n)),
                |(mut q, new)| {
                    full_resort(&mut q, new, n as f64 * 100.0, 4.0);
                    black_box(q.len())
                },
                BatchSize::SmallInput,
            )
        });
    }
    // The O(k)-average case: only 5 distinct task types in a long queue,
    // so the bubble stops at the first same-task neighbor.
    group.bench_function("greedy/queue512_5tasks", |b| {
        b.iter_batched(
            || {
                let mut q = queue(512);
                for (i, e) in q.iter_mut().enumerate() {
                    e.task = (i % 5) as u32;
                }
                let mut new = newcomer(512);
                new.task = 3;
                (q, new)
            },
            |(mut q, new)| black_box(greedy_preempt(&mut q, new, 4.0)),
            BatchSize::SmallInput,
        )
    });
    for n in [512usize, 4096] {
        group.bench_function(format!("queue/queue{n}"), |b| {
            b.iter_batched(
                || (PreemptQueue::from(queue(n)), newcomer(n)),
                |(mut q, new)| black_box(q.insert(new, 4.0)),
                BatchSize::SmallInput,
            )
        });
    }
    // A device's steady state on a 4096-deep queue: an arrival, then
    // dispatch and retirement of the head, 1000 times per sample.
    group.bench_function("greedy/cycle4096_1000x", |b| {
        let mut q = queue(4096);
        let mut next = q.len();
        b.iter(|| {
            for _ in 0..1000 {
                black_box(greedy_preempt(&mut q, arrival(next), 4.0));
                q[0].left_us *= 0.5;
                q.remove(0);
                next += 1;
            }
        })
    });
    group.bench_function("queue/cycle4096_1000x", |b| {
        let mut q = PreemptQueue::from(queue(4096));
        let mut next = q.len();
        b.iter(|| {
            for _ in 0..1000 {
                black_box(q.insert(arrival(next), 4.0));
                let head = q.head_mut().expect("queue stays 4096 deep");
                head.left_us *= 0.5;
                let id = head.id;
                q.remove(id);
                next += 1;
            }
        })
    });
    group.finish();
}

/// The `i`-th arrival of the cycle benches: 97 tasks, 5..65 ms.
fn arrival(i: usize) -> QueueEntry {
    let exec_us = 5_000.0 + (i as f64 * 7_919.0) % 60_000.0;
    QueueEntry {
        id: i as u64,
        task: (i % 97) as u32,
        exec_us,
        left_us: exec_us,
        arrival_us: i as f64 * 100.0,
    }
}

criterion_group!(benches, bench_preempt);
criterion_main!(benches);
