//! The §3.4 claim, measured: greedy preemption decisions are
//! microsecond-scale with O(n) worst case — versus the "recalculate every
//! priority and re-sort" strawman the paper argues against (§2.3).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use split_core::{greedy_preempt, response_ratio, QueueEntry};
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
    group.finish();
}

criterion_group!(benches, bench_preempt);
criterion_main!(benches);
