//! Elastic-controller overhead: the on-arrival decision must be cheap
//! enough to sit on the request hot path (§3.3).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use split_core::{ElasticConfig, ElasticController};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("elastic");

    group.bench_function("on_arrival/steady_mixed", |b| {
        b.iter_batched(
            || {
                let mut ctl = ElasticController::new(ElasticConfig::default());
                for i in 0..64 {
                    ctl.on_arrival(i as f64 * 30_000.0, (i % 5) as u32);
                }
                ctl
            },
            |mut ctl| black_box(ctl.on_arrival(64.0 * 30_000.0, 2)),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("on_arrival/window_full", |b| {
        // 100 arrivals inside the 500 ms window; the new one evicts the
        // oldest, so the window stays full. The dominant-task tally is
        // what this case prices.
        b.iter_batched(
            || {
                let mut ctl = ElasticController::new(ElasticConfig::default());
                for i in 0..100 {
                    ctl.on_arrival(i as f64 * 5_000.0, (i % 5) as u32);
                }
                ctl
            },
            |mut ctl| black_box(ctl.on_arrival(500_500.0, 2)),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("on_arrival/window_churn", |b| {
        // A big stale window forces maximal eviction work.
        b.iter_batched(
            || {
                let mut ctl = ElasticController::new(ElasticConfig::default());
                for i in 0..512 {
                    ctl.on_arrival(i as f64 * 900.0, (i % 5) as u32);
                }
                ctl
            },
            |mut ctl| black_box(ctl.on_arrival(10_000_000.0, 0)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
