//! The lifecycle projection every `SimResult` pays, stage by stage, on
//! one seeded 1000-request Table 2 scenario-6 trace: the lifecycle attach
//! (a k-way merge of the time-ordered event runs, DESIGN.md §8) after
//! SPLIT and after RT-A, and the metrics registry derived from SPLIT's
//! recording.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gpu_sim::DeviceConfig;
use sched::policy::{rta, split, RtaCfg, SplitCfg};
use sched::{attach_lifecycle, SimResult};
use split_repro::experiment::{self, PAPER_MODEL_NAMES};
use std::hint::black_box;
use workload::{RequestTrace, Scenario};

fn bench(c: &mut Criterion) {
    let dev = DeviceConfig::jetson_nano();
    let deployment = experiment::paper_deployment(&dev);
    let trace = RequestTrace::generate(Scenario::table2(6), &PAPER_MODEL_NAMES);
    let arrivals = &trace.arrivals;
    let raw_split = split(arrivals, deployment.table(), &SplitCfg::default());
    let raw_rta = rta(arrivals, deployment.table(), &RtaCfg::default());

    let mut group = c.benchmark_group("lifecycle");
    for (name, raw) in [("attach/SPLIT", &raw_split), ("attach/RT-A", &raw_rta)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || raw.clone(),
                |r: SimResult| black_box(attach_lifecycle(arrivals, r)),
                BatchSize::LargeInput,
            )
        });
    }
    let attached = attach_lifecycle(arrivals, raw_split.clone());
    group.bench_function("metrics/SPLIT", |b| {
        b.iter(|| black_box(attached.metrics().snapshot()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
