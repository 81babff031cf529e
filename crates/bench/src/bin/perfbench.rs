//! Performance benchmark for the reproduction's hot paths, writing
//! machine-readable timings to `BENCH_core.json` at the repo root.
//!
//! Five families are timed (schema in DESIGN.md §10):
//!
//! * `profile_candidate_direct/<model>` vs `profile_candidate/<model>` —
//!   profiling a fixed batch of split candidates from scratch (rebuilding
//!   the per-op cost arithmetic each call) vs through a memoized
//!   [`gpu_sim::CostTable`] built once; their p50 ratio is the table's
//!   per-candidate speedup;
//! * `ga_split/<model>` — the offline GA split search per model;
//! * `ga_split_seq/gpt2` vs `ga_split_par/gpt2` — the same search
//!   pinned to one pool worker vs the ambient `SPLIT_THREADS` width,
//!   recorded in the entry's `threads` field (their p50 ratio is the
//!   pool's speedup on population profiling);
//! * `simulate/<policy>` — one full `sched::simulate` of the Figure 6
//!   scenario-3 workload per serving policy;
//! * `telemetry/*` — deriving the metrics registry + snapshot from a
//!   lifecycle recording, and critical-path attribution over it;
//! * `sketch/*`, `window/rotate`, `drift/replay` — the drift-watch hot
//!   paths: quantile-sketch insert and merge, window-ring rotation, and
//!   replaying a full schedule through the windowed detectors (gated at
//!   ≤ 5% of simulate/SPLIT p50 in `--check` mode);
//! * `decision_core/contend{8,16,32,64}` (and `…_mutex` controls) — the
//!   combining decision core under client-thread contention: N threads
//!   hammer scheduler decisions and every operation's publish→applied
//!   latency lands in a shared histogram, reported as p50/p99/p999. The
//!   `…_mutex` twins run the identical handler through the old
//!   lock-per-operation path, so the committed pair is the measured
//!   combining-vs-lock-handoff gap.
//!
//! Every entry runs `iters/5` (min 1) untimed warmup iterations, then
//! ≥ 5 timed ones, and reports `{name, p50_ns, mean_ns, iters}` plus
//! `ns_per_item` where an entry processes a counted batch (the
//! decision-core entries add `p99_ns`/`p999_ns` from their latency
//! histogram). With `--check`, the binary instead compares fresh p50s
//! against the committed `BENCH_core.json` and exits non-zero if any
//! entry regressed more than 3× — the CI perf-smoke gate. Without it,
//! this is a trend tool: the file is rewritten and CI only fails on a
//! panic.
//!
//! * `fleet/route` and `fleet/simulate{4,16}` — the cluster router over
//!   a 16-device fleet, and the sharded engine serving one fixed
//!   absolute offered load on a 4-shard vs a 16-shard fleet. The load
//!   oversubscribes the small fleet 1.8× while the large one runs at
//!   0.45, so the committed `ns_per_item` ratio is the sharded engine's
//!   4→16 throughput scaling (gated ≥ 2× in CI's `fleet` job).
//!
//! Positional arguments are name-prefix filters (`perfbench
//! decision_core/contend8` runs just that contention pair). Neither a
//! filtered run nor a `--smoke` run ever rewrites `BENCH_core.json`:
//! `--smoke` shrinks the contention and fleet workloads for CI
//! functional coverage, and those shrunk timings must never become the
//! committed baseline (a filtered smoke run like `perfbench fleet
//! --smoke` is the intended cheap pre-merge probe).

use dnn_graph::{Graph, SplitSpec};
use gpu_sim::{CostTable, DeviceConfig};
use model_zoo::ModelId;
use profiler::{profile_split, profile_split_on};
use sched::{simulate, Policy};
use serde_json::{Map, Number, Value};
use split_core::{evolve, GaConfig};
use split_repro::experiment;
use std::time::Instant;
use workload::{RequestTrace, Scenario};

/// Iterations for the slower, simulation-scale benchmarks.
const ITERS: usize = 5;
/// Iterations for the cheap telemetry + per-candidate paths.
const FAST_ITERS: usize = 100;
/// `--check` failure threshold: fresh p50 vs committed p50.
const REGRESSION_FACTOR: u64 = 3;
/// Ceiling on the live drift-recording cost: the per-request observe
/// pair (arrival + judged completion) the serving threads pay must stay
/// ≤ 5% of simulate/SPLIT's per-request p50, so always-on drift
/// recording never becomes the serving path's bottleneck. (The full
/// `drift/replay` projection is an offline analysis and is tracked as a
/// trend entry, not gated against simulate.)
const DRIFT_OVERHEAD_LIMIT: f64 = 0.05;

struct Entry {
    name: String,
    p50_ns: u64,
    mean_ns: f64,
    iters: usize,
    /// Work items processed per iteration, when the entry times a
    /// counted batch (candidate profiles, served requests); `None` for
    /// single-artifact entries.
    items: Option<u64>,
    /// Tail percentiles, for entries backed by a per-operation latency
    /// histogram (the decision-core contention family) rather than
    /// per-iteration wall samples.
    p99_ns: Option<u64>,
    p999_ns: Option<u64>,
    /// Pool width the entry ran at, for entries whose name does not fix
    /// it (the pooled GA search); `None` elsewhere.
    threads: Option<usize>,
}

/// Time `iters` runs of `f` after `iters/5` (min 1) untimed warmup runs
/// (first-touch effects — lazy allocations, cold caches — land in the
/// warmup, not the samples). The result is consumed via `drop` so the
/// optimizer cannot elide the work.
fn time<T>(name: impl Into<String>, iters: usize, mut f: impl FnMut() -> T) -> Entry {
    for _ in 0..(iters / 5).max(1) {
        drop(f());
    }
    let mut samples_ns: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        samples_ns.push(t0.elapsed().as_nanos() as u64);
        drop(out);
    }
    Entry::from_samples(name, samples_ns)
}

impl Entry {
    /// Summarize already-collected samples (the interleaved forensics
    /// pair times its own loop) and print the same report line as
    /// [`time`].
    fn from_samples(name: impl Into<String>, mut samples_ns: Vec<u64>) -> Self {
        let iters = samples_ns.len();
        samples_ns.sort_unstable();
        let p50_ns = samples_ns[samples_ns.len() / 2];
        let mean_ns = samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64;
        let name = name.into();
        println!(
            "{name:32} p50 {:>12} ns   mean {:>14.0} ns   ({iters} iters)",
            p50_ns, mean_ns
        );
        Entry {
            name,
            p50_ns,
            mean_ns,
            iters,
            items: None,
            p99_ns: None,
            p999_ns: None,
            threads: None,
        }
    }

    /// Summarize a per-operation latency histogram (publish→applied
    /// decision latencies): p50/p99/p999 come from the histogram's
    /// log-bucketed quantiles, `iters` is the operation count.
    fn from_decision_stats(name: impl Into<String>, stats: &split_runtime::DecisionStats) -> Self {
        let name = name.into();
        let (p50, p99, p999) = (stats.p50_ns(), stats.p99_ns(), stats.p999_ns());
        println!(
            "{name:32} p50 {:>9} ns   p99 {:>9} ns   p999 {:>9} ns   ({} ops)",
            p50,
            p99,
            p999,
            stats.count()
        );
        Entry {
            name,
            p50_ns: p50,
            mean_ns: stats.mean_ns(),
            iters: stats.count() as usize,
            items: None,
            p99_ns: Some(p99),
            p999_ns: Some(p999),
            threads: None,
        }
    }

    fn with_items(mut self, items: u64) -> Self {
        self.items = Some(items);
        self
    }

    fn ns_per_item(&self) -> Option<f64> {
        self.items
            .filter(|&n| n > 0)
            .map(|n| self.p50_ns as f64 / n as f64)
    }
}

/// A deterministic batch of valid split candidates spanning the arities
/// the GA explores: strided single cuts plus evenly spaced 2–4-way
/// splits. Same batch every run, so entries are comparable across runs.
fn candidate_specs(graph: &Graph) -> Vec<SplitSpec> {
    let m = graph.op_count();
    let stride = (m / 48).max(1);
    let mut specs: Vec<SplitSpec> = (1..m)
        .step_by(stride)
        .filter_map(|c| SplitSpec::new(graph, vec![c]).ok())
        .collect();
    for k in 2..=4usize {
        let cuts: Vec<usize> = (1..k).map(|i| (i * m / k).max(i)).collect();
        if let Ok(spec) = SplitSpec::new(graph, cuts) {
            specs.push(spec);
        }
    }
    specs
}

/// Shared state for the decision-core contention benchmark: the
/// scheduler queue the decision scans plus the latency histogram every
/// operation lands in.
struct DecisionBenchState {
    queue: Vec<u64>,
    stats: split_runtime::DecisionStats,
}

/// The SPLIT decision shape on the combining core's hot path: scan the
/// deadline-ordered queue for the preemption position, insert, keep the
/// queue at serving depth — then account the operation's
/// publish→applied latency. Identical for both cores, so the committed
/// pair isolates the synchronization discipline.
fn decision_bench_handler(st: &mut DecisionBenchState, deadline: u64, publish: Instant) -> usize {
    let pos = st
        .queue
        .iter()
        .position(|&d| d > deadline)
        .unwrap_or(st.queue.len());
    st.queue.insert(pos, deadline);
    if st.queue.len() > 32 {
        st.queue.pop();
    }
    st.stats.record(publish.elapsed().as_nanos() as u64);
    pos
}

/// Run `threads` client threads, each submitting `ops` decisions
/// through `submit`, after a warmup round whose latencies `reset`
/// discards.
/// Closed-loop contention harness: `threads` clients split `total_ops`
/// submissions between them, each sleeping a pseudo-random think time
/// after every response before issuing the next request.
///
/// Think time scales with the thread count so the *aggregate* offered
/// load stays roughly constant as threads grow — the standard
/// closed-loop discipline for isolating synchronization cost. Without
/// it, N busy-loop clients oversubscribe the host's cores and the
/// benchmark measures OS lock-holder preemption (any thread
/// descheduled mid-decision strands the rest for whole scheduling
/// quanta), not the decision path under contention.
fn contend(threads: usize, total_ops: usize, submit: &(dyn Fn(u64) + Sync), reset: impl FnOnce()) {
    let per_thread = (total_ops / threads).max(1);
    let round = |per_thread: usize| {
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    // Deterministic per-thread deadline stream so the
                    // queue scan does real ordering work.
                    let mut x = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1);
                    for _ in 0..per_thread {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        submit(x % 1_000_000);
                        std::thread::sleep(std::time::Duration::from_micros(
                            1 + x % (16 * threads as u64),
                        ));
                    }
                });
            }
        });
    };
    round((per_thread / 5).max(1));
    reset();
    round(per_thread);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let smoke = args.iter().any(|a| a == "--smoke");
    let filters: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    // Two-way prefix match so `decision_core` selects the whole family
    // and `decision_core/contend8` narrows to one pair; called with
    // family prefixes below, so either direction may be the longer one.
    let selected = |name: &str| {
        filters.is_empty()
            || filters
                .iter()
                .any(|f| name.starts_with(f.as_str()) || f.starts_with(name))
    };
    let dev = DeviceConfig::jetson_nano();
    let mut entries: Vec<Entry> = Vec::new();
    // `--check` gate failures, all reported at the end.
    let mut gate_failures: Vec<String> = Vec::new();

    // --- Candidate profiling: direct arithmetic vs the memoized cost
    // table, over the same fixed candidate batch. ---
    if selected("profile_candidate") {
        for id in [ModelId::ResNet50, ModelId::Gpt2] {
            let graph = id.build_calibrated(&dev);
            let name = id.info().name;
            let specs = candidate_specs(&graph);
            let n = specs.len() as u64;
            let direct = time(
                format!("profile_candidate_direct/{name}"),
                FAST_ITERS,
                || {
                    specs
                        .iter()
                        .map(|s| profile_split(&graph, s, &dev).total_us())
                        .sum::<f64>()
                },
            )
            .with_items(n);
            let table = CostTable::build(&graph, &dev);
            let memoized = time(format!("profile_candidate/{name}"), FAST_ITERS, || {
                specs
                    .iter()
                    .map(|s| profile_split_on(&table, s).total_us())
                    .sum::<f64>()
            })
            .with_items(n);
            println!(
                "    cost-table speedup ({name}, {n} candidates): {:.2}x",
                direct.p50_ns as f64 / memoized.p50_ns.max(1) as f64
            );
            entries.push(direct);
            entries.push(memoized);
        }
    }

    // --- Offline: GA split search on a representative long model pair. ---
    if selected("ga_split") {
        for id in [ModelId::ResNet50, ModelId::Vgg19] {
            let graph = id.build_calibrated(&dev);
            let name = id.info().name;
            entries.push(time(format!("ga_split/{name}"), ITERS, || {
                evolve(
                    &graph,
                    &dev,
                    &GaConfig::new(3).with_seed(experiment::OFFLINE_SEED),
                )
            }));
        }
    }

    // --- Pool: the same GA search pinned to one worker vs the ambient
    // pool width, on the op-heaviest zoo model. The ratio is the
    // work-stealing pool's speedup on population profiling; at
    // SPLIT_THREADS=1 (or on a 1-core host) the two entries coincide.
    if selected("ga_split_seq") || selected("ga_split_par") {
        let graph = ModelId::Gpt2.build_calibrated(&dev);
        let cfg = GaConfig::new(3).with_seed(experiment::OFFLINE_SEED);
        let seq = time("ga_split_seq/gpt2", ITERS, || {
            rayon::with_threads(1, || evolve(&graph, &dev, &cfg))
        });
        let par = time("ga_split_par/gpt2", ITERS, || evolve(&graph, &dev, &cfg));
        let par = Entry {
            threads: Some(rayon::current_threads()),
            ..par
        };
        println!(
            "    pool speedup (seq p50 / par p50, {} workers): {:.2}x",
            rayon::current_threads(),
            seq.p50_ns as f64 / par.p50_ns.max(1) as f64
        );
        entries.push(seq);
        entries.push(par);
    }

    // --- The simulation-backed families share one deployment and
    // workload; none of it is built when the filters skip them all. ---
    let need_workload = selected("simulate")
        || selected("telemetry")
        || selected("sketch")
        || selected("window")
        || selected("drift");
    let mut simulate_split_p50 = 0u64;
    if need_workload {
        // --- Online: one simulate() of the fig6 scenario-3 workload per policy. ---
        let deployment = experiment::paper_deployment(&dev);
        let workload = RequestTrace::generate(Scenario::table2(3), &experiment::PAPER_MODEL_NAMES);
        let requests = workload.arrivals.len() as u64;
        if selected("simulate") {
            for policy in Policy::all_default() {
                let e = time(format!("simulate/{}", policy.name()), ITERS, || {
                    simulate(&policy, &workload.arrivals, deployment.table())
                })
                .with_items(requests);
                if matches!(policy, Policy::Split(_)) {
                    simulate_split_p50 = e.p50_ns;
                }
                entries.push(e);
            }
        }

        // --- Telemetry and drift share one recorded simulation. ---
        if selected("telemetry") || selected("sketch") || selected("window") || selected("drift") {
            let result = simulate(
                &Policy::Split(Default::default()),
                &workload.arrivals,
                deployment.table(),
            );
            if selected("telemetry") {
                entries.push(time("telemetry/registry_snapshot", FAST_ITERS, || {
                    result.metrics().snapshot()
                }));
                entries.push(time("telemetry/attribution", FAST_ITERS, || {
                    result.attribution()
                }));
            }

            // --- Drift watch: the sketch and window hot paths, plus the full
            // drift projection's cost relative to the simulate it watches. ---
            if selected("sketch") || selected("window") || selected("drift") {
                use split_repro::split_telemetry::sketch::QuantileSketch;
                use split_repro::split_watch::{WatchCfg, WindowRing};
                // Deterministic sample stream (xorshift64*): same values every
                // run, so entries are comparable across runs.
                let mut state = 0x5EED_1234_ABCDu64;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % 1_000_000
                };
                let samples: Vec<u64> = (0..65_536).map(|_| next()).collect();
                entries.push(
                    time("sketch/insert", FAST_ITERS, || {
                        let mut s = QuantileSketch::default();
                        for &v in &samples {
                            s.record(v);
                        }
                        s
                    })
                    .with_items(samples.len() as u64),
                );
                let shards: Vec<QuantileSketch> = samples
                    .chunks(1_024)
                    .map(|c| {
                        let mut s = QuantileSketch::default();
                        for &v in c {
                            s.record(v);
                        }
                        s
                    })
                    .collect();
                entries.push(
                    time("sketch/merge", FAST_ITERS, || {
                        let mut out = QuantileSketch::default();
                        for s in &shards {
                            out.merge(s);
                        }
                        out
                    })
                    .with_items(shards.len() as u64),
                );
                // 256 windows × 4 observations each; the entry times the whole
                // feed, the per-item figure is the cost of one rotation.
                let windows = 256u64;
                entries.push(
                    time("window/rotate", FAST_ITERS, || {
                        let mut ring = WindowRing::new(1_000.0, 64, 0.01);
                        for w in 0..windows {
                            for i in 0..4u64 {
                                let t = w as f64 * 1_000.0 + 1.0 + i as f64 * 200.0;
                                ring.observe_arrival(t, "m");
                                ring.observe_completion(t, "m", 2_000.0, false);
                            }
                        }
                        ring.finalize()
                    })
                    .with_items(windows),
                );
                // The live recording path: what a serving thread pays per
                // request (one arrival + one judged completion) with the model
                // mix the paper serves. One huge window isolates the record
                // cost; rotation is amortized and timed by window/rotate.
                let record_pairs = 4_096u64;
                let record = time("drift/record", FAST_ITERS, || {
                    let mut ring = WindowRing::new(1e12, 64, 0.01);
                    for i in 0..record_pairs {
                        let model = experiment::PAPER_MODEL_NAMES
                            [(i % experiment::PAPER_MODEL_NAMES.len() as u64) as usize];
                        let t = i as f64 * 10.0;
                        ring.observe_arrival(t, model);
                        ring.observe_completion(
                            t + 5.0,
                            model,
                            2_000.0 + (i % 7) as f64 * 900.0,
                            i % 9 == 0,
                        );
                    }
                    ring
                })
                .with_items(record_pairs);
                let per_request = record.ns_per_item().unwrap_or(0.0);
                let sim_per_request = simulate_split_p50 as f64 / requests.max(1) as f64;
                let overhead = per_request / sim_per_request.max(1.0);
                if simulate_split_p50 > 0 {
                    println!(
                        "    drift-recording cost per request: {per_request:.0} ns \
                 ({:.2}% of simulate/SPLIT per-request p50)",
                        100.0 * overhead
                    );
                }
                if check && simulate_split_p50 > 0 && overhead > DRIFT_OVERHEAD_LIMIT {
                    gate_failures.push(format!(
                        "drift recording costs {:.2}% of simulate/SPLIT per-request p50 \
                         (limit {:.0}%)",
                        100.0 * overhead,
                        100.0 * DRIFT_OVERHEAD_LIMIT
                    ));
                }
                entries.push(record);
                entries.push(
                    time("drift/replay", ITERS, || result.drift(WatchCfg::default()))
                        .with_items(requests),
                );
            }
        }
    }

    // --- Forensics: the raw seqlock write path — what a live server
    // thread pays per causal event it pushes into the shared ring
    // (a simulation's flight view is projected from its lifecycle and
    // never touches it). ---
    if selected("flight_ring") {
        let ring = split_forensics::FlightRing::with_capacity(8_192);
        let n = 8_192u64;
        entries.push(
            time("flight_ring/record", FAST_ITERS, || {
                for i in 0..n {
                    ring.record(i as f64, i, split_forensics::FlightKind::BlockStart, i, i);
                }
            })
            .with_items(n),
        );
    }

    // --- Decision core under contention: N client threads hammer
    // scheduler decisions through the combining core and through the
    // old lock-per-operation path, identical handlers. The entries'
    // p50/p99/p999 are publish→applied latencies from the shared
    // histogram — the microsecond-decision claim of §3.4 measured under
    // the thread counts the paper's serving tier sees. ---
    if selected("decision_core") {
        let ops = if smoke { 3_200 } else { 16_000 };
        for threads in [8usize, 16, 32, 64] {
            let pair_name = format!("decision_core/contend{threads}");
            if !selected(&pair_name) {
                continue;
            }
            let combining = split_runtime::CombiningCore::new(
                DecisionBenchState {
                    queue: Vec::with_capacity(64),
                    stats: split_runtime::DecisionStats::new(),
                },
                decision_bench_handler,
            );
            contend(
                threads,
                ops,
                &|deadline| {
                    combining.submit(deadline);
                },
                || {
                    combining.with_state(|st| st.stats = split_runtime::DecisionStats::new());
                },
            );
            let comb = combining.with_state(|st| Entry::from_decision_stats(&pair_name, &st.stats));

            let mutexed = bench::MutexCore::new(
                DecisionBenchState {
                    queue: Vec::with_capacity(64),
                    stats: split_runtime::DecisionStats::new(),
                },
                decision_bench_handler,
            );
            contend(
                threads,
                ops,
                &|deadline| {
                    mutexed.submit(deadline);
                },
                || {
                    mutexed.with_state(|st| st.stats = split_runtime::DecisionStats::new());
                },
            );
            let ctrl = mutexed.with_state(|st| {
                Entry::from_decision_stats(format!("{pair_name}_mutex"), &st.stats)
            });
            println!(
                "    combining-core p99 advantage over the lock path \
                 ({threads} threads): {:.1}x",
                ctrl.p99_ns.unwrap_or(0) as f64 / comb.p99_ns.unwrap_or(1).max(1) as f64
            );
            entries.push(comb);
            entries.push(ctrl);
        }
    }

    // --- Fleet: the sharded cluster engine. One fixed absolute offered
    // load (18 jetson-units of work per unit time) is served by a
    // 4-shard fleet (capacity 10 units → 1.8× oversubscribed, so lane
    // queues and the O(queue) greedy-preempt scans grow without bound)
    // and by a 16-shard fleet (capacity 40 units → 0.45 load, queues
    // stay shallow). The request stream is identical, so the committed
    // simulate4/simulate16 ns_per_item ratio is the sharded engine's
    // 4→16 throughput scaling, gated ≥ 2× by CI's `fleet` job. ---
    if selected("fleet") {
        use split_repro::split_cluster as cluster;
        const OFFERED_JETSON_UNITS: f64 = 18.0;
        let deployment = experiment::paper_deployment(&dev);
        let table = deployment.table();
        let requests = if smoke { 2_000 } else { 20_000 };
        let interval_us = cluster::mean_exec_us(table) / OFFERED_JETSON_UNITS;
        let trace = RequestTrace::generate(
            Scenario::fleet(interval_us, requests),
            &experiment::PAPER_MODEL_NAMES,
        );
        let n = trace.arrivals.len() as u64;
        let policy = Policy::Split(Default::default());
        let build = |spec: &str| {
            let spec = gpu_sim::FleetSpec::parse(spec).expect("bench fleet spec");
            let fleet = cluster::Fleet::new(&spec, table);
            let placement = cluster::Placement::full(&fleet, table);
            (fleet, placement)
        };
        if selected("fleet/route") {
            let (fleet, placement) = build("jetson*8,nx:1*8");
            entries.push(
                time("fleet/route", FAST_ITERS, || {
                    cluster::route(
                        &trace.arrivals,
                        &fleet,
                        &placement,
                        &cluster::RouteCfg::default(),
                    )
                })
                .with_items(n),
            );
        }
        for (shards, spec) in [(4usize, "jetson*2,nx:1*2"), (16, "jetson*8,nx:1*8")] {
            let name = format!("fleet/simulate{shards}");
            if !selected(&name) {
                continue;
            }
            let (fleet, placement) = build(spec);
            assert_eq!(fleet.devices().len(), shards, "bench spec drifted");
            entries.push(
                time(name, ITERS, || {
                    cluster::simulate_fleet(
                        &policy,
                        &trace.arrivals,
                        &fleet,
                        &placement,
                        &cluster::RouteCfg::default(),
                    )
                })
                .with_items(n),
            );
        }
        if let (Some(small), Some(big)) = (
            entries.iter().find(|e| e.name == "fleet/simulate4"),
            entries.iter().find(|e| e.name == "fleet/simulate16"),
        ) {
            println!(
                "    4→16-shard throughput scaling on a fixed offered load: {:.2}x",
                small.p50_ns as f64 / big.p50_ns.max(1) as f64
            );
        }
    }

    let path = bench::results_dir().join("../BENCH_core.json");
    if check {
        check_against_committed(&path, &entries, gate_failures);
        return;
    }
    // Shrunk (--smoke) timings must never become the committed
    // baseline, and a filtered run measures only a slice of it.
    if !filters.is_empty() || smoke {
        let kind = match (filters.is_empty(), smoke) {
            (false, true) => "filtered smoke",
            (false, false) => "filtered",
            _ => "smoke",
        };
        println!(
            "\n{} entries from a {kind} run — BENCH_core.json left untouched",
            entries.len()
        );
        return;
    }

    let doc = Value::Array(
        entries
            .iter()
            .map(|e| {
                let mut m = Map::new();
                m.insert("name", Value::String(e.name.clone()));
                m.insert("p50_ns", Value::Number(Number::PosInt(e.p50_ns)));
                m.insert("mean_ns", Value::Number(Number::Float(e.mean_ns)));
                m.insert("iters", Value::Number(Number::PosInt(e.iters as u64)));
                if let Some(threads) = e.threads {
                    m.insert("threads", Value::Number(Number::PosInt(threads as u64)));
                }
                if let Some(per_item) = e.ns_per_item() {
                    m.insert("ns_per_item", Value::Number(Number::Float(per_item)));
                }
                if let Some(p99) = e.p99_ns {
                    m.insert("p99_ns", Value::Number(Number::PosInt(p99)));
                }
                if let Some(p999) = e.p999_ns {
                    m.insert("p999_ns", Value::Number(Number::PosInt(p999)));
                }
                Value::Object(m)
            })
            .collect(),
    );
    let text = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(&path, text + "\n").expect("write BENCH_core.json");
    println!("\n{} entries written to BENCH_core.json", entries.len());
}

/// `--check` mode: every fresh entry whose name exists in the committed
/// baseline must have p50 within [`REGRESSION_FACTOR`]× of the committed
/// p50. Names missing from the baseline (new entries) are skipped, and
/// the file is never rewritten, so the gate cannot ratchet itself. Exits
/// non-zero once if this or an overhead gate (`failures`) failed.
fn check_against_committed(path: &std::path::Path, entries: &[Entry], mut failures: Vec<String>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {} for --check: {e}", path.display()));
    let committed = serde_json::parse(&text).expect("parse committed BENCH_core.json");
    let baseline = committed.as_array().expect("baseline is a JSON array");
    let p50_of = |name: &str| -> Option<u64> {
        baseline
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|v| v.get("p50_ns"))
            .and_then(Value::as_u64)
    };
    for e in entries {
        // The `_mutex` entries are experimental controls (the replaced
        // architecture), kept for the p99-ratio comparison, not product
        // performance: their latency is context-switch dominated and
        // swings several-fold with host scheduler noise, so gating them
        // would only make the check flaky.
        if e.name.ends_with("_mutex") {
            continue;
        }
        let Some(base) = p50_of(&e.name).filter(|&b| b > 0) else {
            println!("    (no committed baseline for {}, skipped)", e.name);
            continue;
        };
        if e.p50_ns > REGRESSION_FACTOR * base {
            failures.push(format!(
                "{}: fresh p50 {} ns is {:.1}x the committed {} ns (limit {}x)",
                e.name,
                e.p50_ns,
                e.p50_ns as f64 / base as f64,
                base,
                REGRESSION_FACTOR
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "\nperf-smoke: overhead gates pass; all {} baselined entries within {}x of committed p50",
            entries.len(),
            REGRESSION_FACTOR
        );
    } else {
        eprintln!("\nperf-smoke FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
