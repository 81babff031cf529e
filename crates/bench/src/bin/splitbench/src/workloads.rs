//! The four workloads: inputs made from the seed, an untimed correctness
//! pass, a timed phase, and (with `--trace`) a traced phase.

use crate::layers::{self, Arrival, FleetSetup, SchedCounts};
use crate::spans::Tracer;
use crate::stats::{beyond, highest_supported, median, percentile, MIN_BEYOND};
use std::collections::BTreeMap;
use std::time::Instant;

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["paper-fig6", "fleet-overload", "fleet-wide", "live-s6"];

/// Table 2 scenario 6, the paper's heaviest load: λ = 110 ms.
const S6_LAMBDA_US: f64 = 110_000.0;
/// Requests in one paper-fig6 trace, as in the paper (§5.1).
const FIG6_REQUESTS: usize = 1_000;
/// Seeded traces one paper-fig6 run cycles through. One 1000-request
/// trace moves SPLIT's tail response ratio by ~10% from seed to seed;
/// pooling the response ratios of 16 keeps rr_p95 within ~1%.
const FIG6_TRACES: usize = 16;
/// Requests per fleet operation: enough for the overloaded lanes' queues
/// to reach ~1500 deep, so the O(queue) preemption scans dominate there.
const FLEET_REQUESTS: usize = 20_000;
/// Seeded fleet traces one run cycles through, so response ratios and the
/// overloaded fleet's quadratic scan cost are averaged over four arrival
/// realisations (with one, fleet-wide's rr_p99 moved 12% across seeds).
const FLEET_TRACES: usize = 4;
/// Offered work in Jetson-Nano units, one stream for both fleets: 1.8×
/// the overload fleet's capacity of 10, 0.45× the wide fleet's 40.
const FLEET_JETSON_UNITS: f64 = 18.0;
/// Two Jetsons plus two single-partition NX boards (capacity 10): the
/// slow lanes' queues grow for the whole trace.
const FLEET_OVERLOAD: &str = "jetson*2,nx:1*2";
/// Eight of each (capacity 40): queues stay about 4 deep, so per-lane
/// fixed costs, routing and the merges dominate instead.
const FLEET_WIDE: &str = "jetson*8,nx:1*8";
/// Fresh set-ups timed for setup_s; the median is reported. One takes
/// ~2 ms, and a median over ~0.2 s of them rides out short bursts of
/// interference from other tenants of the host.
const SETUP_REPS: usize = 101;
/// Traced deployment builds for the calibrate/plan split.
const SETUP_TRACE_REPS: usize = 11;
/// Share of the measuring time spent first on untimed warmup.
const WARMUP_SHARE: f64 = 0.1;
/// Timed iterations every simulation run reaches at least: ten per
/// fleet trace for its fast decile. Runs are normally time-bound; this
/// only matters on a host slow enough to need it.
const MIN_ITERS: usize = 40;
/// Iterations each phase of a traced run reaches at least; it reports
/// medians only.
const TRACE_MIN_ITERS: usize = 20;
/// Untimed live warmup before the measured stream, seconds of arrivals.
const LIVE_WARMUP_S: f64 = 1.0;
/// Wall lead before the first live arrival is due, simulated µs (10 ms
/// of wall time at compression 100).
const LIVE_LEAD_SIM_US: f64 = 1_000_000.0;
/// A live send this late (wall µs) counts as the generator slipping.
const LATE_US: f64 = 100.0;
/// A live run whose generator slipped on more than this share of sends
/// did not offer the load it claims: it is reported but marked invalid.
const MAX_LATE_FRAC: f64 = 0.05;

pub struct Opts {
    pub seed: u64,
    /// Pool width the correctness pass runs at (measuring uses one).
    pub pool_width: usize,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Opts {
    /// Measuring time: a smoke run only checks that everything works.
    fn seconds(&self) -> f64 {
        if self.smoke {
            self.seconds.min(0.3)
        } else {
            self.seconds
        }
    }

    fn setup_reps(&self) -> usize {
        if self.smoke {
            3
        } else {
            SETUP_REPS
        }
    }

    fn min_iters(&self) -> usize {
        match (self.smoke, self.trace) {
            (true, _) => 2,
            (false, true) => TRACE_MIN_ITERS,
            (false, false) => MIN_ITERS,
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Fold of the simulation schedule digests (none for live-s6).
    pub digest: Option<u64>,
    /// False when a live run's generator slipped.
    pub valid: bool,
    /// Whether the statistical checks (samples beyond a tail percentile,
    /// the stage-coverage rule) can fail the run. Not in a smoke run: its
    /// few samples are never reported and too few to judge.
    strict: bool,
    /// Human-readable lines: sample counts, self times, checks.
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    fn new(o: &Opts) -> Self {
        Outcome {
            valid: true,
            strict: !o.smoke,
            ..Default::default()
        }
    }

    /// Account one correctness check and its failure messages.
    fn check(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set `peak_rss_mb` to the process's peak resident set so far. Read
    /// when the measured phase ends: the correctness pass after it runs
    /// on the full pool, whose workers hold schedules at once in an order
    /// that varies from run to run (peak RSS of fleet-overload then spread
    /// 29–37 MB, against 24.4–24.9 MB at one worker).
    fn peak_rss(&mut self) {
        match peak_rss_mb() {
            Some(mb) => self.set("peak_rss_mb", mb),
            None => self.check(vec!["peak RSS unreadable (/proc/self/status)".into()]),
        }
    }

    /// Fail the run unless the correctness pass, at the full pool width,
    /// reproduced the schedule measured at one worker.
    fn same_schedule(&mut self, input: usize, checked: u64, measured: u64, width: usize) {
        self.check(if checked == measured {
            Vec::new()
        } else {
            vec![format!(
                "input {input}: the schedule at {width} pool workers differs from the one at 1"
            )]
        });
    }

    /// Set a tail percentile, failing the run when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    fn tail(&mut self, name: &'static str, xs: &[f64], q: f64) {
        let n = beyond(xs.len(), q);
        if self.strict && n < MIN_BEYOND {
            self.check(vec![format!(
                "{name}: {} samples leave {n} beyond p{}, under {MIN_BEYOND}",
                xs.len(),
                q * 100.0
            )]);
        }
        self.set(name, percentile(xs, q));
    }
}

/// Run one workload. Everything it measures runs with the program's pool
/// pinned to one worker: a parallel operation waits for its slowest
/// worker, and on a shared 2-core host fleet throughput spread 8–13%
/// over ten runs at two workers, 3–9% at one. The correctness pass runs
/// at `o.pool_width`, so every run also checks that schedules do not
/// depend on the pool width, and the traced fleet run reports the pool's
/// speed-up.
pub fn run(name: &str, o: &Opts) -> Outcome {
    layers::with_pool(1, || match name {
        "paper-fig6" => paper_fig6(o),
        "fleet-overload" => fleet(o, FLEET_OVERLOAD, true),
        "fleet-wide" => fleet(o, FLEET_WIDE, false),
        "live-s6" => live_s6(o),
        _ => unreachable!("workload names are checked when parsing"),
    })
}

/// Peak resident set of this process so far (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Distinct, well-mixed seeds for the `k`-th input of a run (splitmix64).
fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build `reps` times, timing each build; keep the last and pass the
/// others to `discard` untimed. Returns the median build time, seconds.
fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one setup"))
}

/// The traced deployment builds: median calibrate and plan time per
/// build, ms, and whether the traced build matched the untraced one.
fn traced_setup(o: &Opts, out: &mut Outcome, reference: &layers::Deployment) {
    let reps = if o.smoke { 1 } else { SETUP_TRACE_REPS };
    let mut t = Tracer::new();
    let (mut calibrate, mut plan) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let from = t.len();
        let d = layers::deployment_traced(&mut t);
        let totals = t.leaf_totals(from);
        calibrate.push(totals["model-zoo.calibrate"] as f64 / 1e6);
        plan.push(totals["split-core.plan"] as f64 / 1e6);
        out.check(if layers::same_deployment(&d, reference) {
            Vec::new()
        } else {
            vec!["traced deployment differs from experiment::paper_deployment".into()]
        });
    }
    out.set("model-zoo.calibrate_ms", median(&calibrate));
    out.set("split-core.plan_ms", median(&plan));
}

/// Warm up for a share of `seconds`, then time `op` until `seconds` have
/// passed and at least `min_iters` iterations ran. `op(i)` returns false
/// when iteration `i`'s output is wrong. Returns each timed iteration's
/// index and wall seconds.
fn timed_loop(
    out: &mut Outcome,
    seconds: f64,
    min_iters: usize,
    mut op: impl FnMut(usize) -> bool,
) -> Vec<(usize, f64)> {
    let mut i = 0;
    let account = |out: &mut Outcome, ok: bool| {
        out.attempted += 1;
        out.failed += u64::from(!ok);
    };
    let warm = Instant::now();
    while i < 2 || warm.elapsed().as_secs_f64() < seconds * WARMUP_SHARE {
        let ok = op(i);
        account(out, ok);
        i += 1;
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_iters || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let ok = op(i);
        samples.push((i, t0.elapsed().as_secs_f64()));
        account(out, ok);
        i += 1;
    }
    samples
}

/// The wall seconds of timed iterations.
fn secs(samples: &[(usize, f64)]) -> Vec<f64> {
    samples.iter().map(|&(_, s)| s).collect()
}

/// What a traced loop measured.
struct Traced {
    /// Wall seconds of each untraced variant's iterations.
    untraced: Vec<Vec<f64>>,
    /// Wall seconds of each traced iteration.
    iters: Vec<f64>,
    /// Per traced iteration: leaf-stage name → ns.
    stages: Vec<BTreeMap<&'static str, u64>>,
    /// Per traced iteration: durations (ns) of every span named `group`.
    groups: Vec<Vec<u64>>,
}

impl Traced {
    fn untraced_median(&self, variant: usize) -> f64 {
        median(&self.untraced[variant])
    }

    fn stage_median_ns(&self, name: &str) -> f64 {
        let xs: Vec<f64> = self
            .stages
            .iter()
            .map(|s| s.get(name).copied().unwrap_or(0) as f64)
            .collect();
        median(&xs)
    }

    fn stage_sum_median_ns(&self) -> f64 {
        let sums: Vec<f64> = self
            .stages
            .iter()
            .map(|s| s.values().sum::<u64>() as f64)
            .collect();
        median(&sums)
    }
}

/// [`timed_loop`] over rounds (at least `o.min_iters()`) of `variants`
/// untraced iterations and one traced one, interleaved so that drift in the host's speed hits all of
/// them alike. `untraced(variant, round)` and `traced(tracer, round)`
/// return false when their output is wrong. Collects each timed traced
/// iteration's stage totals and the durations of its spans named `group`.
fn traced_loop(
    out: &mut Outcome,
    t: &mut Tracer,
    o: &Opts,
    variants: usize,
    group: &str,
    mut untraced: impl FnMut(usize, usize) -> bool,
    mut traced: impl FnMut(&mut Tracer, usize) -> bool,
) -> Traced {
    let phases = variants + 1;
    let mut spans = Vec::new();
    let samples = timed_loop(out, o.seconds(), o.min_iters() * phases, |i| {
        let (round, phase) = (i / phases, i % phases);
        if phase < variants {
            return untraced(phase, round);
        }
        let from = t.len();
        let ok = traced(t, round);
        let group_ns = t.since(from).iter().filter(|s| s.name == group);
        spans.push((
            i,
            t.leaf_totals(from),
            group_ns.map(|s| s.dur_ns()).collect(),
        ));
        ok
    });
    let mut traced = Traced {
        untraced: vec![Vec::new(); variants],
        iters: Vec::new(),
        stages: Vec::new(),
        groups: Vec::new(),
    };
    for &(i, secs) in &samples {
        match traced.untraced.get_mut(i % phases) {
            Some(v) => v.push(secs),
            None => traced.iters.push(secs),
        }
    }
    // Traced iterations before the first timed one were warmup.
    for (i, stages, groups) in spans {
        if i >= samples[0].0 {
            traced.stages.push(stages);
            traced.groups.push(groups);
        }
    }
    traced
}

/// The measured phase of a simulation workload, then its peak RSS.
fn measure(out: &mut Outcome, o: &Opts, op: impl FnMut(usize) -> bool) -> Vec<(usize, f64)> {
    let samples = timed_loop(out, o.seconds(), o.min_iters(), op);
    out.peak_rss();
    samples
}

/// The correctness pass over every input, at the full pool width, after
/// the measured phase. Returns SPLIT's response ratios and the requests
/// within the latency target, over all inputs.
fn check_inputs<T>(
    out: &mut Outcome,
    o: &Opts,
    inputs: &[T],
    expected: &[u64],
    check: impl Fn(&T) -> layers::Checked,
) -> (Vec<f64>, usize) {
    let (mut rr, mut met) = (Vec::new(), 0);
    for (i, (input, &want)) in inputs.iter().zip(expected).enumerate() {
        let c = layers::with_pool(o.pool_width, || check(input));
        out.check(c.failures);
        out.same_schedule(i, c.digest, want, o.pool_width);
        rr.extend(c.rr);
        met += c.met;
    }
    out.digest = Some(fold(expected));
    (rr, met)
}

/// The end-to-end metrics of a simulation workload whose iteration `i`
/// serves input `i % inputs`, each `requests_per_op` requests; `met` of
/// all inputs' requests end within the latency target.
///
/// Throughput uses each input's fast-decile iteration time: on a shared
/// host, interference mostly adds time, and over eight identical
/// fleet-wide runs the median operation time ranged over 14%, the fast
/// decile over 4%.
fn sim_metrics(
    out: &mut Outcome,
    inputs: usize,
    requests_per_op: usize,
    met: usize,
    samples: &[(usize, f64)],
    rr: &[f64],
    setup_s: f64,
) {
    let fast: f64 = (0..inputs)
        .map(|k| {
            let of_k: Vec<f64> = samples
                .iter()
                .filter(|&&(i, _)| i % inputs == k)
                .map(|&(_, s)| s)
                .collect();
            percentile(&of_k, 0.1)
        })
        .sum();
    let all = secs(samples);
    let served = inputs * requests_per_op;
    out.set("goodput_per_s", met as f64 / fast);
    out.tail("rr_p95", rr, 0.95);
    out.set("setup_s", setup_s);
    let q = highest_supported(all.len()).unwrap_or(0.5);
    let r = highest_supported(rr.len()).unwrap_or(0.5);
    out.notes.push(format!(
        "{} timed operations over {inputs} inputs of {requests_per_op} requests; \
         op p50 {:.1} us p{} {:.1} us; {:.0} requests/s, {:.2}% within the target",
        all.len(),
        median(&all) * 1e6,
        q * 100.0,
        percentile(&all, q) * 1e6,
        served as f64 / fast,
        100.0 * met as f64 / served as f64
    ));
    out.notes.push(format!(
        "rr over {} requests: p50 {:.4} p{} {:.4}",
        rr.len(),
        percentile(rr, 0.5),
        r * 100.0,
        percentile(rr, r)
    ));
}

/// Scheduler counts as per-request metrics.
fn sched_counts(out: &mut Outcome, c: SchedCounts, requests: usize) {
    out.set("sched.events_per_req", c.events as f64 / requests as f64);
    out.set("sched.queue_peak", c.queue_peak as f64);
    out.set(
        "split-core.comparisons_per_decision",
        c.comparisons_per_decision(),
    );
}

/// The ±10% rule: the traced stages must add up to the untraced whole.
/// Outside it, name the span whose own time the stages do not cover.
fn coverage(out: &mut Outcome, t: &Tracer, traced: &Traced, whole_s: f64) {
    let cov = traced.stage_sum_median_ns() / (whole_s * 1e9);
    out.set("trace.coverage", cov);
    out.set("trace.overhead_frac", median(&traced.iters) / whole_s - 1.0);
    if !out.strict || (0.9..=1.1).contains(&cov) {
        return;
    }
    let leaves = &traced.stages[0];
    let (worst, ns) = t
        .self_times()
        .into_iter()
        .filter(|(name, _)| !leaves.contains_key(name))
        .max_by_key(|&(_, ns)| ns)
        .unwrap_or(("(none)", 0));
    out.check(vec![format!(
        "stage sum is {:.1}% of the untraced operation; unaccounted: {worst} \
         ({:.3} ms of own time over the run)",
        cov * 100.0,
        ns as f64 / 1e6
    )]);
}

/// Self time per span name, for the traced run's printout.
fn self_time_notes(out: &mut Outcome, t: &Tracer) {
    let selfs = t.self_times();
    let total: u64 = selfs.values().sum();
    let mut rows: Vec<_> = selfs.into_iter().collect();
    rows.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    for (name, ns) in rows {
        out.notes.push(format!(
            "self time {name:32} {:>10.3} ms {:>6.1}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64
        ));
    }
}

// --------------------------------------------------------------- paper-fig6

fn paper_fig6(o: &Opts) -> Outcome {
    let mut out = Outcome::new(o);
    let (setup_s, d) = timed_setup(o.setup_reps(), layers::deployment, drop);
    let policies = layers::paper_policies();
    let k = if o.smoke { 2 } else { FIG6_TRACES };
    let traces: Vec<Vec<Arrival>> = (0..k as u64)
        .map(|i| layers::arrivals(S6_LAMBDA_US, FIG6_REQUESTS, sub_seed(o.seed, i)))
        .collect();
    // Each input's schedule digest, from an untimed operation at one
    // worker. Every measured operation must reproduce it, and so must the
    // correctness pass at the full pool width.
    let expected: Vec<u64> = traces
        .iter()
        .map(|tr| layers::fig6_op(tr, &d, &policies))
        .collect();
    let op = |i: usize| layers::fig6_op(&traces[i % k], &d, &policies) == expected[i % k];
    let measured = (!o.trace).then(|| measure(&mut out, o, &op));
    let (rr, met) = check_inputs(&mut out, o, &traces, &expected, |tr| {
        layers::fig6_check(tr, &d, &policies)
    });
    if let Some(samples) = measured {
        let requests_per_op = policies.len() * FIG6_REQUESTS;
        sim_metrics(&mut out, k, requests_per_op, met, &samples, &rr, setup_s);
        return out;
    }
    traced_setup(o, &mut out, &d);
    let mut t = Tracer::new();
    let traced = traced_loop(
        &mut out,
        &mut t,
        o,
        1,
        "",
        |_, round| op(round),
        |t, round| {
            let tr = round % k;
            layers::fig6_op_traced(t, round as u64, &traces[tr], &d, &policies, None)
                == expected[tr]
        },
    );
    let mut counts = SchedCounts::default();
    layers::fig6_op_traced(
        &mut Tracer::new(),
        0,
        &traces[0],
        &d,
        &policies,
        Some(&mut counts),
    );
    let per_req =
        |stage: &str, calls: usize| traced.stage_median_ns(stage) / (calls * FIG6_REQUESTS) as f64;
    out.set("sched.split.ns_per_req", per_req("sched.split", 1));
    out.set("sched.clockwork.ns_per_req", per_req("sched.clockwork", 1));
    out.set("sched.prema.ns_per_req", per_req("sched.prema", 1));
    out.set("sched.rta.ns_per_req", per_req("sched.rta", 1));
    out.set(
        "sched.attach.ns_per_req",
        per_req("sched.attach", policies.len()),
    );
    out.set(
        "split-telemetry.metrics_ns_per_req",
        per_req("split-telemetry.metrics", 1),
    );
    out.set(
        "split-obs.attribution_ns_per_req",
        per_req("split-obs.attribution", 1),
    );
    out.set(
        "split-watch.drift_ns_per_req",
        per_req("split-watch.drift", 1),
    );
    sched_counts(&mut out, counts, FIG6_REQUESTS);
    let whole = traced.untraced_median(0);
    coverage(&mut out, &t, &traced, whole);
    self_time_notes(&mut out, &t);
    out.tracer = Some(t);
    out
}

fn fold(digests: &[u64]) -> u64 {
    let mut f = layers::Fnv::new();
    for &d in digests {
        f.eat(d);
    }
    f.finish()
}

// ------------------------------------------------------------------- fleets

fn fleet(o: &Opts, spec: &str, oversubscribed: bool) -> Outcome {
    let mut out = Outcome::new(o);
    let (setup_s, s) = timed_setup(o.setup_reps(), || FleetSetup::new(spec), drop);
    let requests = if o.smoke { 2_000 } else { FLEET_REQUESTS };
    let k = if o.smoke { 1 } else { FLEET_TRACES };
    let interval_us = s.interval_us(FLEET_JETSON_UNITS);
    let traces: Vec<Vec<Arrival>> = (0..k as u64)
        .map(|i| layers::arrivals(interval_us, requests, sub_seed(o.seed, i)))
        .collect();
    // Each input's schedule digest, from an untimed operation at one
    // worker. Every measured operation must reproduce it, and so must the
    // correctness pass at the full pool width.
    let expected: Vec<u64> = traces.iter().map(|tr| layers::fleet_op(tr, &s)).collect();
    let op = |i: usize| layers::fleet_op(&traces[i % k], &s) == expected[i % k];
    let measured = (!o.trace).then(|| measure(&mut out, o, &op));
    let (rr, met) = check_inputs(&mut out, o, &traces, &expected, |tr| {
        layers::fleet_check(tr, &s, oversubscribed)
    });
    if let Some(samples) = measured {
        sim_metrics(&mut out, k, requests, met, &samples, &rr, setup_s);
        return out;
    }
    traced_setup(o, &mut out, &s.deployment);
    let mut t = Tracer::new();
    let traced = traced_loop(
        &mut out,
        &mut t,
        o,
        2,
        "split-cluster.lane",
        |variant, round| match variant {
            0 => op(round),
            _ => layers::with_pool(o.pool_width, || op(round)),
        },
        |t, round| {
            let tr = round % k;
            layers::fleet_op_traced(t, round as u64, &traces[tr], &s, None) == expected[tr]
        },
    );
    let mut counts = SchedCounts::default();
    layers::fleet_op_traced(&mut Tracer::new(), 0, &traces[0], &s, Some(&mut counts));
    let (one_worker, pooled) = (traced.untraced_median(0), traced.untraced_median(1));
    let per_req = |stage: &str| traced.stage_median_ns(stage) / requests as f64;
    out.set("sched.split.ns_per_req", per_req("sched.split"));
    out.set("sched.attach.ns_per_req", per_req("sched.attach"));
    out.set(
        "split-telemetry.metrics_ns_per_req",
        per_req("split-telemetry.metrics"),
    );
    out.set(
        "split-cluster.route_ns_per_req",
        per_req("split-cluster.route"),
    );
    out.set(
        "split-cluster.merge_ns_per_req",
        per_req("split-cluster.merge"),
    );
    let lane_max: Vec<f64> = traced
        .groups
        .iter()
        .map(|g| g.iter().copied().max().unwrap_or(0) as f64)
        .collect();
    let imbalance: Vec<f64> = traced
        .groups
        .iter()
        .map(|g| {
            let mean = g.iter().sum::<u64>() as f64 / g.len().max(1) as f64;
            g.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
        })
        .collect();
    let lane_sum: Vec<f64> = traced
        .groups
        .iter()
        .map(|g| g.iter().sum::<u64>() as f64)
        .collect();
    out.set("split-cluster.lane_max_ms", median(&lane_max) / 1e6);
    out.set("split-cluster.lane_imbalance", median(&imbalance));
    let after_route_ns = pooled * 1e9 - traced.stage_median_ns("split-cluster.route");
    out.set(
        "split-cluster.parallel_efficiency",
        median(&lane_sum) / (o.pool_width as f64 * after_route_ns),
    );
    out.set("split-cluster.pool_speedup", one_worker / pooled);
    sched_counts(&mut out, counts, requests);
    coverage(&mut out, &t, &traced, one_worker);
    out.notes.push(format!(
        "{} lanes; untraced operation {:.3} ms at {} workers, {:.3} ms at 1",
        s.lanes(),
        pooled * 1e3,
        o.pool_width,
        one_worker * 1e3
    ));
    self_time_notes(&mut out, &t);
    out.tracer = Some(t);
    out
}

// ------------------------------------------------------------------ live-s6

fn live_s6(o: &Opts) -> Outcome {
    let mut out = Outcome::new(o);
    let (setup_s, server) = timed_setup(
        o.setup_reps(),
        || layers::start_server(layers::deployment()),
        |srv| drop(layers::shutdown(srv)),
    );
    let compression = layers::compression(&server);
    let per_s = 1e6 * compression / S6_LAMBDA_US;
    let (warm_s, measure_s) = if o.smoke {
        (0.1, 0.3)
    } else {
        (LIVE_WARMUP_S, o.seconds())
    };
    let warmup = (warm_s * per_s).round() as usize;
    let count = warmup + (measure_s * per_s).round() as usize;
    let arrivals = layers::arrivals(S6_LAMBDA_US, count, sub_seed(o.seed, 0));
    let mut t = Tracer::new();
    let tracer = o.trace.then_some(&mut t);
    let plain = layers::live_stream(&server, &arrivals, warmup, LIVE_LEAD_SIM_US, tracer);
    if !o.trace {
        // Memory while serving; shutdown and the recording check follow.
        out.peak_rss();
    }
    let spin_ms = layers::spin_ns(&server) as f64 / 1e6;
    let t0 = Instant::now();
    let report = layers::shutdown(server);
    let shutdown_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Correctness: every request completed, and the recording is sound.
    for r in &plain.replies {
        out.attempted += 1;
        out.failed += u64::from(!r.completed);
    }
    if out.failed > 0 {
        out.failures
            .push(format!("{} requests not completed", out.failed));
    }
    out.check(report.recording_errors.iter().take(5).cloned().collect());

    let late_frac = plain.late_us.iter().filter(|&&l| l > LATE_US).count() as f64
        / plain.late_us.len().max(1) as f64;
    if late_frac > MAX_LATE_FRAC {
        out.valid = false;
        out.notes.push(format!(
            "INVALID: the generator sent {:.1}% of requests more than {LATE_US} µs late",
            late_frac * 100.0
        ));
    }
    let measured: Vec<&layers::Reply> = plain.replies[warmup..]
        .iter()
        .filter(|r| r.completed)
        .collect();
    let rr: Vec<f64> = measured.iter().map(|r| r.response_ratio).collect();
    if !o.trace {
        let first = measured
            .iter()
            .map(|r| r.arrival_us)
            .fold(f64::INFINITY, f64::min);
        let last = measured.iter().map(|r| r.end_us).fold(0.0, f64::max);
        let wall_s = (last - first) / compression / 1e6;
        let met = rr.iter().filter(|&&r| r <= layers::ALPHA).count();
        out.set("goodput_per_s", met as f64 / wall_s);
        out.tail("rr_p95", &rr, 0.95);
        out.set("setup_s", setup_s);
        out.notes.push(format!(
            "{} measured requests at {per_s:.0} req/s offered after {warmup} warmup, \
             {:.0} req/s served, {:.2}% within the target; \
             admission p50 {:.2} us p99 {:.2} us; rr p50 {:.4} p99 {:.4}",
            plain.admit_us.len(),
            measured.len() as f64 / wall_s,
            100.0 * met as f64 / measured.len() as f64,
            median(&plain.admit_us),
            percentile(&plain.admit_us, 0.99),
            percentile(&rr, 0.5),
            percentile(&rr, 0.99)
        ));
        return out;
    }

    traced_setup(o, &mut out, &layers::deployment());
    out.set(
        "trace.overhead_frac",
        median(&plain.traced_admit_us) / median(&plain.admit_us) - 1.0,
    );
    out.set(
        "split-runtime.decision_p50_ns",
        report.decision_p50_ns as f64,
    );
    out.set(
        "split-runtime.decision_p99_ns",
        report.decision_p99_ns as f64,
    );
    out.set("split-runtime.admit_p50_us", median(&plain.admit_us));
    out.tail("split-runtime.admit_p99_us", &plain.admit_us, 0.99);
    let overrun: Vec<f64> = measured
        .iter()
        .filter_map(|r| r.single_block_overrun_us)
        .collect();
    if !overrun.is_empty() {
        out.set("split-runtime.block_overrun_p50_us", median(&overrun));
    }
    let wait_ms: Vec<f64> = measured
        .iter()
        .map(|r| (r.start_us - r.arrival_us) / 1e3)
        .collect();
    out.tail("split-runtime.queue_wait_p99_ms", &wait_ms, 0.99);
    out.set("split-runtime.spin_ms", spin_ms);
    out.set("split-runtime.shutdown_ms", shutdown_ms);
    out.set("split-runtime.recorder_events", report.counts.events as f64);
    out.set(
        "split-core.comparisons_per_decision",
        report.counts.comparisons_per_decision(),
    );
    out.tail("workload.late_p99_us", &plain.late_us, 0.99);
    out.set("workload.late_frac", late_frac);
    self_time_notes(&mut out, &t);
    out.tracer = Some(t);
    out
}
