//! Pinned forensic output, reduced to FNV-1a digests:
//!
//! * the incident bundles `split-analyze`'s SA4xx stage investigates —
//!   SPLIT over the suite's burst workload and deployment;
//! * the bundles of the forensics linter's 40-request short/long
//!   fixture;
//! * the flight snapshot of SPLIT on every Table 2 scenario over the
//!   paper deployment (capacity, appended, dropped, every record).
//!
//! Every `Decision` record's `b` word is the simulator's wall-clock
//! `decision_ns`, so it is zeroed first. A refactor of the forensics
//! pipeline or of the flight projection must leave every constant as it
//! is; a changed digest means changed forensic output.

use split_repro::experiment::{self, PAPER_MODEL_NAMES};
use split_repro::gpu_sim::DeviceConfig;
use split_repro::model_zoo::{benchmark_models, LengthClass};
use split_repro::sched::{simulate, ModelRuntime, ModelTable, Policy, SimResult};
use split_repro::split_analyze::SuiteCfg;
use split_repro::split_core::SplitPlan;
use split_repro::split_forensics::{
    investigate, FlightKind, FlightSnapshot, ForensicsCfg, IncidentBundle, TailSampler,
    DEFAULT_CAPACITY,
};
use split_repro::split_obs::SloCfg;
use split_repro::split_runtime::Deployment;
use split_repro::workload::{all_scenarios, Arrival, BurstConfig, RequestTrace, Scenario};

/// FNV-1a over raw bytes and little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Zero the wall-clock `b` word of every `Decision` record.
fn zero_decision_cost(flight: &mut FlightSnapshot) {
    for r in &mut flight.records {
        if r.kind == FlightKind::Decision {
            r.b = 0;
        }
    }
}

fn flight_digest(flight: &FlightSnapshot) -> u64 {
    let mut h = Fnv::new();
    h.word(flight.capacity);
    h.word(flight.appended);
    h.word(flight.dropped);
    for r in &flight.records {
        h.word(r.seq);
        h.word(r.t_us.to_bits());
        h.word(r.req);
        h.bytes(format!("{:?}", r.kind).as_bytes());
        h.word(r.a);
        h.word(r.b);
    }
    h.0
}

/// Investigate `result` and digest every bundle's JSON, in fire order.
/// Returns the bundle count with the digest.
fn bundles_digest(result: &SimResult, cfg: &ForensicsCfg) -> (usize, u64) {
    let bundles: Vec<IncidentBundle> =
        investigate(&result.recorder, Some(&result.trace), cfg).bundles;
    let mut h = Fnv::new();
    for mut b in bundles.iter().cloned() {
        zero_decision_cost(&mut b.flight);
        h.bytes(b.to_json().as_bytes());
    }
    (bundles.len(), h.0)
}

/// SPLIT over the SA4xx stage's burst workload: the suite's default
/// scenario and request count, its deployment (GA plans for the long
/// benchmark models, vanilla for the rest) and its burst shape.
fn suite_burst() -> SimResult {
    let cfg = SuiteCfg::default();
    let dev = DeviceConfig::default();
    let mut deployment = Deployment::new();
    let mut names: Vec<&'static str> = Vec::new();
    for &id in &cfg.models {
        let graph = id.build_calibrated(&dev);
        let info = id.info();
        names.push(info.name);
        let plan = if info.class == LengthClass::Long {
            SplitPlan::offline(&graph, &dev, cfg.ga_blocks.clone(), cfg.seed ^ id as u64).0
        } else {
            SplitPlan::vanilla(&graph, &dev)
        };
        deployment.deploy_plan(&plan);
    }
    assert_eq!(cfg.models, benchmark_models().to_vec());
    let burst = BurstConfig {
        calm_interval_us: 50_000.0,
        burst_interval_us: 1_500.0,
        calm_dwell_us: 300_000.0,
        burst_dwell_us: 400_000.0,
    };
    let mut scenario = Scenario::table2(cfg.scenario);
    scenario.requests = cfg.requests;
    let trace = RequestTrace::generate_burst(scenario, &names, burst);
    simulate(
        &Policy::Split(Default::default()),
        &trace.arrivals,
        deployment.table(),
    )
}

/// The forensics linter's fixture: every third of 40 requests is a
/// three-block long model, arriving far faster than the device serves.
fn short_long_fixture() -> (SimResult, ForensicsCfg) {
    let mut t = ModelTable::new();
    t.insert(ModelRuntime::vanilla("short", 0, 10_000.0));
    t.insert(
        ModelRuntime::split("long", 1, 60_000.0, vec![22_000.0; 3])
            .with_transfer_bytes(vec![1 << 20, 1 << 20]),
    );
    let arrivals: Vec<Arrival> = (0..40)
        .map(|i| Arrival {
            id: i,
            model: (if i % 3 == 0 { "long" } else { "short" }).into(),
            arrival_us: i as f64 * 2_000.0,
        })
        .collect();
    let result = simulate(&Policy::Split(Default::default()), &arrivals, &t);
    let cfg = ForensicsCfg {
        slo: SloCfg {
            fast_window_us: 50_000.0,
            slow_window_us: 400_000.0,
            ..SloCfg::default()
        },
        sampler: TailSampler::default(),
    };
    (result, cfg)
}

/// `(bundle count, digest)` of the suite's burst investigation. The
/// constants below were generated while the simulator still carried
/// the flight recorder's on/off switch.
const SUITE_BURST: (usize, u64) = (1, 0x81bf7ef1c43c441d);

/// `(bundle count, digest)` of the short/long fixture's investigation.
const SHORT_LONG: (usize, u64) = (1, 0x8b772c671b7bf84f);

/// Flight-snapshot digests of SPLIT on Table 2 scenarios 1–6.
const FLIGHT: [u64; 6] = [
    0xff917f840f68e822,
    0xf0c650dc10434498,
    0x7b49eb14c208aeb2,
    0x89e746e1b19162af,
    0x54c64a1d648e8f0e,
    0xff7d5c11083ce20c,
];

#[test]
fn forensic_output_matches_the_pinned_digests() {
    let suite = bundles_digest(&suite_burst(), &ForensicsCfg::default());
    let (fixture, cfg) = short_long_fixture();
    let short_long = bundles_digest(&fixture, &cfg);

    let dev = DeviceConfig::jetson_nano();
    let deployment = experiment::paper_deployment(&dev);
    let flight: Vec<u64> = all_scenarios()
        .into_iter()
        .map(|sc| {
            let arrivals = RequestTrace::generate(sc, &PAPER_MODEL_NAMES).arrivals;
            let r = simulate(
                &Policy::Split(Default::default()),
                &arrivals,
                deployment.table(),
            );
            let mut snap = FlightSnapshot::from_events(r.recorder.events(), DEFAULT_CAPACITY);
            zero_decision_cost(&mut snap);
            flight_digest(&snap)
        })
        .collect();

    let current = format!(
        "SUITE_BURST = ({}, {:#018x})\nSHORT_LONG = ({}, {:#018x})\nFLIGHT = {:#018x?}",
        suite.0, suite.1, short_long.0, short_long.1, flight
    );
    assert!(suite.0 > 0 && short_long.0 > 0, "both workloads must fire");
    assert!(
        suite == SUITE_BURST && short_long == SHORT_LONG && flight == FLIGHT,
        "current digests:\n{current}"
    );
}
