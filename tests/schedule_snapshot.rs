//! Pinned schedules: every single-device policy served over every
//! Table 2 scenario on the paper deployment, reduced to three FNV-1a
//! digests per run:
//!
//! * `schedule_digest` — completion ids and exact start/end bits;
//! * the device trace — each span's request, block, stream and exact
//!   start/end bits, in recording order;
//! * the lifecycle recording [`attach_lifecycle`] builds — every event,
//!   with SPLIT's wall-clock `decision_ns`/`publish_ns` zeroed.
//!
//! A refactor of the policies or of the trace must leave every constant
//! as it is; a changed digest means a changed schedule or recording.

use split_repro::experiment::{self, PAPER_MODEL_NAMES};
use split_repro::gpu_sim::{DeviceConfig, Trace, TraceEvent};
use split_repro::sched::policy::{
    block_round_robin, clockwork_with_dropping, edf, EdfCfg, PremaCfg, RtaCfg, SplitCfg,
    StreamParallelCfg,
};
use split_repro::sched::{attach_lifecycle, simulate, Policy, SimResult};
use split_repro::split_telemetry::Event;
use split_repro::workload::{all_scenarios, Arrival, RequestTrace};

/// FNV-1a over little-endian words and raw bytes.
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

/// The request id and block index a span belongs to.
fn span_ids(e: &TraceEvent) -> (u64, Option<u64>) {
    (e.req, e.block.map(u64::from))
}

fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    for e in trace.events() {
        let (req, block) = span_ids(e);
        h.word(req);
        h.word(block.unwrap_or(u64::MAX));
        h.word(e.stream as u64);
        h.word(e.start_us.to_bits());
        h.word(e.end_us.to_bits());
    }
    h.0
}

fn recording_digest(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    for e in r.recorder.events() {
        let mut e = e.clone();
        if let Event::PreemptDecision {
            decision_ns,
            publish_ns,
            ..
        } = &mut e
        {
            *decision_ns = 0;
            *publish_ns = 0;
        }
        h.bytes(format!("{e:?}").as_bytes());
    }
    h.0
}

fn ids_digest(ids: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &id in ids {
        h.word(id);
    }
    h.0
}

/// The pinned policies, by name.
const POLICIES: [&str; 11] = [
    "SPLIT",
    "SPLIT-inelastic",
    "ClockWork",
    "ClockWork-drop4",
    "PREMA",
    "PREMA-npu",
    "RT-A",
    "Stream-Parallel",
    "SJF",
    "EDF",
    "block-RR",
];

/// Serve `arrivals` with the named policy; the dropped ids are empty
/// except for ClockWork's admission control.
fn serve(
    name: &str,
    arrivals: &[Arrival],
    table: &split_repro::sched::ModelTable,
) -> (SimResult, Vec<u64>) {
    let run = |p: Policy| (simulate(&p, arrivals, table), Vec::new());
    match name {
        "SPLIT" => run(Policy::Split(SplitCfg::default())),
        "SPLIT-inelastic" => run(Policy::Split(SplitCfg {
            elastic: None,
            ..SplitCfg::default()
        })),
        "ClockWork" => run(Policy::ClockWork),
        "ClockWork-drop4" => {
            let (r, dropped) = clockwork_with_dropping(arrivals, table, 4.0);
            (attach_lifecycle(arrivals, r), dropped)
        }
        "PREMA" => run(Policy::Prema(PremaCfg::default())),
        "PREMA-npu" => run(Policy::Prema(PremaCfg::npu_style())),
        "RT-A" => run(Policy::Rta(RtaCfg::default())),
        "Stream-Parallel" => run(Policy::StreamParallel(StreamParallelCfg::default())),
        "SJF" => run(Policy::Sjf),
        "EDF" => (
            attach_lifecycle(arrivals, edf(arrivals, table, &EdfCfg::default())),
            Vec::new(),
        ),
        "block-RR" => (
            attach_lifecycle(arrivals, block_round_robin(arrivals, table)),
            Vec::new(),
        ),
        other => unreachable!("unknown policy {other}"),
    }
}

/// `(policy, scenario, schedule_digest, trace digest, recording digest)`,
/// generated before the single-stream loop and typed spans landed. Each
/// `ClockWork-drop4` row is followed by a `dropped` row that pins the
/// dropped ids in the schedule column and leaves the other two zero.
const PINNED: &[(&str, usize, u64, u64, u64)] = &[
    (
        "SPLIT",
        1,
        0x2b76da1e9e08b890,
        0xf1574d2ade3e336d,
        0x2ec06760f7050ff3,
    ),
    (
        "SPLIT",
        2,
        0xc64a7dc06963d5ea,
        0x7f9b8ca17cd25b85,
        0x22d4b0ee04ac1dc1,
    ),
    (
        "SPLIT",
        3,
        0xe7289c8c85c600d9,
        0xd995c73e5220701f,
        0x2227332d8d8c3ba6,
    ),
    (
        "SPLIT",
        4,
        0x412c5ef3221070e4,
        0x83e53936430d5318,
        0x1f3fe1bea35ede80,
    ),
    (
        "SPLIT",
        5,
        0x678c72a800e46f53,
        0x304901419066d057,
        0x82e9dca9cf1a61c9,
    ),
    (
        "SPLIT",
        6,
        0x0f58966cd351b761,
        0xf39ca24dfad86af9,
        0x4e6c61044a26d86c,
    ),
    (
        "SPLIT-inelastic",
        1,
        0x2b76da1e9e08b890,
        0xf1574d2ade3e336d,
        0x2ec06760f7050ff3,
    ),
    (
        "SPLIT-inelastic",
        2,
        0xc64a7dc06963d5ea,
        0x7f9b8ca17cd25b85,
        0x22d4b0ee04ac1dc1,
    ),
    (
        "SPLIT-inelastic",
        3,
        0xe7289c8c85c600d9,
        0xd995c73e5220701f,
        0x2227332d8d8c3ba6,
    ),
    (
        "SPLIT-inelastic",
        4,
        0x412c5ef3221070e4,
        0x83e53936430d5318,
        0x1f3fe1bea35ede80,
    ),
    (
        "SPLIT-inelastic",
        5,
        0x678c72a800e46f53,
        0x304901419066d057,
        0x82e9dca9cf1a61c9,
    ),
    (
        "SPLIT-inelastic",
        6,
        0xff621154d2242428,
        0xdd6d8ee13314e1b4,
        0x5af11704763fc206,
    ),
    (
        "ClockWork",
        1,
        0x893f6ebe1e6f151e,
        0xdc3f1f505129a0ae,
        0xc673beac48aa3dca,
    ),
    (
        "ClockWork",
        2,
        0x84df9bb908825de7,
        0x2b7f3a02547a8507,
        0xc9c5afe4583decd5,
    ),
    (
        "ClockWork",
        3,
        0x406fda27fbd1b9b6,
        0x528800fd80c23eb6,
        0xcaaeb0ea2bc6a82e,
    ),
    (
        "ClockWork",
        4,
        0x2d15fee8a5b205b7,
        0x899638d7d3772dd7,
        0x0adbebc7c41bb328,
    ),
    (
        "ClockWork",
        5,
        0x7c6aa9e89955df56,
        0x03bc4e137942ab56,
        0x9ad81ad6004056df,
    ),
    (
        "ClockWork",
        6,
        0xe50eca619f06fb86,
        0x12882051bfd92926,
        0x9399b903324d5489,
    ),
    (
        "ClockWork-drop4",
        1,
        0xb6e3709ad192f758,
        0x87286e53f7d0fe78,
        0x5f8714578cd8c2ec,
    ),
    (
        "dropped",
        1,
        0x3f81775f8e8a3f9f,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "ClockWork-drop4",
        2,
        0xe250460466be02f4,
        0x39e06a88a5e4650c,
        0x5d29207c6ece8acf,
    ),
    (
        "dropped",
        2,
        0xaa40562f7b046775,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "ClockWork-drop4",
        3,
        0xce5225a043550f55,
        0x89e711ebf28b778d,
        0x2cb044573a6d0cf1,
    ),
    (
        "dropped",
        3,
        0x598a69dfe46b5b9a,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "ClockWork-drop4",
        4,
        0xb790232a1c2450de,
        0x63da7441d3260b1e,
        0xf3ef50609fa1d67a,
    ),
    (
        "dropped",
        4,
        0xf1f83f84550c4aa5,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "ClockWork-drop4",
        5,
        0xefcc984f25a8bfbf,
        0x7dd68c3d70522f57,
        0x342191ca7f76d5ed,
    ),
    (
        "dropped",
        5,
        0xa7929cd133ab3865,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "ClockWork-drop4",
        6,
        0xc8a6c1af330fad6d,
        0xba85873a686f718d,
        0x07ec615886e25395,
    ),
    (
        "dropped",
        6,
        0x8468a5fe366db618,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "PREMA",
        1,
        0x6d96648789c6c031,
        0x7b1fa87e145e8354,
        0x096c0f58242adf91,
    ),
    (
        "PREMA",
        2,
        0x24b3ae2adea6b49c,
        0xbc3580a1e25fd9c7,
        0x9fce88959c9478bc,
    ),
    (
        "PREMA",
        3,
        0x149426e090415b15,
        0x0c137c38072f2c59,
        0x1b39f4630700d131,
    ),
    (
        "PREMA",
        4,
        0x62ab2d70af8a54ca,
        0xc4d7c36d0f11bda8,
        0x1604a8df24897e67,
    ),
    (
        "PREMA",
        5,
        0x99e2a81bf5256245,
        0x95381f8a88697c9b,
        0x3470441dbacc16b2,
    ),
    (
        "PREMA",
        6,
        0x01b71b374a791c32,
        0x9f550aaa48c14744,
        0x95f025f719d8d880,
    ),
    (
        "PREMA-npu",
        1,
        0x6ff314617981a3d1,
        0x3ed322c5180778dc,
        0xafc26feafdb7d63a,
    ),
    (
        "PREMA-npu",
        2,
        0x84b552a3f01ed6c2,
        0x55eede061f1994b6,
        0xad18329fdb8932ad,
    ),
    (
        "PREMA-npu",
        3,
        0x721b77ae1b35459a,
        0xc05c42ff7d9573a2,
        0x6fe33ca731dcf739,
    ),
    (
        "PREMA-npu",
        4,
        0xc4597b20ea5d0313,
        0xd968a290667be5eb,
        0xbc4fba1a2a5ae2e9,
    ),
    (
        "PREMA-npu",
        5,
        0xb0dc62eedfb2c9d7,
        0xb2ba46dd07c67c58,
        0xe567e1514c5a7771,
    ),
    (
        "PREMA-npu",
        6,
        0xe7a92b9c882fb515,
        0x2f5d413705a714e7,
        0xced2a0a90bc8afcb,
    ),
    (
        "RT-A",
        1,
        0xfaef2d270270d32d,
        0x06ee05351bfc7bb1,
        0x89780503c64e8949,
    ),
    (
        "RT-A",
        2,
        0x04603b570bb1113b,
        0x6ffebe81d510f01a,
        0x722ef79c0fc34ff5,
    ),
    (
        "RT-A",
        3,
        0x531f17281ce87983,
        0x9bb7cfd914e16991,
        0x7cc83dd0f573510d,
    ),
    (
        "RT-A",
        4,
        0x07d1568334439e8c,
        0x337ac2e7eda200d2,
        0xadb2318c5a5bd3e9,
    ),
    (
        "RT-A",
        5,
        0xecf678de28f1f616,
        0x0c3739920f43db76,
        0xd111f8684c14c23d,
    ),
    (
        "RT-A",
        6,
        0x524293287db39818,
        0x9b542460c0c43a21,
        0x9ab676d976ceeb88,
    ),
    (
        "Stream-Parallel",
        1,
        0xa06d2dcffc1c4275,
        0x0d43f0f9f97698d1,
        0x5cc0c1485b4ce4ef,
    ),
    (
        "Stream-Parallel",
        2,
        0x570a5779fa493ebd,
        0x8e4d9a5dd5a41e75,
        0x8a957ec8316fc8ed,
    ),
    (
        "Stream-Parallel",
        3,
        0xb8c8eb3d6ea88416,
        0x029e6d3725f1e576,
        0xc67ab17edea34b89,
    ),
    (
        "Stream-Parallel",
        4,
        0x254478ea7d84bfbb,
        0x603ceab189dfe40f,
        0xa5dedd1e5fc0a372,
    ),
    (
        "Stream-Parallel",
        5,
        0x87348b54c74ade2d,
        0x9534b9e735673685,
        0xad5d739a1468d584,
    ),
    (
        "Stream-Parallel",
        6,
        0xb70b185d67963bb4,
        0x5932bd4d642c191c,
        0x27ab33171d31768c,
    ),
    (
        "SJF",
        1,
        0x6fbab44ad851dd8e,
        0xef9ecdb78cd64d7e,
        0xf748dbbf73c9e7e4,
    ),
    (
        "SJF",
        2,
        0x13ce1a3bcd2597f3,
        0xbfd9c80973968043,
        0xdf3fbb8e08bde655,
    ),
    (
        "SJF",
        3,
        0x753a8e4bf7ddaea6,
        0xb6b27015fe1a3ae6,
        0x1871895f370524ba,
    ),
    (
        "SJF",
        4,
        0x43ee4ce0df679f7b,
        0x21690ba6734c7f4b,
        0x42d7a9d56f0124ba,
    ),
    (
        "SJF",
        5,
        0xbd722d560ef63c31,
        0xfdc5b2aeda759231,
        0x83de89065134aada,
    ),
    (
        "SJF",
        6,
        0xdfaa8339c3810536,
        0xaa9b044b048077a6,
        0x18074c406731fcd5,
    ),
    (
        "EDF",
        1,
        0x87d70617ced7f1ae,
        0x0fa322bde9de166e,
        0x5cc129f50a77ddfa,
    ),
    (
        "EDF",
        2,
        0x13ce1a3bcd2597f3,
        0xbfd9c80973968043,
        0xdf3fbb8e08bde655,
    ),
    (
        "EDF",
        3,
        0x753a8e4bf7ddaea6,
        0xb6b27015fe1a3ae6,
        0x1871895f370524ba,
    ),
    (
        "EDF",
        4,
        0xc4932bdc9623a5c3,
        0x17392c0ae0a2e613,
        0xb41f7b120f0f2a34,
    ),
    (
        "EDF",
        5,
        0xc8377b2c7c208885,
        0x8b9fa76ff33bd335,
        0xf477fbc83d19e7b2,
    ),
    (
        "EDF",
        6,
        0xbcc856e39315aa5e,
        0x5655fa3d8918fb5e,
        0xc41cbcbb94177b97,
    ),
    (
        "block-RR",
        1,
        0x2937260a28c9c35f,
        0x0db622f1d3876575,
        0xc5fe410449561f54,
    ),
    (
        "block-RR",
        2,
        0x6bf8953418455562,
        0xa14c0e5e83bd511d,
        0x5baff97b158ff6dd,
    ),
    (
        "block-RR",
        3,
        0xcec1163c804b904c,
        0x3109ca6f6425b0ef,
        0x4616c0f7013ee15c,
    ),
    (
        "block-RR",
        4,
        0xde912489cf5897c5,
        0xf8402c0c400b9bc8,
        0xc6731c05efa3e97c,
    ),
    (
        "block-RR",
        5,
        0x11f71b26824fbd17,
        0x745642489a1e4d13,
        0xcd5e4237d0a6d056,
    ),
    (
        "block-RR",
        6,
        0x57df49b0d2725520,
        0xafb08d21788f21f0,
        0xe7230dca51a31277,
    ),
];

#[test]
fn schedules_match_the_pinned_digests() {
    let dev = DeviceConfig::jetson_nano();
    let deployment = experiment::paper_deployment(&dev);
    let table = deployment.table();
    let scenarios: Vec<(usize, Vec<Arrival>)> = all_scenarios()
        .into_iter()
        .map(|sc| {
            (
                sc.index,
                RequestTrace::generate(sc, &PAPER_MODEL_NAMES).arrivals,
            )
        })
        .collect();
    let mut got: Vec<(&str, usize, u64, u64, u64)> = Vec::new();
    for name in POLICIES {
        for (sc, arrivals) in &scenarios {
            let (r, dropped) = serve(name, arrivals, table);
            got.push((
                name,
                *sc,
                r.schedule_digest(),
                trace_digest(&r.trace),
                recording_digest(&r),
            ));
            if name == "ClockWork-drop4" {
                got.push(("dropped", *sc, ids_digest(&dropped), 0, 0));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(name, sc, s, t, r)| {
            format!("    ({name:?}, {sc}, {s:#018x}, {t:#018x}, {r:#018x}),\n")
        })
        .collect();
    assert!(got == PINNED, "current digests:\n{table}");
}
