#![warn(missing_docs)]
//! # split-forensics — tail-latency forensics for the SPLIT stack
//!
//! The observability layer (`split-obs`) can say *that* the p99 blew up;
//! this crate answers *why this specific request* did, mechanically:
//!
//! * [`ring`] — the **flight recorder**: a bounded, lock-free ring of
//!   compact per-request causal records (decisions, preemptions, block
//!   boundaries, transfers, queue transitions) cheap enough to stay on
//!   in production. Safe Rust throughout — the seqlock slots are plain
//!   atomics.
//! * [`sampling`] — **tail sampling**: full causal traces are retained
//!   only for outliers (QoS-violating, dropped, or top-k slowest per
//!   window); everything else collapses to head counters. Invariant:
//!   *every* violating request is retained — enforced by `SA402`.
//! * [`mod@classify`] — **root-cause classification**: each outlier is
//!   labeled queue-dominated / preemption-stall / transfer-bound /
//!   compute-bound / cross-model-interference directly from its exact
//!   e2e attribution decomposition plus span-overlap analysis against
//!   the other models' device time.
//! * [`bundle`] — **incident bundles**: when an
//!   [`split_obs::SloMonitor`] burn-rate alert fires, the ring, queue
//!   depths, device utilization, and the offending requests' full span
//!   trees are snapshotted into one self-contained JSON (+ Perfetto)
//!   document with an aggregated verdict, e.g. *"p99 regression: 78%
//!   preemption-stall on gpt2 behind resnet50 bursts"*.
//! * [`mod@investigate`] — the driver tying the above together over a
//!   lifecycle recording: replay the SLO monitor, scope one bundle per
//!   fired alert, sample, classify, aggregate.
//!
//! The recorder has no switch: the live server always writes a
//! [`DEFAULT_CAPACITY`] ring, and [`investigate()`] projects the same
//! ring from a simulation's lifecycle. `split-analyze` verifies bundles
//! with the `SA4xx` codes, and `perfbench`'s `flight_ring/record` entry
//! measures the per-record cost.

pub mod bundle;
pub mod classify;
pub mod investigate;
pub mod ring;
pub mod sampling;

pub use bundle::{
    CauseShare, DepthSample, IncidentBundle, ModelStat, OutlierReport, PhaseKind, SampleReason,
    SpanRecord, Verdict, BUNDLE_SCHEMA,
};
pub use classify::{classify, Classification, RootCause};
pub use investigate::{bundles_for_alerts, investigate, ForensicsCfg, Investigation};
pub use ring::{FlightKind, FlightRecord, FlightRing, FlightSnapshot, DEFAULT_CAPACITY, NO_REQ};
pub use sampling::{TailSampler, DEFAULT_TOP_K, DEFAULT_WINDOW_US};
