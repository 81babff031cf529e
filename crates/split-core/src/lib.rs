#![warn(missing_docs)]
//! # split-core — the SPLIT paper's contribution
//!
//! Everything this crate contains is described in §3 of *SPLIT: QoS-Aware
//! DNN Inference on Shared GPU via Evenly-Sized Model Splitting*
//! (ICPP 2023):
//!
//! * [`analysis`] — the closed-form expected waiting latency of a randomly
//!   arriving request (Eq. 1), which motivates *evenly-sized* splitting;
//! * [`fitness`](mod@fitness) — the genetic algorithm's fitness function (Eq. 2)
//!   balancing evenness (σ/T) against splitting overhead;
//! * [`ga`] — the observation-guided genetic algorithm (§3.3) that selects
//!   cut points: initialization biased away from the expensive early
//!   operators, fitness-driven selection, crossover, mutation, elitism,
//!   and convergence detection;
//! * [`exhaustive`] — the brute-force baseline the GA is measured against
//!   (§2.2's candidate-count explosion);
//! * [`preempt`] — the fast greedy preemption algorithm based on response
//!   ratio (§3.4, Algorithm 1): O(n) worst case, microsecond-scale
//!   decisions, and the block-skipping queue that runs it on deep queues;
//! * [`elastic`] — the elastic model splitting mechanism (§3.3's
//!   limitation paragraph) that suspends splitting under request floods or
//!   same-type bursts;
//! * [`plan`] — the serializable artifact of the offline stage: a model's
//!   chosen cuts plus their profiled block times.

pub mod analysis;
pub mod anneal;
pub mod elastic;
pub mod exhaustive;
pub mod fitness;
pub mod ga;
pub mod plan;
pub mod preempt;

pub use analysis::{expected_waiting_us, expected_waiting_via_moments};
pub use anneal::{anneal, AnnealConfig, AnnealOutcome};
pub use elastic::{ElasticConfig, ElasticController, ElasticSnapshot};
pub use exhaustive::{count_candidates, exhaustive_best};
pub use fitness::{fitness, FitnessParts};
pub use ga::{evolve, evolve_on, CrossoverOp, GaConfig, GaOutcome, GenStats, InitStrategy};
pub use plan::{PlanSet, SplitPlan};
pub use preempt::{
    algorithm1_preempt, greedy_preempt, response_ratio, PreemptDecision, PreemptQueue, QueueEntry,
};
