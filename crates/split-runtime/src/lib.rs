#![warn(missing_docs)]
//! # split-runtime — the online serving system (paper §4, Figure 4)
//!
//! Where the `sched` crate replays traces deterministically, this crate is
//! the *system*: real threads, real queues, real lock contention — the
//! shape of the authors' 9,000-line C++ deployment, in Rust.
//!
//! Components map one-to-one onto Figure 4:
//!
//! * **Decision core** ([`combiner`]): a flat-combining core owns all
//!   scheduler state; clients publish requests into cache-padded slots
//!   and the current combiner drains them in one pass — no global mutex
//!   or condvar on the decision path;
//! * **Token scheduler** ([`server`]): on every arrival, the combiner
//!   admits the request to the simulator's [`sched::policy::SplitMachine`]
//!   (greedy preemption, [`split_core::greedy_preempt`]) — both the
//!   admission and the client-visible publish→apply latency are timed so
//!   the microsecond-scale claim of §3.4 is *measured*, not assumed;
//! * **Token assigner / executor**: hands the device token to the queue
//!   head and executes its next block (simulated by a clock-compressed
//!   sleep standing in for the GPU);
//! * **Deployment manager** ([`deployment`]): the models and their offline
//!   split plans.
//!
//! Execution time is *simulated µs* compressed by a configurable factor
//! (default 100× — a 22 ms block sleeps 220 µs), so integration tests run
//! in milliseconds while thread interleavings stay real.

pub mod clock;
pub mod codec;
pub mod combiner;
pub mod deployment;
pub mod driver;
pub mod messages;
pub mod server;
pub mod stats;
pub mod wire;

pub use clock::SimClock;
pub use codec::{decode, encode, CodecError, FrameDecoder, WireRequest};
pub use combiner::CombiningCore;
pub use deployment::Deployment;
pub use driver::{drive, DriveReport};
pub use messages::{InferenceReply, RequestStatus};
pub use server::{Client, QueueSnapshot, Server, ServerConfig, ShutdownReport};
pub use stats::DecisionStats;
pub use wire::{WireClient, WireConn, WireServer};
