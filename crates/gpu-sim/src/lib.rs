#![warn(missing_docs)]
//! # gpu-sim — a deterministic shared-GPU timing simulator
//!
//! Substitute for the paper's NVIDIA Jetson Nano + CUDA testbed. SPLIT's
//! algorithms consume exactly three hardware quantities:
//!
//! 1. per-operator execution time (roofline cost model, [`kernel`]),
//! 2. the cost of moving an intermediate tensor across a split boundary
//!    ([`transfer`]) — the source of *splitting overhead* (paper Figure 2a),
//! 3. the slowdown that concurrent streams inflict on each other
//!    ([`contention`]) — what the RT-A / Stream-Parallel baselines pay.
//!
//! On top of the cost model sit [`fluid::FluidSim`], a processor-sharing
//! discrete-event engine for the concurrent multi-stream baselines, where
//! `k` resident requests each progress at rate `1/slowdown(k)`, and the
//! [`trace::Trace`] of typed device spans every policy records into.
//!
//! All times are `f64` microseconds; the simulators are bit-deterministic.

pub mod backend;
pub mod contention;
pub mod costtable;
pub mod device;
pub mod fluid;
pub mod kernel;
pub mod memory;
pub mod trace;
pub mod transfer;

pub use backend::{device_class, device_class_labels, Backend, FleetEntry, FleetSpec, SimGpu};
pub use contention::ContentionModel;
pub use costtable::CostTable;
pub use device::DeviceConfig;
pub use fluid::{FluidJob, FluidSim};
pub use kernel::{block_time_us, op_time_us, op_times_us, split_block_times_us};
pub use memory::{ModelMemory, ResidencyOutcome};
pub use trace::{BlockEvents, Trace, TraceEvent, TransferRecord};
pub use transfer::boundary_transfer_us;
