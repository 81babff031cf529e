//! The serving policies: SPLIT, the §5.3 baselines, and the SJF, EDF and
//! block round-robin ablations. The sequential baselines and ablations
//! are disciplines of one single-stream loop (the `serial` module).

pub mod block_rr;
pub mod clockwork;
pub mod edf;
pub mod prema;
pub mod rta;
mod serial;
pub mod sjf;
pub mod split;
pub mod stream_parallel;

pub use block_rr::block_round_robin;
pub use clockwork::{clockwork, clockwork_with_dropping};
pub use edf::{edf, EdfCfg};
pub use prema::{prema, PremaCfg};
pub use rta::{rta, RtaCfg};
pub use sjf::sjf;
pub use split::{split, SplitCfg, SplitMachine};
pub use stream_parallel::{stream_parallel, StreamParallelCfg};
