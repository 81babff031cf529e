//! The four serving policies (SPLIT + the §5.3 baselines).

pub mod block_rr;
pub mod clockwork;
pub mod edf;
pub mod prema;
pub mod rta;
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
