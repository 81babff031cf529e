//! Runtime model descriptions and completion records.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Everything a policy needs to know about one deployed model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRuntime {
    /// Model name (matches the workload trace). Interned as `Arc<str>`
    /// once per deployment: every completion and scheduling decision that
    /// carries the name bumps a refcount instead of copying the string
    /// (the policies used to clone a `String` per scheduled request).
    pub name: Arc<str>,
    /// Dense task id — requests of one task stay FIFO under SPLIT.
    pub task: u32,
    /// Isolated vanilla execution time `Ext`, µs (the QoS baseline).
    pub exec_us: f64,
    /// Block times from the offline split plan, µs. A single entry means
    /// the model runs unsplit.
    pub blocks_us: Vec<f64>,
    /// Activation bytes crossing each block boundary (length
    /// `blocks_us.len() - 1`; empty for unsplit models or when the plan
    /// predates transfer accounting). The transfer *time* is already
    /// folded into the blocks' overhead — these sizes only attribute the
    /// traffic in telemetry.
    #[serde(default)]
    pub transfer_bytes: Vec<u64>,
}

impl ModelRuntime {
    /// An unsplit model.
    pub fn vanilla(name: impl Into<Arc<str>>, task: u32, exec_us: f64) -> Self {
        Self {
            name: name.into(),
            task,
            exec_us,
            blocks_us: vec![exec_us],
            transfer_bytes: Vec::new(),
        }
    }

    /// A split model with the given block times.
    pub fn split(name: impl Into<Arc<str>>, task: u32, exec_us: f64, blocks_us: Vec<f64>) -> Self {
        assert!(!blocks_us.is_empty(), "need at least one block");
        Self {
            name: name.into(),
            task,
            exec_us,
            blocks_us,
            transfer_bytes: Vec::new(),
        }
    }

    /// Attach per-boundary activation sizes (builder style).
    ///
    /// # Panics
    /// When the length is not `blocks_us.len() - 1` (one boundary
    /// between each pair of consecutive blocks).
    pub fn with_transfer_bytes(mut self, bytes: Vec<u64>) -> Self {
        assert_eq!(
            bytes.len(),
            self.blocks_us.len().saturating_sub(1),
            "one transfer per block boundary"
        );
        self.transfer_bytes = bytes;
        self
    }

    /// Total device time when run split, µs (≥ `exec_us` by the splitting
    /// overhead).
    pub fn split_total_us(&self) -> f64 {
        self.blocks_us.iter().sum()
    }
}

/// The deployment: model name → runtime description.
/// Kept as a name-sorted `Vec`, so iteration is deterministic
/// (split-analyze audits scheduling paths for iteration-order
/// dependence) and a resolved model is a dense index ([`Self::index_of`],
/// [`Self::at`]) that state outliving a borrow of the table can hold.
#[derive(Debug, Clone, Default)]
pub struct ModelTable {
    models: Vec<ModelRuntime>,
}

impl ModelTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a model (replacing an existing entry of the same name).
    pub fn insert(&mut self, m: ModelRuntime) {
        match self.models.binary_search_by(|x| x.name.cmp(&m.name)) {
            Ok(i) => self.models[i] = m,
            Err(i) => self.models.insert(i, m),
        }
    }

    /// Look up a model.
    ///
    /// # Panics
    /// Panics when the model is unknown — a trace referencing an
    /// undeployed model is a harness bug worth failing loudly on.
    pub fn get(&self, name: &str) -> &ModelRuntime {
        let i = self.index_of(name);
        &self.models[i.unwrap_or_else(|| panic!("model {name:?} not deployed"))]
    }

    /// The dense index of a deployed model, valid until the next
    /// [`Self::insert`]. A deployment holds a handful of models, and a
    /// scan of length-checked equality finds one several times faster
    /// than a binary search of ordered string compares.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.models.iter().position(|m| *m.name == *name)
    }

    /// The model at a dense index from [`Self::index_of`].
    pub fn at(&self, index: usize) -> &ModelRuntime {
        &self.models[index]
    }

    /// Number of deployed models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no models are deployed.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Iterate the deployed models in name order, so anything derived
    /// from a full-table walk — e.g. the per-device rescaled tables a
    /// fleet builds — is deterministic.
    pub fn iter(&self) -> impl Iterator<Item = &ModelRuntime> {
        self.models.iter()
    }
}

/// One served request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// Request id from the trace.
    pub id: u64,
    /// Model name — a refcounted handle to the deployment's interned
    /// name, not a per-completion copy.
    pub model: Arc<str>,
    /// Task id.
    pub task: u32,
    /// Arrival time, µs.
    pub arrival_us: f64,
    /// First time the request made progress on the device, µs.
    pub start_us: f64,
    /// Completion time, µs.
    pub end_us: f64,
    /// Isolated execution time, µs (response-ratio denominator).
    pub exec_us: f64,
}

impl Completion {
    /// End-to-end latency (Eq. 3's `t_ete`), µs.
    #[inline]
    pub fn e2e_us(&self) -> f64 {
        self.end_us - self.arrival_us
    }

    /// Response ratio (Eq. 3).
    #[inline]
    pub fn response_ratio(&self) -> f64 {
        self.e2e_us() / self.exec_us
    }

    /// Convert to the metrics crate's outcome record.
    pub fn to_outcome(&self) -> qos_metrics::RequestOutcome {
        qos_metrics::RequestOutcome {
            id: self.id,
            model: self.model.to_string(),
            exec_us: self.exec_us,
            e2e_us: self.e2e_us(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_table_round_trip() {
        let mut t = ModelTable::new();
        assert!(t.is_empty());
        t.insert(ModelRuntime::vanilla("a", 0, 1000.0));
        t.insert(ModelRuntime::split("b", 1, 2000.0, vec![1100.0, 1200.0]));
        assert_eq!(t.len(), 2);
        assert_eq!(t.index_of("a"), Some(0));
        assert_eq!(t.get("b").split_total_us(), 2300.0);
        assert_eq!(t.get("a").blocks_us, vec![1000.0]);
    }

    #[test]
    fn model_table_indexes_in_name_order() {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::vanilla("c", 0, 3.0));
        t.insert(ModelRuntime::vanilla("a", 1, 1.0));
        t.insert(ModelRuntime::vanilla("b", 2, 2.0));
        t.insert(ModelRuntime::vanilla("a", 3, 4.0));
        let names: Vec<&str> = t.iter().map(|m| &*m.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(t.index_of("b"), Some(1));
        assert_eq!(t.at(0).task, 3, "insert replaces by name");
        assert_eq!(t.index_of("ghost"), None);
    }

    #[test]
    fn transfer_bytes_builder() {
        let m = ModelRuntime::split("b", 1, 2000.0, vec![1100.0, 1200.0])
            .with_transfer_bytes(vec![4096]);
        assert_eq!(m.transfer_bytes, vec![4096]);
        assert!(ModelRuntime::vanilla("a", 0, 10.0)
            .transfer_bytes
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "one transfer per block boundary")]
    fn transfer_bytes_arity_checked() {
        ModelRuntime::split("b", 1, 2000.0, vec![1100.0, 1200.0]).with_transfer_bytes(vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "not deployed")]
    fn unknown_model_panics() {
        ModelTable::new().get("ghost");
    }

    #[test]
    fn completion_math() {
        let c = Completion {
            id: 1,
            model: "m".into(),
            task: 0,
            arrival_us: 100.0,
            start_us: 150.0,
            end_us: 400.0,
            exec_us: 100.0,
        };
        assert_eq!(c.e2e_us(), 300.0);
        assert_eq!(c.response_ratio(), 3.0);
        let o = c.to_outcome();
        assert_eq!(o.e2e_us, 300.0);
        assert_eq!(o.exec_us, 100.0);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_blocks_rejected() {
        ModelRuntime::split("x", 0, 10.0, vec![]);
    }
}
