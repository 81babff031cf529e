#![warn(missing_docs)]
//! # bench — experiment harnesses for every table and figure
//!
//! One binary per paper artifact (see DESIGN.md §4 for the index):
//!
//! | Artifact | Binary |
//! |---|---|
//! | Table 1 (models) | `table1` |
//! | Table 2 (scenarios) | `table2` |
//! | Table 3 (optimal splits) | `table3` |
//! | Figure 2 (cut-point sweeps) | `fig2` |
//! | Figure 5 (GA convergence) | `fig5` |
//! | Figure 6 (violation rate vs α) | `fig6` |
//! | Figure 7 (per-model jitter) | `fig7` |
//! | Ablations (§DESIGN.md) | `ablations` |
//!
//! Each binary prints the paper-shaped table/series and writes CSV to
//! `results/` for plotting. Criterion micro-benchmarks live in
//! `benches/`.

mod mutex_core;
pub use mutex_core::MutexCore;
use sched::{ModelTable, Policy, SimResult};
use split_analyze::{lint_attribution, lint_schedule, ScheduleLintCfg};
use std::path::PathBuf;
use workload::Arrival;

/// Directory where harness binaries drop their CSV output (created on
/// demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Run the schedule analyzer over a simulation result and abort the
/// harness when any invariant fails — a figure drawn from a corrupt
/// schedule is worse than no figure.
///
/// # Panics
/// Panics (after printing the full diagnostic report) when the analyzer
/// reports any finding.
pub fn verify_schedule(
    policy: &Policy,
    arrivals: &[Arrival],
    models: &ModelTable,
    result: &SimResult,
) {
    let cfg = match policy {
        Policy::Split(_) => ScheduleLintCfg::block_granular(models),
        Policy::Rta(_) | Policy::StreamParallel(_) => ScheduleLintCfg::concurrent(models),
        _ => ScheduleLintCfg::structural(models),
    };
    verify_with(policy.name(), &cfg, arrivals, result);
}

/// [`verify_schedule`] for block-granular schedules produced by calling a
/// policy function directly (e.g. `block_round_robin`), where no
/// [`Policy`] value exists. The result must carry full lifecycle events —
/// run it through `sched::attach_lifecycle` first.
///
/// # Panics
/// Panics (after printing the full diagnostic report) when the analyzer
/// reports any finding.
pub fn verify_block_granular(
    label: &str,
    arrivals: &[Arrival],
    models: &ModelTable,
    result: &SimResult,
) {
    verify_with(
        label,
        &ScheduleLintCfg::block_granular(models),
        arrivals,
        result,
    );
}

fn verify_with(label: &str, cfg: &ScheduleLintCfg, arrivals: &[Arrival], result: &SimResult) {
    let mut report = lint_schedule(arrivals, result, cfg);
    // Figures that quote latency components need the attribution
    // invariant (SA3xx) as much as the schedule ones.
    report.merge(lint_attribution(result));
    if !report.is_empty() {
        eprintln!("{}", report.render_text());
        panic!("schedule verification failed for {label} — refusing to write results");
    }
}

/// Format a ratio as a percent string with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format microseconds as milliseconds with the given precision.
pub fn ms(us: f64, decimals: usize) -> String {
    format!("{:.*}", decimals, us / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(pct(0.154), "15.4%");
        assert_eq!(ms(28_350.0, 2), "28.35");
    }

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.exists());
    }
}
