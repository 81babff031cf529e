//! The full verification suite: plans for every zoo model, schedules for
//! every policy, and the telemetry interleaving checks, in one call.
//!
//! This is what `split-cli analyze` and the figure harnesses run. The
//! suite regenerates each artifact the same way the experiments do (GA
//! plans from the calibrated zoo graphs, simulations over a Table 2
//! scenario) and lints everything it produces.

use crate::cluster_lint::lint_cluster;
use crate::diag::Report;
use crate::forensics_lint::lint_bundles;
use crate::interleave::{check_models, MachineStats, McBudget};
use crate::obs_lint::lint_attribution;
use crate::par_audit::{audit_costtable_equivalence, audit_parallel_determinism};
use crate::plan_lint::{lint_plan, PlanLintCfg};
use crate::sched_lint::{audit_determinism, lint_schedule, ScheduleLintCfg};
use gpu_sim::DeviceConfig;
use model_zoo::{benchmark_models, LengthClass, ModelId};
use sched::{simulate, Policy};
use split_core::{GaConfig, SplitPlan};
use split_runtime::Deployment;
use workload::{BurstConfig, RequestTrace, Scenario};

/// Suite configuration.
#[derive(Debug, Clone)]
pub struct SuiteCfg {
    /// Models to plan and deploy.
    pub models: Vec<ModelId>,
    /// Table 2 scenario index driving the simulated workload.
    pub scenario: usize,
    /// Requests in the workload (Table 2 uses 1000; the suite default is
    /// smaller to keep `analyze` quick).
    pub requests: usize,
    /// GA block-count range for long models (§3.3 searches 2..=4).
    pub ga_blocks: std::ops::RangeInclusive<usize>,
    /// GA seed (the experiments' offline seed).
    pub seed: u64,
    /// Per-machine model-checking budget (transition ceiling +
    /// wall-clock cap; `SA200` when exhausted).
    pub mc_budget: McBudget,
    /// Run only the stages/machines certifying these SA codes (the
    /// `analyze --only SAxxx[,SAyyy]` filter). `None` = everything.
    pub only: Option<Vec<String>>,
    /// Plan-linter thresholds.
    pub plan_cfg: PlanLintCfg,
}

impl Default for SuiteCfg {
    fn default() -> Self {
        Self {
            models: benchmark_models().to_vec(),
            scenario: 3,
            requests: 150,
            ga_blocks: 2..=4,
            seed: 99,
            mc_budget: McBudget::default(),
            only: None,
            plan_cfg: PlanLintCfg::default(),
        }
    }
}

impl SuiteCfg {
    /// The `--all` configuration: every zoo model.
    pub fn all_models() -> Self {
        Self {
            models: ModelId::ALL.to_vec(),
            ..Self::default()
        }
    }
}

/// Everything the suite verified, with one report per section.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// Plan-linter findings (`SA0xx`), across all models.
    pub plan_report: Report,
    /// Schedule-analyzer findings (`SA101`–`SA105`), across all policies.
    pub schedule_report: Report,
    /// Determinism-auditor findings (`SA106`/`SA107`), across all
    /// policies, the thread-pool (1-vs-8-worker) GA audit, and the
    /// cost-table bit-identity audit over every model.
    pub determinism_report: Report,
    /// Model-checker findings (`SA2xx`): weak-memory exploration of the
    /// telemetry, profile-cache, and flight-ring machines.
    pub interleave_report: Report,
    /// Attribution-exactness findings (`SA301`–`SA303`), across all
    /// policies.
    pub attribution_report: Report,
    /// Forensics-bundle findings (`SA401`–`SA404`) from the burst
    /// incident stage.
    pub forensics_report: Report,
    /// Drift-watch findings (`SA501`–`SA504`): sketch accuracy, window
    /// conservation, merge determinism, detector replay.
    pub watch_report: Report,
    /// Cluster-schedule findings (`SA601`–`SA603`): request conservation
    /// across shards, replica-placement discipline, per-device QoS
    /// feasibility — one fleet run per routing policy.
    pub cluster_report: Report,
    /// Plans linted.
    pub plans_checked: usize,
    /// Policy schedules analyzed.
    pub schedules_checked: usize,
    /// Incident bundles produced and linted by the burst stage.
    pub bundles_checked: usize,
    /// Individual drift-watch probes run by the `SA5xx` stage.
    pub watch_checks: usize,
    /// Fleet runs linted by the `SA6xx` cluster stage (one per routing
    /// policy).
    pub clusters_checked: usize,
    /// Executions covered by the model-checking stage, across machines.
    pub interleavings: u64,
    /// Per-machine model-checking statistics (explored/pruned counts,
    /// budget status, wall time) — surfaced in `--json` and CI logs.
    pub machine_stats: Vec<MachineStats>,
}

impl SuiteOutcome {
    /// The `analyze --json` document: every diagnostic plus the
    /// per-machine model-checking statistics (explored/pruned counts),
    /// as `{"diagnostics": [...], "machines": [...]}`.
    pub fn render_json(&self) -> String {
        let mut doc = serde::Map::new();
        doc.insert(
            "diagnostics",
            serde_json::to_value(&self.merged().diagnostics).expect("diagnostics serialize"),
        );
        let machines: Vec<serde::Value> = self
            .machine_stats
            .iter()
            .map(|s| {
                let mut m = serde::Map::new();
                m.insert("name", serde::Value::String(s.name.to_string()));
                m.insert("code", serde::Value::String(s.code.to_string()));
                m.insert(
                    "executions",
                    serde_json::to_value(&s.executions).expect("u64"),
                );
                m.insert(
                    "transitions",
                    serde_json::to_value(&s.transitions).expect("u64"),
                );
                m.insert(
                    "sleep_prunes",
                    serde_json::to_value(&s.sleep_prunes).expect("u64"),
                );
                m.insert("budget_exceeded", serde::Value::Bool(s.budget_exceeded));
                m.insert("wall_ms", serde_json::to_value(&s.wall_ms).expect("u64"));
                serde::Value::Object(m)
            })
            .collect();
        doc.insert("machines", serde::Value::Array(machines));
        serde_json::to_string_pretty(&serde::Value::Object(doc)).expect("doc serializes")
    }

    /// All findings merged into one report (section order preserved).
    pub fn merged(&self) -> Report {
        let mut all = Report::new();
        for r in [
            &self.plan_report,
            &self.schedule_report,
            &self.determinism_report,
            &self.interleave_report,
            &self.attribution_report,
            &self.forensics_report,
            &self.watch_report,
            &self.cluster_report,
        ] {
            for d in &r.diagnostics {
                all.push(d.clone());
            }
        }
        all
    }
}

/// Run the whole suite.
///
/// With [`SuiteCfg::only`] set, only the stages certifying the listed
/// SA codes run (mapped by the code's hundreds digit: `SA0xx` plans,
/// `SA1xx` schedules/determinism, `SA2xx` model checking, `SA3xx`
/// attribution, `SA4xx` forensics, `SA5xx` drift watch, `SA6xx`
/// cluster schedules); skipped stages report clean with zero counts.
pub fn run_suite(cfg: &SuiteCfg) -> SuiteOutcome {
    let dev = DeviceConfig::default();
    // Which stage families did --only select? Keyed by the hundreds
    // digit of the SA code (position 2 of "SAxyz").
    let wants = |digit: u8| -> bool {
        match &cfg.only {
            None => true,
            Some(codes) => codes
                .iter()
                .any(|c| c.as_bytes().get(2).copied() == Some(digit)),
        }
    };
    // Plans (and the deployment built from them) feed every
    // simulation-based stage, not just the plan linter.
    let need_plans = wants(b'0') || wants(b'1') || wants(b'3') || wants(b'4') || wants(b'6');

    // --- Offline stage: plan every model, lint every plan. ---
    let mut plan_report = Report::new();
    let mut plans_checked = 0usize;
    let mut deployment = Deployment::new();
    let mut names: Vec<&'static str> = Vec::new();
    if need_plans {
        for &id in &cfg.models {
            let graph = id.build_calibrated(&dev);
            let info = id.info();
            names.push(info.name);
            // The paper splits the long models; short ones deploy vanilla.
            // Lint both artifacts either way — the GA output must be sane
            // even for models the deployment ends up not splitting.
            let (ga_plan, _) =
                SplitPlan::offline(&graph, &dev, cfg.ga_blocks.clone(), cfg.seed ^ id as u64);
            let vanilla = SplitPlan::vanilla(&graph, &dev);
            if wants(b'0') {
                plan_report.merge(lint_plan(&graph, &ga_plan, &dev, &cfg.plan_cfg));
                plan_report.merge(lint_plan(&graph, &vanilla, &dev, &cfg.plan_cfg));
                plans_checked += 2;
            }
            if info.class == LengthClass::Long {
                deployment.deploy_plan(&ga_plan);
            } else {
                deployment.deploy_plan(&vanilla);
            }
        }
    }
    let table = deployment.table();

    // --- Online stage: one workload, every policy, lint + audit. ---
    let mut schedule_report = Report::new();
    let mut determinism_report = Report::new();
    let mut attribution_report = Report::new();
    let mut schedules_checked = 0usize;
    if wants(b'1') || wants(b'3') {
        let mut scenario = Scenario::table2(cfg.scenario);
        scenario.requests = cfg.requests;
        let trace = RequestTrace::generate(scenario, &names);
        let arrivals = &trace.arrivals;

        let mut policies = Policy::all_default();
        policies.push(Policy::StreamParallel(Default::default()));
        policies.push(Policy::Sjf);
        for policy in &policies {
            let result = simulate(policy, arrivals, table);
            if wants(b'1') {
                let lint_cfg = match policy {
                    Policy::Split(_) => ScheduleLintCfg::block_granular(table),
                    Policy::Rta(_) | Policy::StreamParallel(_) => {
                        ScheduleLintCfg::concurrent(table)
                    }
                    _ => ScheduleLintCfg::structural(table),
                };
                schedule_report.merge(prefix_context(
                    lint_schedule(arrivals, &result, &lint_cfg),
                    policy.name(),
                ));
                determinism_report.merge(audit_determinism(policy, arrivals, table));
            }
            if wants(b'3') {
                attribution_report.merge(prefix_context(lint_attribution(&result), policy.name()));
            }
            schedules_checked += 1;
        }
    }

    // --- Pool stage: the GA must be thread-count invariant (SA106). ---
    // One long model is enough — every model goes through the same
    // profile-through-the-pool path.
    if wants(b'1') {
        if let Some(&id) = cfg
            .models
            .iter()
            .find(|id| id.info().class == LengthClass::Long)
        {
            let graph = id.build_calibrated(&dev);
            let ga_cfg = GaConfig {
                blocks: *cfg.ga_blocks.start().max(&2),
                generations: 5,
                seed: cfg.seed,
                ..GaConfig::new(2)
            };
            determinism_report.merge(audit_parallel_determinism(&graph, &dev, &ga_cfg, 8));
        }

        // --- Cost-table stage: the memoized profiling path must be
        // bit-identical to the direct arithmetic on every model (SA107). ---
        for &id in &cfg.models {
            let graph = id.build_calibrated(&dev);
            determinism_report.merge(audit_costtable_equivalence(&graph, &dev));
        }
    }

    // --- Forensics stage: an overload burst must fire the burn-rate
    // alert, and every bundle it produces must pass the SA4xx checks
    // (sampling invariant, exact classification, causal flight ring,
    // consistent verdict). ---
    let mut forensics_report = Report::new();
    let mut bundles_checked = 0usize;
    if wants(b'4') {
        let burst = BurstConfig {
            calm_interval_us: 50_000.0,
            burst_interval_us: 1_500.0,
            calm_dwell_us: 300_000.0,
            burst_dwell_us: 400_000.0,
        };
        let mut burst_scenario = Scenario::table2(cfg.scenario);
        burst_scenario.requests = cfg.requests;
        let burst_trace = RequestTrace::generate_burst(burst_scenario, &names, burst);
        let burst_result = simulate(
            &Policy::Split(Default::default()),
            &burst_trace.arrivals,
            table,
        );
        let inv = split_forensics::investigate(
            &burst_result.recorder,
            Some(&burst_result.trace),
            &split_forensics::ForensicsCfg::default(),
        );
        if inv.bundles.is_empty() {
            forensics_report.push(
                crate::diag::Diagnostic::error(
                    "SA402",
                    "forensics stage",
                    "the overload burst fired no burn-rate alert, so no incident bundle \
                     could be verified",
                )
                .with_help("the burst workload or SLO config no longer overloads the device"),
            );
        }
        bundles_checked = inv.bundles.len();
        forensics_report.merge(lint_bundles(&inv.bundles));
    }

    // --- Drift-watch stage: re-prove the SA5xx invariants (sketch
    // γ-bound vs exact sorted quantiles, window sample conservation on
    // a replayed schedule, merge order-independence, detector replay
    // determinism). ---
    let mut watch_report = Report::new();
    let mut watch_checks = 0usize;
    if wants(b'5') {
        let (r, n) = crate::watch_lint::lint_watch(cfg.scenario, cfg.requests);
        watch_report.merge(r);
        watch_checks = n;
    }

    // --- Cluster stage: a small heterogeneous fleet run per routing
    // policy, verified end to end (SA601 conservation, SA602 placement
    // discipline, SA603 per-lane feasibility). The offered interval is
    // scaled to the fleet's aggregate capacity so the run stays
    // feasible by construction — SA603 firing means the router or the
    // capacity model regressed, not that the stage overloads itself. ---
    let mut cluster_report = Report::new();
    let mut clusters_checked = 0usize;
    if wants(b'6') {
        let spec = gpu_sim::FleetSpec::heterogeneous(4);
        let fleet = split_cluster::Fleet::new(&spec, table);
        let placement = split_cluster::Placement::full(&fleet, table);
        let mut scenario = Scenario::table2(cfg.scenario);
        scenario.requests = cfg.requests;
        // Offer ~60% of fleet capacity (the single-device Table 2
        // scenario would leave a 4-device heterogeneous fleet idle).
        let interval = split_cluster::offered_interval_us(table, &fleet, 0.6);
        let fleet_scenario = Scenario::fleet(interval, scenario.requests);
        let trace = RequestTrace::generate(fleet_scenario, &names);
        for policy in split_cluster::RoutePolicy::all() {
            let route_cfg = split_cluster::RouteCfg {
                policy,
                seed: cfg.seed,
            };
            let result = split_cluster::simulate_fleet(
                &Policy::Split(Default::default()),
                &trace.arrivals,
                &fleet,
                &placement,
                &route_cfg,
            );
            cluster_report.merge(prefix_context(
                lint_cluster(&trace.arrivals, &fleet, &placement, &result),
                policy.name(),
            ));
            clusters_checked += 1;
        }
    }

    // --- Model-checking stage: weak-memory exploration of every
    // lock-free hot-path machine (telemetry, profile cache, flight
    // ring), DPOR-reduced, under the per-machine budget. ---
    let mut interleave_report = Report::new();
    let mut machine_stats = Vec::new();
    if wants(b'2') {
        let (report, stats) = check_models(cfg.mc_budget, cfg.only.as_deref());
        interleave_report.merge(report);
        machine_stats = stats;
    }
    let interleavings = machine_stats.iter().map(|s| s.executions).sum();

    SuiteOutcome {
        plan_report,
        schedule_report,
        determinism_report,
        interleave_report,
        attribution_report,
        forensics_report,
        watch_report,
        cluster_report,
        plans_checked,
        schedules_checked,
        bundles_checked,
        watch_checks,
        clusters_checked,
        interleavings,
        machine_stats,
    }
}

/// Prepend a policy name to every diagnostic context so merged reports
/// stay attributable.
fn prefix_context(report: Report, prefix: &str) -> Report {
    report
        .diagnostics
        .into_iter()
        .map(|mut d| {
            d.context = format!("{prefix}: {}", d.context);
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_suite_is_clean() {
        let cfg = SuiteCfg {
            // Keep the unit test quick: two models (one long, one short)
            // and a short trace.
            models: vec![ModelId::ResNet50, ModelId::GoogLeNet],
            requests: 60,
            ..SuiteCfg::default()
        };
        let out = run_suite(&cfg);
        let merged = out.merged();
        assert_eq!(merged.error_count(), 0, "{}", merged.render_text());
        assert_eq!(merged.warning_count(), 0, "{}", merged.render_text());
        assert_eq!(out.plans_checked, 4);
        assert_eq!(out.schedules_checked, 6);
        assert!(
            out.bundles_checked >= 1,
            "burst stage must produce a bundle"
        );
        assert!(out.watch_checks > 60, "drift-watch stage must probe");
        assert_eq!(out.clusters_checked, 3, "one fleet run per routing policy");
        assert_eq!(out.machine_stats.len(), crate::interleave::catalog().len());
        assert!(out.interleavings > 0);
        assert!(
            out.machine_stats.iter().all(|s| !s.budget_exceeded),
            "{:?}",
            out.machine_stats
        );
    }

    #[test]
    fn only_filter_skips_unrelated_stages() {
        let cfg = SuiteCfg {
            models: vec![ModelId::ResNet50],
            only: Some(vec!["SA205".to_string()]),
            ..SuiteCfg::default()
        };
        let out = run_suite(&cfg);
        assert_eq!(out.plans_checked, 0);
        assert_eq!(out.schedules_checked, 0);
        assert_eq!(out.bundles_checked, 0);
        assert_eq!(out.watch_checks, 0);
        assert_eq!(out.clusters_checked, 0);
        assert_eq!(out.machine_stats.len(), 1);
        assert_eq!(out.machine_stats[0].code, "SA205");
        assert!(out.merged().is_empty(), "{}", out.merged().render_text());
    }
}
