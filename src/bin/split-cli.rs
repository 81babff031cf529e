//! `split-cli` — drive the reproduction from the command line.
//!
//! ```text
//! split-cli zoo                               # list the model zoo
//! split-cli plan resnet50 --blocks 3          # run the offline GA
//! split-cli plan-all --out plans.json         # offline stage for Table 1
//! split-cli simulate --scenario 3 --policy split [--plans plans.json]
//! split-cli dot vgg19 --blocks 3              # graphviz of a split model
//! ```
//!
//! Argument parsing is deliberately hand-rolled (no extra dependencies);
//! every unknown input prints usage and exits non-zero.

use split_repro::experiment;
use split_repro::gpu_sim::{block_time_us, DeviceConfig};
use split_repro::model_zoo::{profiling_models, ModelId};
use split_repro::qos_metrics::{per_model_std, violation_rate};
use split_repro::sched::policy::SplitCfg;
use split_repro::sched::{simulate, Policy};
use split_repro::split_analyze::{run_suite, SuiteCfg};
use split_repro::split_core::{evolve, GaConfig, PlanSet, SplitPlan};
use split_repro::split_obs::{Monitor, MonitorCfg, SloCfg};
use split_repro::split_runtime::Deployment;
use split_repro::workload::{RequestTrace, Scenario};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: split-cli <command> [options]

commands:
  zoo                                  list the model zoo with measured latencies
  plan <model> [--blocks N] [--seed S] run the offline GA on one model
  plan-all [--out FILE]                offline stage for the Table 1 deployment
  simulate [--scenario 1..6] [--policy split|clockwork|prema|rta]
           [--plans FILE] [--alpha A]  serve a Table 2 scenario and report QoS
           [--trace FILE]              also write a Chrome/Perfetto trace
                                       (open in ui.perfetto.dev)
           [--metrics]                 also print the telemetry snapshot
                                       (decision latency p50/p99, e2e, ...)
           [--burst]                   bursty (MMPP) arrivals instead of Poisson
           [--drift]                   non-stationary arrivals: a flash crowd
                                       (8x surge at t=60s) for the change-point
                                       detectors to catch
           [--drift-report FILE]       write the drift-watch report (windowed
                                       sketches + regime events) as JSON
           [--forensics FILE]          investigate the run: on a burn-rate
                                       alert, write the incident bundle to FILE
  dot <model> [--blocks N]             emit Graphviz DOT (split into N blocks)
  analyze [--all] [--deny-warnings]    statically verify plans, schedules, and
          [--json] [--requests N]      the lock-free hot paths (weak-memory
          [--only SAxxx[,SAyyy]]       model checking; DESIGN.md \u{a7}9/\u{a7}14);
          [--mc-budget N]              --all covers every zoo model, --only
          [--mc-wall-ms MS]            runs just the stages/machines for the
          [--bundle FILE]              listed SA codes, --mc-* bound the
                                       per-machine exploration (SA200 on
                                       exhaustion), --json emits diagnostics
                                       plus per-machine explored/pruned counts;
                                       --bundle verifies one incident bundle
                                       (SA4xx) instead
  forensics <bundle.json> [--json]     render an incident bundle: alert, queue
            [--perfetto FILE]          context, outliers, root-cause verdict;
            [--check]                  --perfetto re-exports the captured span
                                       trees, --check exits non-zero unless the
                                       bundle passes the SA4xx analyzer
  fleet [--devices N | --fleet SPEC]     serve a Poisson stream across a fleet of
        [--requests M] [--route POLICY]  simulated GPUs: routing + one SPLIT
        [--policy P] [--load F]          scheduler per spatial partition, sharded
        [--alpha A] [--seed S]           over the SPLIT_THREADS pool. SPEC is
        [--replicas R]                   class[:streams][*count],... over classes
        [--devices-csv FILE]             jetson|nx|edge (default: heterogeneous
        [--qos-csv FILE]                 mix of N devices); POLICY is low|jsq|p2c;
                                         --load F offers F x fleet capacity;
                                         --replicas R places each model on R
                                         devices (default: all); the run is
                                         verified by the SA60x cluster analyzer
                                         and exits non-zero on any finding
  monitor [--replay FILE | --scenario 1..6 [--policy P] [--alpha A]]
          [--frames N] [--interval MS] live dashboard (queue depth, utilization,
          [--prom FILE] [--json]       per-model p50/p99, SLO burn rate, drift
                                       panel) over a replayed trace or a fresh
                                       simulation; --prom also writes Prometheus
                                       metrics, --json dumps one frame per line
                                       as JSON instead of the ASCII panel
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "zoo" => cmd_zoo(),
        "plan" => cmd_plan(rest),
        "plan-all" => cmd_plan_all(rest),
        "simulate" => cmd_simulate(rest),
        "monitor" => cmd_monitor(rest),
        "dot" => cmd_dot(rest),
        // `analyze` owns its exit code: diagnostics are the output, not a
        // usage error — only bad arguments fall through to the usage path.
        "analyze" => match cmd_analyze(rest) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        "forensics" => match cmd_forensics(rest) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        // `fleet` owns its exit code too: analyzer findings on the run
        // are the output, not a usage error.
        "fleet" => match cmd_fleet(rest) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        _ => Err(format!("unknown command {cmd:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Pull `--key value` out of an argument list.
fn opt(args: &[String], key: &str) -> Result<Option<String>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == key {
            return args
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{key} needs a value"));
        }
    }
    Ok(None)
}

fn find_model(name: &str) -> Result<ModelId, String> {
    profiling_models()
        .into_iter()
        .find(|id| id.info().name == name)
        .ok_or_else(|| {
            let names: Vec<&str> = profiling_models().iter().map(|id| id.info().name).collect();
            format!("unknown model {name:?}; available: {}", names.join(", "))
        })
}

fn cmd_zoo() -> Result<(), String> {
    let dev = DeviceConfig::jetson_nano();
    println!(
        "{:16} {:>6} {:>10} {:>12} {:>7}",
        "model", "ops", "GFLOPs", "latency(ms)", "type"
    );
    for id in profiling_models() {
        let g = id.build_calibrated(&dev);
        let info = id.info();
        println!(
            "{:16} {:>6} {:>10.1} {:>12.2} {:>7}",
            info.name,
            g.op_count(),
            g.total_flops() as f64 / 1e9,
            block_time_us(&g, &dev) / 1e3,
            format!("{:?}", info.class)
        );
    }
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("plan needs a model name")?;
    let id = find_model(name)?;
    let blocks: usize = opt(args, "--blocks")?
        .map(|s| s.parse().map_err(|_| "bad --blocks"))
        .transpose()?
        .unwrap_or(3);
    let seed: u64 = opt(args, "--seed")?
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(experiment::OFFLINE_SEED);

    let dev = DeviceConfig::jetson_nano();
    let g = id.build_calibrated(&dev);
    let out = evolve(&g, &dev, &GaConfig::new(blocks).with_seed(seed));
    let p = &out.best_profile;
    println!(
        "model {name}: {} operators, vanilla {:.2} ms",
        g.op_count(),
        p.vanilla_us / 1e3
    );
    println!(
        "GA converged in {} generations ({} candidates profiled)",
        out.generations_run,
        out.history
            .last()
            .map(|h| h.candidates_profiled)
            .unwrap_or(0)
    );
    println!("cuts: {:?}", out.best.cuts());
    println!(
        "blocks: {}",
        p.block_times_us
            .iter()
            .map(|b| format!("{:.2}ms", b / 1e3))
            .collect::<Vec<_>>()
            .join(" + ")
    );
    println!(
        "σ = {:.3} ms, overhead = {:.1}%, range = {:.2}%",
        p.std_us / 1e3,
        100.0 * p.overhead_ratio,
        p.range_pct
    );
    Ok(())
}

fn cmd_plan_all(args: &[String]) -> Result<(), String> {
    let dev = DeviceConfig::jetson_nano();
    let plans = experiment::paper_plans(&dev);
    for p in plans.iter() {
        println!(
            "{:12} {} block(s){}",
            p.model,
            p.block_count(),
            if p.is_split() {
                format!(", cuts {:?}", p.cuts)
            } else {
                String::new()
            }
        );
    }
    if let Some(path) = opt(args, "--out")? {
        let path = PathBuf::from(path);
        plans.save(&path).map_err(|e| e.to_string())?;
        println!("saved to {}", path.display());
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let scenario: usize = opt(args, "--scenario")?
        .map(|s| s.parse().map_err(|_| "bad --scenario"))
        .transpose()?
        .unwrap_or(3);
    if !(1..=6).contains(&scenario) {
        return Err("scenario must be 1..=6 (Table 2)".into());
    }
    let alpha: f64 = opt(args, "--alpha")?
        .map(|s| s.parse().map_err(|_| "bad --alpha"))
        .transpose()?
        .unwrap_or(4.0);
    let policy = match opt(args, "--policy")?.as_deref().unwrap_or("split") {
        "split" => Policy::Split(SplitCfg::default()),
        "clockwork" => Policy::ClockWork,
        "prema" => Policy::Prema(Default::default()),
        "rta" => Policy::Rta(Default::default()),
        other => return Err(format!("unknown policy {other:?}")),
    };

    let dev = DeviceConfig::jetson_nano();
    let deployment = match opt(args, "--plans")? {
        Some(path) => {
            let plans = PlanSet::load(&PathBuf::from(&path)).map_err(|e| format!("{path}: {e}"))?;
            let mut d = Deployment::new();
            d.deploy_all(&plans);
            d
        }
        None => experiment::paper_deployment(&dev),
    };

    let trace_out = opt(args, "--trace")?;
    let want_metrics = args.iter().any(|a| a == "--metrics");
    let want_burst = args.iter().any(|a| a == "--burst");
    let want_drift = args.iter().any(|a| a == "--drift");
    let drift_report_out = opt(args, "--drift-report")?;
    let forensics_out = opt(args, "--forensics")?;
    if want_burst && want_drift {
        return Err("--burst and --drift are mutually exclusive".into());
    }

    let trace = if want_drift {
        // A flash crowd on top of the scenario's nominal interval: calm
        // until t=60 s, then an 8× surge for 40 s. With the watch's 10 s
        // windows the detectors finish warming up around window 5 and
        // the onset lands in window 6.
        let profile = split_repro::workload::DriftProfile::FlashCrowd {
            base_interval_us: Scenario::table2(scenario).lambda_us(),
            onset_us: 60_000_000.0,
            surge: 8.0,
            dwell_us: 40_000_000.0,
        };
        RequestTrace::generate_drift(
            Scenario::table2(scenario),
            &experiment::PAPER_MODEL_NAMES,
            profile,
        )
    } else if want_burst {
        // Compress the pedestrian MMPP so the burst volleys overload the
        // device and the burn-rate alert has something to fire on.
        let burst = split_repro::workload::BurstConfig {
            calm_interval_us: 50_000.0,
            burst_interval_us: 1_500.0,
            calm_dwell_us: 300_000.0,
            burst_dwell_us: 400_000.0,
        };
        RequestTrace::generate_burst(
            Scenario::table2(scenario),
            &experiment::PAPER_MODEL_NAMES,
            burst,
        )
    } else {
        RequestTrace::generate(Scenario::table2(scenario), &experiment::PAPER_MODEL_NAMES)
    };
    let r = simulate(&policy, &trace.arrivals, deployment.table());
    let outcomes = r.outcomes();
    println!(
        "policy {} on scenario {scenario}: {} requests",
        policy.name(),
        outcomes.len()
    );
    println!(
        "violation rate @ α={alpha}: {:.2}%",
        100.0 * violation_rate(&outcomes, alpha)
    );
    println!("\nper-model jitter:");
    for row in per_model_std(&outcomes) {
        println!(
            "  {:12} n={:<4} mean {:>8.2} ms  σ {:>7.2} ms",
            row.model,
            row.count,
            row.mean_us / 1e3,
            row.std_us / 1e3
        );
    }

    if let Some(path) = trace_out {
        let path = PathBuf::from(path);
        split_repro::split_telemetry::write_chrome_trace(
            &r.recorder,
            &format!("split-sim ({} / scenario {scenario})", policy.name()),
            &path,
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "\nwrote Perfetto trace ({} events) to {}",
            r.recorder.len(),
            path.display()
        );
    }
    if let Some(path) = drift_report_out {
        let path = PathBuf::from(path);
        let report = r.drift(split_repro::split_watch::WatchCfg {
            alpha,
            ..split_repro::split_watch::WatchCfg::default()
        });
        println!("\n{}", report.render_text());
        report
            .save(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote drift report to {}", path.display());
    }
    if let Some(path) = forensics_out {
        let path = PathBuf::from(path);
        let mut cfg = split_repro::split_forensics::ForensicsCfg::default();
        cfg.slo.alpha = alpha;
        let inv = split_repro::split_forensics::investigate(&r.recorder, Some(&r.trace), &cfg);
        println!("\nforensics: {}", inv.alerts.summary());
        match inv.bundles.first() {
            None => println!("no burn-rate alert fired; no incident bundle written"),
            Some(bundle) => {
                for b in &inv.bundles {
                    println!("  {}", b.verdict.text);
                }
                bundle
                    .save(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!(
                    "wrote incident bundle ({} outliers, {}/{} violating captured) to {}",
                    bundle.verdict.outliers,
                    bundle.verdict.captured_violating,
                    bundle.verdict.violating,
                    path.display()
                );
            }
        }
    }
    if want_metrics {
        println!("\ntelemetry:\n{}", r.metrics().snapshot().render_markdown());
        println!(
            "mean e2e latency by critical-path component (ms):\n{}",
            split_repro::qos_metrics::breakdown_markdown(&split_repro::split_obs::rollup_by_model(
                &r.attribution()
            ))
        );
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" | "--deny-warnings" | "--json" => i += 1,
            "--requests" | "--bundle" | "--only" | "--mc-budget" | "--mc-wall-ms" => i += 2,
            other => return Err(format!("analyze: unknown option {other:?}")),
        }
    }
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let json = args.iter().any(|a| a == "--json");
    if let Some(path) = opt(args, "--bundle")? {
        // Single-bundle mode: SA4xx over one incident document.
        let path = PathBuf::from(path);
        let bundle = split_repro::split_forensics::IncidentBundle::load(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let report = split_repro::split_analyze::lint_bundle(&bundle);
        if json {
            println!("{}", report.render_json());
        } else if report.is_empty() {
            eprintln!("bundle {}: clean", path.display());
        } else {
            print!("{}", report.render_text());
        }
        return Ok(if report.fails(deny_warnings) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let mut cfg = if args.iter().any(|a| a == "--all") {
        SuiteCfg::all_models()
    } else {
        SuiteCfg::default()
    };
    if let Some(n) = opt(args, "--requests")? {
        cfg.requests = n.parse().map_err(|_| "bad --requests")?;
    }
    if let Some(codes) = opt(args, "--only")? {
        let codes: Vec<String> = codes
            .split(',')
            .map(|c| c.trim().to_ascii_uppercase())
            .filter(|c| !c.is_empty())
            .collect();
        for c in &codes {
            if !c.starts_with("SA") || c.len() != 5 || !c[2..].bytes().all(|b| b.is_ascii_digit()) {
                return Err(format!("bad --only code {c:?} (expected SAxxx)"));
            }
        }
        if codes.is_empty() {
            return Err("--only needs at least one SA code".into());
        }
        cfg.only = Some(codes);
    }
    if let Some(n) = opt(args, "--mc-budget")? {
        cfg.mc_budget.max_transitions = n.parse().map_err(|_| "bad --mc-budget")?;
    }
    if let Some(ms) = opt(args, "--mc-wall-ms")? {
        cfg.mc_budget.wall_ms = ms.parse().map_err(|_| "bad --mc-wall-ms")?;
    }

    let out = run_suite(&cfg);
    let merged = out.merged();
    if json {
        println!("{}", out.render_json());
    } else {
        eprintln!(
            "analyzed {} plan(s), {} schedule(s), {} bundle(s), {} model-checked \
             execution(s), {} drift-watch probe(s), {} fleet run(s)",
            out.plans_checked,
            out.schedules_checked,
            out.bundles_checked,
            out.interleavings,
            out.watch_checks,
            out.clusters_checked
        );
        for s in &out.machine_stats {
            eprintln!(
                "  model {}: {} executions, {} transitions, {} sleep-set prunes, {} ms{}",
                s.name,
                s.executions,
                s.transitions,
                s.sleep_prunes,
                s.wall_ms,
                if s.budget_exceeded {
                    " [BUDGET EXCEEDED]"
                } else {
                    ""
                }
            );
        }
        for (section, report) in [
            ("plans", &out.plan_report),
            ("schedules", &out.schedule_report),
            ("determinism", &out.determinism_report),
            ("interleavings", &out.interleave_report),
            ("attribution", &out.attribution_report),
            ("forensics", &out.forensics_report),
            ("watch", &out.watch_report),
            ("cluster", &out.cluster_report),
        ] {
            if report.is_empty() {
                eprintln!("  {section}: clean");
            } else {
                eprintln!("  {section}:");
                print!("{}", report.render_text());
            }
        }
    }
    Ok(if merged.fails(deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_forensics(args: &[String]) -> Result<ExitCode, String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("forensics needs a bundle path")?;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" | "--check" => i += 1,
            "--perfetto" => i += 2,
            other => return Err(format!("forensics: unknown option {other:?}")),
        }
    }
    let path = PathBuf::from(path);
    let bundle = split_repro::split_forensics::IncidentBundle::load(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    if args.iter().any(|a| a == "--json") {
        println!("{}", bundle.to_json());
    } else {
        print!("{}", bundle.render_text());
    }
    if let Some(out) = opt(args, "--perfetto")? {
        let out = PathBuf::from(out);
        bundle
            .write_perfetto(&out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("wrote Perfetto trace to {}", out.display());
    }
    if args.iter().any(|a| a == "--check") {
        let report = split_repro::split_analyze::lint_bundle(&bundle);
        if report.is_empty() {
            eprintln!("check: clean (SA4xx)");
        } else {
            print!("{}", report.render_text());
        }
        if report.fails(true) {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_fleet(args: &[String]) -> Result<ExitCode, String> {
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--devices" | "--fleet" | "--requests" | "--route" | "--policy" | "--load"
            | "--alpha" | "--seed" | "--replicas" | "--devices-csv" | "--qos-csv" => i += 2,
            other => return Err(format!("fleet: unknown option {other:?}")),
        }
    }
    use split_repro::split_cluster::{
        offered_interval_us, simulate_fleet, Fleet, Placement, RouteCfg, RoutePolicy,
    };
    use split_repro::split_obs::{render_saturation_table, saturation_csv};

    let devices: usize = opt(args, "--devices")?
        .map(|s| s.parse().map_err(|_| "bad --devices"))
        .transpose()?
        .unwrap_or(16);
    if devices == 0 {
        return Err("--devices must be at least 1".into());
    }
    let spec = match opt(args, "--fleet")? {
        Some(s) => {
            split_repro::gpu_sim::FleetSpec::parse(&s).map_err(|e| format!("--fleet: {e}"))?
        }
        None => split_repro::gpu_sim::FleetSpec::heterogeneous(devices),
    };
    let requests: usize = opt(args, "--requests")?
        .map(|s| s.parse().map_err(|_| "bad --requests"))
        .transpose()?
        .unwrap_or(100_000);
    if requests == 0 {
        return Err("--requests must be at least 1".into());
    }
    let route_policy = match opt(args, "--route")? {
        Some(s) => RoutePolicy::parse(&s)
            .ok_or_else(|| format!("unknown routing policy {s:?} (expected low, jsq, or p2c)"))?,
        None => RoutePolicy::LeastOutstandingWork,
    };
    let policy = match opt(args, "--policy")?.as_deref().unwrap_or("split") {
        "split" => Policy::Split(SplitCfg::default()),
        "clockwork" => Policy::ClockWork,
        "prema" => Policy::Prema(Default::default()),
        "rta" => Policy::Rta(Default::default()),
        other => return Err(format!("unknown policy {other:?}")),
    };
    let load: f64 = opt(args, "--load")?
        .map(|s| s.parse().map_err(|_| "bad --load"))
        .transpose()?
        .unwrap_or(0.6);
    if load <= 0.0 || !load.is_finite() {
        return Err("--load must be positive".into());
    }
    let alpha: f64 = opt(args, "--alpha")?
        .map(|s| s.parse().map_err(|_| "bad --alpha"))
        .transpose()?
        .unwrap_or(4.0);
    let seed: u64 = opt(args, "--seed")?
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or_else(|| RouteCfg::default().seed);
    let replicas: Option<usize> = opt(args, "--replicas")?
        .map(|s| s.parse().map_err(|_| "bad --replicas"))
        .transpose()?;
    if replicas == Some(0) {
        return Err("--replicas must be at least 1".into());
    }

    let dev = DeviceConfig::jetson_nano();
    let deployment = experiment::paper_deployment(&dev);
    let table = deployment.table();
    let fleet = Fleet::new(&spec, table);
    let placement = match replicas {
        Some(r) => Placement::replicated(&fleet, table, r),
        None => Placement::full(&fleet, table),
    };
    let interval_us = offered_interval_us(table, &fleet, load);
    let trace = RequestTrace::generate(
        Scenario::fleet(interval_us, requests),
        &experiment::PAPER_MODEL_NAMES,
    );
    let result = simulate_fleet(
        &policy,
        &trace.arrivals,
        &fleet,
        &placement,
        &RouteCfg {
            policy: route_policy,
            seed,
        },
    );

    println!(
        "fleet {}: {} device(s), {} lane(s), capacity {:.2} jetson-units",
        fleet.spec().render(),
        fleet.devices().len(),
        fleet.lanes().len(),
        fleet.capacity()
    );
    println!(
        "router {} (seed {seed:#x}) over {} placed model(s); scheduler {}; \
         offered load {load:.2} (mean interval {:.1} µs)",
        route_policy.name(),
        placement.len(),
        policy.name(),
        interval_us
    );
    let span_s = result.span_us() / 1e6;
    println!(
        "{} request(s): {} completed over {span_s:.2} s simulated \
         ({:.0} req/s of simulated time)",
        trace.arrivals.len(),
        result.completed(),
        result.completed() as f64 / span_s.max(1e-9)
    );
    println!("schedule digest: {:#018x}", result.digest());
    let outcomes = result.outcomes();
    println!(
        "violation rate @ α={alpha}: {:.2}%",
        100.0 * violation_rate(&outcomes, alpha)
    );

    let saturation = result.device_saturation(&fleet);
    println!("\n{}", render_saturation_table(&saturation));

    if let Some(path) = opt(args, "--devices-csv")? {
        let path = PathBuf::from(path);
        std::fs::write(&path, saturation_csv(&saturation))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote per-device saturation to {}", path.display());
    }
    if let Some(path) = opt(args, "--qos-csv")? {
        let path = PathBuf::from(path);
        let mut csv = String::from("alpha,violation_rate\n");
        for (a, v) in split_repro::qos_metrics::violation_curve(&outcomes, 1, 12) {
            csv.push_str(&format!("{a},{v:.6}\n"));
        }
        std::fs::write(&path, csv).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote cluster QoS curve to {}", path.display());
    }

    let report =
        split_repro::split_analyze::lint_cluster(&trace.arrivals, &fleet, &placement, &result);
    if report.is_empty() {
        eprintln!("cluster lint: clean (SA601, SA602, SA603)");
    } else {
        print!("{}", report.render_text());
    }
    Ok(if report.fails(true) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_monitor(args: &[String]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--replay" | "--scenario" | "--policy" | "--alpha" | "--frames" | "--interval"
            | "--prom" => i += 2,
            "--json" => i += 1,
            other => return Err(format!("monitor: unknown option {other:?}")),
        }
    }
    let want_json = args.iter().any(|a| a == "--json");
    let frames: usize = opt(args, "--frames")?
        .map(|s| s.parse().map_err(|_| "bad --frames"))
        .transpose()?
        .unwrap_or(5)
        .max(1);
    let interval_ms: u64 = opt(args, "--interval")?
        .map(|s| s.parse().map_err(|_| "bad --interval"))
        .transpose()?
        .unwrap_or(250);
    let alpha: f64 = opt(args, "--alpha")?
        .map(|s| s.parse().map_err(|_| "bad --alpha"))
        .transpose()?
        .unwrap_or(4.0);

    let recorder = match opt(args, "--replay")? {
        Some(path) => {
            let path = PathBuf::from(path);
            split_repro::split_telemetry::read_chrome_trace(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => {
            let scenario: usize = opt(args, "--scenario")?
                .map(|s| s.parse().map_err(|_| "bad --scenario"))
                .transpose()?
                .unwrap_or(3);
            if !(1..=6).contains(&scenario) {
                return Err("scenario must be 1..=6 (Table 2)".into());
            }
            let policy = match opt(args, "--policy")?.as_deref().unwrap_or("split") {
                "split" => Policy::Split(SplitCfg::default()),
                "clockwork" => Policy::ClockWork,
                "prema" => Policy::Prema(Default::default()),
                "rta" => Policy::Rta(Default::default()),
                other => return Err(format!("unknown policy {other:?}")),
            };
            let dev = DeviceConfig::jetson_nano();
            let deployment = experiment::paper_deployment(&dev);
            let trace =
                RequestTrace::generate(Scenario::table2(scenario), &experiment::PAPER_MODEL_NAMES);
            simulate(&policy, &trace.arrivals, deployment.table()).recorder
        }
    };
    if recorder.is_empty() {
        return Err("nothing to monitor: the trace has no events".into());
    }

    // Replay the timeline in `frames` equal simulated-time windows,
    // rendering the dashboard after each.
    let events: Vec<split_repro::split_telemetry::Event> = recorder.events().cloned().collect();
    let t0 = events.first().map(|e| e.t_us()).unwrap_or(0.0);
    let t1 = events.last().map(|e| e.t_us()).unwrap_or(0.0);
    let span = (t1 - t0).max(1.0);
    let mut monitor = Monitor::new(MonitorCfg {
        slo: SloCfg {
            alpha,
            ..SloCfg::default()
        },
        ..MonitorCfg::default()
    });
    let mut fed = 0usize;
    for frame in 1..=frames {
        let cutoff = t0 + span * frame as f64 / frames as f64;
        while fed < events.len() && (frame == frames || events[fed].t_us() <= cutoff) {
            monitor.feed(&events[fed]);
            fed += 1;
        }
        if want_json {
            let f = monitor.frame();
            println!("{}", serde_json::to_string(&f).expect("frames serialize"));
        } else {
            println!("{}", monitor.render());
        }
        if interval_ms > 0 && frame < frames {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }

    if let Some(path) = opt(args, "--prom")? {
        let path = PathBuf::from(path);
        std::fs::write(&path, monitor.prometheus())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote Prometheus metrics to {}", path.display());
    }
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("dot needs a model name")?;
    let id = find_model(name)?;
    let dev = DeviceConfig::jetson_nano();
    let g = id.build_calibrated(&dev);
    let spec = match opt(args, "--blocks")? {
        Some(b) => {
            let blocks: usize = b.parse().map_err(|_| "bad --blocks")?;
            let out = evolve(&g, &dev, &GaConfig::new(blocks));
            Some(out.best)
        }
        None => None,
    };
    print!("{}", split_repro::dnn_graph::to_dot(&g, spec.as_ref()));
    Ok(())
}

// Exercised by tests/cli.rs; kept here so the binary stays self-contained.
#[allow(dead_code)]
fn _assert_plans_type(p: &PlanSet) -> usize {
    p.iter().map(SplitPlan::block_count).sum()
}
