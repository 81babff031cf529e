//! splitbench: the repository's end-to-end benchmark.
//!
//! ```text
//! splitbench --workload <paper-fig6|fleet-overload|fleet-wide|live-s6|all>
//!            --seed N [--seconds S] [--trace 0|1] [--spans FILE]
//!            [--json FILE] [--smoke]
//! splitbench --compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! One run builds the workload's inputs from `--seed`, measures for
//! `--seconds` (default: `run_seconds` in `BENCHMARK.json`), checks the
//! program's outputs untimed, and prints every metric by name and unit.
//! `--compare` refuses records of runs that measured for different times. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate traced run reports the per-layer ones. Metric names, units,
//! directions and bounds come from the repository's `BENCHMARK.json`.
//! See README.md beside this file.

mod layers;
mod spans;
mod stats;
mod workloads;

use serde_json::{Map, Number, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

/// The benchmark definition: workloads and metrics.
const SPEC_JSON: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../../../../BENCHMARK.json"
));

const USAGE: &str =
    "usage: splitbench --workload <paper-fig6|fleet-overload|fleet-wide|live-s6|all> \
--seed N [--seconds S] [--trace 0|1] [--spans FILE] [--json FILE] [--smoke]\n       \
splitbench --compare PARENT.jsonl CHANGE.jsonl";

struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    bound: Option<f64>,
}

struct Spec {
    /// Seconds one run measures when `--seconds` is not given.
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load() -> Spec {
        let doc = serde_json::parse(SPEC_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .unwrap_or_else(|| panic!("{key} entry lacks {k}"))
                            .to_string()
                    };
                    MetricSpec {
                        name: text("name"),
                        unit: text("unit"),
                        lower_is_better: text("better") == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    }
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lists workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(String::from))
            .collect();
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json sets run_seconds"),
            workloads,
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans: Option<String>,
    json: Option<String>,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse_args(argv: &[String], default_seconds: f64) -> Result<Command, String> {
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv {
            [_, a, b] => Ok(Command::Compare(a.clone(), b.clone())),
            _ => Err("--compare takes exactly two files".into()),
        };
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = default_seconds;
    let (mut trace, mut smoke) = (false, false);
    let (mut spans, mut json) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--spans" => spans = Some(value),
            "--json" => json = Some(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if spans.is_some() && (!trace || workload == "all") {
        return Err("--spans needs --trace 1 and a single workload".into());
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
        spans,
        json,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let command = match parse_args(&argv, spec.run_seconds) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("splitbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare(a, b) => compare(&spec, &a, &b),
        Command::Run(args) if args.workload == "all" => run_all(&argv),
        Command::Run(args) => run_one(&spec, &args),
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    let pool_width = layers::pool_width();
    let opts = workloads::Opts {
        seed: args.seed,
        pool_width,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let out = workloads::run(&args.workload, &opts);
    println!(
        "splitbench {} seed {} {}s {} host_cores {} pool_width {} (measured at 1)",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        host_cores(),
        pool_width
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }

    // Every metric the benchmark defines for this mode, in its order. A
    // per-layer metric of a layer the workload does not run reads 0.
    let defined = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for name in out.metrics.keys() {
        assert!(
            defined.iter().any(|m| m.name == *name),
            "{name} is not a {} metric in BENCHMARK.json",
            if args.trace {
                "per_layer"
            } else {
                "end_to_end"
            }
        );
    }
    let values: Vec<(&MetricSpec, f64)> = defined
        .iter()
        .map(|m| match out.metrics.get(m.name.as_str()) {
            Some(&v) => (m, v),
            None if args.trace => (m, 0.0),
            None => panic!("{} was not measured", m.name),
        })
        .collect();
    let mut metrics = Map::new();
    if args.smoke {
        println!("  smoke run: metric values withheld");
    } else {
        for &(m, value) in &values {
            println!("  {:40} {:>16.4} {}", m.name, value, m.unit);
            let mut entry = Map::new();
            entry.insert("value", num(value));
            entry.insert("unit", Value::String(m.unit.clone()));
            metrics.insert(m.name.clone(), Value::Object(entry));
        }
    }
    let correct = out.failed == 0;
    println!(
        "  failed_frac {} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );

    if let (Some(path), Some(t)) = (&args.spans, &out.tracer) {
        if let Err(e) = std::fs::write(path, t.chrome_json()) {
            eprintln!("splitbench: writing spans to {path}: {e}");
            return ExitCode::from(1);
        }
        println!("  spans written to {path}");
    }
    if let (Some(path), false) = (&args.json, args.smoke) {
        let mut flat = Map::new();
        for &(m, value) in &values {
            flat.insert(m.name.clone(), num(value));
        }
        let mut rec = Map::new();
        rec.insert("workload", Value::String(args.workload.clone()));
        rec.insert("seed", Value::Number(Number::PosInt(args.seed)));
        rec.insert("seconds", num(args.seconds));
        rec.insert("trace", Value::Bool(args.trace));
        rec.insert(
            "host_cores",
            Value::Number(Number::PosInt(host_cores() as u64)),
        );
        rec.insert(
            "pool_width",
            Value::Number(Number::PosInt(pool_width as u64)),
        );
        rec.insert("valid", Value::Bool(out.valid));
        rec.insert("correct", Value::Bool(correct));
        if let Some(d) = out.digest {
            rec.insert("digest", Value::Number(Number::PosInt(d)));
        }
        rec.insert("metrics", Value::Object(flat));
        let line = serde_json::to_string(&Value::Object(rec)).expect("record serializes");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("splitbench: appending to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    finish(correct, out.attempted, out.failed, metrics)
}

/// Print the result line and turn it into the exit status.
fn finish(correct: bool, attempted: u64, failed: u64, metrics: Map) -> ExitCode {
    let mut result = Map::new();
    result.insert("correct", Value::Bool(correct));
    result.insert("attempted", Value::Number(Number::PosInt(attempted)));
    result.insert("failed", Value::Number(Number::PosInt(failed)));
    result.insert("metrics", Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: each workload in a process of its own (so peak RSS
/// and allocator state are per workload), then one combined result line
/// with metrics named `<workload>/<metric>`.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Map::new();
    for name in workloads::NAMES {
        let output = std::process::Command::new(&exe)
            .args(&rest)
            .args(["--workload", name])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run a workload process");
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        let Some(last) = text.lines().last().and_then(|l| serde_json::parse(l).ok()) else {
            eprintln!("splitbench: workload {name} printed no result");
            return ExitCode::from(1);
        };
        correct &= last.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += last.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += last.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(m) = last.get("metrics").and_then(Value::as_object) {
            for (k, v) in m {
                metrics.insert(format!("{name}/{k}"), v.clone());
            }
        }
    }
    finish(correct, attempted, failed, metrics)
}

/// One `--json` record.
struct Record {
    workload: String,
    seed: u64,
    seconds: f64,
    pool_width: u64,
    valid: bool,
    digest: Option<u64>,
    metrics: BTreeMap<String, f64>,
}

fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = serde_json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            let field = |k: &str| v.get(k).ok_or_else(|| format!("{path}:{}: no {k}", i + 1));
            Ok(Record {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                seed: field("seed")?.as_u64().unwrap_or_default(),
                seconds: field("seconds")?.as_f64().unwrap_or_default(),
                pool_width: field("pool_width")?.as_u64().unwrap_or_default(),
                valid: field("valid")?.as_bool().unwrap_or_default(),
                digest: v.get("digest").and_then(Value::as_u64),
                metrics: field("metrics")?
                    .as_object()
                    .map(|m| {
                        m.iter()
                            .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                            .collect()
                    })
                    .unwrap_or_default(),
            })
        })
        .collect()
}

/// Records compare only when every run measured for the same time.
fn same_run_length<'a>(records: impl Iterator<Item = &'a Record>) -> Result<(), String> {
    let mut lengths: Vec<f64> = records.map(|r| r.seconds).collect();
    lengths.sort_by(f64::total_cmp);
    lengths.dedup();
    match lengths.as_slice() {
        [] | [_] => Ok(()),
        _ => Err(format!(
            "records measured for different times ({lengths:?} s); \
             compare only runs of one length"
        )),
    }
}

/// `--compare`: per workload and metric, each side's median and
/// quartiles; a metric worse than its bound, or differing schedule
/// digests for one workload and seed, fails the comparison.
fn compare(spec: &Spec, parent_path: &str, change_path: &str) -> ExitCode {
    let read = read_records(parent_path).and_then(|p| {
        let c = read_records(change_path)?;
        same_run_length(p.iter().chain(&c))?;
        Ok((p, c))
    });
    let (parent, change) = match read {
        Ok(sides) => sides,
        Err(e) => {
            eprintln!("splitbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0;
    let skipped = parent.iter().chain(&change).filter(|r| !r.valid).count();
    if skipped > 0 {
        println!("{skipped} invalid records (generator slipped) left out");
    }
    println!(
        "{:16} {:38} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "bound"
    );
    for workload in &spec.workloads {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter(|r| r.valid && &r.workload == workload)
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (pq, cq) = (stats::quartiles(&p), stats::quartiles(&c));
            let (pm, cm) = (stats::median(&p), stats::median(&c));
            if pm == 0.0 && cm == 0.0 {
                // A layer this workload does not run.
                continue;
            }
            let verdict = match m.bound {
                Some(b) if stats::worse_beyond(pm, cm, m.lower_is_better, b) => {
                    bad += 1;
                    "WORSE"
                }
                _ if stats::pair_win(&p, &c, m.lower_is_better) => "better",
                Some(b) if stats::spread(&p).max(stats::spread(&c)) > b => "unresolved",
                Some(_) => "ok",
                None => "",
            };
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "{workload:16} {:38} {:>30} {:>30} {:>+7.1}% {bound:>6}  {verdict}",
                format!("{} ({})", m.name, m.unit),
                format!("{pm:.4} [{:.4}, {:.4}]", pq[0], pq[2]),
                format!("{cm:.4} [{:.4}, {:.4}]", cq[0], cq[2]),
                100.0 * (cm - pm) / pm.abs().max(f64::MIN_POSITIVE)
            );
        }
    }
    // Simulation schedules must not depend on the side, the run or the
    // pool width.
    let mut runs: Vec<(&str, u64, u64, u64)> = parent
        .iter()
        .chain(&change)
        .filter_map(|r| {
            r.digest
                .map(|d| (r.workload.as_str(), r.seed, d, r.pool_width))
        })
        .collect();
    runs.sort_unstable();
    for of_workload in runs.chunk_by(|a, b| a.0 == b.0) {
        let differing: Vec<u64> = of_workload
            .chunk_by(|a, b| a.1 == b.1)
            .filter(|of_seed| of_seed.iter().any(|r| r.2 != of_seed[0].2))
            .map(|of_seed| of_seed[0].1)
            .collect();
        let mut widths: Vec<u64> = of_workload.iter().map(|r| r.3).collect();
        widths.sort_unstable();
        widths.dedup();
        println!(
            "digests {}: {} over {} runs at pool widths {widths:?}{}",
            of_workload[0].0,
            if differing.is_empty() {
                "identical per seed"
            } else {
                "DIFFERENT"
            },
            of_workload.len(),
            if differing.is_empty() {
                String::new()
            } else {
                format!(" (seeds {differing:?})")
            }
        );
        bad += differing.len();
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {bad} metric(s) or seed(s) out of line");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_workloads_this_binary_runs() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, workloads::NAMES);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert!(parse_args(&args("--workload live-s6 --seed 3 --trace 1"), 1.0).is_ok());
        for bad in [
            "--workload nope --seed 1",
            "--workload live-s6",
            "--workload live-s6 --seed x",
            "--workload live-s6 --seed 1 --trace 2",
            "--workload live-s6 --seed 1 --seconds -1",
            "--workload live-s6 --seed 1 --spans f.json",
            "--workload live-s6 --seed 1 --bogus 1",
            "--compare a.jsonl",
        ] {
            assert!(parse_args(&args(bad), 1.0).is_err(), "{bad}");
        }
    }

    #[test]
    fn records_of_different_run_lengths_do_not_compare() {
        let record = |seconds: f64| Record {
            workload: "live-s6".into(),
            seed: 1,
            seconds,
            pool_width: 2,
            valid: true,
            digest: None,
            metrics: BTreeMap::new(),
        };
        let (a, b) = (record(20.0), record(20.0));
        assert!(same_run_length([&a, &b].into_iter()).is_ok());
        let short = record(5.0);
        assert!(same_run_length([&a, &short].into_iter()).is_err());
    }

    /// Every workload runs end to end at smoke size, checks clean, and
    /// measures exactly the metrics BENCHMARK.json defines.
    #[test]
    fn smoke_run_of_every_workload() {
        let spec = Spec::load();
        for trace in [false, true] {
            for name in workloads::NAMES {
                let o = workloads::Opts {
                    seed: 7,
                    pool_width: 2,
                    seconds: 0.2,
                    trace,
                    smoke: true,
                };
                let out = workloads::run(name, &o);
                assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
                assert_eq!(out.failed, 0, "{name}");
                assert!(out.attempted > 0, "{name}");
                let defined = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                for k in out.metrics.keys() {
                    assert!(defined.iter().any(|m| m.name == *k), "{name}: stray {k}");
                }
                if !trace {
                    for m in defined {
                        let v = out.metrics.get(m.name.as_str()).copied();
                        assert!(v.is_some_and(|v| v > 0.0), "{name}: {} = {v:?}", m.name);
                    }
                }
            }
        }
    }
}
