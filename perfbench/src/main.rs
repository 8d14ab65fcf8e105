//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --pbc <path-to-pbc>
//! ```
//!
//! Four seeded workloads drive the shipped program and check its
//! outputs while they measure:
//!
//! * `serve-budget`, `serve-observe` — open-loop line-protocol traffic
//!   against a `pbc serve` child process over one TCP connection;
//! * `fleet-calm-512`, `fleet-faults-64` — closed-loop fleet epochs of
//!   an in-process `FleetCoordinator`.
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation.
//! `--trace 1` is a separate run on the same seed that wraps each public
//! call into a layer in a `pbc_trace` span (recorded in memory, written
//! out at the end) and prints the per-layer breakdown instead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Everything above it
//! is a human-readable table. Any failed check makes `correct` false.

mod cpu;
mod fleet;
mod layers;
mod procfs;
mod reference;
mod serve;
mod stats;

use pbc_trace::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `pbc` binary the serve workloads run as a child process.
    pub pbc: Option<PathBuf>,
    /// Scratch directory for the mock RAPL tree and the span dump.
    pub work_dir: PathBuf,
}

/// One metric as printed in the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: requests sent, or epochs run.
    pub attempted: u64,
    /// Operations that failed a check (see each workload's checks).
    pub failed: u64,
    /// Set when a whole-run check fails (e.g. an open-loop run whose
    /// backlog kept growing), independent of per-operation failures.
    pub invalid: Option<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result line.
    pub table: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn line(&mut self, text: String) {
        self.table.push(text);
    }

    /// Count one failed operation, with the reason on standard error
    /// (only the first few of each run, to keep the log readable).
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        if self.failed < 8 {
            eprintln!("perfbench: check failed: {}", why());
        }
        self.failed += 1;
    }
}

/// Every per-layer metric, in output order. A traced run prints all of
/// them; a layer the workload never calls reads 0 (no work, no waste).
const PER_LAYER: [(&str, &str); 35] = [
    ("proto.parse_ns", "ns"),
    ("proto.render_ns", "ns"),
    ("engine.dispatch_ns.p50", "ns"),
    ("engine.dispatch_ns.p99", "ns"),
    ("online.set_budget_ns", "ns"),
    ("online.observe_ns", "ns"),
    ("online.accepted_ratio", "ratio"),
    ("fastpath.table_hits_per_budget", "ratio"),
    ("server.transport_us.p50", "us"),
    ("serve.p99_us", "us"),
    ("serve.p999_us", "us"),
    ("gen.late_us.p99", "us"),
    ("gen.outstanding_max", "count"),
    ("fleet.set_budget_ms", "ms"),
    ("coordinator.step_ms", "ms"),
    ("partition.fill_ms", "ms"),
    ("fleet.coord_us", "us"),
    ("powersim.solve_us", "us"),
    ("powersim.memo_hit_ratio", "ratio"),
    ("fleet.changed_share_ratio", "ratio"),
    ("fleet.infeasible_ratio", "ratio"),
    ("rapl.write_us.p50", "us"),
    ("rapl.write_us.p99", "us"),
    ("rapl.writes_per_epoch", "count"),
    ("enforce.retry_ratio", "ratio"),
    ("health.rejected_report_ratio", "ratio"),
    ("health.missed_report_ratio", "ratio"),
    ("tenant.split_us", "us"),
    ("tenant.jain_min", "index"),
    ("cluster.degraded_epoch_ratio", "ratio"),
    ("pool.steals_per_job", "ratio"),
    ("coordinator.residual_ms", "ms"),
    ("fleet.perf_mean", "rel"),
    ("trace.children_coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Emit every [`PER_LAYER`] metric, taking values from `measured` by
/// name and 0 for the layers this workload does not reach.
pub fn per_layer_metrics(out: &mut Outcome, measured: &[(&str, f64)]) {
    for (name, unit) in PER_LAYER {
        let value = measured.iter().find(|m| m.0.eq(name)).map_or(0.0, |m| m.1);
        out.metric(name, value, unit);
    }
}

const WORKLOADS: [&str; 4] = [
    "serve-budget",
    "serve-observe",
    "fleet-calm-512",
    "fleet-faults-64",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pbc = None;
    let mut work_dir = PathBuf::from(".bench_build").join("perfbench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--pbc" => pbc = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        pbc,
        work_dir,
    })
}

/// Mix a user seed with a per-purpose salt (splitmix64), so small
/// seeds like 1, 2, 3 still give unrelated xorshift streams.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        (
            "correct".into(),
            Value::Bool(o.failed == 0 && o.invalid.is_none()),
        ),
        ("attempted".into(), Value::Num(o.attempted as f64)),
        ("failed".into(), Value::Num(o.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let run = match args.workload.as_str() {
        "serve-budget" => serve::run(serve::Mix::Budget, &args),
        "serve-observe" => serve::run(serve::Mix::Observe, &args),
        "fleet-calm-512" => fleet::run(fleet::Shape::Calm512, &args),
        _ => fleet::run(fleet::Shape::Faults64, &args),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Some(why) = &outcome.invalid {
        eprintln!("perfbench: run invalid: {why}");
    }
    let mode = if args.trace {
        "traced (per-layer)"
    } else {
        "untraced (end-to-end)"
    };
    println!(
        "perfbench {} seed={} seconds={} {mode}",
        args.workload, args.seed, args.seconds
    );
    for line in &outcome.table {
        println!("  {line}");
    }
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  attempted={} failed={} error_rate={:.6}",
        outcome.attempted,
        outcome.failed,
        stats::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
