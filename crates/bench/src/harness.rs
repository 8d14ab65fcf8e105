//! A minimal, dependency-free micro-benchmark harness.
//!
//! Criterion cannot be vendored into an offline workspace, so the bench
//! targets use this harness instead: warm up, run timed batches for a
//! fixed measurement window, and report min / median / mean ns per
//! iteration; two benchmarks whose ratio a gate bounds are timed in
//! alternating batches by [`Bench::run_pair`]. It understands the
//! arguments cargo passes to bench binaries: a name filter, and
//! `--bench`, which `cargo bench` sends.
//! Without `--bench` — under `cargo test --benches`, which sends no
//! flag a `harness = false` binary would see, or when a binary is run
//! by hand — every benchmark runs once as a smoke run, so the bench
//! suite doubles as a cheap regression check and never times a debug
//! build.
//!
//! When the `PBC_BENCH_JSON` environment variable names a file, every
//! measured benchmark also appends one machine-readable JSON line there
//! (the `pbc-trace` `"type":"bench"` schema), so CI can keep a timing
//! trajectory across commits.

use pbc_types::u64_from_f64;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// How long to measure each benchmark for (after warmup).
const MEASURE_WINDOW: Duration = Duration::from_millis(200);
/// Warmup budget before measurement starts.
const WARMUP_WINDOW: Duration = Duration::from_millis(50);
/// Upper bound on recorded samples per benchmark.
const MAX_SAMPLES: usize = 512;

/// The bench runner. Construct once per bench binary with
/// [`Bench::from_env`], then call [`Bench::run`] per benchmark.
pub struct Bench {
    filter: Option<String>,
    smoke: bool,
    ran: usize,
}

impl Bench {
    /// Build a runner from the process arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Every non-flag argument is a substring filter on benchmark names;
    /// only `--bench` selects timed runs, anything else is a smoke run.
    /// Other `--flags` are ignored so `cargo bench -- --flag`
    /// combinations don't error.
    fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut filter = None;
        let mut smoke = true;
        for arg in args {
            match arg.as_str() {
                "--bench" => smoke = false,
                a if a.starts_with("--") => {}
                a => filter = Some(a.to_string()),
            }
        }
        Self { filter, smoke, ran: 0 }
    }

    /// Run one benchmark: `f` is invoked repeatedly and its return value
    /// passed through `black_box` so the optimizer cannot elide the work.
    ///
    /// Returns the median ns per iteration when the benchmark was actually
    /// measured, and `None` when it was filtered out or ran in smoke mode —
    /// so derived metrics (see [`Bench::record_ratio`]) are only computed
    /// from real timings.
    pub fn run<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) -> Option<f64> {
        if !self.selects(name) {
            return None;
        }
        self.ran += 1;
        if self.smoke {
            smoke(name, &mut f);
            return None;
        }
        let batch = warm_up(&mut f);
        let mut samples: Vec<f64> = Vec::new();
        let measure_start = Instant::now();
        while measure_start.elapsed() < MEASURE_WINDOW && samples.len() < MAX_SAMPLES {
            samples.push(time_batch(&mut f, batch));
        }
        Some(report(name, samples, batch))
    }

    /// Time two benchmarks against each other in one window: batches of
    /// `a` and `b` alternate (`a b`, then `b a`, …), and each pair of
    /// neighbouring batches yields one ratio `a / b` of ns per iteration.
    /// A host that changes speed between two separate windows moves a
    /// ratio of their medians; here both sides of every pair see the
    /// same host, so the median of the per-pair ratios holds still.
    ///
    /// Both benchmarks are reported and recorded as [`Bench::run`]
    /// reports one. Returns that median ratio; runs when the filter
    /// selects either name, and returns `None` in smoke mode.
    pub fn run_pair<A, B>(
        &mut self,
        a_name: &str,
        mut a: impl FnMut() -> A,
        b_name: &str,
        mut b: impl FnMut() -> B,
    ) -> Option<f64> {
        if !self.selects(a_name) && !self.selects(b_name) {
            return None;
        }
        self.ran += 2;
        if self.smoke {
            smoke(a_name, &mut a);
            smoke(b_name, &mut b);
            return None;
        }
        let (batch_a, batch_b) = (warm_up(&mut a), warm_up(&mut b));
        let (mut samples_a, mut samples_b) = (Vec::new(), Vec::new());
        let measure_start = Instant::now();
        while measure_start.elapsed() < 2 * MEASURE_WINDOW && samples_a.len() < MAX_SAMPLES {
            if samples_a.len() % 2 == 0 {
                samples_a.push(time_batch(&mut a, batch_a));
                samples_b.push(time_batch(&mut b, batch_b));
            } else {
                samples_b.push(time_batch(&mut b, batch_b));
                samples_a.push(time_batch(&mut a, batch_a));
            }
        }
        let mut ratios: Vec<f64> = samples_a.iter().zip(&samples_b).map(|(x, y)| x / y).collect();
        ratios.sort_by(f64::total_cmp);
        let n = ratios.len();
        let ratio = ratios[n / 2];
        report(a_name, samples_a, batch_a);
        report(b_name, samples_b, batch_b);
        let (q1, q3) = (ratios[n / 4], ratios[3 * n / 4]);
        println!(
            "pair  {a_name} / {b_name}: median ratio {ratio:.2}x \
             (quartiles {q1:.2}x-{q3:.2}x, {n} pairs)"
        );
        Some(ratio)
    }

    fn selects(&self, name: &str) -> bool {
        self.filter.as_ref().map_or(true, |filter| name.contains(filter.as_str()))
    }

    /// Record a ratio derived from two measured medians (e.g. a baseline
    /// over an optimization) and append it as a `"type":"bench-ratio"`
    /// JSON line when `PBC_BENCH_JSON` is set, so CI can gate on relative
    /// speedups instead of machine-dependent absolute timings.
    pub fn record_ratio(&self, name: &str, ratio: f64) {
        println!("bench {name:<40} ratio {ratio:>11.2}x");
        append_json_line(&pbc_trace::bench_ratio_record_line(name, ratio));
    }

    /// Print a footer; call last so a filter matching nothing is visible.
    pub fn finish(&self) {
        if self.ran == 0 {
            if let Some(filter) = &self.filter {
                println!("bench: no benchmark matched filter {filter:?}");
            }
        }
    }
}

/// Run `f` once, untimed.
fn smoke<T>(name: &str, f: &mut impl FnMut() -> T) {
    black_box(f());
    println!("bench {name:<40} ok (smoke)");
}

/// Warm `f` up and size its batch so one batch is ~1% of the window.
fn warm_up<T>(f: &mut impl FnMut() -> T) -> u64 {
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < WARMUP_WINDOW || warm_iters < 3 {
        black_box(f());
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
    let target = MEASURE_WINDOW.as_nanos() as f64 / 100.0 / per_iter.max(1.0);
    u64_from_f64(target).unwrap_or(1).max(1)
}

/// Time one batch of `f`, in ns per iteration.
fn time_batch<T>(f: &mut impl FnMut() -> T, batch: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / batch as f64
}

/// Print and record one benchmark's samples; returns their median.
fn report(name: &str, mut samples: Vec<f64>, batch: u64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    println!(
        "bench {name:<40} min {:>12} median {:>12} mean {:>12} ({} samples x {batch} iters)",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean),
        samples.len(),
    );
    append_json_record(name, min, median, mean, samples.len(), batch);
    median
}

/// Append one `"type":"bench"` timing record to the `PBC_BENCH_JSON`
/// file, when set.
fn append_json_record(
    name: &str,
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
    samples: usize,
    iters_per_sample: u64,
) {
    let line = pbc_trace::bench_record_line(name, min_ns, median_ns, mean_ns, samples, iters_per_sample);
    append_json_line(&line);
}

/// Append one pre-rendered JSON line to the file named by `PBC_BENCH_JSON`,
/// when set. Failures print a warning instead of killing the bench run.
fn append_json_line(line: &str) {
    let Ok(path) = std::env::var("PBC_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = written {
        println!("bench: could not append to PBC_BENCH_JSON={path}: {e}");
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(1_500.0), "1.500 us");
        assert_eq!(fmt_ns(2_500_000.0), "2.500 ms");
        assert_eq!(fmt_ns(3_200_000_000.0), "3.200 s");
    }

    fn args(list: &[&str]) -> Bench {
        Bench::from_args(list.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn only_bench_selects_timed_runs() {
        // `cargo test --benches` passes nothing; `cargo bench` passes
        // `--bench`, after any filter given past `--`.
        assert!(args(&[]).smoke);
        assert!(args(&["--test"]).smoke);
        assert!(args(&["--nocapture"]).smoke);
        assert!(!args(&["--bench"]).smoke);
        let filtered = args(&["water-fill", "--bench"]);
        assert!(!filtered.smoke);
        assert_eq!(filtered.filter.as_deref(), Some("water-fill"));
    }

    #[test]
    fn smoke_mode_runs_once_and_yields_no_median() {
        let mut b = Bench { filter: None, smoke: true, ran: 0 };
        let mut calls = 0;
        let median = b.run("unit", || calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(b.ran, 1);
        assert_eq!(median, None);
    }

    #[test]
    fn smoke_mode_runs_a_pair_once_each_when_either_name_matches() {
        let mut b = Bench { filter: Some("curve".into()), smoke: true, ran: 0 };
        let (mut calls_a, mut calls_b) = (0, 0);
        let timing = b.run_pair("x/independent", || calls_a += 1, "x/curve", || calls_b += 1);
        assert!(timing.is_none());
        assert_eq!((calls_a, calls_b, b.ran), (1, 1, 2));
        let skipped = b.run_pair("y/a", || calls_a += 1, "y/b", || calls_b += 1);
        assert!(skipped.is_none());
        assert_eq!((calls_a, calls_b, b.ran), (1, 1, 2));
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut b = Bench { filter: Some("xyz".into()), smoke: true, ran: 0 };
        let mut calls = 0;
        let median = b.run("abc", || calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(median, None);
        b.finish();
    }
}
