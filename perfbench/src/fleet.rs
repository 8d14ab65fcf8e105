//! The fleet workloads: closed-loop epochs of an in-process
//! `FleetCoordinator`, each a seeded global-budget change followed by
//! one `step`.
//!
//! * `fleet-calm-512` — 512 nodes (256 ivybridge/stream, 128
//!   haswell/dgemm, 128 titan-xp/sgemm), throughput objective, no
//!   faults, caps landing in an in-memory sink. The budget sweeps
//!   65–75 kW (see [`Schedule`]). The water-fill partition dominates here.
//! * `fleet-faults-64` — 64 nodes of the same classes (32/16/16),
//!   max-min objective with three weighted tenants, the `everything`
//!   fault preset's per-epoch probabilities (no coordinator outage, no
//!   scheduled budget steps). The budget sweeps 8.5–10.5 kW, moving on
//!   the first epoch of every [`FAULT_CYCLE`]; cap writes may fail on
//!   the cycle's other epochs, every other fault is armed for the whole
//!   run. Caps land in memory in untraced runs and in a mock RAPL sysfs
//!   tree in traced ones.
//!
//! Checks after every epoch: the enforced total stays within the global
//! budget, and the budget-violation, quarantine-leak and tenant-floor
//! counters do not move. At the end the cap sink must agree with the
//! coordinator's enforced caps.

use crate::layers::{self, span, Layers};
use crate::reference::{Probe, EPOCH_EXPONENT, NOMINAL_US, SETUP_EXPONENT};
use crate::stats::{mean, median, percentile, ratio, sorted};
use crate::{cpu, mix_seed, procfs, Args, Outcome};
use pbc_cluster::{
    fill_shares, parse_spec, CapSink, EpochReport, Fleet, FleetCoordinator, NodeCurve, NodeHealth,
    Objective, TenantSet, DEFAULT_GRANT,
};
use pbc_core::fastpath::CurveTable;
use pbc_faults::{FaultWindow, FleetFaultPlan};
use pbc_powersim::SolveMemo;
use pbc_rapl::{RaplDomain, RaplSysfs};
use pbc_trace::names;
use pbc_types::rng::XorShift64Star;
use pbc_types::{PbcError, Watts, CAP_QUANTUM};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The fleet shape.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Calm512,
    Faults64,
}

/// Fleet set-ups per untraced run, made before the epochs and again
/// after them; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 15;
/// Epochs every run makes at least, and the epochs `decision_perf` and
/// the tenant Jain minimum average over, so both repeat exactly for a
/// seed however fast the host is.
const QUALITY_EPOCHS: [usize; 2] = [100, 300];
/// Traced runs replay this many epochs untraced, then traced.
const TRACED_EPOCHS: [usize; 2] = [30, 400];

impl Shape {
    fn index(self) -> usize {
        usize::from(self.faulty())
    }

    fn faulty(self) -> bool {
        self == Shape::Faults64
    }

    fn spec(self) -> &'static str {
        if self.faulty() {
            "32 ivybridge stream\n16 haswell dgemm\n16 titan-xp sgemm\n"
        } else {
            "256 ivybridge stream\n128 haswell dgemm\n128 titan-xp sgemm\n"
        }
    }

    /// The global budget band (W) the seeded sweep stays in.
    fn band(self) -> (f64, f64) {
        if self.faulty() {
            (8_500.0, 10_500.0)
        } else {
            (65_000.0, 75_000.0)
        }
    }

    /// Epochs per budget level: the budget moves on a cycle's first
    /// epoch only.
    fn cycle(self) -> usize {
        if self.faulty() {
            FAULT_CYCLE
        } else {
            1
        }
    }

    /// The fault plan for the cycle starting at `tick`: none for the
    /// calm fleet; for the faulty one the `everything` preset's
    /// probabilities, no coordinator outage and no scheduled budget
    /// steps (the sweep moves the budget instead). Every window but the
    /// cap-write ones is open for the whole run; those open the epoch
    /// after the budget move, and a write outage that starts in the
    /// cycle ends inside it.
    fn plan(self, seed: u64, tick: usize) -> FleetFaultPlan {
        let seed = mix_seed(seed, 3);
        match self {
            Shape::Calm512 => FleetFaultPlan::calm(seed),
            Shape::Faults64 => {
                let always = FaultWindow::new(0, usize::MAX);
                let mut p = FleetFaultPlan::everything(seed);
                let end = tick + FAULT_CYCLE;
                p.nodes.crash_window = always;
                p.nodes.straggler_window = always;
                p.reports.window = always;
                p.writes.window = FaultWindow::new(tick + 1, end);
                p.writes.outage_window =
                    FaultWindow::new(tick + 1, end - p.writes.outage_epochs.max(1));
                p.tenants.spike_window = always;
                p.tenants.noisy_window = always;
                p.coordinator_outage = FaultWindow::NEVER;
                p.budget_steps.clear();
                p
            }
        }
    }
}

/// Epochs per budget level on the faulty fleet. `pbc_faults::fleet`
/// states the condition under which `cluster.budget_violations` stays 0
/// at every seed: the budget moves only while no cap write can fail (its
/// shipped presets are tested for it). A cut that lands while a node's
/// lowering cannot be written is promised only that caps never inflate,
/// so the faulty fleet keeps to the same discipline, once per cycle.
const FAULT_CYCLE: usize = 12;

/// What the bench-owned cap sink saw.
#[derive(Default)]
struct SinkLog {
    /// Write latency (ns) of every cap write.
    write_ns: Vec<f64>,
    /// Node of every cap write since the log was last drained.
    written: Vec<usize>,
    /// The last cap written to each node, for the in-memory sink.
    caps: Vec<f64>,
}

/// The bench's `CapSink`: every write lands in memory or, in traced
/// runs of the faulty fleet, in a mock RAPL sysfs tree, and is timed and
/// logged.
struct BenchSink {
    domains: Option<Vec<RaplDomain>>,
    log: Arc<Mutex<SinkLog>>,
    traced: bool,
}

impl CapSink for BenchSink {
    fn write_cap(&mut self, node: usize, cap: Watts) -> pbc_types::Result<()> {
        let _span = self.traced.then(|| pbc_trace::span(span::RAPL_WRITE));
        let t = Instant::now();
        if let Some(d) = &self.domains {
            d.get(node)
                .ok_or_else(|| PbcError::InvalidInput(format!("no mock domain for node {node}")))?
                .set_power_limit(cap)?;
        }
        let ns = t.elapsed().as_nanos() as f64;
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        if self.domains.is_none() {
            log.caps[node] = cap.value();
        }
        if self.traced {
            log.write_ns.push(ns);
            log.written.push(node);
        }
        Ok(())
    }
}

/// The node index of a mock package domain (`intel-rapl:7` → 7).
fn package_index(d: &RaplDomain) -> usize {
    d.path
        .file_name()
        .and_then(|f| f.to_str())
        .and_then(|s| s.rsplit(':').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
}

fn mock_domains(root: &Path, nodes: usize) -> Result<Vec<RaplDomain>, String> {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    pbc_rapl::mock::sysfs_tree(root, nodes, 0).map_err(|e| e.to_string())?;
    let mut d: Vec<RaplDomain> = RaplSysfs::discover_at(root)
        .map_err(|e| e.to_string())?
        .packages()
        .cloned()
        .collect();
    d.sort_by_key(package_index);
    if d.len() != nodes {
        return Err(format!(
            "mock tree has {} packages for {nodes} nodes",
            d.len()
        ));
    }
    Ok(d)
}

/// A mock RAPL tree's directory, removed when the rig that writes to it
/// is dropped.
struct MockTree(PathBuf);

impl Drop for MockTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A coordinator ready to run, with its sink's log and tree.
struct Rig {
    coord: FleetCoordinator,
    log: Arc<Mutex<SinkLog>>,
    tree: Option<MockTree>,
    tenants: Option<TenantSet>,
}

impl Rig {
    /// Arm `plan` in place of the coordinator's fault plan
    /// (`with_plan` takes the coordinator by value).
    fn rearm(self, plan: FleetFaultPlan) -> Result<Rig, String> {
        let coord = self.coord.with_plan(plan).map_err(|e| e.to_string())?;
        Ok(Rig { coord, ..self })
    }
}

fn tenants(shape: Shape) -> Result<Option<TenantSet>, String> {
    if !shape.faulty() {
        return Ok(None);
    }
    TenantSet::parse("web:3:gold,etl:2:silver,batch:1")
        .map(Some)
        .map_err(|e| e.to_string())
}

/// Build the fleet, the coordinator and its sink, and provision; the
/// timed set-up. `tree` is where a mock RAPL tree goes, when the shape
/// writes to one.
fn build(
    shape: Shape,
    seed: u64,
    fleet: Option<&Fleet>,
    tree: Option<PathBuf>,
    traced: bool,
) -> Result<Rig, String> {
    let fleet = match fleet {
        Some(f) => f.clone(),
        None => Fleet::build(&parse_spec(shape.spec()).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?,
    };
    let n = fleet.len();
    let tree = tree.map(MockTree);
    let domains = tree
        .as_ref()
        .map(|t| mock_domains(&t.0, n))
        .transpose()?;
    let log = Arc::new(Mutex::new(SinkLog {
        caps: vec![f64::NAN; n],
        ..SinkLog::default()
    }));
    let sink = BenchSink {
        domains,
        log: Arc::clone(&log),
        traced,
    };
    let objective = if shape.faulty() {
        Objective::MaxMin
    } else {
        Objective::Throughput
    };
    let mut coord = FleetCoordinator::new(fleet, Watts::new(Schedule::initial(shape)))
        .and_then(|c| c.with_plan(shape.plan(seed, 0)))
        .map_err(|e| e.to_string())?
        .with_objective(objective)
        .with_cap_sink(Box::new(sink));
    let tenants = tenants(shape)?;
    if let Some(t) = &tenants {
        coord = coord.with_tenants(t.clone());
    }
    coord.provision().map_err(|e| e.to_string())?;
    Ok(Rig {
        coord,
        log,
        tree,
        tenants,
    })
}

/// Budget levels per sweep of the band. The gated percentiles fall
/// inside a level (p50 mid-level 13, p75 three quarters into level 19),
/// not on the cliff between two levels' costs.
const LEVELS: usize = 25;

/// The seeded epoch schedule. Every block of [`LEVELS`] budget moves
/// visits each level of an even grid over the band once, in a freshly
/// shuffled order; the budget moves on the first epoch of every cycle
/// ([`Shape::cycle`]), where the faulty fleet's cap-write faults are
/// re-armed for the cycle. A free random walk's mean drifted with the
/// seed, and the partition's cost grows with the budget, so the epoch
/// times of a random walk differed by ~10% between seeds.
struct Schedule {
    shape: Shape,
    seed: u64,
    rng: XorShift64Star,
    levels: Vec<f64>,
    order: Vec<usize>,
    next: usize,
    /// Epochs scheduled so far; the coordinator's tick of the next one.
    tick: usize,
    budget: f64,
}

impl Schedule {
    fn new(shape: Shape, seed: u64) -> Schedule {
        let (lo, hi) = shape.band();
        let rng = XorShift64Star::new(mix_seed(seed, 2));
        // Whole watts, as an operator would set them.
        let levels = (0..LEVELS)
            .map(|i| (lo + (hi - lo) * (i as f64 + 0.5) / LEVELS as f64).round())
            .collect();
        Schedule {
            shape,
            seed,
            rng,
            levels,
            order: (0..LEVELS).collect(),
            next: LEVELS,
            tick: 0,
            budget: Schedule::initial(shape),
        }
    }

    /// The budget the coordinator is built with: the middle of the band.
    fn initial(shape: Shape) -> f64 {
        let (lo, hi) = shape.band();
        0.5 * (lo + hi)
    }

    /// True when the next epoch starts a fresh sweep of the grid.
    fn at_sweep_start(&self) -> bool {
        self.tick % self.shape.cycle() == 0 && self.next == self.levels.len()
    }

    /// The next epoch's budget, after re-arming `rig`'s faults when the
    /// epoch starts a cycle of the faulty fleet.
    fn next(&mut self, rig: Rig) -> Result<(Rig, f64), String> {
        let tick = self.tick;
        self.tick += 1;
        if tick % self.shape.cycle() != 0 {
            return Ok((rig, self.budget));
        }
        let rig = if self.shape.faulty() {
            rig.rearm(self.shape.plan(self.seed, tick))?
        } else {
            rig
        };
        self.budget = self.level();
        Ok((rig, self.budget))
    }

    fn level(&mut self) -> f64 {
        let levels = self.levels.len();
        if self.next == levels {
            for i in (1..levels).rev() {
                self.order.swap(i, self.rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.levels[self.order[self.next - 1]]
    }
}

/// The invariant counters whose every increment is a broken safety law.
const LAWS: [&str; 3] = [
    names::CLUSTER_BUDGET_VIOLATIONS,
    names::HEALTH_QUARANTINE_LEAKS,
    names::CLUSTER_TENANT_FLOOR_VIOLATIONS,
];

fn law_counts() -> [u64; 3] {
    LAWS.map(|n| pbc_trace::counter(n).get())
}

/// One epoch: re-negotiate the budget, then step; check the laws.
fn epoch(rig: &mut Rig, budget: f64, out: &mut Outcome) -> Option<EpochReport> {
    let laws = law_counts();
    if let Err(e) = rig.coord.set_global_budget(Watts::new(budget)) {
        out.fail(|| format!("set_global_budget({budget}): {e}"));
    }
    let report = match rig.coord.step() {
        Ok(r) => r,
        Err(e) => {
            out.fail(|| format!("step: {e}"));
            return None;
        }
    };
    check_epoch(rig, &report, laws, out);
    Some(report)
}

fn check_epoch(rig: &Rig, report: &EpochReport, laws: [u64; 3], out: &mut Outcome) {
    let mut broken = Vec::new();
    let global = rig.coord.global_budget().value();
    let total = rig.coord.enforced_total().value();
    if total > global + CAP_QUANTUM {
        broken.push(format!("enforced {total} W over the {global} W budget"));
    }
    let now = law_counts();
    for i in 0..LAWS.len() {
        if now[i] != laws[i] {
            broken.push(format!("{} moved by {}", LAWS[i], now[i] - laws[i]));
        }
    }
    if report.tenant_floor_violations != 0 {
        broken.push(format!(
            "{} tenant floor violations",
            report.tenant_floor_violations
        ));
    }
    if !broken.is_empty() {
        out.fail(|| format!("tick {}: {}", report.tick, broken.join("; ")));
    }
}

/// The sink must hold what the coordinator believes it enforced,
/// wherever it believes a write stuck (a down or released node keeps its
/// last written value).
fn check_sink(rig: &Rig, out: &mut Outcome) {
    let enforced = rig.coord.enforced_caps();
    let held: Vec<f64> = match &rig.tree {
        None => rig
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .caps
            .clone(),
        Some(MockTree(root)) => {
            let mut held = vec![f64::NAN; enforced.len()];
            match RaplSysfs::discover_at(root) {
                Ok(tree) => {
                    for d in tree.packages() {
                        match (held.get_mut(package_index(d)), d.power_limit()) {
                            (Some(slot), Ok(w)) => *slot = w.value(),
                            (None, _) => out.fail(|| {
                                format!("mock package {} beyond the fleet", d.path.display())
                            }),
                            (_, Err(e)) => {
                                out.fail(|| format!("reading {}: {e}", d.path.display()))
                            }
                        }
                    }
                }
                Err(e) => out.fail(|| format!("re-reading the mock tree: {e}")),
            }
            held
        }
    };
    let down = rig.coord.down_mask();
    for (i, cap) in enforced.iter().enumerate() {
        if down[i] || cap.value() <= CAP_QUANTUM {
            continue;
        }
        // False too when the sink never saw a write for the node (NaN).
        let agrees = (held[i] - cap.value()).abs() <= CAP_QUANTUM;
        if !agrees {
            out.fail(|| {
                format!(
                    "node {i}: sink holds {} W, coordinator enforced {cap}",
                    held[i]
                )
            });
        }
    }
}

fn tree_dir(args: &Args, tag: &str) -> PathBuf {
    args.work_dir
        .join(format!("rapl-{}-{tag}", std::process::id()))
}

/// Build the fleet `reps` times from cold, timing each set-up into
/// `setups` at nominal host speed (raw times into `raw`); returns the
/// last rig.
fn set_up(
    shape: Shape,
    args: &Args,
    reps: usize,
    setups: &mut Vec<f64>,
    raw: &mut Vec<f64>,
) -> Result<Rig, String> {
    let mut rig = None;
    let mut probe = Probe::default();
    let first = raw.len();
    // Set-up fans out on the pool; keep idle CPUs from halting while it
    // is timed (see `crate::cpu`). Both batches run outside the epochs'
    // CPU window, so the spinners' CPU time never reaches `cpu_us_per_op`.
    let _spinners = cpu::Spinners::start(&cpu::all());
    for rep in 0..reps {
        // Each set-up starts cold, as a fresh process would.
        CurveTable::clear_shared();
        SolveMemo::clear_shared();
        // Traced runs of the faulty fleet write caps to a mock RAPL tree;
        // untraced runs keep them in memory: on an ext4-backed tree each
        // truncating write cost ~0.1 ms with millisecond tails, and epoch
        // times spread 20–65% between runs.
        let tree = (args.trace && shape.faulty()).then(|| tree_dir(args, &format!("plain{rep}")));
        probe.sample();
        let t = Instant::now();
        let built = build(shape, args.seed, None, tree, false)?;
        raw.push(t.elapsed().as_secs_f64());
        rig = Some(built);
    }
    probe.sample();
    setups.extend(
        raw[first..]
            .iter()
            .enumerate()
            .map(|(i, s)| s * probe.scale_at(i, SETUP_EXPONENT)),
    );
    rig.ok_or_else(|| "no fleet was built".to_string())
}

#[must_use = "the run's outcome or the reason it could not run"]
pub fn run(shape: Shape, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut rig = set_up(shape, args, reps, &mut setups, &mut raw_setups)?;
    if args.trace {
        return traced(shape, args, rig, out);
    }
    let n = rig.coord.fleet().len() as f64;
    let quality = QUALITY_EPOCHS[shape.index()];
    let mut sched = Schedule::new(shape, args.seed);
    let mut raw_us = Vec::new();
    let mut probe = Probe::default();
    let mut perf = Vec::new();
    let mut jain_min = f64::INFINITY;
    let cpu0 = procfs::cpu_seconds("self")?;
    let start = Instant::now();
    // Whole sweeps of the budget grid only, so every run sees each
    // level equally often whatever its epoch count.
    while start.elapsed().as_secs_f64() < args.seconds
        || raw_us.len() < quality
        || !sched.at_sweep_start()
    {
        let budget;
        (rig, budget) = sched.next(rig)?;
        probe.sample();
        let t = Instant::now();
        let report = epoch(&mut rig, budget, &mut out);
        raw_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        out.attempted += 1;
        if let (Some(r), true) = (report, raw_us.len() <= quality) {
            perf.push(r.aggregate_perf);
            jain_min = jain_min.min(r.tenant_jain);
        }
    }
    probe.sample();
    // The reference samples ran on this thread inside the CPU window.
    let cpu = procfs::cpu_seconds("self")? - cpu0 - probe.spent_s();
    let epoch_us: Vec<f64> = raw_us
        .iter()
        .enumerate()
        .map(|(i, us)| us * probe.scale_at(i, EPOCH_EXPONENT))
        .collect();
    // The CPU time accrued over the epochs, so it takes their
    // time-weighted scale.
    let scale = epoch_us.iter().sum::<f64>() / raw_us.iter().sum::<f64>();
    check_sink(&rig, &mut out);
    let raw = sorted(raw_us);
    let lat = sorted(epoch_us);
    let pct = |q| percentile(&lat, q).unwrap_or(f64::NAN);
    let raw_pct = |q| percentile(&raw, q).unwrap_or(f64::NAN);
    let fleet_perf = mean(&perf).unwrap_or(f64::NAN);
    let rss = procfs::peak_rss_mb("self")?;
    drop(rig);
    // A second batch of set-ups, after the epochs: set-up time on
    // this host moved ~2x between runs while holding steady within one
    // batch, so the median draws on two moments of the host.
    let before = setups.len();
    set_up(shape, args, SETUP_REPS, &mut setups, &mut raw_setups)?;
    out.line(format!(
        "setup medians before/after the epochs: {:.3}/{:.3} ms",
        median(&setups[..before]).unwrap_or(f64::NAN) * 1e3,
        median(&setups[before..]).unwrap_or(f64::NAN) * 1e3
    ));
    out.line(format!(
        "{} nodes; epochs={} raw epoch us p10={:.1} p25={:.1} p50={:.1} p75={:.1} p90={:.1}",
        n,
        lat.len(),
        raw_pct(0.1),
        raw_pct(0.25),
        raw_pct(0.5),
        raw_pct(0.75),
        raw_pct(0.9)
    ));
    out.line(format!(
        "reference median {:.2} us (nominal {NOMINAL_US}), run scale {scale:.4}; scaled epoch us p50={:.1} p75={:.1} p90={:.1}",
        probe.median_us(),
        pct(0.5),
        pct(0.75),
        pct(0.9)
    ));
    out.line(format!(
        "epoch_p50_ms={:.3} epoch_p90_ms={:.3} (nominal host) fleet_perf={fleet_perf:.6} (mean aggregate over the first {quality} epochs) tenant_jain_min={jain_min:.6}",
        pct(0.5) / 1e3,
        pct(0.9) / 1e3
    ));
    out.line(format!("setup_s samples (nominal host): {setups:?}"));
    out.line(format!("setup_s raw samples: {raw_setups:?}"));
    out.metric("latency_p50_us", pct(0.5), "us");
    out.metric("latency_tail_us", pct(0.75), "us");
    out.metric("cpu_us_per_op", cpu * 1e6 / lat.len() as f64 * scale, "us");
    out.metric("decision_perf", fleet_perf / n, "rel");
    out.metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    out.metric("peak_rss_mb", rss, "MB");
    Ok(out)
}

/// Counter deltas around the calls inside `step`.
#[derive(Default)]
struct Deltas {
    memo_hits: u64,
    memo_misses: u64,
    steals: u64,
    jobs: u64,
    infeasible: u64,
}

const DELTA_COUNTERS: [&str; 5] = [
    names::SOLVE_CACHE_HITS,
    names::SOLVE_CACHE_MISSES,
    names::POOL_STEALS,
    names::POOL_JOBS,
    names::CLUSTER_INFEASIBLE_NODES,
];

fn counts() -> [u64; 5] {
    DELTA_COUNTERS.map(|n| pbc_trace::counter(n).get())
}

/// Replay the same seeded epochs twice from identical coordinators:
/// untraced (timing `step` alone), then with spans around every layer
/// call. Replica calls of the layers `step` runs internally are made
/// right after it on the same inputs and parented to its span, so
/// `step` minus its children is the unmeasured residual.
fn traced(shape: Shape, args: &Args, mut rig: Rig, mut out: Outcome) -> Result<Outcome, String> {
    let k = TRACED_EPOCHS[shape.index()];
    let fleet = rig.coord.fleet().clone();
    let mut plain_us = Vec::with_capacity(k);
    let mut sched = Schedule::new(shape, args.seed);
    SolveMemo::clear_shared();
    for _ in 0..k {
        let b;
        (rig, b) = sched.next(rig)?;
        let _ = rig.coord.set_global_budget(Watts::new(b));
        let t = Instant::now();
        let r = rig.coord.step();
        plain_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if let Err(e) = r {
            out.fail(|| format!("step: {e}"));
        }
    }
    let tree = shape.faulty().then(|| tree_dir(args, "traced"));
    drop(rig);
    let rig2 = build(shape, args.seed, Some(&fleet), tree, true)?;
    traced_epochs(shape, args, rig2, k, &plain_us, out)
}

fn traced_epochs(
    shape: Shape,
    args: &Args,
    mut rig: Rig,
    k: usize,
    plain_us: &[f64],
    mut out: Outcome,
) -> Result<Outcome, String> {
    let n = rig.coord.fleet().len();
    let mut sched = Schedule::new(shape, args.seed);
    let mut d = Deltas::default();
    let (mut live, mut changed, mut degraded, mut rejected, mut missed) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let (mut retries, mut failures) = (0usize, 0usize);
    let (mut coord_calls, mut solve_calls, mut split_calls) = (0usize, 0usize, 0usize);
    let mut perf = Vec::new();
    let mut jain_min = f64::INFINITY;
    let ones = vec![1.0; rig.tenants.as_ref().map_or(0, TenantSet::len)];
    SolveMemo::clear_shared();
    rig.log
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .written
        .clear();
    pbc_trace::enable();
    for _ in 0..k {
        let budget;
        (rig, budget) = sched.next(rig)?;
        let _epoch = pbc_trace::span(span::FLEET_EPOCH);
        let laws = law_counts();
        {
            let _s = pbc_trace::span(span::FLEET_SET_BUDGET);
            if let Err(e) = rig.coord.set_global_budget(Watts::new(budget)) {
                out.fail(|| format!("set_global_budget({budget}): {e}"));
            }
        }
        let before = counts();
        let step = pbc_trace::span(span::COORDINATOR_STEP);
        let parent = step.id();
        let report = rig.coord.step();
        drop(step);
        let after = counts();
        out.attempted += 1;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.fail(|| format!("step: {e}"));
                continue;
            }
        };
        check_epoch(&rig, &report, laws, &mut out);
        d.memo_hits += after[0] - before[0];
        d.memo_misses += after[1] - before[1];
        d.steals += after[2] - before[2];
        d.jobs += after[3] - before[3];
        d.infeasible += after[4] - before[4];
        live += report.nodes_up;
        degraded += usize::from(report.degraded);
        rejected += report.rejected_reports;
        missed += report.missed_reports;
        retries += report.write_retries;
        failures += report.write_failures;
        perf.push(report.aggregate_perf);
        jain_min = jain_min.min(report.tenant_jain);
        {
            let mut log = rig.log.lock().unwrap_or_else(PoisonError::into_inner);
            let mut nodes = std::mem::take(&mut log.written);
            nodes.sort_unstable();
            nodes.dedup();
            changed += nodes.len();
        }

        let coord = &rig.coord;
        let down = coord.down_mask();
        let fleet = coord.fleet();
        if !report.degraded {
            // The partition `step` computed: live Healthy and Suspect
            // nodes share what is left after the quarantined floors.
            let mut reserved = Watts::ZERO;
            let mut curves = Vec::new();
            for i in (0..n).filter(|&i| !down[i]) {
                let class = fleet.class_of(i);
                match coord.health().state(i) {
                    NodeHealth::Healthy | NodeHealth::Suspect => curves.push(NodeCurve {
                        floor: class.floor,
                        curve: &class.curve,
                    }),
                    NodeHealth::Quarantined | NodeHealth::Rejoining => reserved += class.floor,
                }
            }
            let _s = pbc_trace::span_under(span::PARTITION_FILL, parent);
            let shares = fill_shares(
                &curves,
                &[],
                coord.global_budget() - reserved,
                DEFAULT_GRANT,
                coord.objective(),
            );
            std::hint::black_box(shares.map_err(|e| e.to_string())?);
        }
        let caps: Vec<(usize, Watts)> = (0..n)
            .filter(|&i| !down[i])
            .map(|i| (i, coord.enforced_caps()[i]))
            .collect();
        let mut allocs = Vec::with_capacity(caps.len());
        {
            let _s = pbc_trace::span_under(span::FLEET_COORD, parent);
            for &(i, cap) in &caps {
                if let Ok(r) = fleet.class_of(i).coordinate(cap) {
                    allocs.push((i, r.alloc));
                }
            }
            coord_calls += caps.len();
        }
        {
            let memos: Vec<Arc<SolveMemo>> = fleet
                .classes
                .iter()
                .map(|c| SolveMemo::for_problem(&c.platform, &c.demand))
                .collect();
            let _s = pbc_trace::span_under(span::POWERSIM_SOLVE, parent);
            for &(i, alloc) in &allocs {
                std::hint::black_box(memos[fleet.nodes[i]].solve(alloc).ok());
            }
            solve_calls += allocs.len();
        }
        if let Some(t) = &rig.tenants {
            let _s = pbc_trace::span_under(span::TENANT_SPLIT, parent);
            for &(i, cap) in caps.iter().filter(|c| c.1.value() > CAP_QUANTUM) {
                std::hint::black_box(t.split_node(cap, fleet.class_of(i).floor, &ones));
                split_calls += 1;
            }
        }
    }
    pbc_trace::disable();
    check_sink(&rig, &mut out);
    let snap = pbc_trace::snapshot();
    let l = Layers::collect(&snap.spans);
    layers::dump(
        &args
            .work_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
    )?;
    for line in l.table() {
        out.line(line);
    }
    let writes = sorted(
        rig.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .write_ns
            .clone(),
    );
    let epochs = k as f64;
    let step_ms = l.mean_ns(span::COORDINATOR_STEP) / 1e6;
    let plain_p50 = percentile(&sorted(plain_us.to_vec()), 0.5).unwrap_or(f64::NAN);
    let traced_p50 = percentile(&sorted(l.durations(span::COORDINATOR_STEP).to_vec()), 0.5)
        .unwrap_or(f64::NAN)
        / 1e3;
    let attempts = writes.len() + failures + retries;
    let coverage = ratio(
        l.children_ns(span::COORDINATOR_STEP),
        l.total_ns(span::COORDINATOR_STEP),
    );
    out.line(format!(
        "{k} epochs; children cover {:.1}% of coordinator.step; fleet_perf={:.6} tenant_jain_min={jain_min:.6}",
        100.0 * coverage,
        mean(&perf).unwrap_or(f64::NAN)
    ));
    let measured = [
        (
            "fleet.set_budget_ms",
            l.mean_ns(span::FLEET_SET_BUDGET) / 1e6,
        ),
        ("coordinator.step_ms", step_ms),
        (
            "partition.fill_ms",
            l.total_ns(span::PARTITION_FILL) / 1e6 / epochs,
        ),
        (
            "fleet.coord_us",
            ratio(l.total_ns(span::FLEET_COORD) / 1e3, coord_calls as f64),
        ),
        (
            "powersim.solve_us",
            ratio(l.total_ns(span::POWERSIM_SOLVE) / 1e3, solve_calls as f64),
        ),
        (
            "powersim.memo_hit_ratio",
            ratio(d.memo_hits as f64, (d.memo_hits + d.memo_misses) as f64),
        ),
        (
            "fleet.changed_share_ratio",
            ratio(changed as f64, epochs * n as f64),
        ),
        (
            "fleet.infeasible_ratio",
            ratio(d.infeasible as f64, live as f64),
        ),
        (
            "rapl.write_us.p50",
            percentile(&writes, 0.5).unwrap_or(0.0) / 1e3,
        ),
        (
            "rapl.write_us.p99",
            percentile(&writes, 0.99).unwrap_or(0.0) / 1e3,
        ),
        ("rapl.writes_per_epoch", writes.len() as f64 / epochs),
        (
            "enforce.retry_ratio",
            ratio(retries as f64, attempts as f64),
        ),
        (
            "health.rejected_report_ratio",
            ratio(rejected as f64, live as f64),
        ),
        (
            "health.missed_report_ratio",
            ratio(missed as f64, epochs * n as f64),
        ),
        (
            "tenant.split_us",
            ratio(l.total_ns(span::TENANT_SPLIT) / 1e3, split_calls as f64),
        ),
        ("tenant.jain_min", jain_min),
        ("cluster.degraded_epoch_ratio", degraded as f64 / epochs),
        ("pool.steals_per_job", ratio(d.steals as f64, d.jobs as f64)),
        (
            "coordinator.residual_ms",
            (l.total_ns(span::COORDINATOR_STEP) - l.children_ns(span::COORDINATOR_STEP))
                / 1e6
                / epochs,
        ),
        ("fleet.perf_mean", mean(&perf).unwrap_or(f64::NAN)),
        ("trace.children_coverage", coverage),
        (
            "trace.overhead_pct",
            100.0 * (traced_p50 - plain_p50) / plain_p50,
        ),
    ];
    crate::per_layer_metrics(&mut out, &measured);
    Ok(out)
}
