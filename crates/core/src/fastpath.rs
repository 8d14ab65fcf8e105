//! The steady-state fast path: serving allocations in well under a
//! microsecond once a `(hardware, workload-class)` pair has been
//! profiled.
//!
//! The paper's COORD reacts to budget changes (§5, and its stated
//! future work on online dynamic budgeting), but a full oracle re-solve
//! costs microseconds per budget — three orders of magnitude more than
//! a memo hit. This module closes that gap with two layers, each
//! bit-faithful to the oracle it replaces:
//!
//! 1. **[`CurveTable`]** — a precomputed `perf_max ~ P_b` interpolation
//!    table per `(platform, demand)`, built once via the shared-grid
//!    oracle and served *lock-free*: holders keep an immutable
//!    `Arc<CurveTable>` and never touch a mutex on the read path. The
//!    table also stores the oracle's best *allocation* per rung, so
//!    `OnlineCoordinator::set_budget` and the cluster water-filler can
//!    both answer "what do I apply at budget `b`?" without a solver in
//!    the loop. Served allocations are counted under
//!    `fastpath.table_hits`, builds under `fastpath.table_rebuilds`.
//! 2. **[`WarmOracle`]** — an incremental re-solver. When the budget
//!    moves by a delta, the grid search is seeded from the previous
//!    optimum and walks *outward* instead of rescanning the full space;
//!    §3.4's structure (performance rises through scenarios IV/II to the
//!    balance point, then falls through III/V) makes the outward walk
//!    terminate early, and a stall bound keeps it exact in the presence
//!    of quantization plateaus. The result is bit-identical to a cold
//!    [`sweep_budget`](crate::sweep_budget) best point — asserted
//!    field-exact by `crates/core/tests/fastpath_equivalence.rs`, the
//!    same contract style as `sweep_curve_equivalence.rs`. Warm solves
//!    are counted under `solve.warm_hits`.
//!
//! Measured on a CI-class container (see `docs/PERFORMANCE.md`), the
//! table path serves an allocation in tens of nanoseconds against a
//! ~1.7 µs cold solve — the `scripts/check.sh` gate holds the ratio at
//! ≥ 10×.

use crate::critical::CriticalPowers;
use crate::problem::PowerBoundedProblem;
use crate::profile::SweepPoint;
use crate::sweep::{sweep_curve_on, DEFAULT_STEP};
use pbc_platform::{NodeSpec, Platform};
use pbc_powersim::{BoundedRegistry, SolveMemo, WorkloadDemand};
use pbc_trace::names;
use pbc_types::{AllocationSpace, PbcError, PowerAllocation, Result, Watts};
use std::sync::{Arc, OnceLock};

/// Budget spacing of the interpolation-table samples. Coarser than the
/// 4 W sweep grid — the table ranks marginal gains and serves per-rung
/// optima, it does not have to resolve every sweep step.
pub const TABLE_STEP: Watts = Watts::new(8.0);

/// Most shared curve tables the process keeps (same bound and LRU
/// policy as the solve-memo registry).
pub const MAX_SHARED_TABLES: usize = 64;

/// Feasible evaluations the warm search tolerates strictly below its
/// running best before a direction is abandoned. §3.4's perf-vs-split
/// shape is unimodal with quantization plateaus; 16 grid points (64 W at
/// the default 4 W step) is far wider than any plateau the hardware
/// models produce, and the equivalence tests hold the search to the
/// cold sweep bit for bit.
const WARM_STALL_LIMIT: usize = 16;

/// The smallest node budget this class can run on: the platform's
/// hardware floor, raised to the workload's COORD minimum (regime D's
/// `P_cpu,L4 + P_mem,L3` boundary on hosts, the minimum settable card
/// cap on GPUs). A share at or above this floor is guaranteed to
/// coordinate and solve.
#[must_use]
pub fn node_floor(platform: &Platform, demand: &WorkloadDemand) -> Watts {
    let floor = platform.min_node_power();
    match &platform.spec {
        NodeSpec::Cpu { cpu, dram } => {
            let c = CriticalPowers::probe(cpu, dram, demand);
            floor.max(c.cpu_l4 + c.mem_l3)
        }
        NodeSpec::Gpu(g) => floor.max(g.min_card_cap),
    }
}

/// The budget past which this class stops gaining: full component demand
/// on hosts, the maximum settable card cap on GPUs. Watts granted past
/// the ceiling are stranded (§2.1 RQ4's "acceptable band" upper edge).
#[must_use]
pub fn node_ceiling(platform: &Platform, demand: &WorkloadDemand) -> Watts {
    match &platform.spec {
        NodeSpec::Cpu { cpu, dram } => {
            let c = CriticalPowers::probe(cpu, dram, demand);
            c.max_demand()
        }
        NodeSpec::Gpu(g) => g.max_card_cap,
    }
}

/// A precomputed, immutable `perf_max ~ P_b` table for one
/// `(platform, workload-class)` pair: oracle performance *and* the
/// oracle's best allocation, sampled on a regular budget ladder from
/// the class floor to its saturation ceiling, linearly interpolated
/// between rungs.
///
/// The samples come from one shared-grid oracle pass
/// ([`sweep_curve`](crate::sweep_curve)'s, on the calling thread) through
/// the class's [`SolveMemo`], so each rung is bit-identical to a
/// [`sweep_budget`](crate::sweep_budget) of its budget — which is what
/// makes table-served decisions replayable. §3.1 shows `perf_max ~ P_b`
/// is monotone non-decreasing and concave-ish, so linear interpolation
/// preserves exactly the marginal-gain structure water-filling needs,
/// and the interpolation error at any off-grid budget is bounded by the
/// adjacent rungs' gap (asserted by the fast-path equivalence tests).
#[derive(Debug, Clone, PartialEq)]
pub struct CurveTable {
    /// Budget of the first sample (the class floor).
    pub floor: Watts,
    /// Spacing between samples.
    pub step: Watts,
    /// `perf[k]` = oracle `perf_max` at `floor + k * step`.
    pub perf: Vec<f64>,
    /// `allocs[k]` = the oracle's best allocation at rung `k` (`None`
    /// when that rung's budget is not schedulable at all).
    pub allocs: Vec<Option<PowerAllocation>>,
}

/// Process-wide table registry, fingerprinted like the solve-memo
/// registry. Builds run *outside* the registry lock (each is a full
/// oracle pass); readers clone an `Arc` once and then serve lock-free.
fn tables() -> &'static BoundedRegistry<CurveTable> {
    static TABLES: OnceLock<BoundedRegistry<CurveTable>> = OnceLock::new();
    TABLES.get_or_init(|| BoundedRegistry::new(MAX_SHARED_TABLES, None))
}

impl CurveTable {
    /// Profile a class: one shared-grid oracle pass over the table's
    /// budget ladder, on the calling thread. A class's few hundred
    /// distinct solves take a few hundred microseconds, too little to
    /// repay a pool job, and a serial pass makes every counter it moves
    /// repeatable.
    #[must_use = "the table result carries either the samples or the solver failure"]
    pub fn profile(platform: &Platform, demand: &WorkloadDemand) -> Result<CurveTable> {
        pbc_trace::counter(names::FASTPATH_TABLE_REBUILDS).incr();
        let floor = node_floor(platform, demand);
        let ceiling = node_ceiling(platform, demand).max(floor + TABLE_STEP);
        let mut ladder = Vec::new();
        let mut b = floor;
        while b < ceiling {
            ladder.push(b);
            b = b + TABLE_STEP;
        }
        ladder.push(ceiling);
        let problem = PowerBoundedProblem::new(platform.clone(), demand.clone(), ladder[0])?;
        let profiles = sweep_curve_on(&problem, &ladder, DEFAULT_STEP, None)?;
        // An empty profile means the budget is not schedulable (GPU
        // budgets below the settable cap range); `perf_max()` reports it
        // as 0.0, which is exactly the marginal signal water-filling
        // wants, and the rung carries no servable allocation.
        let perf: Vec<f64> = profiles.iter().map(|p| p.perf_max()).collect();
        let allocs: Vec<Option<PowerAllocation>> =
            profiles.iter().map(|p| p.best().map(|pt| pt.alloc)).collect();
        if perf.iter().any(|v| !v.is_finite()) {
            return Err(PbcError::InvalidInput(format!(
                "non-finite perf sample while profiling {}",
                platform.id
            )));
        }
        Ok(CurveTable { floor, step: TABLE_STEP, perf, allocs })
    }

    /// The shared table for a class, built on first use and then served
    /// from the process-wide registry. The returned `Arc` is immutable
    /// and lock-free to read; hold it for the steady state and the
    /// registry is never touched again.
    #[must_use = "the table result carries either the shared handle or the build failure"]
    pub fn shared(platform: &Platform, demand: &WorkloadDemand) -> Result<Arc<CurveTable>> {
        tables().get_or_try_build(&format!("table|{platform:?}|{demand:?}"), || {
            Self::profile(platform, demand)
        })
    }

    /// Drop every shared table (benches use this to measure cold
    /// builds; live `Arc` holders are unaffected).
    pub fn clear_shared() {
        tables().clear();
    }

    /// Shared tables currently registered (≤ [`MAX_SHARED_TABLES`]).
    #[must_use]
    pub fn shared_len() -> usize {
        tables().len()
    }

    /// The last sampled budget; grants past it gain nothing.
    #[must_use]
    pub fn ceiling(&self) -> Watts {
        // The final rung is pinned to the class ceiling, which is not in
        // general a whole number of steps past the floor; the index
        // arithmetic below saturates there, so reporting the regular
        // grid position keeps `perf_at` and `ceiling` consistent.
        self.floor + self.step * (self.perf.len().saturating_sub(1) as f64)
    }

    /// Interpolated oracle performance at budget `b`: 0 below the floor
    /// (the class cannot run), clamped flat past the ceiling (stranded
    /// watts gain nothing).
    #[must_use]
    pub fn perf_at(&self, b: Watts) -> f64 {
        if self.perf.is_empty() || b < self.floor {
            return 0.0;
        }
        let offset = (b - self.floor).value() / self.step.value();
        let k = offset.floor() as usize;
        if k + 1 >= self.perf.len() {
            return *self.perf.last().unwrap_or(&0.0);
        }
        let frac = offset - k as f64;
        self.perf[k] + (self.perf[k + 1] - self.perf[k]) * frac
    }

    /// The allocation to apply at budget `b`, served straight off the
    /// table: the oracle optimum of the highest rung whose budget does
    /// not exceed `b` (so the served allocation always respects `b`).
    /// `None` below the floor or on unschedulable rungs. This is the
    /// sub-microsecond path `set_budget` rides in steady state; each
    /// served allocation counts under `fastpath.table_hits`.
    #[must_use]
    pub fn alloc_at(&self, b: Watts) -> Option<PowerAllocation> {
        if self.allocs.is_empty() || b < self.floor {
            return None;
        }
        let offset = (b - self.floor).value() / self.step.value();
        // Rung k's budget is `floor + k*step <= b` by construction; the
        // clamped top rung only serves when `b` is at or past the class
        // ceiling, whose optimum draws no more than the ceiling itself.
        let k = (offset.floor() as usize).min(self.allocs.len() - 1);
        let served = self.allocs[k];
        if served.is_some() {
            static HITS: OnceLock<pbc_trace::Counter> = OnceLock::new();
            HITS.get_or_init(|| pbc_trace::counter(names::FASTPATH_TABLE_HITS)).incr();
        }
        served
    }

    /// The marginal performance of granting `grant` more watts to a node
    /// currently holding `share` — the quantity the water-filling pass
    /// maximizes per quantum.
    #[must_use]
    pub fn marginal_gain(&self, share: Watts, grant: Watts) -> f64 {
        self.perf_at(share + grant) - self.perf_at(share)
    }
}

/// An incremental oracle for one `(platform, demand)` pair: re-solves
/// after a budget delta by seeding the grid search from the previous
/// optimum and walking outward, bit-identical to a cold full-grid
/// sweep.
///
/// The oracle holds its *own* `Arc<SolveMemo>` handle, so its cache
/// survives even if the process-wide registry evicts the fingerprint
/// (the eviction contract: live handles keep their caches).
pub struct WarmOracle {
    platform: Platform,
    step: Watts,
    memo: Arc<SolveMemo>,
    /// The previous solve's optimum, seeding the next warm search.
    last: Option<SweepPoint>,
}

impl WarmOracle {
    /// Bind an oracle to a problem's platform and workload. `step` is
    /// the sweep stepping (callers match the cold sweeps they compare
    /// against; [`DEFAULT_STEP`](crate::DEFAULT_STEP) elsewhere).
    #[must_use]
    pub fn new(problem: &PowerBoundedProblem, step: Watts) -> WarmOracle {
        WarmOracle {
            memo: SolveMemo::for_problem(&problem.platform, &problem.workload),
            platform: problem.platform.clone(),
            step,
            last: None,
        }
    }

    /// Best allocation at `budget`. The first call scans the full grid
    /// (cold); later calls seed from the previous optimum and search
    /// outward (warm, counted under `solve.warm_hits`). `Ok(None)`
    /// means no allocation of this budget is schedulable — exactly when
    /// a cold sweep would return an empty profile. Real solver errors
    /// fail the call, like the sweep's error contract.
    #[must_use = "the re-solve result carries either the optimum or the solver failure"]
    pub fn solve(&mut self, budget: Watts) -> Result<Option<SweepPoint>> {
        let space = AllocationSpace::new(
            budget,
            problem_proc_range(&self.platform),
            problem_mem_range(&self.platform),
            self.step,
        );
        let allocs: Vec<PowerAllocation> = space.iter().collect();
        let best = match self.last {
            None => self.cold_scan(&allocs)?,
            Some(prev) => {
                static WARM: OnceLock<pbc_trace::Counter> = OnceLock::new();
                WARM.get_or_init(|| pbc_trace::counter(names::SOLVE_WARM_HITS)).incr();
                self.warm_scan(&allocs, prev.alloc.proc)?
            }
        };
        self.last = best;
        Ok(best)
    }

    /// Evaluate one grid point through the memo. `Ok(None)` is an
    /// infeasible point (skipped, like the sweep); errors propagate.
    fn eval(&self, alloc: PowerAllocation) -> Result<Option<SweepPoint>> {
        match self.memo.solve(alloc) {
            Ok(op) => Ok(Some(SweepPoint { alloc, op })),
            Err(e) if e.is_infeasible() => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Full ascending scan, keeping the *last* point of any maximal
    /// plateau — the exact tie-break of `SweepProfile::best` (`max_by`
    /// returns the last maximum over ascending processor caps).
    fn cold_scan(&self, allocs: &[PowerAllocation]) -> Result<Option<SweepPoint>> {
        let mut best: Option<SweepPoint> = None;
        for &alloc in allocs {
            if let Some(pt) = self.eval(alloc)? {
                if best.map_or(true, |b| pt.op.perf_rel >= b.op.perf_rel) {
                    best = Some(pt);
                }
            }
        }
        Ok(best)
    }

    /// Outward search from the grid index nearest the previous optimum.
    ///
    /// Rightward, ties replace the running best (`>=`), exactly as the
    /// ascending cold scan would; leftward only a *strictly* better
    /// point replaces it, so the rightmost point of a maximal plateau
    /// wins — the cold tie-break. A direction is abandoned after
    /// [`WARM_STALL_LIMIT`] consecutive feasible points strictly below
    /// the running best; infeasible points neither count nor reset the
    /// stall (a fully infeasible direction walks to the grid edge, so a
    /// warm `None` coincides exactly with a cold empty profile).
    fn warm_scan(
        &self,
        allocs: &[PowerAllocation],
        prev_proc: Watts,
    ) -> Result<Option<SweepPoint>> {
        if allocs.is_empty() {
            return Ok(None);
        }
        let lo = allocs[0].proc.value();
        let step = self.step.value().max(1e-3);
        let seed_f = ((prev_proc.value() - lo) / step).round();
        let seed = if seed_f <= 0.0 {
            0
        } else {
            (seed_f as usize).min(allocs.len() - 1)
        };

        let mut best: Option<SweepPoint> = None;
        // Rightward from the seed (inclusive): ties advance the best.
        let mut stall = 0usize;
        for &alloc in &allocs[seed..] {
            if let Some(pt) = self.eval(alloc)? {
                if best.map_or(true, |b| pt.op.perf_rel >= b.op.perf_rel) {
                    best = Some(pt);
                    stall = 0;
                } else {
                    stall += 1;
                    if stall >= WARM_STALL_LIMIT {
                        break;
                    }
                }
            }
        }
        // Leftward from the seed (exclusive): only strict improvements
        // replace (rightmost-of-plateau wins); equal-performance points
        // do not stall the walk, so a plateau on the rising flank never
        // hides the peak.
        stall = 0;
        for &alloc in allocs[..seed].iter().rev() {
            if let Some(pt) = self.eval(alloc)? {
                match &best {
                    Some(b) if pt.op.perf_rel > b.op.perf_rel => {
                        best = Some(pt);
                        stall = 0;
                    }
                    Some(b) if pt.op.perf_rel < b.op.perf_rel => {
                        stall += 1;
                        if stall >= WARM_STALL_LIMIT {
                            break;
                        }
                    }
                    Some(_) => {}
                    None => {
                        best = Some(pt);
                        stall = 0;
                    }
                }
            }
        }
        Ok(best)
    }

    /// Forget the warm seed; the next [`WarmOracle::solve`] runs cold.
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// The previous solve's optimum, if any.
    #[must_use]
    pub fn last_best(&self) -> Option<SweepPoint> {
        self.last
    }
}

fn problem_proc_range(platform: &Platform) -> (Watts, Watts) {
    // Reuse the problem's cap-range definitions without requiring a
    // budget up front (the oracle re-binds the budget per solve).
    probe_problem(platform).proc_cap_range()
}

fn problem_mem_range(platform: &Platform) -> (Watts, Watts) {
    probe_problem(platform).mem_cap_range()
}

/// A throwaway problem carrying only the platform: the cap ranges
/// depend on nothing else.
fn probe_problem(platform: &Platform) -> PowerBoundedProblem {
    PowerBoundedProblem {
        platform: platform.clone(),
        workload: WorkloadDemand::single("range-probe", pbc_powersim::PhaseDemand::stream_bound()),
        budget: Watts::new(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_budget;
    use pbc_platform::presets::{ivybridge, titan_xp};
    use pbc_workloads::by_name;

    fn cpu_problem(bench: &str, budget: f64) -> PowerBoundedProblem {
        PowerBoundedProblem::new(
            ivybridge(),
            by_name(bench).unwrap().demand,
            Watts::new(budget),
        )
        .unwrap()
    }

    #[test]
    fn table_serves_budget_respecting_allocations() {
        let p = ivybridge();
        let d = by_name("stream").unwrap().demand;
        let table = CurveTable::profile(&p, &d).unwrap();
        let mut served = 0;
        let mut b = table.floor;
        while b <= table.ceiling() + Watts::new(16.0) {
            if let Some(alloc) = table.alloc_at(b) {
                served += 1;
                assert!(
                    alloc.total().value() <= b.value() + 1e-9,
                    "served {alloc} exceeds budget {b}"
                );
            }
            b = b + Watts::new(3.0); // deliberately off-grid
        }
        assert!(served > 10, "the table should serve most of its range");
        assert_eq!(table.alloc_at(table.floor - Watts::new(1.0)), None);
    }

    #[test]
    fn table_rung_allocations_are_the_oracle_optima() {
        let p = ivybridge();
        let d = by_name("sra").unwrap().demand;
        let table = CurveTable::profile(&p, &d).unwrap();
        // Spot-check an interior rung: the stored allocation must be the
        // cold sweep's best for that rung budget, bit for bit.
        let k = table.allocs.len() / 2;
        let rung_budget = table.floor + table.step * (k as f64);
        let problem = PowerBoundedProblem::new(p, d, rung_budget).unwrap();
        let cold = sweep_budget(&problem, DEFAULT_STEP).unwrap();
        let cold_best = cold.best().unwrap();
        let stored = table.allocs[k].unwrap();
        assert_eq!(stored.proc.value().to_bits(), cold_best.alloc.proc.value().to_bits());
        assert_eq!(stored.mem.value().to_bits(), cold_best.alloc.mem.value().to_bits());
        assert_eq!(table.perf[k].to_bits(), cold_best.op.perf_rel.to_bits());
    }

    #[test]
    fn shared_tables_are_one_handle_and_clearable() {
        let p = ivybridge();
        let d = by_name("dgemm").unwrap().demand;
        let a = CurveTable::shared(&p, &d).unwrap();
        let b = CurveTable::shared(&p, &d).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        CurveTable::clear_shared();
        let c = CurveTable::shared(&p, &d).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "clear must drop the registry route");
        assert_eq!(*a, *c, "a rebuilt table must be identical");
    }

    #[test]
    fn warm_solve_matches_cold_sweep_after_deltas() {
        let mut oracle = WarmOracle::new(&cpu_problem("sra", 240.0), DEFAULT_STEP);
        for budget in [240.0, 236.0, 248.0, 208.0, 209.5, 280.0, 160.0] {
            let warm = oracle.solve(Watts::new(budget)).unwrap();
            let cold = sweep_budget(&cpu_problem("sra", budget), DEFAULT_STEP).unwrap();
            match (warm, cold.best()) {
                (Some(w), Some(c)) => {
                    assert_eq!(w.alloc.proc.value().to_bits(), c.alloc.proc.value().to_bits());
                    assert_eq!(w.op.perf_rel.to_bits(), c.op.perf_rel.to_bits());
                }
                (None, None) => {}
                (w, c) => panic!("warm {w:?} vs cold {c:?} at {budget} W"),
            }
        }
    }

    #[test]
    fn warm_none_tracks_cold_empty_on_gpu_floors() {
        let problem = PowerBoundedProblem::new(
            titan_xp(),
            by_name("sgemm").unwrap().demand,
            Watts::new(200.0),
        )
        .unwrap();
        let mut oracle = WarmOracle::new(&problem, DEFAULT_STEP);
        assert!(oracle.solve(Watts::new(200.0)).unwrap().is_some());
        // Below the card minimum every grid point is infeasible: the warm
        // walk must reach both edges and agree with the cold empty profile.
        assert!(oracle.solve(Watts::new(80.0)).unwrap().is_none());
        // And recover cold-identically afterwards.
        let back = oracle.solve(Watts::new(200.0)).unwrap().unwrap();
        let cold = sweep_budget(&problem, DEFAULT_STEP).unwrap();
        assert_eq!(back.op.perf_rel.to_bits(), cold.best().unwrap().op.perf_rel.to_bits());
    }
}
