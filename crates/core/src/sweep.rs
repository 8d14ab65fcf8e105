//! The exhaustive allocation sweep — the oracle of §6.3.
//!
//! For a fixed total budget the sweep evaluates every allocation on a
//! fixed power stepping (the paper notes its experimental sweeps do the
//! same, which is why the heuristic occasionally beats "the best found in
//! the experimental dataset"). Evaluations are independent, so the sweep
//! fans out across the persistent work-stealing pool in [`pbc_par`]:
//! infeasible points are ~100x cheaper to reject than feasible points
//! are to solve, so static chunking (the previous design) left threads
//! idle while one carried all the expensive points. Results are written
//! to per-index slots, so the profile is deterministic — bit-identical
//! regardless of thread count or steal order.
//!
//! Multi-budget curves should use [`sweep_curve`]: it resolves the
//! union of every budget's grid against a shared [`SolveMemo`] on the
//! calling thread and solves only the distinct uncached points, in one
//! pooled job, so adjacent budgets reuse solver work (observable as
//! `sweep.curve_reuse_hits`) instead of re-integrating the control
//! loops per budget.
//!
//! The sweep is the *authority*, not the serving path. Steady-state
//! callers answering repeated budget changes should go through
//! [`crate::fastpath`]: [`crate::fastpath::WarmOracle`] re-solves
//! incrementally from the previous optimum (bit-identical to
//! [`sweep_budget`], asserted in `tests/fastpath_equivalence.rs`),
//! [`crate::fastpath::CurveTable`] precomputes a per-class ladder through
//! [`sweep_curve`] and serves allocations without any solver in the
//! loop.
//!
//! ## Error contract
//!
//! The sweep distinguishes two failure classes, via
//! [`PbcError::is_infeasible`](pbc_types::PbcError::is_infeasible):
//!
//! * **Infeasible allocations** (budget too small, cap out of range) are
//!   an expected part of probing the boundary of the feasible region.
//!   They are counted (`sweep.points_infeasible`) and skipped; a budget
//!   where *every* allocation is infeasible yields an empty profile —
//!   the sweep-level signal that the budget is not schedulable at all.
//! * **Real solver errors** (I/O, malformed input, missing backend) fail
//!   the whole sweep with `Err`. A panicking worker propagates its panic
//!   to the caller. Earlier revisions swallowed both — an error-prone
//!   solver or a dying worker silently produced a *truncated* profile,
//!   which downstream code then treated as the oracle. The trace
//!   counters `sweep.points_lost` and `sweep.solver_errors` exist so
//!   that regression is observable: both must read zero on any run that
//!   returns `Ok`.

use crate::problem::PowerBoundedProblem;
use crate::profile::{SweepPoint, SweepProfile};
use pbc_par::Pool;
use pbc_platform::Platform;
use pbc_powersim::{solve, NodeOperatingPoint, SolveMemo, WorkloadDemand};
use pbc_trace::names;
use pbc_types::{AllocationSpace, PbcError, PowerAllocation, Result, Watts};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Default sweep stepping, matching the coarse grid of the paper's
/// experiments (4 W on the CPU axis).
pub const DEFAULT_STEP: Watts = Watts::new(4.0);

/// Sweep every allocation of `budget` admissible on the problem's
/// platform, in `step`-watt increments of the processor cap.
///
/// ```
/// use pbc_core::{sweep_budget, PowerBoundedProblem, DEFAULT_STEP};
/// use pbc_platform::presets::ivybridge;
/// use pbc_types::Watts;
///
/// let problem = PowerBoundedProblem::new(
///     ivybridge(),
///     pbc_workloads::by_name("stream").unwrap().demand,
///     Watts::new(208.0),
/// ).unwrap();
/// let profile = sweep_budget(&problem, DEFAULT_STEP).unwrap();
/// // Fig. 1's headline: an order-of-magnitude spread across splits.
/// assert!(profile.spread() > 8.0);
/// ```
///
/// Allocations the platform rejects outright (GPU totals below the
/// minimum settable cap) yield an empty profile rather than an error —
/// an empty profile is the sweep-level signal that the budget is not
/// schedulable at all. Non-infeasibility solver errors fail the sweep
/// (see the module docs for the full error contract).
#[must_use = "the sweep result carries either the profile or the solver failure"]
pub fn sweep_budget(problem: &PowerBoundedProblem, step: Watts) -> Result<SweepProfile> {
    sweep_budget_with_pool(problem, step, Pool::global())
}

/// [`sweep_budget`] on an explicit pool (tests use this to pin the
/// executor count; production code wants [`Pool::global`]).
#[must_use = "the sweep result carries either the profile or the solver failure"]
pub fn sweep_budget_with_pool(
    problem: &PowerBoundedProblem,
    step: Watts,
    pool: &Pool,
) -> Result<SweepProfile> {
    let space = AllocationSpace::new(
        problem.budget,
        problem.proc_cap_range(),
        problem.mem_cap_range(),
        step,
    );
    sweep_space_with_pool(problem, &space, pool)
}

/// Sweep an explicit allocation space (callers construct custom spaces
/// for zoomed-in views around an optimum).
#[must_use = "the sweep result carries either the profile or the solver failure"]
pub fn sweep_space(problem: &PowerBoundedProblem, space: &AllocationSpace) -> Result<SweepProfile> {
    sweep_space_with(problem, space, Pool::global(), solve)
}

/// [`sweep_space`] on an explicit pool.
#[must_use = "the sweep result carries either the profile or the solver failure"]
pub fn sweep_space_with_pool(
    problem: &PowerBoundedProblem,
    space: &AllocationSpace,
    pool: &Pool,
) -> Result<SweepProfile> {
    sweep_space_with(problem, space, pool, solve)
}

/// One evaluated grid point, written into its own slot so assembly is
/// independent of execution order.
enum Slot {
    Point(NodeOperatingPoint),
    Infeasible,
    Failed(PbcError),
}

/// The sweep's accounting counters, registered together up front so
/// every one of them is present in an exported trace even when it reads
/// zero — absence must never be mistaken for emptiness.
struct SweepCounters {
    total: pbc_trace::Counter,
    evaluated: pbc_trace::Counter,
    infeasible: pbc_trace::Counter,
    lost: pbc_trace::Counter,
    errors: pbc_trace::Counter,
}

impl SweepCounters {
    fn register() -> SweepCounters {
        SweepCounters {
            total: pbc_trace::counter(names::SWEEP_POINTS_TOTAL),
            evaluated: pbc_trace::counter(names::SWEEP_POINTS_EVALUATED),
            infeasible: pbc_trace::counter(names::SWEEP_POINTS_INFEASIBLE),
            lost: pbc_trace::counter(names::SWEEP_POINTS_LOST),
            errors: pbc_trace::counter(names::SWEEP_SOLVER_ERRORS),
        }
    }
}

/// Run `eval_index` for every index under the `sweep` span `sweep_id`,
/// across `pool` or, with no pool, on the calling thread — one
/// `sweep.worker` span per participating executor either way. Each
/// index writes its own outcome. Preserves the panic contract: a
/// panicking evaluation cancels the rest of the job, adds the
/// unfinished evaluations to `sweep.points_lost`, and re-raises on the
/// calling thread.
fn run_sweep_job(
    pool: Option<&Pool>,
    sweep_id: Option<u64>,
    counters: &SweepCounters,
    n: usize,
    eval_index: &(dyn Fn(usize) + Sync),
) {
    let wrap = |inner: &mut dyn FnMut()| {
        let _worker = pbc_trace::span_under(names::SPAN_SWEEP_WORKER, sweep_id);
        inner();
    };
    let stats = match pool {
        Some(pool) => pool.run_wrapped(n, &wrap, eval_index),
        None => pbc_par::run_inline(n, &wrap, eval_index),
    };
    if let Some(payload) = stats.panic {
        // Account for every point the cancelled job dropped, then
        // re-raise the panic on the calling thread. A dying evaluation
        // must never silently truncate the oracle.
        counters.lost.add((n - stats.completed) as u64);
        std::panic::resume_unwind(payload);
    }
}

/// Evaluate one allocation into its slot, with counter accounting. A
/// real solver error flips `errored`, which short-circuits the remaining
/// points (their slots stay `None`; the sweep is failing anyway).
fn eval_into_slot(
    outcome: Result<NodeOperatingPoint>,
    slot: &Mutex<Option<Slot>>,
    counters: &SweepCounters,
    errored: &AtomicBool,
) {
    let filled = match outcome {
        Ok(op) => {
            counters.evaluated.incr();
            Slot::Point(op)
        }
        Err(e) if e.is_infeasible() => {
            counters.infeasible.incr();
            Slot::Infeasible
        }
        Err(e) => {
            counters.errors.incr();
            errored.store(true, Ordering::Relaxed);
            Slot::Failed(e)
        }
    };
    *slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(filled);
}

/// Drain filled slots into sweep points (pushed in index order, i.e.
/// ascending processor cap). A real solver error at the lowest failing
/// index fails the whole drain.
fn collect_slots(
    slots: Vec<Mutex<Option<Slot>>>,
    mut sink: impl FnMut(usize, NodeOperatingPoint),
) -> Result<()> {
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
            Some(Slot::Failed(e)) => return Err(e),
            Some(Slot::Point(op)) => sink(i, op),
            Some(Slot::Infeasible) | None => {}
        }
    }
    Ok(())
}

/// The sweep engine, generic over the evaluator so tests can inject
/// failing or panicking solvers without a special platform.
fn sweep_space_with<F>(
    problem: &PowerBoundedProblem,
    space: &AllocationSpace,
    pool: &Pool,
    eval: F,
) -> Result<SweepProfile>
where
    F: Fn(&Platform, &WorkloadDemand, PowerAllocation) -> Result<NodeOperatingPoint> + Sync,
{
    let allocs: Vec<PowerAllocation> = space.iter().collect();
    let counters = SweepCounters::register();
    counters.total.add(allocs.len() as u64);

    let slots: Vec<Mutex<Option<Slot>>> = (0..allocs.len()).map(|_| Mutex::new(None)).collect();
    let errored = AtomicBool::new(false);

    let sweep_span = pbc_trace::span(names::SPAN_SWEEP);
    run_sweep_job(Some(pool), sweep_span.id(), &counters, allocs.len(), &|i| {
        if errored.load(Ordering::Relaxed) {
            return;
        }
        let outcome = eval(&problem.platform, &problem.workload, allocs[i]);
        eval_into_slot(outcome, &slots[i], &counters, &errored);
    });

    let mut points: Vec<SweepPoint> = Vec::with_capacity(allocs.len());
    collect_slots(slots, |i, op| points.push(SweepPoint { alloc: allocs[i], op }))?;

    points.sort_by(|a, b| a.alloc.proc.0.total_cmp(&b.alloc.proc.0));
    Ok(SweepProfile {
        platform: problem.platform.id,
        workload: problem.workload.name.clone(),
        budget: problem.budget,
        points,
    })
}

/// The shared-grid oracle: sweep *every* budget over the union of the
/// budgets' allocation grids, solving through the problem's shared
/// [`SolveMemo`].
///
/// Profiles are bit-identical to calling [`sweep_budget`] once per
/// budget (each budget's grid is constructed exactly as `sweep_budget`
/// constructs it, and the memo's canonical keys are exact — see
/// `pbc_powersim::memo`), but the work is shared three ways: the
/// nominal reference time is computed once instead of per point,
/// allocations whose canonical solver inputs repeat across budgets are
/// served from cache (counted in `sweep.curve_reuse_hits`), and only the
/// distinct uncached points are solved, in one pooled job. Keys and
/// hits resolve on the calling thread
/// ([`SolveMemo::solve_batch`]), so the profiles, the `solve.cache_*`
/// and the `sweep.*` counters do not depend on the thread count.
///
/// `problem.budget` is ignored; `budgets` drives the curve. The error
/// contract is the per-budget sweep's: infeasible allocations are
/// skipped (a budget where everything is infeasible yields an empty
/// profile), real solver errors fail the whole curve, and a panicking
/// evaluation is re-raised after `sweep.points_lost` accounting.
#[must_use = "the curve result carries either the profiles or the solver failure"]
pub fn sweep_curve(
    problem: &PowerBoundedProblem,
    budgets: &[Watts],
    step: Watts,
) -> Result<Vec<SweepProfile>> {
    sweep_curve_with_pool(problem, budgets, step, Pool::global())
}

/// [`sweep_curve`] on an explicit pool.
#[must_use = "the curve result carries either the profiles or the solver failure"]
pub fn sweep_curve_with_pool(
    problem: &PowerBoundedProblem,
    budgets: &[Watts],
    step: Watts,
    pool: &Pool,
) -> Result<Vec<SweepProfile>> {
    sweep_curve_on(problem, budgets, step, Some(pool))
}

/// [`sweep_curve`] on `pool`, or with no pool on the calling thread
/// alone — for callers whose curve is too small to repay a pool job.
#[must_use = "the curve result carries either the profiles or the solver failure"]
pub(crate) fn sweep_curve_on(
    problem: &PowerBoundedProblem,
    budgets: &[Watts],
    step: Watts,
    pool: Option<&Pool>,
) -> Result<Vec<SweepProfile>> {
    // The union grid: every budget's allocation space, in budget order.
    // Spaces are constructed exactly as `sweep_budget` constructs them
    // so the derived profiles match it bit for bit.
    let mut allocs: Vec<PowerAllocation> = Vec::new();
    let mut sizes: Vec<usize> = Vec::with_capacity(budgets.len());
    for &budget in budgets {
        let space = AllocationSpace::new(
            budget,
            problem.proc_cap_range(),
            problem.mem_cap_range(),
            step,
        );
        let before = allocs.len();
        allocs.extend(space.iter());
        sizes.push(allocs.len() - before);
    }

    let counters = SweepCounters::register();
    counters.total.add(allocs.len() as u64);
    let sweep_span = pbc_trace::span(names::SPAN_SWEEP);
    let memo = SolveMemo::for_problem(&problem.platform, &problem.workload);
    let solved = memo.solve_batch(&allocs, |n, solve_miss| {
        run_sweep_job(pool, sweep_span.id(), &counters, n, solve_miss);
    });

    // Assemble in grid order. A real solver error at the lowest failing
    // index fails the curve.
    let (mut evaluated, mut infeasible, mut errors, mut reused) = (0, 0, 0, 0);
    let mut failure = None;
    let mut outcomes = allocs.iter().zip(solved);
    let mut profiles = Vec::with_capacity(budgets.len());
    for (&budget, &size) in budgets.iter().zip(&sizes) {
        let mut points = Vec::with_capacity(size);
        for (&alloc, (outcome, hit)) in outcomes.by_ref().take(size) {
            reused += u64::from(hit);
            match outcome {
                Ok(op) => {
                    evaluated += 1;
                    points.push(SweepPoint { alloc, op });
                }
                Err(e) if e.is_infeasible() => infeasible += 1,
                Err(e) => {
                    errors += 1;
                    failure.get_or_insert(e);
                }
            }
        }
        points.sort_by(|a, b| a.alloc.proc.0.total_cmp(&b.alloc.proc.0));
        profiles.push(SweepProfile {
            platform: problem.platform.id,
            workload: problem.workload.name.clone(),
            budget,
            points,
        });
    }
    counters.evaluated.add(evaluated);
    counters.infeasible.add(infeasible);
    counters.errors.add(errors);
    pbc_trace::counter(names::SWEEP_CURVE_REUSE_HITS).add(reused);
    drop(sweep_span);
    match failure {
        Some(e) => Err(e),
        None => Ok(profiles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::{ivybridge, titan_xp};
    use pbc_types::PbcError;
    use pbc_workloads::by_name;

    /// Counters are process-global and unit tests share a process, so
    /// tests that assert on counter deltas serialize on this.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn problem(bench: &str, budget: f64) -> PowerBoundedProblem {
        let b = by_name(bench).unwrap();
        let platform = if matches!(b.target, pbc_workloads::Target::Gpu) {
            titan_xp()
        } else {
            ivybridge()
        };
        PowerBoundedProblem::new(platform, b.demand, Watts::new(budget)).unwrap()
    }

    #[test]
    fn sweep_covers_the_space_in_order() {
        let _g = lock();
        let p = problem("sra", 240.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        assert!(profile.points.len() > 20, "only {} points", profile.points.len());
        for w in profile.points.windows(2) {
            assert!(w[0].alloc.proc < w[1].alloc.proc);
            assert!((w[0].alloc.total().value() - 240.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stream_208w_has_the_papers_headline_spread() {
        let _g = lock();
        // Fig. 1a: at a 208 W budget, optimally vs poorly coordinated
        // allocations differ by ~30x for CPU STREAM.
        let p = problem("stream", 208.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        let spread = profile.spread();
        assert!(
            (8.0..=80.0).contains(&spread),
            "expected an order-of-magnitude spread, got {spread:.1}x"
        );
    }

    #[test]
    fn gpu_sweep_at_140w_has_the_papers_spread() {
        let _g = lock();
        // Fig. 1b: >30% best-to-worst at a 140 W card cap, and far milder
        // than the CPU spread because low caps are excluded.
        let p = problem("gpu-stream", 140.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        let spread = profile.spread();
        assert!(
            (1.2..=3.0).contains(&spread),
            "expected a mild GPU spread, got {spread:.2}x"
        );
    }

    #[test]
    fn sub_minimum_gpu_budget_yields_empty_profile() {
        let _g = lock();
        let p = problem("sgemm", 80.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        assert!(profile.points.is_empty());
    }

    #[test]
    fn oracle_best_is_interior_for_balanced_budget() {
        let _g = lock();
        // At SRA's 240 W the optimum sits near (112, 116) — in the
        // interior of the sweep, not at an edge.
        let p = problem("sra", 240.0);
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        let best = profile.best().unwrap();
        let lo = profile.points.first().unwrap().alloc.proc;
        let hi = profile.points.last().unwrap().alloc.proc;
        assert!(best.alloc.proc > lo + Watts::new(8.0));
        assert!(best.alloc.proc < hi - Watts::new(8.0));
        assert!(
            (best.alloc.proc.value() - 112.0).abs() < 25.0,
            "optimum at {} vs the paper's ~112 W",
            best.alloc.proc
        );
    }

    #[test]
    fn custom_space_zoom() {
        let _g = lock();
        let p = problem("dgemm", 240.0);
        let space = AllocationSpace::new(
            Watts::new(240.0),
            (Watts::new(150.0), Watts::new(180.0)),
            (Watts::new(20.0), Watts::new(200.0)),
            Watts::new(2.0),
        );
        let profile = sweep_space(&p, &space).unwrap();
        assert!(!profile.points.is_empty());
        for pt in &profile.points {
            assert!(pt.alloc.proc >= Watts::new(150.0) && pt.alloc.proc <= Watts::new(180.0));
        }
    }

    #[test]
    fn worker_panic_propagates_instead_of_truncating() {
        let _g = lock();
        // The original bug: a panicking worker lost its whole batch and
        // the sweep returned a truncated profile as if nothing happened.
        let p = problem("sra", 240.0);
        let space = AllocationSpace::new(
            p.budget,
            p.proc_cap_range(),
            p.mem_cap_range(),
            DEFAULT_STEP,
        );
        let lost_before = pbc_trace::counter(names::SWEEP_POINTS_LOST).get();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sweep_space_with(&p, &space, Pool::global(), |_, _, alloc| {
                assert!(
                    alloc.proc.value() < 100.0,
                    "injected worker failure at {alloc:?}"
                );
                Ok(solve(&p.platform, &p.workload, alloc).unwrap())
            })
        }));
        assert!(result.is_err(), "the sweep swallowed a worker panic");
        let lost_after = pbc_trace::counter(names::SWEEP_POINTS_LOST).get();
        assert!(
            lost_after > lost_before,
            "sweep.points_lost did not account for the dropped batch"
        );
    }

    #[test]
    fn real_solver_error_fails_the_sweep() {
        let _g = lock();
        let p = problem("sra", 240.0);
        let space = AllocationSpace::new(
            p.budget,
            p.proc_cap_range(),
            p.mem_cap_range(),
            DEFAULT_STEP,
        );
        let err = sweep_space_with(&p, &space, Pool::global(), |platform, workload, alloc| {
            if alloc.proc.value() > 100.0 {
                return Err(PbcError::Io("sensor read failed".into()));
            }
            solve(platform, workload, alloc)
        })
        .unwrap_err();
        assert!(matches!(err, PbcError::Io(_)), "got {err}");
        assert!(!err.is_infeasible());
    }

    #[test]
    fn infeasible_allocations_are_skipped_not_fatal() {
        let _g = lock();
        let p = problem("sra", 240.0);
        let space = AllocationSpace::new(
            p.budget,
            p.proc_cap_range(),
            p.mem_cap_range(),
            DEFAULT_STEP,
        );
        let full = sweep_space(&p, &space).unwrap();
        let infeasible_before = pbc_trace::counter(names::SWEEP_POINTS_INFEASIBLE).get();
        // Reject the bottom half of the proc axis as out of range: the
        // sweep must skip those points and keep the rest.
        let profile = sweep_space_with(&p, &space, Pool::global(), |platform, workload, alloc| {
            if alloc.proc.value() < 112.0 {
                return Err(PbcError::CapOutOfRange {
                    component: "cpu".into(),
                    requested: alloc.proc,
                    min: Watts::new(112.0),
                    max: Watts::new(230.0),
                });
            }
            solve(platform, workload, alloc)
        })
        .unwrap();
        let infeasible_after = pbc_trace::counter(names::SWEEP_POINTS_INFEASIBLE).get();
        assert!(!profile.points.is_empty());
        assert!(profile.points.len() < full.points.len());
        assert!(profile.points.iter().all(|pt| pt.alloc.proc.value() >= 112.0));
        assert!(infeasible_after > infeasible_before);
    }

    #[test]
    fn sweep_accounting_adds_up() {
        let _g = lock();
        let p = problem("sra", 240.0);
        let before = pbc_trace::snapshot().counters;
        let profile = sweep_budget(&p, DEFAULT_STEP).unwrap();
        let after = pbc_trace::snapshot().counters;
        let delta = |name: &str| after[name] - before.get(name).copied().unwrap_or(0);
        assert_eq!(
            delta(names::SWEEP_POINTS_EVALUATED) + delta(names::SWEEP_POINTS_INFEASIBLE),
            delta(names::SWEEP_POINTS_TOTAL),
            "evaluated + infeasible must equal total"
        );
        assert_eq!(delta(names::SWEEP_POINTS_EVALUATED), profile.points.len() as u64);
        assert_eq!(delta(names::SWEEP_POINTS_LOST), 0);
        assert_eq!(delta(names::SWEEP_SOLVER_ERRORS), 0);
    }
}
