//! The steady-state fast path under the clock: what a budget change
//! costs once a class table exists.
//!
//! The headline is `fastpath/set-budget-table` — an
//! `OnlineCoordinator::set_budget` call served off a precomputed
//! `CurveTable`, alternating between two budgets so every call takes the
//! real `Applied` path. It is timed in alternating batches
//! (`Bench::run_pair`) against `fastpath/cold-solve` (one direct solver
//! call, the *minimum* conceivable cost of answering a budget change
//! with the solver in the loop) and the median per-pair ratio is
//! recorded as the `fastpath/set-budget-vs-cold-solve`
//! `"type":"bench-ratio"` line. The ratio is asserted ≥ 10× here and
//! gated again in `scripts/check.sh`, next to the sweep-curve gate.
//!
//! Also measured: the warm-start incremental re-solve against the cold
//! full-grid sweep it replaces, and the serve daemon's session set-up —
//! one `Session::open` against a `provision 512` of the same class,
//! whose ratio `serve/provision-512-vs-open` `scripts/check.sh` gates:
//! a provision resolves the class once, so 512 sessions must cost far
//! less than 512 opens.

use pbc_bench::Bench;
use pbc_core::{
    sweep_budget, BudgetOutcome, CurveTable, OnlineConfig, OnlineCoordinator,
    PowerBoundedProblem, WarmOracle, DEFAULT_STEP,
};
use pbc_platform::presets::ivybridge;
use pbc_powersim::solve;
use pbc_serve::{ServeEngine, Session};
use pbc_types::{PowerAllocation, Watts};
use std::hint::black_box;

/// The speedup a table-served `set_budget` must deliver over a single
/// direct solve (acceptance bar for the steady-state fast path).
const MIN_FASTPATH_SPEEDUP: f64 = 10.0;

fn main() {
    let mut bench = Bench::from_env();
    let w = pbc_workloads::by_name("stream").expect("workload exists");
    let platform = ivybridge();
    let problem = PowerBoundedProblem::new(platform.clone(), w.demand.clone(), Watts::new(208.0))
        .expect("problem is well-formed");

    set_budget_vs_cold_solve(&mut bench, &problem);
    warm_resolve_vs_cold_sweep(&mut bench, &problem);
    session_open_vs_provision(&mut bench);
    bench.finish();
}

/// A table-served budget change against one direct solver call.
fn set_budget_vs_cold_solve(bench: &mut Bench, problem: &PowerBoundedProblem) {
    // Table construction is the one-time setup cost; it stays outside
    // the timed region (its cost is what `fastpath.table_rebuilds`
    // makes visible in production).
    let table = CurveTable::shared(&problem.platform, &problem.workload)
        .expect("table profiles");
    let budget_a = Watts::new(180.0);
    let budget_b = Watts::new(196.0);
    assert!(table.alloc_at(budget_a).is_some() && table.alloc_at(budget_b).is_some());

    let mut coord = OnlineCoordinator::new(
        problem.budget,
        PowerAllocation::split(problem.budget, 0.5),
        OnlineConfig::default(),
    )
    .with_table(table);
    // The floor of any solver-in-the-loop design: a single solve of one
    // already-known allocation (a full re-optimization sweeps dozens).
    let alloc = sweep_budget(problem, DEFAULT_STEP)
        .expect("sweep succeeds")
        .best()
        .expect("feasible point")
        .alloc;
    let cold_solve = || {
        solve(
            black_box(&problem.platform),
            black_box(&problem.workload),
            black_box(alloc),
        )
        .expect("solve succeeds")
    };
    let mut flip = false;
    let set_budget = || {
        // Alternate so every call is a real budget *change*, never the
        // `Unchanged` early-out.
        flip = !flip;
        let next = if flip { budget_a } else { budget_b };
        let outcome = coord.set_budget(black_box(next));
        assert!(matches!(outcome, BudgetOutcome::Applied));
        coord.best()
    };
    let speedup = bench.run_pair(
        "fastpath/cold-solve",
        cold_solve,
        "fastpath/set-budget-table",
        set_budget,
    );

    if let Some(speedup) = speedup {
        bench.record_ratio("fastpath/set-budget-vs-cold-solve", speedup);
        assert!(
            speedup >= MIN_FASTPATH_SPEEDUP,
            "a table-served set_budget must be >= {MIN_FASTPATH_SPEEDUP}x faster than even \
             one direct solve, measured {speedup:.2}x",
        );
    }
}

/// The warm-start incremental re-solve against the cold full-grid sweep
/// it is bit-identical to.
fn warm_resolve_vs_cold_sweep(bench: &mut Bench, problem: &PowerBoundedProblem) {
    let budget_a = Watts::new(204.0);
    let budget_b = Watts::new(212.0);
    let mut oracle = WarmOracle::new(problem, DEFAULT_STEP);
    // Pay the cold first solve outside the timed region.
    let _ = oracle.solve(problem.budget).expect("solve succeeds");
    let mut flip = false;
    let warm_ns = bench.run("fastpath/warm-resolve", || {
        flip = !flip;
        let next = if flip { budget_a } else { budget_b };
        oracle.solve(black_box(next)).expect("solve succeeds")
    });

    let mut flip = false;
    let cold_ns = bench.run("fastpath/cold-sweep", || {
        flip = !flip;
        let p = PowerBoundedProblem {
            platform: problem.platform.clone(),
            workload: problem.workload.clone(),
            budget: if flip { budget_a } else { budget_b },
        };
        sweep_budget(black_box(&p), DEFAULT_STEP).expect("sweep succeeds")
    });

    if let (Some(warm_ns), Some(cold_ns)) = (warm_ns, cold_ns) {
        bench.record_ratio("fastpath/warm-vs-cold-sweep", cold_ns / warm_ns);
    }
}

/// One session opened by the full recipe against a 512-session
/// `provision` of the same class, both with the class table warm.
fn session_open_vs_provision(bench: &mut Bench) {
    let open_ns = bench.run("serve/session-open", || {
        Session::open(black_box("ivybridge"), black_box("stream"), black_box(208.0))
            .expect("session opens")
    });
    let mut reply = String::new();
    let provision_ns = bench.run("serve/provision-512", || {
        let engine = ServeEngine::new();
        engine.dispatch_into(black_box("provision 512 ivybridge stream 208"), &mut reply);
        assert!(reply.starts_with("ok provision"), "{reply}");
        engine
    });
    if let (Some(open_ns), Some(provision_ns)) = (open_ns, provision_ns) {
        bench.record_ratio("serve/provision-512-vs-open", provision_ns / open_ns);
    }
}
