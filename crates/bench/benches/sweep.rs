//! The oracle sweep under the clock, with its accounting audited.
//!
//! Each case sweeps one (workload, budget) pair and then checks the
//! trace counters' conservation law — `evaluated + infeasible = total`,
//! `lost = 0`, `solver_errors = 0` — so a timing run can never look
//! healthy while the sweep is quietly dropping points. With
//! `PBC_BENCH_JSON=<file>` set, the timings land there as JSON lines
//! (see `scripts/check.sh`, which keeps `BENCH_sweep.json` current).
//!
//! The headline comparison is the shared-grid oracle: one
//! `sweep_curve` over a 10-budget ladder against 10 independent
//! `sweep_budget` calls, timed in alternating batches
//! (`Bench::run_pair`). The median per-pair ratio is recorded as a
//! `"type":"bench-ratio"` line and asserted to be at least 2x —
//! `scripts/check.sh` gates on the recorded value too.
//!
//! The partitioner is timed at 32 nodes and on the 512-node calm fleet
//! mix scaled to 512 and 4096 nodes. The 4096 / 512 median ratio is
//! recorded as `cluster/water-fill-4096-vs-512`; `scripts/check.sh`
//! holds it to at most 12, which an n log n fill meets (8× the nodes)
//! and the old per-grant scan (~53×) does not.
//!
//! One whole dynamic fleet epoch (`set_global_budget`, then `step`:
//! reports, fill, evaluation, enforcement) is timed on the same calm
//! mix at 512 and 4096 nodes, the budget moving every iteration. The
//! median ratio is recorded as `cluster/epoch-4096-vs-512`, which
//! `scripts/check.sh` also gates.
//!
//! `cluster/fleet-build-512-cold` times profiling that calm fleet from
//! cold registries, the set-up cost a fresh process pays; it is kept in
//! the bench history, ungated.

use pbc_bench::Bench;
use pbc_cluster::{water_fill, Fleet, FleetCoordinator, NodeCurve, SpecLine, DEFAULT_GRANT};
use pbc_core::{sweep_budget, sweep_curve, CurveTable, PowerBoundedProblem, DEFAULT_STEP};
use pbc_platform::presets::{ivybridge, titan_xp};
use pbc_powersim::{solve, SolveMemo};
use pbc_trace::names;
use pbc_types::Watts;
use std::hint::black_box;

/// The speedup the shared-grid oracle must deliver over independent
/// per-budget sweeps (acceptance bar for the optimization).
const MIN_CURVE_SPEEDUP: f64 = 2.0;

fn main() {
    let mut bench = Bench::from_env();
    let cases = [
        ("sweep/stream-208w", "stream", 208.0),
        ("sweep/sra-240w", "sra", 240.0),
        ("sweep/gpu-stream-140w", "gpu-stream", 140.0),
    ];
    for (label, workload, budget) in cases {
        let w = pbc_workloads::by_name(workload).expect("workload exists");
        let platform = if matches!(w.target, pbc_workloads::Target::Gpu) {
            titan_xp()
        } else {
            ivybridge()
        };
        let problem = PowerBoundedProblem::new(platform, w.demand, Watts::new(budget))
            .expect("problem is well-formed");
        bench.run(label, || {
            let profile = sweep_budget(black_box(&problem), DEFAULT_STEP).expect("sweep succeeds");
            assert!(!profile.points.is_empty(), "{label}: empty profile");
            profile
        });
    }

    curve_vs_independent_budgets(&mut bench);
    solve_memo(&mut bench);
    cluster_water_fill(&mut bench);
    cluster_water_fill_scaling(&mut bench);
    cluster_epoch_scaling(&mut bench);
    cluster_fleet_build_cold(&mut bench);

    // The conservation law, over everything the timed runs accumulated.
    let counters = pbc_trace::snapshot().counters;
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        read(names::SWEEP_POINTS_EVALUATED) + read(names::SWEEP_POINTS_INFEASIBLE),
        read(names::SWEEP_POINTS_TOTAL),
        "sweep accounting must balance"
    );
    assert_eq!(read(names::SWEEP_POINTS_LOST), 0, "sweep lost points");
    assert_eq!(read(names::SWEEP_SOLVER_ERRORS), 0, "sweep hit solver errors");
    bench.finish();
}

/// One `sweep_curve` over a 10-budget ladder vs 10 independent
/// `sweep_budget` calls over the same ladder — the comparison the
/// shared-grid oracle exists to win.
fn curve_vs_independent_budgets(bench: &mut Bench) {
    let w = pbc_workloads::by_name("stream").expect("workload exists");
    let problem = PowerBoundedProblem::new(ivybridge(), w.demand, Watts::new(208.0))
        .expect("problem is well-formed");
    let budgets: Vec<Watts> = (0..10).map(|i| Watts::new(160.0 + 8.0 * i as f64)).collect();

    let independent = || {
        budgets
            .iter()
            .map(|&budget| {
                let p = PowerBoundedProblem {
                    platform: problem.platform.clone(),
                    workload: problem.workload.clone(),
                    budget,
                };
                let profile = sweep_budget(black_box(&p), DEFAULT_STEP).expect("sweep succeeds");
                assert!(!profile.points.is_empty());
                profile
            })
            .collect::<Vec<_>>()
    };
    let curve = || {
        // Cold memo every iteration: the speedup must come from sharing
        // *within* one curve call, not from a cache the previous
        // iteration left warm.
        SolveMemo::clear_shared();
        let profiles = sweep_curve(black_box(&problem), black_box(&budgets), DEFAULT_STEP)
            .expect("curve succeeds");
        assert_eq!(profiles.len(), budgets.len());
        profiles
    };
    let speedup = bench.run_pair(
        "sweep/10-budgets-independent",
        independent,
        "sweep/10-budgets-curve",
        curve,
    );

    if let Some(speedup) = speedup {
        bench.record_ratio("sweep/curve-vs-budgets-speedup", speedup);
        assert!(
            speedup >= MIN_CURVE_SPEEDUP,
            "shared-grid curve over {} budgets must be >= {MIN_CURVE_SPEEDUP}x faster than \
             independent per-budget sweeps, measured {speedup:.2}x",
            budgets.len(),
        );
    }
}

/// The memo's hit path against the direct solver it caches — the cost a
/// repeated canonical allocation pays after the first solve.
fn solve_memo(bench: &mut Bench) {
    let w = pbc_workloads::by_name("stream").expect("workload exists");
    let problem = PowerBoundedProblem::new(ivybridge(), w.demand, Watts::new(208.0))
        .expect("problem is well-formed");
    let profile = sweep_budget(&problem, DEFAULT_STEP).expect("sweep succeeds");
    let alloc = profile.best().expect("feasible point").alloc;

    bench.run("solve/cpu-direct", || {
        solve(
            black_box(&problem.platform),
            black_box(&problem.workload),
            black_box(alloc),
        )
        .expect("solve succeeds")
    });

    let memo = SolveMemo::fresh(&problem.platform, &problem.workload);
    bench.run("solve/memo-hit", || {
        memo.solve(black_box(alloc)).expect("solve succeeds")
    });
}

/// The cluster partitioner on a profiled 32-node mixed fleet — the cost
/// of one water-filling pass, with class profiling kept outside the
/// timed region (it is a one-time setup cost).
fn cluster_water_fill(bench: &mut Bench) {
    let spec: Vec<SpecLine> = [
        (10, "ivybridge", "stream"),
        (8, "haswell", "dgemm"),
        (6, "ivybridge", "sra"),
        (5, "titan-xp", "sgemm"),
        (3, "titan-v", "minife"),
    ]
    .into_iter()
    .map(|(count, platform, workload)| SpecLine {
        count,
        platform: platform.to_string(),
        bench: workload.to_string(),
    })
    .collect();
    let fleet = Fleet::build(&spec).expect("fleet profiles");
    let curves = fleet_curves(&fleet);
    let global = Watts::new(130.0 * curves.len() as f64);

    bench.run("cluster/water-fill-32", || {
        let shares = water_fill(black_box(&curves), black_box(global), DEFAULT_GRANT)
            .expect("partition succeeds");
        assert_eq!(shares.len(), curves.len());
        shares
    });
}

/// The partitioner on the calm fleet mix (half ivybridge/stream, a
/// quarter each haswell/dgemm and titan-xp/sgemm) at 512 and 4096 nodes,
/// with the global budget scaled per node (70 kW per 512 nodes). The
/// median ratio shows how the fill's cost grows with fleet size.
fn cluster_water_fill_scaling(bench: &mut Bench) {
    let mut medians = Vec::new();
    for nodes in [512, 4096] {
        let fleet = calm_fleet(nodes);
        let curves = fleet_curves(&fleet);
        let global = Watts::new(70_000.0 * nodes as f64 / 512.0);
        medians.push(bench.run(&format!("cluster/water-fill-{nodes}"), || {
            let shares = water_fill(black_box(&curves), black_box(global), DEFAULT_GRANT)
                .expect("partition succeeds");
            assert_eq!(shares.len(), curves.len());
            shares
        }));
    }
    if let [Some(small), Some(large)] = medians[..] {
        bench.record_ratio("cluster/water-fill-4096-vs-512", large / small);
    }
}

/// Budget levels the epoch bench visits: whole watts evenly spread over
/// 65–75 kW per 512 nodes.
const EPOCH_LEVELS: usize = 25;
/// Levels advanced per iteration; coprime to [`EPOCH_LEVELS`], so every
/// level is visited and consecutive budgets are never equal.
const EPOCH_STRIDE: usize = 7;

/// One dynamic epoch on the calm fleet mix at 512 and 4096 nodes, with
/// no faults and a new global budget every iteration. The median ratio
/// shows how the whole epoch's cost grows with fleet size.
fn cluster_epoch_scaling(bench: &mut Bench) {
    let mut medians = Vec::new();
    for nodes in [512, 4096] {
        let per_512 = nodes as f64 / 512.0;
        let mut coord = FleetCoordinator::new(calm_fleet(nodes), Watts::new(70_000.0 * per_512))
            .expect("the budget covers the fleet floor");
        coord.provision().expect("provisioning has no sink to fail");
        let mut level = 0;
        medians.push(bench.run(&format!("cluster/epoch-{nodes}"), || {
            level = (level + EPOCH_STRIDE) % EPOCH_LEVELS;
            let kw = 65.0 + 10.0 * level as f64 / (EPOCH_LEVELS - 1) as f64;
            let budget = Watts::new((kw * 1000.0).round() * per_512);
            coord.set_global_budget(black_box(budget)).expect("the budget covers the fleet floor");
            let epoch = coord.step().expect("a calm epoch runs");
            assert_eq!(epoch.nodes_up, nodes);
            epoch
        }));
    }
    if let [Some(small), Some(large)] = medians[..] {
        bench.record_ratio("cluster/epoch-4096-vs-512", large / small);
    }
}

/// Profiling a 512-node calm fleet from cold: both registries cleared
/// every iteration, as a fresh process would start. Three classes, one
/// caller-thread shared-grid pass each.
fn cluster_fleet_build_cold(bench: &mut Bench) {
    let spec = calm_spec(512);
    bench.run("cluster/fleet-build-512-cold", || {
        CurveTable::clear_shared();
        SolveMemo::clear_shared();
        let fleet = Fleet::build(black_box(&spec)).expect("fleet profiles");
        assert_eq!(fleet.classes.len(), 3);
        fleet
    });
}

/// The calm fleet mix at `nodes` nodes (a multiple of 4).
fn calm_fleet(nodes: usize) -> Fleet {
    Fleet::build(&calm_spec(nodes)).expect("fleet profiles")
}

fn calm_spec(nodes: usize) -> Vec<SpecLine> {
    [
        (nodes / 2, "ivybridge", "stream"),
        (nodes / 4, "haswell", "dgemm"),
        (nodes / 4, "titan-xp", "sgemm"),
    ]
    .into_iter()
    .map(|(count, platform, workload)| SpecLine {
        count,
        platform: platform.to_string(),
        bench: workload.to_string(),
    })
    .collect()
}

fn fleet_curves(fleet: &Fleet) -> Vec<NodeCurve<'_>> {
    fleet
        .nodes
        .iter()
        .map(|&c| NodeCurve {
            floor: fleet.classes[c].floor,
            curve: &fleet.classes[c].curve,
        })
        .collect()
}
