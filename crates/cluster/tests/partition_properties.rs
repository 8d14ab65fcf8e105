//! Property tests for the water-filling partitioner — the contract the
//! cluster layer's correctness rests on:
//!
//! * **conservation** — the shares sum to exactly the global budget;
//! * **feasibility** — every share ≥ that node's floor, which itself is
//!   ≥ the platform's `min_node_power`;
//! * **determinism** — the partition (and everything feeding it: curve
//!   profiling, per-node evaluation) is bit-identical whatever ran
//!   before it: the caller-thread profile equals the pooled shared-grid
//!   oracle at 1, 2 and 8 executors (mirroring
//!   `sweep_curve_equivalence.rs`), and a fleet profiled from a cold
//!   memo decides exactly like one profiled from a warm memo. Thread
//!   counts are pinned with explicit `Pool::new(n)` instances rather
//!   than by mutating `PBC_THREADS`, which is process-global.

use pbc_cluster::{
    fill_shares, parse_spec, water_fill, Fleet, FleetCoordinator, NodeClass, NodeCurve,
    Objective, PerfCurve, DEFAULT_GRANT,
};
use pbc_core::{sweep_curve_with_pool, PowerBoundedProblem, DEFAULT_STEP};
use pbc_par::Pool;
use pbc_platform::presets::by_id;
use pbc_platform::PlatformId;
use pbc_powersim::SolveMemo;
use pbc_types::{Watts, XorShift64Star};
use pbc_workloads::by_name;

const MIXED_SPEC: &str = "6 ivybridge stream\n\
                          4 haswell dgemm\n\
                          3 ivybridge sra\n\
                          2 titan-xp sgemm\n\
                          1 titan-v minife\n";

fn mixed_fleet() -> Fleet {
    let spec = parse_spec(MIXED_SPEC).unwrap();
    Fleet::build(&spec).unwrap()
}

fn fleet_curves(fleet: &Fleet) -> Vec<NodeCurve<'_>> {
    fleet
        .nodes
        .iter()
        .map(|&c| NodeCurve { floor: fleet.classes[c].floor, curve: &fleet.classes[c].curve })
        .collect()
}

/// A class's table re-profiled by the pooled shared-grid oracle from a
/// cold memo: the same budget ladder `CurveTable::profile` walks, swept
/// on `pool`.
fn pooled_curve(class: &NodeClass, pool: &Pool) -> PerfCurve {
    let table = &class.curve;
    let ceiling = class.ceiling.max(table.floor + table.step);
    let mut ladder = Vec::new();
    let mut b = table.floor;
    while b < ceiling {
        ladder.push(b);
        b = b + table.step;
    }
    ladder.push(ceiling);
    let problem =
        PowerBoundedProblem::new(class.platform.clone(), class.demand.clone(), ladder[0]).unwrap();
    SolveMemo::clear_shared();
    let profiles = sweep_curve_with_pool(&problem, &ladder, DEFAULT_STEP, pool).unwrap();
    PerfCurve {
        floor: table.floor,
        step: table.step,
        perf: profiles.iter().map(|p| p.perf_max()).collect(),
        allocs: profiles.iter().map(|p| p.best().map(|pt| pt.alloc)).collect(),
    }
}

#[test]
fn shares_conserve_the_global_budget() {
    let fleet = mixed_fleet();
    let curves = fleet_curves(&fleet);
    // From barely feasible to far past saturation.
    for slack in [0.0, 25.0, 150.0, 600.0, 5000.0] {
        let global = fleet.min_total_power() + Watts::new(slack);
        let shares = water_fill(&curves, global, DEFAULT_GRANT).unwrap();
        let total: f64 = shares.iter().map(|s| s.value()).sum();
        assert!(
            (total - global.value()).abs() < 1e-6,
            "slack {slack}: shares sum to {total}, budget is {}",
            global.value()
        );
    }
}

#[test]
fn every_share_covers_the_node_floor_and_the_platform_minimum() {
    let fleet = mixed_fleet();
    let curves = fleet_curves(&fleet);
    let global = fleet.min_total_power() + Watts::new(180.0);
    let shares = water_fill(&curves, global, DEFAULT_GRANT).unwrap();
    for (i, share) in shares.iter().enumerate() {
        let class = fleet.class_of(i);
        assert!(
            *share >= class.floor,
            "node {i}: share {share:?} below class floor {:?}",
            class.floor
        );
        assert!(
            *share >= class.platform.min_node_power(),
            "node {i}: share {share:?} below min_node_power {:?}",
            class.platform.min_node_power()
        );
    }
}

#[test]
fn infeasible_global_budget_is_refused_with_the_true_minimum() {
    let fleet = mixed_fleet();
    let curves = fleet_curves(&fleet);
    let short = fleet.min_total_power() - Watts::new(0.5);
    let err = water_fill(&curves, short, DEFAULT_GRANT).unwrap_err();
    assert!(err.is_infeasible(), "expected BudgetTooSmall, got {err}");
}

/// The determinism property: the fleet's caller-thread curves equal the
/// pooled oracle's on 1, 2 and 8 executors, rung for rung, and so do the
/// shares water-filling derives from them.
#[test]
fn partition_is_bit_identical_across_thread_counts() {
    let fleet = mixed_fleet();
    let global = fleet.min_total_power() + Watts::new(200.0);
    let bits = |curves: &[NodeCurve<'_>]| -> Vec<u64> {
        let shares = water_fill(curves, global, DEFAULT_GRANT).unwrap();
        shares.iter().map(|s| s.value().to_bits()).collect()
    };
    let want = bits(&fleet_curves(&fleet));
    for threads in [1, 2, 8] {
        let pool = Pool::new(threads);
        let tables: Vec<PerfCurve> =
            fleet.classes.iter().map(|class| pooled_curve(class, &pool)).collect();
        for (class, table) in fleet.classes.iter().zip(&tables) {
            assert_eq!(
                class.curve, *table,
                "{}/{}: curve diverges from the pooled oracle at {threads} threads",
                class.platform.id, class.bench
            );
        }
        let curves: Vec<NodeCurve<'_>> = fleet
            .nodes
            .iter()
            .map(|&c| NodeCurve { floor: fleet.classes[c].floor, curve: &tables[c] })
            .collect();
        assert_eq!(bits(&curves), want, "shares diverge at {threads} threads");
    }
}

/// Same property one layer up: the full coordinate() decision (shares,
/// allocations, priced performance) replays bit-identically whether the
/// fleet was profiled from a cold memo or from the warm one a previous
/// build left behind.
#[test]
fn cluster_decisions_are_bit_identical_from_a_cold_or_warm_memo() {
    let decide = |fleet: Fleet| {
        let global = fleet.min_total_power() + Watts::new(200.0);
        let coord = FleetCoordinator::new(fleet, global).unwrap();
        let d = coord.coordinate().unwrap();
        let shares: Vec<u64> = d.shares.iter().map(|s| s.value().to_bits()).collect();
        let perfs: Vec<u64> = d.perfs.iter().map(|p| p.to_bits()).collect();
        (shares, perfs, d.aggregate_perf.to_bits())
    };
    SolveMemo::clear_shared();
    let cold = decide(mixed_fleet());
    let warm = decide(mixed_fleet());
    assert_eq!(cold, warm, "decision diverges between a cold and a warm memo");
}

/// A single-class fleet has no heterogeneity to exploit: water-filling
/// and uniform-split must agree (up to the grant quantum's rounding).
#[test]
fn homogeneous_fleet_degenerates_to_an_even_split() {
    let spec = parse_spec("4 ivybridge stream").unwrap();
    let fleet = Fleet::build(&spec).unwrap();
    let curves = fleet_curves(&fleet);
    let global = fleet.min_total_power() + Watts::new(160.0);
    let shares = water_fill(&curves, global, DEFAULT_GRANT).unwrap();
    let even = global.value() / 4.0;
    for share in &shares {
        assert!(
            (share.value() - even).abs() <= DEFAULT_GRANT.value() * 4.0,
            "homogeneous share {share:?} strays from the even split {even}"
        );
    }
}

/// The ceiling contract across every objective: for randomized synthetic
/// fleets whose combined ceilings can absorb the budget, no node is ever
/// pushed past its own ceiling — the regression the even-spread
/// conservation step and the unclamped greedy grant both violated.
#[test]
fn no_objective_ever_breaches_a_ceiling_the_fleet_can_absorb() {
    let mut rng = XorShift64Star::new(0x5AFE_FA11_CE11_0001);
    for case in 0..240 {
        let n = 2 + (rng.next_u64() % 10) as usize;
        let mut curves = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            let floor = 20.0 + 100.0 * rng.next_f64();
            let rungs = 1 + (rng.next_u64() % 12) as usize;
            let rise = 3.0 * rng.next_f64();
            let perf: Vec<f64> = (0..=rungs).map(|k| rise * k as f64).collect();
            let allocs = vec![None; perf.len()];
            curves.push(PerfCurve {
                floor: Watts::new(floor),
                step: Watts::new(8.0),
                perf,
                allocs,
            });
            weights.push(0.5 + 3.5 * rng.next_f64());
        }
        let nodes: Vec<NodeCurve<'_>> = curves
            .iter()
            .map(|c| NodeCurve { floor: c.floor, curve: c })
            .collect();
        let floor_sum: f64 = nodes.iter().map(|c| c.floor.value()).sum();
        let ceiling_sum: f64 = nodes.iter().map(|c| c.curve.ceiling().value()).sum();
        // Anywhere from exactly-the-floors to exactly-the-ceilings.
        let global = Watts::new(floor_sum + (ceiling_sum - floor_sum) * rng.next_f64());
        let grant = Watts::new([2.0, 4.0, 16.0][(rng.next_u64() % 3) as usize]);
        for objective in [Objective::Throughput, Objective::MaxMin, Objective::WeightedShares] {
            let w: &[f64] = if objective == Objective::WeightedShares { &weights } else { &[] };
            let shares = fill_shares(&nodes, w, global, grant, objective)
                .unwrap_or_else(|e| panic!("case {case} {}: refused: {e}", objective.name()));
            let total: f64 = shares.iter().map(|s| s.value()).sum();
            assert!(
                (total - global.value()).abs() < 1e-6,
                "case {case} {}: shares sum to {total}, budget is {}",
                objective.name(),
                global.value()
            );
            for (i, share) in shares.iter().enumerate() {
                assert!(
                    *share >= nodes[i].floor - Watts::new(1e-9),
                    "case {case} {} node {i}: share {share:?} below floor {:?}",
                    objective.name(),
                    nodes[i].floor
                );
                assert!(
                    share.value() <= nodes[i].curve.ceiling().value() + 1e-6,
                    "case {case} {} node {i}: share {share:?} breaches ceiling {:?}",
                    objective.name(),
                    nodes[i].curve.ceiling()
                );
            }
        }
    }
}

#[test]
fn floors_match_the_profiled_platforms() {
    // The curve floor a class reports is the same value `node_floor`
    // computes from the platform and demand — no hidden state.
    let fleet = mixed_fleet();
    for class in &fleet.classes {
        let again = PerfCurve::profile(&class.platform, &class.demand).unwrap();
        assert_eq!(class.curve.floor.value().to_bits(), again.floor.value().to_bits());
        assert_eq!(class.curve.perf.len(), again.perf.len());
    }
    // And every preset the spec names is really the preset registry's.
    for id in [PlatformId::IvyBridge, PlatformId::Haswell] {
        assert!(by_id(id).min_node_power() > Watts::ZERO);
    }
    assert!(by_name("stream").is_some());
}
