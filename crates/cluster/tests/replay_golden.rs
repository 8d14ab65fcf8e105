//! Replay pins for the fleet coordinator's dynamic mode.
//!
//! * A golden fingerprint: every epoch's [`EpochReport`] and the caps
//!   enforced after it, hashed bit for bit, for a fixed set of fault
//!   plans, objectives and fleet sizes. Any change to a fault draw, an
//!   episode's onset or expiry, the validation gate, the partition or
//!   enforcement moves the hash; a refactor that claims to keep replays
//!   bit-identical must leave every constant below untouched.
//! * Re-arm continuity: arming the same plan again mid-run replaces
//!   only the plan, so crashes, stragglers, write outages and tenant
//!   episodes already in flight carry over and the run continues
//!   exactly as if it had never been re-armed.

use pbc_cluster::{parse_spec, EpochReport, Fleet, FleetCoordinator, Objective, TenantSet};
use pbc_faults::FleetFaultPlan;
use pbc_types::Watts;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn n(&mut self, x: usize) {
        self.word(x as u64);
    }
}

fn hash_epoch(h: &mut Fnv, e: &EpochReport, caps: &[Watts]) {
    h.n(e.tick);
    h.n(e.nodes_up);
    h.n(e.dropped);
    h.n(e.recovered);
    h.n(e.write_failures);
    h.n(e.write_retries);
    h.n(e.missed_reports);
    h.n(e.rejected_reports);
    h.n(usize::from(e.degraded));
    h.n(usize::from(e.round_timed_out));
    h.n(e.health.healthy);
    h.n(e.health.suspect);
    h.n(e.health.quarantined);
    h.n(e.health.rejoining);
    h.f(e.aggregate_perf);
    h.f(e.enforced_total.value());
    h.f(e.moved.value());
    h.f(e.reclaimed.value());
    h.n(e.tenant_spikes);
    h.n(e.tenant_noisy);
    h.n(e.tenant_preemptions);
    h.n(e.tenant_floor_violations);
    h.f(e.tenant_jain);
    for c in caps {
        h.f(c.value());
    }
}

/// The calm fleet mix (half ivybridge/stream, a quarter each
/// haswell/dgemm and titan-xp/sgemm) at `nodes` nodes.
fn fleet(nodes: usize) -> Fleet {
    let spec = format!(
        "{} ivybridge stream\n{} haswell dgemm\n{} titan-xp sgemm\n",
        nodes / 2,
        nodes / 4,
        nodes / 4
    );
    Fleet::build(&parse_spec(&spec).unwrap()).unwrap()
}

/// A coordinator over `nodes` nodes with 18 W per node above the fleet
/// floor, `plan` armed, and `tenants` attached when given.
fn coordinator(
    nodes: usize,
    plan: FleetFaultPlan,
    objective: Objective,
    tenants: Option<&str>,
) -> FleetCoordinator {
    let fleet = fleet(nodes);
    let global = fleet.min_total_power() + Watts::new(18.0 * nodes as f64);
    let mut coord = FleetCoordinator::new(fleet, global)
        .unwrap()
        .with_plan(plan)
        .unwrap()
        .with_objective(objective);
    if let Some(t) = tenants {
        coord = coord.with_tenants(TenantSet::parse(t).unwrap());
    }
    coord
}

/// Step `coord` for `epochs` epochs and hash what each one did.
fn fingerprint(coord: &mut FleetCoordinator, epochs: usize) -> u64 {
    let mut h = Fnv::new();
    for _ in 0..epochs {
        let e = coord.step().unwrap();
        hash_epoch(&mut h, &e, coord.enforced_caps());
    }
    h.0
}

const TENANTS: &str = "web:3:gold,etl:2:silver,batch:1";

/// `(plan, nodes, objective, tenants, fingerprint)`, recorded before
/// the fleet fault decisions moved out of the coordinator.
const GOLDEN: [(&str, usize, Objective, Option<&str>, u64); 6] = [
    ("everything", 8, Objective::MaxMin, Some(TENANTS), 0x7a92_0cbb_5070_2725),
    ("everything", 32, Objective::MaxMin, Some(TENANTS), 0xec4f_38d8_09a4_fb1e),
    ("stragglers", 8, Objective::Throughput, None, 0xfc17_61c5_0c88_8332),
    ("stragglers", 32, Objective::Throughput, None, 0x027b_2c74_93f6_2b64),
    ("write-outage", 8, Objective::Throughput, None, 0x3f67_fc05_d91b_131d),
    ("write-outage", 32, Objective::Throughput, None, 0xab19_add6_c300_0efd),
];

#[test]
fn fault_replays_match_their_golden_fingerprints() {
    let mut wrong = Vec::new();
    for (name, nodes, objective, tenants, want) in GOLDEN {
        let plan = FleetFaultPlan::by_name(name, 42).unwrap();
        let epochs = plan.quiet_after() + 6;
        let got = fingerprint(&mut coordinator(nodes, plan, objective, tenants), epochs);
        if got != want {
            wrong.push(format!("{name} at {nodes} nodes: {got:#018x} (want {want:#018x})"));
        }
    }
    assert!(wrong.is_empty(), "replays moved:\n{}", wrong.join("\n"));
}

#[test]
fn re_arming_the_same_plan_mid_run_continues_the_unbroken_run() {
    for nodes in [8, 32] {
        let plan = FleetFaultPlan::everything(7);
        let epochs = plan.quiet_after() + 6;
        let mut unbroken = coordinator(nodes, plan.clone(), Objective::MaxMin, Some(TENANTS));
        let want = fingerprint(&mut unbroken, epochs);
        // Re-arm in the thick of it: crashes, stragglers, write outages
        // and tenant episodes are all in flight around tick 12.
        for k in [1, 12, 25] {
            let mut coord = coordinator(nodes, plan.clone(), Objective::MaxMin, Some(TENANTS));
            let mut h = Fnv::new();
            for _ in 0..k {
                let e = coord.step().unwrap();
                hash_epoch(&mut h, &e, coord.enforced_caps());
            }
            let mut coord = coord.with_plan(plan.clone()).unwrap();
            for _ in k..epochs {
                let e = coord.step().unwrap();
                hash_epoch(&mut h, &e, coord.enforced_caps());
            }
            assert_eq!(h.0, want, "{nodes} nodes, re-armed after {k} epochs");
        }
    }
}
