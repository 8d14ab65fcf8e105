//! The fleet coordinator: one global budget, N nodes, two layers of
//! coordination — and the fault tolerance that keeps the bound honest
//! when nodes crash, lag, or lie.
//!
//! Layer one is the water-filling partition ([`crate::partition`]): the
//! global budget becomes per-node shares ranked by marginal gain. Layer
//! two is the paper's per-node COORD on each share, with the resulting
//! allocation priced by the memo-backed power simulator. A node's
//! evaluation is a pure function of its class and share, and costs well
//! under a microsecond, so it runs in order on the caller's thread, and
//! the dynamic mode re-prices only the nodes whose share changed since
//! their last pricing.
//!
//! The dynamic mode ([`FleetCoordinator::step`]) is the paper's
//! observe → decide → enforce loop at fleet scale. Every fault it meets
//! is decided by one [`FleetFaults`] (in `pbc-faults`): the armed
//! [`FleetFaultPlan`] and the episodes in flight. Each epoch runs:
//!
//! 1. **Faults roll**: crashes, stragglers, write outages and tenant
//!    demand episodes start and end, each draw from a fresh generator
//!    keyed `(seed, tick, stream, entity)`, never shared state, so a
//!    chaos run replays bit-identically.
//! 2. **Reports arrive** (or don't): every node's observation of the
//!    previous epoch, dropped, delayed or garbled on the way, passes
//!    the observation rule `OnlineCoordinator` also applies
//!    ([`pbc_core::validate_observation`]: non-finite, out-of-range and
//!    stale-cap rejection) before it may steer the partition.
//! 3. **Health updates**: verdicts drive the per-node Healthy →
//!    Suspect → Quarantined → Rejoining machine ([`crate::health`]).
//! 4. **Mode decides**: a coordinator outage, a timed-out previous
//!    round, or an infeasible fill drops the epoch to the precomputed
//!    [`StaticFallback`] partition, whose shares sum ≤ the global
//!    budget by construction ([`crate::degrade`]).
//! 5. **Targets partition**: water-fill over Healthy + Suspect nodes,
//!    with Quarantined/Rejoining nodes reserved at their class floors
//!    and Suspects capped at their standing grant (no raises on
//!    untrusted telemetry).
//! 6. **Shares are evaluated**: COORD and the memo-priced solve run
//!    only for live nodes whose share bits moved; every other live node
//!    reuses its last pricing. Stragglers' throughput is then slowed.
//! 7. **Enforcement lands**, decreases first, each write tried up to
//!    four times back to back under a per-round attempt deadline:
//!    watts freed by confirmed lowerings (and by dead nodes) fund the
//!    raises; a failed lowering keeps its watts reserved; a blown
//!    deadline ends the round and degrades the next epoch. The pot for
//!    raises only ever shrinks, so `Σ enforced ≤ global` is an
//!    invariant — `cluster.budget_violations` and
//!    `health.quarantine_leaks` stay zero by construction, not by luck.

use crate::degrade::StaticFallback;
use crate::fleet::{Fleet, NodeClass};
use crate::health::{HealthCounts, HealthTracker, NodeHealth, ReportVerdict};
use crate::partition::{fill_shares, uniform_split, NodeCurve, Objective, DEFAULT_GRANT};
use crate::tenant::{jain_index, TenantSet};
use pbc_core::{validate_observation, ObservationOutcome};
use pbc_faults::{FaultClock, FleetFaultPlan, FleetFaults};
use pbc_powersim::SolveMemo;
use pbc_rapl::RetryPolicy;
use pbc_trace::names;
use pbc_types::{PbcError, PowerAllocation, Result, Watts, CAP_QUANTUM};
use std::sync::Arc;

/// Attempts per cap write, retries included; retries run back to back,
/// so fault storms replay at full speed.
const WRITE_ATTEMPTS: u32 = RetryPolicy::no_backoff().max_attempts;

/// Where a node's cap writes land. The simulated chaos runs wire this
/// to a mock RAPL sysfs tree so "enforced" means a real file changed;
/// a daemon would wire it to per-host RPC.
pub trait CapSink {
    /// Persist `cap` as node `node`'s power limit. An `Err` counts as a
    /// failed write attempt and is retried under the round's policy.
    fn write_cap(&mut self, node: usize, cap: Watts) -> Result<()>;
}

/// One evaluated partition: the shares, what COORD made of them, and
/// the simulator-priced performance.
#[derive(Debug, Clone)]
pub struct ClusterDecision {
    /// Per-node budget shares (the caps to enforce).
    pub shares: Vec<Watts>,
    /// Per-node COORD allocations; `None` when the share was
    /// unschedulable on that node.
    pub allocs: Vec<Option<PowerAllocation>>,
    /// Per-node simulated relative throughput (0.0 for unschedulable or
    /// down nodes).
    pub perfs: Vec<f64>,
    /// Sum of `perfs` — the cluster's aggregate throughput.
    pub aggregate_perf: f64,
    /// How many nodes could not schedule their share.
    pub infeasible: usize,
}

/// What one dynamic epoch did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// The completed tick this report covers.
    pub tick: usize,
    /// Nodes live at the end of the epoch.
    pub nodes_up: usize,
    /// Nodes that crashed this epoch.
    pub dropped: usize,
    /// Nodes that came back up this epoch.
    pub recovered: usize,
    /// Cap writes that failed after exhausting their retries.
    pub write_failures: usize,
    /// Retry attempts spent absorbing transient write failures.
    pub write_retries: usize,
    /// Observation reports that never arrived.
    pub missed_reports: usize,
    /// Observation reports rejected by validation.
    pub rejected_reports: usize,
    /// Did this epoch run on the static fallback partition?
    pub degraded: bool,
    /// Did enforcement blow its attempt deadline this epoch?
    pub round_timed_out: bool,
    /// Health census at the end of the epoch.
    pub health: HealthCounts,
    /// Aggregate relative throughput across live nodes.
    pub aggregate_perf: f64,
    /// Sum of enforced caps after the epoch (must stay ≤ global).
    pub enforced_total: Watts,
    /// Watts that changed hands between nodes this epoch.
    pub moved: Watts,
    /// Watts freed for the healthy pool by down/quarantined/rejoining
    /// nodes, relative to the static fallback partition.
    pub reclaimed: Watts,
    /// Tenant demand spikes that started this epoch.
    pub tenant_spikes: usize,
    /// Noisy-neighbor stretches that started this epoch.
    pub tenant_noisy: usize,
    /// Lower-SLA tenants preempted on some node this epoch (summed over
    /// live nodes).
    pub tenant_preemptions: usize,
    /// Tenants allocated below their weighted floor on some node —
    /// structurally zero.
    pub tenant_floor_violations: usize,
    /// Jain fairness index over the weight-normalized per-tenant fleet
    /// allocations (1.0 when the fleet runs single-tenant).
    pub tenant_jain: f64,
}

/// Survival summary of a dynamic run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterReport {
    /// Epochs executed.
    pub epochs: usize,
    /// Total crash events.
    pub dropouts: usize,
    /// Total nodes-came-back events.
    pub recoveries: usize,
    /// Total cap writes that failed after retries.
    pub write_failures: usize,
    /// Total retry attempts spent on transient write failures.
    pub write_retries: usize,
    /// Epochs whose enforced total exceeded the global budget. The
    /// decreases-first discipline makes this zero by construction.
    pub budget_violations: usize,
    /// Epochs where raises were funded by watts not yet confirmed freed
    /// — also structurally zero.
    pub quarantine_leaks: usize,
    /// Enforcement rounds that blew their attempt deadline.
    pub round_timeouts: usize,
    /// Epochs served from the static fallback partition.
    pub degraded_epochs: usize,
    /// Observation reports that never arrived.
    pub missed_reports: usize,
    /// Observation reports rejected by validation.
    pub rejected_reports: usize,
    /// Transitions into Quarantined.
    pub quarantines: usize,
    /// Quarantined → Rejoining transitions.
    pub rejoins: usize,
    /// Smallest live-node count seen.
    pub min_nodes_up: usize,
    /// Aggregate throughput at the final epoch.
    pub final_aggregate: f64,
    /// Mean aggregate throughput across epochs.
    pub mean_aggregate: f64,
    /// Healthy node-epochs over total node-epochs (1.0 = nobody ever
    /// left full service).
    pub availability: f64,
    /// Σ aggregate throughput across epochs — the run's useful work, in
    /// node-epoch units, for comparison against a never-fails oracle.
    pub work_done: f64,
    /// First tick at or past the plan's quiet point where every node
    /// was Healthy on an undegraded epoch; `None` if the run ended
    /// before reconverging.
    pub reconverged_at: Option<usize>,
    /// Total tenant demand-spike events.
    pub tenant_spikes: usize,
    /// Total noisy-neighbor events.
    pub tenant_noisy: usize,
    /// Total tenant preemption events (lower tiers squeezed out by
    /// higher-SLA demand).
    pub tenant_preemptions: usize,
    /// Node-epoch × tenant allocations below the weighted floor — the
    /// third structural invariant; must be zero.
    pub tenant_floor_violations: usize,
    /// Smallest per-epoch Jain fairness index seen (1.0 for runs with
    /// no tenants attached, or zero epochs).
    pub min_tenant_jain: f64,
}

impl ClusterReport {
    /// Did the run hold the structural invariants — no budget overdraw,
    /// no quarantine leak, no tenant starved below its weighted floor?
    #[must_use]
    pub fn survived(&self) -> bool {
        self.budget_violations == 0
            && self.quarantine_leaks == 0
            && self.tenant_floor_violations == 0
    }
}

/// One node's last evaluation: the share it priced, by bits, and what
/// COORD and the simulator made of it (before any straggler slowdown).
#[derive(Debug, Clone, Copy)]
struct Priced {
    share_bits: u64,
    alloc: Option<PowerAllocation>,
    perf: f64,
}

/// What supervised enforcement did in one round.
#[derive(Debug, Clone, Copy, Default)]
struct WriteStats {
    failures: usize,
    retries: usize,
    timed_out: bool,
}

/// What the tenant sub-partition did in one epoch.
#[derive(Debug, Clone, Copy)]
struct TenancyStats {
    jain: f64,
    preemptions: usize,
    floor_violations: usize,
}

impl Default for TenancyStats {
    fn default() -> Self {
        // No tenants, nothing unfair: a perfect score, zero events.
        Self { jain: 1.0, preemptions: 0, floor_violations: 0 }
    }
}

/// Hierarchical, fault-tolerant coordinator for a fleet under one
/// global budget.
pub struct FleetCoordinator {
    fleet: Fleet,
    global: Watts,
    /// The budget the coordinator was built with; plan budget steps are
    /// factors of this.
    initial_global: Watts,
    grant: Watts,
    /// The armed fault plan and every fault episode in flight.
    faults: FleetFaults,
    clock: FaultClock,
    health: HealthTracker,
    fallback: StaticFallback,
    /// Cap currently enforced on each node (starts at zero: nothing has
    /// been granted before the first epoch).
    enforced: Vec<Watts>,
    /// Enforced caps as of one epoch earlier — what a delayed or
    /// straggling report describes.
    enforced_hist: Vec<Watts>,
    /// Target shares of the previous epoch, for redistribution stats.
    prev_targets: Vec<Watts>,
    /// The previous epoch's decision, stragglers slowed; reports carry
    /// its per-node throughput (zero before the first epoch).
    last: Option<ClusterDecision>,
    /// Each class's shared solver memo, resolved once at construction.
    memos: Vec<Arc<SolveMemo>>,
    /// Each node's last pricing, reused while its share's bits hold.
    priced: Vec<Option<Priced>>,
    /// The previous enforcement round blew its deadline; this epoch
    /// must run degraded.
    prev_round_timed_out: bool,
    sink: Option<Box<dyn CapSink + Send>>,
    /// What the partitioner optimizes (throughput water-fill by
    /// default; max-min or weighted shares for multi-tenant fleets).
    objective: Objective,
    /// Tenants co-located on every node; `None` runs single-tenant.
    tenants: Option<TenantSet>,
}

impl std::fmt::Debug for FleetCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetCoordinator")
            .field("nodes", &self.fleet.len())
            .field("global", &self.global)
            .field("plan", &self.faults.plan().name)
            .field("health", &self.health.counts())
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl FleetCoordinator {
    /// Build a coordinator over `fleet` with `global` watts to divide.
    /// Fails fast when the budget cannot cover every node's floor —
    /// which also guarantees a static fallback partition exists.
    #[must_use = "the coordinator result carries either the coordinator or the infeasibility"]
    pub fn new(fleet: Fleet, global: Watts) -> Result<Self> {
        check_budget(&fleet, global)?;
        let fallback = StaticFallback::compute(&fleet, global)?;
        let n = fleet.len();
        pbc_trace::gauge(names::CLUSTER_NODES).set(n as f64);
        // Register the invariant counters so every trace exports them
        // even at zero — absence must never read as cleanliness.
        let _ = pbc_trace::counter(names::CLUSTER_BUDGET_VIOLATIONS);
        let _ = pbc_trace::counter(names::CLUSTER_WRITE_FAILURES);
        let _ = pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS);
        Ok(Self {
            global,
            initial_global: global,
            grant: DEFAULT_GRANT,
            faults: FleetFaults::new(n),
            clock: FaultClock::new(),
            health: HealthTracker::new(n),
            fallback,
            enforced: vec![Watts::ZERO; n],
            enforced_hist: vec![Watts::ZERO; n],
            prev_targets: vec![Watts::ZERO; n],
            last: None,
            memos: fleet
                .classes
                .iter()
                .map(|c| SolveMemo::for_problem(&c.platform, &c.demand))
                .collect(),
            priced: vec![None; n],
            prev_round_timed_out: false,
            sink: None,
            objective: Objective::Throughput,
            tenants: None,
            fleet,
        })
    }

    /// Arm a fault plan for the dynamic mode. Re-arming mid-run
    /// replaces only the plan: fault episodes already in flight run on.
    #[must_use = "the armed coordinator is returned by value"]
    pub fn with_plan(mut self, plan: FleetFaultPlan) -> Result<Self> {
        self.faults.arm(plan)?;
        Ok(self)
    }

    /// Land every successful cap write in `sink` as well (e.g. a mock
    /// RAPL tree). A sink error counts as a failed attempt.
    #[must_use = "the configured coordinator is returned by value"]
    pub fn with_cap_sink(mut self, sink: Box<dyn CapSink + Send>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Choose the allocation objective (defaults to
    /// [`Objective::Throughput`], the historical water-fill).
    #[must_use = "the configured coordinator is returned by value"]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Attach a tenant set: every node's share is sub-partitioned among
    /// these tenants (weighted floors first, then surplus by SLA tier),
    /// and per-epoch fairness is scored with Jain's index.
    #[must_use = "the configured coordinator is returned by value"]
    pub fn with_tenants(mut self, tenants: TenantSet) -> Self {
        pbc_trace::gauge(names::CLUSTER_TENANTS).set(tenants.len() as f64);
        // Register the invariant counter so every multi-tenant trace
        // exports it even at zero (see the same pattern in `new`).
        let _ = pbc_trace::counter(names::CLUSTER_TENANT_FLOOR_VIOLATIONS);
        self.faults.set_tenants(tenants.len());
        self.tenants = Some(tenants);
        self
    }

    /// The allocation objective in force.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The attached tenants, when the fleet runs multi-tenant.
    #[must_use]
    pub fn tenants(&self) -> Option<&TenantSet> {
        self.tenants.as_ref()
    }

    /// The fleet being coordinated.
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The global budget.
    #[must_use]
    pub fn global_budget(&self) -> Watts {
        self.global
    }

    /// The node health tracker.
    #[must_use]
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The precomputed degraded-mode partition.
    #[must_use]
    pub fn fallback(&self) -> &StaticFallback {
        &self.fallback
    }

    /// Sum of the caps currently enforced.
    #[must_use]
    pub fn enforced_total(&self) -> Watts {
        self.enforced.iter().copied().sum()
    }

    /// The caps currently enforced, node-indexed.
    #[must_use]
    pub fn enforced_caps(&self) -> &[Watts] {
        &self.enforced
    }

    /// Which nodes are currently down.
    #[must_use]
    pub fn down_mask(&self) -> Vec<bool> {
        self.faults.down_mask()
    }

    /// Boot-time provisioning: program every node to its static
    /// fallback share — through the sink when one is armed, with no
    /// fault draws, because the experiment clock has not started — and
    /// record the shares as enforced. The fallback sums to ≤ the global
    /// budget by construction, so `Σ enforced ≤ global` holds from the
    /// first tick instead of starting vacuously at zero.
    #[must_use = "a failed provisioning write leaves the sink and coordinator disagreeing"]
    pub fn provision(&mut self) -> Result<()> {
        for i in 0..self.fleet.len() {
            let share = self.fallback.share(i);
            if let Some(sink) = self.sink.as_mut() {
                sink.write_cap(i, share)?;
            }
            self.enforced[i] = share;
        }
        self.enforced_hist = self.enforced.clone();
        Ok(())
    }

    /// Re-negotiate the global budget mid-run. Rejects non-finite,
    /// non-positive, and below-fleet-floor budgets (counted under
    /// `cluster.rejected_budgets`); an accepted budget recomputes the
    /// static fallback so degraded mode stays safe under the new bound.
    #[must_use = "a rejected budget means the old bound is still in force"]
    pub fn set_global_budget(&mut self, budget: Watts) -> Result<()> {
        check_budget(&self.fleet, budget)
            .inspect_err(|_| pbc_trace::counter(names::CLUSTER_REJECTED_BUDGETS).incr())?;
        self.fallback = StaticFallback::compute(&self.fleet, budget)?;
        self.global = budget;
        pbc_trace::counter(names::CLUSTER_BUDGET_RESETS).incr();
        Ok(())
    }

    /// Water-fill the global budget and evaluate every node's share
    /// from scratch.
    #[must_use = "the decision result carries either the partition or the failure"]
    pub fn coordinate(&self) -> Result<ClusterDecision> {
        let curves = self.node_curves();
        let shares = fill_shares(&curves, &[], self.global, self.grant, self.objective)?;
        self.evaluate_fresh(&shares)
    }

    /// The baseline: split the global budget evenly, floors and curves
    /// ignored, and evaluate the same way. On a heterogeneous fleet the
    /// even share under-feeds hungry nodes and strands watts on
    /// saturated ones — the gap the experiments measure.
    #[must_use = "the decision result carries either the partition or the failure"]
    pub fn uniform_decision(&self) -> Result<ClusterDecision> {
        self.evaluate_fresh(&uniform_split(self.fleet.len(), self.global))
    }

    /// Evaluate `shares` with every node live and no pricing to reuse.
    fn evaluate_fresh(&self, shares: &[Watts]) -> Result<ClusterDecision> {
        let n = self.fleet.len();
        evaluate(&self.fleet, &self.memos, &mut vec![None; n], shares, &vec![false; n])
    }

    /// The oracle aggregate at the water-filled shares: what the
    /// interpolated sweep curves promise, with no COORD heuristic or
    /// enforcement in the way. An upper reference line for `ext7`.
    #[must_use = "the oracle result carries either the aggregate or the infeasibility"]
    pub fn oracle_aggregate(&self) -> Result<f64> {
        let curves = self.node_curves();
        let shares = fill_shares(&curves, &[], self.global, self.grant, self.objective)?;
        Ok(shares
            .iter()
            .zip(curves.iter())
            .map(|(s, c)| c.curve.perf_at(*s))
            .sum())
    }

    /// One dynamic epoch (see the module docs for the pipeline).
    #[must_use = "the epoch result carries either the report or the failure"]
    pub fn step(&mut self) -> Result<EpochReport> {
        let tick = self.clock.advance();
        let n = self.fleet.len();

        // Scheduled budget re-negotiations, factors of the initial
        // budget. A rejection (e.g. a cut below the fleet floor) is
        // counted and ignored — a lying schedule must not crash the
        // fleet.
        for factor in self.faults.budget_steps(tick) {
            let _ = self.set_global_budget(self.initial_global * factor);
        }

        let rolled = self.faults.roll(tick);
        count(names::CLUSTER_DROPOUTS, rolled.crashed);
        count(names::CLUSTER_RECOVERIES, rolled.recovered);
        count(names::CLUSTER_TENANT_SPIKES, rolled.tenant_spikes);
        count(names::CLUSTER_TENANT_NOISY, rolled.tenant_noisy);
        let down = self.faults.down_mask();
        let up = down.iter().filter(|d| !**d).count();

        // Reports describe the previous epoch; collect, validate, and
        // fold the verdicts into the health machine.
        let prev_enforced = self.enforced.clone();
        let (missed_reports, rejected_reports) = self.observe_reports(tick);

        // Decide the mode and the targets.
        let mut degraded = self.faults.coordinator_outage(tick) || self.prev_round_timed_out;
        let mut targets = vec![Watts::ZERO; n];
        if !degraded && !self.fill_targets(&down, &mut targets) {
            degraded = true;
        }
        if degraded {
            pbc_trace::counter(names::CLUSTER_DEGRADED_EPOCHS).incr();
            for i in 0..n {
                if !down[i] {
                    targets[i] = self.fallback.share(i);
                }
            }
        }

        let mut decision =
            evaluate(&self.fleet, &self.memos, &mut self.priced, &targets, &down)?;
        self.slow_stragglers(&mut decision);

        let stats = self.enforce_supervised(tick, &targets, &down);
        self.prev_round_timed_out = stats.timed_out;
        if stats.timed_out {
            pbc_trace::counter(names::CLUSTER_ROUND_TIMEOUTS).incr();
        }

        // The budget invariant. Decreases-first makes a violation
        // structurally impossible; the counter is the proof the trace
        // carries out to the chaos assertions.
        let enforced_total = self.enforced_total();
        if enforced_total.value() > self.global.value() + CAP_QUANTUM {
            pbc_trace::counter(names::CLUSTER_BUDGET_VIOLATIONS).incr();
        }

        let moved_raw: f64 = targets
            .iter()
            .zip(self.prev_targets.iter())
            .map(|(now, was)| (*now - *was).abs().value())
            .sum();
        let moved = Watts::new(moved_raw / 2.0);
        if moved.value() > CAP_QUANTUM {
            pbc_trace::counter(names::CLUSTER_REDISTRIBUTIONS).incr();
        }
        self.prev_targets = targets;
        self.enforced_hist = prev_enforced;
        let aggregate_perf = decision.aggregate_perf;
        self.last = Some(decision);

        // Watts the healthy pool gained from nodes that are down or
        // held at their floors, measured against the known-safe static
        // partition.
        let reclaimed: Watts = (0..n)
            .filter(|&i| {
                down[i]
                    || matches!(
                        self.health.state(i),
                        NodeHealth::Quarantined | NodeHealth::Rejoining
                    )
            })
            .map(|i| (self.fallback.share(i) - self.enforced[i]).max(Watts::ZERO))
            .sum();

        // Tenant accounting: sub-partition every live node's enforced
        // cap, score fleet-level fairness, and verify the weighted
        // floors held — the multi-tenant mirror of the budget audit.
        let tenancy = self.tenant_epoch(&down);

        let health = self.health.counts();
        pbc_trace::counter(names::CLUSTER_EPOCHS).incr();
        pbc_trace::gauge(names::CLUSTER_NODES_UP).set(up as f64);
        pbc_trace::gauge(names::CLUSTER_MOVED_W).set(moved.value());
        pbc_trace::gauge(names::CLUSTER_AGGREGATE_PERF).set(aggregate_perf);
        pbc_trace::gauge(names::CLUSTER_RECLAIMED_W).set(reclaimed.value());
        pbc_trace::gauge(names::HEALTH_HEALTHY_NODES).set(health.healthy as f64);

        Ok(EpochReport {
            tick,
            nodes_up: up,
            dropped: rolled.crashed,
            recovered: rolled.recovered,
            write_failures: stats.failures,
            write_retries: stats.retries,
            missed_reports,
            rejected_reports,
            degraded,
            round_timed_out: stats.timed_out,
            health,
            aggregate_perf,
            enforced_total,
            moved,
            reclaimed,
            tenant_spikes: rolled.tenant_spikes,
            tenant_noisy: rolled.tenant_noisy,
            tenant_preemptions: tenancy.preemptions,
            tenant_floor_violations: tenancy.floor_violations,
            tenant_jain: tenancy.jain,
        })
    }

    /// Run `epochs` dynamic epochs and summarize.
    #[must_use = "the run result carries either the survival report or the failure"]
    pub fn run(&mut self, epochs: usize) -> Result<ClusterReport> {
        let n = self.fleet.len();
        let quiet = self.faults.plan().quiet_after();
        let tally_before = self.health.tally();
        let leaks_before = pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS).get();
        let mut report = ClusterReport {
            min_nodes_up: n,
            min_tenant_jain: 1.0,
            ..ClusterReport::default()
        };
        let mut healthy_node_epochs = 0usize;
        for _ in 0..epochs {
            let e = self.step()?;
            report.epochs += 1;
            report.dropouts += e.dropped;
            report.recoveries += e.recovered;
            report.write_failures += e.write_failures;
            report.write_retries += e.write_retries;
            report.missed_reports += e.missed_reports;
            report.rejected_reports += e.rejected_reports;
            report.tenant_spikes += e.tenant_spikes;
            report.tenant_noisy += e.tenant_noisy;
            report.tenant_preemptions += e.tenant_preemptions;
            report.tenant_floor_violations += e.tenant_floor_violations;
            report.min_tenant_jain = report.min_tenant_jain.min(e.tenant_jain);
            if e.degraded {
                report.degraded_epochs += 1;
            }
            if e.round_timed_out {
                report.round_timeouts += 1;
            }
            if e.enforced_total.value() > self.global.value() + CAP_QUANTUM {
                report.budget_violations += 1;
            }
            report.min_nodes_up = report.min_nodes_up.min(e.nodes_up);
            report.final_aggregate = e.aggregate_perf;
            report.work_done += e.aggregate_perf;
            healthy_node_epochs += e.health.healthy;
            if report.reconverged_at.is_none()
                && e.tick >= quiet
                && !e.degraded
                && e.health.healthy == n
            {
                report.reconverged_at = Some(e.tick);
            }
        }
        let tally = self.health.tally();
        report.quarantines = tally.quarantines - tally_before.quarantines;
        report.rejoins = tally.rejoins - tally_before.rejoins;
        report.quarantine_leaks = (pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS).get()
            - leaks_before) as usize;
        if report.epochs > 0 {
            report.mean_aggregate = report.work_done / report.epochs as f64;
            report.availability = healthy_node_epochs as f64 / (report.epochs * n.max(1)) as f64;
        }
        Ok(report)
    }

    /// Stragglers run slow: their contribution shrinks by the plan's
    /// slowdown factor.
    fn slow_stragglers(&self, decision: &mut ClusterDecision) {
        let mut dirty = false;
        for (i, perf) in decision.perfs.iter_mut().enumerate() {
            if let Some(slowdown) = self.faults.slowdown(i) {
                *perf *= slowdown;
                dirty = true;
            }
        }
        if dirty {
            decision.aggregate_perf = decision.perfs.iter().sum();
        }
    }

    fn node_curves(&self) -> Vec<NodeCurve<'_>> {
        self.fleet
            .nodes
            .iter()
            .map(|&c| NodeCurve {
                floor: self.fleet.classes[c].floor,
                curve: &self.fleet.classes[c].curve,
            })
            .collect()
    }

    /// Collect every node's report of the previous epoch, faults
    /// applied, pass it through the observation rule `OnlineCoordinator`
    /// applies ([`validate_observation`]), and fold the verdict into the
    /// health machine. The honest report is the cap the node ran on,
    /// which is still the enforced one, and the throughput it measured.
    /// Returns `(missed, rejected)` counts for the epoch.
    fn observe_reports(&mut self, tick: usize) -> (usize, usize) {
        let mut missed = 0;
        let mut rejected = 0;
        for i in 0..self.fleet.len() {
            let ran = self.enforced[i];
            let perf = self.last.as_ref().map_or(0.0, |d| d.perfs[i]);
            let verdict = match self.faults.report(tick, i, ran, self.enforced_hist[i], perf) {
                None => {
                    missed += 1;
                    pbc_trace::counter(names::CLUSTER_MISSED_REPORTS).incr();
                    ReportVerdict::Missing
                }
                Some((cap, perf))
                    if validate_observation(perf, &[], &[(cap, ran)])
                        != ObservationOutcome::Used =>
                {
                    rejected += 1;
                    pbc_trace::counter(names::CLUSTER_REJECTED_REPORTS).incr();
                    ReportVerdict::Rejected
                }
                Some(_) => ReportVerdict::Accepted,
            };
            self.health.observe(i, verdict);
        }
        (missed, rejected)
    }

    /// Water-fill targets over the trusted membership. Healthy and
    /// Suspect nodes participate; Quarantined and Rejoining nodes are
    /// reserved at their class floors (a possibly-alive node is never
    /// starved below its floor); Suspects are then capped at their
    /// standing grant so untrusted telemetry cannot win raises. Returns
    /// `false` when the fill is infeasible — the caller degrades.
    fn fill_targets(&self, down: &[bool], targets: &mut [Watts]) -> bool {
        let n = self.fleet.len();
        let curves = self.node_curves();
        let mut allocatable = Vec::new();
        let mut reserved = Watts::ZERO;
        for i in 0..n {
            if down[i] {
                continue;
            }
            match self.health.state(i) {
                NodeHealth::Healthy | NodeHealth::Suspect => allocatable.push(i),
                NodeHealth::Quarantined | NodeHealth::Rejoining => {
                    let floor = self.fleet.class_of(i).floor;
                    targets[i] = floor;
                    reserved += floor;
                }
            }
        }
        if reserved > self.global {
            return false;
        }
        if allocatable.is_empty() {
            return true;
        }
        let avail = self.global - reserved;
        let live_curves: Vec<NodeCurve<'_>> = allocatable.iter().map(|&i| curves[i]).collect();
        // The fill only fails on infeasibility today; any failure
        // degrades the epoch — degraded is the safe floor.
        let Ok(shares) = fill_shares(&live_curves, &[], avail, self.grant, self.objective) else {
            return false;
        };
        for (k, &i) in allocatable.iter().enumerate() {
            targets[i] = shares[k];
            if self.health.state(i) == NodeHealth::Suspect {
                // No raises on untrusted telemetry: hold at the larger
                // of the standing cap and the floor. The clamped watts
                // stay unspent this epoch — the safe direction.
                let hold = self.enforced[i].max(self.fleet.class_of(i).floor);
                targets[i] = targets[i].min(hold);
            }
        }
        true
    }

    /// Sub-partition every live node's enforced cap among the tenants
    /// and score the epoch: fleet-level Jain index on weight-normalized
    /// tenant watts, preemption events, and weighted-floor violations
    /// (structurally zero). Single-tenant fleets score a perfect 1.
    fn tenant_epoch(&self, down: &[bool]) -> TenancyStats {
        let Some(tenants) = self.tenants.as_ref() else {
            return TenancyStats::default();
        };
        let demand = self.faults.tenant_demand();
        let mut watts = vec![0.0f64; tenants.len()];
        let mut preemptions = 0;
        let mut floor_violations = 0;
        for i in 0..self.fleet.len() {
            if down[i] || self.enforced[i].value() <= CAP_QUANTUM {
                continue;
            }
            let floor = self.fleet.class_of(i).floor;
            let split = tenants.split_node(self.enforced[i], floor, &demand);
            preemptions += split.preemptions;
            floor_violations += split.floor_violations;
            for (t, s) in split.shares.iter().enumerate() {
                watts[t] += s.value();
            }
        }
        let normalized: Vec<f64> = watts
            .iter()
            .zip(tenants.tenants().iter())
            .map(|(w, t)| w / t.weight)
            .collect();
        let jain = jain_index(&normalized);
        count(names::CLUSTER_TENANT_PREEMPTIONS, preemptions);
        count(names::CLUSTER_TENANT_FLOOR_VIOLATIONS, floor_violations);
        pbc_trace::gauge(names::CLUSTER_TENANT_JAIN).set(jain);
        TenancyStats { jain, preemptions, floor_violations }
    }

    /// Move enforced caps toward `targets`, decreases first, each write
    /// tried up to [`WRITE_ATTEMPTS`] times under a per-round attempt
    /// deadline. A down node's cap releases unconditionally (its draw
    /// is gone whether or not a write lands); a failed decrease keeps
    /// its watts reserved; raises are funded strictly from the pot the
    /// confirmed decreases left, so `Σ enforced ≤ global` is an
    /// invariant, not an aspiration.
    fn enforce_supervised(&mut self, tick: usize, targets: &[Watts], down: &[bool]) -> WriteStats {
        let n = targets.len();
        let mut stats = WriteStats::default();
        // The round's write-attempt deadline: enough for every node's
        // write to retry once on average. A fault storm that needs more
        // is a timed-out round, not a wedged fleet.
        let mut attempts_left = n * WRITE_ATTEMPTS as usize;

        // Phase 1: releases.
        for i in 0..n {
            if down[i] {
                self.enforced[i] = Watts::ZERO;
                continue;
            }
            if targets[i] < self.enforced[i] {
                if stats.timed_out {
                    continue; // watts stay reserved — the safe direction
                }
                if self.try_write(tick, i, targets[i], &mut attempts_left, &mut stats) {
                    self.enforced[i] = targets[i];
                }
            }
        }

        // Phase 2: raises, funded only by what phase 1 actually freed.
        let spent = self.enforced_total();
        let pot_legit = (self.global - spent).max(Watts::ZERO);
        let mut pot = pot_legit;
        let mut raised = Watts::ZERO;
        for i in 0..n {
            if stats.timed_out {
                break;
            }
            if down[i] || targets[i] <= self.enforced[i] {
                continue;
            }
            let want = targets[i] - self.enforced[i];
            let raise = want.min(pot);
            if raise.value() <= CAP_QUANTUM {
                continue;
            }
            let next = self.enforced[i] + raise;
            if self.try_write(tick, i, next, &mut attempts_left, &mut stats) {
                self.enforced[i] = next;
                pot = pot - raise;
                raised += raise;
            }
        }

        // The leak audit: raises applied must never exceed the pot the
        // confirmed decreases legitimately left. Structurally zero —
        // the counter is the exported proof.
        if raised.value() > pot_legit.value() + CAP_QUANTUM {
            pbc_trace::counter(names::HEALTH_QUARANTINE_LEAKS).incr();
        }
        stats
    }

    /// One supervised cap write: up to [`WRITE_ATTEMPTS`] tries, back to
    /// back, against the plan's fault draw (and the sink, when armed),
    /// spending from the round's shared attempt budget. Returns `true`
    /// when the write landed.
    fn try_write(
        &mut self,
        tick: usize,
        node: usize,
        target: Watts,
        attempts_left: &mut usize,
        stats: &mut WriteStats,
    ) -> bool {
        for attempt in 0..WRITE_ATTEMPTS {
            if *attempts_left == 0 {
                stats.timed_out = true;
                return false;
            }
            *attempts_left -= 1;
            if attempt > 0 {
                stats.retries += 1;
                pbc_trace::counter(names::CLUSTER_WRITE_RETRIES).incr();
            }
            if self.faults.write_fails(tick, node, target, attempt) {
                continue;
            }
            if let Some(sink) = self.sink.as_mut() {
                if sink.write_cap(node, target).is_err() {
                    continue;
                }
            }
            return true;
        }
        stats.failures += 1;
        pbc_trace::counter(names::CLUSTER_WRITE_FAILURES).incr();
        false
    }
}

/// Check that `budget` is a positive finite wattage covering every
/// node's floor.
fn check_budget(fleet: &Fleet, budget: Watts) -> Result<()> {
    if !budget.is_valid() || budget.value() <= 0.0 {
        return Err(PbcError::InvalidInput(format!(
            "global budget must be a positive finite wattage, got {budget:?}"
        )));
    }
    let minimum = fleet.min_total_power();
    if budget < minimum {
        return Err(PbcError::BudgetTooSmall { requested: budget, minimum });
    }
    Ok(())
}

/// Add `n` events to counter `name`, registering it only once one fires.
fn count(name: &str, n: usize) {
    if n > 0 {
        pbc_trace::counter(name).add(n as u64);
    }
}

/// Coordinate and price every live node's share, in node order on the
/// calling thread. A live node re-runs COORD and the memo-priced solve
/// (counted under `cluster.evaluated_nodes`) only when its share's bits
/// differ from its `priced` entry's; down nodes score 0.0 and keep
/// their entries. An infeasible share scores 0.0 and counts under
/// `cluster.infeasible_nodes`, reused or not; a real solver error fails
/// the evaluation.
fn evaluate(
    fleet: &Fleet,
    memos: &[Arc<SolveMemo>],
    priced: &mut [Option<Priced>],
    shares: &[Watts],
    down: &[bool],
) -> Result<ClusterDecision> {
    let n = shares.len();
    let mut allocs = Vec::with_capacity(n);
    let mut perfs = Vec::with_capacity(n);
    let mut infeasible = 0;
    let mut evaluated = 0;
    for i in 0..n {
        if down[i] {
            allocs.push(None);
            perfs.push(0.0);
            continue;
        }
        let share_bits = shares[i].value().to_bits();
        let p = match priced[i] {
            Some(p) if p.share_bits == share_bits => p,
            _ => {
                let (alloc, perf) =
                    eval_node(fleet.class_of(i), &memos[fleet.nodes[i]], shares[i])?;
                evaluated += 1;
                let p = Priced { share_bits, alloc, perf };
                priced[i] = Some(p);
                p
            }
        };
        if p.alloc.is_none() {
            infeasible += 1;
        }
        allocs.push(p.alloc);
        perfs.push(p.perf);
    }
    pbc_trace::counter(names::CLUSTER_EVALUATED_NODES).add(evaluated as u64);
    count(names::CLUSTER_INFEASIBLE_NODES, infeasible);
    let aggregate_perf = perfs.iter().sum();
    Ok(ClusterDecision { shares: shares.to_vec(), allocs, perfs, aggregate_perf, infeasible })
}

fn eval_node(
    class: &NodeClass,
    memo: &SolveMemo,
    share: Watts,
) -> Result<(Option<PowerAllocation>, f64)> {
    let coord = match class.coordinate(share) {
        Ok(r) => r,
        Err(e) if e.is_infeasible() => return Ok((None, 0.0)),
        Err(e) => return Err(e),
    };
    match memo.solve(coord.alloc) {
        Ok(op) => Ok((Some(coord.alloc), op.perf_rel)),
        Err(e) if e.is_infeasible() => Ok((None, 0.0)),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::parse_spec;
    use pbc_faults::FaultWindow;

    fn mixed_fleet() -> Fleet {
        let spec = parse_spec(
            "4 ivybridge stream\n\
             4 haswell dgemm\n\
             2 titan-xp sgemm\n",
        )
        .unwrap();
        Fleet::build(&spec).unwrap()
    }

    #[test]
    fn coordinated_beats_uniform_on_a_mixed_fleet() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(220.0);
        let coord = FleetCoordinator::new(fleet, global).unwrap();
        let smart = coord.coordinate().unwrap();
        let naive = coord.uniform_decision().unwrap();
        let total: f64 = smart.shares.iter().map(|s| s.value()).sum();
        assert!((total - global.value()).abs() < 1e-6, "shares must conserve the budget");
        assert!(
            smart.aggregate_perf > naive.aggregate_perf,
            "water-filling {:.3} must beat uniform {:.3}",
            smart.aggregate_perf,
            naive.aggregate_perf
        );
    }

    #[test]
    fn budget_below_the_fleet_floor_is_refused() {
        let fleet = mixed_fleet();
        let too_small = fleet.min_total_power() - Watts::new(1.0);
        assert!(FleetCoordinator::new(fleet, too_small).is_err());
    }

    #[test]
    fn calm_run_never_violates_and_keeps_every_node_up() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let n = fleet.len();
        let mut coord = FleetCoordinator::new(fleet, global).unwrap();
        let report = coord.run(6).unwrap();
        assert!(report.survived());
        assert_eq!(report.min_nodes_up, n);
        assert_eq!(report.dropouts, 0);
        assert_eq!(report.degraded_epochs, 0);
        assert!((report.availability - 1.0).abs() < 1e-12);
        assert!(report.final_aggregate > 0.0);
        assert_eq!(report.reconverged_at, Some(0), "a calm run is converged from tick 0");
    }

    #[test]
    fn crashes_quarantine_reclaim_and_rejoin() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(FleetFaultPlan::node_crash(7))
            .unwrap();
        let quiet = FleetFaultPlan::node_crash(7).quiet_after();
        let report = coord.run(quiet + 12).unwrap();
        assert!(report.dropouts > 0, "node-crash at seed 7 should drop nodes");
        assert!(report.recoveries > 0, "crashed nodes should come back");
        assert!(report.quarantines > 0, "silent nodes must be quarantined");
        assert!(report.rejoins > 0, "returning nodes must pass through Rejoining");
        assert!(report.missed_reports > 0, "down nodes send nothing");
        assert_eq!(report.budget_violations, 0);
        assert_eq!(report.quarantine_leaks, 0);
        assert!(report.survived());
        assert!(
            report.reconverged_at.is_some(),
            "the fleet must reconverge to all-Healthy after the plan goes quiet"
        );
        assert!(report.availability < 1.0, "crashes must dent availability");
    }

    #[test]
    fn everything_plan_survives_with_health_and_degraded_epochs() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let plan = FleetFaultPlan::everything(7);
        let quiet = plan.quiet_after();
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(plan)
            .unwrap();
        let report = coord.run(quiet + 12).unwrap();
        assert!(report.dropouts > 0);
        assert!(report.degraded_epochs > 0, "the coordinator outage must degrade epochs");
        assert!(report.rejected_reports > 0, "garbled reports must be rejected");
        assert_eq!(report.budget_violations, 0, "decreases-first must hold the cap");
        assert_eq!(report.quarantine_leaks, 0);
        assert!(report.survived());
    }

    #[test]
    fn coordinator_outage_serves_the_fallback_partition() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let plan = FleetFaultPlan {
            coordinator_outage: FaultWindow::new(0, 3),
            ..FleetFaultPlan::calm(1)
        };
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(plan)
            .unwrap();
        let fallback_total = coord.fallback().total();
        let e = coord.step().unwrap();
        assert!(e.degraded);
        assert!(e.enforced_total <= global + Watts::new(1e-6));
        assert!((e.enforced_total.value() - fallback_total.value()).abs() < 1e-6);
        let report = coord.run(5).unwrap();
        assert_eq!(report.degraded_epochs, 2, "outage covers ticks 1 and 2 of the run");
        assert!(report.survived());
    }

    #[test]
    fn budget_cut_mid_run_is_applied_and_bad_budgets_are_rejected() {
        let fleet = mixed_fleet();
        let floor = fleet.min_total_power();
        let global = floor + Watts::new(150.0);
        let mut coord = FleetCoordinator::new(fleet, global).unwrap();
        let _ = coord.run(3).unwrap();
        let cut = floor + Watts::new(40.0);
        coord.set_global_budget(cut).unwrap();
        assert_eq!(coord.global_budget(), cut);
        let report = coord.run(4).unwrap();
        assert_eq!(report.budget_violations, 0);
        assert!(coord.enforced_total() <= cut + Watts::new(1e-6));
        // Garbage budgets are typed rejections, not panics.
        assert!(coord.set_global_budget(Watts::new(f64::NAN)).is_err());
        assert!(coord.set_global_budget(Watts::new(-5.0)).is_err());
        assert!(coord.set_global_budget(floor - Watts::new(1.0)).is_err());
        assert_eq!(coord.global_budget(), cut, "rejected budgets must not stick");
    }

    #[test]
    fn chaos_replays_are_bit_identical() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let run = || {
            let mut coord = FleetCoordinator::new(fleet.clone(), global)
                .unwrap()
                .with_plan(FleetFaultPlan::everything(11))
                .unwrap();
            coord.run(30).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "the same plan must replay identically");
    }

    #[test]
    fn tenant_chaos_never_overdraws_or_starves_a_floor() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let tenants = TenantSet::parse("batch:1:best-effort,web:3:gold,etl:2:silver").unwrap();
        let plan = FleetFaultPlan::noisy_neighbor(9);
        let quiet = plan.quiet_after();
        let mut coord = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(plan)
            .unwrap()
            .with_tenants(tenants);
        let report = coord.run(quiet + 8).unwrap();
        assert!(report.tenant_spikes + report.tenant_noisy > 0, "seed 9 must fire tenant events");
        assert_eq!(report.budget_violations, 0, "demand spikes must never overdraw the budget");
        assert_eq!(report.tenant_floor_violations, 0, "no weighted tenant may fall below its floor");
        assert!(report.survived());
        assert!(report.min_tenant_jain > 0.0 && report.min_tenant_jain <= 1.0 + 1e-12);
    }

    #[test]
    fn objective_runs_replay_bit_identically() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        for objective in [Objective::MaxMin, Objective::WeightedShares] {
            let run = || {
                let mut coord = FleetCoordinator::new(fleet.clone(), global)
                    .unwrap()
                    .with_plan(FleetFaultPlan::demand_spike(13))
                    .unwrap()
                    .with_objective(objective)
                    .with_tenants(TenantSet::parse("a:1:gold,b:2").unwrap());
                coord.run(24).unwrap()
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "{} runs must replay identically", objective.name());
        }
    }

    #[test]
    fn single_tenant_runs_match_the_untenanted_baseline() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let plan = FleetFaultPlan::everything(11);
        let mut plain = FleetCoordinator::new(fleet.clone(), global)
            .unwrap()
            .with_plan(plan.clone())
            .unwrap();
        let mut tenanted = FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(plan)
            .unwrap()
            .with_tenants(TenantSet::parse("solo:1").unwrap());
        let a = plain.run(20).unwrap();
        let b = tenanted.run(20).unwrap();
        assert_eq!(a.budget_violations, b.budget_violations);
        assert_eq!(a.dropouts, b.dropouts, "tenant rolls must not perturb the fault streams");
        assert_eq!(a.work_done, b.work_done, "a lone tenant owns every watt the node gets");
        assert_eq!(b.tenant_floor_violations, 0);
        assert!((b.min_tenant_jain - 1.0).abs() < 1e-12, "one tenant is perfectly fair");
    }

    /// A decision as bits: shares, allocations, perfs, the aggregate and
    /// the infeasible count, so equality means bit-identical.
    type DecisionBits = (Vec<u64>, Vec<Option<(u64, u64)>>, Vec<u64>, u64, usize);

    fn decision_bits(d: &ClusterDecision) -> DecisionBits {
        (
            d.shares.iter().map(|s| s.value().to_bits()).collect(),
            d.allocs
                .iter()
                .map(|a| a.map(|a| (a.proc.value().to_bits(), a.mem.value().to_bits())))
                .collect(),
            d.perfs.iter().map(|p| p.to_bits()).collect(),
            d.aggregate_perf.to_bits(),
            d.infeasible,
        )
    }

    /// Step `coord` for `epochs` epochs, calling `before_step` ahead of
    /// each, and compare every epoch's cached evaluation with a
    /// from-scratch evaluation of the same targets, straggler slowdown
    /// applied to both. Returns the first divergence, or how many live
    /// node-epochs found their share already priced.
    fn check_cache_against_fresh(
        coord: &mut FleetCoordinator,
        epochs: usize,
        mut before_step: impl FnMut(&mut FleetCoordinator),
    ) -> std::result::Result<usize, String> {
        let n = coord.fleet.len();
        let mut reused = 0;
        for _ in 0..epochs {
            before_step(coord);
            let before = coord.priced.clone();
            let report = coord.step().unwrap();
            let down = coord.down_mask();
            let targets = &coord.prev_targets;
            reused += (0..n)
                .filter(|&i| {
                    let bits = targets[i].value().to_bits();
                    !down[i] && before[i].is_some_and(|p| p.share_bits == bits)
                })
                .count();
            let mut fresh =
                evaluate(&coord.fleet, &coord.memos, &mut vec![None; n], targets, &down).unwrap();
            coord.slow_stragglers(&mut fresh);
            let cached = decision_bits(coord.last.as_ref().unwrap());
            if cached != decision_bits(&fresh)
                || report.aggregate_perf.to_bits() != fresh.aggregate_perf.to_bits()
            {
                return Err(format!(
                    "tick {}: cached {cached:?} vs fresh {:?}",
                    report.tick,
                    decision_bits(&fresh)
                ));
            }
        }
        Ok(reused)
    }

    /// The calm fleet mix (half ivybridge/stream, a quarter each
    /// haswell/dgemm and titan-xp/sgemm) at `nodes` nodes.
    fn scaled_fleet(nodes: usize) -> Fleet {
        let spec = format!(
            "{} ivybridge stream\n{} haswell dgemm\n{} titan-xp sgemm\n",
            nodes / 2,
            nodes / 4,
            nodes / 4
        );
        Fleet::build(&parse_spec(&spec).unwrap()).unwrap()
    }

    fn tenanted(fleet: Fleet, plan: FleetFaultPlan, objective: Objective) -> FleetCoordinator {
        let global = fleet.min_total_power() + Watts::new(18.0 * fleet.len() as f64);
        FleetCoordinator::new(fleet, global)
            .unwrap()
            .with_plan(plan)
            .unwrap()
            .with_objective(objective)
            .with_tenants(TenantSet::parse("web:3:gold,etl:2:silver,batch:1").unwrap())
    }

    #[test]
    fn cached_evaluation_matches_a_from_scratch_one_every_epoch() {
        for nodes in [8, 32] {
            let fleet = scaled_fleet(nodes);
            for plan in [FleetFaultPlan::everything(5), FleetFaultPlan::noisy_neighbor(9)] {
                for objective in [Objective::Throughput, Objective::MaxMin] {
                    let epochs = plan.quiet_after() + 6;
                    let mut coord = tenanted(fleet.clone(), plan.clone(), objective);
                    let label = format!("{nodes} nodes, plan {}, {}", plan.name, objective.name());
                    let reused = check_cache_against_fresh(&mut coord, epochs, |_| {})
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert!(reused > 0, "{label}: no epoch reused a pricing");
                }
            }
        }
    }

    /// The check is not vacuous: a cache keyed on the node alone, which
    /// reuses a node's pricing whatever its new share, fails it. A twin
    /// coordinator stepped in lockstep reveals each epoch's targets
    /// first, so the planted cache can claim every entry matches them.
    #[test]
    fn a_cache_keyed_on_the_node_alone_fails_the_equivalence_check() {
        let fleet = scaled_fleet(8);
        let plan = FleetFaultPlan::everything(5);
        let epochs = plan.quiet_after() + 6;
        let mut twin = tenanted(fleet.clone(), plan.clone(), Objective::Throughput);
        let mut coord = tenanted(fleet, plan, Objective::Throughput);
        let checked = check_cache_against_fresh(&mut coord, epochs, |c| {
            let _ = twin.step().unwrap();
            for (entry, target) in c.priced.iter_mut().zip(&twin.prev_targets) {
                if let Some(p) = entry {
                    p.share_bits = target.value().to_bits();
                }
            }
        });
        assert!(checked.is_err(), "a node-keyed cache must fail the equivalence check");
    }

    #[test]
    fn stragglers_dent_throughput_and_get_quarantined() {
        let fleet = mixed_fleet();
        let global = fleet.min_total_power() + Watts::new(150.0);
        let plan = FleetFaultPlan::stragglers(5);
        let quiet = plan.quiet_after();
        let mut coord = FleetCoordinator::new(fleet.clone(), global)
            .unwrap()
            .with_plan(plan)
            .unwrap();
        let report = coord.run(quiet + 8).unwrap();
        assert!(report.survived());
        let mut calm = FleetCoordinator::new(fleet, global).unwrap();
        let baseline = calm.run(quiet + 8).unwrap();
        assert!(
            report.work_done < baseline.work_done,
            "straggling epochs must do less work than the calm run ({} vs {})",
            report.work_done,
            baseline.work_done
        );
    }
}
