//! Fleet-scale fault plans: what goes wrong *between* nodes, when.
//!
//! [`crate::plan::FaultPlan`] describes a single node's bad day —
//! sensor lies, cap-write failures, budget moves. A [`FleetFaultPlan`]
//! is the layer above it: whole nodes crash and rejoin, observation
//! reports are dropped, delayed, or garbled on their way to the global
//! coordinator, individual nodes lose their cap-write path for a
//! stretch, stragglers run slow, and the coordinator itself can become
//! unavailable. The same determinism contract applies: the plan is pure
//! data (probabilities confined to half-open tick windows, scheduled
//! budget steps), and every draw comes from a fresh generator keyed on
//! `(seed, tick, stream, node)` — see [`crate::inject::decision_rng`] —
//! so a fleet chaos run replays bit-identically at any thread count.
//!
//! [`FleetFaults`] plays an armed plan: it owns every per-node and
//! per-tenant episode in flight, rolls them each tick through one
//! episode rule, and answers the fleet coordinator's questions: what a
//! node's report says on arrival, whether a cap write fails, who is
//! down or straggling, and how hard each tenant is pushing. No fault
//! decision lives in the coordinator itself.
//!
//! Shipped presets keep budget steps *outside* every write-fault window
//! (the same structural discipline as the single-node plans), which is
//! what lets `cluster.budget_violations == 0` hold at every seed. The
//! adversarial overlap — a budget cut landing while a quarantined
//! node's decrease cannot be written — is exercised separately by the
//! property tests with the weaker caps-never-inflate guarantee.

use crate::inject::{decision_rng, write_key, GOLDEN};
use crate::plan::{BudgetStep, FaultWindow};
use pbc_types::{PbcError, Result, Watts};

/// Node membership faults: crashes (and the rejoin after), plus
/// straggler slowdowns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFaults {
    /// Per-node, per-epoch probability of crashing while the crash
    /// window is active.
    pub crash_prob: f64,
    /// Epochs `[from, until)` during which crashes can fire.
    pub crash_window: FaultWindow,
    /// How many epochs a crashed node stays down before rejoining.
    pub outage_epochs: usize,
    /// Per-node, per-epoch probability of turning straggler while the
    /// straggler window is active.
    pub straggler_prob: f64,
    /// Epochs `[from, until)` during which stragglers can appear.
    pub straggler_window: FaultWindow,
    /// How many epochs a straggler stays slow.
    pub straggle_epochs: usize,
    /// Throughput multiplier while straggling (e.g. `0.3` = runs at
    /// 30 % speed and its reports lag an epoch behind).
    pub slowdown: f64,
}

impl NodeFaults {
    /// No membership faults, ever.
    pub const NONE: Self = Self {
        crash_prob: 0.0,
        crash_window: FaultWindow::NEVER,
        outage_epochs: 0,
        straggler_prob: 0.0,
        straggler_window: FaultWindow::NEVER,
        straggle_epochs: 0,
        slowdown: 1.0,
    };
}

/// Faults on the observation reports nodes send the coordinator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportFaults {
    /// Probability an in-window report never arrives.
    pub drop_prob: f64,
    /// Probability an in-window report arrives one epoch late (stale:
    /// it describes the previous epoch's caps).
    pub delay_prob: f64,
    /// Probability an in-window report arrives garbled (non-finite or
    /// absurd fields that validation must reject).
    pub garble_prob: f64,
    /// When report faults are armed.
    pub window: FaultWindow,
}

impl ReportFaults {
    /// Reports always arrive clean.
    pub const NONE: Self = Self {
        drop_prob: 0.0,
        delay_prob: 0.0,
        garble_prob: 0.0,
        window: FaultWindow::NEVER,
    };
}

/// Faults on the per-node cap-write path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetWriteFaults {
    /// Per-attempt probability of a cap write failing while the write
    /// window is active (independent per retry, so retries can absorb
    /// it).
    pub fail_prob: f64,
    /// When stochastic write failures are armed.
    pub window: FaultWindow,
    /// Per-node, per-epoch probability of the node's *entire* cap-write
    /// path going down (every write fails until the outage ends).
    pub outage_prob: f64,
    /// How many epochs a write outage lasts.
    pub outage_epochs: usize,
    /// When write outages can begin.
    pub outage_window: FaultWindow,
}

impl FleetWriteFaults {
    /// Cap writes always land.
    pub const NONE: Self = Self {
        fail_prob: 0.0,
        window: FaultWindow::NEVER,
        outage_prob: 0.0,
        outage_epochs: 0,
        outage_window: FaultWindow::NEVER,
    };
}

/// Tenant demand faults: per-tenant demand spikes and noisy neighbors.
/// Both multiply a tenant's demand signal — a spike is a legitimate
/// burst (deadline crunch), a noisy neighbor is a sustained hog. The
/// tenant sub-partition must absorb either without letting the fleet
/// overdraw the global budget or starve a co-tenant below its weighted
/// floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantFaults {
    /// Per-tenant, per-epoch probability of a demand spike while the
    /// spike window is active.
    pub spike_prob: f64,
    /// Epochs `[from, until)` during which spikes can fire.
    pub spike_window: FaultWindow,
    /// How many epochs a spike lasts.
    pub spike_epochs: usize,
    /// Demand multiplier while spiking (≥ 1).
    pub spike_factor: f64,
    /// Per-tenant, per-epoch probability of turning noisy neighbor
    /// while the noisy window is active.
    pub noisy_prob: f64,
    /// Epochs `[from, until)` during which noisy neighbors can appear.
    pub noisy_window: FaultWindow,
    /// How many epochs a noisy neighbor keeps hogging.
    pub noisy_epochs: usize,
    /// Demand multiplier while noisy (≥ 1, typically larger and longer
    /// than a spike).
    pub noisy_factor: f64,
}

impl TenantFaults {
    /// Tenant demand stays flat.
    pub const NONE: Self = Self {
        spike_prob: 0.0,
        spike_window: FaultWindow::NEVER,
        spike_epochs: 0,
        spike_factor: 1.0,
        noisy_prob: 0.0,
        noisy_window: FaultWindow::NEVER,
        noisy_epochs: 0,
        noisy_factor: 1.0,
    };
}

/// A complete, replayable fleet fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultPlan {
    /// Preset name (for reports and the CLI).
    pub name: &'static str,
    /// Seed all draws derive from.
    pub seed: u64,
    /// Node crashes, rejoins, and stragglers.
    pub nodes: NodeFaults,
    /// Observation-report corruption.
    pub reports: ReportFaults,
    /// Cap-write failures and outages.
    pub writes: FleetWriteFaults,
    /// Tenant demand spikes and noisy neighbors (inert unless the
    /// coordinator has tenants attached).
    pub tenants: TenantFaults,
    /// Epochs `[from, until)` during which global coordination is
    /// unavailable — every node must fall back to its precomputed
    /// static budget.
    pub coordinator_outage: FaultWindow,
    /// Scheduled changes of the global budget (factors are absolute
    /// w.r.t. the initial budget, as in [`BudgetStep`]).
    pub budget_steps: Vec<BudgetStep>,
}

/// The preset plan names [`FleetFaultPlan::by_name`] accepts, in
/// escalation order. `node-dropouts` and `flaky-writes` keep the
/// pre-health-machine preset names alive.
pub const FLEET_PLAN_NAMES: [&str; 11] = [
    "calm",
    "node-dropouts",
    "node-crash",
    "node-rejoin",
    "stragglers",
    "report-loss",
    "flaky-writes",
    "write-outage",
    "demand-spike",
    "noisy-neighbor",
    "everything",
];

impl FleetFaultPlan {
    /// No faults at all — the control run.
    #[must_use]
    pub fn calm(seed: u64) -> Self {
        Self {
            name: "calm",
            seed,
            nodes: NodeFaults::NONE,
            reports: ReportFaults::NONE,
            writes: FleetWriteFaults::NONE,
            tenants: TenantFaults::NONE,
            coordinator_outage: FaultWindow::NEVER,
            budget_steps: Vec::new(),
        }
    }

    /// Nodes drop out mid-run and rejoin a few epochs later — the
    /// original cluster preset, kept under its old name.
    #[must_use]
    pub fn node_dropouts(seed: u64) -> Self {
        Self {
            name: "node-dropouts",
            nodes: NodeFaults {
                crash_prob: 0.08,
                crash_window: FaultWindow::new(2, 30),
                outage_epochs: 4,
                ..NodeFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Hard crashes with long outages: the fleet must reclaim the dead
    /// nodes' watts and keep the survivors productive.
    #[must_use]
    pub fn node_crash(seed: u64) -> Self {
        Self {
            name: "node-crash",
            nodes: NodeFaults {
                crash_prob: 0.05,
                crash_window: FaultWindow::new(4, 24),
                outage_epochs: 12,
                ..NodeFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Crash/rejoin churn: short outages, so nodes cycle through
    /// Quarantined → Rejoining → Healthy over and over and the
    /// probation path is exercised hard.
    #[must_use]
    pub fn node_rejoin(seed: u64) -> Self {
        Self {
            name: "node-rejoin",
            nodes: NodeFaults {
                crash_prob: 0.10,
                crash_window: FaultWindow::new(2, 28),
                outage_epochs: 3,
                ..NodeFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Stragglers: nodes run slow for a stretch and their reports lag
    /// an epoch behind, tripping the staleness rejection.
    #[must_use]
    pub fn stragglers(seed: u64) -> Self {
        Self {
            name: "stragglers",
            nodes: NodeFaults {
                straggler_prob: 0.08,
                straggler_window: FaultWindow::new(3, 30),
                straggle_epochs: 6,
                slowdown: 0.3,
                ..NodeFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Reports are dropped, delayed, and garbled; the health machine
    /// must quarantine on missing/invalid telemetry without ever
    /// overdrawing.
    #[must_use]
    pub fn report_loss(seed: u64) -> Self {
        Self {
            name: "report-loss",
            reports: ReportFaults {
                drop_prob: 0.20,
                delay_prob: 0.10,
                garble_prob: 0.10,
                window: FaultWindow::new(3, 32),
            },
            ..Self::calm(seed)
        }
    }

    /// Cap writes fail stochastically; the pot accounting must hold —
    /// the original cluster preset, kept under its old name.
    #[must_use]
    pub fn flaky_writes(seed: u64) -> Self {
        Self {
            name: "flaky-writes",
            writes: FleetWriteFaults {
                fail_prob: 0.2,
                window: FaultWindow::new(1, 40),
                ..FleetWriteFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Whole cap-write paths go down per node for a stretch: decreases
    /// cannot land, so the watts they hold must stay reserved.
    #[must_use]
    pub fn write_outage(seed: u64) -> Self {
        Self {
            name: "write-outage",
            writes: FleetWriteFaults {
                fail_prob: 0.1,
                window: FaultWindow::new(2, 30),
                outage_prob: 0.04,
                outage_epochs: 5,
                outage_window: FaultWindow::new(2, 25),
                ..FleetWriteFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Tenant demand spikes: short legitimate bursts that the tenant
    /// sub-partition must absorb without the fleet overdrawing or any
    /// weighted tenant dropping below its floor.
    #[must_use]
    pub fn demand_spike(seed: u64) -> Self {
        Self {
            name: "demand-spike",
            tenants: TenantFaults {
                spike_prob: 0.15,
                spike_window: FaultWindow::new(2, 30),
                spike_epochs: 3,
                spike_factor: 3.0,
                ..TenantFaults::NONE
            },
            ..Self::calm(seed)
        }
    }

    /// Noisy neighbors: a tenant hogs demand for long stretches — the
    /// co-tenants' weighted floors must hold anyway.
    #[must_use]
    pub fn noisy_neighbor(seed: u64) -> Self {
        Self {
            name: "noisy-neighbor",
            tenants: TenantFaults {
                spike_prob: 0.05,
                spike_window: FaultWindow::new(4, 28),
                spike_epochs: 2,
                spike_factor: 2.0,
                noisy_prob: 0.08,
                noisy_window: FaultWindow::new(2, 32),
                noisy_epochs: 8,
                noisy_factor: 6.0,
            },
            ..Self::calm(seed)
        }
    }

    /// Everything at once: crashes, stragglers, report loss, write
    /// faults, a coordinator outage, and a budget cut — with the budget
    /// steps placed after every write window closes, so the budget
    /// invariant holds structurally at any seed.
    #[must_use]
    pub fn everything(seed: u64) -> Self {
        Self {
            name: "everything",
            nodes: NodeFaults {
                crash_prob: 0.06,
                crash_window: FaultWindow::new(2, 26),
                outage_epochs: 4,
                straggler_prob: 0.05,
                straggler_window: FaultWindow::new(4, 26),
                straggle_epochs: 4,
                slowdown: 0.3,
            },
            reports: ReportFaults {
                drop_prob: 0.10,
                delay_prob: 0.06,
                garble_prob: 0.06,
                window: FaultWindow::new(3, 28),
            },
            writes: FleetWriteFaults {
                fail_prob: 0.15,
                window: FaultWindow::new(1, 30),
                outage_prob: 0.03,
                outage_epochs: 4,
                outage_window: FaultWindow::new(2, 24),
            },
            tenants: TenantFaults {
                spike_prob: 0.10,
                spike_window: FaultWindow::new(3, 28),
                spike_epochs: 3,
                spike_factor: 3.0,
                noisy_prob: 0.05,
                noisy_window: FaultWindow::new(4, 26),
                noisy_epochs: 6,
                noisy_factor: 4.0,
            },
            coordinator_outage: FaultWindow::new(32, 36),
            budget_steps: vec![
                BudgetStep { at: 40, factor: 0.85 },
                BudgetStep { at: 48, factor: 1.0 },
            ],
            ..Self::calm(seed)
        }
    }

    /// Look a preset up by name (see [`FLEET_PLAN_NAMES`]).
    #[must_use]
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            "calm" => Some(Self::calm(seed)),
            "node-dropouts" => Some(Self::node_dropouts(seed)),
            "node-crash" => Some(Self::node_crash(seed)),
            "node-rejoin" => Some(Self::node_rejoin(seed)),
            "stragglers" => Some(Self::stragglers(seed)),
            "report-loss" => Some(Self::report_loss(seed)),
            "flaky-writes" => Some(Self::flaky_writes(seed)),
            "write-outage" => Some(Self::write_outage(seed)),
            "demand-spike" => Some(Self::demand_spike(seed)),
            "noisy-neighbor" => Some(Self::noisy_neighbor(seed)),
            "everything" => Some(Self::everything(seed)),
            _ => None,
        }
    }

    /// One-line description of a preset, for `pbc faults list`.
    #[must_use]
    pub fn describe(name: &str) -> Option<&'static str> {
        match name {
            "calm" => Some("no faults; the control run"),
            "node-dropouts" => Some("nodes drop out and rejoin a few epochs later"),
            "node-crash" => Some("hard crashes with long outages; survivors inherit the watts"),
            "node-rejoin" => Some("crash/rejoin churn; probation path exercised hard"),
            "stragglers" => Some("nodes run slow and report an epoch late"),
            "report-loss" => Some("reports dropped, delayed, and garbled"),
            "flaky-writes" => Some("cap writes fail stochastically"),
            "write-outage" => Some("whole per-node cap-write paths go down for a stretch"),
            "demand-spike" => Some("tenant demand bursts the sub-partition must absorb"),
            "noisy-neighbor" => Some("a tenant hogs demand; co-tenant floors must hold"),
            "everything" => Some("all of it, plus a coordinator outage and a budget cut"),
            _ => None,
        }
    }

    /// The tick after which the plan injects nothing and every fault it
    /// started has run its course (outages and straggles included).
    #[must_use]
    pub fn quiet_after(&self) -> usize {
        // An episode kind is quiet once its onset window has closed and
        // the last episode it could start has run out.
        let tail = |window: FaultWindow, epochs: usize| {
            if window.is_empty() {
                0
            } else {
                window.until + epochs
            }
        };
        let mut t = tail(self.nodes.crash_window, self.nodes.outage_epochs)
            .max(tail(self.nodes.straggler_window, self.nodes.straggle_epochs))
            .max(tail(self.writes.outage_window, self.writes.outage_epochs))
            .max(tail(self.tenants.spike_window, self.tenants.spike_epochs))
            .max(tail(self.tenants.noisy_window, self.tenants.noisy_epochs))
            .max(self.reports.window.until)
            .max(self.writes.window.until)
            .max(self.coordinator_outage.until);
        for s in &self.budget_steps {
            t = t.max(s.at + 1);
        }
        t
    }

    /// Validate probabilities, windows, and schedules.
    #[must_use = "an invalid plan must not be armed"]
    pub fn validate(&self) -> Result<()> {
        let probs = [
            ("nodes.crash_prob", self.nodes.crash_prob),
            ("nodes.straggler_prob", self.nodes.straggler_prob),
            ("reports.drop_prob", self.reports.drop_prob),
            ("reports.delay_prob", self.reports.delay_prob),
            ("reports.garble_prob", self.reports.garble_prob),
            ("writes.fail_prob", self.writes.fail_prob),
            ("writes.outage_prob", self.writes.outage_prob),
            ("tenants.spike_prob", self.tenants.spike_prob),
            ("tenants.noisy_prob", self.tenants.noisy_prob),
        ];
        for (what, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(PbcError::InvalidInput(format!(
                    "{}: {what} = {p} is not a probability",
                    self.name
                )));
            }
        }
        let episodes = [
            ("nodes.outage_epochs", self.nodes.crash_prob, self.nodes.outage_epochs),
            ("nodes.straggle_epochs", self.nodes.straggler_prob, self.nodes.straggle_epochs),
            ("writes.outage_epochs", self.writes.outage_prob, self.writes.outage_epochs),
            ("tenants.spike_epochs", self.tenants.spike_prob, self.tenants.spike_epochs),
            ("tenants.noisy_epochs", self.tenants.noisy_prob, self.tenants.noisy_epochs),
        ];
        for (what, prob, epochs) in episodes {
            if prob > 0.0 && epochs == 0 {
                return Err(PbcError::InvalidInput(format!(
                    "{}: {what} must be >= 1 when those episodes can start",
                    self.name
                )));
            }
        }
        let factors = [("spike", self.tenants.spike_factor), ("noisy", self.tenants.noisy_factor)];
        for (what, factor) in factors {
            if !factor.is_finite() || factor < 1.0 {
                return Err(PbcError::InvalidInput(format!(
                    "{}: tenants.{what}_factor {factor} must be a finite multiplier >= 1",
                    self.name
                )));
            }
        }
        if !(self.nodes.slowdown.is_finite() && 0.0 < self.nodes.slowdown && self.nodes.slowdown <= 1.0)
        {
            return Err(PbcError::InvalidInput(format!(
                "{}: straggler slowdown {} out of (0, 1]",
                self.name, self.nodes.slowdown
            )));
        }
        let report_sum =
            self.reports.drop_prob + self.reports.delay_prob + self.reports.garble_prob;
        if report_sum > 1.0 {
            return Err(PbcError::InvalidInput(format!(
                "{}: report fault probabilities sum to {report_sum} > 1",
                self.name
            )));
        }
        for s in &self.budget_steps {
            if !s.factor.is_finite() || s.factor <= 0.0 {
                return Err(PbcError::InvalidInput(format!(
                    "{}: budget factor {} at tick {} must be positive",
                    self.name, s.factor, s.at
                )));
            }
        }
        Ok(())
    }
}

/// Stream constant for node crash/rejoin decisions.
const STREAM_NODE: u64 = 0x5EED_0011;
/// Stream constant for cap-write fault decisions.
const STREAM_CAP: u64 = 0x5EED_0012;
/// Stream constant for observation-report fault decisions.
const STREAM_REPORT: u64 = 0x5EED_0013;
/// Stream constant for straggler onset decisions.
const STREAM_STRAGGLE: u64 = 0x5EED_0014;
/// Stream constant for per-node write-outage onset decisions.
const STREAM_WRITE_OUTAGE: u64 = 0x5EED_0015;
/// Stream constant for per-tenant demand-spike onset decisions.
const STREAM_TENANT_SPIKE: u64 = 0x5EED_0016;
/// Stream constant for per-tenant noisy-neighbor onset decisions.
const STREAM_TENANT_NOISY: u64 = 0x5EED_0017;

/// One episode kind (crash, straggle, write outage, demand spike, noisy
/// neighbor) across its entities, nodes or tenants: each is idle or in
/// an episode until some tick.
#[derive(Debug, Clone)]
struct Episodes {
    stream: u64,
    until: Vec<Option<usize>>,
}

impl Episodes {
    fn new(stream: u64, n: usize) -> Self {
        Self { stream, until: vec![None; n] }
    }

    fn active(&self, i: usize) -> bool {
        self.until[i].is_some()
    }

    /// Advance every entity to `tick`. An episode due by `tick` ends,
    /// and its entity draws nothing this tick. While the onset window is
    /// active, an idle entity `i` that `may_start` draws once from
    /// `decision_rng(seed, tick, stream, i)` and starts an episode of
    /// `epochs` ticks (at least one) with probability `prob`. Returns
    /// `(started, ended)`.
    fn roll(
        &mut self,
        seed: u64,
        tick: usize,
        (prob, window, epochs): (f64, FaultWindow, usize),
        may_start: impl Fn(usize) -> bool,
    ) -> (usize, usize) {
        let armed = prob > 0.0 && window.active(tick);
        let (mut started, mut ended) = (0, 0);
        for (i, until) in self.until.iter_mut().enumerate() {
            match *until {
                Some(t) if tick >= t => {
                    *until = None;
                    ended += 1;
                }
                None if armed
                    && may_start(i)
                    && decision_rng(seed, tick, self.stream, i as u64).next_f64() < prob =>
                {
                    *until = Some(tick + epochs.max(1));
                    started += 1;
                }
                _ => {}
            }
        }
        (started, ended)
    }
}

/// What one tick's [`FleetFaults::roll`] started and ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetRoll {
    /// Nodes that crashed.
    pub crashed: usize,
    /// Crashed nodes that came back up.
    pub recovered: usize,
    /// Tenant demand spikes that started.
    pub tenant_spikes: usize,
    /// Noisy-neighbor stretches that started.
    pub tenant_noisy: usize,
}

/// An armed [`FleetFaultPlan`] in play: the plan plus every per-node and
/// per-tenant episode in flight. It is the one place a fleet fault is
/// decided. A coordinator asks it what rolled each tick, what a node's
/// report says on arrival, and whether a cap-write attempt fails, and
/// reads the episode state back; every draw is keyed
/// `(seed, tick, stream, entity)`, so a run replays bit-identically.
#[derive(Debug, Clone)]
pub struct FleetFaults {
    plan: FleetFaultPlan,
    down: Episodes,
    straggle: Episodes,
    write_outage: Episodes,
    spike: Episodes,
    noisy: Episodes,
}

impl FleetFaults {
    /// The calm plan over `nodes` nodes and no tenants, nothing in
    /// flight.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Self {
            plan: FleetFaultPlan::calm(0),
            down: Episodes::new(STREAM_NODE, nodes),
            straggle: Episodes::new(STREAM_STRAGGLE, nodes),
            write_outage: Episodes::new(STREAM_WRITE_OUTAGE, nodes),
            spike: Episodes::new(STREAM_TENANT_SPIKE, 0),
            noisy: Episodes::new(STREAM_TENANT_NOISY, 0),
        }
    }

    /// Arm `plan` in place of the current one. Only the plan changes:
    /// episodes already in flight run on to their end.
    #[must_use = "an invalid plan is not armed"]
    pub fn arm(&mut self, plan: FleetFaultPlan) -> Result<()> {
        plan.validate()?;
        self.plan = plan;
        Ok(())
    }

    /// Track `tenants` tenants, none of them in an episode.
    pub fn set_tenants(&mut self, tenants: usize) {
        self.spike = Episodes::new(STREAM_TENANT_SPIKE, tenants);
        self.noisy = Episodes::new(STREAM_TENANT_NOISY, tenants);
    }

    /// The armed plan.
    #[must_use]
    pub fn plan(&self) -> &FleetFaultPlan {
        &self.plan
    }

    /// Start and end this tick's episodes: crashes, then stragglers
    /// (only up nodes start straggling), write outages, and tenant
    /// spikes and noisy neighbors.
    pub fn roll(&mut self, tick: usize) -> FleetRoll {
        let (seed, n, w, t) = (self.plan.seed, self.plan.nodes, self.plan.writes, self.plan.tenants);
        let any = |_: usize| true;
        let (crashed, recovered) =
            self.down.roll(seed, tick, (n.crash_prob, n.crash_window, n.outage_epochs), any);
        let down = &self.down;
        let up = |i| !down.active(i);
        self.straggle.roll(seed, tick, (n.straggler_prob, n.straggler_window, n.straggle_epochs), up);
        self.write_outage.roll(seed, tick, (w.outage_prob, w.outage_window, w.outage_epochs), any);
        let (tenant_spikes, _) =
            self.spike.roll(seed, tick, (t.spike_prob, t.spike_window, t.spike_epochs), any);
        let (tenant_noisy, _) =
            self.noisy.roll(seed, tick, (t.noisy_prob, t.noisy_window, t.noisy_epochs), any);
        FleetRoll { crashed, recovered, tenant_spikes, tenant_noisy }
    }

    /// What node `node`'s report of the previous epoch says when it
    /// reaches the coordinator at `tick`, as `(cap, perf)`, or `None`
    /// when it never arrives. The honest report carries `cap`, the cap
    /// the node ran on, and `perf`, the throughput it measured; a
    /// straggler's lags a further epoch behind and carries `lagged`.
    /// While report faults are armed, one draw decides whether the
    /// report is dropped, delayed (carrying `lagged`), or garbled (a NaN
    /// or absurd `perf`, or a negative cap). A down node sends nothing
    /// and draws nothing.
    #[must_use]
    pub fn report(
        &self,
        tick: usize,
        node: usize,
        cap: Watts,
        lagged: Watts,
        perf: f64,
    ) -> Option<(Watts, f64)> {
        if self.down.active(node) {
            return None;
        }
        let mut cap = if self.straggle.active(node) { lagged } else { cap };
        let mut perf = perf;
        let faults = self.plan.reports;
        if faults.window.active(tick) {
            let mut rng = decision_rng(self.plan.seed, tick, STREAM_REPORT, node as u64);
            let u = rng.next_f64();
            if u < faults.drop_prob {
                return None;
            } else if u < faults.drop_prob + faults.delay_prob {
                cap = lagged;
            } else if u < faults.drop_prob + faults.delay_prob + faults.garble_prob {
                let g = rng.next_f64();
                if g < 1.0 / 3.0 {
                    perf = f64::NAN;
                } else if g < 2.0 / 3.0 {
                    perf = 1.0e9;
                } else {
                    cap = Watts::new(-5.0);
                }
            }
        }
        Some((cap, perf))
    }

    /// Does attempt `attempt` (0-based) at writing `target` as node
    /// `node`'s cap fail at `tick`? An active write outage fails every
    /// attempt, so retries cannot absorb it; stochastic failures draw
    /// afresh per attempt, keyed on the write, so retries can.
    #[must_use]
    pub fn write_fails(&self, tick: usize, node: usize, target: Watts, attempt: u32) -> bool {
        if self.write_outage.active(node) {
            return true;
        }
        let faults = self.plan.writes;
        if faults.fail_prob <= 0.0 || !faults.window.active(tick) {
            return false;
        }
        let key = write_key(&format!("cluster.node{node}"), target);
        let stream = STREAM_CAP ^ key.wrapping_mul(GOLDEN);
        decision_rng(self.plan.seed, tick, stream, u64::from(attempt)).next_f64() < faults.fail_prob
    }

    /// Which nodes are down.
    #[must_use]
    pub fn down_mask(&self) -> Vec<bool> {
        self.down.until.iter().map(Option::is_some).collect()
    }

    /// The throughput multiplier of node `node` while it straggles and
    /// is up; `None` otherwise.
    #[must_use]
    pub fn slowdown(&self, node: usize) -> Option<f64> {
        (self.straggle.active(node) && !self.down.active(node)).then_some(self.plan.nodes.slowdown)
    }

    /// The demand multiplier each tenant runs at: 1 when calm, else the
    /// larger of the spike and noisy factors whose episodes are active
    /// (both are validated finite and at least 1).
    #[must_use]
    pub fn tenant_demand(&self) -> Vec<f64> {
        let t = self.plan.tenants;
        (0..self.spike.until.len())
            .map(|i| {
                let spike = if self.spike.active(i) { t.spike_factor } else { 1.0 };
                let noisy = if self.noisy.active(i) { t.noisy_factor } else { 1.0 };
                spike.max(noisy)
            })
            .collect()
    }

    /// Is global coordination unavailable at `tick`?
    #[must_use]
    pub fn coordinator_outage(&self, tick: usize) -> bool {
        self.plan.coordinator_outage.active(tick)
    }

    /// The budget factors (of the initial budget) scheduled for `tick`,
    /// in plan order.
    #[must_use]
    pub fn budget_steps(&self, tick: usize) -> Vec<f64> {
        self.plan.budget_steps.iter().filter(|s| s.at == tick).map(|s| s.factor).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fleet_preset_resolves_validates_and_has_a_description() {
        for name in FLEET_PLAN_NAMES {
            let plan = FleetFaultPlan::by_name(name, 42).unwrap();
            assert_eq!(plan.name, name);
            plan.validate().unwrap();
            assert!(FleetFaultPlan::describe(name).is_some(), "{name} lacks a description");
        }
        assert!(FleetFaultPlan::by_name("nope", 1).is_none());
        assert!(FleetFaultPlan::describe("nope").is_none());
    }

    /// The seed-independence of the fleet budget invariant rests on
    /// this: shipped presets never step the budget while any cap-write
    /// fault (stochastic or outage) can still be in flight.
    #[test]
    fn shipped_fleet_plans_never_step_budget_while_writes_can_fail() {
        for name in FLEET_PLAN_NAMES {
            let plan = FleetFaultPlan::by_name(name, 1).unwrap();
            let write_tail = if plan.writes.outage_window.is_empty() {
                plan.writes.window.until
            } else {
                plan.writes
                    .window
                    .until
                    .max(plan.writes.outage_window.until + plan.writes.outage_epochs)
            };
            for step in &plan.budget_steps {
                assert!(
                    step.at >= write_tail,
                    "{name}: budget step at {} inside the write-fault tail [0, {write_tail})",
                    step.at
                );
            }
        }
    }

    #[test]
    fn quiet_after_covers_outage_and_straggle_tails() {
        let plan = FleetFaultPlan::everything(7);
        let q = plan.quiet_after();
        assert_eq!(q, 49); // last budget step at 48
        assert!(q >= plan.nodes.crash_window.until + plan.nodes.outage_epochs);
        assert!(q >= plan.writes.outage_window.until + plan.writes.outage_epochs);
        assert!(q >= plan.coordinator_outage.until);
        assert_eq!(FleetFaultPlan::calm(7).quiet_after(), 0);
        let crash = FleetFaultPlan::node_crash(1);
        assert_eq!(crash.quiet_after(), crash.nodes.crash_window.until + 12);
    }

    #[test]
    fn validation_rejects_garbage() {
        let mut plan = FleetFaultPlan::node_crash(1);
        plan.nodes.crash_prob = 1.5;
        assert!(plan.validate().is_err());
        let mut plan = FleetFaultPlan::node_crash(1);
        plan.nodes.outage_epochs = 0;
        assert!(plan.validate().is_err());
        let mut plan = FleetFaultPlan::stragglers(1);
        plan.nodes.slowdown = 0.0;
        assert!(plan.validate().is_err());
        let mut plan = FleetFaultPlan::report_loss(1);
        plan.reports.drop_prob = 0.6;
        plan.reports.delay_prob = 0.3;
        plan.reports.garble_prob = 0.2;
        assert!(plan.validate().is_err(), "report sum > 1 must be rejected");
        let mut plan = FleetFaultPlan::everything(1);
        plan.budget_steps[0].factor = f64::NAN;
        assert!(plan.validate().is_err());
        let mut plan = FleetFaultPlan::demand_spike(1);
        plan.tenants.spike_epochs = 0;
        assert!(plan.validate().is_err(), "armed spikes need a duration");
        let mut plan = FleetFaultPlan::noisy_neighbor(1);
        plan.tenants.noisy_factor = 0.5;
        assert!(plan.validate().is_err(), "a demand multiplier below 1 is not a hog");
    }

    /// The expiry rule every episode kind shares: an episode ending at
    /// tick `t` frees its entity, which draws nothing until `t + 1`.
    #[test]
    fn an_episode_ending_this_tick_draws_nothing_this_tick() {
        let mut e = Episodes::new(STREAM_NODE, 1);
        let always = (1.0, FaultWindow::new(0, 100), 2);
        assert_eq!(e.roll(1, 0, always, |_| true), (1, 0));
        assert_eq!(e.roll(1, 1, always, |_| true), (0, 0));
        assert_eq!(e.roll(1, 2, always, |_| true), (0, 1), "the expiry tick draws nothing");
        assert!(!e.active(0));
        assert_eq!(e.roll(1, 3, always, |_| true), (1, 0));
        assert_eq!(e.roll(1, 4, always, |_| false), (0, 0), "an ineligible entity never starts");
    }

    fn certain_crashes_and_stragglers() -> FleetFaultPlan {
        FleetFaultPlan {
            nodes: NodeFaults {
                crash_prob: 1.0,
                crash_window: FaultWindow::new(0, 1),
                outage_epochs: 3,
                straggler_prob: 1.0,
                straggler_window: FaultWindow::new(0, 10),
                straggle_epochs: 2,
                slowdown: 0.5,
            },
            ..FleetFaultPlan::calm(3)
        }
    }

    #[test]
    fn down_nodes_neither_straggle_nor_report_and_re_arming_keeps_episodes() {
        let mut faults = FleetFaults::new(2);
        faults.arm(certain_crashes_and_stragglers()).unwrap();
        let rolled = faults.roll(0);
        assert_eq!((rolled.crashed, rolled.recovered), (2, 0));
        assert_eq!(faults.down_mask(), vec![true, true]);
        assert_eq!(faults.slowdown(0), None, "a node that crashed this tick cannot straggle");
        assert_eq!(faults.report(0, 0, Watts::new(90.0), Watts::new(80.0), 0.5), None);
        // Re-arming replaces the plan only: the outage runs on.
        faults.arm(FleetFaultPlan::calm(3)).unwrap();
        assert_eq!(faults.roll(1), FleetRoll::default());
        assert_eq!(faults.down_mask(), vec![true, true]);
        assert_eq!(faults.roll(3).recovered, 2);
        let honest = faults.report(3, 1, Watts::new(90.0), Watts::new(80.0), 0.5);
        assert_eq!(honest, Some((Watts::new(90.0), 0.5)));
    }

    #[test]
    fn a_write_outage_fails_every_attempt_and_a_straggler_reports_late() {
        let mut faults = FleetFaults::new(1);
        faults
            .arm(FleetFaultPlan {
                writes: FleetWriteFaults {
                    outage_prob: 1.0,
                    outage_epochs: 2,
                    outage_window: FaultWindow::new(0, 1),
                    ..FleetWriteFaults::NONE
                },
                nodes: NodeFaults { crash_prob: 0.0, ..certain_crashes_and_stragglers().nodes },
                ..FleetFaultPlan::calm(3)
            })
            .unwrap();
        let _ = faults.roll(0);
        assert!((0..4).all(|a| faults.write_fails(0, 0, Watts::new(50.0), a)));
        assert_eq!(faults.slowdown(0), Some(0.5));
        let late = faults.report(0, 0, Watts::new(90.0), Watts::new(80.0), 0.5);
        assert_eq!(late, Some((Watts::new(80.0), 0.5)));
        let _ = faults.roll(2);
        assert!(!faults.write_fails(2, 0, Watts::new(50.0), 0), "the outage is over");
    }

    #[test]
    fn tenant_presets_cover_their_tails() {
        let spike = FleetFaultPlan::demand_spike(3);
        assert_eq!(
            spike.quiet_after(),
            spike.tenants.spike_window.until + spike.tenants.spike_epochs
        );
        let noisy = FleetFaultPlan::noisy_neighbor(3);
        assert_eq!(
            noisy.quiet_after(),
            noisy.tenants.noisy_window.until + noisy.tenants.noisy_epochs
        );
    }
}
