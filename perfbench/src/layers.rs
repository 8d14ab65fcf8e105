//! Per-layer breakdown of the spans a traced run recorded.
//!
//! The traced runs open one parent span per request or epoch and one
//! child span around each public call into a layer, all from this
//! benchmark's own code. Spans stay in the `pbc_trace` registry (in
//! memory) until the run ends; [`Layers::collect`] then groups them by
//! name and [`Layers::dump`] writes them out as JSON lines.

use pbc_trace::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// The span names the benchmark records, one per public call it times.
pub mod span {
    /// One serving request (parent).
    pub const SERVE_REQUEST: &str = "serve.request";
    /// `pbc_serve::proto::parse`.
    pub const PROTO_PARSE: &str = "proto.parse";
    /// `ServeEngine::dispatch_into`.
    pub const ENGINE_DISPATCH: &str = "engine.dispatch";
    /// `OnlineCoordinator::set_budget` + `next_allocation` on a replica.
    pub const ONLINE_SET_BUDGET: &str = "online.set_budget";
    /// `OnlineCoordinator::observe` + `next_allocation` on a replica.
    pub const ONLINE_OBSERVE: &str = "online.observe";
    /// `pbc_serve::proto::render_alloc`.
    pub const PROTO_RENDER: &str = "proto.render";
    /// One fleet epoch (parent).
    pub const FLEET_EPOCH: &str = "fleet.epoch";
    /// `FleetCoordinator::set_global_budget`.
    pub const FLEET_SET_BUDGET: &str = "fleet.set_budget";
    /// `FleetCoordinator::step`.
    pub const COORDINATOR_STEP: &str = "coordinator.step";
    /// `fill_shares` on the epoch's live curves (replica).
    pub const PARTITION_FILL: &str = "partition.fill";
    /// `NodeClass::coordinate` on every live node's cap (replica).
    pub const FLEET_COORD: &str = "fleet.coord";
    /// `SolveMemo::solve` pricing every COORD allocation (replica).
    pub const POWERSIM_SOLVE: &str = "powersim.solve";
    /// `TenantSet::split_node` on every live node (replica).
    pub const TENANT_SPLIT: &str = "tenant.split";
    /// `RaplDomain::set_power_limit` inside the bench's cap sink.
    pub const RAPL_WRITE: &str = "rapl.write";
}

/// Spans grouped by name, with each span's child time.
pub struct Layers {
    /// Durations (ns) of every span, by name, in completion order.
    durations: BTreeMap<String, Vec<f64>>,
    /// Σ duration of each name's direct children (ns), by parent name.
    child_ns: BTreeMap<String, f64>,
}

impl Layers {
    /// Group the spans recorded so far.
    pub fn collect(spans: &[SpanRecord]) -> Layers {
        let mut children: HashMap<u64, f64> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_default() += s.dur_ns as f64;
            }
        }
        let mut durations: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut child_ns: BTreeMap<String, f64> = BTreeMap::new();
        for s in spans {
            durations
                .entry(s.name.clone())
                .or_default()
                .push(s.dur_ns as f64);
            *child_ns.entry(s.name.clone()).or_default() +=
                children.get(&s.id).copied().unwrap_or(0.0);
        }
        Layers {
            durations,
            child_ns,
        }
    }

    /// Every duration (ns) recorded under `name`.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.durations(name).len()
    }

    /// Σ duration (ns) of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Σ duration (ns) of the direct children of the spans named `name`.
    pub fn children_ns(&self, name: &str) -> f64 {
        self.child_ns.get(name).copied().unwrap_or(0.0)
    }

    /// Mean duration (ns) per span named `name`; 0 when none ran.
    pub fn mean_ns(&self, name: &str) -> f64 {
        crate::stats::ratio(self.total_ns(name), self.count(name) as f64)
    }

    /// One table line per span name: count, total, self time (total
    /// minus direct children), and mean.
    pub fn table(&self) -> Vec<String> {
        let mut out = vec![format!(
            "{:<28} {:>9} {:>12} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms", "mean_us"
        )];
        for (name, durs) in &self.durations {
            let total = self.total_ns(name);
            out.push(format!(
                "{:<28} {:>9} {:>12.3} {:>12.3} {:>12.3}",
                name,
                durs.len(),
                total / 1e6,
                (total - self.children_ns(name)) / 1e6,
                self.mean_ns(name) / 1e3
            ));
        }
        out
    }
}

/// Write every recorded span, counter and gauge to `path` as JSON lines.
#[must_use = "an unwritten span dump must be reported"]
pub fn dump(path: &Path) -> Result<(), String> {
    pbc_trace::export(path).map_err(|e| format!("{}: {e}", path.display()))
}
