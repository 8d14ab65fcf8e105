//! One coordination session: an [`OnlineCoordinator`] for a simulated
//! node, seeded from the shared steady-state fast path.
//!
//! # The construction recipe (the equivalence contract)
//!
//! The daemon must answer *identically* to the offline batch path, so a
//! session is built from public pieces only, in a fixed order any
//! offline replayer can mirror. Steps 1–3 depend only on the session's
//! class, the `(platform, benchmark)` pair, and are resolved once per
//! class by `SessionClass::resolve`:
//!
//! 1. resolve the platform preset and benchmark by slug;
//! 2. `CurveTable::shared(&platform, &bench.demand)` — the process-wide
//!    oracle table for the node's `(platform, workload-class)`, shared
//!    across every session of the class as an `Arc`;
//! 3. `OnlineConfig { min_budget: platform.min_node_power(), ..default }`.
//!
//! Steps 4–5 run once per session, in `SessionClass::open`:
//!
//! 4. initial split = `table.alloc_at(budget)` (the table optimum),
//!    falling back to an even `PowerAllocation::split(budget, 0.5)`
//!    when the budget sits below the table floor;
//! 5. `OnlineCoordinator::new(budget, initial, config).with_table(table)`.
//!
//! [`Session::open`] is the two in sequence; `provision` resolves once
//! and opens `count` sessions from the one class.
//!
//! `crates/serve/tests/replay_equivalence.rs` holds the daemon to this:
//! a request log replayed through a fresh offline coordinator built by
//! the same recipe must produce bit-identical allocations.

use crate::proto::ServeError;
use pbc_core::{node_ceiling, node_floor, CurveTable, OnlineConfig, OnlineCoordinator};
use pbc_platform::{presets, NodeSpec, Platform, PlatformId};
use pbc_types::{PowerAllocation, Watts};
use pbc_workloads::{by_name, Target};
use std::sync::Arc;

/// One live coordination session.
pub struct Session {
    /// The online search for this node.
    pub tuner: OnlineCoordinator,
    /// Smallest schedulable node budget for the session's class.
    pub floor: Watts,
    /// Budget past which extra watts are stranded for the class.
    pub ceiling: Watts,
}

/// Resolve a platform slug to its preset.
#[must_use = "the lookup failure is a typed protocol rejection"]
pub fn resolve_platform(slug: &str) -> Result<Platform, ServeError> {
    PlatformId::from_slug(slug)
        .map(presets::by_id)
        .ok_or_else(|| ServeError::UnknownPlatform(slug.to_string()))
}

/// Steps 1–3 of the recipe for one `(platform, benchmark)` class: what
/// every session of the class shares.
pub(crate) struct SessionClass {
    /// Smallest schedulable node budget for the class.
    pub(crate) floor: Watts,
    /// Budget past which extra watts are stranded for the class.
    pub(crate) ceiling: Watts,
    /// The platform slug as requested, for the floor rejection's text.
    platform_slug: String,
    config: OnlineConfig,
    table: Arc<CurveTable>,
}

impl SessionClass {
    /// Resolve the class of a session opening at `budget`. Rejections
    /// keep their precedence: platform, bench, target, budget. The
    /// budget is checked before the table is fetched, so a rejected
    /// budget builds no table.
    #[must_use = "the class result carries either the class or the typed rejection"]
    pub(crate) fn resolve(
        platform_slug: &str,
        bench_slug: &str,
        budget: f64,
    ) -> Result<SessionClass, ServeError> {
        let platform = resolve_platform(platform_slug)?;
        let bench = by_name(bench_slug)
            .ok_or_else(|| ServeError::UnknownBench(bench_slug.to_string()))?;
        match (&platform.spec, bench.target) {
            (NodeSpec::Cpu { .. }, Target::Cpu) | (NodeSpec::Gpu(_), Target::Gpu) => {}
            _ => {
                return Err(ServeError::Build(format!(
                    "benchmark {bench_slug:?} does not target platform {platform_slug:?}"
                )))
            }
        }
        let min = platform.min_node_power();
        admit(budget, min, platform_slug)?;
        let table = CurveTable::shared(&platform, &bench.demand)
            .map_err(|e| ServeError::Build(e.to_string()))?;
        Ok(SessionClass {
            floor: node_floor(&platform, &bench.demand),
            ceiling: node_ceiling(&platform, &bench.demand),
            platform_slug: platform_slug.to_string(),
            config: OnlineConfig { min_budget: min, ..OnlineConfig::default() },
            table,
        })
    }

    /// Steps 4–5: open one session of this class at `budget`.
    #[must_use = "the session result carries either the session or the typed rejection"]
    pub(crate) fn open(&self, budget: f64) -> Result<Session, ServeError> {
        let budget = admit(budget, self.config.min_budget, &self.platform_slug)?;
        let initial = self
            .table
            .alloc_at(budget)
            .unwrap_or_else(|| PowerAllocation::split(budget, 0.5));
        Ok(Session {
            tuner: OnlineCoordinator::new(budget, initial, self.config)
                .with_table(Arc::clone(&self.table)),
            floor: self.floor,
            ceiling: self.ceiling,
        })
    }
}

/// A session budget must be a positive finite wattage at or above the
/// platform floor `min`.
fn admit(budget: f64, min: Watts, platform_slug: &str) -> Result<Watts, ServeError> {
    if !budget.is_finite() || budget <= 0.0 {
        return Err(ServeError::RejectedBudget(format!(
            "budget {budget} is not a positive finite wattage"
        )));
    }
    let budget = Watts::new(budget);
    if budget < min {
        return Err(ServeError::RejectedBudget(format!(
            "budget {} W is below the {} platform floor of {} W",
            budget.value(),
            platform_slug,
            min.value()
        )));
    }
    Ok(budget)
}

impl Session {
    /// Open a session by the recipe in the module docs: resolve its
    /// class, then open one session of it.
    #[must_use = "the session result carries either the session or the typed rejection"]
    pub fn open(platform_slug: &str, bench_slug: &str, budget: f64) -> Result<Session, ServeError> {
        SessionClass::resolve(platform_slug, bench_slug, budget)?.open(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_resolves_and_seeds_from_the_table() {
        let s = Session::open("ivybridge", "stream", 208.0).unwrap();
        assert_eq!(s.tuner.budget(), Watts::new(208.0));
        assert!(s.floor < s.ceiling);
        // The initial split is the table optimum, not the even split.
        let table = CurveTable::shared(
            &resolve_platform("ivybridge").unwrap(),
            &by_name("stream").unwrap().demand,
        )
        .unwrap();
        let expect = table.alloc_at(Watts::new(208.0)).unwrap();
        assert_eq!(s.tuner.best(), expect);
    }

    #[test]
    fn a_resolved_class_opens_sessions_equal_to_open() {
        let class = SessionClass::resolve("haswell", "dgemm", 190.5).unwrap();
        let direct = Session::open("haswell", "dgemm", 190.5).unwrap();
        let opened = class.open(190.5).unwrap();
        assert_eq!(opened.tuner.best(), direct.tuner.best());
        assert_eq!(opened.tuner.budget(), direct.tuner.budget());
        assert_eq!((opened.floor, opened.ceiling), (direct.floor, direct.ceiling));
        assert!(matches!(class.open(f64::NAN), Err(ServeError::RejectedBudget(_))));
        assert!(matches!(class.open(1.0), Err(ServeError::RejectedBudget(_))));
    }

    #[test]
    fn open_rejects_with_typed_errors() {
        assert!(matches!(
            Session::open("nope", "stream", 208.0),
            Err(ServeError::UnknownPlatform(_))
        ));
        assert!(matches!(
            Session::open("ivybridge", "nope", 208.0),
            Err(ServeError::UnknownBench(_))
        ));
        assert!(matches!(
            Session::open("ivybridge", "sgemm", 208.0),
            Err(ServeError::Build(_))
        ));
        assert!(matches!(
            Session::open("ivybridge", "stream", f64::NAN),
            Err(ServeError::RejectedBudget(_))
        ));
        assert!(matches!(
            Session::open("ivybridge", "stream", 1.0),
            Err(ServeError::RejectedBudget(_))
        ));
    }
}
