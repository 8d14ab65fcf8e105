//! Per-node performance~budget curves — the marginal-utility signal the
//! water-filling partitioner redistributes on.
//!
//! The curve type itself now lives in the core crate as
//! [`pbc_core::fastpath::CurveTable`]: the cluster water-filler and the
//! single-node steady-state fast path interpolate the *same* table (one
//! shared-grid oracle pass per class, on the calling thread), so there is
//! exactly one `perf_max ~ P_b` representation in the workspace. This
//! module re-exports it under its historical cluster name, along with
//! the class floor/ceiling helpers the partitioner uses to bound shares.
//!
//! Between samples the curve interpolates linearly. §3.1 of the paper
//! shows `perf_max ~ P_b` is monotone non-decreasing and concave-ish
//! (steep while a component is starved, flat past the demand point), so
//! piecewise-linear interpolation preserves exactly the structure the
//! water-filling pass needs: marginal gain per granted watt that shrinks
//! as a node approaches its flattening point. On top of the perf
//! samples, the shared table carries the oracle's best *allocation* per
//! rung, so a share granted by the water-filler can be turned into
//! component caps without a solve (see `pbc_core::fastpath`).

pub use pbc_core::fastpath::{node_ceiling, node_floor, CurveTable as PerfCurve};
use pbc_types::Watts;

/// Budget spacing of the curve samples — the core table step. Coarser
/// than the 4 W sweep grid: the curve only has to rank marginal gains.
pub const SAMPLE_STEP: Watts = pbc_core::fastpath::TABLE_STEP;

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_platform::presets::{ivybridge, titan_xp};
    use pbc_workloads::by_name;

    #[test]
    fn cpu_curve_is_monotone_and_saturates() {
        let p = ivybridge();
        let d = by_name("stream").unwrap().demand;
        let curve = PerfCurve::profile(&p, &d).unwrap();
        assert!(curve.floor >= p.min_node_power());
        for w in curve.perf.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "perf_max must be non-decreasing");
        }
        // Past the ceiling the curve is flat.
        let top = curve.perf_at(curve.ceiling());
        assert!((curve.perf_at(curve.ceiling() + Watts::new(100.0)) - top).abs() < 1e-12);
        // Below the floor the class cannot run.
        assert_eq!(curve.perf_at(curve.floor - Watts::new(1.0)).to_bits(), 0f64.to_bits());
    }

    #[test]
    fn interpolation_brackets_the_samples() {
        let p = ivybridge();
        let d = by_name("dgemm").unwrap().demand;
        let curve = PerfCurve::profile(&p, &d).unwrap();
        let mid = curve.floor + curve.step * 0.5;
        let lo = curve.perf[0];
        let hi = curve.perf[1];
        let v = curve.perf_at(mid);
        assert!(v >= lo.min(hi) - 1e-12 && v <= lo.max(hi) + 1e-12);
    }

    #[test]
    fn gpu_floor_respects_the_card_minimum() {
        let p = titan_xp();
        let d = by_name("sgemm").unwrap().demand;
        let floor = node_floor(&p, &d);
        assert!(floor >= p.gpu().unwrap().min_card_cap);
        let curve = PerfCurve::profile(&p, &d).unwrap();
        assert!(curve.perf_at(curve.ceiling()) > 0.0);
    }

    #[test]
    fn marginal_gain_shrinks_toward_the_ceiling() {
        let p = ivybridge();
        let d = by_name("stream").unwrap().demand;
        let curve = PerfCurve::profile(&p, &d).unwrap();
        // Wide enough to step over stream's flat first rung at the floor.
        let grant = Watts::new(24.0);
        let steep = curve.marginal_gain(curve.floor, grant);
        let flat = curve.marginal_gain(curve.ceiling(), grant);
        assert!(steep > flat, "gain at the floor {steep} must beat gain at the ceiling {flat}");
        assert!(flat.abs() < 1e-9);
    }

    /// The cluster curve and the core fast-path table are literally the
    /// same type: a share granted by the water-filler can be served as
    /// component caps straight off the profile the partitioner already
    /// holds.
    #[test]
    fn water_fill_shares_are_servable_as_allocations() {
        let p = ivybridge();
        let d = by_name("sra").unwrap().demand;
        let curve = PerfCurve::profile(&p, &d).unwrap();
        let share = curve.floor + Watts::new(30.0);
        let alloc = curve.alloc_at(share).expect("in-range share must serve");
        assert!(alloc.total().value() <= share.value() + 1e-9);
    }
}
