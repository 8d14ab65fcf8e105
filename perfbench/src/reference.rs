//! A fixed unit of bench-owned CPU work, timed next to every fleet
//! epoch, so epoch times can be stated at a nominal host speed.
//!
//! On a shared virtual machine the same 512-node epoch sequence took
//! 45 ms per epoch in one run and 87 ms a minute later: the host, not
//! the program, moved. The reference is a miniature water-fill of its
//! own: a few greedy grants over 512 nodes, each pricing every node's
//! marginal gain on one of three interpolated curve tables (two
//! interpolations and a division per node, as the partition's inner
//! loop does). It belongs to this benchmark, so no program change can
//! speed it up. An epoch's time, multiplied by [`NOMINAL_US`] over the
//! median of the reference times around it, raised to
//! [`EPOCH_EXPONENT`], is that epoch's time on a host where the
//! reference takes [`NOMINAL_US`]. The raw times are printed beside the
//! scaled ones.
//!
//! The host this was tuned on switched, every few seconds, between a
//! fast state and one where this reference ran ~1.9x slower; an earlier
//! reference without divisions slowed only ~1.25x and left most of the
//! shift in the scaled times.

use std::hint::black_box;
use std::time::Instant;

/// Greedy grants per reference sample (~70 µs on a two-vCPU virtual
/// machine in its fast state).
const GRANTS: usize = 10;
/// Reference samples an epoch's scale is the median of.
const WINDOW: usize = 8;
/// Median reference time on the host the bounds were set on: a
/// two-vCPU virtual machine, in its fast state.
pub const NOMINAL_US: f64 = 70.0;
/// How fleet epoch times follow the reference: across twelve fleet runs,
/// some mostly in the fast state and some mostly in the slow one, both
/// fleets' median epoch time moved as the reference time to the power
/// 0.7 (scaled by the full ratio, slow-state runs read 10–15% low).
pub const EPOCH_EXPONENT: f64 = 0.7;
/// How fleet set-up times follow the reference (fitted the same way, on
/// twelve runs' set-ups): less of a set-up is division-bound.
pub const SETUP_EXPONENT: f64 = 0.5;
/// Nodes in the reference fill, as in the large fleet.
const NODES: usize = 512;
/// Budget step between curve samples (W).
const STEP_W: f64 = 4.0;

/// One reference curve: performance sampled every [`STEP_W`] from a floor.
struct Table {
    floor: f64,
    perf: Vec<f64>,
}

impl Table {
    fn ceiling(&self) -> f64 {
        self.floor + STEP_W * self.perf.len().saturating_sub(1) as f64
    }

    fn perf_at(&self, watts: f64) -> f64 {
        if watts < self.floor {
            return 0.0;
        }
        let offset = (watts - self.floor) / STEP_W;
        let k = offset.floor() as usize;
        match (self.perf.get(k), self.perf.get(k + 1)) {
            (Some(lo), Some(hi)) => lo + (hi - lo) * (offset - k as f64),
            _ => self.perf.last().copied().unwrap_or(0.0),
        }
    }
}

/// The reference fill: three seeded concave-ish curves shared by 512
/// nodes (half, a quarter, a quarter), and the shares it grants into.
struct Fill {
    tables: [Table; 3],
    class: Vec<usize>,
    shares: Vec<f64>,
}

impl Default for Fill {
    fn default() -> Fill {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let tables = [0usize, 1, 2].map(|c| {
            let mut p = 0.0;
            let perf = (0..40 + 17 * c)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    p += (x >> 11) as f64 / (1u64 << 53) as f64 * 0.05;
                    p
                })
                .collect();
            Table {
                floor: 80.0 + 30.0 * c as f64,
                perf,
            }
        });
        let class = (0..NODES).map(|i| (i * 4 / NODES).saturating_sub(1)).collect();
        Fill {
            tables,
            class,
            shares: vec![0.0; NODES],
        }
    }
}

impl Fill {
    /// `grants` greedy one-watt grants from the floors; the granted total.
    fn run(&mut self, grants: usize) -> f64 {
        for (s, &c) in self.shares.iter_mut().zip(&self.class) {
            *s = self.tables[c].floor;
        }
        for _ in 0..grants {
            let mut best: Option<(usize, f64)> = None;
            for (i, &c) in self.class.iter().enumerate() {
                let t = &self.tables[c];
                let room = (t.ceiling() - self.shares[i]).max(0.0);
                if room <= 1e-9 {
                    continue;
                }
                let q = room.min(1.0);
                let gain = (t.perf_at(self.shares[i] + q) - t.perf_at(self.shares[i])) / q;
                if best.is_none_or(|(_, g)| gain > g + 1e-12) {
                    best = Some((i, gain));
                }
            }
            match best {
                Some((i, _)) => self.shares[i] += 1.0,
                None => break,
            }
        }
        self.shares.iter().sum()
    }
}

/// Reference timings, one before every epoch and one after the last.
#[derive(Default)]
pub struct Probe {
    fill: Fill,
    /// Every sample taken (µs).
    samples: Vec<f64>,
}

impl Probe {
    /// Time one reference sample.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(self.fill.run(black_box(GRANTS)));
        self.samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }

    /// The scale of the work that ran between samples `i` and `i + 1`:
    /// nominal over the median of the [`WINDOW`] samples centred on it,
    /// half taken before the work and half after, to `exponent`.
    pub fn scale_at(&self, i: usize, exponent: f64) -> f64 {
        let lo = (i + 1).saturating_sub(WINDOW / 2);
        let hi = (i + 1 + WINDOW / 2).min(self.samples.len());
        let window = self.samples.get(lo..hi).unwrap_or(&[]);
        (NOMINAL_US / crate::stats::median(window).unwrap_or(NOMINAL_US)).powf(exponent)
    }

    /// The median of every sample (µs).
    pub fn median_us(&self) -> f64 {
        crate::stats::median(&self.samples).unwrap_or(f64::NAN)
    }

    /// Wall time (s) the samples themselves took.
    pub fn spent_s(&self) -> f64 {
        self.samples.iter().sum::<f64>() / 1e6
    }
}
