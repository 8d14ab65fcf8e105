//! Memoized solving: a canonical-key cache over [`solve_cpu`] /
//! [`solve_gpu`] for callers that solve many allocations of the same
//! `(platform, demand)` problem — the shared-grid oracle, COORD
//! profiling, critical-power boundary walks, baseline comparisons.
//!
//! ## Why the keys are exact, not approximate
//!
//! A naive memo would quantize the allocation to a fixed grid and accept
//! near-miss lookups; that trades accuracy for hits and would break the
//! repo's bit-identical equivalence tests. Instead the key is the tuple
//! of values the solver *actually* depends on, exploiting the hardware
//! models' own quantization:
//!
//! * **CPU** — `alloc.mem` enters the solver only through
//!   [`dram_bw_ceiling`], which quantizes the cap down to the DRAM
//!   throttle grid (and floors/saturates it); `alloc.proc` enters only
//!   as the RAPL comparison cap. The key is therefore
//!   `(proc-cap bits, per-phase bandwidth-ceiling bits)`: two
//!   allocations with equal keys are *provably* solved to the same
//!   operating point, and distinct solver inputs always get distinct
//!   keys. On a hit only `alloc` itself is patched onto the cached
//!   point.
//! * **GPU** — the solver depends on `(effective card cap, memory clock
//!   level, and — only on non-reclaiming cards — the SM share)`. Within
//!   one budget's sweep every allocation shares the card cap, so a
//!   reclaiming card collapses to roughly one solve per exposed memory
//!   level. On a hit `alloc` and the derived `reclaimed` watts are
//!   recomputed exactly as the solver would.
//!
//! The nominal (unconstrained) reference time depends only on the
//! problem, never the allocation, so each memo computes it once — this
//! alone halves the CPU solver's cost even at a 0% hit rate.
//!
//! Hits and misses are observable as `solve.cache_hits` /
//! `solve.cache_misses`. Memoized misses call the split solver entry
//! points directly and are *not* counted in `solve.evaluations`, which
//! keeps that counter an honest measure of full-price solver work.

use crate::cpunode::{self, dram_bw_ceiling, solve_cpu_with_nominal};
use crate::demand::WorkloadDemand;
use crate::gpunode::{self, check_card_cap, solve_gpu_with_nominal};
use crate::operating::{MechanismState, NodeOperatingPoint};
use crate::registry::{lock, BoundedRegistry};
use pbc_platform::{CpuSpec, DramSpec, GpuSpec, NodeSpec, Platform};
use pbc_types::{PowerAllocation, Result, Watts};
use std::collections::HashMap;
use std::borrow::Borrow;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// The cache behind one memo, keyed by the words of a canonical key —
/// exactly the solver's effective inputs:
///
/// * CPU: the proc-cap bits, then each phase's quantized bandwidth
///   ceiling bits;
/// * GPU: the effective card-cap bits and the memory clock level, then —
///   only on non-reclaiming cards, where it enters the solve — the SM
///   share bits.
///
/// One memo is bound to one kind, and a CPU key's length is fixed by its
/// demand, so equal word sequences are equal solver inputs. A lookup
/// writes its key into the `key` scratch and probes with that slice, so
/// a hit allocates nothing.
#[derive(Default)]
struct Cache {
    points: HashMap<Key, NodeOperatingPoint, BuildHasherDefault<WordHasher>>,
    key: Vec<u64>,
}

/// A stored key's words: inline up to three — every key a shipped
/// workload produces, since catalog demands have at most two phases —
/// and boxed past that. Looked up by its word slice.
enum Key {
    Inline(u8, [u64; 3]),
    Boxed(Box<[u64]>),
}

impl Key {
    fn new(words: &[u64]) -> Key {
        match u8::try_from(words.len()) {
            Ok(len) if len <= 3 => {
                let mut inline = [0; 3];
                inline[..words.len()].copy_from_slice(words);
                Key::Inline(len, inline)
            }
            _ => Key::Boxed(words.into()),
        }
    }

    fn words(&self) -> &[u64] {
        match self {
            Key::Inline(len, inline) => &inline[..usize::from(*len)],
            Key::Boxed(words) => words,
        }
    }
}

impl Borrow<[u64]> for Key {
    fn borrow(&self) -> &[u64] {
        self.words()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.words() == other.words()
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
    }
}

/// A multiply-rotate word hash with a full avalanche in `finish`. The
/// keys are float bit patterns whose low bits are mostly zero; without
/// the final mix they would all land in the same few buckets. The keys
/// are allocations the program derives itself (sweep grids, water-filled
/// shares), so SipHash's flooding resistance buys nothing here.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        for &byte in words.remainder() {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    #[inline]
    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The 64-bit finalizer of MurmurHash3.
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    }
}

enum Bound {
    Cpu { cpu: CpuSpec, dram: DramSpec, prep: cpunode::Prepared },
    Gpu(GpuSpec),
}

/// A memoized solver for one `(platform, demand)` problem. Thread-safe:
/// any number of threads may share one memo. The shared-grid oracle
/// goes through [`SolveMemo::solve_batch`], so its pool executors solve
/// misses without touching the cache at all.
pub struct SolveMemo {
    bound: Bound,
    demand: WorkloadDemand,
    nominal: OnceLock<f64>,
    cache: Mutex<Cache>,
}

/// Most shared memos the registry keeps. One sweep touches a handful of
/// `(hardware, demand)` pairs; a long-running cluster loop cycling
/// through workload phases used to accrete one memo per pair it ever
/// saw, forever. 64 covers every preset × benchmark combination the
/// workspace ships with headroom, while bounding the worst case.
pub const MAX_SHARED_MEMOS: usize = 64;

/// Process-wide memo registry, keyed by an exact fingerprint of the
/// problem (the debug rendering of the full spec and demand — verbose,
/// but collision-free). A [`BoundedRegistry`] capped at
/// [`MAX_SHARED_MEMOS`]: when a new fingerprint would overflow it, the
/// least-recently-used entry is evicted (counted under
/// `solve.cache_evictions`). Live `Arc` handles keep an evicted memo's
/// caches alive for their holders — eviction only drops the registry's
/// route to it. `clear_shared` exists for cold-cache benchmarking.
fn registry() -> &'static BoundedRegistry<SolveMemo> {
    static REGISTRY: OnceLock<BoundedRegistry<SolveMemo>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        BoundedRegistry::new(
            MAX_SHARED_MEMOS,
            Some(pbc_trace::names::SOLVE_CACHE_EVICTIONS),
        )
    })
}

/// The `solve.cache_hits` / `solve.cache_misses` handles, registered
/// once.
fn cache_counters() -> &'static (pbc_trace::Counter, pbc_trace::Counter) {
    static COUNTERS: OnceLock<(pbc_trace::Counter, pbc_trace::Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            pbc_trace::counter(pbc_trace::names::SOLVE_CACHE_HITS),
            pbc_trace::counter(pbc_trace::names::SOLVE_CACHE_MISSES),
        )
    })
}

impl SolveMemo {
    /// The shared memo for a host-node problem.
    pub fn for_cpu(cpu: &CpuSpec, dram: &DramSpec, demand: &WorkloadDemand) -> Arc<SolveMemo> {
        registry().get_or_build(&format!("cpu|{cpu:?}|{dram:?}|{demand:?}"), || SolveMemo {
            bound: Bound::Cpu {
                cpu: cpu.clone(),
                dram: dram.clone(),
                prep: cpunode::Prepared::new(cpu, demand),
            },
            demand: demand.clone(),
            nominal: OnceLock::new(),
            cache: Mutex::default(),
        })
    }

    /// The shared memo for a GPU-card problem.
    pub fn for_gpu(gpu: &GpuSpec, demand: &WorkloadDemand) -> Arc<SolveMemo> {
        registry().get_or_build(&format!("gpu|{gpu:?}|{demand:?}"), || SolveMemo {
            bound: Bound::Gpu(gpu.clone()),
            demand: demand.clone(),
            nominal: OnceLock::new(),
            cache: Mutex::default(),
        })
    }

    /// The shared memo for any platform kind (dispatches like
    /// [`crate::solve`]).
    pub fn for_problem(platform: &Platform, demand: &WorkloadDemand) -> Arc<SolveMemo> {
        match &platform.spec {
            NodeSpec::Cpu { cpu, dram } => Self::for_cpu(cpu, dram, demand),
            NodeSpec::Gpu(gpu) => Self::for_gpu(gpu, demand),
        }
    }

    /// A private (unshared) memo — for tests and benches that need a
    /// cold cache regardless of what the rest of the process solved.
    pub fn fresh(platform: &Platform, demand: &WorkloadDemand) -> SolveMemo {
        let bound = match &platform.spec {
            NodeSpec::Cpu { cpu, dram } => Bound::Cpu {
                cpu: cpu.clone(),
                dram: dram.clone(),
                prep: cpunode::Prepared::new(cpu, demand),
            },
            NodeSpec::Gpu(gpu) => Bound::Gpu(gpu.clone()),
        };
        SolveMemo {
            bound,
            demand: demand.clone(),
            nominal: OnceLock::new(),
            cache: Mutex::default(),
        }
    }

    /// Drop every shared memo. Benches call this between iterations so
    /// timings measure a cold cache instead of earlier iterations' work.
    pub fn clear_shared() {
        registry().clear();
    }

    /// Shared memos currently registered (≤ [`MAX_SHARED_MEMOS`]).
    pub fn shared_len() -> usize {
        registry().len()
    }

    /// Cached entries in this memo.
    pub fn len(&self) -> usize {
        lock(&self.cache).points.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Solve `alloc`, through the cache. Results are bit-identical to
    /// the un-memoized solver (see the module docs for why).
    #[must_use = "the operating point or the solver failure must be inspected"]
    pub fn solve(&self, alloc: PowerAllocation) -> Result<NodeOperatingPoint> {
        let (hits, misses) = cache_counters();
        let mut cache = lock(&self.cache);
        let Cache { points, key } = &mut *cache;
        // Infeasible caps are rejected per call, not cached: rejection
        // is already cheaper than a cache probe.
        self.write_key(alloc, key)?;
        if let Some(&cached) = points.get(key.as_slice()) {
            drop(cache);
            hits.incr();
            return Ok(self.patch(cached, alloc));
        }
        let stored = Key::new(key);
        drop(cache);
        misses.incr();
        let result = self.solve_cold(alloc);
        if let Ok(op) = result {
            lock(&self.cache).points.insert(stored, op);
        }
        result
    }

    /// Solve every allocation of `allocs` through the cache, answering
    /// exactly as that many [`SolveMemo::solve`] calls in order would —
    /// results, hit flags (`true` = served from cache) and the
    /// `solve.cache_*` counters alike: the first occurrence of an
    /// uncached key is its miss, every later one a hit.
    ///
    /// Keys resolve under one lock. The distinct misses are then solved
    /// through `run(n, solve_miss)`, which calls `solve_miss(m)` for each
    /// `m in 0..n` on any threads in any order (a pool job, or a plain
    /// loop), and stored under a second lock. Nothing shared is touched
    /// while they solve, and how `run` schedules them never changes the
    /// answer. A miss `run` skipped is solved here, on the caller.
    #[must_use = "the operating points or the solver failures must be inspected"]
    pub fn solve_batch(
        &self,
        allocs: &[PowerAllocation],
        run: impl FnOnce(usize, &(dyn Fn(usize) + Sync)),
    ) -> Vec<(Result<NodeOperatingPoint>, bool)> {
        /// How one allocation is answered; the values sit in side
        /// vectors so this stays a few words.
        enum Answer {
            /// By the `i`-th refusal.
            Refused(usize),
            /// By the `i`-th cache hit.
            Cached(usize),
            /// By the batch's `miss`-th solve; `first` marks the
            /// occurrence that counts as its miss, every later one a hit.
            Solved { miss: usize, first: bool },
        }
        let mut answers = Vec::with_capacity(allocs.len());
        let (mut refusals, mut cached) = (Vec::new(), Vec::new());
        let mut pending: HashMap<Key, usize, BuildHasherDefault<WordHasher>> =
            HashMap::with_capacity_and_hasher(allocs.len(), BuildHasherDefault::default());
        let mut missed: Vec<PowerAllocation> = Vec::new();
        {
            let mut cache = lock(&self.cache);
            let Cache { points, key } = &mut *cache;
            for &alloc in allocs {
                answers.push(if let Err(e) = self.write_key(alloc, key) {
                    refusals.push(e);
                    Answer::Refused(refusals.len() - 1)
                } else if let Some(&op) = points.get(key.as_slice()) {
                    cached.push(op);
                    Answer::Cached(cached.len() - 1)
                } else if let Some(&miss) = pending.get(key.as_slice()) {
                    Answer::Solved { miss, first: false }
                } else {
                    pending.insert(Key::new(key), missed.len());
                    missed.push(alloc);
                    Answer::Solved { miss: missed.len() - 1, first: true }
                });
            }
        }

        let slots: Vec<OnceLock<Result<NodeOperatingPoint>>> =
            missed.iter().map(|_| OnceLock::new()).collect();
        run(missed.len(), &|m| {
            slots[m].get_or_init(|| self.solve_cold(missed[m]));
        });
        let solved: Vec<Result<NodeOperatingPoint>> = slots
            .into_iter()
            .zip(&missed)
            .map(|(slot, &alloc)| slot.into_inner().unwrap_or_else(|| self.solve_cold(alloc)))
            .collect();
        {
            let mut cache = lock(&self.cache);
            cache.points.reserve(pending.len());
            for (key, m) in pending {
                if let Ok(op) = solved[m] {
                    cache.points.insert(key, op);
                }
            }
        }

        let (hits, misses) = cache_counters();
        let repeats = answers.iter().filter(|a| matches!(a, Answer::Solved { first: false, .. }));
        hits.add((cached.len() + repeats.count()) as u64);
        misses.add(missed.len() as u64);
        answers
            .into_iter()
            .zip(allocs)
            .map(|(answer, &alloc)| match answer {
                Answer::Refused(i) => (Err(refusals[i].clone()), false),
                Answer::Cached(i) => (Ok(self.patch(cached[i], alloc)), true),
                Answer::Solved { miss, first } => {
                    (solved[miss].clone().map(|op| self.patch(op, alloc)), !first)
                }
            })
            .collect()
    }

    /// Solve `alloc` with no cache in the way (the nominal time is
    /// computed once per memo).
    fn solve_cold(&self, alloc: PowerAllocation) -> Result<NodeOperatingPoint> {
        match &self.bound {
            Bound::Cpu { cpu, dram, prep } => {
                let t_nominal = *self
                    .nominal
                    .get_or_init(|| cpunode::nominal_time(cpu, dram, &self.demand, prep));
                Ok(solve_cpu_with_nominal(cpu, dram, &self.demand, prep, alloc, t_nominal))
            }
            Bound::Gpu(gpu) => {
                let t_nominal =
                    *self.nominal.get_or_init(|| gpunode::nominal_time_gpu(gpu, &self.demand));
                solve_gpu_with_nominal(gpu, &self.demand, alloc, t_nominal)
            }
        }
    }

    /// Write `alloc`'s canonical key (see [`Cache`]) into `key`, or
    /// refuse an infeasible GPU card cap.
    fn write_key(&self, alloc: PowerAllocation, key: &mut Vec<u64>) -> Result<()> {
        key.clear();
        match &self.bound {
            Bound::Cpu { dram, .. } => {
                key.push(alloc.proc.value().to_bits());
                key.extend(self.demand.phases.iter().map(|(_, p)| {
                    dram_bw_ceiling(dram, alloc.mem, p.pattern_cost).value().to_bits()
                }));
            }
            Bound::Gpu(gpu) => {
                key.push(check_card_cap(gpu, alloc)?.value().to_bits());
                key.push(gpu.mem.level_under_cap(alloc.mem) as u64);
                if !gpu.reclaims_unused {
                    key.push(alloc.proc.value().to_bits());
                }
            }
        }
        Ok(())
    }

    /// A cached point as the solver would return it for `alloc`: the
    /// allocation itself, and on GPUs the reclaimed watts derived from
    /// it, are recomputed exactly as the solver computes them.
    fn patch(&self, mut op: NodeOperatingPoint, alloc: PowerAllocation) -> NodeOperatingPoint {
        op.alloc = alloc;
        if let (Bound::Gpu(gpu), MechanismState::Gpu(st)) = (&self.bound, &mut op.mechanism) {
            st.reclaimed = if gpu.reclaims_unused {
                (op.proc_power - alloc.proc).max(Watts::ZERO)
            } else {
                Watts::ZERO
            };
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::PhaseDemand;
    use crate::solve;
    use pbc_platform::presets::{haswell, ivybridge, titan_xp};
    use pbc_types::Watts;

    fn cpu_demands() -> Vec<WorkloadDemand> {
        vec![
            WorkloadDemand::single("sra-like", PhaseDemand::random_bound()),
            WorkloadDemand::single("stream-like", PhaseDemand::stream_bound()),
            WorkloadDemand::single("dgemm-like", PhaseDemand::compute_bound()),
            WorkloadDemand::phased(
                "mixed",
                vec![
                    (0.7, PhaseDemand::compute_bound()),
                    (0.3, PhaseDemand::stream_bound()),
                ],
            ),
        ]
    }

    fn sgemm_like() -> WorkloadDemand {
        WorkloadDemand::single(
            "sgemm-like",
            PhaseDemand {
                compute_efficiency: 0.85,
                arithmetic_intensity: 40.0,
                bw_saturation: 0.5,
                pattern_cost: 1.0,
                overlap: 0.95,
                issue_sensitivity: 0.3,
                act_compute: 1.0,
                act_stall: 0.3,
            },
        )
    }

    fn gpu_stream_like() -> WorkloadDemand {
        WorkloadDemand::single(
            "gpu-stream-like",
            PhaseDemand {
                compute_efficiency: 0.12,
                arithmetic_intensity: 0.08,
                bw_saturation: 0.95,
                pattern_cost: 1.0,
                overlap: 0.9,
                issue_sensitivity: 0.5,
                act_compute: 0.7,
                act_stall: 0.3,
            },
        )
    }

    fn op_bits(op: &NodeOperatingPoint) -> Vec<u64> {
        vec![
            op.alloc.proc.value().to_bits(),
            op.alloc.mem.value().to_bits(),
            op.perf_rel.to_bits(),
            op.proc_power.value().to_bits(),
            op.mem_power.value().to_bits(),
            op.work_rate.to_bits(),
            op.bandwidth.value().to_bits(),
            op.proc_busy.to_bits(),
        ]
    }

    #[test]
    fn cpu_memo_matches_direct_solver_bit_for_bit() {
        for platform in [ivybridge(), haswell()] {
            for demand in cpu_demands() {
                let memo = SolveMemo::fresh(&platform, &demand);
                for proc in (60..=200).step_by(7) {
                    for mem in (40..=160).step_by(11) {
                        let alloc = PowerAllocation::new(
                            Watts::new(proc as f64),
                            Watts::new(mem as f64),
                        );
                        let direct = solve(&platform, &demand, alloc).unwrap();
                        let memoed = memo.solve(alloc).unwrap();
                        assert_eq!(
                            op_bits(&direct),
                            op_bits(&memoed),
                            "{} {alloc:?}",
                            demand.name
                        );
                        assert_eq!(direct.mechanism, memoed.mechanism);
                    }
                }
                // The throttle grid decides how much the mem axis
                // collapses; the hard guarantee is only that the cache
                // never exceeds the distinct solver inputs.
                assert!(memo.len() <= 21 * 11, "{} cached", memo.len());
            }
        }
    }

    #[test]
    fn gpu_memo_matches_direct_solver_bit_for_bit() {
        let platform = titan_xp();
        for demand in [sgemm_like(), gpu_stream_like()] {
            let memo = SolveMemo::fresh(&platform, &demand);
            for total in [130.0, 140.0, 200.0, 250.0, 300.0] {
                for mem_frac in [0.1, 0.25, 0.4, 0.6] {
                    let mem = total * mem_frac;
                    let alloc = PowerAllocation::new(Watts::new(total - mem), Watts::new(mem));
                    let direct = solve(&platform, &demand, alloc).unwrap();
                    let memoed = memo.solve(alloc).unwrap();
                    assert_eq!(op_bits(&direct), op_bits(&memoed), "{} {alloc:?}", demand.name);
                    assert_eq!(direct.mechanism, memoed.mechanism);
                }
            }
        }
    }

    #[test]
    fn gpu_memo_rejects_infeasible_like_the_solver() {
        let platform = titan_xp();
        let demand = sgemm_like();
        let memo = SolveMemo::fresh(&platform, &demand);
        let alloc = PowerAllocation::new(Watts::new(40.0), Watts::new(30.0));
        let direct = solve(&platform, &demand, alloc).unwrap_err();
        let memoed = memo.solve(alloc).unwrap_err();
        assert_eq!(direct, memoed);
        assert!(memo.is_empty(), "errors must not be cached");
    }

    #[test]
    fn second_solve_is_a_hit() {
        let platform = ivybridge();
        let demand = WorkloadDemand::single("sra-like", PhaseDemand::random_bound());
        let memo = SolveMemo::fresh(&platform, &demand);
        let alloc = PowerAllocation::new(Watts::new(112.0), Watts::new(116.0));
        let first = memo.solve(alloc).unwrap();
        assert_eq!(memo.len(), 1);
        let second = memo.solve(alloc).unwrap();
        assert_eq!(memo.len(), 1, "a hit must not store a second entry");
        assert_eq!(op_bits(&first), op_bits(&second), "hit must be bit-identical to the miss");
    }

    /// A grid with repeats inside it, refusals (GPU card caps out of
    /// range) and allocations that differ only below the DRAM throttle
    /// step, so cache hits, in-batch repeats and misses all occur.
    fn batch_grid() -> Vec<PowerAllocation> {
        let mut grid = Vec::new();
        for proc in [30.0, 60.0, 95.5, 120.0, 160.0, 250.0] {
            for mem in [20.0, 41.0, 41.2, 64.0, 90.0, 140.0, 200.0] {
                grid.push(PowerAllocation::new(Watts::new(proc), Watts::new(mem)));
            }
        }
        let repeats: Vec<PowerAllocation> = grid.iter().step_by(3).copied().collect();
        grid.extend(repeats);
        grid
    }

    /// The batch answers exactly as one-by-one solves in order would:
    /// same bits, same hit flags — whatever order `run` solves the
    /// misses in, and even when it solves none of them.
    #[test]
    fn a_batch_answers_like_solves_in_order() {
        // Three phases make a four-word key, stored boxed.
        let three_phases = WorkloadDemand::phased(
            "three-phase",
            vec![
                (0.5, PhaseDemand::compute_bound()),
                (0.3, PhaseDemand::stream_bound()),
                (0.2, PhaseDemand::random_bound()),
            ],
        );
        let cases = [
            (ivybridge(), cpu_demands()[3].clone()),
            (ivybridge(), three_phases),
            (haswell(), cpu_demands()[0].clone()),
            (titan_xp(), sgemm_like()),
            (titan_xp(), gpu_stream_like()),
        ];
        let grid = batch_grid();
        for (platform, demand) in cases {
            let serial = SolveMemo::fresh(&platform, &demand);
            let want: Vec<(Option<Vec<u64>>, bool)> = grid
                .iter()
                .map(|&alloc| {
                    let before = serial.len();
                    let result = serial.solve(alloc);
                    let hit = result.is_ok() && serial.len() == before;
                    (result.ok().map(|op| op_bits(&op)), hit)
                })
                .collect();
            let reversed = |n: usize, solve: &(dyn Fn(usize) + Sync)| (0..n).rev().for_each(solve);
            let skipped = |_: usize, _: &(dyn Fn(usize) + Sync)| {};
            for (label, batch) in [
                ("reversed", SolveMemo::fresh(&platform, &demand).solve_batch(&grid, reversed)),
                ("skipped", SolveMemo::fresh(&platform, &demand).solve_batch(&grid, skipped)),
            ] {
                let got: Vec<(Option<Vec<u64>>, bool)> = batch
                    .into_iter()
                    .map(|(result, hit)| (result.ok().map(|op| op_bits(&op)), hit))
                    .collect();
                assert_eq!(got, want, "{} {label}", demand.name);
            }
            assert!(want.iter().any(|w| w.1), "{}: no hits exercised", demand.name);
        }
    }

    #[test]
    fn a_batch_fills_the_cache_for_later_solves() {
        let platform = ivybridge();
        let demand = cpu_demands()[1].clone();
        let memo = SolveMemo::fresh(&platform, &demand);
        let grid = batch_grid();
        let first = memo.solve_batch(&grid, |n, solve| (0..n).for_each(solve));
        let stored = memo.len();
        let again = memo.solve_batch(&grid, |n, _| assert_eq!(n, 0, "nothing left to solve"));
        assert!(again.iter().all(|(_, hit)| *hit));
        assert_eq!(memo.len(), stored);
        for ((a, _), (b, _)) in first.iter().zip(&again) {
            assert_eq!(op_bits(a.as_ref().unwrap()), op_bits(b.as_ref().unwrap()));
        }
    }

    #[test]
    fn shared_registry_returns_the_same_memo() {
        let _guard = lock(registry_test_mutex());
        let platform = ivybridge();
        let stream = WorkloadDemand::single("stream-like", PhaseDemand::stream_bound());
        let a = SolveMemo::for_problem(&platform, &stream);
        let b = SolveMemo::for_problem(&platform, &stream);
        assert!(Arc::ptr_eq(&a, &b));
        let sra = WorkloadDemand::single("sra-like", PhaseDemand::random_bound());
        let other = SolveMemo::for_problem(&platform, &sra);
        assert!(!Arc::ptr_eq(&a, &other));
    }

    /// Tests below churn the process-wide registry; serialize them
    /// against the identity test above so a mid-assert eviction can't
    /// invalidate its `Arc::ptr_eq` expectations.
    fn registry_test_mutex() -> &'static Mutex<()> {
        static M: OnceLock<Mutex<()>> = OnceLock::new();
        M.get_or_init(|| Mutex::new(()))
    }

    fn demand_variant(i: usize) -> WorkloadDemand {
        let mut d = PhaseDemand::compute_bound();
        // Perturb a field so every variant fingerprints distinctly.
        d.arithmetic_intensity += i as f64 * 0.001;
        WorkloadDemand::single(format!("variant-{i}"), d)
    }

    #[test]
    fn registry_is_bounded_and_evicts_least_recently_used() {
        let _guard = lock(registry_test_mutex());
        SolveMemo::clear_shared();
        let platform = ivybridge();
        let keeper_demand = demand_variant(0);
        let keeper = SolveMemo::for_problem(&platform, &keeper_demand);
        // Overflow the bound; re-touch the keeper along the way so LRU
        // keeps it while the stale middle entries rotate out.
        for i in 1..=(MAX_SHARED_MEMOS + 8) {
            let _ = SolveMemo::for_problem(&platform, &demand_variant(i));
            if i % 16 == 0 {
                let again = SolveMemo::for_problem(&platform, &keeper_demand);
                assert!(
                    Arc::ptr_eq(&keeper, &again),
                    "a recently used memo must survive eviction"
                );
            }
        }
        assert!(
            SolveMemo::shared_len() <= MAX_SHARED_MEMOS,
            "registry grew to {} entries past the bound",
            SolveMemo::shared_len()
        );
        // The keeper was used most recently at i = 64 < 72, but far more
        // recently than variant-1, which must be gone: re-registering it
        // builds a new memo.
        let revived = SolveMemo::for_problem(&platform, &demand_variant(1));
        let again = SolveMemo::for_problem(&platform, &demand_variant(1));
        assert!(Arc::ptr_eq(&revived, &again));
        SolveMemo::clear_shared();
    }

    #[test]
    fn eviction_is_counted_and_survivors_keep_their_caches() {
        let _guard = lock(registry_test_mutex());
        SolveMemo::clear_shared();
        pbc_trace::reset();
        pbc_trace::enable();
        let platform = ivybridge();
        let held_demand = demand_variant(9000);
        let held = SolveMemo::for_problem(&platform, &held_demand);
        let alloc = PowerAllocation::new(Watts::new(120.0), Watts::new(80.0));
        let before = held.solve(alloc).unwrap();
        for i in 0..(MAX_SHARED_MEMOS * 2) {
            let _ = SolveMemo::for_problem(&platform, &demand_variant(9001 + i));
        }
        let snapshot = pbc_trace::snapshot();
        let evictions = snapshot
            .counters
            .get(pbc_trace::names::SOLVE_CACHE_EVICTIONS)
            .copied()
            .unwrap_or(0);
        assert!(evictions > 0, "overflowing the registry must count evictions");
        // The held Arc outlives its registry slot: its cache still
        // answers, bit-identically.
        assert!(held.len() >= 1);
        let after = held.solve(alloc).unwrap();
        assert_eq!(op_bits(&before), op_bits(&after));
        pbc_trace::disable();
        pbc_trace::reset();
        SolveMemo::clear_shared();
    }
}
