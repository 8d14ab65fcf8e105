//! Bit-identity pin for the steady-state solvers.
//!
//! Every preset (CPU and GPU) is solved against every catalog benchmark
//! over a fixed allocation grid, directly and through a fresh
//! [`SolveMemo`], and every field of each [`NodeOperatingPoint`] —
//! mechanism included — is hashed bit for bit. A solver refactor that
//! claims to keep its outputs bit-identical must leave the constant
//! below untouched; a refused allocation hashes its error text.

use pbc_platform::presets::all_platforms;
use pbc_powersim::{solve, MechanismState, NodeOperatingPoint, SolveMemo};
use pbc_types::{PowerAllocation, Result, Watts};
use pbc_workloads::all_benchmarks;

/// The digest of every solve below.
const GOLDEN: u64 = 0x838f_1200_6be3_b78a;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn outcome(&mut self, r: &Result<NodeOperatingPoint>) {
        match r {
            Ok(op) => {
                self.word(1);
                self.op(op);
            }
            Err(e) => {
                self.word(2);
                for b in e.to_string().bytes() {
                    self.word(u64::from(b));
                }
            }
        }
    }

    fn op(&mut self, op: &NodeOperatingPoint) {
        self.f(op.alloc.proc.value());
        self.f(op.alloc.mem.value());
        self.f(op.perf_rel);
        self.f(op.proc_power.value());
        self.f(op.mem_power.value());
        self.f(op.work_rate);
        self.f(op.bandwidth.value());
        self.f(op.proc_busy);
        match op.mechanism {
            MechanismState::Cpu(st) => {
                self.word(3);
                self.word(st.pstate as u64);
                self.f(st.duty);
                self.word(u64::from(st.cap_unenforceable));
            }
            MechanismState::Gpu(st) => {
                self.word(4);
                self.word(st.sm_clock as u64);
                self.word(st.mem_level as u64);
                self.f(st.reclaimed.value());
            }
        }
    }
}

/// The allocation grid: processor caps from far below every floor to
/// past every maximum, memory caps likewise, on off-integer steps so the
/// DRAM throttle grid and the RAPL ladder are hit between rungs too.
fn grid() -> Vec<PowerAllocation> {
    let mut allocs = Vec::new();
    for i in 0..24 {
        for j in 0..14 {
            allocs.push(PowerAllocation::new(
                Watts::new(12.0 + 11.37 * f64::from(i)),
                Watts::new(6.0 + 13.91 * f64::from(j)),
            ));
        }
    }
    allocs
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fingerprint(r: &Result<NodeOperatingPoint>) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    h.outcome(r);
    h.0
}

fn digest() -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    let allocs = grid();
    for platform in all_platforms() {
        for bench in all_benchmarks() {
            let memo = SolveMemo::fresh(&platform, &bench.demand);
            // Twice through the memo: misses first, then (mostly) hits.
            for pass in 0..2 {
                for &alloc in &allocs {
                    let direct = fingerprint(&solve(&platform, &bench.demand, alloc));
                    let memoed = fingerprint(&memo.solve(alloc));
                    assert_eq!(
                        direct, memoed,
                        "{}/{} pass {pass} {alloc:?}: memo differs from the solver",
                        platform.id, bench.id.slug()
                    );
                    if pass == 0 {
                        h.word(direct);
                    }
                }
            }
        }
    }
    h.0
}

#[test]
fn every_preset_and_benchmark_solves_bit_identically() {
    let got = digest();
    assert_eq!(got, GOLDEN, "solver digest moved: got {got:#018x}");
}
