//! CPU placement for the open-loop serving window.
//!
//! The load generator polls on one CPU and the daemon runs alone on
//! another. Left to the scheduler, the two sometimes shared a CPU in
//! trial runs, and the daemon then waited out the generator's 4 ms time
//! slices: a few percent of requests took milliseconds for reasons that
//! had nothing to do with the program.
//!
//! On a virtual machine a CPU with nothing to run halts, and waking it
//! (say, when a request reaches the daemon) waits for the host to
//! schedule that virtual CPU, which took up to tens of milliseconds on a
//! shared host. An idle-class spinner on the daemon's CPU keeps it from
//! halting without taking time from the daemon: the scheduler preempts a
//! `SCHED_IDLE` thread as soon as any other thread can run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;
/// Bytes in the kernel's default `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

/// The CPU the generator runs on and the CPU the daemon runs on, when
/// the machine has at least two.
pub fn placement() -> Option<(usize, usize)> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cpus >= 2).then_some((0, 1))
}

/// Restrict thread `tid` (0: the calling thread) to `cpu`; false if the
/// kernel refused.
pub fn pin(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u8; CPU_SET_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: the kernel reads `CPU_SET_BYTES` bytes from `mask`, a live
    // stack array of exactly that size.
    unsafe { sched_setaffinity(tid, CPU_SET_BYTES, mask.as_ptr()) == 0 }
}

/// Restrict every thread process `pid` has now to `cpu`.
#[must_use = "an unpinned daemon shares the generator's CPU"]
pub fn pin_process(pid: u32, cpu: usize) -> Result<(), String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
    for task in tasks.flatten() {
        let tid = task.file_name().to_string_lossy().parse::<i32>();
        if let Ok(tid) = tid {
            if !pin(tid, cpu) {
                return Err(format!("cannot pin thread {tid} of {pid} to CPU {cpu}"));
            }
        }
    }
    Ok(())
}

/// Every CPU this process may use.
pub fn all() -> Vec<usize> {
    (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect()
}

/// Running idle-class spinners, stopped and joined when dropped.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// Start one idle-class spinner pinned to each CPU in `cpus`. A
    /// spinner that cannot enter the idle class exits at once rather
    /// than compete with real work.
    pub fn start(cpus: &[usize]) -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .filter_map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("perfbench-idle".into())
                    .spawn(move || {
                        let param = SchedParam { sched_priority: 0 };
                        // SAFETY: the kernel reads one `sched_param` from a
                        // live stack value; pid 0 names the calling thread.
                        let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 };
                        if idle && pin(0, cpu) {
                            while !stop.load(Ordering::Relaxed) {
                                std::hint::spin_loop();
                            }
                        }
                    })
                    .ok()
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
