//! Process CPU time and peak memory from `/proc`.

use std::fs;

/// `sysconf(_SC_CLK_TCK)`: the unit of `utime`/`stime` in
/// `/proc/<pid>/stat`, fixed at 100 by the Linux user ABI.
const CLK_TCK: f64 = 100.0;

/// User plus system CPU seconds consumed so far by every thread of
/// process `pid` (`"self"` for this process).
#[must_use = "the CPU time or the reason /proc could not be read"]
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may contain spaces; fields restart after its ')'.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no ')' in stat line"))?;
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // After ')', index 0 is field 3 (state); utime is field 14, stime 15.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("{path}: field {} unreadable", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / CLK_TCK)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
#[must_use = "the peak RSS or the reason /proc could not be read"]
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}
