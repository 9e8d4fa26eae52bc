//! Host and process readings from `/proc`: steal time, process CPU
//! time, peak resident memory, CPU model, plus the source revision.
//! They are recorded beside every result so that spread between runs
//! can be traced to the host.

use std::fs;

/// Kernel clock ticks per second for `/proc/stat` and `/proc/self/stat`
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: u64 = 100;

/// Host-wide CPU tick counters: `(all ticks, steal ticks)`.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so sum the first eight.
    let all = fields.iter().take(8).sum();
    Some((all, *fields.get(7)?))
}

/// Share of host CPU time stolen between two [`cpu_ticks`] readings
/// (0 when either is missing).
#[must_use]
pub fn steal_between(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((a0, s0)), Some((a1, s1))) if a1 > a0 => (s1 - s0) as f64 / (a1 - a0) as f64,
        _ => 0.0,
    }
}

/// CPU time (user + system) this process has used, in microseconds.
#[must_use]
pub fn process_cpu_us() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; the fixed fields start after
    // its closing parenthesis, with `state` (field 3) first.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / TICKS_PER_S)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The CPU model name, or `unknown`.
#[must_use]
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
#[must_use]
pub fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host steal time and process CPU time over a measured window.
#[derive(Clone, Copy)]
pub struct Noise {
    ticks: Option<(u64, u64)>,
    cpu_us: Option<u64>,
}

impl Noise {
    /// Takes the opening readings.
    #[must_use]
    pub fn start() -> Self {
        Self {
            ticks: cpu_ticks(),
            cpu_us: process_cpu_us(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `start`.
    #[must_use]
    pub fn steal_frac(&self) -> f64 {
        steal_between(self.ticks, cpu_ticks())
    }

    /// Process CPU microseconds per operation since `start`.
    #[must_use]
    pub fn cpu_us_per_op(&self, ops: u64) -> f64 {
        match (self.cpu_us, process_cpu_us()) {
            (Some(c0), Some(c1)) if ops > 0 => (c1 - c0) as f64 / ops as f64,
            _ => 0.0,
        }
    }
}
