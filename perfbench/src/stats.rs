//! Small numeric helpers: quantiles, process memory, the host stamp.

use std::process::Command;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `NaN` when empty. Infinite samples (failed
/// requests) sort last, so they push high quantiles over any limit.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size, so the next [`peak_rss_mib`] covers only what ran in between.
pub fn reset_peak_rss() {
    // Best effort: where the kernel refuses, the peak covers the process
    // lifetime instead.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU time this process has used so far, on all its threads (those
/// that have exited included), seconds. Time the hypervisor stole is not
/// in it, so it moves less than wall time on a shared host.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    } else {
        f64::NAN
    }
}

/// Host CPU time stolen by the hypervisor and total CPU time so far, in
/// ticks (`/proc/stat`); zeros where unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Worker count used for `jobs`, serve workers and client connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What the numbers were measured on: cores, toolchain, source identity,
/// build profile. Printed next to every result.
pub fn host_stamp() -> String {
    // GIT_DIR pins git to this checkout, never a repository around it.
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    format!(
        "host nproc={} rustc=\"{}\" commit={} source_fnv={:016x} profile={}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        commit,
        source_fingerprint(),
        env!("PERFBENCH_PROFILE"),
    )
}

/// FNV-1a over every file under `crates/` (paths and bytes, sorted by
/// path): identifies the program's source where no git metadata exists.
fn source_fingerprint() -> u64 {
    let mut files = Vec::new();
    let mut stack = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: derives well-mixed values from the workload seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A small deterministic generator over [`mix`].
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_failures_sort_last() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert!(quantile(&[1.0, 2.0, f64::INFINITY], 1.0).is_infinite());
        assert!(median(&[]).is_nan());
    }
}
