//! Host fingerprint and process memory.
//!
//! Wall-clock figures compare only between runs on the same host, so
//! every result carries the core count, the CPU model and the compiler
//! that built the benchmark.

use dot11_adhoc::hash::StableHasher;

/// What identifies the machine and toolchain a result came from.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical cores (`processor` entries of `/proc/cpuinfo`).
    pub cores: usize,
    /// The CPU's `model name`.
    pub cpu: String,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: &'static str,
}

impl Host {
    /// Reads the running host.
    pub fn detect() -> Host {
        let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cores = info.lines().filter(|l| l.starts_with("processor")).count();
        let cpu = info
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or("unknown", |(_, v)| v.trim())
            .to_string();
        Host {
            cores: if cores > 0 { cores } else { jobs() },
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }

    /// A stable hash of the three fields: equal fingerprints, comparable
    /// wall-clock results.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.cores as u64);
        h.write_str(&self.cpu);
        h.write_str(self.rustc);
        h.finish()
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cores={} cpu=\"{}\" rustc=\"{}\" fingerprint={:016x}",
            self.cores,
            self.cpu,
            self.rustc,
            self.fingerprint()
        )
    }
}

/// Threads the machine offers (the sweep's job count).
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident-memory high-water mark of this process, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident memory of this process, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}
