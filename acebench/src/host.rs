//! Host measurements (CPU time, peak memory) and the host fingerprint
//! that makes a benchmark record self-describing.

use serde::{Deserialize, Serialize};
use std::process::Command;
use std::time::Duration;

/// User plus system CPU time of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15, in 1/100 s ticks).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // After ')' the list starts at field 3, so utime (14) is index 11.
    Duration::from_millis(10 * (ticks(11) + ticks(12)))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a record was taken. Records whose fingerprints differ in CPU
/// model, core count or compiler compare as incomparable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: u64,
    pub rustc: String,
    pub commit: String,
}

impl Fingerprint {
    /// Fingerprints the current host. Fields that cannot be read say
    /// `unknown`.
    pub fn current() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        Fingerprint {
            cpu_model,
            nproc,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// Whether measurements taken on `self` and `other` may be compared:
    /// same CPU model, core count and compiler. The commit may differ —
    /// comparing commits is the point.
    pub fn comparable(&self, other: &Fingerprint) -> bool {
        self.cpu_model == other.cpu_model && self.nproc == other.nproc && self.rustc == other.rustc
    }
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails. The child is waited for.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_readings_are_sane() {
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() >= before);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn fingerprints_differing_in_host_are_incomparable() {
        let a = Fingerprint {
            cpu_model: "cpu A".into(),
            nproc: 2,
            rustc: "rustc 1.95.0".into(),
            commit: "abc".into(),
        };
        let other_commit = Fingerprint {
            commit: "def".into(),
            ..a.clone()
        };
        assert!(a.comparable(&other_commit));
        for other in [
            Fingerprint {
                cpu_model: "cpu B".into(),
                ..a.clone()
            },
            Fingerprint {
                nproc: 4,
                ..a.clone()
            },
            Fingerprint {
                rustc: "rustc 1.96.0".into(),
                ..a.clone()
            },
        ] {
            assert!(!a.comparable(&other));
        }
    }
}
