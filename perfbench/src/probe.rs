//! Process and file measurements: what `/proc/self` says about this
//! process, and the bytes a directory or file holds.

use std::path::Path;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// Peak resident set of this process (`VmHWM`), in bytes.
pub(crate) fn peak_rss_bytes() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .expect("/proc/self/status has a VmHWM line")
}

/// CPU time and minor page faults this process has used so far.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Usage {
    pub(crate) cpu_secs: f64,
    pub(crate) minor_faults: u64,
}

impl Usage {
    pub(crate) fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        // Fields after the parenthesised command name, starting at field 3.
        let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| -> u64 { fields[n - 3].parse().expect("numeric stat field") };
        Self {
            cpu_secs: (field(14) + field(15)) as f64 / USER_HZ,
            minor_faults: field(10),
        }
    }
}

/// Share of the host's CPU time the hypervisor gave to other guests
/// (`steal` over all ticks of the first `/proc/stat` line) between two
/// readings of [`HostTicks::now`]: a slow operation with high steal was
/// slowed by its neighbours, not by the program.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HostTicks {
    total: u64,
    steal: u64,
}

impl HostTicks {
    pub(crate) fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        Self {
            total: ticks.iter().take(8).sum(),
            steal: ticks.get(7).copied().unwrap_or(0),
        }
    }

    pub(crate) fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Size of a file in bytes, 0 when it does not exist.
pub(crate) fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Total bytes of the regular files under `dir`.
pub(crate) fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                file_bytes(&p)
            }
        })
        .sum()
}
