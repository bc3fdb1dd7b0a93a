//! What the benchmark records about where it ran: commit, core count, CPU
//! model, the process's peak resident set, and how much processor time the
//! hypervisor gave to other guests meanwhile.

use std::path::{Path, PathBuf};

/// Host facts written into every output file.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `HEAD` of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
    /// Cores available to this process.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
}

impl HostInfo {
    /// Reads the host facts; nothing here can fail the run.
    pub fn read() -> Self {
        Self {
            commit: read_commit(Path::new(".")).unwrap_or_else(|| "unknown".to_owned()),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|text| parse_cpu_model(&text))
                .unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

/// Resolves `HEAD` by reading `.git` directly (no subprocess).
fn read_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_owned())
    })
}

fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_owned())
    })
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Processor time of the whole guest so far, from the `cpu` line of
/// `/proc/stat`: `(all states, stolen by the hypervisor)` in clock ticks.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user and nice.
    let steal = *fields.get(7)?;
    Some((fields.iter().take(8).sum(), steal))
}

/// Share of the guest's processor time stolen between two readings of
/// [`cpu_ticks`]: above a few per cent, the run's timings measured the
/// neighbours as much as the program.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((all0, steal0)), Some((all1, steal1))) if all1 > all0 => {
            steal1.saturating_sub(steal0) as f64 / (all1 - all0) as f64
        }
        _ => 0.0,
    }
}

/// Where output files go: `benchmark/out/` under the checkout the command
/// runs from, falling back to the package directory the binary was built
/// in.
pub fn out_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   52344 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(52344));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_and_steal_share() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_cpu_ticks(stat), Some((1000, 35)));
        assert_eq!(parse_cpu_ticks("intr 1 2 3\n"), None);
        assert_eq!(steal_share(Some((1000, 35)), Some((1200, 85))), 0.25);
        assert_eq!(steal_share(None, Some((1200, 85))), 0.0);
    }

    #[test]
    fn parses_cpu_model() {
        let info = "processor\t: 0\nmodel name\t: Test CPU @ 2.10GHz\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Test CPU @ 2.10GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn commit_is_unknown_outside_a_work_tree() {
        assert_eq!(read_commit(Path::new("/nonexistent-sisg-benchmark")), None);
    }
}
