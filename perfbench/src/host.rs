//! The host record printed with every run: core count, pinned pool
//! size, CPU model, cache sizes and the source revision.

use std::path::Path;
use std::process::Command;

/// What the run's numbers depend on besides the code.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the process may run on.
    pub nproc: usize,
    /// Threads the compute pool was pinned to.
    pub threads: usize,
    /// CPU model name, when the OS reports one.
    pub cpu: String,
    /// Cache levels as `L1d 48K, L2 2048K, L3 107520K`.
    pub caches: String,
    /// `git describe` of the source tree, or `unknown`.
    pub revision: String,
}

impl Host {
    /// Probes the host. `threads` is the pool size already pinned.
    #[must_use]
    pub fn probe(threads: usize) -> Self {
        Self {
            nproc: nproc(),
            threads,
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            caches: cache_sizes().unwrap_or_else(|| "unknown".into()),
            revision: git_describe().unwrap_or_else(|| "unknown".into()),
        }
    }

    /// One human-readable line.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} threads={} cpu=\"{}\" caches=\"{}\" revision={}",
            self.nproc, self.threads, self.cpu, self.caches, self.revision
        )
    }
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> Option<String> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn cache_sizes() -> Option<String> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{suffix} {}", level.trim(), size.trim()));
    }
    (!out.is_empty()).then(|| out.join(", "))
}

/// `git describe --always --dirty`, confined to the current directory
/// so a checkout without `.git` reports `unknown` instead of describing
/// an enclosing repository.
fn git_describe() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    if !cwd.join(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    String::from_utf8(out.stdout)
        .ok()
        .map(|s| s.trim().to_string())
}
