//! Pieces every workload shares: output checks, deterministic work
//! counters, the scratch directory and process memory.

use mcr_dram::RunReport;
use std::path::{Path, PathBuf};

/// Output checks of one run. A failed check counts toward `failed` and
/// makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub ops: u64,
    /// Description of every failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Deterministic work done by one repetition of a workload. Two
/// repetitions at one seed must agree exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Simulated memory cycles (Σ `RunReport::total_mem_cycles`).
    pub mem_cycles: u64,
    /// Reads completed.
    pub reads: u64,
    /// Instructions committed.
    pub instructions: u64,
    /// DRAM commands issued (ACT, RD, WR, PRE and REF).
    pub commands: u64,
    /// Points simulated.
    pub points_simulated: u64,
    /// Points served from a memo or store.
    pub points_served: u64,
}

impl Work {
    /// Adds one simulated report's counters.
    pub fn add_report(&mut self, r: &RunReport) {
        self.mem_cycles += r.total_mem_cycles;
        self.reads += r.reads_done;
        self.instructions += r.instructions;
        self.commands += commands(r);
    }
}

/// DRAM commands a report's telemetry counted.
pub fn commands(r: &RunReport) -> u64 {
    let t = &r.telemetry;
    let banks: u64 = t
        .banks
        .iter()
        .map(|b| b.activates + b.reads + b.writes + b.precharges)
        .sum();
    banks + t.refreshes_normal + t.refreshes_fast
}

/// A scratch directory under the working directory, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    /// Creates `.perfbench-tmp/<pid>` in the working directory.
    pub fn new() -> std::io::Result<Self> {
        let root = Path::new(".perfbench-tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, not yet existing subdirectory path.
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Only succeeds once no other run's directory is left.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Worker and client threads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A panic payload as text.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic".into())
}
