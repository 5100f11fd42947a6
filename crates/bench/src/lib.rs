//! # mcr-bench
//!
//! Shared harness for the benches that regenerate every table and figure
//! of the MCR-DRAM paper's evaluation. Each bench is a `harness = false`
//! binary that prints a paper-style table (paper value next to measured
//! value where the paper reports one) and its own wall-clock time.
//!
//! Scale knobs (environment variables):
//!
//! * `MCR_BENCH_LEN` — memory operations per single-core trace
//!   (default 60 000).
//! * `MCR_BENCH_LEN_MULTI` — memory operations per core in quad-core runs
//!   (default 20 000).
//! * `MCR_BENCH_CSV_DIR` — when set, benches additionally dump their
//!   result tables as CSV files (and sweep results as JSON) into this
//!   directory.
//! * `MCR_BENCH_JOBS` — worker threads for the sweep engine (default:
//!   one per core via `std::thread::available_parallelism`).
//!
//! Increase them for tighter statistics; results are deterministic at any
//! scale and for any `MCR_BENCH_JOBS` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mcr_dram::{ResultTable, SweepBuilder, SweepResults};
use std::path::PathBuf;
use std::time::Instant;

/// Memory operations per single-core trace.
pub fn single_len() -> usize {
    std::env::var("MCR_BENCH_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60_000)
}

/// Memory operations per core in multi-core runs.
pub fn multi_len() -> usize {
    std::env::var("MCR_BENCH_LEN_MULTI")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000)
}

/// Sweep worker-thread override from `MCR_BENCH_JOBS` (`None` = let the
/// engine pick one worker per core).
pub fn bench_jobs() -> Option<usize> {
    std::env::var("MCR_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// Applies [`bench_jobs`] to a [`SweepBuilder`] when the override is set.
pub fn with_bench_jobs(builder: SweepBuilder) -> SweepBuilder {
    match bench_jobs() {
        Some(jobs) => builder.jobs(jobs),
        None => builder,
    }
}

/// Prints one line of sweep-engine bookkeeping (points, workers, cache
/// hits, wall time) so every bench reports how it was obtained.
pub fn sweep_stats(results: &SweepResults) {
    println!(
        "[sweep] {} points, {} workers, {} cache hits, wall {:.1?}",
        results.points.len(),
        results.jobs,
        results.cache_hits(),
        results.wall
    );
}

/// Prints a bench header.
pub fn header(id: &str, what: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

/// Prints one row of a two-column-group table.
pub fn row(label: &str, cols: &[(String, f64)]) {
    print!("{label:<14}");
    for (name, v) in cols {
        print!(" {name}={v:>7.2}");
    }
    println!();
}

/// Runs `f`, then prints elapsed wall-clock time for the whole bench.
pub fn timed(id: &str, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    println!("[{id}] completed in {:.1?}", t.elapsed());
}

/// Formats a measured-vs-paper pair.
pub fn vs(measured: f64, paper: f64) -> String {
    format!("{measured:6.2} (paper {paper:5.2})")
}

/// Writes `table` as `<name>.csv` into `$MCR_BENCH_CSV_DIR` when that
/// variable is set; silently does nothing otherwise. I/O errors are
/// reported to stderr but never fail the bench.
pub fn csv_out(name: &str, table: &ResultTable) {
    let Some(dir) = std::env::var_os("MCR_BENCH_CSV_DIR") else {
        return;
    };
    let path = PathBuf::from(dir).join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        eprintln!("csv_out: failed to write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

/// Writes `results` as `<name>.json` into `$MCR_BENCH_CSV_DIR` when that
/// variable is set; silently does nothing otherwise. I/O errors are
/// reported to stderr but never fail the bench.
pub fn json_out(name: &str, results: &SweepResults) {
    let Some(dir) = std::env::var_os("MCR_BENCH_CSV_DIR") else {
        return;
    };
    let path = PathBuf::from(dir).join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, results.to_json().to_pretty()) {
        eprintln!("json_out: failed to write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

/// Rounds to three decimals: the precision the `BENCH_*.json` files
/// record ratios and rates at.
pub fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Arithmetic mean.
pub fn avg(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_env() {
        // Env vars are unset in CI; defaults apply.
        assert!(single_len() >= 1000);
        assert!(multi_len() >= 1000);
    }

    #[test]
    fn avg_handles_empty() {
        assert_eq!(avg(&[]), 0.0);
        assert_eq!(avg(&[2.0, 4.0]), 3.0);
    }
}
