//! Wall-clock payoff of the persistent result store (DESIGN.md §5j).
//!
//! Runs a fig-11-shaped sweep twice against one `mcr-store` directory:
//! cold (empty store, every point simulated and published) and warm (a
//! fresh store instance on the populated directory, so every point is
//! a validated disk hit — the restarted-process case). Asserts the warm
//! results are bit-identical to the cold ones, records best-of-N wall
//! clock for both, and writes `BENCH_sweep.json` at the repo root.
//!
//! Knobs:
//! - `MCR_BENCH_SWEEP_LEN` — trace length per point (default 4_000).
//! - `MCR_BENCH_GATE=1`    — fail when the warm-over-cold speedup drops
//!   below [`GATE_FLOOR`] (`make check` sets this).

use mcr_bench::{header, round3, timed};
use mcr_dram::{McrMode, Mechanisms, Sweep, SweepBuilder, SweepResults};
use mcr_store::ResultStore;
use sim_json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed warm runs (the cold run is timed once per fresh directory).
const ITERS: u32 = 5;

/// Cold re-runs (each needs a pristine directory, so they cost a full
/// grid simulation apiece).
const COLD_ITERS: u32 = 2;

/// Acceptance floor: a warm sweep must beat a cold one by at least this
/// factor (the store's whole point is skipping the simulation).
const GATE_FLOOR: f64 = 5.0;

fn sweep_len() -> usize {
    std::env::var("MCR_BENCH_SWEEP_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcr-bench-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fig-11 shape the determinism suite uses: three workloads ×
/// (baseline + three MCR modes), all worker threads.
fn grid(len: usize) -> Sweep {
    SweepBuilder::new(len)
        .workloads(["libq", "comm1", "leslie"])
        .mode(McrMode::off())
        .mode(McrMode::new(2, 2, 1.0).expect("valid mode"))
        .mode(McrMode::new(4, 4, 0.5).expect("valid mode"))
        .mode(McrMode::headline())
        .mechanisms(Mechanisms::access_only())
        .jobs(0)
        .build()
        .expect("valid grid")
}

fn assert_identical(cold: &SweepResults, warm: &SweepResults) {
    assert_eq!(cold.points.len(), warm.points.len());
    for (c, w) in cold.points.iter().zip(&warm.points) {
        assert_eq!(c.key, w.key, "point order must be preserved");
        assert_eq!(c.report, w.report, "warm result diverged at {}", c.label);
    }
}

fn main() {
    timed("wallclock_sweep", || {
        header(
            "wallclock_sweep",
            "cold vs warm sweep through the persistent result store",
        );
        let len = sweep_len();
        let sweep = grid(len);
        let points = sweep.points().len();

        // Cold: pristine directory, every point simulated + published.
        let mut cold_ns = u64::MAX;
        let mut dir = bench_dir("first");
        let mut reference = None;
        for i in 0..COLD_ITERS {
            let fresh = bench_dir(if i == 0 { "first" } else { "second" });
            let store = ResultStore::open(&fresh).expect("open cold store");
            let t = Instant::now();
            let results = sweep.run_with_store(&store);
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            assert_eq!(results.cache_hits(), 0, "cold run must simulate");
            if ns < cold_ns {
                cold_ns = ns;
            }
            if i + 1 < COLD_ITERS {
                let _ = std::fs::remove_dir_all(&fresh);
            } else {
                dir = fresh; // the populated directory the warm runs read
            }
            reference = Some(results);
        }
        let reference = reference.expect("at least one cold run");

        // Warm: fresh store instance (cold hot tier) on the populated
        // directory — the restarted-process path: read, checksum,
        // decode, no simulation.
        let mut warm_ns = u64::MAX;
        for _ in 0..ITERS {
            let store = ResultStore::open(&dir).expect("open warm store");
            let t = Instant::now();
            let results = sweep.run_with_store(&store);
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            assert_eq!(
                results.cache_hits(),
                points,
                "warm run must hit on every point"
            );
            assert_identical(&reference, &results);
            warm_ns = warm_ns.min(ns);
        }
        let _ = std::fs::remove_dir_all(&dir);

        let speedup = cold_ns as f64 / warm_ns as f64;
        println!(
            "{points} points   cold {cold_ns:>12} ns/sweep   warm {warm_ns:>12} ns/sweep   \
             speedup {speedup:>7.2}x"
        );

        let json = Json::obj([
            ("trace_len", Json::from(len)),
            ("points", Json::from(points)),
            ("cold_ns", Json::from(cold_ns)),
            ("warm_ns", Json::from(warm_ns)),
            ("speedup", Json::Num(round3(speedup))),
            ("gate_floor", Json::Num(GATE_FLOOR)),
        ]);
        let out = repo_root().join("BENCH_sweep.json");
        std::fs::write(&out, json.to_pretty()).expect("write BENCH_sweep.json");
        println!("wrote {}", out.display());

        if std::env::var("MCR_BENCH_GATE").as_deref() == Ok("1") {
            assert!(
                speedup >= GATE_FLOOR,
                "warm sweep only {speedup:.2}x faster than cold (floor {GATE_FLOOR}x): \
                 the store is not paying for itself"
            );
            println!("[gate] speedup {speedup:.2}x >= {GATE_FLOOR}x ok");
        }
    });
}
