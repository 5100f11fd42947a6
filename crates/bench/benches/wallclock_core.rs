//! Wall-clock trajectory of the event-wheel core (DESIGN.md §5h).
//!
//! Each case runs the same seeded config under the event wheel and under
//! the dense reference drive (`System::set_skip_ahead(false)`), asserts
//! the two [`mcr_dram::RunReport`]s are bit-identical, and records
//! best-of-N ns per run plus the wheel-over-dense speedup, next to the
//! wheel's deterministic work counters ([`mcr_dram::WheelStats`]: dense
//! cycles, skip attempts (empty ones and ones after an active but settled
//! cycle), cycles skipped, wakes, futile wakes and batched core cycles). Results land in
//! `BENCH_core.json` at the repo root; the committed `BENCH_baseline.json`
//! is the tracked trajectory.
//!
//! Knobs:
//! - `MCR_BENCH_CORE_LEN`  — trace length per case (default 20_000).
//! - `MCR_BLESS_BENCH=1`   — rewrite `BENCH_baseline.json` from this run.
//! - `MCR_BENCH_GATE=1`    — fail when any case wakes futilely on a
//!   refresh edge (exact, machine-independent), or when any case's
//!   speedup drops below 85% of its committed baseline (`make check`
//!   sets this). A missing baseline skips the speedup half; one that
//!   does not parse fails it.

use mcr_bench::{header, round3, timed};
use mcr_dram::{McrMode, RunReport, System, SystemConfig, WheelStats};
use mem_controller::EdgeSource;
use sim_json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace_gen::{Suite, WorkloadProfile};

/// Timed runs per drive per case (after one warm-up run each).
const ITERS: u32 = 5;

/// Speedup may drop to this fraction of the committed baseline before
/// the gate fails (>15% regression).
const GATE_FLOOR: f64 = 0.85;

fn core_len() -> usize {
    std::env::var("MCR_BENCH_CORE_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

struct CaseResult {
    name: &'static str,
    wheel_ns: u64,
    dense_ns: u64,
    wheel: WheelStats,
}

impl CaseResult {
    fn speedup(&self) -> f64 {
        self.dense_ns as f64 / self.wheel_ns as f64
    }

    /// Futile wakes on the refresh release and quiesce edges, which the
    /// edge fold reports only where a REFRESH or quiesce precharge can
    /// issue.
    fn futile_refresh(&self) -> u64 {
        self.wheel.futile_from(EdgeSource::RefreshRelease)
            + self.wheel.futile_from(EdgeSource::RefreshQuiesce)
    }
}

/// The wheel's work counters for one run of `cfg`, checked against the
/// timed runs' report.
fn count_wheel(cfg: &SystemConfig, report: &RunReport) -> WheelStats {
    let mut sys = System::build(cfg);
    assert!(sys.run_until(u64::MAX), "counted run did not finish");
    let stats = sys.wheel_stats().clone();
    assert_eq!(&sys.report(), report, "counted run differs");
    stats
}

/// Best-of-`ITERS` ns for a full run of `cfg` under one drive (the
/// minimum is the least noise-sensitive wall-clock estimator).
fn time_runs(cfg: &SystemConfig, skip_ahead: bool) -> (u64, RunReport) {
    let run = || {
        let mut sys = System::build(cfg);
        sys.set_skip_ahead(skip_ahead);
        sys.run()
    };
    let report = run(); // warm-up; also the equality witness
    let mut best = u64::MAX;
    for _ in 0..ITERS {
        let t = Instant::now();
        let r = run();
        best = best.min(t.elapsed().as_nanos() as u64);
        assert_eq!(r, report, "non-deterministic run");
    }
    (best, report)
}

fn run_case(name: &'static str, cfg: &SystemConfig) -> CaseResult {
    let (wheel_ns, wheel_report) = time_runs(cfg, true);
    let (dense_ns, dense_report) = time_runs(cfg, false);
    assert_eq!(
        wheel_report, dense_report,
        "{name}: wheel and dense reports differ"
    );
    let out = CaseResult {
        name,
        wheel_ns,
        dense_ns,
        wheel: count_wheel(cfg, &wheel_report),
    };
    println!(
        "{name:<24} wheel {:>12} ns/run   dense {:>12} ns/run   speedup {:>6.2}x",
        out.wheel_ns,
        out.dense_ns,
        out.speedup()
    );
    println!(
        "{:<24} attempts {:>9}   skipped {:>10} cycles   wakes {:>8}   futile {:>6} ({} on refresh edges)",
        "",
        out.wheel.attempts,
        out.wheel.skipped_cycles,
        out.wheel.total_wakes(),
        out.wheel.total_futile(),
        out.futile_refresh()
    );
    println!(
        "{:<24} dense {:>9} cycles   empty attempts {:>9}   settled attempts {:>9}   batched {:>10} core cycles",
        "",
        out.wheel.dense_cycles,
        out.wheel.empty_attempts,
        out.wheel.settled_attempts,
        out.wheel.batched_core_cycles
    );
    out
}

/// The `BENCH_core.json` document: trace length plus one entry per case.
fn to_json(results: &[CaseResult], len: usize) -> Json {
    let benches = results.iter().map(|r| {
        Json::obj([
            ("name", Json::str(r.name)),
            ("wheel_ns", Json::from(r.wheel_ns)),
            ("dense_ns", Json::from(r.dense_ns)),
            ("speedup", Json::Num(round3(r.speedup()))),
            ("dense_cycles", Json::from(r.wheel.dense_cycles)),
            ("attempts", Json::from(r.wheel.attempts)),
            ("empty_attempts", Json::from(r.wheel.empty_attempts)),
            ("settled_attempts", Json::from(r.wheel.settled_attempts)),
            ("skipped_cycles", Json::from(r.wheel.skipped_cycles)),
            ("wakes", Json::from(r.wheel.total_wakes())),
            ("futile_wakes", Json::from(r.wheel.total_futile())),
            ("futile_refresh_wakes", Json::from(r.futile_refresh())),
            (
                "batched_core_cycles",
                Json::from(r.wheel.batched_core_cycles),
            ),
        ])
    });
    Json::obj([
        ("trace_len", Json::from(len)),
        ("benches", Json::Arr(benches.collect())),
    ])
}

/// `(name, speedup)` of every `benches` entry of a document written by
/// [`to_json`]; entries missing either member are left out.
fn parse_baseline(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let benches = doc
        .get("benches")
        .and_then(Json::as_array)
        .ok_or("no \"benches\" array")?;
    Ok(benches
        .iter()
        .filter_map(|b| {
            let name = b.get("name")?.as_str()?;
            Some((name.to_string(), b.get("speedup")?.as_f64()?))
        })
        .collect())
}

/// Deterministic half of the gate: no case may wake on a refresh edge
/// where the controller then does nothing.
fn gate_futile_refresh(results: &[CaseResult]) {
    let futile: Vec<_> = results
        .iter()
        .filter(|r| r.futile_refresh() > 0)
        .map(|r| (r.name, r.futile_refresh()))
        .collect();
    println!(
        "[gate] futile refresh wakes: {}",
        if futile.is_empty() { "none" } else { "FOUND" }
    );
    assert!(
        futile.is_empty(),
        "futile RefreshRelease/RefreshQuiesce wakes (case, count): {futile:?}"
    );
}

fn gate(results: &[CaseResult], baseline_path: &Path) {
    let Ok(text) = std::fs::read_to_string(baseline_path) else {
        println!("[gate] no {} — gate skipped", baseline_path.display());
        return;
    };
    let baseline = parse_baseline(&text).unwrap_or_else(|e| {
        panic!(
            "[gate] {} is not a bench-core document ({e}); fix or re-bless it",
            baseline_path.display()
        )
    });
    let mut failures = Vec::new();
    for r in results {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == r.name) else {
            println!("[gate] {}: no baseline entry — skipped", r.name);
            continue;
        };
        let floor = base * GATE_FLOOR;
        let ok = r.speedup() >= floor;
        println!(
            "[gate] {:<24} speedup {:>6.2}x vs baseline {:>6.2}x (floor {:>6.2}x) {}",
            r.name,
            r.speedup(),
            base,
            floor,
            if ok { "ok" } else { "REGRESSED" }
        );
        if !ok {
            failures.push(r.name);
        }
    }
    assert!(
        failures.is_empty(),
        "wall-clock regression >15% vs BENCH_baseline.json in: {failures:?} \
         (re-bless with MCR_BLESS_BENCH=1 `make bench` if intentional)"
    );
}

fn main() {
    timed("wallclock_core", || {
        header(
            "wallclock_core",
            "event wheel vs dense drive, full-run wall clock",
        );
        let len = core_len();
        let mode = |m, k| McrMode::new(m, k, 1.0).expect("valid Table 1 mode");

        // Idle-heavy: a near-idle trace (0.5 memory ops per kilo-instr,
        // ~2000-instruction gaps) — the rank sits in power-down or
        // refresh-only spans most of the run, which the wheel skips.
        // These are the cases the >=3x acceptance targets. Fewer records
        // than the loaded case: each one covers ~250 memory cycles.
        let idle = WorkloadProfile {
            name: "idle",
            suite: Suite::Commercial,
            mpki: 0.5,
            read_fraction: 0.7,
            row_locality: 0.6,
            footprint_rows: 4096,
            zipf_theta: 0.6,
            multi_threaded: false,
        };
        let mut powerdown = SystemConfig::single_core("black", len / 4)
            .with_mode(mode(1, 2))
            .with_powerdown(64);
        powerdown.workloads = vec![idle];
        let mut refresh_skip = SystemConfig::single_core("black", len / 4).with_mode(mode(4, 4));
        refresh_skip.workloads = vec![idle];
        // Gap-heavy but compute-bound: the lightest real trace in the
        // library; the wheel's win here is the compute-span batch.
        let gap_black = SystemConfig::single_core("black", len).with_mode(mode(1, 2));
        // Loaded control: the wheel should be roughly a wash, never a
        // loss big enough to trip the gate.
        let loaded = SystemConfig::single_core("libq", len).with_mode(McrMode::headline());

        let results = [
            run_case("powerdown_idle", &powerdown),
            run_case("refresh_skip_idle", &refresh_skip),
            run_case("gap_heavy_black", &gap_black),
            run_case("loaded_libq_headline", &loaded),
        ];

        let root = repo_root();
        let current = root.join("BENCH_core.json");
        let baseline = root.join("BENCH_baseline.json");
        let json = to_json(&results, len).to_pretty();
        std::fs::write(&current, &json).expect("write BENCH_core.json");
        println!("wrote {}", current.display());

        if std::env::var_os("MCR_BLESS_BENCH").is_some_and(|v| v == "1") {
            std::fs::write(&baseline, &json).expect("write BENCH_baseline.json");
            println!("blessed {}", baseline.display());
        }
        if std::env::var_os("MCR_BENCH_GATE").is_some_and(|v| v == "1") {
            gate_futile_refresh(&results);
            gate(&results, &baseline);
        }
    });
}
