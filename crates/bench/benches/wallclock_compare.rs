//! Simulation throughput of each DRAM-architecture backend (DESIGN.md
//! §5l).
//!
//! Times one full run of the same trace under every registered backend
//! — the exact per-point work a `compare` campaign schedules — and
//! writes `BENCH_compare.json` at the repo root with per-backend
//! points/sec plus wall-clock speedup vs the plain-DDR3 baseline
//! backend. The dynamic CLR-DRAM coupling table and the TL-DRAM segment
//! map both ride the same `DevicePolicy` seam as MCR, so none of them
//! should cost more than a small constant factor over baseline.
//!
//! Knobs:
//! - `MCR_BENCH_COMPARE_LEN` — trace length per point (default 4_000).
//! - `MCR_BENCH_GATE=1`      — fail unless every backend produced a
//!   nonzero throughput and the table covers every registered backend
//!   (`make check` sets this).

use mcr_bench::{header, round3, timed};
use mcr_dram::{CompareSpec, System};
use sim_json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed runs per backend (best-of-N).
const ITERS: u32 = 3;

fn trace_len() -> usize {
    std::env::var("MCR_BENCH_COMPARE_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    timed("wallclock_compare", || {
        header(
            "wallclock_compare",
            "per-backend simulation throughput of the compare campaign",
        );
        let spec = CompareSpec {
            workload: Some("libq".into()),
            len: trace_len(),
            ..CompareSpec::default()
        };
        let (points, _) = spec.configs().expect("valid compare spec");

        // (backend name, best wall ns) per campaign point.
        let mut rows: Vec<(String, u64)> = Vec::new();
        for (backend, (_, cfg)) in spec.backends.iter().zip(&points) {
            let mut best_ns = u64::MAX;
            for _ in 0..ITERS {
                let sys = System::build(cfg);
                let t = Instant::now();
                let report = sys.run();
                let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                assert!(report.reads_done > 0, "{} did no reads", backend.kind);
                best_ns = best_ns.min(ns);
            }
            rows.push((backend.kind.name().to_string(), best_ns));
        }

        let baseline_ns = rows
            .iter()
            .find(|(name, _)| name == "baseline")
            .map(|&(_, ns)| ns)
            .expect("baseline backend in the default registry");

        let mut entries = Vec::new();
        for (name, ns) in &rows {
            let points_per_sec = 1e9 / *ns as f64;
            let speedup = baseline_ns as f64 / *ns as f64;
            println!(
                "{name:<10} {ns:>12} ns/point   {points_per_sec:>8.2} points/s   \
                 speedup vs baseline {speedup:>5.2}x"
            );
            entries.push(Json::obj([
                ("backend", Json::str(name.as_str())),
                ("wall_ns", Json::from(*ns)),
                ("points_per_sec", Json::Num(round3(points_per_sec))),
                ("speedup_vs_baseline", Json::Num(round3(speedup))),
            ]));
        }
        let json = Json::obj([
            ("trace_len", Json::from(spec.len)),
            ("iters", Json::from(u64::from(ITERS))),
            ("backends", Json::Arr(entries)),
        ]);
        let out = repo_root().join("BENCH_compare.json");
        std::fs::write(&out, json.to_pretty()).expect("write BENCH_compare.json");
        println!("wrote {}", out.display());

        if std::env::var("MCR_BENCH_GATE").as_deref() == Ok("1") {
            assert_eq!(
                rows.len(),
                mcr_dram::registered_backends().len(),
                "the bench must cover every registered backend"
            );
            for (name, ns) in &rows {
                assert!(
                    *ns > 0 && *ns < u64::MAX,
                    "{name}: no valid timing recorded"
                );
            }
            println!("[gate] {} backends timed ok", rows.len());
        }
    });
}
