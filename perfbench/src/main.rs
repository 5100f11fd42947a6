//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_loaded --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload (`sweep_loaded`, `sweep_idle` or `serve_warm`) for
//! `--seconds`, checks every output, prints each metric with its unit,
//! and ends with one JSON line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of the traced run with `--trace 1`. Exits 1
//! when an output check fails, 2 on a usage or set-up error.
//! `--write-manifest` writes `BENCHMARK.json` to the working directory.
//! See `perfbench/README.md` for the workloads, metrics and trace.

mod common;
mod layers;
mod metrics;
mod model;
mod pipeline;
mod serve;
mod stats;
mod sweeps;
mod trace;

use common::Checks;
use metrics::{Metric, Values, END_TO_END, PER_LAYER};
use sim_json::Json;
use std::process::ExitCode;
use trace::Span;

/// Seconds one run measures, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 25;

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metric values.
    pub end_to_end: Values,
    /// Per-layer metric values.
    pub per_layer: Values,
    /// Output checks.
    pub checks: Checks,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// Latency samples behind `req_ms`.
    pub samples: usize,
    /// Highest qualifying tail percentile of `req_ms`, with its value.
    pub tail: Option<(f64, f64)>,
    /// Lines describing the run's shape.
    pub notes: Vec<String>,
    /// The ungated model block, as one JSON line.
    pub model: Option<String>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, RUN_SECONDS, false);
    while let Some(flag) = argv.next() {
        if flag == "--write-manifest" {
            std::fs::write("BENCHMARK.json", metrics::manifest(RUN_SECONDS))
                .map_err(|e| format!("writing BENCHMARK.json: {e}"))?;
            return Ok(None);
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sweep_loaded" => sweeps::run(&sweeps::LOADED, args.seed, args.seconds, args.trace),
        "sweep_idle" => sweeps::run(&sweeps::IDLE, args.seed, args.seconds, args.trace),
        "serve_warm" => serve::run(args.seed, args.seconds, args.trace),
        other => Err(format!(
            "unknown workload {other} (want sweep_loaded, sweep_idle or serve_warm)"
        )),
    }
}

/// Fills in the run-level per-layer figures: self time per layer, span
/// count, checks and failures.
fn finish_layers(out: &mut Outcome) {
    let by_layer = trace::self_time_by_layer(&out.spans);
    for m in PER_LAYER {
        if let Some(layer) = m.name.strip_prefix("self_ms.") {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            out.per_layer.insert(m.name, ns as f64 / 1e6);
        }
    }
    let fail_frac = failed(out) as f64 / attempted(out) as f64;
    let l = &mut out.per_layer;
    l.insert("trace.spans", out.spans.len() as f64);
    l.insert("check.ops", out.checks.ops as f64);
    l.insert("check.failed", out.checks.failures.len() as f64);
    l.insert("fail_frac", fail_frac);
}

fn attempted(out: &Outcome) -> u64 {
    (out.attempted + out.checks.ops).max(1)
}

fn failed(out: &Outcome) -> u64 {
    out.failed + out.checks.failures.len() as u64
}

fn print_table(title: &str, defs: &[Metric], values: &Values) {
    println!("{title}");
    for m in defs {
        match values.get(m.name) {
            Some(v) => println!("  {:<34} {v:>16.6} {}", m.name, m.unit),
            None => println!("  {:<34} {:>16} {}", m.name, "-", m.unit),
        }
    }
}

/// The result line: every metric of `defs`, all of which must be finite.
fn result_line(out: &Outcome, defs: &[Metric], values: &Values) -> (String, bool) {
    let mut complete = true;
    let metrics = defs
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().filter(|v| v.is_finite());
            complete &= v.is_some();
            let member = Json::obj([
                ("value", v.map_or(Json::Null, Json::from)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.to_string(), member)
        })
        .collect();
    let correct = complete && failed(out) == 0;
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted(out))),
        ("failed", Json::from(failed(out))),
        ("metrics", Json::Obj(metrics)),
    ]);
    (line.to_string(), correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    finish_layers(&mut out);

    println!(
        "perfbench {} seed {} seconds {} trace {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::nproc()
    );
    for note in &out.notes {
        println!("  {note}");
    }
    print_table("end-to-end (untraced)", END_TO_END, &out.end_to_end);
    match out.tail {
        Some((p, v)) => println!("  req_ms: {} samples, p{p} {v:.4} ms", out.samples),
        None => println!(
            "  req_ms: {} samples, too few for a tail beyond p50",
            out.samples
        ),
    }
    println!(
        "  fail_frac {:.6} ({} of {} operations and checks)",
        failed(&out) as f64 / attempted(&out) as f64,
        failed(&out),
        attempted(&out)
    );
    if args.trace {
        print_table("per-layer (traced run)", PER_LAYER, &out.per_layer);
    }
    if let Some(model) = &out.model {
        println!("{model}");
    }
    for f in &out.checks.failures {
        println!("FAILED CHECK: {f}");
        eprintln!("perfbench: failed check: {f}");
    }
    let (defs, values) = if args.trace {
        (PER_LAYER, &out.per_layer)
    } else {
        (END_TO_END, &out.end_to_end)
    };
    let (line, correct) = result_line(&out, defs, values);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
