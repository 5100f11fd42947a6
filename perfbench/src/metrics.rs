//! The benchmark's vocabulary: its workloads and every metric it
//! reports, with unit, direction and (end-to-end only) regression bound.
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`--write-manifest`), and a test keeps the two identical.

use sim_json::Json;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, failure shares).
    Lower,
    /// Larger is better (throughputs, hit ratios).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Workload names and why each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "sweep_loaded",
        "cold high-MPKI sweep: controller FR-FCFS scan, next_event and device timing checks do the work; the event wheel skips little",
    ),
    (
        "sweep_idle",
        "cold low-MPKI sweep with power-down: the wheel skips most cycles, so compute batches and refresh edges do the work; the controller scan does little",
    ),
    (
        "serve_warm",
        "closed-loop kept-alive clients against a warm store: parsing, lookup, codec, rendering and transport do the work; almost no simulation",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_mcycles_per_s", "Mcycles/s", Higher, 0.25),
    e2e("points_per_s", "1/s", Higher, 0.25),
    e2e("req_per_s", "1/s", Higher, 0.25),
    e2e("req_ms.p50", "ms", Lower, 0.25),
    e2e("req_ms.p90", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Every per-layer metric of the traced run, in print order. Each
/// `self_ms.<layer>` names a layer that owns spans.
pub const PER_LAYER: &[Metric] = &[
    layer("tracegen.ns_per_record", "ns", Lower),
    layer("cpu.ns_per_cycle", "ns", Lower),
    layer("cpu.compute_batch_ns_per_cycle", "ns", Lower),
    layer("device.ns_per_cmd", "ns", Lower),
    layer("controller.tick_ns", "ns", Lower),
    layer("controller.next_event_ns", "ns", Lower),
    layer("controller.enqueue_refused_frac", "frac", Lower),
    layer("controller.row_hit_ratio", "frac", Higher),
    layer("telemetry.hist_record_ns", "ns", Lower),
    layer("core.build_ms", "ms", Lower),
    layer("core.run_ns_per_mcycle", "ns", Lower),
    layer("core.report_us", "us", Lower),
    layer("core.nonquiet_cycles", "count", Lower),
    layer("core.skipped_share", "frac", Higher),
    layer("core.wheel_speedup", "x", Higher),
    layer("sweep.busy_frac", "frac", Higher),
    layer("sweep.point_ms.p50", "ms", Lower),
    layer("sweep.point_ms.max", "ms", Lower),
    layer("sweep.steals", "count", Lower),
    layer("codec.encode_us", "us", Lower),
    layer("codec.decode_us", "us", Lower),
    layer("store.lookup_us", "us", Lower),
    layer("store.publish_us", "us", Lower),
    layer("store.hit_ratio", "frac", Higher),
    layer("json.parse_ns_per_byte", "ns", Lower),
    layer("json.write_ns_per_byte", "ns", Lower),
    layer("protocol.parse_us", "us", Lower),
    layer("serve.render_us", "us", Lower),
    layer("serve.service_ms", "ms", Lower),
    layer("serve.queue_ms", "ms", Lower),
    layer("serve.transport_ms", "ms", Lower),
    layer("serve.shed_frac", "frac", Lower),
    layer("trace.overhead_ms", "ms", Lower),
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.spans", "count", Lower),
    layer("work.mem_cycles", "count", Lower),
    layer("work.reads", "count", Lower),
    layer("work.instructions", "count", Lower),
    layer("work.commands", "count", Lower),
    layer("work.points_simulated", "count", Lower),
    layer("work.points_served", "count", Higher),
    layer("run.repetitions", "count", Higher),
    layer("check.ops", "count", Higher),
    layer("check.failed", "count", Lower),
    layer("fail_frac", "frac", Lower),
    layer("self_ms.point", "ms", Lower),
    layer("self_ms.request", "ms", Lower),
    layer("self_ms.core", "ms", Lower),
    layer("self_ms.codec", "ms", Lower),
    layer("self_ms.json", "ms", Lower),
    layer("self_ms.store", "ms", Lower),
    layer("self_ms.protocol", "ms", Lower),
    layer("self_ms.sweep", "ms", Lower),
    layer("self_ms.serve", "ms", Lower),
    layer("self_ms.tracegen", "ms", Lower),
    layer("self_ms.cpu", "ms", Lower),
    layer("self_ms.device", "ms", Lower),
    layer("self_ms.controller", "ms", Lower),
    layer("self_ms.telemetry", "ms", Lower),
];

/// Metric values gathered by one run, keyed by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders `BENCHMARK.json` for the benchmark `command` and settings.
pub fn manifest(run_seconds: u64) -> String {
    let entry = |m: &Metric| {
        let mut members = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            members.push(("bound", Json::from(b)));
        }
        format!("    {}", Json::obj(members))
    };
    let list = |items: Vec<String>| items.join(",\n");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    let command = Json::Arr(command.iter().map(|s| Json::str(*s)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {}",
                Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {command},\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(entry).collect()),
        list(PER_LAYER.iter().map(entry).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(crate::RUN_SECONDS));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<Metric> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate name");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in &all {
            assert!(m.unit.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        let max_bound = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].bound, Some(max_bound));
        assert!(max_bound <= 0.25);
    }
}
