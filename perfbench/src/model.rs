//! The ungated `model` block: MCR's simulated reductions on a sweep's
//! grid, beside the paper's figures where EXPERIMENTS.md records one.
//! Nothing here is a performance metric and nothing is gated on it.

use mcr_dram::{RunReport, SweepPoint};
use sim_json::Json;

/// Paper figures per `(quad-core, mode)`: exec, read latency and EDP
/// reduction in percent (Fig. 11/14 and Fig. 18, as EXPERIMENTS.md
/// records them).
const PAPER: [(bool, &str, [Option<f64>; 3]); 3] = [
    (false, "[2/2x/100%reg]", [Some(5.7), Some(8.5), None]),
    (false, "[4/4x/100%reg]", [Some(7.9), Some(12.5), Some(14.1)]),
    (true, "[4/4x/100%reg]", [Some(10.3), Some(10.2), Some(23.2)]),
];

fn reduction_pct(base: f64, new: f64) -> f64 {
    (1.0 - new / base) * 100.0
}

/// Mean reductions per mode over the grid's targets, as one JSON line.
pub fn block(workload: &str, points: &[SweepPoint], reports: &[RunReport]) -> String {
    let target = |p: &SweepPoint| p.label.split(' ').next().unwrap_or("").to_string();
    let mut rows: Vec<(bool, String, Vec<[f64; 3]>)> = Vec::new();
    for (p, r) in points.iter().zip(reports) {
        if p.config.mode.is_off() {
            continue;
        }
        let Some(base) = points
            .iter()
            .position(|b| b.config.mode.is_off() && target(b) == target(p))
        else {
            continue;
        };
        let b = &reports[base];
        let red = [
            reduction_pct(b.exec_cpu_cycles as f64, r.exec_cpu_cycles as f64),
            reduction_pct(b.avg_read_latency, r.avg_read_latency),
            reduction_pct(b.edp, r.edp),
        ];
        let quad = p.config.workloads.len() > 1;
        let mode = p.config.mode.to_string();
        match rows.iter_mut().find(|(q, m, _)| *q == quad && *m == mode) {
            Some(row) => row.2.push(red),
            None => rows.push((quad, mode, vec![red])),
        }
    }
    let num = |x: Option<f64>| x.map_or(Json::Null, Json::from);
    let modes = rows
        .iter()
        .map(|(quad, mode, reds)| {
            let mean = |i: usize| reds.iter().map(|r| r[i]).sum::<f64>() / reds.len() as f64;
            let paper = PAPER
                .iter()
                .find(|(q, m, _)| q == quad && m == mode)
                .map_or([None; 3], |row| row.2);
            Json::obj([
                ("mode", Json::str(mode.as_str())),
                ("cores", Json::from(if *quad { 4u64 } else { 1 })),
                ("targets", Json::from(reds.len() as u64)),
                ("exec_reduction_pct", Json::from(mean(0))),
                ("paper_exec_reduction_pct", num(paper[0])),
                ("latency_reduction_pct", Json::from(mean(1))),
                ("paper_latency_reduction_pct", num(paper[1])),
                ("edp_reduction_pct", Json::from(mean(2))),
                ("paper_edp_reduction_pct", num(paper[2])),
            ])
        })
        .collect();
    Json::obj([(
        "model",
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "note",
                Json::str(
                    "simulated reductions vs the same targets at mode off; the model is unvalidated against hardware and the paper is its only reference; paper figures average the paper's full workload set, not this grid",
                ),
            ),
            ("modes", Json::Arr(modes)),
        ]),
    )])
    .to_string()
}
