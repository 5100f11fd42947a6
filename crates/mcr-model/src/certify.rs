//! Event-wheel wake-soundness certifier.
//!
//! The event-wheel run loop (core crate) only ticks the controller at
//! cycles where something can happen: after a settled tick — quiet, or
//! active with no state change pending ([`MemoryController::settled`]) —
//! it asks [`MemoryController::next_event`] for the earliest future edge
//! and jumps straight to it. That is only sound if no edge source ever
//! *overshoots* — claims a wake-up later than the first cycle at which
//! the controller would actually do observable work.
//!
//! This module proves it differentially: twin controllers are driven
//! through a deterministic scenario matrix (MCR modes × power-down
//! management, seeded request schedules with bursts, write-drain
//! crossings, and idle gaps). The *wheel* twin follows the skip
//! discipline; the *dense* twin is ticked on every single cycle of every
//! claimed-quiet span, including spans that start at an active but
//! settled tick. Any completion or activity the dense twin shows
//! strictly before the claimed edge is a wake-soundness violation,
//! attributed to the [`mem_controller::EdgeSource`] that produced the
//! too-late edge.
//! Every distinct quiet-state fingerprint encountered is counted, so the
//! report states exactly how many reachable quiet states were certified.

use crate::Finding;
use dram_device::{Cycle, Geometry, PhysAddr, TimingSet};
use mcr_dram::{McrMode, McrPolicy, Mechanisms};
use mem_controller::{ControllerConfig, EdgeInfo, MemoryController, PageInterleave};
use sim_rng::SmallRng;
use std::collections::{HashMap, HashSet};

/// Outcome of a certification run.
#[derive(Debug, Clone)]
pub struct CertifyReport {
    /// Scenarios driven (mode × power-down combinations).
    pub scenarios: usize,
    /// Distinct quiet-state fingerprints certified.
    pub quiet_states: usize,
    /// Quiet spans validated by dense micro-stepping.
    pub spans: u64,
    /// Of `spans`, those starting at an active but settled tick.
    pub settled_spans: u64,
    /// Total cycles the wheel skipped across all certified spans.
    pub skipped_cycles: Cycle,
    /// Spans per claiming edge source (coverage evidence).
    pub edge_spans: Vec<(String, u64)>,
    /// Wake-soundness violations and twin divergences.
    pub findings: Vec<Finding>,
}

#[derive(Clone, Copy)]
struct Scenario {
    name: &'static str,
    m: u32,
    k: u32,
    powerdown: Option<u32>,
    seed: u64,
}

const SCENARIOS: [Scenario; 8] = [
    Scenario {
        name: "off",
        m: 1,
        k: 1,
        powerdown: None,
        seed: 11,
    },
    Scenario {
        name: "off+pd",
        m: 1,
        k: 1,
        powerdown: Some(64),
        seed: 12,
    },
    Scenario {
        name: "2/2x",
        m: 2,
        k: 2,
        powerdown: None,
        seed: 13,
    },
    Scenario {
        name: "2/2x+pd",
        m: 2,
        k: 2,
        powerdown: Some(64),
        seed: 14,
    },
    Scenario {
        name: "2/4x",
        m: 2,
        k: 4,
        powerdown: None,
        seed: 15,
    },
    Scenario {
        name: "2/4x+pd",
        m: 2,
        k: 4,
        powerdown: Some(64),
        seed: 16,
    },
    Scenario {
        name: "4/4x",
        m: 4,
        k: 4,
        powerdown: None,
        seed: 17,
    },
    Scenario {
        name: "4/4x+pd",
        m: 4,
        k: 4,
        powerdown: Some(48),
        seed: 18,
    },
];

fn build_controller(sc: &Scenario) -> MemoryController {
    let geometry = Geometry::tiny();
    let timing = TimingSet::ddr3_1600(geometry.rows_per_bank);
    let mut config = ControllerConfig::msc_default();
    config.powerdown_idle_threshold = sc.powerdown;
    let mode = McrMode::new(sc.m, sc.k, 1.0).unwrap_or_else(|_| McrMode::off());
    let policy = McrPolicy::for_geometry(mode, Mechanisms::all(), &geometry);
    MemoryController::new(
        geometry,
        timing,
        config,
        Box::new(PageInterleave::new(geometry)),
        Box::new(policy),
    )
}

struct Ev {
    at: Cycle,
    write: bool,
    addr: u64,
}

/// A deterministic request schedule: short read/write bursts, an
/// occasional write burst deep enough to cross the drain watermark, and
/// idle gaps spanning everything from a few bus cycles to well past the
/// power-down threshold and multiple refresh slots. The fifth of every
/// six bursts is a steady stream lasting eight refresh slots: with no
/// power-down to close them its rows stay open, so the refresh backlog
/// turns urgent while banks are still busy and the rank must wait out
/// their precharge windows to quiesce.
fn schedule(seed: u64, bursts: usize, capacity: u64) -> Vec<Ev> {
    let t_refi = u64::from(TimingSet::ddr3_1600(Geometry::tiny().rows_per_bank).t_refi);
    let mut rng = SmallRng::seed_from_u64(seed);
    let lines = capacity / 64;
    let mut draw = |span: u64| rng.next_u64() % span.max(1);
    let mut out = Vec::new();
    let mut now: Cycle = 10;
    for burst in 0..bursts {
        let drain_burst = burst % 5 == 3;
        let stream = burst % 6 == 4;
        let len = if drain_burst {
            26
        } else if stream {
            (8 * t_refi / 32) as usize
        } else {
            2 + draw(8) as usize
        };
        for _ in 0..len {
            now += if stream { 16 + draw(32) } else { draw(4) };
            out.push(Ev {
                at: now,
                write: drain_burst || draw(10) < 3,
                addr: draw(lines) * 64,
            });
        }
        now += match burst % 3 {
            0 => 20 + draw(100),
            1 => 200 + draw(700),
            _ => 2_000 + draw(7_000),
        };
    }
    out
}

fn source_name(edge: Option<EdgeInfo>) -> String {
    match edge {
        Some(e) => format!("{:?}", e.source),
        None => "None".to_string(),
    }
}

fn source_idx(edge: Option<EdgeInfo>) -> u8 {
    edge.map_or(u8::MAX, |e| e.source.index() as u8)
}

/// Quiet-state fingerprint: scenario identity plus everything observable
/// that shapes the next edge.
type QuietFp = (usize, usize, usize, bool, usize, u8);

fn fingerprint(scn: usize, ctl: &MemoryController, edge: Option<EdgeInfo>) -> QuietFp {
    (
        scn,
        ctl.read_queue_len(0),
        ctl.write_queue_len(0),
        ctl.is_draining(0),
        ctl.refresh_backlog(0, 0),
        source_idx(edge),
    )
}

/// Certifies wake-soundness of the event-wheel edges over the scenario
/// matrix. `bursts` scales each scenario's schedule (the lint pass uses a
/// larger value than the unit tests).
pub fn certify(bursts: usize) -> CertifyReport {
    let mut findings = Vec::new();
    let mut fingerprints: HashSet<QuietFp> = HashSet::new();
    let mut edge_spans: HashMap<String, u64> = HashMap::new();
    let mut spans: u64 = 0;
    let mut settled_spans: u64 = 0;
    let mut skipped_cycles: Cycle = 0;

    for (scn_idx, sc) in SCENARIOS.iter().enumerate() {
        let mut wheel = build_controller(sc);
        let mut dense = build_controller(sc);
        let events = schedule(sc.seed, bursts, Geometry::tiny().capacity_bytes());
        let hard_end = events.last().map_or(0, |e| e.at) + 30_000;
        let mut i = 0;
        let mut now: Cycle = 0;
        let mut guard: u64 = 0;
        let scenario_budget = 40_000_000;
        loop {
            guard += 1;
            if guard > scenario_budget {
                findings.push(Finding::error(
                    "model/wake-stall",
                    format!(
                        "scenario {}: run loop exceeded its iteration budget",
                        sc.name
                    ),
                ));
                break;
            }
            let wc = wheel.tick(now);
            let dc = dense.tick(now);
            if wc != dc {
                findings.push(Finding::error(
                    "model/twin-divergence",
                    format!(
                        "scenario {}: completions diverged @{now} (wheel {:?}, dense {:?})",
                        sc.name, wc, dc
                    ),
                ));
                break;
            }
            // Arrivals land *after* the tick, mirroring the run loop where
            // cores enqueue in the CPU subcycles that follow the
            // controller tick — both twins then stamp the same
            // `enqueued_at`.
            let mut enqueued = false;
            while i < events.len() && events[i].at <= now {
                let ev = &events[i];
                if ev.write {
                    let a = wheel.enqueue_write(0, PhysAddr(ev.addr));
                    let b = dense.enqueue_write(0, PhysAddr(ev.addr));
                    if a != b {
                        findings.push(Finding::error(
                            "model/twin-divergence",
                            format!("scenario {}: write admission diverged @{now}", sc.name),
                        ));
                    }
                } else {
                    let a = wheel.enqueue_read(0, PhysAddr(ev.addr));
                    let b = dense.enqueue_read(0, PhysAddr(ev.addr));
                    if a != b {
                        findings.push(Finding::error(
                            "model/twin-divergence",
                            format!("scenario {}: read admission diverged @{now}", sc.name),
                        ));
                    }
                }
                i += 1;
                enqueued = true;
            }
            if now >= hard_end {
                break;
            }
            let active = wheel.had_activity() || enqueued;
            if active && !wheel.settled() {
                now += 1;
                continue;
            }
            // Quiet or settled tick: the wheel claims nothing observable
            // happens before its earliest edge. Certify the claim.
            let edge = wheel.next_event_detail(now);
            fingerprints.insert(fingerprint(scn_idx, &wheel, edge));
            if let Some(e) = edge {
                if e.cycle <= now {
                    findings.push(Finding::error(
                        "model/edge-contract",
                        format!(
                            "scenario {}: next_event({now}) returned non-future edge {} ({:?})",
                            sc.name, e.cycle, e.source
                        ),
                    ));
                    break;
                }
            }
            let next_enqueue = events.get(i).map(|e| e.at);
            let mut target = hard_end.max(now + 1);
            let mut claimed: Option<EdgeInfo> = None;
            if let Some(e) = edge {
                if e.cycle < target {
                    target = e.cycle;
                    claimed = Some(e);
                }
            }
            if let Some(at) = next_enqueue {
                if at < target {
                    target = at;
                    claimed = None;
                }
            }
            let mut overshoot = None;
            for c in (now + 1)..target {
                let comps = dense.tick(c);
                if !comps.is_empty() || dense.had_activity() {
                    overshoot = Some((c, comps.len()));
                    break;
                }
            }
            if let Some((c, comps)) = overshoot {
                findings.push(Finding::error(
                    "model/wake-overshoot",
                    format!(
                        "scenario {}: dense twin did observable work @{c} \
                         ({comps} completion(s)) inside a span the wheel claimed \
                         quiet until {target} (claimed edge: {})",
                        sc.name,
                        source_name(claimed),
                    ),
                ));
                break;
            }
            if claimed.is_some() || target > now + 1 {
                spans += 1;
                settled_spans += u64::from(active);
                skipped_cycles += target - now - 1;
                *edge_spans.entry(source_name(claimed)).or_insert(0) += 1;
            }
            wheel.note_skipped_cycles(target - now - 1);
            now = target;
        }
        // In audit-armed builds both twins must also be violation-free.
        if wheel.audit_enabled() && (wheel.audit_total() != 0 || dense.audit_total() != 0) {
            findings.push(Finding::error(
                "model/certify-audit",
                format!(
                    "scenario {}: online auditor flagged {} (wheel) / {} (dense) violations",
                    sc.name,
                    wheel.audit_total(),
                    dense.audit_total()
                ),
            ));
        }
    }

    let mut edge_spans: Vec<(String, u64)> = edge_spans.into_iter().collect();
    edge_spans.sort();
    CertifyReport {
        scenarios: SCENARIOS.len(),
        quiet_states: fingerprints.len(),
        spans,
        settled_spans,
        skipped_cycles,
        edge_spans,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_controller::EdgeSource;

    #[test]
    fn wheel_edges_are_sound_across_the_scenario_matrix() {
        let report = certify(6);
        assert!(
            report.findings.is_empty(),
            "wake-soundness findings: {:?}",
            report
                .findings
                .iter()
                .map(|f| f.message.clone())
                .collect::<Vec<_>>()
        );
        assert_eq!(report.scenarios, 8);
        assert!(
            report.quiet_states > 10,
            "{} quiet states",
            report.quiet_states
        );
        assert!(report.spans > 50, "{} spans", report.spans);
        assert!(report.skipped_cycles > 1_000);
        // The wheel also jumps from active ticks once the controller is
        // settled; those spans must be certified too.
        assert!(
            report.settled_spans > 0,
            "no span started at an active but settled tick"
        );
        // The refresh terms of the edge fold are gated on bank state (a
        // release needs every bank closed, a quiesce an urgent rank with
        // open ones); the matrix must still reach both so the gated terms
        // stay certified.
        for source in [EdgeSource::RefreshRelease, EdgeSource::RefreshQuiesce] {
            let name = format!("{source:?}");
            let spans = report
                .edge_spans
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, n)| n);
            assert!(
                spans > 0,
                "no span claimed by {name}: {:?}",
                report.edge_spans
            );
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let a = schedule(42, 8, Geometry::tiny().capacity_bytes());
        let b = schedule(42, 8, Geometry::tiny().capacity_bytes());
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at == y.at && x.write == y.write && x.addr == y.addr));
        let c = schedule(43, 8, Geometry::tiny().capacity_bytes());
        assert!(
            a.len() != c.len()
                || a.iter()
                    .zip(&c)
                    .any(|(x, y)| x.at != y.at || x.addr != y.addr)
        );
    }
}
