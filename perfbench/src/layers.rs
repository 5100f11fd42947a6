//! Component drives: each layer below `core` fed directly with a
//! workload's own trace records, timed from outside through its public
//! functions.

use crate::common::Checks;
use crate::metrics::Values;
use crate::trace::Tracer;
use cpu_model::{Core, CoreParams, InstantMemory, TraceRecord};
use dram_device::{Channel, Geometry, ReqKind, RowTimingClass, TimingSet};
use mcr_dram::{RunReport, SweepPoint};
use mcr_telemetry::LatencyHistogram;
use mem_controller::{
    AddressMapper, ControllerConfig, MemoryController, NormalPolicy, PageInterleave,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use trace_gen::{TraceGenerator, WorkloadProfile};

/// Fixed read latency of the cpu drives, in CPU cycles (about a loaded
/// DRAM read).
const CPU_READ_LATENCY: u64 = 200;

/// Histogram records timed per drive, at least.
const HIST_RECORDS: usize = 1 << 20;

#[derive(Debug, Default)]
struct Totals {
    gen: (Duration, u64),
    cpu: (Duration, u64),
    batch: (Duration, u64),
    device: (Duration, u64),
    tick: (Duration, u64),
    next_event: (Duration, u64),
    enqueue: (u64, u64),
    row_hits: (u64, u64),
    hist: (Duration, u64),
}

fn ns_per(t: (Duration, u64)) -> f64 {
    t.0.as_nanos() as f64 / t.1.max(1) as f64
}

/// A profile the workload runs, with the rate its cores consumed
/// instructions in the workload's own point drives.
#[derive(Debug, Clone, Copy)]
pub struct Feed {
    /// The profile.
    pub profile: WorkloadProfile,
    /// Instructions one core of this profile committed, summed over the
    /// points that run it.
    instructions: f64,
    /// Memory cycles of those points.
    mem_cycles: u64,
}

impl Feed {
    /// Instructions per memory cycle: paces the controller feed.
    fn rate(&self) -> f64 {
        self.instructions / self.mem_cycles.max(1) as f64
    }
}

/// Every profile `points` run, once each, with Σ instructions / Σ memory
/// cycles over the points that run it. A multi-core point counts its
/// mean per-core rate for each of its cores' profiles.
pub fn feeds(points: &[SweepPoint], reports: &[RunReport]) -> Vec<Feed> {
    let mut out: Vec<Feed> = Vec::new();
    for (point, report) in points.iter().zip(reports) {
        let cores = point.config.workloads.len().max(1) as f64;
        for profile in &point.config.workloads {
            let i = match out.iter().position(|f| f.profile.name == profile.name) {
                Some(i) => i,
                None => {
                    out.push(Feed {
                        profile: *profile,
                        instructions: 0.0,
                        mem_cycles: 0,
                    });
                    out.len() - 1
                }
            };
            out[i].instructions += report.instructions as f64 / cores;
            out[i].mem_cycles += report.total_mem_cycles;
        }
    }
    out
}

/// Drives every layer below `core` with `records` trace records of each
/// feed's profile, and adds the per-layer figures to `values`.
pub fn drive(
    feeds: &[Feed],
    seed: u64,
    records: usize,
    tracer: &Tracer,
    checks: &mut Checks,
    values: &mut Values,
) {
    let mut t = Totals::default();
    let p = None;
    for feed in feeds {
        let profile = &feed.profile;
        let t0 = Instant::now();
        let trace: Vec<TraceRecord> = tracer.span("tracegen.generate", p, || {
            TraceGenerator::new(profile, seed, 0)
                .take(records)
                .collect()
        });
        t.gen.0 += t0.elapsed();
        t.gen.1 += trace.len() as u64;

        let dense = tracer.span("cpu.cycle_drive", p, || cpu_dense(&trace, &mut t.cpu));
        let batched = tracer.span("cpu.compute_drive", p, || cpu_batched(&trace, &mut t.batch));
        checks.check(dense == batched, || {
            format!(
                "{}: compute-batch core drive diverged from the per-cycle drive",
                profile.name
            )
        });

        let refused = tracer.span("device.drive", p, || device(&trace, &mut t.device));
        checks.check(refused == 0, || {
            format!(
                "{}: the channel refused {refused} commands issued at their legal cycle",
                profile.name
            )
        });

        let latencies = tracer.span("controller.tick_drive", p, || {
            controller(&trace, feed.rate(), false, &mut t)
        });
        let again = tracer.span("controller.next_event_drive", p, || {
            controller(&trace, feed.rate(), true, &mut t)
        });
        checks.check(latencies == again, || {
            format!(
                "{}: next_event queries changed the controller's behaviour",
                profile.name
            )
        });

        tracer.span("telemetry.record", p, || hist(&latencies, &mut t.hist));
    }
    values.insert("tracegen.ns_per_record", ns_per(t.gen));
    values.insert("cpu.ns_per_cycle", ns_per(t.cpu));
    values.insert("cpu.compute_batch_ns_per_cycle", ns_per(t.batch));
    values.insert("device.ns_per_cmd", ns_per(t.device));
    values.insert("controller.tick_ns", ns_per(t.tick));
    values.insert("controller.next_event_ns", ns_per(t.next_event));
    values.insert(
        "controller.enqueue_refused_frac",
        t.enqueue.0 as f64 / t.enqueue.1.max(1) as f64,
    );
    values.insert(
        "controller.row_hit_ratio",
        t.row_hits.0 as f64 / t.row_hits.1.max(1) as f64,
    );
    values.insert("telemetry.hist_record_ns", ns_per(t.hist));
}

/// `Core::cycle` against [`InstantMemory`], one CPU cycle at a time.
fn cpu_dense(trace: &[TraceRecord], acc: &mut (Duration, u64)) -> cpu_model::CoreStats {
    let mut core = Core::new(0, CoreParams::msc_default(), trace.iter().copied());
    let mut mem = InstantMemory::new(CPU_READ_LATENCY);
    let t0 = Instant::now();
    let mut now = 0;
    while !core.done() {
        mem.deliver(now, &mut core);
        core.cycle(now, &mut mem);
        now += 1;
    }
    acc.0 += t0.elapsed();
    acc.1 += now;
    core.stats().clone()
}

/// The same drive, replaying compute spans in bulk with
/// `Core::advance_compute` wherever the core vouches for one. Only the
/// batched calls are timed.
fn cpu_batched(trace: &[TraceRecord], acc: &mut (Duration, u64)) -> cpu_model::CoreStats {
    let mut core = Core::new(0, CoreParams::msc_default(), trace.iter().copied());
    let mut mem = InstantMemory::new(CPU_READ_LATENCY);
    let mut now = 0;
    while !core.done() {
        mem.deliver(now, &mut core);
        let mut span = core.compute_quiet_cycles();
        if let Some(ready) = mem.next_ready_at() {
            span = span.min(ready.saturating_sub(now));
        }
        if span > 0 {
            let t0 = Instant::now();
            core.advance_compute(now, span);
            acc.0 += t0.elapsed();
            acc.1 += span;
            now += span;
        } else {
            core.cycle(now, &mut mem);
            now += 1;
        }
    }
    core.stats().clone()
}

/// ACT, then RD or WR, then PRE on one channel for every record, each at
/// its earliest legal cycle. Returns the commands the channel refused.
fn device(trace: &[TraceRecord], acc: &mut (Duration, u64)) -> u64 {
    let geometry = Geometry::single_core_4gb();
    let mapper = PageInterleave::new(geometry);
    let mut chan = Channel::new(geometry, TimingSet::default());
    let mut refused = 0;
    let t0 = Instant::now();
    let mut now = 0;
    for r in trace {
        let a = mapper.decode(r.addr);
        let act = chan.next_activate_cycle(a.rank, a.bank).max(now);
        let opened = chan.activate(a.rank, a.bank, a.row, act, RowTimingClass(0));
        let cas = match r.kind {
            ReqKind::Read => {
                let at = chan.next_read_cycle(a.rank, a.bank);
                chan.read(a.rank, a.bank, a.col, at).map(drop)
            }
            ReqKind::Write => {
                let at = chan.next_cas_cycle(a.rank, a.bank, false);
                chan.write(a.rank, a.bank, a.col, at).map(drop)
            }
        };
        let pre = chan.next_precharge_cycle(a.rank, a.bank);
        let closed = chan.precharge(a.rank, a.bank, pre);
        refused += [opened, cas, closed].iter().filter(|r| r.is_err()).count() as u64;
        now = pre + 1;
    }
    acc.0 += t0.elapsed();
    acc.1 += 3 * trace.len() as u64;
    refused
}

/// Feeds the records to a baseline controller open loop, each
/// `gap / rate` memory cycles after the last was accepted, and ticks it
/// until it drains. With `query`, also asks `next_event` after every tick
/// (each call timed alone). Returns the read latencies in completion
/// order.
fn controller(trace: &[TraceRecord], rate: f64, query: bool, t: &mut Totals) -> Vec<u64> {
    let g = Geometry::single_core_4gb();
    let mut ctl = MemoryController::new(
        g,
        TimingSet::default(),
        ControllerConfig::msc_default(),
        Box::new(PageInterleave::new(g)),
        Box::new(NormalPolicy),
    );
    let mut latencies = Vec::with_capacity(trace.len());
    let mut next = 0;
    let mut due = 0;
    let mut now = 0;
    let mut query_time = Duration::ZERO;
    let t0 = Instant::now();
    while next < trace.len() || !ctl.idle() {
        if next < trace.len() && now >= due {
            let r = &trace[next];
            let accepted = match r.kind {
                ReqKind::Read => ctl.enqueue_read(0, r.addr).is_some(),
                ReqKind::Write => ctl.enqueue_write(0, r.addr),
            };
            if !query {
                t.enqueue.1 += 1;
                t.enqueue.0 += u64::from(!accepted);
            }
            if accepted {
                next += 1;
                due = now + (f64::from(r.gap) / rate).round() as u64;
            }
        }
        latencies.extend(ctl.tick(now).iter().map(|c| c.latency));
        if query {
            let q0 = Instant::now();
            black_box(ctl.next_event(now));
            query_time += q0.elapsed();
        }
        now += 1;
    }
    if query {
        t.next_event.0 += query_time;
        t.next_event.1 += now;
    } else {
        t.tick.0 += t0.elapsed();
        t.tick.1 += now;
        let s = ctl.stats();
        t.row_hits.0 += s.row_hits;
        t.row_hits.1 += s.row_hits + s.row_misses + s.row_conflicts;
    }
    latencies
}

/// Records `latencies` into a histogram until at least
/// [`HIST_RECORDS`] values went in.
fn hist(latencies: &[u64], acc: &mut (Duration, u64)) {
    if latencies.is_empty() {
        return;
    }
    let mut h = LatencyHistogram::new();
    let rounds = HIST_RECORDS.div_ceil(latencies.len());
    let t0 = Instant::now();
    for _ in 0..rounds {
        for &v in latencies {
            h.record(black_box(v));
        }
    }
    acc.0 += t0.elapsed();
    acc.1 += h.count();
}
