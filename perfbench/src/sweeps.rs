//! The sweep workloads: a cold `SweepBuilder` grid run repeatedly with
//! `jobs` = `nproc` and a fresh memo, then checked point by point against
//! single-threaded point drives.

use crate::common::{nproc, panic_text, peak_rss_mb, Scratch, Work};
use crate::pipeline::{
    dense_check, drive_layers, drive_points, drive_requests, serve_layer, span_layers, Live,
};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{layers, model, Outcome};
use mcr_dram::{McrMode, ResultCache, Sweep, SweepBuilder, SweepResults, SystemConfig};
use mcr_serve::Client;
use mcr_store::ResultStore;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trace_gen::{multi_programmed_mixes, multi_threaded_group, Mix};

/// Memory operations per core at every sweep point.
pub const TRACE_LEN: usize = 50_000;

/// Grid builds timed for `setup_s` before each pass; the median over
/// all of them is reported.
const SETUP_PER_PASS: usize = 100;

/// Records per profile fed to the component drives.
const LAYER_RECORDS: usize = 20_000;

/// One sweep workload's grid.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Workload name.
    pub name: &'static str,
    /// Single-core targets.
    pub workloads: &'static [&'static str],
    /// Modes of the single-core targets (`off` first).
    pub modes: &'static [&'static str],
    /// Quad-core targets.
    pub mixes: &'static [&'static str],
    /// Modes of the quad-core targets.
    pub mix_modes: &'static [&'static str],
    /// Rank power-down threshold, if armed.
    pub powerdown: Option<u32>,
}

/// High-MPKI single-core targets with write-heavy `stream`/`comm2`, plus
/// two quad-core targets contending for the queues.
pub const LOADED: SweepSpec = SweepSpec {
    name: "sweep_loaded",
    workloads: &["libq", "leslie", "stream", "mummer", "tigr", "comm2"],
    modes: &["off", "2/2x/100", "4/4x/100", "2/4x/50"],
    mixes: &["mix01", "MT-canneal"],
    mix_modes: &["off", "4/4x/100"],
    powerdown: None,
};

/// Low-MPKI profiles with rank power-down armed.
pub const IDLE: SweepSpec = SweepSpec {
    name: "sweep_idle",
    workloads: &["black", "face", "swapt", "fluid"],
    modes: &["off", "1/2x/100", "4/4x/100", "1/4x/50"],
    mixes: &[],
    mix_modes: &[],
    powerdown: Some(64),
};

fn mode(text: &str) -> McrMode {
    mcr_serve::protocol::parse_mode(text).expect("grid modes are valid Table 1 modes")
}

fn mix(name: &str) -> Mix {
    multi_programmed_mixes(2015)
        .into_iter()
        .chain(multi_threaded_group())
        .find(|m| m.name == name)
        .expect("grid mixes are built-in")
}

impl SweepSpec {
    /// Expands and validates the grid at `seed`.
    pub fn build(&self, seed: u64, jobs: usize) -> Result<Sweep, String> {
        let mut b = SweepBuilder::new(TRACE_LEN)
            .workloads(self.workloads.iter().copied())
            .seed(seed)
            .jobs(jobs);
        for m in self.modes {
            b = b.mode(mode(m));
        }
        if let Some(threshold) = self.powerdown {
            b = b.configure(move |c| c.with_powerdown(threshold));
        }
        for name in self.mixes {
            let mix = mix(name);
            for m in self.mix_modes {
                let mut cfg = SystemConfig::multi_core_mix(&mix, TRACE_LEN)
                    .with_mode(mode(m))
                    .with_seed(seed);
                if let Some(threshold) = self.powerdown {
                    cfg = cfg.with_powerdown(threshold);
                }
                b = b.point(format!("{name} {}", cfg.mode), cfg);
            }
        }
        b.build().map_err(|e| e.to_string())
    }

    /// The grid as service requests. The protocol has no power-down
    /// field, so a power-down grid's requests name other configs.
    fn request_lines(&self, seed: u64) -> Vec<String> {
        let list = |items: &[&str]| {
            items
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut lines = vec![format!(
            r#"{{"cmd":"sweep","workloads":[{}],"modes":[{}],"len":{TRACE_LEN},"seeds":[{seed}]}}"#,
            list(self.workloads),
            list(self.modes)
        )];
        if !self.mixes.is_empty() {
            lines.push(format!(
                r#"{{"cmd":"sweep","mixes":[{}],"modes":[{}],"len":{TRACE_LEN},"seeds":[{seed}]}}"#,
                list(self.mixes),
                list(self.mix_modes)
            ));
        }
        lines
    }
}

/// Builds the grid [`SETUP_PER_PASS`] times, timing each build.
fn time_setups(
    spec: &SweepSpec,
    seed: u64,
    jobs: usize,
    times: &mut Vec<f64>,
) -> Result<Sweep, String> {
    let mut last = None;
    for _ in 0..SETUP_PER_PASS {
        let t0 = Instant::now();
        let sweep = spec.build(seed, jobs)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(sweep);
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// One timed pass over the grid, without its reports: a run keeps only
/// the first pass's, so its memory does not grow with the pass count.
struct Pass {
    wall: Duration,
    /// Each point's wall time in seconds, in point order.
    point_walls: Vec<f64>,
    steals: u64,
    work: Work,
}

fn timed_pass(sweep: &Sweep) -> Result<(Pass, SweepResults), String> {
    let t0 = Instant::now();
    let results = catch_unwind(AssertUnwindSafe(|| {
        sweep.run_with_cache(&ResultCache::new())
    }))
    .map_err(|p| panic_text(p.as_ref()))?;
    let wall = t0.elapsed();
    let mut work = Work::default();
    for p in &results.points {
        if p.cache_hit {
            work.points_served += 1;
        } else {
            work.points_simulated += 1;
        }
        work.add_report(&p.report);
    }
    let pass = Pass {
        wall,
        point_walls: results
            .points
            .iter()
            .map(|p| p.wall.as_secs_f64())
            .collect(),
        steals: results.exec.steals.get(),
        work,
    };
    Ok((pass, results))
}

/// Runs one sweep workload.
pub fn run(spec: &SweepSpec, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let jobs = nproc();
    let mut out = Outcome::default();

    // Set-up: grid expansion and validation, timed again before every
    // pass so the median samples the host across the whole run rather
    // than in one 20-ms instant.
    let mut setup = Vec::new();
    let sweep = time_setups(spec, seed, jobs, &mut setup)?;
    let points = sweep.points().len();

    // Timed passes, untraced: at least two, so their work can be compared.
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Option<SweepResults> = None;
    while passes.len() < 2 || start.elapsed() < window {
        if !passes.is_empty() {
            time_setups(spec, seed, jobs, &mut setup)?;
        }
        out.attempted += points as u64;
        match timed_pass(&sweep) {
            Ok((pass, results)) => {
                let i = passes.len();
                match &first {
                    None => first = Some(results),
                    Some(f) => out.checks.check(same_reports(&results, f), || {
                        format!("pass {i} reports differ from pass 0")
                    }),
                }
                passes.push(pass);
            }
            Err(e) => {
                out.failed += points as u64;
                out.checks
                    .check(false, || format!("timed pass panicked: {e}"));
                break;
            }
        }
    }
    let rss = peak_rss_mb();
    let (Some(first), Some(pass0)) = (first, passes.first()) else {
        return Ok(out);
    };
    for (i, p) in passes.iter().enumerate().skip(1) {
        out.checks.check(p.work == pass0.work, || {
            format!(
                "pass {i} work {:?} differs from pass 0 {:?}",
                p.work, pass0.work
            )
        });
    }

    record_passes(&passes, &setup, rss, jobs, &mut out)?;

    // Output checks: single-threaded reference drives.
    let mut scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let tracer = Tracer::on();
    let drives = drive_points(
        sweep.points(),
        &mut scratch,
        traced.then_some(&tracer),
        &mut out.checks,
    )?;
    for (p, r) in first.points.iter().zip(&drives.reports) {
        out.checks.check(&p.report == r, || {
            format!(
                "{}: jobs={jobs} report differs from the single-threaded drive",
                p.label
            )
        });
    }
    let i = 1.min(points - 1);
    let speedup = dense_check(&sweep.points()[i], &drives.reports[i], &mut out.checks)?;
    out.model = Some(model::block(spec.name, sweep.points(), &drives.reports));

    if traced {
        drive_layers(&mut out.per_layer, &drives);
        out.per_layer.insert("core.wheel_speedup", speedup);
        layers::drive(
            &layers::feeds(sweep.points(), &drives.reports),
            seed,
            LAYER_RECORDS,
            &tracer,
            &mut out.checks,
            &mut out.per_layer,
        );

        // The grid as service requests: through this process's copy of
        // the service path, then through a live server on the same store.
        let dir = scratch.fresh("served");
        let store = ResultStore::open(&dir).map_err(|e| format!("store: {e}"))?;
        for (point, report) in sweep.points().iter().zip(&drives.reports) {
            mcr_dram::ReportStore::publish(&store, point.config.config_key(), report);
        }
        let server = Live::start(&dir)?;
        let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        let lines = spec.request_lines(seed);
        let served = drive_requests(&lines, &store, &tracer, Some(&mut client), &mut out.checks);
        drop(client);
        server.shutdown()?;
        serve_layer(
            &mut out.per_layer,
            served.hits,
            served.points,
            &served.round_trips,
        );
        let sent = served.round_trips.len() as u64 + served.not_ok;
        out.per_layer
            .insert("serve.shed_frac", served.not_ok as f64 / sent.max(1) as f64);
        out.spans = tracer.take();
        span_layers(
            &mut out.per_layer,
            &out.spans,
            pass0.work.mem_cycles,
            drives.json_bytes,
        );
    }
    Ok(out)
}

/// End-to-end and sweep-layer figures of the timed passes, given the
/// set-up times and the peak RSS read when the passes ended.
fn record_passes(
    passes: &[Pass],
    setup: &[f64],
    rss: Option<f64>,
    jobs: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let first = passes.first().ok_or("no pass completed")?;
    let points = first.point_walls.len();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Other load on the host only ever slows a point down, so each
    // point's fastest wall time over the passes is its steadiest figure.
    let fastest: Vec<f64> = (0..points)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.point_walls[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let fastest_ms: Vec<f64> = fastest.iter().map(|s| s * 1e3).collect();
    let point_summary = summarize(&fastest_ms).ok_or("no points timed")?;
    let busy =
        per_pass(&|p| p.point_walls.iter().sum::<f64>() / (jobs as f64 * p.wall.as_secs_f64()))
            .unwrap_or(f64::NAN);
    // A pass assembled from the fastest points, spread over the workers
    // at the median busy share.
    let assembled = fastest.iter().sum::<f64>() / (jobs as f64 * busy);
    let e = &mut out.end_to_end;
    e.insert("setup_s", median(setup).unwrap_or(f64::NAN));
    e.insert(
        "sim_mcycles_per_s",
        first.work.mem_cycles as f64 / 1e6 / assembled,
    );
    let pps = points as f64 / assembled;
    e.insert("points_per_s", pps);
    e.insert("req_per_s", pps);
    e.insert("req_ms.p50", point_summary.p50);
    e.insert("req_ms.p90", point_summary.p90);
    e.insert("peak_rss_mb", rss.unwrap_or(f64::NAN));
    out.samples = point_summary.n;
    out.tail = point_summary.tail;
    out.notes.push(format!(
        "{} passes of {points} points, jobs {jobs}, trace length {TRACE_LEN}; a request is one point, timed at its fastest pass",
        passes.len()
    ));

    let l = &mut out.per_layer;
    l.insert("sweep.busy_frac", busy);
    l.insert("sweep.point_ms.p50", point_summary.p50);
    l.insert("sweep.point_ms.max", point_summary.max);
    l.insert(
        "sweep.steals",
        per_pass(&|p| p.steals as f64).unwrap_or(f64::NAN),
    );
    let w = first.work;
    l.insert("work.mem_cycles", w.mem_cycles as f64);
    l.insert("work.reads", w.reads as f64);
    l.insert("work.instructions", w.instructions as f64);
    l.insert("work.commands", w.commands as f64);
    l.insert("work.points_simulated", w.points_simulated as f64);
    l.insert("work.points_served", w.points_served as f64);
    l.insert("run.repetitions", passes.len() as f64);

    Ok(())
}

/// Report equality ignoring the volatile per-point wall clock.
fn same_reports(a: &SweepResults, b: &SweepResults) -> bool {
    a.points.len() == b.points.len()
        && a.points
            .iter()
            .zip(&b.points)
            .all(|(x, y)| x.key == y.key && x.report == y.report)
}
