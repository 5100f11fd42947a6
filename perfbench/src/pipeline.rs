//! The single-threaded drives behind the output checks and the traced
//! run: one point through `core`, the codec, `sim-json` and the store,
//! and one protocol request through parsing, sweep build, store lookup
//! and rendering. Spans go to the given [`Tracer`]; with a disabled
//! tracer the same calls run unrecorded.

use crate::common::{nproc, panic_text, Checks, Scratch};
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::{Span, SpanId, Tracer};
use dram_device::Cycle;
use mcr_dram::{ReportStore, RunReport, SweepPoint, System};
use mcr_serve::protocol::{parse_request, render_job_ok};
use mcr_serve::{Client, Request, ServeConfig, ServeTelemetry, Server};
use mcr_store::{report_from_json, report_to_json, ResultStore};
use sim_json::Json;
use std::net::SocketAddr;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one point drive produced.
#[derive(Debug)]
struct PointDrive {
    /// The report of the `run_until` drive.
    pub report: RunReport,
    /// JSON bytes the codec round trip wrote, then parsed.
    pub json_bytes: u64,
}

/// Drives `point` to completion with `run_until`, the drive a sweep
/// uses, then round-trips its report through the codec and the store.
/// Checks the round trips.
fn drive_point(
    point: &SweepPoint,
    store: &ResultStore,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<PointDrive, String> {
    let root = tracer.open("point", None);
    let p = Some(root);
    let mut sys = tracer
        .span("core.build", p, || System::try_build(&point.config))
        .map_err(|e| format!("{}: {e}", point.label))?;
    tracer.span("core.run", p, || sys.run_until(Cycle::MAX));
    let report = tracer.span("core.report", p, || sys.report());
    let encoded = tracer.span("codec.encode", p, || report_to_json(&report));
    let text = tracer.span("json.write", p, || encoded.to_string());
    let parsed = tracer.span("json.parse", p, || Json::parse(&text));
    let decoded = tracer.span("codec.decode", p, || {
        parsed
            .map_err(|e| e.to_string())
            .and_then(|j| report_from_json(&j).map_err(|e| e.to_string()))
    });
    checks.check(decoded.as_ref() == Ok(&report), || {
        format!("{}: codec round trip changed the report", point.label)
    });
    let key = point.config.config_key();
    tracer.span("store.publish", p, || store.publish(key, &report));
    let found = tracer.span("store.lookup", p, || store.lookup(key));
    checks.check(found.as_ref() == Some(&report), || {
        format!(
            "{}: store lookup did not return the published report",
            point.label
        )
    });
    tracer.close(root);
    Ok(PointDrive {
        report,
        json_bytes: text.len() as u64,
    })
}

/// Drives `point` one event at a time, checks its report against the
/// `run_until` drive's and returns the `advance_to_next_event` calls:
/// one per non-quiet cycle.
fn event_drive(
    point: &SweepPoint,
    reference: &RunReport,
    checks: &mut Checks,
) -> Result<u64, String> {
    let mut sys = System::try_build(&point.config).map_err(|e| format!("{}: {e}", point.label))?;
    let mut calls = 1;
    while !sys.advance_to_next_event() {
        calls += 1;
    }
    checks.check(&sys.report() == reference, || {
        format!(
            "{}: run_until and advance_to_next_event drives differ",
            point.label
        )
    });
    Ok(calls)
}

/// The single-threaded drives of a point list.
#[derive(Debug, Default)]
pub struct Drives {
    /// Reports of the untraced drive, in point order.
    pub reports: Vec<RunReport>,
    /// Σ non-quiet cycles of the event drives (traced runs only).
    pub nonquiet: u64,
    /// JSON bytes the untraced drive's codec round trips wrote.
    pub json_bytes: u64,
    /// Wall time of the untraced drive.
    pub untraced: Duration,
    /// Wall time of the traced drive (zero without one).
    pub traced: Duration,
}

/// Drives every point through [`drive_point`] untraced and, given a
/// recording tracer, traced as well: the two alternate point by point,
/// swapping which goes first, so drift in machine speed falls on both.
/// Each drive publishes into its own store, so both do the same work.
/// A traced run also makes an untimed [`event_drive`] of every point.
pub fn drive_points(
    points: &[SweepPoint],
    scratch: &mut Scratch,
    traced: Option<&Tracer>,
    checks: &mut Checks,
) -> Result<Drives, String> {
    let open = |dir| ResultStore::open(dir).map_err(|e| format!("store: {e}"));
    let off = Tracer::off();
    let off_store = open(scratch.fresh("untraced"))?;
    let on = match traced {
        Some(t) => Some((t, open(scratch.fresh("traced"))?)),
        None => None,
    };
    let mut d = Drives::default();
    let mut traced_reports = Vec::new();
    for (i, point) in points.iter().enumerate() {
        let mut order = vec![(&off, &off_store, false)];
        if let Some((t, store)) = &on {
            order.push((*t, store, true));
            if i % 2 == 1 {
                order.reverse();
            }
        }
        for (tracer, store, is_traced) in order {
            let t0 = Instant::now();
            let run = drive_point(point, store, tracer, checks)?;
            if is_traced {
                d.traced += t0.elapsed();
                traced_reports.push(run.report);
            } else {
                d.untraced += t0.elapsed();
                d.json_bytes += run.json_bytes;
                d.reports.push(run.report);
            }
        }
        if on.is_some() {
            d.nonquiet += event_drive(point, &d.reports[i], checks)?;
        }
    }
    if on.is_some() {
        checks.check(traced_reports == d.reports, || {
            "traced drive's reports differ from the untraced drive".into()
        });
    }
    Ok(d)
}

/// Core-layer figures and tracing overhead of [`drive_points`].
pub fn drive_layers(l: &mut Values, d: &Drives) {
    let cycles: u64 = d.reports.iter().map(|r| r.total_mem_cycles).sum();
    l.insert(
        "trace.overhead_ms",
        (d.traced.as_secs_f64() - d.untraced.as_secs_f64()) * 1e3,
    );
    l.insert(
        "trace.overhead_frac",
        d.traced.as_secs_f64() / d.untraced.as_secs_f64() - 1.0,
    );
    l.insert("core.nonquiet_cycles", d.nonquiet as f64);
    l.insert(
        "core.skipped_share",
        1.0 - d.nonquiet as f64 / cycles.max(1) as f64,
    );
}

/// Checks `point` against its dense (`set_skip_ahead(false)`) reference
/// and returns dense over event-wheel wall time.
pub fn dense_check(
    point: &SweepPoint,
    reference: &RunReport,
    checks: &mut Checks,
) -> Result<f64, String> {
    let build = || System::try_build(&point.config).map_err(|e| e.to_string());
    let mut dense = build()?;
    dense.set_skip_ahead(false);
    let t0 = Instant::now();
    let dense_report = dense.run();
    let dense_wall = t0.elapsed();
    let wheel = build()?;
    let t0 = Instant::now();
    let wheel_report = wheel.run();
    let wheel_wall = t0.elapsed();
    checks.check(
        &dense_report == reference && &wheel_report == reference,
        || {
            format!(
                "{}: dense reference differs from the event-wheel drive",
                point.label
            )
        },
    );
    Ok(dense_wall.as_secs_f64() / wheel_wall.as_secs_f64())
}

/// Per-layer figures from the point and request drives' spans, given
/// the memory cycles and JSON bytes of the traced point drive.
pub fn span_layers(l: &mut Values, spans: &[Span], cycles: u64, json_bytes: u64) {
    let under = |name: &str, root: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == root))
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let med = |name: &str, root: &str| median(&under(name, root)).unwrap_or(f64::NAN);
    let total = |name: &str| under(name, "point").iter().sum::<f64>();
    l.insert("core.build_ms", med("core.build", "point") / 1e6);
    l.insert(
        "core.run_ns_per_mcycle",
        total("core.run") / cycles.max(1) as f64,
    );
    l.insert("core.report_us", med("core.report", "point") / 1e3);
    l.insert("codec.encode_us", med("codec.encode", "point") / 1e3);
    l.insert("codec.decode_us", med("codec.decode", "point") / 1e3);
    l.insert("store.publish_us", med("store.publish", "point") / 1e3);
    l.insert("store.lookup_us", med("store.lookup", "point") / 1e3);
    l.insert(
        "json.write_ns_per_byte",
        total("json.write") / json_bytes.max(1) as f64,
    );
    l.insert(
        "json.parse_ns_per_byte",
        total("json.parse") / json_bytes.max(1) as f64,
    );
    l.insert("protocol.parse_us", med("protocol.parse", "request") / 1e3);
    l.insert("serve.render_us", med("serve.render", "request") / 1e3);
}

/// Service-layer figures from request round trips, of which `hits` of
/// `points` came from the store.
pub fn serve_layer(l: &mut Values, hits: u64, points: u64, trips: &[RoundTrip]) {
    let med = |f: &dyn Fn(&RoundTrip) -> f64| {
        median(&trips.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    l.insert("serve.service_ms", med(&|t| t.service_ms));
    l.insert("serve.queue_ms", med(&|t| t.queue_ms));
    l.insert("serve.transport_ms", med(&|t| t.rtt_ms - t.service_ms));
    l.insert("store.hit_ratio", hits as f64 / points.max(1) as f64);
}

/// A loopback server with `nproc` workers on the store at a directory,
/// running on its own thread; shut down (and joined) on drop.
pub struct Live {
    /// The bound address.
    pub addr: SocketAddr,
    handle: Option<JoinHandle<ServeTelemetry>>,
}

impl Live {
    /// Binds an ephemeral loopback port and starts serving.
    pub fn start(dir: &Path) -> Result<Live, String> {
        let cfg = ServeConfig {
            workers: nproc(),
            cache_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        Ok(Live {
            addr,
            handle: Some(std::thread::spawn(move || server.run())),
        })
    }

    /// Drains and stops the server; returns its final telemetry.
    pub fn shutdown(mut self) -> Result<ServeTelemetry, String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<ServeTelemetry, String> {
        let handle = self.handle.take().ok_or("server already stopped")?;
        // Without a delivered shutdown the server never returns.
        Client::connect(self.addr)
            .and_then(|mut c| c.request_line(r#"{"cmd":"shutdown"}"#))
            .map_err(|e| format!("shutdown: {e}"))?;
        handle.join().map_err(|p| panic_text(p.as_ref()))
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.stop();
        }
    }
}

/// A [`ReportStore`] that records a span around every call.
pub struct TracedStore<'a> {
    /// The store being traced.
    pub inner: &'a ResultStore,
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// Parent of every recorded span.
    pub parent: Option<SpanId>,
}

impl ReportStore for TracedStore<'_> {
    fn lookup(&self, key: u64) -> Option<mcr_dram::RunReport> {
        self.tracer
            .span("store.lookup", self.parent, || self.inner.lookup(key))
    }

    fn publish(&self, key: u64, report: &mcr_dram::RunReport) {
        self.tracer.span("store.publish", self.parent, || {
            self.inner.publish(key, report)
        })
    }
}

/// Round-trip timings of one request sent to a live server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTrip {
    /// Client-side round trip, ms.
    pub rtt_ms: f64,
    /// Server-reported admission-to-reply time, ms.
    pub service_ms: f64,
    /// Server-reported queue wait, ms.
    pub queue_ms: f64,
}

/// What the request drive measured.
#[derive(Debug, Default)]
pub struct RequestDrive {
    /// Points requested.
    pub points: u64,
    /// Points the store answered.
    pub hits: u64,
    /// Round trips to the server, when one was given.
    pub round_trips: Vec<RoundTrip>,
    /// Replies that were not `ok`.
    pub not_ok: u64,
    /// Work-stealing steals across the local sweep runs.
    pub steals: u64,
    /// Median over requests of Σ point wall / (jobs × sweep wall).
    pub busy_frac: f64,
}

/// Pushes each protocol line through the service's own path in this
/// process — parse, sweep build, store-backed run with `nproc` workers,
/// render — and, with a client, also through a live server.
pub fn drive_requests(
    lines: &[String],
    store: &ResultStore,
    tracer: &Tracer,
    mut client: Option<&mut Client>,
    checks: &mut Checks,
) -> RequestDrive {
    let mut out = RequestDrive::default();
    let mut busy = Vec::new();
    for line in lines {
        let root = tracer.open("request", None);
        let p = Some(root);
        let parsed = tracer.span("protocol.parse", p, || parse_request(line));
        let job = match parsed {
            Ok(Request::Job(job)) => job,
            other => {
                checks.check(false, || {
                    format!("request {line} did not parse as a job: {other:?}")
                });
                continue;
            }
        };
        let sweep = match tracer.span("sweep.build", p, || {
            job.spec.sweep(Some(crate::common::nproc()))
        }) {
            Ok(s) => s,
            Err(e) => {
                checks.check(false, || format!("request {line} did not build: {e}"));
                continue;
            }
        };
        let run_span = tracer.open("sweep.run", p);
        let traced = TracedStore {
            inner: store,
            tracer,
            parent: Some(run_span),
        };
        let results = sweep.run_with_store(&traced);
        tracer.close(run_span);
        out.points += results.points.len() as u64;
        out.hits += results.cache_hits() as u64;
        out.steals += results.exec.steals.get();
        let point_wall: f64 = results.points.iter().map(|p| p.wall.as_secs_f64()).sum();
        busy.push(point_wall / (results.jobs as f64 * results.wall.as_secs_f64()));
        let rendered = tracer.span("serve.render", p, || render_job_ok(&job, &results, 0, 0));
        checks.check(rendered.contains(r#""status":"ok""#), || {
            format!("local render of {line} was not ok")
        });
        if let Some(c) = client.as_deref_mut() {
            let t0 = Instant::now();
            let reply = tracer.span("serve.round_trip", p, || c.request_line(line));
            let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
            match reply
                .map_err(|e| e.to_string())
                .and_then(|r| Json::parse(&r).map_err(|e| e.to_string()))
            {
                Ok(j) if j.get("status").and_then(Json::as_str) == Some("ok") => {
                    let ms = |k| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                    out.round_trips.push(RoundTrip {
                        rtt_ms,
                        service_ms: ms("service_ms"),
                        queue_ms: ms("queue_ms"),
                    });
                }
                other => {
                    out.not_ok += 1;
                    checks.check(false, || {
                        format!("server reply to {line} was not ok: {other:?}")
                    });
                }
            }
        }
        tracer.close(root);
    }
    out.busy_frac = crate::stats::median(&busy).unwrap_or(f64::NAN);
    out
}
