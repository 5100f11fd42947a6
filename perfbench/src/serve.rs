//! The `serve_warm` workload: an in-process loopback server with a disk
//! store that set-up fills, then closed-loop clients, each on one
//! kept-alive connection, replaying a seeded request sequence.

use crate::common::{nproc, panic_text, peak_rss_mb, Checks, Scratch, Work};
use crate::pipeline::{
    dense_check, drive_layers, drive_points, drive_requests, serve_layer, span_layers, Live,
    RoundTrip,
};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{layers, Outcome};
use mcr_dram::{RunReport, SweepPoint};
use mcr_serve::protocol::parse_request;
use mcr_serve::{Client, Request};
use mcr_store::{report_from_json, ResultStore};
use sim_json::Json;
use sim_rng::SmallRng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Trace length of the warm pool's points.
pub const WARM_LEN: usize = 5_000;
/// Trace length of the cold points.
pub const COLD_LEN: usize = 2_000;
/// Distinct warm requests.
pub const POOL: usize = 12;
/// Requests per round: each pool request three times, plus the cold ones.
pub const ROUND: usize = 3 * POOL + COLD_PER_ROUND;
/// Cold requests per round (10 %).
pub const COLD_PER_ROUND: usize = 4;
/// Set-ups timed for `setup_s`; the median is reported.
const SETUP_REPEATS: usize = 5;

const WORKLOADS: [&str; 8] = [
    "libq", "comm2", "stream", "tigr", "black", "face", "leslie", "mummer",
];
const MODES: [&str; 5] = ["2/2x/100", "4/4x/100", "2/4x/50", "1/2x/100", "4/4x/50"];
const BACKENDS: &str = r#"["baseline","mcr","tldram","clrdram"]"#;

/// Reply members that vary between two answers to one request.
const VOLATILE: [&str; 5] = [
    "queue_ms",
    "service_ms",
    "wall_ns",
    "cache_hit",
    "cache_hits",
];

fn pick<'a>(rng: &mut SmallRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// Seeds a request may carry: below 2^53 so JSON numbers hold them.
fn wire_seed(bits: u64) -> u64 {
    bits >> 11
}

/// The warm request pool: run, sweep and compare jobs in turn, a third
/// plain, a third with `metrics`, a third with `full_reports`. The
/// workloads are fixed by position, so the pool's cost barely depends
/// on the seed; modes and config seeds come from it.
pub fn pool(seed: u64) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_F001);
    (0..POOL)
        .map(|i| {
            let w = WORKLOADS[i % WORKLOADS.len()];
            let m = pick(&mut rng, &MODES);
            let s = wire_seed(rng.next_u64());
            let body = match i % 3 {
                0 => format!(r#""cmd":"run","workload":"{w}","mode":"{m}","len":{WARM_LEN},"seed":{s}"#),
                1 => {
                    let w2 = WORKLOADS[(i + 3) % WORKLOADS.len()];
                    format!(
                        r#""cmd":"sweep","workloads":["{w}","{w2}"],"modes":["off","{m}"],"len":{WARM_LEN},"seeds":[{s}]"#
                    )
                }
                _ => format!(
                    r#""cmd":"compare","workload":"{w}","mode":"{m}","len":{WARM_LEN},"seed":{s},"backends":{BACKENDS}"#
                ),
            };
            let flag = match (i / 3) % 3 {
                0 => "",
                1 => r#","metrics":true"#,
                _ => r#","full_reports":true"#,
            };
            format!(r#"{{"id":"p{i}",{body}{flag}}}"#)
        })
        .collect()
}

/// One request of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// The protocol line.
    pub line: String,
    /// Index into the pool for a warm request; `None` for a cold one.
    pub warm: Option<usize>,
}

/// Workloads of a round's cold requests, in order: two loaded, two idle.
const COLD_WORKLOADS: [&str; COLD_PER_ROUND] = ["libq", "comm2", "black", "face"];

/// Round `round` of the request sequence: every pool request three
/// times plus [`COLD_PER_ROUND`] cold runs, in a seeded order. The order
/// and the cold modes depend on `seed` alone, so every round does the
/// same work; only the cold requests' config seeds change with `round`,
/// so they always miss the store.
pub fn round(seed: u64, round: u64) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_C01D);
    let mut slots: Vec<Option<usize>> = (0..ROUND - COLD_PER_ROUND)
        .map(|i| Some(i % POOL))
        .chain((0..COLD_PER_ROUND).map(|_| None))
        .collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.gen_range(0..i + 1));
    }
    let pool = pool(seed);
    let mut fresh = SmallRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut cold = COLD_WORKLOADS.iter();
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(p) => Req {
                line: pool[p].clone(),
                warm: Some(p),
            },
            None => {
                let w = cold.next().expect("one cold workload per cold slot");
                let m = pick(&mut rng, &MODES);
                let s = wire_seed(fresh.next_u64());
                Req {
                    line: format!(
                        r#"{{"id":"c{round}-{i}","cmd":"run","workload":"{w}","mode":"{m}","len":{COLD_LEN},"seed":{s},"full_reports":true}}"#
                    ),
                    warm: None,
                }
            }
        })
        .collect()
}

/// A reply with its volatile members removed, for comparison.
fn normalized(reply: &Json) -> String {
    fn strip(j: &Json) -> Json {
        match j {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    strip(reply).to_string()
}

/// Sends every pool request once, each on a fresh connection.
fn fill(addr: SocketAddr, pool: &[String]) -> Result<Vec<Json>, String> {
    pool.iter()
        .map(|line| {
            let reply = Client::connect(addr)
                .and_then(|mut c| c.request_line(line))
                .map_err(|e| format!("fill: {e}"))?;
            Json::parse(&reply).map_err(|e| format!("fill reply: {e}"))
        })
        .collect()
}

/// One reply as the clients saw it.
struct Reply {
    index: usize,
    rtt: Duration,
    text: Result<String, String>,
}

/// One timed round.
struct Round {
    wall: Duration,
    reqs: Vec<Req>,
    replies: Vec<Reply>,
}

/// Replays one round: client `c` sends requests `c`, `c + n`, … in a
/// closed loop on its own connection.
fn play(clients: &mut [Client], reqs: &[Req]) -> Result<Vec<Reply>, String> {
    let n = clients.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    (c..reqs.len())
                        .step_by(n)
                        .map(|index| {
                            let t0 = Instant::now();
                            let text = client.request_line(&reqs[index].line);
                            Reply {
                                index,
                                rtt: t0.elapsed(),
                                text: text.map_err(|e| e.to_string()),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = Vec::with_capacity(reqs.len());
        for h in handles {
            all.extend(h.join().map_err(|p| panic_text(p.as_ref()))?);
        }
        all.sort_by_key(|r| r.index);
        Ok(all)
    })
}

/// What one round's replies add up to; equal in every round.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Tally {
    requests: u64,
    ok: u64,
    points_simulated: u64,
    points_served: u64,
}

/// Set-up, repeated [`SETUP_REPEATS`] times: bind, open the store, fill
/// it. Returns the last server, its normalized fill replies and every
/// set-up's wall time.
fn set_up(
    pool: &[String],
    scratch: &mut Scratch,
    checks: &mut Checks,
) -> Result<(Live, Vec<String>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut live: Option<Live> = None;
    let mut first: Vec<String> = Vec::new();
    for k in 0..SETUP_REPEATS {
        if let Some(old) = live.take() {
            old.shutdown()?;
        }
        let t0 = Instant::now();
        let server = Live::start(&scratch.fresh("store"))?;
        let replies = fill(server.addr, pool)?;
        times.push(t0.elapsed().as_secs_f64());
        live = Some(server);
        for (i, r) in replies.iter().enumerate() {
            checks.check(r.get("status").and_then(Json::as_str) == Some("ok"), || {
                format!("set-up {k}: fill reply to pool request {i} was not ok: {r}")
            });
        }
        let replies: Vec<String> = replies.iter().map(normalized).collect();
        if k == 0 {
            first = replies;
        } else {
            checks.check(replies == first, || {
                format!("set-up {k} answered the pool differently")
            });
        }
    }
    Ok((live.ok_or("no set-up ran")?, first, times))
}

/// Timed rounds on `nproc` kept-alive connections: at least two, and
/// until `seconds` have passed.
fn timed_rounds(server: &Live, seed: u64, seconds: u64) -> Result<Vec<Round>, String> {
    let mut clients = (0..nproc())
        .map(|_| Client::connect(server.addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 2 || start.elapsed() < window {
        let reqs = round(seed, rounds.len() as u64);
        let t0 = Instant::now();
        let replies = play(&mut clients, &reqs)?;
        rounds.push(Round {
            wall: t0.elapsed(),
            reqs,
            replies,
        });
    }
    Ok(rounds)
}

/// What the timed rounds' replies add up to.
#[derive(Default)]
struct Replies {
    /// Per round: the tally and the cold points' simulated work.
    per_round: Vec<(Tally, Work)>,
    trips: Vec<RoundTrip>,
    req_rates: Vec<f64>,
    point_rates: Vec<f64>,
    mcycle_rates: Vec<f64>,
    /// Round 0's cold reports, by point label.
    cold_reports: Vec<(String, RunReport)>,
    /// Every served point's wall time, as the server reported it.
    point_ms: Vec<f64>,
}

/// Checks every reply — `ok`, warm ones equal to their fill reply and
/// wholly served, cold ones simulated — and adds them up.
fn settle(rounds: &[Round], first: &[String], out: &mut Outcome) -> Replies {
    let mut acc = Replies::default();
    for (r, round) in rounds.iter().enumerate() {
        let mut tally = Tally::default();
        let mut work = Work::default();
        for reply in &round.replies {
            let req = &round.reqs[reply.index];
            tally.requests += 1;
            out.attempted += 1;
            let doc = reply
                .text
                .as_deref()
                .map_err(|e| e.clone())
                .and_then(|t| Json::parse(t).map_err(|e| e.to_string()));
            let doc = match doc {
                Ok(d) if d.get("status").and_then(Json::as_str) == Some("ok") => d,
                other => {
                    out.failed += 1;
                    out.checks.check(false, || {
                        format!("round {r}: reply to {} was not ok: {other:?}", req.line)
                    });
                    continue;
                }
            };
            tally.ok += 1;
            let ms = |k| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            acc.trips.push(RoundTrip {
                rtt_ms: reply.rtt.as_secs_f64() * 1e3,
                service_ms: ms("service_ms"),
                queue_ms: ms("queue_ms"),
            });
            let result = doc.get("result");
            let points = result
                .and_then(|j| j.get("points"))
                .and_then(Json::as_array)
                .unwrap_or(&[]);
            let n = points.len() as u64;
            let hits = result
                .and_then(|j| j.get("cache_hits"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
                .min(n);
            acc.point_ms.extend(
                points
                    .iter()
                    .filter_map(|p| p.get("wall_ns").and_then(Json::as_f64))
                    .map(|ns| ns / 1e6),
            );
            tally.points_served += hits;
            tally.points_simulated += n - hits;
            if let Some(p) = req.warm {
                out.checks.check(normalized(&doc) == first[p] && hits == n, || {
                    format!("round {r}: warm reply to pool request {p} differs from its fill reply or missed the store")
                });
                continue;
            }
            out.checks.check(hits == 0 && n > 0, || {
                format!(
                    "round {r}: cold request {} was served from the store",
                    req.line
                )
            });
            for p in points {
                let label = p.get("label").and_then(Json::as_str).unwrap_or("");
                match p.get("report").map(report_from_json) {
                    Some(Ok(report)) => {
                        work.add_report(&report);
                        if r == 0 {
                            acc.cold_reports.push((label.to_string(), report));
                        }
                    }
                    _ => out.checks.check(false, || {
                        format!("round {r}: cold point {label} has no decodable report")
                    }),
                }
            }
        }
        let wall = round.wall.as_secs_f64();
        acc.req_rates.push(tally.requests as f64 / wall);
        acc.point_rates
            .push((tally.points_served + tally.points_simulated) as f64 / wall);
        acc.mcycle_rates.push(work.mem_cycles as f64 / 1e6 / wall);
        acc.per_round.push((tally, work));
    }
    for (i, (t, _)) in acc.per_round.iter().enumerate().skip(1) {
        let t0 = &acc.per_round[0].0;
        out.checks.check(t == t0, || {
            format!("round {i} tally {t:?} differs from round 0 {t0:?}")
        });
    }
    acc
}

/// Runs `serve_warm`.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pool = pool(seed);
    let mut scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let (server, first, setup) = set_up(&pool, &mut scratch, &mut out.checks)?;
    let rounds = timed_rounds(&server, seed, seconds)?;
    let rss = peak_rss_mb();
    let telemetry = server.shutdown()?;
    let replies = settle(&rounds, &first, &mut out);

    let rtts: Vec<f64> = replies.trips.iter().map(|t| t.rtt_ms).collect();
    let summary = summarize(&rtts).ok_or("no replies")?;
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let e = &mut out.end_to_end;
    e.insert("setup_s", med(&setup));
    e.insert("sim_mcycles_per_s", med(&replies.mcycle_rates));
    e.insert("points_per_s", med(&replies.point_rates));
    e.insert("req_per_s", med(&replies.req_rates));
    e.insert("req_ms.p50", summary.p50);
    e.insert("req_ms.p90", summary.p90);
    e.insert("peak_rss_mb", rss.unwrap_or(f64::NAN));
    out.samples = summary.n;
    out.tail = summary.tail;
    out.notes.push(format!(
        "{} rounds of {ROUND} requests ({COLD_PER_ROUND} cold), {} kept-alive clients, {} workers",
        rounds.len(),
        nproc(),
        nproc()
    ));

    let (tally, work) = &replies.per_round[0];
    let l = &mut out.per_layer;
    let shed = telemetry.rejected_queue_full.get();
    let points = tally.points_served + tally.points_simulated;
    serve_layer(l, tally.points_served, points, &replies.trips);
    l.insert(
        "serve.shed_frac",
        shed as f64 / (telemetry.accepted.get() + shed).max(1) as f64,
    );
    l.insert("work.mem_cycles", work.mem_cycles as f64);
    l.insert("work.reads", work.reads as f64);
    l.insert("work.instructions", work.instructions as f64);
    l.insert("work.commands", work.commands as f64);
    l.insert("work.points_simulated", tally.points_simulated as f64);
    l.insert("work.points_served", tally.points_served as f64);
    l.insert("run.repetitions", rounds.len() as f64);
    let point_ms = summarize(&replies.point_ms);
    l.insert(
        "sweep.point_ms.p50",
        point_ms.as_ref().map_or(f64::NAN, |s| s.p50),
    );
    l.insert(
        "sweep.point_ms.max",
        point_ms.as_ref().map_or(f64::NAN, |s| s.max),
    );

    // Output checks: every pool point and round 0's cold points, driven
    // locally single-threaded, equal the service's full reports.
    let points = local_points(&pool, &rounds[0].reqs)?;
    let tracer = Tracer::on();
    let drives = drive_points(
        &points,
        &mut scratch,
        traced.then_some(&tracer),
        &mut out.checks,
    )?;
    let reports = &drives.reports;
    for (label, report) in &replies.cold_reports {
        out.checks.check(reports.contains(report), || {
            format!("cold point {label}: the service's report differs from the local drive")
        });
    }
    for (i, line) in pool
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("full_reports"))
    {
        let served = Json::parse(&first[i]).map_err(|e| format!("fill reply {i}: {e}"))?;
        let served = served
            .get("result")
            .and_then(|j| j.get("points"))
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .to_vec();
        out.checks.check(!served.is_empty(), || {
            format!("pool request {line} served no points")
        });
        for p in &served {
            let ok = p
                .get("report")
                .map(report_from_json)
                .is_some_and(|r| r.is_ok_and(|r| reports.contains(&r)));
            out.checks.check(ok, || {
                format!("pool request {i}: a served report differs from the local drive")
            });
        }
    }
    let speedup = dense_check(&points[0], &reports[0], &mut out.checks)?;

    if traced {
        drive_layers(&mut out.per_layer, &drives);
        out.per_layer.insert("core.wheel_speedup", speedup);
        layers::drive(
            &layers::feeds(&points, reports),
            seed,
            WARM_LEN,
            &tracer,
            &mut out.checks,
            &mut out.per_layer,
        );

        let store =
            ResultStore::open(scratch.fresh("requests")).map_err(|e| format!("store: {e}"))?;
        for (p, r) in points.iter().zip(reports) {
            mcr_dram::ReportStore::publish(&store, p.config.config_key(), r);
        }
        let lines: Vec<String> = rounds[0].reqs.iter().map(|r| r.line.clone()).collect();
        let local = drive_requests(&lines, &store, &tracer, None, &mut out.checks);
        out.per_layer.insert("sweep.steals", local.steals as f64);
        out.per_layer.insert("sweep.busy_frac", local.busy_frac);
        out.spans = tracer.take();
        let cycles = reports.iter().map(|r| r.total_mem_cycles).sum();
        span_layers(&mut out.per_layer, &out.spans, cycles, drives.json_bytes);
    }
    Ok(out)
}

/// Every distinct point of the pool and of `cold`'s cold requests.
fn local_points(pool: &[String], cold: &[Req]) -> Result<Vec<SweepPoint>, String> {
    let lines = pool
        .iter()
        .chain(cold.iter().filter(|r| r.warm.is_none()).map(|r| &r.line));
    let mut points: Vec<SweepPoint> = Vec::new();
    for line in lines {
        let Ok(Request::Job(job)) = parse_request(line) else {
            return Err(format!("request {line} does not parse as a job"));
        };
        let sweep = job.spec.sweep(Some(1)).map_err(|e| e.to_string())?;
        for p in sweep.points() {
            if !points.iter().any(|q| q.config == p.config) {
                points.push(p.clone());
            }
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sequence_is_a_pure_function_of_the_seed() {
        assert_eq!(pool(7), pool(7));
        assert_ne!(pool(7), pool(8));
        assert_eq!(round(7, 3), round(7, 3));
        assert_ne!(round(7, 0), round(8, 0));
    }

    #[test]
    fn rounds_repeat_their_work_with_fresh_cold_seeds() {
        let (a, b) = (round(11, 0), round(11, 1));
        assert_eq!(a.len(), ROUND);
        let cold = |r: &[Req]| r.iter().filter(|q| q.warm.is_none()).count();
        assert_eq!(cold(&a), COLD_PER_ROUND);
        for p in 0..POOL {
            assert_eq!(a.iter().filter(|q| q.warm == Some(p)).count(), 3);
        }
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.warm, y.warm);
            if x.warm.is_none() {
                assert_ne!(x.line, y.line, "a cold request must not repeat");
            } else {
                assert_eq!(x.line, y.line);
            }
        }
    }

    #[test]
    fn every_generated_request_parses() {
        for line in pool(3).iter().chain(round(3, 0).iter().map(|r| &r.line)) {
            assert!(matches!(parse_request(line), Ok(Request::Job(_))), "{line}");
        }
    }

    #[test]
    fn normalization_ignores_only_volatile_members() {
        let a = Json::parse(r#"{"status":"ok","queue_ms":1,"result":{"wall_ns":5,"points":[{"cache_hit":false,"edp":1}]}}"#).unwrap();
        let b = Json::parse(r#"{"status":"ok","queue_ms":9,"result":{"wall_ns":7,"points":[{"cache_hit":true,"edp":1}]}}"#).unwrap();
        let c = Json::parse(r#"{"status":"ok","queue_ms":9,"result":{"wall_ns":7,"points":[{"cache_hit":true,"edp":2}]}}"#).unwrap();
        assert_eq!(normalized(&a), normalized(&b));
        assert_ne!(normalized(&a), normalized(&c));
    }
}
