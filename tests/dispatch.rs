//! Fault-tolerance battery for the shard dispatcher: a campaign split
//! across three real server processes survives a SIGKILL of one
//! backend mid-flight with a merged result bit-identical to a
//! single-instance run; a dead backend at startup is failed over; and
//! every [`NetChaos`] fault class (refusal, truncation, garbage,
//! delay, black hole) exercises exactly the retry/hedge/deadline path
//! it is designed to trigger.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use mcr_serve::{
    ChaosPlan, Client, DispatchConfig, DispatchOutcome, Dispatcher, NetChaos, NetFault,
    ServeConfig, Server,
};
use sim_json::Json;

/// Spawns `mcr_sim serve` on an ephemeral port and returns the child,
/// its address, and the (kept-alive) stdout reader.
fn spawn_backend() -> (Child, String, BufReader<std::process::ChildStdout>) {
    let bin = env!("CARGO_BIN_EXE_mcr_sim");
    let mut serve = Command::new(bin)
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut reader = BufReader::new(serve.stdout.take().expect("serve stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("listening banner");
    let addr = line
        .split_whitespace()
        .nth(3)
        .expect("address token in banner")
        .to_string();
    (serve, addr, reader)
}

/// Starts an in-process server for the proxy-based tests.
fn start_local() -> (String, std::thread::JoinHandle<mcr_serve::ServeTelemetry>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            queue_cap: 8,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown_local(addr: &str) {
    if let Ok(mut c) = Client::connect(addr) {
        let _ = c.request(&Json::parse(r#"{"cmd": "shutdown"}"#).expect("shutdown json"));
    }
}

fn dispatcher(cfg: DispatchConfig) -> Dispatcher {
    Dispatcher::new(cfg).expect("dispatcher config")
}

fn dispatch_ok(d: &Dispatcher, line: &str) -> DispatchOutcome {
    let out = d.dispatch_line(line).expect("dispatch succeeds");
    assert!(!out.timed_out, "unexpected timeout: {}", out.line);
    let doc = Json::parse(&out.line).expect("merged reply parses");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("ok"),
        "merged reply: {}",
        out.line
    );
    out
}

/// A single-point request line: with one point there is exactly one
/// shard, so the retry accounting below is deterministic.
const ONE_POINT: &str =
    r#"{"cmd": "sweep", "id": "one", "len": 1200, "workloads": ["libq"], "modes": ["off"]}"#;

/// Zeroes the volatile (timing/caching) fields of a full job reply so
/// distributed and single-instance answers can be compared bit for bit.
fn strip_volatile(doc: &mut Json) {
    doc.set("queue_ms", Json::from(0u64));
    doc.set("service_ms", Json::from(0u64));
    if let Some(result) = doc.get_mut("result") {
        result.set("wall_ns", Json::from(0u64));
        result.set("cache_hits", Json::from(0u64));
        result.set("jobs", Json::from(0u64));
        if let Some(Json::Arr(points)) = result.get_mut("points") {
            for p in points {
                p.set("wall_ns", Json::from(0u64));
                p.set("cache_hit", Json::from(false));
            }
        }
    }
}

#[test]
fn killed_backend_fails_over_and_the_merged_campaign_is_bit_identical() {
    let campaign = r#"{"cmd": "campaign", "id": "dist-1", "workload": "libq",
        "mode": "4/4x/100", "len": 40000, "rates": [0.0, 0.02, 0.05, 0.08, 0.1],
        "fault_seed": 2015}"#;

    let mut backends = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..3 {
        let (child, addr, reader) = spawn_backend();
        backends.push((child, reader));
        addrs.push(addr);
    }

    let d = dispatcher(DispatchConfig {
        backends: addrs.clone(),
        max_retries: 6,
        backoff_base_ms: 25,
        seed: 1,
        ..DispatchConfig::default()
    });
    let dispatch = std::thread::spawn({
        let d_line = campaign.to_string();
        let d = d.clone();
        move || d.dispatch_line(&d_line)
    });

    // SIGKILL the first backend observed with a job in flight: its
    // unanswered shard request must be retried on another backend.
    let mut victim = None;
    'hunt: for _ in 0..4_000 {
        for (i, addr) in addrs.iter().enumerate() {
            let Ok(mut c) = Client::connect(addr.as_str()) else {
                continue;
            };
            let Ok(stats) = c.request(&Json::parse(r#"{"cmd": "stats"}"#).expect("stats json"))
            else {
                continue;
            };
            let in_flight = stats
                .get("stats")
                .and_then(|s| s.get("in_flight"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if in_flight >= 1 {
                victim = Some(i);
                break 'hunt;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let victim = victim.expect("some backend must have a shard in flight");
    backends[victim].0.kill().expect("kill victim backend");
    let _ = backends[victim].0.wait();

    let out = dispatch
        .join()
        .expect("dispatch thread")
        .expect("dispatch survives the kill");
    assert!(!out.timed_out, "campaign must complete: {}", out.line);
    let mut merged = Json::parse(&out.line).expect("merged reply parses");
    assert_eq!(merged.get("status").and_then(Json::as_str), Some("ok"));
    assert!(
        out.telemetry.retries.get() >= 1,
        "the killed shard must have been retried: {:?}",
        out.telemetry
    );
    assert!(
        out.telemetry.failovers.get() >= 1,
        "the retry must have landed on a different backend: {:?}",
        out.telemetry
    );

    // Reference: the identical campaign on a fresh single instance.
    let (mut single, single_addr, _r) = spawn_backend();
    let mut c = Client::connect(single_addr.as_str()).expect("connect single");
    let mut reference = c
        .request(&Json::parse(campaign).expect("campaign json"))
        .expect("single-instance campaign");
    assert_eq!(reference.get("status").and_then(Json::as_str), Some("ok"));
    strip_volatile(&mut merged);
    strip_volatile(&mut reference);
    assert_eq!(
        merged.to_string(),
        reference.to_string(),
        "distributed campaign with a killed backend diverged from single-instance"
    );

    single.kill().expect("kill single");
    let _ = single.wait();
    for (mut child, _) in backends {
        let _ = child.kill();
        let _ = child.wait();
    }
}

#[test]
fn dead_backend_at_start_is_failed_over() {
    // A port that was listening a moment ago and now refuses.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind throwaway");
        l.local_addr().expect("throwaway addr").to_string()
    };
    let (live, handle) = start_local();
    let d = dispatcher(DispatchConfig {
        backends: vec![dead, live.clone()],
        max_retries: 3,
        backoff_base_ms: 10,
        connect_timeout_ms: 500,
        seed: 2,
        ..DispatchConfig::default()
    });
    let out = dispatch_ok(&d, ONE_POINT);
    assert_eq!(out.telemetry.retries.get(), 1, "{:?}", out.telemetry);
    assert_eq!(out.telemetry.failovers.get(), 1, "{:?}", out.telemetry);
    shutdown_local(&live);
    handle.join().expect("server thread");
}

#[test]
fn refusal_truncation_and_garbage_each_cost_exactly_one_retry() {
    let (addr, handle) = start_local();
    for fault in [NetFault::Refuse, NetFault::Truncate(24), NetFault::Garbage] {
        let mut proxy =
            NetChaos::spawn(addr.clone(), ChaosPlan::Scripted(vec![Some(fault.clone())]))
                .expect("spawn proxy");
        let d = dispatcher(DispatchConfig {
            backends: vec![proxy.addr().to_string()],
            max_retries: 2,
            backoff_base_ms: 10,
            connect_timeout_ms: 500,
            seed: 3,
            ..DispatchConfig::default()
        });
        let out = dispatch_ok(&d, ONE_POINT);
        assert_eq!(
            out.telemetry.retries.get(),
            1,
            "{fault:?} must cost exactly one retry: {:?}",
            out.telemetry
        );
        assert_eq!(
            out.telemetry.failovers.get(),
            0,
            "single backend: the retry goes back to it: {:?}",
            out.telemetry
        );
        proxy.shutdown();
        let stats = proxy.stats();
        assert_eq!(stats.faults(), 1, "{fault:?}: {stats:?}");
    }
    shutdown_local(&addr);
    handle.join().expect("server thread");
}

#[test]
fn hedged_dispatch_rescues_a_delayed_backend() {
    let (addr, handle) = start_local();
    // Every connection through the slow proxy stalls for far longer
    // than the hedge trigger; the direct backend answers instead.
    let mut slow = NetChaos::spawn(
        addr.clone(),
        ChaosPlan::Scripted(vec![Some(NetFault::Delay(Duration::from_secs(8))); 8]),
    )
    .expect("spawn slow proxy");
    let d = dispatcher(DispatchConfig {
        backends: vec![slow.addr().to_string(), addr.clone()],
        max_retries: 2,
        hedge_after_ms: Some(200),
        connect_timeout_ms: 500,
        seed: 4,
        ..DispatchConfig::default()
    });
    let out = dispatch_ok(&d, ONE_POINT);
    assert_eq!(out.telemetry.hedges.get(), 1, "{:?}", out.telemetry);
    assert!(
        out.telemetry.failovers.get() >= 1,
        "the hedge ran on the other backend: {:?}",
        out.telemetry
    );
    slow.shutdown();
    shutdown_local(&addr);
    handle.join().expect("server thread");
}

#[test]
fn blackholed_backends_respect_the_deadline() {
    let (addr, handle) = start_local();
    let mut hole = NetChaos::spawn(
        addr.clone(),
        ChaosPlan::Scripted(vec![Some(NetFault::BlackHole); 8]),
    )
    .expect("spawn black-hole proxy");
    let d = dispatcher(DispatchConfig {
        backends: vec![hole.addr().to_string()],
        max_retries: 8,
        connect_timeout_ms: 500,
        deadline_ms: Some(1_200),
        seed: 5,
        ..DispatchConfig::default()
    });
    let started = std::time::Instant::now();
    let out = d.dispatch_line(ONE_POINT).expect("dispatch returns");
    assert!(
        out.timed_out,
        "black hole must end in timeout: {}",
        out.line
    );
    let doc = Json::parse(&out.line).expect("timeout reply parses");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("timeout"));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the deadline must cut the wait short, not the attempt budget"
    );
    hole.shutdown();
    shutdown_local(&addr);
    handle.join().expect("server thread");
}

#[test]
fn loadtest_loopback_accounting_balances_under_chaos() {
    let cfg = mcr_serve::LoadtestConfig {
        submissions: 10,
        concurrency: 3,
        seed: 11,
        len: 900,
        chaos_rate: 0.3,
        arrival_jitter_ms: 2,
        ..mcr_serve::LoadtestConfig::default()
    };
    let report = mcr_serve::loadtest::run_loopback(
        &cfg,
        ServeConfig {
            workers: 2,
            queue_cap: 16,
            ..ServeConfig::default()
        },
    )
    .expect("loopback loadtest");
    report.check(&cfg).expect("accounting must balance");
    assert_eq!(report.clean.ok, 10, "clean phase: every submission ok");
    let chaos = report.chaos.as_ref().expect("chaos phase ran");
    assert_eq!(chaos.total(), 10);
    assert_eq!(chaos.failed, 0, "chaos must never lose a submission");
}
