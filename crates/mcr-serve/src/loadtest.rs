//! The loadtest harness: replays a configurable volume of mixed
//! run/sweep/campaign submissions (deterministically generated from a
//! seed, with seeded arrival jitter) against a server, a dispatcher
//! fleet, or a self-hosted loopback server, and reports shed/latency
//! accounting built from the same `mcr-telemetry` primitives the
//! server itself uses.
//!
//! Submissions draw from small template pools on purpose: repeated
//! configs exercise the memo store (warm submissions answer in
//! microseconds), so the harness measures the *service*, not the
//! simulator. Every submission is classified into exactly one outcome
//! — ok, a typed shed (413/429/503), timeout, error, or transport
//! failure after the retry budget — so the accounting always balances:
//! outcomes sum to submissions, and a `failed` count of zero proves no
//! submission was lost even under fault injection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mcr_dram::histogram_json;
use mcr_telemetry::LatencyHistogram;
use sim_json::Json;
use sim_rng::SmallRng;

use crate::client::{Client, ClientError, ClientOptions};
use crate::dispatch::{DispatchConfig, Dispatcher};
use crate::netchaos::{ChaosPlan, ChaosStats, NetChaos};
use crate::protocol::{CODE_DRAINING, CODE_QUEUE_FULL, CODE_TOO_LARGE};
use crate::server::{ServeConfig, Server};

/// Read-poll interval while waiting for a reply.
const REPLY_POLL: Duration = Duration::from_millis(250);

/// Per-submission overall reply budget before the attempt counts as a
/// transport failure (and is retried).
const ATTEMPT_BUDGET: Duration = Duration::from_secs(60);

/// Workload pool the generator draws from (small, so the memo tier
/// gets hits).
const WORKLOADS: [&str; 4] = ["libq", "stream", "comm1", "mummer"];

/// Mode pool (all Table-1-valid).
const MODES: [&str; 3] = ["1/2x/100", "2/2x/100", "4/4x/100"];

/// Loadtest tuning knobs.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Total submissions to replay.
    pub submissions: usize,
    /// Concurrent submitter threads.
    pub concurrency: usize,
    /// Seed for the generator, arrival jitter, and seeded chaos.
    pub seed: u64,
    /// Trace length of generated jobs (memory operations per core).
    pub len: usize,
    /// Deadline attached to every submission (`None`: unbounded).
    pub deadline_ms: Option<u64>,
    /// Transport retries per submission before it counts as `failed`.
    pub max_retries: u32,
    /// Upper bound of the seeded arrival jitter before each submission.
    pub arrival_jitter_ms: u64,
    /// Fault probability for the chaos phase (`0`: clean phase only).
    pub chaos_rate: f64,
}

impl Default for LoadtestConfig {
    fn default() -> Self {
        LoadtestConfig {
            submissions: 40,
            concurrency: 4,
            seed: 7,
            len: 2_000,
            deadline_ms: None,
            max_retries: 6,
            arrival_jitter_ms: 5,
            chaos_rate: 0.0,
        }
    }
}

/// Where the submissions go.
#[derive(Debug, Clone)]
pub enum LoadTarget {
    /// One server address, submitted to directly.
    Addr(String),
    /// A backend fleet, submitted through an in-process shard
    /// dispatcher.
    Backends(Vec<String>),
}

/// Outcome accounting for one phase (clean or chaos) of a loadtest.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// Submissions answered `ok`.
    pub ok: u64,
    /// Submissions shed with 429.
    pub shed_queue_full: u64,
    /// Submissions shed with 503.
    pub shed_draining: u64,
    /// Submissions shed with 413.
    pub shed_too_large: u64,
    /// Submissions answered `timeout`.
    pub timeouts: u64,
    /// Submissions answered `error` (a final, typed reply).
    pub errors: u64,
    /// Submissions lost: transport retries exhausted without any reply.
    pub failed: u64,
    /// Transport retries spent across the phase.
    pub retries: u64,
    /// Per-submission wall clock (first attempt to final outcome), ms.
    pub latency_ms: LatencyHistogram,
    /// Whole-phase wall clock, ms.
    pub wall_ms: u64,
}

impl PhaseReport {
    /// Sum of all outcome classes — must equal the submission count.
    pub fn total(&self) -> u64 {
        self.ok
            + self.shed_queue_full
            + self.shed_draining
            + self.shed_too_large
            + self.timeouts
            + self.errors
            + self.failed
    }

    /// JSON view (the latency histogram in the shared
    /// [`histogram_json`] summary).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ok", Json::from(self.ok)),
            (
                "shed",
                Json::obj([
                    ("queue_full", Json::from(self.shed_queue_full)),
                    ("draining", Json::from(self.shed_draining)),
                    ("too_large", Json::from(self.shed_too_large)),
                ]),
            ),
            ("timeouts", Json::from(self.timeouts)),
            ("errors", Json::from(self.errors)),
            ("failed", Json::from(self.failed)),
            ("retries", Json::from(self.retries)),
            ("latency_ms", histogram_json(&self.latency_ms)),
            ("wall_ms", Json::from(self.wall_ms)),
        ])
    }
}

/// Everything one loadtest run produced.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Accounting of the clean phase.
    pub clean: PhaseReport,
    /// Accounting of the chaos phase (`chaos_rate > 0` only).
    pub chaos: Option<PhaseReport>,
    /// Proxy-side fault counts of the chaos phase.
    pub chaos_stats: Option<ChaosStats>,
    /// The target server's own `stats` answer after both phases (only
    /// when the harness could reach one — always in loopback mode).
    pub server_stats: Option<Json>,
}

impl LoadtestReport {
    /// The `BENCH_serve.json` document.
    pub fn to_json(&self, cfg: &LoadtestConfig) -> Json {
        let mut doc = Json::obj([
            ("submissions", Json::from(cfg.submissions)),
            ("concurrency", Json::from(cfg.concurrency)),
            ("seed", Json::from(cfg.seed)),
            ("len", Json::from(cfg.len)),
            ("chaos_rate", Json::from(cfg.chaos_rate)),
            ("clean", self.clean.to_json()),
        ]);
        if let Some(chaos) = &self.chaos {
            doc.set("chaos", chaos.to_json());
        }
        if let Some(st) = self.chaos_stats {
            let faults = Json::obj([
                ("connections", Json::from(st.connections)),
                ("refused", Json::from(st.refused)),
                ("truncated", Json::from(st.truncated)),
                ("delayed", Json::from(st.delayed)),
                ("blackholed", Json::from(st.blackholed)),
                ("garbage", Json::from(st.garbage)),
            ]);
            doc.set("proxy_faults", faults);
        }
        if let Some(stats) = &self.server_stats {
            doc.set("server_stats", stats.clone());
        }
        doc
    }

    /// The `--check` gate: every submission classified, none lost, and
    /// (when server stats are available) the server's own admission
    /// ledger balances. Returns the first violation found.
    ///
    /// # Errors
    ///
    /// A human-readable description of the imbalance.
    pub fn check(&self, cfg: &LoadtestConfig) -> Result<(), String> {
        let want = cfg.submissions as u64;
        for (name, phase) in [("clean", Some(&self.clean)), ("chaos", self.chaos.as_ref())] {
            let Some(phase) = phase else { continue };
            if phase.total() != want {
                return Err(format!(
                    "{name} phase accounted {} outcomes for {want} submissions",
                    phase.total()
                ));
            }
            if phase.failed != 0 {
                return Err(format!(
                    "{name} phase lost {} submission(s) to transport failures",
                    phase.failed
                ));
            }
        }
        if let Some(stats) = self.server_stats.as_ref().and_then(|s| s.get("stats")) {
            let n = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0);
            let accepted = n("accepted");
            let settled = n("completed") + n("timeouts") + n("internal_errors");
            if accepted != settled {
                return Err(format!(
                    "server ledger imbalance: accepted {accepted} != completed+timeouts+internal {settled}"
                ));
            }
        }
        Ok(())
    }
}

/// Poison-tolerant lock (same idiom as the server).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ms_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// The request line for submission `i` — a pure function of
/// `(seed, i)`: mixed run/sweep/campaign over small template pools.
pub fn submission_line(cfg: &LoadtestConfig, i: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let workload = WORKLOADS[rng.gen_range(0..WORKLOADS.len() as u32) as usize];
    let mode = MODES[rng.gen_range(0..MODES.len() as u32) as usize];
    let mut doc = match rng.gen_range(0..10u32) {
        // 60 % two-point runs,
        0..=5 => Json::obj([
            ("cmd", Json::str("run")),
            ("workload", Json::str(workload)),
            ("mode", Json::str(mode)),
            ("len", Json::from(cfg.len)),
        ]),
        // 30 % small sweeps,
        6..=8 => Json::obj([
            ("cmd", Json::str("sweep")),
            ("workloads", Json::Arr(vec![Json::str(workload)])),
            ("modes", Json::Arr(vec![Json::str("off"), Json::str(mode)])),
            ("len", Json::from(cfg.len)),
        ]),
        // 10 % fault campaigns.
        _ => Json::obj([
            ("cmd", Json::str("campaign")),
            ("workload", Json::str(workload)),
            ("mode", Json::str(mode)),
            ("len", Json::from(cfg.len)),
            ("rates", Json::Arr(vec![Json::from(0.0)])),
        ]),
    };
    doc.set("id", Json::str(format!("load-{i}")));
    if let Some(ms) = cfg.deadline_ms {
        doc.set("deadline_ms", Json::from(ms));
    }
    doc.to_string()
}

/// Seeded arrival jitter before submission `i`, in milliseconds.
fn arrival_jitter_ms(cfg: &LoadtestConfig, i: u64) -> u64 {
    if cfg.arrival_jitter_ms == 0 {
        return 0;
    }
    let mut rng = SmallRng::seed_from_u64(
        cfg.seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0xA5A5_A5A5_A5A5_A5A5,
    );
    rng.gen_range(0..cfg.arrival_jitter_ms)
}

/// What one submission ultimately became.
enum Outcome {
    Ok,
    Shed(u64),
    Timeout,
    ErrorReply,
    TransportFailed,
}

/// Submits one line to `addr` with transport retries; protocol replies
/// (ok/rejected/timeout/error) are final. Returns the outcome and the
/// retries spent.
fn submit_once(addr: &str, line: &str, max_retries: u32) -> (Outcome, u64) {
    let opts = ClientOptions {
        connect_timeout: Some(Duration::from_millis(1000)),
        read_timeout: Some(REPLY_POLL),
        max_line: 64 << 20,
    };
    let mut retries = 0u64;
    loop {
        match try_submit(addr, line, &opts) {
            Ok(outcome) => return (outcome, retries),
            Err(_) if retries < u64::from(max_retries) => {
                retries += 1;
                // Linear backoff is enough here: the loadtest measures
                // the service, not its own retry policy.
                std::thread::sleep(Duration::from_millis(25 * retries));
            }
            Err(_) => return (Outcome::TransportFailed, retries),
        }
    }
}

/// One submission attempt: transport errors are `Err` (retryable),
/// any parsed reply is a final outcome.
fn try_submit(addr: &str, line: &str, opts: &ClientOptions) -> Result<Outcome, String> {
    let mut client = Client::connect_with(addr, opts).map_err(|e| e.to_string())?;
    client.send_line(line).map_err(|e| e.to_string())?;
    let give_up = Instant::now() + ATTEMPT_BUDGET;
    let reply = loop {
        if Instant::now() >= give_up {
            return Err("reply budget exhausted".into());
        }
        match client.recv_line() {
            Ok(reply) => break reply,
            Err(ClientError::Timeout) => {} // poll tick
            Err(e) => return Err(e.to_string()),
        }
    };
    let doc = Json::parse(&reply).map_err(|e| format!("reply not JSON: {e}"))?;
    match doc.get("status").and_then(Json::as_str) {
        Some("ok") => Ok(Outcome::Ok),
        Some("rejected") => Ok(Outcome::Shed(
            doc.get("code").and_then(Json::as_u64).unwrap_or(0),
        )),
        Some("timeout") => Ok(Outcome::Timeout),
        Some("error") => Ok(Outcome::ErrorReply),
        _ => Err("reply without status".into()),
    }
}

/// Runs one phase: `cfg.submissions` submissions through
/// `cfg.concurrency` workers pulling indices from a shared counter.
pub fn run_phase(cfg: &LoadtestConfig, target: &LoadTarget) -> PhaseReport {
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let report = Mutex::new(PhaseReport::default());
    let dispatcher = match target {
        LoadTarget::Backends(backends) => Dispatcher::new(DispatchConfig {
            backends: backends.clone(),
            seed: cfg.seed,
            max_retries: cfg.max_retries,
            ..DispatchConfig::default()
        })
        .ok(),
        LoadTarget::Addr(_) => None,
    };
    std::thread::scope(|scope| {
        for _ in 0..cfg.concurrency.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfg.submissions {
                    return;
                }
                let i64u = i as u64;
                std::thread::sleep(Duration::from_millis(arrival_jitter_ms(cfg, i64u)));
                let line = submission_line(cfg, i64u);
                let t0 = Instant::now();
                let (outcome, retries) = match (&dispatcher, target) {
                    (Some(d), _) => dispatch_submit(d, &line),
                    (None, LoadTarget::Addr(addr)) => submit_once(addr, &line, cfg.max_retries),
                    (None, LoadTarget::Backends(_)) => (Outcome::TransportFailed, 0),
                };
                let latency = ms_since(t0);
                let mut r = lock(&report);
                r.retries += retries;
                r.latency_ms.record(latency);
                match outcome {
                    Outcome::Ok => r.ok += 1,
                    Outcome::Shed(code) if code == CODE_QUEUE_FULL => {
                        r.shed_queue_full += 1;
                    }
                    Outcome::Shed(code) if code == CODE_DRAINING => r.shed_draining += 1,
                    Outcome::Shed(code) if code == CODE_TOO_LARGE => r.shed_too_large += 1,
                    Outcome::Shed(_) => r.errors += 1,
                    Outcome::Timeout => r.timeouts += 1,
                    Outcome::ErrorReply => r.errors += 1,
                    Outcome::TransportFailed => r.failed += 1,
                }
            });
        }
    });
    let mut r = lock(&report);
    r.wall_ms = ms_since(started);
    r.clone()
}

/// Submission through the in-process dispatcher; its internal retry
/// machinery already bounds the attempts.
fn dispatch_submit(d: &Dispatcher, line: &str) -> (Outcome, u64) {
    let retries_before = d.telemetry().retries.get();
    match d.dispatch_line(line) {
        Ok(outcome) => {
            let spent = d.telemetry().retries.get().saturating_sub(retries_before);
            if outcome.timed_out {
                (Outcome::Timeout, spent)
            } else {
                (Outcome::Ok, spent)
            }
        }
        Err(e) => {
            let spent = d.telemetry().retries.get().saturating_sub(retries_before);
            // Typed rejections from a backend surface inside the shard
            // failure detail; everything here means the submission got
            // no usable answer.
            let _ = e;
            (Outcome::TransportFailed, spent)
        }
    }
}

/// Runs the harness against an already-listening server: a clean phase
/// straight at `addr`, then (with `chaos_rate > 0`) a chaos phase
/// through a seeded [`NetChaos`] proxy in front of it, then the
/// server's own `stats` ledger. The server is left running.
///
/// # Errors
///
/// Propagates proxy spawn failures as strings.
pub fn run_addr(cfg: &LoadtestConfig, addr: &str) -> Result<LoadtestReport, String> {
    let clean = run_phase(cfg, &LoadTarget::Addr(addr.to_string()));
    let (chaos, chaos_stats) = if cfg.chaos_rate > 0.0 {
        let mut proxy = NetChaos::spawn(
            addr.to_string(),
            ChaosPlan::Seeded {
                seed: cfg.seed ^ 0xC4A0_5C4A_05C4_A05C,
                rate: cfg.chaos_rate,
            },
        )
        .map_err(|e| format!("chaos proxy: {e}"))?;
        let phase = run_phase(cfg, &LoadTarget::Addr(proxy.addr().to_string()));
        proxy.shutdown();
        (Some(phase), Some(proxy.stats()))
    } else {
        (None, None)
    };
    Ok(LoadtestReport {
        clean,
        chaos,
        chaos_stats,
        server_stats: final_stats(addr),
    })
}

/// Runs the harness through an in-process shard dispatcher over a
/// backend fleet: a clean phase straight at the backends, then (with
/// `chaos_rate > 0`) a chaos phase with one seeded [`NetChaos`] proxy
/// in front of *each* backend, so the dispatcher's retry/failover
/// machinery is exercised end to end.
///
/// # Errors
///
/// Rejects an empty fleet; propagates proxy spawn failures.
pub fn run_backends(cfg: &LoadtestConfig, backends: &[String]) -> Result<LoadtestReport, String> {
    if backends.is_empty() {
        return Err("loadtest needs at least one backend".into());
    }
    let clean = run_phase(cfg, &LoadTarget::Backends(backends.to_vec()));
    let (chaos, chaos_stats) = if cfg.chaos_rate > 0.0 {
        let mut proxies = Vec::new();
        for (i, b) in backends.iter().enumerate() {
            proxies.push(
                NetChaos::spawn(
                    b.clone(),
                    ChaosPlan::Seeded {
                        seed: cfg.seed ^ (i as u64 + 1).wrapping_mul(0xC4A0_5C4A_05C4_A05C),
                        rate: cfg.chaos_rate,
                    },
                )
                .map_err(|e| format!("chaos proxy for {b}: {e}"))?,
            );
        }
        let fronted: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
        let phase = run_phase(cfg, &LoadTarget::Backends(fronted));
        let mut total = ChaosStats::default();
        for mut p in proxies {
            p.shutdown();
            let s = p.stats();
            total.connections += s.connections;
            total.refused += s.refused;
            total.truncated += s.truncated;
            total.delayed += s.delayed;
            total.blackholed += s.blackholed;
            total.garbage += s.garbage;
        }
        (Some(phase), Some(total))
    } else {
        (None, None)
    };
    Ok(LoadtestReport {
        clean,
        chaos,
        chaos_stats,
        server_stats: None,
    })
}

/// Runs the full harness against a self-hosted loopback server
/// (see [`run_addr`] for the phase structure), then drains it with a
/// graceful shutdown.
///
/// # Errors
///
/// Propagates server bind/spawn failures as strings.
pub fn run_loopback(
    cfg: &LoadtestConfig,
    serve_cfg: ServeConfig,
) -> Result<LoadtestReport, String> {
    let server = Server::bind("127.0.0.1:0", serve_cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());
    let report = run_addr(cfg, &addr);
    let _ = request_line(&addr, r#"{"cmd": "shutdown"}"#);
    let _ = server_thread.join();
    report
}

/// One direct request/reply against `addr` (no retries).
fn request_line(addr: &str, line: &str) -> Result<Json, String> {
    let opts = ClientOptions {
        connect_timeout: Some(Duration::from_millis(1000)),
        read_timeout: Some(Duration::from_secs(30)),
        max_line: 64 << 20,
    };
    let mut client = Client::connect_with(addr, &opts).map_err(|e| e.to_string())?;
    client
        .request(&Json::parse(line).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())
}

fn final_stats(addr: &str) -> Option<Json> {
    request_line(addr, r#"{"cmd": "stats"}"#).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_mixed() {
        let cfg = LoadtestConfig::default();
        let a: Vec<String> = (0..60).map(|i| submission_line(&cfg, i)).collect();
        let b: Vec<String> = (0..60).map(|i| submission_line(&cfg, i)).collect();
        assert_eq!(a, b);
        let kinds: std::collections::HashSet<&str> = a
            .iter()
            .map(|l| {
                if l.contains("\"sweep\"") {
                    "sweep"
                } else if l.contains("\"campaign\"") {
                    "campaign"
                } else {
                    "run"
                }
            })
            .collect();
        assert_eq!(kinds.len(), 3, "60 draws must cover all three kinds");
        // Every generated line parses as a valid job request.
        for line in &a {
            assert!(
                crate::protocol::parse_request(line).is_ok(),
                "generated line must be valid: {line}"
            );
        }
    }

    #[test]
    fn phase_totals_balance_by_construction() {
        let p = PhaseReport {
            ok: 3,
            shed_queue_full: 1,
            timeouts: 2,
            ..PhaseReport::default()
        };
        assert_eq!(p.total(), 6);
        let v = p.to_json();
        assert_eq!(
            v.get("shed")
                .and_then(|s| s.get("queue_full"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }
}
