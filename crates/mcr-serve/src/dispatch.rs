//! The shard dispatcher: splits one submitted sweep/campaign across N
//! backend `mcr-serve` instances by `config_key` hash, survives backend
//! failures, and merges the shards back into a response bit-identical
//! to a single-instance run.
//!
//! Fault tolerance is layered:
//!
//! * **Retry with seeded-jitter exponential backoff** — a failed shard
//!   attempt (refused connection, truncated or garbage reply, typed
//!   rejection) is retried against the *next* backend in rotation,
//!   after [`backoff_ms`] milliseconds. The jitter derives from
//!   `(seed, shard, attempt)` via `sim-rng`, so two dispatchers
//!   sharing a seed back off identically — the same determinism
//!   discipline as the simulator's fault plans.
//! * **Bounded budgets** — each shard gets `1 + max_retries` attempt
//!   starts in total (hedges included); an exhausted shard fails the
//!   whole dispatch with a typed [`DispatchError::ShardFailed`].
//! * **Hedged re-dispatch** — a shard still unanswered after
//!   [`DispatchConfig::hedge_after_ms`] starts one duplicate attempt
//!   on the next surviving backend; first answer wins. Safe because
//!   reports are pure functions of the config: duplicates are
//!   bit-identical.
//! * **Failover** — attempt `k` of shard `s` targets backend
//!   `(s + k) % N`, so a dead backend's shards drain to its
//!   neighbours. The disk store (PR 8) makes the re-dispatch cheap:
//!   points the dying backend already published are disk hits.
//! * **Deadline re-check** — `RunBudget::with_deadline` is only polled
//!   at event-wheel boundaries inside a backend; the dispatcher
//!   additionally re-checks the wall clock every driver tick
//!   ([`DRIVER_TICK`]) and cancels in-flight shards through a shared
//!   [`CancelToken`] the moment the campaign deadline expires, instead
//!   of waiting for stragglers to finish.
//!
//! Bit-identity: sub-requests set `full_reports`, so each shard answer
//! carries every point's lossless `mcr-store` codec report. The
//! dispatcher re-builds the same grid locally, reassembles the merged
//! [`SweepResults`] in local grid order keyed by `config_key`, and
//! renders through the same `render_job_ok` path a single server uses
//! — volatile fields aside (wall clock, jobs count), the merged line
//! is byte-equal to the single-instance line.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mcr_dram::{
    histogram_json, CancelToken, PointResult, RunReport, Sweep, SweepExecStats, SweepResults,
};
use mcr_telemetry::{Counter, LatencyHistogram};
use sim_json::Json;
use sim_rng::SmallRng;

use crate::client::{Client, ClientError, ClientOptions};
use crate::protocol::{
    parse_request, render_job_ok, render_timeout, JobRequest, ProtocolError, Request,
};

/// How often the driver and shard workers re-check the wall clock and
/// the shared cancel token while waiting on channels.
const DRIVER_TICK: Duration = Duration::from_millis(25);

/// Read-poll interval inside one attempt; short, so abandonment (the
/// shard was answered elsewhere, or the campaign expired) is prompt.
const ATTEMPT_POLL: Duration = Duration::from_millis(250);

/// Shard replies carry full reports; allow them room.
const REPLY_MAX_LINE: usize = 64 << 20;

/// Dispatcher tuning knobs.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Backend addresses (`host:port`); shard `s`'s attempt `k` targets
    /// `backends[(s + k) % len]`.
    pub backends: Vec<String>,
    /// Extra attempt starts per shard beyond the first (hedges count
    /// against the same budget).
    pub max_retries: u32,
    /// First backoff wait; attempt `k` waits `base << (k-1)` (capped),
    /// plus seeded jitter in `[0, base)`.
    pub backoff_base_ms: u64,
    /// Upper bound on the exponential part of the backoff.
    pub backoff_cap_ms: u64,
    /// Hedge a still-unanswered shard after this long (`None`: never).
    pub hedge_after_ms: Option<u64>,
    /// Per-attempt connect timeout.
    pub connect_timeout_ms: u64,
    /// Per-attempt overall reply timeout (connect + simulate + read).
    pub attempt_timeout_ms: u64,
    /// Seed for the backoff jitter.
    pub seed: u64,
    /// Campaign deadline applied when the request itself carries none.
    pub deadline_ms: Option<u64>,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            backends: Vec::new(),
            max_retries: 4,
            backoff_base_ms: 25,
            backoff_cap_ms: 1000,
            hedge_after_ms: None,
            connect_timeout_ms: 1000,
            attempt_timeout_ms: 120_000,
            seed: 0,
            deadline_ms: None,
        }
    }
}

/// Lifetime accounting of one dispatcher, snapshot on every outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchTelemetry {
    /// Shards dispatched (non-empty ones only).
    pub shards: Counter,
    /// Attempt starts, first tries included.
    pub attempts: Counter,
    /// Attempts started because every prior one failed.
    pub retries: Counter,
    /// Attempts started to hedge a straggler.
    pub hedges: Counter,
    /// Retries/hedges that landed on a backend other than the shard's
    /// primary — the failover events.
    pub failovers: Counter,
    /// Wall-clock per completed shard, in milliseconds.
    pub shard_ms: LatencyHistogram,
}

impl DispatchTelemetry {
    /// JSON view (the shard histogram in the shared [`histogram_json`]
    /// summary).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shards", Json::from(self.shards.get())),
            ("attempts", Json::from(self.attempts.get())),
            ("retries", Json::from(self.retries.get())),
            ("hedges", Json::from(self.hedges.get())),
            ("failovers", Json::from(self.failovers.get())),
            ("shard_ms", histogram_json(&self.shard_ms)),
        ])
    }
}

/// Why a dispatch could not produce a merged response.
#[derive(Debug)]
pub enum DispatchError {
    /// The dispatcher was configured with an empty backend list.
    NoBackends,
    /// The submitted line was a valid request but not a job
    /// (ping/stats/shutdown are point-to-point, not dispatchable).
    NotAJob,
    /// The submitted job already carries a `shard` member; dispatching
    /// a shard of a shard would double-partition the grid.
    AlreadySharded,
    /// The submitted line failed protocol parsing or validation.
    Protocol(ProtocolError),
    /// One shard exhausted its attempt budget; the dispatch was
    /// cancelled.
    ShardFailed {
        /// Which shard gave up.
        shard: usize,
        /// Attempt starts it consumed.
        attempts: usize,
        /// The last attempt's failure, verbatim.
        detail: String,
    },
    /// All shards answered `ok` but the union is missing grid points —
    /// a backend answered for the wrong shard or dropped points.
    MissingPoints(usize),
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::NoBackends => write!(f, "dispatcher has no backends"),
            DispatchError::NotAJob => {
                write!(f, "only run/sweep/campaign jobs can be dispatched")
            }
            DispatchError::AlreadySharded => {
                write!(f, "request already carries a shard assignment")
            }
            DispatchError::Protocol(e) => write!(f, "{e}"),
            DispatchError::ShardFailed {
                shard,
                attempts,
                detail,
            } => write!(
                f,
                "shard {shard} failed after {attempts} attempt(s): {detail}"
            ),
            DispatchError::MissingPoints(n) => {
                write!(f, "merged result is missing {n} grid point(s)")
            }
        }
    }
}

impl std::error::Error for DispatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DispatchError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for DispatchError {
    fn from(e: ProtocolError) -> Self {
        DispatchError::Protocol(e)
    }
}

/// A completed dispatch: the merged response line plus the run's
/// accounting.
#[derive(Debug, Clone)]
pub struct DispatchOutcome {
    /// The response line a single server would have produced
    /// (`status: ok`), or the timeout line when the campaign deadline
    /// expired mid-flight.
    pub line: String,
    /// True when the deadline expired and in-flight shards were
    /// cancelled; `line` is then the timeout answer.
    pub timed_out: bool,
    /// Telemetry snapshot after this dispatch.
    pub telemetry: DispatchTelemetry,
}

/// One point as decoded off the wire from a shard reply.
#[derive(Debug)]
struct WirePoint {
    key: u64,
    cache_hit: bool,
    report: RunReport,
}

/// What a shard worker reports back to the driver.
enum ShardOutcome {
    Done(Vec<WirePoint>),
    Failed { attempts: usize, detail: String },
    Cancelled,
}

/// Poison-tolerant lock (same idiom as the server).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ms_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// The exponential-backoff wait before attempt `attempt` (1-based: the
/// wait preceding the first *retry* is `backoff_ms(cfg, shard, 1)`).
/// Deterministic in `(seed, shard, attempt)`; jitter lands in
/// `[0, backoff_base_ms)`.
pub fn backoff_ms(cfg: &DispatchConfig, shard: usize, attempt: u32) -> u64 {
    let base = cfg.backoff_base_ms.max(1);
    let exp = base
        .checked_shl(attempt.saturating_sub(1))
        .unwrap_or(u64::MAX)
        .min(cfg.backoff_cap_ms.max(base));
    let mut rng = SmallRng::seed_from_u64(
        cfg.seed
            ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    exp.saturating_add(rng.gen_range(0..base))
}

/// Sleeps up to `total`, abandoning early (returning `false`) once the
/// token cancels.
fn cancellable_sleep(total: Duration, cancel: &CancelToken) -> bool {
    let until = Instant::now() + total;
    loop {
        if cancel.is_cancelled() {
            return false;
        }
        let now = Instant::now();
        if now >= until {
            return true;
        }
        std::thread::sleep(DRIVER_TICK.min(until - now));
    }
}

/// A configured dispatcher. Stateless between calls apart from its
/// telemetry; clones share the configuration and the telemetry, so a
/// clone handed to another thread keeps reporting into the same
/// ledger.
#[derive(Clone)]
pub struct Dispatcher {
    cfg: Arc<DispatchConfig>,
    telemetry: Arc<Mutex<DispatchTelemetry>>,
}

impl Dispatcher {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`DispatchError::NoBackends`] when the backend list is empty.
    pub fn new(cfg: DispatchConfig) -> Result<Dispatcher, DispatchError> {
        if cfg.backends.is_empty() {
            return Err(DispatchError::NoBackends);
        }
        Ok(Dispatcher {
            cfg: Arc::new(cfg),
            telemetry: Arc::new(Mutex::new(DispatchTelemetry::default())),
        })
    }

    /// Telemetry snapshot.
    pub fn telemetry(&self) -> DispatchTelemetry {
        lock(&self.telemetry).clone()
    }

    /// Dispatches one request line across the backends and blocks until
    /// the merged response (or the deadline) is ready.
    ///
    /// # Errors
    ///
    /// See [`DispatchError`]; an expired deadline is *not* an error —
    /// it yields a `timeout` response line with
    /// [`DispatchOutcome::timed_out`] set, matching what a single
    /// server would answer.
    pub fn dispatch_line(&self, line: &str) -> Result<DispatchOutcome, DispatchError> {
        let Request::Job(req) = parse_request(line)? else {
            return Err(DispatchError::NotAJob);
        };
        if req.shard.is_some() {
            return Err(DispatchError::AlreadySharded);
        }
        let doc = Json::parse(line).map_err(ProtocolError::from)?;
        // The same grid the backends will build: the merge order and
        // the per-shard membership both come from here.
        let sweep = req.spec.sweep(Some(1))?;
        let started = Instant::now();
        let shard_count = self.cfg.backends.len().min(sweep.points().len()).max(1);
        let deadline_ms = req.deadline_ms.or(self.cfg.deadline_ms);
        let deadline = deadline_ms.map(|ms| started + Duration::from_millis(ms));
        let cancel = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let (tx, rx) = mpsc::channel::<(usize, ShardOutcome)>();
        let mut pending = 0usize;
        for shard in 0..shard_count {
            if sweep.shard(shard, shard_count).points().is_empty() {
                continue; // a grid smaller than the fleet leaves gaps
            }
            pending += 1;
            lock(&self.telemetry).shards.inc();
            let sub_line = shard_request_line(&doc, shard, shard_count, deadline);
            let cfg = Arc::clone(&self.cfg);
            let telemetry = Arc::clone(&self.telemetry);
            let cancel = cancel.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                shard_worker(&cfg, &telemetry, shard, &sub_line, &cancel, &tx);
            });
        }
        drop(tx);
        let mut collected: HashMap<u64, WirePoint> = HashMap::new();
        while pending > 0 {
            match rx.recv_timeout(DRIVER_TICK) {
                Ok((_, ShardOutcome::Done(points))) => {
                    for p in points {
                        collected.insert(p.key, p);
                    }
                    pending -= 1;
                }
                Ok((shard, ShardOutcome::Failed { attempts, detail })) => {
                    cancel.cancel();
                    return Err(DispatchError::ShardFailed {
                        shard,
                        attempts,
                        detail,
                    });
                }
                Ok((_, ShardOutcome::Cancelled)) => {
                    return Ok(self.timeout_outcome(&req, deadline_ms));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // The coarse wall-clock re-check: backends only poll
                    // their budgets at event-wheel boundaries, so the
                    // dispatcher owns prompt campaign expiry.
                    if cancel.is_cancelled() {
                        return Ok(self.timeout_outcome(&req, deadline_ms));
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    cancel.cancel();
                    return Err(DispatchError::ShardFailed {
                        shard: usize::MAX,
                        attempts: 0,
                        detail: "shard worker vanished".into(),
                    });
                }
            }
        }
        self.merge(&req, &sweep, shard_count, collected, started)
    }

    fn timeout_outcome(&self, req: &JobRequest, deadline_ms: Option<u64>) -> DispatchOutcome {
        DispatchOutcome {
            line: render_timeout(req.id.as_deref(), deadline_ms.unwrap_or(0)),
            timed_out: true,
            telemetry: self.telemetry(),
        }
    }

    /// Reassembles the merged results in local grid order and renders
    /// them exactly like a single server would.
    fn merge(
        &self,
        req: &JobRequest,
        sweep: &Sweep,
        shard_count: usize,
        collected: HashMap<u64, WirePoint>,
        started: Instant,
    ) -> Result<DispatchOutcome, DispatchError> {
        let mut points = Vec::with_capacity(sweep.points().len());
        let mut missing = 0usize;
        for sp in sweep.points() {
            let key = sp.config.config_key();
            match collected.get(&key) {
                Some(w) => points.push(PointResult {
                    label: sp.label.clone(),
                    key,
                    report: w.report.clone(),
                    wall: Duration::ZERO,
                    cache_hit: w.cache_hit,
                }),
                None => missing += 1,
            }
        }
        if missing > 0 {
            return Err(DispatchError::MissingPoints(missing));
        }
        let results = SweepResults {
            points,
            wall: started.elapsed(),
            jobs: shard_count,
            exec: SweepExecStats::default(),
        };
        let service_ms = ms_since(started);
        Ok(DispatchOutcome {
            line: render_job_ok(req, &results, 0, service_ms),
            timed_out: false,
            telemetry: self.telemetry(),
        })
    }
}

/// The sub-request for one shard: the original document plus the shard
/// assignment, the full-report flag, and the *remaining* deadline.
fn shard_request_line(doc: &Json, index: usize, count: usize, deadline: Option<Instant>) -> String {
    let mut sub = doc.clone();
    sub.set(
        "shard",
        Json::obj([("index", Json::from(index)), ("count", Json::from(count))]),
    );
    sub.set("full_reports", Json::from(true));
    if let Some(d) = deadline {
        let remaining = d.saturating_duration_since(Instant::now()).as_millis();
        let ms = u64::try_from(remaining).unwrap_or(u64::MAX).max(1);
        sub.set("deadline_ms", Json::from(ms));
    }
    sub.to_string()
}

/// Owns one shard end-to-end: first attempt, retries with backoff,
/// hedging, failover rotation, and the final verdict to the driver.
fn shard_worker(
    cfg: &Arc<DispatchConfig>,
    telemetry: &Arc<Mutex<DispatchTelemetry>>,
    shard: usize,
    sub_line: &str,
    cancel: &CancelToken,
    tx: &mpsc::Sender<(usize, ShardOutcome)>,
) {
    let started = Instant::now();
    let budget = 1 + usize::try_from(cfg.max_retries).unwrap_or(usize::MAX);
    let primary = shard % cfg.backends.len();
    let shard_done = Arc::new(AtomicBool::new(false));
    let (atx, arx) = mpsc::channel::<Result<Vec<WirePoint>, String>>();
    start_attempt(cfg, shard, 0, sub_line, cancel, &shard_done, &atx);
    lock(telemetry).attempts.inc();
    let mut attempts_started = 1usize;
    let mut outstanding = 1usize;
    let mut hedged = false;
    let mut last_error = String::from("no attempt completed");
    loop {
        match arx.recv_timeout(DRIVER_TICK) {
            Ok(Ok(points)) => {
                shard_done.store(true, Ordering::Release);
                lock(telemetry).shard_ms.record(ms_since(started));
                let _ = tx.send((shard, ShardOutcome::Done(points)));
                return;
            }
            Ok(Err(detail)) => {
                outstanding -= 1;
                last_error = detail;
                if outstanding > 0 {
                    continue; // a hedge twin is still in flight
                }
                if attempts_started >= budget {
                    let _ = tx.send((
                        shard,
                        ShardOutcome::Failed {
                            attempts: attempts_started,
                            detail: last_error,
                        },
                    ));
                    return;
                }
                let attempt_no = u32::try_from(attempts_started).unwrap_or(u32::MAX);
                let wait = Duration::from_millis(backoff_ms(cfg, shard, attempt_no));
                if !cancellable_sleep(wait, cancel) {
                    let _ = tx.send((shard, ShardOutcome::Cancelled));
                    return;
                }
                let k = attempts_started;
                start_attempt(cfg, shard, k, sub_line, cancel, &shard_done, &atx);
                attempts_started += 1;
                outstanding += 1;
                let mut t = lock(telemetry);
                t.attempts.inc();
                t.retries.inc();
                if (shard + k) % cfg.backends.len() != primary {
                    t.failovers.inc();
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if cancel.is_cancelled() {
                    let _ = tx.send((shard, ShardOutcome::Cancelled));
                    return;
                }
                let hedge_due = cfg
                    .hedge_after_ms
                    .is_some_and(|h| started.elapsed() >= Duration::from_millis(h));
                if !hedged
                    && hedge_due
                    && outstanding == 1
                    && attempts_started < budget
                    && cfg.backends.len() > 1
                {
                    hedged = true;
                    let k = attempts_started;
                    start_attempt(cfg, shard, k, sub_line, cancel, &shard_done, &atx);
                    attempts_started += 1;
                    outstanding += 1;
                    let mut t = lock(telemetry);
                    t.attempts.inc();
                    t.hedges.inc();
                    if (shard + k) % cfg.backends.len() != primary {
                        t.failovers.inc();
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let _ = tx.send((
                    shard,
                    ShardOutcome::Failed {
                        attempts: attempts_started,
                        detail: format!("attempt threads vanished ({last_error})"),
                    },
                ));
                return;
            }
        }
    }
}

/// Spawns attempt `k` of a shard against backend `(shard + k) % N`.
fn start_attempt(
    cfg: &Arc<DispatchConfig>,
    shard: usize,
    k: usize,
    sub_line: &str,
    cancel: &CancelToken,
    shard_done: &Arc<AtomicBool>,
    atx: &mpsc::Sender<Result<Vec<WirePoint>, String>>,
) {
    let backend = cfg.backends[(shard + k) % cfg.backends.len()].clone();
    let cfg = Arc::clone(cfg);
    let cancel = cancel.clone();
    let shard_done = Arc::clone(shard_done);
    let atx = atx.clone();
    let line = sub_line.to_string();
    std::thread::spawn(move || {
        let result = attempt(&backend, &line, &cancel, &shard_done, &cfg);
        let _ = atx.send(result);
    });
}

/// One attempt: connect, submit, poll for the reply under the attempt
/// timeout, abandoning early when the shard is already answered or the
/// campaign cancelled.
fn attempt(
    backend: &str,
    line: &str,
    cancel: &CancelToken,
    shard_done: &AtomicBool,
    cfg: &DispatchConfig,
) -> Result<Vec<WirePoint>, String> {
    let opts = ClientOptions {
        connect_timeout: Some(Duration::from_millis(cfg.connect_timeout_ms.max(1))),
        read_timeout: Some(ATTEMPT_POLL),
        max_line: REPLY_MAX_LINE,
    };
    let mut client =
        Client::connect_with(backend, &opts).map_err(|e| format!("connect {backend}: {e}"))?;
    client
        .send_line(line)
        .map_err(|e| format!("send {backend}: {e}"))?;
    let give_up = Instant::now() + Duration::from_millis(cfg.attempt_timeout_ms.max(1));
    loop {
        if cancel.is_cancelled() || shard_done.load(Ordering::Acquire) {
            return Err("attempt abandoned".into());
        }
        if Instant::now() >= give_up {
            return Err(format!("attempt against {backend} timed out"));
        }
        match client.recv_line() {
            Ok(reply) => return parse_shard_reply(backend, &reply),
            Err(ClientError::Timeout) => {} // poll tick; keep waiting
            Err(e) => return Err(format!("recv {backend}: {e}")),
        }
    }
}

/// Decodes one shard reply into wire points. Anything but a
/// well-formed `ok` with decodable full reports is a retryable
/// failure described by the returned string.
fn parse_shard_reply(backend: &str, reply: &str) -> Result<Vec<WirePoint>, String> {
    let doc = Json::parse(reply).map_err(|e| format!("{backend}: reply not JSON: {e}"))?;
    let status = doc
        .get("status")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{backend}: reply without status"))?;
    if status != "ok" {
        let detail = doc.get("reason").and_then(Json::as_str).unwrap_or(status);
        return Err(format!("{backend}: {status}: {detail}"));
    }
    let items = doc
        .get("result")
        .and_then(|r| r.get("points"))
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{backend}: ok reply without result.points"))?;
    let mut points = Vec::with_capacity(items.len());
    for item in items {
        let key_hex = item
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{backend}: point without key"))?;
        let key = u64::from_str_radix(key_hex, 16)
            .map_err(|e| format!("{backend}: bad point key {key_hex:?}: {e}"))?;
        let cache_hit = item
            .get("cache_hit")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let report_json = item
            .get("report")
            .ok_or_else(|| format!("{backend}: point {key_hex} without full report"))?;
        let report = mcr_store::report_from_json(report_json)
            .map_err(|e| format!("{backend}: point {key_hex} report: {e}"))?;
        points.push(WirePoint {
            key,
            cache_hit,
            report,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_with(backends: usize) -> DispatchConfig {
        DispatchConfig {
            backends: (0..backends)
                .map(|i| format!("127.0.0.1:{}", 4000 + i))
                .collect(),
            seed: 11,
            ..DispatchConfig::default()
        }
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let cfg = cfg_with(2);
        for shard in 0..4usize {
            for attempt in 1..=6u32 {
                let w = backoff_ms(&cfg, shard, attempt);
                let exp = (cfg.backoff_base_ms << (attempt - 1)).min(cfg.backoff_cap_ms);
                assert!(
                    (exp..exp + cfg.backoff_base_ms).contains(&w),
                    "shard {shard} attempt {attempt}: {w} outside [{exp}, {})",
                    exp + cfg.backoff_base_ms
                );
                assert_eq!(w, backoff_ms(&cfg, shard, attempt), "deterministic");
            }
        }
        // Different shards jitter differently (with overwhelming
        // probability for this seed).
        let spread: std::collections::HashSet<u64> =
            (0..8usize).map(|s| backoff_ms(&cfg, s, 1)).collect();
        assert!(spread.len() > 1, "jitter must depend on the shard");
    }

    #[test]
    fn empty_backend_list_is_rejected() {
        assert!(matches!(
            Dispatcher::new(DispatchConfig::default()),
            Err(DispatchError::NoBackends)
        ));
    }

    #[test]
    fn non_job_and_presharded_requests_are_rejected() {
        let d = Dispatcher::new(cfg_with(1)).expect("one backend");
        assert!(matches!(
            d.dispatch_line(r#"{"cmd": "ping"}"#),
            Err(DispatchError::NotAJob)
        ));
        let sharded = r#"{"cmd": "run", "workload": "libq", "shard": {"index": 0, "count": 2}}"#;
        assert!(matches!(
            d.dispatch_line(sharded),
            Err(DispatchError::AlreadySharded)
        ));
        assert!(matches!(
            d.dispatch_line("not json"),
            Err(DispatchError::Protocol(_))
        ));
    }

    #[test]
    fn shard_request_line_rewrites_the_delivery_fields() {
        let doc = Json::parse(r#"{"cmd": "run", "workload": "libq", "deadline_ms": 9999999}"#)
            .expect("valid");
        let line = shard_request_line(&doc, 1, 3, None);
        let sub = Json::parse(&line).expect("sub-request parses");
        let shard = sub.get("shard").expect("shard present");
        assert_eq!(shard.get("index").and_then(Json::as_u64), Some(1));
        assert_eq!(shard.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(sub.get("full_reports").and_then(Json::as_bool), Some(true));
        // Unchanged deadline when the dispatch carries none.
        assert_eq!(sub.get("deadline_ms").and_then(Json::as_u64), Some(9999999));
        // With a live deadline the remaining budget is propagated.
        let soon = Instant::now() + Duration::from_millis(50_000);
        let line = shard_request_line(&doc, 0, 3, Some(soon));
        let sub = Json::parse(&line).expect("parses");
        let ms = sub.get("deadline_ms").and_then(Json::as_u64).expect("set");
        assert!(ms <= 50_000 && ms > 40_000, "remaining budget, got {ms}");
    }

    #[test]
    fn bad_shard_replies_are_described_not_panicked() {
        assert!(parse_shard_reply("b", "%% garbage %%").is_err());
        assert!(parse_shard_reply("b", r#"{"nostatus": 1}"#).is_err());
        let rejected = r#"{"status": "rejected", "code": 429, "reason": "queue-full"}"#;
        let e = parse_shard_reply("b", rejected).expect_err("rejection is retryable");
        assert!(e.contains("queue-full"), "{e}");
        let ok_no_points = r#"{"status": "ok", "result": {}}"#;
        assert!(parse_shard_reply("b", ok_no_points).is_err());
    }
}
