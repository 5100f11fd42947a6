//! Service-side observability, built from the same primitives
//! (`mcr-telemetry` counters and power-of-two histograms) as the
//! simulator's own instrumentation, so the `stats` answer and the
//! shutdown summary are deterministic integer state.

use mcr_dram::histogram_json;
use mcr_telemetry::{Counter, LatencyHistogram};
use sim_json::Json;

/// Counters and histograms the server maintains across its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeTelemetry {
    /// Client connections accepted.
    pub connections: Counter,
    /// Jobs admitted into the queue.
    pub accepted: Counter,
    /// Jobs that finished with an `ok` response.
    pub completed: Counter,
    /// Jobs shed because the queue was full (code 429).
    pub rejected_queue_full: Counter,
    /// Jobs refused because the service was draining (code 503).
    pub rejected_draining: Counter,
    /// Jobs refused by the size limits (code 413).
    pub rejected_too_large: Counter,
    /// Jobs cancelled by their deadline.
    pub timeouts: Counter,
    /// Request lines that failed to parse or validate.
    pub protocol_errors: Counter,
    /// Jobs whose simulation failed internally.
    pub internal_errors: Counter,
    /// Jobs whose worker panicked inside `catch_unwind` (a subset of
    /// `internal_errors`, kept separate so panics are diagnosable).
    pub worker_panics: Counter,
    /// Connections dropped because a partial request line stalled past
    /// the per-connection read deadline.
    pub read_deadline_drops: Counter,
    /// Connections dropped because a request line exceeded the
    /// configured maximum length.
    pub oversized_lines: Counter,
    /// Queue depth observed at each admission (before the push).
    pub queue_depth: LatencyHistogram,
    /// Admission-to-response service latency, in milliseconds.
    pub service_ms: LatencyHistogram,
    /// Pure simulation wall time per job, in milliseconds.
    pub sim_ms: LatencyHistogram,
}

impl ServeTelemetry {
    /// The `stats` response body: lifetime counters plus the live queue
    /// state supplied by the server.
    pub fn to_json(&self, queue_depth_now: u64, in_flight: u64, draining: bool) -> Json {
        Json::obj([
            ("connections", Json::from(self.connections.get())),
            ("accepted", Json::from(self.accepted.get())),
            ("completed", Json::from(self.completed.get())),
            (
                "rejected_queue_full",
                Json::from(self.rejected_queue_full.get()),
            ),
            (
                "rejected_draining",
                Json::from(self.rejected_draining.get()),
            ),
            (
                "rejected_too_large",
                Json::from(self.rejected_too_large.get()),
            ),
            ("timeouts", Json::from(self.timeouts.get())),
            ("protocol_errors", Json::from(self.protocol_errors.get())),
            ("internal_errors", Json::from(self.internal_errors.get())),
            ("worker_panics", Json::from(self.worker_panics.get())),
            (
                "read_deadline_drops",
                Json::from(self.read_deadline_drops.get()),
            ),
            ("oversized_lines", Json::from(self.oversized_lines.get())),
            ("queue_depth_now", Json::from(queue_depth_now)),
            ("in_flight", Json::from(in_flight)),
            ("draining", Json::from(draining)),
            ("queue_depth", histogram_json(&self.queue_depth)),
            ("service_ms", histogram_json(&self.service_ms)),
            ("sim_ms", histogram_json(&self.sim_ms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_carries_counters_and_histograms() {
        let mut t = ServeTelemetry::default();
        t.accepted.inc();
        t.completed.inc();
        t.service_ms.record(12);
        t.service_ms.record(40);
        let v = t.to_json(3, 1, false);
        assert_eq!(v.get("accepted").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("queue_depth_now").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("draining").and_then(Json::as_bool), Some(false));
        let svc = v.get("service_ms").expect("histogram present");
        assert_eq!(svc.get("count").and_then(Json::as_u64), Some(2));
        // The shared summary: order statistics, mean and buckets too.
        assert_eq!(svc.get("min").and_then(Json::as_u64), Some(12));
        assert_eq!(svc.get("max").and_then(Json::as_u64), Some(40));
        assert_eq!(svc.get("mean").and_then(Json::as_f64), Some(26.0));
        let p99 = svc.get("p99").and_then(Json::as_u64).expect("p99");
        assert!((12..=40).contains(&p99), "p99 = {p99}");
        let buckets = |h: &Json| h.get("buckets").and_then(Json::as_array).map(<[Json]>::len);
        assert_eq!(buckets(svc), Some(2), "12 and 40 land in two buckets");
        // An empty histogram: null statistics, no buckets.
        let idle = v.get("sim_ms").expect("histogram present");
        assert_eq!(idle.get("mean"), Some(&Json::Null));
        assert_eq!(idle.get("p99"), Some(&Json::Null));
        assert_eq!(buckets(idle), Some(0));
        // Single-line, reparsable.
        let line = v.to_string();
        assert!(!line.contains('\n'));
        assert!(Json::parse(&line).is_ok());
    }
}
