//! Aggregate serving statistics: session/frame counters, merged
//! telemetry health, per-stage costs, and a classify-latency histogram.
//!
//! Every session accumulates its own [`SessionOutcome`]; when the session
//! ends its shard folds it into the shard's own [`ServerStats`], and the
//! shards' stats merge once, at join, so per-frame hot paths never
//! contend on shared state.

use appclass_metrics::{StageMetrics, TelemetryHealth};
use std::fmt;

/// Power-of-two-nanosecond latency histogram, re-exported from the
/// observability layer it was extracted into ([`appclass_obs::hist`]).
/// The serving report's semantics are unchanged: bucket `i` covers
/// durations up to `2^i` nanoseconds and `quantile` reports the upper
/// bound of the bucket holding the requested rank.
pub use appclass_obs::LatencyHistogram;

/// What one finished session contributes to the aggregate stats.
#[derive(Debug, Clone, Default)]
pub struct SessionOutcome {
    /// Snapshot frames received (before guard admission).
    pub frames_in: u64,
    /// Frames the guard repaired before classification.
    pub frames_repaired: u64,
    /// Frames the guard dropped.
    pub frames_dropped: u64,
    /// Snapshot payloads that failed to decode.
    pub frames_malformed: u64,
    /// Frames shed because they overran the per-frame deadline budget
    /// (acknowledged with `Busy` or `Expired`, never classified).
    pub frames_deadline_shed: u64,
    /// Verdicts served to the client.
    pub verdicts: u64,
    /// Final telemetry health of the session's frame guard.
    pub health: TelemetryHealth,
    /// Per-stage costs of the session's online classifier.
    pub stage_metrics: StageMetrics,
    /// Latency of each `Classify` round (guard + pipeline + encode).
    pub classify_latency: LatencyHistogram,
}

/// Aggregate statistics for one server lifetime.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Sessions admitted past the handshake.
    pub sessions_started: u64,
    /// Sessions that ran to a clean end (`Bye` or drained shutdown).
    pub sessions_finished: u64,
    /// Connections refused by admission control.
    pub sessions_rejected: u64,
    /// Connections soft-refused with `Busy` while the server was
    /// shedding load (distinct from the hard `sessions_rejected`).
    pub sessions_busy: u64,
    /// Sessions that ended with a protocol or i/o error.
    pub session_errors: u64,
    /// Snapshot frames received across all sessions.
    pub frames_in: u64,
    /// Frames repaired by the per-session guards.
    pub frames_repaired: u64,
    /// Frames dropped by the per-session guards.
    pub frames_dropped: u64,
    /// Snapshot payloads that failed to decode.
    pub frames_malformed: u64,
    /// Frames shed past their deadline budget across all sessions.
    pub frames_deadline_shed: u64,
    /// Verdicts served across all sessions.
    pub verdicts: u64,
    /// Merged telemetry health across all sessions.
    pub health: TelemetryHealth,
    /// Merged per-stage classifier costs.
    pub stage_metrics: StageMetrics,
    /// Merged classify-latency histogram.
    pub classify_latency: LatencyHistogram,
}

impl ServerStats {
    /// Folds another aggregate into this one — how the server
    /// combines per-shard stats (each owned lock-free by its shard
    /// thread) into one report at join time.
    pub fn merge(&mut self, other: &ServerStats) {
        self.sessions_started += other.sessions_started;
        self.sessions_finished += other.sessions_finished;
        self.sessions_rejected += other.sessions_rejected;
        self.sessions_busy += other.sessions_busy;
        self.session_errors += other.session_errors;
        self.frames_in += other.frames_in;
        self.frames_repaired += other.frames_repaired;
        self.frames_dropped += other.frames_dropped;
        self.frames_malformed += other.frames_malformed;
        self.frames_deadline_shed += other.frames_deadline_shed;
        self.verdicts += other.verdicts;
        self.health.merge(&other.health);
        self.stage_metrics.merge(&other.stage_metrics);
        self.classify_latency.merge(&other.classify_latency);
    }

    /// Folds one finished session into the aggregate.
    pub fn absorb(&mut self, outcome: &SessionOutcome) {
        self.frames_in += outcome.frames_in;
        self.frames_repaired += outcome.frames_repaired;
        self.frames_dropped += outcome.frames_dropped;
        self.frames_malformed += outcome.frames_malformed;
        self.frames_deadline_shed += outcome.frames_deadline_shed;
        self.verdicts += outcome.verdicts;
        self.health.merge(&outcome.health);
        self.stage_metrics.merge(&outcome.stage_metrics);
        self.classify_latency.merge(&outcome.classify_latency);
    }
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sessions: {} started, {} finished, {} rejected, {} errored",
            self.sessions_started,
            self.sessions_finished,
            self.sessions_rejected,
            self.session_errors
        )?;
        if self.sessions_busy > 0 {
            writeln!(
                f,
                "busy:     {} connections soft-refused while shedding",
                self.sessions_busy
            )?;
        }
        writeln!(
            f,
            "frames:   {} in, {} repaired, {} dropped, {} malformed",
            self.frames_in, self.frames_repaired, self.frames_dropped, self.frames_malformed
        )?;
        if self.frames_deadline_shed > 0 {
            writeln!(
                f,
                "shed:     {} frames past their deadline budget",
                self.frames_deadline_shed
            )?;
        }
        writeln!(f, "verdicts: {}", self.verdicts)?;
        if self.classify_latency.count() > 0 {
            writeln!(
                f,
                "classify latency: p50 < {:?}, p99 < {:?} ({} rounds)",
                self.classify_latency.quantile(0.50),
                self.classify_latency.quantile(0.99),
                self.classify_latency.count()
            )?;
        }
        if !self.stage_metrics.is_empty() {
            write!(f, "{}", self.stage_metrics)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.quantile(0.0), Duration::ZERO);
        assert_eq!(h.quantile(1.0), Duration::ZERO);
    }

    #[test]
    fn single_bucket_histogram_pins_every_quantile_to_that_bucket() {
        // Regression for the extraction into `appclass-obs`: with every
        // observation in one bucket, p50 and p99 must agree on its bound.
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(Duration::from_nanos(700)); // bucket covering < 1024 ns
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert_eq!(p50, p99);
        assert_eq!(p50, Duration::from_nanos(1023));
    }

    #[test]
    fn quantile_bound_formula_is_bit_identical_to_the_old_local_copy() {
        // The pre-extraction serve-local histogram computed the bucket
        // bound as `(1 << idx) - 1`; a range of magnitudes must still
        // land on exactly those bounds.
        for (nanos, bound) in [(1u64, 1u64), (2, 3), (900, 1023), (1024, 2047), (500_000, 524_287)]
        {
            let mut h = LatencyHistogram::new();
            h.record(Duration::from_nanos(nanos));
            assert_eq!(h.quantile(1.0), Duration::from_nanos(bound), "nanos={nanos}");
        }
    }

    #[test]
    fn quantiles_bracket_observations() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(900)); // bucket 2^10
        }
        h.record(Duration::from_micros(500)); // bucket 2^19
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!(p50 >= Duration::from_nanos(900) && p50 < Duration::from_nanos(2000), "{p50:?}");
        let p99 = h.quantile(0.99);
        assert!(p99 < Duration::from_micros(2), "p99 ranks inside the fast bucket: {p99:?}");
        let p100 = h.quantile(1.0);
        assert!(p100 >= Duration::from_micros(500), "{p100:?}");
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        a.record(Duration::from_nanos(10));
        let mut b = LatencyHistogram::new();
        b.record(Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) >= Duration::from_millis(1));
    }

    #[test]
    fn absorb_folds_session_counters() {
        let mut stats = ServerStats::default();
        let mut outcome = SessionOutcome { frames_in: 10, verdicts: 3, ..Default::default() };
        outcome.health.seen = 10;
        outcome.health.accepted = 9;
        outcome.classify_latency.record(Duration::from_micros(3));
        outcome.stage_metrics.record("knn", 10, Duration::from_micros(20));
        stats.absorb(&outcome);
        stats.absorb(&outcome);
        assert_eq!(stats.frames_in, 20);
        assert_eq!(stats.verdicts, 6);
        assert_eq!(stats.health.seen, 20);
        assert_eq!(stats.classify_latency.count(), 2);
        assert_eq!(stats.stage_metrics.get("knn").unwrap().samples, 20);
    }

    #[test]
    fn merge_adds_every_counter_and_folds_histograms() {
        let mut a = ServerStats {
            sessions_started: 2,
            sessions_finished: 1,
            sessions_rejected: 3,
            sessions_busy: 4,
            session_errors: 1,
            frames_in: 10,
            verdicts: 5,
            ..Default::default()
        };
        a.classify_latency.record(Duration::from_micros(2));
        let mut b = ServerStats { sessions_started: 1, frames_in: 7, ..Default::default() };
        b.health.seen = 7;
        b.classify_latency.record(Duration::from_micros(9));
        a.merge(&b);
        assert_eq!(a.sessions_started, 3);
        assert_eq!(a.sessions_rejected, 3);
        assert_eq!(a.sessions_busy, 4);
        assert_eq!(a.frames_in, 17);
        assert_eq!(a.health.seen, 7);
        assert_eq!(a.classify_latency.count(), 2);
    }

    #[test]
    fn display_has_a_verdict_line() {
        let stats = ServerStats { verdicts: 7, ..Default::default() };
        let text = stats.to_string();
        assert!(text.contains("verdicts: 7"), "{text}");
    }
}
