//! Client-side resilience: jittered exponential backoff and a
//! per-endpoint circuit breaker.
//!
//! [`RetryPolicy`] decides *how long to wait* between reconnect
//! attempts; [`CircuitBreaker`] decides *whether to attempt at all*.
//! [`connect_with_retry`] composes the two around the ordinary
//! [`ServeClient::connect`] handshake, honouring the server's
//! `retry_after_ms` hint whenever the refusal was a soft
//! [`ServeError::Busy`]. The jitter is a pure function of
//! `(seed, attempt)` — like the PR 2 fault plans, the same seed replays
//! the same backoff schedule bit for bit, which is what keeps the chaos
//! suite reproducible.

use crate::client::{ClientConfig, ServeClient};
use crate::error::{Result, ServeError};
use appclass_metrics::ByeReason;
use std::net::ToSocketAddrs;
use std::time::{Duration, Instant};

/// How reconnect attempts are paced: exponential backoff, deterministic
/// jitter, a bounded attempt count, and an optional wall-clock deadline
/// over the whole retry budget.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts *after* the first (0 = fail on the first refusal).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles every attempt.
    pub base_backoff: Duration,
    /// Upper clamp on any single backoff sleep.
    pub max_backoff: Duration,
    /// Wall-clock budget across all attempts; `None` = attempts only.
    pub deadline: Option<Duration>,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            deadline: None,
            seed: 42,
        }
    }
}

/// splitmix64 — the same tiny generator the vendored rand shim seeds
/// with; one round is enough to decorrelate `(seed, attempt)` pairs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based): exponential
    /// growth clamped to `max_backoff`, scaled by a deterministic jitter
    /// factor in `[0.5, 1.0)`. A pure function of `(seed, attempt)` —
    /// two policies with the same seed sleep bitwise-identical
    /// schedules.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max_backoff);
        let word = splitmix64(self.seed ^ u64::from(attempt).rotate_left(17));
        // 53 high bits -> uniform in [0, 1), then squeezed into [0.5, 1).
        let unit = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        capped.mul_f64(0.5 + 0.5 * unit)
    }
}

/// Breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: attempts flow.
    Closed,
    /// Tripped: attempts are refused with [`ServeError::CircuitOpen`]
    /// until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe attempt is allowed; success
    /// closes the breaker, failure re-opens it.
    HalfOpen,
}

/// A per-endpoint circuit breaker over hard connect failures.
///
/// Soft `Busy` refusals do **not** count toward tripping — a shedding
/// server is alive and explicitly asked to be retried; the breaker
/// exists for endpoints that are down or unreachable, where hammering
/// reconnects only adds load to the network and the client.
#[derive(Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    failure_threshold: u32,
    cooldown: Duration,
    opened_at: Option<Instant>,
    trips: u64,
}

impl CircuitBreaker {
    /// A breaker that opens after `failure_threshold` consecutive hard
    /// failures and half-opens `cooldown` later.
    pub fn new(failure_threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            failure_threshold: failure_threshold.max(1),
            cooldown,
            opened_at: None,
            trips: 0,
        }
    }

    /// The current state (after applying any due open → half-open
    /// transition).
    pub fn state(&mut self) -> BreakerState {
        let _ = self.check();
        self.state
    }

    /// Times the breaker has tripped open over its lifetime.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Gate an attempt: `Ok` means go ahead (closed, or half-open
    /// probe), `Err(CircuitOpen)` carries the remaining cooldown.
    pub fn check(&mut self) -> Result<()> {
        if self.state == BreakerState::Open {
            let since = self.opened_at.map(|at| at.elapsed()).unwrap_or(Duration::ZERO);
            if since >= self.cooldown {
                self.state = BreakerState::HalfOpen;
            } else {
                let left = self.cooldown - since;
                return Err(ServeError::CircuitOpen { cooldown_ms: left.as_millis() as u64 });
            }
        }
        Ok(())
    }

    /// Records a successful attempt: closes the breaker and clears the
    /// failure streak.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.opened_at = None;
        self.state = BreakerState::Closed;
    }

    /// Records a hard failure. In half-open the probe failed and the
    /// breaker re-opens immediately; in closed it opens once the streak
    /// reaches the threshold.
    pub fn on_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.trips += 1;
            self.opened_at = Some(Instant::now());
            self.state = BreakerState::Open;
        }
    }
}

/// What a resilient connect did to get its session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryReport {
    /// Total connect attempts made (≥ 1 on success).
    pub attempts: u32,
    /// How many of the refusals were soft `Busy` shed responses.
    pub busy_refusals: u32,
    /// Milliseconds slept across all backoffs.
    pub backoff_ms: u64,
}

/// Whether an error is worth retrying: soft shedding, races with
/// shutdown-window refusals, and transport drops — but never protocol
/// or model-compatibility failures, which a retry cannot fix.
fn retryable(e: &ServeError) -> bool {
    match e {
        ServeError::Busy { .. } | ServeError::Io(_) | ServeError::ConnectionClosed => true,
        ServeError::Rejected { reason } => {
            matches!(reason, ByeReason::SessionLimit | ByeReason::Shutdown)
        }
        _ => false,
    }
}

/// Whether a failure counts toward tripping the breaker: only hard
/// transport-level failures; a polite `Busy`/`SessionLimit` refusal
/// proves the endpoint is alive.
fn counts_for_breaker(e: &ServeError) -> bool {
    matches!(e, ServeError::Io(_) | ServeError::ConnectionClosed | ServeError::Wire(_))
}

/// Connects with retry, jittered backoff, and the circuit breaker.
///
/// Reconnects resume through the ordinary fingerprint-gated handshake
/// (`config.model_id` is offered again on every attempt). A `Busy`
/// refusal's `retry_after_ms` hint is respected by sleeping at least
/// that long, whatever the backoff schedule says. Returns the connected
/// client plus a [`RetryReport`] of what it took.
pub fn connect_with_retry<A: ToSocketAddrs>(
    addr: A,
    config: &ClientConfig,
    policy: &RetryPolicy,
    breaker: &mut CircuitBreaker,
) -> Result<(ServeClient, RetryReport)> {
    let started = Instant::now();
    let mut report = RetryReport::default();
    let mut attempt = 0u32;
    loop {
        breaker.check()?;
        report.attempts += 1;
        match ServeClient::connect(&addr, config.clone()) {
            Ok(client) => {
                breaker.on_success();
                return Ok((client, report));
            }
            Err(e) => {
                if counts_for_breaker(&e) {
                    breaker.on_failure();
                }
                if matches!(e, ServeError::Busy { .. }) {
                    report.busy_refusals += 1;
                }
                if !retryable(&e) || attempt >= policy.max_retries {
                    return Err(e);
                }
                let backoff = policy.backoff(attempt);
                let mut delay = backoff;
                if let ServeError::Busy { retry_after_ms } = e {
                    delay = delay.max(Duration::from_millis(u64::from(retry_after_ms)));
                }
                if let Some(deadline) = policy.deadline {
                    // The server's hint is advice; the caller's deadline is
                    // a contract. If even the schedule's own pause no longer
                    // fits, further attempts cannot land inside the budget —
                    // fail promptly with the typed terminal error instead of
                    // surfacing the last refusal. A hint larger than the
                    // remaining budget is clamped, never obeyed past the
                    // deadline.
                    let remaining = deadline.saturating_sub(started.elapsed());
                    if backoff >= remaining {
                        return Err(ServeError::RetryBudgetExhausted {
                            attempts: report.attempts,
                            deadline_ms: deadline.as_millis() as u64,
                        });
                    }
                    delay = delay.min(remaining);
                }
                report.backoff_ms += delay.as_millis() as u64;
                std::thread::sleep(delay);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed_and_grows() {
        let p = RetryPolicy { seed: 7, ..RetryPolicy::default() };
        let q = RetryPolicy { seed: 7, ..RetryPolicy::default() };
        for attempt in 0..10 {
            assert_eq!(p.backoff(attempt), q.backoff(attempt), "attempt {attempt}");
        }
        // Jitter never collapses the exponent: attempt 4's floor (half
        // of base * 2^4) clears attempt 0's ceiling (base * 2^0).
        assert!(p.backoff(4) > p.backoff(0));
        let r = RetryPolicy { seed: 8, ..p };
        assert_ne!(
            (0..6).map(|a| p.backoff(a)).collect::<Vec<_>>(),
            (0..6).map(|a| r.backoff(a)).collect::<Vec<_>>(),
            "different seeds must draw different jitter"
        );
    }

    #[test]
    fn backoff_respects_the_clamp() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
            ..RetryPolicy::default()
        };
        for attempt in 0..32 {
            assert!(p.backoff(attempt) < Duration::from_millis(400), "attempt {attempt}");
        }
    }

    #[test]
    fn backoff_jitter_stays_in_the_half_open_band() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(64),
            max_backoff: Duration::from_secs(64),
            ..RetryPolicy::default()
        };
        for attempt in 0..8u32 {
            let nominal = Duration::from_millis(64 * (1 << attempt));
            let b = p.backoff(attempt);
            assert!(b >= nominal.mul_f64(0.5), "attempt {attempt}: {b:?} under half");
            assert!(b < nominal, "attempt {attempt}: {b:?} at or past nominal");
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_through_half_open() {
        let mut b = CircuitBreaker::new(3, Duration::from_millis(20));
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed, "under threshold");
        b.on_failure();
        assert!(matches!(b.check(), Err(ServeError::CircuitOpen { .. })));
        assert_eq!(b.trips(), 1);
        std::thread::sleep(Duration::from_millis(30));
        // Cooldown elapsed: one probe allowed.
        assert!(b.check().is_ok());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_half_open_probe_reopens_immediately() {
        let mut b = CircuitBreaker::new(1, Duration::from_millis(10));
        b.on_failure();
        assert!(matches!(b.check(), Err(ServeError::CircuitOpen { .. })));
        std::thread::sleep(Duration::from_millis(15));
        assert!(b.check().is_ok());
        b.on_failure();
        assert!(matches!(b.check(), Err(ServeError::CircuitOpen { .. })));
        assert_eq!(b.trips(), 2, "the failed probe is a second trip");
    }

    #[test]
    fn soft_refusals_are_retryable_but_do_not_trip_the_breaker() {
        let busy = ServeError::Busy { retry_after_ms: 10 };
        assert!(retryable(&busy));
        assert!(!counts_for_breaker(&busy));
        let limit = ServeError::Rejected { reason: ByeReason::SessionLimit };
        assert!(retryable(&limit));
        assert!(!counts_for_breaker(&limit));
        let mismatch = ServeError::ModelMismatch { offered: 1, served: 2 };
        assert!(!retryable(&mismatch), "a retry cannot fix a model mismatch");
        let dropped = ServeError::ConnectionClosed;
        assert!(retryable(&dropped));
        assert!(counts_for_breaker(&dropped));
    }

    #[test]
    fn open_breaker_short_circuits_connects_without_touching_the_network() {
        // Port reserved but nobody listening wouldn't even matter: the
        // open breaker must refuse before any socket work.
        let mut b = CircuitBreaker::new(1, Duration::from_secs(60));
        b.on_failure();
        let policy = RetryPolicy::default();
        let err = connect_with_retry("127.0.0.1:1", &ClientConfig::default(), &policy, &mut b)
            .expect_err("breaker is open");
        assert!(matches!(err, ServeError::CircuitOpen { .. }), "{err}");
    }

    #[test]
    fn retries_against_a_dead_port_exhaust_the_budget_typed() {
        let policy = RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let mut b = CircuitBreaker::new(100, Duration::from_secs(60));
        // Bind-then-drop gives a port that refuses connections.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err =
            connect_with_retry(("127.0.0.1", port), &ClientConfig::default(), &policy, &mut b)
                .expect_err("nobody is listening");
        assert!(matches!(err, ServeError::Io(_) | ServeError::ConnectionClosed), "{err}");
    }

    /// Regression: a server `Busy` hint far beyond the caller's
    /// wall-clock budget must neither be slept out nor surface as a raw
    /// `Busy` with most of the budget unused. The hint is clamped to the
    /// remaining budget and the loop fails with the typed
    /// `RetryBudgetExhausted` once the budget is spent. Pre-fix this
    /// test failed on both counts: the first refusal returned
    /// `ServeError::Busy` after ~1 attempt with ~0 ms of the 150 ms
    /// budget consumed.
    #[test]
    fn busy_hint_is_clamped_to_the_remaining_budget() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let shedder = std::thread::spawn(move || {
            // Every connection is soft-refused with a hint 200× the
            // client's deadline.
            while !stop_accept.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        crate::shard::refuse(stream, &crate::session::busy(Duration::from_secs(30)))
                    }
                    Err(_) => break,
                }
            }
        });

        let deadline = Duration::from_millis(150);
        let policy = RetryPolicy {
            max_retries: 1000,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(16),
            deadline: Some(deadline),
            seed: 0xBEEF,
        };
        let mut b = CircuitBreaker::new(100, Duration::from_secs(60));
        let started = Instant::now();
        let err = connect_with_retry(addr, &ClientConfig::default(), &policy, &mut b)
            .expect_err("server never stops shedding");
        let elapsed = started.elapsed();

        assert!(
            matches!(err, ServeError::RetryBudgetExhausted { attempts, deadline_ms: 150 } if attempts >= 2),
            "want typed budget exhaustion after ≥2 attempts, got {err}"
        );
        assert!(
            elapsed >= Duration::from_millis(100),
            "budget was abandoned early: only {elapsed:?} of {deadline:?} used"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "the 30 s hint was honored past the deadline: {elapsed:?}"
        );

        stop.store(true, Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(addr); // unblock the shedder's accept
        let _ = shedder.join();
    }
}
