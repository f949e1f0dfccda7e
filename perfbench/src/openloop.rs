//! The open-loop session generator.
//!
//! Sessions are due on a fixed schedule whatever the server does. One
//! generator thread starts each session at its due time, or as soon as
//! the previous session ends if it is already late, and every latency is
//! charged from the *due* time: a stall delays every session queued
//! behind it, and that wait is part of what users see. How late the
//! generator started each session is recorded separately so a run can
//! show it kept up with its own schedule.

use std::time::{Duration, Instant};

/// Time source for the generator; tests script it.
pub trait Clock {
    /// Time since the schedule's origin.
    fn now(&self) -> Duration;
    /// Blocks until `t` (no-op if `t` has passed).
    fn sleep_until(&mut self, t: Duration);
}

/// The real clock, with its origin at construction.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> WallClock {
        WallClock { epoch: Instant::now() }
    }

    /// `t` on this clock's timeline.
    pub fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        if let Some(wait) = t.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// What happened to one scheduled session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dispatch {
    /// When it was due.
    pub due: Duration,
    /// When the generator actually started it.
    pub started: Duration,
    /// When its verdict was in hand, or `None` if it was refused or
    /// failed.
    pub verdict_at: Option<Duration>,
}

impl Dispatch {
    /// Due → verdict latency; `None` for refused or failed sessions.
    pub fn latency(&self) -> Option<Duration> {
        self.verdict_at.map(|t| t.saturating_sub(self.due))
    }

    /// How late the generator started the session.
    pub fn lag(&self) -> Duration {
        self.started.saturating_sub(self.due)
    }
}

/// Runs every session of `due` (ascending) through `session`, which
/// returns the time its verdict arrived (read from the clock it is
/// given) or `None` when the session was refused or failed.
pub fn run<C: Clock>(
    due: &[Duration],
    clock: &mut C,
    mut session: impl FnMut(usize, &mut C) -> Option<Duration>,
) -> Vec<Dispatch> {
    let mut out = Vec::with_capacity(due.len());
    for (i, &d) in due.iter().enumerate() {
        clock.sleep_until(d);
        let started = clock.now();
        let verdict_at = session(i, clock);
        out.push(Dispatch { due: d, started, verdict_at });
    }
    out
}

/// Sessions whose due → verdict latency met `limit`, over all sessions
/// attempted; refused and failed sessions are misses.
pub fn slo_met_ratio(dispatches: &[Dispatch], limit: Duration) -> f64 {
    if dispatches.is_empty() {
        return 0.0;
    }
    let met = dispatches.iter().filter(|d| d.latency().is_some_and(|l| l <= limit)).count();
    met as f64 / dispatches.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to.
    struct Scripted {
        now: Duration,
    }

    impl Clock for Scripted {
        fn now(&self) -> Duration {
            self.now
        }
        fn sleep_until(&mut self, t: Duration) {
            self.now = self.now.max(t);
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn late_session_is_charged_from_its_due_time() {
        // Session 0 takes 50 ms; sessions 1 and 2 were due at 10 and
        // 20 ms, so they start late and queue behind it.
        let due = [ms(0), ms(10), ms(20), ms(100)];
        let cost = [ms(50), ms(5), ms(5), ms(5)];
        let mut clock = Scripted { now: ms(0) };
        let d = run(&due, &mut clock, |i, c| {
            c.now += cost[i];
            Some(c.now)
        });
        assert_eq!(d[0].latency(), Some(ms(50)));
        assert_eq!(d[1].started, ms(50));
        assert_eq!(d[1].lag(), ms(40));
        assert_eq!(d[1].latency(), Some(ms(45)), "charged from due (10), not start (50)");
        assert_eq!(d[2].latency(), Some(ms(40)));
        // The backlog drained: the last session starts on time.
        assert_eq!(d[3].lag(), ms(0));
        assert_eq!(d[3].latency(), Some(ms(5)));
    }

    #[test]
    fn refused_and_failed_sessions_miss_the_slo() {
        let due = [ms(0), ms(1), ms(2), ms(3)];
        let mut clock = Scripted { now: ms(0) };
        // Session 1 is refused, session 2 fails: neither has a verdict.
        let d = run(&due, &mut clock, |i, c| {
            c.now += ms(1);
            (i == 0 || i == 3).then_some(c.now)
        });
        assert_eq!(slo_met_ratio(&d, ms(1000)), 0.5);
        assert_eq!(d[1].latency(), None);
        // A served session over the limit is a miss too.
        assert_eq!(slo_met_ratio(&d, Duration::from_micros(500)), 0.0);
    }
}
