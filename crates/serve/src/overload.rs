//! Admission-queue overload state machine: `Healthy → Degraded →
//! Shedding` with hysteresis.
//!
//! The overload signal is the server's *queue depth*: admitted sessions
//! beyond the `max_sessions` it expects to serve at once. Two watermarks
//! give the state machine hysteresis so it cannot flap on every accept:
//!
//! ```text
//!            depth >= floor               depth >= high
//!   Healthy ───────────────▶ Degraded ──────────────────▶ Shedding
//!    ▲  ▲                       │  ▲                         │
//!    │  └──── depth < floor ────┘  └─ floor <= depth <= low ─┤
//!    └──────────────────── depth < floor ────────────────────┘
//! ```
//!
//! where `floor = max(low, 1)`; `Healthy` also enters `Shedding` directly
//! at `depth >= high`. Outside `Shedding` the state is a function of the
//! depth alone, and leaving `Shedding` (at `depth <= low`) lands in
//! whichever state the depth names, so a depth fed twice in a row reports
//! the same state twice.
//!
//! While `Shedding`, new connections are refused with a checksummed
//! [`Busy`](appclass_metrics::ControlFrame::Busy) frame carrying a
//! `retry_after_ms` hint — a soft, retryable refusal, distinct from the
//! hard `Bye(SessionLimit)` a full queue earns. Entry into `Shedding`
//! latches one flight-recorder incident per episode.

/// The server's load state, exported as the `serve_overload_state` gauge
/// (`0` = healthy, `1` = degraded, `2` = shedding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadState {
    /// Queue depth below the low watermark: admit freely.
    Healthy,
    /// Queue building (depth at or past the low watermark): still
    /// admitting, but the next burst tips into shedding.
    Degraded,
    /// Depth crossed the high watermark: refuse new connections with
    /// `Busy` until the queue drains back to the low watermark.
    Shedding,
}

impl OverloadState {
    /// Gauge encoding of the state.
    pub fn gauge_value(self) -> f64 {
        match self {
            OverloadState::Healthy => 0.0,
            OverloadState::Degraded => 1.0,
            OverloadState::Shedding => 2.0,
        }
    }
}

/// Watermark-driven state machine over the admission-queue depth.
///
/// `update` is called with the current depth on every admission decision
/// (and whenever a session ends); it returns the new state and
/// whether this call *entered* `Shedding` — the edge the server uses to
/// latch a flight-recorder incident once per episode.
#[derive(Debug)]
pub struct OverloadMachine {
    state: OverloadState,
    low: usize,
    high: usize,
}

impl OverloadMachine {
    /// Builds the machine in `Healthy`. `high` is clamped to at least
    /// `low + 1` so the two watermarks always leave a hysteresis band.
    pub fn new(low: usize, high: usize) -> Self {
        OverloadMachine { state: OverloadState::Healthy, low, high: high.max(low + 1) }
    }

    /// The current state.
    pub fn state(&self) -> OverloadState {
        self.state
    }

    /// Feeds a queue-depth observation through the transition rules.
    /// Returns `(state, entered_shedding)`.
    pub fn update(&mut self, depth: usize) -> (OverloadState, bool) {
        let was_shedding = self.state == OverloadState::Shedding;
        // Leaving shedding requires draining all the way back to the low
        // watermark, not just dipping under high — otherwise a boundary
        // load level flaps admit/refuse on alternating connections.
        let shedding = if was_shedding { depth > self.low } else { depth >= self.high };
        self.state = if shedding {
            OverloadState::Shedding
        } else if depth >= self.low.max(1) {
            OverloadState::Degraded
        } else {
            OverloadState::Healthy
        };
        (self.state, shedding && !was_shedding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_healthy_and_walks_up_through_degraded() {
        let mut m = OverloadMachine::new(2, 4);
        assert_eq!(m.state(), OverloadState::Healthy);
        assert_eq!(m.update(0), (OverloadState::Healthy, false));
        assert_eq!(m.update(1), (OverloadState::Healthy, false));
        assert_eq!(m.update(2), (OverloadState::Degraded, false));
        assert_eq!(m.update(3), (OverloadState::Degraded, false));
        assert_eq!(m.update(4), (OverloadState::Shedding, true));
    }

    #[test]
    fn entering_shedding_is_edge_triggered() {
        let mut m = OverloadMachine::new(1, 3);
        assert_eq!(m.update(5), (OverloadState::Shedding, true));
        // Staying above high is not another entry.
        assert_eq!(m.update(6), (OverloadState::Shedding, false));
        assert_eq!(m.update(4), (OverloadState::Shedding, false));
    }

    #[test]
    fn shedding_holds_until_the_low_watermark() {
        let mut m = OverloadMachine::new(2, 5);
        m.update(5);
        // Dipping below high but above low keeps shedding (hysteresis).
        assert_eq!(m.update(4), (OverloadState::Shedding, false));
        assert_eq!(m.update(3), (OverloadState::Shedding, false));
        // At the low watermark the machine relaxes to Degraded…
        assert_eq!(m.update(2), (OverloadState::Degraded, false));
        // …and a queue below it restores Healthy.
        assert_eq!(m.update(1), (OverloadState::Healthy, false));
    }

    #[test]
    fn drain_to_zero_from_shedding_goes_straight_to_healthy() {
        let mut m = OverloadMachine::new(2, 4);
        m.update(9);
        assert_eq!(m.update(0), (OverloadState::Healthy, false));
    }

    #[test]
    fn reentry_after_drain_latches_again() {
        let mut m = OverloadMachine::new(1, 2);
        assert!(m.update(2).1);
        m.update(0);
        assert!(m.update(2).1, "a fresh episode must re-latch");
    }

    #[test]
    fn degenerate_watermarks_are_widened() {
        // high <= low would make the hysteresis band empty; the
        // constructor widens it instead of flapping.
        let mut m = OverloadMachine::new(3, 3);
        assert_eq!(m.update(3), (OverloadState::Degraded, false));
        assert_eq!(m.update(4), (OverloadState::Shedding, true));
        assert_eq!(m.update(3), (OverloadState::Degraded, false));
    }

    #[test]
    fn low_watermark_zero_still_distinguishes_healthy() {
        let mut m = OverloadMachine::new(0, 2);
        assert_eq!(m.update(0), (OverloadState::Healthy, false));
        assert_eq!(m.update(1), (OverloadState::Degraded, false));
        assert_eq!(m.update(2), (OverloadState::Shedding, true));
        assert_eq!(m.update(0), (OverloadState::Healthy, false));
    }

    /// The reference automaton: a shedding latch that sets at
    /// `depth >= high` and clears at `depth <= low`, with the state read
    /// off the latch and the depth. Returns each step's
    /// `(state, entered_shedding)`.
    fn reference(low: usize, high: usize, depths: &[usize]) -> Vec<(OverloadState, bool)> {
        let high = high.max(low + 1);
        let mut latched = false;
        depths
            .iter()
            .map(|&d| {
                let was = latched;
                latched = if was { d > low } else { d >= high };
                let state = match (latched, d >= low.max(1)) {
                    (true, _) => OverloadState::Shedding,
                    (false, true) => OverloadState::Degraded,
                    (false, false) => OverloadState::Healthy,
                };
                (state, latched && !was)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Over random watermarks and depth sequences the machine
        /// matches the reference automaton step for step, and feeding a
        /// depth a second time never moves it: only a change in load
        /// changes the state.
        #[test]
        fn machine_matches_the_reference_automaton(
            low in 0usize..6,
            high in 0usize..9,
            depths in prop::collection::vec(0usize..10, 1..40),
        ) {
            let mut m = OverloadMachine::new(low, high);
            let got: Vec<_> = depths.iter().map(|&d| m.update(d)).collect();
            prop_assert_eq!(got, reference(low, high, &depths));

            let mut m = OverloadMachine::new(low, high);
            for &d in &depths {
                let (state, _) = m.update(d);
                let again = m.update(d);
                prop_assert_eq!(
                    again,
                    (state, false),
                    "depth {} fed twice at watermarks {}/{}: {:?} then {:?}",
                    d,
                    low,
                    high,
                    state,
                    again
                );
            }
        }
    }

    #[test]
    fn gauge_values_are_stable() {
        assert_eq!(OverloadState::Healthy.gauge_value(), 0.0);
        assert_eq!(OverloadState::Degraded.gauge_value(), 1.0);
        assert_eq!(OverloadState::Shedding.gauge_value(), 2.0);
    }
}
