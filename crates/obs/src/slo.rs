//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`Slo`] names a threshold over the time-series store — classify
//! p99 below N nanoseconds, shed ratio below X, swap latency below Y —
//! and [`SloMonitor::evaluate`] turns each into a *burn rate*: the
//! measured value divided by its threshold, so 1.0 means "exactly at
//! budget" and 2.0 means "burning twice as fast as allowed". An alert
//! fires only when **both** a short and a long trailing window burn
//! above 1.0 — the classic multi-window rule that ignores one-tick
//! blips (short window spikes, long stays calm) and stale history
//! (long window elevated by an incident that already ended).
//!
//! Breaches are *episodes* with hysteresis: entering a breach latches
//! exactly one [`FlightRecorder`](crate::FlightRecorder) incident and
//! bumps `slo_breach_total`; the episode stays latched (no incident
//! spam on every tick) until the short-window burn drops below the
//! recovery ratio, after which a fresh breach starts a new episode.
//! The current worst burn rate is exported as the `slo_burn_rate`
//! gauge, so the SLO layer is itself observable through the same
//! registry it watches.
//!
//! Nothing here runs on its own: the caller scrapes the store and calls
//! [`SloMonitor::evaluate`] on its own tick, so tests drive both by hand.

use crate::registry::{Counter, Gauge};
use crate::tsdb::TsStore;
use crate::Observability;
use std::fmt::Write as _;
use std::time::Duration;

/// What an [`Slo`] measures over the store.
#[derive(Debug, Clone)]
pub enum SloKind {
    /// `quantile(metric, q)` over the window must stay below `max_ns`.
    QuantileNs {
        /// Histogram series name.
        metric: String,
        /// Quantile in `[0, 1]`, e.g. 0.99.
        q: f64,
        /// Budget in nanoseconds.
        max_ns: u64,
    },
    /// `delta(num) / delta(den)` over the window must stay below `max`.
    Ratio {
        /// Numerator counter series.
        num: String,
        /// Denominator counter series.
        den: String,
        /// Budget ratio, e.g. 0.05 for "shed at most 5% of frames".
        max: f64,
    },
    /// The gauge's window maximum must stay below `max`.
    GaugeMax {
        /// Gauge series name.
        metric: String,
        /// Budget value.
        max: f64,
    },
}

/// One declarative objective.
#[derive(Debug, Clone)]
pub struct Slo {
    /// Human name, used in incident reasons and alert lines.
    pub name: String,
    /// What to measure.
    pub kind: SloKind,
}

impl Slo {
    /// Classify latency p99 must stay below `max_ns` (over the serve
    /// session histogram `serve_classify_latency`).
    pub fn classify_p99(max_ns: u64) -> Self {
        Slo {
            name: format!("classify_p99<{max_ns}ns"),
            kind: SloKind::QuantileNs {
                metric: "serve_classify_latency".to_string(),
                q: 0.99,
                max_ns,
            },
        }
    }

    /// Deadline-shed frames must stay below `max` of frames in
    /// (`serve_deadline_shed_total / serve_frames_in_total`).
    pub fn shed_ratio(max: f64) -> Self {
        Slo {
            name: format!("shed_ratio<{max}"),
            kind: SloKind::Ratio {
                num: "serve_deadline_shed_total".to_string(),
                den: "serve_frames_in_total".to_string(),
                max,
            },
        }
    }

    /// Model swap latency p99 must stay below `max_ns` (over
    /// `serve_model_swap_latency`).
    pub fn swap_latency_p99(max_ns: u64) -> Self {
        Slo {
            name: format!("swap_p99<{max_ns}ns"),
            kind: SloKind::QuantileNs {
                metric: "serve_model_swap_latency".to_string(),
                q: 0.99,
                max_ns,
            },
        }
    }
}

/// Evaluation windows and hysteresis for a monitor.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Short trailing window (fast signal; must also burn to alert).
    pub short_window: Duration,
    /// Long trailing window (context; must also burn to alert).
    pub long_window: Duration,
    /// An episode recovers when the short-window burn drops below this
    /// fraction of budget (default 0.9 — a little slack so the episode
    /// does not flap around exactly 1.0).
    pub recovery_ratio: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            short_window: Duration::from_secs(60),
            long_window: Duration::from_secs(600),
            recovery_ratio: 0.9,
        }
    }
}

/// One evaluation's outcome for one objective.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The objective's name.
    pub name: String,
    /// Burn rate over the short window (`None` → no data).
    pub short_burn: Option<f64>,
    /// Burn rate over the long window.
    pub long_burn: Option<f64>,
    /// Whether the episode is currently latched.
    pub breached: bool,
    /// True exactly on the evaluation that latched the episode.
    pub newly_breached: bool,
}

struct SloState {
    slo: Slo,
    breached: bool,
}

/// Evaluates a set of [`Slo`]s against a [`TsStore`] with multi-window
/// burn-rate alerting and per-episode incident latching.
pub struct SloMonitor {
    config: SloConfig,
    slos: Vec<SloState>,
    breach_total: Counter,
    burn_gauge: Gauge,
}

impl std::fmt::Debug for SloMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloMonitor")
            .field("slos", &self.slos.len())
            .field("config", &self.config)
            .finish()
    }
}

impl SloMonitor {
    /// A monitor exporting `slo_breach_total` / `slo_burn_rate` into
    /// the observability bundle's registry.
    pub fn new(obs: &Observability, config: SloConfig) -> Self {
        SloMonitor {
            config,
            slos: Vec::new(),
            breach_total: obs.registry.counter("slo_breach_total"),
            burn_gauge: obs.registry.gauge("slo_burn_rate"),
        }
    }

    /// Adds an objective (builder-style).
    pub fn with(mut self, slo: Slo) -> Self {
        self.add(slo);
        self
    }

    /// Adds an objective.
    pub fn add(&mut self, slo: Slo) {
        self.slos.push(SloState { slo, breached: false });
    }

    /// Number of objectives under watch.
    pub fn len(&self) -> usize {
        self.slos.len()
    }

    /// True when no objective has been added.
    pub fn is_empty(&self) -> bool {
        self.slos.is_empty()
    }

    /// Evaluates every objective against the store's current contents,
    /// latching incidents for newly breached episodes into `obs` and
    /// refreshing the exported metrics. Returns per-objective status.
    pub fn evaluate(&mut self, store: &TsStore, obs: &Observability) -> Vec<SloStatus> {
        let mut out = Vec::with_capacity(self.slos.len());
        let mut worst: f64 = 0.0;
        for state in &mut self.slos {
            let short_burn = burn(&state.slo.kind, store, self.config.short_window);
            let long_burn = burn(&state.slo.kind, store, self.config.long_window);
            if let Some(b) = short_burn {
                worst = worst.max(b);
            }
            let mut newly = false;
            match (state.breached, short_burn, long_burn) {
                (false, Some(s), Some(l)) if s > 1.0 && l > 1.0 => {
                    state.breached = true;
                    newly = true;
                    self.breach_total.inc();
                    let mut reason = String::new();
                    let _ = write!(
                        reason,
                        "slo breach: {} short_burn={s:.2} long_burn={l:.2}",
                        state.slo.name
                    );
                    obs.incident(&reason);
                }
                (true, Some(s), _) if s < self.config.recovery_ratio => {
                    state.breached = false;
                }
                (true, None, _) => {
                    // Signal vanished (e.g. traffic stopped): recover.
                    state.breached = false;
                }
                _ => {}
            }
            out.push(SloStatus {
                name: state.slo.name.clone(),
                short_burn,
                long_burn,
                breached: state.breached,
                newly_breached: newly,
            });
        }
        self.burn_gauge.set(worst);
        out
    }
}

// Free function so `evaluate` can call it while holding `&mut
// self.slos` — borrow-splitting.
fn burn(kind: &SloKind, store: &TsStore, window: Duration) -> Option<f64> {
    match kind {
        SloKind::QuantileNs { metric, q, max_ns } => {
            let measured = store.quantile(metric, *q, window)?.as_nanos() as f64;
            Some(measured / (*max_ns).max(1) as f64)
        }
        SloKind::Ratio { num, den, max } => {
            let d = store.delta(den, window)?;
            if d <= 0.0 {
                return None;
            }
            let n = store.delta(num, window).unwrap_or(0.0);
            Some((n / d) / max.max(f64::MIN_POSITIVE))
        }
        SloKind::GaugeMax { metric, max } => {
            let measured = store.max_over(metric, window)?;
            Some(measured / max.max(f64::MIN_POSITIVE))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(store: &mut TsStore, obs: &Observability, t_secs: u64) {
        store.scrape_at(&obs.registry, t_secs * 1_000_000_000);
    }

    fn monitor(obs: &Observability) -> SloMonitor {
        SloMonitor::new(
            obs,
            SloConfig {
                short_window: Duration::from_secs(2),
                long_window: Duration::from_secs(10),
                recovery_ratio: 0.9,
            },
        )
    }

    #[test]
    fn breach_latches_exactly_one_incident_per_episode() {
        let obs = Observability::new();
        let mut store = TsStore::new(32);
        let mut mon = monitor(&obs).with(Slo::shed_ratio(0.05));
        let frames = obs.registry.counter("serve_frames_in_total");
        let shed = obs.registry.counter("serve_deadline_shed_total");

        // Healthy traffic: no shedding at all.
        frames.add(100);
        scrape(&mut store, &obs, 0);
        frames.add(100);
        scrape(&mut store, &obs, 1);
        let statuses = mon.evaluate(&store, &obs);
        assert!(!statuses[0].breached);
        assert_eq!(obs.flight.len(), 0);

        // Overload: half of all frames shed, far past the 5% budget.
        for t in 2..5 {
            frames.add(100);
            shed.add(50);
            scrape(&mut store, &obs, t);
            mon.evaluate(&store, &obs);
        }
        assert_eq!(obs.flight.len(), 1, "one episode, one incident — no spam");
        assert_eq!(obs.registry.counter("slo_breach_total").get(), 1);
        assert!(obs.registry.gauge("slo_burn_rate").get() > 1.0);
        let incident = &obs.flight.incidents()[0];
        assert!(incident.reason.contains("slo breach"), "{}", incident.reason);
        assert!(incident.reason.contains("shed_ratio"), "{}", incident.reason);

        // Recovery: shedding stops; the episode unlatches...
        for t in 5..9 {
            frames.add(100);
            scrape(&mut store, &obs, t);
            mon.evaluate(&store, &obs);
        }
        assert!(!mon.evaluate(&store, &obs)[0].breached);

        // ...so a second overload is a new episode with a new incident.
        for t in 9..12 {
            frames.add(100);
            shed.add(60);
            scrape(&mut store, &obs, t);
            mon.evaluate(&store, &obs);
        }
        assert_eq!(obs.flight.len(), 2, "a fresh episode latches a fresh incident");
        assert_eq!(obs.registry.counter("slo_breach_total").get(), 2);
    }

    #[test]
    fn short_blip_does_not_alert_without_long_window_agreement() {
        let obs = Observability::new();
        let mut store = TsStore::new(64);
        // Long window so large that the blip dilutes below budget.
        let mut mon = SloMonitor::new(
            &obs,
            SloConfig {
                short_window: Duration::from_secs(1),
                long_window: Duration::from_secs(100),
                recovery_ratio: 0.9,
            },
        )
        .with(Slo::shed_ratio(0.10));
        let frames = obs.registry.counter("serve_frames_in_total");
        let shed = obs.registry.counter("serve_deadline_shed_total");
        // 60 healthy seconds...
        for t in 0..60 {
            frames.add(100);
            scrape(&mut store, &obs, t);
            mon.evaluate(&store, &obs);
        }
        // ...then one bad second: 50% shed in the short window, but only
        // ~0.8% over the long window.
        frames.add(100);
        shed.add(50);
        scrape(&mut store, &obs, 60);
        let statuses = mon.evaluate(&store, &obs);
        assert!(statuses[0].short_burn.unwrap() > 1.0, "short window sees the blip");
        assert!(statuses[0].long_burn.unwrap() < 1.0, "long window dilutes it");
        assert!(!statuses[0].breached, "multi-window rule suppresses the blip");
        assert_eq!(obs.flight.len(), 0);
    }

    #[test]
    fn quantile_slo_burns_on_slow_latencies() {
        let obs = Observability::new();
        let mut store = TsStore::new(32);
        let mut mon = monitor(&obs).with(Slo::classify_p99(1_000));
        let h = obs.registry.histogram("serve_classify_latency");
        for _ in 0..50 {
            h.record(Duration::from_nanos(500));
        }
        scrape(&mut store, &obs, 0);
        let ok = mon.evaluate(&store, &obs);
        assert!(ok[0].short_burn.unwrap() <= 1.1, "fast latencies stay within budget");
        for _ in 0..50 {
            h.record(Duration::from_micros(100));
        }
        scrape(&mut store, &obs, 1);
        let bad = mon.evaluate(&store, &obs);
        assert!(bad[0].short_burn.unwrap() > 1.0, "slow tail burns the budget");
        assert!(bad[0].breached);
    }

    #[test]
    fn no_data_yields_no_burn_and_no_breach() {
        let obs = Observability::new();
        let store = TsStore::new(8);
        let mut mon = monitor(&obs).with(Slo::classify_p99(1_000)).with(Slo::shed_ratio(0.05));
        let statuses = mon.evaluate(&store, &obs);
        assert!(statuses.iter().all(|s| s.short_burn.is_none() && !s.breached));
        assert_eq!(obs.flight.len(), 0);
        assert!(!mon.is_empty());
        assert_eq!(mon.len(), 2);
    }
}
