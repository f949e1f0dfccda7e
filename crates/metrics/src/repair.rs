//! Frame validation and repair between the monitoring stream and the
//! classification pipeline.
//!
//! The pipeline downstream is fail-fast: one NaN in a pool aborts a whole
//! classification run. On a real multicast subnet that is the wrong
//! trade-off — dropped, duplicated, reordered, stale and corrupt frames are
//! normal operating conditions. [`FrameGuard`] sits between source and
//! pipeline and turns that raw stream into a clean one:
//!
//! * **Sequencing** — duplicates (same timestamp) and out-of-order arrivals
//!   are dropped; gaps in the sampling cadence are detected and reported so
//!   downstream smoothing windows can reset instead of voting across them.
//! * **Quarantine & imputation** — non-finite metric values are patched
//!   from the metric's last good value, bounded by a configurable
//!   max-repair streak; past the bound the metric is declared *dead* and
//!   frames carrying it are dropped until a finite value revives it.
//! * **Accounting** — every decision is tallied into a [`TelemetryHealth`]
//!   report: purely integer counters, so identical inputs give bitwise
//!   identical reports.
//!
//! [`StalenessTracker`] handles the source dimension of the same problem:
//! a node that stops announcing gets a bounded retry/backoff schedule and
//! is eventually evicted from polling.

use crate::metric::{MetricFrame, METRIC_COUNT};
use crate::snapshot::{NodeId, Snapshot};
use appclass_obs::{Counter, Registry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Policy knobs for a [`FrameGuard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Expected sampling cadence in seconds (the paper's `d`); used to
    /// translate timestamp deltas into missed-frame counts.
    pub interval: u64,
    /// Maximum number of *consecutive* imputations per metric before the
    /// metric is declared dead and its frames are dropped instead.
    pub max_repair_streak: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig { interval: crate::profiler::DEFAULT_SAMPLING_INTERVAL, max_repair_streak: 3 }
    }
}

/// Why a frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// Same timestamp as the previously delivered frame from this node.
    Duplicate,
    /// Timestamp earlier than the previously delivered frame (late arrival
    /// of a reordered datagram; the in-order copy already went through).
    OutOfOrder,
    /// A metric was non-finite before any finite value was ever seen, so
    /// there is no last-good value to impute from.
    NoBaseline {
        /// Frame index of the metric.
        metric: usize,
    },
    /// A metric exceeded the repair-streak bound and is quarantined until
    /// a finite value revives it.
    DeadMetric {
        /// Frame index of the metric.
        metric: usize,
    },
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::Duplicate => write!(f, "duplicate timestamp"),
            DropReason::OutOfOrder => write!(f, "out-of-order arrival"),
            DropReason::NoBaseline { metric } => {
                write!(f, "metric #{metric} non-finite with no baseline")
            }
            DropReason::DeadMetric { metric } => {
                write!(f, "metric #{metric} dead (repair streak exhausted)")
            }
        }
    }
}

/// The guard's ruling on one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameVerdict {
    /// The frame was clean and passes through untouched.
    Accepted,
    /// Non-finite values were imputed from per-metric last-good values.
    Repaired {
        /// How many metric values were patched.
        patched: usize,
    },
    /// The frame must not reach the pipeline.
    Dropped {
        /// Why it was rejected.
        reason: DropReason,
    },
}

impl FrameVerdict {
    /// True unless the frame was dropped.
    pub fn is_usable(&self) -> bool {
        !matches!(self, FrameVerdict::Dropped { .. })
    }
}

/// Outcome of [`FrameGuard::admit`]: the verdict, the (possibly patched)
/// frame for usable verdicts, and the number of sampling instants missed
/// since the last admitted frame from the same node.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// The guard's ruling.
    pub verdict: FrameVerdict,
    /// The frame to feed downstream; `None` when dropped.
    pub frame: Option<MetricFrame>,
    /// Missed sampling instants since the previous admitted frame
    /// (`None` when on cadence or for the node's first frame).
    pub gap: Option<u64>,
}

/// Aggregated health counters for a guarded telemetry stream.
///
/// All fields are integers, so two runs over identical degraded streams
/// produce bitwise-identical reports — the chaos suite asserts exactly that.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TelemetryHealth {
    /// Frames offered to the guard.
    pub seen: u64,
    /// Frames passed through untouched.
    pub accepted: u64,
    /// Frames admitted after imputation.
    pub repaired: u64,
    /// Frames rejected.
    pub dropped: u64,
    /// Rejections that were duplicate timestamps.
    pub duplicates: u64,
    /// Rejections that were out-of-order arrivals.
    pub reordered: u64,
    /// Cadence gaps observed between admitted frames.
    pub gaps: u64,
    /// Total sampling instants missing across those gaps.
    pub missed_frames: u64,
    /// Individual metric values patched by imputation.
    pub values_patched: u64,
    /// Wire datagrams that failed to decode (reported via
    /// [`FrameGuard::note_malformed`]).
    pub malformed: u64,
    /// Frame indices of metrics currently quarantined as dead, sorted.
    pub dead_metrics: Vec<usize>,
    /// Longest consecutive-repair streak observed on any single metric.
    pub max_repair_streak: u32,
}

impl TelemetryHealth {
    /// Frames that reached the pipeline (accepted + repaired).
    pub fn admitted(&self) -> u64 {
        self.accepted + self.repaired
    }

    /// Fraction of offered frames that did *not* reach the pipeline.
    pub fn loss_fraction(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.dropped as f64 / self.seen as f64
        }
    }

    /// Fraction of admitted frames that needed repair.
    pub fn repair_fraction(&self) -> f64 {
        let admitted = self.admitted();
        if admitted == 0 {
            0.0
        } else {
            self.repaired as f64 / admitted as f64
        }
    }

    /// Folds another report into this one (counter-wise sum; dead-metric
    /// sets are unioned, streaks maxed).
    pub fn merge(&mut self, other: &TelemetryHealth) {
        self.seen += other.seen;
        self.accepted += other.accepted;
        self.repaired += other.repaired;
        self.dropped += other.dropped;
        self.duplicates += other.duplicates;
        self.reordered += other.reordered;
        self.gaps += other.gaps;
        self.missed_frames += other.missed_frames;
        self.values_patched += other.values_patched;
        self.malformed += other.malformed;
        for &m in &other.dead_metrics {
            if !self.dead_metrics.contains(&m) {
                self.dead_metrics.push(m);
            }
        }
        self.dead_metrics.sort_unstable();
        self.max_repair_streak = self.max_repair_streak.max(other.max_repair_streak);
    }
}

impl fmt::Display for TelemetryHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "telemetry: {} seen, {} accepted, {} repaired ({} values), {} dropped \
             ({} dup, {} ooo), {} gaps ({} frames missed), {} malformed",
            self.seen,
            self.accepted,
            self.repaired,
            self.values_patched,
            self.dropped,
            self.duplicates,
            self.reordered,
            self.gaps,
            self.missed_frames,
            self.malformed,
        )?;
        if !self.dead_metrics.is_empty() {
            write!(f, ", dead metrics {:?}", self.dead_metrics)?;
        }
        Ok(())
    }
}

/// Per-node sequencing and imputation state, held inline: only a node's
/// first frame can allocate (its map entry).
#[derive(Debug, Clone)]
struct NodeState {
    /// Timestamp of the last in-order delivery (admitted or value-dropped).
    last_seen: Option<u64>,
    /// Timestamp of the last frame actually admitted downstream.
    last_admitted: Option<u64>,
    /// Last finite value per metric.
    last_good: [f64; METRIC_COUNT],
    /// Whether each metric has ever reported a finite value.
    seeded: [bool; METRIC_COUNT],
    /// Consecutive imputations per metric.
    streaks: [u32; METRIC_COUNT],
    /// Metrics past the repair bound, quarantined.
    dead: [bool; METRIC_COUNT],
    /// Whether the last in-order frame was all finite. A metric keeps a
    /// streak or a quarantine exactly when its latest value was not, so
    /// while this holds an all-finite frame changes nothing but
    /// `last_good` and `seeded`.
    clean: bool,
}

impl NodeState {
    fn new() -> Self {
        NodeState {
            last_seen: None,
            last_admitted: None,
            last_good: [0.0; METRIC_COUNT],
            seeded: [false; METRIC_COUNT],
            streaks: [0; METRIC_COUNT],
            dead: [false; METRIC_COUNT],
            clean: true,
        }
    }
}

/// The validation/repair stage between a raw snapshot stream and the
/// pipeline. See the module docs for the policy.
///
/// # Examples
///
/// ```
/// use appclass_metrics::repair::{FrameGuard, FrameVerdict, GuardConfig};
/// use appclass_metrics::{MetricFrame, MetricId, NodeId, Snapshot};
///
/// let mut guard = FrameGuard::new(GuardConfig::default());
/// let mut f = MetricFrame::zeroed();
/// f.set(MetricId::CpuUser, 80.0);
/// let a = guard.admit(&Snapshot::new(NodeId(1), 0, f.clone()));
/// assert_eq!(a.verdict, FrameVerdict::Accepted);
///
/// f.set(MetricId::CpuUser, f64::NAN);
/// let b = guard.admit(&Snapshot::new(NodeId(1), 5, f));
/// assert_eq!(b.verdict, FrameVerdict::Repaired { patched: 1 });
/// assert_eq!(b.frame.unwrap().get(MetricId::CpuUser), 80.0);
/// ```
#[derive(Debug, Clone)]
pub struct FrameGuard {
    config: GuardConfig,
    nodes: BTreeMap<NodeId, NodeState>,
    health: TelemetryHealth,
    counters: Option<GuardCounters>,
}

/// Live [`Counter`] handles mirroring the guard's verdict tallies into an
/// observability [`Registry`], so an exposition dump shows the guard's
/// behaviour without polling [`TelemetryHealth`].
#[derive(Debug, Clone)]
struct GuardCounters {
    seen: Counter,
    accepted: Counter,
    repaired: Counter,
    dropped: Counter,
    malformed: Counter,
}

impl Default for FrameGuard {
    fn default() -> Self {
        FrameGuard::new(GuardConfig::default())
    }
}

impl FrameGuard {
    /// A guard with the given policy.
    pub fn new(config: GuardConfig) -> Self {
        FrameGuard {
            config,
            nodes: BTreeMap::new(),
            health: TelemetryHealth::default(),
            counters: None,
        }
    }

    /// Mirrors verdict tallies into `registry` from this call onward:
    /// `guard_frames_seen_total`, `guard_frames_accepted_total`,
    /// `guard_frames_repaired_total`, `guard_frames_dropped_total` and
    /// `guard_datagrams_malformed_total`. Counters pick up at the
    /// registry's current values; prior history is not back-filled.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.counters = Some(GuardCounters {
            seen: registry.counter("guard_frames_seen_total"),
            accepted: registry.counter("guard_frames_accepted_total"),
            repaired: registry.counter("guard_frames_repaired_total"),
            dropped: registry.counter("guard_frames_dropped_total"),
            malformed: registry.counter("guard_datagrams_malformed_total"),
        });
    }

    /// The policy in force.
    pub fn config(&self) -> GuardConfig {
        self.config
    }

    /// Judges one snapshot, updating sequencing and imputation state.
    /// A wrapper over [`FrameGuard::admit_into`] that returns the
    /// admitted frame by value.
    pub fn admit(&mut self, snap: &Snapshot) -> Admission {
        let mut row = [0.0; METRIC_COUNT];
        let (verdict, gap) = self.admit_into(snap, &mut row);
        let frame = verdict.is_usable().then(|| MetricFrame::from_array(row));
        Admission { verdict, frame, gap }
    }

    /// Judges one snapshot like [`FrameGuard::admit`], writing the
    /// admitted (or repaired) values into `row` instead of returning a
    /// frame, so a batch can be admitted straight into its feature
    /// matrix. Returns the verdict and the cadence gap. `row` holds the
    /// frame's values for usable verdicts and is unspecified for drops.
    pub fn admit_into(
        &mut self,
        snap: &Snapshot,
        row: &mut [f64; METRIC_COUNT],
    ) -> (FrameVerdict, Option<u64>) {
        self.health.seen += 1;
        if let Some(c) = &self.counters {
            c.seen.inc();
        }
        let interval = self.config.interval.max(1);
        let state = self.nodes.entry(snap.node).or_insert_with(NodeState::new);

        // Duplicates and late arrivals carry no new information and
        // must not disturb imputation state.
        if let Some(last) = state.last_seen {
            if snap.time <= last {
                let reason = if snap.time == last {
                    self.health.duplicates += 1;
                    DropReason::Duplicate
                } else {
                    self.health.reordered += 1;
                    DropReason::OutOfOrder
                };
                self.health.dropped += 1;
                if let Some(c) = &self.counters {
                    c.dropped.inc();
                }
                return (FrameVerdict::Dropped { reason }, None);
            }
        }
        state.last_seen = Some(snap.time);

        // The per-metric pass: each finite value, or its imputation, goes
        // into `row`. Finite metrics always update their baseline — even
        // in a frame dropped for another metric's sake, the finite
        // readings are genuine — and a finite value revives a dead
        // metric. A metric is finite or not, so one pass in index order
        // reads the same state as a pass per kind would.
        let values = snap.frame.as_slice();
        let max_streak = self.config.max_repair_streak;
        let mut fatal: Option<DropReason> = None;
        let mut patched = 0usize;
        let mut streak_peak = 0u32;
        let mut dead_set_changed = false;
        if state.clean && values.iter().all(|v| v.is_finite()) {
            // Clean frame, clean node: the general pass would only copy
            // the values and mark them seeded.
            row.copy_from_slice(values);
            state.last_good.copy_from_slice(values);
            state.seeded = [true; METRIC_COUNT];
        } else {
            state.clean = true;
            for (i, (&v, out)) in values.iter().zip(row.iter_mut()).enumerate() {
                if v.is_finite() {
                    *out = v;
                    state.last_good[i] = v;
                    state.seeded[i] = true;
                    state.streaks[i] = 0;
                    if state.dead[i] {
                        state.dead[i] = false;
                        dead_set_changed = true;
                    }
                    continue;
                }
                // This metric is left with a streak or in quarantine.
                state.clean = false;
                if state.dead[i] {
                    fatal.get_or_insert(DropReason::DeadMetric { metric: i });
                    continue;
                }
                state.streaks[i] += 1;
                streak_peak = streak_peak.max(state.streaks[i]);
                if state.streaks[i] > max_streak {
                    state.dead[i] = true;
                    dead_set_changed = true;
                    fatal.get_or_insert(DropReason::DeadMetric { metric: i });
                } else if !state.seeded[i] {
                    fatal.get_or_insert(DropReason::NoBaseline { metric: i });
                } else {
                    *out = state.last_good[i];
                    patched += 1;
                }
            }
        }

        // Cadence accounting against the last *admitted* frame — that
        // is what downstream smoothing windows actually consumed.
        let gap = if fatal.is_none() {
            let g = state.last_admitted.and_then(|last| {
                let missed = (snap.time.saturating_sub(last) / interval).saturating_sub(1);
                (missed > 0).then_some(missed)
            });
            state.last_admitted = Some(snap.time);
            g
        } else {
            None
        };

        self.health.max_repair_streak = self.health.max_repair_streak.max(streak_peak);
        if dead_set_changed {
            self.refresh_dead_metrics();
        }

        if let Some(reason) = fatal {
            self.health.dropped += 1;
            if let Some(c) = &self.counters {
                c.dropped.inc();
            }
            return (FrameVerdict::Dropped { reason }, None);
        }

        if let Some(missed) = gap {
            self.health.gaps += 1;
            self.health.missed_frames += missed;
        }

        if patched == 0 {
            self.health.accepted += 1;
            if let Some(c) = &self.counters {
                c.accepted.inc();
            }
            return (FrameVerdict::Accepted, gap);
        }

        self.health.repaired += 1;
        if let Some(c) = &self.counters {
            c.repaired.inc();
        }
        self.health.values_patched += patched as u64;
        (FrameVerdict::Repaired { patched }, gap)
    }

    /// Records a wire datagram that failed to decode before it could even
    /// become a snapshot.
    pub fn note_malformed(&mut self) {
        self.health.malformed += 1;
        if let Some(c) = &self.counters {
            c.malformed.inc();
        }
    }

    /// The health report accumulated so far.
    pub fn health(&self) -> &TelemetryHealth {
        &self.health
    }

    /// Forgets all per-node state and zeroes the health counters.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.health = TelemetryHealth::default();
    }

    /// Current repair streak of one metric on one node (0 when healthy).
    pub fn repair_streak(&self, node: NodeId, metric: usize) -> u32 {
        self.nodes.get(&node).and_then(|s| s.streaks.get(metric)).copied().unwrap_or(0)
    }

    fn refresh_dead_metrics(&mut self) {
        let mut dead: Vec<usize> = Vec::new();
        for state in self.nodes.values() {
            for (i, &d) in state.dead.iter().enumerate() {
                if d && !dead.contains(&i) {
                    dead.push(i);
                }
            }
        }
        dead.sort_unstable();
        self.health.dead_metrics = dead;
    }
}

/// Liveness status of one monitored source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SourceStatus {
    /// Delivering on cadence.
    Healthy,
    /// Missed deliveries; on a backoff probe schedule.
    Suspect {
        /// Consecutive missed probes.
        misses: u32,
        /// Next time the source is worth probing.
        next_probe: u64,
    },
    /// Retry budget exhausted; the source should no longer be polled.
    Evicted,
}

/// Retry/backoff policy for silent sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StalenessPolicy {
    /// Expected announcement cadence (seconds).
    pub interval: u64,
    /// Missed probes tolerated before eviction; each miss doubles the
    /// probe interval.
    pub max_misses: u32,
}

impl Default for StalenessPolicy {
    fn default() -> Self {
        StalenessPolicy { interval: crate::profiler::DEFAULT_SAMPLING_INTERVAL, max_misses: 3 }
    }
}

/// Tracks per-source delivery liveness with bounded exponential backoff,
/// evicting sources that stay silent past the retry budget.
#[derive(Debug, Clone, Default)]
pub struct StalenessTracker {
    policy: StalenessPolicy,
    states: BTreeMap<NodeId, ProbeState>,
}

#[derive(Debug, Clone, Copy)]
struct ProbeState {
    misses: u32,
    next_probe: u64,
    evicted: bool,
}

impl StalenessTracker {
    /// A tracker with the given policy.
    pub fn new(policy: StalenessPolicy) -> Self {
        StalenessTracker { policy, states: BTreeMap::new() }
    }

    /// Records one polling round for `node` at time `now`: `delivered`
    /// says whether anything from the node arrived this round. Returns the
    /// node's resulting status. Eviction is permanent.
    pub fn observe(&mut self, node: NodeId, now: u64, delivered: bool) -> SourceStatus {
        let interval = self.policy.interval.max(1);
        let state = self.states.entry(node).or_insert(ProbeState {
            misses: 0,
            next_probe: now + interval,
            evicted: false,
        });
        if state.evicted {
            return SourceStatus::Evicted;
        }
        if delivered {
            state.misses = 0;
            state.next_probe = now + interval;
            return SourceStatus::Healthy;
        }
        if now < state.next_probe {
            // Inside the current backoff window: nothing new to conclude.
            return if state.misses == 0 {
                SourceStatus::Healthy
            } else {
                SourceStatus::Suspect { misses: state.misses, next_probe: state.next_probe }
            };
        }
        state.misses += 1;
        if state.misses > self.policy.max_misses {
            state.evicted = true;
            return SourceStatus::Evicted;
        }
        state.next_probe = now + interval * (1u64 << state.misses.min(16));
        SourceStatus::Suspect { misses: state.misses, next_probe: state.next_probe }
    }

    /// Whether a source has been evicted.
    pub fn is_evicted(&self, node: NodeId) -> bool {
        self.states.get(&node).map(|s| s.evicted).unwrap_or(false)
    }

    /// All evicted sources, sorted by node id.
    pub fn evicted(&self) -> Vec<NodeId> {
        self.states.iter().filter(|(_, s)| s.evicted).map(|(n, _)| *n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricId;

    fn snap(time: u64, cpu: f64) -> Snapshot {
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::CpuUser, cpu);
        Snapshot::new(NodeId(1), time, f)
    }

    #[test]
    fn attached_registry_mirrors_health_counters() {
        let registry = appclass_obs::Registry::default();
        let mut g = FrameGuard::default();
        g.attach_registry(&registry);

        g.admit(&snap(0, 50.0)); // accepted
        g.admit(&snap(0, 50.0)); // duplicate → dropped
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::CpuUser, f64::NAN);
        g.admit(&Snapshot::new(NodeId(1), 5, f)); // repaired
        g.note_malformed();

        let flat: std::collections::BTreeMap<String, f64> = registry.sample().into_iter().collect();
        assert_eq!(flat["guard_frames_seen_total"], 3.0);
        assert_eq!(flat["guard_frames_accepted_total"], 1.0);
        assert_eq!(flat["guard_frames_dropped_total"], 1.0);
        assert_eq!(flat["guard_frames_repaired_total"], 1.0);
        assert_eq!(flat["guard_datagrams_malformed_total"], 1.0);
        assert_eq!(g.health().seen, 3);
    }

    #[test]
    fn clean_stream_is_accepted_untouched() {
        let mut g = FrameGuard::default();
        for t in 0..10u64 {
            let a = g.admit(&snap(t * 5, 50.0));
            assert_eq!(a.verdict, FrameVerdict::Accepted);
            assert_eq!(a.gap, None);
            assert_eq!(a.frame.as_ref().unwrap().get(MetricId::CpuUser), 50.0);
        }
        let h = g.health();
        assert_eq!(h.seen, 10);
        assert_eq!(h.accepted, 10);
        assert_eq!(h.admitted(), 10);
        assert_eq!(h.loss_fraction(), 0.0);
    }

    #[test]
    fn non_finite_is_imputed_from_last_good() {
        let mut g = FrameGuard::default();
        g.admit(&snap(0, 42.0));
        let a = g.admit(&snap(5, f64::NAN));
        assert_eq!(a.verdict, FrameVerdict::Repaired { patched: 1 });
        assert_eq!(a.frame.unwrap().get(MetricId::CpuUser), 42.0);
        assert_eq!(g.health().values_patched, 1);
        assert_eq!(g.repair_streak(NodeId(1), MetricId::CpuUser.index()), 1);
        // A finite value resets the streak.
        g.admit(&snap(10, 43.0));
        assert_eq!(g.repair_streak(NodeId(1), MetricId::CpuUser.index()), 0);
    }

    #[test]
    fn repair_streak_bound_kills_the_metric_then_revives() {
        let cfg = GuardConfig { max_repair_streak: 2, ..GuardConfig::default() };
        let mut g = FrameGuard::new(cfg);
        g.admit(&snap(0, 42.0));
        assert!(g.admit(&snap(5, f64::NAN)).verdict.is_usable());
        assert!(g.admit(&snap(10, f64::NAN)).verdict.is_usable());
        // Third consecutive NaN exceeds the bound: metric dead, frame dropped.
        let a = g.admit(&snap(15, f64::NAN));
        assert_eq!(
            a.verdict,
            FrameVerdict::Dropped {
                reason: DropReason::DeadMetric { metric: MetricId::CpuUser.index() }
            }
        );
        assert_eq!(g.health().dead_metrics, vec![MetricId::CpuUser.index()]);
        // Still dead: further NaNs keep dropping.
        assert!(!g.admit(&snap(20, f64::NAN)).verdict.is_usable());
        // A finite value revives it.
        let b = g.admit(&snap(25, 40.0));
        assert_eq!(b.verdict, FrameVerdict::Accepted);
        assert!(g.health().dead_metrics.is_empty());
        assert_eq!(g.health().max_repair_streak, 3);
    }

    #[test]
    fn no_baseline_means_drop() {
        let mut g = FrameGuard::default();
        let a = g.admit(&snap(0, f64::INFINITY));
        assert_eq!(
            a.verdict,
            FrameVerdict::Dropped {
                reason: DropReason::NoBaseline { metric: MetricId::CpuUser.index() }
            }
        );
        assert!(a.frame.is_none());
    }

    #[test]
    fn duplicates_and_out_of_order_are_dropped() {
        let mut g = FrameGuard::default();
        g.admit(&snap(10, 1.0));
        let dup = g.admit(&snap(10, 1.0));
        assert_eq!(dup.verdict, FrameVerdict::Dropped { reason: DropReason::Duplicate });
        let late = g.admit(&snap(5, 1.0));
        assert_eq!(late.verdict, FrameVerdict::Dropped { reason: DropReason::OutOfOrder });
        let h = g.health();
        assert_eq!((h.duplicates, h.reordered, h.dropped), (1, 1, 2));
        // Sequencing drops must not disturb imputation state.
        assert_eq!(g.repair_streak(NodeId(1), MetricId::CpuUser.index()), 0);
    }

    #[test]
    fn gaps_are_reported_against_admitted_cadence() {
        let mut g = FrameGuard::default();
        assert_eq!(g.admit(&snap(0, 1.0)).gap, None);
        assert_eq!(g.admit(&snap(5, 1.0)).gap, None);
        // 10 and 15 lost: next admitted frame reports 2 missed instants.
        let a = g.admit(&snap(20, 1.0));
        assert_eq!(a.gap, Some(2));
        let h = g.health();
        assert_eq!((h.gaps, h.missed_frames), (1, 2));
    }

    #[test]
    fn nodes_are_tracked_independently() {
        let mut g = FrameGuard::default();
        g.admit(&Snapshot::new(NodeId(1), 0, MetricFrame::zeroed()));
        // Node 2's first frame at the same timestamp is not a duplicate.
        let a = g.admit(&Snapshot::new(NodeId(2), 0, MetricFrame::zeroed()));
        assert_eq!(a.verdict, FrameVerdict::Accepted);
    }

    #[test]
    fn health_is_deterministic_and_merges() {
        let run = || {
            let mut g = FrameGuard::default();
            for t in 0..20u64 {
                let v = if t % 4 == 3 { f64::NAN } else { t as f64 };
                g.admit(&snap(t * 5, v));
            }
            g.health().clone()
        };
        let a = run();
        assert_eq!(a, run(), "identical input ⇒ bitwise-identical health");
        let mut merged = a.clone();
        merged.merge(&a);
        assert_eq!(merged.seen, 2 * a.seen);
        assert_eq!(merged.values_patched, 2 * a.values_patched);
        assert!(!format!("{a}").is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let mut g = FrameGuard::default();
        g.admit(&snap(0, 1.0));
        g.note_malformed();
        g.reset();
        assert_eq!(g.health(), &TelemetryHealth::default());
        // After reset the same timestamp is fresh again.
        assert!(g.admit(&snap(0, 1.0)).verdict.is_usable());
    }

    #[test]
    fn staleness_backs_off_then_evicts() {
        let mut t = StalenessTracker::new(StalenessPolicy { interval: 5, max_misses: 3 });
        let n = NodeId(9);
        assert_eq!(t.observe(n, 0, true), SourceStatus::Healthy);
        // Goes silent: misses accumulate only when the probe comes due,
        // and each miss doubles the wait.
        assert_eq!(t.observe(n, 5, false), SourceStatus::Suspect { misses: 1, next_probe: 15 });
        assert_eq!(t.observe(n, 10, false), SourceStatus::Suspect { misses: 1, next_probe: 15 });
        assert_eq!(t.observe(n, 15, false), SourceStatus::Suspect { misses: 2, next_probe: 35 });
        assert_eq!(t.observe(n, 35, false), SourceStatus::Suspect { misses: 3, next_probe: 75 });
        assert_eq!(t.observe(n, 75, false), SourceStatus::Evicted);
        assert!(t.is_evicted(n));
        assert_eq!(t.evicted(), vec![n]);
        // Eviction is permanent, even if data shows up later.
        assert_eq!(t.observe(n, 80, true), SourceStatus::Evicted);
    }

    #[test]
    fn staleness_recovers_before_eviction() {
        let mut t = StalenessTracker::new(StalenessPolicy { interval: 5, max_misses: 3 });
        let n = NodeId(4);
        t.observe(n, 0, true);
        t.observe(n, 5, false);
        t.observe(n, 15, false);
        // Delivery resets the retry budget entirely.
        assert_eq!(t.observe(n, 20, true), SourceStatus::Healthy);
        assert_eq!(t.observe(n, 25, false), SourceStatus::Suspect { misses: 1, next_probe: 35 });
        assert!(!t.is_evicted(n));
    }
}
