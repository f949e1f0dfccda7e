//! `FrameGuard` pinned to a reference model: a straightforward guard
//! with `Vec` per-node state and separate non-finite and finite passes,
//! which the production guard (inline state, one fused pass, a fast path
//! for clean frames on healthy nodes) must match ruling for ruling.
//!
//! Streams run over 1–4 nodes with duplicate, out-of-order and gapped
//! timestamps, and NaN or ±∞ at random metrics, so nodes move in and
//! out of the fast path as their metrics are repaired, quarantined and
//! revived.

use appclass_metrics::repair::{DropReason, FrameGuard, FrameVerdict, GuardConfig};
use appclass_metrics::{MetricFrame, NodeId, Snapshot, TelemetryHealth, METRIC_COUNT};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Per-node state of the reference guard.
struct RefNode {
    last_seen: Option<u64>,
    last_admitted: Option<u64>,
    last_good: Vec<f64>,
    seeded: Vec<bool>,
    streaks: Vec<u32>,
    dead: Vec<bool>,
}

/// The reference guard: the ruling written as plainly as possible.
struct RefGuard {
    config: GuardConfig,
    nodes: BTreeMap<NodeId, RefNode>,
    health: TelemetryHealth,
}

impl RefGuard {
    fn new(config: GuardConfig) -> Self {
        RefGuard { config, nodes: BTreeMap::new(), health: TelemetryHealth::default() }
    }

    fn drop_frame(&mut self, reason: DropReason) -> (FrameVerdict, Option<Vec<f64>>, Option<u64>) {
        self.health.dropped += 1;
        (FrameVerdict::Dropped { reason }, None, None)
    }

    fn admit(&mut self, snap: &Snapshot) -> (FrameVerdict, Option<Vec<f64>>, Option<u64>) {
        self.health.seen += 1;
        let max_streak = self.config.max_repair_streak;
        let interval = self.config.interval.max(1);
        let values = snap.frame.as_slice();
        let state = self.nodes.entry(snap.node).or_insert_with(|| RefNode {
            last_seen: None,
            last_admitted: None,
            last_good: vec![0.0; METRIC_COUNT],
            seeded: vec![false; METRIC_COUNT],
            streaks: vec![0; METRIC_COUNT],
            dead: vec![false; METRIC_COUNT],
        });

        if let Some(last) = state.last_seen {
            if snap.time == last {
                self.health.duplicates += 1;
                return self.drop_frame(DropReason::Duplicate);
            }
            if snap.time < last {
                self.health.reordered += 1;
                return self.drop_frame(DropReason::OutOfOrder);
            }
        }
        state.last_seen = Some(snap.time);

        // Pass 1: every non-finite metric.
        let mut patches: Vec<(usize, f64)> = Vec::new();
        let mut fatal: Option<DropReason> = None;
        let mut dead_set_changed = false;
        let mut streak_peak = 0u32;
        for (i, &v) in values.iter().enumerate() {
            if v.is_finite() {
                continue;
            }
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
                patches.push((i, state.last_good[i]));
            }
        }
        // Pass 2: every finite metric refreshes its baseline.
        for (i, &v) in values.iter().enumerate() {
            if v.is_finite() {
                state.last_good[i] = v;
                state.seeded[i] = true;
                state.streaks[i] = 0;
                if state.dead[i] {
                    state.dead[i] = false;
                    dead_set_changed = true;
                }
            }
        }
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
        if let Some(reason) = fatal {
            return self.drop_frame(reason);
        }
        if let Some(missed) = gap {
            self.health.gaps += 1;
            self.health.missed_frames += missed;
        }
        if patches.is_empty() {
            self.health.accepted += 1;
            return (FrameVerdict::Accepted, Some(values.to_vec()), gap);
        }
        let mut repaired = values.to_vec();
        for &(i, good) in &patches {
            repaired[i] = good;
        }
        self.health.repaired += 1;
        self.health.values_patched += patches.len() as u64;
        (FrameVerdict::Repaired { patched: patches.len() }, Some(repaired), gap)
    }

    fn repair_streak(&self, node: NodeId, metric: usize) -> u32 {
        self.nodes.get(&node).map_or(0, |s| s.streaks[metric])
    }
}

/// One generated frame: which node sends it, how its timestamp moves,
/// and which metrics arrive corrupted.
type Step = (usize, u8, Vec<(usize, u8)>);

fn arb_stream() -> impl Strategy<Value = (usize, u32, Vec<Step>)> {
    // Corruption lands mostly on three metrics, so streaks build up and
    // metrics die and revive; sometimes anywhere in the frame.
    let metric = prop_oneof![0usize..3, 0usize..METRIC_COUNT];
    // Kinds 0–2 are NaN, +∞ and −∞; 3–7 leave the value finite.
    let corruption = prop::collection::vec((metric, 0u8..8), 0..=3);
    (1usize..=4, 0u32..=3, prop::collection::vec((0usize..4, 0u8..16, corruption), 1..160))
}

/// The next timestamp of a node: mostly on cadence, sometimes a
/// duplicate, a late arrival or a gap of one to three instants.
fn next_time(last: Option<u64>, move_kind: u8) -> u64 {
    let Some(last) = last else { return 5 * u64::from(move_kind) };
    match move_kind {
        0 => last,
        1 => last.saturating_sub(5),
        2 => last.saturating_sub(3),
        3 => last + 10,
        4 => last + 20,
        5 => last + 7,
        _ => last + 5,
    }
}

fn frame_values(node: usize, t: u64, corruption: &[(usize, u8)]) -> Vec<f64> {
    let mut values: Vec<f64> =
        (0..METRIC_COUNT).map(|i| (node * 100 + i) as f64 + (t % 17) as f64 * 0.25).collect();
    for &(metric, kind) in corruption {
        values[metric] = match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => values[metric],
        };
    }
    values
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn guard_matches_the_reference_model((nodes, max_streak, steps) in arb_stream()) {
        let config = GuardConfig { max_repair_streak: max_streak, ..GuardConfig::default() };
        let mut reference = RefGuard::new(config);
        let mut by_value = FrameGuard::new(config);
        let mut by_row = FrameGuard::new(config);
        let mut clock: Vec<Option<u64>> = vec![None; nodes];
        for (k, (node, move_kind, corruption)) in steps.iter().enumerate() {
            let node = node % nodes;
            let t = next_time(clock[node], *move_kind);
            clock[node] = Some(clock[node].map_or(t, |last| last.max(t)));
            let values = frame_values(node, t, corruption);
            let id = NodeId(node as u32);
            let snap = Snapshot::new(id, t, MetricFrame::from_values(&values).unwrap());

            let (verdict, frame, gap) = reference.admit(&snap);
            let a = by_value.admit(&snap);
            let mut row = [f64::NAN; METRIC_COUNT];
            let (row_verdict, row_gap) = by_row.admit_into(&snap, &mut row);

            prop_assert_eq!(a.verdict, verdict, "frame {}: admit verdict", k);
            prop_assert_eq!(row_verdict, verdict, "frame {}: admit_into verdict", k);
            prop_assert_eq!(a.gap, gap, "frame {}: admit gap", k);
            prop_assert_eq!(row_gap, gap, "frame {}: admit_into gap", k);
            let expected = frame.as_deref().map(bits);
            prop_assert_eq!(
                a.frame.as_ref().map(|f| bits(f.as_slice())),
                expected.clone(),
                "frame {}: admit values",
                k
            );
            if verdict.is_usable() {
                prop_assert_eq!(Some(bits(&row)), expected, "frame {}: admit_into values", k);
            }
            prop_assert_eq!(by_value.health(), &reference.health, "frame {}: admit health", k);
            prop_assert_eq!(by_row.health(), &reference.health, "frame {}: admit_into health", k);
            for n in 0..nodes {
                let n = NodeId(n as u32);
                for metric in 0..METRIC_COUNT {
                    let streak = reference.repair_streak(n, metric);
                    prop_assert_eq!(by_value.repair_streak(n, metric), streak);
                    prop_assert_eq!(by_row.repair_streak(n, metric), streak);
                }
            }
        }
    }
}
