//! Deterministic fault injection for the monitoring path.
//!
//! The paper's profiler rides on Ganglia's UDP multicast (§4.1), where
//! dropped, duplicated, reordered, stale and corrupt announcements are
//! normal operating conditions. This module injects exactly those faults —
//! reproducibly. A [`FaultPlan`] bundles independent seeded rates for every
//! fault family; the same plan (same seed, same input) always produces the
//! same degraded stream, so chaos experiments are bit-reproducible.
//!
//! Three injection points, one taxonomy:
//!
//! * [`FaultySource`] wraps a [`MetricSource`] and injects *value-level*
//!   faults at sampling time: stalls (stale repeats of the previous frame),
//!   value spikes, and non-finite corruption.
//! * [`FaultyChannel`] mangles *wire-level* datagrams between
//!   [`wire::encode`](crate::wire::encode) and
//!   [`wire::decode`](crate::wire::decode): drops, duplicates, reorders and
//!   byte truncation.
//! * [`FaultPlan::degrade`] applies the whole taxonomy to a recorded
//!   snapshot stream in one deterministic pass — the convenience path the
//!   chaos test suite sweeps.

use crate::metric::{MetricFrame, METRIC_COUNT};
use crate::snapshot::Snapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Independent seeded rates for every fault family.
///
/// All rates are probabilities in `[0, 1]`, applied per frame (or per
/// datagram for the wire-level faults). The `seed` fully determines the
/// injected fault sequence for a given input stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the fault stream; same seed ⇒ identical degradation.
    pub seed: u64,
    /// Probability a frame is silently lost.
    pub drop_rate: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a frame is held back and delivered after its successor.
    pub reorder_rate: f64,
    /// Probability a frame is replaced by a stale repeat of the previous
    /// delivered frame (a stalled gmond re-announcing its last reading).
    pub stall_rate: f64,
    /// Probability one metric value is multiplied by [`FaultPlan::spike_factor`].
    pub spike_rate: f64,
    /// Magnitude of an injected value spike.
    pub spike_factor: f64,
    /// Probability one metric value is replaced by a non-finite value
    /// (NaN, `+inf` or `-inf`).
    pub corrupt_rate: f64,
    /// Probability a wire datagram is truncated at a random byte offset
    /// (only meaningful through [`FaultyChannel`]).
    pub truncate_rate: f64,
}

impl FaultPlan {
    /// A plan that injects nothing — the control arm of a chaos sweep.
    pub fn lossless(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            stall_rate: 0.0,
            spike_rate: 0.0,
            spike_factor: 1.0e3,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
        }
    }

    /// The default chaos mix: moderate loss with every fault family active
    /// at rates a busy multicast subnet plausibly exhibits.
    pub fn moderate(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.05,
            duplicate_rate: 0.02,
            reorder_rate: 0.02,
            stall_rate: 0.02,
            spike_rate: 0.01,
            spike_factor: 1.0e3,
            corrupt_rate: 0.02,
            truncate_rate: 0.01,
        }
    }

    /// Returns the plan with the frame-drop rate replaced (clamped to
    /// `[0, 1]`) — the knob chaos sweeps turn.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Returns the plan with the non-finite corruption rate replaced.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Returns the plan re-seeded; everything else unchanged.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sum of all frame-level fault rates — a rough upper bound on the
    /// fraction of frames affected in any way.
    pub fn total_rate(&self) -> f64 {
        self.drop_rate
            + self.duplicate_rate
            + self.reorder_rate
            + self.stall_rate
            + self.spike_rate
            + self.corrupt_rate
            + self.truncate_rate
    }

    /// The generator driving this plan's fault stream.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// Applies the value-level faults (spike, non-finite corruption) to one
    /// frame in place. Returns `true` if anything was mutated.
    pub fn mangle_frame<R: Rng + ?Sized>(&self, rng: &mut R, frame: &mut MetricFrame) -> bool {
        let mut touched = false;
        if self.spike_rate > 0.0 && rng.gen_bool(self.spike_rate) {
            let idx = rng.gen_range(0..METRIC_COUNT);
            let id = crate::metric::MetricId::from_index(idx).expect("index in range");
            frame.set(id, frame.get(id) * self.spike_factor + 1.0);
            touched = true;
        }
        if self.corrupt_rate > 0.0 && rng.gen_bool(self.corrupt_rate) {
            let idx = rng.gen_range(0..METRIC_COUNT);
            let id = crate::metric::MetricId::from_index(idx).expect("index in range");
            let bad = match rng.gen_range(0u32..3) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            };
            frame.set(id, bad);
            touched = true;
        }
        touched
    }

    /// Runs a recorded snapshot stream through the full fault taxonomy
    /// (drop, stall, spike, corruption, duplication, reordering) in one
    /// deterministic pass. Byte truncation has no snapshot-level analogue
    /// and is only injected by [`FaultyChannel`].
    ///
    /// The output is what a lossy subnet would have delivered: possibly
    /// shorter (drops), possibly longer (duplicates), possibly out of time
    /// order (reorders), with stale and corrupt frames mixed in.
    pub fn degrade(&self, snapshots: &[Snapshot]) -> Vec<Snapshot> {
        let mut rng = self.rng();
        let mut out: Vec<Snapshot> = Vec::with_capacity(snapshots.len());
        let mut prev: Option<Snapshot> = None;
        let mut held: Option<Snapshot> = None;
        for snap in snapshots {
            if self.drop_rate > 0.0 && rng.gen_bool(self.drop_rate) {
                continue;
            }
            let mut s = snap.clone();
            if let Some(p) = &prev {
                if self.stall_rate > 0.0 && rng.gen_bool(self.stall_rate) {
                    // A stalled daemon re-announces its previous reading
                    // verbatim, timestamp included.
                    s = p.clone();
                }
            }
            self.mangle_frame(&mut rng, &mut s.frame);
            prev = Some(s.clone());
            if self.reorder_rate > 0.0 && held.is_none() && rng.gen_bool(self.reorder_rate) {
                held = Some(s);
                continue;
            }
            let duplicate = self.duplicate_rate > 0.0 && rng.gen_bool(self.duplicate_rate);
            out.push(s.clone());
            if duplicate {
                out.push(s);
            }
            if let Some(h) = held.take() {
                // The held frame arrives late: after its successor.
                out.push(h);
            }
        }
        if let Some(h) = held.take() {
            out.push(h);
        }
        out
    }
}

/// Anything that can produce a metric frame on demand — re-exported trait
/// bound for [`FaultySource`].
pub use crate::gmond::MetricSource;

/// A [`MetricSource`] adapter that injects value-level faults (stalls,
/// spikes, non-finite corruption) into every sample, deterministically per
/// plan seed.
///
/// Stream-level faults (drop/duplicate/reorder) cannot be expressed at the
/// `sample()` interface — a source must return exactly one frame — so they
/// live in [`FaultyChannel`] and [`FaultPlan::degrade`].
#[derive(Debug, Clone)]
pub struct FaultySource<S: MetricSource> {
    inner: S,
    plan: FaultPlan,
    rng: StdRng,
    last: Option<MetricFrame>,
}

impl<S: MetricSource> FaultySource<S> {
    /// Wraps `inner`, injecting faults per `plan`. The fault stream is
    /// decorrelated from other adapters by folding the node id into the
    /// seed.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        let seed = plan.seed ^ (u64::from(inner.node().0) << 32);
        FaultySource { inner, plan, rng: StdRng::seed_from_u64(seed), last: None }
    }

    /// Read access to the wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: MetricSource> MetricSource for FaultySource<S> {
    fn node(&self) -> crate::snapshot::NodeId {
        self.inner.node()
    }

    fn sample(&mut self, time: u64) -> MetricFrame {
        let mut frame = self.inner.sample(time);
        if let Some(last) = &self.last {
            if self.plan.stall_rate > 0.0 && self.rng.gen_bool(self.plan.stall_rate) {
                frame = last.clone();
            }
        }
        self.plan.mangle_frame(&mut self.rng, &mut frame);
        self.last = Some(frame.clone());
        frame
    }
}

/// Delivery counters for one [`FaultyChannel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Datagrams offered to the channel.
    pub sent: u64,
    /// Datagrams silently dropped.
    pub dropped: u64,
    /// Datagrams delivered twice.
    pub duplicated: u64,
    /// Datagrams delivered after their successor.
    pub reordered: u64,
    /// Datagrams delivered with truncated payloads.
    pub truncated: u64,
}

impl ChannelStats {
    /// Sums another channel's counters into this one.
    pub fn merge(&mut self, other: &ChannelStats) {
        self.sent += other.sent;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.truncated += other.truncated;
    }
}

/// A lossy wire between `wire::encode` and `wire::decode`: drops,
/// duplicates, reorders and truncates datagrams per the plan's rates.
///
/// # Examples
///
/// ```
/// use appclass_metrics::faults::{FaultPlan, FaultyChannel};
/// use appclass_metrics::wire;
/// use appclass_metrics::{MetricFrame, NodeId, Snapshot};
///
/// let snap = Snapshot::new(NodeId(1), 5, MetricFrame::zeroed());
/// let mut chan = FaultyChannel::new(FaultPlan::lossless(7));
/// let delivered = chan.transmit(&wire::encode(&snap));
/// assert_eq!(delivered.len(), 1);
/// assert_eq!(wire::decode(&delivered[0]).unwrap(), snap);
/// ```
#[derive(Debug, Clone)]
pub struct FaultyChannel {
    plan: FaultPlan,
    rng: StdRng,
    held: Option<Vec<u8>>,
    stats: ChannelStats,
}

impl FaultyChannel {
    /// A channel driven by the plan's wire-relevant rates (and, in
    /// [`FaultyChannel::transmit_snapshot`], its value-fault rates).
    pub fn new(plan: FaultPlan) -> Self {
        FaultyChannel { rng: plan.rng(), plan, held: None, stats: ChannelStats::default() }
    }

    /// Like [`FaultyChannel::new`], but folding `salt` into the seed so
    /// per-node channels built from one plan are decorrelated.
    pub fn with_salt(plan: FaultPlan, salt: u64) -> Self {
        let mut salted = plan;
        salted.seed = plan.seed ^ salt.rotate_left(17);
        FaultyChannel::new(salted)
    }

    /// Pushes one datagram through the lossy wire, returning what actually
    /// arrives (zero, one or more datagrams, possibly mangled, possibly
    /// including an earlier held-back datagram).
    pub fn transmit(&mut self, datagram: &[u8]) -> Vec<Vec<u8>> {
        self.stats.sent += 1;
        if self.plan.drop_rate > 0.0 && self.rng.gen_bool(self.plan.drop_rate) {
            self.stats.dropped += 1;
            return self.flush_held(Vec::new());
        }
        let mut bytes = datagram.to_vec();
        if self.plan.truncate_rate > 0.0
            && !bytes.is_empty()
            && self.rng.gen_bool(self.plan.truncate_rate)
        {
            let keep = self.rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
            self.stats.truncated += 1;
        }
        if self.plan.reorder_rate > 0.0
            && self.held.is_none()
            && self.rng.gen_bool(self.plan.reorder_rate)
        {
            self.stats.reordered += 1;
            self.held = Some(bytes);
            return Vec::new();
        }
        let mut out = Vec::with_capacity(2);
        let duplicate =
            self.plan.duplicate_rate > 0.0 && self.rng.gen_bool(self.plan.duplicate_rate);
        if duplicate {
            self.stats.duplicated += 1;
            out.push(bytes.clone());
        }
        out.push(bytes);
        self.flush_held(out)
    }

    /// Encodes `snapshot` and pushes it through the lossy wire, after
    /// applying the plan's value-level faults (spike, non-finite
    /// corruption) to a copy of it with this channel's generator. A plan
    /// whose value-fault rates are zero draws nothing extra, so it
    /// delivers exactly what [`FaultyChannel::transmit`] of the clean
    /// datagram would.
    pub fn transmit_snapshot(&mut self, snapshot: &Snapshot) -> Vec<Vec<u8>> {
        let mut faulty = snapshot.clone();
        self.plan.mangle_frame(&mut self.rng, &mut faulty.frame);
        self.transmit(&crate::wire::datagram(&faulty))
    }

    /// Any datagram still held back for reordering (call at end of stream).
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        self.held.take().into_iter().collect()
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn flush_held(&mut self, mut out: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        if let Some(h) = self.held.take() {
            out.push(h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmond::ConstantSource;
    use crate::metric::MetricId;
    use crate::snapshot::NodeId;
    use crate::wire;

    fn stream(n: u64) -> Vec<Snapshot> {
        (0..n)
            .map(|i| {
                let mut f = MetricFrame::zeroed();
                f.set(MetricId::CpuUser, 50.0 + i as f64);
                Snapshot::new(NodeId(1), i * 5, f)
            })
            .collect()
    }

    #[test]
    fn lossless_plan_is_identity() {
        let snaps = stream(40);
        let plan = FaultPlan::lossless(1);
        assert_eq!(plan.degrade(&snaps), snaps);
        assert_eq!(plan.total_rate(), 0.0);
    }

    /// Bit-level image of a snapshot stream, so NaN-carrying frames still
    /// compare equal when they are byte-identical.
    fn bits(snaps: &[Snapshot]) -> Vec<(u32, u64, Vec<u64>)> {
        snaps
            .iter()
            .map(|s| (s.node.0, s.time, s.frame.as_slice().iter().map(|v| v.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn degrade_is_deterministic_per_seed() {
        let snaps = stream(200);
        let plan = FaultPlan::moderate(42);
        let a = plan.degrade(&snaps);
        let b = plan.degrade(&snaps);
        assert_eq!(bits(&a), bits(&b), "same seed, same input ⇒ identical degradation");
        let c = plan.with_seed(43).degrade(&snaps);
        assert_ne!(bits(&a), bits(&c), "different seed ⇒ different fault stream");
    }

    #[test]
    fn drop_rate_thins_the_stream() {
        let snaps = stream(400);
        let plan = FaultPlan::lossless(7).with_drop_rate(0.25);
        let out = plan.degrade(&snaps);
        let survived = out.len() as f64 / snaps.len() as f64;
        assert!((0.6..0.9).contains(&survived), "25% drop left {survived}");
    }

    #[test]
    fn corruption_injects_non_finite_values() {
        let snaps = stream(300);
        let plan = FaultPlan::lossless(9).with_corrupt_rate(0.2);
        let out = plan.degrade(&snaps);
        let bad = out.iter().filter(|s| s.frame.first_non_finite().is_some()).count();
        assert!(bad > 20, "expected corrupted frames, got {bad}");
    }

    #[test]
    fn reordering_breaks_monotonic_timestamps() {
        let snaps = stream(300);
        let mut plan = FaultPlan::lossless(11);
        plan.reorder_rate = 0.2;
        let out = plan.degrade(&snaps);
        assert_eq!(out.len(), snaps.len(), "reordering neither adds nor removes");
        let inversions = out.windows(2).filter(|w| w[0].time > w[1].time).count();
        assert!(inversions > 10, "expected out-of-order pairs, got {inversions}");
    }

    #[test]
    fn stalls_repeat_the_previous_frame() {
        let snaps = stream(300);
        let mut plan = FaultPlan::lossless(13);
        plan.stall_rate = 0.2;
        let out = plan.degrade(&snaps);
        let stale = out.windows(2).filter(|w| w[1] == w[0]).count();
        assert!(stale > 10, "expected stale repeats, got {stale}");
    }

    #[test]
    fn faulty_source_is_deterministic_and_injects() {
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::CpuUser, 80.0);
        let mut plan = FaultPlan::lossless(5);
        plan.corrupt_rate = 0.3;
        plan.stall_rate = 0.1;
        let mut a = FaultySource::new(ConstantSource::new(NodeId(3), f.clone()), plan);
        let mut b = FaultySource::new(ConstantSource::new(NodeId(3), f), plan);
        let mut corrupted = 0;
        for t in 0..200 {
            let fa = a.sample(t);
            let fb = b.sample(t);
            let fa_bits: Vec<u64> = fa.as_slice().iter().map(|v| v.to_bits()).collect();
            let fb_bits: Vec<u64> = fb.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fa_bits, fb_bits, "same plan+node ⇒ same faulty stream");
            if fa.first_non_finite().is_some() {
                corrupted += 1;
            }
        }
        assert!(corrupted > 20, "corruption must actually fire: {corrupted}");
        assert_eq!(a.node(), NodeId(3));
        assert_eq!(a.inner().node(), NodeId(3));
    }

    #[test]
    fn channel_faults_surface_as_decode_errors_or_loss() {
        let snaps = stream(400);
        let mut plan = FaultPlan::lossless(21);
        plan.drop_rate = 0.1;
        plan.truncate_rate = 0.1;
        plan.duplicate_rate = 0.05;
        let mut chan = FaultyChannel::new(plan);
        let mut delivered = 0u64;
        let mut malformed = 0u64;
        for s in &snaps {
            for datagram in chan.transmit(&wire::encode(s)) {
                match wire::decode(&datagram) {
                    Ok(_) => delivered += 1,
                    Err(_) => malformed += 1,
                }
            }
        }
        for datagram in chan.drain() {
            let _ = wire::decode(&datagram);
        }
        let stats = chan.stats();
        assert_eq!(stats.sent, 400);
        assert!(stats.dropped > 10, "{stats:?}");
        assert!(stats.truncated > 10, "{stats:?}");
        assert!(malformed >= stats.truncated - 1, "truncated datagrams must fail decode");
        assert!(delivered > 250, "most datagrams still arrive: {delivered}");
    }

    #[test]
    fn channel_reorder_holds_then_releases() {
        let snaps = stream(3);
        let mut plan = FaultPlan::lossless(1);
        plan.reorder_rate = 1.0; // hold the first, deliver after the second
        let mut chan = FaultyChannel::new(plan);
        let first = chan.transmit(&wire::encode(&snaps[0]));
        assert!(first.is_empty(), "held back");
        let second = chan.transmit(&wire::encode(&snaps[1]));
        assert_eq!(second.len(), 2, "successor plus the held-back datagram");
        let t0 = wire::decode(&second[0]).unwrap().time;
        let t1 = wire::decode(&second[1]).unwrap().time;
        assert!(t0 > t1, "held datagram arrives late: {t0} then {t1}");
    }

    #[test]
    fn salted_channels_decorrelate() {
        let plan = FaultPlan::moderate(3);
        let snaps = stream(100);
        let run = |mut chan: FaultyChannel| -> Vec<usize> {
            snaps.iter().map(|s| chan.transmit(&wire::encode(s)).len()).collect()
        };
        let a = run(FaultyChannel::with_salt(plan, 1));
        let b = run(FaultyChannel::with_salt(plan, 2));
        assert_ne!(a, b, "different salts must not replay the same faults");
        assert_eq!(a, run(FaultyChannel::with_salt(plan, 1)), "same salt replays");
    }
}
