//! The per-node monitoring daemon and the announce/listen metric bus.
//!
//! Ganglia's gmond multicasts each node's metrics on a subnet; every
//! listener receives every node's announcements. [`MetricBus`] reproduces
//! that topology over std `mpsc` channels: any number of [`Gmond`] daemons
//! announce, any number of subscribers listen, and each subscriber observes
//! the full subnet traffic (which is why the paper needs a *performance
//! filter* downstream to pick out the target node).

use crate::error::{Error, Result};
use crate::metric::MetricFrame;
use crate::snapshot::{NodeId, Snapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Anything that can produce a metric frame on demand: the simulated VM's
/// `/proc`-like surface implements this in `appclass-sim`.
pub trait MetricSource {
    /// The node this source describes.
    fn node(&self) -> NodeId;
    /// Samples the current metric values at simulation time `time` (s).
    fn sample(&mut self, time: u64) -> MetricFrame;
}

/// A trivially constructible source for tests: replays a fixed frame.
#[derive(Debug, Clone)]
pub struct ConstantSource {
    node: NodeId,
    frame: MetricFrame,
}

impl ConstantSource {
    /// Creates a source that always reports `frame` for `node`.
    pub fn new(node: NodeId, frame: MetricFrame) -> Self {
        ConstantSource { node, frame }
    }
}

impl MetricSource for ConstantSource {
    fn node(&self) -> NodeId {
        self.node
    }

    fn sample(&mut self, _time: u64) -> MetricFrame {
        self.frame.clone()
    }
}

/// The announce/listen bus emulating Ganglia's multicast group.
///
/// Announcements are fanned out to every live subscriber. Subscribers that
/// have been dropped are pruned lazily on the next announce.
///
/// # Examples
///
/// ```
/// use appclass_metrics::gmond::{ConstantSource, Gmond, MetricBus};
/// use appclass_metrics::{MetricFrame, NodeId};
///
/// let bus = MetricBus::new();
/// let listener = bus.subscribe();
/// let mut daemon = Gmond::new(ConstantSource::new(NodeId(1), MetricFrame::zeroed()));
/// daemon.announce_tick(5, &bus).unwrap();
/// let snapshot = listener.try_recv().unwrap();
/// assert_eq!(snapshot.node, NodeId(1));
/// assert_eq!(snapshot.time, 5);
/// ```
#[derive(Default)]
pub struct MetricBus {
    subscribers: Mutex<Vec<Sender<Snapshot>>>,
}

impl MetricBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        MetricBus { subscribers: Mutex::new(Vec::new()) }
    }

    /// Registers a listener; the returned receiver sees every subsequent
    /// announcement from every node.
    pub fn subscribe(&self) -> Receiver<Snapshot> {
        let (tx, rx) = mpsc::channel();
        self.subscribers().push(tx);
        rx
    }

    /// Number of currently registered listeners (including dead ones not
    /// yet pruned).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers().len()
    }

    /// Multicasts a snapshot to all listeners.
    ///
    /// Returns [`Error::BusClosed`] if no listener is left to hear it —
    /// announcing into the void usually indicates a wiring bug in the
    /// monitoring setup.
    pub fn announce(&self, snapshot: Snapshot) -> Result<()> {
        let mut subs = self.subscribers();
        subs.retain(|tx| tx.send(snapshot.clone()).is_ok());
        if subs.is_empty() {
            return Err(Error::BusClosed);
        }
        Ok(())
    }

    /// The listener list, locked whether or not a thread panicked while
    /// holding it: `push` and `retain` cannot leave it half-changed.
    fn subscribers(&self) -> MutexGuard<'_, Vec<Sender<Snapshot>>> {
        self.subscribers.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A per-node monitoring daemon: samples its [`MetricSource`] and announces
/// the snapshot on the bus, like gmond's periodic metric broadcast.
pub struct Gmond<S: MetricSource> {
    source: S,
}

impl<S: MetricSource> Gmond<S> {
    /// Wraps a metric source in a daemon.
    pub fn new(source: S) -> Self {
        Gmond { source }
    }

    /// The node this daemon monitors.
    pub fn node(&self) -> NodeId {
        self.source.node()
    }

    /// Samples once at `time` and announces the snapshot.
    pub fn announce_tick(&mut self, time: u64, bus: &MetricBus) -> Result<Snapshot> {
        let frame = self.source.sample(time);
        let snap = Snapshot::new(self.source.node(), time, frame);
        bus.announce(snap.clone())?;
        Ok(snap)
    }

    /// Like [`Gmond::announce_tick`], but routing the announcement through
    /// the wire codec and a lossy [`FaultyChannel`](crate::faults::FaultyChannel)
    /// — the shape of a real UDP multicast hop. Each surviving datagram
    /// that still decodes is announced; mangled ones are counted into
    /// `guard` as malformed. Returns how many snapshots were announced
    /// (possibly zero when the channel dropped the datagram).
    pub fn announce_tick_wire(
        &mut self,
        time: u64,
        bus: &MetricBus,
        channel: &mut crate::faults::FaultyChannel,
        guard: &mut crate::repair::FrameGuard,
    ) -> Result<usize> {
        let frame = self.source.sample(time);
        let snap = Snapshot::new(self.source.node(), time, frame);
        let mut announced = 0;
        for datagram in channel.transmit(&crate::wire::encode(&snap)) {
            match crate::wire::decode(&datagram) {
                Ok(decoded) => {
                    bus.announce(decoded)?;
                    announced += 1;
                }
                Err(_) => guard.note_malformed(),
            }
        }
        Ok(announced)
    }

    /// Announces once per time in `times` (the deterministic synchronous
    /// drive mode used by the reproduction experiments).
    pub fn run_ticks(
        &mut self,
        bus: &MetricBus,
        times: impl IntoIterator<Item = u64>,
    ) -> Result<usize> {
        let mut n = 0;
        for t in times {
            self.announce_tick(t, bus)?;
            n += 1;
        }
        Ok(n)
    }

    /// Read access to the wrapped source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Consumes the daemon, returning the wrapped source.
    pub fn into_source(self) -> S {
        self.source
    }
}

/// Runs one gmond per source concurrently, each on its own thread,
/// announcing at every time in `times`. Demonstrates that the bus is safe
/// under real concurrency; experiment code uses the synchronous mode for
/// determinism.
pub fn run_threaded<S>(sources: Vec<S>, bus: &MetricBus, times: &[u64]) -> Result<usize>
where
    S: MetricSource + Send,
{
    let total = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for source in sources {
            let total = &total;
            scope.spawn(move || {
                let mut gmond = Gmond::new(source);
                let n = gmond.run_ticks(bus, times.iter().copied()).unwrap_or(0);
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    let n = total.into_inner();
    if n == 0 && !times.is_empty() {
        return Err(Error::BusClosed);
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricId;

    fn frame(v: f64) -> MetricFrame {
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::CpuUser, v);
        f
    }

    #[test]
    fn announce_reaches_all_subscribers() {
        let bus = MetricBus::new();
        let rx1 = bus.subscribe();
        let rx2 = bus.subscribe();
        bus.announce(Snapshot::new(NodeId(1), 0, frame(1.0))).unwrap();
        assert_eq!(rx1.try_recv().unwrap().node, NodeId(1));
        assert_eq!(rx2.try_recv().unwrap().node, NodeId(1));
    }

    #[test]
    fn announce_without_subscribers_errors() {
        let bus = MetricBus::new();
        assert_eq!(bus.announce(Snapshot::new(NodeId(1), 0, frame(0.0))), Err(Error::BusClosed));
    }

    #[test]
    fn dead_subscribers_are_pruned() {
        let bus = MetricBus::new();
        let rx1 = bus.subscribe();
        let rx2 = bus.subscribe();
        assert_eq!(bus.subscriber_count(), 2);
        drop(rx2);
        bus.announce(Snapshot::new(NodeId(1), 0, frame(0.0))).unwrap();
        assert_eq!(bus.subscriber_count(), 1);
        assert!(rx1.try_recv().is_ok());
    }

    #[test]
    fn announce_survives_subscriber_dropped_mid_stream() {
        // Regression: a listener disappearing between announcements must
        // not error the announce for the survivors — the dead receiver is
        // pruned and delivery to everyone else continues.
        let bus = MetricBus::new();
        let keeper = bus.subscribe();
        let mut g = Gmond::new(ConstantSource::new(NodeId(1), frame(1.0)));
        for tick in 0..5u64 {
            // A short-lived subscriber joins and dies every tick.
            let ephemeral = bus.subscribe();
            drop(ephemeral);
            g.announce_tick(tick * 5, &bus).unwrap();
        }
        assert_eq!(bus.subscriber_count(), 1, "only the keeper remains");
        assert_eq!(keeper.try_iter().count(), 5, "keeper missed nothing");
    }

    #[test]
    fn announce_errors_only_when_last_subscriber_is_gone() {
        let bus = MetricBus::new();
        let rx = bus.subscribe();
        bus.announce(Snapshot::new(NodeId(1), 0, frame(0.0))).unwrap();
        drop(rx);
        // Now truly nobody is listening: announcing is a wiring bug.
        assert_eq!(bus.announce(Snapshot::new(NodeId(1), 5, frame(0.0))), Err(Error::BusClosed));
    }

    #[test]
    fn wire_tick_lossless_matches_direct_announce() {
        use crate::faults::{FaultPlan, FaultyChannel};
        use crate::repair::FrameGuard;
        let bus = MetricBus::new();
        let rx = bus.subscribe();
        let mut chan = FaultyChannel::new(FaultPlan::lossless(3));
        let mut guard = FrameGuard::default();
        let mut g = Gmond::new(ConstantSource::new(NodeId(2), frame(7.0)));
        let n = g.announce_tick_wire(10, &bus, &mut chan, &mut guard).unwrap();
        assert_eq!(n, 1);
        let got = rx.try_recv().unwrap();
        assert_eq!(got, Snapshot::new(NodeId(2), 10, frame(7.0)));
        assert_eq!(guard.health().malformed, 0);
    }

    #[test]
    fn wire_tick_truncation_is_counted_not_fatal() {
        use crate::faults::{FaultPlan, FaultyChannel};
        use crate::repair::FrameGuard;
        let bus = MetricBus::new();
        let rx = bus.subscribe();
        let mut plan = FaultPlan::lossless(5);
        plan.truncate_rate = 1.0; // every datagram arrives mangled
        let mut chan = FaultyChannel::new(plan);
        let mut guard = FrameGuard::default();
        let mut g = Gmond::new(ConstantSource::new(NodeId(1), frame(1.0)));
        for t in 0..10u64 {
            let n = g.announce_tick_wire(t * 5, &bus, &mut chan, &mut guard).unwrap();
            assert_eq!(n, 0, "nothing decodable should be announced");
        }
        assert_eq!(guard.health().malformed, 10);
        assert!(rx.try_recv().is_err(), "no snapshot survived");
    }

    #[test]
    fn gmond_tick_announces_sampled_frame() {
        let bus = MetricBus::new();
        let rx = bus.subscribe();
        let mut g = Gmond::new(ConstantSource::new(NodeId(5), frame(33.0)));
        assert_eq!(g.node(), NodeId(5));
        let snap = g.announce_tick(42, &bus).unwrap();
        assert_eq!(snap.time, 42);
        let got = rx.try_recv().unwrap();
        assert_eq!(got.frame.get(MetricId::CpuUser), 33.0);
    }

    #[test]
    fn run_ticks_counts() {
        let bus = MetricBus::new();
        let _rx = bus.subscribe();
        let mut g = Gmond::new(ConstantSource::new(NodeId(1), frame(1.0)));
        let n = g.run_ticks(&bus, (0..50).step_by(5)).unwrap();
        assert_eq!(n, 10);
        assert_eq!(_rx.try_iter().count(), 10);
    }

    #[test]
    fn multicast_semantics_every_listener_sees_every_node() {
        let bus = MetricBus::new();
        let rx = bus.subscribe();
        let mut g1 = Gmond::new(ConstantSource::new(NodeId(1), frame(1.0)));
        let mut g2 = Gmond::new(ConstantSource::new(NodeId(2), frame(2.0)));
        g1.announce_tick(0, &bus).unwrap();
        g2.announce_tick(0, &bus).unwrap();
        let nodes: Vec<NodeId> = rx.try_iter().map(|s| s.node).collect();
        assert_eq!(nodes, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn threaded_gmonds_deliver_everything() {
        let bus = MetricBus::new();
        let rx = bus.subscribe();
        let sources: Vec<_> =
            (0..4).map(|i| ConstantSource::new(NodeId(i), frame(i as f64))).collect();
        let times: Vec<u64> = (0..100).collect();
        let n = run_threaded(sources, &bus, &times).unwrap();
        assert_eq!(n, 400);
        let delivered: Vec<Snapshot> = rx.try_iter().collect();
        assert_eq!(delivered.len(), 400);
        // every node contributed exactly 100 snapshots
        let mut counts = [0usize; 4];
        for s in delivered {
            counts[s.node.0 as usize] += 1;
        }
        assert_eq!(counts, [100; 4]);
    }
}
