//! Subnet-wide metric aggregation (the gmetad analogue).
//!
//! In the paper's deployment, Ganglia's listen/announce protocol means any
//! listener accumulates the performance data of *all* nodes in the subnet.
//! [`Aggregator`] is that listener: it subscribes to a [`MetricBus`] and
//! drains announcements into a [`DataPool`].

use crate::gmond::MetricBus;
use crate::repair::FrameGuard;
use crate::snapshot::{DataPool, NodeId, Snapshot};
use std::sync::mpsc::Receiver;

/// A bus listener that accumulates every node's snapshots.
pub struct Aggregator {
    rx: Receiver<Snapshot>,
    pool: DataPool,
}

impl Aggregator {
    /// Subscribes a new aggregator to the bus.
    pub fn subscribe(bus: &MetricBus) -> Self {
        Aggregator { rx: bus.subscribe(), pool: DataPool::new() }
    }

    /// Moves every announcement received so far into the pool; returns how
    /// many were drained.
    pub fn drain(&mut self) -> usize {
        let mut n = 0;
        for snap in self.rx.try_iter() {
            self.pool.push(snap);
            n += 1;
        }
        n
    }

    /// Like [`Aggregator::drain`], but routing every announcement through
    /// a [`FrameGuard`] first: only accepted or repaired frames (with the
    /// guard's patches applied) reach the pool. Returns how many frames
    /// were admitted; drops are tallied in the guard's
    /// [`TelemetryHealth`](crate::repair::TelemetryHealth).
    pub fn drain_guarded(&mut self, guard: &mut FrameGuard) -> usize {
        let mut admitted = 0;
        for snap in self.rx.try_iter() {
            let admission = guard.admit(&snap);
            if let Some(frame) = admission.frame {
                self.pool.push(Snapshot::new(snap.node, snap.time, frame));
                admitted += 1;
            }
        }
        admitted
    }

    /// Read access to the accumulated pool.
    pub fn pool(&self) -> &DataPool {
        &self.pool
    }

    /// Consumes the aggregator, yielding the accumulated pool.
    pub fn into_pool(mut self) -> DataPool {
        self.drain();
        self.pool
    }

    /// Number of snapshots accumulated for a given node.
    pub fn count_for(&self, node: NodeId) -> usize {
        self.pool.count_for(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmond::{ConstantSource, Gmond};
    use crate::metric::MetricFrame;

    #[test]
    fn aggregator_sees_all_nodes() {
        let bus = MetricBus::new();
        let mut agg = Aggregator::subscribe(&bus);
        let mut g1 = Gmond::new(ConstantSource::new(NodeId(1), MetricFrame::zeroed()));
        let mut g2 = Gmond::new(ConstantSource::new(NodeId(2), MetricFrame::zeroed()));
        for t in [0u64, 5, 10] {
            g1.announce_tick(t, &bus).unwrap();
            g2.announce_tick(t, &bus).unwrap();
        }
        assert_eq!(agg.drain(), 6);
        assert_eq!(agg.count_for(NodeId(1)), 3);
        assert_eq!(agg.count_for(NodeId(2)), 3);
        assert_eq!(agg.pool().nodes(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn drain_is_incremental() {
        let bus = MetricBus::new();
        let mut agg = Aggregator::subscribe(&bus);
        let mut g = Gmond::new(ConstantSource::new(NodeId(1), MetricFrame::zeroed()));
        g.announce_tick(0, &bus).unwrap();
        assert_eq!(agg.drain(), 1);
        assert_eq!(agg.drain(), 0);
        g.announce_tick(5, &bus).unwrap();
        assert_eq!(agg.drain(), 1);
        assert_eq!(agg.pool().len(), 2);
    }

    #[test]
    fn drain_guarded_repairs_and_filters() {
        use crate::metric::MetricId;
        use crate::repair::GuardConfig;
        let bus = MetricBus::new();
        let mut agg = Aggregator::subscribe(&bus);
        let mut guard = FrameGuard::new(GuardConfig::default());
        let mut clean = MetricFrame::zeroed();
        clean.set(MetricId::CpuUser, 30.0);
        bus.announce(Snapshot::new(NodeId(1), 0, clean.clone())).unwrap();
        let mut dirty = clean.clone();
        dirty.set(MetricId::CpuUser, f64::NAN);
        bus.announce(Snapshot::new(NodeId(1), 5, dirty)).unwrap();
        // Duplicate of t=5: must be filtered out.
        bus.announce(Snapshot::new(NodeId(1), 5, clean)).unwrap();
        assert_eq!(agg.drain_guarded(&mut guard), 2);
        assert_eq!(agg.pool().len(), 2);
        // The repaired frame carries the imputed value, so the matrix
        // assembles without a NonFiniteMetric error.
        let m = agg.pool().sample_matrix(NodeId(1)).unwrap();
        assert_eq!(m[(1, MetricId::CpuUser.index())], 30.0);
        let h = guard.health();
        assert_eq!((h.accepted, h.repaired, h.duplicates), (1, 1, 1));
    }

    #[test]
    fn into_pool_drains_pending() {
        let bus = MetricBus::new();
        let agg = Aggregator::subscribe(&bus);
        let mut g = Gmond::new(ConstantSource::new(NodeId(1), MetricFrame::zeroed()));
        g.announce_tick(0, &bus).unwrap();
        // not drained yet — into_pool must pick it up
        let pool = agg.into_pool();
        assert_eq!(pool.len(), 1);
    }
}
