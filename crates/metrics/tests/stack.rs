//! Integration tests of the monitoring stack: threaded gmond daemons,
//! vmstat augmentation, profiler and filter working together — the full
//! Figure 1 "performance profiler" path under real concurrency.

use appclass_metrics::aggregator::Aggregator;
use appclass_metrics::filter::PerformanceFilter;
use appclass_metrics::gmond::{run_threaded, ConstantSource, Gmond, MetricBus, MetricSource};
use appclass_metrics::profiler::{PerformanceProfiler, ProfileRequest};
use appclass_metrics::vmstat::{VmstatAugmented, VmstatProvider, VmstatReading};
use appclass_metrics::{MetricFrame, MetricId, NodeId, METRIC_COUNT};

struct RampVmstat {
    rate: f64,
}

impl VmstatProvider for RampVmstat {
    fn vmstat(&mut self, time: u64) -> VmstatReading {
        VmstatReading {
            io_bi: self.rate * time as f64,
            io_bo: self.rate * time as f64 / 2.0,
            swap_in: 0.0,
            swap_out: 0.0,
        }
    }
}

fn cpu_frame(pct: f64) -> MetricFrame {
    let mut f = MetricFrame::zeroed();
    f.set(MetricId::CpuUser, pct);
    f
}

#[test]
fn profiler_filter_roundtrip_over_many_nodes() {
    // 8 nodes in the subnet, profile targets node 3.
    let sources: Vec<ConstantSource> =
        (1..=8).map(|i| ConstantSource::new(NodeId(i), cpu_frame(i as f64 * 10.0))).collect();
    let profiler = PerformanceProfiler::default();
    let req = ProfileRequest::new(NodeId(3), 0, 300).unwrap();
    let pool = profiler.profile(sources, &req).unwrap();
    // Multicast: the pool holds everyone.
    assert_eq!(pool.len(), 8 * 60);
    let (matrix, report) = PerformanceFilter.extract(&pool, NodeId(3)).unwrap();
    assert_eq!(matrix.shape(), (60, METRIC_COUNT));
    assert_eq!(report.discarded, 7 * 60);
    // And it is really node 3's data.
    assert!(matrix.column(MetricId::CpuUser.index()).iter().all(|&v| (v - 30.0).abs() < 1e-9));
}

#[test]
fn vmstat_augmentation_flows_through_the_stack() {
    let base = ConstantSource::new(NodeId(5), cpu_frame(42.0));
    let mut augmented = VmstatAugmented::new(base, RampVmstat { rate: 10.0 });
    let bus = MetricBus::new();
    let mut agg = Aggregator::subscribe(&bus);
    let mut gmond = Gmond::new(augmented_by_ref(&mut augmented));

    // Drive ten announcements through the bus.
    for t in (5..=50).step_by(5) {
        gmond.announce_tick(t, &bus).unwrap();
    }
    agg.drain();
    let m = agg.pool().sample_matrix(NodeId(5)).unwrap();
    assert_eq!(m.rows(), 10);
    // Base metric survives; vmstat ramp is present and increasing.
    assert!(m.column(MetricId::CpuUser.index()).iter().all(|&v| (v - 42.0).abs() < 1e-9));
    let bi = m.column(MetricId::IoBi.index());
    assert!(bi.windows(2).all(|w| w[1] > w[0]), "vmstat ramp must increase: {bi:?}");
}

/// Helper: pass a mutable augmented source by reference into a Gmond
/// without moving it (exercises that MetricSource works via &mut).
fn augmented_by_ref<S: MetricSource>(s: &mut S) -> impl MetricSource + '_ {
    struct ByRef<'a, S>(&'a mut S);
    impl<S: MetricSource> MetricSource for ByRef<'_, S> {
        fn node(&self) -> NodeId {
            self.0.node()
        }
        fn sample(&mut self, time: u64) -> MetricFrame {
            self.0.sample(time)
        }
    }
    ByRef(s)
}

#[test]
fn threaded_gmonds_with_concurrent_aggregators() {
    let bus = MetricBus::new();
    let mut agg1 = Aggregator::subscribe(&bus);
    let mut agg2 = Aggregator::subscribe(&bus);
    let sources: Vec<ConstantSource> =
        (0..6).map(|i| ConstantSource::new(NodeId(i), cpu_frame(i as f64))).collect();
    let times: Vec<u64> = (0..200).map(|i| i * 5).collect();
    let n = run_threaded(sources, &bus, &times).unwrap();
    assert_eq!(n, 1200);
    // Both listeners observed the complete multicast traffic.
    assert_eq!(agg1.drain(), 1200);
    assert_eq!(agg2.drain(), 1200);
    for node in 0..6 {
        assert_eq!(agg1.pool().count_for(NodeId(node)), 200);
        assert_eq!(agg2.pool().count_for(NodeId(node)), 200);
    }
}

#[test]
fn profile_request_window_arithmetic() {
    let profiler = PerformanceProfiler::with_interval(10).unwrap();
    let req = ProfileRequest::new(NodeId(1), 100, 205).unwrap();
    assert_eq!(profiler.sample_times(&req).len(), 11); // 100,110,…,200
    assert_eq!(profiler.expected_samples(&req), 11);
}
