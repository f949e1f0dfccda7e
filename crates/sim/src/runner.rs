//! End-to-end monitored runs: workload → VM → gmond → bus → data pool.
//!
//! This is the glue the experiments use: boot a VM with a benchmark, attach
//! the monitoring stack at the paper's 5-second sampling frequency, run the
//! application to completion (or for a fixed window, for the never-ending
//! idle "application"), and hand back the subnet data pool plus run
//! statistics. Batch runs fan out over threads — each run is an independent
//! simulation with its own bus, so the parallelism is embarrassingly clean
//! and results stay bit-deterministic per seed.

use crate::vm::{SoloVm, VirtualMachine};
use crate::workload::registry::WorkloadSpec;
use appclass_metrics::aggregator::Aggregator;
use appclass_metrics::faults::FaultPlan;
use appclass_metrics::gmond::{Gmond, MetricBus};
use appclass_metrics::profiler::DEFAULT_SAMPLING_INTERVAL;
use appclass_metrics::{DataPool, NodeId};

/// Hard cap on simulated wall time, to bound pathological configurations.
pub const MAX_WALL_SECS: u64 = 50_000;

/// The outcome of one monitored run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Registry/workload name.
    pub name: String,
    /// The VM's node id.
    pub node: NodeId,
    /// Subnet-wide data pool captured during the run.
    pub pool: DataPool,
    /// Number of snapshots of the target node.
    pub samples: usize,
    /// Wall-clock duration of the run, seconds (the paper's `t1 - t0`).
    pub wall_secs: u64,
}

/// Runs one workload spec in its VM under the monitoring stack.
///
/// The run ends when the workload completes, when the spec's fixed window
/// elapses (for non-terminating workloads), or at [`MAX_WALL_SECS`].
pub fn run_spec(spec: &WorkloadSpec, node: NodeId, seed: u64) -> RunRecord {
    let vm = VirtualMachine::new((spec.vm_config)(node), (spec.build)(), seed);
    run_vm(spec.name, vm, spec.run_secs)
}

/// Runs an explicit VM under the monitoring stack (used by tests and
/// ablations that need custom configurations).
pub fn run_vm(name: &str, vm: VirtualMachine, window_secs: Option<u64>) -> RunRecord {
    let node = vm.node();
    let bus = MetricBus::new();
    let mut agg = Aggregator::subscribe(&bus);
    let mut gmond = Gmond::new(SoloVm::new(vm));

    let limit = window_secs.unwrap_or(MAX_WALL_SECS).min(MAX_WALL_SECS);
    let mut t = 0u64;
    loop {
        t += DEFAULT_SAMPLING_INTERVAL;
        gmond.announce_tick(t, &bus).expect("aggregator subscribed");
        if gmond.source().vm().finished() || t >= limit {
            break;
        }
    }
    agg.drain();
    let pool = agg.into_pool();
    let samples = pool.count_for(node);
    RunRecord { name: name.to_string(), node, pool, samples, wall_secs: t }
}

/// Like [`run_spec`], but the captured snapshot stream is then degraded by
/// `plan` — drops, stalls, duplicates, reordering, value corruption — the
/// way a lossy monitoring network would mangle it in flight. The record's
/// `samples` counts the *delivered* snapshots; `wall_secs` is unchanged
/// (the application ran to completion either way). This is the chaos
/// suite's entry point: same spec + seed + plan ⇒ bit-identical stream.
pub fn run_spec_degraded(
    spec: &WorkloadSpec,
    node: NodeId,
    seed: u64,
    plan: FaultPlan,
) -> RunRecord {
    let mut rec = run_spec(spec, node, seed);
    let mut pool = DataPool::new();
    for snap in plan.degrade(rec.pool.snapshots()) {
        pool.push(snap);
    }
    rec.samples = pool.count_for(node);
    rec.pool = pool;
    rec
}

/// Runs many specs concurrently, one OS thread per run (each with its own
/// bus and aggregator). Node ids are assigned by position; seeds are
/// derived from `base_seed` so the batch is reproducible.
pub fn run_batch(specs: &[WorkloadSpec], base_seed: u64) -> Vec<RunRecord> {
    let mut out: Vec<Option<RunRecord>> = (0..specs.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        for (i, (spec, slot)) in specs.iter().zip(out.iter_mut()).enumerate() {
            s.spawn(move || {
                let seed = base_seed.wrapping_add(i as u64);
                *slot = Some(run_spec(spec, NodeId(i as u32 + 1), seed));
            });
        }
    });
    out.into_iter().map(|r| r.expect("runner thread completed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::registry::{test_specs, training_specs};
    use appclass_metrics::{MetricId, METRIC_COUNT};

    #[test]
    fn run_terminating_spec_to_completion() {
        let specs = test_specs();
        let ch3d = specs.iter().find(|s| s.name == "CH3D").unwrap();
        let rec = run_spec(ch3d, NodeId(1), 42);
        // CH3D nominal 225 s → ~45 samples at 5 s.
        assert!((40..=50).contains(&rec.samples), "samples = {}", rec.samples);
        assert!(rec.wall_secs >= 225);
        let m = rec.pool.sample_matrix(NodeId(1)).unwrap();
        assert_eq!(m.cols(), METRIC_COUNT);
    }

    #[test]
    fn run_windowed_spec_stops_at_window() {
        let specs = training_specs();
        let idle = specs.iter().find(|s| s.name == "Idle-train").unwrap();
        let rec = run_spec(idle, NodeId(2), 7);
        assert_eq!(rec.wall_secs, 300);
        assert_eq!(rec.samples, 60);
    }

    #[test]
    fn nfs_variant_takes_longer_and_moves_traffic() {
        let specs = test_specs();
        let pm = specs.iter().find(|s| s.name == "PostMark").unwrap();
        let pm_nfs = specs.iter().find(|s| s.name == "PostMark_NFS").unwrap();
        let local = run_spec(pm, NodeId(1), 5);
        let nfs = run_spec(pm_nfs, NodeId(1), 5);
        assert!(
            nfs.wall_secs > local.wall_secs * 5 / 4,
            "NFS run must stretch: local={}, nfs={}",
            local.wall_secs,
            nfs.wall_secs
        );
        let m_local = local.pool.sample_matrix(NodeId(1)).unwrap();
        let m_nfs = nfs.pool.sample_matrix(NodeId(1)).unwrap();
        let avg = |m: &appclass_linalg::Matrix, id: MetricId| {
            m.column(id.index()).iter().sum::<f64>() / m.rows() as f64
        };
        assert!(avg(&m_local, MetricId::IoBo) > 500.0);
        assert!(avg(&m_nfs, MetricId::IoBo) < 100.0);
        assert!(avg(&m_nfs, MetricId::BytesOut) > avg(&m_local, MetricId::BytesOut) * 10.0);
    }

    #[test]
    fn batch_matches_individual_runs() {
        let specs: Vec<_> = training_specs()
            .into_iter()
            .filter(|s| s.name == "PostMark-train" || s.name == "Idle-train")
            .collect();
        let batch = run_batch(&specs, 100);
        assert_eq!(batch.len(), 2);
        for (i, rec) in batch.iter().enumerate() {
            let solo = run_spec(&specs[i], NodeId(i as u32 + 1), 100 + i as u64);
            assert_eq!(rec.samples, solo.samples, "batch must be deterministic");
            assert_eq!(rec.wall_secs, solo.wall_secs);
        }
    }

    #[test]
    fn degraded_run_is_deterministic_and_lossy() {
        let specs = training_specs();
        let idle = specs.iter().find(|s| s.name == "Idle-train").unwrap();
        let clean = run_spec(idle, NodeId(2), 7);
        let plan = FaultPlan::moderate(99);
        let a = run_spec_degraded(idle, NodeId(2), 7, plan);
        let b = run_spec_degraded(idle, NodeId(2), 7, plan);
        // Same spec, seed, and plan: bit-identical delivered streams.
        assert_eq!(a.samples, b.samples);
        let bits = |r: &RunRecord| -> Vec<(u64, Vec<u64>)> {
            r.pool
                .snapshots()
                .iter()
                .map(|s| (s.time, s.frame.as_slice().iter().map(|v| v.to_bits()).collect()))
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        // The plan actually did damage relative to the clean run.
        assert_ne!(a.samples, clean.samples, "moderate plan should drop/duplicate frames");
        assert_eq!(a.wall_secs, clean.wall_secs, "the application itself ran identically");
        // A lossless plan is the identity on the stream.
        let lossless = run_spec_degraded(idle, NodeId(2), 7, FaultPlan::lossless(99));
        assert_eq!(bits(&lossless), bits(&clean));
    }

    #[test]
    fn specseis_b_stretches_past_a() {
        // The paper's 291 min → 427 min observation, in shape.
        let specs = test_specs();
        let a = specs.iter().find(|s| s.name == "SPECseis96_A").unwrap();
        let b = specs.iter().find(|s| s.name == "SPECseis96_B").unwrap();
        let rec_a = run_spec(a, NodeId(1), 9);
        let rec_b = run_spec(b, NodeId(1), 9);
        let ratio = rec_b.wall_secs as f64 / rec_a.wall_secs as f64;
        assert!(
            ratio > 1.25 && ratio < 2.0,
            "paging stretch ratio {ratio} should be near the paper's 1.47"
        );
    }
}
