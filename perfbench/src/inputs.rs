//! Workload inputs, generated from the benchmark's `--seed` alone.
//!
//! The program under test never sees the seed: it receives only the
//! snapshots, schedules and VM plans built here. Telemetry comes from the
//! simulator's training applications run under a seed distinct from the
//! one the classifier is trained with, so the served frames are fresh
//! runs of the five classes rather than the training matrix itself.

use appclass_core::ClassifierPipeline;
use appclass_metrics::{NodeId, Snapshot};
use appclass_sim::fleet::{FleetConfig, FleetPlan};
use appclass_sim::runner::run_vm;
use appclass_sim::vm::VirtualMachine;
use appclass_sim::workload::registry::{training_specs, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Snapshot cadence of every generated stream, seconds.
pub const CADENCE_SECS: u64 = 5;

/// Node ids of generated VMs start here, clear of the simulator's own.
const NODE_BASE: u32 = 1000;

/// Trains the paper pipeline on the five training applications.
pub fn train(seed: u64) -> ClassifierPipeline {
    appclass_cluster::train_cluster_pipeline(seed).expect("training specs always yield a pipeline")
}

/// One monitored run per training application, each as the target
/// node's snapshot stream, plus how long each `run_vm` took.
pub fn base_streams(seed: u64) -> (Vec<Vec<Snapshot>>, Vec<Duration>) {
    let mut streams = Vec::new();
    let mut run_times = Vec::new();
    for (i, spec) in training_specs().iter().enumerate() {
        let node = NodeId(NODE_BASE - 10 + i as u32);
        let run_seed = (seed ^ 0x5EED_BA5E).wrapping_mul(31).wrapping_add(i as u64);
        let vm = VirtualMachine::new((spec.vm_config)(node), (spec.build)(), run_seed);
        let t = Instant::now();
        let rec = run_vm(spec.name, vm, spec.run_secs);
        run_times.push(t.elapsed());
        streams.push(rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect());
    }
    (streams, run_times)
}

/// One VM's stream: `frames` samples of base run `workload`, starting
/// `phase` samples in and cycling, re-stamped onto `node` at a clean
/// cadence.
fn vm_stream(
    base: &[Vec<Snapshot>],
    workload: usize,
    phase: usize,
    node: u32,
    frames: usize,
) -> Vec<Snapshot> {
    let run = &base[workload % base.len()];
    (0..frames)
        .map(|k| {
            let mut s = run[(phase + k) % run.len()].clone();
            s.node = NodeId(node);
            s.time = CADENCE_SECS * k as u64;
            s
        })
        .collect()
}

/// The relay's multi-VM stream, cut into `rounds` rounds of `ticks`
/// sampling intervals. Each tick carries one snapshot from each of `vms`
/// VMs (one max-width batch when `vms` is 128); each VM follows one base
/// run from a seeded phase.
pub fn relay_rounds(
    seed: u64,
    base: &[Vec<Snapshot>],
    vms: usize,
    rounds: usize,
    ticks: usize,
) -> Vec<Vec<Snapshot>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E1A_7E1A);
    let vm_plan: Vec<(usize, usize)> = (0..vms)
        .map(|_| {
            let w = rng.gen_range(0..base.len());
            (w, rng.gen_range(0..base[w].len()))
        })
        .collect();
    (0..rounds)
        .map(|r| {
            let mut round = Vec::with_capacity(ticks * vms);
            for k in 0..ticks {
                let t = (r * ticks + k) as u64;
                for (v, &(w, phase)) in vm_plan.iter().enumerate() {
                    let mut s = base[w][(phase + t as usize) % base[w].len()].clone();
                    s.node = NodeId(NODE_BASE + v as u32);
                    s.time = CADENCE_SECS * t;
                    round.push(s);
                }
            }
            round
        })
        .collect()
}

/// One VM session of the open-loop fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSession {
    /// When the session is due, from the start of the measured run.
    pub due: Duration,
    /// VM (and node) id.
    pub vm: u32,
    /// Base run the VM replays.
    pub workload: usize,
    /// Where in the base run its stream starts.
    pub phase: usize,
    /// Snapshots it streams before asking for a verdict (24..=96).
    pub frames: usize,
}

impl FleetSession {
    /// The snapshots this session streams.
    pub fn stream(&self, base: &[Vec<Snapshot>]) -> Vec<Snapshot> {
        vm_stream(base, self.workload, self.phase, NODE_BASE + self.vm, self.frames)
    }
}

/// Wall-clock length of one simulated fleet day.
pub const FLEET_DAY: Duration = Duration::from_millis(2500);

/// The open-loop arrival schedule: back-to-back [`FleetPlan`] days of
/// [`FLEET_DAY`] each (diurnal curve plus bursts), offering `rate`
/// sessions per second on average, cut at `seconds`.
pub fn fleet_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    base_lens: &[usize],
) -> Vec<FleetSession> {
    let day_s = FLEET_DAY.as_secs_f64();
    let days = (seconds / day_s).ceil().max(1.0) as u64;
    let config = FleetConfig {
        vms: (rate * day_s).round().max(1.0) as usize,
        day_ms: FLEET_DAY.as_millis() as u64,
        bursts: 3,
        burst_gain: 2.0,
        burst_width: 0.01,
        workloads: base_lens.len(),
        ..FleetConfig::default()
    };
    let mut out = Vec::new();
    for day in 0..days {
        let plan = FleetPlan::generate(&config, seed.wrapping_mul(0x9E37).wrapping_add(day));
        for a in &plan.arrivals {
            let due = Duration::from_millis(day * config.day_ms + a.start_ms);
            if due.as_secs_f64() >= seconds {
                continue;
            }
            out.push(FleetSession {
                due,
                vm: out.len() as u32,
                workload: a.workload,
                phase: (a.seed % base_lens[a.workload] as u64) as usize,
                frames: a.frames,
            });
        }
    }
    out.sort_by_key(|s| s.due);
    for (i, s) in out.iter_mut().enumerate() {
        s.vm = i as u32;
    }
    out
}

/// The finite-duration job palette of the cluster experiment: the
/// training exemplars that run to completion.
pub fn palette() -> Vec<WorkloadSpec> {
    training_specs().into_iter().filter(|s| s.run_secs.is_none()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_base() -> Vec<Vec<Snapshot>> {
        // Cheap stand-in for simulator runs: distinct frames per run.
        (0..5)
            .map(|w| {
                (0..40)
                    .map(|k| {
                        let mut values = [0.0; appclass_metrics::METRIC_COUNT];
                        values[w] = k as f64;
                        let f = appclass_metrics::MetricFrame::from_values(&values)
                            .expect("a full-width frame");
                        Snapshot::new(NodeId(1), k, f)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let base = synthetic_base();
        assert_eq!(relay_rounds(7, &base, 128, 2, 3), relay_rounds(7, &base, 128, 2, 3));
        assert_ne!(relay_rounds(7, &base, 128, 2, 3), relay_rounds(8, &base, 128, 2, 3));

        let lens: Vec<usize> = base.iter().map(Vec::len).collect();
        let a = fleet_schedule(7, 100.0, 5.0, &lens);
        assert_eq!(a, fleet_schedule(7, 100.0, 5.0, &lens));
        assert_ne!(a, fleet_schedule(8, 100.0, 5.0, &lens));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|s| (24..=96).contains(&s.frames)));
        assert_eq!(a[3].stream(&base), a[3].stream(&base));
    }

    #[test]
    fn simulated_inputs_follow_the_seed() {
        let (a, _) = base_streams(3);
        let (b, _) = base_streams(3);
        let (c, _) = base_streams(4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
