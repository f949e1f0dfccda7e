//! `appclass` — umbrella crate for the reproduction of *Application
//! Classification through Monitoring and Learning of Resource Consumption
//! Patterns* (Zhang & Figueiredo, IPDPS 2006).
//!
//! The implementation lives in five focused crates, re-exported here so
//! applications (and the `examples/` binaries) can depend on a single
//! crate:
//!
//! * [`linalg`] — dense matrices, a Jacobi symmetric eigensolver, and the
//!   column statistics PCA is built on.
//! * [`metrics`] — the Ganglia-like monitoring substrate: 33-metric
//!   catalogue, announce/listen bus, performance profiler and filter,
//!   plus seeded fault injection and frame repair for degraded-telemetry
//!   operation.
//! * [`sim`] — the simulated testbed: VMs with paging/buffer-cache/NFS
//!   behaviour, contended hosts, and the 14 benchmark workload models of
//!   the paper's Table 2.
//! * [`core`] — the paper's contribution: expert-metric preprocessing, PCA
//!   feature extraction, the 3-NN snapshot classifier, majority-vote
//!   application classes, the application database and cost model.
//! * [`sched`] — the class-aware scheduling experiments (Figures 4–5,
//!   Table 4).
//! * [`serve`] — the concurrent TCP classification service: many
//!   monitoring clients stream snapshots to one trained pipeline and read
//!   back live verdicts.
//! * [`cluster`] — the class-aware placement engine and cluster control
//!   loop: §4.4's cost model generalized to N-core hosts, placements and
//!   threshold migrations across a simulated fleet, driven by observed
//!   (not ground-truth) compositions.
//! * [`obs`] — the unified observability layer: span tracer, metric
//!   registry with a Prometheus-style exposition, and the flight recorder
//!   that snapshots recent spans and metric deltas on incidents.
//!
//! [`paper`] generates the evaluation's Table 3, Figures 4–5 and Table 4
//! under one seed convention, as `appclass table3|fig4|fig5|table4` print
//! them.
//!
//! # Quickstart
//!
//! ```
//! use appclass::prelude::*;
//!
//! // Train the classifier on the paper's five training applications…
//! let pipeline = appclass::cluster::train_cluster_pipeline(42).unwrap();
//!
//! // …then classify a fresh run.
//! let specs = appclass::sim::workload::registry::test_specs();
//! let ch3d = specs.iter().find(|s| s.name == "CH3D").unwrap();
//! let rec = appclass::sim::runner::run_spec(ch3d, appclass::metrics::NodeId(9), 7);
//! let result = pipeline
//!     .classify(&rec.pool.sample_matrix(rec.node).unwrap())
//!     .unwrap();
//! assert_eq!(result.class, AppClass::Cpu);
//! ```

pub use appclass_cluster as cluster;
pub use appclass_core as core;
pub use appclass_linalg as linalg;
pub use appclass_metrics as metrics;
pub use appclass_obs as obs;
pub use appclass_sched as sched;
pub use appclass_serve as serve;
pub use appclass_sim as sim;

pub mod fleet;
pub mod paper;
pub mod plot;

/// Maps a workload's expected behaviour (the simulator's Table 2 ground
/// truth) to the application class its runs are labelled with; the same
/// function as [`cluster::truth_class`].
pub use cluster::truth_class as expected_class;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use appclass_core::class::{AppClass, ClassComposition};
    pub use appclass_core::cost::{CostModel, ResourceRates};
    pub use appclass_core::online::{OnlineClassifier, OnlineTrainer};
    pub use appclass_core::pipeline::{ClassificationResult, ClassifierPipeline, PipelineConfig};
    pub use appclass_linalg::Matrix;
    pub use appclass_metrics::{DataPool, MetricFrame, MetricId, NodeId, Snapshot};
    pub use appclass_metrics::{FaultPlan, FrameGuard, FrameVerdict, GuardConfig, TelemetryHealth};
    pub use appclass_serve::{ClientConfig, ServeClient, ServerConfig, ServerStats, ShardServer};
    pub use appclass_sim::workload::{Workload, WorkloadKind};
    pub use appclass_sim::{DiskBacking, VirtualMachine, VmConfig};
}
