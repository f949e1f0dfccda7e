//! appclass-cluster: the class-aware placement engine closing the
//! paper's scheduling loop at datacenter scale.
//!
//! The paper's final claim (§4.4, Figures 4–5) is that knowing an
//! application's class lets a scheduler co-locate complementary VMs and
//! win ~22% system throughput on three machines. This crate carries that
//! claim to a simulated datacenter and — unlike the paper's experiment —
//! keeps the *classifier* in the loop instead of assuming ground truth:
//!
//! * [`engine`] — the [`PlacementEngine`], the repository's one
//!   contention model: §4.4's cost model generalized from three fixed
//!   dual-CPU machines to N-core hosts with arbitrary per-resource
//!   capacities, scoring candidate placements of VMs known only by their
//!   observed five-class compositions, with an optional energy-aware
//!   consolidation term. On the paper's nine-job instance it reduces to
//!   the closed-form §5.2 slowdown and picks `{(SPN),(SPN),(SPN)}`.
//! * [`policy`] — the two placement policies bracketing the experiment
//!   space: seeded [`RandomPolicy`] and greedy [`ClassAwarePolicy`],
//!   which is also the oracle upper bound when fed ground-truth
//!   compositions.
//! * [`controller`] — the [`ClusterController`]: hundreds of simulated
//!   [`Host`](appclass_sim::host::Host)s ticking in lockstep, beliefs
//!   ingested from live serve-stack
//!   [`CompositionFeed`](appclass_serve::CompositionFeed)s and
//!   warm-started from the durable
//!   [`ApplicationDb`](appclass_core::appdb::ApplicationDb), threshold-
//!   triggered migrations with hysteresis, observability gauges, and
//!   flight-recorder incidents on migration storms.
//! * [`experiment`] — the `sched_cluster` deliverable: class-aware vs.
//!   random vs. oracle placement over the same job list, with every
//!   class-aware belief produced by streaming real telemetry through the
//!   trained pipeline. Misclassification becomes measurable placement
//!   regret.

#![warn(missing_docs)]

pub mod controller;
pub mod engine;
pub mod experiment;
pub mod policy;

pub use controller::{ClusterController, ControllerConfig};
pub use engine::{
    class_demand, class_solo_secs, composition_demand, composition_rate_weight, contentiousness,
    placement_order, ClassDemand, HostSpec, PlacementEngine,
};
pub use experiment::{
    sched_cluster, sched_cluster_with_obs, train_cluster_pipeline, training_runs, truth_class,
    ExperimentConfig, ExperimentResult, PolicyOutcome,
};
pub use policy::{ClassAwarePolicy, PlacementPolicy, RandomPolicy};
