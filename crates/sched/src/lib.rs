//! Class-aware scheduling: the paper's §5.2 evaluation (Figures 4–5,
//! Table 4).
//!
//! The experiments place nine jobs — three SPECseis96 (CPU), three PostMark
//! (I/O), three NetPIPE (network) — on three virtual machines, three jobs
//! each. There are exactly ten distinct schedules; a class-blind scheduler
//! picks one at random, while the class-aware scheduler uses the
//! application DB's class knowledge to co-locate *different* classes on
//! every machine (schedule 10, `{(SPN),(SPN),(SPN)}`), which the paper
//! measures at 22.11% higher system throughput than the average schedule.
//!
//! * [`schedule`] — job types, machine mixes, and the enumeration of the
//!   ten schedules of Figure 4.
//! * [`experiments`] — the drivers that regenerate Figure 4, Figure 5 and
//!   Table 4 as typed rows by running the host simulator.
//!
//! Placement *decisions* live in `appclass-cluster`: its
//! `PlacementEngine` is the repository's one contention model, and its
//! `ClassAwarePolicy` picks `{(SPN),(SPN),(SPN)}` on this instance
//! (`tests/scheduling_shapes.rs` checks it against Figure 4's measured
//! winner).

#![warn(missing_docs)]

pub mod experiments;
pub mod schedule;

pub use experiments::{figure4, table4, Fig4Row, Fig5Row, Table4Result};
pub use schedule::{enumerate_schedules, JobType, MachineMix, Schedule};
