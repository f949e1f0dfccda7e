//! Host/VM resource simulator and benchmark workload models.
//!
//! The paper's testbed — VMware GSX virtual machines on shared dual-Xeon
//! hosts, running SPECseis96, PostMark, NetPIPE and friends — is not
//! reproducible directly, so this crate simulates it. The simulation is
//! intentionally *behavioural*: the classifier downstream only ever sees a
//! VM's 33-metric time series, so what must be faithful is the mapping
//!
//! ```text
//! (application demand, VM configuration, co-located load)  →  metric series
//! ```
//!
//! including the second-order effects the paper highlights:
//!
//! * a VM with too little memory for the working set **pages**, turning a
//!   CPU-bound run into a CPU/IO/paging mix and stretching its runtime
//!   (SPECseis96 A vs B, Table 3);
//! * an application writing to an **NFS-mounted** directory produces
//!   network traffic instead of local disk I/O (PostMark vs PostMark_NFS);
//! * co-located VMs **contend** for whichever resource they share, which is
//!   what makes class-aware scheduling pay off (Figures 4–5, Table 4).
//!
//! Module map:
//!
//! * [`resources`] — demand vectors and host capacities.
//! * [`noise`] — deterministic Gaussian noise for realistic metric jitter.
//! * [`vm`] — the virtual machine: paging + buffer-cache model, `/proc`-like
//!   metric surface (`MetricSource` + `VmstatProvider` impls).
//! * [`host`] — a physical host time/space-sharing its VMs, with
//!   proportional-share contention; runs jobs to completion.
//! * [`workload`] — the benchmark behaviour models of the paper's Table 2,
//!   plus the registry mapping names to expected classes.
//! * [`runner`] — glue: run one workload in one VM under the monitoring
//!   stack, yielding the data pool + run statistics.
//! * [`fleet`] — deterministic diurnal + bursty VM arrival plans, the
//!   load model behind the serving fleet harness.

#![warn(missing_docs)]

pub mod fleet;
pub mod host;
pub mod noise;
pub mod resources;
pub mod runner;
pub mod vm;
pub mod workload;

pub use host::{Host, HostCapacity};
pub use resources::ResourceDemand;
pub use vm::{DiskBacking, VirtualMachine, VmConfig};
// Fault injection lives in the metrics crate (it mangles the telemetry,
// not the simulation), but chaos experiments configure it alongside the
// workload specs — re-exported here for their convenience.
pub use appclass_metrics::faults::FaultPlan;
pub use workload::{Workload, WorkloadKind};
