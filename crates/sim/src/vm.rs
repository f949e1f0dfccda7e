//! The simulated virtual machine.
//!
//! A [`VirtualMachine`] hosts one workload and exposes the `/proc`-like
//! metric surface that Ganglia reads. It owns the two environment effects
//! the paper demonstrates (Table 3):
//!
//! * **Paging.** When the workload's working set exceeds the VM's usable
//!   memory, the VM swaps: `swap_in`/`swap_out` rise, the swap traffic also
//!   shows up as disk blocks (`io_bi`/`io_bo`), CPU time is lost to I/O
//!   wait, and application *progress* slows — stretching the run exactly
//!   like SPECseis96 B (291 → 427 minutes when the VM shrank from 256 MB to
//!   32 MB).
//! * **Buffer cache.** File I/O is absorbed by the OS buffer cache when
//!   memory is plentiful (the paper observed a 200 MB cache in SPECseis96 A
//!   vs 1 MB in B); with little free memory, the same file traffic hits the
//!   physical disk.
//! * **NFS backing.** With an NFS-mounted working directory, disk traffic
//!   is converted to network traffic (PostMark → PostMark_NFS), with an
//!   RPC overhead factor and a progress penalty from network latency.

use crate::resources::ResourceDemand;
use crate::workload::BoxedWorkload;
use appclass_metrics::gmond::MetricSource;
use appclass_metrics::vmstat::{VmstatProvider, VmstatReading};
use appclass_metrics::{MetricFrame, MetricId, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::noise;

/// Where the VM's working directory lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DiskBacking {
    /// Local virtual disk: file I/O appears as `io_bi`/`io_bo`.
    #[default]
    Local,
    /// NFS mount: file I/O is converted to network traffic.
    Nfs,
}

/// Static configuration of a virtual machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmConfig {
    /// Node identity (plays the role of the paper's VM IP address).
    pub node: NodeId,
    /// Total VM memory in kB (the paper uses 256 MB and, for SPECseis96 B,
    /// 32 MB).
    pub memory_kb: f64,
    /// Swap space in kB.
    pub swap_kb: f64,
    /// Working-directory backing.
    pub disk: DiskBacking,
    /// Number of virtual CPUs exposed (the paper's VMs see the host's dual
    /// CPUs).
    pub cpu_num: f64,
    /// CPU clock in MHz, reported as `cpu_speed`.
    pub cpu_mhz: f64,
}

impl VmConfig {
    /// The paper's standard VM: 256 MB memory, local disk.
    pub fn paper_default(node: NodeId) -> Self {
        VmConfig {
            node,
            memory_kb: 256.0 * 1024.0,
            swap_kb: 512.0 * 1024.0,
            disk: DiskBacking::Local,
            cpu_num: 2.0,
            cpu_mhz: 1800.0,
        }
    }

    /// The memory-starved variant used for SPECseis96 B: 32 MB.
    pub fn small_memory(node: NodeId) -> Self {
        VmConfig { memory_kb: 32.0 * 1024.0, ..VmConfig::paper_default(node) }
    }

    /// Same VM but with an NFS-mounted working directory.
    pub fn with_nfs(self) -> Self {
        VmConfig { disk: DiskBacking::Nfs, ..self }
    }
}

/// Memory the guest OS keeps for itself (kernel, daemons, minimum page
/// cache), in kB. With a 32 MB VM almost nothing is left over — matching
/// the paper's observation of a 1 MB buffer cache in SPECseis96 B.
pub const OS_RESERVED_KB: f64 = 24.0 * 1024.0;

/// Paging half-saturation constant (kB): overflow equal to this produces a
/// paging factor of 0.5.
pub const PAGING_HALF_KB: f64 = 48.0 * 1024.0;

/// Peak swap transfer rate (kB/s) when paging saturates — bounded by the
/// 2005-era disk the testbed used.
pub const PEAK_SWAP_RATE: f64 = 6_000.0;

/// Fraction of CPU progress lost per unit of paging factor, clamped at
/// [`MAX_STALL`]. Calibrated so SPECseis96's runtime stretches toward the
/// paper's 1.47× when its VM shrinks from 256 MB to 32 MB.
pub const PAGING_STALL: f64 = 1.2;

/// Upper bound on the paging stall: even a thrashing VM makes some
/// progress.
pub const MAX_STALL: f64 = 0.85;

/// NFS protocol byte overhead on file traffic. Well above 1: PostMark-style
/// small-file workloads pay RPC headers, attribute refetches and
/// close-to-open consistency round-trips on every operation.
pub const NFS_OVERHEAD: f64 = 1.6;

/// Progress penalty of NFS relative to local disk (network latency on
/// synchronous metadata operations). PostMark took 52 samples locally and
/// 77 over NFS in the paper — a ratio of ~0.68.
pub const NFS_PROGRESS_FACTOR: f64 = 0.68;

/// Block size used to convert swap kB/s into vmstat blocks/s.
pub const BLOCK_KB: f64 = 1.0;

/// Paging is bursty: page faults cluster when the application touches new
/// regions of its working set, then subside while it reuses what is
/// resident. The VM resamples a burst multiplier every this many seconds.
/// This temporal structure is what splits a memory-starved run's snapshots
/// across classes — the paper's SPECseis96 B is 50% CPU / 43% I/O / 6.5%
/// paging, not a single blended point.
pub const PAGING_BURST_PERIOD: u64 = 20;

/// Steady-access burst range (uniform): PageBench-style uniform-random
/// access faults at a nearly constant rate.
pub const STEADY_BURST_RANGE: (f64, f64) = (0.75, 1.25);

/// Bursty-access regime: quiet multiplier, storm multiplier, and the
/// probability of a quiet window. Phase-structured applications reuse the
/// resident region most of the time (quiet), then touch a new region and
/// fault hard (storm) — which is what splits SPECseis96 B's snapshots
/// between CPU-looking and IO/paging-looking classes.
pub const BURSTY_QUIET: f64 = 0.05;
/// Storm multiplier of the bursty regime.
pub const BURSTY_STORM: f64 = 1.6;
/// Probability of a quiet window in the bursty regime.
pub const BURSTY_QUIET_PROB: f64 = 0.6;

/// When the buffer cache cannot hold the file set, every miss evicts a
/// block that will be needed again: the physical traffic exceeds the
/// logical demand. Amplification at zero cache coverage.
pub const CACHE_THRASH_FACTOR: f64 = 0.8;

/// Resource grants a VM receives for one wall-clock second, as fractions of
/// its demand that the host can actually satisfy (1.0 = uncontended).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceShare {
    /// Fraction of requested CPU granted.
    pub cpu: f64,
    /// Fraction of requested disk bandwidth granted.
    pub disk: f64,
    /// Fraction of requested network bandwidth granted.
    pub net: f64,
}

impl ResourceShare {
    /// Uncontended: everything granted.
    pub fn full() -> Self {
        ResourceShare { cpu: 1.0, disk: 1.0, net: 1.0 }
    }
}

/// What one simulated second did: the observed resource usage (after
/// environment effects) and the application progress made.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickOutcome {
    /// User-mode CPU actually consumed (fraction of one core).
    pub cpu_user: f64,
    /// System-mode CPU actually consumed.
    pub cpu_system: f64,
    /// CPU time stalled on I/O (drives the `cpu_wio` metric).
    pub cpu_wio: f64,
    /// Disk blocks read per second (including swap traffic).
    pub io_bi: f64,
    /// Disk blocks written per second (including swap traffic).
    pub io_bo: f64,
    /// kB/s swapped in.
    pub swap_in: f64,
    /// kB/s swapped out.
    pub swap_out: f64,
    /// Network bytes/s in (including NFS reads).
    pub net_in: f64,
    /// Network bytes/s out (including NFS writes).
    pub net_out: f64,
    /// Application progress made this second, in [0, 1].
    pub progress: f64,
    /// Working set in kB (for the memory gauges).
    pub working_set_kb: f64,
}

/// A virtual machine running one workload.
///
/// Advance it second by second with [`VirtualMachine::tick`] (the host does
/// this for co-located VMs) and read its Ganglia-visible metric frame with
/// [`VirtualMachine::metric_frame`]. The frame reports rates averaged since
/// the previous frame, like gmond does.
pub struct VirtualMachine {
    config: VmConfig,
    workload: BoxedWorkload,
    rng: StdRng,
    /// Progress-seconds completed so far.
    progress: f64,
    /// Wall seconds simulated so far.
    wall_secs: u64,
    /// Accumulated outcome since the last metric frame.
    acc: TickOutcome,
    acc_secs: u64,
    last_outcome: TickOutcome,
    /// Current paging burst multiplier (resampled periodically).
    paging_burst: f64,
}

impl VirtualMachine {
    /// Boots a VM with a workload; `seed` fixes all stochastic behaviour.
    pub fn new(config: VmConfig, workload: BoxedWorkload, seed: u64) -> Self {
        VirtualMachine {
            config,
            workload,
            rng: StdRng::seed_from_u64(seed),
            progress: 0.0,
            wall_secs: 0,
            acc: TickOutcome::default(),
            acc_secs: 0,
            last_outcome: TickOutcome::default(),
            paging_burst: 1.0,
        }
    }

    /// The VM's configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Node identity.
    pub fn node(&self) -> NodeId {
        self.config.node
    }

    /// Name of the hosted workload.
    pub fn workload_name(&self) -> &str {
        self.workload.name()
    }

    /// Progress-seconds completed.
    pub fn progress(&self) -> f64 {
        self.progress
    }

    /// Wall-clock seconds simulated.
    pub fn wall_secs(&self) -> u64 {
        self.wall_secs
    }

    /// True once the workload's nominal duration has been reached.
    pub fn finished(&self) -> bool {
        match self.workload.nominal_duration() {
            Some(d) => self.progress >= d as f64,
            None => false,
        }
    }

    /// The workload's current uncontended demand (used by the host to
    /// compute contention shares before ticking).
    pub fn peek_demand(&mut self) -> ResourceDemand {
        // Demand depends on the progress phase; the RNG jitter here is
        // deliberately from the same stream, keeping runs deterministic.
        self.workload.demand(self.progress as u64, &mut self.rng)
    }

    /// The load this VM will actually place on the host's *physical*
    /// resources for a given application demand: NFS-backed file I/O is
    /// network traffic (not disk), and paging adds swap-device traffic the
    /// application never asked for. The host aggregates these, so a
    /// paging neighbour contends for the disk and an NFS neighbour for
    /// the network. (Buffer-cache thrash amplification is deliberately
    /// excluded: the host contention constants are calibrated against
    /// logical rates.)
    pub fn physical_demand(&self, demand: &ResourceDemand) -> (f64, f64, f64) {
        let cpu = demand.cpu_total();
        // Expected swap traffic at the current burst level (bi + bo).
        let usable = (self.config.memory_kb - OS_RESERVED_KB).max(0.0);
        let overflow = (demand.working_set_kb - usable).max(0.0) * self.paging_burst;
        let paging = overflow / (overflow + PAGING_HALF_KB);
        let swap_blocks = 2.0 * paging * PEAK_SWAP_RATE / BLOCK_KB;
        match self.config.disk {
            DiskBacking::Local => (cpu, demand.disk_total() + swap_blocks, demand.net_total()),
            DiskBacking::Nfs => (
                cpu,
                swap_blocks, // swap stays on the local virtual disk
                demand.net_total() + demand.disk_total() * 1024.0 * NFS_OVERHEAD,
            ),
        }
    }

    /// Simulates one wall-clock second given a demand (from
    /// [`VirtualMachine::peek_demand`]) and the host's grant.
    pub fn tick(&mut self, demand: ResourceDemand, share: ResourceShare) -> TickOutcome {
        let out = self.apply_environment(demand, share);
        self.progress += out.progress;
        self.wall_secs += 1;
        self.accumulate(out);
        self.last_outcome = out;
        out
    }

    /// Convenience: peek demand and tick uncontended.
    pub fn tick_solo(&mut self) -> TickOutcome {
        let d = self.peek_demand();
        self.tick(d, ResourceShare::full())
    }

    /// The paging + buffer-cache + NFS model. Pure with respect to VM
    /// counters (only the RNG is consumed, for the metric jitter applied in
    /// `metric_frame`).
    fn apply_environment(&mut self, demand: ResourceDemand, share: ResourceShare) -> TickOutcome {
        let cfg = &self.config;

        // --- paging ------------------------------------------------------
        let usable = (cfg.memory_kb - OS_RESERVED_KB).max(0.0);
        let overflow = (demand.working_set_kb - usable).max(0.0);
        if self.wall_secs.is_multiple_of(PAGING_BURST_PERIOD) {
            use rand::Rng as _;
            self.paging_burst = if demand.bursty_paging {
                if self.rng.gen::<f64>() < BURSTY_QUIET_PROB {
                    BURSTY_QUIET
                } else {
                    BURSTY_STORM
                }
            } else {
                let (lo, hi) = STEADY_BURST_RANGE;
                self.rng.gen_range(lo..hi)
            };
        }
        let effective_overflow = overflow * self.paging_burst;
        let paging = effective_overflow / (effective_overflow + PAGING_HALF_KB); // in [0,1)
        let swap_rate = paging * PEAK_SWAP_RATE;
        // Paging steals progress: stalled waiting for the swap device.
        let paging_stall = (paging * PAGING_STALL).min(MAX_STALL);

        // --- buffer cache ------------------------------------------------
        // A file set that fits entirely in the cache is absorbed after the
        // first pass (SPECseis96 A: 200 MB cache, ~0 disk I/O). A file set
        // larger than the cache keeps missing: absorption falls off
        // cubically with the coverage ratio (random-access churn, the
        // PostMark pattern), reaching full absorption continuously at
        // ratio 1.
        let cache_kb = (cfg.memory_kb - OS_RESERVED_KB - demand.working_set_kb).max(0.0);
        let absorb = if demand.file_set_kb <= 0.0 {
            1.0
        } else {
            let ratio = (cache_kb / demand.file_set_kb).min(1.0);
            ratio * ratio * ratio
        };
        // Unabsorbed traffic thrashes: misses force re-reads of evicted
        // blocks, amplifying the physical I/O beyond the logical demand.
        let thrash = 1.0 + CACHE_THRASH_FACTOR * (1.0 - absorb);
        let file_read = demand.disk_read * (1.0 - absorb) * thrash;
        let file_write = demand.disk_write * (1.0 - absorb) * thrash;

        // --- disk vs NFS ---------------------------------------------------
        let (mut io_bi, mut io_bo, mut net_in, mut net_out, nfs_penalty) = match cfg.disk {
            DiskBacking::Local => (file_read, file_write, demand.net_in, demand.net_out, 1.0),
            DiskBacking::Nfs => {
                // File traffic becomes RPC traffic; reads arrive from the
                // server (net_in), writes leave to it (net_out). The local
                // buffer cache is bypassed: NFS close-to-open consistency
                // forces revalidation, so the *full* demand goes on the
                // wire — matching the paper's PostMark_NFS at 100% NET.
                let extra_in = demand.disk_read * 1024.0 * NFS_OVERHEAD;
                let extra_out = demand.disk_write * 1024.0 * NFS_OVERHEAD;
                (
                    0.0,
                    0.0,
                    demand.net_in + extra_in,
                    demand.net_out + extra_out,
                    // Penalty only when there is file traffic to slow down.
                    if demand.disk_total() > 1.0 { NFS_PROGRESS_FACTOR } else { 1.0 },
                )
            }
        };

        // Swap traffic always hits the local swap device.
        io_bi += swap_rate / BLOCK_KB;
        io_bo += swap_rate / BLOCK_KB;

        // --- contention grants -------------------------------------------
        let cpu_share = share.cpu.clamp(0.0, 1.0);
        let disk_share = share.disk.clamp(0.0, 1.0);
        let net_share = share.net.clamp(0.0, 1.0);
        io_bi *= disk_share;
        io_bo *= disk_share;
        net_in *= net_share;
        net_out *= net_share;

        // The application's progress is gated by its most-contended
        // resource and by paging stalls and NFS latency. File traffic on
        // an NFS backing rides the network, so it is gated by the network
        // grant, not the (unused) local disk's.
        let mut bottleneck = 1.0f64;
        if demand.cpu_total() > 1e-9 {
            bottleneck = bottleneck.min(cpu_share);
        }
        if demand.disk_total() > 1.0 {
            bottleneck = bottleneck.min(match cfg.disk {
                DiskBacking::Local => disk_share,
                DiskBacking::Nfs => net_share,
            });
        }
        if demand.net_total() > 1.0 {
            bottleneck = bottleneck.min(net_share);
        }
        let progress = bottleneck * (1.0 - paging_stall) * nfs_penalty;

        // CPU consumed scales with actual progress (a stalled app burns
        // less CPU); the stall time itself is I/O wait.
        let cpu_user = demand.cpu_user * cpu_share * (1.0 - paging_stall);
        let cpu_system = demand.cpu_system * cpu_share * (1.0 - paging_stall);
        // I/O wait: paging stalls plus a term proportional to disk traffic.
        let cpu_wio =
            (paging_stall * demand.cpu_total().max(0.2) + (io_bi + io_bo) / 20_000.0).min(1.0);

        TickOutcome {
            cpu_user,
            cpu_system,
            cpu_wio,
            io_bi,
            io_bo,
            swap_in: swap_rate,
            swap_out: swap_rate * 0.9, // slightly asymmetric, like real vmstat
            net_in,
            net_out,
            progress,
            working_set_kb: demand.working_set_kb,
        }
    }

    fn accumulate(&mut self, out: TickOutcome) {
        let a = &mut self.acc;
        a.cpu_user += out.cpu_user;
        a.cpu_system += out.cpu_system;
        a.cpu_wio += out.cpu_wio;
        a.io_bi += out.io_bi;
        a.io_bo += out.io_bo;
        a.swap_in += out.swap_in;
        a.swap_out += out.swap_out;
        a.net_in += out.net_in;
        a.net_out += out.net_out;
        a.working_set_kb = out.working_set_kb;
        self.acc_secs += 1;
    }

    /// Builds the Ganglia-visible 33-metric frame from the rates averaged
    /// since the previous frame, then resets the accumulator. Call at the
    /// monitoring frequency (the paper's 5 s).
    pub fn metric_frame(&mut self) -> MetricFrame {
        let mut f = MetricFrame::zeroed();
        self.metric_frame_into(&mut f);
        f
    }

    /// Like [`VirtualMachine::metric_frame`], but writing into a
    /// caller-provided frame, which the steady-state monitoring tick
    /// keeps one of per VM slot (the cluster controller samples hundreds
    /// of hosts every second).
    pub fn metric_frame_into(&mut self, f: &mut MetricFrame) {
        let n = self.acc_secs.max(1) as f64;
        let a = std::mem::take(&mut self.acc);
        self.acc_secs = 0;

        let cpu_user_pct = (a.cpu_user / n / self.config.cpu_num * 100.0).min(100.0);
        let cpu_system_pct = (a.cpu_system / n / self.config.cpu_num * 100.0).min(100.0);
        let cpu_wio_pct = (a.cpu_wio / n / self.config.cpu_num * 100.0).min(100.0);
        let cpu_idle_pct = (100.0 - cpu_user_pct - cpu_system_pct - cpu_wio_pct).max(0.0);

        let rng = &mut self.rng;
        f.reset_zero();
        // --- CPU ---
        let user_j = noise::jitter(rng, cpu_user_pct, 0.03);
        f.set(MetricId::CpuUser, noise::noise_floor(rng, user_j, 0.3).min(100.0));
        let sys_j = noise::jitter(rng, cpu_system_pct, 0.03);
        f.set(MetricId::CpuSystem, noise::noise_floor(rng, sys_j, 0.2).min(100.0));
        f.set(MetricId::CpuIdle, cpu_idle_pct);
        f.set(MetricId::CpuNice, 0.0);
        f.set(MetricId::CpuWio, noise::jitter(rng, cpu_wio_pct, 0.05));
        f.set(MetricId::CpuNum, self.config.cpu_num);
        f.set(MetricId::CpuSpeed, self.config.cpu_mhz);
        f.set(MetricId::CpuAidle, cpu_idle_pct);
        // --- load / procs ---
        let load = (a.cpu_user + a.cpu_system + a.cpu_wio) / n;
        f.set(MetricId::LoadOne, noise::jitter(rng, load, 0.1));
        f.set(MetricId::LoadFive, noise::jitter(rng, load, 0.05));
        f.set(MetricId::LoadFifteen, noise::jitter(rng, load, 0.02));
        f.set(MetricId::ProcRun, (load * 1.5).round().max(0.0));
        f.set(MetricId::ProcTotal, 60.0 + (load * 5.0).round());
        // --- memory ---
        let ws = a.working_set_kb.min(self.config.memory_kb - OS_RESERVED_KB * 0.5);
        let cache = (self.config.memory_kb - OS_RESERVED_KB - ws).max(1024.0);
        f.set(
            MetricId::MemFree,
            noise::jitter(
                rng,
                (self.config.memory_kb - OS_RESERVED_KB - ws - cache * 0.8).max(2048.0),
                0.05,
            ),
        );
        f.set(MetricId::MemShared, 0.0);
        f.set(MetricId::MemBuffers, noise::jitter(rng, cache * 0.1, 0.05));
        f.set(MetricId::MemCached, noise::jitter(rng, cache * 0.7, 0.05));
        f.set(MetricId::MemTotal, self.config.memory_kb);
        let swapped = (a.working_set_kb - (self.config.memory_kb - OS_RESERVED_KB)).max(0.0);
        f.set(MetricId::SwapFree, (self.config.swap_kb - swapped).max(0.0));
        f.set(MetricId::SwapTotal, self.config.swap_kb);
        // --- network ---
        let in_j = noise::jitter(rng, a.net_in / n, 0.05);
        let bytes_in = noise::noise_floor(rng, in_j, 400.0);
        let out_j = noise::jitter(rng, a.net_out / n, 0.05);
        let bytes_out = noise::noise_floor(rng, out_j, 300.0);
        f.set(MetricId::BytesIn, bytes_in);
        f.set(MetricId::BytesOut, bytes_out);
        f.set(MetricId::PktsIn, bytes_in / 1200.0);
        f.set(MetricId::PktsOut, bytes_out / 1200.0);
        // --- disk gauges ---
        f.set(MetricId::DiskFree, 20.0);
        f.set(MetricId::DiskTotal, 40.0);
        f.set(MetricId::PartMaxUsed, 55.0);
        f.set(MetricId::Boottime, 1_000_000.0);
        f.set(MetricId::Gexec, 0.0);
        // --- vmstat additions ---
        let bi_j = noise::jitter(rng, a.io_bi / n, 0.08);
        f.set(MetricId::IoBi, noise::noise_floor(rng, bi_j, 1.5));
        let bo_j = noise::jitter(rng, a.io_bo / n, 0.08);
        f.set(MetricId::IoBo, noise::noise_floor(rng, bo_j, 2.0));
        f.set(MetricId::SwapIn, noise::jitter(rng, a.swap_in / n, 0.08));
        f.set(MetricId::SwapOut, noise::jitter(rng, a.swap_out / n, 0.08));
    }
}

/// Adapter that lets the monitoring stack drive a *solo* (uncontended) VM:
/// each `sample(time)` call advances the VM to `time` and returns its
/// frame. Hosted (co-scheduled) VMs are advanced by the host instead.
pub struct SoloVm {
    vm: VirtualMachine,
    last_time: Option<u64>,
}

impl SoloVm {
    /// Wraps a VM for solo monitoring.
    pub fn new(vm: VirtualMachine) -> Self {
        SoloVm { vm, last_time: None }
    }

    /// Read access to the inner VM.
    pub fn vm(&self) -> &VirtualMachine {
        &self.vm
    }

    /// Consumes the adapter, returning the VM.
    pub fn into_vm(self) -> VirtualMachine {
        self.vm
    }
}

impl MetricSource for SoloVm {
    fn node(&self) -> NodeId {
        self.vm.node()
    }

    fn sample(&mut self, time: u64) -> MetricFrame {
        // The first sample covers the window since boot (time 0).
        let elapsed = time.saturating_sub(self.last_time.unwrap_or(0)).max(1);
        self.last_time = Some(time);
        for _ in 0..elapsed {
            self.vm.tick_solo();
        }
        self.vm.metric_frame()
    }
}

impl VmstatProvider for VirtualMachine {
    fn vmstat(&mut self, _time: u64) -> VmstatReading {
        VmstatReading {
            io_bi: self.last_outcome.io_bi,
            io_bo: self.last_outcome.io_bo,
            swap_in: self.last_outcome.swap_in,
            swap_out: self.last_outcome.swap_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Phase, PhasedWorkload, WorkloadKind};

    fn cpu_workload(duration: u64) -> BoxedWorkload {
        Box::new(PhasedWorkload::new(
            "cpu-test",
            WorkloadKind::Cpu,
            vec![Phase::new(
                duration,
                ResourceDemand {
                    cpu_user: 0.95,
                    cpu_system: 0.03,
                    disk_read: 150.0,
                    disk_write: 150.0,
                    working_set_kb: 40.0 * 1024.0,
                    file_set_kb: 120.0 * 1024.0,
                    ..Default::default()
                },
                0.02,
            )],
            false,
        )) as BoxedWorkload
    }

    fn io_workload(duration: u64) -> BoxedWorkload {
        Box::new(PhasedWorkload::new(
            "io-test",
            WorkloadKind::IoPaging,
            vec![Phase::new(
                duration,
                ResourceDemand {
                    cpu_user: 0.05,
                    cpu_system: 0.15,
                    disk_read: 1500.0,
                    disk_write: 2500.0,
                    working_set_kb: 24.0 * 1024.0,
                    file_set_kb: 600.0 * 1024.0,
                    ..Default::default()
                },
                0.1,
            )],
            false,
        )) as BoxedWorkload
    }

    fn big_memory_workload(duration: u64) -> BoxedWorkload {
        Box::new(PhasedWorkload::new(
            "mem-test",
            WorkloadKind::Mem,
            vec![Phase::new(
                duration,
                ResourceDemand {
                    cpu_user: 0.25,
                    cpu_system: 0.1,
                    working_set_kb: 400.0 * 1024.0,
                    ..Default::default()
                },
                0.05,
            )],
            false,
        )) as BoxedWorkload
    }

    #[test]
    fn cpu_workload_in_roomy_vm_shows_cpu_not_io() {
        let cfg = VmConfig::paper_default(NodeId(1));
        let mut vm = VirtualMachine::new(cfg, cpu_workload(100), 42);
        for _ in 0..50 {
            vm.tick_solo();
        }
        let f = vm.metric_frame();
        // Dual-CPU VM running one full-core app → ~47-50% user.
        assert!(f.get(MetricId::CpuUser) > 35.0, "cpu_user = {}", f.get(MetricId::CpuUser));
        assert!(f.get(MetricId::SwapIn) < 10.0);
        assert!(f.get(MetricId::IoBi) < 50.0);
    }

    #[test]
    fn paging_emerges_from_small_memory() {
        // Same working set, tiny VM → swap and io activity plus slowdown.
        let cfg = VmConfig::small_memory(NodeId(1));
        let mut vm = VirtualMachine::new(cfg, cpu_workload(100), 42);
        for _ in 0..50 {
            vm.tick_solo();
        }
        let f = vm.metric_frame();
        assert!(f.get(MetricId::SwapIn) > 500.0, "swap_in = {}", f.get(MetricId::SwapIn));
        assert!(f.get(MetricId::IoBi) > 500.0, "swap traffic must hit the disk");
        // Progress is slower than wall time.
        assert!(vm.progress() < 49.0, "progress = {}", vm.progress());
    }

    #[test]
    fn runtime_stretches_under_paging() {
        // SPECseis96 A vs B: same workload, different VM memory.
        let mk = |cfg| {
            let mut vm = VirtualMachine::new(cfg, cpu_workload(200), 7);
            let mut secs = 0u64;
            while !vm.finished() && secs < 10_000 {
                vm.tick_solo();
                secs += 1;
            }
            secs
        };
        let roomy = mk(VmConfig::paper_default(NodeId(1)));
        let starved = mk(VmConfig::small_memory(NodeId(1)));
        assert!(
            starved as f64 > roomy as f64 * 1.2,
            "paging must stretch runtime: roomy={roomy}, starved={starved}"
        );
    }

    #[test]
    fn buffer_cache_absorbs_io_when_memory_roomy() {
        let cfg = VmConfig::paper_default(NodeId(1));
        // small working set → big cache → absorbed I/O
        let mut wl_demand = ResourceDemand {
            disk_read: 300.0,
            disk_write: 300.0,
            cpu_user: 0.9,
            working_set_kb: 40.0 * 1024.0,
            file_set_kb: 120.0 * 1024.0,
            ..Default::default()
        };
        let w = PhasedWorkload::new(
            "c",
            WorkloadKind::Cpu,
            vec![Phase::new(100, wl_demand, 0.0)],
            false,
        );
        let mut vm = VirtualMachine::new(cfg, Box::new(w), 1);
        for _ in 0..20 {
            vm.tick_solo();
        }
        let f = vm.metric_frame();
        let absorbed_io = f.get(MetricId::IoBi) + f.get(MetricId::IoBo);

        // same file traffic, starved VM → real disk I/O
        wl_demand.working_set_kb = 26.0 * 1024.0; // still overflows the 32MB VM a bit
        let w2 = PhasedWorkload::new(
            "c2",
            WorkloadKind::Cpu,
            vec![Phase::new(100, wl_demand, 0.0)],
            false,
        );
        let mut vm2 = VirtualMachine::new(VmConfig::small_memory(NodeId(1)), Box::new(w2), 1);
        for _ in 0..20 {
            vm2.tick_solo();
        }
        let f2 = vm2.metric_frame();
        let real_io = f2.get(MetricId::IoBi) + f2.get(MetricId::IoBo);
        assert!(
            real_io > absorbed_io * 3.0,
            "cache starvation must expose I/O: roomy={absorbed_io}, starved={real_io}"
        );
    }

    #[test]
    fn nfs_turns_io_into_network() {
        let local = VmConfig::paper_default(NodeId(1));
        let nfs = VmConfig::paper_default(NodeId(2)).with_nfs();
        let run = |cfg| {
            let mut vm = VirtualMachine::new(cfg, io_workload(300), 5);
            for _ in 0..50 {
                vm.tick_solo();
            }
            let f = vm.metric_frame();
            (
                f.get(MetricId::IoBi) + f.get(MetricId::IoBo),
                f.get(MetricId::BytesIn) + f.get(MetricId::BytesOut),
                vm.progress(),
            )
        };
        let (io_local, net_local, prog_local) = run(local);
        let (io_nfs, net_nfs, prog_nfs) = run(nfs);
        assert!(io_local > 1000.0, "local PostMark is I/O heavy: {io_local}");
        assert!(io_nfs < 100.0, "NFS PostMark must not hit local disk: {io_nfs}");
        assert!(net_nfs > net_local * 10.0, "NFS traffic must be network: {net_nfs}");
        assert!(prog_nfs < prog_local, "NFS must be slower");
    }

    #[test]
    fn heavy_working_set_pages_in_standard_vm() {
        let cfg = VmConfig::paper_default(NodeId(1));
        let mut vm = VirtualMachine::new(cfg, big_memory_workload(300), 3);
        for _ in 0..50 {
            vm.tick_solo();
        }
        let f = vm.metric_frame();
        assert!(f.get(MetricId::SwapIn) > 2000.0, "PageBench-style app must page hard");
    }

    #[test]
    fn contention_share_slows_progress() {
        let cfg = VmConfig::paper_default(NodeId(1));
        let mut vm = VirtualMachine::new(cfg, cpu_workload(1000), 9);
        for _ in 0..10 {
            let d = vm.peek_demand();
            vm.tick(d, ResourceShare { cpu: 0.5, disk: 1.0, net: 1.0 });
        }
        assert!(vm.progress() < 6.0, "half CPU share halves progress: {}", vm.progress());
        assert!(vm.progress() > 4.0);
    }

    #[test]
    fn solo_vm_is_a_metric_source() {
        let cfg = VmConfig::paper_default(NodeId(4));
        let mut solo = SoloVm::new(VirtualMachine::new(cfg, cpu_workload(100), 11));
        assert_eq!(solo.node(), NodeId(4));
        let f0 = solo.sample(5);
        let f1 = solo.sample(10);
        assert!(f0.get(MetricId::CpuUser) > 30.0);
        assert!(f1.get(MetricId::CpuUser) > 30.0);
        assert_eq!(solo.vm().wall_secs(), 10);
    }

    #[test]
    fn vmstat_provider_reports_last_tick() {
        let cfg = VmConfig::small_memory(NodeId(1));
        let mut vm = VirtualMachine::new(cfg, cpu_workload(100), 2);
        vm.tick_solo();
        let r = vm.vmstat(0);
        assert!(r.swap_in > 0.0);
    }

    #[test]
    fn finished_workloads_report_done() {
        let cfg = VmConfig::paper_default(NodeId(1));
        let mut vm = VirtualMachine::new(cfg, cpu_workload(5), 1);
        assert!(!vm.finished());
        for _ in 0..8 {
            vm.tick_solo();
        }
        assert!(vm.finished());
    }

    #[test]
    fn metric_frame_resets_accumulator() {
        let cfg = VmConfig::paper_default(NodeId(1));
        let mut vm = VirtualMachine::new(cfg, cpu_workload(100), 1);
        for _ in 0..5 {
            vm.tick_solo();
        }
        let _ = vm.metric_frame();
        // Without new ticks, the next frame sees an empty accumulator.
        let f = vm.metric_frame();
        assert!(f.get(MetricId::CpuUser) < 5.0);
    }
}
