//! The placement engine: the repository's one contention model.
//!
//! §4.4's question, generalized: score *any* candidate placement of a VM
//! — described only by its observed five-class [`ClassComposition`], not
//! a ground-truth job type — onto a host of arbitrary per-resource
//! capacity already running an arbitrary set of VMs. Each class has a
//! nominal demand profile ([`class_demand`], [`class_solo_secs`]); a VM's
//! demand is its class fractions' linear mix of them. The mechanics
//! mirror the host simulator: proportional sharing per resource,
//! device-emulation CPU cost, and the per-VM virtualization tax. On the
//! paper's three dual-CPU machines and pure CPU/IO/NET VMs, the engine
//! reduces to the closed-form slowdown of the §5.2 instance (the
//! reference in this module's tests), ranks `{(SPN),(SPN),(SPN)}` first
//! of the ten schedules, and tracks the simulator's three-of-a-kind
//! makespans (both in `tests/scheduling_shapes.rs`).
//!
//! An optional energy term extends the score beyond the paper: amortized
//! host power per VM, which rewards consolidation when the operator
//! prices energy above throughput.

use appclass_core::{AppClass, ClassComposition};
use appclass_sim::host::{IO_CPU_COST, MIN_GUEST_CORES, NET_CPU_COST, VIRT_OVERHEAD};
use appclass_sim::resources::Capacity;
use serde::{Deserialize, Serialize};

/// Nominal per-second demand a class places on each physical resource.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ClassDemand {
    /// CPU demand, cores.
    pub cpu: f64,
    /// Disk demand, blocks/s.
    pub disk: f64,
    /// Network demand, bytes/s.
    pub net: f64,
}

impl ClassDemand {
    /// Component-wise sum.
    fn add(&mut self, other: ClassDemand, weight: f64) {
        self.cpu += other.cpu * weight;
        self.disk += other.disk * weight;
        self.net += other.net * weight;
    }
}

/// A VM's demand is only *gated* by a resource it meaningfully uses: a
/// CPU job is charged nothing for its negligible disk traffic, because
/// the engine ignores any resource the VM demands less than this
/// fraction of host capacity from.
const SIGNIFICANT_FRACTION: f64 = 0.05;

/// Fraction of peak host power burned while idle (2005-era servers were
/// nowhere near energy-proportional).
const IDLE_POWER: f64 = 0.6;

/// Weight of the anticipatory diversity term in [`PlacementEngine::score`].
///
/// On a dual-core host two CPU jobs do not contend *yet* (2 × 0.95 < 2
/// cores), so a myopic mean-slowdown score ties a CPU→CPU pairing with a
/// CPU→IO pairing and dooms the third arrival to a same-class pile. The
/// diversity term charges a placement a little for overlapping its
/// neighbours' normalized demand vectors — enough to order ties toward
/// complementary mixes, and (at ~0.02–0.05 per overlapping pair) far too
/// small to override a real predicted slowdown difference.
const DIVERSITY_WEIGHT: f64 = 0.1;

/// Nominal demand of one *pure* class, per second of wall time.
///
/// CPU, IO and NET match the §5.2 jobs' workload models (SPECseis96
/// small, PostMark, NetPIPE). MEM and IDLE are calibrated against the
/// simulator's PageBench and idle workload models: a thrashing guest's
/// paging shows up physically as swap-driven disk traffic (measured
/// ≈ 9.2 k blocks/s solo — over three quarters of the paper host's disk
/// bandwidth, which is why MEM piles are the costliest placements) plus
/// the faulting thread's CPU, and an idle guest still costs a sliver of
/// everything.
pub fn class_demand(class: AppClass) -> ClassDemand {
    match class {
        AppClass::Cpu => ClassDemand { cpu: 0.95, disk: 120.0, net: 0.0 },
        AppClass::Io => ClassDemand { cpu: 0.23, disk: 7_000.0, net: 0.0 },
        AppClass::Net => ClassDemand { cpu: 0.35, disk: 0.0, net: 2.6e7 },
        AppClass::Mem => ClassDemand { cpu: 0.30, disk: 9_200.0, net: 0.0 },
        AppClass::Idle => ClassDemand { cpu: 0.01, disk: 1.0, net: 2.4e3 },
    }
}

/// Nominal uncontended runtime of one pure class, seconds; `None` for
/// IDLE, which never completes. CPU/IO/NET are the §5.2 jobs' solo
/// runtimes; MEM is calibrated against the PageBench workload model
/// (paging stretches its 300 s working phase to ≈ 2000 s even solo).
pub fn class_solo_secs(class: AppClass) -> Option<f64> {
    match class {
        AppClass::Cpu => Some(525.0),
        AppClass::Io => Some(260.0),
        AppClass::Net => Some(370.0),
        AppClass::Mem => Some(2_000.0),
        AppClass::Idle => None,
    }
}

/// Relative completion-rate weight of a VM: how many jobs per day this
/// VM's class nominally completes, normalized so the fastest class (IO)
/// weighs 1. The throughput the experiments measure is `Σ 86 400 /
/// completion` — slowing a 260 s PostMark by 2× costs the cluster far
/// more daily completions than slowing a 2000 s PageBench by the same
/// factor, and an IDLE VM (which never completes) costs nothing *itself*
/// — only the damage it does to neighbours counts. The engine's score
/// weights each VM's predicted slowdown by this rate so greedy placement
/// optimizes the metric that is actually reported.
pub fn composition_rate_weight(comp: &ClassComposition) -> f64 {
    let fastest = class_solo_secs(AppClass::Io).expect("IO completes");
    let mut w = 0.0;
    for class in AppClass::ALL {
        let f = comp.fraction(class);
        if f > 0.0 {
            if let Some(solo) = class_solo_secs(class) {
                w += f * fastest / solo;
            }
        }
    }
    w
}

/// The composition-weighted demand of one VM: what a VM that spends 70%
/// of its snapshots looking CPU-bound and 30% looking IO-bound asks of
/// the host, per second.
pub fn composition_demand(comp: &ClassComposition) -> ClassDemand {
    let mut d = ClassDemand::default();
    for class in AppClass::ALL {
        let f = comp.fraction(class);
        if f > 0.0 {
            d.add(class_demand(class), f);
        }
    }
    d
}

/// One host the engine can place onto: a per-resource capacity plus the
/// provider's VM-slot limit (the paper co-locates three).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Physical capacity (cores, disk bandwidth, network bandwidth).
    pub capacity: Capacity,
    /// Maximum co-located VMs.
    pub slots: usize,
}

impl HostSpec {
    /// The paper's testbed host: dual-CPU Xeon, three VM slots.
    pub fn paper() -> Self {
        HostSpec { capacity: Capacity::paper_host(), slots: 3 }
    }

    /// An N-core generalization of the paper host: `factor`× the cores
    /// *and* proportionally scaled disk/network bandwidth and slots — a
    /// bigger box, same balance.
    pub fn scaled(factor: f64) -> Self {
        let base = Capacity::paper_host();
        HostSpec {
            capacity: Capacity {
                cpu_cores: base.cpu_cores * factor,
                disk_blocks_per_sec: base.disk_blocks_per_sec * factor,
                net_bytes_per_sec: base.net_bytes_per_sec * factor,
            },
            slots: ((3.0 * factor).round() as usize).max(1),
        }
    }
}

/// The generalized cost model: predicted mean slowdown of a host's VMs,
/// with an optional amortized-energy term.
///
/// Lower scores are better. The prediction is closed-form and
/// deterministic: the same compositions and capacity always score the
/// same, which the placement proptests pin down.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementEngine {
    /// Weight of the amortized per-VM energy term added to the mean
    /// slowdown; `0.0` (the default) scores pure throughput.
    pub energy_weight: f64,
}

impl Default for PlacementEngine {
    fn default() -> Self {
        PlacementEngine::new()
    }
}

impl PlacementEngine {
    /// A throughput-only engine (no energy term).
    pub fn new() -> Self {
        PlacementEngine { energy_weight: 0.0 }
    }

    /// An engine that adds `weight × (host power ÷ VMs)` to each score,
    /// rewarding consolidation onto fewer, fuller hosts.
    pub fn with_energy_weight(weight: f64) -> Self {
        PlacementEngine { energy_weight: weight }
    }

    /// Predicted slowdown (≥ 1) of each VM in `comps` when co-located on
    /// a host of `capacity`, in input order.
    pub fn per_vm_slowdowns(&self, comps: &[ClassComposition], capacity: &Capacity) -> Vec<f64> {
        let shares = self.shares(comps.iter().copied(), capacity);
        comps.iter().map(|c| vm_slowdown(&composition_demand(c), &shares, capacity)).collect()
    }

    /// Predicted mean slowdown of a host running exactly `comps`.
    pub fn mean_slowdown(&self, comps: &[ClassComposition], capacity: &Capacity) -> f64 {
        self.mean_slowdown_iter(comps.iter().copied(), capacity)
    }

    /// The placement score of adding `candidate` to a host already
    /// running `existing`: the *marginal* predicted rate-weighted
    /// slowdown — total weighted slowdown after the add minus total
    /// before, so the candidate is charged both its own slowdown and the
    /// damage it does to its neighbours (virtualization tax, stolen
    /// bandwidth), each scaled by [`composition_rate_weight`] so that
    /// hurting a fast-completing VM costs more than hurting a slow one —
    /// plus an anticipatory diversity penalty for overlapping the
    /// neighbours' bottleneck resources, plus the optional amortized
    /// energy term. Greedy argmin of this marginal cost tracks the
    /// cluster-wide daily-completions sum the experiments measure;
    /// scoring the joined host's unweighted *mean* instead would ignore
    /// both the harm done to neighbours and which neighbours matter.
    /// Does not allocate.
    pub fn score(
        &self,
        existing: &[ClassComposition],
        candidate: ClassComposition,
        spec: &HostSpec,
    ) -> f64 {
        let it = existing.iter().copied().chain(std::iter::once(candidate));
        let before = self.weighted_cost_iter(existing.iter().copied(), &spec.capacity);
        let slowdown = self.weighted_cost_iter(it.clone(), &spec.capacity) - before;
        let cand = composition_demand(&candidate);
        let mut diversity = 0.0;
        for neighbour in existing {
            diversity += demand_overlap(&cand, &composition_demand(neighbour), &spec.capacity);
        }
        let mut score = slowdown + DIVERSITY_WEIGHT * diversity;
        if self.energy_weight != 0.0 {
            let k = existing.len() + 1;
            let mut total = ClassDemand::default();
            for comp in it {
                total.add(composition_demand(&comp), 1.0);
            }
            let util = (total.cpu / spec.capacity.cpu_cores).min(1.0);
            let power = IDLE_POWER + (1.0 - IDLE_POWER) * util;
            score += self.energy_weight * power / k as f64;
        }
        score
    }

    fn mean_slowdown_iter(
        &self,
        comps: impl Iterator<Item = ClassComposition> + Clone,
        capacity: &Capacity,
    ) -> f64 {
        let shares = self.shares(comps.clone(), capacity);
        let mut sum = 0.0;
        let mut k = 0usize;
        for comp in comps {
            sum += vm_slowdown(&composition_demand(&comp), &shares, capacity);
            k += 1;
        }
        if k == 0 {
            return 1.0;
        }
        sum / k as f64
    }

    /// Total rate-weighted slowdown of a host running exactly `comps`:
    /// the engine's internal currency, also exposed so tests can measure
    /// whole-cluster placements in the units the score optimizes.
    pub fn weighted_cost(&self, comps: &[ClassComposition], capacity: &Capacity) -> f64 {
        self.weighted_cost_iter(comps.iter().copied(), capacity)
    }

    fn weighted_cost_iter(
        &self,
        comps: impl Iterator<Item = ClassComposition> + Clone,
        capacity: &Capacity,
    ) -> f64 {
        let shares = self.shares(comps.clone(), capacity);
        comps
            .map(|c| {
                composition_rate_weight(&c)
                    * vm_slowdown(&composition_demand(&c), &shares, capacity)
            })
            .sum()
    }

    /// Post-contention grant fractions per resource, mirroring
    /// `Host::tick`: virtualization tax, device-emulation CPU cost, then
    /// proportional sharing.
    fn shares(
        &self,
        comps: impl Iterator<Item = ClassComposition>,
        capacity: &Capacity,
    ) -> ResourceShares {
        let mut total = ClassDemand::default();
        let mut k = 0usize;
        for comp in comps {
            total.add(composition_demand(&comp), 1.0);
            k += 1;
        }
        let virt = if k > 1 { 1.0 / (1.0 + VIRT_OVERHEAD * (k - 1) as f64) } else { 1.0 };
        let emulation = (total.disk / capacity.disk_blocks_per_sec).min(1.0) * IO_CPU_COST
            + (total.net / capacity.net_bytes_per_sec).min(1.0) * NET_CPU_COST;
        let guest_cores = (capacity.cpu_cores - emulation).max(MIN_GUEST_CORES);
        ResourceShares {
            cpu: (guest_cores / total.cpu.max(1e-12)).min(1.0) * virt,
            disk: (capacity.disk_blocks_per_sec / total.disk.max(1e-12)).min(1.0) * virt,
            net: (capacity.net_bytes_per_sec / total.net.max(1e-12)).min(1.0) * virt,
        }
    }
}

struct ResourceShares {
    cpu: f64,
    disk: f64,
    net: f64,
}

/// How strongly a VM of this composition contends with copies of itself:
/// the squared norm of its capacity-normalized demand vector. MEM ≈ 0.61
/// (paging nearly saturates the disk alone), IO ≈ 0.35, CPU ≈ 0.23,
/// NET ≈ 0.09, IDLE ≈ 0.
pub fn contentiousness(comp: &ClassComposition, capacity: &Capacity) -> f64 {
    let d = composition_demand(comp);
    demand_overlap(&d, &d, capacity)
}

/// Batch placement order: indices of `comps` sorted hardest-first by
/// [`contentiousness`] (ties keep input order).
///
/// Greedy placement is myopic — with jobs arriving easiest-first it
/// happily pairs two CPU VMs on a dual-core host (they do not contend
/// *yet*) and dooms a later third CPU arrival to the pile. Placing the
/// most contention-prone VMs while the cluster is still empty is the
/// first-fit-decreasing idea from bin packing, and the experiment driver
/// applies it to every policy's job list (a no-op for random placement).
pub fn placement_order(comps: &[ClassComposition], capacity: &Capacity) -> Vec<usize> {
    let mut order: Vec<usize> = (0..comps.len()).collect();
    order.sort_by(|&a, &b| {
        contentiousness(&comps[b], capacity)
            .partial_cmp(&contentiousness(&comps[a], capacity))
            .expect("contentiousness is finite")
    });
    order
}

/// Dot product of two demand vectors, each normalized by host capacity:
/// near zero for complementary classes, up to ~0.25 for two VMs hammering
/// the same resource.
fn demand_overlap(a: &ClassDemand, b: &ClassDemand, capacity: &Capacity) -> f64 {
    (a.cpu / capacity.cpu_cores) * (b.cpu / capacity.cpu_cores)
        + (a.disk / capacity.disk_blocks_per_sec) * (b.disk / capacity.disk_blocks_per_sec)
        + (a.net / capacity.net_bytes_per_sec) * (b.net / capacity.net_bytes_per_sec)
}

fn vm_slowdown(demand: &ClassDemand, shares: &ResourceShares, capacity: &Capacity) -> f64 {
    // Every VM is gated by its CPU grant; disk and network only gate VMs
    // that meaningfully use them.
    let mut share = shares.cpu;
    if demand.disk / capacity.disk_blocks_per_sec > SIGNIFICANT_FRACTION {
        share = share.min(shares.disk);
    }
    if demand.net / capacity.net_bytes_per_sec > SIGNIFICANT_FRACTION {
        share = share.min(shares.net);
    }
    1.0 / share
}

#[cfg(test)]
mod tests {
    use super::*;
    use AppClass::{Cpu, Io, Net};

    fn pure(class: AppClass) -> ClassComposition {
        ClassComposition::from_labels(&[class])
    }

    /// Every multiset of CPU, IO and NET jobs with one to three members:
    /// the §5.2 instance's machine mixes and their partial fills.
    fn pure_mixes() -> Vec<Vec<AppClass>> {
        let mut mixes = Vec::new();
        for s in 0..=3 {
            for p in 0..=3 - s {
                for n in (0..=3 - s - p).filter(|n| s + p + n > 0) {
                    mixes.push([vec![Cpu; s], vec![Io; p], vec![Net; n]].concat());
                }
            }
        }
        mixes
    }

    /// The closed-form slowdowns `(cpu, io, net)` of a pure CPU/IO/NET
    /// mix, the reference the engine must reduce to: proportional share
    /// per resource after the emulation CPU cost and the virtualization
    /// tax, every job gated by the CPU grant and IO/NET jobs also by
    /// their own resource. Its demand rows are its own copy, so a change
    /// to [`class_demand`] cannot move both sides at once.
    fn mix_slowdowns(mix: &[AppClass], capacity: &Capacity) -> (f64, f64, f64) {
        let (mut cpu, mut disk, mut net) = (0.0, 0.0, 0.0);
        for class in mix {
            let (c, d, n) = match class {
                Cpu => (0.95, 120.0, 0.0),
                Io => (0.23, 7_000.0, 0.0),
                Net => (0.35, 0.0, 2.6e7),
                other => unreachable!("the §5.2 instance has no {other:?} job"),
            };
            cpu += c;
            disk += d;
            net += n;
        }
        let virt = 1.0 / (1.0 + VIRT_OVERHEAD * (mix.len() - 1) as f64);
        let emulation = (disk / capacity.disk_blocks_per_sec).min(1.0) * IO_CPU_COST
            + (net / capacity.net_bytes_per_sec).min(1.0) * NET_CPU_COST;
        let guest_cores = (capacity.cpu_cores - emulation).max(MIN_GUEST_CORES);
        let cpu_share = (guest_cores / cpu).min(1.0) * virt;
        let disk_share = (capacity.disk_blocks_per_sec / disk.max(1e-12)).min(1.0) * virt;
        let net_share = (capacity.net_bytes_per_sec / net.max(1e-12)).min(1.0) * virt;
        (1.0 / cpu_share, 1.0 / disk_share.min(cpu_share), 1.0 / net_share.min(cpu_share))
    }

    /// On its home turf — pure CPU/IO/NET VMs on the paper host — the
    /// generalization is exactly the closed form, for every mix of one
    /// to three jobs, and never predicts a speed-up.
    #[test]
    fn matches_closed_form_on_pure_classes() {
        let engine = PlacementEngine::new();
        let cap = Capacity::paper_host();
        for mix in pure_mixes() {
            let comps: Vec<ClassComposition> = mix.iter().map(|&c| pure(c)).collect();
            let (cpu, io, net) = mix_slowdowns(&mix, &cap);
            let ours = engine.per_vm_slowdowns(&comps, &cap);
            for (class, slow) in mix.iter().zip(&ours) {
                let expected = match class {
                    Cpu => cpu,
                    Io => io,
                    _ => net,
                };
                assert!(
                    (slow - expected).abs() < 1e-9,
                    "{class:?} in {mix:?}: engine {slow} vs closed form {expected}"
                );
                assert!(*slow >= 1.0, "{class:?} in {mix:?} sped up: {slow}");
            }
        }
    }

    /// A same-class pile slows its own class more than the diverse mix.
    #[test]
    fn same_class_piles_slow_their_class_more() {
        let engine = PlacementEngine::new();
        let cap = Capacity::paper_host();
        let first = |mix: [AppClass; 3]| engine.per_vm_slowdowns(&mix.map(pure), &cap)[0];
        assert!(first([Cpu; 3]) > first([Cpu, Io, Net]), "three CPU jobs contend");
        assert!(first([Io; 3]) > first([Io, Cpu, Net]), "three IO jobs contend");
    }

    #[test]
    fn diverse_mix_scores_better_than_pileup() {
        let engine = PlacementEngine::new();
        let spec = HostSpec::paper();
        let diverse =
            engine.score(&[pure(AppClass::Cpu), pure(AppClass::Io)], pure(AppClass::Net), &spec);
        let pileup =
            engine.score(&[pure(AppClass::Cpu), pure(AppClass::Cpu)], pure(AppClass::Cpu), &spec);
        assert!(diverse < pileup, "diverse {diverse} must beat pile-up {pileup}");
    }

    #[test]
    fn empty_host_scores_lowest() {
        let engine = PlacementEngine::new();
        let spec = HostSpec::paper();
        let alone = engine.score(&[], pure(AppClass::Cpu), &spec);
        let second = engine.score(&[pure(AppClass::Io)], pure(AppClass::Cpu), &spec);
        assert!(alone < second, "the virtualization tax alone must separate {alone} / {second}");
        // An empty host costs exactly the candidate's own weighted
        // uncontended slowdown (1.0 × its rate weight).
        assert!((alone - composition_rate_weight(&pure(AppClass::Cpu))).abs() < 1e-12);
    }

    #[test]
    fn bigger_hosts_absorb_more() {
        let engine = PlacementEngine::new();
        let small = HostSpec::paper();
        let big = HostSpec::scaled(4.0);
        assert_eq!(big.slots, 12);
        let comps = [pure(AppClass::Cpu), pure(AppClass::Cpu)];
        let on_small = engine.score(&comps, pure(AppClass::Cpu), &small);
        let on_big = engine.score(&comps, pure(AppClass::Cpu), &big);
        assert!(on_big < on_small, "8 cores fit three CPU jobs: {on_big} vs {on_small}");
    }

    #[test]
    fn energy_term_rewards_consolidation() {
        // Weighted high enough that the amortized idle-power saving
        // outweighs the marginal virtualization tax of joining.
        let engine = PlacementEngine::with_energy_weight(2.0);
        let spec = HostSpec::scaled(4.0);
        // Joining two idle-ish neighbours amortizes the idle power floor
        // over three VMs instead of paying it alone.
        let join = engine.score(
            &[pure(AppClass::Idle), pure(AppClass::Idle)],
            pure(AppClass::Idle),
            &spec,
        );
        let alone = engine.score(&[], pure(AppClass::Idle), &spec);
        assert!(join < alone, "consolidated {join} must beat lone {alone}");
    }

    #[test]
    fn mixed_composition_demand_interpolates() {
        let half = ClassComposition::from_fractions(0.0, 0.5, 0.5, 0.0, 0.0).unwrap();
        let d = composition_demand(&half);
        let cpu = class_demand(AppClass::Cpu);
        let io = class_demand(AppClass::Io);
        assert!((d.cpu - (cpu.cpu + io.cpu) / 2.0).abs() < 1e-12);
        assert!((d.disk - (cpu.disk + io.disk) / 2.0).abs() < 1e-12);
    }
}
