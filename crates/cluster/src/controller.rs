//! The cluster control loop: believed compositions in, placements and
//! migrations out.
//!
//! [`ClusterController`] owns a fleet of simulated [`Host`]s ticking in
//! lockstep and a belief table mapping every VM to the five-class
//! composition the *classifier* (not ground truth) currently assigns it.
//! Beliefs arrive three ways, mirroring a real deployment:
//!
//! * at placement time, from the solo profiling run the experiment
//!   driver streams through the trained pipeline;
//! * continuously, from a serve-stack [`CompositionFeed`] (§6's
//!   monitoring daemons feeding the central learner);
//! * at restart, warm-started from the [`ApplicationDb`]'s historical
//!   per-application statistics (PR 6's durable log).
//!
//! Every `check_interval_secs` the controller samples all hosts through
//! one reused snapshot buffer (the steady-state tick allocates nothing —
//! see `crates/sim/tests/host_zero_alloc.rs`), scores each host with the
//! [`PlacementEngine`], and migrates a VM off any host whose predicted
//! mean slowdown crosses the threshold, provided a target host makes the
//! *cluster* better, not just that host. A burst of migrations beyond
//! `storm_threshold` in one check files a flight-recorder incident: a
//! thrashing control loop is an operational event, not business as usual.

use crate::engine::{HostSpec, PlacementEngine};
use crate::policy::PlacementPolicy;
use appclass_core::appdb::ApplicationDb;
use appclass_core::ClassComposition;
use appclass_metrics::Snapshot;
use appclass_obs::Observability;
use appclass_serve::CompositionFeed;
use appclass_sim::host::Host;
use appclass_sim::vm::VirtualMachine;
use std::collections::BTreeMap;

/// Tunables of the control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Seconds between monitoring/rebalance checks.
    pub check_interval_secs: u64,
    /// Predicted mean slowdown above which a host is overloaded.
    pub migration_threshold: f64,
    /// A migration must improve the worse of (source, target) score by at
    /// least this much — hysteresis against ping-ponging.
    pub min_improvement: f64,
    /// Hard cap on migrations per check (the storm valve).
    pub max_migrations_per_check: usize,
    /// Migrations in a single check at or above this count file a
    /// flight-recorder incident.
    pub storm_threshold: usize,
    /// Master switch; `false` gives a static (placement-only) cluster.
    pub migrations_enabled: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            check_interval_secs: 30,
            migration_threshold: 1.6,
            min_improvement: 0.05,
            max_migrations_per_check: 8,
            storm_threshold: 4,
            migrations_enabled: true,
        }
    }
}

/// The datacenter-scale control loop over a fleet of simulated hosts.
pub struct ClusterController {
    hosts: Vec<Host>,
    spec: HostSpec,
    engine: PlacementEngine,
    config: ControllerConfig,
    /// Believed composition per VM (node id), sourced from classification.
    beliefs: BTreeMap<u32, ClassComposition>,
    /// Wall-clock second each VM's job completed at.
    completed: BTreeMap<u32, u64>,
    /// Historical compositions per application name (appdb warm start).
    warm: BTreeMap<String, ClassComposition>,
    wall_secs: u64,
    migrations: u64,
    snap_buf: Vec<Snapshot>,
    comp_buf: Vec<ClassComposition>,
    /// Wall-clock second each VM's belief was last refreshed, for the
    /// `cluster_belief_staleness` gauge.
    belief_updated: BTreeMap<u32, u64>,
    /// Trace id last attached to each VM's belief (from the serve feed),
    /// linking a placement decision back to the distributed trace of the
    /// telemetry that motivated it.
    traces: BTreeMap<u32, u64>,
    obs: Observability,
}

impl ClusterController {
    /// A controller over `n_hosts` empty hosts of `spec` capacity.
    pub fn new(
        n_hosts: usize,
        spec: HostSpec,
        engine: PlacementEngine,
        config: ControllerConfig,
    ) -> Self {
        let obs = Observability::new();
        Self::register_metrics(&obs);
        ClusterController {
            hosts: (0..n_hosts).map(|_| Host::new(spec.capacity)).collect(),
            spec,
            engine,
            config,
            beliefs: BTreeMap::new(),
            completed: BTreeMap::new(),
            warm: BTreeMap::new(),
            wall_secs: 0,
            migrations: 0,
            snap_buf: Vec::new(),
            comp_buf: Vec::new(),
            belief_updated: BTreeMap::new(),
            traces: BTreeMap::new(),
            obs,
        }
    }

    /// Attaches an observability bundle (replacing the controller's own
    /// default one): controller gauges, the placement/migration counters,
    /// and storm incidents report through it. Pre-registers the cluster
    /// metrics so a scrape before the first event still sees them.
    pub fn with_observability(mut self, obs: Observability) -> Self {
        Self::register_metrics(&obs);
        self.obs = obs;
        self
    }

    /// The controller's observability bundle — same shape as
    /// `ShardServer::observability()`, so a fleet monitor can scrape serving
    /// and scheduling through one code path.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Pre-registers every metric the controller exports, so they appear
    /// in expositions (and TsStore scrapes discover their series) before
    /// the first placement or migration happens.
    fn register_metrics(obs: &Observability) {
        obs.registry.counter("cluster_placements_total");
        obs.registry.counter("cluster_migrations_total");
        obs.registry.gauge("cluster_belief_staleness");
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Read access to the fleet.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Lockstep wall clock, seconds.
    pub fn wall_secs(&self) -> u64 {
        self.wall_secs
    }

    /// Total migrations executed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The believed composition of one VM, if any source has reported it.
    pub fn belief(&self, node: u32) -> Option<ClassComposition> {
        self.beliefs.get(&node).copied()
    }

    /// Overrides the believed composition of one VM (the placement-time
    /// profiling path).
    pub fn set_belief(&mut self, node: u32, comp: ClassComposition) {
        self.beliefs.insert(node, comp);
        self.belief_updated.insert(node, self.wall_secs);
    }

    /// The trace id last attached to a VM's belief by the serve feed,
    /// when that telemetry stream was traced.
    pub fn trace_of(&self, node: u32) -> Option<u64> {
        self.traces.get(&node).copied().filter(|&t| t != 0)
    }

    /// Wall-clock completion second of one VM's job, once finished.
    pub fn completion_of(&self, node: u32) -> Option<u64> {
        self.completed.get(&node).copied()
    }

    /// True once every hosted job has finished.
    pub fn all_finished(&self) -> bool {
        self.hosts.iter().all(Host::all_finished)
    }

    /// Updates beliefs from a live serve-stack feed. `session_to_node`
    /// maps the server's session ids to VM node ids; sessions without a
    /// mapping are ignored (they belong to someone else's VMs).
    ///
    /// Returns how many beliefs were updated.
    pub fn ingest_feed(
        &mut self,
        feed: &CompositionFeed,
        session_to_node: &BTreeMap<u32, u32>,
    ) -> usize {
        let mut updated = 0;
        for entry in feed.entries() {
            if let Some(&node) = session_to_node.get(&entry.session) {
                self.beliefs.insert(node, entry.composition);
                self.belief_updated.insert(node, self.wall_secs);
                if entry.trace != 0 {
                    self.traces.insert(node, entry.trace);
                }
                updated += 1;
            }
        }
        updated
    }

    /// Warm-starts per-application beliefs from the application database:
    /// a restarted controller knows what `PostMark` looked like across
    /// recorded history before the first live frame arrives.
    ///
    /// Returns how many applications were loaded.
    pub fn ingest_appdb(&mut self, db: &ApplicationDb) -> usize {
        let stats = db.all_stats();
        let n = stats.len();
        for s in stats {
            self.warm.insert(s.app, s.mean_composition);
        }
        n
    }

    /// The warm-start composition recorded for an application name.
    pub fn warm_belief(&self, app: &str) -> Option<ClassComposition> {
        self.warm.get(app).copied()
    }

    /// Places a VM on the host `policy` chooses, recording `comp` as the
    /// controller's belief about it. Returns the host index, or `None`
    /// when the cluster is full (the VM is dropped in that case).
    pub fn place(
        &mut self,
        vm: VirtualMachine,
        comp: ClassComposition,
        policy: &mut dyn PlacementPolicy,
    ) -> Option<usize> {
        let views: Vec<Vec<ClassComposition>> =
            self.hosts.iter().map(|h| self.occupant_beliefs(h)).collect();
        let idx = policy.place(comp, &views, &self.spec)?;
        debug_assert!(self.hosts[idx].vm_count() < self.spec.slots, "policy overfilled a host");
        self.beliefs.insert(vm.node().0, comp);
        self.belief_updated.insert(vm.node().0, self.wall_secs);
        self.hosts[idx].add_vm(vm);
        self.obs.registry.counter("cluster_placements_total").inc();
        Some(idx)
    }

    fn occupant_beliefs(&self, host: &Host) -> Vec<ClassComposition> {
        host.vms()
            .iter()
            .filter(|vm| !vm.finished())
            .map(|vm| {
                self.beliefs.get(&vm.node().0).copied().unwrap_or_else(|| {
                    ClassComposition::from_labels(&[appclass_core::AppClass::Idle])
                })
            })
            .collect()
    }

    /// Advances the whole cluster one wall-clock second; on check
    /// boundaries, monitors the fleet and (if enabled) rebalances it.
    pub fn tick(&mut self) {
        let mut snaps = std::mem::take(&mut self.snap_buf);
        for host in &mut self.hosts {
            host.tick();
            // The monitoring leg of the loop: every host is sampled
            // through the same reused buffer, so the steady-state
            // controller tick performs no heap allocation once warm.
            host.sample_all_into(&mut snaps);
        }
        self.snap_buf = snaps;
        self.wall_secs += 1;
        for host in &self.hosts {
            for vm in host.vms() {
                if vm.finished() && !self.completed.contains_key(&vm.node().0) {
                    self.completed.insert(vm.node().0, self.wall_secs);
                }
            }
        }
        if self.wall_secs.is_multiple_of(self.config.check_interval_secs.max(1)) {
            self.monitor();
            if self.config.migrations_enabled {
                self.rebalance();
            }
        }
    }

    /// Ticks until every job finishes or `max_secs` elapses; returns the
    /// wall clock at stop.
    pub fn run_until(&mut self, max_secs: u64) -> u64 {
        while !self.all_finished() && self.wall_secs < max_secs {
            self.tick();
        }
        self.wall_secs
    }

    /// Predicted mean slowdown of one host under current beliefs.
    pub fn host_score(&self, idx: usize) -> f64 {
        let comps = self.occupant_beliefs(&self.hosts[idx]);
        self.engine.mean_slowdown(&comps, &self.spec.capacity)
    }

    fn monitor(&mut self) {
        let obs = &self.obs;
        let active: usize = self.hosts.iter().map(Host::active_count).sum();
        let overloaded = (0..self.hosts.len())
            .filter(|&i| self.host_score(i) > self.config.migration_threshold)
            .count();
        obs.registry.gauge("cluster_hosts").set(self.hosts.len() as f64);
        obs.registry.gauge("cluster_active_vms").set(active as f64);
        obs.registry.gauge("cluster_overloaded_hosts").set(overloaded as f64);
        obs.registry.gauge("cluster_wall_secs").set(self.wall_secs as f64);
        // Oldest belief among still-active VMs, in cluster seconds: the
        // scheduling loop acting on week-old classifications is exactly
        // the failure an SLO on this gauge catches.
        let staleness = self
            .hosts
            .iter()
            .flat_map(|h| h.vms().iter())
            .filter(|vm| !vm.finished())
            .map(|vm| {
                self.belief_updated
                    .get(&vm.node().0)
                    .map_or(self.wall_secs, |&at| self.wall_secs.saturating_sub(at))
            })
            .max()
            .unwrap_or(0);
        obs.registry.gauge("cluster_belief_staleness").set(staleness as f64);
    }

    fn rebalance(&mut self) {
        let mut moved_this_check = 0usize;
        for src in 0..self.hosts.len() {
            if moved_this_check >= self.config.max_migrations_per_check {
                break;
            }
            if self.host_score(src) <= self.config.migration_threshold {
                continue;
            }
            if self.try_migrate_from(src) {
                moved_this_check += 1;
            }
        }
        if moved_this_check > 0 {
            self.migrations += moved_this_check as u64;
            self.obs.registry.counter("cluster_migrations_total").add(moved_this_check as u64);
            if moved_this_check >= self.config.storm_threshold {
                self.obs.incident("cluster migration storm");
            }
        }
    }

    /// Picks the active VM whose departure most improves `src`, and the
    /// free-slot target that minimizes the worse of the two scores after
    /// the move. Migrates only when that improves on the status quo by
    /// the hysteresis margin.
    fn try_migrate_from(&mut self, src: usize) -> bool {
        let src_before = self.host_score(src);
        let src_comps = self.occupant_beliefs(&self.hosts[src]);
        if src_comps.len() < 2 {
            return false; // nothing to split up
        }

        let mut best: Option<(u32, usize, f64)> = None; // (node, target, worse-after)
        let active: Vec<(u32, ClassComposition)> = self.hosts[src]
            .vms()
            .iter()
            .filter(|vm| !vm.finished())
            .map(|vm| {
                let comp = self.belief(vm.node().0).unwrap_or_else(|| {
                    ClassComposition::from_labels(&[appclass_core::AppClass::Idle])
                });
                (vm.node().0, comp)
            })
            .collect();

        for (node, comp) in &active {
            // Source score with this VM removed.
            self.comp_buf.clear();
            for (other, other_comp) in &active {
                if other != node {
                    self.comp_buf.push(*other_comp);
                }
            }
            let src_after = self.engine.mean_slowdown(&self.comp_buf, &self.spec.capacity);
            for tgt in 0..self.hosts.len() {
                if tgt == src || self.hosts[tgt].vm_count() >= self.spec.slots {
                    continue;
                }
                // Compared in the same units as `host_score` (mean
                // slowdown), not the engine's marginal placement score.
                let mut tgt_comps = self.occupant_beliefs(&self.hosts[tgt]);
                tgt_comps.push(*comp);
                let tgt_after = self.engine.mean_slowdown(&tgt_comps, &self.spec.capacity);
                let worse = src_after.max(tgt_after);
                if best.is_none_or(|(_, _, b)| worse < b) {
                    best = Some((*node, tgt, worse));
                }
            }
        }

        let Some((node, tgt, worse_after)) = best else { return false };
        if worse_after + self.config.min_improvement >= src_before {
            return false;
        }
        let idx = self.hosts[src]
            .vms()
            .iter()
            .position(|vm| vm.node().0 == node)
            .expect("chosen VM still on source host");
        let vm = self.hosts[src].remove_vm(idx);
        self.hosts[tgt].add_vm(vm);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ClassAwarePolicy, RandomPolicy};
    use appclass_core::appdb::RunRecord;
    use appclass_core::AppClass;
    use appclass_metrics::NodeId;
    use appclass_serve::FeedEntry;
    use appclass_sim::vm::VmConfig;
    use appclass_sim::workload::{postmark, specseis};

    fn pure(class: AppClass) -> ClassComposition {
        ClassComposition::from_labels(&[class])
    }

    fn cpu_vm(node: u32) -> VirtualMachine {
        VirtualMachine::new(
            VmConfig::paper_default(NodeId(node)),
            Box::new(specseis::specseis(specseis::DataSize::Small)),
            500 + node as u64,
        )
    }

    fn io_vm(node: u32) -> VirtualMachine {
        VirtualMachine::new(
            VmConfig::paper_default(NodeId(node)),
            Box::new(postmark::postmark()),
            500 + node as u64,
        )
    }

    fn controller(n: usize, migrations: bool) -> ClusterController {
        let config = ControllerConfig { migrations_enabled: migrations, ..Default::default() };
        ClusterController::new(n, HostSpec::paper(), PlacementEngine::new(), config)
    }

    #[test]
    fn places_and_completes_jobs() {
        let mut ctl = controller(2, false);
        let mut policy = ClassAwarePolicy::default();
        ctl.place(cpu_vm(1), pure(AppClass::Cpu), &mut policy).unwrap();
        ctl.place(io_vm(2), pure(AppClass::Io), &mut policy).unwrap();
        let wall = ctl.run_until(20_000);
        assert!(ctl.all_finished());
        assert!(ctl.completion_of(1).unwrap() <= wall);
        assert!(ctl.completion_of(2).unwrap() <= wall);
        assert_eq!(ctl.migrations(), 0);
    }

    #[test]
    fn full_cluster_rejects_placement() {
        let mut ctl = controller(1, false);
        let mut policy = RandomPolicy::new(1);
        for n in 0..3 {
            assert!(ctl.place(cpu_vm(n), pure(AppClass::Cpu), &mut policy).is_some());
        }
        assert!(ctl.place(cpu_vm(9), pure(AppClass::Cpu), &mut policy).is_none());
    }

    #[test]
    fn migration_drains_an_overloaded_host() {
        // Host 0 gets three CPU jobs (believed overloaded), host 1 idles
        // empty: the first check must move somebody.
        let obs = Observability::new();
        let mut ctl = controller(2, true).with_observability(obs.clone());
        // Force the pile-up through a colluding "policy".
        struct Pin;
        impl PlacementPolicy for Pin {
            fn name(&self) -> &'static str {
                "pin"
            }
            fn place(
                &mut self,
                _c: ClassComposition,
                _h: &[Vec<ClassComposition>],
                _s: &HostSpec,
            ) -> Option<usize> {
                Some(0)
            }
        }
        for n in 0..3 {
            ctl.place(cpu_vm(n), pure(AppClass::Cpu), &mut Pin).unwrap();
        }
        assert!(ctl.host_score(0) > 1.6, "three CPU beliefs must look overloaded");
        for _ in 0..ControllerConfig::default().check_interval_secs {
            ctl.tick();
        }
        assert!(ctl.migrations() >= 1, "the check must have migrated off host 0");
        assert!(ctl.hosts()[1].vm_count() >= 1);
        assert_eq!(
            obs.registry.counter("cluster_migrations_total").get(),
            ctl.migrations(),
            "counter tracks migrations"
        );
        // Fleet gauges were published on the check boundary.
        assert_eq!(obs.registry.gauge("cluster_hosts").get(), 2.0);
    }

    #[test]
    fn balanced_cluster_never_migrates() {
        let mut ctl = controller(3, true);
        let mut policy = ClassAwarePolicy::default();
        for n in 0..3 {
            ctl.place(cpu_vm(n), pure(AppClass::Cpu), &mut policy).unwrap();
        }
        ctl.run_until(5_000);
        assert_eq!(ctl.migrations(), 0, "one VM per host has nothing to rebalance");
    }

    #[test]
    fn feed_ingestion_updates_beliefs() {
        let mut ctl = controller(1, false);
        let feed = CompositionFeed::new();
        feed.publish(FeedEntry {
            session: 7,
            class: AppClass::Net,
            composition: pure(AppClass::Net),
            confidence: 0.9,
            frames: 12,
            model: 1,
            trace: 0xFACE,
        });
        feed.publish(FeedEntry {
            session: 8,
            class: AppClass::Cpu,
            composition: pure(AppClass::Cpu),
            confidence: 0.8,
            frames: 9,
            model: 1,
            trace: 0,
        });
        let map = BTreeMap::from([(7u32, 41u32)]); // session 8 is not ours
        assert_eq!(ctl.ingest_feed(&feed, &map), 1);
        assert_eq!(ctl.belief(41), Some(pure(AppClass::Net)));
        assert_eq!(ctl.belief(8), None);
        // The traced feed entry links the VM's belief to its trace; an
        // untraced entry (trace 0) never would.
        assert_eq!(ctl.trace_of(41), Some(0xFACE));
        assert_eq!(ctl.trace_of(8), None);
    }

    #[test]
    fn controller_owns_a_registry_with_preregistered_metrics() {
        let mut ctl = controller(2, false);
        let text = ctl.observability().registry.render();
        for metric in
            ["cluster_placements_total", "cluster_migrations_total", "cluster_belief_staleness"]
        {
            assert!(text.contains(metric), "{metric} must be pre-registered:\n{text}");
        }
        let mut policy = ClassAwarePolicy::default();
        ctl.place(cpu_vm(1), pure(AppClass::Cpu), &mut policy).unwrap();
        assert_eq!(ctl.observability().registry.counter("cluster_placements_total").get(), 1);
    }

    #[test]
    fn belief_staleness_gauge_tracks_the_oldest_active_belief() {
        let obs = Observability::new();
        let mut ctl = controller(2, false).with_observability(obs.clone());
        let mut policy = ClassAwarePolicy::default();
        ctl.place(cpu_vm(1), pure(AppClass::Cpu), &mut policy).unwrap();
        let interval = ControllerConfig::default().check_interval_secs;
        for _ in 0..interval {
            ctl.tick();
        }
        let stale = obs.registry.gauge("cluster_belief_staleness").get();
        assert_eq!(stale, interval as f64, "belief placed at t=0, checked at t={interval}");
        // A refreshed belief resets the age on the next check.
        ctl.set_belief(1, pure(AppClass::Cpu));
        for _ in 0..interval {
            ctl.tick();
        }
        let refreshed = obs.registry.gauge("cluster_belief_staleness").get();
        assert!(
            refreshed <= interval as f64,
            "refresh at t={interval} must cap staleness at {interval}, got {refreshed}"
        );
    }

    #[test]
    fn appdb_warm_start_supplies_beliefs() {
        let mut db = ApplicationDb::new();
        db.record(RunRecord {
            app: "PostMark".into(),
            class: AppClass::Io,
            composition: pure(AppClass::Io),
            exec_secs: 260,
            samples: 52,
        });
        let mut ctl = controller(1, false);
        assert_eq!(ctl.ingest_appdb(&db), 1);
        let comp = ctl.warm_belief("PostMark").unwrap();
        assert_eq!(comp.majority(), AppClass::Io);
        assert!(ctl.warm_belief("nope").is_none());
    }
}
