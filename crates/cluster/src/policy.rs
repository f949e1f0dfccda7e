//! Placement policies: who decides which host a VM boots on.
//!
//! Two policies bracket the experiment space the way the paper's
//! Figure 4 brackets schedules:
//!
//! * [`RandomPolicy`] — the naive baseline: any host with a free slot,
//!   uniformly at random (seeded, so runs replay bit-identically).
//! * [`ClassAwarePolicy`] — the paper's loop closed: greedy argmin of the
//!   [`PlacementEngine`] score over the compositions it is given. Fed
//!   what the *observed* telemetry produced, misclassification flows
//!   straight into placement quality, which is the point; fed
//!   ground-truth compositions, the same policy is the oracle upper
//!   bound the experiment driver measures that gap against.

use crate::engine::{HostSpec, PlacementEngine};
use appclass_core::ClassComposition;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chooses a host for each arriving VM.
///
/// `hosts[i]` holds the believed compositions of the VMs already on host
/// `i`; a host is full when it has `spec.slots` occupants. Returns the
/// chosen host index, or `None` when every host is full.
pub trait PlacementPolicy {
    /// Short label used in experiment reports.
    fn name(&self) -> &'static str;

    /// Picks a host with a free slot for `candidate`.
    fn place(
        &mut self,
        candidate: ClassComposition,
        hosts: &[Vec<ClassComposition>],
        spec: &HostSpec,
    ) -> Option<usize>;
}

/// Uniform-random placement over hosts with free slots.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: StdRng,
}

impl RandomPolicy {
    /// A seeded random policy; the same seed replays the same choices.
    pub fn new(seed: u64) -> Self {
        RandomPolicy { rng: StdRng::seed_from_u64(seed) }
    }
}

impl PlacementPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(
        &mut self,
        _candidate: ClassComposition,
        hosts: &[Vec<ClassComposition>],
        spec: &HostSpec,
    ) -> Option<usize> {
        let free = hosts.iter().filter(|h| h.len() < spec.slots).count();
        if free == 0 {
            return None;
        }
        let pick = self.rng.gen_range(0..free);
        hosts.iter().enumerate().filter(|(_, h)| h.len() < spec.slots).nth(pick).map(|(i, _)| i)
    }
}

/// Greedy engine-score placement over believed compositions: observed
/// ones in the class-aware fleet, ground truth in the oracle fleet.
#[derive(Debug, Clone, Default)]
pub struct ClassAwarePolicy {
    engine: PlacementEngine,
}

impl ClassAwarePolicy {
    /// A class-aware policy scoring with `engine`.
    pub fn new(engine: PlacementEngine) -> Self {
        ClassAwarePolicy { engine }
    }
}

impl PlacementPolicy for ClassAwarePolicy {
    fn name(&self) -> &'static str {
        "class-aware"
    }

    fn place(
        &mut self,
        candidate: ClassComposition,
        hosts: &[Vec<ClassComposition>],
        spec: &HostSpec,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, occupants) in hosts.iter().enumerate() {
            if occupants.len() >= spec.slots {
                continue;
            }
            let score = self.engine.score(occupants, candidate, spec);
            // Strict `<` keeps ties on the lowest index: deterministic.
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((i, score));
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appclass_core::AppClass;

    fn pure(class: AppClass) -> ClassComposition {
        ClassComposition::from_labels(&[class])
    }

    fn empty_cluster(n: usize) -> Vec<Vec<ClassComposition>> {
        vec![Vec::new(); n]
    }

    #[test]
    fn class_aware_spreads_same_class_jobs() {
        let mut policy = ClassAwarePolicy::default();
        let spec = HostSpec::paper();
        let mut hosts = empty_cluster(3);
        for _ in 0..3 {
            let i = policy.place(pure(AppClass::Cpu), &hosts, &spec).unwrap();
            hosts[i].push(pure(AppClass::Cpu));
        }
        assert!(
            hosts.iter().all(|h| h.len() == 1),
            "three CPU jobs must land on three different hosts, got {:?}",
            hosts.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }

    #[test]
    fn class_aware_prefers_complementary_neighbours() {
        let mut policy = ClassAwarePolicy::default();
        let spec = HostSpec::paper();
        // Two cores absorb two CPU jobs, so contention needs the pile to
        // be two deep before the third arrival feels it.
        let hosts = vec![
            vec![pure(AppClass::Cpu), pure(AppClass::Cpu)],
            vec![pure(AppClass::Io), pure(AppClass::Net)],
        ];
        // A CPU job must avoid the CPU pile and join the IO/NET host.
        assert_eq!(policy.place(pure(AppClass::Cpu), &hosts, &spec), Some(1));
    }

    #[test]
    fn full_cluster_refuses_placement() {
        let spec = HostSpec { slots: 1, ..HostSpec::paper() };
        let hosts = vec![vec![pure(AppClass::Cpu)]; 2];
        assert_eq!(ClassAwarePolicy::default().place(pure(AppClass::Io), &hosts, &spec), None);
        assert_eq!(RandomPolicy::new(7).place(pure(AppClass::Io), &hosts, &spec), None);
    }

    #[test]
    fn random_is_seed_deterministic_and_respects_slots() {
        let spec = HostSpec::paper();
        let run = |seed: u64| {
            let mut policy = RandomPolicy::new(seed);
            let mut hosts = empty_cluster(4);
            let mut picks = Vec::new();
            for k in 0..12 {
                let class = AppClass::ALL[k % 5];
                let i = policy.place(pure(class), &hosts, &spec).unwrap();
                assert!(hosts[i].len() < spec.slots);
                hosts[i].push(pure(class));
                picks.push(i);
            }
            picks
        };
        assert_eq!(run(9), run(9));
        // 4 hosts × 3 slots = 12 VMs: a full pack must always succeed.
        assert_eq!(run(10).len(), 12);
    }
}
