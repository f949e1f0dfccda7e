//! Job types, machine mixes, and the ten schedules of Figure 4.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The three job types of the §5.2 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum JobType {
    /// `S` — SPECseis96 with small data (CPU-intensive).
    S,
    /// `P` — PostMark with a local directory (I/O-intensive).
    P,
    /// `N` — NetPIPE client (network-intensive).
    N,
}

impl JobType {
    /// All job types.
    pub const ALL: [JobType; 3] = [JobType::S, JobType::P, JobType::N];

    /// One-letter label as used in Figure 4.
    pub fn letter(self) -> char {
        match self {
            JobType::S => 'S',
            JobType::P => 'P',
            JobType::N => 'N',
        }
    }
}

/// The job mix on one machine: counts of S, P, N jobs (always 3 total in
/// the Figure 4 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MachineMix {
    /// SPECseis96 instances.
    pub s: u8,
    /// PostMark instances.
    pub p: u8,
    /// NetPIPE instances.
    pub n: u8,
}

impl MachineMix {
    /// Builds a mix, checking it holds exactly three jobs. The sum is
    /// widened so large inputs return `None` instead of overflowing `u8`.
    pub fn new(s: u8, p: u8, n: u8) -> Option<Self> {
        if s as u16 + p as u16 + n as u16 == 3 {
            Some(MachineMix { s, p, n })
        } else {
            None
        }
    }

    /// Number of distinct job classes on the machine (1–3); 3 is the
    /// maximally diverse `(SPN)` mix.
    pub fn diversity(&self) -> u8 {
        [self.s, self.p, self.n].iter().filter(|&&c| c > 0).count() as u8
    }

    /// The jobs on this machine, expanded.
    pub fn jobs(&self) -> Vec<JobType> {
        let mut v = Vec::with_capacity(3);
        v.extend(std::iter::repeat_n(JobType::S, self.s as usize));
        v.extend(std::iter::repeat_n(JobType::P, self.p as usize));
        v.extend(std::iter::repeat_n(JobType::N, self.n as usize));
        v
    }
}

impl fmt::Display for MachineMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for t in self.jobs() {
            write!(f, "{}", t.letter())?;
        }
        write!(f, ")")
    }
}

/// One complete placement of the nine jobs on three machines, in canonical
/// (sorted-descending) order so equivalent permutations compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schedule {
    machines: [MachineMix; 3],
}

impl Schedule {
    /// Builds a schedule from three machine mixes, checking the global job
    /// counts (3 of each type) and canonicalizing the machine order.
    pub fn new(mut machines: [MachineMix; 3]) -> Option<Self> {
        let (s, p, n) = machines.iter().fold((0, 0, 0), |(s, p, n), m| (s + m.s, p + m.p, n + m.n));
        if (s, p, n) != (3, 3, 3) {
            return None;
        }
        // Canonical order: descending by (s, p, n) tuple.
        machines.sort_by_key(|m| std::cmp::Reverse((m.s, m.p, m.n)));
        Some(Schedule { machines })
    }

    /// The three machine mixes, canonical order.
    pub fn machines(&self) -> &[MachineMix; 3] {
        &self.machines
    }

    /// True for the class-aware schedule `{(SPN),(SPN),(SPN)}`.
    pub fn is_fully_diverse(&self) -> bool {
        self.machines.iter().all(|m| m.diversity() == 3)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{},{},{}}}", self.machines[0], self.machines[1], self.machines[2])
    }
}

/// Enumerates every distinct schedule of three S, three P and three N jobs
/// onto three 3-job machines. There are exactly ten (Figure 4's x-axis),
/// returned in the paper's numbering order: same-class-heavy first, the
/// fully diverse `{(SPN),(SPN),(SPN)}` last.
pub fn enumerate_schedules() -> Vec<Schedule> {
    let mut mixes = Vec::new();
    for s in 0..=3u8 {
        for p in 0..=3 - s {
            mixes.push(MachineMix::new(s, p, 3 - s - p).expect("sums to 3"));
        }
    }
    let mut set = std::collections::BTreeSet::new();
    for &a in &mixes {
        for &b in &mixes {
            for &c in &mixes {
                if let Some(sch) = Schedule::new([a, b, c]) {
                    set.insert(SortableSchedule(sch));
                }
            }
        }
    }
    let mut v: Vec<Schedule> = set.into_iter().map(|s| s.0).collect();
    // Paper order: most same-class concentration first, full diversity
    // last. Sort by ascending total diversity, then by display label for
    // a stable, readable order.
    v.sort_by_key(|s| {
        let div: u8 = s.machines().iter().map(|m| m.diversity()).sum();
        (div, s.to_string())
    });
    v
}

/// Ordering wrapper so schedules can live in a BTreeSet.
#[derive(PartialEq, Eq)]
struct SortableSchedule(Schedule);

impl Ord for SortableSchedule {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |s: &Schedule| s.machines().map(|m| (m.s, m.p, m.n));
        key(&self.0).cmp(&key(&other.0))
    }
}

impl PartialOrd for SortableSchedule {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_ten_schedules() {
        let all = enumerate_schedules();
        assert_eq!(all.len(), 10, "the paper's Figure 4 lists ten schedules");
    }

    #[test]
    fn all_paper_schedules_present() {
        let all = enumerate_schedules();
        let labels: Vec<String> = all.iter().map(|s| s.to_string()).collect();
        // The paper's list, canonicalized.
        for expected in [
            "{(SSS),(PPP),(NNN)}",
            "{(SSS),(PPN),(PNN)}",
            "{(SSP),(SPP),(NNN)}",
            "{(SSP),(SPN),(PNN)}",
            "{(SSP),(SNN),(PPN)}",
            "{(SSN),(SPP),(PNN)}",
            "{(SSN),(SPN),(PPN)}",
            "{(SSN),(SNN),(PPP)}",
            "{(SPP),(SPN),(SNN)}",
            "{(SPN),(SPN),(SPN)}",
        ] {
            assert!(labels.contains(&expected.to_string()), "missing {expected}: {labels:?}");
        }
    }

    #[test]
    fn diverse_schedule_is_last() {
        let all = enumerate_schedules();
        assert!(all.last().unwrap().is_fully_diverse());
        assert_eq!(all.iter().filter(|s| s.is_fully_diverse()).count(), 1);
    }

    #[test]
    fn mix_validation() {
        assert!(MachineMix::new(1, 1, 1).is_some());
        assert!(MachineMix::new(2, 2, 0).is_none());
        let m = MachineMix::new(2, 1, 0).unwrap();
        assert_eq!(m.diversity(), 2);
        assert_eq!(m.jobs(), vec![JobType::S, JobType::S, JobType::P]);
        assert_eq!(m.to_string(), "(SSP)");
    }

    #[test]
    fn schedule_canonicalization() {
        let a = MachineMix::new(3, 0, 0).unwrap();
        let b = MachineMix::new(0, 3, 0).unwrap();
        let c = MachineMix::new(0, 0, 3).unwrap();
        let s1 = Schedule::new([a, b, c]).unwrap();
        let s2 = Schedule::new([c, a, b]).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_string(), "{(SSS),(PPP),(NNN)}");
    }

    #[test]
    fn schedule_rejects_wrong_totals() {
        let a = MachineMix::new(3, 0, 0).unwrap();
        assert!(Schedule::new([a, a, a]).is_none());
    }
}
