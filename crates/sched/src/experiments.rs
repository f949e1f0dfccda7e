//! The §5.2 experiment drivers: Figure 4, Figure 5 and Table 4.
//!
//! Each driver runs the actual host simulator (not a closed-form
//! contention model) and returns typed rows, so the CLI and benches print
//! exactly the series the paper reports.

use crate::schedule::{enumerate_schedules, JobType, MachineMix, Schedule};
use appclass_metrics::NodeId;
use appclass_sim::host::Host;
use appclass_sim::vm::{VirtualMachine, VmConfig};
use appclass_sim::workload::{ch3d, netpipe, postmark, specseis, BoxedWorkload};
use serde::{Deserialize, Serialize};

/// Simulation cap per machine (seconds); generous against the ~500–1000 s
/// expected makespans.
const MAX_SECS: u64 = 50_000;

fn build_job(t: JobType) -> BoxedWorkload {
    match t {
        JobType::S => Box::new(specseis::specseis(specseis::DataSize::Small)),
        JobType::P => Box::new(postmark::postmark()),
        JobType::N => Box::new(netpipe::netpipe()),
    }
}

/// Outcome of one machine running its job mix to completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineOutcome {
    /// The mix that ran.
    pub mix: MachineMix,
    /// Per-job completions `(type, wall seconds)`.
    pub jobs: Vec<(JobType, u64)>,
    /// Wall time until the machine's last job finished.
    pub makespan_secs: u64,
}

/// Runs one machine's mix on a simulated host with the paper's standard
/// capacity.
pub fn run_machine(mix: &MachineMix, seed: u64) -> MachineOutcome {
    run_machine_with(mix, appclass_sim::resources::Capacity::paper_host(), seed)
}

/// Runs one machine's mix on a host with an explicit capacity — the
/// heterogeneous-cluster experiments use this (the paper's VM1 host was a
/// 1.8 GHz machine, VM2–4's a 2.4 GHz one).
pub fn run_machine_with(
    mix: &MachineMix,
    capacity: appclass_sim::resources::Capacity,
    seed: u64,
) -> MachineOutcome {
    let mut host = Host::new(capacity);
    for (i, t) in mix.jobs().into_iter().enumerate() {
        let vm = VirtualMachine::new(
            VmConfig::paper_default(NodeId(i as u32 + 1)),
            build_job(t),
            seed.wrapping_mul(31).wrapping_add(i as u64),
        );
        host.add_vm(vm);
    }
    let results = host.run_to_completion(MAX_SECS);
    let jobs: Vec<(JobType, u64)> = mix
        .jobs()
        .into_iter()
        .zip(&results)
        .map(|(t, r)| (t, r.completion_secs.expect("job completed within cap")))
        .collect();
    MachineOutcome { mix: *mix, jobs, makespan_secs: host.makespan().expect("all jobs completed") }
}

/// Outcome of one full schedule (three machines in parallel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    /// The schedule that ran.
    pub schedule: Schedule,
    /// Per-machine outcomes.
    pub machines: Vec<MachineOutcome>,
    /// System throughput: nine jobs over the slowest machine's makespan,
    /// in jobs/day.
    pub throughput_jobs_per_day: f64,
}

/// Runs a full schedule, machines in parallel threads (they are
/// independent hosts).
pub fn run_schedule(schedule: &Schedule, seed: u64) -> ScheduleOutcome {
    let cap = appclass_sim::resources::Capacity::paper_host();
    run_schedule_with(schedule, [cap, cap, cap], seed)
}

/// Runs a full schedule on machines of explicit (possibly heterogeneous)
/// capacities.
pub fn run_schedule_with(
    schedule: &Schedule,
    capacities: [appclass_sim::resources::Capacity; 3],
    seed: u64,
) -> ScheduleOutcome {
    let mut outcomes: Vec<Option<MachineOutcome>> = vec![None, None, None];
    std::thread::scope(|s| {
        for (i, ((mix, capacity), slot)) in
            schedule.machines().iter().zip(capacities).zip(outcomes.iter_mut()).enumerate()
        {
            s.spawn(move || {
                *slot = Some(run_machine_with(mix, capacity, seed.wrapping_add(1000 * i as u64)));
            });
        }
    });
    let machines: Vec<MachineOutcome> = outcomes.into_iter().map(|o| o.expect("ran")).collect();
    let worst = machines.iter().map(|m| m.makespan_secs).max().expect("three machines") as f64;
    ScheduleOutcome {
        schedule: *schedule,
        machines,
        throughput_jobs_per_day: 9.0 * 86_400.0 / worst,
    }
}

/// One bar of Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Schedule id 1–10, in the paper's order.
    pub id: usize,
    /// Schedule label, e.g. `{(SPN),(SPN),(SPN)}`.
    pub label: String,
    /// Measured system throughput, jobs/day.
    pub throughput_jobs_per_day: f64,
}

/// The complete Figure 4: per-schedule system throughput plus the summary
/// statistics the paper quotes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Result {
    /// The ten bars, schedule 1 through 10.
    pub rows: Vec<Fig4Row>,
    /// Mean throughput over all ten schedules — the expected value of the
    /// class-blind random scheduler.
    pub average: f64,
    /// Throughput of the class-aware schedule 10, `{(SPN)x3}`.
    pub class_aware: f64,
    /// The paper's headline: percentage improvement of the class-aware
    /// schedule over the random-scheduler average (paper: 22.11%).
    pub improvement_pct: f64,
}

impl Fig4Result {
    /// Standard deviation of the per-schedule throughputs — the "large
    /// variances of system throughput" the paper attributes to random
    /// schedule selection.
    pub fn std_dev(&self) -> f64 {
        let n = self.rows.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let var = self
            .rows
            .iter()
            .map(|r| {
                let d = r.throughput_jobs_per_day - self.average;
                d * d
            })
            .sum::<f64>()
            / (n - 1.0);
        var.sqrt()
    }
}

/// Runs every schedule once — the measurement both figures are derived
/// from.
pub fn run_all_schedules(seed: u64) -> Vec<ScheduleOutcome> {
    enumerate_schedules()
        .iter()
        .enumerate()
        .map(|(i, s)| run_schedule(s, seed.wrapping_add(i as u64 * 17)))
        .collect()
}

/// Assembles Figure 4 from schedule outcomes.
pub fn figure4_from(outcomes: &[ScheduleOutcome]) -> Fig4Result {
    let rows: Vec<Fig4Row> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| Fig4Row {
            id: i + 1,
            label: o.schedule.to_string(),
            throughput_jobs_per_day: o.throughput_jobs_per_day,
        })
        .collect();
    let average = rows.iter().map(|r| r.throughput_jobs_per_day).sum::<f64>() / rows.len() as f64;
    let class_aware = rows.last().expect("ten rows").throughput_jobs_per_day;
    Fig4Result {
        rows,
        average,
        class_aware,
        improvement_pct: (class_aware / average - 1.0) * 100.0,
    }
}

/// Runs all ten schedules and assembles Figure 4.
pub fn figure4(seed: u64) -> Fig4Result {
    figure4_from(&run_all_schedules(seed))
}

/// Runs the ten schedules once and assembles both figures — what
/// `appclass::paper` renders Figures 4 and 5 from, so both come from one
/// simulation pass.
pub fn figure4_and_5(seed: u64) -> (Fig4Result, Vec<Fig5Row>) {
    let outcomes = run_all_schedules(seed);
    (figure4_from(&outcomes), figure5_from(&outcomes))
}

/// One group of Figure 5: an application's throughput statistics across
/// the ten schedules.
///
/// The application throughput of one schedule is the combined completion
/// rate of its three instances across the system (jobs/day). The paper
/// compares the proposed schedule 10 (`SPN`) against the minimum, maximum
/// and average over all ten schedules, noting which sub-schedule drove the
/// maximum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// The application.
    pub app: JobType,
    /// Worst per-schedule throughput (jobs/day).
    pub min: f64,
    /// Best per-schedule throughput.
    pub max: f64,
    /// Label of the schedule achieving `max` (the paper observes the
    /// maxima coming from `(SSN)`/`(PPN)` sub-schedules rather than the
    /// proposed `(SPN)`).
    pub max_schedule: String,
    /// Mean throughput over all ten schedules.
    pub avg: f64,
    /// Throughput under the class-aware schedule `{(SPN)x3}`.
    pub spn: f64,
}

/// Application throughput of one schedule outcome: combined rate of the
/// app's three instances (jobs/day).
pub fn app_throughput(outcome: &ScheduleOutcome, app: JobType) -> f64 {
    outcome
        .machines
        .iter()
        .flat_map(|m| m.jobs.iter())
        .filter(|(t, _)| *t == app)
        .map(|&(_, secs)| 86_400.0 / secs as f64)
        .sum()
}

/// Assembles Figure 5 from schedule outcomes.
pub fn figure5_from(outcomes: &[ScheduleOutcome]) -> Vec<Fig5Row> {
    JobType::ALL
        .iter()
        .map(|&app| {
            let stats: Vec<(f64, String)> =
                outcomes.iter().map(|o| (app_throughput(o, app), o.schedule.to_string())).collect();
            let spn = outcomes
                .iter()
                .find(|o| o.schedule.is_fully_diverse())
                .map(|o| app_throughput(o, app))
                .expect("schedule 10 present");
            let min = stats.iter().map(|(t, _)| *t).fold(f64::INFINITY, f64::min);
            let (max, max_schedule) = stats
                .iter()
                .cloned()
                .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
                .expect("ten schedules");
            let avg = stats.iter().map(|(t, _)| *t).sum::<f64>() / stats.len() as f64;
            Fig5Row { app, min, max, max_schedule, avg, spn }
        })
        .collect()
}

/// Table 4: concurrent vs sequential execution of CH3D and PostMark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table4Result {
    /// CH3D elapsed time when co-scheduled with PostMark (s).
    pub concurrent_ch3d: u64,
    /// PostMark elapsed time when co-scheduled with CH3D (s).
    pub concurrent_postmark: u64,
    /// Time to finish both jobs concurrently (the machine makespan).
    pub concurrent_total: u64,
    /// CH3D elapsed time running alone (s).
    pub sequential_ch3d: u64,
    /// PostMark elapsed time running alone (s).
    pub sequential_postmark: u64,
    /// Time to finish both jobs back to back.
    pub sequential_total: u64,
}

/// Runs the Table 4 experiment.
pub fn table4(seed: u64) -> Table4Result {
    // Concurrent: both jobs on one host.
    let mut host = Host::paper_host();
    host.add_vm(VirtualMachine::new(
        VmConfig::paper_default(NodeId(1)),
        Box::new(ch3d::ch3d()),
        seed,
    ));
    host.add_vm(VirtualMachine::new(
        VmConfig::paper_default(NodeId(2)),
        Box::new(postmark::postmark()),
        seed.wrapping_add(1),
    ));
    let results = host.run_to_completion(MAX_SECS);
    let concurrent_ch3d = results[0].completion_secs.expect("ch3d finished");
    let concurrent_postmark = results[1].completion_secs.expect("postmark finished");
    let concurrent_total = host.makespan().expect("both finished");

    // Sequential: each job alone on the host, times summed.
    let solo = |w: BoxedWorkload, s: u64| -> u64 {
        let mut host = Host::paper_host();
        host.add_vm(VirtualMachine::new(VmConfig::paper_default(NodeId(1)), w, s));
        let r = host.run_to_completion(MAX_SECS);
        r[0].completion_secs.expect("finished")
    };
    let sequential_ch3d = solo(Box::new(ch3d::ch3d()), seed.wrapping_add(2));
    let sequential_postmark = solo(Box::new(postmark::postmark()), seed.wrapping_add(3));

    Table4Result {
        concurrent_ch3d,
        concurrent_postmark,
        concurrent_total,
        sequential_ch3d,
        sequential_postmark,
        sequential_total: sequential_ch3d + sequential_postmark,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_run_completes_all_jobs() {
        let mix = MachineMix::new(1, 1, 1).unwrap();
        let out = run_machine(&mix, 7);
        assert_eq!(out.jobs.len(), 3);
        assert!(out.makespan_secs > 0);
        assert_eq!(out.makespan_secs, out.jobs.iter().map(|&(_, t)| t).max().unwrap());
    }

    #[test]
    fn spn_beats_sss_machine() {
        let spn = run_machine(&MachineMix::new(1, 1, 1).unwrap(), 7);
        let sss = run_machine(&MachineMix::new(3, 0, 0).unwrap(), 7);
        assert!(
            spn.makespan_secs < sss.makespan_secs,
            "diverse mix {} must beat same-class {}",
            spn.makespan_secs,
            sss.makespan_secs
        );
    }

    #[test]
    fn spn_wins_on_heterogeneous_cluster() {
        // The paper's actual testbed mixes a 1.8 GHz host with 2.4 GHz
        // hosts. Model the slow host as having fewer effective cores and
        // check the class-aware schedule still beats full same-class
        // placement.
        use appclass_sim::resources::Capacity;
        let slow = Capacity { cpu_cores: 1.5, ..Capacity::paper_host() };
        let fast = Capacity::paper_host();
        let caps = [slow, fast, fast];
        let schedules = enumerate_schedules();
        let same_class = run_schedule_with(&schedules[0], caps, 3);
        let diverse = run_schedule_with(schedules.last().unwrap(), caps, 3);
        assert!(
            diverse.throughput_jobs_per_day > same_class.throughput_jobs_per_day,
            "diverse {} vs same-class {}",
            diverse.throughput_jobs_per_day,
            same_class.throughput_jobs_per_day
        );
    }

    #[test]
    fn table4_concurrent_beats_sequential() {
        let t = table4(3);
        // The paper's shape: each job is slower concurrently, but the two
        // together finish sooner than running back to back.
        assert!(t.concurrent_ch3d >= t.sequential_ch3d);
        assert!(t.concurrent_postmark >= t.sequential_postmark);
        assert!(
            t.concurrent_total < t.sequential_total,
            "concurrent {} must beat sequential {}",
            t.concurrent_total,
            t.sequential_total
        );
    }
}
