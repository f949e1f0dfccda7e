//! Integration test: the §5.2 scheduling results hold in shape, and the
//! cluster placement engine — the repository's one contention model —
//! ranks and places the paper's jobs the way the simulator measures them.

use appclass::cluster::{
    class_solo_secs, placement_order, ClassAwarePolicy, HostSpec, PlacementEngine, PlacementPolicy,
};
use appclass::core::{AppClass, ClassComposition};
use appclass::sched::experiments::{app_throughput, figure4, run_machine, run_schedule, table4};
use appclass::sched::{enumerate_schedules, JobType, MachineMix, Schedule};
use AppClass::{Cpu, Io, Net};

fn pure(class: AppClass) -> ClassComposition {
    ClassComposition::from_labels(&[class])
}

fn class_of(t: JobType) -> AppClass {
    match t {
        JobType::S => Cpu,
        JobType::P => Io,
        JobType::N => Net,
    }
}

/// A host's pure CPU/IO/NET jobs as a §5.2 machine mix.
fn machine_mix(classes: &[AppClass]) -> MachineMix {
    let count = |class| classes.iter().filter(|&&c| c == class).count() as u8;
    MachineMix::new(count(Cpu), count(Io), count(Net)).expect("three jobs per host")
}

/// Places pure-class jobs on `hosts` paper hosts the way `sched_cluster`
/// does: hardest first (`placement_order`), each by the class-aware
/// policy. Returns every host's classes.
fn place_hardest_first(jobs: &[AppClass], hosts: usize) -> Vec<Vec<AppClass>> {
    let spec = HostSpec::paper();
    let comps: Vec<ClassComposition> = jobs.iter().map(|&c| pure(c)).collect();
    let mut policy = ClassAwarePolicy::new(PlacementEngine::new());
    let mut placed: Vec<Vec<ClassComposition>> = vec![Vec::new(); hosts];
    let mut classes = vec![Vec::new(); hosts];
    for i in placement_order(&comps, &spec.capacity) {
        let host = policy.place(comps[i], &placed, &spec).expect("hosts × slots fit every job");
        placed[host].push(comps[i]);
        classes[host].push(jobs[i]);
    }
    classes
}

/// The engine's predicted makespan of one machine: its slowest job's
/// solo runtime times its predicted slowdown.
fn predicted_machine_makespan(mix: &MachineMix) -> f64 {
    let classes: Vec<AppClass> = mix.jobs().into_iter().map(class_of).collect();
    let comps: Vec<ClassComposition> = classes.iter().map(|&c| pure(c)).collect();
    let slowdowns = PlacementEngine::new().per_vm_slowdowns(&comps, &HostSpec::paper().capacity);
    classes
        .iter()
        .zip(slowdowns)
        .map(|(&c, slow)| class_solo_secs(c).expect("CPU, IO and NET jobs finish") * slow)
        .fold(0.0, f64::max)
}

#[test]
fn figure4_class_aware_schedule_wins() {
    let fig4 = figure4(1);
    assert_eq!(fig4.rows.len(), 10);

    // Schedule 10 is the best of the ten.
    let best = fig4
        .rows
        .iter()
        .max_by(|a, b| a.throughput_jobs_per_day.partial_cmp(&b.throughput_jobs_per_day).unwrap())
        .unwrap();
    assert_eq!(best.label, "{(SPN),(SPN),(SPN)}", "class-aware schedule must win");

    // The paper's headline: +22.11% over the random-scheduler average.
    // Shape criterion: a double-digit improvement in the same ballpark.
    assert!(
        (10.0..=45.0).contains(&fig4.improvement_pct),
        "improvement {:.2}% too far from the paper's 22.11%",
        fig4.improvement_pct
    );
}

#[test]
fn figure4_same_class_schedule_worst_region() {
    let fig4 = figure4(2);
    let schedule1 = &fig4.rows[0];
    assert_eq!(schedule1.label, "{(SSS),(PPP),(NNN)}");
    // Fully same-class placement must be clearly below the class-aware one.
    assert!(
        schedule1.throughput_jobs_per_day < fig4.class_aware * 0.85,
        "schedule 1 at {} vs class-aware {}",
        schedule1.throughput_jobs_per_day,
        fig4.class_aware
    );
}

#[test]
fn figure5_spn_never_much_worse_than_average() {
    // Under the SPN schedule every application's throughput should be at
    // or above the cross-schedule average (strongly so for the CPU and IO
    // apps in the paper; NetPIPE gains the least).
    let schedules = enumerate_schedules();
    let outcomes: Vec<_> =
        schedules.iter().enumerate().map(|(i, s)| run_schedule(s, 100 + i as u64 * 17)).collect();
    for app in JobType::ALL {
        let tputs: Vec<f64> = outcomes.iter().map(|o| app_throughput(o, app)).collect();
        let avg = tputs.iter().sum::<f64>() / tputs.len() as f64;
        let spn = outcomes
            .iter()
            .find(|o| o.schedule.is_fully_diverse())
            .map(|o| app_throughput(o, app))
            .unwrap();
        assert!(spn > avg * 0.95, "{app:?}: SPN throughput {spn} fell below average {avg}");
    }
}

#[test]
fn table4_shape() {
    let t = table4(5);
    // Each job stretches under co-location…
    assert!(t.concurrent_ch3d >= t.sequential_ch3d, "{t:?}");
    assert!(t.concurrent_postmark >= t.sequential_postmark, "{t:?}");
    // …but the pair finishes sooner than running back to back.
    assert!(t.concurrent_total < t.sequential_total, "{t:?}");
    // And not absurdly so: the win comes from overlap, not magic.
    assert!(t.concurrent_total * 3 > t.sequential_total, "{t:?}");
}

#[test]
fn class_aware_policy_picks_measured_winner() {
    // The policy's choice (made without simulation) coincides with the
    // measured best schedule — the point of the whole paper.
    let hosts = place_hardest_first(&[[Cpu; 3], [Io; 3], [Net; 3]].concat(), 3);
    let choice = Schedule::new(std::array::from_fn(|h| machine_mix(&hosts[h])))
        .expect("three of each class on three hosts");
    let fig4 = figure4(3);
    let best = fig4
        .rows
        .iter()
        .max_by(|a, b| a.throughput_jobs_per_day.partial_cmp(&b.throughput_jobs_per_day).unwrap())
        .unwrap();
    assert_eq!(choice.to_string(), best.label, "hosts {hosts:?}");
}

#[test]
fn class_aware_placement_diversifies_every_host_at_scale() {
    // 27 jobs on nine hosts, arriving interleaved, past where enumerating
    // schedules is practical. Ordering matters: placed in arrival order,
    // greedy pairs two CPU jobs that do not contend yet on a dual-core
    // host and leaves a same-class pile.
    let jobs: Vec<AppClass> = (0..9).flat_map(|_| [Cpu, Io, Net]).collect();
    let spn = MachineMix::new(1, 1, 1).unwrap();
    for (h, classes) in place_hardest_first(&jobs, 9).iter().enumerate() {
        assert_eq!(machine_mix(classes), spn, "host {h} holds {classes:?}");
    }
}

#[test]
fn engine_ranks_the_diverse_schedule_first() {
    let mut ranked: Vec<(f64, Schedule)> = enumerate_schedules()
        .into_iter()
        .map(|s| {
            let worst = s.machines().iter().map(predicted_machine_makespan).fold(0.0, f64::max);
            (worst, s)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert!(ranked[0].1.is_fully_diverse(), "the engine must rank {{(SPN)x3}} first: {ranked:?}");
    assert!(ranked[0].0 < ranked[1].0, "and strictly: {ranked:?}");
}

#[test]
fn engine_tracks_the_simulator_on_three_of_a_kind() {
    // The engine's CPU/IO/NET demand rows mirror the workload models by
    // hand; if a workload is recalibrated, this drift check fails until
    // the rows follow.
    for t in JobType::ALL {
        let three = |u: JobType| 3 * (u == t) as u8;
        let mix = MachineMix::new(three(JobType::S), three(JobType::P), three(JobType::N)).unwrap();
        let predicted = predicted_machine_makespan(&mix);
        let measured = run_machine(&mix, 9).makespan_secs as f64;
        let ratio = measured / predicted;
        assert!(
            (0.55..=1.8).contains(&ratio),
            "{t:?}: engine {predicted:.0}s vs simulator {measured}s"
        );
    }
}
