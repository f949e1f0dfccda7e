//! The paper's measured results — Table 3, Figures 4 and 5, Table 4 —
//! from one generator: typed Table 3 rows, and the one text rendering of
//! all four that `appclass table3|fig4|fig5|table4` prints.
//!
//! # Seed convention
//!
//! Every result is a pure function of one seed `S`, the CLI's `--seed`
//! (42 unless given):
//!
//! - the classifier trains on `run_batch(training_specs(), S)`
//!   ([`train_cluster_pipeline`]);
//! - Table 3's row `i`, the `i`-th of [`test_specs`], is monitored on
//!   `NodeId(100 + i)` at seed `S + 1000 + i`;
//! - Figures 4 and 5 both come from one `run_all_schedules(S)`
//!   ([`figure4_and_5`]);
//! - Table 4 is [`table4`]`(S)`.
//!
//! Seeds add with wraparound, so every `u64` is a valid `S`.
//!
//! Table 3 is printed as exact snapshot counts, so one flipped snapshot
//! changes the text. `tests/paper_golden.rs` pins the text at `S = 42` to
//! `tests/golden/paper_seed42.txt`: a change that moves a number there
//! updates that file and says why.

use crate::cluster::train_cluster_pipeline;
use crate::core::{AppClass, ClassificationResult, ClassifierPipeline, Result};
use crate::metrics::NodeId;
use crate::sched::experiments::{figure4_and_5, table4, Fig4Result, Fig5Row, Table4Result};
use crate::sched::JobType;
use crate::sim::runner::{run_spec, RunRecord};
use crate::sim::workload::registry::test_specs;
use std::fmt::{self, Write};

/// One of the four measured artefacts, each printed by the CLI command
/// of the same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artefact {
    /// Table 3: class composition of every test application.
    Table3,
    /// Figure 4: system throughput of the ten schedules.
    Fig4,
    /// Figure 5: per-application throughput across the schedules.
    Fig5,
    /// Table 4: concurrent vs sequential execution.
    Table4,
}

/// One row of Table 3: a test application's monitored run, classified.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Registry name of the application.
    pub name: String,
    /// Snapshots classified, the paper's "# of Samples".
    pub samples: usize,
    /// Snapshots per class, indexed by [`AppClass::index`].
    pub counts: [usize; 5],
    /// The classification: the majority class, the class vector, and
    /// the projected snapshots Figure 3 plots.
    pub result: ClassificationResult,
}

/// Table 3's monitored runs, one per test application in registry
/// order: run `i` on `NodeId(100 + i)` at seed `S + 1000 + i`.
pub fn table3_runs(seed: u64) -> Vec<RunRecord> {
    test_specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| run_spec(spec, NodeId(100 + i as u32), seed.wrapping_add(1000 + i as u64)))
        .collect()
}

/// Classifies [`table3_runs`]`(seed)` with `pipeline`, which for the
/// paper's table is [`train_cluster_pipeline`]`(seed)`.
pub fn table3(pipeline: &ClassifierPipeline, seed: u64) -> Result<Vec<Table3Row>> {
    table3_runs(seed)
        .into_iter()
        .map(|rec| {
            let raw = rec.pool.sample_matrix(rec.node)?;
            let result = pipeline.classify(&raw)?;
            let mut counts = [0usize; 5];
            for class in &result.class_vector {
                counts[class.index()] += 1;
            }
            Ok(Table3Row { name: rec.name, samples: raw.rows(), counts, result })
        })
        .collect()
}

/// Generates `artefact` under seed `seed` and renders it as text.
pub fn render(artefact: Artefact, seed: u64) -> Result<String> {
    let mut out = String::new();
    let written = match artefact {
        Artefact::Table3 => {
            let pipeline = train_cluster_pipeline(seed)?;
            write_table3(&mut out, &table3(&pipeline, seed)?)
        }
        Artefact::Fig4 => write_fig4(&mut out, &figure4_and_5(seed).0),
        Artefact::Fig5 => write_fig5(&mut out, &figure4_and_5(seed).1),
        Artefact::Table4 => write_table4(&mut out, &table4(seed)),
    };
    written.expect("formatting into a String cannot fail");
    Ok(out)
}

fn write_table3(out: &mut impl Write, rows: &[Table3Row]) -> fmt::Result {
    writeln!(out, "Table 3: class composition, snapshots per class (k/m) and share")?;
    write!(out, "{:<15} {:>8}", "Application", "#samples")?;
    for header in ["Idle", "I/O", "CPU", "Network", "Paging"] {
        write!(out, " {header:>15}")?;
    }
    writeln!(out, "  class")?;
    for row in rows {
        write!(out, "{:<15} {:>8}", row.name, row.samples)?;
        for class in AppClass::ALL {
            let k = row.counts[class.index()];
            let share = k as f64 / row.samples as f64 * 100.0;
            write!(out, " {:>7} {share:>6.2}%", format!("{k}/{}", row.samples))?;
        }
        writeln!(out, "  {}", row.result.class)?;
    }
    Ok(())
}

fn write_fig4(out: &mut impl Write, fig: &Fig4Result) -> fmt::Result {
    writeln!(out, "Figure 4: system throughput of the ten schedules")?;
    for row in &fig.rows {
        writeln!(
            out,
            "{:>2}  {:<24} {:>7.0} jobs/day",
            row.id, row.label, row.throughput_jobs_per_day
        )?;
    }
    writeln!(
        out,
        "class-aware {:.0} vs average {:.0}: {:+.2}% (paper: +22.11%)",
        fig.class_aware, fig.average, fig.improvement_pct
    )?;
    writeln!(
        out,
        "std dev over the ten schedules: {:.0} jobs/day ({:.1}% of the average)",
        fig.std_dev(),
        fig.std_dev() / fig.average * 100.0
    )?;
    let best = fig
        .rows
        .iter()
        .max_by(|a, b| a.throughput_jobs_per_day.total_cmp(&b.throughput_jobs_per_day))
        .expect("ten schedules");
    writeln!(out, "best schedule: #{} {}", best.id, best.label)
}

fn write_fig5(out: &mut impl Write, rows: &[Fig5Row]) -> fmt::Result {
    writeln!(out, "Figure 5: per-application throughput across the ten schedules (jobs/day)")?;
    writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>11}  max by",
        "app", "MIN", "AVG", "MAX", "SPN", "SPN vs AVG"
    )?;
    for row in rows {
        let app = match row.app {
            JobType::S => "SPECseis96",
            JobType::P => "PostMark",
            JobType::N => "NetPIPE",
        };
        writeln!(
            out,
            "{app:<12} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>+10.2}%  {}",
            row.min,
            row.avg,
            row.max,
            row.spn,
            (row.spn / row.avg - 1.0) * 100.0,
            row.max_schedule
        )?;
    }
    writeln!(out, "paper SPN vs AVG: SPECseis96 +24.90%, PostMark +48.13%, NetPIPE +4.29%")
}

fn write_table4(out: &mut impl Write, t: &Table4Result) -> fmt::Result {
    writeln!(out, "Table 4: concurrent vs sequential execution of CH3D and PostMark (s)")?;
    writeln!(out, "{:<12} {:>8} {:>10} {:>14}", "Execution", "CH3D", "PostMark", "2-job total")?;
    writeln!(
        out,
        "{:<12} {:>8} {:>10} {:>14}",
        "Concurrent", t.concurrent_ch3d, t.concurrent_postmark, t.concurrent_total
    )?;
    writeln!(
        out,
        "{:<12} {:>8} {:>10} {:>14}",
        "Sequential", t.sequential_ch3d, t.sequential_postmark, t.sequential_total
    )?;
    writeln!(
        out,
        "co-located stretch: CH3D {:.2}x, PostMark {:.2}x (paper: 1.26x, 1.17x)",
        t.concurrent_ch3d as f64 / t.sequential_ch3d as f64,
        t.concurrent_postmark as f64 / t.sequential_postmark as f64
    )?;
    writeln!(
        out,
        "concurrent finishes both {:.1}% sooner than sequential (paper: 18.5%)",
        (1.0 - t.concurrent_total as f64 / t.sequential_total as f64) * 100.0
    )
}
