//! Multi-stage application segmentation.
//!
//! The paper's introduction motivates classification partly by
//! **multi-stage applications**: "different execution stages may stress
//! different kinds of resources to different degrees … the identification
//! of such stages presents opportunities to exploit better matching of
//! resource availability", e.g. migrating a job when it leaves its
//! CPU-bound stage. The classifier already produces the raw material —
//! the per-snapshot class vector `C(1×m)` — and this module turns it into
//! stages: a majority-smoothed segmentation with short-segment merging.

use crate::class::{AppClass, ClassComposition};
use crate::error::Result;
use crate::stage::{decode_classes, encode_classes, Stage as DataflowStage, StagePipeline};
use appclass_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// One execution stage: a maximal run of snapshots sharing a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage {
    /// Stage class.
    pub class: AppClass,
    /// First snapshot index (inclusive).
    pub start: usize,
    /// Last snapshot index (inclusive).
    pub end: usize,
}

impl Stage {
    /// Number of snapshots in the stage.
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Always false: stages are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Wall-clock duration given the sampling interval.
    pub fn duration_secs(&self, interval: u64) -> u64 {
        self.len() as u64 * interval
    }
}

/// Segmentation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentationConfig {
    /// Width of the majority-vote smoothing window (odd; 1 = no
    /// smoothing). Snapshot-level jitter shorter than half the window is
    /// absorbed.
    pub smoothing_window: usize,
    /// Stages shorter than this many snapshots are merged into their
    /// longer neighbour — a scheduler cannot act on a 5-second stage.
    pub min_stage_len: usize,
}

impl Default for SegmentationConfig {
    fn default() -> Self {
        // 3-snapshot (15 s) smoothing, 4-snapshot (20 s) minimum stage.
        SegmentationConfig { smoothing_window: 3, min_stage_len: 4 }
    }
}

/// Segments a class vector into execution stages.
///
/// Empty input yields no stages. The stage list covers every snapshot
/// exactly once, in order.
///
/// # Examples
///
/// ```
/// use appclass_core::class::AppClass::{Cpu, Io};
/// use appclass_core::stages::{segment, SegmentationConfig};
///
/// let mut run = vec![Cpu; 20];
/// run.extend([Io; 20]);
/// let stages = segment(&run, &SegmentationConfig::default());
/// assert_eq!(stages.len(), 2);
/// assert_eq!(stages[0].class, Cpu);
/// assert_eq!(stages[1].class, Io);
/// assert_eq!(stages[1].duration_secs(5), 100); // 20 snapshots at 5 s
/// ```
pub fn segment(class_vector: &[AppClass], config: &SegmentationConfig) -> Vec<Stage> {
    let mut runner = StagePipeline::new();
    segment_smooth(&mut runner, class_vector, config)
        .expect("smoothing a well-formed class vector cannot fail")
}

/// Like [`segment`], but executes the smoothing pass on a caller-owned
/// [`StagePipeline`], reusing its scratch buffers and recording the
/// smoothing cost under the `"smooth"` stage — so segmentation shows up
/// in the same per-stage cost breakdown as classification.
pub fn segment_smooth(
    runner: &mut StagePipeline,
    class_vector: &[AppClass],
    config: &SegmentationConfig,
) -> Result<Vec<Stage>> {
    if class_vector.is_empty() {
        return Ok(Vec::new());
    }
    let mut encoded = Matrix::zeros(0, 0);
    encode_classes(class_vector, &mut encoded);
    let smoother = SmoothingStage { window: config.smoothing_window.max(1) };
    runner.run_batch(&[&smoother], &encoded)?;
    let mut smoothed = Vec::new();
    decode_classes(runner.output(), &mut smoothed)?;
    let mut stages = runs_of(&smoothed);
    merge_short_stages(&mut stages, config.min_stage_len);
    Ok(stages)
}

/// The sliding majority filter as a dataflow stage: consumes and emits an
/// `m × 1` class-index column, so it composes downstream of a classifier
/// head on a [`StagePipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmoothingStage {
    /// Centred window width (1 = pass-through).
    pub window: usize,
}

impl DataflowStage for SmoothingStage {
    fn name(&self) -> &'static str {
        "smooth"
    }

    fn transform_into(&self, input: &Matrix, out: &mut Matrix) -> Result<()> {
        let mut labels = Vec::new();
        decode_classes(input, &mut labels)?;
        let smoothed = majority_smooth(&labels, self.window.max(1));
        encode_classes(&smoothed, out);
        Ok(())
    }
}

/// Sliding majority filter. The window is centred; edges use the
/// available prefix/suffix.
fn majority_smooth(labels: &[AppClass], window: usize) -> Vec<AppClass> {
    if window <= 1 {
        return labels.to_vec();
    }
    let half = window / 2;
    (0..labels.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half).min(labels.len() - 1);
            ClassComposition::from_labels(&labels[lo..=hi]).majority()
        })
        .collect()
}

/// Maximal runs of equal labels.
fn runs_of(labels: &[AppClass]) -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut start = 0;
    for i in 1..=labels.len() {
        if i == labels.len() || labels[i] != labels[start] {
            stages.push(Stage { class: labels[start], start, end: i - 1 });
            start = i;
        }
    }
    stages
}

/// Repeatedly merges the shortest below-threshold stage into its longer
/// neighbour until every stage meets the minimum length (or one stage
/// remains).
fn merge_short_stages(stages: &mut Vec<Stage>, min_len: usize) {
    while stages.len() > 1 {
        let Some((idx, _)) = stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.len() < min_len)
            .min_by_key(|(_, s)| s.len())
        else {
            break;
        };
        // Merge into the longer adjacent stage (ties: the earlier one).
        let into = if idx == 0 {
            1
        } else if idx == stages.len() - 1 || stages[idx - 1].len() >= stages[idx + 1].len() {
            idx - 1
        } else {
            idx + 1
        };
        let absorbed = stages[idx];
        stages[into].start = stages[into].start.min(absorbed.start);
        stages[into].end = stages[into].end.max(absorbed.end);
        stages.remove(idx);
        // Adjacent same-class stages may now touch; coalesce.
        coalesce(stages);
    }
}

/// Merges adjacent stages that share a class.
fn coalesce(stages: &mut Vec<Stage>) {
    let mut i = 0;
    while i + 1 < stages.len() {
        if stages[i].class == stages[i + 1].class {
            stages[i].end = stages[i + 1].end;
            stages.remove(i + 1);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AppClass::{Cpu, Idle, Io, Net};

    fn no_smoothing() -> SegmentationConfig {
        SegmentationConfig { smoothing_window: 1, min_stage_len: 1 }
    }

    #[test]
    fn empty_vector_no_stages() {
        assert!(segment(&[], &SegmentationConfig::default()).is_empty());
    }

    #[test]
    fn single_class_single_stage() {
        let stages = segment(&[Cpu; 20], &SegmentationConfig::default());
        assert_eq!(stages, vec![Stage { class: Cpu, start: 0, end: 19 }]);
        assert_eq!(stages[0].len(), 20);
        assert_eq!(stages[0].duration_secs(5), 100);
    }

    #[test]
    fn clean_transitions_detected() {
        let mut v = vec![Idle; 10];
        v.extend([Io; 10]);
        v.extend([Net; 10]);
        let stages = segment(&v, &no_smoothing());
        assert_eq!(
            stages,
            vec![
                Stage { class: Idle, start: 0, end: 9 },
                Stage { class: Io, start: 10, end: 19 },
                Stage { class: Net, start: 20, end: 29 },
            ]
        );
    }

    #[test]
    fn stages_cover_everything_in_order() {
        let mut v = vec![Cpu; 7];
        v.extend([Io; 3]);
        v.extend([Cpu; 9]);
        v.extend([Net; 6]);
        let stages = segment(&v, &SegmentationConfig::default());
        assert_eq!(stages.first().unwrap().start, 0);
        assert_eq!(stages.last().unwrap().end, v.len() - 1);
        for w in stages.windows(2) {
            assert_eq!(w[0].end + 1, w[1].start, "stages must tile the run");
        }
    }

    #[test]
    fn smoothing_absorbs_single_snapshot_jitter() {
        let mut v = vec![Cpu; 10];
        v[4] = Io; // one mislabelled snapshot
        v.extend([Io; 10]);
        let stages = segment(&v, &SegmentationConfig::default());
        assert_eq!(stages.len(), 2, "jitter must not create a stage: {stages:?}");
        assert_eq!(stages[0].class, Cpu);
        assert_eq!(stages[1].class, Io);
    }

    #[test]
    fn short_stages_merge_into_longer_neighbour() {
        let mut v = vec![Cpu; 12];
        v.extend([Io; 2]); // below min_stage_len = 4
        v.extend([Cpu; 12]);
        let stages = segment(&v, &SegmentationConfig { smoothing_window: 1, min_stage_len: 4 });
        assert_eq!(stages.len(), 1, "{stages:?}");
        assert_eq!(stages[0].class, Cpu);
    }

    #[test]
    fn all_short_degenerates_to_one_stage() {
        let v = [Cpu, Io, Net, Idle, Cpu, Io];
        let stages = segment(&v, &SegmentationConfig { smoothing_window: 1, min_stage_len: 10 });
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].start, 0);
        assert_eq!(stages[0].end, 5);
    }

    #[test]
    fn shared_runner_segmentation_matches_and_records_cost() {
        let mut v = vec![Cpu; 10];
        v[4] = Io;
        v.extend([Io; 10]);
        let cfg = SegmentationConfig::default();
        let mut runner = StagePipeline::new();
        let via_runner = segment_smooth(&mut runner, &v, &cfg).unwrap();
        assert_eq!(via_runner, segment(&v, &cfg));
        let stat = runner.metrics().get("smooth").expect("smoothing recorded");
        assert_eq!(stat.samples, 20);
        assert_eq!(stat.calls, 1);
    }
}
