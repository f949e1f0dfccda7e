//! The end-to-end classification pipeline of Figure 2.
//!
//! [`ClassifierPipeline::train`] consumes labelled training runs (one raw
//! 33-metric sample matrix per training application, labelled with its
//! class) and fits, in order: the expert-metric preprocessor, the PCA
//! projection, and the 3-NN classifier over the projected training
//! snapshots. [`ClassifierPipeline::classify`] then executes the full
//! `A(m×33) → A'(m×8) → B(m×2) → C(m×1) → vote` chain on a test run,
//! returning the majority class, the class composition, the per-snapshot
//! class vector, and the 2-D projection (the raw material of the Figure 3
//! cluster diagrams).

use crate::class::{AppClass, ClassComposition};
use crate::error::{Error, Result};
use crate::knn::{Distance, KnnClassifier};
use crate::pca::{ComponentSelection, Pca};
use crate::preprocess::{expert_metrics, Preprocessor};
use crate::stage::{decode_class, decode_classes, Stage, StagePipeline, StreamingStage};
use appclass_linalg::Matrix;
use appclass_metrics::{
    FrameGuard, GuardConfig, MetricFrame, MetricId, Snapshot, StageMetrics, TelemetryHealth,
};
use serde::{Deserialize, Serialize};

/// Configuration of the pipeline's three stages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Metric subset kept by the preprocessor (the paper: Table 1's eight).
    pub metrics: Vec<MetricId>,
    /// Principal-component selection (the paper: exactly two).
    pub selection: ComponentSelection,
    /// Number of nearest neighbours (the paper: 3).
    pub k: usize,
    /// Distance metric in feature space (the paper: Euclidean).
    pub distance: Distance,
}

impl PipelineConfig {
    /// The paper's exact configuration: expert eight metrics → 2 principal
    /// components → 3-NN with Euclidean distance.
    pub fn paper() -> Self {
        PipelineConfig {
            metrics: expert_metrics(),
            selection: ComponentSelection::Count(2),
            k: 3,
            distance: Distance::Euclidean,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::paper()
    }
}

/// Output of classifying one application run.
#[derive(Debug, Clone)]
pub struct ClassificationResult {
    /// The majority-vote application class.
    pub class: AppClass,
    /// Fraction of snapshots per class (Table 3's row format).
    pub composition: ClassComposition,
    /// Per-snapshot classes — the paper's `C(1×m)` class vector.
    pub class_vector: Vec<AppClass>,
    /// The snapshots projected to principal-component space (`B`,
    /// `m × q`) — plot this for the Figure 3 cluster diagrams.
    pub projected: Matrix,
    /// Per-stage sample counts and wall-clock cost for this
    /// classification — the §5.3 measurement, broken down by stage. When
    /// the run executed on a shared [`StagePipeline`] via
    /// [`ClassifierPipeline::classify_with`], the counters cover every
    /// classification the runner has executed so far.
    pub stage_metrics: StageMetrics,
    /// Confidence in the majority verdict: the majority fraction, further
    /// discounted by the repair fraction when the run passed through a
    /// [`FrameGuard`] (classifying imputed data is better than nothing,
    /// but it should not be trusted like clean telemetry).
    pub confidence: f64,
    /// Telemetry health of the run's input. All-zero (nothing seen) for
    /// the unguarded paths; populated by
    /// [`ClassifierPipeline::classify_guarded`].
    pub telemetry: TelemetryHealth,
}

/// A fully trained classifier.
///
/// # Examples
///
/// ```
/// use appclass_core::class::AppClass;
/// use appclass_core::pipeline::{ClassifierPipeline, PipelineConfig};
/// use appclass_linalg::Matrix;
/// use appclass_metrics::{MetricId, METRIC_COUNT};
///
/// // Two synthetic training runs: a CPU-bound one and an idle one.
/// let mut cpu_run = Matrix::zeros(12, METRIC_COUNT);
/// let mut idle_run = Matrix::zeros(12, METRIC_COUNT);
/// for i in 0..12 {
///     cpu_run[(i, MetricId::CpuUser.index())] = 85.0 + (i % 3) as f64;
///     idle_run[(i, MetricId::CpuUser.index())] = 0.5;
/// }
/// let pipeline = ClassifierPipeline::train(
///     &[(cpu_run.clone(), AppClass::Cpu), (idle_run, AppClass::Idle)],
///     &PipelineConfig::paper(),
/// ).unwrap();
///
/// let result = pipeline.classify(&cpu_run).unwrap();
/// assert_eq!(result.class, AppClass::Cpu);
/// assert_eq!(result.composition.fraction(AppClass::Cpu), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifierPipeline {
    preprocessor: Preprocessor,
    pca: Pca,
    knn: KnnClassifier,
}

impl ClassifierPipeline {
    /// Trains the pipeline on labelled runs.
    ///
    /// Each element is one training application's raw sample matrix
    /// (`m_i × 33`) and the class it represents; the paper uses five such
    /// runs (SPECseis96, PostMark, PageBench, Ettcp, idle).
    pub fn train(runs: &[(Matrix, AppClass)], config: &PipelineConfig) -> Result<Self> {
        if runs.is_empty() {
            return Err(Error::NoTrainingData);
        }
        // Stack all runs into one pool with per-row labels.
        let mut pool: Option<Matrix> = None;
        let mut labels: Vec<AppClass> = Vec::new();
        for (m, class) in runs {
            labels.extend(std::iter::repeat_n(*class, m.rows()));
            pool = Some(match pool {
                None => m.clone(),
                Some(p) => p.vstack(m)?,
            });
        }
        let pool = pool.expect("non-empty runs");

        let preprocessor = Preprocessor::fit(&pool, &config.metrics)?;
        let normalized = preprocessor.apply(&pool)?;
        let pca = Pca::fit(&normalized, config.selection)?;
        let projected = pca.transform(&normalized)?;
        // The k-NN stage owns the projected pool and labels outright; the
        // Figure 3(a) accessors read them back from there instead of the
        // pipeline keeping duplicate copies.
        let knn = KnnClassifier::new(config.k, projected, labels, config.distance)?;
        Ok(ClassifierPipeline { preprocessor, pca, knn })
    }

    /// Number of principal components in use (the paper's `q`).
    pub fn n_components(&self) -> usize {
        self.pca.n_components()
    }

    /// The fitted PCA stage.
    pub fn pca(&self) -> &Pca {
        &self.pca
    }

    /// The fitted preprocessor.
    pub fn preprocessor(&self) -> &Preprocessor {
        &self.preprocessor
    }

    /// The trained k-NN stage.
    pub fn knn(&self) -> &KnnClassifier {
        &self.knn
    }

    /// The projected training snapshots and their labels — Figure 3(a).
    /// (Owned by the k-NN stage; exposed here for the diagram code.)
    pub fn training_projection(&self) -> (&Matrix, &[AppClass]) {
        (self.knn.points(), self.knn.labels())
    }

    /// Deterministic fingerprint of this trained model, used by the
    /// serving handshake so a client can verify it is talking to the
    /// pipeline it was told to expect. Covers shape (`k`, dims, training
    /// size) and the exact bits of the projected training set and labels,
    /// so retraining on different data — or on the same data with a
    /// different seed — yields a different id. Never 0 (the handshake's
    /// "any model" wildcard).
    pub fn model_id(&self) -> u64 {
        let (points, labels) = self.training_projection();
        let mut bytes: Vec<u8> = Vec::with_capacity(32 + points.rows() * points.cols() * 8);
        for dim in [self.knn.k(), self.preprocessor.dim(), self.n_components(), points.rows()] {
            bytes.extend_from_slice(&(dim as u64).to_be_bytes());
        }
        for r in 0..points.rows() {
            for &v in points.row(r) {
                bytes.extend_from_slice(&v.to_bits().to_be_bytes());
            }
        }
        for &label in labels {
            bytes.push(label.index() as u8);
        }
        appclass_metrics::wire::fnv1a64(&bytes).max(1)
    }

    /// The projection front of the Figure 2 chain (`A → A' → B`) as
    /// dataflow stages, for running on a [`StagePipeline`].
    pub fn projection_stages(&self) -> [&dyn Stage; 2] {
        [&self.preprocessor, &self.pca]
    }

    /// The full per-snapshot chain (`A → A' → B → C`) as streaming
    /// stages, for running on a [`StagePipeline`].
    pub fn streaming_stages(&self) -> [&dyn StreamingStage; 3] {
        [&self.preprocessor, &self.pca, &self.knn]
    }

    /// Projects a raw run into principal-component space without
    /// classifying (`A → B`).
    pub fn project(&self, raw: &Matrix) -> Result<Matrix> {
        let mut runner = StagePipeline::new();
        runner.run_batch(&self.projection_stages(), raw)?;
        Ok(runner.into_output())
    }

    /// Runs the full chain on a raw (`m × 33`) sample matrix.
    ///
    /// An empty run (zero snapshots) is an error: a majority vote over
    /// nothing has no meaningful class.
    pub fn classify(&self, raw: &Matrix) -> Result<ClassificationResult> {
        let mut runner = StagePipeline::new();
        self.classify_with(&mut runner, raw)
    }

    /// Like [`ClassifierPipeline::classify`], but executes on a
    /// caller-owned [`StagePipeline`], so consecutive classifications
    /// reuse the runner's scratch buffers (steady-state: no intermediate-
    /// matrix allocation) and accumulate per-stage cost counters.
    pub fn classify_with(
        &self,
        runner: &mut StagePipeline,
        raw: &Matrix,
    ) -> Result<ClassificationResult> {
        if raw.rows() == 0 {
            return Err(Error::EmptyRun);
        }
        let _span = runner.span("classify");
        runner.run_batch(&self.projection_stages(), raw)?;
        // The m×q projection is part of the result (Figure 3's raw
        // material), so it is copied out of the scratch buffer; the wide
        // m×33 and m×8 intermediates never leave the runner.
        let projected = runner.output().clone();
        let class_vector =
            runner.time_stage("knn", raw.rows() as u64, || self.knn.classify_batch(&projected))?;
        let composition = ClassComposition::from_labels(&class_vector);
        let class = composition.majority();
        Ok(ClassificationResult {
            class,
            confidence: composition.fraction(class),
            composition,
            class_vector,
            projected,
            stage_metrics: runner.metrics().clone(),
            telemetry: TelemetryHealth::default(),
        })
    }

    /// Classifies a run of monitoring snapshots behind a [`FrameGuard`]:
    /// every snapshot is validated first, corrupted values are imputed
    /// from the node's last good sample, and duplicated / reordered /
    /// unusable frames are discarded before the vote. The result carries
    /// the guard's [`TelemetryHealth`] and a confidence discounted by the
    /// fraction of repaired frames.
    ///
    /// Returns [`Error::NoUsableFrames`] when the guard rejects every
    /// snapshot — the degraded-telemetry analogue of [`Error::EmptyRun`].
    pub fn classify_guarded(
        &self,
        snapshots: &[Snapshot],
        config: GuardConfig,
    ) -> Result<ClassificationResult> {
        let mut guard = FrameGuard::new(config);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for snap in snapshots {
            let admission = guard.admit(snap);
            if let Some(frame) = admission.frame {
                rows.push(frame.as_slice().to_vec());
            }
        }
        let health = guard.health().clone();
        if rows.is_empty() {
            return Err(Error::NoUsableFrames { seen: health.seen, dropped: health.dropped });
        }
        let raw = Matrix::from_rows(&rows)?;
        let mut result = self.classify(&raw)?;
        result.confidence *= 1.0 - 0.5 * health.repair_fraction();
        result.telemetry = health;
        Ok(result)
    }

    /// Classifies a single snapshot frame (the online path).
    pub fn classify_frame(&self, frame: &MetricFrame) -> Result<AppClass> {
        let mut runner = StagePipeline::new();
        self.classify_frame_with(&mut runner, frame)
    }

    /// Like [`ClassifierPipeline::classify_frame`], but on a caller-owned
    /// [`StagePipeline`] — the zero-allocation steady state the online
    /// classifier runs in, one snapshot every `d` seconds.
    pub fn classify_frame_with(
        &self,
        runner: &mut StagePipeline,
        frame: &MetricFrame,
    ) -> Result<AppClass> {
        let out =
            runner.run_row_spanned("classify_frame", &self.streaming_stages(), frame.as_slice())?;
        decode_class(out[0])
    }

    /// The full batch chain (`A → A' → B → C`) as dataflow stages —
    /// [`ClassifierPipeline::projection_stages`] plus the k-NN head.
    pub fn full_stages(&self) -> [&dyn Stage; 3] {
        [&self.preprocessor, &self.pca, &self.knn]
    }

    /// Classifies every row of a raw (`m × 33`) matrix to its per-snapshot
    /// class on a caller-owned [`StagePipeline`] — the batched analogue of
    /// [`ClassifierPipeline::classify_frame_with`]. Runs the full chain as
    /// batch stages over the runner's warm scratch buffers; the labels are
    /// bitwise identical to pushing each row through the streaming chain
    /// one at a time (both k-NN paths run the same index search —
    /// DESIGN.md §10).
    /// The labels replace the contents of `labels`, whose allocation is
    /// reused; an empty matrix leaves it empty.
    pub fn classify_rows_with(
        &self,
        runner: &mut StagePipeline,
        raw: &Matrix,
        labels: &mut Vec<AppClass>,
    ) -> Result<()> {
        labels.clear();
        if raw.rows() == 0 {
            return Ok(());
        }
        let _span = runner.span("classify_batch");
        runner.run_batch(&self.full_stages(), raw)?;
        decode_classes(runner.output(), labels)
    }

    /// Serializes the trained pipeline to JSON (the form the application
    /// database stores).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| Error::Storage(e.to_string()))
    }

    /// Restores a pipeline serialized with [`ClassifierPipeline::to_json`].
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| Error::Storage(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appclass_metrics::METRIC_COUNT;

    /// Builds a synthetic raw training run: `rows` snapshots with the given
    /// expert metrics set (plus small deterministic wiggle).
    fn raw_run(rows: usize, settings: &[(MetricId, f64)]) -> Matrix {
        let mut m = Matrix::zeros(rows, METRIC_COUNT);
        for i in 0..rows {
            let wiggle = 1.0 + 0.03 * ((i % 7) as f64 - 3.0);
            for &(id, v) in settings {
                m[(i, id.index())] = v * wiggle;
            }
        }
        m
    }

    fn training_runs() -> Vec<(Matrix, AppClass)> {
        vec![
            (raw_run(30, &[(MetricId::CpuUser, 90.0), (MetricId::CpuSystem, 5.0)]), AppClass::Cpu),
            (raw_run(30, &[(MetricId::IoBi, 2000.0), (MetricId::IoBo, 3000.0)]), AppClass::Io),
            (
                raw_run(30, &[(MetricId::BytesIn, 1.0e6), (MetricId::BytesOut, 3.0e7)]),
                AppClass::Net,
            ),
            (
                raw_run(
                    30,
                    &[
                        (MetricId::SwapIn, 5000.0),
                        (MetricId::SwapOut, 4500.0),
                        (MetricId::IoBi, 5000.0),
                        (MetricId::IoBo, 5000.0),
                    ],
                ),
                AppClass::Mem,
            ),
            (raw_run(30, &[(MetricId::CpuUser, 0.5)]), AppClass::Idle),
        ]
    }

    fn trained() -> ClassifierPipeline {
        ClassifierPipeline::train(&training_runs(), &PipelineConfig::paper()).unwrap()
    }

    #[test]
    fn figure2_dimension_chain() {
        let p = trained();
        assert_eq!(p.preprocessor().dim(), 8, "n=33 → p=8");
        assert_eq!(p.n_components(), 2, "p=8 → q=2");
        let raw = raw_run(12, &[(MetricId::CpuUser, 88.0)]);
        let result = p.classify(&raw).unwrap();
        assert_eq!(result.projected.shape(), (12, 2), "B is m×q");
        assert_eq!(result.class_vector.len(), 12, "C is 1×m");
    }

    #[test]
    fn recovers_training_classes() {
        let p = trained();
        for (raw, expected) in training_runs() {
            let r = p.classify(&raw).unwrap();
            assert_eq!(r.class, expected, "training run must classify as itself");
            assert!(r.composition.fraction(expected) > 0.9);
        }
    }

    #[test]
    fn classifies_held_out_variants() {
        let p = trained();
        // Slightly different magnitudes than training.
        let cpu_like = raw_run(10, &[(MetricId::CpuUser, 75.0), (MetricId::CpuSystem, 8.0)]);
        assert_eq!(p.classify(&cpu_like).unwrap().class, AppClass::Cpu);
        let net_like = raw_run(10, &[(MetricId::BytesOut, 2.0e7), (MetricId::BytesIn, 5.0e5)]);
        assert_eq!(p.classify(&net_like).unwrap().class, AppClass::Net);
    }

    #[test]
    fn mixed_run_has_mixed_composition() {
        let p = trained();
        let cpu_part = raw_run(20, &[(MetricId::CpuUser, 90.0)]);
        let io_part = raw_run(10, &[(MetricId::IoBi, 2200.0), (MetricId::IoBo, 2800.0)]);
        let mixed = cpu_part.vstack(&io_part).unwrap();
        let r = p.classify(&mixed).unwrap();
        assert_eq!(r.class, AppClass::Cpu, "majority is CPU");
        assert!(r.composition.fraction(AppClass::Io) > 0.2, "{}", r.composition);
        assert!((r.composition.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn classify_frame_matches_batch() {
        let p = trained();
        let raw = raw_run(5, &[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)]);
        let batch = p.classify(&raw).unwrap();
        for i in 0..5 {
            let frame = MetricFrame::from_values(raw.row(i)).unwrap();
            assert_eq!(p.classify_frame(&frame).unwrap(), batch.class_vector[i]);
        }
    }

    #[test]
    fn empty_training_rejected() {
        assert!(matches!(
            ClassifierPipeline::train(&[], &PipelineConfig::paper()),
            Err(Error::NoTrainingData)
        ));
    }

    #[test]
    fn training_projection_matches_labels() {
        let p = trained();
        let (proj, labels) = p.training_projection();
        assert_eq!(proj.rows(), labels.len());
        assert_eq!(proj.cols(), 2);
        assert_eq!(labels.len(), 150);
    }

    #[test]
    fn result_reports_per_stage_metrics() {
        let p = trained();
        let raw = raw_run(15, &[(MetricId::CpuUser, 85.0)]);
        let r = p.classify(&raw).unwrap();
        let names: Vec<&str> = r.stage_metrics.stages().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["preprocess", "pca", "knn"], "dataflow order");
        for stat in r.stage_metrics.stages() {
            assert_eq!(stat.samples, 15, "{}", stat.name);
            assert_eq!(stat.calls, 1, "{}", stat.name);
        }
    }

    #[test]
    fn shared_runner_reuses_buffers_and_accumulates() {
        let p = trained();
        let raw = raw_run(25, &[(MetricId::IoBi, 2100.0), (MetricId::IoBo, 2900.0)]);
        let mut runner = StagePipeline::new();
        // Two warm-up calls grow both ping-pong buffers to steady state.
        p.classify_with(&mut runner, &raw).unwrap();
        p.classify_with(&mut runner, &raw).unwrap();
        let ptr = runner.output().as_slice().as_ptr();
        let r3 = p.classify_with(&mut runner, &raw).unwrap();
        let r4 = p.classify_with(&mut runner, &raw).unwrap();
        assert_eq!(
            runner.output().as_slice().as_ptr(),
            ptr,
            "same-shape classifications must not reallocate intermediates"
        );
        assert_eq!(r3.class, r4.class);
        // Counters accumulate across the runner's lifetime.
        let knn = runner.metrics().get("knn").unwrap();
        assert_eq!(knn.calls, 4);
        assert_eq!(knn.samples, 100);
        assert_eq!(r4.stage_metrics.get("preprocess").unwrap().samples, 100);
    }

    #[test]
    fn classify_with_matches_classify() {
        let p = trained();
        let raw = raw_run(9, &[(MetricId::BytesOut, 2.5e7)]);
        let fresh = p.classify(&raw).unwrap();
        let mut runner = StagePipeline::new();
        p.classify_with(&mut runner, &raw).unwrap(); // warm the buffers
        let shared = p.classify_with(&mut runner, &raw).unwrap();
        assert_eq!(fresh.class, shared.class);
        assert_eq!(fresh.class_vector, shared.class_vector);
        assert_eq!(fresh.projected, shared.projected);
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let p = trained();
        let json = p.to_json().unwrap();
        let q = ClassifierPipeline::from_json(&json).unwrap();
        assert_eq!(p, q);
        let raw = raw_run(
            4,
            &[
                (MetricId::SwapIn, 4800.0),
                (MetricId::SwapOut, 4400.0),
                (MetricId::IoBi, 4800.0),
                (MetricId::IoBo, 4800.0),
            ],
        );
        assert_eq!(p.classify(&raw).unwrap().class, q.classify(&raw).unwrap().class);
    }

    #[test]
    fn guarded_run_repairs_and_discounts_confidence() {
        use appclass_metrics::NodeId;
        let p = trained();
        let raw = raw_run(12, &[(MetricId::CpuUser, 88.0)]);
        let mut snaps: Vec<Snapshot> = (0..12)
            .map(|i| {
                Snapshot::new(
                    NodeId(1),
                    5 * i as u64,
                    MetricFrame::from_values(raw.row(i)).unwrap(),
                )
            })
            .collect();
        // Clean run: plain majority-fraction confidence, pristine health.
        let clean = p.classify_guarded(&snaps, GuardConfig::default()).unwrap();
        assert_eq!(clean.class, AppClass::Cpu);
        assert_eq!((clean.telemetry.seen, clean.telemetry.accepted), (12, 12));
        assert!((clean.confidence - clean.composition.fraction(AppClass::Cpu)).abs() < 1e-12);
        // Corrupt three mid-run frames: the guard imputes them, they still
        // vote, and the confidence takes the repair discount.
        for i in [3usize, 6, 9] {
            let mut f = snaps[i].frame.clone();
            f.set(MetricId::CpuUser, f64::NAN);
            snaps[i] = Snapshot::new(NodeId(1), snaps[i].time, f);
        }
        let r = p.classify_guarded(&snaps, GuardConfig::default()).unwrap();
        assert_eq!(r.class, AppClass::Cpu);
        assert_eq!(r.telemetry.repaired, 3);
        assert_eq!(r.class_vector.len(), 12, "repaired frames still vote");
        assert!(r.confidence < clean.confidence, "repairs discount confidence");
    }

    #[test]
    fn guarded_run_with_nothing_usable_errors() {
        use appclass_metrics::NodeId;
        let p = trained();
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::CpuUser, f64::INFINITY);
        // A corrupted first frame has no baseline to impute from → dropped,
        // and a run of only such frames is unusable.
        let snaps = vec![Snapshot::new(NodeId(1), 0, f)];
        assert!(matches!(
            p.classify_guarded(&snaps, GuardConfig::default()),
            Err(Error::NoUsableFrames { seen: 1, dropped: 1 })
        ));
    }

    #[test]
    fn unguarded_result_reports_clean_telemetry() {
        let p = trained();
        let raw = raw_run(6, &[(MetricId::CpuUser, 85.0)]);
        let r = p.classify(&raw).unwrap();
        assert_eq!(r.telemetry, TelemetryHealth::default());
        let majority = r.composition.fraction(r.class);
        assert!((r.confidence - majority).abs() < 1e-12, "no repair discount without a guard");
        assert!(r.confidence > 0.5, "majority fraction by definition");
    }

    #[test]
    fn custom_config_three_components() {
        let cfg =
            PipelineConfig { selection: ComponentSelection::Count(3), ..PipelineConfig::paper() };
        let p = ClassifierPipeline::train(&training_runs(), &cfg).unwrap();
        assert_eq!(p.n_components(), 3);
        // Still classifies training classes correctly.
        for (raw, expected) in training_runs() {
            assert_eq!(p.classify(&raw).unwrap().class, expected);
        }
    }

    #[test]
    fn variance_fraction_config() {
        let cfg = PipelineConfig {
            selection: ComponentSelection::VarianceFraction(0.99),
            ..PipelineConfig::paper()
        };
        let p = ClassifierPipeline::train(&training_runs(), &cfg).unwrap();
        assert!(p.n_components() >= 2);
        assert!(p.n_components() <= 8);
    }

    #[test]
    fn traced_classify_emits_stage_spans_under_classify_parent() {
        use appclass_obs::Tracer;
        let p = trained();
        let raw = raw_run(6, &[(MetricId::CpuUser, 85.0)]);
        let tracer = Tracer::new(64);
        let mut runner = StagePipeline::new();
        runner.set_tracer(tracer.clone());
        p.classify_with(&mut runner, &raw).unwrap();
        let spans = tracer.recent(64);
        let classify = spans.iter().find(|s| s.name == "classify").expect("classify span");
        for stage in ["preprocess", "pca", "knn"] {
            let span = spans.iter().find(|s| s.name == stage).unwrap_or_else(|| panic!("{stage}"));
            assert_eq!(span.parent, Some(classify.id), "{stage} links to classify");
        }
        // Tracing must not change the verdict.
        let untraced = p.classify(&raw).unwrap();
        let traced = p.classify_with(&mut runner, &raw).unwrap();
        assert_eq!(traced.class, untraced.class);
        assert_eq!(traced.class_vector, untraced.class_vector);
    }

    #[test]
    fn model_id_is_deterministic_and_distinguishes_models() {
        let a = trained();
        let b = trained();
        assert_ne!(a.model_id(), 0, "0 is the handshake wildcard");
        assert_eq!(a.model_id(), b.model_id(), "same training data, same fingerprint");
        // JSON persistence must not change the identity.
        let restored = ClassifierPipeline::from_json(&a.to_json().unwrap()).unwrap();
        assert_eq!(restored.model_id(), a.model_id());
        // A different training set is a different model.
        let mut runs = training_runs();
        runs.truncate(3);
        let other = ClassifierPipeline::train(&runs, &PipelineConfig::paper()).unwrap();
        assert_ne!(other.model_id(), a.model_id());
    }
}
