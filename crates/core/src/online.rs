//! Online (streaming) classification — the paper's future work, built.
//!
//! §5.3 measures a unit classification cost of ~15 ms per sample against a
//! 5-second sampling period and concludes "it is possible to consider the
//! classifier for online training"; §7 lists online classification as
//! planned work. [`OnlineClassifier`] delivers it: snapshots are classified
//! as they arrive from the metric bus, a running composition is maintained
//! incrementally, and the current majority class is available at any
//! moment — so a scheduler can react to a *stage change* mid-run instead
//! of waiting for the application to finish.
//!
//! A sliding window (optional) bounds the composition to the recent past,
//! which is what detects multi-stage applications: when a run moves from a
//! CPU stage to an I/O stage, the windowed majority flips a few samples
//! later.

use crate::class::{AppClass, ClassComposition};
use crate::error::{Error, Result};
use crate::pipeline::{ClassifierPipeline, PipelineConfig};
use crate::stage::StagePipeline;
use appclass_linalg::Matrix;
use appclass_metrics::{
    FrameGuard, FrameVerdict, GuardConfig, MetricFrame, Snapshot, StageMetrics, TelemetryHealth,
    METRIC_COUNT,
};
use std::collections::VecDeque;

/// Streaming classifier over a trained pipeline.
#[derive(Debug, Clone)]
pub struct OnlineClassifier<'a> {
    pipeline: &'a ClassifierPipeline,
    /// The dataflow runner every frame executes on: scratch buffers stay
    /// warm across snapshots (zero allocation in steady state) and
    /// per-stage cost counters accumulate over the stream.
    runner: StagePipeline,
    /// All labels seen (bounded by `window` when set).
    labels: VecDeque<AppClass>,
    /// Running per-class counts over `labels`, kept in lockstep so
    /// [`OnlineClassifier::composition`] is O(1) instead of copying the
    /// deque on every 5-second sample.
    counts: [usize; 5],
    /// Optional sliding-window length in snapshots.
    window: Option<usize>,
    /// Total snapshots ever observed (not bounded by the window).
    observed: usize,
    /// Telemetry guard for the [`OnlineClassifier::push_guarded`] path.
    guard: FrameGuard,
    /// Whether each label in `labels` came from a repaired frame, kept in
    /// lockstep with the deque.
    repaired_flags: VecDeque<bool>,
    /// Running count of `true` entries in `repaired_flags`.
    repaired_in_state: usize,
    /// [`OnlineClassifier::push_batch_guarded`]'s buffers, kept between
    /// calls so a warm batch push allocates nothing: the verdicts it
    /// returns, the admitted rows (lent to the request's matrix and
    /// taken back), each admitted frame's `(was repaired, clears the
    /// window first)` flags, and the labels the chain assigns them.
    batch_verdicts: Vec<FrameVerdict>,
    batch_rows: Vec<f64>,
    batch_admitted: Vec<(bool, bool)>,
    batch_labels: Vec<AppClass>,
}

impl<'a> OnlineClassifier<'a> {
    /// Wraps a trained pipeline for full-history streaming classification.
    pub fn new(pipeline: &'a ClassifierPipeline) -> Self {
        OnlineClassifier {
            pipeline,
            runner: StagePipeline::new(),
            labels: VecDeque::new(),
            counts: [0; 5],
            window: None,
            observed: 0,
            guard: FrameGuard::default(),
            repaired_flags: VecDeque::new(),
            repaired_in_state: 0,
            batch_verdicts: Vec::new(),
            batch_rows: Vec::new(),
            batch_admitted: Vec::new(),
            batch_labels: Vec::new(),
        }
    }

    /// Wraps a trained pipeline with a sliding window of `window` snapshots
    /// (must be ≥ 1) for stage-change detection.
    pub fn with_window(pipeline: &'a ClassifierPipeline, window: usize) -> Self {
        let mut oc = OnlineClassifier::new(pipeline);
        oc.window = Some(window.max(1));
        oc
    }

    /// Like [`OnlineClassifier::with_window`] (`window = None` for full
    /// history), but with an explicit guard policy for the
    /// [`OnlineClassifier::push_guarded`] path.
    pub fn with_guard(
        pipeline: &'a ClassifierPipeline,
        window: Option<usize>,
        config: GuardConfig,
    ) -> Self {
        let mut oc = OnlineClassifier::new(pipeline);
        oc.window = window.map(|w| w.max(1));
        oc.guard = FrameGuard::new(config);
        oc
    }

    /// Classifies one incoming frame and folds it into the running state;
    /// returns the snapshot's class.
    pub fn push_frame(&mut self, frame: &MetricFrame) -> Result<AppClass> {
        self.push_classified(frame, false)
    }

    /// Shared tail of every push path: classify, fold into the vote state,
    /// enforce the window.
    fn push_classified(&mut self, frame: &MetricFrame, was_repaired: bool) -> Result<AppClass> {
        let class = self.pipeline.classify_frame_with(&mut self.runner, frame)?;
        self.fold_label(class, was_repaired);
        Ok(class)
    }

    /// Folds one already-classified snapshot into the vote state and
    /// enforces the window — the state transition both the streaming and
    /// the batched push paths share.
    fn fold_label(&mut self, class: AppClass, was_repaired: bool) {
        self.labels.push_back(class);
        self.counts[class.index()] += 1;
        self.repaired_flags.push_back(was_repaired);
        if was_repaired {
            self.repaired_in_state += 1;
        }
        if let Some(w) = self.window {
            while self.labels.len() > w {
                let evicted = self.labels.pop_front().expect("len > w >= 1");
                self.counts[evicted.index()] -= 1;
                if self.repaired_flags.pop_front().expect("lockstep with labels") {
                    self.repaired_in_state -= 1;
                }
            }
        }
        self.observed += 1;
    }

    /// Convenience: push a monitoring snapshot.
    pub fn push(&mut self, snapshot: &Snapshot) -> Result<AppClass> {
        self.push_frame(&snapshot.frame)
    }

    /// Attaches a span tracer to the classifier's runner: every pushed
    /// frame records a `classify_frame` span with per-stage child spans.
    /// Cheap after the first frame — span names are interned once and the
    /// hot path stays lock-free and allocation-free.
    pub fn set_tracer(&mut self, tracer: appclass_obs::Tracer) {
        self.runner.set_tracer(tracer);
    }

    /// Detaches the span tracer, if any: later pushes record no spans
    /// (the stage counters keep accumulating). The interned span names
    /// stay cached, so attaching the same tracer again costs only the
    /// clone.
    pub fn clear_tracer(&mut self) {
        self.runner.clear_tracer();
    }

    /// Pushes a snapshot through the classifier's [`FrameGuard`] first:
    /// corrupted values are imputed, duplicates and unusable frames are
    /// rejected instead of poisoning the vote, and a cadence gap clears a
    /// sliding window (the snapshots on the far side of an outage belong
    /// to whatever the application is doing *now*, not to the stale
    /// majority). Degradation is tallied in
    /// [`OnlineClassifier::telemetry`] and discounted by
    /// [`OnlineClassifier::confidence`].
    ///
    /// Returns the guard's verdict; the vote state only changes for usable
    /// verdicts.
    pub fn push_guarded(&mut self, snapshot: &Snapshot) -> Result<FrameVerdict> {
        let admission = self.guard.admit(snapshot);
        if let Some(frame) = admission.frame {
            if admission.gap.is_some() && self.window.is_some() {
                self.clear_vote_state();
            }
            let repaired = matches!(admission.verdict, FrameVerdict::Repaired { .. });
            self.push_classified(&frame, repaired)?;
        }
        Ok(admission.verdict)
    }

    /// Pushes a whole batch of snapshots through the guard and the
    /// classifier, returning one verdict per snapshot, in arrival order.
    ///
    /// The fold is exactly equivalent to calling
    /// [`OnlineClassifier::push_guarded`] on each snapshot in sequence:
    /// admissions happen in arrival order (the guard is stateful), a
    /// cadence gap still clears a sliding window *before* that snapshot's
    /// label lands, and the batched k-NN runs the same index search as
    /// the streaming one — so the vote state, composition, confidence,
    /// and telemetry all end up in the same state either way. What the
    /// batch buys is one pass over the dataflow chain for every admitted
    /// frame (warm buffers) instead of one pass per frame, which is where
    /// the serving layer's batch throughput comes from.
    ///
    /// On a classification error nothing is folded; the guard has already
    /// recorded the admissions (same as a mid-stream error in the
    /// sequential path leaving earlier telemetry in place).
    ///
    /// The verdicts are borrowed from a buffer the classifier keeps, and
    /// the guard admits each frame straight into the batch's feature
    /// rows: once the buffers have grown to the widest batch seen, a
    /// push allocates nothing.
    ///
    /// A one-snapshot batch takes the streaming path instead
    /// ([`OnlineClassifier::push_guarded`]): one clock read per stage
    /// boundary and no 1×33 request matrix, where the batch chain would
    /// read the clock twice per stage and open a parent span of its own.
    pub fn push_batch_guarded(&mut self, snapshots: &[Snapshot]) -> Result<&[FrameVerdict]> {
        self.batch_verdicts.clear();
        if let [snapshot] = snapshots {
            let verdict = self.push_guarded(snapshot)?;
            self.batch_verdicts.push(verdict);
            return Ok(&self.batch_verdicts);
        }
        self.batch_admitted.clear();
        let mut rows = std::mem::take(&mut self.batch_rows);
        // Only the tail a previous batch left short gets zero-filled.
        rows.resize(snapshots.len() * METRIC_COUNT, 0.0);
        let (slots, _) = rows.as_chunks_mut::<METRIC_COUNT>();
        for snapshot in snapshots {
            let slot = &mut slots[self.batch_admitted.len()];
            let (verdict, gap) = self.guard.admit_into(snapshot, slot);
            if verdict.is_usable() {
                let clears = gap.is_some() && self.window.is_some();
                let repaired = matches!(verdict, FrameVerdict::Repaired { .. });
                self.batch_admitted.push((repaired, clears));
            }
            self.batch_verdicts.push(verdict);
        }
        let admitted = self.batch_admitted.len();
        rows.truncate(admitted * METRIC_COUNT);
        if admitted == 0 {
            self.batch_rows = rows;
            return Ok(&self.batch_verdicts);
        }
        let raw = Matrix::from_vec(admitted, METRIC_COUNT, rows)?;
        let classified =
            self.pipeline.classify_rows_with(&mut self.runner, &raw, &mut self.batch_labels);
        self.batch_rows = raw.into_vec();
        classified?;
        let flags = std::mem::take(&mut self.batch_admitted);
        let labels = std::mem::take(&mut self.batch_labels);
        for (&(repaired, clears), &class) in flags.iter().zip(&labels) {
            if clears {
                self.clear_vote_state();
            }
            self.fold_label(class, repaired);
        }
        self.batch_admitted = flags;
        self.batch_labels = labels;
        Ok(&self.batch_verdicts)
    }

    /// Clears the vote window without touching `observed`, the stage
    /// counters, or the guard's health history.
    fn clear_vote_state(&mut self) {
        self.labels.clear();
        self.counts = [0; 5];
        self.repaired_flags.clear();
        self.repaired_in_state = 0;
    }

    /// Total snapshots observed since construction.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Snapshots currently inside the (possibly windowed) state.
    pub fn in_state(&self) -> usize {
        self.labels.len()
    }

    /// The running composition over the current state (O(1): maintained
    /// incrementally as snapshots arrive and leave the window).
    pub fn composition(&self) -> ClassComposition {
        let n = self.labels.len().max(1) as f64;
        let f = |c: AppClass| self.counts[c.index()] as f64 / n;
        ClassComposition::from_fractions(
            f(AppClass::Idle),
            f(AppClass::Io),
            f(AppClass::Cpu),
            f(AppClass::Net),
            f(AppClass::Mem),
        )
        .expect("counts/len are a valid distribution")
    }

    /// The current majority class; `None` before the first snapshot.
    pub fn current_class(&self) -> Option<AppClass> {
        if self.labels.is_empty() {
            None
        } else {
            Some(self.composition().majority())
        }
    }

    /// Per-stage cost counters accumulated over every snapshot pushed so
    /// far — the streaming view of the §5.3 cost breakdown.
    pub fn stage_metrics(&self) -> &StageMetrics {
        self.runner.metrics()
    }

    /// Health of the guarded telemetry stream: everything pushed through
    /// [`OnlineClassifier::push_guarded`] since construction (or the last
    /// [`OnlineClassifier::reset`]). All-zero when only the unguarded
    /// push paths were used.
    pub fn telemetry(&self) -> &TelemetryHealth {
        self.guard.health()
    }

    /// Records a datagram that failed to decode before it could even
    /// become a snapshot — the serving layer's hook for keeping
    /// wire-level corruption in the same [`TelemetryHealth`] report as
    /// frame-level degradation.
    pub fn note_malformed(&mut self) {
        self.guard.note_malformed();
    }

    /// The sliding-window length, if one is configured.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Confidence in [`OnlineClassifier::current_class`]: the majority
    /// fraction over the current state, discounted by the fraction of
    /// in-state snapshots whose frames were repaired. `0.0` before the
    /// first snapshot.
    pub fn confidence(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        let composition = self.composition();
        let majority = composition.fraction(composition.majority());
        let repaired = self.repaired_in_state as f64 / self.labels.len() as f64;
        majority * (1.0 - 0.5 * repaired)
    }

    /// Resets the running state (e.g. when a new application starts on the
    /// monitored VM); the pipeline itself is untouched. Stage counters and
    /// the telemetry guard restart too, so the next application's cost and
    /// health reports are its own.
    pub fn reset(&mut self) {
        self.clear_vote_state();
        self.observed = 0;
        self.runner.reset_metrics();
        self.guard.reset();
    }
}

/// Incremental (online) trainer: accumulates labelled snapshots as they
/// arrive from monitored training runs and refits the whole pipeline
/// every `refit_interval` new snapshots.
///
/// §5.3's cost measurement (training + PCA + classification of 8000
/// samples in 50 s on 2001 hardware, microseconds per sample here) is what
/// makes this practical: a deployment can keep absorbing labelled runs
/// and re-learn the feature space without ever pausing monitoring.
#[derive(Debug, Clone)]
pub struct OnlineTrainer {
    config: PipelineConfig,
    /// Labelled snapshots collected so far, flattened.
    frames: Vec<(MetricFrame, AppClass)>,
    pipeline: Option<ClassifierPipeline>,
    refit_interval: usize,
    since_fit: usize,
    refits: usize,
}

impl OnlineTrainer {
    /// Creates a trainer; the pipeline refits after every `refit_interval`
    /// newly absorbed snapshots (min 1).
    pub fn new(config: PipelineConfig, refit_interval: usize) -> Self {
        OnlineTrainer {
            config,
            frames: Vec::new(),
            pipeline: None,
            refit_interval: refit_interval.max(1),
            since_fit: 0,
            refits: 0,
        }
    }

    /// Absorbs one labelled snapshot; returns `true` when this triggered a
    /// refit. The first refit happens as soon as a viable training set
    /// exists (≥ 2 snapshots).
    pub fn absorb(&mut self, frame: MetricFrame, class: AppClass) -> Result<bool> {
        if let Some(idx) = frame.first_non_finite() {
            return Err(Error::Metrics(appclass_metrics::Error::NonFiniteMetric {
                node: appclass_metrics::NodeId(0),
                metric: idx,
            }));
        }
        self.frames.push((frame, class));
        self.since_fit += 1;
        let due = self.pipeline.is_none() || self.since_fit >= self.refit_interval;
        if due && self.frames.len() >= 2 {
            self.refit()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Absorbs a whole labelled run (one matrix of raw snapshots).
    pub fn absorb_run(&mut self, raw: &Matrix, class: AppClass) -> Result<usize> {
        if raw.cols() != METRIC_COUNT {
            return Err(Error::FeatureMismatch { expected: METRIC_COUNT, got: raw.cols() });
        }
        let mut refits = 0;
        for i in 0..raw.rows() {
            let frame = MetricFrame::from_values(raw.row(i)).expect("validated width");
            if self.absorb(frame, class)? {
                refits += 1;
            }
        }
        Ok(refits)
    }

    /// Absorbs one labelled monitoring snapshot through a caller-owned
    /// [`FrameGuard`]: frames the guard drops never enter the training
    /// set, and repaired frames enter with their imputed (finite) values —
    /// so a refit can never train on quarantined garbage. Returns `None`
    /// when the frame was dropped, otherwise [`OnlineTrainer::absorb`]'s
    /// refit flag.
    pub fn absorb_guarded(
        &mut self,
        guard: &mut FrameGuard,
        snapshot: &Snapshot,
        class: AppClass,
    ) -> Result<Option<bool>> {
        let admission = guard.admit(snapshot);
        match admission.frame {
            Some(frame) => self.absorb(frame, class).map(Some),
            None => Ok(None),
        }
    }

    /// Rebuilds the pipeline from everything absorbed so far.
    pub fn refit(&mut self) -> Result<()> {
        if self.frames.is_empty() {
            return Err(Error::NoTrainingData);
        }
        // Group by class into per-class matrices (training-run shape).
        let mut runs: Vec<(Matrix, AppClass)> = Vec::new();
        for class in AppClass::ALL {
            let rows: Vec<Vec<f64>> = self
                .frames
                .iter()
                .filter(|(_, c)| *c == class)
                .map(|(f, _)| f.as_slice().to_vec())
                .collect();
            if !rows.is_empty() {
                runs.push((Matrix::from_rows(&rows)?, class));
            }
        }
        self.pipeline = Some(ClassifierPipeline::train(&runs, &self.config)?);
        self.since_fit = 0;
        self.refits += 1;
        Ok(())
    }

    /// The current trained pipeline, if any snapshot has been absorbed.
    pub fn pipeline(&self) -> Option<&ClassifierPipeline> {
        self.pipeline.as_ref()
    }

    /// Total labelled snapshots absorbed.
    pub fn absorbed(&self) -> usize {
        self.frames.len()
    }

    /// Number of refits performed.
    pub fn refits(&self) -> usize {
        self.refits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ClassifierPipeline, PipelineConfig};
    use appclass_linalg::Matrix;
    use appclass_metrics::{MetricId, METRIC_COUNT};

    fn raw_run(rows: usize, settings: &[(MetricId, f64)]) -> Matrix {
        let mut m = Matrix::zeros(rows, METRIC_COUNT);
        for i in 0..rows {
            let wiggle = 1.0 + 0.03 * ((i % 5) as f64 - 2.0);
            for &(id, v) in settings {
                m[(i, id.index())] = v * wiggle;
            }
        }
        m
    }

    fn frame(settings: &[(MetricId, f64)]) -> MetricFrame {
        let mut f = MetricFrame::zeroed();
        for &(id, v) in settings {
            f.set(id, v);
        }
        f
    }

    fn trained() -> ClassifierPipeline {
        let runs = vec![
            (raw_run(25, &[(MetricId::CpuUser, 90.0), (MetricId::CpuSystem, 5.0)]), AppClass::Cpu),
            (raw_run(25, &[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)]), AppClass::Io),
            (raw_run(25, &[(MetricId::BytesOut, 3.0e7)]), AppClass::Net),
            (raw_run(25, &[(MetricId::CpuUser, 0.3)]), AppClass::Idle),
        ];
        ClassifierPipeline::train(&runs, &PipelineConfig::paper()).unwrap()
    }

    #[test]
    fn empty_state() {
        let p = trained();
        let oc = OnlineClassifier::new(&p);
        assert_eq!(oc.current_class(), None);
        assert_eq!(oc.observed(), 0);
    }

    #[test]
    fn streaming_matches_batch_labels() {
        let p = trained();
        let mut oc = OnlineClassifier::new(&p);
        for _ in 0..10 {
            let c = oc.push_frame(&frame(&[(MetricId::CpuUser, 85.0)])).unwrap();
            assert_eq!(c, AppClass::Cpu);
        }
        assert_eq!(oc.current_class(), Some(AppClass::Cpu));
        assert_eq!(oc.composition().fraction(AppClass::Cpu), 1.0);
        assert_eq!(oc.observed(), 10);
    }

    #[test]
    fn stage_change_flips_windowed_majority() {
        let p = trained();
        let mut oc = OnlineClassifier::with_window(&p, 6);
        // CPU stage…
        for _ in 0..20 {
            oc.push_frame(&frame(&[(MetricId::CpuUser, 85.0)])).unwrap();
        }
        assert_eq!(oc.current_class(), Some(AppClass::Cpu));
        // …then an I/O stage: the window flips within its length.
        for _ in 0..6 {
            oc.push_frame(&frame(&[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)])).unwrap();
        }
        assert_eq!(oc.current_class(), Some(AppClass::Io));
        assert_eq!(oc.in_state(), 6, "window bounds the state");
        assert_eq!(oc.observed(), 26, "observed counts everything");
    }

    #[test]
    fn unwindowed_majority_is_sticky() {
        let p = trained();
        let mut oc = OnlineClassifier::new(&p);
        for _ in 0..20 {
            oc.push_frame(&frame(&[(MetricId::CpuUser, 85.0)])).unwrap();
        }
        for _ in 0..6 {
            oc.push_frame(&frame(&[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)])).unwrap();
        }
        // 20 CPU vs 6 IO: full-history majority stays CPU.
        assert_eq!(oc.current_class(), Some(AppClass::Cpu));
    }

    #[test]
    fn push_snapshot_wrapper() {
        let p = trained();
        let mut oc = OnlineClassifier::new(&p);
        let snap = appclass_metrics::Snapshot::new(
            appclass_metrics::NodeId(1),
            5,
            frame(&[(MetricId::BytesOut, 2.8e7)]),
        );
        assert_eq!(oc.push(&snap).unwrap(), AppClass::Net);
    }

    #[test]
    fn reset_clears_state() {
        let p = trained();
        let mut oc = OnlineClassifier::new(&p);
        oc.push_frame(&frame(&[(MetricId::CpuUser, 85.0)])).unwrap();
        oc.reset();
        assert_eq!(oc.current_class(), None);
        assert_eq!(oc.observed(), 0);
    }

    #[test]
    fn zero_window_clamps_to_one() {
        let p = trained();
        let mut oc = OnlineClassifier::with_window(&p, 0);
        for _ in 0..3 {
            oc.push_frame(&frame(&[(MetricId::CpuUser, 85.0)])).unwrap();
        }
        // A window of 0 would make every composition empty; it clamps to 1.
        assert_eq!(oc.in_state(), 1);
        assert_eq!(oc.observed(), 3);
        assert_eq!(oc.current_class(), Some(AppClass::Cpu));
        // One I/O frame flips a 1-snapshot window instantly.
        oc.push_frame(&frame(&[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)])).unwrap();
        assert_eq!(oc.current_class(), Some(AppClass::Io));
    }

    #[test]
    fn reset_mid_stream_starts_a_fresh_application() {
        let p = trained();
        let mut oc = OnlineClassifier::with_window(&p, 8);
        for _ in 0..5 {
            oc.push_frame(&frame(&[(MetricId::CpuUser, 85.0)])).unwrap();
        }
        assert!(!oc.stage_metrics().is_empty());
        oc.reset();
        assert_eq!(oc.current_class(), None);
        assert_eq!(oc.in_state(), 0);
        assert!(oc.stage_metrics().is_empty(), "reset restarts the cost report");
        // Post-reset classification must see none of the CPU history.
        for _ in 0..2 {
            oc.push_frame(&frame(&[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)])).unwrap();
        }
        assert_eq!(oc.current_class(), Some(AppClass::Io));
        assert_eq!(oc.composition().fraction(AppClass::Io), 1.0);
        assert_eq!(oc.observed(), 2);
    }

    #[test]
    fn streaming_composition_equals_offline_classification() {
        let p = trained();
        // A multi-stage run: CPU, then I/O, then network.
        let raw = raw_run(10, &[(MetricId::CpuUser, 85.0)])
            .vstack(&raw_run(7, &[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)]))
            .unwrap()
            .vstack(&raw_run(5, &[(MetricId::BytesOut, 2.8e7)]))
            .unwrap();
        let offline = p.classify(&raw).unwrap();
        let mut oc = OnlineClassifier::new(&p);
        let mut streamed = Vec::new();
        for i in 0..raw.rows() {
            let f = MetricFrame::from_values(raw.row(i)).unwrap();
            streamed.push(oc.push_frame(&f).unwrap());
        }
        // Same per-snapshot class vector, composition, and majority —
        // both paths run the same stages on the same dataflow core.
        assert_eq!(streamed, offline.class_vector);
        assert_eq!(oc.composition(), offline.composition);
        assert_eq!(oc.current_class(), Some(offline.class));
    }

    #[test]
    fn stream_accumulates_stage_metrics() {
        let p = trained();
        let mut oc = OnlineClassifier::new(&p);
        for _ in 0..12 {
            oc.push_frame(&frame(&[(MetricId::CpuUser, 85.0)])).unwrap();
        }
        for name in ["preprocess", "pca", "knn"] {
            let stat = oc.stage_metrics().get(name).expect(name);
            assert_eq!(stat.samples, 12, "{name}");
            assert_eq!(stat.calls, 12, "{name}");
        }
    }

    // --- Guarded streaming ------------------------------------------------

    fn snap(t: u64, settings: &[(MetricId, f64)]) -> appclass_metrics::Snapshot {
        appclass_metrics::Snapshot::new(appclass_metrics::NodeId(7), t, frame(settings))
    }

    #[test]
    fn guarded_stream_repairs_and_discounts_confidence() {
        let p = trained();
        let mut oc = OnlineClassifier::new(&p);
        assert_eq!(oc.confidence(), 0.0, "no data, no confidence");
        for t in 0..4u64 {
            let v = oc.push_guarded(&snap(5 * t, &[(MetricId::CpuUser, 85.0)])).unwrap();
            assert_eq!(v, FrameVerdict::Accepted);
        }
        let clean_conf = oc.confidence();
        assert!((clean_conf - 1.0).abs() < 1e-12, "unanimous clean stream");
        // A corrupted frame is imputed from the last good value and still
        // votes CPU — but the verdict is knowable and confidence drops.
        let v = oc.push_guarded(&snap(20, &[(MetricId::CpuUser, f64::NAN)])).unwrap();
        assert_eq!(v, FrameVerdict::Repaired { patched: 1 });
        assert_eq!(oc.current_class(), Some(AppClass::Cpu));
        assert_eq!(oc.in_state(), 5);
        assert!(oc.confidence() < clean_conf, "repair discounts confidence");
        // A duplicate timestamp never reaches the vote.
        let v = oc.push_guarded(&snap(20, &[(MetricId::CpuUser, 85.0)])).unwrap();
        assert!(!v.is_usable());
        assert_eq!(oc.in_state(), 5);
        assert_eq!(oc.observed(), 5, "dropped frames are not observed");
        let h = oc.telemetry();
        assert_eq!((h.seen, h.accepted, h.repaired, h.duplicates), (6, 4, 1, 1));
    }

    #[test]
    fn gap_clears_windowed_vote() {
        let p = trained();
        let mut oc = OnlineClassifier::with_guard(&p, Some(8), GuardConfig::default());
        for t in 0..6u64 {
            oc.push_guarded(&snap(5 * t, &[(MetricId::CpuUser, 85.0)])).unwrap();
        }
        assert_eq!(oc.current_class(), Some(AppClass::Cpu));
        // An outage: the next frame arrives four sampling instants late and
        // carries I/O load. The stale CPU majority must not outvote the
        // post-outage reality.
        oc.push_guarded(&snap(50, &[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)])).unwrap();
        assert_eq!(oc.in_state(), 1, "window restarted after the gap");
        assert_eq!(oc.current_class(), Some(AppClass::Io));
        let h = oc.telemetry();
        assert_eq!((h.gaps, h.missed_frames), (1, 4));
        assert_eq!(oc.observed(), 7, "observed survives the gap reset");
    }

    #[test]
    fn unwindowed_guarded_stream_keeps_history_across_gaps() {
        let p = trained();
        let mut oc = OnlineClassifier::new(&p);
        for t in 0..6u64 {
            oc.push_guarded(&snap(5 * t, &[(MetricId::CpuUser, 85.0)])).unwrap();
        }
        oc.push_guarded(&snap(50, &[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)])).unwrap();
        // Full-history mode is order-insensitive, so a gap does not wipe
        // the accumulated composition; the majority stays CPU.
        assert_eq!(oc.in_state(), 7);
        assert_eq!(oc.current_class(), Some(AppClass::Cpu));
        assert_eq!(oc.telemetry().gaps, 1, "…but the gap is still on record");
    }

    #[test]
    fn window_eviction_restores_confidence() {
        let p = trained();
        let mut oc = OnlineClassifier::with_guard(&p, Some(3), GuardConfig::default());
        oc.push_guarded(&snap(0, &[(MetricId::CpuUser, 85.0)])).unwrap();
        oc.push_guarded(&snap(5, &[(MetricId::CpuUser, f64::NAN)])).unwrap();
        assert!(oc.confidence() < 1.0);
        // Three clean frames push the repaired one out of the window.
        for t in [10u64, 15, 20] {
            oc.push_guarded(&snap(t, &[(MetricId::CpuUser, 85.0)])).unwrap();
        }
        assert!((oc.confidence() - 1.0).abs() < 1e-12, "repair left the window");
    }

    #[test]
    fn reset_clears_guard_health() {
        let p = trained();
        let mut oc = OnlineClassifier::new(&p);
        oc.push_guarded(&snap(0, &[(MetricId::CpuUser, 85.0)])).unwrap();
        oc.push_guarded(&snap(5, &[(MetricId::CpuUser, f64::NAN)])).unwrap();
        assert_eq!(oc.telemetry().repaired, 1);
        oc.reset();
        assert_eq!(oc.telemetry(), &TelemetryHealth::default());
        assert_eq!(oc.confidence(), 0.0);
        // The guard forgot the node's sequencing too: t=0 is a fresh
        // first frame, not an out-of-order arrival.
        let v = oc.push_guarded(&snap(0, &[(MetricId::CpuUser, 85.0)])).unwrap();
        assert_eq!(v, FrameVerdict::Accepted);
    }

    /// A messy stream exercising every guard outcome: clean frames of
    /// three classes, a repairable corruption, a duplicate timestamp, and
    /// a cadence gap.
    fn messy_stream() -> Vec<appclass_metrics::Snapshot> {
        let mut s = Vec::new();
        for t in 0..5u64 {
            s.push(snap(5 * t, &[(MetricId::CpuUser, 85.0 + t as f64)]));
        }
        s.push(snap(25, &[(MetricId::CpuUser, f64::NAN)])); // repaired
        s.push(snap(25, &[(MetricId::CpuUser, 85.0)])); // duplicate → dropped
                                                        // A gap (t jumps 25 → 60), then an I/O stage.
        for t in 0..4u64 {
            s.push(snap(60 + 5 * t, &[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)]));
        }
        s.push(snap(80, &[(MetricId::BytesOut, 2.8e7)]));
        s
    }

    /// Batch push must leave the classifier in the exact state the
    /// sequential path does — same verdicts, same vote state, same
    /// telemetry — for both windowed and full-history classifiers.
    #[test]
    fn batch_push_equals_sequential_push() {
        let p = trained();
        for window in [None, Some(4), Some(64)] {
            let mut seq = OnlineClassifier::with_guard(&p, window, GuardConfig::default());
            let stream = messy_stream();
            let seq_verdicts: Vec<_> =
                stream.iter().map(|s| seq.push_guarded(s).unwrap()).collect();
            // One-item batches take the streaming path; mixed widths
            // alternate between the two.
            for width in [stream.len(), 1, 3] {
                let mut bat = OnlineClassifier::with_guard(&p, window, GuardConfig::default());
                let mut bat_verdicts = Vec::new();
                for chunk in stream.chunks(width) {
                    bat_verdicts.extend_from_slice(bat.push_batch_guarded(chunk).unwrap());
                }
                let at = format!("window {window:?}, width {width}");
                assert_eq!(seq_verdicts, bat_verdicts, "{at}");
                assert_eq!(seq.labels, bat.labels, "{at}: label deques");
                assert_eq!(seq.current_class(), bat.current_class(), "{at}");
                assert_eq!(seq.composition(), bat.composition(), "{at}");
                assert_eq!(seq.confidence(), bat.confidence(), "{at}: bitwise");
                assert_eq!(seq.observed(), bat.observed(), "{at}");
                assert_eq!(seq.in_state(), bat.in_state(), "{at}");
                assert_eq!(seq.telemetry(), bat.telemetry(), "{at}");
                for stage in ["preprocess", "pca", "knn"] {
                    let samples =
                        |oc: &OnlineClassifier<'_>| oc.stage_metrics().get(stage).unwrap().samples;
                    assert_eq!(samples(&seq), samples(&bat), "{at}: {stage} samples");
                }
            }
        }
    }

    /// A one-item batch records what a streamed frame records: the
    /// `classify_frame` parent and one span per stage, under a tracer
    /// attached only for it.
    #[test]
    fn one_item_batch_records_the_streaming_spans() {
        let p = trained();
        let tracer = appclass_obs::Tracer::new(64);
        let mut oc = OnlineClassifier::new(&p);
        oc.push_batch_guarded(&[snap(0, &[(MetricId::CpuUser, 85.0)])]).unwrap();
        assert_eq!(tracer.recorded(), 0);
        oc.set_tracer(tracer.clone());
        oc.push_batch_guarded(&[snap(5, &[(MetricId::CpuUser, 86.0)])]).unwrap();
        let names: Vec<_> = tracer.recent(64).iter().map(|s| s.name).collect();
        assert_eq!(names, ["preprocess", "pca", "knn", "classify_frame"]);
        oc.clear_tracer();
        oc.push_batch_guarded(&[snap(10, &[(MetricId::CpuUser, 87.0)])]).unwrap();
        assert_eq!(tracer.recorded(), 4, "a detached tracer records nothing");
        assert_eq!(oc.stage_metrics().get("knn").unwrap().samples, 3);
    }

    #[test]
    fn batch_push_empty_is_a_no_op() {
        let p = trained();
        let mut oc = OnlineClassifier::new(&p);
        assert!(oc.push_batch_guarded(&[]).unwrap().is_empty());
        assert_eq!(oc.observed(), 0);
        assert_eq!(oc.current_class(), None);
    }

    #[test]
    fn batch_push_all_rejected_folds_nothing() {
        let p = trained();
        let mut oc = OnlineClassifier::new(&p);
        oc.push_guarded(&snap(0, &[(MetricId::CpuUser, 85.0)])).unwrap();
        // Two duplicates of t=0: admitted by nothing, classified by nothing.
        let dupes =
            vec![snap(0, &[(MetricId::CpuUser, 85.0)]), snap(0, &[(MetricId::CpuUser, 86.0)])];
        let verdicts = oc.push_batch_guarded(&dupes).unwrap();
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| !v.is_usable()));
        assert_eq!(oc.observed(), 1);
        assert_eq!(oc.telemetry().duplicates, 2);
    }

    // --- OnlineTrainer ----------------------------------------------------

    #[test]
    fn trainer_starts_untrained() {
        let t = OnlineTrainer::new(PipelineConfig::paper(), 10);
        assert!(t.pipeline().is_none());
        assert_eq!(t.absorbed(), 0);
        assert_eq!(t.refits(), 0);
    }

    #[test]
    fn trainer_fits_once_viable_then_on_interval() {
        let mut t = OnlineTrainer::new(PipelineConfig::paper(), 5);
        assert!(!t.absorb(frame(&[(MetricId::CpuUser, 85.0)]), AppClass::Cpu).unwrap());
        // Second snapshot makes a viable set → first fit.
        assert!(t.absorb(frame(&[(MetricId::CpuUser, 88.0)]), AppClass::Cpu).unwrap());
        assert_eq!(t.refits(), 1);
        // Next refit only after 5 more.
        let mut refits = 0;
        for i in 0..5 {
            if t.absorb(frame(&[(MetricId::IoBi, 2000.0 + i as f64)]), AppClass::Io).unwrap() {
                refits += 1;
            }
        }
        assert_eq!(refits, 1);
        assert_eq!(t.refits(), 2);
    }

    #[test]
    fn trainer_learns_new_classes_incrementally() {
        let mut t = OnlineTrainer::new(PipelineConfig::paper(), 1);
        for i in 0..8 {
            t.absorb(frame(&[(MetricId::CpuUser, 80.0 + i as f64)]), AppClass::Cpu).unwrap();
        }
        for i in 0..8 {
            t.absorb(
                frame(&[(MetricId::IoBi, 2000.0 + 10.0 * i as f64), (MetricId::IoBo, 2400.0)]),
                AppClass::Io,
            )
            .unwrap();
        }
        let p = t.pipeline().expect("trained");
        assert_eq!(p.classify_frame(&frame(&[(MetricId::CpuUser, 83.0)])).unwrap(), AppClass::Cpu);
        assert_eq!(
            p.classify_frame(&frame(&[(MetricId::IoBi, 2100.0), (MetricId::IoBo, 2300.0)]))
                .unwrap(),
            AppClass::Io
        );
    }

    #[test]
    fn trainer_absorb_run_counts_refits() {
        let mut t = OnlineTrainer::new(PipelineConfig::paper(), 10);
        let raw = raw_run(25, &[(MetricId::BytesOut, 2.5e7)]);
        let refits = t.absorb_run(&raw, AppClass::Net).unwrap();
        assert_eq!(t.absorbed(), 25);
        assert!(refits >= 2, "25 snapshots at interval 10: {refits} refits");
    }

    #[test]
    fn trainer_matches_batch_training() {
        // Absorbing the exact batch training data must yield the same
        // classifications as batch training.
        let runs = vec![
            (raw_run(25, &[(MetricId::CpuUser, 90.0), (MetricId::CpuSystem, 5.0)]), AppClass::Cpu),
            (raw_run(25, &[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)]), AppClass::Io),
            (raw_run(25, &[(MetricId::BytesOut, 3.0e7)]), AppClass::Net),
            (raw_run(25, &[(MetricId::CpuUser, 0.3)]), AppClass::Idle),
        ];
        let batch = ClassifierPipeline::train(&runs, &PipelineConfig::paper()).unwrap();
        let mut t = OnlineTrainer::new(PipelineConfig::paper(), usize::MAX);
        for (m, c) in &runs {
            t.absorb_run(m, *c).unwrap();
        }
        t.refit().unwrap();
        let online = t.pipeline().unwrap();
        for (test, _) in &runs {
            let a = batch.classify(test).unwrap();
            let b = online.classify(test).unwrap();
            assert_eq!(a.class, b.class);
        }
    }

    #[test]
    fn trainer_guarded_absorption_never_trains_on_garbage() {
        use appclass_metrics::{NodeId, Snapshot};
        let mut t = OnlineTrainer::new(PipelineConfig::paper(), usize::MAX);
        let mut guard = FrameGuard::default();
        let mut poisoned = frame(&[(MetricId::CpuUser, 85.0)]);
        poisoned.set(MetricId::CpuSystem, f64::NAN);
        // Corrupted before any baseline exists: dropped, never absorbed.
        let s0 = Snapshot::new(NodeId(1), 0, poisoned.clone());
        assert_eq!(t.absorb_guarded(&mut guard, &s0, AppClass::Cpu).unwrap(), None);
        assert_eq!(t.absorbed(), 0);
        // Clean frames are absorbed and seed the imputation baseline.
        for i in 0..4u64 {
            let s = Snapshot::new(
                NodeId(1),
                5 * (i + 1),
                frame(&[(MetricId::CpuUser, 84.0 + i as f64)]),
            );
            assert!(t.absorb_guarded(&mut guard, &s, AppClass::Cpu).unwrap().is_some());
        }
        assert_eq!(t.absorbed(), 4);
        assert_eq!(t.refits(), 1, "first viable set triggered the initial fit");
        // The same corruption with a baseline: repaired, absorbed finite.
        let s5 = Snapshot::new(NodeId(1), 25, poisoned);
        assert_eq!(t.absorb_guarded(&mut guard, &s5, AppClass::Cpu).unwrap(), Some(false));
        assert_eq!(t.absorbed(), 5);
        // A duplicate is rejected without touching absorption statistics.
        let dup = Snapshot::new(NodeId(1), 25, frame(&[(MetricId::CpuUser, 90.0)]));
        assert_eq!(t.absorb_guarded(&mut guard, &dup, AppClass::Cpu).unwrap(), None);
        assert_eq!(t.absorbed(), 5);
        // Everything retained is finite, so a full refit succeeds — absorb
        // would have rejected any quarantined value outright.
        t.refit().unwrap();
        assert_eq!(t.refits(), 2);
        assert_eq!(guard.health().dropped, 2);
    }

    #[test]
    fn trainer_rejects_bad_input() {
        let mut t = OnlineTrainer::new(PipelineConfig::paper(), 1);
        let mut bad = MetricFrame::zeroed();
        bad.set(MetricId::CpuUser, f64::NAN);
        assert!(t.absorb(bad, AppClass::Cpu).is_err());
        assert!(t.absorb_run(&Matrix::zeros(2, 5), AppClass::Cpu).is_err());
        assert!(t.refit().is_err(), "refit with nothing absorbed");
    }
}
