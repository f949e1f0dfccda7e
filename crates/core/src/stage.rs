//! Composable dataflow stages — the Figure 2 chain as first-class values.
//!
//! The paper's classification chain `A(n×m) → A'(p×m) → B(q×m) → C(1×m)`
//! used to be hand-rolled in three places: the batch pipeline, the online
//! classifier, and the stage-segmentation smoothing pass. This module
//! factors it into:
//!
//! * [`Stage`] — a batch transform over snapshot matrices (one row per
//!   snapshot). Implemented by
//!   [`Preprocessor`](crate::preprocess::Preprocessor),
//!   [`Pca`](crate::pca::Pca),
//!   [`KnnClassifier`](crate::knn::KnnClassifier) and
//!   [`SmoothingStage`](crate::stages::SmoothingStage).
//! * [`StreamingStage`] — the per-snapshot counterpart, the online path.
//! * [`StagePipeline`] — the runner: executes a stage chain by ping-ponging
//!   between two reusable scratch buffers (no per-call matrix allocation
//!   once warm) and records per-stage sample counts and wall-clock time
//!   into a [`StageMetrics`] accumulator — the §5.3 cost measurement with
//!   a breakdown.
//!
//! Classifier heads speak the matrix interface by encoding each snapshot's
//! class as its [`AppClass::index`] in an `m × 1` column — see
//! [`encode_classes`] / [`decode_classes`].

use crate::class::AppClass;
use crate::error::{Error, Result};
use appclass_linalg::Matrix;
use appclass_metrics::StageMetrics;
use appclass_obs::{OpenSpan, SpanGuard, SpanName, Tracer};
use std::time::Instant;

/// A batch dataflow stage: transforms an `m × a` snapshot matrix into an
/// `m × b` one, writing into a caller-owned buffer.
pub trait Stage {
    /// Stage name used by the instrumentation (and the §5.3 breakdown).
    fn name(&self) -> &'static str;

    /// Transforms `input` into `out`, reusing `out`'s allocation.
    fn transform_into(&self, input: &Matrix, out: &mut Matrix) -> Result<()>;
}

/// The per-snapshot (streaming) counterpart of [`Stage`] — what the online
/// classifier drives once per 5-second sample.
pub trait StreamingStage: Stage {
    /// Transforms one snapshot row into `out`, reusing its allocation.
    fn transform_row_into(&self, input: &[f64], out: &mut Vec<f64>) -> Result<()>;
}

/// Executes stage chains over reusable scratch buffers, recording
/// per-stage [`StageMetrics`].
///
/// One runner can be shared across many classifications: buffers reach a
/// steady state after the first call (no further allocation for same-shape
/// batches) and metrics accumulate, which is how the online classifier and
/// the §5.3 bench report totals.
///
/// # Examples
///
/// ```
/// use appclass_core::stage::{Stage, StagePipeline};
/// use appclass_linalg::Matrix;
///
/// /// Doubles every entry.
/// struct Double;
/// impl Stage for Double {
///     fn name(&self) -> &'static str { "double" }
///     fn transform_into(
///         &self,
///         input: &Matrix,
///         out: &mut Matrix,
///     ) -> appclass_core::Result<()> {
///         out.resize(input.rows(), input.cols());
///         for (o, i) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
///             *o = 2.0 * i;
///         }
///         Ok(())
///     }
/// }
///
/// let mut runner = StagePipeline::new();
/// let input = Matrix::filled(4, 2, 1.5);
/// runner.run_batch(&[&Double, &Double], &input).unwrap();
/// assert_eq!(runner.output()[(0, 0)], 6.0);
/// assert_eq!(runner.metrics().get("double").unwrap().samples, 8);
/// ```
#[derive(Debug, Clone)]
pub struct StagePipeline {
    /// Holds the most recent batch output; swapped with `pong` per stage.
    ping: Matrix,
    pong: Matrix,
    /// Streaming counterparts of `ping`/`pong`.
    row_ping: Vec<f64>,
    row_pong: Vec<f64>,
    metrics: StageMetrics,
    /// Optional span tracer; when set, every stage execution records a
    /// span named after the stage.
    tracer: Option<Tracer>,
    /// Stage-name → interned span-name cache so the hot path never takes
    /// the tracer's interning lock (grows once per distinct stage name).
    span_names: Vec<(&'static str, SpanName)>,
}

impl Default for StagePipeline {
    fn default() -> Self {
        StagePipeline::new()
    }
}

impl StagePipeline {
    /// A runner with empty buffers and no recorded metrics.
    pub fn new() -> Self {
        StagePipeline {
            ping: Matrix::zeros(0, 0),
            pong: Matrix::zeros(0, 0),
            row_ping: Vec::new(),
            row_pong: Vec::new(),
            metrics: StageMetrics::new(),
            tracer: None,
            span_names: Vec::new(),
        }
    }

    /// Attaches a span tracer: from now on every stage execution (batch,
    /// row, and [`StagePipeline::time_stage`]) records a span named after
    /// the stage. Span names are interned once per distinct stage name
    /// and cached for the runner's lifetime, so the per-call cost is
    /// lock-free and allocation-free after the first encounter — and a
    /// runner records into one tracer: attach clones of the same one.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Detaches the span tracer; stage metrics are still recorded. The
    /// interned names stay cached, so attaching the tracer again costs
    /// only the clone.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    /// The attached span tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Starts a span named `name` if a tracer is attached. Used by the
    /// pipeline/online layers to wrap whole classify calls in a parent
    /// span that the per-stage spans link to.
    pub fn span(&mut self, name: &'static str) -> Option<SpanGuard> {
        let interned = self.intern(name)?;
        Some(self.tracer.as_ref().expect("intern implies tracer").span(interned))
    }

    /// Records a completed stage execution as a leaf span, reusing the
    /// instants the stage loop already read for the metrics accumulator
    /// — tracing a stage adds no clock reads of its own.
    fn leaf_span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if let Some(interned) = self.intern(name) {
            self.tracer.as_ref().expect("intern implies tracer").leaf(interned, start, end);
        }
    }

    /// Resolves a stage name to its interned span handle via the local
    /// cache (`None` when no tracer is attached).
    fn intern(&mut self, name: &'static str) -> Option<SpanName> {
        let tracer = self.tracer.as_ref()?;
        let interned =
            match self.span_names.iter().find(|(n, _)| std::ptr::eq(*n, name) || *n == name) {
                Some(&(_, id)) => id,
                None => {
                    let id = tracer.register(name);
                    self.span_names.push((name, id));
                    id
                }
            };
        Some(interned)
    }

    /// Runs a batch chain; the result is left in [`StagePipeline::output`].
    ///
    /// Each stage's sample count (`input.rows()`) and wall-clock time are
    /// recorded under the stage's name. An empty chain copies the input
    /// through unchanged.
    pub fn run_batch(&mut self, stages: &[&dyn Stage], input: &Matrix) -> Result<()> {
        if stages.is_empty() {
            self.ping.resize(input.rows(), input.cols());
            self.ping.as_mut_slice().copy_from_slice(input.as_slice());
            return Ok(());
        }
        let samples = input.rows() as u64;
        for (i, stage) in stages.iter().enumerate() {
            let started = Instant::now();
            let result = if i == 0 {
                stage.transform_into(input, &mut self.ping)
            } else {
                let r = stage.transform_into(&self.ping, &mut self.pong);
                if r.is_ok() {
                    std::mem::swap(&mut self.ping, &mut self.pong);
                }
                r
            };
            let ended = Instant::now();
            self.leaf_span(stage.name(), started, ended);
            self.metrics.record(stage.name(), samples, ended.saturating_duration_since(started));
            result?;
        }
        Ok(())
    }

    /// The output buffer of the last [`StagePipeline::run_batch`].
    pub fn output(&self) -> &Matrix {
        &self.ping
    }

    /// Consumes the runner, returning the last batch output by move.
    pub fn into_output(self) -> Matrix {
        self.ping
    }

    /// Runs a streaming chain over one snapshot row, returning the final
    /// row (borrowed from the runner's scratch; copy it out to keep it).
    pub fn run_row(&mut self, stages: &[&dyn StreamingStage], input: &[f64]) -> Result<&[f64]> {
        self.run_row_inner(None, stages, input)
    }

    /// [`StagePipeline::run_row`] wrapped in a parent span named
    /// `span_name` that the per-stage spans link to. This is the online
    /// per-frame hot path, so the whole traced frame — parent span,
    /// stage spans, and stage metrics — shares one clock read per stage
    /// boundary: a stage's window opens exactly when its predecessor's
    /// closes, and the parent span covers the union. Tracing therefore
    /// adds zero clock reads over the untraced run.
    pub fn run_row_spanned(
        &mut self,
        span_name: &'static str,
        stages: &[&dyn StreamingStage],
        input: &[f64],
    ) -> Result<&[f64]> {
        self.run_row_inner(Some(span_name), stages, input)
    }

    fn run_row_inner(
        &mut self,
        span_name: Option<&'static str>,
        stages: &[&dyn StreamingStage],
        input: &[f64],
    ) -> Result<&[f64]> {
        if stages.is_empty() {
            self.row_ping.clear();
            self.row_ping.extend_from_slice(input);
            return Ok(&self.row_ping);
        }
        let mut boundary = Instant::now();
        let parent: Option<OpenSpan> = span_name.and_then(|name| {
            let interned = self.intern(name)?;
            Some(self.tracer.as_ref().expect("intern implies tracer").begin_at(interned, boundary))
        });
        let mut failed = None;
        for (i, stage) in stages.iter().enumerate() {
            let result = if i == 0 {
                stage.transform_row_into(input, &mut self.row_ping)
            } else {
                let r = stage.transform_row_into(&self.row_ping, &mut self.row_pong);
                if r.is_ok() {
                    std::mem::swap(&mut self.row_ping, &mut self.row_pong);
                }
                r
            };
            let ended = Instant::now();
            self.leaf_span(stage.name(), boundary, ended);
            self.metrics.record(stage.name(), 1, ended.saturating_duration_since(boundary));
            boundary = ended;
            if let Err(e) = result {
                failed = Some(e);
                break;
            }
        }
        if let Some(parent) = parent {
            self.tracer.as_ref().expect("parent implies tracer").finish_span_at(parent, boundary);
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(&self.row_ping),
        }
    }

    /// Times a step that runs outside the ping-pong chain (e.g. a typed
    /// classifier head) into the same metrics accumulator.
    pub fn time_stage<T>(
        &mut self,
        name: &'static str,
        samples: u64,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let started = Instant::now();
        let result = f();
        let ended = Instant::now();
        self.leaf_span(name, started, ended);
        self.metrics.record(name, samples, ended.saturating_duration_since(started));
        result
    }

    /// The per-stage counters accumulated so far.
    pub fn metrics(&self) -> &StageMetrics {
        &self.metrics
    }

    /// Clears the accumulated metrics (buffers are kept warm).
    pub fn reset_metrics(&mut self) {
        self.metrics.clear();
    }
}

/// Encodes a class vector as an `m × 1` class-index matrix — the
/// representation classifier heads emit through the [`Stage`] interface.
pub fn encode_classes(labels: &[AppClass], out: &mut Matrix) {
    out.resize(labels.len(), 1);
    for (slot, l) in out.as_mut_slice().iter_mut().zip(labels) {
        *slot = l.index() as f64;
    }
}

/// Decodes an `m × 1` class-index matrix back into a class vector,
/// replacing the contents of `labels` and reusing its allocation.
pub fn decode_classes(encoded: &Matrix, labels: &mut Vec<AppClass>) -> Result<()> {
    labels.clear();
    if encoded.cols() != 1 {
        return Err(Error::FeatureMismatch { expected: 1, got: encoded.cols() });
    }
    for &value in encoded.as_slice() {
        labels.push(decode_class(value)?);
    }
    Ok(())
}

/// Decodes one class-index value (must be an exact integer in `0..5`).
pub fn decode_class(value: f64) -> Result<AppClass> {
    if value.fract() == 0.0 && value >= 0.0 {
        if let Some(class) = AppClass::from_index(value as usize) {
            return Ok(class);
        }
    }
    Err(Error::BadClassIndex { value })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends a constant column (widens by one).
    struct Widen;
    impl Stage for Widen {
        fn name(&self) -> &'static str {
            "widen"
        }
        fn transform_into(&self, input: &Matrix, out: &mut Matrix) -> Result<()> {
            out.resize(input.rows(), input.cols() + 1);
            for i in 0..input.rows() {
                out.row_mut(i)[..input.cols()].copy_from_slice(input.row(i));
                out.row_mut(i)[input.cols()] = 9.0;
            }
            Ok(())
        }
    }
    impl StreamingStage for Widen {
        fn transform_row_into(&self, input: &[f64], out: &mut Vec<f64>) -> Result<()> {
            out.clear();
            out.extend_from_slice(input);
            out.push(9.0);
            Ok(())
        }
    }

    /// Always fails.
    struct Broken;
    impl Stage for Broken {
        fn name(&self) -> &'static str {
            "broken"
        }
        fn transform_into(&self, _: &Matrix, _: &mut Matrix) -> Result<()> {
            Err(Error::EmptyRun)
        }
    }

    #[test]
    fn batch_chain_threads_output_through_stages() {
        let mut runner = StagePipeline::new();
        let input = Matrix::zeros(3, 2);
        runner.run_batch(&[&Widen, &Widen, &Widen], &input).unwrap();
        assert_eq!(runner.output().shape(), (3, 5));
        assert_eq!(runner.output()[(2, 4)], 9.0);
        let stat = runner.metrics().get("widen").unwrap();
        assert_eq!(stat.samples, 9, "3 rows x 3 invocations");
        assert_eq!(stat.calls, 3);
    }

    #[test]
    fn empty_chain_copies_input() {
        let mut runner = StagePipeline::new();
        let input = Matrix::filled(2, 2, 3.0);
        runner.run_batch(&[], &input).unwrap();
        assert_eq!(*runner.output(), input);
        assert_eq!(runner.run_row(&[], &[1.0, 2.0]).unwrap(), &[1.0, 2.0]);
        assert!(runner.metrics().is_empty());
    }

    #[test]
    fn row_chain_matches_batch_chain() {
        let mut runner = StagePipeline::new();
        let out = runner.run_row(&[&Widen, &Widen], &[1.0, 2.0]).unwrap();
        assert_eq!(out, &[1.0, 2.0, 9.0, 9.0]);
        assert_eq!(runner.metrics().get("widen").unwrap().samples, 2);
    }

    #[test]
    fn failing_stage_propagates_error() {
        let mut runner = StagePipeline::new();
        let input = Matrix::zeros(1, 1);
        assert!(runner.run_batch(&[&Widen, &Broken], &input).is_err());
    }

    #[test]
    fn buffers_reach_steady_state() {
        let mut runner = StagePipeline::new();
        let input = Matrix::zeros(16, 4);
        // Two warm-up calls let the swapped ping/pong pair both grow to
        // the widest stage output; after that, no reallocation.
        runner.run_batch(&[&Widen, &Widen], &input).unwrap();
        runner.run_batch(&[&Widen, &Widen], &input).unwrap();
        let ptr = runner.output().as_slice().as_ptr();
        runner.run_batch(&[&Widen, &Widen], &input).unwrap();
        runner.run_batch(&[&Widen, &Widen], &input).unwrap();
        assert_eq!(
            runner.output().as_slice().as_ptr(),
            ptr,
            "same-shape reruns must reuse the warm buffers"
        );
    }

    #[test]
    fn time_stage_records_and_returns() {
        let mut runner = StagePipeline::new();
        let v = runner.time_stage("head", 7, || Ok(41 + 1)).unwrap();
        assert_eq!(v, 42);
        assert_eq!(runner.metrics().get("head").unwrap().samples, 7);
        runner.reset_metrics();
        assert!(runner.metrics().is_empty());
    }

    #[test]
    fn tracer_records_stage_spans_under_a_parent() {
        let tracer = Tracer::new(32);
        let mut runner = StagePipeline::new();
        runner.set_tracer(tracer.clone());
        let parent = runner.span("classify").expect("tracer attached");
        let parent_id = parent.id();
        runner.run_row(&[&Widen, &Widen], &[1.0, 2.0]).unwrap();
        drop(parent);
        let spans = tracer.recent(10);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.iter().filter(|s| s.name == "widen").count(), 2);
        assert!(spans.iter().filter(|s| s.name == "widen").all(|s| s.parent == Some(parent_id)));
        assert_eq!(spans.last().unwrap().name, "classify");
    }

    #[test]
    fn untraced_runner_records_no_spans() {
        let mut runner = StagePipeline::new();
        assert!(runner.span("anything").is_none());
        assert!(runner.tracer().is_none());
        runner.run_row(&[&Widen], &[1.0]).unwrap();
    }

    #[test]
    fn class_codec_roundtrips() {
        let labels =
            vec![AppClass::Cpu, AppClass::Idle, AppClass::Net, AppClass::Mem, AppClass::Io];
        let mut encoded = Matrix::zeros(0, 0);
        encode_classes(&labels, &mut encoded);
        assert_eq!(encoded.shape(), (5, 1));
        let mut decoded = Vec::new();
        decode_classes(&encoded, &mut decoded).unwrap();
        assert_eq!(decoded, labels);
    }

    #[test]
    fn class_codec_rejects_garbage() {
        assert!(matches!(decode_class(7.0), Err(Error::BadClassIndex { .. })));
        assert!(matches!(decode_class(1.5), Err(Error::BadClassIndex { .. })));
        assert!(matches!(decode_class(-1.0), Err(Error::BadClassIndex { .. })));
        assert!(matches!(decode_class(f64::NAN), Err(Error::BadClassIndex { .. })));
        assert!(decode_classes(&Matrix::zeros(2, 2), &mut Vec::new()).is_err());
        assert_eq!(decode_class(2.0).unwrap(), AppClass::Cpu);
    }
}
