//! Data preprocessing: expert metric selection + z-score normalization.
//!
//! This is the `n → p` step of the paper's Figure 2: out of the 33 metrics
//! the monitoring system collects, the preprocessor keeps the eight of
//! Table 1 — chosen by expert knowledge for "increasing relevance and
//! reducing redundancy" — and normalizes each to zero mean and unit
//! variance. Normalization parameters are learned from the training pool
//! and then applied unchanged to test data.

use crate::error::{Error, Result};
use crate::stage::{Stage, StreamingStage};
use appclass_linalg::stats::Standardizer;
use appclass_linalg::Matrix;
use appclass_metrics::{MetricId, METRIC_COUNT};
use serde::{Deserialize, Serialize};

/// The expert-selected metric list of Table 1 (see
/// [`MetricId::EXPERT_EIGHT`]).
pub fn expert_metrics() -> Vec<MetricId> {
    MetricId::EXPERT_EIGHT.to_vec()
}

/// A fitted preprocessor: metric subset + normalization parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Preprocessor {
    metrics: Vec<MetricId>,
    standardizer: Standardizer,
}

impl Preprocessor {
    /// Fits the preprocessor on the raw (33-column) training pool.
    ///
    /// `metrics` selects the columns to keep (the paper's expert eight by
    /// default; any subset works, which the ablation benches exploit).
    pub fn fit(training_pool: &Matrix, metrics: &[MetricId]) -> Result<Self> {
        if metrics.is_empty() {
            return Err(Error::NoTrainingData);
        }
        if training_pool.rows() == 0 {
            return Err(Error::NoTrainingData);
        }
        let selected = select_columns(training_pool, metrics)?;
        let standardizer = Standardizer::fit(&selected)?;
        Ok(Preprocessor { metrics: metrics.to_vec(), standardizer })
    }

    /// The metric subset this preprocessor keeps.
    pub fn metrics(&self) -> &[MetricId] {
        &self.metrics
    }

    /// Output dimensionality (the paper's `p`).
    pub fn dim(&self) -> usize {
        self.metrics.len()
    }

    /// Applies selection + normalization to a raw 33-column sample matrix,
    /// yielding the paper's `A'(m×p)`.
    pub fn apply(&self, raw: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.transform_into(raw, &mut out)?;
        Ok(out)
    }

    /// Applies selection + normalization to a single raw 33-metric frame
    /// row (the online-classification path).
    pub fn apply_frame(&self, frame: &[f64]) -> Result<Vec<f64>> {
        let mut row = Vec::new();
        self.transform_row_into(frame, &mut row)?;
        Ok(row)
    }

    /// The fitted normalization parameters.
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }
}

impl Stage for Preprocessor {
    fn name(&self) -> &'static str {
        "preprocess"
    }

    /// Selection + normalization into a reusable buffer — `A(m×n)` to
    /// `A'(m×p)` without allocating when `out` is already warm.
    fn transform_into(&self, input: &Matrix, out: &mut Matrix) -> Result<()> {
        if input.cols() != METRIC_COUNT {
            return Err(Error::FeatureMismatch { expected: METRIC_COUNT, got: input.cols() });
        }
        out.resize(input.rows(), self.metrics.len());
        for i in 0..input.rows() {
            let src = input.row(i);
            for (dst, m) in out.row_mut(i).iter_mut().zip(&self.metrics) {
                *dst = src[m.index()];
            }
        }
        self.standardizer.apply_in_place(out)?;
        Ok(())
    }
}

impl StreamingStage for Preprocessor {
    fn transform_row_into(&self, input: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if input.len() != METRIC_COUNT {
            return Err(Error::FeatureMismatch { expected: METRIC_COUNT, got: input.len() });
        }
        out.clear();
        out.extend(self.metrics.iter().map(|m| input[m.index()]));
        self.standardizer.apply_row(out)?;
        Ok(())
    }
}

/// Extracts metric columns from a raw sample matrix in the given order.
fn select_columns(raw: &Matrix, metrics: &[MetricId]) -> Result<Matrix> {
    if raw.cols() != METRIC_COUNT {
        return Err(Error::FeatureMismatch { expected: METRIC_COUNT, got: raw.cols() });
    }
    let idx: Vec<usize> = metrics.iter().map(|m| m.index()).collect();
    Ok(raw.select_columns(&idx)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use appclass_linalg::stats::{column_means, column_variances};

    /// A raw pool with two distinguishable metrics set.
    fn raw_pool(rows: usize) -> Matrix {
        let mut m = Matrix::zeros(rows, METRIC_COUNT);
        for i in 0..rows {
            m[(i, MetricId::CpuUser.index())] = 10.0 + i as f64;
            m[(i, MetricId::BytesIn.index())] = 1000.0 * (i as f64 + 1.0);
        }
        m
    }

    #[test]
    fn expert_metrics_are_table1() {
        let m = expert_metrics();
        assert_eq!(m.len(), 8);
        assert_eq!(m[0], MetricId::CpuSystem);
    }

    #[test]
    fn fit_apply_normalizes_training_pool() {
        let pool = raw_pool(10);
        let p = Preprocessor::fit(&pool, &expert_metrics()).unwrap();
        assert_eq!(p.dim(), 8);
        let out = p.apply(&pool).unwrap();
        assert_eq!(out.shape(), (10, 8));
        let means = column_means(&out).unwrap();
        let vars = column_variances(&out).unwrap();
        for (j, (m, v)) in means.iter().zip(&vars).enumerate() {
            assert!(m.abs() < 1e-10, "col {j} mean {m}");
            // Constant columns are mapped to zero variance.
            assert!(*v < 1.0 + 1e-9, "col {j} var {v}");
        }
    }

    #[test]
    fn test_data_uses_training_parameters() {
        let train = raw_pool(10);
        let p = Preprocessor::fit(&train, &[MetricId::CpuUser]).unwrap();
        let mut test = Matrix::zeros(1, METRIC_COUNT);
        // Training CpuUser values are 10..19 (mean 14.5).
        test[(0, MetricId::CpuUser.index())] = 14.5;
        let out = p.apply(&test).unwrap();
        assert!(out[(0, 0)].abs() < 1e-10);
    }

    #[test]
    fn apply_frame_matches_matrix_path() {
        let train = raw_pool(10);
        let p = Preprocessor::fit(&train, &expert_metrics()).unwrap();
        let mut frame = vec![0.0; METRIC_COUNT];
        frame[MetricId::CpuUser.index()] = 12.0;
        frame[MetricId::BytesIn.index()] = 5000.0;
        let row = p.apply_frame(&frame).unwrap();
        let mut raw = Matrix::zeros(1, METRIC_COUNT);
        raw.row_mut(0).copy_from_slice(&frame);
        let m = p.apply(&raw).unwrap();
        assert_eq!(row, m.row(0).to_vec());
    }

    #[test]
    fn rejects_wrong_widths() {
        let pool = raw_pool(5);
        let p = Preprocessor::fit(&pool, &expert_metrics()).unwrap();
        assert!(matches!(
            p.apply(&Matrix::zeros(3, 8)),
            Err(Error::FeatureMismatch { expected: 33, got: 8 })
        ));
        assert!(p.apply_frame(&[0.0; 8]).is_err());
    }

    #[test]
    fn rejects_empty_inputs() {
        assert!(Preprocessor::fit(&Matrix::zeros(0, METRIC_COUNT), &expert_metrics()).is_err());
        assert!(Preprocessor::fit(&raw_pool(3), &[]).is_err());
    }

    #[test]
    fn custom_metric_subsets_work() {
        let pool = raw_pool(6);
        let p = Preprocessor::fit(&pool, &[MetricId::BytesIn, MetricId::CpuUser]).unwrap();
        let out = p.apply(&pool).unwrap();
        assert_eq!(out.cols(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let p = Preprocessor::fit(&raw_pool(5), &expert_metrics()).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: Preprocessor = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
