//! Principal Component Analysis — the `p → q` step of Figure 2.
//!
//! PCA is "a linear transformation representing data in a least-square
//! sense": the principal components are the eigenvectors of the scatter
//! matrix of the (already normalized) training samples, and the
//! corresponding eigenvalues are their contributions to the variance (§3).
//! The paper selects components by a *minimal fraction of variance*
//! threshold, set so that exactly two components are extracted
//! (`q = 2`), which both cuts the classifier's computation and makes the
//! cluster diagrams of Figure 3 drawable.

use crate::error::{Error, Result};
use crate::stage::{Stage, StreamingStage};
use appclass_linalg::eigen::{symmetric_eigen, EigenDecomposition};
use appclass_linalg::stats::covariance_matrix;
use appclass_linalg::svd::thin_svd;
use appclass_linalg::Matrix;
use serde::{DeError, Deserialize, Serialize, Value};

/// Which numerical route computes the principal components.
///
/// Both produce identical transforms (up to machine precision; asserted by
/// the test-suite); the covariance-eigendecomposition route is the one the
/// paper describes, the SVD route avoids squaring the condition number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PcaBackend {
    /// Jacobi eigendecomposition of the covariance matrix (the paper's
    /// formulation).
    #[default]
    CovarianceEigen,
    /// One-sided Jacobi SVD of the centered data matrix.
    Svd,
}

/// How many principal components to keep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ComponentSelection {
    /// Keep exactly `q` components (the paper's configuration: 2).
    Count(usize),
    /// Keep the smallest number of leading components whose cumulative
    /// variance fraction reaches the threshold (the paper's "minimal
    /// fraction variance" mechanism). Degenerate data whose total variance
    /// is zero never reaches any threshold; all `p` components are kept in
    /// that case.
    VarianceFraction(f64),
}

/// A fitted PCA transform.
///
/// # Examples
///
/// ```
/// use appclass_core::pca::{ComponentSelection, Pca};
/// use appclass_linalg::Matrix;
///
/// // Samples spread along the diagonal: one component explains them.
/// let data = Matrix::from_rows(&[
///     vec![1.0, 1.1], vec![2.0, 1.9], vec![3.0, 3.05],
///     vec![4.0, 3.9], vec![5.0, 5.1],
/// ]).unwrap();
/// let pca = Pca::fit(&data, ComponentSelection::VarianceFraction(0.95)).unwrap();
/// assert_eq!(pca.n_components(), 1);
/// let projected = pca.transform(&data).unwrap();
/// assert_eq!(projected.shape(), (5, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    /// Per-feature means of the fitting data, subtracted before projection.
    means: Vec<f64>,
    /// `p × q` projection matrix; columns are principal components.
    components: Matrix,
    /// Eigenvalues of all `p` components, descending.
    eigenvalues: Vec<f64>,
    /// Number of components kept (`q`).
    q: usize,
    /// `μᵀW`: the fitting means projected through the components, one per
    /// component, each summed in ascending `i`. Because
    /// `(X − 1μᵀ)W = XW − 1(μᵀW)`, subtracting these *after* multiplying
    /// projects without materializing a centered copy of the data.
    /// Derived from `means` and `components`, so excluded from the
    /// serialized form and rebuilt on deserialization.
    projected_means: Vec<f64>,
}

impl Pca {
    /// Fits PCA on a sample matrix (rows = samples, columns = features —
    /// normally the preprocessor's output, already z-normalized) using the
    /// paper's covariance-eigendecomposition route.
    pub fn fit(samples: &Matrix, selection: ComponentSelection) -> Result<Self> {
        Pca::fit_with_backend(samples, selection, PcaBackend::CovarianceEigen)
    }

    /// Fits PCA with an explicit numerical backend.
    pub fn fit_with_backend(
        samples: &Matrix,
        selection: ComponentSelection,
        backend: PcaBackend,
    ) -> Result<Self> {
        if samples.rows() < 2 {
            return Err(Error::NoTrainingData);
        }
        let p = samples.cols();
        let eig: EigenDecomposition = match backend {
            PcaBackend::CovarianceEigen => {
                let cov = covariance_matrix(samples)?;
                symmetric_eigen(&cov)?
            }
            PcaBackend::Svd => {
                if samples.rows() <= samples.cols() {
                    // Too few samples for a thin SVD of the tall matrix;
                    // fall back to the Gram route, which handles it.
                    let cov = covariance_matrix(samples)?;
                    symmetric_eigen(&cov)?
                } else {
                    let means = appclass_linalg::stats::column_means(samples)?;
                    let mut centered = samples.clone();
                    for i in 0..centered.rows() {
                        for (x, mu) in centered.row_mut(i).iter_mut().zip(&means) {
                            *x -= mu;
                        }
                    }
                    let svd = thin_svd(&centered)?;
                    let denom = (samples.rows() - 1) as f64;
                    // σ²/(m−1) are the covariance eigenvalues; V holds the
                    // principal directions. Canonicalize signs the same
                    // way the eigen route does.
                    let mut vectors = svd.v;
                    for j in 0..vectors.cols() {
                        canonicalize_column_sign(&mut vectors, j);
                    }
                    EigenDecomposition {
                        values: svd.singular_values.iter().map(|s| s * s / denom).collect(),
                        vectors,
                    }
                }
            }
        };

        let q = match selection {
            ComponentSelection::Count(q) => {
                if q == 0 || q > p {
                    return Err(Error::BadComponentCount { requested: q, available: p });
                }
                q
            }
            ComponentSelection::VarianceFraction(f) => {
                if !(0.0..=1.0).contains(&f) || f == 0.0 {
                    return Err(Error::BadVarianceFraction { fraction: f });
                }
                let fractions = eig.variance_fractions();
                let mut acc = 0.0;
                let mut q = p;
                for (i, frac) in fractions.iter().enumerate() {
                    acc += frac;
                    if acc >= f - 1e-12 {
                        q = i + 1;
                        break;
                    }
                }
                q
            }
        };

        let means = appclass_linalg::stats::column_means(samples)?;
        let cols: Vec<usize> = (0..q).collect();
        let components = eig.vectors.select_columns(&cols)?;
        Ok(Pca::from_parts(means, components, eig.values, q))
    }

    /// Assembles a transform from its defining fields and derives the
    /// projected means. `means` must have `components.rows()` entries and
    /// `q ≥ 1` must equal `components.cols()`.
    fn from_parts(means: Vec<f64>, components: Matrix, eigenvalues: Vec<f64>, q: usize) -> Self {
        let projected_means = (0..q)
            .map(|j| {
                means.iter().enumerate().fold(0.0, |acc, (i, &mu)| acc + mu * components[(i, j)])
            })
            .collect();
        Pca { means, components, eigenvalues, q, projected_means }
    }

    /// Number of components kept (the paper's `q`).
    pub fn n_components(&self) -> usize {
        self.q
    }

    /// Input feature dimensionality (the paper's `p`).
    pub fn input_dim(&self) -> usize {
        self.components.rows()
    }

    /// All eigenvalues, descending (length `p`).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Fraction of total variance carried by each kept component.
    pub fn explained_variance(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().map(|v| v.abs()).sum();
        if total == 0.0 {
            return vec![0.0; self.q];
        }
        self.eigenvalues.iter().take(self.q).map(|v| v.abs() / total).collect()
    }

    /// The `p × q` projection matrix (columns = principal components).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Projects a sample matrix into component space: `(m×p) → (m×q)`.
    pub fn transform(&self, samples: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.transform_into(samples, &mut out)?;
        Ok(out)
    }

    /// Projects a single sample row: `p → q`.
    pub fn transform_row(&self, row: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.transform_row_into(row, &mut out)?;
        Ok(out)
    }

    /// Projects one row of width `p` into `out` (length `q`): component
    /// `j`'s dot product accumulates from `0.0` in ascending input order,
    /// then its projected mean is subtracted. Batch and streaming both run
    /// this, so their projections are bit-identical.
    #[inline]
    fn project_row(&self, x: &[f64], out: &mut [f64]) {
        let w = self.components.as_slice();
        for (j, (o, pm)) in out.iter_mut().zip(&self.projected_means).enumerate() {
            let dot =
                x.iter().zip(w.chunks_exact(self.q)).fold(0.0, |acc, (&xi, wi)| acc + xi * wi[j]);
            *o = dot - pm;
        }
    }
}

// The projected means are derived from `means` and `components`, so the
// serialized form carries only the four defining fields, as a derived
// impl over them would, and stored models load unchanged. Deserializing
// checks their shapes and derives the means again.
impl Serialize for Pca {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("means".to_string(), self.means.to_value()),
            ("components".to_string(), self.components.to_value()),
            ("eigenvalues".to_string(), self.eigenvalues.to_value()),
            ("q".to_string(), self.q.to_value()),
        ])
    }
}

impl Deserialize for Pca {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let field = |name: &str| v.get(name).ok_or_else(|| DeError::missing_field(name));
        let means = Vec::<f64>::from_value(field("means")?)?;
        let components = Matrix::from_value(field("components")?)?;
        let eigenvalues = Vec::<f64>::from_value(field("eigenvalues")?)?;
        let q = usize::from_value(field("q")?)?;
        if q == 0 || q != components.cols() || means.len() != components.rows() {
            return Err(DeError(format!(
                "invalid pca: {} means and q = {q} for a {:?} component matrix",
                means.len(),
                components.shape()
            )));
        }
        Ok(Pca::from_parts(means, components, eigenvalues, q))
    }
}

impl Stage for Pca {
    fn name(&self) -> &'static str {
        "pca"
    }

    /// `B = A'W − 1(μᵀW)` into a reusable buffer, each output row written
    /// in one pass by the same per-row projection as
    /// [`StreamingStage::transform_row_into`], so batch and streaming
    /// projections agree bit-for-bit.
    fn transform_into(&self, input: &Matrix, out: &mut Matrix) -> Result<()> {
        if input.cols() != self.input_dim() {
            return Err(Error::FeatureMismatch { expected: self.input_dim(), got: input.cols() });
        }
        out.resize(input.rows(), self.q);
        for (x, o) in input.iter_rows().zip(out.as_mut_slice().chunks_exact_mut(self.q)) {
            self.project_row(x, o);
        }
        Ok(())
    }
}

impl StreamingStage for Pca {
    fn transform_row_into(&self, input: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if input.len() != self.input_dim() {
            return Err(Error::FeatureMismatch { expected: self.input_dim(), got: input.len() });
        }
        out.clear();
        out.resize(self.q, 0.0);
        self.project_row(input, out);
        Ok(())
    }
}

/// Flips a column's sign so its largest-magnitude entry is positive —
/// the same canonical form the eigen route uses, so both backends emit
/// identical components.
fn canonicalize_column_sign(m: &mut Matrix, j: usize) {
    let mut max_abs = 0.0f64;
    let mut sign = 1.0f64;
    for i in 0..m.rows() {
        let x = m[(i, j)];
        if x.abs() > max_abs {
            max_abs = x.abs();
            sign = if x < 0.0 { -1.0 } else { 1.0 };
        }
    }
    if sign < 0.0 {
        for i in 0..m.rows() {
            m[(i, j)] = -m[(i, j)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples spread along the (1, 1) diagonal with small orthogonal noise:
    /// PC1 must be the diagonal.
    fn diagonal_data() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..40 {
            let t = i as f64 - 20.0;
            let noise = if i % 2 == 0 { 0.1 } else { -0.1 };
            rows.push(vec![t + noise, t - noise]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn pc1_finds_dominant_direction() {
        let pca = Pca::fit(&diagonal_data(), ComponentSelection::Count(1)).unwrap();
        let c = pca.components();
        // PC1 ∝ (1, 1)/√2.
        let ratio = c[(0, 0)] / c[(1, 0)];
        assert!((ratio - 1.0).abs() < 0.02, "PC1 = ({}, {})", c[(0, 0)], c[(1, 0)]);
        assert!(pca.explained_variance()[0] > 0.99);
    }

    #[test]
    fn transform_reduces_dimension() {
        let pca = Pca::fit(&diagonal_data(), ComponentSelection::Count(1)).unwrap();
        let b = pca.transform(&diagonal_data()).unwrap();
        assert_eq!(b.shape(), (40, 1));
    }

    #[test]
    fn full_rank_projection_preserves_distances() {
        let data = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![-1.0, 0.0, 2.0],
            vec![3.0, -1.0, 1.0],
            vec![0.0, 1.5, -2.0],
            vec![2.0, 2.0, 2.0],
        ])
        .unwrap();
        let pca = Pca::fit(&data, ComponentSelection::Count(3)).unwrap();
        let proj = pca.transform(&data).unwrap();
        // Orthogonal full-rank projection: pairwise distances survive.
        for i in 0..5 {
            for j in 0..5 {
                let d0 = appclass_linalg::vector::euclidean(data.row(i), data.row(j));
                let d1 = appclass_linalg::vector::euclidean(proj.row(i), proj.row(j));
                assert!((d0 - d1).abs() < 1e-9, "({i},{j}): {d0} vs {d1}");
            }
        }
    }

    #[test]
    fn variance_fraction_selection() {
        // Diagonal data: PC1 carries ~99.9% of variance.
        let pca = Pca::fit(&diagonal_data(), ComponentSelection::VarianceFraction(0.95)).unwrap();
        assert_eq!(pca.n_components(), 1);
        let pca2 = Pca::fit(&diagonal_data(), ComponentSelection::VarianceFraction(1.0)).unwrap();
        assert_eq!(pca2.n_components(), 2);
    }

    #[test]
    fn bad_selections_rejected() {
        let d = diagonal_data();
        assert!(matches!(
            Pca::fit(&d, ComponentSelection::Count(0)),
            Err(Error::BadComponentCount { .. })
        ));
        assert!(matches!(
            Pca::fit(&d, ComponentSelection::Count(3)),
            Err(Error::BadComponentCount { .. })
        ));
        assert!(matches!(
            Pca::fit(&d, ComponentSelection::VarianceFraction(0.0)),
            Err(Error::BadVarianceFraction { .. })
        ));
        assert!(matches!(
            Pca::fit(&d, ComponentSelection::VarianceFraction(1.5)),
            Err(Error::BadVarianceFraction { .. })
        ));
    }

    #[test]
    fn transform_row_matches_matrix_path() {
        let pca = Pca::fit(&diagonal_data(), ComponentSelection::Count(2)).unwrap();
        let row = [3.0, -1.5];
        let via_row = pca.transform_row(&row).unwrap();
        let via_matrix = pca.transform(&Matrix::from_rows(&[row.to_vec()]).unwrap()).unwrap();
        // Both paths multiply-then-subtract in the same accumulation
        // order, so streaming and batch projections are bitwise equal.
        for j in 0..2 {
            assert_eq!(via_row[j], via_matrix[(0, j)]);
        }
    }

    #[test]
    fn feature_mismatch_rejected() {
        let pca = Pca::fit(&diagonal_data(), ComponentSelection::Count(1)).unwrap();
        assert!(pca.transform(&Matrix::zeros(2, 3)).is_err());
        assert!(pca.transform_row(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn needs_at_least_two_samples() {
        let one = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(matches!(Pca::fit(&one, ComponentSelection::Count(1)), Err(Error::NoTrainingData)));
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn serde_roundtrip() {
        let pca = Pca::fit(&diagonal_data(), ComponentSelection::Count(2)).unwrap();
        let json = serde_json::to_string(&pca).unwrap();
        let back: Pca = serde_json::from_str(&json).unwrap();
        assert_eq!(pca, back);
        // The derived projected means are rebuilt, not shipped on the wire:
        // the JSON holds the four defining fields, in declaration order.
        let Value::Object(fields) = pca.to_value() else { panic!("not an object: {json}") };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["means", "components", "eigenvalues", "q"]);
        // Both paths of the rebuilt transform project bit-identically.
        let data = diagonal_data();
        let (a, b) = (pca.transform(&data).unwrap(), back.transform(&data).unwrap());
        assert_eq!(bits(a.as_slice()), bits(b.as_slice()));
        for row in data.iter_rows() {
            let (x, y) = (pca.transform_row(row).unwrap(), back.transform_row(row).unwrap());
            assert_eq!(bits(&x), bits(&y));
        }
    }

    #[test]
    fn deserialize_validates_shapes() {
        let pca = Pca::fit(&diagonal_data(), ComponentSelection::Count(2)).unwrap();
        let json = serde_json::to_string(&pca).unwrap();
        for q in ["0", "1", "3"] {
            let bad = json.replacen("\"q\":2", &format!("\"q\":{q}"), 1);
            assert_ne!(bad, json);
            assert!(serde_json::from_str::<Pca>(&bad).is_err(), "q = {q} accepted");
        }
        let bad = json.replacen("\"means\":[", "\"means\":[0.0,", 1);
        assert!(serde_json::from_str::<Pca>(&bad).is_err(), "extra mean accepted");
    }

    #[test]
    fn svd_backend_matches_eigen_backend() {
        let data = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5, -1.0],
            vec![-1.0, 0.0, 2.0, 0.5],
            vec![3.0, -1.0, 1.0, 2.0],
            vec![0.0, 1.5, -2.0, 1.0],
            vec![2.0, 2.0, 2.0, -0.5],
            vec![-0.5, 0.5, 1.0, 3.0],
            vec![1.0, -2.0, 0.0, 0.0],
        ])
        .unwrap();
        let eig =
            Pca::fit_with_backend(&data, ComponentSelection::Count(3), PcaBackend::CovarianceEigen)
                .unwrap();
        let svd =
            Pca::fit_with_backend(&data, ComponentSelection::Count(3), PcaBackend::Svd).unwrap();
        // Eigenvalues agree.
        for (a, b) in eig.eigenvalues().iter().zip(svd.eigenvalues()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // Transforms agree (canonical signs make this exact, not just
        // up-to-sign).
        let ta = eig.transform(&data).unwrap();
        let tb = svd.transform(&data).unwrap();
        assert!(ta.approx_eq(&tb, 1e-8), "projections diverged");
    }

    #[test]
    fn svd_backend_variance_selection() {
        let pca = Pca::fit_with_backend(
            &diagonal_data(),
            ComponentSelection::VarianceFraction(0.95),
            PcaBackend::Svd,
        )
        .unwrap();
        assert_eq!(pca.n_components(), 1);
    }

    #[test]
    fn svd_backend_falls_back_on_short_fat_data() {
        // 3 samples × 4 features: thin SVD needs m > n; the Gram fallback
        // must keep this working.
        let data = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 0.0, 0.0],
        ])
        .unwrap();
        let pca =
            Pca::fit_with_backend(&data, ComponentSelection::Count(2), PcaBackend::Svd).unwrap();
        assert_eq!(pca.n_components(), 2);
    }
}
