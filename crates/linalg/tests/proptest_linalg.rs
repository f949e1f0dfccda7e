//! Property-based tests of the numerical kernels.
//!
//! The classifier's correctness rests on these invariants holding for
//! *arbitrary* inputs, not just the fixtures: eigendecompositions
//! reconstruct their input, SVD factors are orthonormal, matmul respects
//! algebraic laws, and standardization is exact.

use appclass_linalg::eigen::symmetric_eigen;
use appclass_linalg::stats::{column_means, column_variances, covariance_matrix, Standardizer};
use appclass_linalg::svd::thin_svd;
use appclass_linalg::{vector, Matrix};
use proptest::prelude::*;

/// Strategy: an `n×n` symmetric matrix with bounded entries.
fn symmetric_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, n * n).prop_map(move |v| {
        let mut m = Matrix::from_vec(n, n, v).expect("sized buffer");
        for i in 0..n {
            for j in 0..i {
                let avg = (m[(i, j)] + m[(j, i)]) / 2.0;
                m[(i, j)] = avg;
                m[(j, i)] = avg;
            }
        }
        m
    })
}

/// Strategy: an `m×n` matrix with bounded entries.
fn matrix(m: usize, n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, m * n)
        .prop_map(move |v| Matrix::from_vec(m, n, v).expect("sized buffer"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eigen_reconstructs_symmetric_matrices(a in symmetric_matrix(4)) {
        let ed = symmetric_eigen(&a).unwrap();
        let r = ed.reconstruct().unwrap();
        let tol = 1e-8 * a.frobenius_norm().max(1.0);
        prop_assert!(r.approx_eq(&a, tol), "reconstruction error too large");
    }

    #[test]
    fn eigenvectors_are_orthonormal(a in symmetric_matrix(5)) {
        let ed = symmetric_eigen(&a).unwrap();
        let vtv = ed.vectors.transpose().matmul(&ed.vectors).unwrap();
        prop_assert!(vtv.approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn eigenvalues_sorted_and_trace_preserved(a in symmetric_matrix(4)) {
        let ed = symmetric_eigen(&a).unwrap();
        for w in ed.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        let trace: f64 = (0..4).map(|i| a[(i, i)]).sum();
        let sum: f64 = ed.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    #[test]
    fn svd_reconstructs(a in matrix(6, 3)) {
        let svd = thin_svd(&a).unwrap();
        let r = svd.reconstruct().unwrap();
        let tol = 1e-8 * a.frobenius_norm().max(1.0);
        prop_assert!(r.approx_eq(&a, tol));
    }

    #[test]
    fn svd_singular_values_match_gram_eigenvalues(a in matrix(5, 3)) {
        let svd = thin_svd(&a).unwrap();
        let gram = a.transpose().matmul(&a).unwrap();
        let eig = symmetric_eigen(&gram).unwrap();
        for (s, l) in svd.singular_values.iter().zip(&eig.values) {
            let lam = l.max(0.0); // Gram eigenvalues are ≥ 0 up to rounding
            prop_assert!((s * s - lam).abs() < 1e-6 * lam.max(1.0));
        }
    }

    #[test]
    fn matmul_is_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-7 * left.max_abs().max(1.0)));
    }

    #[test]
    fn matmul_distributes_over_addition(a in matrix(3, 3), b in matrix(3, 3), c in matrix(3, 3)) {
        let left = a.matmul(&b.add(&c).unwrap()).unwrap();
        let right = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-8 * left.max_abs().max(1.0)));
    }

    #[test]
    fn transpose_reverses_matmul(a in matrix(3, 4), b in matrix(4, 2)) {
        let ab_t = a.matmul(&b).unwrap().transpose();
        let bt_at = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(ab_t.approx_eq(&bt_at, 1e-9));
    }

    #[test]
    fn standardizer_output_is_zero_mean_unit_variance(a in matrix(12, 4)) {
        let s = Standardizer::fit(&a).unwrap();
        let z = s.apply(&a).unwrap();
        let means = column_means(&z).unwrap();
        let vars = column_variances(&z).unwrap();
        for (j, (&m, &v)) in means.iter().zip(&vars).enumerate() {
            prop_assert!(m.abs() < 1e-9, "col {j} mean {m}");
            // Either unit variance or a degenerate (constant) column.
            prop_assert!((v - 1.0).abs() < 1e-6 || v.abs() < 1e-12, "col {j} var {v}");
        }
    }

    #[test]
    fn standardize_is_invertible(a in matrix(8, 3)) {
        let s = Standardizer::fit(&a).unwrap();
        let z = s.apply(&a).unwrap();
        // x = z·σ + μ recovers the input for non-degenerate columns.
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                if s.stds()[j] > 0.0 {
                    let back = z[(i, j)] * s.stds()[j] + s.means()[j];
                    prop_assert!((back - a[(i, j)]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn covariance_is_symmetric_psd(a in matrix(10, 4)) {
        let cov = covariance_matrix(&a).unwrap();
        prop_assert!(cov.max_asymmetry().unwrap() < 1e-10);
        let ed = symmetric_eigen(&cov).unwrap();
        let scale = cov.max_abs().max(1.0);
        for &l in &ed.values {
            prop_assert!(l > -1e-9 * scale, "negative covariance eigenvalue {l}");
        }
    }

    #[test]
    fn triangle_inequality_for_distances(
        x in prop::collection::vec(-100.0f64..100.0, 5),
        y in prop::collection::vec(-100.0f64..100.0, 5),
        z in prop::collection::vec(-100.0f64..100.0, 5),
    ) {
        let d = |a: &[f64], b: &[f64]| vector::euclidean(a, b);
        prop_assert!(d(&x, &z) <= d(&x, &y) + d(&y, &z) + 1e-9);
        let m = |a: &[f64], b: &[f64]| vector::manhattan(a, b);
        prop_assert!(m(&x, &z) <= m(&x, &y) + m(&y, &z) + 1e-9);
    }

    #[test]
    fn parallel_matmul_equals_naive(a in matrix(70, 70)) {
        // A large product (70³ multiply-adds) against the naive dot-product
        // reference.
        let b = a.transpose();
        let fast = a.matmul(&b).unwrap();
        let mut naive = Matrix::zeros(70, 70);
        for i in 0..70 {
            for j in 0..70 {
                naive[(i, j)] = vector::dot(a.row(i), b.column(j).as_slice());
            }
        }
        prop_assert!(fast.approx_eq(&naive, 1e-7 * fast.max_abs().max(1.0)));
    }
}
