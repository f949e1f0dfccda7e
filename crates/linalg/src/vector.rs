//! Small dense-vector kernels.
//!
//! These are the inner loops of everything downstream: the k-NN classifier's
//! distance computations, the PCA projection, and the matrix multiply. They
//! are written over plain slices so callers never pay for an abstraction.

/// Dot product of two equal-length slices.
///
/// Panics in debug builds when lengths differ; in release the shorter length
/// wins (callers validate shapes at the matrix level).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`, the classic BLAS-1 kernel used by the matmul inner loop.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if alpha == 0.0 {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two points.
///
/// k-NN only needs distance *ordering*, so the square root is skipped; this
/// is the hot function of the classification stage.
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_euclidean: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two points.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Manhattan (L1) distance, offered as an alternative k-NN metric.
#[inline]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "manhattan: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Chebyshev (L∞) distance.
#[inline]
pub fn chebyshev(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "chebyshev: length mismatch");
    a.iter().zip(b).fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

/// Arithmetic mean. Returns 0.0 for an empty slice.
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    a.iter().sum::<f64>() / a.len() as f64
}

/// Unbiased sample variance (divides by `n - 1`). Returns 0.0 for fewer than
/// two samples.
#[inline]
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Normalizes `a` in place to unit L2 norm. Leaves zero vectors untouched.
pub fn normalize_in_place(a: &mut [f64]) {
    let n = norm2(a);
    if n > 0.0 {
        for x in a.iter_mut() {
            *x /= n;
        }
    }
}

/// Index of the minimum value; `None` for empty input. Ties resolve to the
/// earliest index, which gives the k-NN classifier a deterministic winner.
pub fn argmin(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        match best {
            Some((_, bv)) if v >= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the maximum value; `None` for empty input. Ties resolve to the
/// earliest index.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Whether every value is finite, in one pass with no early exit: a fold
/// of `&`s the compiler vectorizes.
#[inline]
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().fold(true, |ok, v| ok & v.is_finite())
}

/// Index of the first non-finite value; `None` when all are finite.
/// Finite input costs one [`all_finite`] pass; only input that fails it
/// is scanned again for its first offender.
#[inline]
pub fn first_non_finite(a: &[f64]) -> Option<usize> {
    if all_finite(a) {
        return None;
    }
    a.iter().position(|v| !v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_checks_see_every_slot() {
        assert!(all_finite(&[]));
        assert_eq!(first_non_finite(&[]), None);
        let clean = [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE];
        assert!(all_finite(&clean));
        assert_eq!(first_non_finite(&clean), None);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in 0..5 {
                let mut v = [1.0; 6];
                v[at] = bad;
                // A later offender does not hide the first.
                v[5] = f64::NAN;
                assert!(!all_finite(&v), "{bad} at {at}");
                assert_eq!(first_non_finite(&v), Some(at), "{bad} at {at}");
            }
        }
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        axpy(0.0, &[100.0, 100.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norms_and_distances() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(manhattan(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
        assert_eq!(chebyshev(&[0.0, 0.0], &[3.0, -4.0]), 4.0);
    }

    #[test]
    fn distance_identity() {
        let p = [1.5, -2.5, 3.0];
        assert_eq!(sq_euclidean(&p, &p), 0.0);
        assert_eq!(manhattan(&p, &p), 0.0);
        assert_eq!(chebyshev(&p, &p), 0.0);
    }

    #[test]
    fn distance_symmetry() {
        let a = [1.0, 2.0];
        let b = [-3.0, 0.5];
        assert_eq!(euclidean(&a, &b), euclidean(&b, &a));
        assert_eq!(manhattan(&a, &b), manhattan(&b, &a));
    }

    #[test]
    fn mean_variance_known() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize_in_place(&mut v);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize_in_place(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn argmin_argmax_ties_deterministic() {
        assert_eq!(argmin(&[2.0, 1.0, 1.0]), Some(1));
        assert_eq!(argmax(&[2.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmax(&[]), None);
    }
}
