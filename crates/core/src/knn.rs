//! The k-Nearest-Neighbour snapshot classifier — the `q → C` step.
//!
//! "The k-NN classifier decides the class by considering the votes of k (an
//! odd number) nearest neighbors" (§3); the paper uses **3-NN** following
//! Kapadia's finding that nearest-neighbour methods beat locally weighted
//! regression for this kind of data. Each test snapshot's distance to the
//! training snapshots is computed in the PCA feature space, the three
//! nearest vote, and ties break toward the class of the single nearest
//! neighbour — deterministic, like everything in this reproduction.
//!
//! Construction sorts the training rows by their first coordinate — PC1,
//! the highest-variance axis the PCA stage emits — into an exact
//! neighbour index. A query binary-searches its PC1 value and scans
//! outward, stopping a side once the PC1 gap alone exceeds the current
//! k-th distance, so it visits a few dozen rows instead of all of them.
//! Streaming and batch classification run this one search, so their
//! labels are identical by construction (DESIGN.md §10).

use crate::class::AppClass;
use crate::error::{Error, Result};
use crate::stage::{Stage, StreamingStage};
use appclass_linalg::{vector, Matrix};
use serde::{DeError, Deserialize, Serialize, Value};

/// Distance metric for neighbour search. The paper's geometric "closest"
/// is Euclidean; the alternatives exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Distance {
    /// Euclidean (L2) — the paper's metric.
    #[default]
    Euclidean,
    /// Manhattan (L1).
    Manhattan,
    /// Chebyshev (L∞).
    Chebyshev,
}

/// A trained k-NN classifier over labelled points in feature space.
///
/// # Examples
///
/// ```
/// use appclass_core::class::AppClass;
/// use appclass_core::knn::KnnClassifier;
/// use appclass_linalg::Matrix;
///
/// // Two clusters in 2-D feature space.
/// let points = Matrix::from_rows(&[
///     vec![1.0, 0.0], vec![1.1, 0.1], vec![0.9, -0.1],   // CPU
///     vec![-1.0, 0.0], vec![-1.1, 0.1], vec![-0.9, -0.1], // Idle
/// ]).unwrap();
/// let labels = vec![
///     AppClass::Cpu, AppClass::Cpu, AppClass::Cpu,
///     AppClass::Idle, AppClass::Idle, AppClass::Idle,
/// ];
/// let knn = KnnClassifier::paper(points, labels).unwrap(); // 3-NN, Euclidean
/// assert_eq!(knn.classify(&[0.8, 0.0]).unwrap(), AppClass::Cpu);
/// assert_eq!(knn.classify(&[-0.8, 0.0]).unwrap(), AppClass::Idle);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnnClassifier {
    k: usize,
    points: Matrix,
    labels: Vec<AppClass>,
    distance: Distance,
    /// The neighbour index: `points` rows stably sorted by their first
    /// coordinate, stored contiguously (row-major, `dim` values each).
    /// Derived from `points`, so excluded from the serialized form and
    /// rebuilt on deserialization.
    sorted: Vec<f64>,
    /// First coordinate of each `sorted` row (0 for zero-width points):
    /// the binary-search and pruning key.
    keys: Vec<f64>,
    /// Original `points` row index of each `sorted` row.
    order: Vec<usize>,
}

impl KnnClassifier {
    /// Builds a classifier from training points (rows) and their labels.
    ///
    /// `k` must be odd and positive (the paper uses 3). If fewer training
    /// points than `k` exist, every vote uses all of them. Non-finite
    /// coordinates are rejected: the index sorts and prunes on them.
    pub fn new(
        k: usize,
        points: Matrix,
        labels: Vec<AppClass>,
        distance: Distance,
    ) -> Result<Self> {
        if k == 0 || k.is_multiple_of(2) {
            return Err(Error::BadK { k });
        }
        if points.rows() == 0 || labels.is_empty() {
            return Err(Error::NoTrainingData);
        }
        if points.rows() != labels.len() {
            return Err(Error::FeatureMismatch { expected: points.rows(), got: labels.len() });
        }
        points.check_finite().map_err(Error::Linalg)?;
        let key = |i: usize| points.row(i).first().copied().unwrap_or(0.0);
        let mut order: Vec<usize> = (0..points.rows()).collect();
        order.sort_by(|&a, &b| key(a).total_cmp(&key(b)));
        let sorted = order.iter().flat_map(|&i| points.row(i)).copied().collect();
        let keys = order.iter().map(|&i| key(i)).collect();
        Ok(KnnClassifier { k, points, labels, distance, sorted, keys, order })
    }

    /// The paper's configuration: 3-NN with Euclidean distance.
    pub fn paper(points: Matrix, labels: Vec<AppClass>) -> Result<Self> {
        KnnClassifier::new(3, points, labels, Distance::Euclidean)
    }

    /// Number of training points.
    pub fn n_training(&self) -> usize {
        self.points.rows()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.points.cols()
    }

    /// `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The training points (rows, in feature space).
    pub fn points(&self) -> &Matrix {
        &self.points
    }

    /// The training labels, parallel to [`KnnClassifier::points`] rows.
    pub fn labels(&self) -> &[AppClass] {
        &self.labels
    }

    /// Classifies one point: the majority vote of its k nearest training
    /// neighbours, ties broken by the nearest neighbour among the tied
    /// classes.
    ///
    /// Non-finite coordinates are rejected: a NaN distance would silently
    /// corrupt the nearest-neighbour selection.
    pub fn classify(&self, point: &[f64]) -> Result<AppClass> {
        if point.len() != self.dim() {
            return Err(Error::FeatureMismatch { expected: self.dim(), got: point.len() });
        }
        if let Some(col) = point.iter().position(|v| !v.is_finite()) {
            return Err(Error::Linalg(appclass_linalg::Error::NonFinite { row: 0, col }));
        }
        Ok(self.classify_valid(point))
    }

    /// Classifies every row of a sample matrix — the paper's class vector
    /// `C(1×m)`. Each row runs the same index search as
    /// [`KnnClassifier::classify`], so the labels are identical to the
    /// streaming path's.
    pub fn classify_batch(&self, samples: &Matrix) -> Result<Vec<AppClass>> {
        self.check_batch(samples)?;
        Ok(samples.iter_rows().map(|row| self.classify_valid(row)).collect())
    }

    /// The width and finiteness checks every batch path runs first.
    fn check_batch(&self, samples: &Matrix) -> Result<()> {
        if samples.cols() != self.dim() {
            return Err(Error::FeatureMismatch { expected: self.dim(), got: samples.cols() });
        }
        samples.check_finite().map_err(Error::Linalg)
    }

    /// [`KnnClassifier::classify`] for a point already checked for width
    /// and finiteness. Allocation-free for `k ≤ 32` (the online hot path).
    fn classify_valid(&self, point: &[f64]) -> AppClass {
        const STACK_K: usize = 32;
        let k = self.k.min(self.order.len());
        let mut stack_buf = [(f64::INFINITY, usize::MAX); STACK_K];
        let mut heap_buf: Vec<(f64, usize)>;
        let best: &mut [(f64, usize)] = if k <= STACK_K {
            &mut stack_buf[..k]
        } else {
            heap_buf = vec![(f64::INFINITY, usize::MAX); k];
            &mut heap_buf
        };
        match self.distance {
            // Squared Euclidean preserves ordering and skips the sqrt.
            Distance::Euclidean => self.nearest(point, best, |dx| dx * dx, vector::sq_euclidean),
            Distance::Manhattan => self.nearest(point, best, f64::abs, vector::manhattan),
            Distance::Chebyshev => self.nearest(point, best, f64::abs, vector::chebyshev),
        }
        self.vote(best)
    }

    /// Fills `best` with the `best.len()` training rows nearest `point`,
    /// sorted by `(distance, original row index)`; every slot must start
    /// as the `(+∞, usize::MAX)` sentinel.
    ///
    /// The scan starts at the query's PC1 position and walks outward on
    /// both sides in step. A side stops at the first row whose gap — the
    /// metric's bound from the first coordinate alone, `gap(dx)` with `dx`
    /// the same subtraction `dist` performs there — is *strictly* above
    /// the current k-th distance. No row further out can enter: its gap
    /// is at least as large (keys are sorted and rounding is monotone),
    /// its distance only adds non-negative terms to its gap, and the k-th
    /// distance only shrinks. A row whose distance ties the k-th (and may
    /// win the tie on its lower index) is still visited.
    fn nearest(
        &self,
        point: &[f64],
        best: &mut [(f64, usize)],
        gap: impl Fn(f64) -> f64,
        dist: impl Fn(&[f64], &[f64]) -> f64,
    ) {
        let dim = point.len();
        let x0 = point.first().copied().unwrap_or(0.0);
        let n = self.keys.len();
        let keys = &self.keys[..];
        let sorted = &self.sorted[..];
        let order = &self.order[..];
        // Offers sorted row `s` unless its gap prunes its side.
        let visit = |s: usize, best: &mut [(f64, usize)]| {
            let k = best.len();
            if gap(x0 - keys[s]) > best[k - 1].0 {
                return false;
            }
            let entry = (dist(point, &sorted[s * dim..(s + 1) * dim]), order[s]);
            // One insertion step keeps `best` sorted; k is small.
            if entry < best[k - 1] {
                let mut pos = k - 1;
                while pos > 0 && entry < best[pos - 1] {
                    best[pos] = best[pos - 1];
                    pos -= 1;
                }
                best[pos] = entry;
            }
            true
        };
        // Sorted positions `[0, left)` remain to the left of the query in
        // PC1, `[right, n)` to its right.
        let mut left = keys.partition_point(|&t| t < x0);
        let mut right = left;
        let (mut left_open, mut right_open) = (left > 0, right < n);
        while left_open || right_open {
            if left_open {
                left_open = visit(left - 1, best);
                if left_open {
                    left -= 1;
                    left_open = left > 0;
                }
            }
            if right_open {
                right_open = visit(right, best);
                if right_open {
                    right += 1;
                    right_open = right < n;
                }
            }
        }
    }

    /// Majority vote over the k nearest neighbours (sorted nearest
    /// first); a tie goes to the class of the nearest tied neighbour.
    fn vote(&self, best: &[(f64, usize)]) -> AppClass {
        let mut counts = [0usize; 5];
        for &(_, i) in best {
            counts[self.labels[i].index()] += 1;
        }
        let max_count = *counts.iter().max().expect("five classes");
        best.iter()
            .map(|&(_, i)| self.labels[i])
            .find(|c| counts[c.index()] == max_count)
            .expect("k >= 1 neighbours")
    }
}

// The index is derived from `points`; the wire format carries only the
// four defining fields (same JSON shape the former derive produced), and
// deserialization rebuilds the index — and re-runs construction
// validation — via `KnnClassifier::new`.
impl Serialize for KnnClassifier {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("k".to_string(), self.k.to_value()),
            ("points".to_string(), self.points.to_value()),
            ("labels".to_string(), self.labels.to_value()),
            ("distance".to_string(), self.distance.to_value()),
        ])
    }
}

impl Deserialize for KnnClassifier {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let field = |name: &str| v.get(name).ok_or_else(|| DeError::missing_field(name));
        let k = usize::from_value(field("k")?)?;
        let points = Matrix::from_value(field("points")?)?;
        let labels = Vec::<AppClass>::from_value(field("labels")?)?;
        let distance = Distance::from_value(field("distance")?)?;
        KnnClassifier::new(k, points, labels, distance)
            .map_err(|e| DeError(format!("invalid knn classifier: {e}")))
    }
}

impl Stage for KnnClassifier {
    fn name(&self) -> &'static str {
        "knn"
    }

    /// `B(m×q) → C(m×1)`: classifies every row, emitting the class vector
    /// as a class-index column (decode with
    /// [`decode_classes`](crate::stage::decode_classes)).
    fn transform_into(&self, input: &Matrix, out: &mut Matrix) -> Result<()> {
        self.check_batch(input)?;
        out.resize(input.rows(), 1);
        for (slot, row) in out.as_mut_slice().iter_mut().zip(input.iter_rows()) {
            *slot = self.classify_valid(row).index() as f64;
        }
        Ok(())
    }
}

impl StreamingStage for KnnClassifier {
    fn transform_row_into(&self, input: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let class = self.classify(input)?;
        out.clear();
        out.push(class.index() as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clusters on the x axis: class Cpu at x=+10, class Idle at x=-10.
    fn two_clusters() -> KnnClassifier {
        let points = Matrix::from_rows(&[
            vec![10.0, 0.0],
            vec![10.5, 0.2],
            vec![9.5, -0.2],
            vec![-10.0, 0.0],
            vec![-10.5, 0.1],
            vec![-9.5, -0.1],
        ])
        .unwrap();
        let labels = vec![
            AppClass::Cpu,
            AppClass::Cpu,
            AppClass::Cpu,
            AppClass::Idle,
            AppClass::Idle,
            AppClass::Idle,
        ];
        KnnClassifier::paper(points, labels).unwrap()
    }

    /// The k-NN rule by brute force, independent of the index: rank every
    /// training row by `(distance, row index)`, let the first k vote, and
    /// break a tied vote toward the nearest tied neighbour.
    fn brute_force(knn: &KnnClassifier, x: &[f64]) -> AppClass {
        let dist = |t: &[f64]| match knn.distance {
            Distance::Euclidean => vector::sq_euclidean(x, t),
            Distance::Manhattan => vector::manhattan(x, t),
            Distance::Chebyshev => vector::chebyshev(x, t),
        };
        let mut ranked: Vec<(f64, usize)> = knn.points().iter_rows().map(dist).zip(0..).collect();
        ranked.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        let nearest = &ranked[..knn.k().min(ranked.len())];
        let mut counts = [0usize; 5];
        for &(_, i) in nearest {
            counts[knn.labels()[i].index()] += 1;
        }
        let top = *counts.iter().max().unwrap();
        nearest.iter().map(|&(_, i)| knn.labels()[i]).find(|c| counts[c.index()] == top).unwrap()
    }

    /// Deterministic pseudo-random coordinates on `[-10, 10)` (xorshift).
    fn xorshift_rows(rows: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        };
        (0..rows).map(|_| (0..dim).map(|_| next()).collect()).collect()
    }

    #[test]
    fn classifies_cluster_membership() {
        let knn = two_clusters();
        assert_eq!(knn.classify(&[9.0, 0.0]).unwrap(), AppClass::Cpu);
        assert_eq!(knn.classify(&[-9.0, 0.5]).unwrap(), AppClass::Idle);
    }

    #[test]
    fn one_nn_memorizes_training_set() {
        let points = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let labels = vec![AppClass::Cpu, AppClass::Io, AppClass::Net];
        let knn = KnnClassifier::new(1, points, labels, Distance::Euclidean).unwrap();
        assert_eq!(knn.classify(&[1.0]).unwrap(), AppClass::Cpu);
        assert_eq!(knn.classify(&[2.0]).unwrap(), AppClass::Io);
        assert_eq!(knn.classify(&[3.0]).unwrap(), AppClass::Net);
    }

    #[test]
    fn majority_beats_single_nearest() {
        // Nearest point is Io, but two Cpu points are next: 3-NN → Cpu.
        let points = Matrix::from_rows(&[vec![0.0], vec![0.3], vec![0.4], vec![100.0]]).unwrap();
        let labels = vec![AppClass::Io, AppClass::Cpu, AppClass::Cpu, AppClass::Net];
        let knn = KnnClassifier::paper(points, labels).unwrap();
        assert_eq!(knn.classify(&[0.05]).unwrap(), AppClass::Cpu);
    }

    #[test]
    fn tie_breaks_toward_nearest() {
        // k=3 with three distinct classes → 1-1-1 tie → nearest wins.
        let points = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let labels = vec![AppClass::Mem, AppClass::Io, AppClass::Net];
        let knn = KnnClassifier::paper(points, labels).unwrap();
        assert_eq!(knn.classify(&[1.1]).unwrap(), AppClass::Mem);
        assert_eq!(knn.classify(&[2.9]).unwrap(), AppClass::Net);
    }

    #[test]
    fn k_validation() {
        let p = Matrix::from_rows(&[vec![0.0]]).unwrap();
        let l = vec![AppClass::Cpu];
        assert!(matches!(
            KnnClassifier::new(0, p.clone(), l.clone(), Distance::Euclidean),
            Err(Error::BadK { k: 0 })
        ));
        assert!(matches!(
            KnnClassifier::new(2, p.clone(), l.clone(), Distance::Euclidean),
            Err(Error::BadK { k: 2 })
        ));
        assert!(KnnClassifier::new(5, p, l, Distance::Euclidean).is_ok());
    }

    #[test]
    fn label_count_must_match() {
        let p = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(KnnClassifier::paper(p, vec![AppClass::Cpu]).is_err());
    }

    #[test]
    fn k_larger_than_training_set_uses_all() {
        let p = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let knn = KnnClassifier::new(5, p, vec![AppClass::Cpu, AppClass::Cpu], Distance::Euclidean)
            .unwrap();
        assert_eq!(knn.classify(&[10.0]).unwrap(), AppClass::Cpu);
    }

    #[test]
    fn batch_matches_pointwise() {
        let knn = two_clusters();
        let queries =
            Matrix::from_rows(&[vec![8.0, 1.0], vec![-8.0, 1.0], vec![11.0, -1.0]]).unwrap();
        let batch = knn.classify_batch(&queries).unwrap();
        for (i, row) in queries.iter_rows().enumerate() {
            assert_eq!(batch[i], knn.classify(row).unwrap());
        }
    }

    #[test]
    fn large_batch_classifies_every_row() {
        let knn = two_clusters();
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|i| vec![if i % 2 == 0 { 9.0 } else { -9.0 }, (i % 7) as f64 * 0.1])
            .collect();
        let big = Matrix::from_rows(&rows).unwrap();
        let batch = knn.classify_batch(&big).unwrap();
        for (i, c) in batch.iter().enumerate() {
            let expected = if i % 2 == 0 { AppClass::Cpu } else { AppClass::Idle };
            assert_eq!(*c, expected, "row {i}");
        }
    }

    /// Batch output must equal the per-row streaming path and the
    /// brute-force rule, row for row, on a tie-heavy training set.
    #[test]
    fn batch_bitwise_identical_to_streaming() {
        // A deliberately tie-heavy training set: duplicated points with
        // different labels force the earliest-index tie rule to matter.
        let points = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![-3.0, 0.5],
            vec![-3.0, 0.5],
            vec![0.0, 0.0],
            vec![4.0, -4.0],
            vec![4.0, -4.0],
        ])
        .unwrap();
        let labels = vec![
            AppClass::Cpu,
            AppClass::Io,
            AppClass::Net,
            AppClass::Mem,
            AppClass::Idle,
            AppClass::Io,
            AppClass::Cpu,
        ];
        let knn = KnnClassifier::paper(points, labels).unwrap();
        // Many rows land exactly on training points or midway between
        // duplicates (exact distance ties).
        let rows: Vec<Vec<f64>> = (0..1500)
            .map(|i| match i % 5 {
                0 => vec![1.0, 2.0],
                1 => vec![-3.0, 0.5],
                2 => vec![-1.0, 1.25],
                3 => vec![(i % 11) as f64 * 0.7 - 3.5, (i % 13) as f64 * 0.5 - 3.0],
                _ => vec![2.5, -1.0],
            })
            .collect();
        let big = Matrix::from_rows(&rows).unwrap();
        let batched = knn.classify_batch(&big).unwrap();
        for (i, row) in big.iter_rows().enumerate() {
            assert_eq!(batched[i], brute_force(&knn, row), "row {i} diverged from the reference");
            assert_eq!(batched[i], knn.classify(row).unwrap(), "row {i} diverged");
        }
        // A batch's labels do not depend on what else is in it.
        let small = Matrix::from_rows(&rows[..64]).unwrap();
        let small_batched = knn.classify_batch(&small).unwrap();
        assert_eq!(&small_batched[..], &batched[..64]);
    }

    #[test]
    fn huge_magnitude_batch_is_exact() {
        // Coordinates near the overflow edge: some squared distances (and
        // PC1 gaps) overflow to +∞, which must neither prune a true
        // neighbour nor unsettle the (distance, index) order.
        let points =
            Matrix::from_rows(&[vec![1e155, 0.0], vec![-1e155, 1.0], vec![2e154, -0.5]]).unwrap();
        let labels = vec![AppClass::Cpu, AppClass::Net, AppClass::Mem];
        let knn = KnnClassifier::new(1, points, labels, Distance::Euclidean).unwrap();
        let queries =
            Matrix::from_rows(&[vec![9e154, 1.0], vec![-9e154, 0.0], vec![2.1e154, -0.5]]).unwrap();
        let batched = knn.classify_batch(&queries).unwrap();
        for (i, row) in queries.iter_rows().enumerate() {
            assert_eq!(batched[i], brute_force(&knn, row), "row {i}");
            assert_eq!(batched[i], knn.classify(row).unwrap(), "row {i}");
        }
    }

    /// Pools large enough that the index prunes most rows, every metric,
    /// k up to 9, and widths beyond the paper's q = 2 (where only the
    /// first coordinate prunes).
    #[test]
    fn index_matches_brute_force_on_large_pools() {
        for (dim, seed) in [(1, 3u64), (2, 5), (3, 7), (8, 11)] {
            let pool = xorshift_rows(400, dim, seed);
            // Round half the pool onto a coarse grid so PC1 keys repeat
            // and distances tie.
            let points: Vec<Vec<f64>> = pool
                .iter()
                .enumerate()
                .map(
                    |(i, r)| {
                        if i % 2 == 0 {
                            r.iter().map(|v| v.round()).collect()
                        } else {
                            r.clone()
                        }
                    },
                )
                .collect();
            let labels: Vec<AppClass> = (0..points.len()).map(|i| AppClass::ALL[i % 5]).collect();
            let mut queries = xorshift_rows(300, dim, seed + 100);
            queries.extend(points.iter().step_by(7).cloned());
            let queries = Matrix::from_rows(&queries).unwrap();
            for distance in [Distance::Euclidean, Distance::Manhattan, Distance::Chebyshev] {
                for k in [1, 3, 5, 9] {
                    let knn = KnnClassifier::new(
                        k,
                        Matrix::from_rows(&points).unwrap(),
                        labels.clone(),
                        distance,
                    )
                    .unwrap();
                    let batched = knn.classify_batch(&queries).unwrap();
                    for (i, row) in queries.iter_rows().enumerate() {
                        let want = brute_force(&knn, row);
                        assert_eq!(batched[i], want, "{distance:?} k={k} dim={dim} row {i}");
                        assert_eq!(knn.classify(row).unwrap(), want);
                    }
                }
            }
        }
    }

    /// Regression: a NaN training coordinate used to be accepted, after
    /// which `classify` returned that row's label for every query and
    /// `classify_batch` panicked. `new` — and with it deserialization —
    /// now rejects it.
    #[test]
    fn non_finite_training_points_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let points =
                Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, bad], vec![-1.0, 0.0]]).unwrap();
            let labels = vec![AppClass::Cpu, AppClass::Io, AppClass::Net];
            let err = KnnClassifier::new(1, points, labels, Distance::Euclidean).unwrap_err();
            assert!(
                matches!(err, Error::Linalg(appclass_linalg::Error::NonFinite { row: 1, col: 1 })),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn dimension_checks() {
        let knn = two_clusters();
        assert!(knn.classify(&[1.0]).is_err());
        assert!(knn.classify_batch(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn alternative_distances_work() {
        for d in [Distance::Manhattan, Distance::Chebyshev] {
            let points = Matrix::from_rows(&[vec![5.0, 5.0], vec![-5.0, -5.0]]).unwrap();
            let knn = KnnClassifier::new(1, points, vec![AppClass::Net, AppClass::Mem], d).unwrap();
            assert_eq!(knn.classify(&[4.0, 4.0]).unwrap(), AppClass::Net);
            assert_eq!(knn.classify(&[-4.0, -6.0]).unwrap(), AppClass::Mem);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let knn = two_clusters();
        let json = serde_json::to_string(&knn).unwrap();
        let back: KnnClassifier = serde_json::from_str(&json).unwrap();
        assert_eq!(knn, back);
        // The derived index is rebuilt, not shipped on the wire.
        for derived in ["sorted", "keys", "order"] {
            assert!(!json.contains(derived), "{derived} serialized");
        }
    }

    #[test]
    fn deserialize_validates() {
        let knn = two_clusters();
        let json = serde_json::to_string(&knn).unwrap();
        let bad = json.replacen("\"k\":3", "\"k\":2", 1);
        assert!(serde_json::from_str::<KnnClassifier>(&bad).is_err());
    }
}
