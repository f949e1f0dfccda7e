//! Row-major dense `f64` matrix.
//!
//! The matrix type used throughout the reproduction. Storage is a single
//! contiguous `Vec<f64>` in row-major order, so a row is a cache-friendly
//! slice — the layout the profiler's snapshot pool, the PCA projection and
//! the k-NN distance loops all iterate over.

use crate::error::{Error, Result};
use crate::vector;
use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use appclass_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// Fails with [`Error::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::DimensionMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from row slices. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(Error::Empty { op: "from_rows" });
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(Error::DimensionMismatch {
                    op: "from_rows",
                    lhs: (1, cols),
                    rhs: (i, r.len()),
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Builds a matrix whose columns are the given vectors.
    pub fn from_columns(cols: &[Vec<f64>]) -> Result<Self> {
        if cols.is_empty() {
            return Err(Error::Empty { op: "from_columns" });
        }
        let rows = cols[0].len();
        for (i, c) in cols.iter().enumerate() {
            if c.len() != rows {
                return Err(Error::DimensionMismatch {
                    op: "from_columns",
                    lhs: (rows, 1),
                    rhs: (c.len(), i),
                });
            }
        }
        let mut m = Matrix::zeros(rows, cols.len());
        for (j, c) in cols.iter().enumerate() {
            for (i, &v) in c.iter().enumerate() {
                m.data[i * m.cols + j] = v;
            }
        }
        Ok(m)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its flat row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reshapes to `rows x cols` in place, zeroing the contents. The
    /// existing allocation is reused whenever it is large enough — the
    /// primitive the `_into` operations build on to keep hot paths free of
    /// per-call allocation.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Element access with bounds checking.
    pub fn get(&self, row: usize, col: usize) -> Result<f64> {
        if row >= self.rows || col >= self.cols {
            return Err(Error::IndexOutOfBounds { index: (row, col), shape: self.shape() });
        }
        Ok(self.data[row * self.cols + col])
    }

    /// Sets an element with bounds checking.
    pub fn set(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(Error::IndexOutOfBounds { index: (row, col), shape: self.shape() });
        }
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// Borrow row `i` as a slice. Panics if out of bounds (use in hot loops
    /// where the index is already validated).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Iterator over rows as slices. A zero-width matrix yields `rows`
    /// empty slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Checks every entry is finite; returns the first offender in
    /// row-major order otherwise ([`vector::first_non_finite`]).
    pub fn check_finite(&self) -> Result<()> {
        match vector::first_non_finite(&self.data) {
            None => Ok(()),
            Some(at) => Err(Error::NonFinite { row: at / self.cols, col: at % self.cols }),
        }
    }

    /// Maximum absolute asymmetry `|a_ij - a_ji|`; zero for symmetric input.
    pub fn max_asymmetry(&self) -> Result<f64> {
        if self.rows != self.cols {
            return Err(Error::NotSquare { shape: self.shape() });
        }
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let d = (self.data[i * self.cols + j] - self.data[j * self.cols + i]).abs();
                worst = worst.max(d);
            }
        }
        Ok(worst)
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// Uses an `i-k-j` loop order so the inner loop streams over contiguous
    /// rows of both operands.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &aik) in a_row.iter().enumerate() {
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                vector::axpy(aik, b_row, out_row);
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(Error::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        Ok(self.iter_rows().map(|r| vector::dot(r, x)).collect())
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Frobenius norm `sqrt(sum a_ij^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, a| m.max(a.abs()))
    }

    /// Extracts the sub-matrix of the given rows (cloned), preserving order.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (oi, &i) in indices.iter().enumerate() {
            if i >= self.rows {
                return Err(Error::IndexOutOfBounds { index: (i, 0), shape: self.shape() });
            }
            out.row_mut(oi).copy_from_slice(self.row(i));
        }
        Ok(out)
    }

    /// Extracts the sub-matrix of the given columns (cloned), preserving order.
    pub fn select_columns(&self, indices: &[usize]) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.select_columns_into(indices, &mut out)?;
        Ok(out)
    }

    /// Like [`Matrix::select_columns`] but writes into `out`, reusing its
    /// allocation.
    pub fn select_columns_into(&self, indices: &[usize], out: &mut Matrix) -> Result<()> {
        for &j in indices {
            if j >= self.cols {
                return Err(Error::IndexOutOfBounds { index: (0, j), shape: self.shape() });
            }
        }
        out.resize(self.rows, indices.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (oj, &j) in indices.iter().enumerate() {
                dst[oj] = src[j];
            }
        }
        Ok(())
    }

    /// Appends the rows of `other` below `self`.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(Error::DimensionMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix { rows: self.rows + other.rows, cols: self.cols, data })
    }

    /// True when `self` and `other` agree element-wise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in self.iter_rows() {
            write!(f, "  [")?;
            for (j, v) in r.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.6}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![a, b, c, d]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn from_columns_matches_from_rows_transposed() {
        let c = Matrix::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let r = Matrix::from_rows(&[vec![1.0, 3.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(c, r);
    }

    #[test]
    fn get_set_bounds() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 1, 5.0).unwrap();
        assert_eq!(m.get(1, 1).unwrap(), 5.0);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 2, 1.0).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_small() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.matmul(&Matrix::identity(3)).unwrap(), a);
    }

    #[test]
    fn matmul_shape_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(Error::DimensionMismatch { .. })));
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // A product far larger than the classifier's n×8 · 8×2, checked
        // against the naive triple loop.
        let n = 80;
        let a =
            Matrix::from_vec(n, n, (0..n * n).map(|i| (i % 17) as f64 - 8.0).collect()).unwrap();
        let b =
            Matrix::from_vec(n, n, (0..n * n).map(|i| (i % 13) as f64 - 6.0).collect()).unwrap();
        let fast = a.matmul(&b).unwrap();
        // Naive triple loop reference.
        let mut reference = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a[(i, k)] * b[(k, j)];
                }
                reference[(i, j)] = s;
            }
        }
        assert!(fast.approx_eq(&reference, 1e-9));
    }

    #[test]
    fn resize_reshapes_and_zeroes() {
        let mut m = Matrix::filled(4, 4, 7.0);
        let ptr = m.as_slice().as_ptr();
        m.resize(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(m.as_slice().as_ptr(), ptr, "shrinking must keep the allocation");
        m.as_mut_slice()[0] = 1.0;
        assert_eq!(m[(0, 0)], 1.0);
    }

    #[test]
    fn select_columns_into_matches_select_columns() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let mut out = Matrix::zeros(0, 0);
        a.select_columns_into(&[2, 0], &mut out).unwrap();
        assert_eq!(out, a.select_columns(&[2, 0]).unwrap());
        assert!(a.select_columns_into(&[5], &mut out).is_err());
    }

    #[test]
    fn matvec_basic() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(4.0, 3.0, 2.0, 1.0);
        assert_eq!(a.add(&b).unwrap(), m22(5.0, 5.0, 5.0, 5.0));
        assert_eq!(a.sub(&a).unwrap(), Matrix::zeros(2, 2));
        assert_eq!(a.scale(2.0), m22(2.0, 4.0, 6.0, 8.0));
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn frobenius_norm_known() {
        let a = m22(3.0, 0.0, 0.0, 4.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn select_rows_and_columns() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]])
            .unwrap();
        let r = a.select_rows(&[2, 0]).unwrap();
        assert_eq!(r.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(r.row(1), &[1.0, 2.0, 3.0]);
        let c = a.select_columns(&[1]).unwrap();
        assert_eq!(c.column(0), vec![2.0, 5.0, 8.0]);
        assert!(a.select_rows(&[3]).is_err());
        assert!(a.select_columns(&[9]).is_err());
    }

    #[test]
    fn vstack_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::filled(1, 3, 1.0);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.row(2), &[1.0, 1.0, 1.0]);
        assert!(a.vstack(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn check_finite_finds_nan() {
        let mut a = Matrix::zeros(2, 2);
        a[(1, 0)] = f64::NAN;
        // A second offender later in row-major order is not the one named.
        a[(1, 1)] = f64::INFINITY;
        assert_eq!(a.check_finite(), Err(Error::NonFinite { row: 1, col: 0 }));
        a[(1, 0)] = 0.0;
        assert_eq!(a.check_finite(), Err(Error::NonFinite { row: 1, col: 1 }));
        a[(1, 1)] = 0.0;
        assert!(a.check_finite().is_ok());
    }

    #[test]
    fn max_asymmetry_detects() {
        let sym = m22(1.0, 2.0, 2.0, 1.0);
        assert_eq!(sym.max_asymmetry().unwrap(), 0.0);
        let asym = m22(1.0, 2.0, 2.5, 1.0);
        assert!((asym.max_asymmetry().unwrap() - 0.5).abs() < 1e-12);
        assert!(Matrix::zeros(2, 3).max_asymmetry().is_err());
    }

    #[test]
    fn column_extraction() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.column(1), vec![2.0, 4.0]);
    }

    #[test]
    fn display_renders() {
        let a = Matrix::identity(2);
        let s = format!("{a}");
        assert!(s.contains("Matrix 2x2"));
    }
}
