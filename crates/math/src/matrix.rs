//! Dense column-major `f64` matrix.
//!
//! States in the ensemble Kalman filter are stored as the *columns* of a
//! matrix, so column-major layout keeps each ensemble member contiguous in
//! memory; the hot loops of the analysis step (column axpys, `Xᵀ·X`-style
//! products) then stream linearly through memory.

use crate::{MathError, Result};
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense matrix of `f64` stored in column-major order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Column-major storage: element `(i, j)` lives at `data[j * rows + i]`.
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a function of the index pair `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix that owns `data` interpreted in column-major order.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_column_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major data length mismatch");
        Matrix { rows, cols, data }
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw column-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable borrow of column `j` as a contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Copy of row `i`.
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.cols).map(|j| self[(i, j)]).collect()
    }

    /// Overwrites column `j` with `v`.
    ///
    /// # Panics
    /// Panics if `v.len() != rows`.
    pub(crate) fn set_col(&mut self, j: usize, v: &[f64]) {
        assert_eq!(v.len(), self.rows, "set_col length mismatch");
        self.col_mut(j).copy_from_slice(v);
    }

    /// Re-shapes to `rows × cols` and zeroes every entry, reusing the
    /// existing storage when the capacity suffices. The workspace layer
    /// uses this so repeated analyses with a fixed shape never allocate.
    /// Growth reserves exactly the new size: a workspace matrix that
    /// alternates between two shapes holds the larger, not twice it.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.reserve_exact(rows * cols);
        self.data.resize(rows * cols, 0.0);
    }

    /// Re-shapes to `rows × cols` **without** clearing the entries: the
    /// contents are unspecified (stale data from the previous use) and the
    /// caller must overwrite every entry before reading any. Skips
    /// [`Matrix::resize_zeroed`]'s per-call memset for kernels that write
    /// the full output (e.g. `tr_matmul_into`'s dot products); accumulating
    /// kernels (`matmul_into` and friends axpy into the output) must keep
    /// `resize_zeroed`.
    pub fn resize_no_zero(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        if self.data.len() != rows * cols {
            self.data.clear();
            self.data.reserve_exact(rows * cols);
            self.data.resize(rows * cols, 0.0);
        }
    }

    /// Copies shape and values from `other`, reusing the existing storage
    /// when the capacity suffices.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Matrix product `self * rhs`: resizes `out` to `rows × rhs.cols` and
    /// overwrites it.
    ///
    /// Uses a cache-friendly `j-k-i` loop: for each output column we
    /// accumulate axpys of the columns of `self`, which are contiguous.
    ///
    /// # Errors
    /// [`MathError::DimensionMismatch`] when the inner dimensions disagree.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                op: "matmul",
                lhs: self.dims(),
                rhs: rhs.dims(),
            });
        }
        out.resize_zeroed(self.rows, rhs.cols);
        for j in 0..rhs.cols {
            let out_col = &mut out.data[j * self.rows..(j + 1) * self.rows];
            for k in 0..self.cols {
                let alpha = rhs[(k, j)];
                if alpha == 0.0 {
                    continue;
                }
                let a_col = &self.data[k * self.rows..(k + 1) * self.rows];
                for (o, &a) in out_col.iter_mut().zip(a_col.iter()) {
                    *o += alpha * a;
                }
            }
        }
        Ok(())
    }

    /// Product `selfᵀ * rhs` without materializing the transpose: resizes
    /// `out` and overwrites it.
    ///
    /// Each output entry is a dot product of two contiguous columns, so this
    /// is the preferred kernel for ensemble Gram matrices `AᵀA`.
    ///
    /// # Errors
    /// [`MathError::DimensionMismatch`] when the row counts disagree.
    pub fn tr_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows != rhs.rows {
            return Err(MathError::DimensionMismatch {
                op: "tr_matmul",
                lhs: self.dims(),
                rhs: rhs.dims(),
            });
        }
        // Every entry is written by its dot product below, so the resize
        // can skip the memset.
        out.resize_no_zero(self.cols, rhs.cols);
        for j in 0..rhs.cols {
            let b_col = rhs.col(j);
            for i in 0..self.cols {
                let a_col = self.col(i);
                let mut s = 0.0;
                for (&a, &b) in a_col.iter().zip(b_col.iter()) {
                    s += a * b;
                }
                out[(i, j)] = s;
            }
        }
        Ok(())
    }

    /// Product `self * rhsᵀ` without materializing the transpose: resizes
    /// `out` and overwrites it.
    ///
    /// # Errors
    /// [`MathError::DimensionMismatch`] when the column counts disagree.
    pub fn matmul_tr_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.cols {
            return Err(MathError::DimensionMismatch {
                op: "matmul_tr",
                lhs: self.dims(),
                rhs: rhs.dims(),
            });
        }
        out.resize_zeroed(self.rows, rhs.rows);
        for k in 0..self.cols {
            let a_col = self.col(k);
            let b_col = rhs.col(k);
            for (j, &b) in b_col.iter().enumerate() {
                if b == 0.0 {
                    continue;
                }
                let out_col = &mut out.data[j * self.rows..(j + 1) * self.rows];
                for (o, &a) in out_col.iter_mut().zip(a_col.iter()) {
                    *o += b * a;
                }
            }
        }
        Ok(())
    }

    /// Matrix–vector product: overwrites `out` with `self * v`.
    ///
    /// # Errors
    /// [`MathError::DimensionMismatch`] when `v.len() != cols` or
    /// `out.len() != rows`.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if self.cols != v.len() {
            return Err(MathError::DimensionMismatch {
                op: "matvec",
                lhs: self.dims(),
                rhs: (v.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(MathError::DimensionMismatch {
                op: "matvec output",
                lhs: self.dims(),
                rhs: (out.len(), 1),
            });
        }
        out.fill(0.0);
        for (k, &alpha) in v.iter().enumerate() {
            if alpha == 0.0 {
                continue;
            }
            let col = self.col(k);
            for (o, &a) in out.iter_mut().zip(col.iter()) {
                *o += alpha * a;
            }
        }
        Ok(())
    }

    /// Transposed matrix–vector product: overwrites `out` with `selfᵀ * v`.
    ///
    /// # Errors
    /// [`MathError::DimensionMismatch`] when `v.len() != rows` or
    /// `out.len() != cols`.
    pub fn tr_matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if self.rows != v.len() {
            return Err(MathError::DimensionMismatch {
                op: "tr_matvec",
                lhs: self.dims(),
                rhs: (v.len(), 1),
            });
        }
        if out.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                op: "tr_matvec output",
                lhs: self.dims(),
                rhs: (out.len(), 1),
            });
        }
        for (j, o) in out.iter_mut().enumerate() {
            let col = self.col(j);
            let mut s = 0.0;
            for (&a, &b) in col.iter().zip(v.iter()) {
                s += a * b;
            }
            *o = s;
        }
        Ok(())
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale_mut(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Returns `alpha * self`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(alpha);
        out
    }

    /// In-place axpy: `self += alpha * other`.
    pub fn axpy_mut(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.dims() != other.dims() {
            return Err(MathError::DimensionMismatch {
                op: "axpy",
                lhs: self.dims(),
                rhs: other.dims(),
            });
        }
        for (x, &y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
        Ok(())
    }

    /// Frobenius norm.
    pub(crate) fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (∞-norm of the vectorization).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Errors
    /// Returns [`MathError::NotSquare`] for non-square matrices.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(MathError::NotSquare { dims: self.dims() });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Mean of the columns as a vector of length `rows`.
    pub fn col_mean(&self) -> Vec<f64> {
        let mut mean = vec![0.0; self.rows];
        if self.cols == 0 {
            return mean;
        }
        for j in 0..self.cols {
            for (m, &x) in mean.iter_mut().zip(self.col(j).iter()) {
                *m += x;
            }
        }
        let inv = 1.0 / self.cols as f64;
        for m in &mut mean {
            *m *= inv;
        }
        mean
    }

    /// Subtracts `v` from every column in place (used to form anomalies).
    ///
    /// # Panics
    /// Panics if `v.len() != rows`.
    pub(crate) fn subtract_col_vector(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.rows, "subtract_col_vector length mismatch");
        for j in 0..self.cols {
            for (x, &m) in self.col_mut(j).iter_mut().zip(v.iter()) {
                *x -= m;
            }
        }
    }

    /// Allocation-free [`Matrix::col_mean`]: resizes `out` to `rows` and
    /// overwrites it with the column mean.
    pub fn col_mean_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.rows, 0.0);
        if self.cols == 0 {
            return;
        }
        for j in 0..self.cols {
            for (m, &x) in out.iter_mut().zip(self.col(j).iter()) {
                *m += x;
            }
        }
        let inv = 1.0 / self.cols as f64;
        for m in out.iter_mut() {
            *m *= inv;
        }
    }

    /// Returns the column-anomaly matrix `A = X - x̄·1ᵀ` and the mean `x̄`.
    pub fn anomalies(&self) -> (Matrix, Vec<f64>) {
        let mean = self.col_mean();
        let mut a = self.clone();
        a.subtract_col_vector(&mean);
        (a, mean)
    }

    /// Allocation-free [`Matrix::anomalies`]: writes the anomaly matrix into
    /// `a` and the column mean into `mean`, reusing their storage.
    pub fn anomalies_into(&self, a: &mut Matrix, mean: &mut Vec<f64>) {
        self.col_mean_into(mean);
        a.copy_from(self);
        a.subtract_col_vector(mean);
    }

    /// Extracts the contiguous sub-matrix with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    /// Panics if the ranges are out of bounds or reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "bad row range");
        assert!(c0 <= c1 && c1 <= self.cols, "bad col range");
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        for j in c0..c1 {
            for i in r0..r1 {
                out[(i - r0, j - c0)] = self[(i, j)];
            }
        }
        out
    }

    /// Whether the matrix is symmetric to within `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for j in 0..self.cols {
            for i in 0..j {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrizes in place: `self = (self + selfᵀ)/2`.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn symmetrize_mut(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for j in 0..self.cols {
            for i in 0..j {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Adds `alpha` to every diagonal entry (Tikhonov / covariance inflation).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn add_diagonal_mut(&mut self, alpha: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += alpha;
        }
    }

    /// True when every entry is finite (no NaN/∞).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[j * self.rows + i]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[j * self.rows + i]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.dims(), rhs.dims(), "add dimension mismatch");
        let mut out = self.clone();
        out.axpy_mut(1.0, rhs).expect("dims checked");
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.dims(), rhs.dims(), "sub dimension mismatch");
        let mut out = self.clone();
        out.axpy_mut(-1.0, rhs).expect("dims checked");
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy_mut(1.0, rhs)
            .expect("add_assign dimension mismatch");
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.axpy_mut(-1.0, rhs)
            .expect("sub_assign dimension mismatch");
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, alpha: f64) -> Matrix {
        self.scaled(alpha)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test fixtures and the explicit-transpose oracle for the fused
    /// transposed products.
    impl Matrix {
        /// Creates a matrix from row-major nested slices.
        pub(crate) fn from_rows(rows: &[&[f64]]) -> Self {
            let r = rows.len();
            let c = if r == 0 { 0 } else { rows[0].len() };
            Matrix::from_fn(r, c, |i, j| rows[i][j])
        }

        /// Creates a diagonal matrix from the given diagonal entries.
        pub(crate) fn from_diagonal(diag: &[f64]) -> Self {
            let n = diag.len();
            Matrix::from_fn(n, n, |i, j| if i == j { diag[i] } else { 0.0 })
        }

        /// Returns the transpose.
        pub(crate) fn transpose(&self) -> Matrix {
            Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
        }
    }

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        a.matmul_into(b, &mut out).unwrap();
        out
    }

    #[test]
    fn resize_no_zero_matches_tr_matmul_contract() {
        // tr_matmul_into's output is resized without zeroing; a workspace
        // matrix polluted by a previous larger product must still come out
        // with exactly the dot-product values.
        let a = Matrix::from_column_major(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_column_major(3, 2, vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let mut expected = Matrix::zeros(2, 2);
        a.tr_matmul_into(&b, &mut expected).unwrap();
        let mut out = Matrix::zeros(5, 5);
        out.as_mut_slice().fill(99.0);
        a.tr_matmul_into(&b, &mut out).unwrap();
        assert_eq!(out.dims(), (2, 2));
        for j in 0..2 {
            for i in 0..2 {
                assert_eq!(out[(i, j)], expected[(i, j)]);
            }
        }
    }

    #[test]
    fn zeros_and_indexing() {
        let mut m = Matrix::zeros(3, 2);
        assert_eq!(m.dims(), (3, 2));
        m[(2, 1)] = 5.0;
        assert_eq!(m[(2, 1)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
        // column-major layout: (2,1) is at offset 1*3+2 = 5
        assert_eq!(m.as_slice()[5], 5.0);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let id = Matrix::identity(4);
        let v = vec![1.0, -2.0, 3.0, 0.5];
        let mut out = vec![f64::NAN; 4];
        id.matvec_into(&v, &mut out).unwrap();
        assert_eq!(out, v);
    }

    #[test]
    fn from_rows_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul_into(&b, &mut Matrix::default()),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn tr_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let b = Matrix::from_fn(4, 2, |i, j| (3 * i) as f64 - j as f64);
        let mut fast = Matrix::default();
        a.tr_matmul_into(&b, &mut fast).unwrap();
        let slow = matmul(&a.transpose(), &b);
        assert!((&fast - &slow).max_abs() < 1e-14);
    }

    #[test]
    fn matmul_tr_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * j) as f64 + 1.0);
        let b = Matrix::from_fn(2, 4, |i, j| i as f64 - j as f64);
        let mut fast = Matrix::default();
        a.matmul_tr_into(&b, &mut fast).unwrap();
        let slow = matmul(&a, &b.transpose());
        assert!((&fast - &slow).max_abs() < 1e-14);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(5, 3, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn col_mean_and_anomalies() {
        let m = Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 6.0]]);
        let (a, mean) = m.anomalies();
        assert_eq!(mean, vec![2.0, 4.0]);
        assert_eq!(a[(0, 0)], -1.0);
        assert_eq!(a[(0, 1)], 1.0);
        assert_eq!(a[(1, 0)], -2.0);
        assert_eq!(a[(1, 1)], 2.0);
    }

    #[test]
    fn submatrix_extraction() {
        let m = Matrix::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s.dims(), (2, 2));
        assert_eq!(s[(0, 0)], 12.0);
        assert_eq!(s[(1, 1)], 23.0);
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        m.symmetrize_mut();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m[(0, 1)], 3.0);
    }

    #[test]
    fn trace_and_norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(m.trace().unwrap(), 7.0);
        assert!(approx(m.fro_norm(), 5.0, 1e-15));
        assert_eq!(m.max_abs(), 4.0);
        assert!(Matrix::zeros(2, 3).trace().is_err());
    }

    #[test]
    fn matvec_and_tr_matvec_agree_with_matmul() {
        let a = Matrix::from_fn(3, 4, |i, j| (i + j) as f64 * 0.5);
        let v = vec![1.0, 2.0, 3.0, 4.0];
        let mut mv = vec![0.0; 3];
        a.matvec_into(&v, &mut mv).unwrap();
        let mv_ref = matmul(&a, &Matrix::from_column_major(4, 1, v.clone()));
        for i in 0..3 {
            assert!(approx(mv[i], mv_ref[(i, 0)], 1e-14));
        }
        let w = vec![1.0, -1.0, 0.5];
        let mut tv = vec![0.0; 4];
        a.tr_matvec_into(&w, &mut tv).unwrap();
        let tv_ref = matmul(&a.transpose(), &Matrix::from_column_major(3, 1, w));
        for j in 0..4 {
            assert!(approx(tv[j], tv_ref[(j, 0)], 1e-14));
        }
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.all_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn add_diagonal_shifts_eigenvalues() {
        let mut m = Matrix::identity(3);
        m.add_diagonal_mut(2.0);
        assert_eq!(m[(1, 1)], 3.0);
        assert_eq!(m[(0, 1)], 0.0);
    }
}
