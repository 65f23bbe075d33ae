//! Cholesky factorization `A = L·Lᵀ` of symmetric positive definite matrices.
//!
//! The EnKF analysis step factors one `N × N` SPD ensemble-space system per
//! assimilation cycle (`N` = number of members) and solves it for `N`
//! right-hand sides.

use crate::matrix::Matrix;
use crate::{MathError, Result};

/// Lower-triangular Cholesky factor of an SPD matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor; the strict upper triangle is zero.
    l: Matrix,
}

impl Cholesky {
    /// Factorizes `a` (which must be square and symmetric positive definite).
    ///
    /// Only the lower triangle of `a` is read, so a numerically
    /// almost-symmetric matrix is accepted without complaint; callers that
    /// need strict symmetry should `symmetrize_mut` first.
    ///
    /// # Errors
    /// [`MathError::NotSquare`] for non-square input and
    /// [`MathError::NotPositiveDefinite`] when a pivot is `≤ 0` or non-finite.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut l = Matrix::zeros(0, 0);
        Self::factor_into(a, &mut l)?;
        Ok(Cholesky { l })
    }

    /// Allocation-free factorization: resizes `l` (reusing its storage) and
    /// overwrites it with the lower-triangular factor of `a`. This is the
    /// workspace-layer entry point — callers that hold the factor buffer can
    /// run repeated analyses without heap traffic, pairing it with
    /// [`Cholesky::solve_in_place_with`].
    ///
    /// # Errors
    /// Same as [`Cholesky::new`].
    pub fn factor_into(a: &Matrix, l: &mut Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(MathError::NotSquare { dims: a.dims() });
        }
        let n = a.rows();
        l.resize_zeroed(n, n);
        for j in 0..n {
            // Diagonal pivot.
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(MathError::NotPositiveDefinite { pivot: j, value: d });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the pivot.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(())
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` in place for a single right-hand side.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the factor dimension.
    pub(crate) fn solve_in_place(&self, b: &mut [f64]) {
        Self::solve_in_place_with(&self.l, b);
    }

    /// Solves `A x = b` in place given a precomputed lower factor `l` (as
    /// produced by [`Cholesky::factor_into`]), without constructing a
    /// `Cholesky` value.
    ///
    /// # Panics
    /// Panics if `l` is not square or `b.len()` differs from its dimension.
    pub fn solve_in_place_with(l: &Matrix, b: &mut [f64]) {
        assert!(l.is_square(), "cholesky factor must be square");
        let n = l.rows();
        assert_eq!(b.len(), n, "cholesky solve rhs length mismatch");
        // Forward substitution: L y = b.
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[(i, k)] * b[k];
            }
            b[i] = s / l[(i, i)];
        }
        // Backward substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in (i + 1)..n {
                s -= l[(k, i)] * b[k];
            }
            b[i] = s / l[(i, i)];
        }
    }

    /// Solves `A x = b`, returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> Matrix {
        // A = Bᵀ B + I is SPD for any B.
        let b = Matrix::from_fn(4, 4, |i, j| ((i * 3 + j * 7) % 5) as f64 - 2.0);
        let mut a = Matrix::default();
        b.tr_matmul_into(&b, &mut a).unwrap();
        a.add_diagonal_mut(1.0);
        a
    }

    #[test]
    fn reconstructs_matrix() {
        let a = spd_example();
        let ch = Cholesky::new(&a).unwrap();
        let mut rec = Matrix::default();
        ch.l().matmul_tr_into(ch.l(), &mut rec).unwrap();
        assert!((&rec - &a).max_abs() < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_example();
        let x_true = vec![1.0, -2.0, 0.5, 3.0];
        let mut b = vec![0.0; 4];
        a.matvec_into(&x_true, &mut b).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&b);
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(MathError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(MathError::NotSquare { .. })
        ));
    }

    #[test]
    fn identity_solve_is_identity() {
        let ch = Cholesky::new(&Matrix::identity(5)).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(ch.solve(&b), b);
    }

    #[test]
    fn log_det_of_diagonal() {
        // The factor carries the determinant: det A = (Π L_ii)².
        let a = Matrix::from_diagonal(&[2.0, 3.0, 4.0]);
        let ch = Cholesky::new(&a).unwrap();
        let log_det: f64 = (0..3).map(|i| ch.l()[(i, i)].ln()).sum::<f64>() * 2.0;
        assert!((log_det - 24.0_f64.ln()).abs() < 1e-12);
    }
}
