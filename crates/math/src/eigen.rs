//! Symmetric eigendecomposition by the cyclic Jacobi method.
//!
//! Needed for the deterministic (square-root / ETKF) ensemble filter variant,
//! which requires `(I + C)^{-1/2}` of a small symmetric ensemble-space matrix,
//! and for diagnostics such as ensemble covariance spectra.
//!
//! The cyclic Jacobi method is slow for large matrices but unconditionally
//! reliable and accurate for the `N × N` (N = ensemble size ≈ 25) matrices we
//! feed it, which is exactly the regime the paper's filter operates in.

use crate::matrix::Matrix;
use crate::{MathError, Result};

/// Eigendecomposition `A = V · diag(λ) · Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone, Default)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as columns, in the same order as `values`.
    pub vectors: Matrix,
}

/// Reusable scratch for [`SymmetricEigen::factor_into`]: the Jacobi working
/// copy, the rotation accumulator, and the eigenvalue sort permutation.
/// Sized on first use, reused thereafter, so repeated factorizations of a
/// fixed size perform no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct EigenWorkspace {
    /// Jacobi working copy of the input matrix.
    m: Matrix,
    /// Accumulated rotations (becomes the unsorted eigenvector matrix).
    v: Matrix,
    /// Eigenvalue sort permutation.
    order: Vec<usize>,
}

impl EigenWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SymmetricEigen {
    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// Only the lower triangle is trusted; the matrix is symmetrized
    /// internally before iteration. Uses cyclic Jacobi sweeps until the
    /// off-diagonal Frobenius mass falls below `1e-14 · ‖A‖_F`, with a
    /// 100-sweep budget.
    ///
    /// # Errors
    /// [`MathError::NotSquare`] for non-square input;
    /// [`MathError::NoConvergence`] if the sweep budget is exhausted.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut out = SymmetricEigen::default();
        out.factor_into(a, &mut EigenWorkspace::new())?;
        Ok(out)
    }

    /// Allocation-free [`SymmetricEigen::new`]: re-factorizes `a` into
    /// `self`'s storage, with the Jacobi working matrices coming from `ws`.
    /// The arithmetic is identical (results are bit-identical to `new`);
    /// all buffers resize on first use and are reused, so repeated
    /// factorizations at a fixed size perform no heap allocation.
    ///
    /// # Errors
    /// Same as [`SymmetricEigen::new`].
    pub fn factor_into(&mut self, a: &Matrix, ws: &mut EigenWorkspace) -> Result<()> {
        if !a.is_square() {
            return Err(MathError::NotSquare { dims: a.dims() });
        }
        let n = a.rows();
        let EigenWorkspace { m, v, order } = ws;
        m.copy_from(a);
        m.symmetrize_mut();
        // V ← I, reusing the existing storage.
        v.resize_zeroed(n, n);
        for i in 0..n {
            v[(i, i)] = 1.0;
        }
        let norm = m.fro_norm().max(f64::MIN_POSITIVE);
        let tol = 1e-14 * norm;

        const MAX_SWEEPS: usize = 100;
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0;
            for j in 0..n {
                for i in 0..j {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            if (2.0 * off).sqrt() <= tol {
                self.store_sorted(m, v, order);
                return Ok(());
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Classic Jacobi rotation.
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Update rows/columns p and q of m (full symmetric update).
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate the rotation into V.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        Err(MathError::NoConvergence {
            algorithm: "jacobi eigendecomposition",
            iterations: MAX_SWEEPS,
        })
    }

    /// Sorts the converged diagonal into `self.values` / `self.vectors`
    /// (ascending), reusing their storage. `sort_unstable_by` keeps this
    /// allocation-free (stable sort buffers above 20 elements) and is
    /// deterministic for a given input.
    fn store_sorted(&mut self, m: &Matrix, v: &Matrix, order: &mut Vec<usize>) {
        let n = m.rows();
        order.clear();
        order.extend(0..n);
        order.sort_unstable_by(|&a, &b| {
            m[(a, a)]
                .partial_cmp(&m[(b, b)])
                .expect("finite eigenvalues")
        });
        self.values.clear();
        self.values.extend(order.iter().map(|&i| m[(i, i)]));
        self.vectors.resize_no_zero(n, n);
        for (newj, &oldj) in order.iter().enumerate() {
            self.vectors.set_col(newj, v.col(oldj));
        }
    }

    /// Applies a scalar function to the eigenvalues and reassembles the
    /// matrix: returns `V · diag(f(λ)) · Vᵀ`.
    ///
    /// This is how the filter computes matrix functions such as `A^{-1/2}`.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut scaled = Matrix::default();
        let mut out = Matrix::default();
        self.map_into(f, &mut scaled, &mut out);
        out
    }

    /// Allocation-free [`SymmetricEigen::map`]: `scaled` is scratch for the
    /// column-scaled eigenvector copy and `V · diag(f(λ)) · Vᵀ` is written
    /// into `out`; both reuse their storage across calls.
    pub fn map_into(&self, f: impl Fn(f64) -> f64, scaled: &mut Matrix, out: &mut Matrix) {
        scaled.copy_from(&self.vectors);
        for (j, &lam) in self.values.iter().enumerate() {
            let flam = f(lam);
            for x in scaled.col_mut(j) {
                *x *= flam;
            }
        }
        scaled
            .matmul_tr_into(&self.vectors, out)
            .expect("square dims always agree");
    }

    /// Reconstructs the original matrix `V · diag(λ) · Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        self.map(|x| x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_diagonal(&[3.0, 1.0, 2.0]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let b = Matrix::from_fn(5, 5, |i, j| ((i * j + i + 1) % 7) as f64);
        let mut a = Matrix::default();
        b.tr_matmul_into(&b, &mut a).unwrap();
        a.symmetrize_mut();
        let e = SymmetricEigen::new(&a).unwrap();
        assert!((&e.reconstruct() - &a).max_abs() < 1e-9);
        let mut vtv = Matrix::default();
        e.vectors.tr_matmul_into(&e.vectors, &mut vtv).unwrap();
        assert!((&vtv - &Matrix::identity(5)).max_abs() < 1e-10);
    }

    #[test]
    fn inv_sqrt_is_functional_inverse() {
        let b = Matrix::from_fn(4, 4, |i, j| ((i + 2 * j) % 5) as f64 * 0.5);
        let mut a = Matrix::default();
        b.tr_matmul_into(&b, &mut a).unwrap();
        a.add_diagonal_mut(2.0);
        let e = SymmetricEigen::new(&a).unwrap();
        let s = e.map(|lam| 1.0 / lam.max(1e-12).sqrt());
        // s * a * s ≈ I
        let (mut sa, mut prod) = (Matrix::default(), Matrix::default());
        s.matmul_into(&a, &mut sa).unwrap();
        sa.matmul_into(&s, &mut prod).unwrap();
        assert!((&prod - &Matrix::identity(4)).max_abs() < 1e-9);
    }

    #[test]
    fn trace_equals_eigen_sum() {
        let b = Matrix::from_fn(6, 6, |i, j| ((3 * i + j) % 4) as f64 - 1.5);
        let mut a = Matrix::default();
        b.tr_matmul_into(&b, &mut a).unwrap();
        a.symmetrize_mut();
        let e = SymmetricEigen::new(&a).unwrap();
        let sum: f64 = e.values.iter().sum();
        assert!((sum - a.trace().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_square() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(SymmetricEigen::default()
            .factor_into(&Matrix::zeros(2, 3), &mut EigenWorkspace::new())
            .is_err());
    }

    /// A reused decomposition + workspace produces bit-identical results to
    /// fresh `new` calls, across factorizations of different sizes.
    #[test]
    fn factor_into_reuse_matches_new_bitwise() {
        let mut eig = SymmetricEigen::default();
        let mut ws = EigenWorkspace::new();
        for (size, seed) in [(5usize, 3usize), (8, 11), (3, 7), (8, 29)] {
            let b = Matrix::from_fn(size, size, |i, j| {
                ((seed * i + j * j + 1) % 13) as f64 - 6.0
            });
            let mut a = Matrix::default();
            b.tr_matmul_into(&b, &mut a).unwrap();
            a.symmetrize_mut();
            let fresh = SymmetricEigen::new(&a).unwrap();
            eig.factor_into(&a, &mut ws).unwrap();
            assert_eq!(fresh.values, eig.values, "size {size}");
            assert_eq!(
                fresh.vectors.as_slice(),
                eig.vectors.as_slice(),
                "size {size}"
            );
            // map_into agrees with map.
            let mut scaled = Matrix::default();
            let mut out = Matrix::default();
            eig.map_into(|l| 1.0 / l.max(1e-14), &mut scaled, &mut out);
            let direct = fresh.map(|l| 1.0 / l.max(1e-14));
            assert_eq!(direct.as_slice(), out.as_slice(), "size {size}");
        }
    }
}
