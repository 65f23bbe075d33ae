//! Property-based tests for the linear algebra kernels.

use proptest::prelude::*;
use wildfire_math::{Cholesky, Matrix, SymmetricEigen};

/// Strategy: matrix dimensions kept small so SPD construction stays well
/// conditioned and tests stay fast.
fn small_dim() -> impl Strategy<Value = usize> {
    1usize..6
}

/// Generates an n×n matrix with entries in [-1, 1].
fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n)
        .prop_map(move |data| Matrix::from_column_major(n, n, data))
}

/// Generates a tall m×n matrix (m ≥ n) with entries in [-1, 1].
fn tall_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..5, 0usize..4).prop_flat_map(|(n, extra)| {
        let m = n + extra;
        prop::collection::vec(-1.0f64..1.0, m * n)
            .prop_map(move |data| Matrix::from_column_major(m, n, data))
    })
}

/// SPD matrix built as BᵀB + I.
fn spd_matrix() -> impl Strategy<Value = Matrix> {
    small_dim().prop_flat_map(|n| {
        square_matrix(n).prop_map(move |b| {
            let mut a = Matrix::default();
            b.tr_matmul_into(&b, &mut a).expect("square dims");
            a.add_diagonal_mut(1.0);
            a.symmetrize_mut();
            a
        })
    })
}

proptest! {
    #[test]
    fn cholesky_reconstructs(a in spd_matrix()) {
        let ch = Cholesky::new(&a).unwrap();
        let mut rec = Matrix::default();
        ch.l().matmul_tr_into(ch.l(), &mut rec).unwrap();
        prop_assert!((&rec - &a).max_abs() < 1e-10);
    }

    #[test]
    fn cholesky_solve_is_inverse(a in spd_matrix(), seed in 0u64..1000) {
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| ((seed as f64 + i as f64) * 0.37).sin()).collect();
        let mut b = vec![0.0; n];
        a.matvec_into(&x_true, &mut b).unwrap();
        let x = Cholesky::new(&a).unwrap().solve(&b);
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            prop_assert!((xi - ti).abs() < 1e-6);
        }
    }

    #[test]
    fn eigen_reconstructs_symmetric(a in spd_matrix()) {
        let e = SymmetricEigen::new(&a).unwrap();
        prop_assert!((&e.reconstruct() - &a).max_abs() < 1e-8);
        // SPD ⇒ all eigenvalues ≥ 1 (we added I to BᵀB).
        for &lam in &e.values {
            prop_assert!(lam > 0.5);
        }
    }

    #[test]
    fn matmul_associativity(n in 1usize..4, data in prop::collection::vec(-1.0f64..1.0, 64)) {
        // (AB)C == A(BC) for compatible squares built from the same pool.
        prop_assume!(data.len() >= 3 * n * n);
        let a = Matrix::from_column_major(n, n, data[0..n*n].to_vec());
        let b = Matrix::from_column_major(n, n, data[n*n..2*n*n].to_vec());
        let c = Matrix::from_column_major(n, n, data[2*n*n..3*n*n].to_vec());
        let product = |x: &Matrix, y: &Matrix| {
            let mut out = Matrix::default();
            x.matmul_into(y, &mut out).unwrap();
            out
        };
        let left = product(&product(&a, &b), &c);
        let right = product(&a, &product(&b, &c));
        prop_assert!((&left - &right).max_abs() < 1e-10);
    }

    #[test]
    fn transpose_product_identity(a in tall_matrix()) {
        // (Aᵀ A) symmetric.
        let mut g = Matrix::default();
        a.tr_matmul_into(&a, &mut g).unwrap();
        prop_assert!(g.is_symmetric(1e-12));
    }
}

#[test]
fn quadrature_gauss_legendre_weights_positive() {
    for n in 1..40 {
        let (_, w) = wildfire_math::quadrature::gauss_legendre(n);
        assert!(w.iter().all(|&x| x > 0.0), "order {n}");
    }
}
