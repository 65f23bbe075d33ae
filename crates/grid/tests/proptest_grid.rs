//! Property-based tests for fields, samplers, and transfer operators.

use proptest::prelude::*;
use wildfire_grid::transfer::{prolong_into, restrict_into};
use wildfire_grid::{Field2, Grid2, VectorField2};

fn arb_grid() -> impl Strategy<Value = Grid2> {
    (2usize..12, 2usize..12, 0.5f64..5.0, 0.5f64..5.0)
        .prop_map(|(nx, ny, dx, dy)| Grid2::new(nx, ny, dx, dy).unwrap())
}

proptest! {
    #[test]
    fn bilinear_sample_within_field_range(
        g in arb_grid(),
        seed in 0u64..1000,
        px in 0.0f64..1.0,
        py in 0.0f64..1.0,
    ) {
        let f = Field2::from_fn(g, |ix, iy| (((ix * 31 + iy * 17 + seed as usize) % 13) as f64) - 6.0);
        let (lo, hi) = f.min_max();
        let (ex, ey) = g.extent();
        let v = f.sample_bilinear(px * ex, py * ey);
        // Convex combination of node values stays in their range.
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn bilinear_exact_at_nodes(g in arb_grid(), seed in 0u64..1000) {
        let f = Field2::from_fn(g, |ix, iy| ((ix * 7 + iy * 11 + seed as usize) % 19) as f64);
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let (x, y) = g.world(ix, iy);
                prop_assert!((f.sample_bilinear(x, y) - f.get(ix, iy)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn samplers_exact_on_linear_everywhere(
        g in arb_grid(),
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
        c in -5.0f64..5.0,
        px in -0.2f64..1.2,
        py in -0.2f64..1.2,
    ) {
        let f = Field2::from_world_fn(g, |x, y| a * x + b * y + c);
        let (ex, ey) = g.extent();
        // Clamp the probe inside the domain for the exactness check.
        let x = (px * ex).clamp(0.0, ex);
        let y = (py * ey).clamp(0.0, ey);
        let truth = a * x + b * y + c;
        prop_assert!((f.sample_bilinear(x, y) - truth).abs() < 1e-9);
        prop_assert!((f.sample_bicubic(x, y) - truth).abs() < 1e-9);
        if g.nx >= 3 && g.ny >= 3 {
            prop_assert!((f.sample_biquadratic(x, y) - truth).abs() < 1e-9);
        }
    }

    #[test]
    fn restriction_preserves_constant_and_range(
        nc in 2usize..6,
        r in 1usize..5,
        value in -10.0f64..10.0,
    ) {
        let coarse_g = Grid2::new(nc, nc, 12.0, 12.0).unwrap();
        let nf = r * (nc - 1) + 1;
        let fine_g = Grid2::new(nf, nf, 12.0 / r as f64, 12.0 / r as f64).unwrap();
        let fine = Field2::filled(fine_g, value);
        let mut coarse = Field2::zeros(coarse_g);
        restrict_into(&fine, &mut coarse).unwrap();
        for v in coarse.as_slice() {
            prop_assert!((v - value).abs() < 1e-10);
        }
    }

    #[test]
    fn prolong_stays_within_coarse_range(nc in 2usize..6, r in 1usize..5, seed in 0u64..100) {
        let coarse_g = Grid2::new(nc, nc, 12.0, 12.0).unwrap();
        let nf = r * (nc - 1) + 1;
        let fine_g = Grid2::new(nf, nf, 12.0 / r as f64, 12.0 / r as f64).unwrap();
        let coarse = Field2::from_fn(coarse_g, |ix, iy| ((ix * 5 + iy * 3 + seed as usize) % 9) as f64);
        let (lo, hi) = coarse.min_max();
        let mut fine = Field2::zeros(fine_g);
        prolong_into(&coarse, &mut fine).unwrap();
        let (flo, fhi) = fine.min_max();
        prop_assert!(flo >= lo - 1e-10 && fhi <= hi + 1e-10);
    }

    #[test]
    fn inverse_displace_roundtrip(
        amp in 0.0f64..0.3,
        x in 2.0f64..8.0,
        y in 2.0f64..8.0,
    ) {
        let g = Grid2::new(11, 11, 1.0, 1.0).unwrap();
        let t = VectorField2::from_fn(g, |ix, iy| {
            let fx = ix as f64 / 10.0;
            let fy = iy as f64 / 10.0;
            (amp * (2.0 * fx).sin(), amp * (3.0 * fy).cos())
        });
        let (px, py) = t.displace(x, y);
        let (qx, qy) = t.inverse_displace(px, py, 200, 1e-13);
        prop_assert!((qx - x).abs() < 1e-5);
        prop_assert!((qy - y).abs() < 1e-5);
    }

    #[test]
    fn field_axpy_linear_in_alpha(g in arb_grid(), alpha in -3.0f64..3.0) {
        let a = Field2::from_fn(g, |ix, iy| (ix + iy) as f64);
        let b = Field2::from_fn(g, |ix, iy| (ix as f64 - iy as f64) * 0.5);
        let mut c = a.clone();
        c.axpy(alpha, &b).unwrap();
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let expected = a.get(ix, iy) + alpha * b.get(ix, iy);
                prop_assert!((c.get(ix, iy) - expected).abs() < 1e-12);
            }
        }
    }
}
