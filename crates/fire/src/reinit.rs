//! Signed-distance reinitialization by fast sweeping.
//!
//! The morphing EnKF mixes level-set fields from different ensemble members;
//! after a few analysis cycles ψ drifts away from the signed-distance
//! property the paper's initialization establishes. Reinitializing restores
//! `‖∇ψ‖ ≈ 1` while preserving the zero level set, keeping registration and
//! subsequent propagation well-scaled.
//!
//! One entry point, [`reinitialize_into`], which takes a [`ReinitWorkspace`]
//! and performs no steady-state heap allocation — the sweeps iterate index
//! arithmetic directly instead of materializing traversal-order vectors.

use crate::workspace::ReinitWorkspace;
use wildfire_grid::Field2;

/// Rebuilds ψ as an approximate signed distance to its own zero level set:
/// writes the reinitialized field into `out` (re-targeted to ψ's grid)
/// using workspace scratch.
///
/// Two phases:
/// 1. Initialize distances exactly on the nodes adjacent to the interface
///    (linear interpolation of the crossing along grid edges);
/// 2. Four fast-sweeping passes of the Eikonal update `‖∇ψ‖ = 1`
///    (Gauss–Seidel in alternating diagonal orders), separately for the
///    positive and negative sides.
///
/// Fields with no sign change are copied unchanged (no interface to
/// measure distance from).
pub fn reinitialize_into(psi: &Field2, out: &mut Field2, ws: &mut ReinitWorkspace) {
    let g = psi.grid();
    let n = g.len();
    ws.dist.clear();
    ws.dist.resize(n, f64::INFINITY);
    ws.frozen.clear();
    ws.frozen.resize(n, false);
    let dist = &mut ws.dist;
    let frozen = &mut ws.frozen;

    // Phase 1: interface-adjacent nodes get exact edge distances.
    let mut any_interface = false;
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let v = psi.get(ix, iy);
            let mut best: f64 = f64::INFINITY;
            let mut consider = |w: f64, h: f64| {
                if (v < 0.0) != (w < 0.0) && v != w {
                    let d = h * (v / (v - w)).abs();
                    best = best.min(d);
                }
            };
            if ix + 1 < g.nx {
                consider(psi.get(ix + 1, iy), g.dx);
            }
            if ix > 0 {
                consider(psi.get(ix - 1, iy), g.dx);
            }
            if iy + 1 < g.ny {
                consider(psi.get(ix, iy + 1), g.dy);
            }
            if iy > 0 {
                consider(psi.get(ix, iy - 1), g.dy);
            }
            if v == 0.0 {
                best = 0.0;
            }
            if best.is_finite() {
                let id = g.idx(ix, iy);
                dist[id] = best;
                frozen[id] = true;
                any_interface = true;
            }
        }
    }
    if !any_interface {
        out.copy_from(psi);
        return;
    }

    // Phase 2: fast sweeping for the unsigned distance.
    let eikonal_update = |a: f64, b: f64, hx: f64, hy: f64| -> f64 {
        // Solve max(0,(d−a)/hx)² + max(0,(d−b)/hy)² = 1 for d ≥ max(a,b).
        let (amin, bmin, h1, h2) = if a <= b {
            (a, b, hx, hy)
        } else {
            (b, a, hy, hx)
        };
        let d1 = amin + h1;
        if d1 <= bmin {
            return d1;
        }
        // Two-sided quadratic.
        let w1 = 1.0 / (h1 * h1);
        let w2 = 1.0 / (h2 * h2);
        let sum_w = w1 + w2;
        let mean = (w1 * amin + w2 * bmin) / sum_w;
        let diff = amin - bmin;
        let disc = 1.0 / sum_w - w1 * w2 * diff * diff / (sum_w * sum_w);
        if disc <= 0.0 {
            d1
        } else {
            mean + disc.sqrt()
        }
    };

    let nx = g.nx;
    let ny = g.ny;
    // Alternating diagonal orders (+x+y, −x+y, +x−y, −x−y), iterated by
    // index arithmetic — no traversal-order vectors, no allocation.
    const SWEEP_ORDERS: [(bool, bool); 4] =
        [(true, true), (false, true), (true, false), (false, false)];
    for _ in 0..2 {
        for &(x_fwd, y_fwd) in &SWEEP_ORDERS {
            for sy in 0..ny {
                let iy = if y_fwd { sy } else { ny - 1 - sy };
                for sx in 0..nx {
                    let ix = if x_fwd { sx } else { nx - 1 - sx };
                    let id = g.idx(ix, iy);
                    if frozen[id] {
                        continue;
                    }
                    let xm = if ix > 0 { dist[id - 1] } else { f64::INFINITY };
                    let xp = if ix + 1 < nx {
                        dist[id + 1]
                    } else {
                        f64::INFINITY
                    };
                    let ym = if iy > 0 { dist[id - nx] } else { f64::INFINITY };
                    let yp = if iy + 1 < ny {
                        dist[id + nx]
                    } else {
                        f64::INFINITY
                    };
                    let a = xm.min(xp);
                    let b = ym.min(yp);
                    if !a.is_finite() && !b.is_finite() {
                        continue;
                    }
                    let cand = if !b.is_finite() {
                        a + g.dx
                    } else if !a.is_finite() {
                        b + g.dy
                    } else {
                        eikonal_update(a, b, g.dx, g.dy)
                    };
                    if cand < dist[id] {
                        dist[id] = cand;
                    }
                }
            }
        }
    }

    // Re-apply the original sign. Every node is written, so the memset of
    // `resize_zeroed` is redundant.
    out.resize_no_zero(g);
    for (i, (o, &v)) in out
        .as_mut_slice()
        .iter_mut()
        .zip(psi.as_slice())
        .enumerate()
    {
        let sign = if v < 0.0 { -1.0 } else { 1.0 };
        let d = if dist[i].is_finite() {
            dist[i]
        } else {
            // Unreached corner (can only happen on pathological grids);
            // fall back to the original magnitude.
            v.abs()
        };
        *o = sign * d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ignition::{initial_level_set, IgnitionShape};
    use wildfire_grid::Grid2;

    /// Reinitializes with a fresh workspace.
    fn reinitialized(psi: &Field2) -> Field2 {
        let mut out = Field2::default();
        reinitialize_into(psi, &mut out, &mut ReinitWorkspace::new());
        out
    }

    #[test]
    fn exact_signed_distance_is_fixed_point() {
        let g = Grid2::new(41, 41, 1.0, 1.0).unwrap();
        let psi = initial_level_set(
            g,
            &[IgnitionShape::Circle {
                center: (20.0, 20.0),
                radius: 8.0,
            }],
        );
        let re = reinitialized(&psi);
        // Zero level set preserved and distances close to the original.
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let a = psi.get(ix, iy);
                let b = re.get(ix, iy);
                assert_eq!(a < 0.0, b < 0.0, "sign flip at ({ix},{iy})");
                assert!((a - b).abs() < 1.0, "({ix},{iy}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn restores_gradient_norm_of_scaled_field() {
        let g = Grid2::new(41, 41, 1.0, 1.0).unwrap();
        let mut psi = initial_level_set(
            g,
            &[IgnitionShape::Circle {
                center: (20.0, 20.0),
                radius: 8.0,
            }],
        );
        // Destroy the signed-distance property by a nonlinear rescale that
        // keeps the zero level set.
        psi.map_inplace(|v| v * (1.0 + 0.5 * v.abs() / 10.0));
        let re = reinitialized(&psi);
        // Check ‖∇ψ‖ ≈ 1 outside the fire, away from the interface and the
        // domain boundary. (Inside, the distance field legitimately has a
        // zero gradient on the medial axis — the circle center — so the
        // eikonal property only holds away from it.)
        let mut worst: f64 = 0.0;
        for iy in 3..g.ny - 3 {
            for ix in 3..g.nx - 3 {
                if re.get(ix, iy) < 2.0 {
                    continue; // interior + near-interface nodes
                }
                let (gx, gy) = re.gradient(ix, iy);
                let norm = (gx * gx + gy * gy).sqrt();
                worst = worst.max((norm - 1.0).abs());
            }
        }
        assert!(worst < 0.25, "gradient norm deviation {worst}");
    }

    #[test]
    fn no_interface_is_untouched() {
        let g = Grid2::new(11, 11, 1.0, 1.0).unwrap();
        let psi = initial_level_set(g, &[]);
        let re = reinitialized(&psi);
        assert_eq!(re, psi);
    }

    #[test]
    fn into_path_matches_wrapper_and_reuses_workspace() {
        // One workspace across different shapes and grid sizes must keep
        // producing exactly what a fresh workspace produces.
        let mut ws = ReinitWorkspace::new();
        let mut out = Field2::default();
        for (n, r) in [(31, 8.0), (21, 5.0), (41, 12.0)] {
            let g = Grid2::new(n, n, 1.0, 1.0).unwrap();
            let mut psi = initial_level_set(
                g,
                &[IgnitionShape::Circle {
                    center: (n as f64 / 2.0, n as f64 / 2.0),
                    radius: r,
                }],
            );
            psi.map_inplace(|v| v * (1.0 + 0.1 * v.abs()));
            reinitialize_into(&psi, &mut out, &mut ws);
            assert_eq!(out, reinitialized(&psi), "n = {n}");
        }
    }

    #[test]
    fn preserves_zero_crossing_location() {
        let g = Grid2::new(21, 21, 1.0, 1.0).unwrap();
        // Non-distance field with a known zero circle of radius 5:
        // ψ = r² − 25 (quadratic, gradient norm far from 1).
        let psi = wildfire_grid::Field2::from_world_fn(g, |x, y| {
            (x - 10.0).powi(2) + (y - 10.0).powi(2) - 25.0
        });
        let re = reinitialized(&psi);
        // The reinitialized field should vanish near radius 5.
        let v_inside = re.sample_bilinear(10.0 + 4.0, 10.0);
        let v_on = re.sample_bilinear(10.0 + 5.0, 10.0);
        let v_outside = re.sample_bilinear(10.0 + 6.0, 10.0);
        assert!(v_inside < 0.0);
        assert!(v_outside > 0.0);
        assert!(v_on.abs() < 0.6, "on-circle value {v_on}");
        // And magnitudes should approximate true distance |r − 5|.
        assert!((v_inside + 1.0).abs() < 0.5, "inside {v_inside}");
        assert!((v_outside - 1.0).abs() < 0.5, "outside {v_outside}");
    }
}
