//! Fireline diagnostics.
//!
//! The Fig. 1 experiment needs quantitative front metrics (fireline length,
//! burned centroid, merging of separate ignitions) and the Fig. 4 experiment
//! needs a position error between two fires. All of those are derived here
//! from the zero level set.

use crate::state::FireState;
use wildfire_grid::Field2;

/// Total length (m) of the fireline: the zero level set traced cell by
/// cell with marching squares. Each cell contributes the straight segments
/// connecting its edge crossings; the ambiguous saddle case (all four edges
/// crossed) is resolved by the sign of the cell-center average, which keeps
/// the measure deterministic. Together with the burned area this is the
/// front metric the golden fig1 regression test pins.
pub fn perimeter_length(psi: &Field2) -> f64 {
    let g = psi.grid();
    if g.nx < 2 || g.ny < 2 {
        return 0.0;
    }
    let crossing = |a: f64, b: f64| -> Option<f64> {
        if (a < 0.0) != (b < 0.0) && a != b {
            Some(a / (a - b))
        } else {
            None
        }
    };
    let seg = |p: (f64, f64), q: (f64, f64)| ((p.0 - q.0).powi(2) + (p.1 - q.1).powi(2)).sqrt();
    let mut total = 0.0;
    for iy in 0..g.ny - 1 {
        for ix in 0..g.nx - 1 {
            let v00 = psi.get(ix, iy);
            let v10 = psi.get(ix + 1, iy);
            let v01 = psi.get(ix, iy + 1);
            let v11 = psi.get(ix + 1, iy + 1);
            // Edge crossings in cell-local coordinates, fixed edge order:
            // bottom, right, top, left.
            let mut pts = [(0.0, 0.0); 4];
            let mut on_edge = [false; 4];
            let mut count = 0;
            if let Some(t) = crossing(v00, v10) {
                pts[0] = (t * g.dx, 0.0);
                on_edge[0] = true;
                count += 1;
            }
            if let Some(t) = crossing(v10, v11) {
                pts[1] = (g.dx, t * g.dy);
                on_edge[1] = true;
                count += 1;
            }
            if let Some(t) = crossing(v01, v11) {
                pts[2] = (t * g.dx, g.dy);
                on_edge[2] = true;
                count += 1;
            }
            if let Some(t) = crossing(v00, v01) {
                pts[3] = (0.0, t * g.dy);
                on_edge[3] = true;
                count += 1;
            }
            match count {
                2 => {
                    let mut found: [usize; 2] = [0, 0];
                    let mut k = 0;
                    for (e, &hit) in on_edge.iter().enumerate() {
                        if hit {
                            found[k] = e;
                            k += 1;
                        }
                    }
                    total += seg(pts[found[0]], pts[found[1]]);
                }
                4 => {
                    // Saddle: v00/v11 share one sign, v10/v01 the other.
                    // If the center shares v00's sign the diagonal through
                    // v00–v11 is connected, isolating v10 (bottom+right)
                    // and v01 (top+left); otherwise the opposite pairing.
                    let center = 0.25 * (v00 + v10 + v01 + v11);
                    if (center < 0.0) == (v00 < 0.0) {
                        total += seg(pts[0], pts[1]) + seg(pts[2], pts[3]);
                    } else {
                        total += seg(pts[0], pts[3]) + seg(pts[1], pts[2]);
                    }
                }
                _ => {}
            }
        }
    }
    total
}

/// Area centroid of the burning region (ψ < 0); `None` when nothing burns.
pub fn burned_centroid(psi: &Field2) -> Option<(f64, f64)> {
    let g = psi.grid();
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut n = 0usize;
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            if psi.get(ix, iy) < 0.0 {
                let (x, y) = g.world(ix, iy);
                sx += x;
                sy += y;
                n += 1;
            }
        }
    }
    if n == 0 {
        None
    } else {
        Some((sx / n as f64, sy / n as f64))
    }
}

/// Position error between two fires: distance between burned centroids (m).
/// Infinite when exactly one of the two has no burning region, zero when
/// neither does (identical "no fire" states).
pub fn centroid_distance(a: &FireState, b: &FireState) -> f64 {
    match (burned_centroid(&a.psi), burned_centroid(&b.psi)) {
        (Some(ca), Some(cb)) => ((ca.0 - cb.0).powi(2) + (ca.1 - cb.1).powi(2)).sqrt(),
        (None, None) => 0.0,
        _ => f64::INFINITY,
    }
}

/// Symmetric-difference area between the burning regions of two states (m²)
/// — a stricter shape-aware error than the centroid distance.
///
/// # Panics
/// Panics if the states live on different grids.
pub fn symmetric_difference_area(a: &FireState, b: &FireState) -> f64 {
    let g = a.grid();
    assert_eq!(g, b.grid(), "states on different grids");
    let mut cells = 0usize;
    for (pa, pb) in a.psi.as_slice().iter().zip(b.psi.as_slice().iter()) {
        if (*pa < 0.0) != (*pb < 0.0) {
            cells += 1;
        }
    }
    cells as f64 * g.dx * g.dy
}

/// Counts the connected components of the burning region (4-connectivity).
/// Fig. 1's ignitions start as three separate components and merge into one.
pub fn burning_components(psi: &Field2) -> usize {
    let g = psi.grid();
    let mut visited = vec![false; g.len()];
    let mut components = 0;
    let mut stack = Vec::new();
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let start = g.idx(ix, iy);
            if visited[start] || psi.get(ix, iy) >= 0.0 {
                continue;
            }
            components += 1;
            stack.push((ix, iy));
            visited[start] = true;
            while let Some((cx, cy)) = stack.pop() {
                let mut push = |nx: usize, ny: usize| {
                    let id = g.idx(nx, ny);
                    if !visited[id] && psi.get(nx, ny) < 0.0 {
                        visited[id] = true;
                        stack.push((nx, ny));
                    }
                };
                if cx > 0 {
                    push(cx - 1, cy);
                }
                if cx + 1 < g.nx {
                    push(cx + 1, cy);
                }
                if cy > 0 {
                    push(cx, cy - 1);
                }
                if cy + 1 < g.ny {
                    push(cx, cy + 1);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ignition::IgnitionShape;
    use wildfire_grid::Grid2;

    fn circle_psi(radius: f64) -> Field2 {
        let g = Grid2::new(41, 41, 1.0, 1.0).unwrap();
        crate::ignition::initial_level_set(
            g,
            &[IgnitionShape::Circle {
                center: (20.0, 20.0),
                radius,
            }],
        )
    }

    #[test]
    fn centroid_of_circle_is_center() {
        let psi = circle_psi(8.0);
        let (cx, cy) = burned_centroid(&psi).unwrap();
        assert!((cx - 20.0).abs() < 0.5);
        assert!((cy - 20.0).abs() < 0.5);
    }

    #[test]
    fn perimeter_of_circle_matches_circumference() {
        let psi = circle_psi(10.0);
        let p = perimeter_length(&psi);
        let expected = 2.0 * std::f64::consts::PI * 10.0;
        assert!(
            (p - expected).abs() / expected < 0.03,
            "perimeter {p} vs 2πr {expected}"
        );
    }

    #[test]
    fn perimeter_of_half_plane_is_domain_width() {
        // ψ = y − 20.5 on a 41×41 unit grid: a straight horizontal front
        // crossing 40 cells → length 40.
        let g = Grid2::new(41, 41, 1.0, 1.0).unwrap();
        let psi = Field2::from_world_fn(g, |_, y| y - 20.5);
        assert!((perimeter_length(&psi) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn perimeter_saddle_cell_is_finite_and_counted() {
        // A 2×2 checkerboard cell: both diagonals burn — the ambiguous
        // marching-squares case must contribute two segments.
        let g = Grid2::new(2, 2, 1.0, 1.0).unwrap();
        let psi = Field2::from_vec(g, vec![-1.0, 1.0, 1.0, -1.0]);
        let p = perimeter_length(&psi);
        assert!(p > 0.0 && p.is_finite());
        // Two segments, each no longer than the cell diagonal.
        assert!(p < 2.0 * 2.0_f64.sqrt());
    }

    #[test]
    fn perimeter_empty_and_degenerate_grids_are_zero() {
        let g = Grid2::new(11, 11, 1.0, 1.0).unwrap();
        let psi = crate::ignition::initial_level_set(g, &[]);
        assert_eq!(perimeter_length(&psi), 0.0);
        let line = Grid2::new(5, 1, 1.0, 1.0).unwrap();
        assert_eq!(perimeter_length(&Field2::zeros(line)), 0.0);
    }

    #[test]
    fn empty_fire_yields_none() {
        let g = Grid2::new(11, 11, 1.0, 1.0).unwrap();
        let psi = crate::ignition::initial_level_set(g, &[]);
        assert!(burned_centroid(&psi).is_none());
        assert_eq!(burning_components(&psi), 0);
    }

    #[test]
    fn component_count_and_merging() {
        let g = Grid2::new(61, 61, 1.0, 1.0).unwrap();
        let two = crate::ignition::initial_level_set(
            g,
            &[
                IgnitionShape::Circle {
                    center: (15.0, 30.0),
                    radius: 5.0,
                },
                IgnitionShape::Circle {
                    center: (45.0, 30.0),
                    radius: 5.0,
                },
            ],
        );
        assert_eq!(burning_components(&two), 2);
        let merged = crate::ignition::initial_level_set(
            g,
            &[
                IgnitionShape::Circle {
                    center: (25.0, 30.0),
                    radius: 8.0,
                },
                IgnitionShape::Circle {
                    center: (35.0, 30.0),
                    radius: 8.0,
                },
            ],
        );
        assert_eq!(burning_components(&merged), 1);
    }

    #[test]
    fn centroid_distance_between_displaced_fires() {
        let g = Grid2::new(41, 41, 1.0, 1.0).unwrap();
        let mk = |cx: f64| {
            crate::state::FireState::ignite(
                g,
                &[IgnitionShape::Circle {
                    center: (cx, 20.0),
                    radius: 5.0,
                }],
                0.0,
            )
        };
        let a = mk(15.0);
        let b = mk(25.0);
        let d = centroid_distance(&a, &b);
        assert!((d - 10.0).abs() < 0.6, "distance {d}");
        assert_eq!(centroid_distance(&a, &a), 0.0);
    }

    #[test]
    fn symmetric_difference_of_disjoint_fires() {
        let g = Grid2::new(41, 41, 1.0, 1.0).unwrap();
        let a = crate::state::FireState::ignite(
            g,
            &[IgnitionShape::Circle {
                center: (10.0, 10.0),
                radius: 4.0,
            }],
            0.0,
        );
        let b = crate::state::FireState::ignite(
            g,
            &[IgnitionShape::Circle {
                center: (30.0, 30.0),
                radius: 4.0,
            }],
            0.0,
        );
        let sym = symmetric_difference_area(&a, &b);
        let sum = a.burned_area() + b.burned_area();
        assert!((sym - sum).abs() < 1e-9);
        assert_eq!(symmetric_difference_area(&a, &a), 0.0);
    }
}
