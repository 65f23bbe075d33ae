//! Ignition geometry and exact signed-distance initialization.
//!
//! The paper initializes the level-set function "to the signed distance from
//! the fireline" and its Fig. 1 experiment ignites "two line ignitions and
//! one circle ignition". This module provides those primitives and the
//! signed distance to an arbitrary union of shapes.

use wildfire_grid::{Field2, Grid2};
use wildfire_math::GaussianSampler;

/// A single ignition shape in world coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum IgnitionShape {
    /// A disk of burning area: center and radius (m).
    Circle {
        /// Center, world coordinates (m).
        center: (f64, f64),
        /// Radius (m), must be positive.
        radius: f64,
    },
    /// A line-segment ignition of the given half-width (m) — a thin burning
    /// strip, as laid by a drip torch or used in the paper's Fig. 1.
    Line {
        /// Segment start, world coordinates (m).
        start: (f64, f64),
        /// Segment end, world coordinates (m).
        end: (f64, f64),
        /// Half-width of the burning strip (m), must be positive.
        half_width: f64,
    },
}

impl IgnitionShape {
    /// Signed distance from a point to this shape: negative inside the
    /// burning region, positive outside, zero on the fireline.
    pub(crate) fn signed_distance(&self, x: f64, y: f64) -> f64 {
        match *self {
            IgnitionShape::Circle { center, radius } => {
                let d = ((x - center.0).powi(2) + (y - center.1).powi(2)).sqrt();
                d - radius
            }
            IgnitionShape::Line {
                start,
                end,
                half_width,
            } => {
                // Distance from the point to the segment.
                let (sx, sy) = start;
                let (ex, ey) = end;
                let dx = ex - sx;
                let dy = ey - sy;
                let len_sq = dx * dx + dy * dy;
                let t = if len_sq == 0.0 {
                    0.0
                } else {
                    (((x - sx) * dx + (y - sy) * dy) / len_sq).clamp(0.0, 1.0)
                };
                let px = sx + t * dx;
                let py = sy + t * dy;
                let d = ((x - px).powi(2) + (y - py).powi(2)).sqrt();
                d - half_width
            }
        }
    }

    /// The shape rigidly translated by `(dx, dy)` (m).
    pub fn translated(&self, dx: f64, dy: f64) -> IgnitionShape {
        match *self {
            IgnitionShape::Circle { center, radius } => IgnitionShape::Circle {
                center: (center.0 + dx, center.1 + dy),
                radius,
            },
            IgnitionShape::Line {
                start,
                end,
                half_width,
            } => IgnitionShape::Line {
                start: (start.0 + dx, start.1 + dy),
                end: (end.0 + dx, end.1 + dy),
                half_width,
            },
        }
    }
}

/// One random rigid displacement of an ignition set: draws Δx then Δy from
/// `rng` as `N(0, spread²)` and translates every shape by it.
///
/// This is the draw order of ensemble initialization: one call per member
/// in `wildfire_sim::perturb`, so equal seeds give bit-identical member
/// families.
pub fn displaced(
    shapes: &[IgnitionShape],
    spread: f64,
    rng: &mut GaussianSampler,
) -> Vec<IgnitionShape> {
    let dx = rng.normal(0.0, spread);
    let dy = rng.normal(0.0, spread);
    shapes.iter().map(|s| s.translated(dx, dy)).collect()
}

/// Signed distance to the union of shapes (pointwise minimum); positive
/// "far away" value when `shapes` is empty, so an empty ignition set means
/// "no fire anywhere".
pub fn signed_distance_union(shapes: &[IgnitionShape], x: f64, y: f64) -> f64 {
    shapes
        .iter()
        .map(|s| s.signed_distance(x, y))
        .fold(f64::INFINITY, f64::min)
}

/// Builds the initial level-set field ψ as the signed distance to the union
/// of the ignition shapes, evaluated at every grid node.
///
/// For an empty shape list the field is `+large` everywhere (no fire), where
/// `large` is the domain diagonal — finite so that downstream arithmetic
/// (morphing, EnKF) stays well-behaved.
pub fn initial_level_set(grid: Grid2, shapes: &[IgnitionShape]) -> Field2 {
    let (ex, ey) = grid.extent();
    let far = (ex * ex + ey * ey).sqrt().max(1.0);
    Field2::from_world_fn(grid, |x, y| {
        let d = signed_distance_union(shapes, x, y);
        if d.is_finite() {
            d
        } else {
            far
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_signed_distance() {
        let c = IgnitionShape::Circle {
            center: (5.0, 5.0),
            radius: 2.0,
        };
        assert!((c.signed_distance(5.0, 5.0) + 2.0).abs() < 1e-12); // center: −r
        assert!(c.signed_distance(7.0, 5.0).abs() < 1e-12); // on the line
        assert!((c.signed_distance(9.0, 5.0) - 2.0).abs() < 1e-12); // outside
    }

    #[test]
    fn line_signed_distance_endpoints_and_side() {
        let l = IgnitionShape::Line {
            start: (0.0, 0.0),
            end: (10.0, 0.0),
            half_width: 1.0,
        };
        // Point beside the middle of the segment.
        assert!((l.signed_distance(5.0, 3.0) - 2.0).abs() < 1e-12);
        // Inside the strip.
        assert!(l.signed_distance(5.0, 0.5) < 0.0);
        // Beyond the endpoint, distance is to the cap.
        assert!((l.signed_distance(13.0, 0.0) - 2.0).abs() < 1e-12);
        // Degenerate segment behaves like a circle.
        let p = IgnitionShape::Line {
            start: (1.0, 1.0),
            end: (1.0, 1.0),
            half_width: 0.5,
        };
        assert!((p.signed_distance(3.0, 1.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn union_takes_minimum() {
        let shapes = vec![
            IgnitionShape::Circle {
                center: (0.0, 0.0),
                radius: 1.0,
            },
            IgnitionShape::Circle {
                center: (10.0, 0.0),
                radius: 1.0,
            },
        ];
        // Midpoint is 4 m from both circles.
        assert!((signed_distance_union(&shapes, 5.0, 0.0) - 4.0).abs() < 1e-12);
        // Inside the second circle.
        assert!(signed_distance_union(&shapes, 10.0, 0.0) < 0.0);
    }

    #[test]
    fn initial_level_set_field_signs() {
        let grid = Grid2::new(21, 21, 1.0, 1.0).unwrap();
        let shapes = vec![IgnitionShape::Circle {
            center: (10.0, 10.0),
            radius: 3.0,
        }];
        let psi = initial_level_set(grid, &shapes);
        assert!(psi.get(10, 10) < 0.0);
        assert!(psi.get(0, 0) > 0.0);
        // Signed distance property at a known node: (14,10) is 1 m outside.
        assert!((psi.get(14, 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ignition_is_everywhere_positive() {
        let grid = Grid2::new(5, 5, 10.0, 10.0).unwrap();
        let psi = initial_level_set(grid, &[]);
        let (lo, _) = psi.min_max();
        assert!(lo > 0.0);
        assert!(psi.all_finite());
    }
}
