//! The fire model state `(ψ, t_i)`.
//!
//! §3.3: "The state of the model consists of the level set function ψ and
//! the ignition time t_i, both given as arrays of values associated with
//! grid nodes. These grid arrays can be modified by data assimilation
//! methods with relative ease" — which is exactly why the state is stored as
//! two plain scalar fields here.

use crate::ignition::{initial_level_set, IgnitionShape};
use crate::kernel::{leading_run, trailing_run};
use crate::UNBURNED;
use wildfire_grid::{Field2, Grid2, NodeBox};

/// Fire state: level-set field ψ (burning where ψ < 0) and ignition-time
/// field `t_i` (UNBURNED = +∞ where the fire has not arrived).
#[derive(Debug, Clone, PartialEq)]
pub struct FireState {
    /// Level-set function; the fireline is the zero level set.
    pub psi: Field2,
    /// Node ignition times (s, simulation clock); `UNBURNED` if not ignited.
    pub tig: Field2,
    /// Simulation time this state is valid at (s).
    pub time: f64,
}

impl FireState {
    /// Cold state: no fire anywhere.
    pub fn unburned(grid: Grid2) -> Self {
        FireState {
            psi: initial_level_set(grid, &[]),
            tig: Field2::filled(grid, UNBURNED),
            time: 0.0,
        }
    }

    /// State ignited at `time` from the union of shapes: ψ is the exact
    /// signed distance; nodes inside burn with ignition time `time`.
    pub fn ignite(grid: Grid2, shapes: &[IgnitionShape], time: f64) -> Self {
        let psi = initial_level_set(grid, shapes);
        let mut tig = Field2::filled(grid, UNBURNED);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                if psi.get(ix, iy) < 0.0 {
                    tig.set(ix, iy, time);
                }
            }
        }
        FireState { psi, tig, time }
    }

    /// The grid both fields live on.
    pub fn grid(&self) -> Grid2 {
        self.psi.grid()
    }

    /// Burned area (m²): nodes with ψ < 0 weighted by cell area.
    pub fn burned_area(&self) -> f64 {
        let g = self.grid();
        self.psi.count_where(|v| v < 0.0) as f64 * g.dx * g.dy
    }

    /// Number of burning nodes.
    pub fn burned_nodes(&self) -> usize {
        self.psi.count_where(|v| v < 0.0)
    }

    /// Bounding box of the ignited nodes (`t_i ≠ UNBURNED`) — outside it
    /// the fire releases no heat. Empty when nothing has ignited.
    pub fn ignited_box(&self) -> NodeBox {
        let mut bx = NodeBox::EMPTY;
        for iy in 0..self.grid().ny {
            let row = self.tig.row(iy);
            let first = leading_run(row, UNBURNED);
            bx.cover_row(iy, first, row.len() - trailing_run(&row[first..], UNBURNED));
        }
        bx
    }

    /// Both fields finite (ψ always; t_i allowed to be +∞) and consistent:
    /// every node with ψ < 0 has an ignition time.
    pub fn is_consistent(&self) -> bool {
        if !self.psi.all_finite() {
            return false;
        }
        let g = self.grid();
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let burned = self.psi.get(ix, iy) < 0.0;
                let has_tig = self.tig.get(ix, iy) < UNBURNED;
                if burned && !has_tig {
                    return false;
                }
            }
        }
        true
    }

    /// Packs `(ψ, t_i)` into one flat vector `[ψ…, t_i…]` for the ensemble
    /// filter. `t_i = UNBURNED` entries are encoded as `time_cap` so the
    /// vector stays finite (the filter cannot average infinities); use the
    /// matching [`FireState::unpack_into`] with the same cap.
    pub fn pack(&self, time_cap: f64) -> Vec<f64> {
        let mut v = vec![0.0; 2 * self.psi.as_slice().len()];
        self.pack_into(time_cap, &mut v);
        v
    }

    /// Allocation-free [`FireState::pack`]: writes `[ψ…, t_i…]` into `out`.
    ///
    /// # Panics
    /// Panics if `out.len()` is not exactly twice the grid size.
    pub fn pack_into(&self, time_cap: f64, out: &mut [f64]) {
        let n = self.psi.as_slice().len();
        assert_eq!(out.len(), 2 * n, "packed state length mismatch");
        out[..n].copy_from_slice(self.psi.as_slice());
        for (o, &t) in out[n..].iter_mut().zip(self.tig.as_slice().iter()) {
            *o = t.min(time_cap);
        }
    }

    /// Restores the `(ψ, t_i)` consistency invariants after data
    /// assimilation has mixed fields: burning nodes (ψ < 0) lacking an
    /// ignition time get `fallback_time`; non-burning nodes get `UNBURNED`;
    /// finite ignition times are clamped to `[0, time_cap)`. Assimilation
    /// produces linear combinations (or morphs) of member fields, which can
    /// individually violate these invariants.
    pub fn sanitize(&mut self, time_cap: f64, fallback_time: f64) {
        let g = self.grid();
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let burning = self.psi.get(ix, iy) < 0.0;
                let tig = self.tig.get(ix, iy);
                if burning {
                    if tig >= time_cap || tig.is_nan() {
                        self.tig.set(ix, iy, fallback_time);
                    } else if tig < 0.0 {
                        self.tig.set(ix, iy, 0.0);
                    }
                } else {
                    self.tig.set(ix, iy, UNBURNED);
                }
            }
        }
    }

    /// Inverse of [`FireState::pack`]: overwrites this state from the
    /// packed vector, reusing the field storage (the grid is kept). Entries
    /// of the t_i block at or above `time_cap` become `UNBURNED` again.
    ///
    /// # Panics
    /// Panics if `v.len()` is not exactly twice the grid size.
    pub fn unpack_into(&mut self, v: &[f64], time_cap: f64, time: f64) {
        let n = self.grid().len();
        assert_eq!(v.len(), 2 * n, "packed state length mismatch");
        self.psi.as_mut_slice().copy_from_slice(&v[..n]);
        for (o, &t) in self.tig.as_mut_slice().iter_mut().zip(v[n..].iter()) {
            *o = if t >= time_cap { UNBURNED } else { t };
        }
        self.time = time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid2 {
        Grid2::new(11, 11, 1.0, 1.0).unwrap()
    }

    #[test]
    fn unburned_state_has_no_fire() {
        let s = FireState::unburned(grid());
        assert_eq!(s.burned_nodes(), 0);
        assert_eq!(s.burned_area(), 0.0);
        assert!(s.is_consistent());
    }

    #[test]
    fn ignite_sets_times_inside() {
        let shapes = [IgnitionShape::Circle {
            center: (5.0, 5.0),
            radius: 2.0,
        }];
        let s = FireState::ignite(grid(), &shapes, 3.0);
        assert_eq!(s.tig.get(5, 5), 3.0);
        assert_eq!(s.tig.get(0, 0), UNBURNED);
        assert!(s.is_consistent());
        assert!(s.burned_area() > 0.0);
    }

    #[test]
    fn consistency_detects_missing_ignition_time() {
        let shapes = [IgnitionShape::Circle {
            center: (5.0, 5.0),
            radius: 2.0,
        }];
        let mut s = FireState::ignite(grid(), &shapes, 0.0);
        s.tig.set(5, 5, UNBURNED); // burning node without ignition time
        assert!(!s.is_consistent());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let shapes = [IgnitionShape::Circle {
            center: (4.0, 6.0),
            radius: 2.5,
        }];
        let s = FireState::ignite(grid(), &shapes, 1.0);
        let cap = 1e4;
        let v = s.pack(cap);
        assert!(v.iter().all(|x| x.is_finite()));
        let mut s2 = FireState::ignite(grid(), &[], 0.0);
        s2.unpack_into(&v, cap, s.time);
        assert_eq!(s.psi, s2.psi);
        assert_eq!(s.tig, s2.tig);
    }

    #[test]
    #[should_panic(expected = "packed state length mismatch")]
    fn unpack_rejects_bad_length() {
        FireState::ignite(grid(), &[], 0.0).unpack_into(&[0.0; 7], 1e4, 0.0);
    }

    #[test]
    fn sanitize_restores_invariants() {
        let shapes = [IgnitionShape::Circle {
            center: (5.0, 5.0),
            radius: 3.0,
        }];
        let mut s = FireState::ignite(grid(), &shapes, 2.0);
        // Violate the invariants the way assimilation can.
        s.tig.set(5, 5, UNBURNED); // burning without ignition time
        s.tig.set(0, 0, 3.0); // ignition time on unburned node
        s.tig.set(5, 6, -7.0); // negative ignition time
        assert!(!s.is_consistent());
        s.sanitize(1e4, 2.5);
        assert!(s.is_consistent());
        assert_eq!(s.tig.get(5, 5), 2.5);
        assert_eq!(s.tig.get(0, 0), UNBURNED);
        assert_eq!(s.tig.get(5, 6), 0.0);
    }
}
