//! Heterogeneous observation pools: [`ObsSet`].
//!
//! Fig. 2 feeds the EnKF from a *pool of data* — strided ψ grids, weather
//! stations, thermal images — in one analysis. An [`ObsSet`] packs any mix
//! of [`ObservationOperator`]s and their real measurement vectors into the
//! single `(y, H(X), R)` triple a Kalman analysis consumes, concatenating
//! block-wise in entry order. Packing is allocation-free in steady state
//! through an [`ObsWorkspace`] (for operators whose evaluation is — see
//! [`crate::operator`]).

use crate::operator::{ObsScratch, ObservationOperator};
use crate::{ObsError, Result};
use wildfire_core::CoupledState;
use wildfire_math::Matrix;

/// One entry of the pool: an observation operator plus the real
/// measurements it corresponds to (`data.len() == op.dim()`).
pub struct ObsEntry<'a> {
    /// The observation function for this data source.
    pub op: &'a dyn ObservationOperator,
    /// The real measurement vector `y` block.
    pub data: &'a [f64],
}

/// A pool of observation sources consumed by one analysis. Borrows its
/// operators and measurement vectors; build once per analysis time and
/// reuse across packing calls (the packed buffers live in the
/// [`ObsWorkspace`], so repacking the same set is allocation-free).
#[derive(Default)]
pub struct ObsSet<'a> {
    entries: Vec<ObsEntry<'a>>,
}

impl<'a> ObsSet<'a> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a data source to the pool.
    ///
    /// # Errors
    /// [`ObsError::Operator`] when the measurement vector's length does not
    /// match the operator's dimension.
    pub fn push(&mut self, op: &'a dyn ObservationOperator, data: &'a [f64]) -> Result<()> {
        if data.len() != op.dim() {
            return Err(ObsError::Operator(
                "measurement vector length differs from operator dimension",
            ));
        }
        self.entries.push(ObsEntry { op, data });
        Ok(())
    }

    /// The pooled entries, in packing order.
    pub fn entries(&self) -> &[ObsEntry<'a>] {
        &self.entries
    }

    /// Number of data sources in the pool.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total observation dimension `m` (sum over entries).
    pub fn total_dim(&self) -> usize {
        self.entries.iter().map(|e| e.op.dim()).sum()
    }

    /// Packs the pool against an ensemble into `ws`: the stacked
    /// measurement vector `y` (`ws.data`), the synthetic observations
    /// `H(X)` with one column per member (`ws.hx`), and the stacked
    /// error variances `R` diagonal (`ws.var`). Entries are stacked in
    /// insertion order; members are observed in slice order, so the packing
    /// is deterministic and bit-identical across repeated calls.
    ///
    /// # Errors
    /// Operator failures (grid mismatches, rendering errors).
    pub fn pack_into(&self, members: &[CoupledState], ws: &mut ObsWorkspace) -> Result<()> {
        self.pack_fixed_into(members.len(), ws);
        for (j, member) in members.iter().enumerate() {
            self.pack_member_column(member, ws.hx.col_mut(j), &mut ws.scratch)?;
        }
        Ok(())
    }

    /// The member-independent half of [`ObsSet::pack_into`]: stacks `y` and
    /// the `R` diagonal and sizes `H(X)` for `n_members` columns, leaving
    /// the columns zeroed. Pair with [`ObsSet::pack_member_column`] per
    /// member to reproduce `pack_into` exactly — the split exists so a
    /// caller with a worker pool can evaluate the member columns in
    /// parallel (each worker needs only its own [`ObsScratch`]).
    pub fn pack_fixed_into(&self, n_members: usize, ws: &mut ObsWorkspace) {
        let m = self.total_dim();
        ws.data.clear();
        for e in &self.entries {
            ws.data.extend_from_slice(e.data);
        }
        ws.var.clear();
        ws.var.resize(m, 0.0);
        let mut off = 0;
        for e in &self.entries {
            let d = e.op.dim();
            e.op.variances_into(&mut ws.var[off..off + d]);
            off += d;
        }
        ws.hx.resize_zeroed(m, n_members);
    }

    /// Evaluates every pooled operator on one member into that member's
    /// `H(X)` column (`col.len() == self.total_dim()`), block-stacked in
    /// entry order. The per-member half of the [`ObsSet::pack_fixed_into`]
    /// split; independent of every other member, so columns can be filled
    /// concurrently (results are bit-identical for any schedule).
    ///
    /// # Errors
    /// Operator failures (grid mismatches, rendering errors).
    pub fn pack_member_column(
        &self,
        member: &CoupledState,
        col: &mut [f64],
        scratch: &mut ObsScratch,
    ) -> Result<()> {
        let mut off = 0;
        for e in &self.entries {
            let d = e.op.dim();
            e.op.observe_into_ws(member, &mut col[off..off + d], scratch)?;
            off += d;
        }
        Ok(())
    }
}

/// Reusable packing buffers for [`ObsSet::pack_into`]: sized on first use,
/// reused thereafter. The filter consumes `data`, `hx`, and `var` directly.
#[derive(Debug, Clone, Default)]
pub struct ObsWorkspace {
    /// Stacked real measurements `y` (length `m`).
    pub data: Vec<f64>,
    /// Synthetic observations `H(X)` (`m × N`, one column per member).
    pub hx: Matrix,
    /// Stacked observation-error variances (diagonal of `R`, length `m`).
    pub var: Vec<f64>,
    /// Operator-evaluation scratch (surface fields, …).
    pub scratch: ObsScratch,
}

impl ObsWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// RMS innovation of the ensemble mean against the packed data:
    /// `sqrt(mean_i (y_i − mean_j H(x_j)_i)²)`. Call after
    /// [`ObsSet::pack_into`]; a drop between the forecast and the analysis
    /// packing is the data-side view of a successful analysis.
    pub fn innovation_rms(&self) -> f64 {
        let (m, n_ens) = self.hx.dims();
        if m == 0 || n_ens == 0 {
            return 0.0;
        }
        let mut ss = 0.0;
        for i in 0..m {
            let mut mean = 0.0;
            for j in 0..n_ens {
                mean += self.hx[(i, j)];
            }
            mean /= n_ens as f64;
            let r = self.data[i] - mean;
            ss += r * r;
        }
        (ss / m as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{StationTemperatures, StridedPsi};
    use crate::station::WeatherStation;
    use wildfire_atmos::state::AtmosGrid;
    use wildfire_atmos::AtmosParams;
    use wildfire_core::CoupledModel;
    use wildfire_fire::ignition::IgnitionShape;
    use wildfire_fire::FuelCategory;

    fn model() -> CoupledModel {
        CoupledModel::new(
            AtmosGrid {
                nx: 6,
                ny: 6,
                nz: 4,
                dx: 60.0,
                dy: 60.0,
                dz: 50.0,
            },
            AtmosParams::default(),
            FuelCategory::ShortGrass,
            4,
        )
        .unwrap()
    }

    fn members(m: &CoupledModel, n: usize) -> Vec<CoupledState> {
        (0..n)
            .map(|k| {
                m.ignite(
                    &[IgnitionShape::Circle {
                        center: (120.0 + 20.0 * k as f64, 150.0),
                        radius: 25.0,
                    }],
                    0.0,
                )
            })
            .collect()
    }

    #[test]
    fn heterogeneous_pack_stacks_blocks_in_order() {
        let m = model();
        let ens = members(&m, 3);
        let psi_op = StridedPsi::new(m.fire_grid, 9, 2.0);
        let st_op = StationTemperatures::new(
            vec![
                WeatherStation::new("A", 120.0, 150.0),
                WeatherStation::new("B", 220.0, 220.0),
            ],
            300.0,
            1.0,
        );
        let psi_data = vec![0.5; psi_op.dim()];
        let st_data = vec![301.0, 299.5];
        let mut set = ObsSet::new();
        set.push(&psi_op, &psi_data).unwrap();
        set.push(&st_op, &st_data).unwrap();
        assert_eq!(set.total_dim(), psi_op.dim() + 2);

        let mut ws = ObsWorkspace::new();
        set.pack_into(&ens, &mut ws).unwrap();
        assert_eq!(ws.data.len(), set.total_dim());
        assert_eq!(ws.hx.dims(), (set.total_dim(), 3));
        // y stacks the blocks verbatim.
        assert_eq!(&ws.data[..psi_op.dim()], psi_data.as_slice());
        assert_eq!(&ws.data[psi_op.dim()..], st_data.as_slice());
        // R stacks per-entry variances.
        assert!(ws.var[..psi_op.dim()].iter().all(|&v| v == 4.0));
        assert!(ws.var[psi_op.dim()..].iter().all(|&v| v == 1.0));
        // H(X) columns match per-operator evaluation.
        for (j, member) in ens.iter().enumerate() {
            let psi_obs = psi_op.observe(member).unwrap();
            let st_obs = st_op.observe(member).unwrap();
            let col = ws.hx.col(j);
            assert_eq!(&col[..psi_op.dim()], psi_obs.as_slice());
            assert_eq!(&col[psi_op.dim()..], st_obs.as_slice());
        }
    }

    #[test]
    fn repacking_is_deterministic() {
        let m = model();
        let ens = members(&m, 2);
        let psi_op = StridedPsi::new(m.fire_grid, 5, 1.0);
        let data = vec![0.0; psi_op.dim()];
        let mut set = ObsSet::new();
        set.push(&psi_op, &data).unwrap();
        let mut ws1 = ObsWorkspace::new();
        let mut ws2 = ObsWorkspace::new();
        set.pack_into(&ens, &mut ws1).unwrap();
        set.pack_into(&ens, &mut ws2).unwrap();
        set.pack_into(&ens, &mut ws1).unwrap();
        assert_eq!(ws1.hx.as_slice(), ws2.hx.as_slice());
        assert_eq!(ws1.data, ws2.data);
        assert_eq!(ws1.var, ws2.var);
    }

    #[test]
    fn mismatched_measurement_length_rejected() {
        let m = model();
        let psi_op = StridedPsi::new(m.fire_grid, 5, 1.0);
        let bad = vec![0.0; psi_op.dim() + 1];
        let mut set = ObsSet::new();
        assert!(set.push(&psi_op, &bad).is_err());
    }

    #[test]
    fn innovation_rms_measures_mean_misfit() {
        let m = model();
        let ens = members(&m, 2);
        let psi_op = StridedPsi::new(m.fire_grid, 3, 1.0);
        // Data exactly at the ensemble mean → zero innovation.
        let a = psi_op.observe(&ens[0]).unwrap();
        let b = psi_op.observe(&ens[1]).unwrap();
        let mean: Vec<f64> = a.iter().zip(&b).map(|(x, y)| (x + y) / 2.0).collect();
        let mut set = ObsSet::new();
        set.push(&psi_op, &mean).unwrap();
        let mut ws = ObsWorkspace::new();
        set.pack_into(&ens, &mut ws).unwrap();
        assert!(ws.innovation_rms() < 1e-12);
        // Shifted data → positive innovation.
        let shifted: Vec<f64> = mean.iter().map(|v| v + 3.0).collect();
        let mut set2 = ObsSet::new();
        set2.push(&psi_op, &shifted).unwrap();
        set2.pack_into(&ens, &mut ws).unwrap();
        assert!((ws.innovation_rms() - 3.0).abs() < 1e-9);
    }
}
