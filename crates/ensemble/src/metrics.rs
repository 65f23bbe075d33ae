//! Ensemble verification metrics for the filter experiments (Fig. 4).

use wildfire_core::CoupledState;
use wildfire_fire::perimeter::{centroid_distance, symmetric_difference_area};
use wildfire_fire::FireState;

/// Summary of an ensemble's fit to a truth fire state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleMetrics {
    /// Mean distance between member burned-area centroids and the truth's
    /// centroid (m) — the position error that defeats the plain EnKF.
    pub mean_position_error: f64,
    /// Mean symmetric-difference area between members and truth (m²).
    pub mean_shape_error: f64,
    /// Std of the member centroid positions around their own mean (m) —
    /// the ensemble position spread.
    pub position_spread: f64,
    /// Fraction of members whose burning region is empty or fragmented
    /// into 3+ pieces when the truth has one — a "nonphysical state"
    /// indicator for the standard-EnKF failure mode.
    pub nonphysical_fraction: f64,
    /// Mean ratio of member burned area to truth burned area — detects the
    /// other standard-EnKF failure mode, additive updates that inflate the
    /// burning region instead of moving it.
    pub mean_area_ratio: f64,
}

/// Computes [`EnsembleMetrics`] for coupled states against a truth state
/// (borrows the fire components — no member state is cloned).
pub fn evaluate_coupled_ensemble(
    members: &[CoupledState],
    truth: &CoupledState,
) -> EnsembleMetrics {
    evaluate_fire_refs(members.iter().map(|m| &m.fire), &truth.fire)
}

fn evaluate_fire_refs<'a>(
    members: impl ExactSizeIterator<Item = &'a FireState>,
    truth: &FireState,
) -> EnsembleMetrics {
    let n = members.len().max(1) as f64;
    let mut pos_err = 0.0;
    let mut shape_err = 0.0;
    let mut centroids = Vec::new();
    let truth_components = wildfire_fire::perimeter::burning_components(&truth.psi);
    let truth_area = truth.burned_area().max(1e-9);
    let mut nonphysical = 0usize;
    let mut area_ratio = 0.0;
    for m in members {
        let d = centroid_distance(m, truth);
        pos_err += if d.is_finite() { d } else { 1e6 };
        shape_err += symmetric_difference_area(m, truth);
        area_ratio += m.burned_area() / truth_area;
        if let Some(c) = wildfire_fire::perimeter::burned_centroid(&m.psi) {
            centroids.push(c);
        }
        let comps = wildfire_fire::perimeter::burning_components(&m.psi);
        if comps == 0 || comps >= truth_components + 2 {
            nonphysical += 1;
        }
    }
    let position_spread = if centroids.len() >= 2 {
        let mx = centroids.iter().map(|c| c.0).sum::<f64>() / centroids.len() as f64;
        let my = centroids.iter().map(|c| c.1).sum::<f64>() / centroids.len() as f64;
        (centroids
            .iter()
            .map(|c| (c.0 - mx).powi(2) + (c.1 - my).powi(2))
            .sum::<f64>()
            / centroids.len() as f64)
            .sqrt()
    } else {
        0.0
    };
    EnsembleMetrics {
        mean_position_error: pos_err / n,
        mean_shape_error: shape_err / n,
        position_spread,
        nonphysical_fraction: nonphysical as f64 / n,
        mean_area_ratio: area_ratio / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_fire::ignition::IgnitionShape;
    use wildfire_grid::Grid2;

    fn fire_at(cx: f64) -> FireState {
        let g = Grid2::new(41, 41, 2.0, 2.0).unwrap();
        FireState::ignite(
            g,
            &[IgnitionShape::Circle {
                center: (cx, 40.0),
                radius: 8.0,
            }],
            0.0,
        )
    }

    #[test]
    fn perfect_ensemble_has_zero_errors() {
        let truth = fire_at(40.0);
        let members = [truth.clone(), truth.clone(), truth.clone()];
        let m = evaluate_fire_refs(members.iter(), &truth);
        assert_eq!(m.mean_position_error, 0.0);
        assert_eq!(m.mean_shape_error, 0.0);
        assert_eq!(m.position_spread, 0.0);
        assert_eq!(m.nonphysical_fraction, 0.0);
        assert!((m.mean_area_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn displaced_ensemble_measures_offset() {
        let truth = fire_at(40.0);
        let members = [fire_at(20.0), fire_at(24.0)];
        let m = evaluate_fire_refs(members.iter(), &truth);
        assert!(
            (m.mean_position_error - 18.0).abs() < 3.0,
            "position error {}",
            m.mean_position_error
        );
        assert!(m.mean_shape_error > 0.0);
        assert!(m.position_spread > 0.5);
    }

    #[test]
    fn empty_member_flagged_nonphysical() {
        let truth = fire_at(40.0);
        let g = truth.grid();
        let members = [FireState::unburned(g), fire_at(40.0)];
        let m = evaluate_fire_refs(members.iter(), &truth);
        assert!((m.nonphysical_fraction - 0.5).abs() < 1e-12);
        assert!(m.mean_position_error > 1e5, "empty member dominates");
    }
}
