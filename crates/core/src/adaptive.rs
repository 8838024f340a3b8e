//! Uncertainty-driven adaptive resurvey.
//!
//! The paper flies a *fixed* even lattice. With a kriging confidence layer
//! ([`RemGrid::generate_with_variance`]) the toolchain can do better:
//! after an initial sparse survey, send the UAV back to exactly the places
//! the map is least certain about. This module picks those follow-up
//! waypoints by greedy *uncertainty-mass capture*: each pick maximizes the
//! total uncertainty within its influence radius, and the uncertainty it
//! captures is discounted before the next pick. Compared with picking the
//! raw highest-σ cells (which all sit on the volume boundary, where kriging
//! σ always peaks), mass capture places waypoints at the *centers* of
//! uncertain regions and spreads successive picks across distinct blind
//! spots — the standard greedy design for sequential variance reduction.

use aerorem_spatial::Vec3;

use crate::rem::RemGrid;

/// Selects up to `k` follow-up waypoints by greedy uncertainty-mass
/// capture over the summed sigma grids, enforcing a minimum pairwise
/// separation.
///
/// Each candidate cell is scored by the kernel-weighted uncertainty it
/// would capture, `Σ_j w_j · exp(−‖c − j‖² / r²)`, where the influence
/// radius `r` is the larger of `min_separation_m` and the equal-share
/// radius `(volume / k)^(1/3)`; after a pick, captured mass is discounted
/// by `1 − exp(−d²/r²)` so the next pick targets a different blind spot.
///
/// All grids must share one lattice (generate them at one resolution).
/// Returns fewer than `k` points when the separation constraint (or
/// exhausted uncertainty mass) stops the selection early, and an empty
/// vector when `sigma_grids` is empty or shapes disagree.
///
/// # Panics
///
/// Panics if `min_separation_m` is negative.
pub fn select_uncertain_waypoints(
    sigma_grids: &[RemGrid],
    k: usize,
    min_separation_m: f64,
) -> Vec<Vec3> {
    assert!(min_separation_m >= 0.0, "separation must be non-negative");
    let Some(first) = sigma_grids.first() else {
        return Vec::new();
    };
    if sigma_grids.iter().any(|g| g.lattice() != first.lattice()) {
        return Vec::new();
    }
    if k == 0 {
        return Vec::new();
    }
    // Total uncertainty per cell.
    let mut cells: Vec<(Vec3, f64)> = first.cells().collect();
    for g in &sigma_grids[1..] {
        for ((_, total), (_, v)) in cells.iter_mut().zip(g.cells()) {
            *total += v;
        }
    }
    // Influence radius: half the radius of a waypoint's equal share of the
    // volume. Wider kernels drag every pick toward the volume centroid;
    // narrower ones degenerate to raw argmax-σ (boundary-hugging).
    let size = first.volume().size();
    let share_radius = (size.x * size.y * size.z / k as f64).cbrt();
    let radius = min_separation_m.max(0.5 * share_radius).max(1e-9);
    let inv_r2 = 1.0 / (radius * radius);

    let positions: Vec<Vec3> = cells.iter().map(|&(p, _)| p).collect();
    let mut mass: Vec<f64> = cells.iter().map(|&(_, w)| w.max(0.0)).collect();
    let mut picked: Vec<Vec3> = Vec::with_capacity(k);
    while picked.len() < k {
        let mut best: Option<(usize, f64)> = None;
        for (i, &p) in positions.iter().enumerate() {
            if !picked.iter().all(|q| q.distance(p) >= min_separation_m) {
                continue;
            }
            let captured: f64 = positions
                .iter()
                .zip(&mass)
                .map(|(&q, &w)| w * (-p.distance(q).powi(2) * inv_r2).exp())
                .sum();
            if best.is_none_or(|(_, s)| captured > s) {
                best = Some((i, captured));
            }
        }
        let Some((i, captured)) = best else { break };
        if captured <= 0.0 {
            break;
        }
        let c = positions[i];
        picked.push(c);
        for (&q, w) in positions.iter().zip(mass.iter_mut()) {
            *w *= 1.0 - (-c.distance(q).powi(2) * inv_r2).exp();
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{preprocess, PreprocessConfig};
    use aerorem_mission::{Sample, SampleSet};
    use aerorem_ml::kriging::{KrigingConfig, OrdinaryKriging};
    use aerorem_ml::Regressor as _;
    use aerorem_propagation::ap::{MacAddress, Ssid};
    use aerorem_propagation::WifiChannel;
    use aerorem_simkit::SimTime;
    use aerorem_spatial::Aabb;
    use aerorem_uav::UavId;

    /// Samples concentrated in the low-x half: uncertainty must peak in the
    /// unsampled high-x half.
    fn sigma_grid() -> RemGrid {
        let volume = Aabb::paper_volume();
        let mut set = SampleSet::new();
        for i in 0..40 {
            let pos = volume.lerp_point(
                (i % 5) as f64 / 10.0, // x ∈ [0, 0.4] of the volume only
                ((i / 5) % 4) as f64 / 3.0,
                (i / 20) as f64 / 2.0,
            );
            set.push(Sample {
                uav: UavId(0),
                waypoint_index: i,
                position: pos,
                true_position: pos,
                ssid: Ssid::new("net"),
                mac: MacAddress::from_index(1),
                channel: WifiChannel::new(6).unwrap(),
                rssi_dbm: (-60.0 - 3.0 * pos.x - pos.y) as i32,
                timestamp: SimTime::ZERO,
            });
        }
        let (data, layout, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&data.x, &data.y).unwrap();
        let (_, sigma) = RemGrid::generate_with_confidence(
            &ok,
            &layout,
            volume,
            0.4,
            MacAddress::from_index(1),
        )
        .unwrap();
        sigma
    }

    #[test]
    fn picks_land_in_the_unsampled_region() {
        let sigma = sigma_grid();
        let picks = select_uncertain_waypoints(&[sigma], 6, 0.5);
        assert_eq!(picks.len(), 6);
        // Samples cover x ≲ 1.5 m; the blind half is x ≳ 2 m.
        let mean_x = picks.iter().map(|p| p.x).sum::<f64>() / picks.len() as f64;
        assert!(
            mean_x > 2.0,
            "uncertain picks should sit in the unsampled half, centroid x {mean_x}"
        );
    }

    #[test]
    fn separation_constraint_is_enforced() {
        let sigma = sigma_grid();
        let picks = select_uncertain_waypoints(&[sigma], 20, 2.0);
        for (i, a) in picks.iter().enumerate() {
            for b in picks.iter().skip(i + 1) {
                assert!(a.distance(*b) >= 2.0, "{a} and {b} too close");
            }
        }
        // A 2 m separation exhausts the 3.7x3.2x2.1 m volume well before
        // 20 picks.
        assert!(picks.len() < 20);
        assert!(!picks.is_empty());
    }

    #[test]
    fn degenerate_inputs() {
        assert!(select_uncertain_waypoints(&[], 5, 0.5).is_empty());
        let sigma = sigma_grid();
        assert!(select_uncertain_waypoints(std::slice::from_ref(&sigma), 0, 0.5).is_empty());
        // Zero separation: picks = k highest cells.
        let picks = select_uncertain_waypoints(&[sigma], 3, 0.0);
        assert_eq!(picks.len(), 3);
    }
}
