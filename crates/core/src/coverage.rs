//! Coverage analysis on top of REMs: the introduction's motivating uses.
//!
//! §I argues REMs are "beneficial and utilized more broadly, for example in
//! optimizing the positioning of UAVs serving as mobile relays or planning
//! the extensions of any wireless networking infrastructure by adding
//! Access Points … to cover 'dark' connectivity regions". This module does
//! both: find the dark cells of a multi-AP coverage map and greedily place
//! a relay/AP to cover as many as possible.

use aerorem_spatial::Vec3;

use crate::rem::RemGrid;

/// Multi-AP coverage: per cell, the best (maximum) RSS over all mapped APs.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageMap {
    cells: Vec<(Vec3, f64)>,
}

impl CoverageMap {
    /// Combines per-AP REMs into a best-server coverage map.
    ///
    /// All grids must share one lattice (generate them with the same
    /// resolution).
    ///
    /// Returns `None` when `grids` is empty or shapes disagree.
    pub fn from_rems(grids: &[RemGrid]) -> Option<Self> {
        let first = grids.first()?;
        if grids.iter().any(|g| g.lattice() != first.lattice()) {
            return None;
        }
        let mut cells: Vec<(Vec3, f64)> = first.cells().collect();
        for g in &grids[1..] {
            for ((_, best), (_, v)) in cells.iter_mut().zip(g.cells()) {
                if v > *best {
                    *best = v;
                }
            }
        }
        Some(CoverageMap { cells })
    }

    /// All `(position, best RSS)` cells.
    pub fn cells(&self) -> &[(Vec3, f64)] {
        &self.cells
    }

    /// Cells whose best-server RSS is below `threshold_dbm` — the "dark"
    /// connectivity regions.
    pub fn dark_cells(&self, threshold_dbm: f64) -> Vec<Vec3> {
        self.cells
            .iter()
            .filter(|(_, v)| *v < threshold_dbm)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Fraction of the volume covered at the threshold.
    pub fn coverage_fraction(&self, threshold_dbm: f64) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        let covered = self
            .cells
            .iter()
            .filter(|(_, v)| *v >= threshold_dbm)
            .count();
        covered as f64 / self.cells.len() as f64
    }

    /// Greedy relay/AP placement: the candidate position (among cell
    /// centers) that covers the most dark cells within `relay_radius_m`.
    ///
    /// Returns `None` in two cases: there are no dark cells (coverage is
    /// complete; a NaN threshold makes every comparison false, so it finds
    /// none either), or no candidate lies within `relay_radius_m` of a dark
    /// cell, which happens for a negative or NaN radius. Every dark cell is
    /// itself a candidate, so a radius of 0 or more always finds one.
    pub fn suggest_relay(&self, threshold_dbm: f64, relay_radius_m: f64) -> Option<RelayPlan> {
        let dark = self.dark_cells(threshold_dbm);
        if dark.is_empty() {
            return None;
        }
        let mut best: Option<RelayPlan> = None;
        for &(candidate, _) in &self.cells {
            let covered = dark
                .iter()
                .filter(|d| d.distance(candidate) <= relay_radius_m)
                .count();
            let better = match &best {
                Some(b) => covered > b.dark_cells_covered,
                None => covered > 0,
            };
            if better {
                best = Some(RelayPlan {
                    position: candidate,
                    dark_cells_covered: covered,
                    dark_cells_total: dark.len(),
                });
            }
        }
        best
    }
}

/// A suggested relay/AP placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayPlan {
    /// Where to put the relay.
    pub position: Vec3,
    /// Dark cells within the relay's radius.
    pub dark_cells_covered: usize,
    /// Total dark cells before placement.
    pub dark_cells_total: usize,
}

impl RelayPlan {
    /// Fraction of the dark region this placement fixes.
    pub fn fix_fraction(&self) -> f64 {
        if self.dark_cells_total == 0 {
            1.0
        } else {
            self.dark_cells_covered as f64 / self.dark_cells_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{preprocess, PreprocessConfig};
    use crate::rem::RemGrid;
    use aerorem_mission::{Sample, SampleSet};
    use aerorem_ml::knn::KnnRegressor;
    use aerorem_ml::Regressor as _;
    use aerorem_propagation::ap::{MacAddress, Ssid};
    use aerorem_propagation::WifiChannel;
    use aerorem_simkit::SimTime;
    use aerorem_spatial::Aabb;
    use aerorem_uav::UavId;

    /// Two APs: one strong at low x, one strong at high x, weak belt in the
    /// middle.
    fn rems() -> Vec<RemGrid> {
        let volume = Aabb::paper_volume();
        let mut set = SampleSet::new();
        for i in 0..120 {
            let pos = volume.lerp_point(
                (i % 6) as f64 / 5.0,
                ((i / 6) % 5) as f64 / 4.0,
                (i / 30) as f64 / 3.0,
            );
            // AP 1 decays fast with x; AP 2 decays fast with (max-x).
            set.push(sample(1, pos, -50.0 - 22.0 * pos.x));
            set.push(sample(2, pos, -50.0 - 22.0 * (3.74 - pos.x)));
        }
        let (data, layout, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        let mut knn = KnnRegressor::paper_tuned();
        knn.fit(&data.x, &data.y).unwrap();
        vec![
            RemGrid::generate(&knn, &layout, volume, 0.4, MacAddress::from_index(1)).unwrap(),
            RemGrid::generate(&knn, &layout, volume, 0.4, MacAddress::from_index(2)).unwrap(),
        ]
    }

    fn sample(mac: u32, pos: aerorem_spatial::Vec3, rssi: f64) -> Sample {
        Sample {
            uav: UavId(0),
            waypoint_index: 0,
            position: pos,
            true_position: pos,
            ssid: Ssid::new(format!("net{mac}")),
            mac: MacAddress::from_index(mac),
            channel: WifiChannel::new(6).unwrap(),
            rssi_dbm: rssi.round() as i32,
            timestamp: SimTime::ZERO,
        }
    }

    #[test]
    fn best_server_combination() {
        let grids = rems();
        let cov = CoverageMap::from_rems(&grids).unwrap();
        assert_eq!(cov.cells().len(), grids[0].len());
        // Near x=0 the best server is AP1's strong signal.
        let strong_left = cov
            .cells()
            .iter()
            .filter(|(p, _)| p.x < 0.5)
            .map(|(_, v)| *v)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(strong_left > -65.0, "left edge best {strong_left}");
    }

    #[test]
    fn dark_belt_in_the_middle() {
        let cov = CoverageMap::from_rems(&rems()).unwrap();
        // Both APs are ~−91 dBm mid-volume: dark at a −80 dBm threshold.
        let dark = cov.dark_cells(-80.0);
        assert!(!dark.is_empty());
        let mean_x = dark.iter().map(|p| p.x).sum::<f64>() / dark.len() as f64;
        assert!(
            (1.2..=2.6).contains(&mean_x),
            "dark belt should sit mid-x, centroid {mean_x}"
        );
        // Coverage improves when the threshold drops.
        assert!(cov.coverage_fraction(-95.0) >= cov.coverage_fraction(-80.0));
    }

    #[test]
    fn relay_lands_in_the_dark_belt() {
        let cov = CoverageMap::from_rems(&rems()).unwrap();
        let plan = cov.suggest_relay(-80.0, 1.0).unwrap();
        assert!(
            (1.0..=2.8).contains(&plan.position.x),
            "relay at x={}",
            plan.position.x
        );
        assert!(plan.dark_cells_covered > 0);
        assert!(plan.fix_fraction() > 0.2);
        assert!(plan.fix_fraction() <= 1.0);
    }

    #[test]
    fn complete_coverage_needs_no_relay() {
        let cov = CoverageMap::from_rems(&rems()).unwrap();
        assert!(cov.suggest_relay(-200.0, 1.0).is_none());
        assert_eq!(cov.coverage_fraction(-200.0), 1.0);
    }

    #[test]
    fn mismatched_grids_rejected() {
        let grids = rems();
        let volume = Aabb::paper_volume();
        // A grid with a different resolution cannot combine.
        let mut set = SampleSet::new();
        for i in 0..20 {
            set.push(sample(1, volume.lerp_point(i as f64 / 19.0, 0.5, 0.5), -60.0));
        }
        let (data, layout, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        let mut knn = KnnRegressor::paper_tuned();
        knn.fit(&data.x, &data.y).unwrap();
        let odd =
            RemGrid::generate(&knn, &layout, volume, 1.5, MacAddress::from_index(1)).unwrap();
        assert!(CoverageMap::from_rems(&[grids[0].clone(), odd]).is_none());
        assert!(CoverageMap::from_rems(&[]).is_none());
    }
}
