//! Mission planning: waypoint generation and fleet partitioning.
//!
//! §III-A: "72 locations evenly spread over the volume were identified, with
//! each UAV responsible for scanning 36 of them. The UAVs had 4 sec to fly
//! from a location to another and 3 sec for scanning." The client is
//! "configured to be able to control multiple UAVs with a matching set of
//! waypoints and parameters such as radio address, starting position, and
//! yaw", and scaling "can be done by simply adding sets of waypoints and
//! above-mentioned parameters".

use aerorem_simkit::SimDuration;
use aerorem_spatial::grid::{GridError, WaypointGrid};
use aerorem_spatial::{Aabb, Vec3};
use aerorem_uav::UavId;

/// The per-UAV portion of a mission.
#[derive(Debug, Clone, PartialEq)]
pub struct UavLeg {
    /// Which UAV flies this leg.
    pub uav: UavId,
    /// CRTP radio address byte (fleet UAVs get distinct addresses).
    pub radio_address_id: u8,
    /// Ground start position (also the landing spot).
    pub start: Vec3,
    /// Initial yaw in radians.
    pub yaw: f64,
    /// Waypoints in visit order.
    pub waypoints: Vec<Vec3>,
    /// Index of `waypoints[0]` within the originally planned leg. Zero for
    /// planned legs; a recovery re-flight of the unvisited tail carries the
    /// offset so samples keep their original waypoint annotation.
    pub waypoint_offset: usize,
}

impl UavLeg {
    /// The leg that re-flies this leg's unvisited tail after `visited`
    /// waypoints were completed, preserving waypoint annotations.
    pub fn recovery_tail(&self, visited: usize) -> Option<UavLeg> {
        if visited >= self.waypoints.len() {
            return None;
        }
        let remaining = self.waypoints.get(visited..)?.to_vec();
        let first = *remaining.first()?;
        Some(UavLeg {
            uav: self.uav,
            radio_address_id: self.radio_address_id,
            // A fresh battery launches from under the first missing
            // waypoint, like a planned leg.
            start: Vec3::new(first.x, first.y, self.start.z),
            yaw: self.yaw,
            waypoints: remaining,
            waypoint_offset: self.waypoint_offset + visited,
        })
    }
    /// Total distance along the leg from start through all waypoints.
    pub fn path_length(&self) -> f64 {
        let mut total = 0.0;
        let mut prev = self.start;
        for w in &self.waypoints {
            total += prev.distance(*w);
            prev = *w;
        }
        total
    }
}

/// A full multi-UAV mission plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionPlan {
    /// The scan volume.
    pub volume: Aabb,
    /// Time budget to fly between consecutive waypoints.
    pub travel_time: SimDuration,
    /// Time budget for each scan (radio off for this long).
    pub scan_time: SimDuration,
    /// Per-UAV legs, flown **sequentially** to avoid inter-UAV
    /// interference (§III-A).
    pub legs: Vec<UavLeg>,
}

/// Builder-style entry point for plans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPlan {
    /// Number of UAVs flying sequentially.
    pub fleet_size: usize,
    /// Total waypoints across the fleet.
    pub total_waypoints: usize,
    /// Travel budget between waypoints.
    pub travel_time: SimDuration,
    /// Scan duration at each waypoint.
    pub scan_time: SimDuration,
}

impl FleetPlan {
    /// The paper's demo: 2 UAVs, 72 waypoints, 4 s travel, 3 s scan.
    pub fn paper_demo() -> Self {
        FleetPlan {
            fleet_size: 2,
            total_waypoints: 72,
            travel_time: SimDuration::from_secs(4),
            scan_time: SimDuration::from_secs(3),
        }
    }

    /// Expands the fleet plan over a volume into a concrete
    /// [`MissionPlan`].
    ///
    /// Waypoints are an even lattice over the volume; the fleet split is
    /// **spatial along the y axis** — each UAV owns a contiguous slab of the
    /// room, matching the paper's deployment where UAV B's region sat
    /// against the thicker +y wall. UAV 0 gets the −y (building-core) side.
    ///
    /// # Errors
    ///
    /// Propagates [`GridError`] for a zero waypoint count or an invalid
    /// fleet size.
    pub fn expand(&self, volume: Aabb) -> Result<MissionPlan, GridError> {
        let grid = WaypointGrid::even(volume, self.total_waypoints)?;
        if self.fleet_size == 0 || self.fleet_size > grid.len() {
            return Err(GridError::BadFleetSize {
                fleet: self.fleet_size,
                waypoints: grid.len(),
            });
        }
        // Sort waypoints by y, then chunk into fleet_size contiguous slabs.
        let mut pts: Vec<Vec3> = grid.as_slice().to_vec();
        pts.sort_by(|a, b| {
            a.y.total_cmp(&b.y)
                .then(a.z.total_cmp(&b.z))
                .then(a.x.total_cmp(&b.x))
        });
        let n = pts.len();
        let base = n / self.fleet_size;
        let extra = n % self.fleet_size;
        let mut legs = Vec::with_capacity(self.fleet_size);
        let mut cursor = 0usize;
        for i in 0..self.fleet_size {
            let take = base + usize::from(i < extra);
            // lint:allow(slice-index) — Σ take over all legs is exactly n, so cursor + take ≤ pts.len()
            let mut leg_points = pts[cursor..cursor + take].to_vec();
            cursor += take;
            order_boustrophedon(&mut leg_points);
            // Start on the floor under the leg's first waypoint.
            let first = leg_points.first().copied().unwrap_or(volume.center());
            let start = Vec3::new(first.x, first.y, volume.min().z);
            legs.push(UavLeg {
                uav: UavId(i as u8),
                radio_address_id: i as u8 + 1,
                start,
                yaw: 0.0,
                waypoints: leg_points,
                waypoint_offset: 0,
            });
        }
        Ok(MissionPlan {
            volume,
            travel_time: self.travel_time,
            scan_time: self.scan_time,
            legs,
        })
    }
}

impl Default for FleetPlan {
    fn default() -> Self {
        Self::paper_demo()
    }
}

/// Orders points into a short tour: z layers bottom-up, snaking rows in y,
/// snaking x within rows — the same serpentine used by `WaypointGrid`.
fn order_boustrophedon(points: &mut [Vec3]) {
    points.sort_by(|a, b| {
        a.z.total_cmp(&b.z)
            .then(a.y.total_cmp(&b.y))
            .then(a.x.total_cmp(&b.x))
    });
    // Group into (z, y) rows and reverse every other row for continuity.
    let mut rows: Vec<&mut [Vec3]> = Vec::new();
    let mut rest: &mut [Vec3] = points;
    while !rest.is_empty() {
        let key = (rest[0].z, rest[0].y);
        let len = rest
            .iter()
            .take_while(|p| (p.z, p.y) == key)
            .count();
        let (row, tail) = rest.split_at_mut(len);
        rows.push(row);
        rest = tail;
    }
    for (i, row) in rows.iter_mut().enumerate() {
        if i % 2 == 1 {
            row.reverse();
        }
    }
}

impl MissionPlan {
    /// The expected on-mission time of one leg, excluding takeoff/landing:
    /// `waypoints × (travel + scan)`.
    pub fn leg_duration(&self, leg: &UavLeg) -> SimDuration {
        (self.travel_time + self.scan_time) * leg.waypoints.len() as u64
    }

    /// The paper's sanity check: "scanning 36 locations was expected to take
    /// at least 4 min and 12 sec".
    pub fn total_scan_plus_travel(&self) -> SimDuration {
        self.legs
            .iter()
            .map(|l| self.leg_duration(l))
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plan() -> MissionPlan {
        FleetPlan::paper_demo().expand(Aabb::paper_volume()).unwrap()
    }

    #[test]
    fn paper_demo_splits_36_36() {
        let plan = demo_plan();
        assert_eq!(plan.legs.len(), 2);
        assert_eq!(plan.legs[0].waypoints.len(), 36);
        assert_eq!(plan.legs[1].waypoints.len(), 36);
        // Distinct radio addresses.
        assert_ne!(
            plan.legs[0].radio_address_id,
            plan.legs[1].radio_address_id
        );
    }

    #[test]
    fn leg_duration_matches_paper_expectation() {
        // 36 × (4 + 3) s = 252 s = 4 min 12 s.
        let plan = demo_plan();
        let d = plan.leg_duration(&plan.legs[0]);
        assert_eq!(d.as_millis(), 252_000);
    }

    #[test]
    fn spatial_split_along_y() {
        let plan = demo_plan();
        let max_y_a = plan.legs[0]
            .waypoints
            .iter()
            .map(|p| p.y)
            .fold(f64::MIN, f64::max);
        let min_y_b = plan.legs[1]
            .waypoints
            .iter()
            .map(|p| p.y)
            .fold(f64::MAX, f64::min);
        assert!(
            max_y_a < min_y_b,
            "UAV A slab (y ≤ {max_y_a}) must be below UAV B slab (y ≥ {min_y_b})"
        );
    }

    #[test]
    fn all_waypoints_inside_volume_and_unique() {
        let plan = demo_plan();
        let v = Aabb::paper_volume();
        let mut all: Vec<Vec3> = plan
            .legs
            .iter()
            .flat_map(|l| l.waypoints.iter().copied())
            .collect();
        assert_eq!(all.len(), 72);
        assert!(all.iter().all(|p| v.contains(*p)));
        all.sort_by(|a, b| (a.x, a.y, a.z).partial_cmp(&(b.x, b.y, b.z)).unwrap());
        for w in all.windows(2) {
            assert!(w[0].distance(w[1]) > 1e-9, "duplicate waypoint");
        }
    }

    #[test]
    fn legs_have_short_tour_steps() {
        let plan = demo_plan();
        for leg in &plan.legs {
            for w in leg.waypoints.windows(2) {
                let step = w[0].distance(w[1]);
                // Budget: 4 s at 0.6 m/s = 2.4 m; steps must fit comfortably.
                assert!(step < 1.6, "tour step {step} m too long for budget");
            }
        }
    }

    #[test]
    fn starts_on_floor_under_first_waypoint() {
        let plan = demo_plan();
        for leg in &plan.legs {
            assert_eq!(leg.start.z, Aabb::paper_volume().min().z);
            assert!(leg.start.horizontal_distance(leg.waypoints[0]) < 1e-9);
        }
    }

    #[test]
    fn path_length_positive() {
        let plan = demo_plan();
        for leg in &plan.legs {
            assert!(leg.path_length() > 5.0);
        }
    }

    #[test]
    fn scaling_to_more_uavs() {
        let plan = FleetPlan {
            fleet_size: 4,
            total_waypoints: 72,
            ..FleetPlan::paper_demo()
        }
        .expand(Aabb::paper_volume())
        .unwrap();
        assert_eq!(plan.legs.len(), 4);
        for leg in &plan.legs {
            assert_eq!(leg.waypoints.len(), 18);
        }
        let ids: Vec<u8> = plan.legs.iter().map(|l| l.uav.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bad_fleet_rejected() {
        let bad = FleetPlan {
            fleet_size: 0,
            ..FleetPlan::paper_demo()
        };
        assert!(bad.expand(Aabb::paper_volume()).is_err());
        let too_many = FleetPlan {
            fleet_size: 100,
            total_waypoints: 10,
            ..FleetPlan::paper_demo()
        };
        assert!(too_many.expand(Aabb::paper_volume()).is_err());
    }

    #[test]
    fn total_time_sums_legs() {
        let plan = demo_plan();
        assert_eq!(plan.total_scan_plus_travel().as_millis(), 2 * 252_000);
    }
}
