//! Waypoint lattice generation, tour ordering, and fleet partitioning.
//!
//! §III-A of the paper: "72 locations evenly spread over the volume were
//! identified, with each UAV responsible for scanning 36 of them", and the
//! fleet "can be scaled by simply adding sets of waypoints". This module
//! turns a scan volume and a target count into that lattice, orders it into
//! a low-travel boustrophedon tour, and splits the tour across a fleet.

use std::fmt;

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// Error type for waypoint-grid construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A grid with zero waypoints was requested.
    EmptyGrid,
    /// The fleet size was zero or exceeded the waypoint count.
    BadFleetSize {
        /// Requested number of UAVs.
        fleet: usize,
        /// Number of waypoints available.
        waypoints: usize,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::EmptyGrid => write!(f, "waypoint grid must contain at least one point"),
            GridError::BadFleetSize { fleet, waypoints } => write!(
                f,
                "fleet size {fleet} invalid for {waypoints} waypoints (need 1..={waypoints})"
            ),
        }
    }
}

impl std::error::Error for GridError {}

/// An evenly spread 3D lattice of scan waypoints inside a volume.
///
/// Waypoints sit at cell centers of an `nx × ny × nz` subdivision whose
/// aspect follows the volume's aspect, so spacing is as uniform as the
/// requested count allows.
///
/// # Examples
///
/// ```
/// use aerorem_spatial::{Aabb, grid::WaypointGrid};
///
/// let grid = WaypointGrid::even(Aabb::paper_volume(), 72).unwrap();
/// assert_eq!(grid.len(), 72);
/// assert_eq!(grid.dims().0 * grid.dims().1 * grid.dims().2, 72);
/// let fleets = grid.partition(2).unwrap();
/// assert_eq!(fleets[0].len(), 36);
/// assert_eq!(fleets[1].len(), 36);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaypointGrid {
    volume: Aabb,
    dims: (usize, usize, usize),
    /// Waypoints in boustrophedon tour order (z layers, snaking y rows,
    /// snaking x within each row) to minimize inter-waypoint travel.
    points: Vec<Vec3>,
}

impl WaypointGrid {
    /// Builds a grid of exactly `n` waypoints evenly spread over `volume`.
    ///
    /// The dimensions `(nx, ny, nz)` are chosen among all factorizations of
    /// `n` to minimize the spread of per-axis spacing relative to the volume
    /// aspect. Prime or awkward `n` therefore still works (e.g. `n = 7`
    /// yields a 7×1×1 line along the longest axis).
    ///
    /// # Errors
    ///
    /// Returns [`GridError::EmptyGrid`] when `n == 0`.
    pub fn even(volume: Aabb, n: usize) -> Result<Self, GridError> {
        if n == 0 {
            return Err(GridError::EmptyGrid);
        }
        let size = volume.size();
        let dims = best_factorization(n, size);
        Ok(Self::with_dims(volume, dims))
    }

    /// Builds a grid with explicit dimensions `(nx, ny, nz)` (cell centers).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn with_dims(volume: Aabb, dims: (usize, usize, usize)) -> Self {
        let (nx, ny, nz) = dims;
        assert!(nx > 0 && ny > 0 && nz > 0, "grid dims must be non-zero");
        let mut points = Vec::with_capacity(nx * ny * nz);
        // Boustrophedon tour: z layers bottom-up; within each layer snake
        // along y; within each y row snake along x. Consecutive waypoints
        // are then always grid neighbors.
        let mut row = 0usize; // global row counter keeps x-direction continuous across layers
        for iz in 0..nz {
            for iy_raw in 0..ny {
                let iy = if iz % 2 == 0 { iy_raw } else { ny - 1 - iy_raw };
                let forward = row.is_multiple_of(2);
                row += 1;
                for ix_raw in 0..nx {
                    let ix = if forward { ix_raw } else { nx - 1 - ix_raw };
                    let t = |i: usize, n: usize| (i as f64 + 0.5) / n as f64;
                    points.push(volume.lerp_point(t(ix, nx), t(iy, ny), t(iz, nz)));
                }
            }
        }
        WaypointGrid {
            volume,
            dims,
            points,
        }
    }

    /// The volume the grid spans.
    pub fn volume(&self) -> Aabb {
        self.volume
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Number of waypoints.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid has no waypoints (never true for constructed grids).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Waypoints in tour order.
    pub fn iter(&self) -> impl Iterator<Item = &Vec3> {
        self.points.iter()
    }

    /// Waypoints in tour order as a slice.
    pub fn as_slice(&self) -> &[Vec3] {
        &self.points
    }

    /// Per-axis spacing between adjacent waypoints.
    pub fn spacing(&self) -> Vec3 {
        let s = self.volume.size();
        Vec3::new(
            s.x / self.dims.0 as f64,
            s.y / self.dims.1 as f64,
            s.z / self.dims.2 as f64,
        )
    }

    /// Total tour length (sum of consecutive waypoint distances).
    pub fn tour_length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].distance(w[1]))
            .sum()
    }

    /// Index of the waypoint nearest to `p`.
    pub fn nearest_index(&self, p: Vec3) -> usize {
        self.points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.distance(p)
                    .partial_cmp(&b.distance(p))
                    .expect("waypoints are finite")
            })
            .map(|(i, _)| i)
            .expect("grid is non-empty")
    }

    /// Splits the tour into `fleet` contiguous legs of near-equal length, one
    /// per UAV. Contiguity keeps each UAV in its own sub-region — matching
    /// the paper's deployment where each UAV scanned one side of the room.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::BadFleetSize`] when `fleet == 0` or
    /// `fleet > self.len()`.
    pub fn partition(&self, fleet: usize) -> Result<Vec<Vec<Vec3>>, GridError> {
        if fleet == 0 || fleet > self.points.len() {
            return Err(GridError::BadFleetSize {
                fleet,
                waypoints: self.points.len(),
            });
        }
        let n = self.points.len();
        let base = n / fleet;
        let extra = n % fleet;
        let mut out = Vec::with_capacity(fleet);
        let mut start = 0;
        for i in 0..fleet {
            let take = base + usize::from(i < extra);
            out.push(self.points[start..start + take].to_vec());
            start += take;
        }
        Ok(out)
    }
}

impl<'a> IntoIterator for &'a WaypointGrid {
    type Item = &'a Vec3;
    type IntoIter = std::slice::Iter<'a, Vec3>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

/// Chooses `(nx, ny, nz)` with `nx·ny·nz = n` whose per-axis spacing is most
/// uniform for a volume of the given size.
fn best_factorization(n: usize, size: Vec3) -> (usize, usize, usize) {
    let mut best = (n, 1, 1);
    let mut best_score = f64::INFINITY;
    let mut a = 1;
    while a * a * a <= n * n * n {
        if a > n {
            break;
        }
        if n.is_multiple_of(a) {
            let rest = n / a;
            let mut b = 1;
            while b <= rest {
                if rest.is_multiple_of(b) {
                    let c = rest / b;
                    // Try all axis assignments of (a, b, c).
                    for dims in permutations3(a, b, c) {
                        let sx = size.x / dims.0 as f64;
                        let sy = size.y / dims.1 as f64;
                        let sz = size.z / dims.2 as f64;
                        let mean = (sx + sy + sz) / 3.0;
                        let score = (sx - mean).powi(2) + (sy - mean).powi(2) + (sz - mean).powi(2);
                        if score < best_score {
                            best_score = score;
                            best = dims;
                        }
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

fn permutations3(a: usize, b: usize, c: usize) -> [(usize, usize, usize); 6] {
    [
        (a, b, c),
        (a, c, b),
        (b, a, c),
        (b, c, a),
        (c, a, b),
        (c, b, a),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_72_points_inside() {
        let v = Aabb::paper_volume();
        let g = WaypointGrid::even(v, 72).unwrap();
        assert_eq!(g.len(), 72);
        assert!(!g.is_empty());
        assert!(g.iter().all(|p| v.contains(*p)));
        let (nx, ny, nz) = g.dims();
        assert_eq!(nx * ny * nz, 72);
        // The long axis gets at least as many points as the short axes.
        assert!(nx >= nz);
    }

    #[test]
    fn all_waypoints_distinct() {
        let g = WaypointGrid::even(Aabb::paper_volume(), 72).unwrap();
        for (i, a) in g.iter().enumerate() {
            for b in g.as_slice().iter().skip(i + 1) {
                assert!(a.distance(*b) > 1e-9);
            }
        }
    }

    #[test]
    fn prime_count_degenerates_to_line() {
        let g = WaypointGrid::even(Aabb::paper_volume(), 7).unwrap();
        assert_eq!(g.len(), 7);
        let (nx, ny, nz) = g.dims();
        assert_eq!(nx * ny * nz, 7);
        // 7 is prime: one axis carries all points.
        assert_eq!([nx, ny, nz].iter().filter(|&&d| d == 1).count(), 2);
    }

    #[test]
    fn single_point_grid_at_center() {
        let v = Aabb::paper_volume();
        let g = WaypointGrid::even(v, 1).unwrap();
        assert_eq!(g.as_slice(), &[v.center()]);
    }

    #[test]
    fn zero_points_rejected() {
        assert_eq!(
            WaypointGrid::even(Aabb::paper_volume(), 0),
            Err(GridError::EmptyGrid)
        );
    }

    #[test]
    fn boustrophedon_tour_steps_are_short() {
        let g = WaypointGrid::even(Aabb::paper_volume(), 72).unwrap();
        let spacing = g.spacing();
        let max_step = spacing.x.max(spacing.y).max(spacing.z) * 1.5;
        for w in g.as_slice().windows(2) {
            assert!(
                w[0].distance(w[1]) <= max_step + 1e-9,
                "tour step too long: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn tour_is_shorter_than_naive_row_major() {
        let v = Aabb::paper_volume();
        let g = WaypointGrid::even(v, 72).unwrap();
        // Naive raster: sort by (z, y, x) without snaking.
        let mut naive = g.as_slice().to_vec();
        naive.sort_by(|a, b| {
            (a.z, a.y, a.x)
                .partial_cmp(&(b.z, b.y, b.x))
                .expect("finite")
        });
        let naive_len: f64 = naive.windows(2).map(|w| w[0].distance(w[1])).sum();
        assert!(g.tour_length() < naive_len);
    }

    #[test]
    fn partition_into_two_fleets_of_36() {
        let g = WaypointGrid::even(Aabb::paper_volume(), 72).unwrap();
        let legs = g.partition(2).unwrap();
        assert_eq!(legs.len(), 2);
        assert_eq!(legs[0].len(), 36);
        assert_eq!(legs[1].len(), 36);
        // Partitions are disjoint and cover everything.
        let total: usize = legs.iter().map(Vec::len).sum();
        assert_eq!(total, 72);
    }

    #[test]
    fn partition_uneven_counts_balanced() {
        let g = WaypointGrid::even(Aabb::paper_volume(), 10).unwrap();
        let legs = g.partition(3).unwrap();
        let sizes: Vec<usize> = legs.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn partition_rejects_bad_sizes() {
        let g = WaypointGrid::even(Aabb::paper_volume(), 4).unwrap();
        assert!(matches!(
            g.partition(0),
            Err(GridError::BadFleetSize { .. })
        ));
        assert!(matches!(
            g.partition(5),
            Err(GridError::BadFleetSize { .. })
        ));
        assert!(g.partition(4).is_ok());
    }

    #[test]
    fn partitions_are_spatially_contiguous() {
        // With 2 UAVs over the paper grid, each leg should span roughly half
        // the volume, not interleave: check the z-extents overlap little.
        let g = WaypointGrid::even(Aabb::paper_volume(), 72).unwrap();
        let legs = g.partition(2).unwrap();
        let max_z_a = legs[0].iter().map(|p| p.z).fold(f64::MIN, f64::max);
        let min_z_b = legs[1].iter().map(|p| p.z).fold(f64::MAX, f64::min);
        // Leg A owns the lower layers, leg B the upper.
        assert!(max_z_a <= min_z_b + 1e-9);
    }

    #[test]
    fn nearest_index_finds_waypoint() {
        let g = WaypointGrid::even(Aabb::paper_volume(), 72).unwrap();
        for (i, p) in g.iter().enumerate() {
            assert_eq!(g.nearest_index(*p), i);
        }
        // A point near a waypoint maps to it.
        let target = g.as_slice()[10];
        assert_eq!(g.nearest_index(target + Vec3::splat(0.01)), 10);
    }

    #[test]
    fn spacing_matches_dims() {
        let g = WaypointGrid::with_dims(Aabb::paper_volume(), (6, 4, 3));
        let s = g.spacing();
        assert!((s.x - 3.74 / 6.0).abs() < 1e-12);
        assert!((s.y - 3.20 / 4.0).abs() < 1e-12);
        assert!((s.z - 2.10 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn into_iterator_for_reference() {
        let g = WaypointGrid::even(Aabb::paper_volume(), 8).unwrap();
        let count = (&g).into_iter().count();
        assert_eq!(count, 8);
    }

    #[test]
    fn grid_error_display() {
        assert!(GridError::EmptyGrid.to_string().contains("at least one"));
        let e = GridError::BadFleetSize {
            fleet: 0,
            waypoints: 5,
        };
        assert!(e.to_string().contains("fleet size 0"));
    }
}
