//! The bricked in-memory REM store.
//!
//! A [`RemStore`] ingests a [`RemSnapshot`] (all grids must share one
//! volume and lattice) and lays the voxels out twice:
//!
//! * **Bricks** — the lattice is cut into cubic *bricks* of
//!   `brick_edge`³ cells, stored brick after brick in one array per AP.
//!   Point-shaped queries (point lookup, best-AP) touch exactly one brick
//!   per AP, so a cell's neighbours share its cache lines on the hot path.
//! * **Flat per-AP arrays + octrees** — region-shaped queries (box
//!   statistics, coverage isosurfaces) run against a per-AP
//!   [`VoxelOctree`] over the original row-major array, where aggregate
//!   pruning beats brick-by-brick assembly.
//!
//! Both layouts are read-only after construction; every query is a pure
//! function of (store, query), which is what makes batch execution
//! trivially deterministic under either `ExecPolicy` arm.

use std::fmt;

use aerorem_core::snapshot::RemSnapshot;
use aerorem_propagation::ap::MacAddress;
use aerorem_spatial::octree::{BoxStats, VoxelLayout, VoxelOctree};
use aerorem_spatial::{Aabb, Vec3};

use crate::query::{Query, Response};

/// Construction-time configuration of a [`RemStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Cells per brick edge; bricks are `brick_edge`³ cells. Minimum 1.
    pub brick_edge: usize,
}

impl Default for StoreConfig {
    /// 8³-cell bricks (4 KiB of f64 per AP — half a typical L1 line
    /// budget).
    fn default() -> Self {
        StoreConfig { brick_edge: 8 }
    }
}

/// Why a snapshot could not be ingested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The snapshot holds no grids.
    EmptySnapshot,
    /// Grid `index` disagrees with grid 0 on volume or dimensions.
    MismatchedGrid {
        /// Index of the disagreeing grid.
        index: usize,
    },
    /// Two grids share a MAC address.
    DuplicateMac(MacAddress),
    /// `brick_edge` was zero.
    BadConfig,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::EmptySnapshot => write!(f, "snapshot holds no grids"),
            StoreError::MismatchedGrid { index } => write!(
                f,
                "grid {index} disagrees with grid 0 on volume or dimensions"
            ),
            StoreError::DuplicateMac(mac) => write!(f, "duplicate grid for {mac}"),
            StoreError::BadConfig => write!(f, "brick_edge must be >= 1"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A read-only, bricked, octree-indexed store of one REM snapshot.
///
/// # Examples
///
/// ```
/// use aerorem_core::rem::RemGrid;
/// use aerorem_core::snapshot::RemSnapshot;
/// use aerorem_propagation::ap::MacAddress;
/// use aerorem_serve::{Query, RemStore, StoreConfig};
/// use aerorem_spatial::{Aabb, Vec3};
/// use aerorem_numerics::ExecPolicy;
///
/// let grid = RemGrid::from_parts(
///     MacAddress::from_index(1),
///     Aabb::paper_volume(),
///     (8, 8, 4),
///     (0..256).map(|i| -40.0 - (i % 30) as f64).collect(),
/// ).unwrap();
/// let snap = RemSnapshot::new(vec![grid]).unwrap();
/// let store = RemStore::build(&snap, StoreConfig::default()).unwrap();
/// let q = Query::Point { pos: Vec3::new(1.0, 1.0, 1.0), ap: MacAddress::from_index(1) };
/// let resp = store.submit_batch(&[q], ExecPolicy::Serial).unwrap();
/// assert_eq!(resp.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RemStore {
    layout: VoxelLayout,
    /// Sorted ascending; index here is the AP index everywhere else.
    macs: Vec<MacAddress>,
    /// Per-AP row-major value arrays, aligned with `macs`.
    flat: Vec<Vec<f64>>,
    /// Per-AP aggregate octrees over `flat`, aligned with `macs`.
    octrees: Vec<VoxelOctree>,
    /// Per-AP bricked copies of `flat`: `bricks[ap][brick * brick_edge³ +
    /// offset]`. Cells beyond the lattice edge are NaN-padded so every
    /// brick has the same stride.
    bricks: Vec<Vec<f64>>,
    brick_edge: usize,
    /// Brick-grid dimensions (bricks per axis).
    brick_dims: (usize, usize, usize),
    /// Test hook: queries naming this AP panic inside [`RemStore::answer`],
    /// letting tests prove a worker panic fails the batch, not the process.
    #[cfg(test)]
    pub(crate) panic_mac: Option<MacAddress>,
}

impl RemStore {
    /// Ingests a snapshot.
    ///
    /// All grids must share one volume and one lattice shape, and carry
    /// distinct MAC addresses. Grids are re-sorted by MAC so AP iteration
    /// order (and thus best-AP tie-breaking) is independent of snapshot
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the specific [`StoreError`] for empty snapshots, shape
    /// mismatches, duplicate MACs, or a zero brick edge.
    pub fn build(snapshot: &RemSnapshot, config: StoreConfig) -> Result<Self, StoreError> {
        if config.brick_edge == 0 {
            return Err(StoreError::BadConfig);
        }
        let grids = snapshot.grids();
        let first = grids.first().ok_or(StoreError::EmptySnapshot)?;
        for (index, g) in grids.iter().enumerate() {
            if g.volume() != first.volume() || g.dims() != first.dims() {
                return Err(StoreError::MismatchedGrid { index });
            }
        }
        let mut order: Vec<usize> = (0..grids.len()).collect();
        order.sort_by_key(|&i| grids[i].mac().octets());
        for w in order.windows(2) {
            if grids[w[0]].mac() == grids[w[1]].mac() {
                return Err(StoreError::DuplicateMac(grids[w[0]].mac()));
            }
        }

        let layout = VoxelLayout::new(first.volume(), first.dims())
            .ok_or(StoreError::MismatchedGrid { index: 0 })?;
        let macs: Vec<MacAddress> = order.iter().map(|&i| grids[i].mac()).collect();
        let flat: Vec<Vec<f64>> = order.iter().map(|&i| grids[i].values().to_vec()).collect();
        let octrees: Vec<VoxelOctree> = flat
            .iter()
            .map(|v| VoxelOctree::build(layout, v).ok_or(StoreError::MismatchedGrid { index: 0 }))
            .collect::<Result<_, _>>()?;

        let b = config.brick_edge;
        let (nx, ny, nz) = layout.dims();
        let brick_dims = (nx.div_ceil(b), ny.div_ceil(b), nz.div_ceil(b));
        let total_bricks = brick_dims.0 * brick_dims.1 * brick_dims.2;
        let brick_vol = b * b * b;

        let mut bricks = vec![vec![f64::NAN; total_bricks * brick_vol]; macs.len()];
        for brick_id in 0..total_bricks {
            let bx = brick_id % brick_dims.0;
            let by = (brick_id / brick_dims.0) % brick_dims.1;
            let bz = brick_id / (brick_dims.0 * brick_dims.1);
            for (dst, values) in bricks.iter_mut().zip(&flat) {
                for lz in 0..b.min(nz - bz * b) {
                    for ly in 0..b.min(ny - by * b) {
                        for lx in 0..b.min(nx - bx * b) {
                            let (ix, iy, iz) = (bx * b + lx, by * b + ly, bz * b + lz);
                            let src = iz * nx * ny + iy * nx + ix;
                            let off = lz * b * b + ly * b + lx;
                            dst[brick_id * brick_vol + off] = values[src];
                        }
                    }
                }
            }
        }

        Ok(RemStore {
            layout,
            macs,
            flat,
            octrees,
            bricks,
            brick_edge: b,
            brick_dims,
            #[cfg(test)]
            panic_mac: None,
        })
    }

    /// The shared lattice layout.
    pub fn layout(&self) -> &VoxelLayout {
        &self.layout
    }

    /// The served volume.
    pub fn volume(&self) -> Aabb {
        self.layout.volume()
    }

    /// AP MAC addresses, sorted ascending.
    pub fn macs(&self) -> &[MacAddress] {
        &self.macs
    }

    /// Cells per brick edge.
    pub fn brick_edge(&self) -> usize {
        self.brick_edge
    }

    /// Index of `mac` in [`RemStore::macs`], `None` when unknown.
    fn ap_index(&self, mac: MacAddress) -> Option<usize> {
        self.macs.binary_search_by_key(&mac.octets(), |m| m.octets()).ok()
    }

    /// Global brick id and in-brick offset of a flat cell index.
    fn brick_of(&self, cell: usize) -> (usize, usize) {
        let b = self.brick_edge;
        let (ix, iy, iz) = self.layout.cell_coords(cell);
        let (bdx, bdy, _) = self.brick_dims;
        let brick = (iz / b) * bdx * bdy + (iy / b) * bdx + (ix / b);
        let off = (iz % b) * b * b + (iy % b) * b + (ix % b);
        (brick, off)
    }

    /// Reads one (cell, ap) value through the bricked layout.
    fn brick_value(&self, cell: usize, ap: usize) -> f64 {
        let (brick, off) = self.brick_of(cell);
        let brick_vol = self.brick_edge * self.brick_edge * self.brick_edge;
        self.bricks[ap][brick * brick_vol + off] // lint:allow(panic-reach) — ap comes from ap_index(); build() gives every AP a slot for every brick of the lattice, so brick·vol+off is in range
    }

    /// Point lookup: predicted RSS of `ap` at `pos`, `None` outside the
    /// volume, for an unknown AP, or where the map has no finite value.
    /// Served from the bricks (the hot path the bench drives).
    pub fn point(&self, pos: Vec3, ap: MacAddress) -> Option<f64> {
        let ap = self.ap_index(ap)?;
        let cell = self.layout.cell_index_of(pos)?;
        let v = self.brick_value(cell, ap);
        v.is_finite().then_some(v)
    }

    /// Best AP at `pos`: the strongest finite prediction, ties toward the
    /// lowest MAC. Reads one brick per AP.
    pub fn best_ap(&self, pos: Vec3) -> Option<(MacAddress, f64)> {
        let cell = self.layout.cell_index_of(pos)?;
        let mut best: Option<(MacAddress, f64)> = None;
        for (ap, &mac) in self.macs.iter().enumerate() {
            let v = self.brick_value(cell, ap);
            if v.is_finite() && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((mac, v));
            }
        }
        best
    }

    /// Exact finite-value aggregates of `ap` over `region` (octree path).
    /// [`BoxStats::empty`] for an unknown AP.
    pub fn box_stats(&self, region: &Aabb, ap: MacAddress) -> BoxStats {
        match self.ap_index(ap) {
            Some(i) => self.octrees[i].box_stats(region, &self.flat[i]), // lint:allow(panic-reach) — ap_index() returns positions in macs; octrees/flat are built aligned with macs
            None => BoxStats::empty(),
        }
    }

    /// Flat cell indices where `ap` delivers at least `threshold_dbm`
    /// (octree isosurface path). Empty for an unknown AP.
    pub fn coverage_cells(&self, threshold_dbm: f64, ap: MacAddress) -> Vec<usize> {
        match self.ap_index(ap) {
            Some(i) => self.octrees[i].cells_above(threshold_dbm, &self.flat[i]), // lint:allow(panic-reach) — ap_index() returns positions in macs; octrees/flat are built aligned with macs
            None => Vec::new(),
        }
    }

    /// Answers one query. Every [`Response`] is a pure function of the
    /// store and the query — the batch engine relies on that to scatter
    /// work across workers without changing any answer.
    pub fn answer(&self, query: &Query) -> Response {
        #[cfg(test)]
        {
            let named = match *query {
                Query::Point { ap, .. }
                | Query::BoxStats { ap, .. }
                | Query::Coverage { ap, .. } => Some(ap),
                Query::BestAp { .. } => None,
            };
            if named.is_some() && named == self.panic_mac {
                panic!("test hook: query named the poisoned AP");
            }
        }
        match *query {
            Query::Point { pos, ap } => Response::Value(self.point(pos, ap)),
            Query::BestAp { pos } => Response::Best(self.best_ap(pos)),
            Query::BoxStats { region, ap } => Response::Stats(self.box_stats(&region, ap)),
            Query::Coverage { threshold_dbm, ap } => {
                let cells = self.coverage_cells(threshold_dbm, ap).len();
                let total = match self.ap_index(ap) {
                    Some(i) => self.octrees[i].root_stats().count, // lint:allow(panic-reach) — ap_index() returns positions in macs; octrees is built aligned with macs
                    None => 0,
                };
                let fraction = if total == 0 {
                    0.0
                } else {
                    cells as f64 / total as f64
                };
                Response::Covered { cells, fraction }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerorem_core::rem::RemGrid;

    fn synth_grid(mac_index: u32, dims: (usize, usize, usize), phase: f64) -> RemGrid {
        let (nx, ny, nz) = dims;
        let values = (0..nx * ny * nz)
            .map(|i| -35.0 - ((i as f64 + phase) * 0.613).sin() * 30.0)
            .collect();
        RemGrid::from_parts(
            MacAddress::from_index(mac_index),
            Aabb::paper_volume(),
            dims,
            values,
        )
        .unwrap()
    }

    fn two_ap_store(config: StoreConfig) -> RemStore {
        let snap = RemSnapshot::new(vec![
            synth_grid(2, (13, 11, 7), 5.0),
            synth_grid(1, (13, 11, 7), 0.0),
        ])
        .unwrap();
        RemStore::build(&snap, config).unwrap()
    }

    #[test]
    fn build_validates_inputs() {
        let mismatched = RemSnapshot::new(vec![
            synth_grid(1, (4, 4, 4), 0.0),
            synth_grid(2, (5, 4, 4), 0.0),
        ])
        .unwrap();
        let err = RemStore::build(&mismatched, StoreConfig::default()).unwrap_err();
        assert_eq!(err, StoreError::MismatchedGrid { index: 1 });
        let dup = RemSnapshot::new(vec![
            synth_grid(1, (4, 4, 4), 0.0),
            synth_grid(1, (4, 4, 4), 3.0),
        ])
        .unwrap();
        let err = RemStore::build(&dup, StoreConfig::default()).unwrap_err();
        assert_eq!(err, StoreError::DuplicateMac(MacAddress::from_index(1)));
        let snap = RemSnapshot::new(vec![synth_grid(1, (4, 4, 4), 0.0)]).unwrap();
        let err = RemStore::build(&snap, StoreConfig { brick_edge: 0 }).unwrap_err();
        assert_eq!(err, StoreError::BadConfig);
    }

    #[test]
    fn macs_are_sorted_regardless_of_snapshot_order() {
        let store = two_ap_store(StoreConfig::default());
        assert_eq!(
            store.macs(),
            &[MacAddress::from_index(1), MacAddress::from_index(2)]
        );
    }

    #[test]
    fn brick_reads_match_flat_reads_for_every_cell_and_config() {
        // Brick edges from 1 (degenerate) through ones that divide the dims
        // unevenly to one larger than every dim.
        for brick_edge in [1, 3, 4, 5, 8, 16] {
            let store = two_ap_store(StoreConfig { brick_edge });
            for ap in 0..store.macs.len() {
                for cell in 0..store.layout.cell_count() {
                    let flat = store.flat[ap][cell];
                    let brick = store.brick_value(cell, ap);
                    assert_eq!(
                        flat.to_bits(),
                        brick.to_bits(),
                        "cell {cell} ap {ap} edge {brick_edge}"
                    );
                }
            }
        }
    }

    #[test]
    fn point_queries_answer_from_bricks() {
        let store = two_ap_store(StoreConfig::default());
        let mac = MacAddress::from_index(1);
        let pos = Vec3::new(1.0, 1.3, 0.9);
        let cell = store.layout.cell_index_of(pos).unwrap();
        assert_eq!(store.point(pos, mac), Some(store.flat[0][cell]));
        // Outside the volume and unknown APs are None.
        assert_eq!(store.point(Vec3::new(-1.0, 0.0, 0.0), mac), None);
        assert_eq!(store.point(pos, MacAddress::from_index(99)), None);
    }

    #[test]
    fn best_ap_is_the_argmax_with_low_mac_ties() {
        let store = two_ap_store(StoreConfig::default());
        let pos = Vec3::new(2.0, 2.0, 1.0);
        let cell = store.layout.cell_index_of(pos).unwrap();
        let (mac, v) = store.best_ap(pos).unwrap();
        let v1 = store.flat[0][cell];
        let v2 = store.flat[1][cell];
        assert_eq!(v, v1.max(v2));
        let expect = if v1 >= v2 {
            MacAddress::from_index(1)
        } else {
            MacAddress::from_index(2)
        };
        assert_eq!(mac, expect, "ties go to the lower MAC");
        assert!(store.best_ap(Vec3::new(9.0, 9.0, 9.0)).is_none());
    }

    #[test]
    fn region_queries_delegate_to_the_octree() {
        let store = two_ap_store(StoreConfig::default());
        let mac = MacAddress::from_index(2);
        let region = Aabb::new(Vec3::new(0.4, 0.4, 0.3), Vec3::new(2.9, 2.7, 1.8)).unwrap();
        let stats = store.box_stats(&region, mac);
        assert!(stats.count > 0);
        assert!(stats.min <= stats.max);
        // Unknown AP → empty aggregate, not a panic.
        assert_eq!(store.box_stats(&region, MacAddress::from_index(9)).count, 0);

        let cells = store.coverage_cells(-40.0, mac);
        assert!(cells.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        let Response::Covered { cells: n, fraction } = store.answer(&Query::Coverage {
            threshold_dbm: -40.0,
            ap: mac,
        }) else {
            panic!("wrong response shape")
        };
        assert_eq!(n, cells.len());
        assert!((0.0..=1.0).contains(&fraction));
    }
}
