//! The in-memory REM store.
//!
//! A [`RemStore`] ingests a [`RemSnapshot`] (all grids must share one
//! volume and lattice) and keeps each AP's voxels once, as the row-major
//! array inside that AP's [`VoxelOctree`]:
//!
//! * **Point-shaped queries** (point lookup, best-AP) compute the cell
//!   index of the position once and read each AP's array at that index.
//! * **Region-shaped queries** (box statistics, coverage isosurfaces) run
//!   on the octree, whose per-node aggregates prune whole subtrees.
//!
//! A query that names its AP finds it by binary search over 64-bit keys
//! (`mac_key`), which compiles to a branch-free loop. The same search over
//! `[u8; 6]` compares in two branching steps, and those branches
//! mispredict when consecutive queries name different APs.
//!
//! The store is read-only after construction; every query is a pure
//! function of (store, query), which is what makes batch execution
//! trivially deterministic under either `ExecPolicy` arm.

use std::fmt;

use aerorem_core::rem::RemGrid;
use aerorem_core::snapshot::RemSnapshot;
use aerorem_propagation::ap::MacAddress;
use aerorem_spatial::octree::{BoxStats, VoxelLayout, VoxelOctree};
use aerorem_spatial::{Aabb, Vec3};

use crate::query::{Query, Response};

/// Construction-time configuration of a [`RemStore`]. It has no
/// settings; [`RemStore::build`] keeps taking one so that existing
/// callers of `StoreConfig::default()` keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreConfig {}

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
        }
    }
}

impl std::error::Error for StoreError {}

/// A read-only, octree-indexed store of one REM snapshot.
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
    /// `mac_key` of each of `macs`, in the same (ascending) order.
    keys: Vec<u64>,
    /// Per-AP octrees, each owning that AP's row-major value array;
    /// aligned with `macs`.
    octrees: Vec<VoxelOctree>,
    /// Test hook: queries naming this AP panic inside [`RemStore::answer`],
    /// letting tests prove a worker panic fails the batch, not the process.
    #[cfg(test)]
    pub(crate) panic_mac: Option<MacAddress>,
}

impl RemStore {
    /// Ingests a snapshot, copying its values once; the daemon's loads
    /// build from the decoded snapshot by value instead.
    ///
    /// All grids must share one volume and one lattice shape, and carry
    /// distinct MAC addresses. Grids are re-sorted by MAC so AP iteration
    /// order (and thus best-AP tie-breaking) is independent of snapshot
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the specific [`StoreError`] for empty snapshots, shape
    /// mismatches or duplicate MACs.
    pub fn build(snapshot: &RemSnapshot, _config: StoreConfig) -> Result<Self, StoreError> {
        Self::from_snapshot(snapshot.clone())
    }

    /// Ingests a snapshot by value: each AP's values move into its octree
    /// without a copy. Validates as [`RemStore::build`] does.
    pub(crate) fn from_snapshot(snapshot: RemSnapshot) -> Result<Self, StoreError> {
        let mut grids: Vec<(usize, RemGrid)> =
            snapshot.into_grids().into_iter().enumerate().collect();
        let layout = *grids.first().ok_or(StoreError::EmptySnapshot)?.1.lattice();
        if let Some((index, _)) = grids.iter().find(|(_, g)| *g.lattice() != layout) {
            return Err(StoreError::MismatchedGrid { index: *index });
        }
        grids.sort_by_key(|(_, g)| g.mac().octets());
        if let Some(pair) = grids
            .windows(2)
            .find(|pair| pair[0].1.mac() == pair[1].1.mac())
        {
            return Err(StoreError::DuplicateMac(pair[0].1.mac()));
        }

        let macs: Vec<MacAddress> = grids.iter().map(|(_, g)| g.mac()).collect();
        let keys = macs.iter().map(|&mac| mac_key(mac)).collect();
        let octrees: Vec<VoxelOctree> = grids
            .into_iter()
            .map(|(index, g)| {
                VoxelOctree::build(layout, g.into_values())
                    .ok_or(StoreError::MismatchedGrid { index })
            })
            .collect::<Result<_, _>>()?;

        Ok(RemStore {
            layout,
            macs,
            keys,
            octrees,
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

    /// The octree, with its value array, of `mac`; `None` when unknown.
    fn tree(&self, mac: MacAddress) -> Option<&VoxelOctree> {
        let i = self.keys.binary_search(&mac_key(mac)).ok()?;
        self.octrees.get(i)
    }

    /// Point lookup: predicted RSS of `ap` at `pos`, `None` outside the
    /// volume, for an unknown AP, or where the map has no finite value.
    pub fn point(&self, pos: Vec3, ap: MacAddress) -> Option<f64> {
        let v = *self
            .tree(ap)?
            .values()
            .get(self.layout.cell_index_of(pos)?)?;
        v.is_finite().then_some(v)
    }

    /// Best AP at `pos`: the strongest finite prediction, ties toward the
    /// lowest MAC. Finds the cell once and reads it in every AP's array.
    pub fn best_ap(&self, pos: Vec3) -> Option<(MacAddress, f64)> {
        let cell = self.layout.cell_index_of(pos)?;
        let mut best: Option<(MacAddress, f64)> = None;
        for (&mac, tree) in self.macs.iter().zip(&self.octrees) {
            let Some(&v) = tree.values().get(cell) else {
                continue;
            };
            if v.is_finite() && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((mac, v));
            }
        }
        best
    }

    /// Exact finite-value aggregates of `ap` over `region` (octree path).
    /// [`BoxStats::empty`] for an unknown AP.
    pub fn box_stats(&self, region: &Aabb, ap: MacAddress) -> BoxStats {
        self.tree(ap)
            .map_or_else(BoxStats::empty, |tree| tree.box_stats(region))
    }

    /// Flat cell indices where `ap` delivers at least `threshold_dbm`
    /// (octree isosurface path). Empty for an unknown AP.
    pub fn coverage_cells(&self, threshold_dbm: f64, ap: MacAddress) -> Vec<usize> {
        self.tree(ap)
            .map_or_else(Vec::new, |tree| tree.cells_above(threshold_dbm))
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
                let total = self.tree(ap).map_or(0, |tree| tree.root_stats().count);
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

/// `mac`'s octets as a big-endian integer: keys order as the octets do,
/// so the store's MAC order is also its key order.
fn mac_key(mac: MacAddress) -> u64 {
    let [a, b, c, d, e, f] = mac.octets();
    u64::from_be_bytes([0, 0, a, b, c, d, e, f])
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerorem_numerics::ExecPolicy;

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

    fn two_ap_store() -> RemStore {
        let snap = RemSnapshot::new(vec![
            synth_grid(2, (13, 11, 7), 5.0),
            synth_grid(1, (13, 11, 7), 0.0),
        ])
        .unwrap();
        RemStore::build(&snap, StoreConfig::default()).unwrap()
    }

    /// Three APs over a 6×5×4 lattice, in snapshot order 3, 1, 2, with
    /// NaN cells: cells 0 and 105 are NaN for every AP, and AP 1 equals
    /// AP 3 on every even cell, so best-AP ties occur.
    fn nan_grids() -> Vec<RemGrid> {
        let dims: (usize, usize, usize) = (6, 5, 4);
        let ramp = |i: usize| -35.0 - (i as f64 * 0.613).sin() * 30.0;
        let grid = |mac: u32, nan_every: usize, value: &dyn Fn(usize) -> f64| {
            let values = (0..dims.0 * dims.1 * dims.2)
                .map(|i| {
                    if i.is_multiple_of(nan_every) {
                        f64::NAN
                    } else {
                        value(i)
                    }
                })
                .collect();
            RemGrid::from_parts(
                MacAddress::from_index(mac),
                Aabb::paper_volume(),
                dims,
                values,
            )
            .unwrap()
        };
        vec![
            grid(3, 7, &ramp),
            grid(1, 5, &|i| {
                if i.is_multiple_of(2) {
                    ramp(i)
                } else {
                    ramp(i + 40)
                }
            }),
            grid(2, 3, &|i| ramp(i + 17)),
        ]
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
    }

    #[test]
    fn macs_are_sorted_regardless_of_snapshot_order() {
        let store = two_ap_store();
        assert_eq!(
            store.macs(),
            &[MacAddress::from_index(1), MacAddress::from_index(2)]
        );
    }

    #[test]
    fn point_and_best_ap_match_grid_sample_at_every_cell() {
        let lattices = [
            vec![
                synth_grid(2, (13, 11, 7), 5.0),
                synth_grid(1, (13, 11, 7), 0.0),
            ],
            vec![
                synth_grid(1, (16, 1, 1), 0.0),
                synth_grid(2, (16, 1, 1), 3.0),
            ],
            nan_grids(),
        ];
        let mut ties = 0;
        let mut empty_cells = 0;
        for grids in lattices {
            let snap = RemSnapshot::new(grids).unwrap();
            let store = RemStore::build(&snap, StoreConfig::default()).unwrap();
            let layout = *store.layout();
            for cell in 0..layout.cell_count() {
                let pos = layout.cell_center(cell);
                // The oracle: each grid's own nearest-cell read, finite
                // values only.
                let mut finite = Vec::new();
                for grid in snap.grids() {
                    let want = grid.sample(pos).filter(|v| v.is_finite());
                    let got = store.point(pos, grid.mac());
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "cell {cell}");
                    finite.extend(want.map(|v| (grid.mac(), v)));
                }
                // Best AP: the largest value, and among equal ones the
                // lowest MAC.
                let top = finite
                    .iter()
                    .map(|&(_, v)| v)
                    .fold(f64::NEG_INFINITY, f64::max);
                let at_top = finite.iter().filter(|&&(_, v)| v == top);
                ties += usize::from(at_top.clone().count() > 1);
                let want_best = at_top.min_by_key(|(mac, _)| mac.octets()).copied();
                empty_cells += usize::from(want_best.is_none());
                assert_eq!(store.best_ap(pos), want_best, "cell {cell}");
            }
            // Outside the volume and unknown APs are None.
            let inside = layout.cell_center(0);
            let max = layout.volume().max();
            for outside in [
                Vec3::new(-1.0, inside.y, inside.z),
                Vec3::new(inside.x, inside.y, max.z + 0.5),
            ] {
                assert_eq!(store.point(outside, snap.grids()[0].mac()), None);
                assert_eq!(store.best_ap(outside), None);
            }
            assert_eq!(store.point(inside, MacAddress::from_index(99)), None);
        }
        assert!(ties > 0, "the NaN lattice must exercise best-AP ties");
        assert_eq!(empty_cells, 2, "cells 0 and 105 of the NaN lattice");
    }

    /// Every query kind, by served and unknown MACs whose order under a
    /// little-endian key differs from their octet order, answered as a
    /// linear scan of the snapshot's grids and `RemGrid::sample` answer it.
    #[test]
    fn queries_find_their_ap_as_a_linear_mac_scan_does() {
        let mac = |text: &str| text.parse::<MacAddress>().unwrap();
        let dims = (7, 5, 3);
        let served = [
            "02:00:00:00:01:00",
            "01:ff:00:00:00:00",
            "02:00:00:00:00:01",
        ];
        // Whole-dBm values, so box sums are exact in any order; a NaN
        // every fifth cell; every AP at -45 on each third cell, for ties.
        let grids: Vec<RemGrid> = served
            .iter()
            .enumerate()
            .map(|(k, text)| {
                let values = (0..dims.0 * dims.1 * dims.2)
                    .map(|i| match i {
                        _ if (i + k).is_multiple_of(5) => f64::NAN,
                        _ if i.is_multiple_of(3) => -45.0,
                        _ => -40.0 - ((i * (k + 2)) % 23) as f64,
                    })
                    .collect();
                RemGrid::from_parts(mac(text), Aabb::paper_volume(), dims, values).unwrap()
            })
            .collect();
        let snap = RemSnapshot::new(grids).unwrap();
        let store = RemStore::build(&snap, StoreConfig::default()).unwrap();
        let layout = *store.layout();
        let grid_of = |ap: MacAddress| snap.grids().iter().find(|g| g.mac() == ap);
        let unknown = [
            "00:00:00:00:00:00",
            "01:ff:00:00:00:01",
            "02:00:00:00:00:02",
            "02:00:00:00:01:01",
            "ff:ff:ff:ff:ff:ff",
        ];
        let aps: Vec<MacAddress> = served.iter().chain(&unknown).map(|t| mac(t)).collect();

        let mut queries = Vec::new();
        let mut want = Vec::new();
        for cell in 0..layout.cell_count() {
            let pos = layout.cell_center(cell);
            for &ap in &aps {
                queries.push(Query::Point { pos, ap });
                let v = grid_of(ap).and_then(|g| g.sample(pos));
                want.push(Response::Value(v.filter(|v| v.is_finite())));
            }
            let mut best: Option<(MacAddress, f64)> = None;
            for g in snap.grids() {
                let Some(v) = g.sample(pos).filter(|v| v.is_finite()) else {
                    continue;
                };
                if best.is_none_or(|(m, bv)| v > bv || (v == bv && g.mac().octets() < m.octets())) {
                    best = Some((g.mac(), v));
                }
            }
            queries.push(Query::BestAp { pos });
            want.push(Response::Best(best));
        }
        let regions = [
            Aabb::paper_volume(),
            Aabb::new(Vec3::new(0.4, 0.4, 0.3), Vec3::new(2.9, 2.7, 1.8)).unwrap(),
        ];
        for &ap in &aps {
            let values = grid_of(ap).map_or(&[][..], |g| g.values());
            for region in regions {
                let mut stats = BoxStats::empty();
                for (i, &v) in values.iter().enumerate() {
                    if v.is_finite() && region.contains(layout.cell_center(i)) {
                        stats.min = stats.min.min(v);
                        stats.max = stats.max.max(v);
                        stats.sum += v;
                        stats.count += 1;
                    }
                }
                queries.push(Query::BoxStats { region, ap });
                want.push(Response::Stats(stats));
            }
            let threshold_dbm = -48.0;
            let finite = values.iter().filter(|v| v.is_finite()).count();
            let cells = values.iter().filter(|&&v| v >= threshold_dbm).count();
            let fraction = if finite == 0 {
                0.0
            } else {
                cells as f64 / finite as f64
            };
            queries.push(Query::Coverage { threshold_dbm, ap });
            want.push(Response::Covered { cells, fraction });
        }

        let got = store.submit_batch(&queries, ExecPolicy::Serial).unwrap();
        for ((q, got), want) in queries.iter().zip(&got).zip(&want) {
            assert_eq!(got, want, "{q:?}");
        }
        assert!(want.iter().any(|r| matches!(r, Response::Value(Some(_)))));
        assert!(want
            .iter()
            .any(|r| matches!(r, Response::Covered { cells, .. } if *cells > 0)));
    }

    #[test]
    fn region_queries_delegate_to_the_octree() {
        let store = two_ap_store();
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
