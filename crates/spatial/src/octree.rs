//! Octree index over a voxel lattice, for the REM serving layer.
//!
//! A loaded snapshot grid is a flat row-major `[z][y][x]` array of f64
//! values over an [`Aabb`]. [`VoxelLayout`] owns the world↔cell-index
//! math (shared with `RemGrid`'s nearest-cell sampling), and
//! [`VoxelOctree`] owns one such array and adds a hierarchy of per-node
//! aggregates (finite min/max/sum/count) over cell-index space so the
//! heavy query shapes — axis-aligned box statistics and coverage
//! isosurfaces — prune whole subtrees instead of scanning every voxel.
//!
//! Traversal order is fixed (children in z-major, then y, then x order)
//! and every accumulation runs in that order, so a given query is
//! bit-deterministic regardless of execution policy. NaN voxels are
//! treated as *missing*: they never contribute to aggregates and never
//! satisfy a coverage threshold.

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// Target maximum number of cells in a leaf node. Leaves this size keep
/// the tree shallow (good for point-in-node pruning) while bounding the
/// worst-case partial-overlap scan at a few cache lines of values.
const LEAF_CELLS: usize = 64;

/// Sentinel for "no child" in a node's child table.
const NO_CHILD: u32 = u32::MAX;

/// World↔cell-index math for a regular voxel lattice over a volume.
///
/// Flat index `i` maps to `ix = i % nx`, `iy = (i / nx) % ny`,
/// `iz = i / (nx * ny)` — identical to `RemGrid`'s row-major `[z][y][x]`
/// layout and to the snapshot payload order (`docs/SNAPSHOT_FORMAT.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoxelLayout {
    volume: Aabb,
    dims: (usize, usize, usize),
}

impl VoxelLayout {
    /// Creates a layout; `None` when any dimension is zero or the total
    /// cell count overflows.
    pub fn new(volume: Aabb, dims: (usize, usize, usize)) -> Option<Self> {
        let (nx, ny, nz) = dims;
        if nx == 0 || ny == 0 || nz == 0 {
            return None;
        }
        nx.checked_mul(ny)?.checked_mul(nz)?;
        Some(VoxelLayout { volume, dims })
    }

    /// The indexed volume.
    pub fn volume(&self) -> Aabb {
        self.volume
    }

    /// Lattice dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Flat index of the cell containing (or nearest to) `p`, or `None`
    /// when `p` lies outside the volume. Boundary-inclusive, matching
    /// `RemGrid::sample`.
    ///
    /// `#[inline]`: the serving store calls this once per point query from
    /// another crate, and a release build without LTO keeps an unmarked
    /// cross-crate call out of line.
    #[inline]
    pub fn cell_index_of(&self, p: Vec3) -> Option<usize> {
        if !self.volume.contains(p) {
            return None;
        }
        let (nx, ny, nz) = self.dims;
        let lo = self.volume.min();
        let size = self.volume.size();
        let clamp_idx = |t: f64, n: usize| ((t * n as f64) as usize).min(n - 1);
        let ix = clamp_idx((p.x - lo.x) / size.x, nx);
        let iy = clamp_idx((p.y - lo.y) / size.y, ny);
        let iz = clamp_idx((p.z - lo.z) / size.z, nz);
        Some(iz * nx * ny + iy * nx + ix)
    }

    /// `(ix, iy, iz)` coordinates of flat index `i`.
    pub fn cell_coords(&self, i: usize) -> (usize, usize, usize) {
        let (nx, ny, _) = self.dims;
        (i % nx, (i / nx) % ny, i / (nx * ny))
    }

    /// Center position of flat cell `i`.
    pub fn cell_center(&self, i: usize) -> Vec3 {
        let (nx, ny, nz) = self.dims;
        let (ix, iy, iz) = self.cell_coords(i);
        self.volume.lerp_point(
            (ix as f64 + 0.5) / nx as f64,
            (iy as f64 + 0.5) / ny as f64,
            (iz as f64 + 0.5) / nz as f64,
        )
    }

    /// Inclusive cell-index range per axis of the cells whose **centers**
    /// fall inside `query`, or `None` when no cell center does.
    ///
    /// Center-in-box is the documented box-query semantic: it makes a
    /// cell belong to exactly one of two adjacent abutting query boxes.
    pub fn index_range(&self, query: &Aabb) -> Option<CellRange> {
        if !self.volume.intersects(query) {
            return None;
        }
        let lo = self.volume.min();
        let size = self.volume.size();
        let (nx, ny, nz) = self.dims;
        let axis = |qmin: f64, qmax: f64, vmin: f64, vsize: f64, n: usize| {
            let cell = vsize / n as f64;
            // Smallest ix with center >= qmin; center(ix) = vmin + (ix+0.5)*cell.
            let first = ((qmin - vmin) / cell - 0.5).ceil().max(0.0) as usize;
            let last_f = ((qmax - vmin) / cell - 0.5).floor();
            if last_f < 0.0 {
                return None;
            }
            let last = (last_f as usize).min(n - 1);
            if first > last {
                None
            } else {
                Some((first, last))
            }
        };
        let (x0, x1) = axis(query.min().x, query.max().x, lo.x, size.x, nx)?;
        let (y0, y1) = axis(query.min().y, query.max().y, lo.y, size.y, ny)?;
        let (z0, z1) = axis(query.min().z, query.max().z, lo.z, size.z, nz)?;
        Some(CellRange {
            lo: (x0, y0, z0),
            hi: (x1 + 1, y1 + 1, z1 + 1),
        })
    }
}

/// A half-open box of cell indices: `lo` inclusive, `hi` exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRange {
    /// Inclusive lower corner `(ix, iy, iz)`.
    pub lo: (usize, usize, usize),
    /// Exclusive upper corner.
    pub hi: (usize, usize, usize),
}

impl CellRange {
    /// Number of cells in the range.
    pub fn cell_count(&self) -> usize {
        (self.hi.0 - self.lo.0) * (self.hi.1 - self.lo.1) * (self.hi.2 - self.lo.2)
    }

    fn contains_box(&self, lo: (usize, usize, usize), hi: (usize, usize, usize)) -> bool {
        self.lo.0 <= lo.0
            && self.lo.1 <= lo.1
            && self.lo.2 <= lo.2
            && self.hi.0 >= hi.0
            && self.hi.1 >= hi.1
            && self.hi.2 >= hi.2
    }

    fn intersects_box(&self, lo: (usize, usize, usize), hi: (usize, usize, usize)) -> bool {
        self.lo.0 < hi.0
            && lo.0 < self.hi.0
            && self.lo.1 < hi.1
            && lo.1 < self.hi.1
            && self.lo.2 < hi.2
            && lo.2 < self.hi.2
    }
}

/// Aggregate statistics over the **finite** values of a cell region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum finite value, `+inf` when the region has none.
    pub min: f64,
    /// Maximum finite value, `-inf` when the region has none.
    pub max: f64,
    /// Sum of finite values.
    pub sum: f64,
    /// Number of finite values.
    pub count: usize,
}

impl BoxStats {
    /// The empty aggregate (the identity of aggregate merging).
    pub fn empty() -> Self {
        BoxStats {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            count: 0,
        }
    }

    /// Mean of the finite values, `None` when the region had none.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    fn absorb_value(&mut self, v: f64) {
        if v.is_finite() {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            self.sum += v;
            self.count += 1;
        }
    }

    fn absorb(&mut self, other: &BoxStats) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// One octree node over a half-open cell-index box.
#[derive(Debug, Clone)]
struct Node {
    lo: (usize, usize, usize),
    hi: (usize, usize, usize),
    stats: BoxStats,
    /// Child node indices in fixed z-major/y/x split order; `NO_CHILD`
    /// entries are unused slots. All-`NO_CHILD` means leaf.
    children: [u32; 8],
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.children[0] == NO_CHILD
    }
}

/// A voxel lattice's values with an octree of per-node aggregates over
/// them.
///
/// Build once per (layout, value array); query many times. The tree owns
/// the flat row-major value array it was built from, next to the
/// cell-index geometry and [`BoxStats`] aggregates of its nodes.
///
/// # Examples
///
/// ```
/// use aerorem_spatial::octree::{VoxelLayout, VoxelOctree};
/// use aerorem_spatial::{Aabb, Vec3};
///
/// let layout = VoxelLayout::new(Aabb::paper_volume(), (8, 8, 4)).unwrap();
/// let values: Vec<f64> = (0..layout.cell_count()).map(|i| -40.0 - (i % 50) as f64).collect();
/// let tree = VoxelOctree::build(layout, values).unwrap();
///
/// // Point read: the value of the cell containing a position.
/// let cell = layout.cell_index_of(Vec3::new(1.0, 1.0, 1.0)).unwrap();
/// assert!(tree.values()[cell] <= -40.0);
///
/// // Coverage: all cells at or above -45 dBm.
/// let covered = tree.cells_above(-45.0);
/// assert!(covered.iter().all(|&i| tree.values()[i] >= -45.0));
/// ```
#[derive(Debug, Clone)]
pub struct VoxelOctree {
    layout: VoxelLayout,
    values: Vec<f64>,
    nodes: Vec<Node>,
}

impl VoxelOctree {
    /// Builds the aggregate tree over `values` laid out by `layout`, and
    /// keeps `values`.
    ///
    /// Returns `None` when `values.len()` does not match the layout's
    /// cell count.
    pub fn build(layout: VoxelLayout, values: Vec<f64>) -> Option<Self> {
        if values.len() != layout.cell_count() {
            return None;
        }
        let mut tree = VoxelOctree {
            layout,
            values,
            nodes: Vec::new(),
        };
        let (nx, ny, nz) = layout.dims();
        tree.build_node((0, 0, 0), (nx, ny, nz));
        Some(tree)
    }

    /// The layout this tree indexes.
    pub fn layout(&self) -> &VoxelLayout {
        &self.layout
    }

    /// The flat row-major value array, one entry per cell of
    /// [`VoxelOctree::layout`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Whole-lattice aggregate (the root node's stats).
    pub fn root_stats(&self) -> BoxStats {
        self.nodes.first().map_or_else(BoxStats::empty, |n| n.stats)
    }

    fn build_node(&mut self, lo: (usize, usize, usize), hi: (usize, usize, usize)) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            lo,
            hi,
            stats: BoxStats::empty(),
            children: [NO_CHILD; 8],
        });
        let cells = (hi.0 - lo.0) * (hi.1 - lo.1) * (hi.2 - lo.2);
        let splittable = (hi.0 - lo.0 > 1) || (hi.1 - lo.1 > 1) || (hi.2 - lo.2 > 1);
        if cells <= LEAF_CELLS || !splittable {
            let mut stats = BoxStats::empty();
            self.scan_box(lo, hi, |_, v| stats.absorb_value(v));
            self.nodes[idx as usize].stats = stats;
            return idx;
        }
        // Split each axis with extent > 1 at its midpoint; fixed z-major,
        // then y, then x child order keeps traversal deterministic.
        let mx = if hi.0 - lo.0 > 1 { Some((lo.0 + hi.0) / 2) } else { None };
        let my = if hi.1 - lo.1 > 1 { Some((lo.1 + hi.1) / 2) } else { None };
        let mz = if hi.2 - lo.2 > 1 { Some((lo.2 + hi.2) / 2) } else { None };
        let xs: &[(usize, usize)] = &match mx {
            Some(m) => vec![(lo.0, m), (m, hi.0)],
            None => vec![(lo.0, hi.0)],
        };
        let ys: &[(usize, usize)] = &match my {
            Some(m) => vec![(lo.1, m), (m, hi.1)],
            None => vec![(lo.1, hi.1)],
        };
        let zs: &[(usize, usize)] = &match mz {
            Some(m) => vec![(lo.2, m), (m, hi.2)],
            None => vec![(lo.2, hi.2)],
        };
        let mut stats = BoxStats::empty();
        let mut slot = 0;
        for &(z0, z1) in zs {
            for &(y0, y1) in ys {
                for &(x0, x1) in xs {
                    let child = self.build_node((x0, y0, z0), (x1, y1, z1));
                    self.nodes[idx as usize].children[slot] = child;
                    stats.absorb(&self.nodes[child as usize].stats);
                    slot += 1;
                }
            }
        }
        self.nodes[idx as usize].stats = stats;
        idx
    }

    /// Visits `(flat_index, value)` for every cell of an index box, in
    /// ascending flat-index order.
    fn scan_box<F: FnMut(usize, f64)>(
        &self,
        lo: (usize, usize, usize),
        hi: (usize, usize, usize),
        mut f: F,
    ) {
        let (nx, ny, _) = self.layout.dims();
        for iz in lo.2..hi.2 {
            for iy in lo.1..hi.1 {
                let base = iz * nx * ny + iy * nx;
                for ix in lo.0..hi.0 {
                    let i = base + ix;
                    f(i, self.values[i]);
                }
            }
        }
    }

    /// Exact aggregate over the cells whose centers lie inside `query`.
    ///
    /// Fully-contained nodes contribute their precomputed aggregate
    /// (O(1)); partially overlapped leaves are scanned. Traversal and
    /// accumulation order are fixed, so results are bit-deterministic.
    pub fn box_stats(&self, query: &Aabb) -> BoxStats {
        if self.nodes.is_empty() {
            return BoxStats::empty();
        }
        let Some(range) = self.layout.index_range(query) else {
            return BoxStats::empty();
        };
        let mut stats = BoxStats::empty();
        self.accumulate(0, &range, &mut stats);
        stats
    }

    fn accumulate(&self, node_idx: u32, range: &CellRange, out: &mut BoxStats) {
        let node = &self.nodes[node_idx as usize];
        if !range.intersects_box(node.lo, node.hi) {
            return;
        }
        if range.contains_box(node.lo, node.hi) {
            out.absorb(&node.stats);
            return;
        }
        if node.is_leaf() {
            let lo = (
                node.lo.0.max(range.lo.0),
                node.lo.1.max(range.lo.1),
                node.lo.2.max(range.lo.2),
            );
            let hi = (
                node.hi.0.min(range.hi.0),
                node.hi.1.min(range.hi.1),
                node.hi.2.min(range.hi.2),
            );
            self.scan_box(lo, hi, |_, v| out.absorb_value(v));
            return;
        }
        for &child in &node.children {
            if child != NO_CHILD {
                self.accumulate(child, range, out);
            }
        }
    }

    /// Flat indices of every cell with a finite value `>= threshold_dbm`,
    /// ascending — the coverage isosurface, e.g. "where does AP k deliver
    /// at least -67 dBm".
    ///
    /// Subtrees whose aggregate max is below the threshold are pruned
    /// without touching their values.
    pub fn cells_above(&self, threshold_dbm: f64) -> Vec<usize> {
        if self.nodes.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.collect_above(0, threshold_dbm, &mut out);
        out.sort_unstable();
        out
    }

    fn collect_above(&self, node_idx: u32, threshold: f64, out: &mut Vec<usize>) {
        let node = &self.nodes[node_idx as usize];
        if node.stats.count == 0 || node.stats.max < threshold {
            return;
        }
        if node.is_leaf() {
            self.scan_box(node.lo, node.hi, |i, v| {
                if v.is_finite() && v >= threshold {
                    out.push(i);
                }
            });
            return;
        }
        // Entire subtree qualifies: still scan leaves (we need indices),
        // but min-pruning covers the common sparse case.
        for &child in &node.children {
            if child != NO_CHILD {
                self.collect_above(child, threshold, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout_8x8x4() -> VoxelLayout {
        VoxelLayout::new(Aabb::paper_volume(), (8, 8, 4)).unwrap()
    }

    /// Brute-force reference aggregate over cell centers in the box.
    fn naive_stats(layout: &VoxelLayout, query: &Aabb, values: &[f64]) -> BoxStats {
        let mut s = BoxStats::empty();
        for (i, &v) in values.iter().enumerate().take(layout.cell_count()) {
            if query.contains(layout.cell_center(i)) {
                s.absorb_value(v);
            }
        }
        s
    }

    fn ramp_values(layout: &VoxelLayout) -> Vec<f64> {
        (0..layout.cell_count())
            .map(|i| -30.0 - (i as f64 * 0.619).sin() * 35.0)
            .collect()
    }

    #[test]
    fn layout_validates_dims() {
        assert!(VoxelLayout::new(Aabb::paper_volume(), (0, 2, 2)).is_none());
        assert!(VoxelLayout::new(Aabb::paper_volume(), (2, 2, 2)).is_some());
    }

    #[test]
    fn point_lookup_matches_layout_math() {
        let layout = layout_8x8x4();
        for i in (0..layout.cell_count()).step_by(7) {
            assert_eq!(layout.cell_index_of(layout.cell_center(i)), Some(i));
        }
        // Outside the volume.
        assert_eq!(layout.cell_index_of(Vec3::new(-1.0, 0.0, 0.0)), None);
    }

    #[test]
    fn box_stats_match_naive_scan() {
        let layout = layout_8x8x4();
        let values = ramp_values(&layout);
        let tree = VoxelOctree::build(layout, values.clone()).unwrap();
        let queries = [
            Aabb::paper_volume(),
            Aabb::new(Vec3::new(0.5, 0.5, 0.5), Vec3::new(2.0, 2.5, 1.5)).unwrap(),
            Aabb::new(Vec3::new(3.0, 2.8, 1.8), Vec3::new(3.7, 3.1, 2.0)).unwrap(),
            Aabb::new(Vec3::new(-5.0, -5.0, -5.0), Vec3::new(-1.0, -1.0, -1.0)).unwrap(),
        ];
        for q in &queries {
            let fast = tree.box_stats(q);
            let slow = naive_stats(&layout, q, &values);
            assert_eq!(fast.count, slow.count, "{q}");
            assert_eq!(fast.min.to_bits(), slow.min.to_bits(), "{q}");
            assert_eq!(fast.max.to_bits(), slow.max.to_bits(), "{q}");
            assert!((fast.sum - slow.sum).abs() < 1e-9, "{q}");
        }
    }

    #[test]
    fn full_volume_box_uses_root_aggregate() {
        let layout = layout_8x8x4();
        let tree = VoxelOctree::build(layout, ramp_values(&layout)).unwrap();
        let full = tree.box_stats(&Aabb::paper_volume());
        assert_eq!(full.count, layout.cell_count());
        assert_eq!(full.sum.to_bits(), tree.root_stats().sum.to_bits());
    }

    #[test]
    fn coverage_isosurface_is_exact_and_sorted() {
        let layout = layout_8x8x4();
        let values = ramp_values(&layout);
        let tree = VoxelOctree::build(layout, values.clone()).unwrap();
        let thr = -40.0;
        let got = tree.cells_above(thr);
        let want: Vec<usize> = (0..values.len()).filter(|&i| values[i] >= thr).collect();
        assert_eq!(got, want);
        assert!(!got.is_empty() && got.len() < values.len());
    }

    #[test]
    fn nan_cells_are_missing_everywhere() {
        let layout = VoxelLayout::new(Aabb::paper_volume(), (4, 4, 2)).unwrap();
        let mut values = ramp_values(&layout);
        values[5] = f64::NAN;
        values[17] = f64::NAN;
        let tree = VoxelOctree::build(layout, values).unwrap();
        assert_eq!(tree.root_stats().count, layout.cell_count() - 2);
        // NaN never satisfies a threshold.
        assert!(!tree.cells_above(f64::NEG_INFINITY).contains(&5));
    }

    #[test]
    fn build_rejects_mismatched_value_length() {
        let layout = layout_8x8x4();
        assert!(VoxelOctree::build(layout, vec![0.0; 3]).is_none());
    }

    #[test]
    fn degenerate_single_cell_axis_builds() {
        let layout = VoxelLayout::new(Aabb::paper_volume(), (16, 1, 1)).unwrap();
        let tree = VoxelOctree::build(layout, ramp_values(&layout)).unwrap();
        assert_eq!(tree.root_stats().count, 16);
        let all = tree.cells_above(f64::NEG_INFINITY);
        assert_eq!(all.len(), 16);
    }

    #[test]
    fn index_range_center_semantics() {
        // 4 cells across [0, 4] on x: centers at 0.5, 1.5, 2.5, 3.5.
        let layout = VoxelLayout::new(
            Aabb::new(Vec3::ZERO, Vec3::new(4.0, 1.0, 1.0)).unwrap(),
            (4, 1, 1),
        )
        .unwrap();
        let q = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(3.0, 1.0, 1.0)).unwrap();
        let r = layout.index_range(&q).unwrap();
        // Centers 1.5 and 2.5 fall in [1, 3]: cells 1 and 2.
        assert_eq!(r.lo.0, 1);
        assert_eq!(r.hi.0, 3);
        assert_eq!(r.cell_count(), 2);
    }
}
