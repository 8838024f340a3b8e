//! A flattened, leaf-based KD-tree for k-nearest-neighbour queries in low
//! dimensions.
//!
//! The tree is exact: it returns the same neighbours as brute force,
//! including on exact distance ties, because every comparison in the
//! search uses the `(distance, index)` total order that
//! [`brute_force_nearest`] sorts by, where the distance is the square root
//! of [`sq_euclidean`]. Ranking on the squared distance instead would not
//! be the same order: distinct squared distances can share a square root,
//! and brute force then prefers the lower index.
//!
//! The same search also serves the grouped index of
//! [`crate::knn::KnnRegressor`], which keeps one tree per one-hot key over
//! the paper's coordinate columns: a `GroupProbe` adds the group's exact
//! key-column offset to every bound and scores each reached point on its
//! full feature row, so that index ranks exactly as a brute-force scan of
//! the full rows does.
//!
//! # Layout
//!
//! The tree is **leaf-based**: points are permuted into *slot order* so
//! every leaf owns a contiguous slot range of up to `LEAF_SIZE` points,
//! and internal nodes store only a split axis and coordinate. The permuted
//! points live **dimension-major** (structure-of-arrays): `cols[d * n +
//! slot]` is coordinate `d` of the point in `slot`, so a leaf scan streams
//! contiguous memory per dimension and runs through the block kernel
//! [`aerorem_numerics::kernels::sq_euclidean_cols_into`], which is
//! bit-identical per point to the scalar [`sq_euclidean`] every other
//! distance path uses — tree, brute-force, per-item, and batched paths all
//! agree bit-for-bit.
//!
//! A second, row-major copy in original insertion order backs the
//! zero-copy [`KdTree::point`] / [`KdTree::points_flat`] accessors.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use aerorem_numerics::kernels::{sq_euclidean, sq_euclidean_cols_into};

/// Sentinel child index meaning "no child" and, in a node's `axis` field,
/// "this node is a leaf".
const NO_NODE: u32 = u32::MAX;

/// Maximum points per leaf. Around the point where one block-kernel scan of
/// a leaf costs the same as the node descent it replaces: big enough that
/// the SoA kernel gets contiguous runs to vectorize, small enough that a
/// query still prunes most of the tree.
const LEAF_SIZE: usize = 16;

/// Factor applied to every pruning lower bound before it is compared with
/// the current k-th distance.
///
/// The plain tree needs none: its bound `fl(delta²)` is one of the terms
/// the squared distance sums, and a floating-point sum of non-negative
/// terms is never below any of them. A [`GroupProbe`] search adds a
/// group's key offset `O`, summed by [`sq_euclidean`] over the key columns,
/// to a tree-column part `T` (a `delta²` or a leaf point's tree distance),
/// while the exact score `K` sums the same per-column terms over the full
/// row in another order. With `u = 2⁻⁵³` and `n` columns, each recursive
/// sum is within a factor `1 ± n·u` of the exact sum of its terms, and
/// rounding `T + O` and the product with this factor cost `1 + u` each,
/// so `fl(fl(T + O) · SLACK) <= K` whenever `SLACK <= 1 - (2n + 3)·u`.
/// `1 - 2⁻⁴⁰` satisfies that for up to [`MAX_PROBE_DIM`] columns, and
/// costs a relative `2⁻⁴⁰` of pruning. Subnormal sums are exact, and an
/// underflowing product only lowers the bound, so both stay safe.
const BOUND_SLACK: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;

/// Widest full row a [`GroupProbe`] may score: the bound behind
/// [`BOUND_SLACK`] holds up to this many columns.
pub(crate) const MAX_PROBE_DIM: usize = 1 << 11;

/// A `(distance, index)` candidate in the bounded max-heap, ordered
/// exactly as brute force ranks rows: by `√K`, then by index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    dist: f64,
    index: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .expect("distances are finite")
            .then_with(|| self.index.cmp(&other.index))
    }
}

/// How a grouped index lends one group's tree to a search: every point of
/// the tree shares `offset`, the exact squared distance over the columns
/// the tree leaves out, and a point that may still rank is scored on its
/// full row and reported under its caller row id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupProbe<'a> {
    /// [`sq_euclidean`] between the query's and the group's key columns.
    pub offset: f64,
    /// Caller row id of each tree point, by tree point index.
    pub rows: &'a [u32],
    /// The caller's full rows, row-major, `query.len()` values each.
    pub data: &'a [f64],
    /// The full query row.
    pub query: &'a [f64],
}

/// One arena node. Internal nodes split on `axis` at coordinate `split`
/// with child node ids in `left`/`right`; leaves (`axis == NO_NODE`) own
/// the contiguous slot range `left..right` of the SoA point storage.
#[derive(Debug, Clone, Copy)]
struct Node {
    axis: u32,
    split: f64,
    left: u32,
    right: u32,
}

/// Reusable per-query search state for [`KdTree::nearest_into`], letting the
/// batched prediction path run thousands of queries without reallocating the
/// candidate heap or the leaf distance buffer.
#[derive(Debug, Default, Clone)]
pub struct NeighborScratch {
    heap: BinaryHeap<Candidate>,
    dists: Vec<f64>,
}

impl NeighborScratch {
    /// Empties the candidate heap for a new query.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// Whether a point whose squared distance is at least `lower`, up to
    /// the rounding [`BOUND_SLACK`] absorbs, could still enter the `k`
    /// best. Non-strict: a point tying the k-th distance can still win on
    /// its index.
    pub(crate) fn may_enter(&self, k: usize, lower: f64) -> bool {
        self.heap.len() < k
            || self
                .heap
                .peek()
                .is_none_or(|worst| (lower * BOUND_SLACK).sqrt() <= worst.dist)
    }

    /// Keeps `cand` if it ranks among the `k` best seen so far.
    fn offer(&mut self, k: usize, cand: Candidate) {
        if self.heap.len() < k {
            self.heap.push(cand);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if cand < *worst {
                *worst = cand;
            }
        }
    }

    /// Replaces the contents of `out` with the kept candidates as
    /// `(index, distance)` pairs, nearest first, and empties the heap.
    pub(crate) fn drain_sorted_into(&mut self, out: &mut Vec<(usize, f64)>) {
        out.clear();
        out.extend(self.heap.drain().map(|c| (c.index, c.dist)));
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
    }
}

/// An exact KD-tree over owned points in a flat arena.
///
/// # Examples
///
/// ```
/// use aerorem_ml::kdtree::KdTree;
///
/// let pts = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]];
/// let tree = KdTree::build(pts).unwrap();
/// let nn = tree.nearest(&[0.9, 1.1], 1);
/// assert_eq!(nn[0].0, 1); // index of (1,1)
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    /// Flat row-major point storage, `len() * dim` values, original order
    /// (backs the public accessors).
    data: Vec<f64>,
    /// Dimension-major permuted storage: `cols[d * len() + slot]`.
    cols: Vec<f64>,
    /// Maps a slot in `cols` back to the original point index.
    slot_to_index: Vec<u32>,
    nodes: Vec<Node>,
    root: u32,
    dim: usize,
}

impl KdTree {
    /// Builds a tree from points. Returns `None` for an empty set, ragged
    /// rows, or zero-dimensional points.
    pub fn build(points: Vec<Vec<f64>>) -> Option<Self> {
        let dim = points.first()?.len();
        if dim == 0 || points.iter().any(|p| p.len() != dim) {
            return None;
        }
        let mut data = Vec::with_capacity(points.len() * dim);
        for p in &points {
            data.extend_from_slice(p);
        }
        Self::build_flat(data, dim)
    }

    /// Builds a tree directly from flat row-major storage, which the tree
    /// then owns (the single copy of the training set for the kNN tree
    /// backend). Returns `None` for empty data, `dim == 0`, a length that is
    /// not a multiple of `dim`, or more than `u32::MAX - 1` points.
    pub fn build_flat(data: Vec<f64>, dim: usize) -> Option<Self> {
        if dim == 0 || data.is_empty() || !data.len().is_multiple_of(dim) {
            return None;
        }
        let n = data.len() / dim;
        if n >= NO_NODE as usize {
            return None;
        }
        let mut indices: Vec<usize> = (0..n).collect();
        let mut nodes = Vec::with_capacity(2 * n.div_ceil(LEAF_SIZE));
        let root = build_arena(&data, dim, &mut indices, 0, &mut nodes);
        // After the build the index permutation *is* the slot order; lay the
        // permuted points out dimension-major for the leaf-scan kernel.
        let mut cols = vec![0.0; n * dim];
        for (slot, &pi) in indices.iter().enumerate() {
            for d in 0..dim {
                cols[d * n + slot] = data[pi * dim + d];
            }
        }
        let slot_to_index = indices.iter().map(|&pi| pi as u32).collect();
        Some(KdTree {
            data,
            cols,
            slot_to_index,
            nodes,
            root,
            dim,
        })
    }

    /// Number of points in the tree.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the tree is empty (never true for built trees).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Zero-copy view of point `i` (original insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The flat row-major point storage, in original insertion order.
    pub fn points_flat(&self) -> &[f64] {
        &self.data
    }

    /// Returns the `k` nearest points to `query` as `(index, distance)`
    /// pairs, nearest first. Fewer than `k` results when the tree is small.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.dim()`.
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut scratch = NeighborScratch::default();
        let mut out = Vec::new();
        self.nearest_into(query, k, &mut scratch, &mut out);
        out
    }

    /// Allocation-free variant of [`KdTree::nearest`]: the candidate heap
    /// and leaf distance buffer live in `scratch` and results replace the
    /// contents of `out`, so a batched caller reuses both across queries.
    /// Produces exactly the same results as [`KdTree::nearest`].
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.dim()`.
    pub fn nearest_into(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut NeighborScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        scratch.clear();
        if k > 0 {
            self.search(self.root, query, k, None, scratch);
        }
        scratch.drain_sorted_into(out);
    }

    /// Offers this tree's points to `scratch`'s `k` best as `probe`
    /// describes them: `query` holds the query's values in the tree's
    /// columns, bounds carry `probe.offset`, and a point that may still
    /// rank is scored by [`sq_euclidean`] over its full row. Scratch is
    /// neither cleared nor drained, so a caller can search several groups
    /// into one candidate set.
    pub(crate) fn search_group(
        &self,
        query: &[f64],
        k: usize,
        probe: &GroupProbe<'_>,
        scratch: &mut NeighborScratch,
    ) {
        debug_assert_eq!(query.len(), self.dim, "query dimension mismatch");
        debug_assert!(probe.query.len() <= MAX_PROBE_DIM, "see BOUND_SLACK");
        self.search(self.root, query, k, Some(probe), scratch);
    }

    /// The one search routine. Without a probe a point's score is its
    /// leaf distance and its index is its insertion index; with one, see
    /// [`KdTree::search_group`].
    fn search(
        &self,
        node: u32,
        query: &[f64],
        k: usize,
        probe: Option<&GroupProbe<'_>>,
        scratch: &mut NeighborScratch,
    ) {
        if node == NO_NODE {
            return;
        }
        let offset = probe.map_or(0.0, |p| p.offset);
        let n = self.nodes[node as usize];
        if n.axis == NO_NODE {
            // Leaf: one SoA block scan over the slot range, then tie-exact
            // heap maintenance. The kernel output is bit-identical per point
            // to the scalar sq_euclidean all other paths use.
            let (lo, hi) = (n.left as usize, n.right as usize);
            let mut dists = std::mem::take(&mut scratch.dists);
            dists.resize(hi - lo, 0.0);
            sq_euclidean_cols_into(&self.cols, self.len(), query, lo, hi, &mut dists);
            for (&point, &dist2) in self.slot_to_index[lo..hi].iter().zip(&dists) {
                let (dist2, index) = match probe {
                    None => (dist2, point as usize),
                    Some(p) => {
                        if !scratch.may_enter(k, dist2 + p.offset) {
                            continue;
                        }
                        let row = p.rows[point as usize] as usize;
                        let dim = p.query.len();
                        (
                            sq_euclidean(&p.data[row * dim..(row + 1) * dim], p.query),
                            row,
                        )
                    }
                };
                scratch.offer(
                    k,
                    Candidate {
                        dist: dist2.sqrt(),
                        index,
                    },
                );
            }
            scratch.dists = dists;
            return;
        }
        let delta = query[n.axis as usize] - n.split;
        let (near, far) = if delta < 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        self.search(near, query, k, probe, scratch);
        // Visit the far side unless every point there is provably worse than
        // the current worst candidate: `delta²` is one of the terms of any
        // far-side distance, so it (plus the offset) bounds it from below.
        if scratch.may_enter(k, delta * delta + offset) {
            self.search(far, query, k, probe, scratch);
        }
    }
}

/// Recursive arena build over a slot range. Ranges of up to [`LEAF_SIZE`]
/// points become leaves; larger ranges stable-sort their index subslice
/// along the chosen axis and split at the upper median, so slots
/// `[lo, lo+mid)` hold coordinates `<=` the split value and the rest hold
/// `>=` — which is what makes `|query[axis] - split|` a valid far-side
/// distance bound even with duplicate coordinates. The final permutation of
/// `indices` is the slot order. Nodes are stored pre-order.
///
/// The split axis is the one with the **largest coordinate spread** in the
/// node's point subset (ties to the lowest axis), not a round-robin of
/// `depth % dim`. Round-robin is pathological for the one-hot feature
/// blocks this workspace feeds the tree: a query's delta on a one-hot axis
/// it shares with the split is exactly 0, so such a level can never prune
/// and every search walks both subtrees. Spread selection splits each
/// one-hot axis at most once — separating the categories with a far-side
/// bound of 1 — and spends the remaining depth on the spatial axes where
/// pruning actually works. Axis choice only shapes the tree; the search
/// remains exact, so results are bit-identical to brute force either way.
fn build_arena(
    data: &[f64],
    dim: usize,
    indices: &mut [usize],
    lo: usize,
    nodes: &mut Vec<Node>,
) -> u32 {
    if indices.is_empty() {
        return NO_NODE;
    }
    let id = nodes.len();
    if indices.len() <= LEAF_SIZE {
        nodes.push(Node {
            axis: NO_NODE,
            split: 0.0,
            left: lo as u32,
            right: (lo + indices.len()) as u32,
        });
        return id as u32;
    }
    let mut axis = 0usize;
    let mut best_spread = f64::NEG_INFINITY;
    for d in 0..dim {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &i in indices.iter() {
            let v = data[i * dim + d];
            min = min.min(v);
            max = max.max(v);
        }
        let spread = max - min;
        if spread > best_spread {
            best_spread = spread;
            axis = d;
        }
    }
    indices.sort_by(|&a, &b| {
        data[a * dim + axis]
            .partial_cmp(&data[b * dim + axis])
            .expect("finite coordinates")
    });
    let mid = indices.len() / 2;
    let split = data[indices[mid] * dim + axis];
    nodes.push(Node {
        axis: axis as u32,
        split,
        left: NO_NODE,
        right: NO_NODE,
    });
    let (left_slice, right_slice) = indices.split_at_mut(mid);
    let left = build_arena(data, dim, left_slice, lo, nodes);
    let right = build_arena(data, dim, right_slice, lo + mid, nodes);
    nodes[id].left = left;
    nodes[id].right = right;
    id as u32
}

/// Brute-force exact k-nearest-neighbour reference, used as the test oracle.
pub fn brute_force_nearest(points: &[Vec<f64>], query: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i, sq_euclidean(p, query).sqrt()))
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Brute-force exact k-nearest-neighbour over flat row-major points: full
/// sort of all `(index, distance)` pairs by `(distance, index)`, truncated to
/// `k`. The ranking every kNN backend reproduces bit for bit, and the
/// oracle the tests compare them against.
pub fn brute_force_nearest_flat(
    data: &[f64],
    dim: usize,
    query: &[f64],
    k: usize,
) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = data
        .chunks_exact(dim)
        .enumerate()
        .map(|(i, p)| (i, sq_euclidean(p, query).sqrt()))
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Allocation-free top-`k` selection over flat row-major points, replacing
/// the contents of `out` with the `k` nearest `(index, distance)` pairs,
/// nearest first. `cand` is a reusable scratch buffer.
///
/// Uses `select_nth_unstable_by` (O(n)) instead of a full sort, then sorts
/// only the `k`-prefix. Because `(distance, index)` is a total order, the set
/// of `k` smallest pairs is unique, so this returns **exactly** the same
/// pairs as [`brute_force_nearest_flat`] — the batched fast path is
/// bit-identical to the per-item reference.
pub fn brute_force_topk_into(
    data: &[f64],
    dim: usize,
    query: &[f64],
    k: usize,
    cand: &mut Vec<(usize, f64)>,
    out: &mut Vec<(usize, f64)>,
) {
    cand.clear();
    cand.extend(
        data.chunks_exact(dim)
            .enumerate()
            .map(|(i, p)| (i, sq_euclidean(p, query).sqrt())),
    );
    top_k_from_candidates(cand, k, out);
}

/// Shared tail of the top-`k` selection: partition `cand` so its first `k`
/// entries are the smallest under `(distance, index)`, then sort that prefix
/// into `out`.
pub(crate) fn top_k_from_candidates(
    cand: &mut [(usize, f64)],
    k: usize,
    out: &mut Vec<(usize, f64)>,
) {
    out.clear();
    let k = k.min(cand.len());
    if k == 0 {
        return;
    }
    let cmp = |a: &(usize, f64), b: &(usize, f64)| {
        a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0))
    };
    if k < cand.len() {
        cand.select_nth_unstable_by(k - 1, cmp);
    }
    let head = &mut cand[..k];
    head.sort_by(cmp);
    out.extend_from_slice(head);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn build_rejects_bad_input() {
        assert!(KdTree::build(vec![]).is_none());
        assert!(KdTree::build(vec![vec![]]).is_none());
        assert!(KdTree::build(vec![vec![1.0], vec![1.0, 2.0]]).is_none());
        assert!(KdTree::build_flat(vec![], 2).is_none());
        assert!(KdTree::build_flat(vec![1.0, 2.0, 3.0], 2).is_none());
        assert!(KdTree::build_flat(vec![1.0], 0).is_none());
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(vec![vec![1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.dim(), 3);
        assert_eq!(t.point(0), &[1.0, 2.0, 3.0]);
        let nn = t.nearest(&[0.0, 0.0, 0.0], 5);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].0, 0);
    }

    #[test]
    fn k_zero_returns_empty() {
        let t = KdTree::build(vec![vec![1.0]]).unwrap();
        assert!(t.nearest(&[0.0], 0).is_empty());
    }

    #[test]
    fn matches_brute_force_3d() {
        let mut rng = StdRng::seed_from_u64(0x3D);
        let points: Vec<Vec<f64>> = (0..500)
            .map(|_| (0..3).map(|_| rng.gen_range(-10.0..10.0)).collect())
            .collect();
        let tree = KdTree::build(points.clone()).unwrap();
        for _ in 0..50 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(-10.0..10.0)).collect();
            for k in [1, 3, 16] {
                let got = tree.nearest(&q, k);
                let want = brute_force_nearest(&points, &q, k);
                let got_d: Vec<f64> = got.iter().map(|g| g.1).collect();
                let want_d: Vec<f64> = want.iter().map(|w| w.1).collect();
                for (g, w) in got_d.iter().zip(&want_d) {
                    assert!((g - w).abs() < 1e-9, "k={k}: {got_d:?} vs {want_d:?}");
                }
            }
        }
    }

    #[test]
    fn arena_tree_identical_to_brute_force() {
        // Stronger than distance tolerance: the arena tree must return the
        // exact same (index, distance) pairs, bit for bit.
        let mut rng = StdRng::seed_from_u64(0xA7E4A);
        for dim in [1, 2, 3, 5, 8] {
            let points: Vec<Vec<f64>> = (0..300)
                .map(|_| (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect())
                .collect();
            let tree = KdTree::build(points.clone()).unwrap();
            for _ in 0..20 {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect();
                for k in [1, 4, 16, 300] {
                    assert_eq!(
                        tree.nearest(&q, k),
                        brute_force_nearest(&points, &q, k),
                        "dim={dim} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_distance_ties_resolve_by_index_like_brute_force() {
        // A lattice of duplicated coordinates makes distance ties at the k
        // boundary routine; the tree must pick the same tied indices brute
        // force does (lowest index first), for queries on and off points.
        let mut points = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                for _copy in 0..2 {
                    points.push(vec![f64::from(x), f64::from(y)]);
                }
            }
        }
        let tree = KdTree::build(points.clone()).unwrap();
        for q in [[1.0, 1.0], [1.5, 1.5], [0.0, 2.0], [3.5, 0.5], [2.0, 2.5]] {
            for k in [1, 2, 3, 5, 8, 13, 32] {
                assert_eq!(
                    tree.nearest(&q, k),
                    brute_force_nearest(&points, &q, k),
                    "q={q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn square_root_ties_break_by_index_like_brute_force() {
        // The two squared distances differ in their last bit but share a
        // square root; brute force ranks on that root and so prefers the
        // lower index, where ranking on the squared distance picks row 1.
        let points = vec![vec![1.0000003, 0.5000000000000001], vec![1.0000003, 0.5]];
        let (k0, k1) = (
            sq_euclidean(&points[0], &[0.0, 0.0]),
            sq_euclidean(&points[1], &[0.0, 0.0]),
        );
        assert!(k0 > k1 && k0.sqrt() == k1.sqrt());
        let want = brute_force_nearest(&points, &[0.0, 0.0], 1);
        assert_eq!(want, vec![(0, 1.1180342570780601)]);
        assert_eq!(KdTree::build(points).unwrap().nearest(&[0.0, 0.0], 1), want);
    }

    #[test]
    fn topk_select_identical_to_full_sort() {
        let mut rng = StdRng::seed_from_u64(0x0709);
        let dim = 5;
        let data: Vec<f64> = (0..250 * dim).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let mut cand = Vec::new();
        let mut out = Vec::new();
        for _ in 0..30 {
            let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-4.0..4.0)).collect();
            for k in [0, 1, 7, 16, 249, 250, 400] {
                brute_force_topk_into(&data, dim, &q, k, &mut cand, &mut out);
                assert_eq!(out, brute_force_nearest_flat(&data, dim, &q, k), "k={k}");
            }
        }
    }

    #[test]
    fn nearest_into_reuses_buffers() {
        let t = KdTree::build(vec![vec![0.0], vec![5.0], vec![2.0]]).unwrap();
        let mut scratch = NeighborScratch::default();
        let mut out = Vec::new();
        t.nearest_into(&[4.9], 2, &mut scratch, &mut out);
        assert_eq!(out, t.nearest(&[4.9], 2));
        t.nearest_into(&[0.1], 1, &mut scratch, &mut out);
        assert_eq!(out, t.nearest(&[0.1], 1));
    }

    #[test]
    fn matches_brute_force_high_dim() {
        // Even where the tree is slow it must stay exact.
        let mut rng = StdRng::seed_from_u64(0xD1E);
        let points: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..12).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let tree = KdTree::build(points.clone()).unwrap();
        let q: Vec<f64> = (0..12).map(|_| rng.gen_range(0.0..1.0)).collect();
        let got = tree.nearest(&q, 5);
        let want = brute_force_nearest(&points, &q, 5);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.1 - w.1).abs() < 1e-9);
        }
    }

    #[test]
    fn duplicate_points_all_returned() {
        let points = vec![vec![1.0, 1.0]; 4];
        let tree = KdTree::build(points).unwrap();
        let nn = tree.nearest(&[1.0, 1.0], 4);
        assert_eq!(nn.len(), 4);
        let mut idx: Vec<usize> = nn.iter().map(|n| n.0).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
        assert!(nn.iter().all(|n| n.1 == 0.0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_query_dim_panics() {
        let t = KdTree::build(vec![vec![1.0, 2.0]]).unwrap();
        t.nearest(&[1.0], 1);
    }

    #[test]
    fn results_sorted_nearest_first() {
        let points = vec![vec![0.0], vec![5.0], vec![2.0], vec![8.0]];
        let tree = KdTree::build(points).unwrap();
        let nn = tree.nearest(&[1.0], 3);
        let dists: Vec<f64> = nn.iter().map(|n| n.1).collect();
        assert_eq!(dists, vec![1.0, 1.0, 4.0]);
    }

    #[test]
    fn multi_leaf_trees_stay_exact_across_sizes() {
        // Sizes chosen to straddle the leaf threshold and its multiples so
        // both the single-leaf and deep-split code paths are exercised.
        let mut rng = StdRng::seed_from_u64(0x1EAF);
        for n in [1usize, 2, 15, 16, 17, 33, 64, 257] {
            let points: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..3).map(|_| rng.gen_range(-5.0..5.0)).collect())
                .collect();
            let tree = KdTree::build(points.clone()).unwrap();
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(-5.0..5.0)).collect();
            for k in [1, 4, n] {
                assert_eq!(
                    tree.nearest(&q, k),
                    brute_force_nearest(&points, &q, k),
                    "n={n} k={k}"
                );
            }
        }
    }
}
