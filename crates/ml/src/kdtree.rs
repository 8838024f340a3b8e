//! Exact k-nearest-neighbour search over flat feature rows:
//! [`NeighborIndex`], the one neighbour index kNN, IDW and kriging search,
//! and the brute-force reference it reproduces.
//!
//! Every search ranks rows the way [`brute_force_nearest_flat`] does: by
//! `(√K, index)`, with `K` the [`sq_euclidean`] of the full rows and ties
//! to the lower row index. Ranking on `K` instead would not be the same
//! order: distinct squared distances can share a square root, and brute
//! force then prefers the lower index.
//!
//! # The index
//!
//! The paper's rows are `[x, y, z | one-hot MAC | one-hot channel]`: 60 to
//! 80 columns, of which only the coordinates take more than two values.
//! At build time a column is a **key** column when every row's value is 0
//! or one shared value (a one-hot column, scaled or not, or a constant
//! one) and a **tree** column otherwise. The build reads the rows once, in
//! row-major order: it records each row's non-zero columns as bits and
//! each column's least and greatest non-zero value, and a column whose two
//! are equal, or which has none, is a key column. Rows with 1 to
//! `KDTREE_MAX_DIM` (8) tree columns are grouped by their non-zero key
//! columns, their bits without the tree columns, and each group gets a
//! KD-tree over its tree columns. A query visits groups in ascending key
//! offset — the squared distance between its key columns and the group's,
//! which every row of the group shares — and stops at the first group
//! whose offset cannot beat its k-th neighbour. Any other row set is
//! scanned ([`brute_force_topk_into`]).
//!
//! A tree search adds its group's offset to every pruning bound and scores
//! each point that may still rank on its full row, so the index skips only
//! rows it has proved cannot rank: [`NeighborIndex::nearest_into`] returns
//! exactly the pairs [`brute_force_nearest_flat`] does, bit for bit. The
//! rows are stored once, row-major; the trees hold only their tree
//! columns.
//!
//! # Own-group scoring
//!
//! A lattice fill queries one AP's key over and over, and that key's own
//! group sits at offset exactly `0.0`. There the leaf kernel's tree-column
//! distance already is the full-row score, bit for bit, when the tree
//! columns are the rows' first `t ≤ 3` columns; the index checks that rule
//! once, at build, and a search then takes the leaf distance as the score
//! instead of re-scoring the row. The proof:
//!
//! 1. **Every key term is `+0`.** The offset is [`sq_euclidean`] over the
//!    key columns, a rounded sum of squares. Rounded addition of
//!    non-negative values is never below either operand, so an offset of
//!    `0` means every key term `(q_c - g_c)²` is `+0`; that includes a term
//!    whose difference is non-zero but whose square underflows. A row of
//!    the group holds, in each key column, the group key's value up to the
//!    sign of a zero. So the row kernel's `r_c - q_c` is `±(q_c - g_c)` or
//!    a signed zero, and its square is the same `+0`.
//! 2. **The row kernel adds the tree terms as the tree kernel does.** Both
//!    kernels compute each term as `(row value - query value)²`. For a row
//!    of fewer than 8 columns the row kernel sums them in column order from
//!    a zero start: `(T₀ + T₁) + T₂`, then `+0` terms. For 8 or more,
//!    lanes 0 to `t - 1` hold `T₀ … T_{t-1}` plus `+0` terms, the other
//!    lanes and the tail hold only `+0` terms, and `combine` forms
//!    `((T₀ + T₁) + (T₂ + 0)) + (0 + 0) + 0 = (T₀ + T₁) + T₂`. The tree
//!    kernel sums its `t < 8` columns in order: `(T₀ + T₁) + T₂`. Adding
//!    `+0` or a zero start to a non-negative value returns it unchanged
//!    (`-0 + +0` is `+0`), so both give the same bits.
//!
//! The rule is the simplest that covers every layout the workspace builds:
//! the paper's rows, Knn3, PerMacKnn, IDW and kriging all put at most three
//! coordinates first. It fails for four tree columns, where the row kernel
//! adds `(T₀ + T₁) + (T₂ + T₃)` and the tree kernel `((T₀ + T₁) + T₂) + T₃`,
//! and for tree columns after the key columns, whose terms can land in
//! lanes `combine` pairs differently. Every group at a positive offset, and
//! every index the rule rejects, re-scores each point that may rank.
//!
//! # Tree layout
//!
//! Each tree is **leaf-based**: points are permuted into *slot order* so
//! every leaf owns a contiguous slot range of up to `LEAF_SIZE` points,
//! and internal nodes store only a split axis and coordinate. The permuted
//! points live **dimension-major** (structure-of-arrays): `cols[d * n +
//! slot]` is coordinate `d` of the point in `slot`, so a leaf scan streams
//! contiguous memory per dimension and runs through the block kernel
//! [`aerorem_numerics::kernels::sq_euclidean_cols_into`], which is
//! bit-identical per point to the scalar [`sq_euclidean`].

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use aerorem_numerics::kernels::{sq_euclidean, sq_euclidean_cols_into};

use crate::{FeatureMatrix, MlError};

/// Sentinel child index meaning "no child" and, in a node's `axis` field,
/// "this node is a leaf".
const NO_NODE: u32 = u32::MAX;

/// Maximum points per leaf. Around the point where one block-kernel scan of
/// a leaf costs the same as the node descent it replaces: big enough that
/// the SoA kernel gets contiguous runs to vectorize, small enough that a
/// query still prunes most of the tree.
const LEAF_SIZE: usize = 16;

/// Most tree columns the grouped layout accepts; rows with more are
/// scanned instead, since a KD-tree prunes little above this dimension
/// (see the `knn_backends` bench).
const KDTREE_MAX_DIM: usize = 8;

/// Factor applied to every pruning lower bound before it is compared with
/// the current k-th distance.
///
/// A search adds a group's key offset `O`, summed by [`sq_euclidean`] over
/// the key columns, to a tree-column part `T` (a `delta²` or a leaf point's
/// tree distance), while the exact score `K` sums the same per-column
/// terms over the full row in another order. With `u = 2⁻⁵³` and `n`
/// columns, each recursive sum is within a factor `1 ± n·u` of the exact
/// sum of its terms, and rounding `T + O` and the product with this factor
/// cost `1 + u` each, so `fl(fl(T + O) · SLACK) <= K` whenever
/// `SLACK <= 1 - (2n + 3)·u`. `1 - 2⁻⁴⁰` satisfies that for up to
/// [`MAX_PROBE_DIM`] columns, and costs a relative `2⁻⁴⁰` of pruning.
/// Subnormal sums are exact, and an underflowing product only lowers the
/// bound, so both stay safe.
///
/// The bound is compared without a square root: with `w` the k-th
/// candidate's distance, a point may rank when
/// `x = fl(lower · SLACK) <= sq_threshold(w) = next_up(fl(w²))`. That keeps
/// every point the root test `fl(√x) <= w` keeps. Rounding to nearest,
/// `fl(√x) <= w` implies `√x <= w + ulp(w)/2`, so
/// `x <= w² + w·ulp(w) + ulp(w)²/4`, and `fl(w²)` is at most half an
/// ulp of `w²` below `w²`:
///
/// * **Normal squares.** Write `w = m·2^e` with `1 <= m < 2`, so
///   `w·ulp(w) = m·2^(2e-52)`. That is under `√2` ulps of `w²` when
///   `m² < 2` (`ulp(w²) = 2^(2e-52)`) and under one when `m² >= 2`
///   (`ulp(w²) = 2^(2e-51)`). So `x < fl(w²) + 2·ulp(w²)`, and the
///   doubles there are `fl(w²)` and `next_up(fl(w²))`; past the top of
///   `fl(w²)`'s binade they lie twice as far apart, which only helps.
/// * **Subnormal squares.** For `w < 2^-511`, `w²` falls below `2^-1022`,
///   where doubles lie `2^-1074` apart, and `w·ulp(w) < 2^-1074` (it is
///   at most `w²·2^-52` for a normal `w`, and far smaller for a subnormal
///   one). So `x < fl(w²) + 1.5·2^-1074` plus the negligible
///   `ulp(w)²/4`, again at most `next_up(fl(w²))`. This covers a
///   subnormal or zero `w`, whose square rounds to `0`.
/// * **Overflow.** A square above `f64::MAX` rounds to `+∞`, and
///   `next_up(+∞)` is `+∞`, which bounds every `x`.
///
/// The bound admits at most two doubles more than the exact threshold,
/// the largest double whose root is at most `w`; such a point only
/// reaches [`NeighborScratch::offer`]'s exact comparison, so the results
/// are those of the root test.
const BOUND_SLACK: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;

/// Most tree columns for which a leaf distance can stand in for the full
/// row's score (see the module docs' own-group scoring).
const OWN_GROUP_MAX_TREE_COLS: usize = 3;

/// Widest full row a [`GroupProbe`] may score: the bound behind
/// [`BOUND_SLACK`] holds up to this many columns.
const MAX_PROBE_DIM: usize = 1 << 11;

/// Source of [`NeighborIndex`] ids. An [`IndexScratch`] reuses its cached
/// group order only for the index that computed it.
static NEXT_INDEX_ID: AtomicU64 = AtomicU64::new(0);

/// A `(distance, index)` candidate, ordered exactly as brute force ranks
/// rows: by `√K`, then by index.
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

/// How the index lends one group's tree to a search: every point of the
/// tree shares `offset`, the exact squared distance over the columns the
/// tree leaves out, and a point that may still rank is scored on its full
/// row, or by its leaf distance when that is the same bits.
#[derive(Debug, Clone, Copy)]
struct GroupProbe<'a> {
    /// [`sq_euclidean`] between the query's and the group's key columns.
    offset: f64,
    /// Whether a leaf distance is the full row's [`sq_euclidean`]: the
    /// group is at offset `0` in an index whose layout passes the
    /// own-group rule (see the module docs).
    leaf_is_score: bool,
    /// The full rows, row-major, `query.len()` values each.
    data: &'a [f64],
    /// The full query row.
    query: &'a [f64],
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

/// The k best candidates and leaf distance buffer of one search.
#[derive(Debug, Default, Clone)]
struct NeighborScratch {
    /// At most `k` candidates, nearest first.
    best: Vec<Candidate>,
    /// [`sq_threshold`] of the k-th candidate's distance, `+∞` while fewer
    /// than `k` are kept.
    threshold: f64,
    dists: Vec<f64>,
}

impl NeighborScratch {
    /// Empties the candidates for a new search.
    fn reset(&mut self) {
        self.best.clear();
        self.threshold = f64::INFINITY;
    }

    /// Whether a point whose squared distance is at least `lower`, up to
    /// the rounding [`BOUND_SLACK`] absorbs, could still enter the `k`
    /// best. Non-strict: a point tying the k-th distance can still win on
    /// its index.
    fn may_enter(&self, lower: f64) -> bool {
        lower * BOUND_SLACK <= self.threshold
    }

    /// Keeps `cand` if it ranks among the `k ≥ 1` best seen so far.
    fn offer(&mut self, k: usize, cand: Candidate) {
        if self.best.len() == k {
            if self.best.last().is_some_and(|worst| cand >= *worst) {
                return;
            }
            self.best.pop();
        }
        // One insertion-sort step: shift the worse candidates up a slot.
        self.best.push(cand);
        let mut at = self.best.len() - 1;
        while at > 0 && cand < self.best[at - 1] {
            self.best[at] = self.best[at - 1];
            at -= 1;
        }
        self.best[at] = cand;
        if let Some(worst) = self.best.get(k - 1) {
            self.threshold = sq_threshold(worst.dist);
        }
    }

    /// Replaces the contents of `out` with the kept candidates as
    /// `(index, distance)` pairs, nearest first.
    fn drain_sorted_into(&mut self, out: &mut Vec<(usize, f64)>) {
        out.clear();
        out.extend(self.best.drain(..).map(|c| (c.index, c.dist)));
    }
}

/// An upper bound on the largest double whose square root is at most
/// `dist`: `x.sqrt() <= dist` implies `x <= sq_threshold(dist)` for every
/// `x >= 0`, as [`BOUND_SLACK`]'s docs prove.
fn sq_threshold(dist: f64) -> f64 {
    (dist * dist).next_up()
}

/// An exact KD-tree over one group's tree columns, in a flat arena.
#[derive(Debug, Clone)]
struct KdTree {
    /// Dimension-major permuted storage: `cols[d * n + slot]`.
    cols: Vec<f64>,
    /// Row id of the point in each slot.
    slot_to_row: Vec<u32>,
    nodes: Vec<Node>,
    root: u32,
    dim: usize,
}

impl KdTree {
    /// Builds a tree over flat row-major points, point `i` reported as row
    /// `rows[i]`. Returns `None` for empty data, `dim == 0`, a length that
    /// is not a multiple of `dim` or not `rows.len()` points, or more than
    /// `u32::MAX - 1` points.
    fn build_flat(data: &[f64], dim: usize, rows: &[u32]) -> Option<Self> {
        if dim == 0 || data.is_empty() || !data.len().is_multiple_of(dim) {
            return None;
        }
        let n = data.len() / dim;
        if n >= NO_NODE as usize || n != rows.len() {
            return None;
        }
        let mut indices: Vec<usize> = (0..n).collect();
        let mut nodes = Vec::with_capacity(2 * n.div_ceil(LEAF_SIZE));
        let root = build_arena(data, dim, &mut indices, 0, &mut nodes);
        // After the build the index permutation *is* the slot order; lay the
        // permuted points out dimension-major for the leaf-scan kernel.
        let mut cols = vec![0.0; n * dim];
        for (slot, &pi) in indices.iter().enumerate() {
            for d in 0..dim {
                cols[d * n + slot] = data[pi * dim + d];
            }
        }
        let slot_to_row = indices.iter().map(|&pi| rows[pi]).collect();
        Some(KdTree {
            cols,
            slot_to_row,
            nodes,
            root,
            dim,
        })
    }

    /// Offers this tree's points to `scratch`'s `k` best as `probe`
    /// describes them: `query` holds the query's values in the tree's
    /// columns, bounds carry `probe.offset`, and a point that may still
    /// rank is scored by [`sq_euclidean`] over its full row, or by its leaf
    /// distance where `probe.leaf_is_score` says that is the same bits.
    /// Scratch is neither cleared nor drained, so a caller can search
    /// several groups into one candidate set.
    fn search_group(
        &self,
        query: &[f64],
        k: usize,
        probe: &GroupProbe<'_>,
        scratch: &mut NeighborScratch,
    ) {
        debug_assert_eq!(query.len(), self.dim, "query dimension mismatch");
        debug_assert!(probe.query.len() <= MAX_PROBE_DIM, "see BOUND_SLACK");
        self.search(self.root, query, k, probe, scratch);
    }

    fn search(
        &self,
        node: u32,
        query: &[f64],
        k: usize,
        probe: &GroupProbe<'_>,
        scratch: &mut NeighborScratch,
    ) {
        if node == NO_NODE {
            return;
        }
        let n = self.nodes[node as usize];
        if n.axis == NO_NODE {
            // Leaf: one SoA block scan over the slot range, then tie-exact
            // candidate upkeep on the scores of the points that may rank.
            let (lo, hi) = (n.left as usize, n.right as usize);
            let mut dists = std::mem::take(&mut scratch.dists);
            dists.resize(hi - lo, 0.0);
            let points = self.slot_to_row.len();
            sq_euclidean_cols_into(&self.cols, points, query, lo, hi, &mut dists);
            let dim = probe.query.len();
            for (&row, &dist2) in self.slot_to_row[lo..hi].iter().zip(&dists) {
                if !scratch.may_enter(dist2 + probe.offset) {
                    continue;
                }
                let row = row as usize;
                let full = if probe.leaf_is_score {
                    dist2
                } else {
                    sq_euclidean(&probe.data[row * dim..(row + 1) * dim], probe.query)
                };
                scratch.offer(
                    k,
                    Candidate {
                        dist: full.sqrt(),
                        index: row,
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
        if scratch.may_enter(delta * delta + probe.offset) {
            self.search(far, query, k, probe, scratch);
        }
    }
}

/// An exact k-nearest-neighbour index over flat feature rows: per-key
/// KD-trees, or a scan where they would not prune (see the module docs).
///
/// # Examples
///
/// ```
/// use aerorem_ml::kdtree::{brute_force_nearest_flat, IndexScratch, NeighborIndex};
/// use aerorem_ml::FeatureMatrix;
///
/// // [x, y | one-hot MAC ×2]: two tree columns and two key columns.
/// let rows = vec![
///     vec![0.0, 0.0, 1.0, 0.0],
///     vec![1.0, 1.0, 1.0, 0.0],
///     vec![2.0, 2.0, 0.0, 1.0],
/// ];
/// let index = NeighborIndex::new(FeatureMatrix::from_rows(&rows).unwrap());
/// assert!(index.uses_trees());
///
/// let query = [0.9, 1.1, 1.0, 0.0];
/// let mut scratch = IndexScratch::default();
/// let mut nn = Vec::new();
/// index.nearest_into(&query, 2, &mut scratch, &mut nn);
/// assert_eq!(nn[0].0, 1); // the row at (1, 1)
/// let flat = index.rows().as_slice();
/// assert_eq!(nn, brute_force_nearest_flat(flat, 4, &query, 2));
/// ```
#[derive(Debug, Clone)]
pub struct NeighborIndex {
    rows: FeatureMatrix,
    /// Keys this index's group orders in an [`IndexScratch`].
    id: u64,
    /// `None` when the rows are scanned.
    grouped: Option<Grouped>,
}

/// The grouped layout: one KD-tree per distinct key over the tree columns.
#[derive(Debug, Clone)]
struct Grouped {
    key_cols: Vec<usize>,
    tree_cols: Vec<usize>,
    groups: Vec<Group>,
    /// Whether the tree columns are the rows' first `t ≤ 3` columns, so a
    /// group at offset `0` is scored from its leaf distances (see the
    /// module docs).
    own_group_rule: bool,
}

/// The rows sharing one key.
#[derive(Debug, Clone)]
struct Group {
    /// The rows' values in the key columns.
    key: Vec<f64>,
    /// KD-tree over the rows' tree columns.
    tree: KdTree,
}

/// Reusable per-query state for [`NeighborIndex::nearest_into`]. The group
/// order depends only on the query's key columns, so it is kept for as
/// long as consecutive queries to one index share them — a whole lattice
/// fill for one AP. Any scratch may serve any index.
#[derive(Debug, Default, Clone)]
pub struct IndexScratch {
    /// Id of the index the cached `order` belongs to.
    owner: Option<u64>,
    /// Key columns the cached `order` was computed for.
    key: Vec<f64>,
    /// `(offset, group)` in ascending offset, ties by group.
    order: Vec<(f64, usize)>,
    tree_query: Vec<f64>,
    search: NeighborScratch,
    /// Candidate buffer of the scanned layout.
    pub(crate) cand: Vec<(usize, f64)>,
}

impl NeighborIndex {
    /// Indexes `rows`, which the index then owns: the grouped layout when
    /// they split into 1 to `KDTREE_MAX_DIM` tree columns plus key
    /// columns, a scan otherwise.
    ///
    /// # Panics
    ///
    /// Panics if a row holds a NaN or infinite value. kNN, IDW and kriging
    /// build through a path that returns
    /// [`MlError::NonFiniteFeature`] instead.
    pub fn new(rows: FeatureMatrix) -> NeighborIndex {
        match NeighborIndex::try_new(rows) {
            Ok(index) => index,
            Err(e) => panic!("NeighborIndex::new: {e}"),
        }
    }

    /// [`NeighborIndex::new`] for rows that may not be finite.
    ///
    /// One row-major pass reads every value once. It records each row's
    /// non-zero columns as bits and each column's least and greatest
    /// non-zero value; a column is a key column when those two are equal
    /// or there is none. A NaN or an infinity is non-zero, so the same
    /// pass finds it.
    ///
    /// # Errors
    ///
    /// [`MlError::NonFiniteFeature`] for the first NaN or infinite value in
    /// row-major order.
    pub(crate) fn try_new(rows: FeatureMatrix) -> Result<NeighborIndex, MlError> {
        let id = NEXT_INDEX_ID.fetch_add(1, AtomicOrdering::Relaxed);
        let dim = rows.dim();
        let words = dim.div_ceil(64);
        let mut masks = vec![0u64; rows.rows() * words];
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for (r, (row, mask)) in rows.iter().zip(masks.chunks_exact_mut(words)).enumerate() {
            for (word, values) in mask.iter_mut().zip(row.chunks(64)) {
                *word = values
                    .iter()
                    .enumerate()
                    .fold(0, |w, (i, &v)| w | u64::from(v != 0.0) << i);
            }
            for (base, &word) in (0..).step_by(64).zip(mask.iter()) {
                let mut bits = word;
                while bits != 0 {
                    let c = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let v = row[c];
                    if !v.is_finite() {
                        return Err(MlError::NonFiniteFeature {
                            row: Some(r),
                            column: c,
                        });
                    }
                    lo[c] = lo[c].min(v);
                    hi[c] = hi[c].max(v);
                }
            }
        }
        // `lo > hi` when the column has no non-zero value.
        let (key_cols, tree_cols): (Vec<usize>, Vec<usize>) =
            (0..dim).partition(|&c| lo[c] >= hi[c]);
        let grouped = (!tree_cols.is_empty()
            && tree_cols.len() <= KDTREE_MAX_DIM
            && dim <= MAX_PROBE_DIM
            && rows.rows() < u32::MAX as usize)
            .then(|| Grouped::build(&rows, masks, key_cols, tree_cols));
        Ok(NeighborIndex { rows, id, grouped })
    }

    /// The indexed rows, in insertion order: row ids index into them.
    pub fn rows(&self) -> &FeatureMatrix {
        &self.rows
    }

    /// Whether searches run the per-key KD-trees rather than a scan.
    pub fn uses_trees(&self) -> bool {
        self.grouped.is_some()
    }

    /// Replaces the contents of `out` with the `k` nearest rows to `query`
    /// as `(row, distance)` pairs, nearest first: exactly
    /// [`brute_force_nearest_flat`]'s pairs. Fewer than `k` when the index
    /// holds fewer rows.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the rows' dimension. The query
    /// must be finite, like the rows: a NaN makes a distance NaN, which
    /// panics the ranking. kNN, IDW and kriging check each query first and
    /// return [`MlError::NonFiniteFeature`].
    pub fn nearest_into(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut IndexScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        let dim = self.rows.dim();
        assert_eq!(query.len(), dim, "query dimension mismatch");
        match &self.grouped {
            Some(grouped) if k > 0 => {
                grouped.nearest_into(self.id, self.rows.as_slice(), query, k, scratch, out);
            }
            _ => brute_force_topk_into(self.rows.as_slice(), dim, query, k, &mut scratch.cand, out),
        }
    }
}

impl Grouped {
    /// Groups the rows by key and builds each group's tree. `masks` holds
    /// each row's non-zero columns, `dim.div_ceil(64)` bit words a row.
    fn build(
        rows: &FeatureMatrix,
        mut masks: Vec<u64>,
        key_cols: Vec<usize>,
        tree_cols: Vec<usize>,
    ) -> Self {
        // A key value is 0 or the column's shared value, so a row's key is
        // its non-zero key columns (±0 give the same distance terms, so
        // they are one key value): its mask without the tree columns.
        let words = rows.dim().div_ceil(64);
        let mut tree_bits = vec![0u64; words];
        for &c in &tree_cols {
            tree_bits[c / 64] |= 1 << (c % 64);
        }
        for mask in masks.chunks_exact_mut(words) {
            for (word, tree) in mask.iter_mut().zip(&tree_bits) {
                *word &= !tree;
            }
        }
        // Groups are numbered in the order of their first rows.
        let mut group_ids: BTreeMap<&[u64], usize> = BTreeMap::new();
        let group_of: Vec<usize> = masks
            .chunks_exact(words)
            .map(|key| {
                let next = group_ids.len();
                *group_ids.entry(key).or_insert(next)
            })
            .collect();
        // Group g takes slots starts[g]..starts[g + 1]. One pass over the
        // rows fills them in ascending row order, with each row's tree
        // columns.
        let mut starts = vec![0; group_ids.len() + 1];
        for &g in &group_of {
            starts[g + 1] += 1;
        }
        for g in 0..group_ids.len() {
            starts[g + 1] += starts[g];
        }
        let t = tree_cols.len();
        let mut next = starts.clone();
        let mut order = vec![0u32; rows.rows()];
        let mut points = vec![0.0; rows.rows() * t];
        for (r, (row, &g)) in rows.iter().zip(&group_of).enumerate() {
            let slot = next[g];
            next[g] += 1;
            order[slot] = r as u32;
            for (p, &c) in points[slot * t..(slot + 1) * t].iter_mut().zip(&tree_cols) {
                *p = row[c];
            }
        }
        let groups = starts
            .windows(2)
            .map(|slots| {
                let (from, to) = (slots[0], slots[1]);
                let first = rows.row(order[from] as usize);
                Group {
                    key: key_cols.iter().map(|&c| first[c]).collect(),
                    tree: KdTree::build_flat(&points[from * t..to * t], t, &order[from..to])
                        .expect("a group holds at least one row"),
                }
            })
            .collect();
        let own_group_rule = tree_cols.len() <= OWN_GROUP_MAX_TREE_COLS
            && tree_cols.iter().enumerate().all(|(i, &c)| i == c);
        Grouped {
            key_cols,
            tree_cols,
            groups,
            own_group_rule,
        }
    }

    /// The `k ≥ 1` nearest rows of `data` to `query`, as brute force ranks
    /// them, into `out`.
    fn nearest_into(
        &self,
        id: u64,
        data: &[f64],
        query: &[f64],
        k: usize,
        s: &mut IndexScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        let same_key = s.owner == Some(id)
            && self
                .key_cols
                .iter()
                .zip(&s.key)
                .all(|(&c, v)| query[c].to_bits() == v.to_bits());
        if !same_key {
            s.owner = Some(id);
            s.key.clear();
            s.key.extend(self.key_cols.iter().map(|&c| query[c]));
            s.order.clear();
            s.order.extend(
                self.groups
                    .iter()
                    .enumerate()
                    .map(|(g, group)| (sq_euclidean(&s.key, &group.key), g)),
            );
            s.order
                .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        s.tree_query.clear();
        s.tree_query
            .extend(self.tree_cols.iter().map(|&c| query[c]));
        s.search.reset();
        for &(offset, g) in &s.order {
            // Later groups have offsets at least this large, and every row
            // of a group lies at least its offset away.
            if !s.search.may_enter(offset) {
                break;
            }
            let group = &self.groups[g];
            let probe = GroupProbe {
                offset,
                leaf_is_score: self.own_group_rule && offset == 0.0,
                data,
                query,
            };
            group
                .tree
                .search_group(&s.tree_query, k, &probe, &mut s.search);
        }
        s.search.drain_sorted_into(out);
    }
}

/// Recursive arena build over a slot range. Ranges of up to [`LEAF_SIZE`]
/// points become leaves; larger ranges select the upper median of their
/// index subslice along the chosen axis (`select_nth_unstable_by`, no
/// sort) and split there, so slots `[lo, lo+mid)` hold coordinates `<=`
/// the split value and the rest hold `>=` — which is what makes
/// `|query[axis] - split|` a valid far-side distance bound even with
/// duplicate coordinates. The final permutation of `indices` is the slot
/// order. Nodes are stored pre-order.
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
    let mid = indices.len() / 2;
    let (_, &mut median, _) = indices.select_nth_unstable_by(mid, |&a, &b| {
        data[a * dim + axis].total_cmp(&data[b * dim + axis])
    });
    let split = data[median * dim + axis];
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

/// Brute-force exact k-nearest-neighbour over flat row-major points: full
/// sort of all `(index, distance)` pairs by `(distance, index)`, truncated to
/// `k`. The ranking [`NeighborIndex`] reproduces bit for bit, and the
/// oracle the tests compare it against.
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
/// pairs as [`brute_force_nearest_flat`]. The index's scan layout runs on
/// it.
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

    fn index(rows: &[Vec<f64>]) -> NeighborIndex {
        NeighborIndex::new(FeatureMatrix::from_rows(rows).unwrap())
    }

    fn nearest(index: &NeighborIndex, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        index.nearest_into(q, k, &mut IndexScratch::default(), &mut out);
        out
    }

    fn oracle(index: &NeighborIndex, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        let rows = index.rows();
        brute_force_nearest_flat(rows.as_slice(), rows.dim(), q, k)
    }

    fn random_rows(rng: &mut StdRng, n: usize, dim: usize, span: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-span..span)).collect())
            .collect()
    }

    #[test]
    fn build_flat_rejects_bad_input() {
        assert!(KdTree::build_flat(&[], 2, &[]).is_none());
        assert!(KdTree::build_flat(&[1.0, 2.0, 3.0], 2, &[0]).is_none());
        assert!(KdTree::build_flat(&[1.0], 0, &[0]).is_none());
        assert!(KdTree::build_flat(&[1.0, 2.0], 2, &[0, 1]).is_none());
        assert!(KdTree::build_flat(&[1.0, 2.0], 2, &[7]).is_some());
    }

    #[test]
    fn layout_follows_the_tree_column_count() {
        let mut rng = StdRng::seed_from_u64(0x1A7);
        assert!(index(&random_rows(&mut rng, 40, 3, 5.0)).uses_trees());
        assert!(index(&random_rows(&mut rng, 40, 8, 5.0)).uses_trees());
        assert!(!index(&random_rows(&mut rng, 40, 9, 5.0)).uses_trees());
        // Key columns (0 or one shared value) do not count: 2 tree columns
        // beside 20 one-hot columns.
        let keyed: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let mut r = vec![rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)];
                r.extend((0..20).map(|j| if j == i % 5 { 3.0 } else { 0.0 }));
                r
            })
            .collect();
        assert!(index(&keyed).uses_trees());
        // No tree column: every column is two-valued, or there is one row.
        assert!(!index(&[vec![0.0, 1.0], vec![2.0, 0.0]]).uses_trees());
        assert!(!index(&[vec![1.0, 2.0, 3.0]]).uses_trees());
    }

    /// Checks the index's key columns and groups against the rule stated
    /// directly — a column is a key column when its non-zero values are
    /// one shared value or none, and rows share a group when they set the
    /// same key columns, a `-0.0` counting as unset — and returns the key
    /// columns.
    fn assert_grouping_follows_the_rule(rows: &[Vec<f64>]) -> Vec<usize> {
        let dim = rows[0].len();
        let key_cols: Vec<usize> = (0..dim)
            .filter(|&c| {
                let mut values = rows.iter().map(|r| r[c]).filter(|&v| v != 0.0);
                let first = values.next();
                values.all(|v| Some(v) == first)
            })
            .collect();
        let tree_cols: Vec<usize> = (0..dim).filter(|c| !key_cols.contains(c)).collect();
        let idx = index(rows);
        let grouped = idx.grouped.as_ref().expect("1 to 8 tree columns");
        assert_eq!(grouped.key_cols, key_cols);
        assert_eq!(grouped.tree_cols, tree_cols);
        let key = |r: usize| -> Vec<bool> { key_cols.iter().map(|&c| rows[r][c] != 0.0).collect() };
        let mut grouped_rows = 0;
        for group in &grouped.groups {
            let mut members: Vec<usize> =
                group.tree.slot_to_row.iter().map(|&r| r as usize).collect();
            members.sort_unstable();
            let same_key: Vec<usize> = (0..rows.len())
                .filter(|&r| key(r) == key(members[0]))
                .collect();
            assert_eq!(members, same_key);
            for (&c, &v) in key_cols.iter().zip(&group.key) {
                assert!(members.iter().all(|&r| rows[r][c] == v), "column {c}");
            }
            grouped_rows += members.len();
        }
        assert_eq!(grouped_rows, rows.len());
        key_cols
    }

    #[test]
    fn key_columns_and_groups_follow_the_rule() {
        let mut rng = StdRng::seed_from_u64(0x6B3);
        let tiny = f64::from_bits(1);
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let zero = if i % 2 == 0 { 0.0 } else { -0.0 };
                let pick = |n: usize, hot: &[(usize, f64)]| {
                    hot.iter()
                        .find(|&&(m, _)| i % n == m)
                        .map_or(zero, |&(_, v)| v)
                };
                vec![
                    if i % 4 == 3 {
                        0.0
                    } else {
                        rng.gen_range(0.0..4.0)
                    },
                    rng.gen_range(0.0..4.0),
                    zero,
                    pick(3, &[(0, 3.0)]),
                    pick(3, &[(1, 3.0)]),
                    7.5,
                    pick(60, &[(17, -2.0)]),
                    pick(4, &[(0, 1.0), (1, 2.0)]),
                    pick(5, &[(0, tiny)]),
                    pick(5, &[(1, tiny), (2, 2.0 * tiny)]),
                ]
            })
            .collect();
        // Key: ±0 only (2), one-hot ×3 with ±0 between (3, 4), constant
        // (5), one non-zero row (6), one subnormal value (8). Tree: the
        // coordinates, one with zeros (0), two values (7), two subnormal
        // values (9). A zero in a tree column must not split a group.
        let key_cols = assert_grouping_follows_the_rule(&rows);
        assert_eq!(key_cols, vec![2, 3, 4, 5, 6, 8]);
    }

    #[test]
    fn keys_beyond_one_bit_word_follow_the_rule() {
        // Three tree columns, the last after the key columns and sometimes
        // zero, around 64 columns in all: the paper's rows have 57 to 69
        // key columns.
        let mut rng = StdRng::seed_from_u64(0x640);
        for keys in [60, 61, 62, 64, 65, 126] {
            let rows: Vec<Vec<f64>> = (0..200)
                .map(|i| {
                    let mut r = vec![rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)];
                    let hot = [i % keys, (i * 7 + keys - 1) % keys];
                    r.extend((0..keys).map(|j| if hot.contains(&j) { 3.0 } else { 0.0 }));
                    r.push(if i % 3 == 0 {
                        0.0
                    } else {
                        rng.gen_range(0.0..4.0)
                    });
                    r
                })
                .collect();
            let key_cols = assert_grouping_follows_the_rule(&rows);
            assert_eq!(key_cols, (2..2 + keys).collect::<Vec<_>>(), "{keys} keys");
        }
    }

    /// Rows `[x, y | one-hot ×68]` with a NaN in a key column of the
    /// second bit word, an infinity in a tree column and one more NaN.
    fn rows_with_non_finite_values() -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let mut r = vec![i as f64, (i * i % 7) as f64];
                r.extend((0..68).map(|j| f64::from(u8::from(j == i % 68))));
                r
            })
            .collect();
        rows[9][66] = f64::NAN;
        rows[12][0] = f64::NEG_INFINITY;
        rows[30][5] = f64::NAN;
        rows
    }

    #[test]
    fn the_build_reports_the_first_non_finite_value_in_row_major_order() {
        let mut rows = rows_with_non_finite_values();
        let build = |rows: &[Vec<f64>]| {
            NeighborIndex::try_new(FeatureMatrix::from_rows(rows).unwrap()).err()
        };
        let at = |row, column| {
            Some(MlError::NonFiniteFeature {
                row: Some(row),
                column,
            })
        };
        assert_eq!(build(&rows), at(9, 66));
        rows[9][66] = 0.0;
        assert_eq!(build(&rows), at(12, 0));
        rows[12][0] = 1.0;
        assert_eq!(build(&rows), at(30, 5));
        rows[30][5] = 0.0;
        assert!(build(&rows).is_none());
    }

    #[test]
    #[should_panic(expected = "non-finite feature in training row 9, column 66")]
    fn new_panics_on_a_non_finite_row() {
        index(&rows_with_non_finite_values());
    }

    #[test]
    fn single_row_and_k_zero() {
        for rows in [
            vec![vec![1.0, 2.0, 3.0]],
            vec![vec![0.0], vec![1.5], vec![4.0]],
        ] {
            let idx = index(&rows);
            let nn = nearest(&idx, &vec![0.0; rows[0].len()], 5);
            assert_eq!(nn.len(), rows.len());
            assert_eq!(nn[0].0, 0);
            assert!(nearest(&idx, &vec![0.0; rows[0].len()], 0).is_empty());
        }
    }

    #[test]
    fn identical_to_brute_force_across_dimensions() {
        // The exact same (index, distance) pairs, bit for bit, on both
        // layouts: trees up to 8 columns, the scan above.
        let mut rng = StdRng::seed_from_u64(0xA7E4A);
        for dim in [1, 2, 3, 5, 8, 12] {
            let idx = index(&random_rows(&mut rng, 300, dim, 10.0));
            assert_eq!(idx.uses_trees(), dim <= KDTREE_MAX_DIM);
            for _ in 0..20 {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect();
                for k in [1, 4, 16, 300] {
                    assert_eq!(nearest(&idx, &q, k), oracle(&idx, &q, k), "dim={dim} k={k}");
                }
            }
        }
    }

    #[test]
    fn exact_distance_ties_resolve_by_index_like_brute_force() {
        // A lattice of duplicated coordinates makes distance ties at the k
        // boundary routine; the index must pick the same tied rows brute
        // force does (lowest index first), for queries on and off points.
        let mut rows = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                for _copy in 0..2 {
                    rows.push(vec![f64::from(x), f64::from(y)]);
                }
            }
        }
        let idx = index(&rows);
        assert!(idx.uses_trees());
        for q in [[1.0, 1.0], [1.5, 1.5], [0.0, 2.0], [3.5, 0.5], [2.0, 2.5]] {
            for k in [1, 2, 3, 5, 8, 13, 32] {
                assert_eq!(nearest(&idx, &q, k), oracle(&idx, &q, k), "q={q:?} k={k}");
            }
        }
    }

    #[test]
    fn square_root_ties_break_by_index_like_brute_force() {
        // The two squared distances differ in their last bit but share a
        // square root; brute force ranks on that root and so prefers the
        // lower index, where ranking on the squared distance picks row 1.
        // Row 2 gives both columns a second non-zero value, so the index
        // builds a tree over them.
        let rows = vec![
            vec![1.0000003, 0.5000000000000001],
            vec![1.0000003, 0.5],
            vec![4.0, 4.0],
        ];
        let (k0, k1) = (
            sq_euclidean(&rows[0], &[0.0, 0.0]),
            sq_euclidean(&rows[1], &[0.0, 0.0]),
        );
        assert!(k0 > k1 && k0.sqrt() == k1.sqrt());
        let idx = index(&rows);
        assert!(idx.uses_trees());
        let want = oracle(&idx, &[0.0, 0.0], 1);
        assert_eq!(want, vec![(0, 1.1180342570780601)]);
        assert_eq!(nearest(&idx, &[0.0, 0.0], 1), want);
    }

    #[test]
    fn grouped_keys_match_brute_force_with_one_scratch() {
        // [x, y, z | one-hot MAC ×3 scaled by 3 | one-hot channel ×2]: one
        // tree per (MAC, channel) pair. One scratch serves every query, so
        // its cached group order is reused within a key and rebuilt across
        // keys, including keys no row has.
        let mut rng = StdRng::seed_from_u64(0x6E0);
        let row = |rng: &mut StdRng, mac: Option<usize>, chan: Option<usize>| {
            let mut r: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..4.0)).collect();
            r.extend((0..3).map(|m| if mac == Some(m) { 3.0 } else { 0.0 }));
            r.extend((0..2).map(|c| if chan == Some(c) { 1.0 } else { 0.0 }));
            r
        };
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| {
                let (mac, chan) = (rng.gen_range(0..3), rng.gen_range(0..2));
                row(&mut rng, Some(mac), Some(chan))
            })
            .collect();
        let idx = index(&rows);
        assert!(idx.uses_trees());
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        for key in [(0, 0), (0, 0), (2, 1), (3, 0), (1, 2), (0, 0)] {
            let (mac, chan) = ((key.0 < 3).then_some(key.0), (key.1 < 2).then_some(key.1));
            for _ in 0..4 {
                let q = row(&mut rng, mac, chan);
                for k in [1, 3, 16, 24, 200] {
                    idx.nearest_into(&q, k, &mut scratch, &mut out);
                    assert_eq!(out, oracle(&idx, &q, k), "key={key:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn one_scratch_serves_several_indexes() {
        // Same key columns, one group in `a` and two in `b`: a scratch's
        // cached group order must not carry over from one index to the
        // other, or `b` would search only its first group.
        let a = index(&[
            vec![0.0, 1.0, 0.0],
            vec![1.0, 1.0, 0.0],
            vec![2.0, 1.0, 0.0],
        ]);
        let b = index(&[
            vec![5.0, 0.0, 1.0],
            vec![6.0, 0.0, 1.0],
            vec![7.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0],
        ]);
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        for _ in 0..2 {
            for (idx, q) in [
                (&a, [0.5, 1.0, 0.0]),
                (&b, [0.5, 1.0, 0.0]),
                (&b, [6.2, 0.0, 1.0]),
            ] {
                idx.nearest_into(&q, 2, &mut scratch, &mut out);
                assert_eq!(out, oracle(idx, &q, 2), "q={q:?}");
            }
        }
    }

    /// The exact threshold: the largest double whose root is at most `d`,
    /// found by stepping from `d²`.
    fn largest_square_within(d: f64) -> f64 {
        let mut t = d * d;
        if t.sqrt() <= d {
            while t < f64::INFINITY && t.next_up().sqrt() <= d {
                t = t.next_up();
            }
        } else {
            while t.sqrt() > d {
                t = t.next_down();
            }
        }
        t
    }

    #[test]
    fn sq_threshold_bounds_the_largest_square_within_two_doubles() {
        // Zero, subnormal, tiny (squares that underflow to subnormals),
        // ordinary, huge (squares that overflow) and infinite distances,
        // plus the √-tie distance of the test below.
        let mut dists = vec![
            0.0,
            f64::from_bits(1),
            1e-310,
            f64::MIN_POSITIVE,
            1e-160,
            f64::MIN_POSITIVE.sqrt(),
            2f64.powi(-511),
            1e-100,
            0.3,
            1.0,
            1.1180342570780601,
            2f64.sqrt(),
            2.0,
            1e100,
            f64::MAX.sqrt(),
            f64::MAX.sqrt().next_up(),
            1e200,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(0x5C0);
        dists.extend((0..4000).map(|_| 10f64.powf(rng.gen_range(-330.0..310.0))));
        for &d in &dists {
            let (t, exact) = (sq_threshold(d), largest_square_within(d));
            assert!(t >= exact, "d={d:e} t={t:e} exact={exact:e}");
            assert!(
                t <= exact.next_up().next_up(),
                "d={d:e} t={t:e} exact={exact:e}"
            );
            // Around the threshold, every square the root test keeps is
            // kept.
            let mut x = exact;
            for _ in 0..4 {
                x = x.next_down().max(0.0);
            }
            for _ in 0..8 {
                assert!(x.sqrt() > d || x <= t, "d={d:e} x={x:e}");
                x = x.next_up();
            }
        }
    }

    #[test]
    fn sq_threshold_keeps_every_square_sharing_the_root() {
        // Two squared distances that differ in their last bit share the
        // root w: both may enter against a k-th distance of w.
        let (k0, k1) = (
            sq_euclidean(&[1.0000003, 0.5000000000000001], &[0.0, 0.0]),
            sq_euclidean(&[1.0000003, 0.5], &[0.0, 0.0]),
        );
        let w = k0.sqrt();
        assert!(k0 > k1 && k1.sqrt() == w);
        let t = sq_threshold(w);
        assert!(k1 <= t && k0 <= t);
        assert!(k0 <= largest_square_within(w));
    }

    #[test]
    fn own_group_rule_holds_only_for_up_to_three_leading_tree_columns() {
        let mut rng = StdRng::seed_from_u64(0x0C0);
        // `coords` coordinate columns before or after three one-hot columns.
        let rows = |rng: &mut StdRng, coords: usize, last: bool| -> Vec<Vec<f64>> {
            (0..60)
                .map(|i| {
                    let c: Vec<f64> = (0..coords).map(|_| rng.gen_range(0.0..4.0)).collect();
                    let h: Vec<f64> = (0..3).map(|m| f64::from(u8::from(i % 3 == m))).collect();
                    if last {
                        [h, c].concat()
                    } else {
                        [c, h].concat()
                    }
                })
                .collect()
        };
        let rule = |rows: &[Vec<f64>]| {
            let idx = index(rows);
            idx.grouped.as_ref().map(|g| g.own_group_rule)
        };
        for coords in 1..=3 {
            assert_eq!(
                rule(&rows(&mut rng, coords, false)),
                Some(true),
                "{coords} first"
            );
            assert_eq!(
                rule(&rows(&mut rng, coords, true)),
                Some(false),
                "{coords} last"
            );
        }
        for coords in 4..=8 {
            assert_eq!(
                rule(&rows(&mut rng, coords, false)),
                Some(false),
                "{coords} first"
            );
        }
    }

    #[test]
    fn four_tree_columns_are_rescored_in_the_own_group() {
        // [a, b, c, d | 1, 0, 0, 0]: the row kernel adds the terms 1, 2⁻⁵²,
        // 2⁻⁵⁴, 2⁻⁵⁴ as (1 + 2⁻⁵²) + (2⁻⁵⁴ + 2⁻⁵⁴) = 1 + 2⁻⁵¹, the tree
        // kernel as ((1 + 2⁻⁵²) + 2⁻⁵⁴) + 2⁻⁵⁴ = 1 + 2⁻⁵², and their roots
        // differ. The query shares the rows' key, so the search visits
        // their group at offset 0 and must still score the full row.
        let (e26, e27) = (2f64.powi(-26), 2f64.powi(-27));
        let rows = vec![
            vec![1.0, e26, e27, e27, 1.0, 0.0, 0.0, 0.0],
            vec![3.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.0],
            vec![2.0, 3.0, 3.0, 3.0, 1.0, 0.0, 0.0, 0.0],
        ];
        let q = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let idx = index(&rows);
        assert!(idx.uses_trees());
        assert_eq!(sq_euclidean(&rows[0], &q), 1.0 + 2f64.powi(-51));
        assert_eq!(sq_euclidean(&rows[0][..4], &q[..4]), 1.0 + 2f64.powi(-52));
        let want = oracle(&idx, &q, 1);
        assert_eq!(want, vec![(0, 1.0 + f64::EPSILON)]);
        assert_eq!(nearest(&idx, &q, 1), want);
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
    fn duplicate_rows_all_returned() {
        let mut rows = vec![vec![1.0, 1.0]; 4];
        rows.push(vec![2.0, 3.0]);
        let idx = index(&rows);
        assert!(idx.uses_trees());
        let nn = nearest(&idx, &[1.0, 1.0], 4);
        assert_eq!(nn.iter().map(|n| n.0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(nn.iter().all(|n| n.1 == 0.0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_query_dim_panics() {
        nearest(&index(&[vec![1.0, 2.0], vec![3.0, 5.0]]), &[1.0], 1);
    }

    #[test]
    fn results_sorted_nearest_first() {
        let idx = index(&[vec![0.0], vec![5.0], vec![2.0], vec![8.0]]);
        let dists: Vec<f64> = nearest(&idx, &[1.0], 3).iter().map(|n| n.1).collect();
        assert_eq!(dists, vec![1.0, 1.0, 4.0]);
    }

    #[test]
    fn multi_leaf_trees_stay_exact_across_sizes() {
        // Sizes chosen to straddle the leaf threshold and its multiples so
        // both the single-leaf and deep-split code paths are exercised.
        let mut rng = StdRng::seed_from_u64(0x1EAF);
        for n in [2usize, 15, 16, 17, 33, 64, 257] {
            let idx = index(&random_rows(&mut rng, n, 3, 5.0));
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(-5.0..5.0)).collect();
            for k in [1, 4, n] {
                assert_eq!(nearest(&idx, &q, k), oracle(&idx, &q, k), "n={n} k={k}");
            }
        }
    }
}
