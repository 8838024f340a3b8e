//! Ordinary kriging with variogram fitting.
//!
//! The geostatistical gold standard for radio-map interpolation — not in the
//! paper's lineup (see `DESIGN.md` §6: "kriging/REM tools scattered; no
//! canonical 3D indoor REM pipeline"), implemented here as the extension
//! estimator and ablation baseline.
//!
//! Pipeline: an **empirical semivariogram** is estimated from the training
//! pairs ([`empirical_variogram_matrix`]), a parametric model (exponential /
//! spherical / Gaussian) is fitted by weighted least squares over a
//! parameter grid ([`fit_variogram`]), and predictions solve the ordinary
//! kriging system over the nearest neighbours with the Lagrange multiplier
//! enforcing unbiasedness.

use aerorem_numerics::exec::{self, ExecPolicy};
use aerorem_numerics::kernels::sq_euclidean;
use aerorem_numerics::{LuFactors, Matrix};

use crate::kdtree::{IndexScratch, NeighborIndex};
use crate::{finite_row, validate_matrix_y, FeatureMatrix, MlError, Regressor};

/// Parametric semivariogram families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariogramKind {
    /// `γ(h) = n + s·(1 − exp(−3h/r))`.
    Exponential,
    /// The spherical model: rises to the sill at exactly `h = r`.
    Spherical,
    /// `γ(h) = n + s·(1 − exp(−3h²/r²))` — very smooth near the origin.
    Gaussian,
}

/// A fitted semivariogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variogram {
    /// Model family.
    pub kind: VariogramKind,
    /// Nugget: variance at zero lag (measurement noise).
    pub nugget: f64,
    /// Partial sill: variance gained from nugget to plateau.
    pub sill: f64,
    /// Range: lag at which the plateau is (practically) reached.
    pub range: f64,
}

impl Variogram {
    /// Evaluates `γ(h)`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is negative.
    pub fn gamma(&self, h: f64) -> f64 {
        assert!(h >= 0.0, "lag must be non-negative");
        if h == 0.0 {
            return 0.0;
        }
        let r = self.range.max(1e-9);
        let structured = match self.kind {
            VariogramKind::Exponential => 1.0 - (-3.0 * h / r).exp(),
            VariogramKind::Spherical => {
                if h >= r {
                    1.0
                } else {
                    1.5 * h / r - 0.5 * (h / r).powi(3)
                }
            }
            VariogramKind::Gaussian => 1.0 - (-3.0 * h * h / (r * r)).exp(),
        };
        self.nugget + self.sill * structured
    }
}

/// One bin of an empirical semivariogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariogramBin {
    /// Mean lag of the pairs in the bin, meters.
    pub lag: f64,
    /// Semivariance `½·mean[(zᵢ − zⱼ)²]`.
    pub gamma: f64,
    /// Number of pairs.
    pub pairs: usize,
}

/// Rows per accumulation block of the O(n²) pair loop. The block partition
/// depends only on the row count — never on the worker-thread count — and
/// the per-block partial sums are reduced in ascending block order, so the
/// bins are bit-identical under [`ExecPolicy::Serial`] and
/// [`ExecPolicy::Parallel`] on any machine.
const VARIOGRAM_BLOCK: usize = 128;

/// Per-bin partial sums accumulated by one row block — the reusable
/// scratch of the blocked pair loop.
struct BinPartial {
    sum_gamma: Vec<f64>,
    sum_lag: Vec<f64>,
    count: Vec<usize>,
}

/// Accumulates all pairs `(i, j)` with `lo <= i < hi`, `i < j` into
/// per-bin partial sums.
///
/// The pair loop runs over the flat row-major slice with `chunks_exact`
/// (no per-row bounds checks) and pre-filters pairs on *squared* distance
/// before taking any square root: `d² > max_lag²·(1+1e-12)` guarantees
/// `√d² > max_lag` even through the rounding of the threshold multiply, so
/// the guard can never disagree with the exact `h >= max_lag` test that
/// still gates every surviving pair — out-of-range pairs (the majority in
/// a large survey) skip the `sqrt` entirely without changing a single bit.
fn variogram_block(
    points: &FeatureMatrix,
    values: &[f64],
    n_bins: usize,
    max_lag: f64,
    width: f64,
    lo: usize,
    hi: usize,
) -> BinPartial {
    let mut p = BinPartial {
        sum_gamma: vec![0.0; n_bins],
        sum_lag: vec![0.0; n_bins],
        count: vec![0; n_bins],
    };
    let dim = points.dim();
    let flat = points.as_slice();
    let skip2 = max_lag * max_lag * (1.0 + 1e-12);
    for i in lo..hi {
        let xi = &flat[i * dim..(i + 1) * dim];
        let vi = values[i];
        let rest = flat[(i + 1) * dim..]
            .chunks_exact(dim)
            .zip(&values[i + 1..]);
        if dim == 3 {
            // 3-D positions dominate this workload; the explicit form sums
            // the three squares in the same sequential order as the shared
            // kernel's sub-lane tail, so it is bit-identical to it.
            let (x0, x1, x2) = (xi[0], xi[1], xi[2]);
            for (xj, &vj) in rest {
                let d0 = x0 - xj[0];
                let d1 = x1 - xj[1];
                let d2 = x2 - xj[2];
                let sq = d0 * d0 + d1 * d1 + d2 * d2;
                if sq > skip2 {
                    continue;
                }
                accumulate_pair(&mut p, sq, vi, vj, max_lag, width, n_bins);
            }
        } else {
            for (xj, &vj) in rest {
                let sq = sq_euclidean(xi, xj);
                if sq > skip2 {
                    continue;
                }
                accumulate_pair(&mut p, sq, vi, vj, max_lag, width, n_bins);
            }
        }
    }
    p
}

/// Bins one surviving pair, applying the exact `h >= max_lag` cut.
#[inline(always)]
fn accumulate_pair(
    p: &mut BinPartial,
    sq: f64,
    vi: f64,
    vj: f64,
    max_lag: f64,
    width: f64,
    n_bins: usize,
) {
    let h = sq.sqrt();
    if h >= max_lag {
        return;
    }
    let bin = ((h / width) as usize).min(n_bins - 1);
    p.sum_gamma[bin] += 0.5 * (vi - vj).powi(2);
    p.sum_lag[bin] += h;
    p.count[bin] += 1;
}

/// Estimates the empirical semivariogram with `n_bins` equal-width lag bins
/// up to `max_lag`, reading flat row-major points directly and splitting
/// the O(n²) pair loop into fixed-size row blocks mapped under `policy`.
///
/// # Errors
///
/// Returns [`MlError::InvalidHyperparameter`] for zero bins or non-positive
/// `max_lag`, [`MlError::EmptyTrainingSet`] for fewer than 2 points,
/// [`MlError::LengthMismatch`] when points and values disagree.
pub fn empirical_variogram_matrix(
    points: &FeatureMatrix,
    values: &[f64],
    n_bins: usize,
    max_lag: f64,
    policy: ExecPolicy,
) -> Result<Vec<VariogramBin>, MlError> {
    if n_bins == 0 {
        return Err(MlError::InvalidHyperparameter {
            name: "n_bins",
            reason: "must be at least 1",
        });
    }
    if max_lag <= 0.0 {
        return Err(MlError::InvalidHyperparameter {
            name: "max_lag",
            reason: "must be positive",
        });
    }
    if points.rows() < 2 {
        return Err(MlError::EmptyTrainingSet);
    }
    validate_matrix_y(points, values)?;
    let width = max_lag / n_bins as f64;
    // Chunk the row range through the chunked executor, using the values
    // slice as the item list (chunk offset == first row of the block). The
    // pinned granularity reproduces the fixed VARIOGRAM_BLOCK partition on
    // every machine and policy.
    let gran = exec::Granularity::new(VARIOGRAM_BLOCK, VARIOGRAM_BLOCK);
    let partials = exec::map_chunks(policy, gran, values, |lo, chunk| {
        variogram_block(points, values, n_bins, max_lag, width, lo, lo + chunk.len())
    });
    // Reduce in block order: the summation order is a pure function of the
    // input, independent of the execution policy.
    let mut sum_gamma = vec![0.0; n_bins];
    let mut sum_lag = vec![0.0; n_bins];
    let mut count = vec![0usize; n_bins];
    for p in partials {
        for b in 0..n_bins {
            sum_gamma[b] += p.sum_gamma[b];
            sum_lag[b] += p.sum_lag[b];
            count[b] += p.count[b];
        }
    }
    Ok((0..n_bins)
        .filter(|&b| count[b] > 0)
        .map(|b| VariogramBin {
            lag: sum_lag[b] / count[b] as f64,
            gamma: sum_gamma[b] / count[b] as f64,
            pairs: count[b],
        })
        .collect())
}

/// Fits a variogram model to empirical bins by pair-count-weighted least
/// squares over a dense parameter grid, scoring grid candidates under
/// `policy`. The argmin scan runs serially in grid order with a strict `<`,
/// so ties resolve to the first candidate no matter the policy.
///
/// # Errors
///
/// Returns [`MlError::EmptyTrainingSet`] when no bins are provided.
pub fn fit_variogram_with(
    bins: &[VariogramBin],
    kind: VariogramKind,
    policy: ExecPolicy,
) -> Result<Variogram, MlError> {
    if bins.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    let max_gamma = bins
        .iter()
        .map(|b| b.gamma)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let max_lag = bins.iter().map(|b| b.lag).fold(0.0f64, f64::max).max(1e-9);
    let mut grid = Vec::with_capacity(6 * 6 * 8);
    for nug_frac in [0.0, 0.05, 0.1, 0.2, 0.35, 0.5] {
        for sill_frac in [0.4, 0.6, 0.8, 1.0, 1.2, 1.5] {
            for range_frac in [0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0] {
                grid.push(Variogram {
                    kind,
                    nugget: nug_frac * max_gamma,
                    sill: sill_frac * max_gamma,
                    range: range_frac * max_lag,
                });
            }
        }
    }
    // Scoring one candidate touches every bin but allocates nothing, and
    // the dense grid is only 288 candidates — below the floor, the whole
    // grid is one chunk and the executor takes its inline serial path
    // (spawning workers for microseconds of arithmetic costs more than the
    // scan itself; BENCH_3 `train_select` measured the parallel arm losing).
    let pool = exec::ScratchPool::new(|| ());
    let scored = exec::map_vec_with(
        policy,
        exec::Granularity::new(512, 1024),
        &pool,
        &grid,
        |(), v| {
            let err: f64 = bins
                .iter()
                .map(|b| b.pairs as f64 * (v.gamma(b.lag) - b.gamma).powi(2))
                // lint:allow(par-float-reduce) — serial sum over `bins` in index order within one work item; no cross-worker combine
                .sum();
            (*v, err)
        },
    );
    let mut best = Variogram {
        kind,
        nugget: 0.0,
        sill: max_gamma,
        range: max_lag,
    };
    let mut best_err = f64::INFINITY;
    for (v, err) in scored {
        if err < best_err {
            best_err = err;
            best = v;
        }
    }
    Ok(best)
}

/// Fits a variogram model to empirical bins by pair-count-weighted least
/// squares over a dense parameter grid, under the default execution policy.
///
/// # Errors
///
/// Returns [`MlError::EmptyTrainingSet`] when no bins are provided.
pub fn fit_variogram(bins: &[VariogramBin], kind: VariogramKind) -> Result<Variogram, MlError> {
    fit_variogram_with(bins, kind, ExecPolicy::default())
}

/// Ordinary kriging configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrigingConfig {
    /// Variogram family to fit.
    pub variogram: VariogramKind,
    /// Lag bins for the empirical variogram.
    pub n_bins: usize,
    /// Neighbours per prediction (keeps the linear solve small).
    pub max_neighbors: usize,
}

impl Default for KrigingConfig {
    fn default() -> Self {
        KrigingConfig {
            variogram: VariogramKind::Exponential,
            n_bins: 12,
            max_neighbors: 24,
        }
    }
}

/// Ordinary kriging regressor.
///
/// # Examples
///
/// ```
/// use aerorem_ml::kriging::{KrigingConfig, OrdinaryKriging};
/// use aerorem_ml::Regressor;
///
/// # fn main() -> Result<(), aerorem_ml::MlError> {
/// let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.5]).collect();
/// let y: Vec<f64> = x.iter().map(|r| -70.0 - r[0]).collect();
/// let mut ok = OrdinaryKriging::new(KrigingConfig::default());
/// ok.fit(&x, &y)?;
/// let p = ok.predict_one(&[2.25])?;
/// assert!((p - -72.25).abs() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OrdinaryKriging {
    config: KrigingConfig,
    variogram: Option<Variogram>,
    index: Option<NeighborIndex>,
    y: Vec<f64>,
}

/// Chunk-sizing hint for the batched kriging paths. One kriging query costs
/// a neighbour search plus at least an O(k²) back-substitution, so modest
/// chunks amortize the executor's bookkeeping; the cap keeps millions of
/// voxels claimable for load balance. A pure function of the row count, so
/// both policies run identical chunk partitions.
const KRIGING_BATCH_GRAN: exec::Granularity = exec::Granularity::new(64, 4096);

/// Factor-cache hit/miss counters for the kriging solver, harvested from
/// [`KrigingScratch::cache_stats`] or returned by the batched prediction
/// paths. Counters only — cache behavior never changes a predicted bit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KrigingCacheStats {
    /// Queries whose neighbour index-set matched the cached factorization.
    pub hits: u64,
    /// Queries that assembled and factorized a fresh system.
    pub misses: u64,
}

impl KrigingCacheStats {
    /// Total cached-path queries (hits + misses).
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of queries served from the cached factorization, in
    /// `[0, 1]`; `0.0` when nothing was counted.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Accumulates another counter pair into this one.
    pub fn merge(&mut self, other: KrigingCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Reusable per-query state for the kriging solve: neighbour-search
/// buffers, the `(k+1)×(k+1)` system matrix and its RHS, and the
/// **factor cache** — the LU factorization of the last assembled system,
/// keyed on the (index-sorted) neighbour set. Consecutive lattice voxels
/// overwhelmingly share neighbour sets, so a cache hit skips both system
/// assembly and the O(k³) factorization, leaving an O(k²)
/// back-substitution. Hits are bit-identical to misses by construction:
/// an identical neighbour set assembles an identical matrix, which
/// factorizes to identical bits.
///
/// A scratch belongs to **one fitted model**: the cache key carries a
/// fingerprint of the model's training storage and is invalidated when it
/// changes, so reusing a scratch across models degrades to misses rather
/// than corrupting output.
#[derive(Debug, Default, Clone)]
pub struct KrigingScratch {
    index: IndexScratch,
    nn: Vec<(usize, f64)>,
    a: Option<Matrix>,
    b: Vec<f64>,
    sol: Vec<f64>,
    /// Index-sorted neighbour set the cached factors were assembled from.
    key: Vec<usize>,
    /// Fingerprint of the model the cached factors belong to.
    token: (usize, usize),
    factors: LuFactors,
    key_valid: bool,
    hits: u64,
    misses: u64,
}

impl KrigingScratch {
    /// A fresh scratch with an empty factor cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Factor-cache hit/miss counters accumulated by this scratch.
    pub fn cache_stats(&self) -> KrigingCacheStats {
        KrigingCacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }
}

impl OrdinaryKriging {
    /// Creates an unfitted kriging estimator.
    pub fn new(config: KrigingConfig) -> Self {
        OrdinaryKriging {
            config,
            variogram: None,
            index: None,
            y: Vec::new(),
        }
    }

    /// The fitted variogram, if any.
    pub fn variogram(&self) -> Option<Variogram> {
        self.variogram
    }
}

impl OrdinaryKriging {
    /// Predicts the target **and the kriging variance** at one row — the
    /// model's own uncertainty about the prediction, in squared target
    /// units. Zero at sampled locations, growing toward the variogram sill
    /// far from any sample. This is what separates kriging from the other
    /// interpolators: the REM can carry a confidence layer.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Regressor::predict_one`].
    pub fn predict_with_variance(&self, q: &[f64]) -> Result<(f64, f64), MlError> {
        self.predict_with_variance_with(q, &mut KrigingScratch::default())
    }

    /// Identifies this model's training storage for the scratch-held factor
    /// cache: cached factors are only reused while the fingerprint matches.
    fn cache_token(&self, index: &NeighborIndex) -> (usize, usize) {
        let flat = index.rows().as_slice();
        (flat.as_ptr() as usize, flat.len())
    }

    /// Shared prediction core: every kriging path — per-item, batched,
    /// serial, parallel — runs this exact code with some scratch, so all of
    /// them agree bit-for-bit. The scratch carries the neighbour buffers,
    /// the system matrix, and the factor cache (see [`KrigingScratch`]);
    /// callers that keep one scratch across many nearby queries amortize
    /// the O(k³) factorization down to an O(k²) solve per query.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Regressor::predict_one`].
    pub fn predict_with_variance_with(
        &self,
        q: &[f64],
        scratch: &mut KrigingScratch,
    ) -> Result<(f64, f64), MlError> {
        let index = self.index.as_ref().ok_or(MlError::NotFitted)?;
        let vgram = self.variogram.ok_or(MlError::NotFitted)?;
        let rows = index.rows();
        if q.len() != rows.dim() {
            return Err(MlError::DimensionMismatch {
                expected: rows.dim(),
                found: q.len(),
            });
        }
        finite_row(None, q)?;
        index.nearest_into(
            q,
            self.config.max_neighbors,
            &mut scratch.index,
            &mut scratch.nn,
        );
        if let Some(&(i, d)) = scratch.nn.first() {
            if d < 1e-12 {
                return Ok((self.y[i], 0.0));
            }
        }
        // Canonical neighbour order: sorting by training index makes the
        // assembled system a pure function of the neighbour *set*, so two
        // queries sharing a set share the matrix — and therefore its
        // factorization — bit for bit. (Distances travel with the indices;
        // the RHS below stays query-specific.)
        scratch.nn.sort_unstable_by_key(|&(i, _)| i);
        let n = scratch.nn.len();
        let token = self.cache_token(index);
        let hit = scratch.key_valid
            && scratch.token == token
            && scratch.key.len() == n
            && scratch.key.iter().zip(&scratch.nn).all(|(&k, &(i, _))| k == i);
        if hit {
            scratch.hits += 1;
        } else {
            scratch.misses += 1;
            scratch.key_valid = false;
            let a = match scratch.a.as_mut() {
                Some(m) if m.rows() == n + 1 => {
                    m.fill(0.0);
                    m
                }
                _ => scratch.a.insert(Matrix::zeros(n + 1, n + 1)),
            };
            for (ri, &(i, _)) in scratch.nn.iter().enumerate() {
                // γ is symmetric in the distance, and the distance kernel is
                // bitwise symmetric in its arguments, so fill both triangles
                // from one evaluation. γ(0) = 0 keeps the diagonal at the
                // jitter value alone.
                for (rj, &(j, _)) in scratch.nn.iter().enumerate().skip(ri + 1) {
                    let h = sq_euclidean(rows.row(i), rows.row(j)).sqrt();
                    let g = vgram.gamma(h);
                    a[(ri, rj)] = g;
                    a[(rj, ri)] = g;
                }
                a[(ri, ri)] = 1e-10;
                a[(ri, n)] = 1.0;
                a[(n, ri)] = 1.0;
            }
            a.lu_factor_into(&mut scratch.factors)
                .map_err(|e| MlError::Numerical(format!("kriging system: {e}")))?;
            scratch.key.clear();
            scratch.key.extend(scratch.nn.iter().map(|&(i, _)| i));
            scratch.token = token;
            scratch.key_valid = true;
        }
        // The RHS is query-specific — γ from the query to each neighbour —
        // and costs O(k); only the factorization behind it is cached.
        scratch.b.clear();
        scratch.b.resize(n + 1, 0.0);
        for (ri, &(_, d)) in scratch.nn.iter().enumerate() {
            scratch.b[ri] = vgram.gamma(d);
        }
        scratch.b[n] = 1.0;
        scratch
            .factors
            .solve_factored_into(&scratch.b, &mut scratch.sol)
            .map_err(|e| MlError::Numerical(format!("kriging system: {e}")))?;
        let sol = &scratch.sol;
        let pred: f64 = scratch
            .nn
            .iter()
            .enumerate()
            .map(|(ri, &(i, _))| sol[ri] * self.y[i])
            .sum();
        // Kriging variance: sigma^2 = sum_i w_i gamma(q, x_i) + mu.
        let variance: f64 = (0..n).map(|ri| sol[ri] * scratch.b[ri]).sum::<f64>() + sol[n];
        Ok((pred, variance.max(0.0)))
    }

    /// Batched [`OrdinaryKriging::predict_with_variance`] under the default
    /// execution policy: one prediction vector and one variance vector,
    /// row-aligned with `xs`. Bit-identical to the per-item path.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Regressor::predict_one`], first failing
    /// row in input order.
    pub fn predict_with_variance_batch(
        &self,
        xs: &FeatureMatrix,
    ) -> Result<(Vec<f64>, Vec<f64>), MlError> {
        self.predict_with_variance_batch_with(xs, ExecPolicy::default())
            .map(|(preds, vars, _)| (preds, vars))
    }

    /// [`OrdinaryKriging::predict_with_variance_batch`] with an explicit
    /// execution policy, also returning the factor-cache counters
    /// aggregated over all workers.
    ///
    /// Rows fan out through the chunked executor with one
    /// [`KrigingScratch`] per worker thread, so each worker carries its own
    /// factor cache across its chunks. Results are bit-identical across
    /// policies and to the per-item path: the cache only changes *when*
    /// factorizations run, never their bits. The hit counters, by contrast,
    /// are legitimately execution-dependent (each worker warms its own
    /// cache) — they are observability, not output.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Regressor::predict_one`], first failing
    /// row in input order.
    pub fn predict_with_variance_batch_with(
        &self,
        xs: &FeatureMatrix,
        policy: ExecPolicy,
    ) -> Result<(Vec<f64>, Vec<f64>, KrigingCacheStats), MlError> {
        let rows: Vec<usize> = (0..xs.rows()).collect();
        let pool = exec::ScratchPool::new(KrigingScratch::default);
        let pairs = exec::try_map_vec_with(policy, KRIGING_BATCH_GRAN, &pool, &rows, |s, &i| {
            self.predict_with_variance_with(xs.row(i), s)
        })?;
        let stats = drain_cache_stats(&pool);
        let (preds, vars) = pairs.into_iter().unzip();
        Ok((preds, vars, stats))
    }
}

/// Sums the factor-cache counters of every scratch a finished batch run
/// returned to `pool`, consuming the scratches.
fn drain_cache_stats<F: Fn() -> KrigingScratch>(
    pool: &exec::ScratchPool<KrigingScratch, F>,
) -> KrigingCacheStats {
    let mut stats = KrigingCacheStats::default();
    for _ in 0..pool.idle() {
        stats.merge(pool.take().cache_stats());
    }
    stats
}

impl Regressor for OrdinaryKriging {
    fn fit_batch(&mut self, xs: &FeatureMatrix, y: &[f64]) -> Result<(), MlError> {
        validate_matrix_y(xs, y)?;
        if xs.rows() < 2 {
            return Err(MlError::EmptyTrainingSet);
        }
        // The neighbour index owns the single copy of the training rows,
        // and its build checks that they are finite.
        let index = NeighborIndex::try_new(xs.clone())?;
        let xm = index.rows();
        // Max lag: half the data diameter (standard practice).
        let probe = xm.rows().min(200);
        let mut max_lag = 0.0f64;
        for i in 0..probe {
            let xi = xm.row(i);
            for j in (i + 1)..probe {
                max_lag = max_lag.max(sq_euclidean(xi, xm.row(j)).sqrt());
            }
        }
        // Half the data diameter is standard; tiny datasets can leave that
        // window empty, so fall back to the full diameter.
        let policy = ExecPolicy::default();
        let mut bins = empirical_variogram_matrix(
            xm,
            y,
            self.config.n_bins,
            (max_lag / 2.0).max(1e-6),
            policy,
        )?;
        if bins.is_empty() {
            bins = empirical_variogram_matrix(xm, y, self.config.n_bins, max_lag * 1.01, policy)?;
        }
        self.variogram = Some(fit_variogram_with(&bins, self.config.variogram, policy)?);
        self.index = Some(index);
        self.y = y.to_vec();
        Ok(())
    }

    fn predict_one(&self, q: &[f64]) -> Result<f64, MlError> {
        self.predict_with_variance(q).map(|(pred, _)| pred)
    }

    fn predict_batch(&self, xs: &FeatureMatrix) -> Result<Vec<f64>, MlError> {
        self.predict_with_variance_batch_with(xs, ExecPolicy::default())
            .map(|(preds, _, _)| preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_properties() {
        for kind in [
            VariogramKind::Exponential,
            VariogramKind::Spherical,
            VariogramKind::Gaussian,
        ] {
            let v = Variogram {
                kind,
                nugget: 0.5,
                sill: 2.0,
                range: 3.0,
            };
            assert_eq!(v.gamma(0.0), 0.0, "{kind:?} at zero");
            // Monotone non-decreasing.
            let mut last = 0.0;
            for i in 1..50 {
                let g = v.gamma(i as f64 * 0.2);
                assert!(g >= last - 1e-12, "{kind:?} not monotone");
                last = g;
            }
            // Approaches nugget+sill at large lag.
            assert!((v.gamma(100.0) - 2.5).abs() < 1e-6, "{kind:?} sill");
            // Nugget discontinuity just above zero.
            assert!(v.gamma(1e-9) >= 0.5);
        }
    }

    #[test]
    fn spherical_hits_sill_exactly_at_range() {
        let v = Variogram {
            kind: VariogramKind::Spherical,
            nugget: 0.0,
            sill: 1.0,
            range: 2.0,
        };
        assert!((v.gamma(2.0) - 1.0).abs() < 1e-12);
        assert!((v.gamma(5.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_variogram_of_linear_field_grows() {
        // z = x → γ(h) = h²/2: strictly growing in lag.
        let pts: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.5]).collect();
        let vals: Vec<f64> = pts.iter().map(|p| p[0]).collect();
        let xm = FeatureMatrix::from_rows(&pts).unwrap();
        let bins = empirical_variogram_matrix(&xm, &vals, 8, 8.0, ExecPolicy::default()).unwrap();
        assert!(bins.len() >= 4);
        for w in bins.windows(2) {
            assert!(w[1].gamma > w[0].gamma);
        }
    }

    #[test]
    fn empirical_variogram_validation() {
        let pts = FeatureMatrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let one = FeatureMatrix::from_rows(&[vec![0.0]]).unwrap();
        let vals = vec![0.0, 1.0];
        let policy = ExecPolicy::default();
        assert!(empirical_variogram_matrix(&pts, &vals, 0, 1.0, policy).is_err());
        assert!(empirical_variogram_matrix(&pts, &vals, 4, 0.0, policy).is_err());
        assert!(empirical_variogram_matrix(&one, &vals[..1], 4, 1.0, policy).is_err());
    }

    #[test]
    fn fit_recovers_reasonable_parameters() {
        // Synthesize bins from a known exponential variogram.
        let truth = Variogram {
            kind: VariogramKind::Exponential,
            nugget: 0.0,
            sill: 4.0,
            range: 5.0,
        };
        let bins: Vec<VariogramBin> = (1..=12)
            .map(|i| {
                let lag = i as f64 * 0.8;
                VariogramBin {
                    lag,
                    gamma: truth.gamma(lag),
                    pairs: 100,
                }
            })
            .collect();
        let fitted = fit_variogram(&bins, VariogramKind::Exponential).unwrap();
        // Grid resolution limits precision; check the shape matches.
        for b in &bins {
            assert!(
                (fitted.gamma(b.lag) - b.gamma).abs() < 0.8,
                "at {}: {} vs {}",
                b.lag,
                fitted.gamma(b.lag),
                b.gamma
            );
        }
        assert!(fit_variogram(&[], VariogramKind::Gaussian).is_err());
    }

    #[test]
    fn kriging_is_exact_at_samples() {
        let x: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0] * 0.5).sin() * 5.0 - 70.0).collect();
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&x, &y).unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            let p = ok.predict_one(xi).unwrap();
            assert!((p - yi).abs() < 1e-6, "at {xi:?}: {p} vs {yi}");
        }
    }

    #[test]
    fn kriging_interpolates_smoothly() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.5]).collect();
        let y: Vec<f64> = x.iter().map(|r| -70.0 - 2.0 * r[0]).collect();
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&x, &y).unwrap();
        let p = ok.predict_one(&[3.25]).unwrap();
        assert!((p - -76.5).abs() < 1.0, "got {p}");
        assert!(ok.variogram().is_some());
    }

    #[test]
    fn kriging_2d_field() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                x.push(vec![i as f64, j as f64]);
                y.push(-60.0 - (i as f64) - 0.5 * (j as f64));
            }
        }
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&x, &y).unwrap();
        let p = ok.predict_one(&[3.5, 3.5]).unwrap();
        assert!((p - (-60.0 - 3.5 - 1.75)).abs() < 0.5, "got {p}");
    }

    #[test]
    fn variance_zero_at_samples_grows_away() {
        let x: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| -70.0 - r[0]).collect();
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&x, &y).unwrap();
        let (_, v_at_sample) = ok.predict_with_variance(&[4.0]).unwrap();
        assert_eq!(v_at_sample, 0.0);
        let (_, v_near) = ok.predict_with_variance(&[4.3]).unwrap();
        let (_, v_far) = ok.predict_with_variance(&[30.0]).unwrap();
        assert!(v_near >= 0.0);
        assert!(
            v_far > v_near,
            "extrapolation must be less certain: {v_far} vs {v_near}"
        );
    }

    #[test]
    fn variance_errors_match_prediction_errors() {
        let ok = OrdinaryKriging::new(KrigingConfig::default());
        assert!(ok.predict_with_variance(&[0.0]).is_err());
    }

    #[test]
    fn duplicate_points_do_not_break_the_solve() {
        let x = vec![vec![0.0], vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![5.0, 5.0, 6.0, 7.0];
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&x, &y).unwrap();
        let p = ok.predict_one(&[1.5]).unwrap();
        assert!(p.is_finite());
        assert!((5.0..=7.5).contains(&p));
    }

    #[test]
    fn predict_batch_matches_predict_one_bits() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..9 {
            for j in 0..9 {
                x.push(vec![i as f64 * 0.45, j as f64 * 0.4]);
                y.push(-60.0 - (i as f64) * 1.3 - 0.7 * (j as f64));
            }
        }
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&x, &y).unwrap();
        let queries: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64 * 0.19, 3.2 - i as f64 * 0.13])
            .collect();
        let fm = FeatureMatrix::from_rows(&queries).unwrap();
        let batch = ok.predict_batch(&fm).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(ok.predict_one(q).unwrap(), *b);
        }
    }

    #[test]
    fn blocked_variogram_is_policy_invariant() {
        // More rows than one accumulation block so the reduce actually
        // crosses block boundaries; exact equality, not tolerance.
        let pts: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i % 17) as f64 * 0.3, (i % 23) as f64 * 0.2])
            .collect();
        let vals: Vec<f64> = (0..300).map(|i| ((i * 13) % 29) as f64 * 0.5).collect();
        let xm = FeatureMatrix::from_rows(&pts).unwrap();
        let a = empirical_variogram_matrix(&xm, &vals, 10, 4.0, ExecPolicy::Serial).unwrap();
        let b = empirical_variogram_matrix(&xm, &vals, 10, 4.0, ExecPolicy::Parallel).unwrap();
        assert_eq!(a, b);
        let fa = fit_variogram_with(&a, VariogramKind::Exponential, ExecPolicy::Serial).unwrap();
        let fb = fit_variogram_with(&b, VariogramKind::Exponential, ExecPolicy::Parallel).unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn fit_batch_matches_fit_bits() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64 * 0.5, (i / 8) as f64 * 0.7])
            .collect();
        let y: Vec<f64> = (0..40).map(|i| -65.0 - (i % 11) as f64 * 0.9).collect();
        let mut a = OrdinaryKriging::new(KrigingConfig::default());
        a.fit(&x, &y).unwrap();
        let mut b = OrdinaryKriging::new(KrigingConfig::default());
        b.fit_batch(&FeatureMatrix::from_rows(&x).unwrap(), &y)
            .unwrap();
        assert_eq!(a.variogram(), b.variogram());
        for q in [[0.3, 1.1], [2.7, 0.2], [1.9, 2.4]] {
            assert_eq!(a.predict_one(&q).unwrap(), b.predict_one(&q).unwrap());
        }
    }

    /// A 2-D fitted model (one KD-tree in its index) over a deterministic
    /// grid.
    fn fitted_2d() -> OrdinaryKriging {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..9 {
            for j in 0..9 {
                x.push(vec![i as f64 * 0.45, j as f64 * 0.4]);
                y.push(-60.0 - (i as f64) * 1.3 - 0.7 * (j as f64));
            }
        }
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&x, &y).unwrap();
        ok
    }

    #[test]
    fn factor_cache_hits_are_bit_identical_to_misses() {
        let ok = fitted_2d();
        // Two clusters of tightly packed queries: within a cluster the
        // neighbour set is shared (hits after the first), across clusters it
        // changes (miss).
        let mut queries = Vec::new();
        for c in [[0.93, 0.81], [2.83, 2.61]] {
            for i in 0..6 {
                queries.push(vec![c[0] + i as f64 * 1e-3, c[1] - i as f64 * 1e-3]);
            }
        }
        let mut cached = KrigingScratch::new();
        for q in &queries {
            // Fresh scratch per query: every solve is a cold miss.
            let cold = ok
                .predict_with_variance_with(q, &mut KrigingScratch::new())
                .unwrap();
            let warm = ok.predict_with_variance_with(q, &mut cached).unwrap();
            assert_eq!(cold.0.to_bits(), warm.0.to_bits(), "prediction at {q:?}");
            assert_eq!(cold.1.to_bits(), warm.1.to_bits(), "variance at {q:?}");
        }
        let stats = cached.cache_stats();
        assert_eq!(stats.total(), queries.len() as u64);
        assert!(stats.hits >= 8, "clustered queries must hit: {stats:?}");
        assert!(stats.misses >= 2, "cluster changes must miss: {stats:?}");
        assert!(stats.hit_rate() > 0.5 && stats.hit_rate() < 1.0);
    }

    #[test]
    fn variance_batch_matches_per_item_bits_under_both_policies() {
        let ok = fitted_2d();
        // Interleave clustered rows (factor-cache hits) with scattered rows
        // (misses) so both cache paths run under every policy.
        let mut rows = Vec::new();
        for i in 0..40 {
            if i % 3 == 0 {
                rows.push(vec![i as f64 * 0.09, 3.0 - i as f64 * 0.07]);
            } else {
                rows.push(vec![1.5 + (i % 2) as f64 * 1e-3, 1.4]);
            }
        }
        let fm = FeatureMatrix::from_rows(&rows).unwrap();
        let mut per_item = Vec::new();
        for q in &rows {
            per_item.push(
                ok.predict_with_variance_with(q, &mut KrigingScratch::new())
                    .unwrap(),
            );
        }
        let mut by_policy = Vec::new();
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
            let (preds, vars, stats) = ok.predict_with_variance_batch_with(&fm, policy).unwrap();
            assert_eq!(preds.len(), rows.len());
            assert_eq!(vars.len(), rows.len());
            for (i, &(p, v)) in per_item.iter().enumerate() {
                assert_eq!(preds[i].to_bits(), p.to_bits(), "{policy} pred row {i}");
                assert_eq!(vars[i].to_bits(), v.to_bits(), "{policy} var row {i}");
            }
            assert!(stats.hits > 0, "{policy}: clustered rows must hit the cache");
            assert!(stats.misses > 0, "{policy}: fresh sets must miss");
            by_policy.push((preds, vars));
        }
        assert_eq!(by_policy[0], by_policy[1], "serial ≡ parallel");
        // The plain batch wrapper and the Regressor path share the core.
        let (wp, wv) = ok.predict_with_variance_batch(&fm).unwrap();
        assert_eq!((wp, wv), by_policy[0]);
        let trait_preds = ok.predict_batch(&fm).unwrap();
        assert_eq!(trait_preds, by_policy[0].0);
    }

    #[test]
    fn scratch_reused_across_models_degrades_to_miss_not_corruption() {
        let a = fitted_2d();
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 6) as f64 * 0.5, (i / 6) as f64 * 0.45])
            .collect();
        let y: Vec<f64> = (0..30).map(|i| -75.0 + (i % 7) as f64 * 1.1).collect();
        let mut b = OrdinaryKriging::new(KrigingConfig::default());
        b.fit(&x, &y).unwrap();
        let q = [1.05, 0.95];
        let mut shared = KrigingScratch::new();
        let a_ref = a.predict_with_variance(&q).unwrap();
        let b_ref = b.predict_with_variance(&q).unwrap();
        // Alternating models through one (misused) scratch must still give
        // each model's own answer: the cache token invalidates the factors.
        for _ in 0..3 {
            assert_eq!(a.predict_with_variance_with(&q, &mut shared).unwrap(), a_ref);
            assert_eq!(b.predict_with_variance_with(&q, &mut shared).unwrap(), b_ref);
        }
        assert_eq!(shared.cache_stats().hits, 0);
    }

    mod variance_batch_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Batched predictions AND variances are bit-identical to the
            // fresh-scratch per-item path under both policies, across
            // random worlds and query mixes — including duplicated queries
            // (factor-cache hits) and scattered ones (misses).
            #[test]
            fn batched_equals_per_item_bits(
                seed in 0u64..1000,
                n_train in 12usize..60,
                n_query in 1usize..50,
                dup_every in 1usize..5,
            ) {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let x: Vec<Vec<f64>> = (0..n_train)
                    .map(|_| vec![rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)])
                    .collect();
                let y: Vec<f64> = (0..n_train).map(|_| rng.gen_range(-90.0..-50.0)).collect();
                let mut ok = OrdinaryKriging::new(KrigingConfig::default());
                ok.fit(&x, &y).unwrap();
                let mut rows = Vec::new();
                for i in 0..n_query {
                    if i % dup_every == 0 || rows.is_empty() {
                        rows.push(vec![rng.gen_range(-0.5..4.5), rng.gen_range(-0.5..4.5)]);
                    } else {
                        // Nudge the previous query: same neighbour set with
                        // overwhelming probability — a factor-cache hit.
                        let prev = rows.last().unwrap().clone();
                        rows.push(vec![prev[0] + 1e-4, prev[1] - 1e-4]);
                    }
                }
                let fm = FeatureMatrix::from_rows(&rows).unwrap();
                let mut reference = Vec::new();
                for q in &rows {
                    reference.push(
                        ok.predict_with_variance_with(q, &mut KrigingScratch::new()).unwrap(),
                    );
                }
                for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
                    let (preds, vars, stats) =
                        ok.predict_with_variance_batch_with(&fm, policy).unwrap();
                    prop_assert_eq!(stats.total(), reference.len() as u64);
                    for (i, &(p, v)) in reference.iter().enumerate() {
                        prop_assert_eq!(preds[i].to_bits(), p.to_bits(), "{} pred {}", policy, i);
                        prop_assert_eq!(vars[i].to_bits(), v.to_bits(), "{} var {}", policy, i);
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_features_are_errors_not_panics() {
        let ok = fitted_2d();
        let query = Some(MlError::NonFiniteFeature {
            row: None,
            column: 0,
        });
        assert_eq!(ok.predict_one(&[f64::NAN, 1.0]).err(), query);
        let batch = FeatureMatrix::from_rows(&[vec![1.0, 1.0], vec![f64::NAN, 1.0]]).unwrap();
        assert_eq!(ok.predict_batch(&batch).err(), query);
        assert_eq!(ok.predict_with_variance_batch(&batch).err(), query);

        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.3, 1.0]).collect();
        let y: Vec<f64> = (0..20).map(|i| -60.0 - i as f64).collect();
        let mut bad = x.clone();
        bad[3][1] = f64::NEG_INFINITY;
        let fit = Some(MlError::NonFiniteFeature {
            row: Some(3),
            column: 1,
        });
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        assert_eq!(ok.fit(&bad, &y).err(), fit);
        assert_eq!(
            ok.fit_batch(&FeatureMatrix::from_rows(&bad).unwrap(), &y)
                .err(),
            fit
        );
        assert_eq!(ok.predict_one(&[1.0, 1.0]), Err(MlError::NotFitted));
    }

    #[test]
    fn lifecycle_errors() {
        let ok = OrdinaryKriging::new(KrigingConfig::default());
        assert_eq!(ok.predict_one(&[0.0]), Err(MlError::NotFitted));
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        assert!(
            ok.fit(&[vec![1.0]], &[1.0]).is_err(),
            "one point is not enough"
        );
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&[vec![0.0], vec![1.0]], &[0.0, 1.0]).unwrap();
        assert!(matches!(
            ok.predict_one(&[0.0, 1.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }
}
