//! The radio environmental map itself: a 3D grid of predicted RSS.
//!
//! A REM "documents radio signal properties over a given geographic area"
//! (§I). [`RemGrid`] materializes one per MAC address from any fitted
//! estimator: a regular lattice of predicted RSS values over the volume,
//! queryable at arbitrary positions by nearest-cell lookup with trilinear
//! refinement left to the caller's estimator when exactness matters. The
//! lattice is a [`VoxelLayout`], the same cell math the serving store
//! indexes with.

use std::ops::Range;

use aerorem_ml::kriging::{KrigingCacheStats, KrigingScratch, OrdinaryKriging};
use aerorem_ml::{FeatureMatrix, MlError, Regressor};
use aerorem_propagation::ap::MacAddress;
use aerorem_spatial::octree::VoxelLayout;
use aerorem_spatial::{Aabb, Vec3};

use crate::exec::{self, ExecPolicy};
use crate::features::FeatureLayout;
use crate::instrument::Instrumentation;

/// Minimum voxels per chunk in the batched lattice fill. Chunks are the
/// unit of parallelism *and* of batch prediction: large enough to amortize
/// per-batch setup (buffer reuse, matrix-level kernels), small enough to
/// keep every worker thread busy on paper-scale lattices — the 25 cm paper
/// lattice's 1 560 voxels run as seven chunks, which the executor's ticket
/// claiming balances across workers.
const MIN_BATCH_CHUNK: usize = 256;

/// Preferred voxels per chunk once lattices grow large: caps chunk size so
/// the dynamic claimer keeps workers balanced on multi-million-voxel maps.
const MAX_BATCH_CHUNK: usize = 4096;

/// Chunk-sizing hint for the lattice fill. The resulting partition is a
/// pure function of the voxel count — identical under both policies and on
/// every machine — which is what keeps the batched fill bit-identical
/// across [`ExecPolicy`] arms: `predict_batch` is contractually
/// bit-identical per row, so only the partition could differ, and it never
/// does.
const REM_FILL_GRAN: exec::Granularity = exec::Granularity::new(MIN_BATCH_CHUNK, MAX_BATCH_CHUNK);

/// A regular 3D lattice of predicted RSS (dBm) for one transmitter.
///
/// # Examples
///
/// ```no_run
/// # use aerorem_core::rem::RemGrid;
/// # use aerorem_spatial::{Aabb, Vec3};
/// # fn demo(grid: RemGrid) {
/// let rss = grid.sample(Vec3::new(1.0, 1.0, 1.0)).unwrap();
/// println!("{} dBm at the query point", rss);
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RemGrid {
    mac: MacAddress,
    lattice: VoxelLayout,
    /// Row-major `[z][y][x]` predictions in dBm, one per lattice cell.
    values: Vec<f64>,
}

impl RemGrid {
    /// Generates a REM by querying `model` at every cell center.
    ///
    /// `resolution_m` is the target cell edge length; each axis gets at
    /// least 2 cells.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors (e.g. a MAC the layout dropped), and
    /// returns [`MlError::InvalidHyperparameter`] for a `resolution_m`
    /// that is not positive and finite or whose lattice has more cells
    /// than `usize` counts.
    pub fn generate(
        model: &dyn Regressor,
        layout: &FeatureLayout,
        volume: Aabb,
        resolution_m: f64,
        mac: MacAddress,
    ) -> Result<Self, MlError> {
        Self::generate_with(model, layout, volume, resolution_m, mac, ExecPolicy::default())
    }

    /// [`RemGrid::generate`] with an explicit execution policy: the
    /// batched fill of [`RemGrid::generate_instrumented`], with nothing
    /// recorded.
    ///
    /// # Errors
    ///
    /// As [`RemGrid::generate`].
    pub fn generate_with(
        model: &dyn Regressor,
        layout: &FeatureLayout,
        volume: Aabb,
        resolution_m: f64,
        mac: MacAddress,
        policy: ExecPolicy,
    ) -> Result<Self, MlError> {
        let mut inst = Instrumentation::new();
        Self::generate_instrumented(model, layout, volume, resolution_m, mac, policy, &mut inst)
    }

    /// The pre-batching reference path: every voxel is encoded and
    /// predicted one at a time through [`Regressor::predict_one`]. Kept as
    /// the baseline the batched path must match bit-for-bit, and as the
    /// comparison arm of the `rem_lattice` bench.
    ///
    /// # Errors
    ///
    /// As [`RemGrid::generate`].
    pub fn generate_per_voxel_with(
        model: &dyn Regressor,
        layout: &FeatureLayout,
        volume: Aabb,
        resolution_m: f64,
        mac: MacAddress,
        policy: ExecPolicy,
    ) -> Result<Self, MlError> {
        let lattice = Self::lattice_at(volume, resolution_m)?;
        let indices: Vec<usize> = (0..lattice.cell_count()).collect();
        let values = exec::try_map_vec_with(
            policy,
            exec::Granularity::per_item(),
            &exec::ScratchPool::new(|| ()),
            &indices,
            |(), &i| {
                let row = layout.encode_query(lattice.cell_center(i), mac)?;
                model.predict_one(&row)
            },
        )?;
        Ok(RemGrid {
            mac,
            lattice,
            values,
        })
    }

    /// The batched hot path, recording the fill on `inst`.
    ///
    /// The lattice is split into fixed-size voxel chunks; each chunk is
    /// encoded into one contiguous [`FeatureMatrix`] and predicted through
    /// [`Regressor::predict_batch`] in the same work item, and
    /// [`ExecPolicy::Parallel`] fans the chunks out across worker threads.
    /// Chunks are reassembled in `[z][y][x]` order and `predict_batch` is
    /// contractually bit-identical to mapped `predict_one`, so all four
    /// combinations (serial/parallel × per-voxel/batched) produce identical
    /// grids — the determinism test checks exactly that against
    /// [`RemGrid::generate_per_voxel_with`].
    ///
    /// Records the `rem_fill` stage, its execution plan and the
    /// `rem_fill_rows` counter, so callers can report voxels per second.
    ///
    /// # Errors
    ///
    /// As [`RemGrid::generate`].
    pub fn generate_instrumented(
        model: &dyn Regressor,
        layout: &FeatureLayout,
        volume: Aabb,
        resolution_m: f64,
        mac: MacAddress,
        policy: ExecPolicy,
        inst: &mut Instrumentation,
    ) -> Result<Self, MlError> {
        let lattice = Self::lattice_at(volume, resolution_m)?;
        let pool = exec::ScratchPool::new(|| ());
        let chunks = Self::fill(layout, &lattice, mac, policy, &pool, inst, |(), fm| {
            model.predict_batch(fm)
        })?;
        Ok(RemGrid {
            mac,
            lattice,
            values: chunks.concat(),
        })
    }

    /// The lattice over `volume` at a target cell edge length; each axis
    /// gets at least 2 cells.
    ///
    /// # Errors
    ///
    /// [`MlError::InvalidHyperparameter`] when `resolution_m` is not
    /// positive and finite, or when the cell count overflows `usize`.
    fn lattice_at(volume: Aabb, resolution_m: f64) -> Result<VoxelLayout, MlError> {
        let invalid = |reason| MlError::InvalidHyperparameter {
            name: "resolution_m",
            reason,
        };
        if !(resolution_m > 0.0 && resolution_m.is_finite()) {
            return Err(invalid("must be positive and finite"));
        }
        let size = volume.size();
        let cells = |extent: f64| ((extent / resolution_m).round() as usize).max(2);
        VoxelLayout::new(volume, (cells(size.x), cells(size.y), cells(size.z)))
            .ok_or(invalid("gives more lattice cells than usize counts"))
    }

    /// The batched fill, in one executor pass. The work item is one
    /// [`REM_FILL_GRAN`] chunk of cells — a partition that depends only on
    /// the cell count — which is encoded into one [`FeatureMatrix`] and
    /// handed to `predict` with the worker's scratch from `pool`. Chunk
    /// outputs come back in cell order. Records the `rem_fill` stage, its
    /// plan and the `rem_fill_rows` counter on `inst`.
    fn fill<C, S, FM>(
        layout: &FeatureLayout,
        lattice: &VoxelLayout,
        mac: MacAddress,
        policy: ExecPolicy,
        pool: &exec::ScratchPool<S, FM>,
        inst: &mut Instrumentation,
        predict: impl Fn(&mut S, &FeatureMatrix) -> Result<C, MlError> + Sync,
    ) -> Result<Vec<C>, MlError>
    where
        C: Send,
        S: Send,
        FM: Fn() -> S + Sync,
    {
        let total = lattice.cell_count();
        let plan = exec::plan(policy, total, REM_FILL_GRAN);
        let chunks: Vec<Range<usize>> = (0..plan.chunks)
            .map(|ci| ci * plan.chunk..((ci + 1) * plan.chunk).min(total))
            .collect();
        inst.record_exec("rem_fill", plan);
        let out = inst.time("rem_fill", || {
            exec::try_map_vec_with(
                policy,
                exec::Granularity::per_item(),
                pool,
                &chunks,
                |scratch, cells| {
                    let mut fm = FeatureMatrix::with_capacity(layout.dim(), cells.len());
                    for i in cells.clone() {
                        let p = lattice.cell_center(i);
                        fm.push_row_with(|out| layout.encode_query_into(p, mac, out))?;
                    }
                    predict(scratch, &fm)
                },
            )
        })?;
        inst.count("rem_fill_rows", total as u64);
        Ok(out)
    }

    /// The transmitter this map describes.
    pub fn mac(&self) -> MacAddress {
        self.mac
    }

    /// The cell lattice: volume, dimensions and the world↔cell-index math.
    pub fn lattice(&self) -> &VoxelLayout {
        &self.lattice
    }

    /// The mapped volume.
    pub fn volume(&self) -> Aabb {
        self.lattice.volume()
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.lattice.dims()
    }

    /// The raw row-major `[z][y][x]` cell values in dBm.
    ///
    /// Flat index `i` maps to `ix = i % nx`, `iy = (i / nx) % ny`,
    /// `iz = i / (nx * ny)` — the layout the snapshot codec
    /// (`docs/SNAPSHOT_FORMAT.md`) and the serving layer's octree index
    /// consume directly.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the grid, yielding its [`RemGrid::values`] without a copy.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Reassembles a grid from its parts — the inverse of
    /// ([`RemGrid::mac`], [`RemGrid::volume`], [`RemGrid::dims`],
    /// [`RemGrid::values`]), used by the snapshot decoder and by synthetic
    /// grid builders in benches.
    ///
    /// Returns `None` when [`VoxelLayout::new`] rejects the dimensions
    /// (a zero axis or an overflowing cell count) or when `values.len()`
    /// does not equal the cell count, so a decoded grid is always
    /// internally consistent.
    pub fn from_parts(
        mac: MacAddress,
        volume: Aabb,
        dims: (usize, usize, usize),
        values: Vec<f64>,
    ) -> Option<Self> {
        let lattice = VoxelLayout::new(volume, dims)?;
        (values.len() == lattice.cell_count()).then_some(RemGrid {
            mac,
            lattice,
            values,
        })
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the grid is empty (never true for generated grids).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The predicted RSS of the cell containing (or nearest to) `p`.
    ///
    /// Returns `None` when `p` lies outside the volume.
    pub fn sample(&self, p: Vec3) -> Option<f64> {
        self.values.get(self.lattice.cell_index_of(p)?).copied()
    }

    /// The cell center positions and values, for export/plotting.
    pub fn cells(&self) -> impl Iterator<Item = (Vec3, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.lattice.cell_center(i), v))
    }

    /// Minimum predicted RSS over the map.
    pub fn min_dbm(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum predicted RSS over the map.
    pub fn max_dbm(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean predicted RSS over the map.
    pub fn mean_dbm(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Generates a REM **and a matching uncertainty map** from a fitted
    /// ordinary-kriging estimator: the second grid holds the kriging
    /// standard deviation (dB) per cell — near zero at sampled locations,
    /// approaching the variogram sill far from any sample. The confidence
    /// layer tells a network planner where the map can be trusted and where
    /// more UAV sampling is needed.
    ///
    /// This is the serial per-voxel reference: one scratch (and therefore
    /// one factor cache) is hoisted across the whole lattice walk instead
    /// of being reallocated per voxel. The policy-parallel hot path is
    /// [`RemGrid::generate_with_variance`], which must match this output
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// As [`RemGrid::generate`].
    pub fn generate_with_confidence(
        model: &OrdinaryKriging,
        layout: &FeatureLayout,
        volume: Aabb,
        resolution_m: f64,
        mac: MacAddress,
    ) -> Result<(Self, Self), MlError> {
        let lattice = Self::lattice_at(volume, resolution_m)?;
        let cells = lattice.cell_count();
        let mut values = Vec::with_capacity(cells);
        let mut sigmas = Vec::with_capacity(cells);
        let mut scratch = KrigingScratch::new();
        let mut row = Vec::new();
        for i in 0..cells {
            row.clear();
            layout.encode_query_into(lattice.cell_center(i), mac, &mut row)?;
            let (pred, var) = model.predict_with_variance_with(&row, &mut scratch)?;
            values.push(pred);
            sigmas.push(var.sqrt());
        }
        Ok((
            RemGrid {
                mac,
                lattice,
                values,
            },
            RemGrid {
                mac,
                lattice,
                values: sigmas,
            },
        ))
    }

    /// [`RemGrid::generate_with_confidence`] at hardware speed: the
    /// batched fill of [`RemGrid::generate_instrumented`] produces the
    /// prediction grid and the uncertainty grid (kriging standard
    /// deviation, dB) together. Each chunk's rows are solved through
    /// [`OrdinaryKriging::predict_with_variance_with`] on one
    /// [`KrigingScratch`] per worker thread — so each worker carries a
    /// factor cache across its chunks and consecutive voxels sharing a
    /// neighbour set skip straight to the O(k²) back-substitution.
    ///
    /// Bit-identical to [`RemGrid::generate_with_confidence`] under both
    /// [`ExecPolicy`] arms: the chunk partition is policy-independent and
    /// cache hits are bit-identical to misses by construction.
    ///
    /// Records the `rem_fill` stage, its plan and the `rem_fill_rows`,
    /// `rem_krige_cache_hits` and `rem_krige_cache_misses` counters on
    /// `inst`, and returns the aggregated cache stats.
    ///
    /// # Errors
    ///
    /// As [`RemGrid::generate`].
    pub fn generate_with_variance(
        model: &OrdinaryKriging,
        layout: &FeatureLayout,
        volume: Aabb,
        resolution_m: f64,
        mac: MacAddress,
        policy: ExecPolicy,
        inst: &mut Instrumentation,
    ) -> Result<(Self, Self, KrigingCacheStats), MlError> {
        let lattice = Self::lattice_at(volume, resolution_m)?;
        let pool = exec::ScratchPool::new(KrigingScratch::new);
        let chunks = Self::fill(layout, &lattice, mac, policy, &pool, inst, |scratch, fm| {
            let mut values = Vec::with_capacity(fm.rows());
            let mut sigmas = Vec::with_capacity(fm.rows());
            for q in fm.iter() {
                let (pred, var) = model.predict_with_variance_with(q, scratch)?;
                values.push(pred);
                sigmas.push(var.sqrt());
            }
            Ok((values, sigmas))
        })?;
        let mut stats = KrigingCacheStats::default();
        for _ in 0..pool.idle() {
            stats.merge(pool.take().cache_stats());
        }
        inst.count("rem_krige_cache_hits", stats.hits);
        inst.count("rem_krige_cache_misses", stats.misses);
        let (values, sigmas): (Vec<Vec<f64>>, Vec<Vec<f64>>) = chunks.into_iter().unzip();
        Ok((
            RemGrid {
                mac,
                lattice,
                values: values.concat(),
            },
            RemGrid {
                mac,
                lattice,
                values: sigmas.concat(),
            },
            stats,
        ))
    }

    /// Renders one horizontal slice of the map as an ASCII heat map —
    /// handy for eyeballing a REM in a terminal without plotting tools.
    ///
    /// `z` selects the slice (nearest cell layer); the glyph ramp runs
    /// `" .:-=+*#%@"` from the map's minimum to its maximum value. Returns
    /// `None` when `z` lies outside the volume.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// # use aerorem_core::rem::RemGrid;
    /// # fn demo(rem: RemGrid) {
    /// println!("{}", rem.render_slice(1.0).unwrap());
    /// # }
    /// ```
    pub fn render_slice(&self, z: f64) -> Option<String> {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let lo_corner = self.lattice.volume().min();
        let layer = self
            .lattice
            .cell_index_of(Vec3::new(lo_corner.x, lo_corner.y, z))?;
        let (nx, ny, _) = self.lattice.dims();
        let (_, _, iz) = self.lattice.cell_coords(layer);
        let lo = self.min_dbm();
        let span = (self.max_dbm() - lo).max(1e-9);
        let mut out = format!(
            "z = {z:.2} m  ({:.1} dBm = ' ', {:.1} dBm = '@')\n",
            lo,
            self.max_dbm()
        );
        // Render with y increasing upward, like a map.
        for iy in (0..ny).rev() {
            for ix in 0..nx {
                let v = self.values[iz * nx * ny + iy * nx + ix];
                let t = ((v - lo) / span).clamp(0.0, 1.0);
                let g = RAMP[((t * (RAMP.len() - 1) as f64).round()) as usize];
                out.push(g as char);
            }
            out.push('\n');
        }
        Some(out)
    }

    /// Exports the map as CSV (`x,y,z,rssi_dbm`, one row per cell) for
    /// plotting or GIS-style downstream tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,y,z,rssi_dbm\n");
        for (p, v) in self.cells() {
            out.push_str(&format!("{},{},{},{v:.2}\n", p.x, p.y, p.z));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{preprocess, PreprocessConfig};
    use aerorem_mission::{Sample, SampleSet};
    use aerorem_ml::knn::KnnRegressor;
    use aerorem_propagation::ap::Ssid;
    use aerorem_propagation::WifiChannel;
    use aerorem_simkit::SimTime;
    use aerorem_uav::UavId;

    fn fitted_world() -> (KnnRegressor, FeatureLayout, Aabb) {
        let volume = Aabb::paper_volume();
        let mut set = SampleSet::new();
        for i in 0..100 {
            let pos = volume.lerp_point(
                (i % 5) as f64 / 4.0,
                ((i / 5) % 5) as f64 / 4.0,
                (i / 25) as f64 / 3.0,
            );
            set.push(Sample {
                uav: UavId(0),
                waypoint_index: i,
                position: pos,
                true_position: pos,
                ssid: Ssid::new("net"),
                mac: MacAddress::from_index(1),
                channel: WifiChannel::new(6).unwrap(),
                rssi_dbm: (-60.0 - 5.0 * pos.x) as i32,
                timestamp: SimTime::ZERO,
            });
        }
        let (data, layout, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        let mut knn = KnnRegressor::paper_tuned();
        knn.fit(&data.x, &data.y).unwrap();
        (knn, layout, volume)
    }

    #[test]
    fn generates_and_samples() {
        let (model, layout, volume) = fitted_world();
        let grid =
            RemGrid::generate(&model, &layout, volume, 0.5, MacAddress::from_index(1)).unwrap();
        assert!(!grid.is_empty());
        let (nx, ny, nz) = grid.dims();
        assert_eq!(grid.len(), nx * ny * nz);
        // In-volume query returns a plausible dBm.
        let v = grid.sample(volume.center()).unwrap();
        assert!((-90.0..=-50.0).contains(&v), "got {v}");
        // Out-of-volume query is None.
        assert!(grid.sample(Vec3::new(-5.0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn map_reflects_spatial_gradient() {
        let (model, layout, volume) = fitted_world();
        let grid =
            RemGrid::generate(&model, &layout, volume, 0.4, MacAddress::from_index(1)).unwrap();
        // Training field decays with x: low-x cells are stronger.
        let left = grid.sample(volume.lerp_point(0.1, 0.5, 0.5)).unwrap();
        let right = grid.sample(volume.lerp_point(0.9, 0.5, 0.5)).unwrap();
        assert!(left > right, "left {left} vs right {right}");
        assert!(grid.min_dbm() <= grid.mean_dbm());
        assert!(grid.mean_dbm() <= grid.max_dbm());
    }

    #[test]
    fn cells_iterate_entire_volume() {
        let (model, layout, volume) = fitted_world();
        let grid =
            RemGrid::generate(&model, &layout, volume, 0.8, MacAddress::from_index(1)).unwrap();
        let cells: Vec<(Vec3, f64)> = grid.cells().collect();
        assert_eq!(cells.len(), grid.len());
        assert!(cells.iter().all(|(p, _)| volume.contains(*p)));
        // Cell lookup agrees with iteration.
        for (p, v) in cells.iter().take(10) {
            assert_eq!(grid.sample(*p), Some(*v));
        }
    }

    #[test]
    fn serial_and_parallel_grids_are_identical() {
        let (model, layout, volume) = fitted_world();
        let mac = MacAddress::from_index(1);
        let serial =
            RemGrid::generate_with(&model, &layout, volume, 0.3, mac, ExecPolicy::Serial).unwrap();
        let parallel =
            RemGrid::generate_with(&model, &layout, volume, 0.3, mac, ExecPolicy::Parallel)
                .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn batched_and_per_voxel_grids_are_identical() {
        let (model, layout, volume) = fitted_world();
        let mac = MacAddress::from_index(1);
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
            let batched =
                RemGrid::generate_with(&model, &layout, volume, 0.3, mac, policy).unwrap();
            let per_voxel =
                RemGrid::generate_per_voxel_with(&model, &layout, volume, 0.3, mac, policy)
                    .unwrap();
            assert_eq!(batched, per_voxel, "{policy}");
        }
    }

    #[test]
    fn instrumented_generation_records_stage_throughput() {
        let (model, layout, volume) = fitted_world();
        let mac = MacAddress::from_index(1);
        let mut inst = crate::instrument::Instrumentation::new();
        let grid = RemGrid::generate_instrumented(
            &model,
            &layout,
            volume,
            0.4,
            mac,
            ExecPolicy::Serial,
            &mut inst,
        )
        .unwrap();
        let plain =
            RemGrid::generate_with(&model, &layout, volume, 0.4, mac, ExecPolicy::Serial).unwrap();
        assert_eq!(grid, plain, "instrumentation must not change the map");
        assert!(inst.stage("rem_fill").is_some());
        assert_eq!(inst.counter("rem_fill_rows"), Some(grid.len() as u64));
        assert!(inst.throughput("rem_fill", "rem_fill_rows").is_some());
    }

    #[test]
    fn fill_granularity_is_policy_independent() {
        // The chunk partition must be a pure function of the voxel count:
        // identical under both policies, bounded by the amortization floor
        // and the load-balance cap.
        for total in [1usize, 100, 50_000, 1_000_000] {
            let serial = exec::plan(ExecPolicy::Serial, total, REM_FILL_GRAN);
            let parallel = exec::plan(ExecPolicy::Parallel, total, REM_FILL_GRAN);
            assert_eq!(serial.chunk, parallel.chunk, "total={total}");
            assert_eq!(serial.chunks, parallel.chunks, "total={total}");
            assert!(
                (MIN_BATCH_CHUNK..=MAX_BATCH_CHUNK).contains(&serial.chunk),
                "total={total} chunk={}",
                serial.chunk
            );
        }
    }

    #[test]
    fn unknown_mac_propagates_error() {
        let (model, layout, volume) = fitted_world();
        let err = RemGrid::generate(&model, &layout, volume, 0.5, MacAddress::from_index(9));
        assert!(err.is_err());
    }

    #[test]
    fn bad_resolution_is_an_error() {
        let (model, layout, volume) = fitted_world();
        let mac = MacAddress::from_index(1);
        for resolution in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-300] {
            let err = RemGrid::generate(&model, &layout, volume, resolution, mac).unwrap_err();
            assert!(
                matches!(
                    err,
                    MlError::InvalidHyperparameter {
                        name: "resolution_m",
                        ..
                    }
                ),
                "{resolution}: {err}"
            );
        }
    }

    #[test]
    fn slice_rendering_shows_the_gradient() {
        let (model, layout, volume) = fitted_world();
        let grid =
            RemGrid::generate(&model, &layout, volume, 0.4, MacAddress::from_index(1)).unwrap();
        let art = grid.render_slice(1.0).unwrap();
        let rows: Vec<&str> = art.lines().skip(1).collect();
        assert_eq!(rows.len(), grid.dims().1);
        assert!(rows.iter().all(|r| r.len() == grid.dims().0));
        // Field decays with x: left columns darker glyphs (higher RSS) than
        // right. Compare glyph ramp indices at the row middle.
        const RAMP: &str = " .:-=+*#%@";
        let mid = rows[rows.len() / 2];
        let left = RAMP.find(mid.chars().next().unwrap()).unwrap();
        let right = RAMP.find(mid.chars().last().unwrap()).unwrap();
        assert!(left > right, "left {left} vs right {right} in {mid:?}");
        // Out-of-volume slice rejected.
        assert!(grid.render_slice(99.0).is_none());
    }

    #[test]
    fn csv_export_covers_all_cells() {
        let (model, layout, volume) = fitted_world();
        let grid =
            RemGrid::generate(&model, &layout, volume, 0.8, MacAddress::from_index(1)).unwrap();
        let csv = grid.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,y,z,rssi_dbm");
        assert_eq!(lines.len(), grid.len() + 1);
        // Every row parses back into four floats.
        for row in &lines[1..] {
            let fields: Vec<f64> = row.split(',').map(|f| f.parse().unwrap()).collect();
            assert_eq!(fields.len(), 4);
            assert!(volume.contains(Vec3::new(fields[0], fields[1], fields[2])));
        }
    }

    #[test]
    fn confidence_layer_tracks_sampling_density() {
        use aerorem_ml::kriging::{KrigingConfig, OrdinaryKriging};
        let (_, layout, volume) = fitted_world();
        // Refit a kriging model on the same preprocessed world.
        let volume2 = volume;
        let mut set = SampleSet::new();
        for i in 0..60 {
            let pos = volume2.lerp_point(
                (i % 5) as f64 / 4.0,
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
                rssi_dbm: (-60.0 - 5.0 * pos.x) as i32,
                timestamp: SimTime::ZERO,
            });
        }
        let (data, layout2, _) =
            preprocess(&set, &PreprocessConfig::paper()).unwrap();
        let _ = layout;
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&data.x, &data.y).unwrap();
        let (rem, sigma) = RemGrid::generate_with_confidence(
            &ok,
            &layout2,
            volume2,
            0.5,
            MacAddress::from_index(1),
        )
        .unwrap();
        assert_eq!(rem.dims(), sigma.dims());
        // Uncertainty is non-negative everywhere and not identically zero.
        assert!(sigma.min_dbm() >= 0.0);
        assert!(sigma.max_dbm() > 0.0);
        // The value layer still reflects the field.
        assert!(rem.mean_dbm() < -50.0);
    }

    /// A fitted kriging model over a deterministic low-dimensional world
    /// (one MAC keeps the feature dimension inside the KD-tree gate).
    fn fitted_kriging_world() -> (
        aerorem_ml::kriging::OrdinaryKriging,
        FeatureLayout,
        Aabb,
    ) {
        use aerorem_ml::kriging::{KrigingConfig, OrdinaryKriging};
        let volume = Aabb::paper_volume();
        let mut set = SampleSet::new();
        for i in 0..80 {
            let pos = volume.lerp_point(
                (i % 5) as f64 / 4.0,
                ((i / 5) % 4) as f64 / 3.0,
                (i / 20) as f64 / 3.0,
            );
            set.push(Sample {
                uav: UavId(0),
                waypoint_index: i,
                position: pos,
                true_position: pos,
                ssid: Ssid::new("net"),
                mac: MacAddress::from_index(1),
                channel: WifiChannel::new(6).unwrap(),
                rssi_dbm: (-60.0 - 5.0 * pos.x - 2.0 * pos.y) as i32,
                timestamp: SimTime::ZERO,
            });
        }
        let (data, layout, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&data.x, &data.y).unwrap();
        (ok, layout, volume)
    }

    #[test]
    fn variance_fill_matches_per_voxel_confidence_bits() {
        let (ok, layout, volume) = fitted_kriging_world();
        let mac = MacAddress::from_index(1);
        let (ref_rem, ref_sigma) =
            RemGrid::generate_with_confidence(&ok, &layout, volume, 0.2, mac).unwrap();
        let mut grids = Vec::new();
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
            let mut inst = Instrumentation::new();
            let (rem, sigma, stats) = RemGrid::generate_with_variance(
                &ok, &layout, volume, 0.2, mac, policy, &mut inst,
            )
            .unwrap();
            assert_eq!(rem, ref_rem, "{policy}: prediction grid drifted");
            assert_eq!(sigma, ref_sigma, "{policy}: uncertainty grid drifted");
            // Every non-exact voxel goes through the cached solver, and a
            // fine lattice over a coarse survey must actually hit.
            assert!(stats.total() > 0);
            assert!(stats.hits > 0, "{policy}: no factor-cache hits on a lattice");
            assert_eq!(inst.counter("rem_krige_cache_hits"), Some(stats.hits));
            assert_eq!(inst.counter("rem_krige_cache_misses"), Some(stats.misses));
            assert!(inst.stage("rem_fill").is_some());
            assert_eq!(inst.counter("rem_fill_rows"), Some(rem.len() as u64));
            grids.push((rem, sigma));
        }
        assert_eq!(grids[0], grids[1], "serial ≡ parallel");
    }

    #[test]
    fn from_parts_validates_shape() {
        let volume = Aabb::paper_volume();
        let mac = MacAddress::from_index(1);
        let ok = RemGrid::from_parts(mac, volume, (2, 3, 4), vec![-60.0; 24]).unwrap();
        assert_eq!(ok.dims(), (2, 3, 4));
        assert_eq!(ok.values().len(), 24);
        // Shape mismatches and degenerate dims are rejected.
        assert!(RemGrid::from_parts(mac, volume, (2, 3, 4), vec![-60.0; 23]).is_none());
        assert!(RemGrid::from_parts(mac, volume, (0, 3, 4), vec![]).is_none());
    }

    #[test]
    fn from_parts_round_trips_a_generated_grid() {
        let (model, layout, volume) = fitted_world();
        let grid =
            RemGrid::generate(&model, &layout, volume, 0.7, MacAddress::from_index(1)).unwrap();
        let rebuilt = RemGrid::from_parts(
            grid.mac(),
            grid.volume(),
            grid.dims(),
            grid.values().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, grid);
    }

    #[test]
    fn grid_accessors() {
        let (model, layout, volume) = fitted_world();
        let grid =
            RemGrid::generate(&model, &layout, volume, 0.7, MacAddress::from_index(1)).unwrap();
        assert_eq!(grid.mac(), MacAddress::from_index(1));
        assert_eq!(grid.volume(), volume);
    }
}
