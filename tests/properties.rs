//! Property-based tests over the core data structures and invariants.

use aerorem::ml::kdtree::{brute_force_nearest_flat, IndexScratch, NeighborIndex};
use aerorem::ml::knn::{KnnRegressor, Weighting};
use aerorem::ml::kriging::{Variogram, VariogramKind};
use aerorem::ml::Regressor;
use aerorem::numerics::stats::{rmse, Histogram};
use aerorem::numerics::Matrix;
use aerorem::propagation::channel::{band_overlap_fraction, WifiChannel};
use aerorem::propagation::shadowing::ShadowingField;
use aerorem::radio::crtp::{CrtpPacket, CrtpPort};
use aerorem::simkit::{EventQueue, SimTime};
use aerorem::spatial::{Aabb, Vec3};
use proptest::prelude::*;

fn finite_f64(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |x| {
        let span = range.end - range.start;
        range.start + (x.abs() % span)
    })
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (
        finite_f64(-50.0..50.0),
        finite_f64(-50.0..50.0),
        finite_f64(-50.0..50.0),
    )
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// The row shape of the neighbour-index oracles:
/// `[coordinates | one-hot MAC | one-hot channel | zeros]` with
/// lattice-snapped coordinates, nudged up one ulp half the time, so exact
/// distance ties and squared distances that share a square root both
/// occur. `layout` 0 takes the index's grouped layout in one of three
/// forms: 1 to 3 coordinates first, the paper's layout, where a query's own
/// key group is scored from its leaf distances; 4 to 8 coordinates first;
/// or 1 to 8 coordinates after the one-hot blocks. The last two must be
/// re-scored on the full row. Layout 1 makes every column two-valued and 2
/// gives 9 coordinate columns, the index's two scanned layouts.
struct OracleRows {
    layout: usize,
    coords: usize,
    coords_last: bool,
    macs: usize,
    chans: usize,
    pads: usize,
    step: f64,
    mac_value: f64,
}

impl OracleRows {
    fn new(rng: &mut rand::rngs::StdRng, layout: usize) -> Self {
        use rand::Rng;
        let form = if layout == 0 { rng.gen_range(0..3) } else { 0 };
        OracleRows {
            layout,
            coords: match (layout, form) {
                (2, _) => 9,
                (_, 0) => rng.gen_range(1..=3),
                (_, 1) => rng.gen_range(4..=8),
                _ => rng.gen_range(1..=8),
            },
            coords_last: form == 2,
            macs: rng.gen_range(1..=6),
            chans: rng.gen_range(1..=3),
            pads: rng.gen_range(0..=2),
            step: [0.5, 0.1, 0.3][rng.gen_range(0..3usize)],
            mac_value: if rng.gen_bool(0.5) { 3.0 } else { 1.0 },
        }
    }

    fn dim(&self) -> usize {
        self.coords + self.macs + self.chans + self.pads
    }

    /// The one-hot MAC columns.
    fn mac_cols(&self) -> std::ops::Range<usize> {
        let first = if self.coords_last { 0 } else { self.coords };
        first..first + self.macs
    }

    /// The coordinate columns of `row`.
    fn coords_of<'r>(&self, row: &'r [f64]) -> &'r [f64] {
        let first = if self.coords_last {
            self.macs + self.chans
        } else {
            0
        };
        &row[first..first + self.coords]
    }

    /// One row at `at`'s coordinates, or at random ones, with the given
    /// one-hot MAC and channel (`None`: no column set).
    fn row(
        &self,
        rng: &mut rand::rngs::StdRng,
        at: Option<&[f64]>,
        mac: Option<usize>,
        chan: Option<usize>,
    ) -> Vec<f64> {
        use rand::Rng;
        let step = self.step;
        let coords: Vec<f64> = match at {
            Some(at) => at.to_vec(),
            None if self.layout == 1 => (0..self.coords)
                .map(|c| {
                    if rng.gen_bool(0.5) {
                        step * (c + 1) as f64
                    } else {
                        0.0
                    }
                })
                .collect(),
            None => (0..self.coords)
                .map(|_| {
                    let v = step * rng.gen_range(0..6) as f64;
                    if rng.gen_bool(0.5) {
                        f64::from_bits(v.to_bits() + 1)
                    } else {
                        v
                    }
                })
                .collect(),
        };
        let mut v = Vec::with_capacity(self.dim());
        if !self.coords_last {
            v.extend_from_slice(&coords);
        }
        v.extend((0..self.macs).map(|m| if mac == Some(m) { self.mac_value } else { 0.0 }));
        v.extend((0..self.chans).map(|c| f64::from(u8::from(chan == Some(c)))));
        if self.coords_last {
            v.extend_from_slice(&coords);
        }
        v.extend(std::iter::repeat_n(0.0, self.pads));
        v
    }

    /// `n` training rows. Outside layout 1, rows 0 and 1 give every
    /// coordinate column two distinct non-zero values, so no coordinate
    /// column passes for a key column.
    fn training(&self, rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Vec<f64>> {
        use rand::Rng;
        (0..n)
            .map(|i| {
                let first = (self.layout != 1 && i < 2)
                    .then(|| vec![self.step * (i + 1) as f64; self.coords]);
                let (mac, chan) = (rng.gen_range(0..self.macs), rng.gen_range(0..self.chans));
                self.row(rng, first.as_deref(), Some(mac), Some(chan))
            })
            .collect()
    }

    /// Runs of three queries sharing a key (some keys no training row
    /// has), then a return to the first key; half the queries sit on a
    /// training row's coordinates, where distances of exactly 0 occur.
    fn queries(&self, rng: &mut rand::rngs::StdRng, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        use rand::Rng;
        let mut keys: Vec<(Option<usize>, Option<usize>)> = (0..4)
            .map(|_| {
                let mac = rng.gen_range(0..=self.macs);
                let chan = rng.gen_range(0..=self.chans);
                (
                    (mac < self.macs).then_some(mac),
                    (chan < self.chans).then_some(chan),
                )
            })
            .collect();
        keys.push(keys[0]);
        keys.iter()
            .flat_map(|&key| std::iter::repeat_n(key, 3))
            .map(|(mac, chan)| {
                let at = rng
                    .gen_bool(0.5)
                    .then(|| self.coords_of(&x[rng.gen_range(0..x.len())]).to_vec());
                self.row(rng, at.as_deref(), mac, chan)
            })
            .collect()
    }
}

proptest! {
    // --- spatial ---

    #[test]
    fn vec3_triangle_inequality(a in vec3(), b in vec3(), c in vec3()) {
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    }

    #[test]
    fn vec3_norm_scales_linearly(v in vec3(), s in finite_f64(0.0..100.0)) {
        prop_assert!(((v * s).norm() - s * v.norm()).abs() < 1e-6 * (1.0 + v.norm() * s));
    }

    #[test]
    fn aabb_clamp_is_inside_and_idempotent(p in vec3()) {
        let v = Aabb::paper_volume();
        let c = v.clamp(p);
        prop_assert!(v.contains(c));
        prop_assert_eq!(v.clamp(c), c);
    }

    #[test]
    fn waypoint_grids_stay_inside(n in 1usize..100) {
        let v = Aabb::paper_volume();
        let g = aerorem::spatial::grid::WaypointGrid::even(v, n).unwrap();
        prop_assert_eq!(g.len(), n);
        prop_assert!(g.iter().all(|p| v.contains(*p)));
    }

    // --- numerics ---

    #[test]
    fn lu_solve_reconstructs_rhs(
        seed in 0u64..1000,
        n in 1usize..8,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = rng.gen_range(-5.0..5.0);
            }
            a[(i, i)] += 10.0; // diagonally dominant → nonsingular
        }
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            prop_assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn cholesky_solve_matches_lu(seed in 0u64..500, n in 1usize..7) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // SPD via AᵀA + I.
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = rng.gen_range(-2.0..2.0);
            }
        }
        let spd = m.transpose().matmul(&m).unwrap().add_mat(&Matrix::identity(n)).unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let x1 = spd.solve_spd(&b).unwrap();
        let x2 = spd.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn rmse_nonnegative_and_zero_iff_equal(ys in prop::collection::vec(finite_f64(-100.0..0.0), 1..40)) {
        prop_assert_eq!(rmse(&ys, &ys), 0.0);
        let shifted: Vec<f64> = ys.iter().map(|y| y + 1.0).collect();
        prop_assert!((rmse(&shifted, &ys) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_conserves_observations(
        xs in prop::collection::vec(finite_f64(-10.0..10.0), 0..200),
    ) {
        let mut h = Histogram::new(-5.0, 5.0, 0.5).unwrap();
        h.extend(xs.iter().copied());
        prop_assert_eq!(h.total() + h.outliers(), xs.len() as u64);
    }

    // --- propagation ---

    #[test]
    fn band_overlap_fraction_bounded(
        a_lo in finite_f64(0.0..100.0), a_w in finite_f64(0.1..50.0),
        b_lo in finite_f64(0.0..100.0), b_w in finite_f64(0.1..50.0),
    ) {
        let f = band_overlap_fraction(a_lo, a_lo + a_w, b_lo, b_lo + b_w);
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn channel_overlap_symmetric_for_equal_widths(a in 1u8..=13, b in 1u8..=13) {
        let ca = WifiChannel::new(a).unwrap();
        let cb = WifiChannel::new(b).unwrap();
        prop_assert!((ca.overlap_fraction(cb) - cb.overlap_fraction(ca)).abs() < 1e-12);
    }

    #[test]
    fn shadowing_deterministic_and_finite(p in vec3(), ap in 0u64..50) {
        let f = ShadowingField::new(4.0, 2.0, 99);
        let v = f.sample(ap, p);
        prop_assert!(v.is_finite());
        prop_assert_eq!(v, f.sample(ap, p));
        // Physically plausible bound: |shadowing| < 8σ.
        prop_assert!(v.abs() < 32.0);
    }

    // --- radio ---

    #[test]
    fn crtp_fragment_reassemble_roundtrip(data in prop::collection::vec(any::<u8>(), 0..500)) {
        let frags = CrtpPacket::fragment(CrtpPort::Console, 0, &data).unwrap();
        let whole = CrtpPacket::reassemble(&frags);
        prop_assert!(whole.is_complete());
        prop_assert_eq!(whole.fragments_lost, 0);
        prop_assert_eq!(whole.contiguous().unwrap(), data);
    }

    #[test]
    fn crtp_wire_roundtrip(
        channel in 0u8..=3,
        payload in prop::collection::vec(any::<u8>(), 0..=30),
    ) {
        let pkt = CrtpPacket::new(CrtpPort::Log, channel, payload).unwrap();
        prop_assert_eq!(CrtpPacket::decode(&pkt.encode()).unwrap(), pkt);
    }

    // --- simkit ---

    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    // --- ml ---

    /// The neighbour index returns `brute_force_nearest_flat`'s pairs bit
    /// for bit on the kNN oracle's row shape, in all three layouts, with
    /// one scratch reused across queries whose keys change.
    #[test]
    fn neighbor_index_matches_brute_force(
        seed in 0u64..1_000_000,
        layout in 0usize..3,
    ) {
        use aerorem::ml::FeatureMatrix;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = OracleRows::new(&mut rng, layout);
        let n = rng.gen_range(2..80);
        let x = shape.training(&mut rng, n);
        let index = NeighborIndex::new(FeatureMatrix::from_rows(&x).unwrap());
        prop_assert_eq!(index.uses_trees(), layout == 0);
        let bits = |nn: &[(usize, f64)]| -> Vec<(usize, u64)> {
            nn.iter().map(|&(i, d)| (i, d.to_bits())).collect()
        };
        let mut scratch = IndexScratch::default();
        let mut out = Vec::new();
        for q in shape.queries(&mut rng, &x) {
            for k in [1, 3, 16, 24, n] {
                index.nearest_into(&q, k, &mut scratch, &mut out);
                let want = brute_force_nearest_flat(index.rows().as_slice(), shape.dim(), &q, k);
                prop_assert_eq!(bits(&out), bits(&want), "k {} query {:?}", k, q);
            }
        }
    }

    /// A capped IDW equals inverse-distance weighting over
    /// `brute_force_nearest_flat`'s neighbours bit for bit, exact-hit rule
    /// included, per item and batched, on the kNN oracle's row shape.
    #[test]
    fn capped_idw_matches_the_brute_force_oracle_bits(
        seed in 0u64..1_000_000,
        layout in 0usize..3,
        k_pick in 0usize..5,
    ) {
        use aerorem::ml::idw::IdwInterpolator;
        use aerorem::ml::FeatureMatrix;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = OracleRows::new(&mut rng, layout);
        let n = rng.gen_range(2..80);
        let x = shape.training(&mut rng, n);
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-90.0..-30.0)).collect();
        let k = [1, 3, 16, 24, n][k_pick];
        let mut idw = IdwInterpolator::new(2.0, k).unwrap();
        idw.fit(&x, &y).unwrap();
        let data: Vec<f64> = x.concat();
        let oracle = |q: &[f64]| -> f64 {
            let nn = brute_force_nearest_flat(&data, shape.dim(), q, k);
            let exact: Vec<f64> = nn.iter().filter(|p| p.1 == 0.0).map(|&(i, _)| y[i]).collect();
            if !exact.is_empty() {
                return exact.iter().sum::<f64>() / exact.len() as f64;
            }
            let (mut num, mut den) = (0.0, 0.0);
            for &(i, d) in &nn {
                let w = d.powf(-2.0);
                num += w * y[i];
                den += w;
            }
            num / den
        };
        let queries = shape.queries(&mut rng, &x);
        let batch = idw.predict_batch(&FeatureMatrix::from_rows(&queries).unwrap()).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            let want = oracle(q).to_bits();
            prop_assert_eq!(idw.predict_one(q).unwrap().to_bits(), want, "query {:?}", q);
            prop_assert_eq!(b.to_bits(), want, "batched query {:?}", q);
        }
    }

    /// The kNN oracle: whichever backend a fit picks, `predict_one` and
    /// `predict_batch` equal distance weighting over
    /// `brute_force_nearest_flat` of the scaled full rows, bit for bit, on
    /// `OracleRows`' row shapes, with the MAC block scaled ×3 half the
    /// time.
    #[test]
    fn knn_matches_the_brute_force_oracle_bits(
        seed in 0u64..1_000_000,
        layout in 0usize..3,
        k_pick in 0usize..4,
    ) {
        use aerorem::ml::kdtree::brute_force_nearest_flat;
        use aerorem::ml::FeatureMatrix;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = OracleRows::new(&mut rng, layout);
        let dim = shape.dim();
        let n = rng.gen_range(2..80);
        let x = shape.training(&mut rng, n);
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-90.0..-30.0)).collect();
        let k = [1, 3, 16, n][k_pick];
        let weighting = if rng.gen_bool(0.5) { Weighting::Distance } else { Weighting::Uniform };
        let scale: Option<Vec<f64>> = rng.gen_bool(0.5).then(|| {
            (0..dim).map(|c| if shape.mac_cols().contains(&c) { 3.0 } else { 1.0 }).collect()
        });
        let mut knn = KnnRegressor::new(k, weighting, 2.0).unwrap();
        if let Some(s) = &scale {
            knn = knn.with_feature_scaling(s.clone()).unwrap();
        }
        knn.fit(&x, &y).unwrap();
        prop_assert_eq!(knn.uses_kdtree(), layout == 0);

        let scaled = |r: &[f64]| -> Vec<f64> {
            match &scale {
                Some(s) => r.iter().zip(s).map(|(v, w)| v * w).collect(),
                None => r.to_vec(),
            }
        };
        let data: Vec<f64> = x.iter().flat_map(|r| scaled(r)).collect();
        let oracle = |q: &[f64]| -> f64 {
            let nn = brute_force_nearest_flat(&data, dim, &scaled(q), k);
            match weighting {
                Weighting::Uniform => nn.iter().map(|&(i, _)| y[i]).sum::<f64>() / nn.len() as f64,
                Weighting::Distance => {
                    let exact: Vec<f64> = nn.iter().filter(|p| p.1 == 0.0).map(|&(i, _)| y[i]).collect();
                    if !exact.is_empty() {
                        return exact.iter().sum::<f64>() / exact.len() as f64;
                    }
                    let (mut num, mut den) = (0.0, 0.0);
                    for &(i, d) in &nn {
                        let w = 1.0 / d;
                        num += w * y[i];
                        den += w;
                    }
                    num / den
                }
            }
        };
        // Runs of queries sharing a key, then a return to the first key,
        // so the batched path both reuses and rebuilds its group order.
        let queries = shape.queries(&mut rng, &x);
        let batch = knn.predict_batch(&FeatureMatrix::from_rows(&queries).unwrap()).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            let want = oracle(q).to_bits();
            prop_assert_eq!(knn.predict_one(q).unwrap().to_bits(), want, "query {:?}", q);
            prop_assert_eq!(b.to_bits(), want, "batched query {:?}", q);
        }
    }

    #[test]
    fn knn_prediction_within_target_range(
        seed in 0u64..200,
        k in 1usize..8,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..30).map(|_| vec![rng.gen_range(0.0..10.0)]).collect();
        let y: Vec<f64> = x.iter().map(|r| -60.0 - r[0]).collect();
        let mut knn = KnnRegressor::new(k, Weighting::Distance, 2.0).unwrap();
        knn.fit(&x, &y).unwrap();
        let q = rng.gen_range(0.0..10.0);
        let p = knn.predict_one(&[q]).unwrap();
        // kNN is a convex combination of targets.
        let lo = y.iter().cloned().fold(f64::MAX, f64::min);
        let hi = y.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((lo - 1e-9..=hi + 1e-9).contains(&p));
    }

    /// `predict_batch` must reproduce mapped `predict_one` **bit for bit**
    /// for every estimator in the zoo — batching is a performance
    /// optimization, never a numerical change. Covers the kNN arena-tree
    /// backend (Euclidean, dim ≤ 8), the generic Minkowski brute path, the
    /// per-group ensemble (including its global-mean fallback), the MLP
    /// matrix-level forward, IDW, kriging, and the baseline.
    #[test]
    fn predict_batch_matches_predict_one_across_the_zoo(
        seed in 0u64..25,
        n_queries in 1usize..10,
    ) {
        use aerorem::ml::baseline::GroupMeanBaseline;
        use aerorem::ml::ensemble::PerGroupKnn;
        use aerorem::ml::idw::IdwInterpolator;
        use aerorem::ml::kriging::{KrigingConfig, OrdinaryKriging};
        use aerorem::ml::mlp::{Activation, Mlp, MlpConfig};
        use aerorem::ml::FeatureMatrix;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Rows: [x, y, z, one-hot group of width 2], like the paper's
        // feature layout in miniature.
        let row = |rng: &mut rand::rngs::StdRng, g: usize| {
            vec![
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..3.0),
                rng.gen_range(0.0..2.0),
                if g == 0 { 1.0 } else { 0.0 },
                if g == 1 { 1.0 } else { 0.0 },
            ]
        };
        let x: Vec<Vec<f64>> = (0..40).map(|i| row(&mut rng, i % 2)).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| -60.0 - 2.0 * r[0] - r[1] + 0.5 * r[2] - 5.0 * r[4])
            .collect();
        let queries: Vec<Vec<f64>> = (0..n_queries).map(|i| row(&mut rng, i % 2)).collect();
        let fm = FeatureMatrix::from_rows(&queries).unwrap();
        let mlp_config = MlpConfig {
            hidden: vec![(8, Activation::Sigmoid)],
            epochs: 5,
            ..MlpConfig::paper_tuned()
        };
        let scale = {
            let mut s = vec![1.0; 5];
            s[3] = 3.0;
            s[4] = 3.0;
            s
        };
        let mut zoo: Vec<Box<dyn Regressor>> = vec![
            Box::new(GroupMeanBaseline::new(3..5).unwrap()),
            // Euclidean, 3 coordinate columns + one-hot keys → grouped
            // KD-tree index (one tree per key group).
            Box::new(KnnRegressor::new(3, Weighting::Distance, 2.0).unwrap()),
            // Non-Euclidean Minkowski → generic brute-force backend.
            Box::new(KnnRegressor::new(4, Weighting::Uniform, 1.0).unwrap()),
            // Scaled one-hot block, as in the paper's best model.
            Box::new(
                KnnRegressor::new(8, Weighting::Distance, 2.0)
                    .unwrap()
                    .with_feature_scaling(scale)
                    .unwrap(),
            ),
            Box::new(PerGroupKnn::new(3..5, 2, Weighting::Distance, 2.0).unwrap()),
            Box::new(Mlp::new(mlp_config)),
            Box::new(IdwInterpolator::new(2.0, 8).unwrap()),
            Box::new(OrdinaryKriging::new(KrigingConfig::default())),
        ];
        for model in &mut zoo {
            model.fit(&x, &y).unwrap();
        }
        for model in &zoo {
            let batch = model.predict_batch(&fm).unwrap();
            prop_assert_eq!(batch.len(), queries.len());
            for (q, b) in queries.iter().zip(&batch) {
                prop_assert_eq!(model.predict_one(q).unwrap(), *b);
            }
        }
    }

    /// `fit_batch` must leave every estimator in exactly the state `fit`
    /// would — training through a flat [`FeatureMatrix`] is a performance
    /// optimization, never a numerical change. Two zoos are built
    /// identically, one trained row-nested and one trained flat, and every
    /// prediction must agree bit for bit.
    #[test]
    fn fit_batch_matches_fit_across_the_zoo(
        seed in 0u64..15,
        n_queries in 1usize..8,
    ) {
        use aerorem::ml::baseline::{GlobalMean, GroupMeanBaseline};
        use aerorem::ml::ensemble::PerGroupKnn;
        use aerorem::ml::idw::IdwInterpolator;
        use aerorem::ml::kriging::{KrigingConfig, OrdinaryKriging};
        use aerorem::ml::mlp::{Activation, Mlp, MlpConfig};
        use aerorem::ml::FeatureMatrix;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let row = |rng: &mut rand::rngs::StdRng, g: usize| {
            vec![
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..3.0),
                rng.gen_range(0.0..2.0),
                if g == 0 { 1.0 } else { 0.0 },
                if g == 1 { 1.0 } else { 0.0 },
            ]
        };
        let x: Vec<Vec<f64>> = (0..40).map(|i| row(&mut rng, i % 2)).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| -60.0 - 2.0 * r[0] - r[1] + 0.5 * r[2] - 5.0 * r[4])
            .collect();
        let queries: Vec<Vec<f64>> = (0..n_queries).map(|i| row(&mut rng, i % 2)).collect();
        let scale = {
            let mut s = vec![1.0; 5];
            s[3] = 3.0;
            s[4] = 3.0;
            s
        };
        let make_zoo = || -> Vec<Box<dyn Regressor>> {
            vec![
                Box::new(GlobalMean::new()),
                Box::new(GroupMeanBaseline::new(3..5).unwrap()),
                Box::new(KnnRegressor::new(3, Weighting::Distance, 2.0).unwrap()),
                Box::new(KnnRegressor::new(4, Weighting::Uniform, 1.0).unwrap()),
                Box::new(
                    KnnRegressor::new(8, Weighting::Distance, 2.0)
                        .unwrap()
                        .with_feature_scaling(scale.clone())
                        .unwrap(),
                ),
                Box::new(PerGroupKnn::new(3..5, 2, Weighting::Distance, 2.0).unwrap()),
                Box::new(Mlp::new(MlpConfig {
                    hidden: vec![(8, Activation::Sigmoid)],
                    epochs: 5,
                    ..MlpConfig::paper_tuned()
                })),
                Box::new(IdwInterpolator::new(2.0, 8).unwrap()),
                Box::new(OrdinaryKriging::new(KrigingConfig::default())),
            ]
        };
        let xm = FeatureMatrix::from_rows(&x).unwrap();
        let mut nested = make_zoo();
        let mut flat = make_zoo();
        for (a, b) in nested.iter_mut().zip(&mut flat) {
            a.fit(&x, &y).unwrap();
            b.fit_batch(&xm, &y).unwrap();
        }
        for (a, b) in nested.iter().zip(&flat) {
            for q in &queries {
                prop_assert_eq!(a.predict_one(q).unwrap(), b.predict_one(q).unwrap());
            }
        }
    }

    /// Grid search must rank candidates identically — names and RMSE bits —
    /// under both execution policies, for any seed.
    #[test]
    fn grid_search_policy_identity(seed in 0u64..100) {
        use aerorem::ml::dataset::Dataset;
        use aerorem::ml::gridsearch::{grid_search_with, knn_grid};
        use aerorem::numerics::ExecPolicy;
        use rand::SeedableRng;
        let data = Dataset::new(
            (0..50).map(|i| vec![i as f64 / 7.0, (i % 4) as f64]).collect(),
            (0..50).map(|i| -60.0 - (i % 9) as f64 * 1.1).collect(),
        ).unwrap();
        let serial = grid_search_with(
            knn_grid(&[1, 3, 8]),
            &data,
            0.25,
            &mut rand::rngs::StdRng::seed_from_u64(seed),
            ExecPolicy::Serial,
        ).unwrap();
        let parallel = grid_search_with(
            knn_grid(&[1, 3, 8]),
            &data,
            0.25,
            &mut rand::rngs::StdRng::seed_from_u64(seed),
            ExecPolicy::Parallel,
        ).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// Fold-parallel cross-validation must return the exact per-fold RMSEs
    /// of the serial loop, for any seed and fold count.
    #[test]
    fn cross_validate_policy_identity(seed in 0u64..100, k in 2usize..6) {
        use aerorem::ml::crossval::cross_validate_with;
        use aerorem::ml::dataset::Dataset;
        use aerorem::numerics::ExecPolicy;
        use rand::SeedableRng;
        let data = Dataset::new(
            (0..36).map(|i| vec![i as f64, (i % 5) as f64 * 0.4]).collect(),
            (0..36).map(|i| -55.0 - (i % 7) as f64).collect(),
        ).unwrap();
        let make = KnnRegressor::paper_tuned;
        let serial = cross_validate_with(
            &data, k, &mut rand::rngs::StdRng::seed_from_u64(seed), make, ExecPolicy::Serial,
        ).unwrap();
        let parallel = cross_validate_with(
            &data, k, &mut rand::rngs::StdRng::seed_from_u64(seed), make, ExecPolicy::Parallel,
        ).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn variogram_monotone_nondecreasing(
        nugget in finite_f64(0.0..2.0),
        sill in finite_f64(0.1..10.0),
        range in finite_f64(0.5..20.0),
        h1 in finite_f64(0.001..50.0),
        h2 in finite_f64(0.001..50.0),
    ) {
        for kind in [VariogramKind::Exponential, VariogramKind::Spherical, VariogramKind::Gaussian] {
            let v = Variogram { kind, nugget, sill, range };
            let (lo, hi) = if h1 <= h2 { (h1, h2) } else { (h2, h1) };
            prop_assert!(v.gamma(lo) <= v.gamma(hi) + 1e-12);
            prop_assert!(v.gamma(lo) >= 0.0);
        }
    }
}

// --- mission / uav invariants ---

proptest! {
    /// The shared CWLAP formatter and parser must round-trip any SSID —
    /// including quotes, backslashes, commas, newlines and unicode — on a
    /// single wire line.
    #[test]
    fn cwlap_format_parse_roundtrip(
        ssid in prop::collection::vec(any::<u8>(), 0..32)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        rssi in -100i32..0,
        mac_idx in 0u32..1000,
        ch in 1u8..=13,
    ) {
        use aerorem::propagation::ap::{MacAddress, Ssid};
        use aerorem::propagation::scan::BeaconObservation;
        use aerorem::scanner::parse::{format_cwlap_row, parse_cwlap_row};
        let obs = BeaconObservation {
            ssid: Ssid::new(ssid),
            rssi_dbm: rssi,
            mac: MacAddress::from_index(mac_idx),
            channel: WifiChannel::new(ch).unwrap(),
        };
        let line = format_cwlap_row(&obs);
        prop_assert!(!line.contains('\n'), "wire rows must stay single-line");
        prop_assert_eq!(parse_cwlap_row(&line).unwrap(), obs);
    }

    /// A lossy link (random fragment drops + reordering) must never hand
    /// the parser a *spliced* row: every recovered line that parses as a
    /// CWLAP row is byte-identical to a row that was actually sent.
    #[test]
    fn lossy_crtp_link_never_splices_rows(
        seed in 0u64..300,
        n_rows in 1usize..25,
        drop_pct in 0u32..60,
    ) {
        use aerorem::propagation::ap::{MacAddress, Ssid};
        use aerorem::propagation::scan::BeaconObservation;
        use aerorem::scanner::parse::{format_cwlap_row, parse_cwlap_row};
        use rand::{Rng, SeedableRng};
        let rows: Vec<String> = (0..n_rows as u32)
            .map(|i| {
                format_cwlap_row(&BeaconObservation {
                    ssid: Ssid::new(format!("ap-{i}")),
                    rssi_dbm: -40 - i as i32,
                    mac: MacAddress::from_index(i),
                    channel: WifiChannel::new(1 + (i % 13) as u8).unwrap(),
                })
            })
            .collect();
        let wire: String = rows.iter().map(|r| format!("{r}\n")).collect();
        let frags = CrtpPacket::fragment(CrtpPort::Console, 0, wire.as_bytes()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut kept: Vec<_> = frags
            .into_iter()
            .filter(|_| rng.gen_range(0u32..100) >= drop_pct)
            .collect();
        for i in (1..kept.len()).rev() {
            let j = rng.gen_range(0..=i);
            kept.swap(i, j);
        }
        let recovered = CrtpPacket::reassemble(&kept).lines();
        for line in &recovered.lines {
            if parse_cwlap_row(line).is_ok() {
                prop_assert!(
                    rows.iter().any(|r| r == line),
                    "link synthesized a row that was never sent: {}",
                    line
                );
            }
        }
    }

    #[test]
    fn csv_roundtrip_arbitrary_ssids(ssids in prop::collection::vec(".{0,32}", 1..10)) {
        use aerorem::mission::{csv, Sample, SampleSet};
        use aerorem::propagation::ap::{MacAddress, Ssid};
        use aerorem::propagation::WifiChannel;
        use aerorem::simkit::SimTime;
        use aerorem::uav::UavId;
        let mut set = SampleSet::new();
        for (i, name) in ssids.iter().enumerate() {
            set.push(Sample {
                uav: UavId(0),
                waypoint_index: i,
                position: Vec3::new(i as f64, 0.0, 1.0),
                true_position: Vec3::new(i as f64, 0.0, 1.0),
                ssid: Ssid::new(name.clone()),
                mac: MacAddress::from_index(i as u32),
                channel: WifiChannel::new(6).unwrap(),
                rssi_dbm: -70,
                timestamp: SimTime::from_millis(i as u64),
            });
        }
        let back = csv::from_csv(&csv::to_csv(&set)).unwrap();
        prop_assert_eq!(back, set);
    }

    #[test]
    fn commander_never_recovers_from_shutdown(
        feed_times in prop::collection::vec(0u64..20_000, 0..30),
        probe in 0u64..40_000,
    ) {
        use aerorem::simkit::SimTime;
        use aerorem::uav::commander::{Commander, CommanderState};
        use aerorem::uav::dynamics::ControlInput;
        use aerorem::uav::firmware::FirmwareConfig;
        let mut c = Commander::new(FirmwareConfig::stock_2021_06(), SimTime::ZERO);
        let mut feeds = feed_times.clone();
        feeds.sort_unstable();
        let mut shutdown_seen = false;
        for t in feeds {
            let input = c.control(SimTime::from_millis(t));
            if c.state() == CommanderState::Shutdown {
                shutdown_seen = true;
                prop_assert_eq!(input, ControlInput::MotorsOff);
            }
            if !shutdown_seen {
                c.set_setpoint(SimTime::from_millis(t), Vec3::splat(1.0));
            } else {
                // Feeding after shutdown must not resurrect the commander.
                c.set_setpoint(SimTime::from_millis(t), Vec3::splat(1.0));
                prop_assert_eq!(c.state(), CommanderState::Shutdown);
            }
        }
        let final_input = c.control(SimTime::from_millis(probe.max(30_000)));
        // 30+ s of silence always ends in shutdown on stock firmware.
        prop_assert_eq!(final_input, ControlInput::MotorsOff);
    }

    #[test]
    fn battery_drain_is_monotone(
        durations in prop::collection::vec(1u64..120, 1..40),
    ) {
        use aerorem::simkit::SimDuration;
        use aerorem::uav::battery::{Battery, BatteryConfig, PowerState};
        let mut b = Battery::new(BatteryConfig::paper_crazyflie());
        let mut last = b.remaining_mah();
        for d in durations {
            b.drain(SimDuration::from_secs(d), PowerState::hover_with_decks());
            prop_assert!(b.remaining_mah() <= last);
            prop_assert!(b.remaining_mah() >= 0.0);
            last = b.remaining_mah();
        }
    }

    #[test]
    fn quadrotor_stays_above_floor(
        targets in prop::collection::vec(
            (finite_f64(-3.0..3.0), finite_f64(-3.0..3.0), finite_f64(-2.0..3.0)),
            1..6,
        ),
    ) {
        use aerorem::uav::dynamics::{ControlInput, DynamicsConfig, Quadrotor};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut q = Quadrotor::new(DynamicsConfig::crazyflie(), Vec3::ZERO);
        for (x, y, z) in targets {
            for _ in 0..100 {
                q.step(0.01, ControlInput::Position(Vec3::new(x, y, z)), &mut rng);
                prop_assert!(q.position().z >= -1e-9, "below floor: {}", q.position().z);
                prop_assert!(q.velocity().norm() <= 0.6 + 1e-9);
            }
        }
    }
}

/// The per-AP link cache memoizes a deterministic quantity, so a cached
/// campaign must emit a bit-identical report for any seed. Campaigns are
/// expensive (a full fleet simulation per run), so this sweeps a fixed
/// handful of seeds as a plain test instead of a proptest.
#[test]
fn cached_campaign_reports_are_bit_identical() {
    use aerorem::mission::{Campaign, CampaignConfig, FleetPlan};
    use aerorem::simkit::SimDuration;
    use rand::SeedableRng;
    let config = |link_cache: bool| CampaignConfig {
        fleet_plan: FleetPlan {
            fleet_size: 2,
            total_waypoints: 12,
            travel_time: SimDuration::from_secs(2),
            scan_time: SimDuration::from_secs(2),
        },
        link_cache,
        ..CampaignConfig::paper_demo()
    };
    for seed in [0u64, 7, 1234, 0xAE90] {
        let cached = Campaign::new(config(true))
            .run(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let uncached = Campaign::new(config(false))
            .run(&mut rand::rngs::StdRng::seed_from_u64(seed));
        assert_eq!(cached.samples, uncached.samples, "seed {seed}");
        assert_eq!(cached.total_time, uncached.total_time, "seed {seed}");
    }
}
