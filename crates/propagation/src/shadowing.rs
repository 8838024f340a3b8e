//! Spatially correlated log-normal shadowing.
//!
//! Indoor shadow fading is not i.i.d.: samples taken decimeters apart see
//! nearly the same obstruction pattern (Gudmundson's exponential-correlation
//! model). This matters for the reproduction — the paper's kNN regressor
//! only beats the per-MAC-mean baseline *because* nearby RSS samples are
//! correlated. We realize the field as deterministic lattice Gaussian noise
//! with trilinear interpolation:
//!
//! * a lattice with spacing equal to the decorrelation distance carries one
//!   `N(0, σ²)` value per node, derived by hashing `(field seed, AP seed,
//!   node coords)` — no storage, infinite extent, fully reproducible;
//! * between nodes the value is the trilinearly interpolated combination,
//!   renormalized so the marginal variance stays `σ²` everywhere;
//! * each AP gets an independent field via its `ap_seed`.

use aerorem_spatial::Vec3;

/// A deterministic, spatially correlated Gaussian field in dB.
///
/// # Examples
///
/// ```
/// use aerorem_propagation::shadowing::ShadowingField;
/// use aerorem_spatial::Vec3;
///
/// let field = ShadowingField::new(4.0, 2.0, 99);
/// let a = field.sample(1, Vec3::ZERO);
/// let b = field.sample(1, Vec3::new(0.05, 0.0, 0.0)); // 5 cm away
/// assert!((a - b).abs() < 1.0, "nearby samples are strongly correlated");
/// assert_eq!(a, field.sample(1, Vec3::ZERO), "deterministic");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowingField {
    sigma_db: f64,
    correlation_m: f64,
    seed: u64,
}

impl ShadowingField {
    /// Creates a field with standard deviation `sigma_db` (dB), lattice
    /// spacing / decorrelation distance `correlation_m` (meters), and a
    /// global seed.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma_db >= 0` and `correlation_m > 0`.
    pub fn new(sigma_db: f64, correlation_m: f64, seed: u64) -> Self {
        assert!(sigma_db >= 0.0 && sigma_db.is_finite(), "sigma must be >= 0");
        assert!(
            correlation_m > 0.0 && correlation_m.is_finite(),
            "correlation distance must be positive"
        );
        ShadowingField {
            sigma_db,
            correlation_m,
            seed,
        }
    }

    /// The field's standard deviation in dB.
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
    }

    /// The decorrelation distance in meters.
    pub fn correlation_m(&self) -> f64 {
        self.correlation_m
    }

    /// Samples the field for the AP identified by `ap_seed` at point `p`.
    ///
    /// The result is `N(0, σ²)`-distributed over space, continuous in `p`,
    /// and identical for identical arguments.
    pub fn sample(&self, ap_seed: u64, p: Vec3) -> f64 {
        if self.sigma_db == 0.0 {
            return 0.0;
        }
        let s = self.correlation_m;
        let gx = p.x / s;
        let gy = p.y / s;
        let gz = p.z / s;
        let ix = gx.floor() as i64;
        let iy = gy.floor() as i64;
        let iz = gz.floor() as i64;
        let fx = gx - ix as f64;
        let fy = gy - iy as f64;
        let fz = gz - iz as f64;

        let mut acc = 0.0;
        let mut w2 = 0.0;
        for dz in 0..2i64 {
            for dy in 0..2i64 {
                for dx in 0..2i64 {
                    let w = (if dx == 0 { 1.0 - fx } else { fx })
                        * (if dy == 0 { 1.0 - fy } else { fy })
                        * (if dz == 0 { 1.0 - fz } else { fz });
                    if w == 0.0 {
                        continue;
                    }
                    let g = self.node_gaussian(ap_seed, ix + dx, iy + dy, iz + dz);
                    acc += w * g;
                    w2 += w * w;
                }
            }
        }
        // Renormalize so the marginal stays N(0, sigma²) at every point.
        self.sigma_db * acc / w2.sqrt()
    }

    /// The `N(0, 1)` value attached to a lattice node.
    fn node_gaussian(&self, ap_seed: u64, ix: i64, iy: i64, iz: i64) -> f64 {
        let mut h = self.seed ^ ap_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = splitmix64(h ^ (ix as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        h = splitmix64(h ^ (iy as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
        h = splitmix64(h ^ (iz as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let u1 = to_unit_open(splitmix64(h));
        let u2 = to_unit_open(splitmix64(h ^ 0xA5A5_A5A5_A5A5_A5A5));
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// SplitMix64 — a tiny, high-quality 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a u64 to (0, 1], suitable for `ln`.
fn to_unit_open(x: u64) -> f64 {
    ((x >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> ShadowingField {
        ShadowingField::new(4.0, 2.0, 0xF1E1D)
    }

    #[test]
    fn deterministic() {
        let f = field();
        let p = Vec3::new(1.234, -5.678, 0.9);
        assert_eq!(f.sample(42, p), f.sample(42, p));
    }

    #[test]
    fn different_aps_get_independent_fields() {
        let f = field();
        let p = Vec3::new(3.0, 3.0, 1.0);
        assert_ne!(f.sample(1, p), f.sample(2, p));
    }

    #[test]
    fn zero_sigma_is_identically_zero() {
        let f = ShadowingField::new(0.0, 2.0, 7);
        assert_eq!(f.sample(1, Vec3::new(9.0, 9.0, 9.0)), 0.0);
    }

    #[test]
    fn marginal_moments_are_correct() {
        // Sample at well-separated (decorrelated) points and check N(0, σ²).
        let f = field();
        let mut xs = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                // 10 m spacing = 5 correlation lengths apart.
                xs.push(f.sample(3, Vec3::new(i as f64 * 10.0, j as f64 * 10.0, 0.0)));
            }
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((var.sqrt() - 4.0).abs() < 0.4, "std {}", var.sqrt());
    }

    #[test]
    fn variance_constant_within_cell() {
        // The renormalization should keep σ constant at cell centers too,
        // where naive trilinear interpolation would dip.
        let f = field();
        let mut xs = Vec::new();
        for i in 0..1600 {
            // Sample at cell centers of decorrelated cells.
            let base = i as f64 * 10.0;
            xs.push(f.sample(4, Vec3::new(base + 1.0, base * 0.5 + 1.0, 1.0)));
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((var.sqrt() - 4.0).abs() < 0.4, "std {}", var.sqrt());
    }

    #[test]
    fn nearby_points_strongly_correlated() {
        let f = field();
        let mut num = 0.0;
        let mut den_a = 0.0;
        let mut den_b = 0.0;
        // Estimate correlation at 10 cm lag (correlation length is 2 m).
        let pairs: Vec<(f64, f64)> = (0..2000)
            .map(|i| {
                let p = Vec3::new((i % 50) as f64 * 7.0, (i / 50) as f64 * 7.0, 1.0);
                let a = f.sample(5, p);
                let b = f.sample(5, p + Vec3::new(0.1, 0.0, 0.0));
                (a, b)
            })
            .collect();
        let ma = pairs.iter().map(|p| p.0).sum::<f64>() / pairs.len() as f64;
        let mb = pairs.iter().map(|p| p.1).sum::<f64>() / pairs.len() as f64;
        for (a, b) in &pairs {
            num += (a - ma) * (b - mb);
            den_a += (a - ma).powi(2);
            den_b += (b - mb).powi(2);
        }
        let corr = num / (den_a * den_b).sqrt();
        assert!(corr > 0.9, "correlation at 0.1 m lag was {corr}");
    }

    #[test]
    fn distant_points_decorrelated() {
        let f = field();
        let pairs: Vec<(f64, f64)> = (0..2000)
            .map(|i| {
                let p = Vec3::new((i % 50) as f64 * 9.0, (i / 50) as f64 * 9.0, 1.0);
                let a = f.sample(6, p);
                let b = f.sample(6, p + Vec3::new(200.0, 0.0, 0.0));
                (a, b)
            })
            .collect();
        let ma = pairs.iter().map(|p| p.0).sum::<f64>() / pairs.len() as f64;
        let mb = pairs.iter().map(|p| p.1).sum::<f64>() / pairs.len() as f64;
        let mut num = 0.0;
        let mut den_a = 0.0;
        let mut den_b = 0.0;
        for (a, b) in &pairs {
            num += (a - ma) * (b - mb);
            den_a += (a - ma).powi(2);
            den_b += (b - mb).powi(2);
        }
        let corr = num / (den_a * den_b).sqrt();
        assert!(corr.abs() < 0.1, "correlation at 200 m lag was {corr}");
    }

    #[test]
    fn continuous_across_cell_boundaries() {
        let f = field();
        // Step across a lattice node (x = 2.0 with spacing 2.0) in tiny steps.
        let eps = 1e-6;
        let a = f.sample(7, Vec3::new(2.0 - eps, 0.5, 0.5));
        let b = f.sample(7, Vec3::new(2.0 + eps, 0.5, 0.5));
        assert!((a - b).abs() < 1e-3, "discontinuity at node: {a} vs {b}");
    }

    #[test]
    fn negative_coordinates_work() {
        let f = field();
        let v = f.sample(8, Vec3::new(-13.7, -0.2, -5.0));
        assert!(v.is_finite());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_correlation_distance_panics() {
        ShadowingField::new(4.0, 0.0, 1);
    }
}
