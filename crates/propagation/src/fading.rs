//! Small-scale (fast) fading.
//!
//! On top of path loss and shadowing, each individual beacon reception sees
//! multipath fading. We model the envelope as Rician with a configurable
//! K-factor: K → ∞ is a pure line-of-sight link, K = 0 degenerates to
//! Rayleigh (rich scattering, the typical through-wall indoor case). The
//! sampled envelope is converted to a dB perturbation with zero median.

use rand::Rng;

use aerorem_numerics::dist;

/// A small-scale fading model applied per received beacon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FadingModel {
    /// No fast fading: the sample equals the large-scale mean.
    None,
    /// Rician fading with the given K-factor (linear, not dB).
    ///
    /// `k = 0` is Rayleigh fading.
    Rician {
        /// Ratio of line-of-sight power to scattered power (linear).
        k_factor: f64,
    },
}

impl FadingModel {
    /// Rayleigh fading (`K = 0`) — the default for through-wall indoor links.
    pub fn rayleigh() -> Self {
        FadingModel::Rician { k_factor: 0.0 }
    }

    /// Draws a fading perturbation in dB (median-centered, so the expected
    /// *median* RSS is unaffected).
    ///
    /// # Panics
    ///
    /// Panics if the K-factor is negative or not finite.
    pub fn sample_db<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            FadingModel::None => 0.0,
            FadingModel::Rician { k_factor } => {
                assert!(
                    k_factor >= 0.0 && k_factor.is_finite(),
                    "K-factor must be non-negative"
                );
                // Total mean power normalized to 1: LoS amplitude² = K/(K+1),
                // scatter variance per quadrature = 1/(2(K+1)).
                let nu = (k_factor / (k_factor + 1.0)).sqrt();
                let sigma = (1.0 / (2.0 * (k_factor + 1.0))).sqrt();
                let envelope = dist::rician(rng, nu, sigma);
                let power_db = 20.0 * envelope.max(1e-9).log10();
                // Subtract the distribution's median (in dB) so the fading
                // perturbs around zero.
                power_db - Self::median_db(k_factor)
            }
        }
    }

    /// The median of the Rician power in dB for a given K (computed from the
    /// closed form for Rayleigh, numerically-fitted offset otherwise).
    fn median_db(k_factor: f64) -> f64 {
        if k_factor == 0.0 {
            // Rayleigh power median = sigma²·2·ln2 with total power 1:
            // envelope² median = ln(2) → in dB:
            10.0 * (std::f64::consts::LN_2).log10()
        } else {
            // For moderate/large K the distribution concentrates at power 1
            // (0 dB); blend toward the Rayleigh median for small K.
            let rayleigh_median = 10.0 * (std::f64::consts::LN_2).log10();
            rayleigh_median / (1.0 + k_factor)
        }
    }
}

impl Default for FadingModel {
    fn default() -> Self {
        FadingModel::rayleigh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xFAD1)
    }

    #[test]
    fn none_is_zero() {
        let mut r = rng();
        assert_eq!(FadingModel::None.sample_db(&mut r), 0.0);
    }

    #[test]
    fn rayleigh_median_near_zero_db() {
        let mut r = rng();
        let m = FadingModel::rayleigh();
        let mut xs: Vec<f64> = (0..40_000).map(|_| m.sample_db(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!(median.abs() < 0.15, "median {median} dB");
    }

    #[test]
    fn rayleigh_has_deep_fades() {
        let mut r = rng();
        let m = FadingModel::rayleigh();
        let deep = (0..40_000)
            .map(|_| m.sample_db(&mut r))
            .filter(|&x| x < -10.0)
            .count();
        // Rayleigh: P(power < median - 10 dB) ≈ 7 %.
        let frac = deep as f64 / 40_000.0;
        assert!((0.03..0.12).contains(&frac), "deep-fade fraction {frac}");
    }

    #[test]
    fn strong_los_concentrates() {
        let mut r = rng();
        let m = FadingModel::Rician { k_factor: 30.0 };
        let xs: Vec<f64> = (0..20_000).map(|_| m.sample_db(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let std = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
        assert!(std < 1.5, "high-K fading should be tight, std {std}");
    }

    #[test]
    fn higher_k_means_less_variance() {
        let mut r = rng();
        let var = |k: f64, r: &mut StdRng| {
            let m = FadingModel::Rician { k_factor: k };
            let xs: Vec<f64> = (0..20_000).map(|_| m.sample_db(r)).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64
        };
        let v0 = var(0.0, &mut r);
        let v10 = var(10.0, &mut r);
        assert!(v10 < v0 / 3.0, "K=10 var {v10} vs K=0 var {v0}");
    }

    #[test]
    fn default_is_rayleigh() {
        assert_eq!(FadingModel::default(), FadingModel::rayleigh());
    }
}
