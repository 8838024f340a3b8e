//! Large-scale path-loss models for indoor 2.4 GHz links.
//!
//! Three classic models are provided; the synthetic building defaults to
//! log-distance with an indoor exponent plus explicit per-wall losses
//! (a COST-231 multi-wall flavour, where the wall term comes from
//! [`crate::walls`] rather than from the model itself).

/// Speed of light in m/s.
const C: f64 = 299_792_458.0;

/// Free-space path loss in dB at `distance_m` meters and `freq_mhz` MHz.
///
/// Distances below 1 cm are clamped to avoid the singularity at zero.
pub fn free_space_db(distance_m: f64, freq_mhz: f64) -> f64 {
    let d = distance_m.max(0.01);
    let f_hz = freq_mhz * 1e6;
    20.0 * (4.0 * std::f64::consts::PI * d * f_hz / C).log10()
}

/// A large-scale path-loss model.
///
/// All variants return loss in dB (positive numbers; received power is
/// `tx_power − loss`).
///
/// # Examples
///
/// ```
/// use aerorem_propagation::pathloss::PathLossModel;
///
/// let model = PathLossModel::log_distance_indoor();
/// let near = model.loss_db(1.0, 2437.0);
/// let far = model.loss_db(10.0, 2437.0);
/// assert!(far > near);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathLossModel {
    /// Free-space (Friis) propagation — the LoS baseline.
    FreeSpace,
    /// Log-distance: `PL(d) = PL(d0) + 10·n·log10(d/d0)`.
    LogDistance {
        /// Reference distance in meters (usually 1 m).
        d0_m: f64,
        /// Path loss at the reference distance in dB. When `None`, the
        /// free-space loss at `d0` is used.
        pl0_db: Option<f64>,
        /// Path-loss exponent `n`; ~2 in free space, 2.8–3.5 indoors through
        /// walls.
        exponent: f64,
    },
    /// ITU-R P.1238 indoor model:
    /// `PL = 20·log10(f) + N·log10(d) + Lf(n_floors) − 28`.
    ItuIndoor {
        /// Distance power-loss coefficient `N` (≈ 28–30 for residential
        /// 2.4 GHz).
        n_coeff: f64,
        /// Number of penetrated floors.
        floors: u8,
        /// Per-floor penetration loss in dB (≈ 10–15 residential).
        floor_loss_db: f64,
    },
}

impl PathLossModel {
    /// A log-distance model with free-space anchor at 1 m and indoor
    /// exponent 3.0 — the synthetic building's default.
    pub fn log_distance_indoor() -> Self {
        PathLossModel::LogDistance {
            d0_m: 1.0,
            pl0_db: None,
            exponent: 3.0,
        }
    }

    /// Path loss in dB at the given distance (meters) and frequency (MHz).
    ///
    /// Distances below 1 cm are clamped.
    pub fn loss_db(&self, distance_m: f64, freq_mhz: f64) -> f64 {
        let d = distance_m.max(0.01);
        match *self {
            PathLossModel::FreeSpace => free_space_db(d, freq_mhz),
            PathLossModel::LogDistance {
                d0_m,
                pl0_db,
                exponent,
            } => {
                let d0 = d0_m.max(0.01);
                let pl0 = pl0_db.unwrap_or_else(|| free_space_db(d0, freq_mhz));
                pl0 + 10.0 * exponent * (d / d0).max(1.0).log10()
            }
            PathLossModel::ItuIndoor {
                n_coeff,
                floors,
                floor_loss_db,
            } => {
                20.0 * freq_mhz.log10() + n_coeff * d.max(1.0).log10()
                    + f64::from(floors) * floor_loss_db
                    - 28.0
            }
        }
    }
}

impl Default for PathLossModel {
    fn default() -> Self {
        PathLossModel::log_distance_indoor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_space_known_value() {
        // FSPL at 1 m, 2437 MHz ≈ 40.2 dB.
        let l = free_space_db(1.0, 2437.0);
        assert!((l - 40.17).abs() < 0.1, "got {l}");
        // +20 dB per decade.
        assert!((free_space_db(10.0, 2437.0) - l - 20.0).abs() < 1e-9);
    }

    #[test]
    fn free_space_clamps_tiny_distance() {
        assert_eq!(free_space_db(0.0, 2437.0), free_space_db(0.005, 2437.0));
    }

    #[test]
    fn log_distance_slope() {
        let m = PathLossModel::log_distance_indoor();
        let l1 = m.loss_db(1.0, 2437.0);
        let l10 = m.loss_db(10.0, 2437.0);
        // Exponent 3 → 30 dB per decade.
        assert!((l10 - l1 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn log_distance_explicit_anchor() {
        let m = PathLossModel::LogDistance {
            d0_m: 1.0,
            pl0_db: Some(45.0),
            exponent: 2.0,
        };
        assert_eq!(m.loss_db(1.0, 2437.0), 45.0);
        assert!((m.loss_db(100.0, 2437.0) - 85.0).abs() < 1e-9);
    }

    #[test]
    fn log_distance_no_gain_inside_reference() {
        // Inside d0 the loss must not drop below PL(d0).
        let m = PathLossModel::log_distance_indoor();
        assert!(m.loss_db(0.1, 2437.0) >= m.loss_db(1.0, 2437.0) - 1e-9);
    }

    #[test]
    fn itu_indoor_floor_penalty() {
        let base = PathLossModel::ItuIndoor {
            n_coeff: 28.0,
            floors: 0,
            floor_loss_db: 12.0,
        };
        let two_floors = PathLossModel::ItuIndoor {
            n_coeff: 28.0,
            floors: 2,
            floor_loss_db: 12.0,
        };
        let d = 8.0;
        assert!((two_floors.loss_db(d, 2437.0) - base.loss_db(d, 2437.0) - 24.0).abs() < 1e-9);
    }

    #[test]
    fn itu_indoor_reasonable_magnitude() {
        // Residential 2.4 GHz at 10 m, same floor: roughly 70–90 dB.
        let m = PathLossModel::ItuIndoor {
            n_coeff: 28.0,
            floors: 0,
            floor_loss_db: 12.0,
        };
        let l = m.loss_db(10.0, 2437.0);
        assert!((60.0..100.0).contains(&l), "got {l}");
    }

    #[test]
    fn all_models_monotone_in_distance() {
        let models = [
            PathLossModel::FreeSpace,
            PathLossModel::log_distance_indoor(),
            PathLossModel::ItuIndoor {
                n_coeff: 30.0,
                floors: 1,
                floor_loss_db: 10.0,
            },
        ];
        for m in models {
            let mut last = f64::MIN;
            for d in [1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
                let l = m.loss_db(d, 2437.0);
                assert!(l >= last, "{m:?} not monotone at {d}");
                last = l;
            }
        }
    }

    #[test]
    fn default_is_indoor_log_distance() {
        assert_eq!(PathLossModel::default(), PathLossModel::log_distance_indoor());
    }
}
