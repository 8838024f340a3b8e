//! TWR and TDoA ranging measurement generation.
//!
//! §II-B: "The localization is then performed using either the Two-Way
//! Ranging (TWR) procedure or different flavors of the Time Difference of
//! Arrival (TDoA) procedure, the latter featuring slightly better accuracy
//! and supporting simultaneous localization of multiple UAVs." The LPS is
//! usable to about 10 m.
//!
//! The noise model is Gaussian with an occasional positive NLoS bias;
//! anchors beyond the usable range (or unlucky, per the dropout
//! probability) produce no measurement.

use rand::Rng;

use aerorem_numerics::dist;
use aerorem_spatial::Vec3;

use crate::anchors::{AnchorConstellation, AnchorId};

/// Which UWB localization procedure runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangingMode {
    /// Two-way ranging: one absolute range per anchor exchange. Simple but
    /// the tag must transact with each anchor (no multi-UAV scaling).
    Twr,
    /// Time-difference-of-arrival: range *differences* against a reference
    /// anchor. Passive at the tag — any number of UAVs can listen at once —
    /// and slightly more precise per §II-B.
    Tdoa,
}

/// One ranging observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RangeMeasurement {
    /// Absolute range to one anchor (TWR).
    Twr {
        /// The measured anchor.
        anchor: AnchorId,
        /// Measured distance in meters.
        range_m: f64,
    },
    /// Range difference `|p − other| − |p − reference|` (TDoA).
    Tdoa {
        /// The reference anchor.
        reference: AnchorId,
        /// The other anchor.
        other: AnchorId,
        /// Measured range difference in meters.
        delta_m: f64,
    },
}

/// Ranging noise/availability configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangingConfig {
    /// Active procedure.
    pub mode: RangingMode,
    /// 1-σ Gaussian measurement noise in meters.
    pub noise_std_m: f64,
    /// Probability that a given measurement suffers an NLoS excess delay.
    pub nlos_probability: f64,
    /// Mean positive bias of an NLoS measurement in meters.
    pub nlos_bias_m: f64,
    /// Maximum usable anchor distance in meters (§II-B: ≈ 10 m).
    pub max_range_m: f64,
    /// Probability an in-range measurement is simply lost.
    pub dropout_probability: f64,
}

impl RangingConfig {
    /// DWM1000-class defaults: 5 cm noise for TWR, 4 cm for TDoA (the
    /// "slightly better accuracy" of §II-B), 3 % NLoS at 30 cm bias, 10 m
    /// range, 2 % dropout.
    pub fn lps_default(mode: RangingMode) -> Self {
        RangingConfig {
            mode,
            noise_std_m: match mode {
                RangingMode::Twr => 0.05,
                RangingMode::Tdoa => 0.04,
            },
            nlos_probability: 0.03,
            nlos_bias_m: 0.30,
            max_range_m: 10.0,
            dropout_probability: 0.02,
        }
    }

    /// Draws one epoch of measurements for a tag at `true_pos`.
    ///
    /// TWR yields up to one range per anchor; TDoA yields up to one delta
    /// per non-reference anchor (anchor 0 of the constellation is the
    /// reference, matching the LPS TDoA-2 scheme).
    pub fn measure<R: Rng + ?Sized>(
        &self,
        anchors: &AnchorConstellation,
        true_pos: Vec3,
        rng: &mut R,
    ) -> Vec<RangeMeasurement> {
        match self.mode {
            RangingMode::Twr => self.measure_twr(anchors, true_pos, rng),
            RangingMode::Tdoa => self.measure_tdoa(anchors, true_pos, rng),
        }
    }

    fn noisy_range<R: Rng + ?Sized>(&self, true_range: f64, rng: &mut R) -> f64 {
        let mut r = true_range + dist::normal(rng, 0.0, self.noise_std_m);
        if dist::bernoulli(rng, self.nlos_probability) {
            // NLoS excess path: always positive, exponential-ish via |N|.
            r += dist::normal(rng, 0.0, self.nlos_bias_m).abs();
        }
        r.max(0.0)
    }

    fn available<R: Rng + ?Sized>(&self, true_range: f64, rng: &mut R) -> bool {
        true_range <= self.max_range_m && !dist::bernoulli(rng, self.dropout_probability)
    }

    fn measure_twr<R: Rng + ?Sized>(
        &self,
        anchors: &AnchorConstellation,
        p: Vec3,
        rng: &mut R,
    ) -> Vec<RangeMeasurement> {
        anchors
            .iter()
            .filter_map(|a| {
                let d = a.position.distance(p);
                if !self.available(d, rng) {
                    return None;
                }
                Some(RangeMeasurement::Twr {
                    anchor: a.id,
                    range_m: self.noisy_range(d, rng),
                })
            })
            .collect()
    }

    fn measure_tdoa<R: Rng + ?Sized>(
        &self,
        anchors: &AnchorConstellation,
        p: Vec3,
        rng: &mut R,
    ) -> Vec<RangeMeasurement> {
        let Some(reference) = anchors.as_slice().first() else {
            return Vec::new();
        };
        let d_ref = reference.position.distance(p);
        if d_ref > self.max_range_m {
            return Vec::new();
        }
        anchors
            .iter()
            .skip(1)
            .filter_map(|a| {
                let d = a.position.distance(p);
                if !self.available(d, rng) {
                    return None;
                }
                // Two arrivals, each with independent noise; difference
                // noise std is sqrt(2)·σ but the LPS clock model does a bit
                // better, so draw each leg separately.
                let delta = self.noisy_range(d, rng) - self.noisy_range(d_ref, rng);
                Some(RangeMeasurement::Tdoa {
                    reference: reference.id,
                    other: a.id,
                    delta_m: delta,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerorem_spatial::Aabb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn anchors() -> AnchorConstellation {
        AnchorConstellation::volume_corners(Aabb::paper_volume())
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x10C)
    }

    #[test]
    fn twr_yields_one_range_per_anchor_mostly() {
        let cfg = RangingConfig {
            dropout_probability: 0.0,
            ..RangingConfig::lps_default(RangingMode::Twr)
        };
        let m = cfg.measure(&anchors(), Aabb::paper_volume().center(), &mut rng());
        assert_eq!(m.len(), 8);
        for meas in &m {
            let RangeMeasurement::Twr { range_m, .. } = meas else {
                panic!("expected TWR measurement");
            };
            assert!(*range_m > 0.0 && *range_m < 5.0);
        }
    }

    #[test]
    fn twr_ranges_near_truth() {
        let cfg = RangingConfig {
            nlos_probability: 0.0,
            dropout_probability: 0.0,
            ..RangingConfig::lps_default(RangingMode::Twr)
        };
        let p = Vec3::new(1.0, 1.0, 1.0);
        let a = anchors();
        let mut r = rng();
        for _ in 0..50 {
            for meas in cfg.measure(&a, p, &mut r) {
                let RangeMeasurement::Twr { anchor, range_m } = meas else {
                    panic!()
                };
                let truth = a.get(anchor).unwrap().position.distance(p);
                assert!(
                    (range_m - truth).abs() < 0.3,
                    "range {range_m} vs truth {truth}"
                );
            }
        }
    }

    #[test]
    fn tdoa_yields_deltas_against_reference() {
        let cfg = RangingConfig {
            dropout_probability: 0.0,
            ..RangingConfig::lps_default(RangingMode::Tdoa)
        };
        let a = anchors();
        let p = Vec3::new(2.0, 1.0, 1.5);
        let m = cfg.measure(&a, p, &mut rng());
        assert_eq!(m.len(), 7, "one delta per non-reference anchor");
        for meas in &m {
            let RangeMeasurement::Tdoa {
                reference,
                other,
                delta_m,
            } = meas
            else {
                panic!("expected TDoA measurement")
            };
            assert_eq!(*reference, AnchorId(0));
            let truth = a.get(*other).unwrap().position.distance(p)
                - a.get(*reference).unwrap().position.distance(p);
            assert!((delta_m - truth).abs() < 0.5);
        }
    }

    #[test]
    fn out_of_range_anchors_silent() {
        let far = AnchorConstellation::new(vec![crate::anchors::Anchor {
            id: AnchorId(0),
            position: Vec3::new(100.0, 0.0, 0.0),
        }]);
        let cfg = RangingConfig::lps_default(RangingMode::Twr);
        assert!(cfg.measure(&far, Vec3::ZERO, &mut rng()).is_empty());
        let cfg = RangingConfig::lps_default(RangingMode::Tdoa);
        assert!(cfg.measure(&far, Vec3::ZERO, &mut rng()).is_empty());
    }

    #[test]
    fn dropout_loses_measurements() {
        let cfg = RangingConfig {
            dropout_probability: 0.5,
            ..RangingConfig::lps_default(RangingMode::Twr)
        };
        let mut r = rng();
        let total: usize = (0..100)
            .map(|_| cfg.measure(&anchors(), Aabb::paper_volume().center(), &mut r).len())
            .sum();
        // 8 anchors × 100 epochs × 50 % ≈ 400.
        assert!((300..500).contains(&total), "total {total}");
    }

    #[test]
    fn nlos_bias_is_positive() {
        let cfg = RangingConfig {
            nlos_probability: 1.0,
            noise_std_m: 0.0,
            dropout_probability: 0.0,
            ..RangingConfig::lps_default(RangingMode::Twr)
        };
        let p = Vec3::new(1.0, 1.0, 1.0);
        let a = anchors();
        let mut r = rng();
        for meas in cfg.measure(&a, p, &mut r) {
            let RangeMeasurement::Twr { anchor, range_m } = meas else {
                panic!()
            };
            let truth = a.get(anchor).unwrap().position.distance(p);
            assert!(range_m >= truth, "NLoS must only lengthen the path");
        }
    }

    #[test]
    fn empty_constellation_yields_nothing() {
        let empty = AnchorConstellation::new(vec![]);
        let cfg = RangingConfig::lps_default(RangingMode::Tdoa);
        assert!(cfg.measure(&empty, Vec3::ZERO, &mut rng()).is_empty());
    }

    #[test]
    fn tdoa_noise_tighter_than_twr() {
        let twr = RangingConfig::lps_default(RangingMode::Twr);
        let tdoa = RangingConfig::lps_default(RangingMode::Tdoa);
        assert!(tdoa.noise_std_m < twr.noise_std_m);
    }
}
