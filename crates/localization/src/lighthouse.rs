//! Lighthouse-style sweep-angle localization — the paper's future work.
//!
//! The conclusion proposes replacing UWB with Bitcraze's *Lighthouse* infra-
//! red system, "which features comparable precision, while requiring less
//! anchors and being cheaper", and which frees the 2.4 GHz band entirely
//! (no self-interference with the REM receiver). A Lighthouse base station
//! sweeps laser planes across the room; the tag measures the **azimuth and
//! elevation angles** at which the sweeps hit it. Two base stations suffice
//! for a 3D fix.
//!
//! The measurement model here is exactly that: per base station, the pair
//! `(azimuth, elevation)` of the tag as seen from the station, with Gaussian
//! angular noise, fed to the shared EKF through its numeric-Jacobian scalar
//! update.

use rand::Rng;

use aerorem_numerics::dist;
use aerorem_spatial::Vec3;

use crate::ekf::{Ekf, EkfError};

/// One Lighthouse base station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaseStation {
    /// Position in the volume frame (typically high in two room corners).
    pub position: Vec3,
}

impl BaseStation {
    /// Azimuth of `p` from this station: angle in the x–y plane.
    pub fn azimuth(&self, p: Vec3) -> f64 {
        let d = p - self.position;
        d.y.atan2(d.x)
    }

    /// Elevation of `p` from this station: angle above the x–y plane.
    pub fn elevation(&self, p: Vec3) -> f64 {
        let d = p - self.position;
        d.z.atan2((d.x * d.x + d.y * d.y).sqrt())
    }
}

/// One sweep observation from one base station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepMeasurement {
    /// Index of the base station that produced the sweep.
    pub station: usize,
    /// Measured azimuth, radians.
    pub azimuth: f64,
    /// Measured elevation, radians.
    pub elevation: f64,
}

/// A deployed pair (or more) of Lighthouse base stations.
#[derive(Debug, Clone, PartialEq)]
pub struct LighthouseSystem {
    stations: Vec<BaseStation>,
    /// 1-σ angular noise in radians (~0.5 mrad for Lighthouse V2).
    pub angle_noise_rad: f64,
}

impl LighthouseSystem {
    /// Two stations mounted high on opposite corners of the given volume
    /// footprint — the standard Lighthouse room setup.
    pub fn two_station(volume: aerorem_spatial::Aabb) -> Self {
        let hi_z = volume.max().z + 0.3;
        LighthouseSystem {
            stations: vec![
                BaseStation {
                    position: Vec3::new(volume.min().x - 0.2, volume.min().y - 0.2, hi_z),
                },
                BaseStation {
                    position: Vec3::new(volume.max().x + 0.2, volume.max().y + 0.2, hi_z),
                },
            ],
            angle_noise_rad: 5e-4,
        }
    }

    /// The base stations.
    pub fn stations(&self) -> &[BaseStation] {
        &self.stations
    }

    /// Draws one epoch of sweep measurements of a tag at `true_pos`.
    pub fn measure<R: Rng + ?Sized>(&self, true_pos: Vec3, rng: &mut R) -> Vec<SweepMeasurement> {
        self.stations
            .iter()
            .enumerate()
            .map(|(i, s)| SweepMeasurement {
                station: i,
                azimuth: s.azimuth(true_pos) + dist::normal(rng, 0.0, self.angle_noise_rad),
                elevation: s.elevation(true_pos) + dist::normal(rng, 0.0, self.angle_noise_rad),
            })
            .collect()
    }

    /// Feeds a batch of sweep measurements to the EKF via numeric-Jacobian
    /// scalar updates.
    ///
    /// # Errors
    ///
    /// Returns [`EkfError::UnknownAnchor`] for out-of-range station indices;
    /// covariance errors propagate from the filter.
    pub fn update_ekf(
        &self,
        ekf: &mut Ekf,
        measurements: &[SweepMeasurement],
    ) -> Result<(), EkfError> {
        let var = self.angle_noise_rad * self.angle_noise_rad;
        for m in measurements {
            let station = *self.stations.get(m.station).ok_or(EkfError::UnknownAnchor)?;
            ekf.update_scalar_numeric(move |p| station.azimuth(p), m.azimuth, var)?;
            ekf.update_scalar_numeric(move |p| station.elevation(p), m.elevation, var)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerorem_spatial::Aabb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn geometry_of_angles() {
        let s = BaseStation {
            position: Vec3::ZERO,
        };
        // Directly along +x: azimuth 0, elevation 0.
        assert!(s.azimuth(Vec3::new(2.0, 0.0, 0.0)).abs() < 1e-12);
        assert!(s.elevation(Vec3::new(2.0, 0.0, 0.0)).abs() < 1e-12);
        // Along +y: azimuth π/2.
        assert!((s.azimuth(Vec3::new(0.0, 3.0, 0.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        // 45° up.
        let e = s.elevation(Vec3::new(1.0, 0.0, 1.0));
        assert!((e - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn two_stations_cover_volume() {
        let sys = LighthouseSystem::two_station(Aabb::paper_volume());
        assert_eq!(sys.stations().len(), 2);
        // Mounted above the volume.
        for s in sys.stations() {
            assert!(s.position.z > Aabb::paper_volume().max().z);
        }
    }

    #[test]
    fn ekf_converges_with_two_stations() {
        let volume = Aabb::paper_volume();
        let sys = LighthouseSystem::two_station(volume);
        let truth = Vec3::new(2.2, 1.1, 0.9);
        let mut rng = StdRng::seed_from_u64(0x11F);
        let mut ekf = Ekf::new(volume.center(), 0.5);
        for _ in 0..100 {
            ekf.predict(0.01);
            let meas = sys.measure(truth, &mut rng);
            sys.update_ekf(&mut ekf, &meas).unwrap();
        }
        let err = ekf.position().distance(truth);
        assert!(err < 0.05, "lighthouse convergence error {err} m");
    }

    #[test]
    fn fewer_anchors_than_uwb_comparable_precision() {
        // The future-work claim: 2 stations ≈ 6–8 UWB anchors in precision.
        let volume = Aabb::paper_volume();
        let sys = LighthouseSystem::two_station(volume);
        let truth = Vec3::new(1.5, 1.8, 1.2);
        let mut rng = StdRng::seed_from_u64(0x11F2);
        let mut ekf = Ekf::new(truth + Vec3::splat(0.2), 0.5);
        let mut errs = Vec::new();
        for step in 0..300 {
            ekf.predict(0.01);
            let meas = sys.measure(truth, &mut rng);
            sys.update_ekf(&mut ekf, &meas).unwrap();
            if step > 50 {
                errs.push(ekf.position().distance(truth));
            }
        }
        let rmse = (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt();
        assert!(rmse < 0.09, "lighthouse hover RMSE {rmse} m");
    }

    #[test]
    fn unknown_station_rejected() {
        let sys = LighthouseSystem::two_station(Aabb::paper_volume());
        let mut ekf = Ekf::new(Vec3::splat(1.0), 1.0);
        let bogus = SweepMeasurement {
            station: 9,
            azimuth: 0.0,
            elevation: 0.0,
        };
        assert!(sys.update_ekf(&mut ekf, &[bogus]).is_err());
    }

    #[test]
    fn measurements_are_noisy_but_unbiased() {
        let sys = LighthouseSystem::two_station(Aabb::paper_volume());
        let truth = Vec3::new(1.0, 1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 2000;
        let mut sum_az = 0.0;
        for _ in 0..n {
            sum_az += sys.measure(truth, &mut rng)[0].azimuth;
        }
        let mean_az = sum_az / n as f64;
        let true_az = sys.stations()[0].azimuth(truth);
        assert!((mean_az - true_az).abs() < 1e-4);
    }
}
