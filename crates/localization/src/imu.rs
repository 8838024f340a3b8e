//! Inertial measurement unit model and IMU-aided EKF prediction.
//!
//! The Crazyflie's estimator is "fusing UWB range measurements with
//! accelerometers and rate gyroscopes" (Mueller et al., cited in §II-B).
//! At the 100 Hz ranging rate of the demo the accelerometer adds little —
//! the blind constant-velocity prediction is corrected fast enough — but at
//! *low* ranging rates (long-range TDoA, congested anchors, multi-UAV air
//! time sharing) the IMU carries the state between fixes. This module
//! provides the sensor model and the control-input prediction step; the
//! [`crate::eval`] helpers quantify the benefit.

use rand::Rng;

use aerorem_numerics::dist;
use aerorem_spatial::Vec3;

use crate::ekf::Ekf;

/// Accelerometer error model (world-frame simplification).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuConfig {
    /// 1-σ white noise per axis, m/s².
    pub accel_noise_std: f64,
    /// 1-σ of the constant per-axis bias drawn at startup, m/s².
    pub accel_bias_std: f64,
}

impl ImuConfig {
    /// BMI088-class MEMS accelerometer as flown on the Crazyflie 2.1.
    pub fn crazyflie_bmi088() -> Self {
        ImuConfig {
            accel_noise_std: 0.08,
            accel_bias_std: 0.05,
        }
    }
}

impl Default for ImuConfig {
    fn default() -> Self {
        Self::crazyflie_bmi088()
    }
}

/// A simulated accelerometer with a frozen startup bias.
///
/// # Examples
///
/// ```
/// use aerorem_localization::imu::{Imu, ImuConfig};
/// use aerorem_spatial::Vec3;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let imu = Imu::new(ImuConfig::crazyflie_bmi088(), &mut rng);
/// let m = imu.measure(Vec3::ZERO, &mut rng);
/// assert!(m.norm() < 1.0, "noise + bias stay small: {m}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Imu {
    config: ImuConfig,
    bias: Vec3,
}

impl Imu {
    /// Powers the sensor up, drawing its constant bias.
    pub fn new<R: Rng + ?Sized>(config: ImuConfig, rng: &mut R) -> Self {
        let bias = Vec3::new(
            dist::normal(rng, 0.0, config.accel_bias_std),
            dist::normal(rng, 0.0, config.accel_bias_std),
            dist::normal(rng, 0.0, config.accel_bias_std),
        );
        Imu { config, bias }
    }

    /// The configured error model.
    pub fn config(&self) -> ImuConfig {
        self.config
    }

    /// One accelerometer reading for the given true (gravity-compensated)
    /// acceleration.
    pub fn measure<R: Rng + ?Sized>(&self, true_accel: Vec3, rng: &mut R) -> Vec3 {
        true_accel
            + self.bias
            + Vec3::new(
                dist::normal(rng, 0.0, self.config.accel_noise_std),
                dist::normal(rng, 0.0, self.config.accel_noise_std),
                dist::normal(rng, 0.0, self.config.accel_noise_std),
            )
    }
}

impl Ekf {
    /// Control-input prediction: propagates the state using a measured
    /// acceleration instead of the blind constant-velocity assumption.
    /// The residual process noise should be the IMU's error level
    /// (noise + bias allowance), far below the blind filter's maneuvering
    /// allowance — that is where the accuracy at low ranging rates comes
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative/not finite or `residual_accel_noise` is
    /// not positive.
    pub fn predict_with_accel(&mut self, dt: f64, accel: Vec3, residual_accel_noise: f64) {
        assert!(dt >= 0.0 && dt.is_finite(), "dt must be non-negative");
        assert!(
            residual_accel_noise > 0.0 && residual_accel_noise.is_finite(),
            "residual noise must be positive"
        );
        if dt == 0.0 {
            return;
        }
        // Deterministic control input first…
        self.apply_accel_input(dt, accel);
        // …then the covariance propagation of a CV model whose process
        // noise is only the IMU residual.
        self.propagate_covariance(dt, residual_accel_noise);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchors::AnchorConstellation;
    use crate::ranging::{RangingConfig, RangingMode};
    use aerorem_spatial::Aabb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn imu_bias_is_frozen_noise_is_not() {
        let mut rng = StdRng::seed_from_u64(7);
        let imu = Imu::new(ImuConfig::crazyflie_bmi088(), &mut rng);
        let a = imu.measure(Vec3::ZERO, &mut rng);
        let b = imu.measure(Vec3::ZERO, &mut rng);
        assert_ne!(a, b, "white noise varies");
        // Averaging many readings recovers the frozen bias.
        let mean = (0..5000)
            .map(|_| imu.measure(Vec3::ZERO, &mut rng))
            .fold(Vec3::ZERO, |acc, m| acc + m)
            / 5000.0;
        assert!(mean.norm() < 3.0 * ImuConfig::crazyflie_bmi088().accel_bias_std + 0.02);
    }

    #[test]
    fn accel_prediction_tracks_maneuver_between_fixes() {
        // A vehicle accelerating at 1 m/s² with ranging only every 0.5 s:
        // the IMU-aided filter coasts through the gap far better.
        let anchors = AnchorConstellation::volume_corners(Aabb::paper_volume());
        let cfg = RangingConfig::lps_default(RangingMode::Twr);
        let var = cfg.noise_std_m * cfg.noise_std_m;
        let mut rng = StdRng::seed_from_u64(42);
        let imu = Imu::new(ImuConfig::crazyflie_bmi088(), &mut rng);

        let accel = Vec3::new(1.0, -0.6, 0.2);
        let dt = 0.01;
        let run = |use_imu: bool, rng: &mut StdRng| -> f64 {
            let mut truth_pos = Vec3::new(0.5, 2.5, 0.5);
            let mut truth_vel = Vec3::ZERO;
            let mut ekf = Ekf::new(truth_pos, 1.0);
            let mut worst: f64 = 0.0;
            for step in 0..300 {
                truth_vel += accel * dt;
                truth_pos += truth_vel * dt;
                if use_imu {
                    let meas = imu.measure(accel, rng);
                    ekf.predict_with_accel(dt, meas, 0.15);
                } else {
                    ekf.predict(dt);
                }
                // A fix only every 50 steps (0.5 s).
                if step % 50 == 0 {
                    let meas = cfg.measure(&anchors, truth_pos, rng);
                    let _ = ekf.update_ranging(&anchors, &meas, var);
                }
                if step > 100 {
                    worst = worst.max(ekf.position().distance(truth_pos));
                }
            }
            worst
        };
        let blind = run(false, &mut rng);
        let aided = run(true, &mut rng);
        assert!(
            aided < blind * 0.6,
            "IMU aiding should cut the coasting error: aided {aided} vs blind {blind}"
        );
        assert!(aided < 0.25, "aided worst-case error {aided} m");
    }

    #[test]
    fn zero_dt_is_noop() {
        let mut ekf = Ekf::new(Vec3::splat(1.0), 1.0);
        let before = ekf.position();
        ekf.predict_with_accel(0.0, Vec3::new(9.0, 9.0, 9.0), 0.1);
        assert_eq!(ekf.position(), before);
    }

    #[test]
    #[should_panic(expected = "residual noise")]
    fn bad_residual_noise_panics() {
        let mut ekf = Ekf::new(Vec3::ZERO, 1.0);
        ekf.predict_with_accel(0.01, Vec3::ZERO, 0.0);
    }
}
