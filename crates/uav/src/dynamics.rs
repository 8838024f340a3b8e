//! Point-mass quadrotor dynamics with a velocity-limited position
//! controller.
//!
//! The Crazyflie's cascaded PID stack is abstracted to what the mission
//! layer observes: the vehicle flies toward its commanded position with
//! bounded speed and acceleration, holds position with centimeter-level
//! jitter, levels out when uncontrolled (drifting slowly), and falls when
//! shut down.

use rand::Rng;

use aerorem_numerics::dist;
use aerorem_spatial::{Attitude, Vec3};

/// Physical/controller limits of the airframe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsConfig {
    /// Maximum horizontal/vertical speed, m/s.
    pub max_speed: f64,
    /// Maximum acceleration, m/s².
    pub max_accel: f64,
    /// Position-controller proportional gain, 1/s.
    pub kp: f64,
    /// Velocity damping gain, 1/s.
    pub kd: f64,
    /// 1-σ hover jitter driving acceleration, m/s².
    pub jitter_accel: f64,
    /// 1-σ drift acceleration while stabilizing without control, m/s².
    pub uncontrolled_drift_accel: f64,
    /// Maximum yaw slew rate, rad/s.
    pub max_yaw_rate: f64,
}

impl DynamicsConfig {
    /// Crazyflie-like defaults: 0.6 m/s, gentle gains, ±2 cm hover jitter.
    pub fn crazyflie() -> Self {
        DynamicsConfig {
            max_speed: 0.6,
            max_accel: 2.0,
            kp: 2.4,
            kd: 3.0,
            jitter_accel: 0.35,
            uncontrolled_drift_accel: 0.9,
            max_yaw_rate: 2.0,
        }
    }
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        Self::crazyflie()
    }
}

/// The control input applied each step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlInput {
    /// Fly toward / hold the given position.
    Position(Vec3),
    /// No setpoint: level attitude, slow drift (the 500 ms rule's outcome).
    Stabilize,
    /// Motors off: free fall until the floor.
    MotorsOff,
}

/// The simulated airframe state.
///
/// # Examples
///
/// ```
/// use aerorem_uav::dynamics::{ControlInput, DynamicsConfig, Quadrotor};
/// use aerorem_spatial::Vec3;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut q = Quadrotor::new(DynamicsConfig::crazyflie(), Vec3::ZERO);
/// for _ in 0..1000 {
///     q.step(0.01, ControlInput::Position(Vec3::new(1.0, 0.0, 1.0)), &mut rng);
/// }
/// assert!(q.position().distance(Vec3::new(1.0, 0.0, 1.0)) < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quadrotor {
    config: DynamicsConfig,
    position: Vec3,
    velocity: Vec3,
    attitude: Attitude,
    yaw_target: f64,
    floor_z: f64,
}

impl Quadrotor {
    /// Creates a stationary airframe at `position`; the floor is at the
    /// starting z.
    pub fn new(config: DynamicsConfig, position: Vec3) -> Self {
        Quadrotor {
            config,
            position,
            velocity: Vec3::ZERO,
            attitude: Attitude::LEVEL,
            yaw_target: 0.0,
            floor_z: position.z,
        }
    }

    /// Current true position.
    pub fn position(&self) -> Vec3 {
        self.position
    }

    /// Current true velocity.
    pub fn velocity(&self) -> Vec3 {
        self.velocity
    }

    /// Current attitude.
    pub fn attitude(&self) -> Attitude {
        self.attitude
    }

    /// Sets the heading the controller slews toward (the paper's client
    /// configures a per-UAV yaw, §III-A).
    pub fn set_yaw_target(&mut self, yaw: f64) {
        self.yaw_target = yaw;
    }

    /// The commanded heading.
    pub fn yaw_target(&self) -> f64 {
        self.yaw_target
    }

    /// Whether the airframe is resting on the floor.
    pub fn on_floor(&self) -> bool {
        self.position.z <= self.floor_z + 1e-6 && self.velocity.norm() < 1e-3
    }

    /// Advances the physics by `dt` seconds under the given input.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn step<R: Rng + ?Sized>(&mut self, dt: f64, input: ControlInput, rng: &mut R) {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        let accel = match input {
            ControlInput::Position(target) => {
                let err = target - self.position;
                let mut a = err * self.config.kp * self.config.kd - self.velocity * self.config.kd;
                // Hover jitter: the controller never holds perfectly still.
                a += Vec3::new(
                    dist::normal(rng, 0.0, self.config.jitter_accel),
                    dist::normal(rng, 0.0, self.config.jitter_accel),
                    dist::normal(rng, 0.0, self.config.jitter_accel),
                );
                // Attitude ∝ commanded horizontal acceleration; yaw slews
                // toward the commanded heading along the short way round.
                let yaw = slew_yaw(
                    self.attitude.yaw,
                    self.yaw_target,
                    self.config.max_yaw_rate * dt,
                );
                self.attitude = Attitude::new(a.y * 0.05, -a.x * 0.05, yaw);
                clamp_norm(a, self.config.max_accel)
            }
            ControlInput::Stabilize => {
                // §II-C: attitude angles forced to 0; the vehicle holds
                // thrust but drifts with disturbances.
                self.attitude = Attitude::new(0.0, 0.0, self.attitude.yaw);
                let drift = Vec3::new(
                    dist::normal(rng, 0.0, self.config.uncontrolled_drift_accel),
                    dist::normal(rng, 0.0, self.config.uncontrolled_drift_accel),
                    dist::normal(rng, 0.0, self.config.uncontrolled_drift_accel * 0.3),
                );
                drift - self.velocity * 0.8 // aerodynamic damping
            }
            ControlInput::MotorsOff => Vec3::new(0.0, 0.0, -9.81),
        };
        self.velocity = clamp_norm(self.velocity + accel * dt, self.config.max_speed_for(input));
        self.position += self.velocity * dt;
        // Floor collision.
        if self.position.z < self.floor_z {
            self.position.z = self.floor_z;
            self.velocity = Vec3::ZERO;
        }
    }
}

impl DynamicsConfig {
    /// Speed limit for the given input (free fall is not speed-limited by
    /// the controller).
    fn max_speed_for(&self, input: ControlInput) -> f64 {
        match input {
            ControlInput::MotorsOff => 30.0,
            _ => self.max_speed,
        }
    }
}

/// Moves `yaw` toward `target` by at most `max_step` radians, taking the
/// short way around the circle. Result stays in (−π, π].
fn slew_yaw(yaw: f64, target: f64, max_step: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    let mut err = (target - yaw).rem_euclid(TAU);
    if err > PI {
        err -= TAU;
    }
    let step = err.clamp(-max_step, max_step);
    let mut out = (yaw + step).rem_euclid(TAU);
    if out > PI {
        out -= TAU;
    }
    out
}

// Private helper used by step(); kept as a free function for testability.
fn clamp_norm(v: Vec3, max: f64) -> Vec3 {
    let n = v.norm();
    if n > max && n > 0.0 {
        v * (max / n)
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD1)
    }

    #[test]
    fn flies_to_waypoint_within_paper_budget() {
        // The mission gives 4 s to travel between waypoints ~0.7 m apart.
        let mut q = Quadrotor::new(DynamicsConfig::crazyflie(), Vec3::new(0.3, 0.4, 1.0));
        let target = Vec3::new(0.9, 0.4, 1.0);
        let mut r = rng();
        for _ in 0..400 {
            q.step(0.01, ControlInput::Position(target), &mut r);
        }
        assert!(
            q.position().distance(target) < 0.08,
            "after 4 s at {}",
            q.position()
        );
    }

    #[test]
    fn holds_position_with_small_jitter() {
        let hold = Vec3::new(1.0, 1.0, 1.0);
        let mut q = Quadrotor::new(DynamicsConfig::crazyflie(), hold);
        let mut r = rng();
        let mut max_err: f64 = 0.0;
        for _ in 0..500 {
            q.step(0.01, ControlInput::Position(hold), &mut r);
            max_err = max_err.max(q.position().distance(hold));
        }
        assert!(max_err < 0.10, "hover wander {max_err} m");
        assert!(max_err > 0.001, "jitter must exist");
    }

    #[test]
    fn speed_limited() {
        let mut q = Quadrotor::new(DynamicsConfig::crazyflie(), Vec3::ZERO);
        let far = Vec3::new(100.0, 0.0, 0.0);
        let mut r = rng();
        for _ in 0..300 {
            q.step(0.01, ControlInput::Position(far), &mut r);
            assert!(q.velocity().norm() <= 0.6 + 1e-9);
        }
        // In 3 s at ≤ 0.6 m/s the vehicle covers ≤ 1.8 m.
        assert!(q.position().x <= 1.9);
        assert!(q.position().x > 1.0, "should make real progress");
    }

    #[test]
    fn stabilize_levels_attitude_and_drifts() {
        let mut q = Quadrotor::new(DynamicsConfig::crazyflie(), Vec3::new(1.0, 1.0, 1.5));
        let mut r = rng();
        // First fly somewhere to induce nonzero attitude.
        for _ in 0..50 {
            q.step(0.01, ControlInput::Position(Vec3::new(3.0, 1.0, 1.5)), &mut r);
        }
        q.step(0.01, ControlInput::Stabilize, &mut r);
        assert!(q.attitude().is_level(1e-9), "stabilize zeroes attitude");
        let start = q.position();
        for _ in 0..600 {
            q.step(0.01, ControlInput::Stabilize, &mut r);
        }
        let drift = q.position().distance(start);
        assert!(drift > 0.005, "uncontrolled flight drifts, got {drift}");
    }

    #[test]
    fn motors_off_falls_to_floor() {
        let mut q = Quadrotor::new(DynamicsConfig::crazyflie(), Vec3::new(1.0, 1.0, 0.0));
        let mut r = rng();
        // Climb to 1.5 m.
        for _ in 0..800 {
            q.step(0.01, ControlInput::Position(Vec3::new(1.0, 1.0, 1.5)), &mut r);
        }
        assert!(q.position().z > 1.0);
        for _ in 0..400 {
            q.step(0.01, ControlInput::MotorsOff, &mut r);
        }
        assert!(q.position().z <= 1e-6, "fell to floor");
        assert!(q.on_floor());
    }

    #[test]
    fn clamp_norm_behaviour() {
        assert_eq!(clamp_norm(Vec3::new(3.0, 4.0, 0.0), 10.0), Vec3::new(3.0, 4.0, 0.0));
        let clamped = clamp_norm(Vec3::new(3.0, 4.0, 0.0), 1.0);
        assert!((clamped.norm() - 1.0).abs() < 1e-12);
        assert_eq!(clamp_norm(Vec3::ZERO, 1.0), Vec3::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_panics() {
        let mut q = Quadrotor::new(DynamicsConfig::crazyflie(), Vec3::ZERO);
        q.step(0.0, ControlInput::Stabilize, &mut rng());
    }

    #[test]
    fn yaw_slews_to_target_the_short_way() {
        let mut q = Quadrotor::new(DynamicsConfig::crazyflie(), Vec3::ZERO);
        let mut r = rng();
        // Target 170°: reachable within ~1.5 s at 2 rad/s.
        q.set_yaw_target(170f64.to_radians());
        for _ in 0..200 {
            q.step(0.01, ControlInput::Position(Vec3::ZERO), &mut r);
        }
        assert!(
            (q.attitude().yaw - 170f64.to_radians()).abs() < 0.01,
            "yaw {}",
            q.attitude().yaw.to_degrees()
        );
        // From +170° to −170°: the short way crosses ±180°, 20° total.
        q.set_yaw_target(-170f64.to_radians());
        for _ in 0..30 {
            q.step(0.01, ControlInput::Position(Vec3::ZERO), &mut r);
        }
        assert!(
            (q.attitude().yaw - -170f64.to_radians()).abs() < 0.01,
            "wrap-around yaw {}",
            q.attitude().yaw.to_degrees()
        );
    }

    #[test]
    fn slew_yaw_respects_rate_limit() {
        let stepped = slew_yaw(0.0, 1.0, 0.02);
        assert!((stepped - 0.02).abs() < 1e-12);
        // Already at target: no movement.
        assert_eq!(slew_yaw(0.5, 0.5, 0.1), 0.5);
        // Short way across the wrap.
        let w = slew_yaw(3.1, -3.1, 0.05);
        assert!(!(-3.0..=3.1).contains(&w), "wrapped step, got {w}");
    }

    #[test]
    fn attitude_tilts_during_flight() {
        let mut q = Quadrotor::new(DynamicsConfig::crazyflie(), Vec3::ZERO);
        let mut r = rng();
        q.step(0.01, ControlInput::Position(Vec3::new(5.0, 0.0, 0.0)), &mut r);
        assert!(q.attitude().tilt() > 0.0, "accelerating flight tilts");
    }
}
