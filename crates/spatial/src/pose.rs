//! Attitude (roll/pitch/yaw) and pose (position + yaw).

use std::fmt;

use crate::vec3::Vec3;

/// Vehicle attitude as roll, pitch, yaw Euler angles in radians.
///
/// §II-C of the paper: when no setpoint is received for over 500 ms, the UAV
/// "will set its attitude angles (pitch, roll and yaw) to 0 in order to keep
/// itself stabilized" — i.e. it levels out to [`Attitude::LEVEL`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Attitude {
    /// Roll about the body x axis (radians).
    pub roll: f64,
    /// Pitch about the body y axis (radians).
    pub pitch: f64,
    /// Yaw about the body z axis (radians).
    pub yaw: f64,
}

impl Attitude {
    /// Level flight: all angles zero.
    pub const LEVEL: Attitude = Attitude {
        roll: 0.0,
        pitch: 0.0,
        yaw: 0.0,
    };

    /// Creates an attitude from roll, pitch, yaw in radians.
    pub const fn new(roll: f64, pitch: f64, yaw: f64) -> Self {
        Attitude { roll, pitch, yaw }
    }

    /// The tilt magnitude `sqrt(roll² + pitch²)`, a scalar measure of how far
    /// the vehicle is from level.
    pub fn tilt(self) -> f64 {
        (self.roll * self.roll + self.pitch * self.pitch).sqrt()
    }

    /// Whether the vehicle is within `tol` radians of level (yaw ignored).
    pub fn is_level(self, tol: f64) -> bool {
        self.roll.abs() <= tol && self.pitch.abs() <= tol
    }
}

impl fmt::Display for Attitude {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rpy({:.1}°, {:.1}°, {:.1}°)",
            self.roll.to_degrees(),
            self.pitch.to_degrees(),
            self.yaw.to_degrees()
        )
    }
}

/// A position plus heading, the unit the base station sends as a waypoint:
/// the paper's client configures per-UAV "starting position and yaw" (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// Position in the volume frame (meters).
    pub position: Vec3,
    /// Heading in radians.
    pub yaw: f64,
}

impl Pose {
    /// Creates a pose from a position and yaw.
    pub const fn new(position: Vec3, yaw: f64) -> Self {
        Pose { position, yaw }
    }

    /// A pose at the given position with zero yaw.
    pub const fn at(position: Vec3) -> Self {
        Pose {
            position,
            yaw: 0.0,
        }
    }

    /// Euclidean distance between the positions of two poses.
    pub fn distance(self, other: Pose) -> f64 {
        self.position.distance(other.position)
    }

    /// Absolute yaw difference wrapped to `[0, π]`.
    pub fn yaw_error(self, other: Pose) -> f64 {
        let mut d = (self.yaw - other.yaw).rem_euclid(std::f64::consts::TAU);
        if d > std::f64::consts::PI {
            d = std::f64::consts::TAU - d;
        }
        d
    }
}

impl fmt::Display for Pose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} yaw {:.1}°", self.position, self.yaw.to_degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    #[test]
    fn level_attitude() {
        assert_eq!(Attitude::LEVEL.tilt(), 0.0);
        assert!(Attitude::LEVEL.is_level(1e-9));
        let tilted = Attitude::new(0.3, 0.4, 1.0);
        assert!((tilted.tilt() - 0.5).abs() < 1e-12);
        assert!(!tilted.is_level(0.1));
        // Yaw does not affect levelness.
        assert!(Attitude::new(0.0, 0.0, 2.0).is_level(1e-9));
    }

    #[test]
    fn pose_distance() {
        let a = Pose::at(Vec3::ZERO);
        let b = Pose::at(Vec3::new(0.0, 3.0, 4.0));
        assert_eq!(a.distance(b), 5.0);
    }

    #[test]
    fn yaw_error_wraps() {
        let a = Pose::new(Vec3::ZERO, 0.1);
        let b = Pose::new(Vec3::ZERO, TAU - 0.1);
        assert!((a.yaw_error(b) - 0.2).abs() < 1e-12);
        let c = Pose::new(Vec3::ZERO, PI + FRAC_PI_2);
        let d = Pose::new(Vec3::ZERO, 0.0);
        assert!((c.yaw_error(d) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn displays() {
        assert!(format!("{}", Attitude::new(0.1, 0.2, 0.3)).contains("rpy"));
        assert!(format!("{}", Pose::at(Vec3::X)).contains("yaw"));
    }
}
