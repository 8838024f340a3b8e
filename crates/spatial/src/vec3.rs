//! Double-precision 3D vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3D vector / point in meters, using the paper's axes: x along the long
/// side of the volume, y along the short side, z up.
///
/// # Examples
///
/// ```
/// use aerorem_spatial::Vec3;
///
/// let a = Vec3::new(3.0, 4.0, 0.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!(a.dot(Vec3::Z), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (meters).
    pub x: f64,
    /// Y component (meters).
    pub y: f64,
    /// Z component (meters, up).
    pub z: f64,
}

impl Vec3 {
    /// The origin / zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along x.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along z (up).
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// A vector with all components equal to `v`.
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (avoids the square root).
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Horizontal (x, y) distance to another point, ignoring z.
    pub fn horizontal_distance(self, other: Vec3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Unit vector in the same direction, or `None` for (near-)zero vectors.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    /// `t` is not clamped.
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }

    /// Component-wise minimum.
    pub fn min(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.x.min(other.x),
            y: self.y.min(other.y),
            z: self.z.min(other.z),
        }
    }

    /// Component-wise maximum.
    pub fn max(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.x.max(other.x),
            y: self.y.max(other.y),
            z: self.z.max(other.z),
        }
    }

    /// Whether every component is finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Components as an array `[x, y, z]`.
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::splat(3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn assign_ops() {
        let mut v = Vec3::X;
        v += Vec3::Y;
        v -= Vec3::X;
        assert_eq!(v, Vec3::Y);
    }

    #[test]
    fn dot_and_cross() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::X), -Vec3::Z);
        let a = Vec3::new(1.0, 2.0, 3.0);
        // a × a = 0
        assert_eq!(a.cross(a), Vec3::ZERO);
    }

    #[test]
    fn norms_and_distances() {
        let a = Vec3::new(3.0, 4.0, 12.0);
        assert_eq!(a.norm(), 13.0);
        assert_eq!(a.norm_squared(), 169.0);
        assert_eq!(a.distance(Vec3::ZERO), 13.0);
        assert_eq!(a.horizontal_distance(Vec3::ZERO), 5.0);
    }

    #[test]
    fn normalization() {
        let n = Vec3::new(0.0, 0.0, 2.0).normalized().unwrap();
        assert_eq!(n, Vec3::Z);
        assert_eq!(Vec3::ZERO.normalized(), None);
        assert_eq!(Vec3::splat(1e-13).normalized(), None);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::ZERO;
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Vec3::new(1.0, 5.0, 3.0);
        let b = Vec3::new(2.0, 4.0, 3.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 3.0));
    }

    #[test]
    fn finite_check_and_conversions() {
        assert!(Vec3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Vec3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f64::INFINITY, 0.0).is_finite());
        let v: Vec3 = [1.0, 2.0, 3.0].into();
        let a: [f64; 3] = v.into();
        assert_eq!(a, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Vec3::new(1.0, 2.5, -3.0)), "(1.000, 2.500, -3.000)");
    }
}
