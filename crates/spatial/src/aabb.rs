//! Axis-aligned bounding boxes.

use std::fmt;

use crate::vec3::Vec3;

/// An axis-aligned box `[min, max]` in meters.
///
/// The paper's scan volume is a 3.74 × 3.20 × 2.10 m cuboid with a UWB anchor
/// at each of the 8 corners (§III-A); [`Aabb::corners`] yields exactly those
/// anchor positions.
///
/// # Examples
///
/// ```
/// use aerorem_spatial::{Aabb, Vec3};
///
/// let v = Aabb::new(Vec3::ZERO, Vec3::new(3.74, 3.20, 2.10)).unwrap();
/// assert_eq!(v.corners().len(), 8);
/// assert!(v.contains(v.center()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    min: Vec3,
    max: Vec3,
}

impl Aabb {
    /// Creates a box from opposite corners.
    ///
    /// Returns `None` when any component of `min` is not strictly less than
    /// the corresponding component of `max`, or when either corner is not
    /// finite.
    pub fn new(min: Vec3, max: Vec3) -> Option<Self> {
        if !min.is_finite() || !max.is_finite() {
            return None;
        }
        if min.x < max.x && min.y < max.y && min.z < max.z {
            Some(Aabb { min, max })
        } else {
            None
        }
    }

    /// The paper's demo volume: 3.74 m (x) × 3.20 m (y) × 2.10 m (z),
    /// origin at a corner.
    pub fn paper_volume() -> Self {
        Aabb {
            min: Vec3::ZERO,
            max: Vec3::new(3.74, 3.20, 2.10),
        }
    }

    /// Minimum corner.
    pub fn min(&self) -> Vec3 {
        self.min
    }

    /// Maximum corner.
    pub fn max(&self) -> Vec3 {
        self.max
    }

    /// Size along each axis.
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Geometric center.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Volume in cubic meters.
    pub fn volume(&self) -> f64 {
        let s = self.size();
        s.x * s.y * s.z
    }

    /// Whether `p` is inside (inclusive of the boundary).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// The 8 corners, in a fixed order (z-major, then y, then x).
    ///
    /// These are the anchor positions of the paper's deployment.
    pub fn corners(&self) -> [Vec3; 8] {
        let (lo, hi) = (self.min, self.max);
        [
            Vec3::new(lo.x, lo.y, lo.z),
            Vec3::new(hi.x, lo.y, lo.z),
            Vec3::new(lo.x, hi.y, lo.z),
            Vec3::new(hi.x, hi.y, lo.z),
            Vec3::new(lo.x, lo.y, hi.z),
            Vec3::new(hi.x, lo.y, hi.z),
            Vec3::new(lo.x, hi.y, hi.z),
            Vec3::new(hi.x, hi.y, hi.z),
        ]
    }

    /// Clamps a point to lie within the box.
    pub fn clamp(&self, p: Vec3) -> Vec3 {
        p.max(self.min).min(self.max)
    }

    /// Grows the box by `margin` on every side.
    ///
    /// Returns `None` if a negative margin would invert the box.
    pub fn inflated(&self, margin: f64) -> Option<Aabb> {
        Aabb::new(self.min - Vec3::splat(margin), self.max + Vec3::splat(margin))
    }

    /// The point at normalized coordinates `t ∈ [0, 1]³` within the box.
    pub fn lerp_point(&self, tx: f64, ty: f64, tz: f64) -> Vec3 {
        Vec3::new(
            self.min.x + (self.max.x - self.min.x) * tx,
            self.min.y + (self.max.y - self.min.y) * ty,
            self.min.z + (self.max.z - self.min.z) * tz,
        )
    }

    /// Whether two boxes overlap (inclusive).
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.size();
        write!(
            f,
            "[{:.2} x {:.2} x {:.2} m at {}]",
            s.x, s.y, s.z, self.min
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Aabb::new(Vec3::ZERO, Vec3::splat(1.0)).is_some());
        assert!(Aabb::new(Vec3::splat(1.0), Vec3::ZERO).is_none());
        assert!(Aabb::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 1.0)).is_none());
        assert!(Aabb::new(Vec3::ZERO, Vec3::new(f64::NAN, 1.0, 1.0)).is_none());
    }

    #[test]
    fn paper_volume_dimensions() {
        let v = Aabb::paper_volume();
        let s = v.size();
        assert!((s.x - 3.74).abs() < 1e-12);
        assert!((s.y - 3.20).abs() < 1e-12);
        assert!((s.z - 2.10).abs() < 1e-12);
        assert!((v.volume() - 3.74 * 3.20 * 2.10).abs() < 1e-9);
    }

    #[test]
    fn contains_boundary_inclusive() {
        let v = Aabb::new(Vec3::ZERO, Vec3::splat(1.0)).unwrap();
        assert!(v.contains(Vec3::ZERO));
        assert!(v.contains(Vec3::splat(1.0)));
        assert!(v.contains(v.center()));
        assert!(!v.contains(Vec3::new(1.0001, 0.5, 0.5)));
        assert!(!v.contains(Vec3::new(0.5, -0.0001, 0.5)));
    }

    #[test]
    fn eight_distinct_corners_inside() {
        let v = Aabb::paper_volume();
        let corners = v.corners();
        for (i, a) in corners.iter().enumerate() {
            assert!(v.contains(*a));
            for b in corners.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn clamp_projects_outside_points() {
        let v = Aabb::new(Vec3::ZERO, Vec3::splat(2.0)).unwrap();
        assert_eq!(v.clamp(Vec3::new(-1.0, 1.0, 5.0)), Vec3::new(0.0, 1.0, 2.0));
        let inside = Vec3::splat(1.0);
        assert_eq!(v.clamp(inside), inside);
    }

    #[test]
    fn inflate() {
        let v = Aabb::new(Vec3::ZERO, Vec3::splat(1.0)).unwrap();
        let big = v.inflated(0.5).unwrap();
        assert_eq!(big.min(), Vec3::splat(-0.5));
        assert_eq!(big.max(), Vec3::splat(1.5));
        assert!(v.inflated(-0.6).is_none());
    }

    #[test]
    fn lerp_point_corners_and_center() {
        let v = Aabb::paper_volume();
        assert_eq!(v.lerp_point(0.0, 0.0, 0.0), v.min());
        assert_eq!(v.lerp_point(1.0, 1.0, 1.0), v.max());
        assert_eq!(v.lerp_point(0.5, 0.5, 0.5), v.center());
    }

    #[test]
    fn intersects() {
        let a = Aabb::new(Vec3::ZERO, Vec3::splat(1.0)).unwrap();
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(2.0)).unwrap();
        let c = Aabb::new(Vec3::splat(1.5), Vec3::splat(2.0)).unwrap();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching boundaries count as intersecting.
        let d = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0)).unwrap();
        assert!(a.intersects(&d));
    }

    #[test]
    fn display() {
        assert!(format!("{}", Aabb::paper_volume()).contains("3.74"));
    }
}
