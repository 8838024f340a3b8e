//! Walls and floors as attenuating slabs (the multi-wall model geometry).
//!
//! Each [`Wall`] is an axis-aligned slab with a per-traversal attenuation in
//! dB. The total wall loss of a link is the sum of attenuations of every
//! slab the straight-line ray crosses — the COST-231 multi-wall idea. The
//! paper's environment remarks on "a wall segment that is 40 cm wider where
//! UAV B's measurements are taken" (§III-A); [`crate::building`] encodes it
//! as a thicker, lossier slab on that side of the room.

use aerorem_spatial::{Aabb, Vec3};

/// A material preset for walls and floors, carrying a typical 2.4 GHz
/// per-traversal attenuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Material {
    /// Plasterboard / drywall partition (~3 dB).
    Drywall,
    /// Single brick wall (~6 dB).
    Brick,
    /// Load-bearing or double-width masonry (~10 dB).
    ThickMasonry,
    /// Reinforced concrete floor slab (~13 dB).
    ConcreteFloor,
    /// Glass window / door (~2 dB).
    Glass,
}

impl Material {
    /// Typical attenuation per traversal in dB at 2.4 GHz.
    pub fn attenuation_db(self) -> f64 {
        match self {
            Material::Drywall => 3.0,
            Material::Brick => 6.0,
            Material::ThickMasonry => 10.0,
            Material::ConcreteFloor => 13.0,
            Material::Glass => 2.0,
        }
    }
}

/// An attenuating axis-aligned slab.
#[derive(Debug, Clone, PartialEq)]
pub struct Wall {
    /// The slab's extent.
    pub slab: Aabb,
    /// Attenuation applied once per ray traversal, in dB.
    pub attenuation_db: f64,
    /// Descriptive label, e.g. `"west wall"`.
    pub label: String,
}

impl Wall {
    /// Creates a wall from an extent and a material preset.
    pub fn from_material(slab: Aabb, material: Material, label: impl Into<String>) -> Self {
        Wall {
            slab,
            attenuation_db: material.attenuation_db(),
            label: label.into(),
        }
    }

    /// Whether the segment `a → b` passes through this slab.
    ///
    /// Uses the slab method for segment–AABB intersection; touching the
    /// boundary counts as crossing.
    pub fn intersects_segment(&self, a: Vec3, b: Vec3) -> bool {
        segment_intersects_aabb(a, b, &self.slab)
    }
}

/// Whether segment `a → b` intersects the box (inclusive boundary).
pub fn segment_intersects_aabb(a: Vec3, b: Vec3, aabb: &Aabb) -> bool {
    let dir = b - a;
    let mut t_min = 0.0f64;
    let mut t_max = 1.0f64;
    let lo = aabb.min();
    let hi = aabb.max();
    for axis in 0..3 {
        let (o, d, lo_a, hi_a) = match axis {
            0 => (a.x, dir.x, lo.x, hi.x),
            1 => (a.y, dir.y, lo.y, hi.y),
            _ => (a.z, dir.z, lo.z, hi.z),
        };
        if d.abs() < 1e-12 {
            // Parallel to the slab on this axis: must already be inside it.
            if o < lo_a || o > hi_a {
                return false;
            }
        } else {
            let inv = 1.0 / d;
            let (t1, t2) = ((lo_a - o) * inv, (hi_a - o) * inv);
            let (t1, t2) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            t_min = t_min.max(t1);
            t_max = t_max.min(t2);
            if t_min > t_max {
                return false;
            }
        }
    }
    true
}

/// Sums the attenuation of every wall the `a → b` ray traverses.
pub fn total_wall_loss_db(walls: &[Wall], a: Vec3, b: Vec3) -> f64 {
    walls
        .iter()
        .filter(|w| w.intersects_segment(a, b))
        .map(|w| w.attenuation_db)
        .sum()
}

/// Counts how many walls the `a → b` ray traverses.
pub fn wall_crossings(walls: &[Wall], a: Vec3, b: Vec3) -> usize {
    walls.iter().filter(|w| w.intersects_segment(a, b)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab_x(at: f64, thickness: f64) -> Aabb {
        Aabb::new(
            Vec3::new(at, -10.0, -10.0),
            Vec3::new(at + thickness, 10.0, 10.0),
        )
        .expect("valid slab")
    }

    #[test]
    fn segment_through_slab_detected() {
        let w = Wall::from_material(slab_x(1.0, 0.2), Material::Brick, "wall");
        assert!(w.intersects_segment(Vec3::ZERO, Vec3::new(3.0, 0.0, 0.0)));
        assert!(!w.intersects_segment(Vec3::ZERO, Vec3::new(0.9, 0.0, 0.0)));
        // Reversed direction also intersects.
        assert!(w.intersects_segment(Vec3::new(3.0, 0.0, 0.0), Vec3::ZERO));
    }

    #[test]
    fn segment_parallel_outside_misses() {
        let w = Wall::from_material(slab_x(1.0, 0.2), Material::Brick, "wall");
        // Runs parallel to the slab plane, beyond its y extent.
        assert!(!w.intersects_segment(Vec3::new(1.1, 20.0, 0.0), Vec3::new(1.1, 30.0, 0.0)));
        // Parallel but inside the slab.
        assert!(w.intersects_segment(Vec3::new(1.1, -1.0, 0.0), Vec3::new(1.1, 1.0, 0.0)));
    }

    #[test]
    fn segment_endpoint_inside_counts() {
        let w = Wall::from_material(slab_x(1.0, 0.5), Material::Drywall, "wall");
        assert!(w.intersects_segment(Vec3::new(1.2, 0.0, 0.0), Vec3::new(5.0, 0.0, 0.0)));
    }

    #[test]
    fn diagonal_segment() {
        let w = Wall::from_material(slab_x(1.0, 0.1), Material::Glass, "window");
        assert!(w.intersects_segment(Vec3::new(0.0, -5.0, -5.0), Vec3::new(2.0, 5.0, 5.0)));
        // A diagonal that passes around the slab's y-extent.
        let w_small = Wall {
            slab: Aabb::new(Vec3::new(1.0, -1.0, -1.0), Vec3::new(1.1, 1.0, 1.0)).unwrap(),
            attenuation_db: 3.0,
            label: "small".into(),
        };
        assert!(!w_small.intersects_segment(Vec3::new(0.0, 5.0, 0.0), Vec3::new(2.0, 5.1, 0.0)));
    }

    #[test]
    fn total_loss_sums_crossed_walls() {
        let walls = vec![
            Wall::from_material(slab_x(1.0, 0.1), Material::Brick, "w1"),
            Wall::from_material(slab_x(2.0, 0.1), Material::Drywall, "w2"),
            Wall::from_material(slab_x(50.0, 0.1), Material::Brick, "far"),
        ];
        let loss = total_wall_loss_db(&walls, Vec3::ZERO, Vec3::new(3.0, 0.0, 0.0));
        assert_eq!(loss, 9.0);
        assert_eq!(wall_crossings(&walls, Vec3::ZERO, Vec3::new(3.0, 0.0, 0.0)), 2);
        assert_eq!(total_wall_loss_db(&walls, Vec3::ZERO, Vec3::new(0.5, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn material_attenuations_ordered() {
        assert!(Material::Glass.attenuation_db() < Material::Drywall.attenuation_db());
        assert!(Material::Drywall.attenuation_db() < Material::Brick.attenuation_db());
        assert!(Material::Brick.attenuation_db() < Material::ThickMasonry.attenuation_db());
        assert!(Material::ThickMasonry.attenuation_db() < Material::ConcreteFloor.attenuation_db());
    }

    #[test]
    fn degenerate_segment_inside_slab() {
        let w = Wall::from_material(slab_x(1.0, 0.5), Material::Brick, "wall");
        let p = Vec3::new(1.2, 0.0, 0.0);
        assert!(w.intersects_segment(p, p));
        let outside = Vec3::new(9.0, 0.0, 0.0);
        assert!(!w.intersects_segment(outside, outside));
    }
}
