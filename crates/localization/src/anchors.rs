//! UWB anchor identities and constellations.

use std::fmt;

use aerorem_spatial::{Aabb, Vec3};

/// Identifier of one localization anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnchorId(pub u8);

impl fmt::Display for AnchorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "anchor{}", self.0)
    }
}

/// One UWB anchor: a fixed, manually surveyed position.
///
/// §II-B: deployment consists of "simply positioning of the localization
/// anchors, measuring their coordinates relative to a chosen origin, and
/// initializing their automated calibration".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// The anchor's identity.
    pub id: AnchorId,
    /// Surveyed position in the volume frame (meters).
    pub position: Vec3,
}

impl fmt::Display for Anchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.id, self.position)
    }
}

/// A deployed set of anchors.
///
/// # Examples
///
/// ```
/// use aerorem_localization::AnchorConstellation;
/// use aerorem_spatial::Aabb;
///
/// let c = AnchorConstellation::volume_corners(Aabb::paper_volume());
/// assert_eq!(c.len(), 8);
/// assert!(c.supports_3d());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorConstellation {
    anchors: Vec<Anchor>,
}

impl AnchorConstellation {
    /// Minimum anchors for 3D localization (§II-B).
    pub const MIN_FOR_3D: usize = 4;
    /// Bitcraze's advised anchor count (§II-B).
    pub const ADVISED: usize = 6;

    /// Builds a constellation from explicit anchors.
    pub fn new(anchors: Vec<Anchor>) -> Self {
        AnchorConstellation { anchors }
    }

    /// The paper's deployment: one anchor at each of the volume's 8 corners.
    pub fn volume_corners(volume: Aabb) -> Self {
        let anchors = volume
            .corners()
            .iter()
            .enumerate()
            .map(|(i, &position)| Anchor {
                id: AnchorId(i as u8),
                position,
            })
            .collect();
        AnchorConstellation { anchors }
    }

    /// Keeps `n` anchors, chosen to preserve geometric diversity — used by
    /// the anchor-count ablation. For an 8-corner constellation the subset
    /// alternates between bottom and top corners so that even 4 anchors span
    /// all three axes (a pure prefix would be coplanar and ruin the z
    /// estimate).
    pub fn take(&self, n: usize) -> Self {
        const SPREAD_ORDER: [usize; 8] = [0, 7, 3, 4, 5, 2, 6, 1];
        let picked: Vec<Anchor> = if self.anchors.len() == 8 {
            SPREAD_ORDER
                .iter()
                .take(n.min(8))
                // lint:allow(slice-index) — SPREAD_ORDER holds indices 0–7 and this branch requires exactly 8 anchors
                .map(|&i| self.anchors[i])
                .collect()
        } else {
            self.anchors.iter().take(n).copied().collect()
        };
        AnchorConstellation { anchors: picked }
    }

    /// Number of anchors.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Whether the constellation is empty.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }

    /// Whether 3D localization is possible (≥ 4 anchors, §II-B).
    pub fn supports_3d(&self) -> bool {
        self.anchors.len() >= Self::MIN_FOR_3D
    }

    /// The anchors as a slice.
    pub fn as_slice(&self) -> &[Anchor] {
        &self.anchors
    }

    /// Iterates over the anchors.
    pub fn iter(&self) -> impl Iterator<Item = &Anchor> {
        self.anchors.iter()
    }

    /// Looks up an anchor by id.
    pub fn get(&self, id: AnchorId) -> Option<&Anchor> {
        self.anchors.iter().find(|a| a.id == id)
    }

    /// The geometric dilution proxy: mean pairwise anchor distance. Larger
    /// constellations around the volume yield better geometry.
    pub fn mean_baseline(&self) -> f64 {
        let n = self.anchors.len();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0u32;
        for i in 0..n {
            for j in (i + 1)..n {
                // lint:allow(slice-index) — i, j < n = anchors.len() by the loop bounds
                total += self.anchors[i]
                    .position
                    // lint:allow(slice-index) — j < n = anchors.len() by the inner loop bound
                    .distance(self.anchors[j].position);
                count += 1;
            }
        }
        total / f64::from(count)
    }
}

impl<'a> IntoIterator for &'a AnchorConstellation {
    type Item = &'a Anchor;
    type IntoIter = std::slice::Iter<'a, Anchor>;

    fn into_iter(self) -> Self::IntoIter {
        self.anchors.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_constellation() {
        let c = AnchorConstellation::volume_corners(Aabb::paper_volume());
        assert_eq!(c.len(), 8);
        assert!(!c.is_empty());
        assert!(c.supports_3d());
        // All at distinct corners.
        for (i, a) in c.iter().enumerate() {
            for b in c.as_slice().iter().skip(i + 1) {
                assert!(a.position.distance(b.position) > 1.0);
            }
        }
    }

    #[test]
    fn take_prefix() {
        let c = AnchorConstellation::volume_corners(Aabb::paper_volume());
        let four = c.take(4);
        assert_eq!(four.len(), 4);
        assert!(four.supports_3d());
        assert!(!c.take(3).supports_3d());
        assert_eq!(c.take(100).len(), 8);
    }

    #[test]
    fn take_four_spans_all_axes() {
        let c = AnchorConstellation::volume_corners(Aabb::paper_volume()).take(4);
        let span = |f: fn(&Anchor) -> f64| {
            let vals: Vec<f64> = c.iter().map(f).collect();
            vals.iter().cloned().fold(f64::MIN, f64::max)
                - vals.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(span(|a| a.position.x) > 1.0, "x span");
        assert!(span(|a| a.position.y) > 1.0, "y span");
        assert!(span(|a| a.position.z) > 1.0, "z span");
    }

    #[test]
    fn take_is_duplicate_free() {
        let c = AnchorConstellation::volume_corners(Aabb::paper_volume());
        for n in 1..=8 {
            let sub = c.take(n);
            assert_eq!(sub.len(), n);
            let mut ids: Vec<u8> = sub.iter().map(|a| a.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n);
        }
    }

    #[test]
    fn lookup_by_id() {
        let c = AnchorConstellation::volume_corners(Aabb::paper_volume());
        assert!(c.get(AnchorId(0)).is_some());
        assert!(c.get(AnchorId(42)).is_none());
    }

    #[test]
    fn mean_baseline_positive_and_monotone() {
        let c = AnchorConstellation::volume_corners(Aabb::paper_volume());
        assert!(c.mean_baseline() > 2.0);
        assert_eq!(c.take(1).mean_baseline(), 0.0);
        assert_eq!(c.take(0).mean_baseline(), 0.0);
    }

    #[test]
    fn displays() {
        let c = AnchorConstellation::volume_corners(Aabb::paper_volume());
        let a = c.as_slice()[0];
        assert!(a.to_string().contains("anchor0"));
    }

    #[test]
    fn iteration() {
        let c = AnchorConstellation::volume_corners(Aabb::paper_volume());
        assert_eq!((&c).into_iter().count(), 8);
    }
}
