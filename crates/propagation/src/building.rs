//! Synthetic apartment-building generator.
//!
//! The paper deployed in "a living room of an apartment in a large apartment
//! building in Antwerp" and observed (§III-A):
//!
//! * 73 distinct MAC addresses but only 49 SSIDs (shared names);
//! * mean RSS around −73 dBm;
//! * "the positive x-axis and negative y-axis point towards the center of
//!   the apartment building where we can expect to see more signals";
//! * "a wall segment that is 40 cm wider where UAV B's measurements are
//!   taken".
//!
//! [`SyntheticBuilding`] reproduces that setting: APs are scattered around a
//! building core offset toward +x/−y from the scan volume, apartment
//! partition walls and concrete floor slabs attenuate distant links, the
//! room has brick walls with one extra-thick masonry segment on the +y side,
//! and SSIDs are reused across part of the fleet.

use rand::Rng;

use aerorem_numerics::dist;
use aerorem_spatial::{Aabb, Vec3};

use crate::ap::{AccessPoint, MacAddress, Ssid};
use crate::channel::WifiChannel;
use crate::environment::{RadioEnvironment, RadioEnvironmentBuilder};
use crate::fading::FadingModel;
use crate::pathloss::PathLossModel;
use crate::shadowing::ShadowingField;
use crate::walls::{Material, Wall};

/// Parameters of the synthetic building surrounding the scan volume.
///
/// # Examples
///
/// ```
/// use aerorem_propagation::building::SyntheticBuilding;
/// use aerorem_spatial::Aabb;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2206);
/// let env = SyntheticBuilding::paper_like().generate(Aabb::paper_volume(), &mut rng);
/// assert_eq!(env.access_points().len(), 73);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticBuilding {
    /// Number of access points (the paper saw 73 MACs).
    pub n_aps: usize,
    /// Number of distinct SSIDs (the paper saw 49).
    pub n_ssids: usize,
    /// Offset of the building core from the volume center, meters. The
    /// paper's core lies toward +x/−y.
    pub core_offset: Vec3,
    /// Gaussian spread (std dev per axis) of AP positions around the core.
    pub core_spread: Vec3,
    /// Fraction of APs belonging to the *adjacent apartments* right next to
    /// the scan room (also toward +x/−y): full-power routers, solidly
    /// audible everywhere in the room.
    pub adjacent_fraction: f64,
    /// Offset of the adjacent-apartment cluster from the volume center.
    pub adjacent_offset: Vec3,
    /// Gaussian spread of the adjacent-apartment cluster.
    pub adjacent_spread: Vec3,
    /// Fraction of APs that are *weak nearby devices* — range extenders,
    /// IoT bridges, printers, hotspots with poor antennas in the adjacent
    /// apartments. Their RSS at the room sits right at the detection edge,
    /// and because they are close (3–8 m), crossing the 3.7 m room swings
    /// their RSS by 5–10 dB. They produce both of the paper's §III-A count
    /// effects: the +x/−y gradient (Figures 6–7) and the population of MACs
    /// with fewer than 16 samples that preprocessing drops.
    pub weak_fraction: f64,
    /// Offset of the weak-device cluster from the volume center.
    pub weak_offset: Vec3,
    /// Gaussian spread of the weak-device cluster.
    pub weak_spread: Vec3,
    /// Transmit power range of the weak devices in dBm (well below router
    /// class).
    pub weak_tx_power_dbm: (f64, f64),
    /// Vertical extent of the building relative to the volume floor.
    pub z_range: (f64, f64),
    /// AP transmit power range in dBm.
    pub tx_power_dbm: (f64, f64),
    /// Probability mass on each of the primary channels 1/6/11 (the
    /// remainder spreads uniformly over the other ten channels).
    pub primary_channel_weight: f64,
    /// Large-scale path-loss model.
    pub pathloss: PathLossModel,
    /// Shadowing standard deviation (dB) and correlation distance (m).
    pub shadowing: (f64, f64),
    /// Fast-fading model.
    pub fading: FadingModel,
    /// Receiver noise floor in dBm.
    pub noise_floor_dbm: f64,
    /// Spacing of apartment partition walls in meters.
    pub partition_spacing_m: f64,
    /// Horizontal extent of the building (half-width) in meters.
    pub building_half_extent_m: f64,
    /// Ceiling height between floor slabs in meters.
    pub floor_height_m: f64,
}

impl SyntheticBuilding {
    /// A configuration calibrated to reproduce the paper's environment
    /// statistics (sample counts, detected-AP counts, mean RSS ≈ −73 dBm).
    pub fn paper_like() -> Self {
        SyntheticBuilding {
            n_aps: 73,
            n_ssids: 49,
            core_offset: Vec3::new(8.0, -9.0, 0.0),
            core_spread: Vec3::new(7.0, 6.0, 4.0),
            adjacent_fraction: 0.20,
            adjacent_offset: Vec3::new(4.0, -4.5, -0.8),
            adjacent_spread: Vec3::new(3.0, 2.6, 2.4),
            weak_fraction: 0.48,
            weak_offset: Vec3::new(2.0, -2.6, -0.4),
            weak_spread: Vec3::new(2.2, 2.0, 1.8),
            weak_tx_power_dbm: (-28.0, -13.0),
            z_range: (-7.0, 9.0),
            tx_power_dbm: (15.0, 21.0),
            primary_channel_weight: 0.25,
            pathloss: PathLossModel::LogDistance {
                d0_m: 1.0,
                pl0_db: None,
                exponent: 3.1,
            },
            shadowing: (3.2, 2.0),
            fading: FadingModel::rayleigh(),
            noise_floor_dbm: -95.0,
            partition_spacing_m: 5.5,
            building_half_extent_m: 40.0,
            floor_height_m: 2.7,
        }
    }

    /// Generates the full [`RadioEnvironment`] for the given scan volume.
    ///
    /// The RNG drives AP placement and radio parameters; the shadowing field
    /// seed is also drawn from it, so one seed reproduces the entire world.
    ///
    /// # Panics
    ///
    /// Panics if `n_ssids == 0` or `n_aps == 0`.
    pub fn generate<R: Rng + ?Sized>(&self, volume: Aabb, rng: &mut R) -> RadioEnvironment {
        assert!(self.n_aps > 0, "need at least one access point");
        assert!(self.n_ssids > 0, "need at least one SSID");
        let core = volume.center() + self.core_offset;

        // --- SSID pool: realistic-looking names, some shared. ---
        let ssids: Vec<Ssid> = (0..self.n_ssids)
            .map(|i| Ssid::new(ssid_name(i, rng)))
            .collect();

        // --- Access points. ---
        let mut aps = Vec::with_capacity(self.n_aps);
        let adjacent = volume.center() + self.adjacent_offset;
        let weak_center = volume.center() + self.weak_offset;
        let n_adjacent = (self.adjacent_fraction * self.n_aps as f64) as usize;
        let n_weak = (self.weak_fraction * self.n_aps as f64) as usize;
        for i in 0..self.n_aps {
            // Deterministic split of the fleet into the three populations:
            // adjacent routers, weak near devices, and the building core.
            let (center, spread, tx_range) = if i < n_adjacent {
                (adjacent, self.adjacent_spread, self.tx_power_dbm)
            } else if i < n_adjacent + n_weak {
                (weak_center, self.weak_spread, self.weak_tx_power_dbm)
            } else {
                (core, self.core_spread, self.tx_power_dbm)
            };
            let position = Vec3::new(
                dist::normal(rng, center.x, spread.x),
                dist::normal(rng, center.y, spread.y),
                dist::normal(rng, center.z, spread.z).clamp(self.z_range.0, self.z_range.1),
            );
            // First `n_ssids` APs take unique names; the rest reuse one.
            let ssid = if i < self.n_ssids {
                ssids[i].clone()
            } else {
                ssids[rng.gen_range(0..self.n_ssids)].clone()
            };
            let channel = self.pick_channel(rng);
            let tx = dist::uniform(rng, tx_range.0, tx_range.1);
            aps.push(AccessPoint::new(
                MacAddress::from_index(i as u32 + 1),
                ssid,
                channel,
                tx,
                position,
            ));
        }

        // --- Walls. ---
        let mut walls = self.room_walls(volume);
        walls.extend(self.partition_walls(volume));
        walls.extend(self.floor_slabs(volume));

        let (sigma, corr) = self.shadowing;
        RadioEnvironmentBuilder::new()
            .access_points(aps)
            .walls(walls)
            .pathloss(self.pathloss)
            .shadowing(ShadowingField::new(sigma, corr, rng.gen()))
            .fading(self.fading)
            .noise_floor_dbm(self.noise_floor_dbm)
            .build()
    }

    fn pick_channel<R: Rng + ?Sized>(&self, rng: &mut R) -> WifiChannel {
        let w = self.primary_channel_weight.clamp(0.0, 1.0 / 3.0);
        let u: f64 = rng.gen();
        if u < w {
            WifiChannel::new(1).expect("valid") // lint:allow(panic-reach) — 1 is a compile-time-valid 2.4 GHz channel number
        } else if u < 2.0 * w {
            WifiChannel::new(6).expect("valid") // lint:allow(panic-reach) — 6 is a compile-time-valid 2.4 GHz channel number
        } else if u < 3.0 * w {
            WifiChannel::new(11).expect("valid") // lint:allow(panic-reach) — 11 is a compile-time-valid 2.4 GHz channel number
        } else {
            // Uniform over the ten non-primary channels.
            let others: Vec<u8> = (1..=13).filter(|n| ![1, 6, 11].contains(n)).collect();
            let idx = rng.gen_range(0..others.len());
            WifiChannel::new(others[idx]).expect("valid") // lint:allow(panic-reach) — others holds channels 2..=13 minus the primaries, all valid; idx is gen_range-bounded
        }
    }

    /// The room's own walls: brick all around, except an extra-thick masonry
    /// segment on the +y side — the paper's "40 cm wider" wall near UAV B's
    /// region.
    fn room_walls(&self, volume: Aabb) -> Vec<Wall> {
        let lo = volume.min() - Vec3::splat(0.3);
        let hi = volume.max() + Vec3::splat(0.3);
        let z0 = lo.z;
        let z1 = hi.z;
        let t = 0.10; // standard wall thickness
        let t_thick = t + 0.40; // the 40 cm wider segment
        let mk = |min: Vec3, max: Vec3, m: Material, label: &str| {
            Wall::from_material(Aabb::new(min, max).expect("wall geometry"), m, label) // lint:allow(panic-reach) — every caller passes max = min + positive wall thickness
        };
        vec![
            mk(
                Vec3::new(lo.x - t, lo.y, z0),
                Vec3::new(lo.x, hi.y, z1),
                Material::Brick,
                "room wall -x",
            ),
            mk(
                Vec3::new(hi.x, lo.y, z0),
                Vec3::new(hi.x + t, hi.y, z1),
                Material::Brick,
                "room wall +x",
            ),
            mk(
                Vec3::new(lo.x, lo.y - t, z0),
                Vec3::new(hi.x, lo.y, z1),
                Material::Brick,
                "room wall -y",
            ),
            // UAV B's side: thicker and lossier.
            mk(
                Vec3::new(lo.x, hi.y, z0),
                Vec3::new(hi.x, hi.y + t_thick, z1),
                Material::ThickMasonry,
                "room wall +y (40 cm wider)",
            ),
        ]
    }

    /// Apartment partition walls on a regular grid across the building,
    /// skipping any slab that would cut through the scan room itself.
    fn partition_walls(&self, volume: Aabb) -> Vec<Wall> {
        let mut walls = Vec::new();
        let ext = self.building_half_extent_m;
        let room = volume.inflated(1.0).expect("inflate"); // lint:allow(panic-reach) — inflating a valid Aabb by a positive margin keeps min < max
        let center = volume.center();
        let (z0, z1) = (self.z_range.0 - 1.0, self.z_range.1 + 1.0);
        let n = (2.0 * ext / self.partition_spacing_m) as i32;
        for i in -n / 2..=n / 2 {
            let x = center.x + i as f64 * self.partition_spacing_m;
            let slab = Aabb::new(
                Vec3::new(x - 0.05, center.y - ext, z0),
                Vec3::new(x + 0.05, center.y + ext, z1),
            )
            .expect("slab"); // lint:allow(panic-reach) — extents are ±0.05/±ext/z0<z1 around a center: min < max on every axis
            if !slab.intersects(&room) {
                walls.push(Wall::from_material(
                    slab,
                    Material::Drywall,
                    format!("partition x={x:.1}"),
                ));
            }
            let y = center.y + i as f64 * self.partition_spacing_m;
            let slab = Aabb::new(
                Vec3::new(center.x - ext, y - 0.05, z0),
                Vec3::new(center.x + ext, y + 0.05, z1),
            )
            .expect("slab"); // lint:allow(panic-reach) — extents are ±ext/±0.05/z0<z1 around a center: min < max on every axis
            if !slab.intersects(&room) {
                walls.push(Wall::from_material(
                    slab,
                    Material::Drywall,
                    format!("partition y={y:.1}"),
                ));
            }
        }
        walls
    }

    /// Reinforced-concrete floor slabs above and below the scan volume.
    fn floor_slabs(&self, volume: Aabb) -> Vec<Wall> {
        let mut slabs = Vec::new();
        let ext = self.building_half_extent_m;
        let center = volume.center();
        let h = self.floor_height_m;
        // The room spans z ∈ [volume.min.z, volume.max.z]; the slab under it
        // sits just below, and further slabs every `h` meters up and down.
        let mut k = -3i32;
        while f64::from(k) * h < self.z_range.1 {
            let z = volume.min().z - 0.35 + f64::from(k) * h;
            // Skip any slab that would intrude into the scan volume.
            if z + 0.25 < volume.min().z || z > volume.max().z {
                slabs.push(Wall::from_material(
                    Aabb::new(
                        Vec3::new(center.x - ext, center.y - ext, z),
                        Vec3::new(center.x + ext, center.y + ext, z + 0.25),
                    )
                    .expect("floor slab"), // lint:allow(panic-reach) — the slab spans ±ext around the center and 0.25 m of height: min < max on every axis
                    Material::ConcreteFloor,
                    format!("floor slab z={z:.1}"),
                ));
            }
            k += 1;
        }
        slabs
    }
}

impl Default for SyntheticBuilding {
    fn default() -> Self {
        Self::paper_like()
    }
}

/// Generates a plausible residential SSID.
fn ssid_name<R: Rng + ?Sized>(i: usize, rng: &mut R) -> String {
    const STEMS: [&str; 12] = [
        "telenet", "Proximus", "HomeNet", "WiFi", "linksys", "AndroidAP", "Orange", "NETGEAR",
        "FRITZ!Box", "dlink", "VOO", "Ziggo",
    ];
    let stem = STEMS[i % STEMS.len()];
    let suffix: u32 = rng.gen_range(0..100_000);
    format!("{stem}-{suffix:05}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn build() -> RadioEnvironment {
        let mut rng = StdRng::seed_from_u64(0xB11D);
        SyntheticBuilding::paper_like().generate(Aabb::paper_volume(), &mut rng)
    }

    #[test]
    fn counts_match_paper() {
        let env = build();
        assert_eq!(env.access_points().len(), 73);
        let ssids: BTreeSet<&str> = env
            .access_points()
            .iter()
            .map(|a| a.ssid.as_str())
            .collect();
        assert!(ssids.len() <= 49, "at most 49 distinct SSIDs, got {}", ssids.len());
        assert!(ssids.len() >= 40, "most SSIDs distinct, got {}", ssids.len());
        let macs: BTreeSet<_> = env.access_points().iter().map(|a| a.mac).collect();
        assert_eq!(macs.len(), 73, "MACs must be unique");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let cfg = SyntheticBuilding::paper_like();
        let env_a = cfg.generate(Aabb::paper_volume(), &mut a);
        let env_b = cfg.generate(Aabb::paper_volume(), &mut b);
        assert_eq!(env_a.access_points(), env_b.access_points());
        assert_eq!(env_a.walls().len(), env_b.walls().len());
    }

    #[test]
    fn ap_density_skews_toward_core() {
        let env = build();
        let c = Aabb::paper_volume().center();
        let toward = env
            .access_points()
            .iter()
            .filter(|a| a.position.x > c.x && a.position.y < c.y)
            .count();
        let away = env
            .access_points()
            .iter()
            .filter(|a| a.position.x < c.x && a.position.y > c.y)
            .count();
        assert!(
            toward > 2 * away.max(1),
            "core quadrant {toward} vs opposite {away}"
        );
    }

    #[test]
    fn no_wall_or_slab_intersects_scan_volume() {
        let env = build();
        let v = Aabb::paper_volume();
        for w in env.walls() {
            assert!(
                !w.slab.intersects(&v),
                "wall {:?} cuts the scan volume",
                w.label
            );
        }
    }

    #[test]
    fn thick_wall_sits_on_positive_y_side() {
        let env = build();
        let thick = env
            .walls()
            .iter()
            .find(|w| w.label.contains("40 cm"))
            .expect("thick wall present");
        assert!(thick.slab.min().y >= Aabb::paper_volume().max().y);
        assert!(thick.attenuation_db >= Material::ThickMasonry.attenuation_db());
        let thickness = thick.slab.size().y;
        assert!((thickness - 0.5).abs() < 1e-9, "0.1 + 0.4 m thick, got {thickness}");
    }

    #[test]
    fn mean_detected_rss_in_paper_range() {
        // The mean RSS of *audible* APs at the volume center should be in
        // the paper's ballpark (−73 dBm ± a handful).
        let env = build();
        let c = Aabb::paper_volume().center();
        let audible: Vec<f64> = env
            .access_points()
            .iter()
            .map(|a| env.mean_rss(a, c))
            .filter(|&r| r > -92.0)
            .collect();
        assert!(
            audible.len() >= 25,
            "expect a few dozen audible APs, got {}",
            audible.len()
        );
        let mean = audible.iter().sum::<f64>() / audible.len() as f64;
        assert!(
            (-80.0..=-64.0).contains(&mean),
            "mean audible RSS {mean} dBm out of range"
        );
    }

    #[test]
    fn rss_gradient_points_toward_core() {
        // Mean audible-AP RSS mass should grow toward +x/−y. Average over
        // several probe points per corner and several generated worlds so
        // one shadowing realization cannot flip the sign.
        let v = Aabb::paper_volume();
        let mut toward = 0.0;
        let mut away = 0.0;
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(0xB11D + seed);
            let env = SyntheticBuilding::paper_like().generate(v, &mut rng);
            let count_at = |p: Vec3| -> f64 {
                env.access_points()
                    .iter()
                    .filter(|a| env.mean_rss(a, p) > -91.0)
                    .count() as f64
            };
            for &tz in &[0.25, 0.5, 0.75] {
                for &off in &[0.0, 0.12] {
                    toward += count_at(v.lerp_point(0.9 - off, 0.1 + off, tz));
                    away += count_at(v.lerp_point(0.1 + off, 0.9 - off, tz));
                }
            }
        }
        assert!(
            toward > away,
            "audible APs toward core {toward} <= away {away}"
        );
    }

    #[test]
    fn channels_cover_primaries() {
        let env = build();
        let chans: BTreeSet<u8> = env
            .access_points()
            .iter()
            .map(|a| a.channel.number())
            .collect();
        for primary in [1u8, 6, 11] {
            assert!(chans.contains(&primary), "missing channel {primary}");
        }
    }

    #[test]
    fn tx_power_within_bounds() {
        let cfg = SyntheticBuilding::paper_like();
        let env = build();
        for ap in env.access_points() {
            let router = (cfg.tx_power_dbm.0..=cfg.tx_power_dbm.1).contains(&ap.tx_power_dbm);
            let weak = (cfg.weak_tx_power_dbm.0..=cfg.weak_tx_power_dbm.1)
                .contains(&ap.tx_power_dbm);
            assert!(router || weak, "tx {} outside both bands", ap.tx_power_dbm);
        }
    }

    #[test]
    fn floor_slabs_above_and_below() {
        let env = build();
        let v = Aabb::paper_volume();
        let above = env
            .walls()
            .iter()
            .filter(|w| w.label.contains("floor") && w.slab.min().z > v.max().z)
            .count();
        let below = env
            .walls()
            .iter()
            .filter(|w| w.label.contains("floor") && w.slab.max().z < v.min().z)
            .count();
        assert!(above >= 2, "floors above: {above}");
        assert!(below >= 2, "floors below: {below}");
    }
}
