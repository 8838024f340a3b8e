//! The composed radio environment: APs + walls + propagation models.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use aerorem_spatial::Vec3;
use rand::Rng;

use crate::ap::{AccessPoint, MacAddress};
use crate::fading::FadingModel;
use crate::pathloss::PathLossModel;
use crate::shadowing::ShadowingField;
use crate::walls::{total_wall_loss_db, Wall};

/// Cache key: the AP identity plus the exact bit patterns of the query
/// position. Keying on bits (not approximate values) means a hit can only
/// ever return the exact `f64` a fresh computation would produce — the
/// cache is invisible to every downstream consumer.
type LinkKey = (MacAddress, [u64; 3]);

/// Memoizes the deterministic large-scale link budget
/// (pathloss + wall losses + shadowing) per `(AP, position)`.
///
/// Campaign scans revisit the same waypoint for every beacon of every AP,
/// so the same wall-intersection walk is otherwise recomputed dozens of
/// times per waypoint. The environment is immutable after
/// [`RadioEnvironmentBuilder::build`], so entries never need invalidation.
///
/// Disabled by default; cloning or deserializing an environment yields a
/// fresh, cold, disabled cache (the cache is transparent state, not data).
#[derive(Debug, Default)]
struct LinkCache {
    enabled: AtomicBool,
    map: Mutex<BTreeMap<LinkKey, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LinkCache {
    fn lookup(&self, key: &LinkKey) -> Option<f64> {
        let hit = self.map.lock().expect("link cache lock").get(key).copied();
        match hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn insert(&self, key: LinkKey, value: f64) {
        self.map.lock().expect("link cache lock").insert(key, value);
    }
}

impl Clone for LinkCache {
    fn clone(&self) -> Self {
        // A clone starts cold and disabled: cached values are a pure
        // function of the (immutable) environment, so nothing is lost, and
        // counters describe one environment's usage only.
        LinkCache::default()
    }
}

/// A static indoor radio environment: the ground truth the UAVs sample and
/// the ML layer tries to reconstruct.
///
/// The large-scale RSS surface ([`RadioEnvironment::mean_rss`]) is
/// deterministic: path loss + wall losses + the frozen correlated shadowing
/// field. Per-beacon randomness (fast fading) is added by
/// [`RadioEnvironment::sample_rss`].
///
/// # Examples
///
/// ```
/// use aerorem_propagation::environment::RadioEnvironmentBuilder;
/// use aerorem_propagation::{AccessPoint, MacAddress, WifiChannel};
/// use aerorem_spatial::Vec3;
///
/// let env = RadioEnvironmentBuilder::new()
///     .access_point(AccessPoint::new(
///         MacAddress::from_index(1),
///         "TestNet".into(),
///         WifiChannel::new(6).unwrap(),
///         17.0,
///         Vec3::new(10.0, 0.0, 2.0),
///     ))
///     .build();
/// let near = env.mean_rss(&env.access_points()[0], Vec3::new(9.0, 0.0, 2.0));
/// let far = env.mean_rss(&env.access_points()[0], Vec3::new(0.0, 0.0, 2.0));
/// assert!(near > far);
/// ```
#[derive(Debug, Clone)]
pub struct RadioEnvironment {
    aps: Vec<AccessPoint>,
    walls: Vec<Wall>,
    pathloss: PathLossModel,
    shadowing: ShadowingField,
    fading: FadingModel,
    noise_floor_dbm: f64,
    link_cache: LinkCache,
}

impl RadioEnvironment {
    /// Starts building an environment.
    pub fn builder() -> RadioEnvironmentBuilder {
        RadioEnvironmentBuilder::new()
    }

    /// All access points in the environment.
    pub fn access_points(&self) -> &[AccessPoint] {
        &self.aps
    }

    /// Finds an AP by MAC address.
    pub fn access_point(&self, mac: MacAddress) -> Option<&AccessPoint> {
        self.aps.iter().find(|a| a.mac == mac)
    }

    /// All attenuating walls.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// The receiver thermal noise floor in dBm.
    pub fn noise_floor_dbm(&self) -> f64 {
        self.noise_floor_dbm
    }

    /// The configured path-loss model.
    pub fn pathloss(&self) -> PathLossModel {
        self.pathloss
    }

    /// The frozen shadowing field.
    pub fn shadowing(&self) -> ShadowingField {
        self.shadowing
    }

    /// The per-beacon fading model.
    pub fn fading(&self) -> FadingModel {
        self.fading
    }

    /// Deterministic large-scale RSS of `ap` at `pos`, in dBm:
    /// `tx − pathloss(d) − Σ wall losses + shadowing(ap, pos)`.
    ///
    /// With the link cache enabled (see
    /// [`RadioEnvironment::set_link_cache_enabled`]) the value is memoized
    /// per `(AP, position)`; a cached result is the bit-exact `f64` a fresh
    /// computation would return, because the environment is immutable and
    /// the key is the position's exact bit pattern.
    pub fn mean_rss(&self, ap: &AccessPoint, pos: Vec3) -> f64 {
        if !self.link_cache.enabled.load(Ordering::Relaxed) {
            return self.compute_mean_rss(ap, pos);
        }
        let key = (ap.mac, [pos.x.to_bits(), pos.y.to_bits(), pos.z.to_bits()]);
        if let Some(v) = self.link_cache.lookup(&key) {
            return v;
        }
        let v = self.compute_mean_rss(ap, pos);
        self.link_cache.insert(key, v);
        v
    }

    /// The uncached link-budget computation behind [`RadioEnvironment::mean_rss`].
    fn compute_mean_rss(&self, ap: &AccessPoint, pos: Vec3) -> f64 {
        let d = ap.position.distance(pos);
        let pl = self.pathloss.loss_db(d, ap.channel.center_mhz());
        let wl = total_wall_loss_db(&self.walls, ap.position, pos);
        let sh = self.shadowing.sample(mac_seed(ap.mac), pos);
        ap.tx_power_dbm - pl - wl + sh
    }

    /// Turns the per-`(AP, position)` link cache on or off.
    ///
    /// Enabling is safe at any point: the environment is immutable, so a
    /// cached entry can never go stale. Disabling stops lookups but keeps
    /// existing entries and counters.
    pub fn set_link_cache_enabled(&self, enabled: bool) {
        self.link_cache.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the link cache is currently consulted by
    /// [`RadioEnvironment::mean_rss`].
    pub fn link_cache_enabled(&self) -> bool {
        self.link_cache.enabled.load(Ordering::Relaxed)
    }

    /// Lifetime `(hits, misses)` of the link cache (both zero while it has
    /// never been enabled).
    pub fn link_cache_stats(&self) -> (u64, u64) {
        (
            self.link_cache.hits.load(Ordering::Relaxed),
            self.link_cache.misses.load(Ordering::Relaxed),
        )
    }

    /// One received-beacon RSS sample: the large-scale mean plus a fast
    /// fading draw.
    pub fn sample_rss<R: Rng + ?Sized>(&self, ap: &AccessPoint, pos: Vec3, rng: &mut R) -> f64 {
        self.mean_rss(ap, pos) + self.fading.sample_db(rng)
    }
}

/// Derives the per-AP shadowing seed from its MAC.
pub(crate) fn mac_seed(mac: MacAddress) -> u64 {
    let o = mac.octets();
    u64::from_be_bytes([0, 0, o[0], o[1], o[2], o[3], o[4], o[5]])
}

/// Builder for [`RadioEnvironment`].
#[derive(Debug, Clone)]
pub struct RadioEnvironmentBuilder {
    aps: Vec<AccessPoint>,
    walls: Vec<Wall>,
    pathloss: PathLossModel,
    shadowing: ShadowingField,
    fading: FadingModel,
    noise_floor_dbm: f64,
}

impl RadioEnvironmentBuilder {
    /// Creates a builder with sensible indoor defaults: log-distance
    /// exponent 3, 4 dB shadowing with 2 m correlation, Rayleigh fading,
    /// −95 dBm noise floor, no APs, no walls.
    pub fn new() -> Self {
        RadioEnvironmentBuilder {
            aps: Vec::new(),
            walls: Vec::new(),
            pathloss: PathLossModel::log_distance_indoor(),
            shadowing: ShadowingField::new(4.0, 2.0, 0xAE20),
            fading: FadingModel::rayleigh(),
            noise_floor_dbm: -95.0,
        }
    }

    /// Adds one access point.
    pub fn access_point(mut self, ap: AccessPoint) -> Self {
        self.aps.push(ap);
        self
    }

    /// Adds many access points.
    pub fn access_points(mut self, aps: impl IntoIterator<Item = AccessPoint>) -> Self {
        self.aps.extend(aps);
        self
    }

    /// Adds one wall.
    pub fn wall(mut self, wall: Wall) -> Self {
        self.walls.push(wall);
        self
    }

    /// Adds many walls.
    pub fn walls(mut self, walls: impl IntoIterator<Item = Wall>) -> Self {
        self.walls.extend(walls);
        self
    }

    /// Sets the path-loss model.
    pub fn pathloss(mut self, model: PathLossModel) -> Self {
        self.pathloss = model;
        self
    }

    /// Sets the shadowing field.
    pub fn shadowing(mut self, field: ShadowingField) -> Self {
        self.shadowing = field;
        self
    }

    /// Sets the fast-fading model.
    pub fn fading(mut self, model: FadingModel) -> Self {
        self.fading = model;
        self
    }

    /// Sets the receiver noise floor in dBm.
    ///
    /// # Panics
    ///
    /// Panics if `dbm` is not finite or non-negative (noise floors are
    /// negative dBm values like −95).
    pub fn noise_floor_dbm(mut self, dbm: f64) -> Self {
        assert!(dbm.is_finite() && dbm < 0.0, "noise floor must be negative dBm");
        self.noise_floor_dbm = dbm;
        self
    }

    /// Finalizes the environment.
    pub fn build(self) -> RadioEnvironment {
        RadioEnvironment {
            aps: self.aps,
            walls: self.walls,
            pathloss: self.pathloss,
            shadowing: self.shadowing,
            fading: self.fading,
            noise_floor_dbm: self.noise_floor_dbm,
            link_cache: LinkCache::default(),
        }
    }
}

impl Default for RadioEnvironmentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::WifiChannel;
    use crate::walls::Material;
    use aerorem_spatial::Aabb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn one_ap_env() -> RadioEnvironment {
        RadioEnvironment::builder()
            .access_point(AccessPoint::new(
                MacAddress::from_index(1),
                "Net".into(),
                WifiChannel::new(6).unwrap(),
                17.0,
                Vec3::new(12.0, 0.0, 1.5),
            ))
            .build()
    }

    #[test]
    fn rss_decreases_with_distance_on_average() {
        let env = one_ap_env();
        let ap = &env.access_points()[0];
        // Average over several points to wash out shadowing.
        let avg = |x: f64| -> f64 {
            (0..20)
                .map(|i| env.mean_rss(ap, Vec3::new(x, i as f64 * 3.0, 1.5)))
                .sum::<f64>()
                / 20.0
        };
        assert!(avg(10.0) > avg(0.0) + 3.0);
    }

    #[test]
    fn mean_rss_is_deterministic() {
        let env = one_ap_env();
        let ap = &env.access_points()[0];
        let p = Vec3::new(1.0, 2.0, 1.0);
        assert_eq!(env.mean_rss(ap, p), env.mean_rss(ap, p));
    }

    #[test]
    fn wall_between_reduces_rss() {
        let wall = Wall::from_material(
            Aabb::new(Vec3::new(6.0, -50.0, -5.0), Vec3::new(6.2, 50.0, 8.0)).unwrap(),
            Material::ThickMasonry,
            "partition",
        );
        let base = one_ap_env();
        let walled = RadioEnvironment::builder()
            .access_point(base.access_points()[0].clone())
            .wall(wall)
            .build();
        let ap = &base.access_points()[0];
        let p = Vec3::new(0.0, 0.0, 1.5); // AP at x=12, wall at x=6: crossed
        let diff = base.mean_rss(ap, p) - walled.mean_rss(ap, p);
        assert!((diff - 10.0).abs() < 1e-9, "wall should cost 10 dB, got {diff}");
    }

    #[test]
    fn sampling_adds_fading_spread() {
        let env = one_ap_env();
        let ap = &env.access_points()[0];
        let p = Vec3::new(1.0, 1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..500).map(|_| env.sample_rss(ap, p, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let spread = samples
            .iter()
            .map(|s| (s - mean).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(spread > 0.0, "fading must vary samples");
        // Median of samples stays near the large-scale mean.
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!((median - env.mean_rss(ap, p)).abs() < 2.0);
    }

    #[test]
    fn lookup_by_mac() {
        let env = one_ap_env();
        let mac = MacAddress::from_index(1);
        assert!(env.access_point(mac).is_some());
        assert!(env.access_point(MacAddress::from_index(999)).is_none());
    }

    #[test]
    fn builder_defaults() {
        let env = RadioEnvironment::builder().build();
        assert_eq!(env.noise_floor_dbm(), -95.0);
        assert!(env.access_points().is_empty());
        assert!(env.walls().is_empty());
    }

    #[test]
    #[should_panic(expected = "negative dBm")]
    fn positive_noise_floor_rejected() {
        RadioEnvironment::builder().noise_floor_dbm(10.0);
    }

    #[test]
    fn link_cache_returns_bit_identical_values() {
        let env = one_ap_env();
        let ap = &env.access_points()[0];
        let positions: Vec<Vec3> = (0..30)
            .map(|i| Vec3::new((i % 6) as f64 * 1.7, (i / 6) as f64 * 2.3, 1.5))
            .collect();
        let uncached: Vec<f64> = positions.iter().map(|&p| env.mean_rss(ap, p)).collect();
        assert_eq!(env.link_cache_stats(), (0, 0), "disabled cache counts nothing");

        env.set_link_cache_enabled(true);
        let first: Vec<f64> = positions.iter().map(|&p| env.mean_rss(ap, p)).collect();
        let second: Vec<f64> = positions.iter().map(|&p| env.mean_rss(ap, p)).collect();
        assert_eq!(uncached, first, "cold pass matches uncached bits");
        assert_eq!(uncached, second, "warm pass matches uncached bits");
        let (hits, misses) = env.link_cache_stats();
        assert_eq!(misses, positions.len() as u64);
        assert_eq!(hits, positions.len() as u64);
    }

    #[test]
    fn link_cache_keys_on_ap_and_exact_position() {
        let env = RadioEnvironment::builder()
            .access_points([
                AccessPoint::new(
                    MacAddress::from_index(1),
                    "A".into(),
                    WifiChannel::new(1).unwrap(),
                    17.0,
                    Vec3::new(12.0, 0.0, 1.5),
                ),
                AccessPoint::new(
                    MacAddress::from_index(2),
                    "B".into(),
                    WifiChannel::new(11).unwrap(),
                    14.0,
                    Vec3::new(-3.0, 8.0, 2.5),
                ),
            ])
            .build();
        env.set_link_cache_enabled(true);
        let p = Vec3::new(1.0, 2.0, 1.0);
        let a = env.mean_rss(&env.access_points()[0], p);
        let b = env.mean_rss(&env.access_points()[1], p);
        assert_ne!(a, b, "two APs at one position must not collide in the cache");
        // A nearby-but-not-identical position is a distinct key, not a hit.
        let (hits_before, _) = env.link_cache_stats();
        env.mean_rss(&env.access_points()[0], Vec3::new(1.0 + 1e-12, 2.0, 1.0));
        let (hits_after, _) = env.link_cache_stats();
        assert_eq!(hits_before, hits_after);
    }

    #[test]
    fn cloned_environment_starts_with_a_cold_disabled_cache() {
        let env = one_ap_env();
        env.set_link_cache_enabled(true);
        env.mean_rss(&env.access_points()[0], Vec3::new(0.5, 0.5, 1.5));
        let cloned = env.clone();
        assert!(!cloned.link_cache_enabled());
        assert_eq!(cloned.link_cache_stats(), (0, 0));
        // And the clone still computes the same values.
        let p = Vec3::new(2.0, 3.0, 1.5);
        assert_eq!(
            env.mean_rss(&env.access_points()[0], p),
            cloned.mean_rss(&cloned.access_points()[0], p)
        );
    }

    #[test]
    fn mac_seed_distinct() {
        assert_ne!(
            mac_seed(MacAddress::from_index(1)),
            mac_seed(MacAddress::from_index(2))
        );
    }
}
