//! Location-annotated samples and the dataset they accumulate into.
//!
//! Each detected AP per scan yields one [`Sample`]: the paper's
//! `⟨ssid, rssi, mac, channel⟩` tuple annotated with the UAV's *estimated*
//! position (that is the whole point of the UWB system) and collection
//! metadata. The ground-truth position is carried alongside for simulation-
//! side error analysis, but the ML layer never sees it.

use std::collections::{BTreeMap, BTreeSet};

use aerorem_numerics::stats::Histogram;
use aerorem_propagation::ap::{MacAddress, Ssid};
use aerorem_propagation::WifiChannel;
use aerorem_simkit::SimTime;
use aerorem_spatial::Vec3;
use aerorem_uav::UavId;

/// One location-annotated signal-quality sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Which UAV collected it.
    pub uav: UavId,
    /// Index of the waypoint in that UAV's leg.
    pub waypoint_index: usize,
    /// The UAV's own position estimate at scan time — the location
    /// annotation used downstream.
    pub position: Vec3,
    /// Simulation ground truth, for localization-error analysis only.
    pub true_position: Vec3,
    /// Advertised network name.
    pub ssid: Ssid,
    /// Transmitter MAC — the grouping key for the ML layer.
    pub mac: MacAddress,
    /// Channel the AP was heard on.
    pub channel: WifiChannel,
    /// Reported RSS in whole dBm.
    pub rssi_dbm: i32,
    /// When the sample was taken.
    pub timestamp: SimTime,
}

/// A collection of samples with the summary statistics the paper reports.
///
/// # Examples
///
/// ```
/// use aerorem_mission::SampleSet;
///
/// let set = SampleSet::new();
/// assert!(set.is_empty());
/// assert_eq!(set.mean_rssi_dbm(), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSet {
    samples: Vec<Sample>,
}

impl SampleSet {
    /// An empty set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: SampleSet) {
        self.samples.extend(other.samples);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples, in collection order.
    pub fn as_slice(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterates over the samples.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Samples collected by one UAV.
    pub fn by_uav(&self, uav: UavId) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.uav == uav)
    }

    /// Count per UAV, ordered by UAV id — "1495 by UAV A and 1201 by UAV B".
    pub fn counts_per_uav(&self) -> BTreeMap<UavId, usize> {
        let mut m = BTreeMap::new();
        for s in &self.samples {
            *m.entry(s.uav).or_insert(0) += 1;
        }
        m
    }

    /// Count per (UAV, waypoint) — the quantity of Figure 6.
    pub fn counts_per_location(&self) -> BTreeMap<(UavId, usize), usize> {
        let mut m = BTreeMap::new();
        for s in &self.samples {
            *m.entry((s.uav, s.waypoint_index)).or_insert(0) += 1;
        }
        m
    }

    /// Number of distinct MAC addresses (the paper saw 73).
    pub fn distinct_macs(&self) -> usize {
        self.samples
            .iter()
            .map(|s| s.mac)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Number of distinct SSIDs (the paper saw 49).
    pub fn distinct_ssids(&self) -> usize {
        self.samples
            .iter()
            .map(|s| s.ssid.clone())
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Mean reported RSS in dBm (the paper: ≈ −73 dBm), or `None` if empty.
    pub fn mean_rssi_dbm(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(
            self.samples.iter().map(|s| f64::from(s.rssi_dbm)).sum::<f64>()
                / self.samples.len() as f64,
        )
    }

    /// Per-MAC sample counts (preprocessing drops MACs below 16).
    pub fn counts_per_mac(&self) -> BTreeMap<MacAddress, usize> {
        let mut m = BTreeMap::new();
        for s in &self.samples {
            *m.entry(s.mac).or_insert(0) += 1;
        }
        m
    }

    /// Histogram of sample counts along one axis in bins of `width` meters —
    /// the Figure-7 plot. `axis` is 0 = x, 1 = y, 2 = z.
    ///
    /// Returns `None` when the set is empty, the axis invalid, or the width
    /// non-positive.
    pub fn axis_histogram(&self, axis: usize, width: f64) -> Option<Histogram> {
        if self.samples.is_empty() || axis > 2 {
            return None;
        }
        let coord = |s: &Sample| match axis {
            0 => s.position.x,
            1 => s.position.y,
            _ => s.position.z,
        };
        let lo = self
            .samples
            .iter()
            .map(coord)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .samples
            .iter()
            .map(coord)
            .fold(f64::NEG_INFINITY, f64::max);
        // Center bins on multiples of the width: waypoint columns land in
        // the middle of a bin instead of splitting across an edge under
        // centimeter-level annotation noise.
        let lo = (lo / width).floor() * width - width / 2.0;
        let hi = (hi / width).ceil() * width + width / 2.0 + 1e-9;
        let mut h = Histogram::new(lo, hi, width)?;
        h.extend(self.samples.iter().map(coord));
        Some(h)
    }

    /// Mean localization error of the annotations (truth vs estimate).
    pub fn mean_annotation_error_m(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(
            self.samples
                .iter()
                .map(|s| s.position.distance(s.true_position))
                .sum::<f64>()
                / self.samples.len() as f64,
        )
    }
}

impl FromIterator<Sample> for SampleSet {
    fn from_iter<I: IntoIterator<Item = Sample>>(iter: I) -> Self {
        SampleSet {
            samples: iter.into_iter().collect(),
        }
    }
}

impl Extend<Sample> for SampleSet {
    fn extend<I: IntoIterator<Item = Sample>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

impl<'a> IntoIterator for &'a SampleSet {
    type Item = &'a Sample;
    type IntoIter = std::slice::Iter<'a, Sample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(uav: u8, wp: usize, mac: u32, rssi: i32, pos: Vec3) -> Sample {
        Sample {
            uav: UavId(uav),
            waypoint_index: wp,
            position: pos,
            true_position: pos + Vec3::splat(0.05),
            ssid: Ssid::new(format!("net{mac}")),
            mac: MacAddress::from_index(mac),
            channel: WifiChannel::new(6).unwrap(),
            rssi_dbm: rssi,
            timestamp: SimTime::from_secs(1),
        }
    }

    #[test]
    fn stats_on_small_set() {
        let mut set = SampleSet::new();
        set.push(sample(0, 0, 1, -70, Vec3::new(0.2, 0.2, 1.0)));
        set.push(sample(0, 1, 1, -74, Vec3::new(0.8, 0.2, 1.0)));
        set.push(sample(1, 0, 2, -76, Vec3::new(2.2, 3.0, 1.0)));
        assert_eq!(set.len(), 3);
        assert_eq!(set.counts_per_uav()[&UavId(0)], 2);
        assert_eq!(set.counts_per_uav()[&UavId(1)], 1);
        assert_eq!(set.distinct_macs(), 2);
        assert_eq!(set.distinct_ssids(), 2);
        assert_eq!(set.mean_rssi_dbm(), Some(-220.0 / 3.0));
        assert_eq!(set.counts_per_mac()[&MacAddress::from_index(1)], 2);
        assert_eq!(set.counts_per_location()[&(UavId(0), 1)], 1);
        let err = set.mean_annotation_error_m().unwrap();
        assert!((err - 0.05 * 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_set_stats() {
        let set = SampleSet::new();
        assert_eq!(set.mean_rssi_dbm(), None);
        assert_eq!(set.mean_annotation_error_m(), None);
        assert!(set.axis_histogram(0, 0.5).is_none());
        assert!(set.counts_per_uav().is_empty());
    }

    #[test]
    fn axis_histogram_bins() {
        let mut set = SampleSet::new();
        for i in 0..10 {
            set.push(sample(0, i, 1, -70, Vec3::new(i as f64 * 0.3, 0.0, 1.0)));
        }
        let h = set.axis_histogram(0, 0.5).unwrap();
        assert_eq!(h.total(), 10);
        assert_eq!(h.outliers(), 0);
        // x from 0 to 2.7 → 6 bins of 0.5.
        assert!(h.counts().len() >= 6);
        assert!(set.axis_histogram(5, 0.5).is_none());
    }

    #[test]
    fn merge_and_collect() {
        let a: SampleSet = (0..5)
            .map(|i| sample(0, i, 1, -70, Vec3::splat(i as f64)))
            .collect();
        let b: SampleSet = (0..3)
            .map(|i| sample(1, i, 2, -80, Vec3::splat(i as f64)))
            .collect();
        let mut merged = a.clone();
        merged.merge(b);
        assert_eq!(merged.len(), 8);
        assert_eq!(merged.by_uav(UavId(1)).count(), 3);
        let mut extended = SampleSet::new();
        extended.extend(a.iter().cloned());
        assert_eq!(extended.len(), 5);
        assert_eq!((&merged).into_iter().count(), 8);
    }
}
