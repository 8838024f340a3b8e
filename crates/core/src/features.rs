//! Paper-faithful preprocessing: samples → feature matrix.
//!
//! §III-B, step by step:
//!
//! * "Since SSIDs can be shared between devices, they were generally not
//!   used. Instead, RSS readings were grouped based on their MAC addresses."
//! * "The timestamps were left out of consideration as well."
//! * "MAC addresses with less than 16 samples were dropped."
//! * "MAC and channel features were considered as categorical and one-hot
//!   encoded."
//!
//! The output feature row is `[x, y, z, one-hot MAC…, one-hot channel…]`;
//! [`FeatureLayout`] records the block boundaries so downstream models can
//! target the MAC block (mean-per-MAC baseline, per-MAC ensemble, the ×3
//! scaling trick).

use std::collections::BTreeMap;

use aerorem_mission::{Sample, SampleSet};
use aerorem_ml::dataset::Dataset;
use aerorem_ml::preprocess::OneHotEncoder;
use aerorem_ml::MlError;
use aerorem_propagation::ap::MacAddress;
use aerorem_spatial::Vec3;

use crate::exec::{self, ExecPolicy};

/// Preprocessing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreprocessConfig {
    /// Minimum samples a MAC needs to be retained (paper: 16).
    pub min_samples_per_mac: usize,
}

impl PreprocessConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        PreprocessConfig {
            min_samples_per_mac: 16,
        }
    }
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Where each feature block lives in a row.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureLayout {
    mac_encoder: OneHotEncoder<MacAddress>,
    channel_encoder: OneHotEncoder<u8>,
    /// Most common beacon channel per retained MAC — needed to encode
    /// queries for arbitrary positions.
    mac_channels: BTreeMap<MacAddress, u8>,
}

impl FeatureLayout {
    /// Total feature dimension.
    pub fn dim(&self) -> usize {
        3 + self.mac_encoder.width() + self.channel_encoder.width()
    }

    /// Index range of the coordinate block (always `0..3`).
    pub fn coord_range(&self) -> std::ops::Range<usize> {
        0..3
    }

    /// Index range of the one-hot MAC block.
    pub fn mac_range(&self) -> std::ops::Range<usize> {
        3..3 + self.mac_encoder.width()
    }

    /// Index range of the one-hot channel block.
    pub fn channel_range(&self) -> std::ops::Range<usize> {
        let start = 3 + self.mac_encoder.width();
        start..start + self.channel_encoder.width()
    }

    /// The retained MACs in column order.
    pub fn macs(&self) -> Vec<MacAddress> {
        self.mac_encoder.categories().into_iter().copied().collect()
    }

    /// Whether a MAC survived preprocessing.
    pub fn contains_mac(&self, mac: MacAddress) -> bool {
        self.mac_encoder.column(&mac).is_some()
    }

    /// The per-feature scale vector implementing the paper's "one-hot
    /// values multiplied by the factor of `f`" trick: 1.0 everywhere except
    /// the MAC block.
    pub fn mac_scale_vector(&self, factor: f64) -> Vec<f64> {
        let mut v = vec![1.0; self.dim()];
        for i in self.mac_range() {
            v[i] = factor;
        }
        v
    }

    /// Encodes a feature row for a position/MAC query (channel taken from
    /// the MAC's observed beacon channel).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for a MAC that was dropped
    /// or never seen.
    pub fn encode_query(&self, position: Vec3, mac: MacAddress) -> Result<Vec<f64>, MlError> {
        let mut row = Vec::with_capacity(self.dim());
        self.encode_query_into(position, mac, &mut row)?;
        Ok(row)
    }

    /// Appends the encoded query row onto `out` without allocating — the
    /// building block for batch-encoding lattices into a
    /// [`aerorem_ml::FeatureMatrix`] via `push_row_with`. Appends exactly
    /// [`FeatureLayout::dim`] values on success and nothing on error.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for a MAC that was dropped
    /// or never seen.
    pub fn encode_query_into(
        &self,
        position: Vec3,
        mac: MacAddress,
        out: &mut Vec<f64>,
    ) -> Result<(), MlError> {
        if !self.contains_mac(mac) {
            return Err(MlError::InvalidHyperparameter {
                name: "mac",
                reason: "MAC was dropped in preprocessing or never observed",
            });
        }
        let ch = *self
            .mac_channels
            .get(&mac)
            .expect("every encoded MAC has a channel"); // lint:allow(panic-reach) — contains_mac() returned above, and fit() inserts a channel for every MAC it keeps
        out.extend([position.x, position.y, position.z]);
        // Presence was checked above and the channel encoder covers every
        // observed channel, so both encodings are Known; an Unknown would
        // still zero-fill and keep the row aligned.
        let mac_enc = self.mac_encoder.encode_into(&mac, out);
        debug_assert!(mac_enc.is_known(), "presence checked above");
        let ch_enc = self.channel_encoder.encode_into(&ch, out);
        debug_assert!(ch_enc.is_known(), "channel encoder covers observed channels");
        Ok(())
    }
}

/// What preprocessing kept and dropped — the paper reports "2565 retained
/// samples (131 dropped)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreprocessReport {
    /// Samples in the raw set.
    pub total_samples: usize,
    /// Samples surviving the MAC filter.
    pub retained_samples: usize,
    /// Samples dropped with rare MACs.
    pub dropped_samples: usize,
    /// Distinct MACs before filtering.
    pub total_macs: usize,
    /// MACs retained.
    pub retained_macs: usize,
}

/// Runs the paper's preprocessing over a sample set under the default
/// [`ExecPolicy`].
///
/// Returns the feature dataset, the layout, and the retention report.
///
/// # Errors
///
/// Returns [`MlError::EmptyTrainingSet`] when nothing survives the filter.
pub fn preprocess(
    samples: &SampleSet,
    config: &PreprocessConfig,
) -> Result<(Dataset, FeatureLayout, PreprocessReport), MlError> {
    preprocess_with(samples, config, ExecPolicy::default())
}

/// [`preprocess`] with an explicit execution policy.
///
/// Each step is one pass over the samples: the MAC filter finds each kept
/// sample's MAC column by a binary search in the retained MACs, one vote
/// table (MAC column × channel column) picks each MAC's dominant channel,
/// and each feature row is written into one zeroed allocation. Only the
/// row encoding, whose allocations cost the most, fans out under `policy`.
/// Its chunks are reassembled in input order, so serial and parallel runs
/// produce identical datasets and layouts.
///
/// # Errors
///
/// Returns [`MlError::EmptyTrainingSet`] when nothing survives the filter.
pub fn preprocess_with(
    samples: &SampleSet,
    config: &PreprocessConfig,
    policy: ExecPolicy,
) -> Result<(Dataset, FeatureLayout, PreprocessReport), MlError> {
    let counts = samples.counts_per_mac();
    // Ascending: the MAC encoder's column order, which the binary search
    // below relies on.
    let retained: Vec<MacAddress> = counts
        .iter()
        .filter(|(_, &n)| n >= config.min_samples_per_mac)
        .map(|(&m, _)| m)
        .collect();
    if retained.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    // Each kept sample with its MAC column.
    let kept: Vec<(&Sample, usize)> = samples
        .iter()
        .filter_map(|s| retained.binary_search(&s.mac).ok().map(|m| (s, m)))
        .collect();

    // Channel columns: the kept samples' channel numbers, ascending.
    let mut seen = [false; 256];
    for (s, _) in &kept {
        seen[usize::from(s.channel.number())] = true;
    }
    let channels: Vec<u8> = (0..=u8::MAX).filter(|&n| seen[usize::from(n)]).collect();
    let mut channel_col = [0usize; 256];
    for (col, &n) in channels.iter().enumerate() {
        channel_col[usize::from(n)] = col;
    }
    let channel_of = |s: &Sample| channel_col[usize::from(s.channel.number())];

    // Dominant channel per MAC (APs beacon on one channel): the most votes,
    // ties to the lowest channel number, which is the first such column.
    let width = channels.len();
    let mut votes = vec![0usize; retained.len() * width];
    for &(s, m) in &kept {
        votes[m * width + channel_of(s)] += 1;
    }
    let mac_channels: BTreeMap<MacAddress, u8> = retained
        .iter()
        .zip(votes.chunks_exact(width))
        .map(|(&mac, row)| {
            let best = (0..width).fold(0, |best, c| if row[c] > row[best] { c } else { best });
            (mac, channels[best])
        })
        .collect();

    let layout = FeatureLayout {
        mac_encoder: OneHotEncoder::fit(retained.iter().copied()),
        channel_encoder: OneHotEncoder::fit(channels),
        mac_channels,
    };

    // Per-sample feature rows `[x, y, z | MAC one-hot | channel one-hot]`.
    let (dim, mac_start, channel_start) = (
        layout.dim(),
        layout.mac_range().start,
        layout.channel_range().start,
    );
    let rows = exec::map_vec_with(
        policy,
        exec::Granularity::rows(),
        &exec::ScratchPool::new(|| ()),
        &kept,
        |(), &(s, m)| {
            let mut row = vec![0.0; dim];
            row[..3].copy_from_slice(&[s.position.x, s.position.y, s.position.z]);
            row[mac_start + m] = 1.0;
            row[channel_start + channel_of(s)] = 1.0;
            (row, f64::from(s.rssi_dbm))
        },
    );
    let (x, y) = rows.into_iter().unzip();
    let report = PreprocessReport {
        total_samples: samples.len(),
        retained_samples: kept.len(),
        dropped_samples: samples.len() - kept.len(),
        total_macs: counts.len(),
        retained_macs: retained.len(),
    };
    Ok((Dataset::new(x, y)?, layout, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerorem_mission::Sample;
    use aerorem_propagation::ap::Ssid;
    use aerorem_propagation::WifiChannel;
    use aerorem_simkit::SimTime;
    use aerorem_uav::UavId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn sample(mac: u32, channel: u8, rssi: i32, pos: Vec3) -> Sample {
        Sample {
            uav: UavId(0),
            waypoint_index: 0,
            position: pos,
            true_position: pos,
            ssid: Ssid::new(format!("net{mac}")),
            mac: MacAddress::from_index(mac),
            channel: WifiChannel::new(channel).unwrap(),
            rssi_dbm: rssi,
            timestamp: SimTime::ZERO,
        }
    }

    fn set_with(counts: &[(u32, usize)]) -> SampleSet {
        let mut set = SampleSet::new();
        for &(mac, n) in counts {
            for i in 0..n {
                set.push(sample(
                    mac,
                    if mac % 2 == 0 { 6 } else { 11 },
                    -70 - (i as i32 % 5),
                    Vec3::new(i as f64 * 0.1, 0.5, 1.0),
                ));
            }
        }
        set
    }

    #[test]
    fn rare_macs_dropped_like_paper() {
        let set = set_with(&[(1, 20), (2, 16), (3, 15), (4, 1)]);
        let (data, layout, report) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        assert_eq!(report.total_samples, 52);
        assert_eq!(report.retained_samples, 36);
        assert_eq!(report.dropped_samples, 16);
        assert_eq!(report.total_macs, 4);
        assert_eq!(report.retained_macs, 2);
        assert_eq!(data.len(), 36);
        assert!(layout.contains_mac(MacAddress::from_index(1)));
        assert!(!layout.contains_mac(MacAddress::from_index(3)));
    }

    #[test]
    fn feature_layout_blocks() {
        let set = set_with(&[(1, 20), (2, 20)]);
        let (data, layout, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        // 3 coords + 2 macs + 2 channels (6 and 11).
        assert_eq!(layout.dim(), 7);
        assert_eq!(layout.coord_range(), 0..3);
        assert_eq!(layout.mac_range(), 3..5);
        assert_eq!(layout.channel_range(), 5..7);
        assert_eq!(data.dim(), 7);
        // Each row is one-hot within each block.
        for row in &data.x {
            let mac_sum: f64 = row[layout.mac_range()].iter().sum();
            let ch_sum: f64 = row[layout.channel_range()].iter().sum();
            assert_eq!(mac_sum, 1.0);
            assert_eq!(ch_sum, 1.0);
        }
    }

    #[test]
    fn scale_vector_targets_mac_block() {
        let set = set_with(&[(1, 20), (2, 20)]);
        let (_, layout, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        let v = layout.mac_scale_vector(3.0);
        assert_eq!(v.len(), layout.dim());
        assert!(v[layout.coord_range()].iter().all(|&s| s == 1.0));
        assert!(v[layout.mac_range()].iter().all(|&s| s == 3.0));
        assert!(v[layout.channel_range()].iter().all(|&s| s == 1.0));
    }

    #[test]
    fn query_encoding_round_trips() {
        let set = set_with(&[(1, 20), (2, 20)]);
        let (_, layout, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        let q = layout
            .encode_query(Vec3::new(1.0, 2.0, 0.5), MacAddress::from_index(2))
            .unwrap();
        assert_eq!(q.len(), layout.dim());
        assert_eq!(&q[0..3], &[1.0, 2.0, 0.5]);
        // Dropped MAC rejected.
        assert!(layout
            .encode_query(Vec3::ZERO, MacAddress::from_index(99))
            .is_err());
    }

    #[test]
    fn macs_listed_in_column_order() {
        let set = set_with(&[(5, 20), (1, 20)]);
        let (_, layout, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        let macs = layout.macs();
        assert_eq!(macs.len(), 2);
        assert!(macs[0] < macs[1], "sorted by MAC bytes");
    }

    #[test]
    fn serial_and_parallel_preprocessing_agree_exactly() {
        let set = set_with(&[(1, 40), (2, 25), (3, 17), (4, 3)]);
        let cfg = PreprocessConfig::paper();
        let (ds, ls, rs) = preprocess_with(&set, &cfg, ExecPolicy::Serial).unwrap();
        let (dp, lp, rp) = preprocess_with(&set, &cfg, ExecPolicy::Parallel).unwrap();
        assert_eq!(ds.x, dp.x);
        assert_eq!(ds.y, dp.y);
        assert_eq!(ls, lp);
        assert_eq!(rs, rp);
    }

    #[test]
    fn everything_dropped_is_an_error() {
        let set = set_with(&[(1, 3), (2, 2)]);
        assert_eq!(
            preprocess(&set, &PreprocessConfig::paper()).err(),
            Some(MlError::EmptyTrainingSet)
        );
    }

    /// The reference algorithm: each retained MAC scans the kept samples
    /// for its channel votes, and each row concatenates the coordinates
    /// with [`OneHotEncoder::encode`] of its MAC and channel.
    fn reference(
        samples: &SampleSet,
        config: &PreprocessConfig,
    ) -> Result<(Dataset, FeatureLayout, PreprocessReport), MlError> {
        let counts = samples.counts_per_mac();
        let retained: Vec<MacAddress> = counts
            .iter()
            .filter(|(_, &n)| n >= config.min_samples_per_mac)
            .map(|(&m, _)| m)
            .collect();
        if retained.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let kept: Vec<&Sample> = samples
            .iter()
            .filter(|s| retained.contains(&s.mac))
            .collect();
        let mac_channels = retained
            .iter()
            .map(|&mac| {
                let mut chans: BTreeMap<u8, usize> = BTreeMap::new();
                for s in kept.iter().filter(|s| s.mac == mac) {
                    *chans.entry(s.channel.number()).or_insert(0) += 1;
                }
                let best = chans
                    .into_iter()
                    .max_by_key(|&(ch, n)| (n, std::cmp::Reverse(ch)))
                    .map(|(ch, _)| ch)
                    .expect("retained mac has samples");
                (mac, best)
            })
            .collect();
        let layout = FeatureLayout {
            mac_encoder: OneHotEncoder::fit(kept.iter().map(|s| s.mac)),
            channel_encoder: OneHotEncoder::fit(kept.iter().map(|s| s.channel.number())),
            mac_channels,
        };
        let (x, y) = kept
            .iter()
            .map(|s| {
                let mut row = vec![s.position.x, s.position.y, s.position.z];
                row.extend(layout.mac_encoder.encode(&s.mac).expect("retained"));
                row.extend(
                    layout
                        .channel_encoder
                        .encode(&s.channel.number())
                        .expect("kept"),
                );
                (row, f64::from(s.rssi_dbm))
            })
            .unzip();
        let report = PreprocessReport {
            total_samples: samples.len(),
            retained_samples: kept.len(),
            dropped_samples: samples.len() - kept.len(),
            total_macs: counts.len(),
            retained_macs: retained.len(),
        };
        Ok((Dataset::new(x, y)?, layout, report))
    }

    /// A shuffled survey: each MAC has a channel list and either exactly
    /// 16, 15 or 1 samples spread evenly over it (ties when the count
    /// divides), or the listed vote counts.
    fn survey(macs: &[(usize, Vec<(u8, usize)>)], channels: u8, seed: u64) -> SampleSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<u32> = (0..200).collect();
        ids.shuffle(&mut rng);
        let mut draws = Vec::new();
        for ((kind, votes), &id) in macs.iter().zip(&ids) {
            let chans: Vec<u8> = votes.iter().map(|&(c, _)| (c - 1) % channels + 1).collect();
            match [16, 15, 1].get(*kind) {
                Some(&total) => {
                    for i in 0..total {
                        draws.push((id, chans[i % chans.len()]));
                    }
                }
                None => {
                    for (&c, &(_, n)) in chans.iter().zip(votes) {
                        draws.extend(std::iter::repeat_n((id, c), n));
                    }
                }
            }
        }
        draws.shuffle(&mut rng);
        let mut set = SampleSet::new();
        for (id, c) in draws {
            let pos = Vec3::new(
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
                rng.gen_range(0.0..3.0),
            );
            set.push(sample(id, c, rng.gen_range(-95..-30), pos));
        }
        set
    }

    proptest! {
        #[test]
        fn preprocessing_matches_the_per_mac_reference(
            macs in prop::collection::vec(
                (0usize..4, prop::collection::vec((1u8..=13, 1usize..=5), 1..=3)),
                1..=40,
            ),
            channels in 1u8..=13,
            seed in any::<u64>(),
        ) {
            let set = survey(&macs, channels, seed);
            for min_samples_per_mac in [0, 1, 16] {
                let config = PreprocessConfig { min_samples_per_mac };
                let want = reference(&set, &config);
                for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
                    let got = preprocess_with(&set, &config, policy);
                    match (&got, &want) {
                        (Ok((gd, gl, gr)), Ok((wd, wl, wr))) => {
                            let bits = |d: &Dataset| {
                                let x: Vec<Vec<u64>> = d
                                    .x
                                    .iter()
                                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                                    .collect();
                                (x, d.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                            };
                            prop_assert_eq!(bits(gd), bits(wd));
                            prop_assert_eq!(gl, wl);
                            prop_assert_eq!(gr, wr);
                        }
                        _ => prop_assert_eq!(got.as_ref().err(), want.as_ref().err()),
                    }
                }
            }
        }
    }

    #[test]
    fn targets_are_rssi() {
        let set = set_with(&[(1, 16)]);
        let (data, _, _) = preprocess(&set, &PreprocessConfig::paper()).unwrap();
        assert!(data.y.iter().all(|&t| (-76.0..=-70.0).contains(&t)));
    }
}
