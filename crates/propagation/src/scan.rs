//! The beacon-scan model: what an `AT+CWLAP` sweep observes.
//!
//! The ESP-01 dwells on each 2.4 GHz channel in turn, collecting beacon
//! frames. An AP is *detected* on a channel when at least one of its beacons
//! arrives with enough SNR over the effective noise (thermal floor plus any
//! Crazyradio interference — see [`crate::interference`]). Detection of
//! marginal APs is therefore probabilistic, which is exactly what produces
//! the paper's per-location sample-count variation (Figures 6–7) and the
//! interference collapse (Figure 5).

use rand::Rng;

use aerorem_numerics::dist;
use aerorem_spatial::Vec3;

use crate::ap::{MacAddress, Ssid};
use crate::channel::WifiChannel;
use crate::environment::RadioEnvironment;
use crate::interference::{combined_noise_dbm, InterferenceSource};

/// One row of a scan result — the paper's
/// `⟨ssid, rssi, mac, channel⟩` tuple (§III-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeaconObservation {
    /// Network name as advertised.
    pub ssid: Ssid,
    /// Reported RSS in whole dBm (the ESP8266 reports integers).
    pub rssi_dbm: i32,
    /// Transmitter MAC address.
    pub mac: MacAddress,
    /// Channel the AP was heard on.
    pub channel: WifiChannel,
}

/// Configuration of one AP scan sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanConfig {
    /// Channels visited, in order. Defaults to 1–13.
    pub channels: Vec<WifiChannel>,
    /// Dwell time per channel in milliseconds. The paper's ~2 s sweep over
    /// 13 channels gives 150-175 ms per channel.
    pub dwell_ms: f64,
    /// Minimum SNR (dB) at which a beacon is decodable with 50 %
    /// probability.
    pub snr_threshold_db: f64,
    /// Softness (dB) of the detection roll-off around the threshold.
    pub snr_slope_db: f64,
}

impl ScanConfig {
    /// The paper-like default: all 13 EU channels, 175 ms dwell (a ~2.3 s
    /// sweep, matching the paper's \"around 2 sec\" scan), 6 dB threshold
    /// with 2 dB roll-off.
    pub fn paper_default() -> Self {
        ScanConfig {
            channels: WifiChannel::all().collect(),
            dwell_ms: 175.0,
            snr_threshold_db: 6.0,
            snr_slope_db: 2.0,
        }
    }

    /// Total sweep duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.dwell_ms * self.channels.len() as f64
    }

    /// Probability of decoding a single beacon at the given SNR.
    pub fn decode_probability(&self, snr_db: f64) -> f64 {
        let x = (snr_db - self.snr_threshold_db) / self.snr_slope_db.max(1e-6);
        1.0 / (1.0 + (-x).exp())
    }
}

impl Default for ScanConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Performs one AP scan sweep at `pos` against the environment, with the
/// given active interferers (the Crazyradio, when it was not turned off).
///
/// Returns one [`BeaconObservation`] per *detected* AP, in channel order.
/// The reported RSSI is the strongest decoded beacon of the dwell, rounded
/// to whole dBm — matching ESP8266 `AT+CWLAP` output.
pub fn perform_scan<R: Rng + ?Sized>(
    env: &RadioEnvironment,
    pos: Vec3,
    interferers: &[InterferenceSource],
    config: &ScanConfig,
    rng: &mut R,
) -> Vec<BeaconObservation> {
    let mut out = Vec::new();
    for &channel in &config.channels {
        let noise = combined_noise_dbm(interferers, channel, pos, env.noise_floor_dbm());
        for ap in env.access_points() {
            if ap.channel != channel {
                continue;
            }
            // Expected beacons during the dwell; arrival is Poisson since
            // the dwell window is unsynchronized with the beacon schedule.
            let lambda = config.dwell_ms / ap.beacon_interval_ms;
            let n_beacons = dist::poisson(rng, lambda);
            let mut best: Option<f64> = None;
            for _ in 0..n_beacons {
                let rss = env.sample_rss(ap, pos, rng);
                let p = config.decode_probability(rss - noise);
                if dist::bernoulli(rng, p) {
                    best = Some(best.map_or(rss, |b: f64| b.max(rss)));
                }
            }
            if let Some(rss) = best {
                out.push(BeaconObservation {
                    ssid: ap.ssid.clone(),
                    rssi_dbm: rss.round() as i32,
                    mac: ap.mac,
                    channel,
                });
            }
        }
    }
    out
}

/// Counts detected APs per channel — the quantity plotted in Figure 5.
///
/// Returns a `(channel, count)` pair for every channel in `config`, in
/// order, including zero-count channels.
pub fn detections_per_channel(
    observations: &[BeaconObservation],
    config: &ScanConfig,
) -> Vec<(WifiChannel, usize)> {
    config
        .channels
        .iter()
        .map(|&ch| {
            let n = observations.iter().filter(|o| o.channel == ch).count();
            (ch, n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ap::AccessPoint;
    use crate::environment::RadioEnvironmentBuilder;
    use crate::fading::FadingModel;
    use crate::shadowing::ShadowingField;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5CA9)
    }

    fn env_with(aps: Vec<AccessPoint>) -> RadioEnvironment {
        RadioEnvironmentBuilder::new()
            .access_points(aps)
            .shadowing(ShadowingField::new(0.0, 2.0, 1))
            .fading(FadingModel::None)
            .build()
    }

    fn strong_ap(ch: u8, idx: u32) -> AccessPoint {
        AccessPoint::new(
            MacAddress::from_index(idx),
            Ssid::new(format!("net-{idx}")),
            WifiChannel::new(ch).unwrap(),
            17.0,
            Vec3::new(4.0, 0.0, 1.5),
        )
    }

    fn weak_ap(ch: u8, idx: u32) -> AccessPoint {
        AccessPoint::new(
            MacAddress::from_index(idx),
            Ssid::new(format!("weak-{idx}")),
            WifiChannel::new(ch).unwrap(),
            // At ~59 m with exponent 3: RSS ≈ 17 − 40 − 53 ≈ −76… push
            // farther via low tx power to sit below the noise floor.
            -45.0,
            Vec3::new(40.0, 0.0, 1.5),
        )
    }

    #[test]
    fn strong_ap_always_detected() {
        let env = env_with(vec![strong_ap(6, 1)]);
        let cfg = ScanConfig::paper_default();
        let mut r = rng();
        let mut hits = 0;
        for _ in 0..20 {
            let obs = perform_scan(&env, Vec3::ZERO, &[], &cfg, &mut r);
            hits += usize::from(!obs.is_empty());
        }
        // The only way to miss is a zero-beacon Poisson draw (~22 %/dwell).
        assert!(hits >= 12, "strong AP detected only {hits}/20");
    }

    #[test]
    fn below_floor_ap_never_detected() {
        let env = env_with(vec![weak_ap(6, 1)]);
        let cfg = ScanConfig::paper_default();
        let mut r = rng();
        for _ in 0..20 {
            assert!(perform_scan(&env, Vec3::ZERO, &[], &cfg, &mut r).is_empty());
        }
    }

    #[test]
    fn observation_reports_correct_tuple() {
        let env = env_with(vec![strong_ap(11, 7)]);
        let cfg = ScanConfig::paper_default();
        let mut r = rng();
        let obs = loop {
            let o = perform_scan(&env, Vec3::ZERO, &[], &cfg, &mut r);
            if !o.is_empty() {
                break o;
            }
        };
        assert_eq!(obs[0].mac, MacAddress::from_index(7));
        assert_eq!(obs[0].channel, WifiChannel::new(11).unwrap());
        assert_eq!(obs[0].ssid.as_str(), "net-7");
        // tx 17 dBm at 4.27 m, n=3: about −5 to −25 dBm region.
        assert!(obs[0].rssi_dbm < 0 && obs[0].rssi_dbm > -60);
    }

    #[test]
    fn scan_skips_other_channels() {
        let env = env_with(vec![strong_ap(6, 1)]);
        let cfg = ScanConfig {
            channels: vec![WifiChannel::new(1).unwrap()],
            ..ScanConfig::paper_default()
        };
        let mut r = rng();
        assert!(perform_scan(&env, Vec3::ZERO, &[], &cfg, &mut r).is_empty());
    }

    #[test]
    fn interference_suppresses_marginal_ap() {
        // An AP ~15 dB above the floor: detected cleanly without
        // interference, lost under a co-channel Crazyradio.
        let marginal = AccessPoint::new(
            MacAddress::from_index(3),
            "marginal".into(),
            WifiChannel::new(6).unwrap(),
            -18.0, // RSS at 4.3 m ≈ −77 dBm → SNR ≈ 18 dB
            Vec3::new(4.0, 0.0, 1.5),
        );
        let env = env_with(vec![marginal]);
        let cfg = ScanConfig::paper_default();
        let mut r = rng();
        let clean: usize = (0..30)
            .map(|_| perform_scan(&env, Vec3::ZERO, &[], &cfg, &mut r).len())
            .sum();
        let radio =
            InterferenceSource::crazyradio(2437.0, Vec3::new(-2.0, 1.0, 0.8)).unwrap();
        let jammed: usize = (0..30)
            .map(|_| perform_scan(&env, Vec3::ZERO, &[radio], &cfg, &mut r).len())
            .sum();
        assert!(clean >= 20, "clean detections {clean}/30");
        assert_eq!(jammed, 0, "co-channel interference should wipe it out");
    }

    #[test]
    fn detections_per_channel_counts() {
        let obs = vec![
            BeaconObservation {
                ssid: "a".into(),
                rssi_dbm: -50,
                mac: MacAddress::from_index(1),
                channel: WifiChannel::new(1).unwrap(),
            },
            BeaconObservation {
                ssid: "b".into(),
                rssi_dbm: -60,
                mac: MacAddress::from_index(2),
                channel: WifiChannel::new(1).unwrap(),
            },
            BeaconObservation {
                ssid: "c".into(),
                rssi_dbm: -70,
                mac: MacAddress::from_index(3),
                channel: WifiChannel::new(6).unwrap(),
            },
        ];
        let cfg = ScanConfig::paper_default();
        let counts = detections_per_channel(&obs, &cfg);
        assert_eq!(counts.len(), 13);
        assert_eq!(counts[0], (WifiChannel::new(1).unwrap(), 2));
        assert_eq!(counts[5], (WifiChannel::new(6).unwrap(), 1));
        assert_eq!(counts[12].1, 0);
    }

    #[test]
    fn decode_probability_is_sigmoid() {
        let cfg = ScanConfig::paper_default();
        assert!((cfg.decode_probability(cfg.snr_threshold_db) - 0.5).abs() < 1e-9);
        assert!(cfg.decode_probability(30.0) > 0.999);
        assert!(cfg.decode_probability(-20.0) < 0.001);
        // Monotone.
        assert!(cfg.decode_probability(6.0) > cfg.decode_probability(2.0));
    }

    #[test]
    fn duration_scales_with_channels() {
        let cfg = ScanConfig::paper_default();
        assert!((cfg.duration_ms() - 13.0 * cfg.dwell_ms).abs() < 1e-9);
    }

    #[test]
    fn longer_dwell_improves_marginal_detection() {
        // With fading on, a weak AP is found more often when dwelling longer.
        let marginal = AccessPoint::new(
            MacAddress::from_index(4),
            "m".into(),
            WifiChannel::new(6).unwrap(),
            -31.0, // RSS ≈ −90 dBm → SNR ≈ 5 dB, right at the edge
            Vec3::new(4.0, 0.0, 1.5),
        );
        let env = RadioEnvironmentBuilder::new()
            .access_point(marginal)
            .shadowing(ShadowingField::new(0.0, 2.0, 1))
            .fading(FadingModel::rayleigh())
            .build();
        let mut r = rng();
        let rate = |dwell: f64, r: &mut StdRng| {
            let cfg = ScanConfig {
                dwell_ms: dwell,
                ..ScanConfig::paper_default()
            };
            (0..200)
                .filter(|_| !perform_scan(&env, Vec3::ZERO, &[], &cfg, r).is_empty())
                .count() as f64
                / 200.0
        };
        let short = rate(60.0, &mut r);
        let long = rate(600.0, &mut r);
        assert!(long > short, "long dwell {long} <= short {short}");
    }
}
