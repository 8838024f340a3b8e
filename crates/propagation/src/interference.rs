//! In-band interference: the Crazyradio ↔ Wi-Fi-scan coupling of Figure 5.
//!
//! The Crazyradio is an nRF24LU1 with a power amplifier (up to +20 dBm)
//! sitting at the base station a couple of meters from the scanning UAV.
//! Figure 5 of the paper shows that while it transmits, the ESP8266 detects
//! far fewer APs — *irrespective of the Crazyradio frequency*. Two physical
//! effects produce that shape, and both are modeled here:
//!
//! 1. **Co-channel energy**: the 2 MHz GFSK carrier raises the noise floor
//!    of any Wi-Fi channel whose 22 MHz band it falls into, scaled by the
//!    spectral overlap fraction. This wipes out detections on the 4–5
//!    channels near the carrier.
//! 2. **Receiver desensitization (blocking)**: a strong in-band signal
//!    compresses the ESP8266's low-cost front end, raising its effective
//!    noise figure on *every* channel. This is why even a 2525 MHz carrier
//!    (above all Wi-Fi channels) still suppresses detections.

use aerorem_spatial::Vec3;

use crate::channel::{NrfChannel, WifiChannel};
use crate::pathloss::free_space_db;

/// Converts dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts milliwatts to dBm.
///
/// Zero or negative power maps to −∞ represented as −400 dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    if mw <= 0.0 {
        -400.0
    } else {
        10.0 * mw.log10()
    }
}

/// Power-sums a set of dBm levels (linear-domain addition).
pub fn power_sum_dbm(levels: &[f64]) -> f64 {
    mw_to_dbm(levels.iter().map(|&l| dbm_to_mw(l)).sum())
}

/// A continuous-wave-ish in-band interferer (the Crazyradio while polling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceSource {
    /// Carrier channel on the nRF24 grid.
    pub carrier: NrfChannel,
    /// Transmit power in dBm (Crazyradio PA: up to +20 dBm).
    pub tx_power_dbm: f64,
    /// Transmitter position in the scan-volume frame (meters).
    pub position: Vec3,
    /// Fraction of time the carrier is on the air, `(0, 1]`. CRTP polls
    /// continuously, so the paper's setup is near 1.
    pub duty_cycle: f64,
}

impl InterferenceSource {
    /// A Crazyradio-like interferer at the given frequency and position:
    /// +20 dBm PA, 90 % polling duty cycle.
    ///
    /// Returns `None` when the frequency is outside 2400–2525 MHz.
    pub fn crazyradio(freq_mhz: f64, position: Vec3) -> Option<Self> {
        Some(InterferenceSource {
            carrier: NrfChannel::at_mhz(freq_mhz)?,
            tx_power_dbm: 20.0,
            position,
            duty_cycle: 0.9,
        })
    }

    /// Mean interferer power arriving at `rx_pos` in dBm (free-space — the
    /// base station and UAV share the room), including the duty cycle.
    pub fn received_dbm(&self, rx_pos: Vec3) -> f64 {
        let d = self.position.distance(rx_pos);
        self.tx_power_dbm - free_space_db(d, self.carrier.center_mhz())
            + 10.0 * self.duty_cycle.clamp(1e-3, 1.0).log10()
    }

    /// Co-channel interference power injected into the given Wi-Fi channel
    /// at `rx_pos`, in dBm. Returns `None` when the carrier does not overlap
    /// the channel at all.
    pub fn co_channel_dbm(&self, channel: WifiChannel, rx_pos: Vec3) -> Option<f64> {
        let overlap = self.carrier.wifi_overlap_fraction(channel);
        if overlap <= 0.0 {
            return None;
        }
        // The receiver integrates the full carrier power whenever the
        // carrier lies inside the channel band; the overlap fraction only
        // discounts partial straddling at band edges.
        let edge_discount = 10.0 * (overlap / (NrfChannel::BANDWIDTH_MHZ / 22.0)).min(1.0).log10();
        Some(self.received_dbm(rx_pos) + edge_discount)
    }

    /// Front-end desensitization in dB suffered by a low-cost receiver at
    /// `rx_pos`, applied to **all** channels.
    ///
    /// Below the blocking threshold the effect is zero; above it the noise
    /// figure degrades at `BLOCKING_SLOPE` dB per dB, capped.
    pub fn desense_db(&self, rx_pos: Vec3) -> f64 {
        const BLOCKING_THRESHOLD_DBM: f64 = -45.0;
        const BLOCKING_SLOPE: f64 = 0.55;
        const BLOCKING_CAP_DB: f64 = 25.0;
        let rx = self.received_dbm(rx_pos);
        ((rx - BLOCKING_THRESHOLD_DBM) * BLOCKING_SLOPE).clamp(0.0, BLOCKING_CAP_DB)
    }

    /// Effective noise level (dBm) seen on `channel` at `rx_pos`, given the
    /// receiver's thermal `noise_floor_dbm`: co-channel energy power-summed
    /// with the floor, then raised by the blocking desense.
    pub fn effective_noise_dbm(
        &self,
        channel: WifiChannel,
        rx_pos: Vec3,
        noise_floor_dbm: f64,
    ) -> f64 {
        let mut levels = vec![noise_floor_dbm];
        if let Some(co) = self.co_channel_dbm(channel, rx_pos) {
            levels.push(co);
        }
        power_sum_dbm(&levels) + self.desense_db(rx_pos)
    }
}

/// Combines any number of interferers into the effective noise on a channel.
///
/// With no interferers this is just the thermal floor.
pub fn combined_noise_dbm(
    sources: &[InterferenceSource],
    channel: WifiChannel,
    rx_pos: Vec3,
    noise_floor_dbm: f64,
) -> f64 {
    let mut levels = vec![noise_floor_dbm];
    let mut desense = 0.0f64;
    for s in sources {
        if let Some(co) = s.co_channel_dbm(channel, rx_pos) {
            levels.push(co);
        }
        desense = desense.max(s.desense_db(rx_pos));
    }
    power_sum_dbm(&levels) + desense
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOOR: f64 = -95.0;

    fn radio_at(freq: f64) -> InterferenceSource {
        // Base station ~2.5 m from the scanner, like the paper's living room.
        InterferenceSource::crazyradio(freq, Vec3::new(-1.5, 2.0, 0.8)).unwrap()
    }

    fn rx() -> Vec3 {
        Vec3::new(1.87, 1.60, 1.05)
    }

    #[test]
    fn dbm_mw_round_trip() {
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(10.0) - 10.0).abs() < 1e-12);
        assert!((mw_to_dbm(1.0) - 0.0).abs() < 1e-12);
        assert_eq!(mw_to_dbm(0.0), -400.0);
        for dbm in [-90.0, -50.0, 0.0, 17.0] {
            assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn power_sum_doubling_adds_3db() {
        let s = power_sum_dbm(&[-70.0, -70.0]);
        assert!((s - (-70.0 + 10.0 * 2f64.log10())).abs() < 1e-9);
        assert_eq!(power_sum_dbm(&[-80.0]), -80.0);
        // A much weaker term barely changes the sum.
        assert!((power_sum_dbm(&[-60.0, -100.0]) - -60.0) < 0.01);
    }

    #[test]
    fn received_power_is_strong_at_room_range() {
        let r = radio_at(2450.0);
        let p = r.received_dbm(rx());
        // +20 dBm minus ~50 dB FSPL and duty-cycle discount: way above floor.
        assert!(p > -50.0 && p < 0.0, "got {p}");
    }

    #[test]
    fn co_channel_only_near_carrier() {
        let r = radio_at(2437.0); // center of channel 6
        assert!(r.co_channel_dbm(WifiChannel::new(6).unwrap(), rx()).is_some());
        assert!(r.co_channel_dbm(WifiChannel::new(1).unwrap(), rx()).is_none());
        // A 2500 MHz carrier overlaps no Wi-Fi channel.
        let hi = radio_at(2500.0);
        for ch in WifiChannel::all() {
            assert!(hi.co_channel_dbm(ch, rx()).is_none());
        }
    }

    #[test]
    fn desense_hits_all_channels() {
        let hi = radio_at(2500.0);
        let d = hi.desense_db(rx());
        assert!(d > 3.0, "desense should be material at room range, got {d}");
        // Far away the blocking vanishes.
        let far = InterferenceSource {
            position: Vec3::new(500.0, 0.0, 0.0),
            ..hi
        };
        assert_eq!(far.desense_db(rx()), 0.0);
    }

    #[test]
    fn effective_noise_ordering() {
        // Co-channel noise >> desense-only noise >> bare floor.
        let on_ch6 = radio_at(2437.0).effective_noise_dbm(WifiChannel::new(6).unwrap(), rx(), FLOOR);
        let off_band = radio_at(2500.0).effective_noise_dbm(WifiChannel::new(6).unwrap(), rx(), FLOOR);
        assert!(on_ch6 > off_band + 10.0, "co-channel {on_ch6} vs blocked {off_band}");
        assert!(off_band > FLOOR + 3.0);
    }

    #[test]
    fn combined_noise_no_sources_is_floor() {
        assert_eq!(
            combined_noise_dbm(&[], WifiChannel::new(6).unwrap(), rx(), FLOOR),
            FLOOR
        );
    }

    #[test]
    fn combined_noise_takes_worst_desense() {
        let near = radio_at(2500.0);
        let far = InterferenceSource {
            position: Vec3::new(50.0, 0.0, 0.0),
            ..near
        };
        let ch = WifiChannel::new(3).unwrap();
        let combined = combined_noise_dbm(&[far, near], ch, rx(), FLOOR);
        let near_only = combined_noise_dbm(&[near], ch, rx(), FLOOR);
        assert!((combined - near_only).abs() < 0.5);
    }

    #[test]
    fn crazyradio_rejects_out_of_band() {
        assert!(InterferenceSource::crazyradio(2390.0, Vec3::ZERO).is_none());
        assert!(InterferenceSource::crazyradio(2526.0, Vec3::ZERO).is_none());
        assert!(InterferenceSource::crazyradio(2400.0, Vec3::ZERO).is_some());
    }

    #[test]
    fn duty_cycle_scales_power() {
        let full = InterferenceSource {
            duty_cycle: 1.0,
            ..radio_at(2450.0)
        };
        let tenth = InterferenceSource {
            duty_cycle: 0.1,
            ..full
        };
        let diff = full.received_dbm(rx()) - tenth.received_dbm(rx());
        assert!((diff - 10.0).abs() < 1e-9);
    }
}
