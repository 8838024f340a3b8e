//! The Crazyradio PA dongle as a radio and interference source.
//!
//! The dongle sits at the base station; whenever it polls a UAV it radiates
//! an nRF24 carrier that couples into the Wi-Fi scan (Figure 5). The mission
//! layer therefore turns it into an
//! [`InterferenceSource`] whenever
//! it is transmitting, and into nothing when the paper's radio-off-while-
//! scanning rule is in force.

use std::fmt;

use aerorem_propagation::channel::NrfChannel;
use aerorem_propagation::InterferenceSource;
use aerorem_spatial::Vec3;

/// A radio address shared by a dongle/UAV pair (the 5-byte CRTP address,
/// e.g. `0xE7E7E7E701`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RadioAddress(pub u64);

impl RadioAddress {
    /// The Bitcraze default address with the last byte replaced by `id` —
    /// how multi-UAV fleets are usually addressed.
    pub fn default_with_id(id: u8) -> Self {
        RadioAddress(0xE7_E7E7_E700 | u64::from(id))
    }
}

impl fmt::Display for RadioAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:010X}", self.0)
    }
}

/// The base-station dongle.
///
/// # Examples
///
/// ```
/// use aerorem_radio::Crazyradio;
/// use aerorem_spatial::Vec3;
///
/// let mut radio = Crazyradio::new(2450.0, Vec3::new(-1.5, 2.0, 0.8)).unwrap();
/// assert!(radio.interference().is_some(), "transmitting by default");
/// radio.set_transmitting(false); // the paper's radio-off-while-scanning rule
/// assert!(radio.interference().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crazyradio {
    channel: NrfChannel,
    position: Vec3,
    tx_power_dbm: f64,
    transmitting: bool,
    address: RadioAddress,
}

impl Crazyradio {
    /// Creates a dongle at `freq_mhz` (2400–2525 MHz) located at `position`
    /// in the scan-volume frame, transmitting, with the +20 dBm PA.
    ///
    /// Returns `None` when the frequency is outside the nRF24 band.
    pub fn new(freq_mhz: f64, position: Vec3) -> Option<Self> {
        Some(Crazyradio {
            channel: NrfChannel::at_mhz(freq_mhz)?,
            position,
            tx_power_dbm: 20.0,
            transmitting: true,
            address: RadioAddress::default_with_id(1),
        })
    }

    /// The dongle's nRF24 channel.
    pub fn channel(&self) -> NrfChannel {
        self.channel
    }

    /// Retunes to another carrier frequency.
    ///
    /// Returns `false` (leaving the channel unchanged) when `freq_mhz` is
    /// outside 2400–2525 MHz.
    pub fn set_frequency_mhz(&mut self, freq_mhz: f64) -> bool {
        match NrfChannel::at_mhz(freq_mhz) {
            Some(ch) => {
                self.channel = ch;
                true
            }
            None => false,
        }
    }

    /// Dongle position in the scan-volume frame.
    pub fn position(&self) -> Vec3 {
        self.position
    }

    /// The CRTP address this dongle polls.
    pub fn address(&self) -> RadioAddress {
        self.address
    }

    /// Sets the CRTP address (one per UAV in a fleet).
    pub fn set_address(&mut self, address: RadioAddress) {
        self.address = address;
    }

    /// Whether the dongle is currently on the air.
    pub fn is_transmitting(&self) -> bool {
        self.transmitting
    }

    /// Turns transmission on or off. The paper's client shuts the dongle
    /// down right before each scan and restarts it afterwards (§II-C).
    pub fn set_transmitting(&mut self, on: bool) {
        self.transmitting = on;
    }

    /// The interference this dongle injects into the scan model right now:
    /// `Some` while transmitting, `None` while shut down.
    pub fn interference(&self) -> Option<InterferenceSource> {
        self.transmitting.then_some(InterferenceSource {
            carrier: self.channel,
            tx_power_dbm: self.tx_power_dbm,
            position: self.position,
            duty_cycle: 0.9,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_band() {
        assert!(Crazyradio::new(2400.0, Vec3::ZERO).is_some());
        assert!(Crazyradio::new(2525.0, Vec3::ZERO).is_some());
        assert!(Crazyradio::new(2399.0, Vec3::ZERO).is_none());
    }

    #[test]
    fn retune() {
        let mut r = Crazyradio::new(2400.0, Vec3::ZERO).unwrap();
        assert!(r.set_frequency_mhz(2475.0));
        assert_eq!(r.channel().center_mhz(), 2475.0);
        assert!(!r.set_frequency_mhz(3000.0));
        assert_eq!(r.channel().center_mhz(), 2475.0, "unchanged on failure");
    }

    #[test]
    fn interference_follows_tx_state() {
        let mut r = Crazyradio::new(2450.0, Vec3::new(1.0, 2.0, 0.5)).unwrap();
        let i = r.interference().expect("transmitting");
        assert_eq!(i.position, Vec3::new(1.0, 2.0, 0.5));
        assert_eq!(i.tx_power_dbm, 20.0);
        r.set_transmitting(false);
        assert!(r.interference().is_none());
        r.set_transmitting(true);
        assert!(r.interference().is_some());
    }

    #[test]
    fn addresses() {
        let a = RadioAddress::default_with_id(1);
        let b = RadioAddress::default_with_id(2);
        assert_ne!(a, b);
        assert_eq!(a.to_string(), "0xE7E7E7E701");
        let mut r = Crazyradio::new(2450.0, Vec3::ZERO).unwrap();
        r.set_address(b);
        assert_eq!(r.address(), b);
    }
}
