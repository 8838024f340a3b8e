//! Access points, MAC addresses, and SSIDs.
//!
//! §III-B: "Since SSIDs can be shared between devices, they were generally
//! not used. Instead, RSS readings were grouped based on their MAC
//! addresses." The type split here mirrors that: [`MacAddress`] is the
//! identity key, [`Ssid`] is display metadata that several radios may share
//! (the paper saw 73 MACs but only 49 SSIDs).

use std::fmt;
use std::str::FromStr;

use aerorem_spatial::Vec3;

use crate::channel::WifiChannel;

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use aerorem_propagation::MacAddress;
///
/// let mac: MacAddress = "aa:bb:cc:00:11:22".parse().unwrap();
/// assert_eq!(mac.to_string(), "aa:bb:cc:00:11:22");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddress(pub [u8; 6]);

impl MacAddress {
    /// Builds a locally administered unicast MAC from a 32-bit index —
    /// handy for deterministically generating synthetic AP fleets.
    pub fn from_index(index: u32) -> Self {
        let b = index.to_be_bytes();
        // 0x02 prefix: locally administered, unicast.
        MacAddress([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// The raw bytes.
    pub fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// Error parsing a MAC address from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError {
    input: String,
}

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddress {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseMacError {
            input: s.to_string(),
        };
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for o in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            if part.len() != 2 {
                return Err(err());
            }
            *o = u8::from_str_radix(part, 16).map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(MacAddress(octets))
    }
}

/// A service set identifier — human-readable network name, possibly shared
/// by several physical radios (mesh nodes, dual-band APs).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ssid(String);

impl Ssid {
    /// Maximum SSID length in bytes per IEEE 802.11.
    pub const MAX_LEN: usize = 32;

    /// Creates an SSID, truncating to the 32-byte 802.11 limit on a char
    /// boundary.
    pub fn new(name: impl Into<String>) -> Self {
        let mut name = name.into();
        if name.len() > Self::MAX_LEN {
            let mut cut = Self::MAX_LEN;
            while !name.is_char_boundary(cut) {
                cut -= 1;
            }
            name.truncate(cut);
        }
        Ssid(name)
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Ssid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Ssid {
    fn from(s: &str) -> Self {
        Ssid::new(s)
    }
}

/// One Wi-Fi access point in the synthetic building.
///
/// Position is in the scan-volume frame (meters); APs generally sit outside
/// the scan volume, elsewhere in the building.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPoint {
    /// Unique hardware address — the grouping key for the ML layer.
    pub mac: MacAddress,
    /// Advertised network name (not unique across APs).
    pub ssid: Ssid,
    /// The 2.4 GHz channel the AP beacons on.
    pub channel: WifiChannel,
    /// Transmit power in dBm (EIRP), typically 14–20 dBm indoors.
    pub tx_power_dbm: f64,
    /// Position in the scan-volume coordinate frame, meters.
    pub position: Vec3,
    /// Beacon interval in milliseconds (802.11 default ≈ 102.4 ms).
    pub beacon_interval_ms: f64,
}

impl AccessPoint {
    /// The 802.11 default beacon interval (100 TU = 102.4 ms).
    pub const DEFAULT_BEACON_INTERVAL_MS: f64 = 102.4;

    /// Creates an AP with the default beacon interval.
    pub fn new(
        mac: MacAddress,
        ssid: Ssid,
        channel: WifiChannel,
        tx_power_dbm: f64,
        position: Vec3,
    ) -> Self {
        AccessPoint {
            mac,
            ssid,
            channel,
            tx_power_dbm,
            position,
            beacon_interval_ms: Self::DEFAULT_BEACON_INTERVAL_MS,
        }
    }
}

impl fmt::Display for AccessPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} \"{}\" {} @ {}",
            self.mac, self.ssid, self.channel, self.position
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_round_trip() {
        let mac = MacAddress([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]);
        let s = mac.to_string();
        assert_eq!(s, "de:ad:be:ef:00:42");
        assert_eq!(s.parse::<MacAddress>().unwrap(), mac);
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        for bad in ["", "de:ad:be:ef:00", "de:ad:be:ef:00:42:11", "zz:ad:be:ef:00:42", "dead:be:ef:00:42:11"] {
            assert!(bad.parse::<MacAddress>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn mac_from_index_unique_and_local() {
        let a = MacAddress::from_index(1);
        let b = MacAddress::from_index(2);
        assert_ne!(a, b);
        // Locally administered bit set, multicast bit clear.
        assert_eq!(a.octets()[0] & 0x02, 0x02);
        assert_eq!(a.octets()[0] & 0x01, 0x00);
    }

    #[test]
    fn ssid_truncates_to_limit() {
        let long = "x".repeat(100);
        let ssid = Ssid::new(long);
        assert_eq!(ssid.as_str().len(), Ssid::MAX_LEN);
        let short: Ssid = "HomeNet".into();
        assert_eq!(short.as_str(), "HomeNet");
    }

    #[test]
    fn ssid_truncates_on_char_boundary() {
        // 'é' is 2 bytes; 17 of them = 34 bytes > 32.
        let s = Ssid::new("é".repeat(17));
        assert!(s.as_str().len() <= Ssid::MAX_LEN);
        assert!(s.as_str().chars().all(|c| c == 'é'));
    }

    #[test]
    fn access_point_defaults() {
        let ap = AccessPoint::new(
            MacAddress::from_index(7),
            "Net".into(),
            WifiChannel::new(6).unwrap(),
            17.0,
            Vec3::new(5.0, -3.0, 2.0),
        );
        assert_eq!(ap.beacon_interval_ms, 102.4);
        let s = ap.to_string();
        assert!(s.contains("ch6"));
        assert!(s.contains("Net"));
    }

    #[test]
    fn parse_error_display() {
        let e = "nope".parse::<MacAddress>().unwrap_err();
        assert!(e.to_string().contains("nope"));
    }
}
