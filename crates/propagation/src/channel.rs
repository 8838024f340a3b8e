//! IEEE 802.11b/g/n 2.4 GHz channelization and spectral-overlap math.
//!
//! The 2.4 GHz ISM band carries 13 usable Wi-Fi channels (Europe), 5 MHz
//! apart, each about 22 MHz wide — so neighbouring channels overlap heavily.
//! The Crazyradio's nRF24 chip, by contrast, uses 126 channels of 1 MHz
//! spacing from 2400 to 2525 MHz (§II-C). Both gridings meet here, since
//! Figure 5 is precisely about how an nRF24 carrier bleeds into Wi-Fi
//! channels.

use std::fmt;

/// Occupied bandwidth of one 802.11b/g channel in MHz.
pub const WIFI_CHANNEL_WIDTH_MHZ: f64 = 22.0;

/// Spacing between adjacent 2.4 GHz Wi-Fi channel centers in MHz.
pub const WIFI_CHANNEL_SPACING_MHZ: f64 = 5.0;

/// A 2.4 GHz Wi-Fi channel (1–13, the European allocation the paper's
/// Antwerp deployment sees).
///
/// # Examples
///
/// ```
/// use aerorem_propagation::WifiChannel;
///
/// let ch6 = WifiChannel::new(6).unwrap();
/// assert_eq!(ch6.center_mhz(), 2437.0);
/// assert!(ch6.overlaps(WifiChannel::new(8).unwrap()));
/// assert!(!ch6.overlaps(WifiChannel::new(11).unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WifiChannel(u8);

impl WifiChannel {
    /// The lowest valid channel number.
    pub const MIN: u8 = 1;
    /// The highest valid channel number (EU allocation).
    pub const MAX: u8 = 13;

    /// Creates a channel, returning `None` outside `1..=13`.
    pub fn new(number: u8) -> Option<Self> {
        (Self::MIN..=Self::MAX).contains(&number).then_some(WifiChannel(number))
    }

    /// The three non-overlapping channels commonly used by deployments.
    pub const PRIMARY: [WifiChannel; 3] = [WifiChannel(1), WifiChannel(6), WifiChannel(11)];

    /// All 13 channels in order.
    pub fn all() -> impl Iterator<Item = WifiChannel> {
        (Self::MIN..=Self::MAX).map(WifiChannel)
    }

    /// Channel number (1–13).
    pub fn number(self) -> u8 {
        self.0
    }

    /// Center frequency in MHz: `2407 + 5·n`.
    pub fn center_mhz(self) -> f64 {
        2407.0 + WIFI_CHANNEL_SPACING_MHZ * f64::from(self.0)
    }

    /// Lower band edge in MHz.
    pub fn low_mhz(self) -> f64 {
        self.center_mhz() - WIFI_CHANNEL_WIDTH_MHZ / 2.0
    }

    /// Upper band edge in MHz.
    pub fn high_mhz(self) -> f64 {
        self.center_mhz() + WIFI_CHANNEL_WIDTH_MHZ / 2.0
    }

    /// Whether two channels' occupied bands overlap.
    pub fn overlaps(self, other: WifiChannel) -> bool {
        self.overlap_fraction(other) > 0.0
    }

    /// Fraction of this channel's band covered by `other`'s band, in
    /// `[0, 1]`. Identical channels give 1.0; channels ≥ 5 apart give 0.0.
    pub fn overlap_fraction(self, other: WifiChannel) -> f64 {
        band_overlap_fraction(
            self.low_mhz(),
            self.high_mhz(),
            other.low_mhz(),
            other.high_mhz(),
        )
    }
}

impl fmt::Display for WifiChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl TryFrom<u8> for WifiChannel {
    type Error = InvalidChannel;

    fn try_from(value: u8) -> Result<Self, Self::Error> {
        WifiChannel::new(value).ok_or(InvalidChannel(value))
    }
}

impl From<WifiChannel> for u8 {
    fn from(ch: WifiChannel) -> u8 {
        ch.number()
    }
}

/// Error returned when a channel number is outside `1..=13`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidChannel(pub u8);

impl fmt::Display for InvalidChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid 2.4 GHz Wi-Fi channel number {}", self.0)
    }
}

impl std::error::Error for InvalidChannel {}

/// Fraction of band `[a_lo, a_hi]` covered by band `[b_lo, b_hi]`.
///
/// Returns 0 when the bands are disjoint or `a` is degenerate.
pub fn band_overlap_fraction(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> f64 {
    let width = a_hi - a_lo;
    if width <= 0.0 {
        return 0.0;
    }
    let lo = a_lo.max(b_lo);
    let hi = a_hi.min(b_hi);
    ((hi - lo).max(0.0) / width).min(1.0)
}

/// An nRF24 (Crazyradio) channel: 1 MHz spacing from 2400 MHz, numbers
/// 0–125 covering 2400–2525 MHz (§II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NrfChannel(u8);

impl NrfChannel {
    /// The highest valid nRF24 channel number.
    pub const MAX: u8 = 125;

    /// Occupied bandwidth of the nRF24 at 2 Mbps GFSK, in MHz.
    pub const BANDWIDTH_MHZ: f64 = 2.0;

    /// Creates a channel, returning `None` above 125.
    pub fn new(number: u8) -> Option<Self> {
        (number <= Self::MAX).then_some(NrfChannel(number))
    }

    /// The channel whose carrier sits at the given frequency, or `None`
    /// outside 2400–2525 MHz.
    pub fn at_mhz(freq_mhz: f64) -> Option<Self> {
        if !(2400.0..=2525.0).contains(&freq_mhz) {
            return None;
        }
        Some(NrfChannel((freq_mhz - 2400.0).round() as u8))
    }

    /// Channel number (0–125).
    pub fn number(self) -> u8 {
        self.0
    }

    /// Carrier frequency in MHz: `2400 + n`.
    pub fn center_mhz(self) -> f64 {
        2400.0 + f64::from(self.0)
    }

    /// Fraction of the given Wi-Fi channel's band that this carrier's
    /// occupied bandwidth covers, in `[0, 1]`. This is the co-channel
    /// coupling factor used by the Figure-5 interference model.
    pub fn wifi_overlap_fraction(self, wifi: WifiChannel) -> f64 {
        let half = Self::BANDWIDTH_MHZ / 2.0;
        band_overlap_fraction(
            wifi.low_mhz(),
            wifi.high_mhz(),
            self.center_mhz() - half,
            self.center_mhz() + half,
        )
    }
}

impl fmt::Display for NrfChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nrf{} ({} MHz)", self.0, self.center_mhz())
    }
}

/// The six Crazyradio test frequencies of Figure 5 (MHz).
pub const FIGURE5_NRF_FREQS_MHZ: [f64; 6] = [2400.0, 2425.0, 2450.0, 2475.0, 2500.0, 2525.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_construction_bounds() {
        assert!(WifiChannel::new(0).is_none());
        assert!(WifiChannel::new(1).is_some());
        assert!(WifiChannel::new(13).is_some());
        assert!(WifiChannel::new(14).is_none());
        assert!(WifiChannel::try_from(5).is_ok());
        assert!(WifiChannel::try_from(77).is_err());
        assert_eq!(u8::from(WifiChannel::new(9).unwrap()), 9);
    }

    #[test]
    fn known_center_frequencies() {
        assert_eq!(WifiChannel::new(1).unwrap().center_mhz(), 2412.0);
        assert_eq!(WifiChannel::new(6).unwrap().center_mhz(), 2437.0);
        assert_eq!(WifiChannel::new(11).unwrap().center_mhz(), 2462.0);
        assert_eq!(WifiChannel::new(13).unwrap().center_mhz(), 2472.0);
    }

    #[test]
    fn all_yields_thirteen() {
        assert_eq!(WifiChannel::all().count(), 13);
    }

    #[test]
    fn primary_channels_do_not_overlap() {
        for (i, a) in WifiChannel::PRIMARY.iter().enumerate() {
            for b in WifiChannel::PRIMARY.iter().skip(i + 1) {
                assert!(!a.overlaps(*b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn adjacent_channels_overlap_heavily() {
        let c6 = WifiChannel::new(6).unwrap();
        let c7 = WifiChannel::new(7).unwrap();
        let f = c6.overlap_fraction(c7);
        assert!(f > 0.7, "adjacent overlap was {f}");
        assert_eq!(c6.overlap_fraction(c6), 1.0);
        // Overlap is symmetric for equal-width bands.
        assert_eq!(f, c7.overlap_fraction(c6));
    }

    #[test]
    fn overlap_fraction_monotone_in_separation() {
        let base = WifiChannel::new(6).unwrap();
        let mut last = 1.1;
        for n in 6..=11 {
            let f = base.overlap_fraction(WifiChannel::new(n).unwrap());
            assert!(f <= last, "overlap must decrease with separation");
            last = f;
        }
        assert_eq!(base.overlap_fraction(WifiChannel::new(11).unwrap()), 0.0);
    }

    #[test]
    fn band_overlap_edge_cases() {
        assert_eq!(band_overlap_fraction(0.0, 10.0, 10.0, 20.0), 0.0);
        assert_eq!(band_overlap_fraction(0.0, 10.0, -5.0, 25.0), 1.0);
        assert_eq!(band_overlap_fraction(0.0, 0.0, -1.0, 1.0), 0.0);
        assert_eq!(band_overlap_fraction(0.0, 10.0, 5.0, 7.5), 0.25);
    }

    #[test]
    fn nrf_channel_numbers_and_freqs() {
        assert_eq!(NrfChannel::new(0).unwrap().center_mhz(), 2400.0);
        assert_eq!(NrfChannel::new(125).unwrap().center_mhz(), 2525.0);
        assert!(NrfChannel::new(126).is_none());
        assert_eq!(NrfChannel::at_mhz(2450.0).unwrap().number(), 50);
        assert!(NrfChannel::at_mhz(2399.0).is_none());
        assert!(NrfChannel::at_mhz(2526.0).is_none());
    }

    #[test]
    fn figure5_freqs_are_valid_nrf_channels() {
        for f in FIGURE5_NRF_FREQS_MHZ {
            assert!(NrfChannel::at_mhz(f).is_some(), "{f} MHz");
        }
    }

    #[test]
    fn nrf_in_band_hits_wifi_channel() {
        // 2437 MHz carrier sits in the middle of channel 6.
        let nrf = NrfChannel::at_mhz(2437.0).unwrap();
        let c6 = WifiChannel::new(6).unwrap();
        let f = nrf.wifi_overlap_fraction(c6);
        assert!(f > 0.0);
        // A 2 MHz carrier covers 2/22 of the Wi-Fi band.
        assert!((f - 2.0 / 22.0).abs() < 1e-9);
        // 2500 MHz is above every Wi-Fi channel.
        let hi = NrfChannel::at_mhz(2500.0).unwrap();
        for ch in WifiChannel::all() {
            assert_eq!(hi.wifi_overlap_fraction(ch), 0.0);
        }
    }

    #[test]
    fn displays() {
        assert_eq!(format!("{}", WifiChannel::new(6).unwrap()), "ch6");
        assert!(format!("{}", NrfChannel::new(50).unwrap()).contains("2450"));
        assert!(InvalidChannel(99).to_string().contains("99"));
    }
}
