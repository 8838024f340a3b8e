//! The Crazy RealTime Protocol packet format.
//!
//! A CRTP packet is one header byte — `pppp llcc` with `p` = port, `ll` =
//! link bits (always 0b11 on the air), `cc` = channel — followed by up to
//! 30 bytes of payload (the nRF24's 32-byte frame minus header and one
//! reserved byte).

use std::fmt;

/// Maximum CRTP payload length in bytes.
pub const MAX_PAYLOAD: usize = 30;

/// Bytes of sequencing metadata carried at the front of every fragment
/// payload: `[seq, total]`, each a single byte.
pub const FRAGMENT_HEADER_LEN: usize = 2;

/// Data bytes per fragment once the sequencing header is accounted for.
pub const MAX_FRAGMENT_DATA: usize = MAX_PAYLOAD - FRAGMENT_HEADER_LEN;

/// Largest message `fragment` can ship: 255 fragments of 28 data bytes.
pub const MAX_MESSAGE_LEN: usize = 255 * MAX_FRAGMENT_DATA;

/// The CRTP ports used by the Crazyflie firmware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CrtpPort {
    /// Console text output (port 0) — the paper's scan results travel here.
    Console = 0x0,
    /// Parameter read/write (port 2).
    Param = 0x2,
    /// Commander setpoints (port 3) — waypoints go down this port.
    Commander = 0x3,
    /// Memory access (port 4).
    Mem = 0x4,
    /// Log telemetry (port 5).
    Log = 0x5,
    /// Localization data (port 6) — external position input.
    Localization = 0x6,
    /// Generic setpoint (port 7).
    GenericSetpoint = 0x7,
    /// Platform control (port 13).
    Platform = 0xD,
    /// Link-layer services: echo, ack, safelink (port 15).
    LinkLayer = 0xF,
}

impl CrtpPort {
    /// Decodes a port nibble.
    pub fn from_nibble(n: u8) -> Option<Self> {
        Some(match n {
            0x0 => CrtpPort::Console,
            0x2 => CrtpPort::Param,
            0x3 => CrtpPort::Commander,
            0x4 => CrtpPort::Mem,
            0x5 => CrtpPort::Log,
            0x6 => CrtpPort::Localization,
            0x7 => CrtpPort::GenericSetpoint,
            0xD => CrtpPort::Platform,
            0xF => CrtpPort::LinkLayer,
            _ => return None,
        })
    }
}

impl fmt::Display for CrtpPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Errors produced by CRTP encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrtpError {
    /// Payload exceeded [`MAX_PAYLOAD`] bytes.
    PayloadTooLong {
        /// Actual length supplied.
        len: usize,
    },
    /// Channel number above 3 (only 2 bits on the wire).
    InvalidChannel {
        /// The offending channel value.
        channel: u8,
    },
    /// The input buffer was empty or the port nibble unknown.
    MalformedFrame,
    /// A message longer than [`MAX_MESSAGE_LEN`] cannot be sequenced with
    /// one-byte fragment numbers.
    MessageTooLong {
        /// Actual length supplied.
        len: usize,
    },
}

impl fmt::Display for CrtpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrtpError::PayloadTooLong { len } => {
                write!(f, "payload of {len} bytes exceeds CRTP maximum of {MAX_PAYLOAD}")
            }
            CrtpError::InvalidChannel { channel } => {
                write!(f, "CRTP channel {channel} out of range 0..=3")
            }
            CrtpError::MalformedFrame => write!(f, "malformed CRTP frame"),
            CrtpError::MessageTooLong { len } => {
                write!(f, "message of {len} bytes exceeds fragmentable maximum of {MAX_MESSAGE_LEN}")
            }
        }
    }
}

impl std::error::Error for CrtpError {}

/// One CRTP packet.
///
/// # Examples
///
/// ```
/// use aerorem_radio::crtp::{CrtpPacket, CrtpPort};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pkt = CrtpPacket::new(CrtpPort::Commander, 1, vec![1, 2, 3])?;
/// let wire = pkt.encode();
/// assert_eq!(CrtpPacket::decode(&wire)?, pkt);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrtpPacket {
    port: CrtpPort,
    channel: u8,
    payload: Vec<u8>,
}

impl CrtpPacket {
    /// Creates a packet.
    ///
    /// # Errors
    ///
    /// Returns [`CrtpError::PayloadTooLong`] for payloads over 30 bytes and
    /// [`CrtpError::InvalidChannel`] for channels above 3.
    pub fn new(
        port: CrtpPort,
        channel: u8,
        payload: impl Into<Vec<u8>>,
    ) -> Result<Self, CrtpError> {
        let payload = payload.into();
        if payload.len() > MAX_PAYLOAD {
            return Err(CrtpError::PayloadTooLong {
                len: payload.len(),
            });
        }
        if channel > 3 {
            return Err(CrtpError::InvalidChannel { channel });
        }
        Ok(CrtpPacket {
            port,
            channel,
            payload,
        })
    }

    /// The packet's port.
    pub fn port(&self) -> CrtpPort {
        self.port
    }

    /// The packet's 2-bit channel.
    pub fn channel(&self) -> u8 {
        self.channel
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Total on-air length: header byte plus payload.
    pub fn wire_len(&self) -> usize {
        1 + self.payload.len()
    }

    /// Serializes to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        // Link bits 0b11 per the on-air format.
        let header = ((self.port as u8) << 4) | 0b1100 | self.channel;
        buf.push(header);
        buf.extend_from_slice(&self.payload);
        buf
    }

    /// Parses a packet from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CrtpError::MalformedFrame`] for empty buffers or unknown
    /// ports, [`CrtpError::PayloadTooLong`] for over-long frames.
    pub fn decode(wire: &[u8]) -> Result<Self, CrtpError> {
        let (&header, payload) = wire.split_first().ok_or(CrtpError::MalformedFrame)?;
        if payload.len() > MAX_PAYLOAD {
            return Err(CrtpError::PayloadTooLong {
                len: payload.len(),
            });
        }
        let port = CrtpPort::from_nibble(header >> 4).ok_or(CrtpError::MalformedFrame)?;
        let channel = header & 0b11;
        Ok(CrtpPacket {
            port,
            channel,
            payload: payload.to_vec(),
        })
    }

    /// Splits an arbitrarily long byte string into sequence-numbered packets
    /// on the given port/channel — how a multi-row scan result is shipped.
    ///
    /// Each payload starts with a `[seq, total]` header so the receiver can
    /// detect dropped, duplicated, and reordered fragments instead of
    /// silently concatenating whatever arrived. The per-fragment data budget
    /// is therefore [`MAX_FRAGMENT_DATA`] (28) bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CrtpError::InvalidChannel`] for channels above 3 and
    /// [`CrtpError::MessageTooLong`] past [`MAX_MESSAGE_LEN`] bytes (255
    /// one-byte-numbered fragments).
    pub fn fragment(
        port: CrtpPort,
        channel: u8,
        data: &[u8],
    ) -> Result<Vec<CrtpPacket>, CrtpError> {
        if channel > 3 {
            return Err(CrtpError::InvalidChannel { channel });
        }
        if data.len() > MAX_MESSAGE_LEN {
            return Err(CrtpError::MessageTooLong { len: data.len() });
        }
        let total = data.len().div_ceil(MAX_FRAGMENT_DATA).max(1) as u8;
        if data.is_empty() {
            return CrtpPacket::new(port, channel, vec![0, total]).map(|p| vec![p]);
        }
        data.chunks(MAX_FRAGMENT_DATA)
            .enumerate()
            .map(|(seq, c)| {
                let mut payload = Vec::with_capacity(FRAGMENT_HEADER_LEN + c.len());
                payload.push(seq as u8);
                payload.push(total);
                payload.extend_from_slice(c);
                CrtpPacket::new(port, channel, payload)
            })
            .collect()
    }

    /// Reassembles fragments produced by [`CrtpPacket::fragment`],
    /// reporting gaps, duplicates, and reordering instead of silently
    /// merging across losses.
    pub fn reassemble(packets: &[CrtpPacket]) -> Reassembly {
        let mut out = Reassembly::default();
        let mut last_seq: Option<u8> = None;
        for p in packets {
            if p.payload.len() < FRAGMENT_HEADER_LEN {
                out.malformed += 1;
                continue;
            }
            let (seq, total) = (p.payload[0], p.payload[1]);
            if total == 0 || seq >= total {
                out.malformed += 1;
                continue;
            }
            if out.slots.len() < total as usize {
                out.slots.resize(total as usize, None);
            }
            if last_seq.is_some_and(|prev| seq < prev) {
                out.reordered += 1;
            }
            last_seq = Some(seq);
            // lint:allow(slice-index) — seq < total was checked above and slots was resized to total
            let slot = &mut out.slots[seq as usize];
            if slot.is_some() {
                out.duplicates += 1;
            } else {
                // lint:allow(slice-index) — payload.len() ≥ FRAGMENT_HEADER_LEN was checked at the top of the loop
                *slot = Some(p.payload[FRAGMENT_HEADER_LEN..].to_vec());
                out.fragments_received += 1;
            }
        }
        out.fragments_lost = out.slots.iter().filter(|s| s.is_none()).count() as u64;
        out
    }
}

/// The result of [`CrtpPacket::reassemble`]: the surviving byte stream plus
/// an honest account of what the link did to it.
///
/// Dropped fragments leave *gaps*; text rows that straddle a gap must not be
/// trusted, because the tail of one row glued to the head of another can
/// still parse. [`Reassembly::lines`] applies that rule for
/// newline-delimited wire formats.
///
/// # Examples
///
/// ```
/// use aerorem_radio::crtp::{CrtpPacket, CrtpPort};
///
/// let data: Vec<u8> = (0..100).collect();
/// let frags = CrtpPacket::fragment(CrtpPort::Console, 0, &data).unwrap();
/// let whole = CrtpPacket::reassemble(&frags);
/// assert!(whole.is_complete());
/// assert_eq!(whole.contiguous().unwrap(), data);
///
/// let lossy: Vec<_> = frags.iter().skip(1).cloned().collect();
/// let partial = CrtpPacket::reassemble(&lossy);
/// assert!(!partial.is_complete());
/// assert_eq!(partial.fragments_lost, 1);
/// assert!(partial.contiguous().is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reassembly {
    /// One slot per declared fragment; `None` marks a gap.
    slots: Vec<Option<Vec<u8>>>,
    /// Distinct fragments that arrived.
    pub fragments_received: u64,
    /// Declared fragments that never arrived (gaps, including lost tails).
    pub fragments_lost: u64,
    /// Re-deliveries of a sequence number already seen.
    pub duplicates: u64,
    /// Arrival-order inversions observed (healed by sequence numbers).
    pub reordered: u64,
    /// Packets too short to carry a fragment header, or with an
    /// inconsistent one.
    pub malformed: u64,
}

impl Reassembly {
    /// True when every declared fragment arrived intact. An empty packet
    /// list reassembles to a trivially complete empty stream — callers who
    /// expected data must compare against their own expected counts.
    pub fn is_complete(&self) -> bool {
        self.fragments_lost == 0 && self.malformed == 0
    }

    /// The full byte stream, available only when [`Self::is_complete`].
    pub fn contiguous(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut out = Vec::new();
        for slot in &self.slots {
            out.extend_from_slice(slot.as_deref().unwrap_or(&[]));
        }
        Some(out)
    }

    /// Contiguous byte runs between gaps, with gap-adjacency flags.
    fn runs(&self) -> Vec<(Vec<u8>, bool, bool)> {
        let mut runs = Vec::new();
        let mut current: Option<(Vec<u8>, bool)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            match slot {
                Some(bytes) => {
                    let run = current.get_or_insert_with(|| (Vec::new(), i > 0));
                    run.0.extend_from_slice(bytes);
                }
                None => {
                    if let Some((bytes, preceded)) = current.take() {
                        runs.push((bytes, preceded, true));
                    }
                }
            }
        }
        if let Some((bytes, preceded)) = current {
            runs.push((bytes, preceded, false));
        }
        runs
    }

    /// Extracts the newline-terminated rows that are provably intact and
    /// counts the partial row fragments discarded at gap edges.
    ///
    /// A segment that touches a gap — the text before the first newline of a
    /// gap-preceded run, or after the last newline of a gap-followed run —
    /// may be the surviving piece of a longer row, so it is quarantined
    /// rather than delivered, even if it would parse.
    pub fn lines(&self) -> RecoveredLines {
        let mut out = RecoveredLines::default();
        for (bytes, preceded_by_gap, followed_by_gap) in self.runs() {
            let mut segments: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
            // `split` always yields a final element: the bytes after the
            // last newline (empty when the run ends on a row boundary).
            let tail = segments.pop().unwrap_or(&[]);
            for (i, seg) in segments.iter().enumerate() {
                if i == 0 && preceded_by_gap {
                    if !seg.is_empty() {
                        out.quarantined += 1;
                    }
                    continue;
                }
                if !seg.is_empty() {
                    out.lines.push(String::from_utf8_lossy(seg).into_owned());
                }
            }
            if !tail.is_empty() {
                let suspect =
                    followed_by_gap || (segments.is_empty() && preceded_by_gap);
                if suspect {
                    out.quarantined += 1;
                } else {
                    out.lines.push(String::from_utf8_lossy(tail).into_owned());
                }
            }
        }
        out
    }
}

/// Rows recovered from a lossy reassembly: the intact lines plus a count of
/// quarantined gap-edge fragments (candidate corrupted rows).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredLines {
    /// Rows whose every byte arrived between two row boundaries.
    pub lines: Vec<String>,
    /// Non-empty partial segments discarded because they touched a gap.
    pub quarantined: u64,
}

impl fmt::Display for CrtpPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CRTP[{:?}.{} {}B]",
            self.port,
            self.channel,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_ports() {
        for nibble in 0..16u8 {
            if let Some(port) = CrtpPort::from_nibble(nibble) {
                let pkt = CrtpPacket::new(port, 2, vec![0xAB; 7]).unwrap();
                let decoded = CrtpPacket::decode(&pkt.encode()).unwrap();
                assert_eq!(decoded, pkt);
            }
        }
    }

    #[test]
    fn header_layout() {
        let pkt = CrtpPacket::new(CrtpPort::Commander, 1, vec![]).unwrap();
        let wire = pkt.encode();
        assert_eq!(wire.len(), 1);
        // port 3 << 4 | link 0b11 << 2 | channel 1.
        assert_eq!(wire[0], 0x3D);
    }

    #[test]
    fn payload_limit_enforced() {
        assert!(CrtpPacket::new(CrtpPort::Console, 0, vec![0; 30]).is_ok());
        assert!(matches!(
            CrtpPacket::new(CrtpPort::Console, 0, vec![0; 31]),
            Err(CrtpError::PayloadTooLong { len: 31 })
        ));
    }

    #[test]
    fn channel_limit_enforced() {
        assert!(CrtpPacket::new(CrtpPort::Console, 3, vec![]).is_ok());
        assert!(matches!(
            CrtpPacket::new(CrtpPort::Console, 4, vec![]),
            Err(CrtpError::InvalidChannel { channel: 4 })
        ));
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert_eq!(CrtpPacket::decode(&[]), Err(CrtpError::MalformedFrame));
        // Port nibble 0x8 is unassigned.
        assert_eq!(
            CrtpPacket::decode(&[0x8C]),
            Err(CrtpError::MalformedFrame)
        );
        let long = vec![0x0C; 32];
        assert!(matches!(
            CrtpPacket::decode(&long),
            Err(CrtpError::PayloadTooLong { .. })
        ));
    }

    #[test]
    fn fragmentation_round_trip() {
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let frags = CrtpPacket::fragment(CrtpPort::Console, 0, &data).unwrap();
        assert_eq!(frags.len(), 8); // ceil(200 / 28)
        assert!(frags.iter().all(|f| f.payload().len() <= MAX_PAYLOAD));
        let whole = CrtpPacket::reassemble(&frags);
        assert!(whole.is_complete());
        assert_eq!(whole.fragments_received, 8);
        assert_eq!(whole.contiguous().unwrap(), data);
    }

    #[test]
    fn fragment_empty_data_yields_one_header_only_packet() {
        let frags = CrtpPacket::fragment(CrtpPort::Console, 0, &[]).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].payload(), &[0, 1]);
        let whole = CrtpPacket::reassemble(&frags);
        assert!(whole.is_complete());
        assert!(whole.contiguous().unwrap().is_empty());
    }

    #[test]
    fn fragment_validates_channel() {
        assert!(CrtpPacket::fragment(CrtpPort::Console, 7, b"x").is_err());
    }

    #[test]
    fn fragment_rejects_oversized_message() {
        let data = vec![0u8; MAX_MESSAGE_LEN + 1];
        assert!(matches!(
            CrtpPacket::fragment(CrtpPort::Console, 0, &data),
            Err(CrtpError::MessageTooLong { .. })
        ));
        assert!(CrtpPacket::fragment(CrtpPort::Console, 0, &data[..MAX_MESSAGE_LEN]).is_ok());
    }

    #[test]
    fn reassemble_detects_gaps_and_withholds_contiguous() {
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let mut frags = CrtpPacket::fragment(CrtpPort::Console, 0, &data).unwrap();
        frags.remove(3);
        let partial = CrtpPacket::reassemble(&frags);
        assert!(!partial.is_complete());
        assert_eq!(partial.fragments_lost, 1);
        assert_eq!(partial.fragments_received, 7);
        assert!(partial.contiguous().is_none());
    }

    #[test]
    fn reassemble_detects_lost_tail() {
        let data = vec![7u8; 100];
        let frags = CrtpPacket::fragment(CrtpPort::Console, 0, &data).unwrap();
        let truncated = &frags[..frags.len() - 2];
        let partial = CrtpPacket::reassemble(truncated);
        assert_eq!(partial.fragments_lost, 2);
        assert!(!partial.is_complete());
    }

    #[test]
    fn reassemble_heals_reordering_and_counts_duplicates() {
        let data: Vec<u8> = (0..90).collect();
        let frags = CrtpPacket::fragment(CrtpPort::Console, 0, &data).unwrap();
        let mut shuffled = frags.clone();
        shuffled.reverse();
        shuffled.push(frags[0].clone());
        let whole = CrtpPacket::reassemble(&shuffled);
        assert!(whole.is_complete());
        assert!(whole.reordered > 0);
        assert_eq!(whole.duplicates, 1);
        assert_eq!(whole.contiguous().unwrap(), data);
    }

    #[test]
    fn reassemble_counts_malformed_fragments() {
        // A header-less packet and a seq >= total packet are both rejected.
        let bad_short = CrtpPacket::new(CrtpPort::Console, 0, vec![1]).unwrap();
        let bad_seq = CrtpPacket::new(CrtpPort::Console, 0, vec![5, 2, b'x']).unwrap();
        let out = CrtpPacket::reassemble(&[bad_short, bad_seq]);
        assert_eq!(out.malformed, 2);
        assert!(!out.is_complete());
    }

    #[test]
    fn lines_quarantines_rows_straddling_gaps() {
        let wire = b"row-one\nrow-two\nrow-three\nrow-four\nrow-five\n".repeat(3);
        let mut frags = CrtpPacket::fragment(CrtpPort::Console, 0, &wire).unwrap();
        frags.remove(2); // drop a mid-stream fragment
        let recovered = CrtpPacket::reassemble(&frags).lines();
        // Every delivered line is one of the sent rows, never a splice.
        for line in &recovered.lines {
            assert!(
                ["row-one", "row-two", "row-three", "row-four", "row-five"]
                    .contains(&line.as_str()),
                "spliced row leaked through: {line:?}"
            );
        }
        assert!(recovered.quarantined > 0);
    }

    #[test]
    fn lines_on_complete_stream_delivers_everything() {
        let wire = b"alpha\nbeta\ngamma\n";
        let frags = CrtpPacket::fragment(CrtpPort::Console, 0, wire).unwrap();
        let recovered = CrtpPacket::reassemble(&frags).lines();
        assert_eq!(recovered.lines, vec!["alpha", "beta", "gamma"]);
        assert_eq!(recovered.quarantined, 0);
    }

    #[test]
    fn wire_len() {
        let pkt = CrtpPacket::new(CrtpPort::Log, 0, vec![0; 10]).unwrap();
        assert_eq!(pkt.wire_len(), 11);
        assert_eq!(pkt.encode().len(), 11);
    }

    #[test]
    fn accessors_and_display() {
        let pkt = CrtpPacket::new(CrtpPort::Param, 2, vec![9]).unwrap();
        assert_eq!(pkt.port(), CrtpPort::Param);
        assert_eq!(pkt.channel(), 2);
        assert_eq!(pkt.payload(), &[9]);
        assert!(format!("{pkt}").contains("Param"));
        assert!(CrtpError::MalformedFrame.to_string().contains("malformed"));
    }
}
