//! The UAV-side radio link: uplink queue + radio on/off state machine.
//!
//! §II-C of the paper: "the radio is shut down right before the scan starts
//! and restarted again after the scan has finished", and
//! "`CRTP_TX_QUEUE_SIZE` was increased so that full scan results can be
//! temporarily stored until the radio comes back online". [`RadioLink`]
//! models exactly that: while the radio is off, uplink packets accumulate in
//! a bounded queue; with the stock queue size a full scan result overflows
//! (packets are lost), with the paper's patched size it fits.

use std::collections::VecDeque;
use std::fmt;

use crate::crtp::CrtpPacket;

/// The Crazyflie 2021.06 stock uplink queue depth (packets).
pub const DEFAULT_TX_QUEUE_SIZE: usize = 16;

/// The paper's enlarged uplink queue depth (packets), sized so a full
/// multi-row scan result fits while the radio is down.
pub const PATCHED_TX_QUEUE_SIZE: usize = 128;

/// Link configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Uplink (UAV → base station) queue depth in packets.
    pub tx_queue_size: usize,
    /// One-way link latency in milliseconds while the radio is on.
    pub latency_ms: f64,
}

impl LinkConfig {
    /// Stock firmware: 16-packet queue.
    pub fn firmware_default() -> Self {
        LinkConfig {
            tx_queue_size: DEFAULT_TX_QUEUE_SIZE,
            latency_ms: 4.0,
        }
    }

    /// The paper's patched firmware: 128-packet queue.
    pub fn paper_patched() -> Self {
        LinkConfig {
            tx_queue_size: PATCHED_TX_QUEUE_SIZE,
            latency_ms: 4.0,
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::paper_patched()
    }
}

/// Errors from link operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The uplink queue is full; the packet was dropped.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::QueueFull { capacity } => {
                write!(f, "uplink queue full (capacity {capacity} packets)")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// The UAV's CRTP link endpoint.
///
/// # Examples
///
/// Demonstrating the overflow the paper's firmware patch fixes:
///
/// ```
/// use aerorem_radio::crtp::{CrtpPacket, CrtpPort};
/// use aerorem_radio::link::{LinkConfig, RadioLink};
///
/// let mut stock = RadioLink::new(LinkConfig::firmware_default());
/// stock.set_radio_on(false);
/// let row = CrtpPacket::new(CrtpPort::Console, 0, vec![0u8; 30]).unwrap();
/// let mut dropped = 0;
/// for _ in 0..60 {
///     if stock.enqueue_uplink(row.clone()).is_err() { dropped += 1; }
/// }
/// assert!(dropped > 0, "stock queue cannot hold a full scan result");
/// ```
#[derive(Debug, Clone)]
pub struct RadioLink {
    config: LinkConfig,
    radio_on: bool,
    uplink: VecDeque<CrtpPacket>,
    dropped: u64,
    delivered: u64,
}

impl RadioLink {
    /// Creates a link with the radio on and an empty queue.
    ///
    /// # Panics
    ///
    /// Panics if the configured queue size is zero.
    pub fn new(config: LinkConfig) -> Self {
        assert!(config.tx_queue_size > 0, "queue size must be positive");
        RadioLink {
            config,
            radio_on: true,
            uplink: VecDeque::with_capacity(config.tx_queue_size),
            dropped: 0,
            delivered: 0,
        }
    }

    /// The link configuration.
    pub fn config(&self) -> LinkConfig {
        self.config
    }

    /// Whether the radio is currently powered.
    pub fn is_radio_on(&self) -> bool {
        self.radio_on
    }

    /// Powers the radio on or off. Turning it off does not discard queued
    /// packets — that is the whole point of the uplink buffer.
    pub fn set_radio_on(&mut self, on: bool) {
        self.radio_on = on;
    }

    /// Queues a packet for uplink.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::QueueFull`] when the buffer is at capacity; the
    /// packet is dropped, mirroring the firmware's behaviour.
    pub fn enqueue_uplink(&mut self, packet: CrtpPacket) -> Result<(), LinkError> {
        if self.uplink.len() >= self.config.tx_queue_size {
            self.dropped += 1;
            return Err(LinkError::QueueFull {
                capacity: self.config.tx_queue_size,
            });
        }
        self.uplink.push_back(packet);
        Ok(())
    }

    /// Number of packets waiting in the uplink queue.
    pub fn uplink_pending(&self) -> usize {
        self.uplink.len()
    }

    /// Packets dropped so far due to queue overflow.
    pub fn uplink_dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets successfully drained so far.
    pub fn uplink_delivered(&self) -> u64 {
        self.delivered
    }

    /// Drains every queued packet to the base station. Returns an empty
    /// vector while the radio is off (nothing can leave the UAV).
    pub fn drain_uplink(&mut self) -> Vec<CrtpPacket> {
        if !self.radio_on {
            return Vec::new();
        }
        let out: Vec<CrtpPacket> = self.uplink.drain(..).collect();
        self.delivered += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crtp::CrtpPort;

    fn row(i: u8) -> CrtpPacket {
        CrtpPacket::new(CrtpPort::Console, 0, vec![i; 20]).expect("valid packet")
    }

    #[test]
    fn radio_off_buffers_packets() {
        let mut link = RadioLink::new(LinkConfig::paper_patched());
        link.set_radio_on(false);
        for i in 0..50 {
            link.enqueue_uplink(row(i)).unwrap();
        }
        assert_eq!(link.uplink_pending(), 50);
        assert!(link.drain_uplink().is_empty(), "radio is off");
        link.set_radio_on(true);
        let drained = link.drain_uplink();
        assert_eq!(drained.len(), 50);
        assert_eq!(link.uplink_delivered(), 50);
        assert_eq!(link.uplink_pending(), 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut link = RadioLink::new(LinkConfig::paper_patched());
        for i in 0..10 {
            link.enqueue_uplink(row(i)).unwrap();
        }
        let out = link.drain_uplink();
        for (i, p) in out.iter().enumerate() {
            assert_eq!(p.payload()[0], i as u8);
        }
    }

    #[test]
    fn stock_queue_overflows_on_full_scan() {
        // ~37 detected APs × ~40 B per row / 30 B per packet ≈ 50 packets.
        let mut stock = RadioLink::new(LinkConfig::firmware_default());
        stock.set_radio_on(false);
        let mut dropped = 0;
        for i in 0..50 {
            if stock.enqueue_uplink(row(i)).is_err() {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 50 - DEFAULT_TX_QUEUE_SIZE);
        assert_eq!(stock.uplink_dropped(), dropped as u64);
    }

    #[test]
    fn patched_queue_holds_full_scan() {
        let mut patched = RadioLink::new(LinkConfig::paper_patched());
        patched.set_radio_on(false);
        for i in 0..50 {
            patched.enqueue_uplink(row(i)).unwrap();
        }
        assert_eq!(patched.uplink_dropped(), 0);
    }

    #[test]
    fn error_display() {
        let e = LinkError::QueueFull { capacity: 16 };
        assert!(e.to_string().contains("16"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_queue_size_panics() {
        RadioLink::new(LinkConfig {
            tx_queue_size: 0,
            latency_ms: 1.0,
        });
    }

    #[test]
    fn defaults() {
        assert_eq!(LinkConfig::default(), LinkConfig::paper_patched());
        let link = RadioLink::new(LinkConfig::default());
        assert!(link.is_radio_on());
        assert_eq!(link.config().tx_queue_size, PATCHED_TX_QUEUE_SIZE);
    }
}
