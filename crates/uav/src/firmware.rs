//! Firmware configuration: stock Crazyflie 2021.06 vs the paper's patches.
//!
//! §II-C describes two firmware changes required to survive the radio-off
//! scan window: "First, the `CRTP_TX_QUEUE_SIZE` was increased so that full
//! scan results can be temporarily stored … Second, the
//! `COMMANDER_WDT_TIMEOUT_SHUTDOWN` was increased to 10 sec." Plus the extra
//! FreeRTOS task that "will feed back the scanning position every 100 ms to
//! the UAV's commander during such a scan".

use aerorem_simkit::SimDuration;

/// All firmware knobs the paper touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirmwareConfig {
    /// `COMMANDER_WDT_TIMEOUT_SHUTDOWN`: no setpoint for this long → motors
    /// shut down.
    pub wdt_timeout: SimDuration,
    /// The softer commander timeout: no setpoint for this long → attitude
    /// leveled to zero (the 500 ms rule).
    pub stabilize_timeout: SimDuration,
    /// `CRTP_TX_QUEUE_SIZE` in packets.
    pub tx_queue_size: usize,
    /// Period of the position-hold feedback task (present only in the
    /// patched firmware).
    pub feedback_period: Option<SimDuration>,
}

impl FirmwareConfig {
    /// The stock 2021.06 release: 2 s shutdown watchdog, 500 ms stabilize
    /// rule, 16-packet TX queue, no feedback task.
    pub fn stock_2021_06() -> Self {
        FirmwareConfig {
            wdt_timeout: SimDuration::from_secs(2),
            stabilize_timeout: SimDuration::from_millis(500),
            tx_queue_size: 16,
            feedback_period: None,
        }
    }

    /// The paper's patched firmware: 10 s watchdog, enlarged queue, 100 ms
    /// position-hold feedback task.
    pub fn paper_patched() -> Self {
        FirmwareConfig {
            wdt_timeout: SimDuration::from_secs(10),
            stabilize_timeout: SimDuration::from_millis(500),
            tx_queue_size: 128,
            feedback_period: Some(SimDuration::from_millis(100)),
        }
    }

    /// Whether the position-hold feedback task exists.
    pub fn has_feedback_task(&self) -> bool {
        self.feedback_period.is_some()
    }
}

impl Default for FirmwareConfig {
    fn default() -> Self {
        Self::paper_patched()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_vs_patched() {
        let stock = FirmwareConfig::stock_2021_06();
        let patched = FirmwareConfig::paper_patched();
        assert_eq!(stock.wdt_timeout, SimDuration::from_secs(2));
        assert_eq!(patched.wdt_timeout, SimDuration::from_secs(10));
        assert!(patched.tx_queue_size > stock.tx_queue_size);
        assert!(!stock.has_feedback_task());
        assert!(patched.has_feedback_task());
        assert_eq!(stock.stabilize_timeout, patched.stabilize_timeout);
    }

    #[test]
    fn paper_scan_window_fits_only_patched() {
        // A 3 s scan window with no radio: the stock WDT (2 s) trips, the
        // patched one (10 s) does not.
        let scan = SimDuration::from_secs(3);
        assert!(scan > FirmwareConfig::stock_2021_06().wdt_timeout);
        assert!(scan < FirmwareConfig::paper_patched().wdt_timeout);
    }

    #[test]
    fn default_is_patched() {
        assert_eq!(FirmwareConfig::default(), FirmwareConfig::paper_patched());
    }
}
