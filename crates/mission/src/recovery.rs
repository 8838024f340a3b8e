//! Fault-recovery policies for the mission layer.
//!
//! The paper's firmware patch set (§II-C) keeps the *UAV* alive through
//! radio-off scans and watchdog resets; this module gives the *base
//! station* the matching behaviour: a faulted receiver is re-initialized
//! and the scan re-attempted at the same waypoint — bounded and
//! deterministic — instead of silently losing every remaining waypoint of
//! the leg.

use aerorem_simkit::SimDuration;

/// A bounded, deterministic retry schedule for failed scans.
///
/// The policy is **RNG-stream-safe**: it draws no randomness itself, and on
/// the fault-free path it changes nothing — a campaign that never faults
/// produces bit-identical results under any policy. Retries only add work
/// (and battery drain) *after* a fault, where the sample stream has already
/// diverged from the fault-free run.
///
/// # Examples
///
/// ```
/// use aerorem_mission::recovery::RetryPolicy;
/// use aerorem_simkit::SimDuration;
///
/// let policy = RetryPolicy::paper_default();
/// assert_eq!(policy.max_retries, 2);
/// assert_eq!(policy.backoff(0), SimDuration::from_millis(500));
/// assert_eq!(policy.backoff(1), SimDuration::from_millis(1000));
/// assert_eq!(RetryPolicy::none().max_retries, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts after the first failed scan of a waypoint (0 = the old
    /// skip-on-first-fault behaviour).
    pub max_retries: u32,
    /// Hold duration before the first retry; the UAV keeps station on the
    /// feedback task while the receiver re-initializes.
    pub base_backoff: SimDuration,
    /// Multiplier applied to the backoff on each further retry.
    pub backoff_multiplier: u32,
}

impl RetryPolicy {
    /// No retries: a scan fault skips the waypoint immediately.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: SimDuration::ZERO,
            backoff_multiplier: 1,
        }
    }

    /// Two retries with 500 ms exponential backoff — comfortably inside a
    /// waypoint's battery budget (a retry costs one backoff hold plus one
    /// extra scan window).
    pub const fn paper_default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: SimDuration::from_millis(500),
            backoff_multiplier: 2,
        }
    }

    /// The hold duration before retry number `retry` (0-based):
    /// `base_backoff * backoff_multiplier^retry`.
    pub fn backoff(&self, retry: u32) -> SimDuration {
        let factor = u64::from(self.backoff_multiplier).saturating_pow(retry);
        self.base_backoff * factor
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::paper_default()
    }
}

/// Deterministic receiver-fault schedule for failure-injection runs.
///
/// Within every `period` scan attempts of a leg, the last `burst`
/// deterministically fault (see
/// `Esp01Receiver::with_fault_injection`). A `burst` of 2 or more
/// survives one re-init, modelling a *sticky* module fault that only a
/// multi-retry policy can ride out. Draws no randomness and the counter
/// resets with each leg's fresh receiver, so checkpoint/resume stays
/// bit-identical.
///
/// # Examples
///
/// ```
/// use aerorem_mission::recovery::ScanFaultInjection;
///
/// let inj = ScanFaultInjection { period: 3, burst: 2 };
/// assert!(inj.burst < inj.period, "some scans must still succeed");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanFaultInjection {
    /// Schedule length in measure attempts.
    pub period: u32,
    /// Consecutive faulted attempts at the end of each period.
    pub burst: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff: SimDuration::from_millis(100),
            backoff_multiplier: 3,
        };
        assert_eq!(p.backoff(0), SimDuration::from_millis(100));
        assert_eq!(p.backoff(1), SimDuration::from_millis(300));
        assert_eq!(p.backoff(2), SimDuration::from_millis(900));
    }

    #[test]
    fn none_policy_is_inert() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.backoff(0), SimDuration::ZERO);
        assert_eq!(p.backoff(7), SimDuration::ZERO);
    }

    #[test]
    fn default_is_the_paper_default() {
        assert_eq!(RetryPolicy::default(), RetryPolicy::paper_default());
    }
}
