//! Battery and endurance model.
//!
//! Calibration targets from §III-A of the paper:
//!
//! * bare Crazyflie: "flight time of up to 7 min";
//! * with LPD + ESP deck, hovering with a scan every 8 s: **36 scans in
//!   6 min 12 s** before erratic behaviour;
//! * the two-UAV campaign: UAV A active 5 min 3 s, UAV B 5 min, each
//!   flying 36 waypoints (4 s travel + 3 s scan) — "the UAVs were expected
//!   to operate at their operating limits".

use aerorem_simkit::SimDuration;

/// Static battery/power configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryConfig {
    /// Usable capacity in mAh.
    pub capacity_mah: f64,
    /// Average current draw while hovering, bare airframe, in mA.
    pub hover_draw_ma: f64,
    /// Extra draw while translating between waypoints, in mA.
    pub flight_extra_ma: f64,
    /// Standing draw of the Loco Positioning Deck, in mA.
    pub lpd_draw_ma: f64,
    /// Standing draw of the ESP8266 deck (idle), in mA.
    pub esp_idle_ma: f64,
    /// Extra ESP8266 draw while actively scanning, in mA.
    pub esp_scan_extra_ma: f64,
    /// Fraction of capacity below which flight becomes erratic — the
    /// paper's endurance test ended when the UAV "became less responsive
    /// and its motions erratic".
    pub erratic_fraction: f64,
}

impl BatteryConfig {
    /// Calibrated Crazyflie 2.1 preset (250 mAh pack).
    ///
    /// Bare hover ≈ 2 050 mA → ≈ 7.3 min, matching the "up to 7 min" spec.
    /// With both decks and periodic scanning the draw rises to ≈ 2 310 mA,
    /// hitting the erratic threshold after ≈ 6.2 min — the paper's
    /// endurance result.
    pub fn paper_crazyflie() -> Self {
        BatteryConfig {
            capacity_mah: 250.0,
            hover_draw_ma: 2050.0,
            flight_extra_ma: 180.0,
            lpd_draw_ma: 90.0,
            esp_idle_ma: 75.0,
            esp_scan_extra_ma: 110.0,
            erratic_fraction: 0.045,
        }
    }

    /// Predicted bare-airframe hover endurance.
    pub fn bare_hover_endurance(&self) -> SimDuration {
        let hours = self.capacity_mah * (1.0 - self.erratic_fraction) / self.hover_draw_ma;
        SimDuration::from_secs_f64(hours * 3600.0)
    }
}

impl Default for BatteryConfig {
    fn default() -> Self {
        Self::paper_crazyflie()
    }
}

/// What the vehicle is doing, for draw accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PowerState {
    /// Motors running (hover or flight).
    pub airborne: bool,
    /// Translating (extra draw over hover).
    pub translating: bool,
    /// Both expansion decks mounted.
    pub decks_mounted: bool,
    /// The ESP deck is actively scanning.
    pub scanning: bool,
}

impl PowerState {
    /// Hovering with both decks, not scanning.
    pub fn hover_with_decks() -> Self {
        PowerState {
            airborne: true,
            translating: false,
            decks_mounted: true,
            scanning: false,
        }
    }
}

/// A depleting battery.
///
/// # Examples
///
/// ```
/// use aerorem_uav::battery::{Battery, BatteryConfig, PowerState};
/// use aerorem_simkit::SimDuration;
///
/// let mut b = Battery::new(BatteryConfig::paper_crazyflie());
/// b.drain(SimDuration::from_secs(60), PowerState::hover_with_decks());
/// assert!(b.remaining_fraction() < 1.0);
/// assert!(!b.is_erratic());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    config: BatteryConfig,
    remaining_mah: f64,
}

impl Battery {
    /// A fully charged battery.
    pub fn new(config: BatteryConfig) -> Self {
        Battery {
            remaining_mah: config.capacity_mah,
            config,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &BatteryConfig {
        &self.config
    }

    /// Instantaneous draw for a power state, in mA.
    pub fn draw_ma(&self, state: PowerState) -> f64 {
        let mut ma = 0.0;
        if state.airborne {
            ma += self.config.hover_draw_ma;
            if state.translating {
                ma += self.config.flight_extra_ma;
            }
            if state.decks_mounted {
                // Deck mass increases the hover thrust requirement ~6 %.
                ma += 0.06 * self.config.hover_draw_ma;
            }
        }
        if state.decks_mounted {
            ma += self.config.lpd_draw_ma + self.config.esp_idle_ma;
            if state.scanning {
                ma += self.config.esp_scan_extra_ma;
            }
        }
        ma
    }

    /// Drains the battery for `duration` in the given power state.
    pub fn drain(&mut self, duration: SimDuration, state: PowerState) {
        let hours = duration.as_secs_f64() / 3600.0;
        self.remaining_mah = (self.remaining_mah - self.draw_ma(state) * hours).max(0.0);
    }

    /// Remaining charge in mAh.
    pub fn remaining_mah(&self) -> f64 {
        self.remaining_mah
    }

    /// Remaining charge as a fraction of capacity.
    pub fn remaining_fraction(&self) -> f64 {
        self.remaining_mah / self.config.capacity_mah
    }

    /// Whether the pack has sagged into the erratic-flight region.
    pub fn is_erratic(&self) -> bool {
        self.remaining_fraction() <= self.config.erratic_fraction
    }

    /// Whether the pack is fully depleted.
    pub fn is_depleted(&self) -> bool {
        self.remaining_mah <= 0.0
    }

    /// Predicted remaining endurance in the given power state.
    pub fn endurance(&self, state: PowerState) -> SimDuration {
        let usable =
            (self.remaining_mah - self.config.erratic_fraction * self.config.capacity_mah).max(0.0);
        let hours = usable / self.draw_ma(state).max(1.0);
        SimDuration::from_secs_f64(hours * 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_hover_endurance_near_7_min() {
        let cfg = BatteryConfig::paper_crazyflie();
        let secs = cfg.bare_hover_endurance().as_secs_f64();
        assert!(
            (6.5 * 60.0..7.5 * 60.0).contains(&secs),
            "bare endurance {secs} s"
        );
    }

    #[test]
    fn decked_scanning_endurance_near_paper_test() {
        // The endurance test: hover with decks, scanning ~25 % of the time
        // (2 s scan every 8 s). Expect ≈ 6 min 12 s ± 30 s.
        let mut b = Battery::new(BatteryConfig::paper_crazyflie());
        let mut secs = 0.0;
        let dt = SimDuration::from_millis(500);
        while !b.is_erratic() {
            let scanning = (secs % 8.0) < 2.0;
            b.drain(
                dt,
                PowerState {
                    scanning,
                    ..PowerState::hover_with_decks()
                },
            );
            secs += 0.5;
            assert!(secs < 1000.0, "battery never went erratic");
        }
        assert!(
            (330.0..430.0).contains(&secs),
            "decked endurance {secs} s vs paper 372 s"
        );
    }

    #[test]
    fn draw_ordering() {
        let b = Battery::new(BatteryConfig::paper_crazyflie());
        let bare = b.draw_ma(PowerState {
            airborne: true,
            translating: false,
            decks_mounted: false,
            scanning: false,
        });
        let decked = b.draw_ma(PowerState::hover_with_decks());
        let scanning = b.draw_ma(PowerState {
            scanning: true,
            ..PowerState::hover_with_decks()
        });
        let flying = b.draw_ma(PowerState {
            translating: true,
            ..PowerState::hover_with_decks()
        });
        assert!(bare < decked);
        assert!(decked < scanning);
        assert!(decked < flying);
    }

    #[test]
    fn grounded_draw_is_deck_only() {
        let b = Battery::new(BatteryConfig::paper_crazyflie());
        let grounded = b.draw_ma(PowerState {
            airborne: false,
            translating: false,
            decks_mounted: true,
            scanning: false,
        });
        let cfg = b.config();
        assert!((grounded - cfg.lpd_draw_ma - cfg.esp_idle_ma).abs() < 1e-9);
    }

    #[test]
    fn drain_monotone_and_floored() {
        let mut b = Battery::new(BatteryConfig::paper_crazyflie());
        b.drain(SimDuration::from_secs(3600), PowerState::hover_with_decks());
        assert!(b.is_depleted());
        assert_eq!(b.remaining_mah(), 0.0);
        assert!(b.is_erratic());
        // Further drain stays at zero.
        b.drain(SimDuration::from_secs(60), PowerState::hover_with_decks());
        assert_eq!(b.remaining_mah(), 0.0);
    }

    #[test]
    fn endurance_prediction_consistent_with_drain() {
        let b = Battery::new(BatteryConfig::paper_crazyflie());
        let state = PowerState::hover_with_decks();
        let predicted = b.endurance(state).as_secs_f64();
        let mut sim = b.clone();
        let mut secs = 0.0;
        while !sim.is_erratic() {
            sim.drain(SimDuration::from_secs(1), state);
            secs += 1.0;
        }
        assert!((predicted - secs).abs() < 5.0, "{predicted} vs {secs}");
    }

    #[test]
    fn fresh_battery_full() {
        let b = Battery::new(BatteryConfig::paper_crazyflie());
        assert_eq!(b.remaining_fraction(), 1.0);
        assert!(!b.is_erratic());
        assert!(!b.is_depleted());
    }
}
