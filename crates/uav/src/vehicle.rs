//! The assembled UAV: dynamics + battery + commander + localization.

use std::fmt;

use rand::Rng;

use aerorem_localization::{AnchorConstellation, Ekf, RangingConfig};
use aerorem_simkit::{SimDuration, SimTime};
use aerorem_spatial::Vec3;

use crate::battery::{Battery, BatteryConfig, PowerState};
use crate::commander::{Commander, CommanderState};
use crate::dynamics::{ControlInput, DynamicsConfig, Quadrotor};
use crate::firmware::FirmwareConfig;

/// Identifier of one UAV in the fleet ("UAV A", "UAV B", …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UavId(pub u8);

impl fmt::Display for UavId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 0 → "UAV A", 1 → "UAV B", like the paper's naming.
        let letter = (b'A' + self.0 % 26) as char;
        write!(f, "UAV {letter}")
    }
}

/// Coarse flight mode derived from the vehicle's parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightMode {
    /// On the floor, motors off.
    Grounded,
    /// In the air under commander control.
    Airborne,
    /// Commander watchdog fired: motors cut (falling or fallen).
    Shutdown,
    /// Battery sagged into the erratic region: flight no longer reliable.
    Erratic,
}

/// One simulated Crazyflie with both expansion decks.
///
/// # Examples
///
/// ```
/// use aerorem_uav::{Uav, UavId};
/// use aerorem_uav::firmware::FirmwareConfig;
/// use aerorem_localization::{AnchorConstellation, RangingConfig, RangingMode};
/// use aerorem_simkit::SimTime;
/// use aerorem_spatial::{Aabb, Vec3};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let anchors = AnchorConstellation::volume_corners(Aabb::paper_volume());
/// let mut uav = Uav::new(
///     UavId(0),
///     FirmwareConfig::paper_patched(),
///     RangingConfig::lps_default(RangingMode::Tdoa),
///     Vec3::new(0.3, 0.3, 0.0),
/// );
/// uav.commander_mut().set_setpoint(SimTime::ZERO, Vec3::new(0.3, 0.3, 1.0));
/// for step in 1..=200 {
///     let now = SimTime::from_millis(step * 10);
///     uav.commander_mut().set_setpoint(now, Vec3::new(0.3, 0.3, 1.0));
///     uav.step(now, 0.01, &anchors, &mut rng);
/// }
/// assert!((uav.true_position().z - 1.0).abs() < 0.15, "took off");
/// ```
#[derive(Debug, Clone)]
pub struct Uav {
    id: UavId,
    quad: Quadrotor,
    battery: Battery,
    commander: Commander,
    ekf: Ekf,
    ranging: RangingConfig,
    scanning: bool,
    last_step: Option<SimTime>,
}

impl Uav {
    /// Creates a grounded, fully charged UAV at `start` with default
    /// Crazyflie dynamics and battery.
    pub fn new(id: UavId, firmware: FirmwareConfig, ranging: RangingConfig, start: Vec3) -> Self {
        Uav {
            id,
            quad: Quadrotor::new(DynamicsConfig::crazyflie(), start),
            battery: Battery::new(BatteryConfig::paper_crazyflie()),
            commander: Commander::new(firmware, SimTime::ZERO),
            ekf: Ekf::new(start, 0.7),
            ranging,
            scanning: false,
            last_step: None,
        }
    }

    /// The UAV's fleet identity.
    pub fn id(&self) -> UavId {
        self.id
    }

    /// Ground-truth position (the simulator knows; the system does not).
    pub fn true_position(&self) -> Vec3 {
        self.quad.position()
    }

    /// The UAV's own position estimate — what gets attached to samples.
    /// "accurate location-annotated sampling" is design requirement (i).
    pub fn estimated_position(&self) -> Vec3 {
        self.ekf.position()
    }

    /// Current localization error (truth vs estimate).
    pub fn localization_error(&self) -> f64 {
        self.true_position().distance(self.estimated_position())
    }

    /// Mutable access to the commander (setpoints, scan holds).
    pub fn commander_mut(&mut self) -> &mut Commander {
        &mut self.commander
    }

    /// Read access to the commander.
    pub fn commander(&self) -> &Commander {
        &self.commander
    }

    /// The battery.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Sets the commanded heading (the per-UAV yaw of the mission plan).
    pub fn set_yaw_target(&mut self, yaw: f64) {
        self.quad.set_yaw_target(yaw);
    }

    /// Current attitude (roll/pitch/yaw).
    pub fn attitude(&self) -> aerorem_spatial::Attitude {
        self.quad.attitude()
    }

    /// Marks the ESP deck as scanning (extra power draw).
    pub fn set_scanning(&mut self, scanning: bool) {
        self.scanning = scanning;
    }

    /// Whether the ESP deck is scanning.
    pub fn is_scanning(&self) -> bool {
        self.scanning
    }

    /// Derived flight mode.
    pub fn mode(&self) -> FlightMode {
        if self.commander.state() == CommanderState::Shutdown {
            return FlightMode::Shutdown;
        }
        if self.battery.is_erratic() {
            return FlightMode::Erratic;
        }
        if self.quad.on_floor() {
            FlightMode::Grounded
        } else {
            FlightMode::Airborne
        }
    }

    /// Advances the vehicle by `dt` seconds ending at `now`: commander →
    /// physics → battery → localization.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        dt: f64,
        anchors: &AnchorConstellation,
        rng: &mut R,
    ) {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        let input = self.commander.control(now);
        self.quad.step(dt, input, rng);

        let airborne = !matches!(input, ControlInput::MotorsOff) && !self.quad.on_floor();
        self.battery.drain(
            SimDuration::from_secs_f64(dt),
            PowerState {
                airborne,
                translating: self.quad.velocity().norm() > 0.1,
                decks_mounted: true,
                scanning: self.scanning,
            },
        );

        // Localization runs continuously on the tag.
        self.ekf.predict(dt);
        let meas = self.ranging.measure(anchors, self.quad.position(), rng);
        let var = self.ranging.noise_std_m * self.ranging.noise_std_m;
        // Dropped epochs or transient geometry faults are skipped, as on
        // the real tag.
        let _ = self.ekf.update_ranging(anchors, &meas, var);
        self.last_step = Some(now);
    }
}

impl fmt::Display for Uav {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} ({:?}, {:.0}% battery)",
            self.id,
            self.quad.position(),
            self.mode(),
            self.battery.remaining_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerorem_localization::RangingMode;
    use aerorem_spatial::Aabb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Uav, AnchorConstellation, StdRng) {
        let anchors = AnchorConstellation::volume_corners(Aabb::paper_volume());
        let uav = Uav::new(
            UavId(0),
            FirmwareConfig::paper_patched(),
            RangingConfig::lps_default(RangingMode::Tdoa),
            Vec3::new(0.3, 0.3, 0.0),
        );
        (uav, anchors, StdRng::seed_from_u64(0x0AF))
    }

    #[test]
    fn uav_naming() {
        assert_eq!(UavId(0).to_string(), "UAV A");
        assert_eq!(UavId(1).to_string(), "UAV B");
    }

    #[test]
    fn starts_grounded_and_charged() {
        let (uav, _, _) = setup();
        assert_eq!(uav.mode(), FlightMode::Grounded);
        assert_eq!(uav.battery().remaining_fraction(), 1.0);
        assert!(!uav.is_scanning());
    }

    #[test]
    fn flies_to_setpoint_with_good_localization() {
        let (mut uav, anchors, mut rng) = setup();
        let target = Vec3::new(1.0, 1.0, 1.2);
        for step in 1..=600 {
            let now = SimTime::from_millis(step * 10);
            uav.commander_mut().set_setpoint(now, target);
            uav.step(now, 0.01, &anchors, &mut rng);
        }
        assert_eq!(uav.mode(), FlightMode::Airborne);
        assert!(uav.true_position().distance(target) < 0.15);
        assert!(
            uav.localization_error() < 0.15,
            "EKF error {}",
            uav.localization_error()
        );
    }

    #[test]
    fn scan_hold_keeps_position_with_radio_silent() {
        let (mut uav, anchors, mut rng) = setup();
        let hold = Vec3::new(1.5, 1.5, 1.0);
        // Fly there first with regular setpoints.
        for step in 1..=800 {
            let now = SimTime::from_millis(step * 10);
            uav.commander_mut().set_setpoint(now, hold);
            uav.step(now, 0.01, &anchors, &mut rng);
        }
        let before = uav.true_position();
        // 3 s scan: no setpoints from outside, feedback task active.
        uav.commander_mut()
            .begin_scan_hold(SimTime::from_millis(8000), before)
            .unwrap();
        uav.set_scanning(true);
        for step in 801..=1100 {
            let now = SimTime::from_millis(step * 10);
            uav.step(now, 0.01, &anchors, &mut rng);
        }
        uav.set_scanning(false);
        uav.commander_mut().end_scan_hold();
        let wander = uav.true_position().distance(before);
        assert!(wander < 0.15, "wandered {wander} m during scan hold");
        assert_eq!(uav.mode(), FlightMode::Airborne);
    }

    #[test]
    fn stock_firmware_dies_in_radio_silence() {
        let anchors = AnchorConstellation::volume_corners(Aabb::paper_volume());
        let mut uav = Uav::new(
            UavId(1),
            FirmwareConfig::stock_2021_06(),
            RangingConfig::lps_default(RangingMode::Twr),
            Vec3::new(0.5, 0.5, 0.0),
        );
        let mut rng = StdRng::seed_from_u64(2);
        let hover = Vec3::new(0.5, 0.5, 1.0);
        for step in 1..=300 {
            let now = SimTime::from_millis(step * 10);
            uav.commander_mut().set_setpoint(now, hover);
            uav.step(now, 0.01, &anchors, &mut rng);
        }
        // Radio silence for 3 s: the 2 s WDT fires, motors cut, UAV falls.
        for step in 301..=700 {
            let now = SimTime::from_millis(step * 10);
            uav.step(now, 0.01, &anchors, &mut rng);
        }
        assert_eq!(uav.mode(), FlightMode::Shutdown);
        assert!(uav.true_position().z < 0.05, "fell to the floor");
    }

    #[test]
    fn battery_drains_during_flight() {
        let (mut uav, anchors, mut rng) = setup();
        let hover = Vec3::new(1.0, 1.0, 1.0);
        for step in 1..=3000 {
            let now = SimTime::from_millis(step * 10);
            uav.commander_mut().set_setpoint(now, hover);
            uav.step(now, 0.01, &anchors, &mut rng);
        }
        // 30 s of flight should cost ~8 % of a ~6-minute pack.
        let frac = uav.battery().remaining_fraction();
        assert!((0.85..0.97).contains(&frac), "remaining {frac}");
    }

    #[test]
    fn display_contains_mode() {
        let (uav, _, _) = setup();
        let s = uav.to_string();
        assert!(s.contains("UAV A"));
        assert!(s.contains("Grounded"));
    }
}
