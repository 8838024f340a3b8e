//! Campaign checkpoint/resume.
//!
//! The base station persists per-leg progress after every completed leg, so
//! a campaign interrupted between legs (battery swap gone wrong, WDT reset
//! of the ground station, operator abort) resumes by flying **only the
//! missing legs**. Because [`crate::Campaign`] partitions its RNG stream
//! per leg, a resumed campaign is bit-identical to an uninterrupted run
//! under the same master seed.
//!
//! The format is a hand-rolled line-oriented text file, embedding each
//! completed leg's sample set as the [`crate::csv`] CSV block.
//!
//! # Examples
//!
//! ```
//! use aerorem_mission::checkpoint::CampaignCheckpoint;
//!
//! let empty = CampaignCheckpoint::empty();
//! let text = empty.to_text();
//! let back = CampaignCheckpoint::from_text(&text).unwrap();
//! assert_eq!(back.legs_completed, 0);
//! ```

use std::fmt;

use aerorem_simkit::{SimDuration, SimTime, TraceEntry};
use aerorem_uav::UavId;

use crate::basestation::LegOutcome;
use crate::csv::{self, escape_ssid, unescape_ssid};

/// Magic first line of the checkpoint format.
const MAGIC: &str = "aerorem-campaign-checkpoint v1";

/// Error from checkpoint parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    line: usize,
    reason: String,
}

impl CheckpointError {
    fn new(line: usize, reason: impl Into<String>) -> Self {
        CheckpointError {
            line,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for CheckpointError {}

/// A campaign's progress snapshot, taken between legs.
///
/// `outcomes` holds one [`LegOutcome`] per flight (recovery re-flights of
/// an aborted leg appear as their own entries); `legs_completed` counts
/// *planned* legs fully finished, which is what resume skips.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Planned legs fully finished (including their recovery re-flights).
    pub legs_completed: usize,
    /// Simulation clock when the snapshot was taken.
    pub sim_time: SimTime,
    /// Every flight flown so far, in order.
    pub outcomes: Vec<LegOutcome>,
    /// The operation trace accumulated so far.
    pub trace: Vec<TraceEntry>,
}

impl CampaignCheckpoint {
    /// A checkpoint with no progress: resuming from it runs the whole
    /// campaign.
    pub fn empty() -> Self {
        CampaignCheckpoint {
            legs_completed: 0,
            sim_time: SimTime::ZERO,
            outcomes: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// True when no leg has completed yet.
    pub fn is_empty(&self) -> bool {
        self.legs_completed == 0
    }

    /// Serializes to the line-oriented checkpoint text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("legs_completed {}\n", self.legs_completed));
        out.push_str(&format!("sim_time_us {}\n", self.sim_time.as_micros()));
        out.push_str(&format!("outcomes {}\n", self.outcomes.len()));
        for o in &self.outcomes {
            out.push_str(&format!(
                "outcome uav={} visited={} planned={} active_us={} aborted={} shutdown={} \
                 packets_dropped={} rows_lost={} rows_corrupted={} receiver_faults={} \
                 scan_retries={} scans_recovered={}\n",
                o.uav.0,
                o.waypoints_visited,
                o.waypoints_planned,
                o.active_time.as_micros(),
                u8::from(o.aborted_on_battery),
                u8::from(o.shutdown),
                o.packets_dropped,
                o.rows_lost,
                o.rows_corrupted,
                o.receiver_faults,
                o.scan_retries,
                o.scans_recovered,
            ));
            let csv = csv::to_csv(&o.samples);
            out.push_str(&format!("samples {}\n", csv.lines().count()));
            out.push_str(&csv);
        }
        out.push_str(&format!("trace {}\n", self.trace.len()));
        for e in &self.trace {
            out.push_str(&format!(
                "{}\t{}\t{}\n",
                e.time.as_micros(),
                e.component,
                escape_ssid(&e.message)
            ));
        }
        out
    }

    /// Parses a checkpoint produced by [`CampaignCheckpoint::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] naming the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let lines: Vec<&str> = text.lines().collect();
        let mut cursor = Cursor { lines: &lines, pos: 0 };

        if cursor.next_line()? != MAGIC {
            return Err(CheckpointError::new(1, format!("expected {MAGIC:?}")));
        }
        let legs_completed = cursor.keyed_count("legs_completed")?;
        let sim_time = SimTime::from_micros(cursor.keyed_count("sim_time_us")? as u64);
        let n_outcomes = cursor.keyed_count("outcomes")?;

        let mut outcomes = Vec::with_capacity(n_outcomes);
        for _ in 0..n_outcomes {
            let at = cursor.pos + 1;
            let header = cursor.next_line()?;
            let fields = parse_outcome_fields(header)
                .map_err(|reason| CheckpointError::new(at, reason))?;
            let n_lines = cursor.keyed_count("samples")?;
            let csv_start = cursor.pos;
            let csv_text = cursor.take_lines(n_lines)?.join("\n");
            let samples = csv::from_csv(&csv_text).map_err(|e| {
                CheckpointError::new(csv_start + 1, format!("embedded CSV: {e}"))
            })?;
            outcomes.push(LegOutcome {
                uav: UavId(fields.get("uav")? as u8),
                waypoints_visited: fields.get("visited")? as usize,
                waypoints_planned: fields.get("planned")? as usize,
                active_time: SimDuration::from_micros(fields.get("active_us")?),
                aborted_on_battery: fields.get("aborted")? != 0,
                shutdown: fields.get("shutdown")? != 0,
                packets_dropped: fields.get("packets_dropped")?,
                rows_lost: fields.get("rows_lost")?,
                rows_corrupted: fields.get("rows_corrupted")?,
                receiver_faults: fields.get("receiver_faults")?,
                scan_retries: fields.get("scan_retries")?,
                scans_recovered: fields.get("scans_recovered")?,
                samples,
            });
        }

        let n_trace = cursor.keyed_count("trace")?;
        let mut trace = Vec::with_capacity(n_trace);
        for _ in 0..n_trace {
            let at = cursor.pos + 1;
            let line = cursor.next_line()?;
            let mut parts = line.splitn(3, '\t');
            let t_us: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| CheckpointError::new(at, "bad trace timestamp"))?;
            let component = parts
                .next()
                .ok_or_else(|| CheckpointError::new(at, "missing trace component"))?;
            let message = parts
                .next()
                .ok_or_else(|| CheckpointError::new(at, "missing trace message"))?;
            trace.push(TraceEntry {
                time: SimTime::from_micros(t_us),
                component: intern_component(component),
                message: unescape_ssid(message)
                    .map_err(|e| CheckpointError::new(at, e))?,
            });
        }

        Ok(CampaignCheckpoint {
            legs_completed,
            sim_time,
            outcomes,
            trace,
        })
    }
}

/// Maps a parsed component tag back to the `&'static str` the trace uses.
/// Unknown tags collapse to `"trace"` (the set of components is closed in
/// this codebase, so round trips are exact).
fn intern_component(s: &str) -> &'static str {
    match s {
        "client" => "client",
        "radio" => "radio",
        "campaign" => "campaign",
        "scan" => "scan",
        "uav" => "uav",
        _ => "trace",
    }
}

struct Cursor<'a> {
    lines: &'a [&'a str],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next_line(&mut self) -> Result<&'a str, CheckpointError> {
        let line = self
            .lines
            .get(self.pos)
            .ok_or_else(|| CheckpointError::new(self.pos + 1, "unexpected end of file"))?;
        self.pos += 1;
        Ok(line)
    }

    fn take_lines(&mut self, n: usize) -> Result<Vec<&'a str>, CheckpointError> {
        if self.pos + n > self.lines.len() {
            return Err(CheckpointError::new(
                self.lines.len(),
                format!("expected {n} more lines"),
            ));
        }
        // lint:allow(slice-index) — the early return above guarantees pos + n ≤ lines.len()
        let slice = self.lines[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `<key> <count>` line.
    fn keyed_count(&mut self, key: &str) -> Result<usize, CheckpointError> {
        let at = self.pos + 1;
        let line = self.next_line()?;
        let rest = line
            .strip_prefix(key)
            .ok_or_else(|| CheckpointError::new(at, format!("expected {key:?} line")))?;
        rest.trim()
            .parse()
            .map_err(|_| CheckpointError::new(at, format!("bad {key} count")))
    }
}

struct OutcomeFields<'a> {
    pairs: Vec<(&'a str, u64)>,
}

impl OutcomeFields<'_> {
    fn get(&self, key: &str) -> Result<u64, CheckpointError> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| CheckpointError::new(0, format!("outcome missing field {key:?}")))
    }
}

fn parse_outcome_fields(line: &str) -> Result<OutcomeFields<'_>, String> {
    let rest = line
        .strip_prefix("outcome")
        .ok_or_else(|| "expected \"outcome\" line".to_string())?;
    let mut pairs = Vec::new();
    for token in rest.split_whitespace() {
        let (k, v) = token
            .split_once('=')
            .ok_or_else(|| format!("bad outcome field {token:?}"))?;
        let v: u64 = v.parse().map_err(|_| format!("bad value in {token:?}"))?;
        pairs.push((k, v));
    }
    Ok(OutcomeFields { pairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::{Sample, SampleSet};
    use aerorem_propagation::ap::{MacAddress, Ssid};
    use aerorem_propagation::WifiChannel;
    use aerorem_spatial::Vec3;

    fn outcome_with_samples() -> LegOutcome {
        let mut samples = SampleSet::new();
        samples.push(Sample {
            uav: UavId(0),
            waypoint_index: 3,
            position: Vec3::new(1.0, 2.0, 0.123456789012345),
            true_position: Vec3::new(1.01, 2.02, 0.2),
            ssid: Ssid::new("weird,ssid\"with%stuff"),
            mac: MacAddress::from_index(17),
            channel: WifiChannel::new(6).unwrap(),
            rssi_dbm: -63,
            timestamp: SimTime::from_micros(123_456_789),
        });
        LegOutcome {
            uav: UavId(0),
            waypoints_visited: 4,
            waypoints_planned: 6,
            active_time: SimDuration::from_micros(55_000_111),
            aborted_on_battery: true,
            shutdown: false,
            packets_dropped: 2,
            rows_lost: 3,
            rows_corrupted: 1,
            receiver_faults: 5,
            scan_retries: 4,
            scans_recovered: 2,
            samples,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let cp = CampaignCheckpoint {
            legs_completed: 1,
            sim_time: SimTime::from_micros(987_654_321),
            outcomes: vec![outcome_with_samples()],
            trace: vec![
                TraceEntry {
                    time: SimTime::from_micros(10),
                    component: "client",
                    message: "UAV A leg start: 6 waypoints".to_string(),
                },
                TraceEntry {
                    time: SimTime::from_micros(20),
                    component: "radio",
                    message: "off for scan at waypoint 0".to_string(),
                },
            ],
        };
        let text = cp.to_text();
        let back = CampaignCheckpoint::from_text(&text).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn empty_round_trips() {
        let cp = CampaignCheckpoint::empty();
        assert!(cp.is_empty());
        assert_eq!(CampaignCheckpoint::from_text(&cp.to_text()).unwrap(), cp);
    }

    #[test]
    fn trace_messages_with_tabs_and_newlines_survive() {
        let cp = CampaignCheckpoint {
            legs_completed: 0,
            sim_time: SimTime::ZERO,
            outcomes: Vec::new(),
            trace: vec![TraceEntry {
                time: SimTime::ZERO,
                component: "client",
                message: "odd\nmessage".to_string(),
            }],
        };
        let back = CampaignCheckpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(back.trace[0].message, "odd\nmessage");
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(CampaignCheckpoint::from_text("").is_err());
        assert!(CampaignCheckpoint::from_text("not a checkpoint").is_err());
        let truncated = "aerorem-campaign-checkpoint v1\nlegs_completed 1\nsim_time_us 5\noutcomes 1\n";
        assert!(CampaignCheckpoint::from_text(truncated).is_err());
        let bad_count =
            "aerorem-campaign-checkpoint v1\nlegs_completed x\nsim_time_us 5\noutcomes 0\ntrace 0\n";
        assert!(CampaignCheckpoint::from_text(bad_count).is_err());
    }
}
