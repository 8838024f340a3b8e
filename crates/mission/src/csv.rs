//! CSV persistence for sample sets.
//!
//! The base station stores results "for later processing" (§II-C); this
//! module is that storage format — a plain CSV any downstream tool can
//! read, with a lossless round trip back into a [`SampleSet`].

use std::fmt;

use aerorem_propagation::ap::{MacAddress, Ssid};
use aerorem_propagation::WifiChannel;
use aerorem_simkit::SimTime;
use aerorem_spatial::Vec3;
use aerorem_uav::UavId;

use crate::samples::{Sample, SampleSet};

/// The CSV header written and expected by this module.
pub const CSV_HEADER: &str =
    "uav,waypoint,x,y,z,true_x,true_y,true_z,ssid,mac,channel,rssi_dbm,t_us";

/// Error from CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCsvError {
    line_number: usize,
    reason: String,
}

impl ParseCsvError {
    fn new(line_number: usize, reason: impl Into<String>) -> Self {
        ParseCsvError {
            line_number,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseCsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CSV line {}: {}", self.line_number, self.reason)
    }
}

impl std::error::Error for ParseCsvError {}

/// Percent-style escaping for SSIDs: commas, quotes, newlines and percent
/// signs become `%XX`, keeping the CSV single-line and comma-splittable.
/// (Also reused by the campaign checkpoint format for trace messages.)
pub(crate) fn escape_ssid(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b',' | b'"' | b'\n' | b'\r' | b'%' => out.push_str(&format!("%{b:02X}")),
            0x20..=0x7E => out.push(b as char),
            // Non-printable and non-ASCII bytes (UTF-8 continuation bytes
            // included) are escaped byte-by-byte.
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

pub(crate) fn unescape_ssid(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        if b == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| "truncated escape".to_string())?;
            let v = u8::from_str_radix(
                std::str::from_utf8(hex).map_err(|_| "bad escape".to_string())?,
                16,
            )
            .map_err(|_| "bad escape".to_string())?;
            out.push(v);
            i += 3;
        } else {
            out.push(b);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| "ssid not UTF-8".to_string())
}

/// Serializes a sample set to CSV (header + one row per sample).
pub fn to_csv(samples: &SampleSet) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for s in samples.iter() {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            s.uav.0,
            s.waypoint_index,
            s.position.x,
            s.position.y,
            s.position.z,
            s.true_position.x,
            s.true_position.y,
            s.true_position.z,
            escape_ssid(s.ssid.as_str()),
            s.mac,
            s.channel.number(),
            s.rssi_dbm,
            s.timestamp.as_micros(),
        ));
    }
    out
}

/// Parses a CSV produced by [`to_csv`].
///
/// # Errors
///
/// Returns [`ParseCsvError`] naming the first malformed line, including
/// one with a non-finite coordinate; the header must match [`CSV_HEADER`].
pub fn from_csv(text: &str) -> Result<SampleSet, ParseCsvError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseCsvError::new(1, "empty input"))?;
    if header.trim() != CSV_HEADER {
        return Err(ParseCsvError::new(1, format!("unexpected header {header:?}")));
    }
    let mut set = SampleSet::new();
    for (idx, line) in lines {
        let n = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 13 {
            return Err(ParseCsvError::new(
                n,
                format!("expected 13 fields, found {}", fields.len()),
            ));
        }
        // Coordinates must be finite: `NaN` or `inf` would reach every
        // distance the models and the coverage planner compute.
        let parse_f64 = |s: &str, what: &str| -> Result<f64, ParseCsvError> {
            let v: f64 = s
                .parse()
                .map_err(|_| ParseCsvError::new(n, format!("bad {what}: {s:?}")))?;
            if v.is_finite() {
                Ok(v)
            } else {
                Err(ParseCsvError::new(n, format!("non-finite {what}: {s:?}")))
            }
        };
        let uav = UavId(
            fields[0]
                .parse()
                .map_err(|_| ParseCsvError::new(n, "bad uav id"))?,
        );
        let waypoint_index: usize = fields[1]
            .parse()
            .map_err(|_| ParseCsvError::new(n, "bad waypoint index"))?;
        let position = Vec3::new(
            parse_f64(fields[2], "x")?,
            parse_f64(fields[3], "y")?,
            parse_f64(fields[4], "z")?,
        );
        let true_position = Vec3::new(
            parse_f64(fields[5], "true_x")?,
            parse_f64(fields[6], "true_y")?,
            parse_f64(fields[7], "true_z")?,
        );
        let ssid = Ssid::new(
            unescape_ssid(fields[8]).map_err(|e| ParseCsvError::new(n, e))?,
        );
        let mac: MacAddress = fields[9]
            .parse()
            .map_err(|_| ParseCsvError::new(n, "bad mac"))?;
        let channel_num: u8 = fields[10]
            .parse()
            .map_err(|_| ParseCsvError::new(n, "bad channel"))?;
        let channel = WifiChannel::new(channel_num)
            .ok_or_else(|| ParseCsvError::new(n, "channel out of range"))?;
        let rssi_dbm: i32 = fields[11]
            .parse()
            .map_err(|_| ParseCsvError::new(n, "bad rssi"))?;
        let t_us: u64 = fields[12]
            .parse()
            .map_err(|_| ParseCsvError::new(n, "bad timestamp"))?;
        set.push(Sample {
            uav,
            waypoint_index,
            position,
            true_position,
            ssid,
            mac,
            channel,
            rssi_dbm,
            timestamp: SimTime::from_micros(t_us),
        });
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ssid: &str) -> Sample {
        Sample {
            uav: UavId(1),
            waypoint_index: 7,
            position: Vec3::new(1.25, -0.5, 2.0),
            true_position: Vec3::new(1.27, -0.48, 2.01),
            ssid: Ssid::new(ssid),
            mac: MacAddress::from_index(42),
            channel: WifiChannel::new(11).unwrap(),
            rssi_dbm: -71,
            timestamp: SimTime::from_millis(90_500),
        }
    }

    #[test]
    fn round_trip() {
        let mut set = SampleSet::new();
        set.push(sample("HomeNet"));
        set.push(sample("weird,ssid\"with%stuff"));
        set.push(sample(""));
        let csv = to_csv(&set);
        let back = from_csv(&csv).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn empty_set_round_trips() {
        let set = SampleSet::new();
        let back = from_csv(&to_csv(&set)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn header_is_enforced() {
        assert!(from_csv("").is_err());
        assert!(from_csv("a,b,c\n").is_err());
        let good = format!("{CSV_HEADER}\n");
        assert!(from_csv(&good).is_ok());
    }

    #[test]
    fn malformed_rows_reported_with_line_numbers() {
        let cases = [
            ("1,2,3", "expected 13 fields"),
            (
                "x,7,1,1,1,1,1,1,net,02:00:00:00:00:2a,11,-71,5",
                "bad uav",
            ),
            (
                "1,7,no,1,1,1,1,1,net,02:00:00:00:00:2a,11,-71,5",
                "bad x",
            ),
            (
                "1,7,1,1,1,1,1,1,net,zz:00:00:00:00:2a,11,-71,5",
                "bad mac",
            ),
            (
                "1,7,1,1,1,1,1,1,net,02:00:00:00:00:2a,99,-71,5",
                "channel out of range",
            ),
            (
                "1,7,1,1,1,1,1,1,net,02:00:00:00:00:2a,11,n,5",
                "bad rssi",
            ),
        ];
        for (row, expect) in cases {
            let text = format!("{CSV_HEADER}\n{row}\n");
            let err = from_csv(&text).unwrap_err();
            assert!(
                err.to_string().contains(expect),
                "{row}: got {err}"
            );
            assert!(err.to_string().contains("line 2"));
        }
    }

    #[test]
    fn non_finite_coordinates_are_rejected_with_line_and_field() {
        let fields = ["x", "y", "z", "true_x", "true_y", "true_z"];
        for (i, field) in fields.iter().enumerate() {
            for bad in ["NaN", "inf", "-inf"] {
                let mut cols = ["1"; 6];
                cols[i] = bad;
                let row = format!("1,7,{},net,02:00:00:00:00:2a,11,-71,5", cols.join(","));
                let good = "1,7,1,1,1,1,1,1,net,02:00:00:00:00:2a,11,-71,5";
                let text = format!("{CSV_HEADER}\n{good}\n{row}\n");
                let err = from_csv(&text).unwrap_err().to_string();
                assert!(
                    err.contains("line 3") && err.contains(&format!("non-finite {field}:")),
                    "{field} = {bad}: got {err}"
                );
            }
        }
    }

    #[test]
    fn blank_lines_skipped() {
        let mut set = SampleSet::new();
        set.push(sample("a"));
        let mut csv = to_csv(&set);
        csv.push_str("\n\n");
        assert_eq!(from_csv(&csv).unwrap().len(), 1);
    }

    #[test]
    fn escaping_edge_cases() {
        assert_eq!(escape_ssid("a,b"), "a%2Cb");
        assert_eq!(unescape_ssid("a%2Cb").unwrap(), "a,b");
        // Unicode SSIDs survive byte-wise escaping.
        let uni = "café 👍";
        assert_eq!(unescape_ssid(&escape_ssid(uni)).unwrap(), uni);
        assert!(escape_ssid(uni).is_ascii());
        assert_eq!(unescape_ssid("plain").unwrap(), "plain");
        assert!(unescape_ssid("bad%2").is_err());
        assert!(unescape_ssid("bad%zz").is_err());
    }
}
