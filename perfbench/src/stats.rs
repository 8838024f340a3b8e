//! Percentiles, measuring rounds, and the in-memory span
//! recorder behind `--trace 1`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 for no samples.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples`; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&mut samples.to_vec(), 50.0)
}

/// One measured stretch of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Units of work the round completed.
    pub work: f64,
    /// Wall time of the round, seconds.
    pub seconds: f64,
    /// Latency of each operation timed in the round, seconds.
    pub latencies_s: Vec<f64>,
}

impl Round {
    fn rate(&self) -> f64 {
        self.work / self.seconds
    }
}

/// The quarter of `rounds` that ran fastest: those whose rate reaches
/// the 75th percentile.
///
/// A shared host alternates, seconds at a time, between its own
/// uncontended speed and slower states whose depth depends on what its
/// neighbours run. The uncontended state recurs in nearly every run and
/// is the same in each; the slow states are not, so a figure over all
/// rounds, or over the slowest, moves with the neighbours. The selection
/// keys on the rounds' own speed, so a change that slows every round
/// still shows in full.
pub fn quiet_quarter(rounds: &[Round]) -> Vec<&Round> {
    let mut rates: Vec<f64> = rounds.iter().map(Round::rate).collect();
    let limit = percentile(&mut rates, 75.0);
    rounds.iter().filter(|r| r.rate() >= limit).collect()
}

/// Units of work per second over `rounds`, taken together.
pub fn throughput(rounds: &[&Round]) -> f64 {
    let work: f64 = rounds.iter().map(|r| r.work).sum();
    let seconds: f64 = rounds.iter().map(|r| r.seconds).sum();
    work / seconds
}

/// Layer timings, keyed by the metric name they report as.
///
/// Each name collects durations and reports their median in the unit its
/// suffix names, `_ms` or `_us`. When disabled, [`Spans::time`] only runs
/// its closure, so end-to-end runs measure without tracing overhead.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    durations: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            ..Spans::default()
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording its wall time under `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// Records one duration under `name` when enabled.
    pub fn record(&mut self, name: &'static str, elapsed: Duration) {
        if self.enabled {
            self.durations
                .entry(name)
                .or_default()
                .push(elapsed.as_secs_f64());
        }
    }

    /// Moves `other`'s spans into `self`.
    pub fn merge(&mut self, other: Spans) {
        for (name, mut d) in other.durations {
            self.durations.entry(name).or_default().append(&mut d);
        }
    }

    /// The reported figure for `name`: the median duration scaled to the
    /// name's unit, or 0 for a layer not exercised.
    pub fn value(&self, name: &str) -> f64 {
        let scale = if name.ends_with("_us") { 1e6 } else { 1e3 };
        self.durations.get(name).map_or(0.0, |d| median(d) * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut s, 50.0), 50.0);
        assert_eq!(percentile(&mut s, 99.0), 99.0);
        assert_eq!(percentile(&mut s, 100.0), 100.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quiet_quarter_keeps_the_fastest_rounds() {
        let round = |work| Round {
            work,
            seconds: 1.0,
            latencies_s: vec![],
        };
        let rounds: Vec<Round> = [5.0, 9.0, 1.0, 7.0, 3.0, 8.0, 2.0, 6.0]
            .into_iter()
            .map(round)
            .collect();
        let kept = quiet_quarter(&rounds);
        let work: Vec<f64> = kept.iter().map(|r| r.work).collect();
        assert_eq!(work, [9.0, 7.0, 8.0]);
        assert_eq!(throughput(&kept), 8.0);
    }
}
