//! Lightweight pipeline instrumentation: wall-clock time per stage plus
//! named counters and labels.
//!
//! [`Instrumentation`] is threaded through
//! [`PipelineResult`](crate::pipeline::PipelineResult) so every pipeline
//! run reports where its time went (campaign, preprocessing, model
//! evaluation, REM fitting) and how much data flowed through (raw vs
//! retained samples, retained MACs, REM voxels). The `aerorem` CLI and the
//! experiment harness print [`Instrumentation::report`] after each run —
//! in particular for the serial-vs-parallel comparison, where the stage
//! table *is* the result.

use std::time::{Duration, Instant};

use aerorem_numerics::exec::ExecPlan;

/// Stage timings, counters, and labels collected over one pipeline run.
///
/// Stages and counters keep insertion order; timing the same stage twice
/// accumulates, counting the same counter twice adds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Instrumentation {
    stages: Vec<(String, Duration)>,
    counters: Vec<(String, u64)>,
    labels: Vec<(String, String)>,
}

impl Instrumentation {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, recording its wall-clock duration under `stage`.
    pub fn time<T>(&mut self, stage: &str, f: impl FnOnce() -> T) -> T {
        // lint:allow(wall-clock) — instrumentation measures wall time by design; durations never feed simulation results
        let start = Instant::now();
        let out = f();
        self.record(stage, start.elapsed());
        out
    }

    /// Adds `took` to the stage's accumulated duration.
    pub fn record(&mut self, stage: &str, took: Duration) {
        match self.stages.iter_mut().find(|(name, _)| name == stage) {
            Some((_, d)) => *d += took,
            None => self.stages.push((stage.to_string(), took)),
        }
    }

    /// Adds `value` to the named counter.
    pub fn count(&mut self, counter: &str, value: u64) {
        match self.counters.iter_mut().find(|(name, _)| name == counter) {
            Some((_, v)) => *v += value,
            None => self.counters.push((counter.to_string(), value)),
        }
    }

    /// Sets a free-form label (e.g. `exec = parallel`), replacing any
    /// previous value.
    pub fn label(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        match self.labels.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.labels.push((key.to_string(), value)),
        }
    }

    /// Records a parallel stage's execution plan as the labels
    /// `{stage}_workers` and `{stage}_chunk`, so granularity regressions
    /// (a stage degrading to one worker, chunks collapsing to per-item)
    /// are visible in every `aerorem demo` report without a profiler.
    pub fn record_exec(&mut self, stage: &str, plan: ExecPlan) {
        self.label(&format!("{stage}_workers"), plan.workers.to_string());
        self.label(&format!("{stage}_chunk"), plan.chunk.to_string());
    }

    /// The execution plan previously recorded for `stage`, if any —
    /// `(workers, chunk)` parsed back from the labels.
    pub fn exec_plan(&self, stage: &str) -> Option<(usize, usize)> {
        let workers = self.get_label(&format!("{stage}_workers"))?.parse().ok()?;
        let chunk = self.get_label(&format!("{stage}_chunk"))?.parse().ok()?;
        Some((workers, chunk))
    }

    /// The recorded stages in insertion order.
    pub fn stages(&self) -> impl Iterator<Item = (&str, Duration)> {
        self.stages.iter().map(|(n, d)| (n.as_str(), *d))
    }

    /// One stage's accumulated duration.
    pub fn stage(&self, name: &str) -> Option<Duration> {
        self.stages
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| *d)
    }

    /// One counter's value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// One label's value.
    pub fn get_label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Sum of all stage durations.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|(_, d)| *d).sum()
    }

    /// Items per second through a stage: `counter / stage duration`.
    ///
    /// Returns `None` when either the stage or the counter is missing, or
    /// when the stage took no measurable time.
    pub fn throughput(&self, stage: &str, counter: &str) -> Option<f64> {
        let took = self.stage(stage)?.as_secs_f64();
        let items = self.counter(counter)?;
        if took <= 0.0 {
            return None;
        }
        Some(items as f64 / took)
    }

    /// Renders the stage table, counters, and labels as plain text.
    pub fn report(&self) -> String {
        let mut out = String::new();
        if !self.labels.is_empty() {
            let kv: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&kv.join(" "));
            out.push('\n');
        }
        if !self.stages.is_empty() {
            out.push_str(&format!("{:<28} {:>12}\n", "stage", "wall [ms]"));
            for (name, d) in &self.stages {
                out.push_str(&format!("{:<28} {:>12.2}\n", name, d.as_secs_f64() * 1e3));
            }
            out.push_str(&format!(
                "{:<28} {:>12.2}\n",
                "total",
                self.total().as_secs_f64() * 1e3
            ));
        }
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} = {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_accumulate_and_keep_order() {
        let mut inst = Instrumentation::new();
        inst.record("b", Duration::from_millis(10));
        inst.record("a", Duration::from_millis(5));
        inst.record("b", Duration::from_millis(10));
        let names: Vec<&str> = inst.stages().map(|(n, _)| n).collect();
        assert_eq!(names, ["b", "a"]);
        assert_eq!(inst.stage("b"), Some(Duration::from_millis(20)));
        assert_eq!(inst.total(), Duration::from_millis(25));
        assert_eq!(inst.stage("missing"), None);
    }

    #[test]
    fn time_records_and_passes_through() {
        let mut inst = Instrumentation::new();
        let out = inst.time("work", || 40 + 2);
        assert_eq!(out, 42);
        assert!(inst.stage("work").is_some());
    }

    #[test]
    fn counters_add_and_labels_replace() {
        let mut inst = Instrumentation::new();
        inst.count("voxels", 100);
        inst.count("voxels", 20);
        assert_eq!(inst.counter("voxels"), Some(120));
        inst.label("exec", "serial");
        inst.label("exec", "parallel");
        assert_eq!(inst.get_label("exec"), Some("parallel"));
    }

    #[test]
    fn throughput_is_counter_over_stage_time() {
        let mut inst = Instrumentation::new();
        inst.record("predict", Duration::from_millis(500));
        inst.count("rows", 1000);
        let rate = inst.throughput("predict", "rows").unwrap();
        assert!((rate - 2000.0).abs() < 1e-9, "got {rate}");
        assert_eq!(inst.throughput("missing", "rows"), None);
        assert_eq!(inst.throughput("predict", "missing"), None);
        inst.record("instant", Duration::ZERO);
        inst.count("n", 5);
        assert_eq!(inst.throughput("instant", "n"), None);
    }

    #[test]
    fn exec_plans_round_trip_through_labels() {
        let mut inst = Instrumentation::new();
        inst.record_exec(
            "rem_fill",
            ExecPlan {
                workers: 4,
                chunk: 1024,
                chunks: 49,
            },
        );
        assert_eq!(inst.exec_plan("rem_fill"), Some((4, 1024)));
        assert_eq!(inst.get_label("rem_fill_workers"), Some("4"));
        assert_eq!(inst.get_label("rem_fill_chunk"), Some("1024"));
        assert_eq!(inst.exec_plan("missing"), None);
    }

    #[test]
    fn report_renders_everything() {
        let mut inst = Instrumentation::new();
        inst.label("exec", "parallel");
        inst.record("campaign", Duration::from_millis(123));
        inst.count("raw_samples", 2696);
        let report = inst.report();
        assert!(report.contains("exec=parallel"));
        assert!(report.contains("campaign"));
        assert!(report.contains("total"));
        assert!(report.contains("raw_samples = 2696"));
        // An empty recorder renders to nothing rather than headers.
        assert!(Instrumentation::new().report().is_empty());
    }
}
