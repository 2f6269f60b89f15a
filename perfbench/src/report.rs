//! The result of one workload run: checks, metrics and the lines that
//! explain them.
//!
//! The JSON keys are the same for every workload (the benchmark's
//! contract lists one metric set); each workload fills them with its
//! own measurement and prints the workload-specific name next to it,
//! e.g. `time_ms` is `eco_p50_ms` on `eco_serve` and `synth_s` on
//! `synth`. README.md holds the full map.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: key and unit.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("time_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("quality_pct", "%"),
    ("peak_mib", "MiB"),
];

/// Per-layer metrics of the traced run: key and unit. A layer a
/// workload does not exercise reports 0.
pub const LAYER: &[(&str, &str)] = &[
    ("service.rtt_stats_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.errors", "count"),
    ("predict.apply_ms", "ms"),
    ("predict.infer_ms", "ms"),
    ("predict.irpredict_ms", "ms"),
    ("predict.total_ms", "ms"),
    ("nn.infer_fmas", "count"),
    ("nn.fit_s", "s"),
    ("nn.fit_gflops", "GFLOP/s"),
    ("nn.epochs", "count"),
    ("nn.width_r2", "r2"),
    ("solver.cg_iters_per_solve", "count"),
    ("solver.cg_solves", "count"),
    ("solver.spmv_bytes", "B"),
    ("analysis.merge_ms", "ms"),
    ("analysis.solve_ms", "ms"),
    ("analysis.sizing_iters", "count"),
    ("netlist.generate_s", "s"),
    ("netlist.perturb_ms", "ms"),
    ("netlist.set_widths_ms", "ms"),
    ("flow.source_s", "s"),
    ("flow.size_s", "s"),
    ("flow.predict_ms", "ms"),
    ("flow.validate_ms", "ms"),
    ("synth.oracle_calls", "count"),
    ("synth.full_solves", "count"),
    ("synth.accept_rate", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Checks, metrics and explanatory lines of one workload run.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    #[must_use]
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempted operation that failed, with the reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Counts an operation, failing it when `result` is an error.
    /// Returns the success value.
    pub fn check<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempt();
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts a check that passes when `ok`.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempt();
        if !ok {
            self.fail(why());
        }
    }

    /// Records a metric under its JSON key and prints it under its
    /// workload-specific `name`, with unit and sample count.
    pub fn metric(&mut self, key: &'static str, name: &str, value: f64, samples: usize) {
        let unit = unit_of(key);
        self.metrics.insert(key, value);
        self.line(format!(
            "metric {key:<26} {name:<24} = {value:.6} {unit} (n={samples})"
        ));
    }

    /// Prints an informational line (a figure with no regression
    /// direction, a dropped item, a host record).
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines
            .push(format!("[{}] {}", self.workload, line.into()));
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failures so far (for the final summary).
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Attempted and failed operation counts.
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    /// Every line recorded so far.
    #[must_use]
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The JSON `metrics` object over `keys`. A key the workload never
    /// measured is an error for end-to-end metrics and 0 for layers it
    /// does not exercise.
    pub fn metrics_json(&mut self, keys: &[(&'static str, &'static str)], layers: bool) -> String {
        let mut out = String::from("{");
        for (i, &(key, unit)) in keys.iter().enumerate() {
            let value = match self.metrics.get(key) {
                Some(&v) => v,
                None if layers => 0.0,
                None => {
                    self.fail(format!("end-to-end metric {key} was not measured"));
                    0.0
                }
            };
            if i > 0 {
                out.push(',');
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(out, "\"{key}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

fn unit_of(key: &str) -> &'static str {
    E2E.iter()
        .chain(LAYER)
        .find(|(k, _)| *k == key)
        .map_or("", |(_, u)| u)
}
