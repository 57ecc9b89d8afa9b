//! What one workload window produces: operation counts, correctness
//! checks, end-to-end values and (when traced) per-layer values.

use std::time::Duration;

/// One correctness check, run after a timed window.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// End-to-end values by metric name (see `main::END_TO_END`).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer values by metric name; filled only by traced windows.
    pub layers: Vec<(String, f64)>,
    /// Free-form report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.push((name.into(), value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Appends another outcome's checks, layers and notes (used when a
    /// traced run borrows a short window of another workload to measure a
    /// layer its own workload does not reach).
    pub fn absorb(&mut self, other: Outcome, prefix: &str) {
        for c in other.checks {
            self.checks.push(Check {
                name: format!("{prefix}{}", c.name),
                ..c
            });
        }
        self.layers.extend(other.layers);
        self.notes
            .extend(other.notes.into_iter().map(|n| format!("{prefix}{n}")));
    }
}

/// Median of `reps` timed set-ups, the value `setup_s` reports.
pub fn setup_median(times: &[Duration]) -> f64 {
    let v: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    crate::util::median(&v)
}
