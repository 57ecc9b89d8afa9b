//! In-memory spans for the traced run.
//!
//! A span is a named interval with a parent and an id; spans of one
//! request (or one frame, one training step) share the id. The benchmark
//! records spans only around its own calls into the workspace's public
//! functions and hooks, keeps them in memory, and writes them out once
//! when the run ends. A disabled tracer records nothing, so untraced runs
//! pay one branch per would-be span.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::util::Json;

/// Index of a recorded span, usable as a parent.
pub type SpanRef = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: Option<SpanRef>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64() * 1e6
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span; `None` when tracing is off.
    pub fn record(
        &self,
        name: impl Into<String>,
        id: u64,
        parent: Option<SpanRef>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanRef> {
        if !self.enabled {
            return None;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        spans.push(Span {
            name: name.into(),
            id,
            parent,
            start,
            end,
        });
        Some(spans.len() - 1)
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Summed durations (µs) of spans matching `pred`, grouped by id, in
    /// id order — e.g. every non-conv op of each traced frame.
    pub fn summed_by_id(&self, pred: impl Fn(&str) -> bool) -> Vec<f64> {
        let spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        let mut by_id: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| pred(&s.name)) {
            *by_id.entry(s.id).or_default() += s.us();
        }
        by_id.into_values().collect()
    }

    /// Self time per span: its duration minus the part of its interval
    /// that its children cover.
    fn self_times_us(spans: &[Span]) -> Vec<f64> {
        let mut children: Vec<Vec<SpanRef>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(Instant, Instant)> = kids
                    .iter()
                    .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = 0.0;
                let mut cur: Option<(Instant, Instant)> = None;
                for (a, b) in iv {
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += (cb - ca).as_secs_f64() * 1e6;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += (cb - ca).as_secs_f64() * 1e6;
                }
                (s.us() - covered).max(0.0)
            })
            .collect()
    }

    /// Total self time (ms) and span count per layer.
    pub fn layer_self_ms(&self) -> BTreeMap<String, (f64, usize)> {
        let spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for (s, self_us) in spans.iter().zip(Self::self_times_us(&spans)) {
            let e = out.entry(s.layer().to_string()).or_default();
            e.0 += self_us / 1e3;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON line (times in µs from tracer start).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        let self_us = Self::self_times_us(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, su)) in spans.iter().zip(self_us).enumerate() {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let line = Json::obj([
                ("span", Json::Int(i as i64)),
                ("name", Json::str(s.name.clone())),
                ("id", Json::Int(s.id as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                ),
                ("start_us", Json::Num(at(s.start))),
                ("end_us", Json::Num(at(s.end))),
                ("self_us", Json::Num(su)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("a.root", 0, None, at(0), at(10));
        t.record("b.kid", 0, root, at(1), at(4));
        t.record("b.kid", 0, root, at(3), at(6));
        let layers = t.layer_self_ms();
        assert!((layers["a"].0 - 5.0).abs() < 1e-6);
        assert!((layers["b"].0 - 6.0).abs() < 1e-6);
        assert_eq!(t.summed_by_id(|n| n == "b.kid"), vec![6000.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert!(t.record("x", 0, None, now, now).is_none());
        assert!(t.durations_us("x").is_empty());
    }
}
