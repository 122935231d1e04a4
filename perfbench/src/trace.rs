//! Spans recorded from the benchmark's side of each call into a layer's
//! public functions. Spans stay in memory and are written out once the
//! run ends; the per-layer metrics are aggregates over them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<module>.<call>`, e.g. `bgp.universe`.
    pub name: String,
    /// Operation the span belongs to (seed, prefix, cell or request id);
    /// spans of one operation share it.
    pub op: u64,
    /// Start, relative to the recorder's creation.
    pub start: Duration,
    /// Wall duration.
    pub dur: Duration,
}

/// In-memory span recorder, with counts taken at the same boundaries.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<String, Vec<f64>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Records one observation of a count (activations, bytes, ...).
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.entry(name.to_string()).or_default().push(value);
    }

    /// Every observation of the named count, in record order.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts.get(name).cloned().unwrap_or_default()
    }

    /// Times `f` as a span named `name` of operation `op`.
    pub fn time<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, start, start.elapsed());
        out
    }

    /// Records a span measured elsewhere (e.g. on a worker thread).
    pub fn record(&mut self, name: &str, op: u64, start: Instant, dur: Duration) {
        self.spans.push(Span {
            name: name.to_string(),
            op,
            start: start.saturating_duration_since(self.origin),
            dur,
        });
    }

    /// Durations of every span named `name`, in ms, in record order.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// Per-operation sum of the named spans' durations, ms, keyed by op.
    pub fn per_op_ms(&self, names: &[&str]) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| names.contains(&s.name.as_str()))
        {
            *out.entry(s.op).or_insert(0.0) += s.dur.as_secs_f64() * 1e3;
        }
        out
    }

    /// Spans as JSON lines (`name`, `op`, `start_us`, `dur_us`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"start_us\":{},\"dur_us\":{}}}",
                s.name,
                s.op,
                s.start.as_micros(),
                s.dur.as_micros()
            );
        }
        out
    }
}
