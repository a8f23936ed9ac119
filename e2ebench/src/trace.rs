//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span has a name, a start and an end (offsets from one epoch), the
//! span that caused it and the operation it belongs to. Spans stay in
//! memory during the run and are folded into per-layer metrics at the
//! end; [`Trace::write_jsonl`] writes them out for inspection.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.compile`.
    pub name: &'static str,
    /// Offset of the call's start from the trace epoch.
    pub start: Duration,
    /// Offset of the call's end from the trace epoch.
    pub end: Duration,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The operation (solve, request, anneal) the call served.
    pub op: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span log plus named totals that the program reports
/// about itself (section times, counts) and that are not calls the
/// benchmark can time.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    sums: BTreeMap<String, f64>,
    maxima: BTreeMap<String, f64>,
}

impl Trace {
    /// An empty trace whose offsets count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
            sums: BTreeMap::new(),
            maxima: BTreeMap::new(),
        }
    }

    /// Records a call that ran from `start` to `end`; returns its index
    /// for use as a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, start, Instant::now(), parent, op);
        out
    }

    /// Adds `v` to the named sum.
    pub fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.sums.entry(name.into()).or_default() += v;
    }

    /// Raises the named maximum to at least `v`.
    pub fn max(&mut self, name: impl Into<String>, v: f64) {
        let slot = self.maxima.entry(name.into()).or_insert(v);
        *slot = slot.max(v);
    }

    /// A named sum or maximum, 0 when never set.
    pub fn value(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .or_else(|| self.maxima.get(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Total duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total self time of the spans named `name`, in milliseconds: each
    /// span's duration minus the durations of its direct children.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration().saturating_sub(children[i]).as_secs_f64() * 1e3)
            .sum()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let epoch = Instant::now();
        let mut t = Trace::new(epoch);
        let at = |ms| epoch + Duration::from_millis(ms);
        let root = t.span("op", at(0), at(10), None, 1);
        t.span("child", at(2), at(5), Some(root), 1);
        t.span("child", at(6), at(8), Some(root), 1);
        assert!((t.total_ms("op") - 10.0).abs() < 1e-9);
        assert!((t.total_ms("child") - 5.0).abs() < 1e-9);
        assert!((t.self_ms("op") - 5.0).abs() < 1e-9);
        assert_eq!(t.count("child"), 2);
    }
}
