//! Spans recorded by the traced run around calls into each layer.
//!
//! Spans are kept in memory while the run measures and written as JSON
//! lines when it ends, to `perfbench/traces/<workload>-seed<seed>.jsonl`.
//! Spans of one request share its `request` id; `parent` names the span
//! that caused it.

use std::io::Write;
use std::time::Instant;

/// One timed interval, in microseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span this one was caused by.
    pub parent: Option<u64>,
    /// The request (or offline solve) the span belongs to.
    pub request: String,
    /// `<crate>.<layer>` or `client.request`.
    pub name: &'static str,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
}

/// An append-only span buffer with a shared epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds from the epoch to `t`.
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span given in epoch microseconds and returns its id.
    pub fn push_us(
        &mut self,
        parent: Option<u64>,
        request: &str,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request: request.to_string(),
            name,
            start_us,
            end_us,
        });
        id
    }

    /// Records a span between two instants and returns its id.
    pub fn push(
        &mut self,
        parent: Option<u64>,
        request: &str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (s, e) = (self.us(start), self.us(end));
        self.push_us(parent, request, name, s, e)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span as one JSON line to the run's trace file and
    /// returns its path.
    pub fn write(&self, stem: &str) -> std::io::Result<String> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{stem}.jsonl");
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":\"{}\",\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}
