//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's public
//! functions; nothing inside the program is instrumented. Every span keeps its name,
//! start and end (nanoseconds since the recorder was created), its parent span and the
//! instance or session id it worked for. The spans stay in memory until
//! [`Trace::document`] renders them, after the measurement is over.

use crate::util::json_string;
use std::time::{Duration, Instant};

/// One timed call into a layer.
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder: a flat list plus the stack of currently open spans.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` for instance or session `id`, as a child of the
    /// innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn end(&mut self) -> Duration {
        let index = self.open.pop().expect("a span is open");
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// Runs `work` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, work: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let value = work();
        self.end();
        value
    }

    /// Durations in milliseconds of every closed span named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Summed duration in milliseconds of every span whose name is in `names`.
    pub fn total_ms(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|name| self.durations_ms(name).iter().sum::<f64>())
            .sum()
    }

    /// Renders the spans as a JSON array (one object per span, start order).
    fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                format!(
                    "{{\"span\":{index},\"name\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    json_string(span.name),
                    span.id,
                    span.parent.map_or("null".to_string(), |p| p.to_string()),
                    span.start_ns,
                    span.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }

    /// The traced run's report: run description, per-layer metrics and every span.
    pub fn document(&self, header: &[(&str, String)], metrics: &[crate::Metric]) -> String {
        let header: Vec<String> = header
            .iter()
            .map(|(key, value)| format!("{}: {value}", json_string(key)))
            .collect();
        let metrics: Vec<String> = metrics.iter().map(crate::Metric::to_json).collect();
        format!(
            "{{{},\n\"metrics\": {{{}}},\n\"spans\": {}}}\n",
            header.join(",\n"),
            metrics.join(",\n"),
            self.spans_json()
        )
    }
}
