//! In-memory spans timed around calls into one layer's public functions.
//!
//! Every call the benchmark makes into the program is timed (the untraced
//! run needs the durations too); a [`Tracer`] additionally *records* a span
//! when enabled. Spans carry the request they belong to and the span that
//! was open when they began, and are written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Sub-grouping within a layer, e.g. the aggregation class of a query.
    pub group: Option<&'static str>,
    /// The request (one query execution) this span belongs to.
    pub request: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// A span in progress.
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer { enabled, origin, spans: Vec::new(), open: Vec::new() }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn begin(&mut self, name: &'static str, group: Option<&'static str>, request: u64) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let at = (start - self.origin).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                group,
                request,
                parent: self.open.last().copied(),
                start_us: at,
                end_us: at,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Close `span`, returning its duration in milliseconds.
    pub fn end(&mut self, span: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = span.index {
            self.spans[i].end_us = (end - self.origin).as_secs_f64() * 1e6;
            self.open.retain(|&o| o != i);
        }
        (end - span.start).as_secs_f64() * 1000.0
    }

    /// Time `f` as span `name`, returning its value and milliseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        group: Option<&'static str>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.begin(name, group, request);
        let out = f();
        (out, self.end(span))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the recorded spans named `name` (within `group` when
    /// given), in milliseconds.
    pub fn durations(&self, name: &str, group: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (group.is_none() || s.group == group))
            .map(Span::ms)
            .collect()
    }

    /// Take over another tracer's spans (same origin), keeping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let group = s.group.map_or("null".to_string(), |g| format!("\"{g}\""));
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"group\":{group},\"request\":{},\"parent\":{parent},\
                 \"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.request, s.start_us, s.end_us
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, ms) = t.time("layer.call", None, 1, || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::new(true, Instant::now());
        let q = t.begin("query", None, 3);
        t.time("a", Some("g"), 3, || ());
        t.time("b", None, 3, || ());
        t.end(q);
        t.time("c", None, 4, || ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (Some(0), Some(0), None));
        assert!(s[0].end_us >= s[2].end_us);
        assert_eq!(t.durations("a", Some("g")).len(), 1);
        assert_eq!(t.durations("a", Some("h")).len(), 0);

        let mut merged = Tracer::new(true, Instant::now());
        merged.time("x", None, 0, || ());
        merged.absorb(t);
        assert_eq!(merged.spans()[2].parent, Some(1));
    }
}
