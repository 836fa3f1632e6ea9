//! Coarse spans of a traced run, kept in memory and printed at the end.

use std::time::Instant;

use fgnvm_obs::json;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans on one clock, each with the span that caused it.
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    /// An empty span list whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.push(name, parent, (start_ns, start_ns))
    }

    /// Ends a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: usize) {
        self.list[id].end_ns = self.now_ns();
    }

    /// Records a finished span measured elsewhere on the same clock.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        (start_ns, end_ns): (u64, u64),
    ) -> usize {
        self.list.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.list.len() - 1
    }

    /// `(start, end)` of a span, in nanoseconds.
    pub fn span(&self, id: usize) -> (u64, u64) {
        (self.list[id].start_ns, self.list[id].end_ns)
    }

    /// Length of a span in seconds.
    pub fn duration_s(&self, id: usize) -> f64 {
        let (s, e) = self.span(id);
        (e - s) as f64 * 1e-9
    }

    /// Every span as one JSON array.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .list
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    json::quote(s.name),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}
