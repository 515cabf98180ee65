//! The benchmark's own spans: host-time intervals recorded around its
//! calls into the simulator (set-up, each issue call, each `run_until`
//! slice, each replayed layer call). Spans stay in memory and are written
//! out once, when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-boundary name (`"sim.run_until"`, `"testbed.issue"`, ...).
    pub name: &'static str,
    /// Host nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Host nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The request this span belongs to (0 = none).
    pub req: u64,
}

/// An in-memory span log.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Host nanoseconds since the origin of `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span, returning its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        id
    }

    /// Opens a span whose end is filled in later by [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = Instant::now();
        self.push(name, now, now, parent, req)
    }

    /// Closes a span opened by [`SpanLog::open`].
    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Renders the log as a JSON array of
    /// `{"id","name","start_ns","end_ns","parent","req"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out.push_str("]\n");
        out
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}
