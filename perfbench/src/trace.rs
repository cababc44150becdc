//! The benchmark's own span recorder. Spans are opened only in this
//! package, around calls into the compiler's public API; they are kept in
//! memory, self times are computed at the end, and the whole trace is
//! written out when the run finishes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
    /// The op (request) this span belongs to; spans of one op share it.
    op: u64,
}

/// Per-name totals.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new op; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// An empty tracer on this one's clock for another thread; its op ids
    /// are offset by `lane` so they never collide with this one's.
    pub fn fork(&self, lane: u64) -> Tracer {
        Tracer {
            t0: self.t0,
            spans: Vec::new(),
            stack: Vec::new(),
            op: (lane + 1) << 32,
        }
    }

    /// Appends the spans a forked tracer recorded.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans[idx].dur_ns = end - self.spans[idx].start_ns;
        r
    }

    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Calls, inclusive and self time per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut m: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let a = m.entry(s.name).or_default();
            a.calls += 1;
            a.total_ns += s.dur_ns;
            a.self_ns += self_ns;
        }
        m
    }

    /// The trace as JSON: a per-name summary and every span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"summary\": {");
        for (i, (name, a)) in self.aggregate().iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {{\"calls\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                if i > 0 { ", " } else { "" },
                a.calls,
                a.total_ns as f64 / 1e6,
                a.self_ms()
            );
        }
        out.push_str("},\n\"spans\": [\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_us\": {}, \"dur_us\": {}, \"self_us\": {}}}",
                if i > 0 { "," } else { "" },
                s.name,
                s.op,
                s.start_ns / 1000,
                s.dur_ns / 1000,
                self_ns / 1000
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Runs `f` inside a span when a tracer is given, and plainly otherwise.
pub fn span_opt<R>(tr: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// Runs `f` as a new op inside a span when a tracer is given.
pub fn op_opt<R>(tr: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => {
            t.next_op();
            t.span(name, |_| f())
        }
        None => f(),
    }
}
