//! In-memory spans for the traced run.
//!
//! A span is recorded around each call into a layer: name, start, end,
//! the enclosing span, and the iteration or request id it belongs to.
//! Spans stay in memory until the run ends, when they can be written as
//! Chrome-trace JSON (`chrome://tracing`, Perfetto).

use serde_json::{Map, Number, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far (a cursor for [`Tracer::since`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans recorded after cursor `from`.
    pub fn since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    /// Total duration per name of the leaf spans (spans with no
    /// children) recorded after `from`: the stages an iteration is made
    /// of, with nothing counted twice.
    pub fn leaf_totals(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let mut has_child = vec![false; self.spans.len() - from];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                has_child[p - from] = true;
            }
        }
        let mut totals = BTreeMap::new();
        for (s, parent) in self.spans[from..].iter().zip(has_child) {
            if !parent {
                *totals.entry(s.name).or_insert(0) += s.dur_ns();
            }
        }
        totals
    }

    /// Self time per name over the whole run: each span's duration minus
    /// the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// The whole recording as Chrome-trace JSON (complete `X` events,
    /// microsecond timestamps, the parent index and id in `args`).
    pub fn chrome_json(&self) -> String {
        let num = |v: f64| Value::Number(Number::Float(v));
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Map::new();
                args.insert("span", Value::Number(Number::PosInt(i as u64)));
                args.insert("id", Value::Number(Number::PosInt(s.id)));
                if let Some(p) = s.parent {
                    args.insert("parent", Value::Number(Number::PosInt(p as u64)));
                }
                let mut e = Map::new();
                e.insert("name", Value::String(s.name.to_string()));
                e.insert("ph", Value::String("X".into()));
                e.insert("ts", num(s.start_ns as f64 / 1e3));
                e.insert("dur", num(s.dur_ns() as f64 / 1e3));
                e.insert("pid", Value::Number(Number::PosInt(1)));
                e.insert("tid", Value::Number(Number::PosInt(1)));
                e.insert("args", Value::Object(args));
                Value::Object(e)
            })
            .collect();
        let mut doc = Map::new();
        doc.insert("traceEvents", Value::Array(events));
        serde_json::to_string(&Value::Object(doc)).expect("spans serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_and_self_times_do_not_double_count() {
        let mut t = Tracer::new();
        t.span("root", 0, |t| {
            t.span("a", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", 0, |_| ());
        });
        let leaves = t.leaf_totals(0);
        assert_eq!(leaves.keys().copied().collect::<Vec<_>>(), ["a", "b"]);
        let root = &t.since(0)[0];
        let selfs = t.self_times();
        assert_eq!(
            selfs["root"] + leaves["a"] + leaves["b"],
            root.dur_ns(),
            "self times partition the root span"
        );
        let json = serde_json::parse(&t.chrome_json()).expect("valid JSON");
        let events = json.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_u64),
            Some(0)
        );
    }
}
