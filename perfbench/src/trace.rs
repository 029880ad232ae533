//! In-memory spans recorded from the benchmark's own call sites.
//!
//! Each span names the public call it wraps, carries the id of the
//! operation it belongs to and the index of the span that caused it.
//! Nothing is written out until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Operation id shared by every span of one benchmark operation.
    pub op: u64,
    /// The wrapped call, e.g. `zql::parser::parse`.
    pub name: &'static str,
    /// Index of the parent span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// Start and end, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A recorder owned by one caller thread. Disabled recorders make every
/// call a no-op apart from the closure itself.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between operations.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Sets the operation id the next root span belongs to.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s value.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Span durations grouped by name, in microseconds.
pub fn durations_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.ns() as f64 / 1e3);
    }
    out
}

/// How well children account for their parents, per parent name: the
/// summed wall time of each parent's direct children over the parent's
/// own, across every parent that has children. Also checks that every
/// child lies inside its parent and shares its operation id.
pub fn coverage(spans: &[Span]) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns || s.op != parent.op {
                return Err(format!(
                    "span {} (op {}) escapes its parent {} (op {})",
                    s.name, s.op, parent.name, parent.op
                ));
            }
            child_ns[p] += s.ns();
            has_child[p] = true;
        }
    }
    let mut sums: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if has_child[i] {
            let e = sums.entry(s.name).or_default();
            e.0 += child_ns[i];
            e.1 += s.ns();
        }
    }
    Ok(sums
        .into_iter()
        .map(|(k, (c, p))| (k, c as f64 / p.max(1) as f64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_cover_their_parent() {
        let mut rec = Recorder::new(Instant::now(), true);
        rec.begin_op(7);
        rec.span("op", |r| {
            r.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[1].parent, Some(0));
        let cov = coverage(&spans).unwrap();
        assert!(cov["op"] > 0.9 && cov["op"] <= 1.0, "{cov:?}");
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        assert_eq!(rec.span("op", |_| 5), 5);
        assert!(rec.into_spans().is_empty());
    }
}
