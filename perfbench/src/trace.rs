//! In-memory spans for the traced run, written out as one Chrome-trace
//! JSON document when the run ends.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval, in seconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Operation (request or step) the span belongs to.
    pub req: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn push(
        &mut self,
        name: &'static str,
        (start, end): (f64, f64),
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.children.push(Vec::new());
        if let Some(p) = parent {
            self.children[p].push(id);
        }
        id
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, (start, end), parent, req);
        out
    }

    pub fn set_end(&mut self, id: usize, end: f64) {
        self.spans[id].end = end;
    }

    /// Self time of span `id`: its length minus the union of its children.
    pub fn self_time(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let kids: Vec<(f64, f64)> = self.children[id]
            .iter()
            .map(|&c| (self.spans[c].start, self.spans[c].end))
            .collect();
        self_time((s.start, s.end), &kids)
    }

    /// Self time summed by span name over `root` and all its descendants.
    pub fn self_by_name(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            *out.entry(self.spans[id].name).or_insert(0.0) += self.self_time(id);
            stack.extend(&self.children[id]);
        }
        out
    }

    /// Chrome-trace JSON (complete events, microseconds).
    pub fn chrome_json(&self, stamp: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 256);
        write!(out, "{{\"otherData\":{stamp},\"traceEvents\":[").expect("write to String");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.req,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.parent.map_or(-1, |p| p as i64)
            )
            .expect("write to String");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_by_name_walks_the_tree() {
        let mut t = Tracer::new();
        let root = t.push("step", (0.0, 10.0), None, 1);
        let a = t.push("fwd", (1.0, 4.0), Some(root), 1);
        t.push("fwd", (3.0, 6.0), Some(root), 1);
        t.push("kernel", (1.5, 2.5), Some(a), 1);
        let by = t.self_by_name(root);
        assert_eq!(by["step"], 5.0);
        assert_eq!(by["fwd"], 3.0 - 1.0 + 3.0);
        assert_eq!(by["kernel"], 1.0);
        assert!(t.chrome_json("{}").contains("\"name\":\"kernel\""));
    }
}
