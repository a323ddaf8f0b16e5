//! In-memory spans for the traced pass.
//!
//! The benchmark records a span around each call into a layer
//! (workload → world → scenario.build / phy.medium_new / world.new /
//! world.run); nothing is written until the pass ends. A span's self
//! time is its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name.
    pub name: &'static str,
    /// The span that caused it.
    pub parent: Option<SpanId>,
    /// Trace identifier: spans of one pass share it.
    pub trace: u32,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Counts and probe-scope totals attached at this boundary.
    pub attrs: Vec<(String, f64)>,
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, trace: u32) -> SpanId {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            trace,
            start_ns: t,
            end_ns: t,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        trace: u32,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let id = self.open(name, parent, trace);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Attaches a named value to a span.
    pub fn attr(&mut self, id: SpanId, key: impl Into<String>, value: f64) {
        self.spans[id].attrs.push((key.into(), value));
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns: its duration minus the union of its
    /// children's intervals.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, s), own) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"attrs\":{{{}}}}}",
                s.trace,
                s.name,
                s.start_ns,
                s.end_ns,
                attrs.join(",")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            trace: 0,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut r = Recorder::new();
        r.spans = vec![
            at("world", None, 0, 100),
            at("a", Some(0), 10, 30),
            at("b", Some(0), 25, 50), // overlaps a by 5
            at("c", Some(2), 30, 40), // grandchild: not world's child
        ];
        assert_eq!(r.self_ns(), vec![60, 20, 15, 10]);
        let by = r.by_name();
        assert_eq!(by["world"], (1, 100, 60));
    }

    #[test]
    fn spans_nest_in_order() {
        let mut r = Recorder::new();
        let w = r.open("world", None, 3);
        let (c, v) = r.span("world.run", Some(w), 3, || 7);
        r.close(w);
        assert_eq!(v, 7);
        assert_eq!(r.spans()[c].parent, Some(w));
        assert!(r.spans()[w].end_ns >= r.spans()[c].end_ns);
    }
}
