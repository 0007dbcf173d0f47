//! In-memory spans recorded around calls into each layer's public
//! functions, written out when the run ends.
//!
//! A span's layer is its name up to the last dot (`serve.http.read` →
//! `serve.http`, `graph.apply` → `graph`). A layer's self time is the sum
//! over its spans of the span's duration minus the part its child spans
//! cover; the root span of each op (`op`) is the traced harness itself.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The name of every op's root span.
pub const ROOT: &str = "op";

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index (the parent handle
    /// for spans it caused).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Opens an op's root span; close it with [`Tracer::close`].
    pub fn open(&mut self, op: usize) -> usize {
        let t = self.now();
        self.record(ROOT, t, t, None, op)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let op = self.spans[parent].op;
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, Some(parent), op);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// Per op, the summed duration in µs of its spans named in `names`.
    pub fn per_op_sum_us(&self, names: &[&str]) -> Vec<f64> {
        let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.name == ROOT {
                sums.entry(s.op).or_insert(0);
            } else if names.contains(&s.name) {
                *sums.entry(s.op).or_insert(0) += s.ns();
            }
        }
        sums.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// Total self time in ns per layer.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(layer(s.name)).or_insert(0) += s.ns().saturating_sub(c);
        }
        out
    }

    /// Writes every span as a tab-separated row.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span\top\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// The layer a span belongs to: its name up to the last dot.
pub fn layer(name: &'static str) -> &'static str {
    name.rsplit_once('.').map_or(name, |(l, _)| l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_is_the_name_up_to_the_last_dot() {
        assert_eq!(layer("serve.http.read"), "serve.http");
        assert_eq!(layer("graph.apply"), "graph");
        assert_eq!(layer(ROOT), ROOT);
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut t = Tracer::new();
        let root = t.record(ROOT, 0, 100, None, 0);
        t.record("serve.http.read", 10, 30, Some(root), 0);
        let svc = t.record("serve.service.update", 30, 90, Some(root), 0);
        t.record("graph.apply", 40, 50, Some(svc), 0);
        let st = t.self_time_ns();
        assert_eq!(st[ROOT], 20);
        assert_eq!(st["serve.http"], 20);
        assert_eq!(st["serve.service"], 50);
        assert_eq!(st["graph"], 10);
        assert_eq!(
            t.per_op_sum_us(&["serve.http.read", "serve.service.update"]),
            vec![0.08]
        );
    }
}
