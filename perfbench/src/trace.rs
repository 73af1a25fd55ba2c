//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers (no instrumentation inside the program). Spans are
//! kept in memory and written out once, at the end of a traced run,
//! with each layer's self time: a span's duration minus the union of
//! the intervals its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` is the index of the enclosing span.
pub struct Span {
    pub layer: &'static str,
    pub batch: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one traced run, timed against a common epoch.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
}

/// Per-layer totals over a trace.
#[derive(Default)]
pub struct LayerTotals {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Trace {
    /// A trace that keeps at most `cap` spans (later root spans are
    /// dropped with their children, so a long traced section stays
    /// bounded in memory).
    pub fn new(cap: usize) -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
        }
    }

    /// Nanoseconds since the trace epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The epoch, for timing inside parallel closures.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a root span with room for `children` spans under it and
    /// returns its index; once the trace is full it records nothing and
    /// returns `None`, so a kept span always keeps all its children.
    pub fn root(
        &mut self,
        layer: &'static str,
        batch: u32,
        start_ns: u64,
        end_ns: u64,
        children: usize,
    ) -> Option<u32> {
        (self.spans.len() + 1 + children <= self.cap)
            .then(|| self.push(layer, batch, None, start_ns, end_ns))
    }

    /// Records a span under `parent` (within the room its root reserved).
    pub fn child(
        &mut self,
        layer: &'static str,
        batch: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.push(layer, batch, Some(parent), start_ns, end_ns)
    }

    fn push(
        &mut self,
        layer: &'static str,
        batch: u32,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            layer,
            batch,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() as u32 - 1
    }

    /// Total and self time per layer.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_within(kids, s.start_ns, s.end_ns);
            let t = out.entry(s.layer).or_default();
            t.spans += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered;
        }
        out
    }

    /// Writes every span as a tab-separated line, then the per-layer
    /// totals, to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# span\tlayer\tbatch\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.layer, s.batch, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "# layer\tspans\ttotal_ns\tself_ns")?;
        for (layer, t) in self.layer_totals() {
            writeln!(w, "# {layer}\t{}\t{}\t{}", t.spans, t.total_ns, t.self_ns)?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_within(&mut v, 1, 25), 2 + 7 + 5);
    }
}
