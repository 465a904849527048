//! Spans around the benchmark's own calls into each layer's public
//! functions. Spans stay in memory during the run; self time is a span's
//! duration minus the time its children cover, and the whole list is
//! written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.drain_into`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Frame, job or round identifier the span belongs to.
    pub id: u64,
}

/// An in-memory span recorder. When disabled, [`Tracer::enter`] and
/// [`Tracer::exit`] cost one branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Whether spans are being recorded.
    pub on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// A recorder with room for `capacity` spans, off until `on` is set.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            spans: Vec::with_capacity(capacity),
            ..Default::default()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for `id`, nested under the innermost open
    /// span.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(u32::MAX);
        }
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
            id,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes the span `open`.
    pub fn exit(&mut self, open: Open) {
        if open.0 == u32::MAX {
            return;
        }
        let end = self.now();
        self.spans[open.0 as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in stack order");
    }

    /// Records a span measured elsewhere (e.g. inside a worker thread),
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            id,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: (count, total ns, self ns). Children of one
    /// parent may overlap when they ran on different threads; their
    /// covered time is the union of their intervals.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end.saturating_sub(s.start);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur as f64;
            e.2 += dur.saturating_sub(covered) as f64;
        }
        out
    }

    /// Total ns of spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .sum()
    }

    /// Durations in ns of spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Writes every span as tab-separated `index name start end parent id`
    /// lines, followed by the per-name totals.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# index\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.id
            )?;
        }
        writeln!(w, "# name\tcount\ttotal_ns\tself_ns")?;
        for (name, (n, total, own)) in self.totals() {
            writeln!(w, "# {name}\t{n}\t{total:.0}\t{own:.0}")?;
        }
        w.flush()
    }
}
