//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side, around each call into a
//! layer's public functions: name, start, end, parent span and request id.
//! They stay in memory until the run ends and are then written out as one
//! tab-separated line each. A layer's self time is its span's duration minus
//! the time its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u32,
}

/// Recorder of nested spans. Spans must close in reverse order of opening.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

/// Totals of one span name.
#[derive(Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans).
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per span in ns (0 when none was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            request: 0,
        }
    }

    /// A recorder whose spans cost nothing and record nothing: the same
    /// code path with tracing off.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Set the request id stamped on the spans opened from now on.
    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    /// Open a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("close without an open span");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Per-name totals, with self time computed from the parent links.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child);
        }
        out
    }

    /// Header of [`Tracer::write_to`]'s lines.
    pub const HEADER: &'static str = "pass\tname\tstart_ns\tend_ns\tparent\trequest";

    /// Write every span as `pass name start_ns end_ns parent request`, tab
    /// separated; `parent` is the parent's line index within the pass, `-`
    /// for a root span.
    pub fn write_to<W: Write>(&self, w: &mut W, pass: &str) -> io::Result<()> {
        for s in &self.spans {
            write!(w, "{pass}\t{}\t{}\t{}\t", s.name, s.start_ns, s.end_ns)?;
            if s.parent == NO_PARENT {
                writeln!(w, "-\t{}", s.request)?;
            } else {
                writeln!(w, "{}\t{}", s.parent, s.request)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.open("root");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        let totals = t.totals();
        let root = totals["root"];
        let child = totals["child"];
        assert_eq!(root.count, 1);
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(root.self_ns + child.total_ns, root.total_ns);
    }
}
