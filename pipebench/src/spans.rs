//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each crate's public API from
//! the benchmark's own code; nothing under `crates/` is instrumented.
//! A span's *self time* is its duration minus the part its children
//! cover. [`Recorder::check_cell`] enforces the conservation law: the
//! spans of one cell nest properly, so the cell's top-level spans plus
//! its remainder add up exactly to the cell's wall time.

use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` relative to the recorder's
/// epoch, the enclosing span, and the cell it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified span name (`"pdg.build"`, `"sim.mt"`, ...).
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The cell the span belongs to.
    pub cell: usize,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans into a flat arena.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: usize,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }
}

impl Recorder {
    /// Tags subsequently opened spans with `cell`.
    pub fn set_cell(&mut self, cell: usize) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell: self.cell,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Checks the conservation law for the root span `root`: every
    /// descendant lies inside its parent, siblings do not overlap, and
    /// the self times of the root's subtree sum exactly to its wall
    /// time. Returns the root's remainder (wall minus its top-level
    /// children), in ns.
    ///
    /// # Errors
    ///
    /// Names the first span that breaks the law.
    pub fn check_cell(&self, root: usize) -> Result<u64, String> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut self_sum = 0u64;
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            let s = &self.spans[i];
            let mut covered = 0u64;
            let mut prev_end = s.start_ns;
            for &c in &children[i] {
                let k = &self.spans[c];
                if k.cell != s.cell || k.start_ns < prev_end || k.end_ns > s.end_ns {
                    return Err(format!(
                        "span {} [{}, {}) does not nest inside {} [{}, {}) after {prev_end}",
                        k.name, k.start_ns, k.end_ns, s.name, s.start_ns, s.end_ns
                    ));
                }
                prev_end = k.end_ns;
                covered += k.dur_ns();
                stack.push(c);
            }
            self_sum += s.dur_ns() - covered;
        }
        let wall = self.spans[root].dur_ns();
        if self_sum != wall {
            return Err(format!(
                "cell {}: self times sum to {self_sum} ns, wall is {wall} ns",
                self.spans[root].cell
            ));
        }
        let top: u64 = children[root].iter().map(|&c| self.spans[c].dur_ns()).sum();
        Ok(wall - top)
    }

    /// Inclusive time of every span named `name`, summed, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// The spans as JSON lines (one object per span, opening order).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.cell, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_conserve_and_overlap_is_rejected() {
        let mut rec = Recorder::default();
        rec.set_cell(3);
        rec.span("harness.cell", |rec| {
            rec.span("a", |rec| rec.span("b", |_| std::hint::black_box(1)));
            rec.span("c", |_| ());
        });
        let remainder = rec.check_cell(0).expect("well nested");
        let wall = rec.spans()[0].dur_ns();
        assert_eq!(rec.total_ns("a") + rec.total_ns("c") + remainder, wall);
        assert!(rec.spans().iter().all(|s| s.cell == 3));

        let mut bad = rec.spans.clone();
        bad[3].start_ns = bad[1].start_ns; // `c` now overlaps `a`
        let rec = Recorder {
            spans: bad,
            ..Recorder::default()
        };
        assert!(rec.check_cell(0).is_err());
    }
}
