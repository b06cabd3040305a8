//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer in a span:
//! name, start, end, the span that caused it, and an operation id
//! shared by every span of one operation. Each thread records into its
//! own [`Recorder`] (no locks on the hot path); recorders are merged
//! after the threads join and written out once, at exit. A disabled
//! recorder costs one branch per call, and the timed run uses one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub op: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for `thread`, timing against a shared `epoch`.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Recorder {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, thread: u32) -> Self {
        Recorder::new(self.enabled, self.epoch, thread)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            thread: self.thread,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Self::enter`] (and any left open
    /// inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// Records a closed span measured elsewhere (a fixed-work sample).
    pub fn record_sample(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            thread: self.thread,
            op,
            parent: self.stack.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Moves another recorder's spans into this one, re-basing their
    /// parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (µs) of every span called `name` whose parent span is
    /// called `parent`.
    pub fn durations_us(&self, name: &str, parent: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.map(|p| self.spans[p].name) == Some(parent))
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span name: count, total time and self time (total minus the
    /// time covered by direct children), in ns.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += s.duration_ns().saturating_sub(*child);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"thread\":{},\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.thread, s.op, parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}
