//! In-memory spans around every call the benchmark makes into the program.
//!
//! A span records its name, start, end, parent span and pass id. Spans stay
//! in memory until the run ends; [`Tracer::write_jsonl`] then writes them
//! out. A disabled tracer never reads the clock, so untraced passes time
//! the program alone.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `modelcheck.explore` or `sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass this span belongs to.
    pub pass: u32,
    /// What the span works on, e.g. the fixture name (fixture spans only).
    pub label: Option<String>,
}

impl Span {
    /// The layer a span is charged to: `bench` for the benchmark's own
    /// pass and fixture spans, `modelcheck.explore` for exploration and the
    /// graph accessors, `modelcheck.analysis` for the CSR analyses,
    /// otherwise the name up to its first dot (`core`, `sim`).
    pub fn layer(&self) -> &'static str {
        let n = self.name;
        if n.starts_with("modelcheck.explore") {
            "modelcheck.explore"
        } else if n.starts_with("modelcheck.") {
            "modelcheck.analysis"
        } else {
            n.split_once('.').map_or(n, |(layer, _)| layer)
        }
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; a no-op unless enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    pass: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            enabled: Cell::new(false),
            epoch: Instant::now(),
            pass: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off for the following calls.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Sets the pass id stamped on new spans.
    pub fn set_pass(&self, pass: u32) {
        self.pass.set(pass);
    }

    /// Runs `f` inside a span called `name` (just runs it when disabled).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_labeled(name, || None, f)
    }

    /// [`span`](Self::span) with a label, built only when recording.
    pub fn span_labeled<R>(
        &self,
        name: &'static str,
        label: impl FnOnce() -> Option<String>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                pass: self.pass.get(),
                label: label(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        // Closing through a guard keeps the open-span stack right when `f`
        // panics and the benchmark catches the unwind.
        let _close = Close { tracer: self, idx };
        f()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total duration of the spans of `pass`, by span name, in seconds.
    pub fn totals_by_name(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.borrow().iter().filter(|s| s.pass == pass) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
        }
        out
    }

    /// Self time of each layer in `pass`, in seconds: every span's
    /// duration minus the part its direct children cover.
    pub fn self_time_by_layer(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut self_ns: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns())).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                self_ns[p] -= i128::from(s.dur_ns());
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in spans.iter().zip(self_ns) {
            if s.pass == pass {
                *out.entry(s.layer()).or_insert(0.0) += ns.max(0) as f64 * 1e-9;
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let label = s
                .label
                .as_ref()
                .map_or_else(String::new, |l| format!(", \"label\": \"{l}\""));
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"pass\": {}, \"name\": \"{}\", \
                 \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}{label}}}",
                s.pass,
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

struct Close<'t> {
    tracer: &'t Tracer,
    idx: usize,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        self.tracer.open.borrow_mut().pop();
        self.tracer.spans.borrow_mut()[self.idx].end_ns = self.tracer.now_ns();
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.set_pass(1);
        t.span("bench.pass", || {
            t.span("core.search", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let self_t = t.self_time_by_layer(1);
        assert!(self_t["core"] >= 0.002);
        assert!(self_t["bench"] < self_t["core"]);
        assert_eq!(t.len(), 2);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("write to memory");
        assert_eq!(String::from_utf8(buf).expect("utf8").lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("sim.run", || 7), 7);
        assert!(t.is_empty());
    }
}
