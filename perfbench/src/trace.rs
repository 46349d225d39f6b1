//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. The program's own recorder stays off: these
//! spans live only in the benchmark and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Upper bound on spans kept for writing out; later spans still count
/// towards the totals.
const MAX_KEPT: usize = 400_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Operation (point or request) the span belongs to.
    op: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

struct OpenSpan {
    /// Index into `spans`, when the span is kept for writing out.
    kept: Option<usize>,
    /// Time covered by this span's children so far.
    child_ns: u64,
}

/// Per-span-name totals: inclusive time, self time (inclusive minus the
/// time covered by child spans) and call count.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub total_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<OpenSpan>,
    totals: BTreeMap<&'static str, SpanTotals>,
    /// Time inside root spans (spans with no open parent).
    covered_ns: u64,
    /// Time spent in [`Tracer::excluded`] sections, hidden from every span.
    excluded_ns: u64,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            covered_ns: 0,
            excluded_ns: 0,
            op: 0,
        }
    }

    /// Tag the spans that follow with an operation identifier.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Nanoseconds since the tracer started, minus excluded sections.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64 - self.excluded_ns
    }

    /// Run `f` off the clock: its duration is hidden from every open span
    /// and from [`Tracer::now_ns`], and returned in milliseconds. Used for
    /// replaying a call's sub-steps without inflating the call itself.
    pub fn excluded<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.excluded_ns += ns;
        (out, ns as f64 / 1e6)
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = self.now_ns();
        let parent = self.stack.last().and_then(|o| o.kept);
        let kept = (self.spans.len() < MAX_KEPT).then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                start_ns: start,
                end_ns: start,
                parent,
            });
            self.spans.len() - 1
        });
        self.stack.push(OpenSpan { kept, child_ns: 0 });
        let out = f(self);
        let end = self.now_ns();
        let open = self.stack.pop().expect("span stack is balanced");
        let dur = end - start;
        if let Some(i) = open.kept {
            self.spans[i].end_ns = end;
        }
        let t = self.totals.entry(name).or_default();
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        t.calls += 1;
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.covered_ns += dur,
        }
        out
    }

    /// Totals for one span name.
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Inclusive milliseconds spent in spans called `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.totals(name).total_ns as f64 / 1e6
    }

    /// Milliseconds covered by root spans.
    pub fn covered_ms(&self) -> f64 {
        self.covered_ns as f64 / 1e6
    }

    /// Self time per layer (the span-name prefix before the first `.`).
    pub fn layer_self_ms(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (name, t) in &self.totals {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *out.entry(layer).or_default() += t.self_ns as f64 / 1e6;
        }
        out
    }

    /// The layer table: self time per pass and share of the traced wall.
    pub fn layer_table(&self, workload: &str, passes: f64, wall_ms: f64) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "traced layers for {workload} (per pass, {passes} passes)"
        );
        let _ = writeln!(s, "  {:<10} {:>12} {:>8}", "layer", "self_ms", "share");
        for (layer, ms) in self.layer_self_ms() {
            let _ = writeln!(
                s,
                "  {:<10} {:>12.3} {:>7.1}%",
                layer,
                ms / passes,
                100.0 * ms / wall_ms.max(1e-9)
            );
        }
        s
    }

    /// Write the kept spans as Chrome trace events (`ph: "X"`, µs).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                r#"{{"name":"{}","ph":"X","pid":1,"tid":1,"ts":{:.3},"dur":{:.3},"args":{{"id":{},"parent":{},"op":{}}}}}"#,
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.op
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.span("core.solve", |tr| {
            spin(4);
            tr.span("qbd.solve", |_| spin(6));
        });
        let core = tr.totals("core.solve");
        let qbd = tr.totals("qbd.solve");
        assert!(core.total_ns >= qbd.total_ns + 4_000_000);
        assert!(core.self_ns < core.total_ns - 5_000_000);
        assert_eq!(qbd.self_ns, qbd.total_ns);
        // Only the root span counts towards coverage.
        assert!((tr.covered_ms() - core.total_ns as f64 / 1e6).abs() < 1e-9);
        let layers = tr.layer_self_ms();
        assert!(layers["qbd"] >= 6.0);
    }

    #[test]
    fn excluded_sections_are_hidden_from_spans() {
        let mut tr = Tracer::new();
        let before = tr.now_ns();
        let ms = tr.span("core.solve", |tr| tr.excluded(|| spin(10)).1);
        assert!(ms >= 10.0);
        assert!(tr.ms("core.solve") < 5.0);
        assert!(tr.now_ns() - before < 5_000_000);
    }
}
