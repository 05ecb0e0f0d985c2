//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library's public functions (the library itself records no timings).
//! Each span carries a name, start and end, the span that enclosed it and
//! the id of the op it belongs to. Nothing is written until the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Self time (duration minus time covered by child spans) of every span
    /// named `name`, summed per op, in milliseconds — one value per op that
    /// recorded the span, in op order.
    pub fn self_ms_per_op(&self, name: &str) -> Vec<f64> {
        self.ms_per_op(name, &self.child_ns())
    }

    /// Like [`Tracer::self_ms_per_op`], but whole durations, children
    /// included.
    pub fn wall_ms_per_op(&self, name: &str) -> Vec<f64> {
        self.ms_per_op(name, &vec![0; self.spans.len()])
    }

    fn ms_per_op(&self, name: &str, child: &[u64]) -> Vec<f64> {
        let mut per_op: Vec<(u64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let ms = s.dur_ns().saturating_sub(child[i]) as f64 / 1e6;
            match per_op.iter_mut().find(|(op, _)| *op == s.op) {
                Some((_, acc)) => *acc += ms,
                None => per_op.push((s.op, ms)),
            }
        }
        per_op.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Share of the summed duration of the root spans named `root` that no
    /// child span covers.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let child = self.child_ns();
        let (mut total, mut own) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root && s.parent.is_none() {
                total += s.dur_ns();
                own += s.dur_ns().saturating_sub(child[i]);
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
