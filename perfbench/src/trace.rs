//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span holds its name, start, end, parent and job id. Spans stay in
//! memory until the run ends and are then written as JSON lines. A
//! span's *self* time is its duration minus the time its direct children
//! cover; a layer's self time is the sum over its spans. Spans with no
//! layer (the per-job root spans) are the unattributed remainder.

use hsm_core::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The workspace modules time is attributed to, in pipeline order.
pub const LAYERS: [&str; 9] = [
    "bench",
    "cir",
    "analysis",
    "partition",
    "translate",
    "vm",
    "exec",
    "sccsim",
    "core",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<entry point>`, or `job` for a per-job root.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job the span belongs to (0 outside jobs).
    pub job: u64,
    children: Duration,
}

impl Span {
    /// The layer the span's name starts with, if any.
    pub fn layer(&self) -> Option<&'static str> {
        let prefix = self.name.split('.').next().unwrap_or("");
        LAYERS.iter().copied().find(|l| *l == prefix)
    }

    /// Duration minus the time direct children cover.
    pub fn self_time(&self) -> Duration {
        (self.end - self.start).saturating_sub(self.children)
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// calls its closure, so traced and untraced replays run the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// Tags the spans that follow with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            job: self.job,
            children: Duration::ZERO,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end = self.origin.elapsed();
        self.spans[index].end = end;
        if let Some(parent) = self.spans[index].parent {
            let duration = end - self.spans[index].start;
            self.spans[parent].children += duration;
        }
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer; unattributed time under the key `""`. With
    /// `jobs_only`, only spans recorded inside jobs count.
    pub fn self_times(&self, jobs_only: bool) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for span in self.spans.iter().filter(|s| !jobs_only || s.job != 0) {
            *out.entry(span.layer().unwrap_or("")).or_default() += span.self_time();
        }
        out
    }

    /// Call count and total duration per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, Duration)> {
        let mut out: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
        for span in &self.spans {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.end - span.start;
        }
        out
    }

    /// Mean duration per call of the spans named `name`, in ms.
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        let (n, total) = self.by_name().get(name).copied()?;
        Some(total.as_secs_f64() * 1e3 / n as f64)
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let mut pairs = vec![
                ("id", Json::UInt(i as u64)),
                ("name", Json::str(span.name)),
                ("job", Json::UInt(span.job)),
                ("start_ns", Json::UInt(span.start.as_nanos() as u64)),
                ("end_ns", Json::UInt(span.end.as_nanos() as u64)),
            ];
            if let Some(parent) = span.parent {
                pairs.push(("parent", Json::UInt(parent as u64)));
            }
            writeln!(out, "{}", Json::obj(pairs).render_compact())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_are_unattributed() {
        let mut tr = Tracer::new(true);
        tr.set_job(7);
        tr.span("job", |tr| {
            tr.span("core.cache", |tr| {
                tr.span("cir.parse", |_| {
                    std::thread::sleep(Duration::from_millis(20))
                });
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.job == 7));
        let times = tr.self_times(true);
        assert!(times["cir"] >= Duration::from_millis(20));
        assert!(times["core"] < Duration::from_millis(5), "{times:?}");
        assert!(times[""] < Duration::from_millis(5), "{times:?}");
        let mut off = Tracer::new(false);
        assert_eq!(off.span("cir.parse", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
