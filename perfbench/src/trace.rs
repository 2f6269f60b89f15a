//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start, end, the span that caused it and the id of
//! the request it belongs to. Spans stay in memory while the workload
//! runs and are written out once at the end, each with its self time:
//! its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: String,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans from any number of threads. A disabled tracer only
/// times; it records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, tagged with
    /// `request`. `f` receives the span's id to parent its children.
    /// Returns `f`'s result and the span's duration in seconds.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: &str,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> (R, f64) {
        let id = self
            .enabled
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            let record = SpanRecord {
                id,
                parent,
                name,
                request: request.to_string(),
                start_ns: nanos(start.duration_since(self.origin)),
                end_ns: nanos(end.duration_since(self.origin)),
            };
            self.spans
                .lock()
                .expect("span list lock is never held across a panic")
                .push(record);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Per span name: count, total milliseconds and self milliseconds.
    #[must_use]
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.sorted();
        let self_ns = self_times(&spans);
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(&self_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
            e.2 += *own as f64 / 1e6;
        }
        out
    }

    /// Writes every span (with its self time) and the per-name summary
    /// as one JSON document.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let spans = self.sorted();
        let self_ns = self_times(&spans);
        let mut out = format!("{{{header},\"spans\":[");
        for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.id,
                s.name,
                s.request,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                *own as f64 / 1e3
            );
        }
        out.push_str("\n],\"summary\":{");
        for (i, (name, (count, total, own))) in self.summary().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n\"{name}\":{{\"count\":{count},\"total_ms\":{total:.6},\"self_ms\":{own:.6}}}"
            );
        }
        out.push_str("\n}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    fn sorted(&self) -> Vec<SpanRecord> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock is never held across a panic")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of each span: its duration minus the union of its
/// children's intervals.
fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("root", None, "r1", |root| {
            t.span("child", root, "r1", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let s = t.summary();
        let (_, root_total, root_self) = s["root"];
        let (_, child_total, child_self) = s["child"];
        assert!((root_total - child_total - root_self).abs() < 1e-6);
        assert!(child_self >= 20.0 && root_self >= 5.0 && root_self < child_total);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.span("x", None, "", |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.summary().is_empty());
    }
}
