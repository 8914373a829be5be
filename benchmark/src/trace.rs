//! Spans recorded around the benchmark's calls into the library, kept in
//! memory and written out when the run ends. A layer's self time is its
//! span's duration minus the union of its children's intervals.

use crate::stats::union_len;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id; 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// The round number, or the request id for a served request.
    pub iter: u64,
}

/// Span recorder shared by the benchmark's threads. A disabled tracer
/// records nothing: each span costs it one branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (0 when disabled) to parent the spans it opens.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        iter: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        self.push(id, parent, name, start, Instant::now(), iter);
        out
    }

    /// Records a span the caller timed itself.
    pub fn record(&self, name: &'static str, parent: u64, iter: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, name, start, end, iter);
        }
    }

    fn push(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        iter: u64,
    ) {
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            start: since(start),
            end: since(end),
            iter,
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking thread")
            .push(span);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking thread")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect()
}

/// Each span's self time in nanoseconds, keyed by span id: its duration
/// minus the union of its children's intervals, so children that ran
/// at the same time on two workers are not subtracted twice.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            let covered = union_len(&mut kids, (s.start, s.end));
            (s.id, s.end - s.start - covered)
        })
        .collect()
}

/// Writes the run's spans as JSON lines: `header` first, then one
/// summary line per span name (count, total and self milliseconds),
/// then one `[id, parent, name, start_ns, end_ns, self_ns, iter]` array
/// per span.
pub fn write(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let entry = by_name.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.end - s.start;
        entry.2 += own[&s.id];
    }
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "{header}")?;
    for (name, (count, total, own_total)) in &by_name {
        writeln!(
            out,
            "{{\"span\":\"{name}\",\"count\":{count},\"total_ms\":{},\"self_ms\":{}}}",
            *total as f64 / 1e6,
            *own_total as f64 / 1e6
        )?;
    }
    for s in spans {
        writeln!(
            out,
            "[{},{},\"{}\",{},{},{},{}]",
            s.id, s.parent, s.name, s.start, s.end, own[&s.id], s.iter
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start,
            end,
            iter: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_worker_children() {
        // A sweep span with one child per worker; the two workers ran
        // side by side for 20 ns, and the second child has a grandchild.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 30, 70),
            span(4, 3, 40, 45),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 60, "union 10..70, not the sum 80");
        assert_eq!(own[&2], 40);
        assert_eq!(own[&3], 40 - 5);
        assert_eq!(own[&4], 5);
    }

    #[test]
    fn spans_from_two_threads_share_a_parent() {
        let tracer = Tracer::new(true);
        let barrier = std::sync::Barrier::new(2);
        tracer.span("parent", 0, 7, |parent| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        tracer.span("child", parent, 7, |_| {
                            // Both children are open at once.
                            barrier.wait();
                        })
                    });
                }
            })
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let parent = spans.iter().find(|s| s.name == "parent").unwrap();
        let kids: Vec<&Span> = spans.iter().filter(|s| s.name == "child").collect();
        assert!(kids.iter().all(|k| k.parent == parent.id && k.iter == 7));
        let covered = parent.end - parent.start - self_times(&spans)[&parent.id];
        let sum: u64 = kids.iter().map(|k| k.end - k.start).sum();
        assert!(covered < sum, "children open at once are covered once");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let got = tracer.span("x", 0, 0, |id| id);
        tracer.record("y", 0, 0, Instant::now(), Instant::now());
        assert_eq!(got, 0);
        assert!(tracer.spans().is_empty());
    }
}
