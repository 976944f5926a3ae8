//! Spans recorded by the benchmark around its calls into each layer: kept
//! in memory, written at the end as a Chrome/Perfetto trace, and reduced
//! to each span's self time (its duration minus what its children cover).

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Request the span belongs to (client round trips).
    pub request: Option<u64>,
    /// What ran.
    pub name: String,
    /// The layer it ran in (`netmodel`, `flowgen`, `detect`, `core`, ...).
    pub layer: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

/// An in-memory span recorder, shared by reference across threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record an interval measured elsewhere; returns its id.
    pub fn record(
        &self,
        name: &str,
        layer: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            request,
            name: name.to_string(),
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list").push(span);
        id
    }

    /// Run `f` inside a span; `f` gets the span id to parent its
    /// children. Returns `f`'s value and the span's duration.
    pub fn span<T>(
        &self,
        name: &str,
        layer: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let value = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            request: None,
            name: name.to_string(),
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list").push(span);
        (value, end - start)
    }

    /// The id the next span will get: spans from here on have ids at or
    /// above it.
    pub fn next_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// A copy of every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Chrome trace-event JSON (complete `X` events, microseconds), the
    /// format Perfetto and chrome://tracing open directly. Each layer gets
    /// its own track.
    pub fn chrome_json(&self, process: &str) -> Value {
        let spans = self.spans();
        let mut layers: Vec<&'static str> = spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let tid = |layer: &str| layers.iter().position(|l| *l == layer).unwrap_or(0) as u64 + 1;
        let mut events: Vec<Value> = layers
            .iter()
            .map(|layer| {
                json!({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid(layer),
                       "args": {"name": *layer}})
            })
            .collect();
        events.push(
            json!({"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                           "args": {"name": process}}),
        );
        for s in &spans {
            events.push(json!({
                "name": s.name.as_str(),
                "cat": s.layer,
                "ph": "X",
                "pid": 1,
                "tid": tid(s.layer),
                "ts": s.start_ns as f64 / 1e3,
                "dur": (s.end_ns - s.start_ns) as f64 / 1e3,
                "args": {"id": s.id, "parent": s.parent, "request": s.request},
            }));
        }
        json!({"traceEvents": events, "displayTimeUnit": "ns"})
    }

    /// Seconds of self time per `layer/name` over spans with ids from
    /// `from` on: each span's duration minus the union of its children's
    /// intervals inside it.
    pub fn self_times(&self, from: u64) -> BTreeMap<String, f64> {
        let spans: Vec<Span> = self.spans().into_iter().filter(|s| s.id >= from).collect();
        self_times(&spans)
    }
}

fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        let mut intervals = children.remove(&s.id).unwrap_or_default();
        intervals.sort_unstable();
        let mut cursor = s.start_ns;
        for (start, end) in intervals {
            let (start, end) = (start.max(cursor), end.min(s.end_ns));
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9;
        *out.entry(format!("{}/{}", s.layer, s.name)).or_insert(0.0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: None,
            name: format!("s{id}"),
            layer: "core",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span(1, None, 0, 1_000_000_000),
            span(2, Some(1), 100_000_000, 400_000_000),
            span(3, Some(1), 300_000_000, 500_000_000),
            span(4, Some(2), 100_000_000, 200_000_000),
        ];
        let t = self_times(&spans);
        assert!((t["core/s1"] - 0.6).abs() < 1e-9, "{t:?}");
        assert!((t["core/s2"] - 0.2).abs() < 1e-9, "{t:?}");
        assert!((t["core/s3"] - 0.2).abs() < 1e-9, "{t:?}");
        assert!((t["core/s4"] - 0.1).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn chrome_export_has_complete_events_with_parents() {
        let tracer = Tracer::new();
        let ((), _) = tracer.span("outer", "detect", None, |id| {
            tracer.span("inner", "flowgen", Some(id), |_| ());
        });
        let json = tracer.chrome_json("test");
        let events = json
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events");
        let field = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).map(str::to_string);
        let inner = events
            .iter()
            .find(|e| field(e, "name").as_deref() == Some("inner"))
            .expect("inner span");
        assert_eq!(field(inner, "ph").as_deref(), Some("X"));
        assert_eq!(field(inner, "cat").as_deref(), Some("flowgen"));
        let parent = inner.get("args").and_then(|a| a.get("parent"));
        assert!(parent.and_then(Value::as_u64).is_some(), "{inner:?}");
    }
}
