//! The registry and its instrument handles.
//!
//! A [`Registry`] is a cheaply-cloneable handle onto shared instrument
//! storage (an `Arc` internally); a *disabled* registry holds nothing and
//! hands out no-op instruments. Instruments are resolved by name once
//! (one mutex acquisition) and then recorded through lock-free atomics,
//! so hot paths cache the handle and pay a relaxed `fetch_add` per event.

use crate::snapshot::{HistBucket, HistogramSnapshot, Snapshot, SpanStat};
use crate::TelemetryLevel;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of log2 buckets: index 0 holds zero, index `k` (1..=64) holds
/// values `v` with `2^(k-1) <= v < 2^k`.
pub(crate) const BUCKETS: usize = 65;

/// Bucket index for a recorded value.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `idx` (`u64::MAX` for the top bucket).
pub(crate) fn bucket_bound(idx: usize) -> u64 {
    match idx {
        0 => 0,
        64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    fields: BTreeMap<String, String>,
}

#[derive(Debug, Default)]
struct Inner {
    level_full: bool,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>, // f64 bit patterns
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    spans: Mutex<BTreeMap<String, SpanAgg>>,
    trace: Mutex<Option<Arc<crate::trace::TraceRing>>>,
}

/// An explicitly-threaded metrics registry. Clone freely — clones share
/// storage. A registry built at [`TelemetryLevel::Off`] records nothing.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
    level: TelemetryLevel,
}

impl Registry {
    /// A registry recording at the given level.
    pub fn new(level: TelemetryLevel) -> Registry {
        match level {
            TelemetryLevel::Off => Registry::off(),
            _ => Registry {
                inner: Some(Arc::new(Inner {
                    level_full: level == TelemetryLevel::Full,
                    ..Inner::default()
                })),
                level,
            },
        }
    }

    /// A disabled registry: every instrument it hands out is a no-op.
    pub fn off() -> Registry {
        Registry {
            inner: None,
            level: TelemetryLevel::Off,
        }
    }

    /// Shorthand for `Registry::new(TelemetryLevel::Full)`.
    pub fn full() -> Registry {
        Registry::new(TelemetryLevel::Full)
    }

    /// The recording level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Whether anything is recorded at all.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The counter named `name`, creating it (at zero) if absent.
    /// Declaring a counter makes it appear in snapshots even when never
    /// incremented — deliberate, so "this never happened" is visible.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::disabled();
        };
        let mut counters = inner.counters.lock().expect("counter map");
        let cell = counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter {
            cell: Some(Arc::clone(cell)),
        }
    }

    /// Install a bounded trace-event ring of at least `capacity` events
    /// (see [`crate::trace::TraceRing`]) on this registry, replacing any
    /// previous ring. Its exact recorded/evicted totals mirror onto the
    /// `trace.events_recorded` / `trace.events_dropped` counters so the
    /// exposition and CI `--assert-zero` gates see them. Returns `None`
    /// on a disabled registry.
    pub fn install_trace(&self, capacity: usize) -> Option<Arc<crate::trace::TraceRing>> {
        let inner = self.inner.as_ref()?;
        let ring = Arc::new(crate::trace::TraceRing::new(
            capacity,
            self.counter("trace.events_recorded"),
            self.counter("trace.events_dropped"),
        ));
        *inner.trace.lock().expect("trace ring slot") = Some(Arc::clone(&ring));
        Some(ring)
    }

    /// The installed trace-event ring, if any.
    pub fn trace(&self) -> Option<Arc<crate::trace::TraceRing>> {
        let inner = self.inner.as_ref()?;
        inner.trace.lock().expect("trace ring slot").clone()
    }

    /// Record a trace event onto the installed ring; a no-op when no
    /// ring is installed (so pipeline stages can emit unconditionally).
    /// Hot paths should cache [`Registry::trace`] instead of paying this
    /// lookup per event.
    pub fn trace_event(&self, event: crate::trace::TraceEvent) {
        if let Some(ring) = self.trace() {
            ring.record(event);
        }
    }

    /// The gauge named `name`, creating it (at zero) if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge { cell: None };
        };
        let mut gauges = inner.gauges.lock().expect("gauge map");
        let cell = gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Gauge {
            cell: Some(Arc::clone(cell)),
        }
    }

    /// The log2 histogram named `name`. A no-op below
    /// [`TelemetryLevel::Full`].
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram { core: None };
        };
        if !inner.level_full {
            return Histogram { core: None };
        }
        let mut histograms = inner.histograms.lock().expect("histogram map");
        let core = histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCore::default()));
        Histogram {
            core: Some(Arc::clone(core)),
        }
    }

    /// Open a root-level stage span. Dropping the span records its
    /// wall-clock duration under `name` in the stage tree.
    pub fn span(&self, name: impl Into<String>) -> Span {
        Span {
            inner: self.inner.clone(),
            path: name.into(),
            start: Instant::now(),
            fields: Vec::new(),
        }
    }

    /// The current value of a counter (0 when absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        inner
            .counters
            .lock()
            .expect("counter map")
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The current value of a gauge (0.0 when absent or disabled) — the
    /// counterpart of [`Registry::counter_value`] for watchdog-style
    /// gauges such as the serving generation's age.
    pub fn gauge_value(&self, name: &str) -> f64 {
        let Some(inner) = &self.inner else { return 0.0 };
        inner
            .gauges
            .lock()
            .expect("gauge map")
            .get(name)
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }

    /// Freeze the registry into a serde-able [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .expect("counter map")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .expect("gauge map")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("histogram map")
            .iter()
            .map(|(k, core)| {
                let buckets = core
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let count = b.load(Ordering::Relaxed);
                        (count > 0).then(|| HistBucket {
                            le: bucket_bound(i),
                            count,
                        })
                    })
                    .collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: core.count.load(Ordering::Relaxed),
                        sum: core.sum.load(Ordering::Relaxed),
                        buckets,
                    },
                )
            })
            .collect();
        let spans = inner
            .spans
            .lock()
            .expect("span tree")
            .iter()
            .map(|(path, agg)| {
                (
                    path.clone(),
                    SpanStat {
                        count: agg.count,
                        total_secs: agg.total_ns as f64 / 1e9,
                        min_secs: agg.min_ns as f64 / 1e9,
                        max_secs: agg.max_ns as f64 / 1e9,
                        fields: agg.fields.clone(),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }
}

/// A monotone event counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A no-op counter (what disabled registries hand out, and the
    /// `Default`).
    pub fn disabled() -> Counter {
        Counter { cell: None }
    }

    /// A live counter not attached to any registry — private accounting
    /// for components that must count regardless of telemetry level.
    pub fn standalone() -> Counter {
        Counter {
            cell: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A last-value gauge holding an `f64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.cell {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }
}

/// A log2-bucketed histogram of `u64` values.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.core {
            core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            core.count.fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// An RAII stage timer. Created from [`Registry::span`] (a root stage) or
/// [`Span::child`] (a nested stage, joined with `/` in the tree). The
/// wall-clock duration is recorded when the span drops; spans with the
/// same path — sequential or parallel — aggregate into one tree node.
#[derive(Debug)]
pub struct Span {
    inner: Option<Arc<Inner>>,
    path: String,
    start: Instant,
    fields: Vec<(String, String)>,
}

impl Span {
    /// Open a child span: its path is `parent/name`.
    pub fn child(&self, name: &str) -> Span {
        Span {
            inner: self.inner.clone(),
            path: format!("{}/{}", self.path, name),
            start: Instant::now(),
            fields: Vec::new(),
        }
    }

    /// Attach a `key=value` field, recorded on the tree node at drop
    /// (last writer wins per key).
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        if self.inner.is_some() {
            self.fields.push((key.to_string(), value.to_string()));
        }
    }

    /// The span's path in the stage tree.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = &self.inner else { return };
        let elapsed_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut spans = inner.spans.lock().expect("span tree");
        let agg = spans.entry(std::mem::take(&mut self.path)).or_default();
        if agg.count == 0 {
            agg.min_ns = elapsed_ns;
            agg.max_ns = elapsed_ns;
        } else {
            agg.min_ns = agg.min_ns.min(elapsed_ns);
            agg.max_ns = agg.max_ns.max(elapsed_ns);
        }
        agg.count += 1;
        agg.total_ns = agg.total_ns.saturating_add(elapsed_ns);
        for (k, v) in self.fields.drain(..) {
            agg.fields.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let r = Registry::new(TelemetryLevel::Summary);
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(r.counter_value("x"), 3);
        assert_eq!(r.counter_value("missing"), 0);
    }

    #[test]
    fn declared_counter_appears_at_zero() {
        let r = Registry::new(TelemetryLevel::Summary);
        let _ = r.counter("never.incremented");
        assert_eq!(r.snapshot().counters["never.incremented"], 0);
    }

    #[test]
    fn disabled_registry_is_a_noop() {
        let r = Registry::off();
        assert!(!r.enabled());
        let c = r.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        r.gauge("g").set(1.0);
        r.histogram("h").record(7);
        drop(r.span("s"));
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn standalone_counter_counts_without_a_registry() {
        let c = Counter::standalone();
        c.add(4);
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn histograms_gated_to_full() {
        let summary = Registry::new(TelemetryLevel::Summary);
        summary.histogram("h").record(9);
        assert!(summary.snapshot().histograms.is_empty());

        let full = Registry::full();
        let h = full.histogram("h");
        h.record(0);
        h.record(1);
        h.record(9);
        let snap = full.snapshot();
        let hs = &snap.histograms["h"];
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 10);
    }

    #[test]
    fn bucket_boundaries_are_exact_log2() {
        // Bucket 0: zero. Bucket k: [2^(k-1), 2^k).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for k in 1..=63usize {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_index(lo), k, "low edge of bucket {k}");
            assert_eq!(bucket_index(hi), k, "high edge of bucket {k}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        // Bounds are the inclusive top of each bucket.
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 4, 5, 1023, 1024, 1025, u64::MAX - 1] {
            assert!(v <= bucket_bound(bucket_index(v)), "v={v} within bound");
            if bucket_index(v) > 0 {
                assert!(
                    v > bucket_bound(bucket_index(v) - 1),
                    "v={v} above previous bound"
                );
            }
        }
    }

    #[test]
    fn nested_spans_build_a_tree() {
        let r = Registry::new(TelemetryLevel::Summary);
        {
            let outer = r.span("pipeline");
            {
                let mut inner = outer.child("detect");
                inner.field("day", 273);
            }
            let _second = outer.child("detect");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans["pipeline"].count, 1);
        let detect = &snap.spans["pipeline/detect"];
        assert_eq!(detect.count, 2, "same-path spans aggregate");
        assert_eq!(detect.fields["day"], "273");
        assert!(snap.spans["pipeline"].total_secs >= detect.min_secs);
    }

    #[test]
    fn parallel_spans_aggregate_into_one_node() {
        let r = Registry::new(TelemetryLevel::Summary);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let _span = r.span("worker");
                    r.counter("work").inc();
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans["worker"].count, 8);
        assert_eq!(snap.counters["work"], 8);
        assert!(snap.spans["worker"].min_secs <= snap.spans["worker"].max_secs);
    }
}
