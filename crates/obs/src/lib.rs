//! `wsn-obs` — unified observability for the MLBS stack.
//!
//! Three primitives behind one [`Recorder`] handle:
//!
//! - **Counters / gauges** — `Arc<AtomicU64>` cells keyed by `&'static str`,
//!   suited to promoting `SearchStats`-style tallies to live metrics.
//! - **Histograms** — log-linear buckets (16 sub-buckets per octave) for
//!   wall-time and latency distributions with p50/p90/p99 extraction.
//! - **Spans / events** — a bounded ring buffer of timeline entries with
//!   per-thread ids, exportable as a Chrome trace of portfolio workers,
//!   restart kicks, and repair races.
//!
//! Instrumentation sites call the free functions ([`counter_add`],
//! [`observe_us`], [`span`], ...) which route to a process-global recorder
//! installed with [`install`]. Exporters: [`export::chrome_trace`] and
//! [`export::prometheus`].
//!
//! # DESIGN: the disabled-path cost model
//!
//! Instrumentation lives permanently in hot paths (the anytime driver's
//! pass loop, repair races, cache lookups), so the *disabled* cost is the
//! contract that matters:
//!
//! - Every free function begins with one `Relaxed` load of a static
//!   `AtomicBool` ([`enabled`]) and returns immediately when false. No
//!   lock, no TLS access, no allocation — a few nanoseconds, and the
//!   `#[inline]` early-return lets the branch predictor hide it entirely
//!   in loops.
//! - [`span`] returns an inert guard (`Span::none()`, a `None`-carrying
//!   struct) whose `Drop` does nothing; constructing it performs no
//!   timestamp read.
//! - Callers that need a wall-clock only when recording gate it on
//!   [`enabled`] (e.g. `enabled().then(Instant::now)`), keeping even the
//!   `clock_gettime` off the disabled path.
//! - The *enabled* path takes a short `RwLock` read to reach the global
//!   recorder, then one atomic RMW per metric; handle lookup is a
//!   `BTreeMap` read-lock probe. Events take a `Mutex` push into the ring.
//!   Instrumentation is therefore placed at pass/solve granularity, never
//!   per-move: the measured overhead budget is ≤ 10% on a 10k-node anytime
//!   solve (pinned in `BENCH_obs.json`).
//!
//! Recording must never influence behavior: no instrumentation site feeds
//! a value back into search decisions or RNG state, so enabled-vs-disabled
//! runs produce bit-identical schedules (property-tested in
//! `tests/proptest_obs.rs` at the workspace root).

pub mod export;
pub mod metrics;
pub mod spans;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use spans::{current_tid, EventKind, TraceEvent, DEFAULT_EVENT_CAPACITY};

use spans::EventRing;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

struct Shared {
    epoch: Instant,
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
    events: EventRing,
}

/// A cloneable handle to one observability domain: metric registries plus
/// an event ring sharing a common epoch. Cheap to clone (`Arc` bump); can
/// be used injected or installed process-globally via [`install`].
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// `event_capacity` bounds the span/event ring; metrics are unbounded
    /// (one cell per distinct name).
    pub fn with_capacity(event_capacity: usize) -> Self {
        Recorder {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
                events: EventRing::new(event_capacity),
            }),
        }
    }

    /// Microseconds since this recorder was created.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.shared.epoch.elapsed().as_micros() as u64
    }

    fn cell(
        map: &RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
        name: &'static str,
    ) -> Arc<AtomicU64> {
        if let Some(c) = map.read().unwrap().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            map.write()
                .unwrap()
                .entry(name)
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Handle to a named counter (create-on-first-use).
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(Self::cell(&self.shared.counters, name))
    }

    /// Handle to a named gauge (create-on-first-use).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(Self::cell(&self.shared.gauges, name))
    }

    /// Handle to a named histogram (create-on-first-use).
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.shared.histograms.read().unwrap().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.shared
                .histograms
                .write()
                .unwrap()
                .entry(name)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    pub fn add(&self, name: &'static str, v: u64) {
        self.counter(name).add(v);
    }

    pub fn set_gauge(&self, name: &'static str, v: i64) {
        self.gauge(name).set(v);
    }

    pub fn observe(&self, name: &'static str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Record a point-in-time event with an optional payload.
    pub fn instant(&self, name: &'static str, value: Option<i64>) {
        self.shared.events.push(TraceEvent {
            name,
            tid: current_tid(),
            ts_us: self.now_us(),
            kind: EventKind::Instant,
            value,
        });
    }

    /// Start a span; the returned guard records a duration event on drop.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            inner: Some(SpanInner {
                shared: Arc::clone(&self.shared),
                name,
                tid: current_tid(),
                start_us: self.now_us(),
                value: None,
            }),
        }
    }

    // ---- read side (exporters, tests, claims) ----

    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.shared
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect()
    }

    pub fn gauges_snapshot(&self) -> Vec<(String, i64)> {
        self.shared
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed) as i64))
            .collect()
    }

    pub fn histograms_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.shared
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(k, h)| (k.to_string(), h.snapshot()))
            .collect()
    }

    /// Value of a counter, or 0 if it was never touched.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.shared
            .counters
            .read()
            .unwrap()
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Snapshot of a single histogram, if it exists.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.shared
            .histograms
            .read()
            .unwrap()
            .get(name)
            .map(|h| h.snapshot())
    }

    pub fn events_snapshot(&self) -> Vec<TraceEvent> {
        self.shared.events.snapshot()
    }

    pub fn dropped_events(&self) -> u64 {
        self.shared.events.dropped()
    }

    /// Clear all metrics and events (epoch is preserved).
    pub fn reset(&self) {
        for c in self.shared.counters.read().unwrap().values() {
            c.store(0, Ordering::Relaxed);
        }
        for g in self.shared.gauges.read().unwrap().values() {
            g.store(0, Ordering::Relaxed);
        }
        self.shared.histograms.write().unwrap().clear();
        self.shared.events.clear();
    }
}

struct SpanInner {
    shared: Arc<Shared>,
    name: &'static str,
    tid: u32,
    start_us: u64,
    value: Option<i64>,
}

/// RAII span guard: records a [`EventKind::Span`] on drop. The disabled
/// path hands out an inert guard whose drop is a no-op.
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// An inert guard (what every span site gets when recording is off).
    #[inline]
    pub fn none() -> Span {
        Span { inner: None }
    }

    /// Attach a payload reported with the span's close event.
    #[inline]
    pub fn set_value(&mut self, v: i64) {
        if let Some(i) = self.inner.as_mut() {
            i.value = Some(v);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            let end = i.shared.epoch.elapsed().as_micros() as u64;
            i.shared.events.push(TraceEvent {
                name: i.name,
                tid: i.tid,
                ts_us: i.start_us,
                kind: EventKind::Span {
                    dur_us: end.saturating_sub(i.start_us),
                },
                value: i.value,
            });
        }
    }
}

// ---- process-global recorder ----

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Recorder>> = RwLock::new(None);

/// Whether a global recorder is installed and active. One `Relaxed` atomic
/// load — this is the entire disabled-path cost of every free function.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `rec` as the process-global recorder and enable recording.
/// Replaces (and returns) any previously installed recorder.
pub fn install(rec: Recorder) -> Option<Recorder> {
    let prev = GLOBAL.write().unwrap().replace(rec);
    ENABLED.store(true, Ordering::Release);
    prev
}

/// Disable recording and remove the global recorder, returning it so its
/// contents can still be exported.
pub fn uninstall() -> Option<Recorder> {
    ENABLED.store(false, Ordering::Release);
    GLOBAL.write().unwrap().take()
}

/// Clone of the installed global recorder, if any.
pub fn global() -> Option<Recorder> {
    GLOBAL.read().unwrap().clone()
}

#[inline]
fn with<F: FnOnce(&Recorder)>(f: F) {
    if let Some(rec) = GLOBAL.read().unwrap().as_ref() {
        f(rec);
    }
}

/// Add `v` to the named global counter (no-op when disabled).
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with(|r| r.add(name, v));
}

/// Set the named global gauge (no-op when disabled).
#[inline]
pub fn gauge_set(name: &'static str, v: i64) {
    if !enabled() {
        return;
    }
    with(|r| r.set_gauge(name, v));
}

/// Record `v` (conventionally microseconds) into the named global
/// histogram (no-op when disabled).
#[inline]
pub fn observe_us(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with(|r| r.observe(name, v));
}

/// Record a point-in-time event (no-op when disabled).
#[inline]
pub fn event(name: &'static str) {
    if !enabled() {
        return;
    }
    with(|r| r.instant(name, None));
}

/// Record a point-in-time event with payload (no-op when disabled).
#[inline]
pub fn event_value(name: &'static str, v: i64) {
    if !enabled() {
        return;
    }
    with(|r| r.instant(name, Some(v)));
}

/// Open a span against the global recorder; inert guard when disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::none();
    }
    match GLOBAL.read().unwrap().as_ref() {
        Some(r) => r.span(name),
        None => Span::none(),
    }
}

/// [`span`] with an initial payload value.
#[inline]
pub fn span_value(name: &'static str, v: i64) -> Span {
    let mut s = span(name);
    s.set_value(v);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_recorder_counts_and_observes() {
        let rec = Recorder::new();
        rec.add("t.counter", 3);
        rec.add("t.counter", 4);
        rec.set_gauge("t.gauge", -5);
        rec.observe("t.hist_us", 100);
        rec.observe("t.hist_us", 200);
        assert_eq!(rec.counter_value("t.counter"), 7);
        assert_eq!(rec.gauge("t.gauge").get(), -5);
        let h = rec.histogram_snapshot("t.hist_us").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 300);
    }

    #[test]
    fn spans_record_durations_and_values() {
        let rec = Recorder::new();
        {
            let mut s = rec.span("t.outer");
            s.set_value(42);
            let _inner = rec.span("t.inner");
        }
        rec.instant("t.marker", Some(7));
        let evs = rec.events_snapshot();
        assert_eq!(evs.len(), 3);
        // inner drops first, then outer, then the instant.
        assert_eq!(evs[0].name, "t.inner");
        assert_eq!(evs[1].name, "t.outer");
        assert_eq!(evs[1].value, Some(42));
        assert!(matches!(evs[2].kind, EventKind::Instant));
        let (outer_ts, outer_dur) = match evs[1].kind {
            EventKind::Span { dur_us } => (evs[1].ts_us, dur_us),
            _ => panic!("expected span"),
        };
        let (inner_ts, inner_dur) = match evs[0].kind {
            EventKind::Span { dur_us } => (evs[0].ts_us, dur_us),
            _ => panic!("expected span"),
        };
        // Strict nesting: inner within [outer_ts, outer_ts + outer_dur].
        assert!(inner_ts >= outer_ts);
        assert!(inner_ts + inner_dur <= outer_ts + outer_dur);
    }

    #[test]
    fn disabled_free_functions_are_inert() {
        // No global recorder installed in this test binary by default.
        assert!(!enabled() || global().is_some());
        counter_add("t.noop", 1);
        let _s = span("t.noop_span");
        // Nothing to assert beyond "did not panic": behavior invariance is
        // covered by the workspace-level proptest.
    }

    #[test]
    fn exporters_render_all_families() {
        let rec = Recorder::new();
        rec.add("fam.counter", 2);
        rec.set_gauge("fam.gauge", 9);
        rec.observe("fam.lat_us", 1234);
        drop(rec.span("fam.span"));
        rec.instant("fam.mark", None);

        let prom = export::prometheus(&rec);
        assert!(prom.contains("# TYPE fam_counter_total counter"));
        assert!(prom.contains("fam_counter_total 2"));
        assert!(prom.contains("fam_gauge 9"));
        assert!(prom.contains("# TYPE fam_lat_us histogram"));
        assert!(prom.contains("fam_lat_us_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("fam_lat_us_count 1"));

        let chrome = export::chrome_trace(&rec);
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"droppedEvents\":0"));
    }
}
