//! The global recorder seen from outside the crate, in both of its states.
//!
//! * **Disabled (the production default).** With no recorder installed,
//!   every free function (counters, gauges, histograms, instants, spans)
//!   is inert and makes no heap allocation. A wrapping global allocator
//!   counts allocations per thread, so the contract is measured rather
//!   than read off the code, and allocations by the test harness's other
//!   threads cannot leak into the count.
//! * **Enabled.** An installed recorder captures what the free functions
//!   report.
//!
//! The recorder is process-wide state, so both tests hold one gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};
use wsn_obs::Recorder;

thread_local! {
    /// Heap allocations made by this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

static RECORDER_GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    RECORDER_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` and returns how many allocations this thread made during it.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_path_makes_no_heap_allocation() {
    let _gate = gate();
    assert!(!wsn_obs::enabled(), "no recorder is installed at start");
    let allocs = allocations_during(|| {
        for i in 0..10_000u64 {
            wsn_obs::counter_add("test.counter", 1);
            wsn_obs::gauge_set("test.gauge", i as i64);
            wsn_obs::observe_us("test.hist", i);
            wsn_obs::event("test.instant");
            wsn_obs::event_value("test.instant_v", i as i64);
            let span = wsn_obs::span("test.span");
            drop(black_box(span));
        }
    });
    assert_eq!(allocs, 0, "disabled obs path must not allocate");
}

#[test]
fn installed_recorder_captures_the_free_functions() {
    let _gate = gate();
    let rec = Recorder::new();
    wsn_obs::install(rec.clone());
    wsn_obs::counter_add("test.smoke", 3);
    wsn_obs::observe_us("test.smoke_us", 7);
    {
        let _span = wsn_obs::span("test.smoke_span");
    }
    wsn_obs::event("test.smoke_event");
    wsn_obs::uninstall();
    assert_eq!(rec.counter_value("test.smoke"), 3);
    let snap = rec
        .histogram_snapshot("test.smoke_us")
        .expect("histogram must exist once observed");
    assert_eq!(snap.count, 1);
    let events = rec.events_snapshot();
    assert!(
        events.iter().any(|e| e.name == "test.smoke_span"),
        "span guard must record on drop"
    );
    assert!(events.iter().any(|e| e.name == "test.smoke_event"));
}
