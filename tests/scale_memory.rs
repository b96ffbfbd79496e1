//! Peak heap of the large-topology path: deploy → conflict model → anytime
//! solve → verify.
//!
//! The CSR is the topology's adjacency at every size; the dense
//! neighbourhood masks (`n²/8` bytes) are built only when the exact tier
//! asks for them. These tests pin that: a 50k-node plan must stay far below
//! the 312 MB its masks alone would take, and the ignored 1M-node pin
//! (`cargo test --release --test scale_memory -- --ignored`) must fit in
//! 2 GB where the masks would need about 125 GB.
//!
//! The heap is measured exactly by a counting global allocator, so the
//! numbers do not depend on what else the process has touched before.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::Mutex;

use mlbs::prelude::*;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Serializes the counting windows: tests run on parallel threads, and
/// `--include-ignored` runs both tests of this file.
static WINDOW: Mutex<()> = Mutex::new(());

/// `System` plus byte accounting while a [`measure_peak`] window is open.
struct Counting;

#[global_allocator]
static ALLOC: Counting = Counting;

fn note(delta: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the accounting only
// touches atomics and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator, as `realloc`
        // requires of the caller.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Runs `f` and returns its result with the peak heap growth (bytes) it
/// caused.
fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::Relaxed).max(0) as usize)
}

const MB: usize = 1 << 20;

/// Deploys `nodes` at the scaled benchmark density, solves at an iteration
/// budget and verifies; returns the latency and the source's BFS depth.
fn plan(nodes: usize, seed: u64, iterations: u64) -> (Slot, Slot) {
    let (topo, source) = SyntheticDeployment::scaled(nodes).sample(seed);
    let model = PhyModelSpec::protocol().build(&topo);
    let config = AnytimeConfig {
        budget: Budget::Iterations(iterations),
        seed,
        ..AnytimeConfig::default()
    };
    let outcome = solve_anytime(&topo, source, &AlwaysAwake, &model, &config);
    outcome
        .schedule
        .verify_with_model(&topo, &AlwaysAwake, &model)
        .expect("anytime schedule verifies");
    let depth = metrics::eccentricity(&topo, source).expect("connected");
    (outcome.latency, Slot::from(depth))
}

#[test]
fn plan_at_50k_nodes_stays_csr_sized() {
    let ((latency, depth), peak) = measure_peak(|| plan(50_000, 42, 2_000));
    assert!(
        latency >= depth,
        "latency {latency} under BFS depth {depth}"
    );
    assert!(
        peak < 64 * MB,
        "50k-node plan peaked at {} MB of heap",
        peak / MB
    );
}

#[test]
#[ignore = "1M nodes: run in release with `--ignored`"]
fn greedy_plan_at_1m_nodes_fits_in_2gb() {
    let ((latency, depth), peak) = measure_peak(|| plan(1_000_000, 42, 0));
    assert!(
        latency >= depth,
        "latency {latency} under BFS depth {depth}"
    );
    assert!(
        peak < 2048 * MB,
        "1M-node plan peaked at {} MB of heap",
        peak / MB
    );
}
