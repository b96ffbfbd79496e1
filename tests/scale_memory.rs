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
//! A kept result must not grow with the network either: a schedule's size
//! follows its transmissions, so the 50k-node plan's `AnytimeOutcome`
//! holds under 4 heap bytes per node, which no per-node vector fits in.
//!
//! The heap is measured exactly by a counting global allocator, so the
//! numbers do not depend on what else the process has touched before.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use mlbs::prelude::*;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Serializes the tests of this file: they run on parallel threads, and
/// `--include-ignored` runs both. A test holds it from start to end, so no
/// other test allocates or frees (its kept result, say) while a counting
/// window is open.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

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
/// caused and the bytes still live when it returned (what its result
/// holds).
fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let live = LIVE.load(Ordering::Relaxed).max(0) as usize;
    (out, PEAK.load(Ordering::Relaxed).max(0) as usize, live)
}

const MB: usize = 1 << 20;

/// Deploys `nodes` at the scaled benchmark density, solves at an iteration
/// budget and verifies; returns the outcome and the source's BFS depth,
/// with the deployment and the model dropped.
fn plan(nodes: usize, seed: u64, iterations: u64) -> (AnytimeOutcome, Slot) {
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
    (outcome, Slot::from(depth))
}

#[test]
fn plan_at_50k_nodes_stays_csr_sized() {
    const NODES: usize = 50_000;
    let _exclusive = exclusive();
    let ((outcome, depth), peak, kept) = measure_peak(|| plan(NODES, 42, 2_000));
    eprintln!("50k-node plan: heap peak {peak} B, kept outcome {kept} B");
    assert!(
        outcome.latency >= depth,
        "latency {} under BFS depth {depth}",
        outcome.latency
    );
    assert!(
        peak < 64 * MB,
        "50k-node plan peaked at {} MB of heap",
        peak / MB
    );
    assert!(
        kept < 4 * NODES,
        "the kept 50k-node outcome holds {kept} heap bytes ({} relays)",
        outcome.schedule.transmission_count()
    );
}

#[test]
#[ignore = "1M nodes: run in release with `--ignored`"]
fn greedy_plan_at_1m_nodes_fits_in_2gb() {
    let _exclusive = exclusive();
    let ((outcome, depth), peak, _) = measure_peak(|| plan(1_000_000, 42, 0));
    eprintln!("1M-node plan: heap peak {peak} B");
    assert!(
        outcome.latency >= depth,
        "latency {} under BFS depth {depth}",
        outcome.latency
    );
    assert!(
        peak < 2048 * MB,
        "1M-node plan peaked at {} MB of heap",
        peak / MB
    );
}
