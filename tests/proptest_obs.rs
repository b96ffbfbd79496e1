//! Cross-crate tests for the `wsn-obs` observability layer — the ISSUE-9
//! acceptance guarantees:
//!
//! * **Recording is behavior-invariant.** Running the same seeded solve
//!   with the global recorder enabled vs disabled must produce
//!   bit-identical schedules and incumbent traces — instrumentation only
//!   ever *reads* search state, never feeds anything back into decisions
//!   or RNG streams. Property-tested over random deployments under both
//!   the protocol and a degenerate-SINR conflict model.
//! * **The Chrome trace export of two solves on two threads is valid
//!   JSON with strictly nested spans per thread** — span events on one
//!   tid form a proper LIFO nesting (the guard discipline guarantees it),
//!   and each thread shows up as its own tid in the timeline.
//!
//! The global recorder is process-wide state, so every test (and the
//! proptest closures) funnels through a mutex-guarded install/uninstall
//! helper — Rust's default parallel test runner must not interleave two
//! recorder lifetimes.

use mlbs::obs::{export, EventKind, Recorder, TraceEvent};
use mlbs::prelude::*;
use mlbs::serve::Json;
use proptest::prelude::*;
use std::sync::Mutex;

static RECORDER_GATE: Mutex<()> = Mutex::new(());

/// Runs `f` twice — recorder installed, then uninstalled — and returns
/// both results plus the recorder for inspection.
fn with_and_without_recorder<T>(mut f: impl FnMut() -> T) -> (T, T, Recorder) {
    let _gate = RECORDER_GATE.lock().unwrap();
    let rec = Recorder::new();
    mlbs::obs::install(rec.clone());
    let recorded = f();
    mlbs::obs::uninstall();
    let plain = f();
    (recorded, plain, rec)
}

fn anytime_cfg(seed: u64) -> AnytimeConfig {
    AnytimeConfig {
        budget: Budget::Iterations(4_000),
        seed,
        ..AnytimeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Enabled-vs-disabled recording is invisible to the anytime search
    /// under the protocol model: same schedule, same incumbent trace
    /// (latency *and* move columns — only wall-clock timestamps may
    /// differ), same work accounting.
    #[test]
    fn recording_is_behavior_invariant_protocol(
        n in 40usize..90,
        topo_seed in 0u64..300,
        search_seed in 0u64..50,
    ) {
        let (topo, src) = SyntheticDeployment::paper(n).sample(topo_seed);
        let cfg = anytime_cfg(0x0B5_0001 ^ search_seed);
        let (on, off, rec) = with_and_without_recorder(|| {
            solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg)
        });
        prop_assert_eq!(on.latency, off.latency);
        prop_assert_eq!(&on.schedule.entries, &off.schedule.entries);
        prop_assert_eq!(on.moves, off.moves);
        prop_assert_eq!(on.passes, off.passes);
        prop_assert_eq!(on.restarts, off.restarts);
        prop_assert_eq!(on.trace.len(), off.trace.len());
        for (a, b) in on.trace.iter().zip(&off.trace) {
            prop_assert_eq!(a.latency, b.latency);
            prop_assert_eq!(a.moves, b.moves);
        }
        // The enabled run must actually have recorded something.
        prop_assert_eq!(rec.counter_value("anytime.solves"), 1);
        prop_assert!(rec.counter_value("anytime.moves") >= on.moves);
        // One freeze per incumbent at most. Every pass is one compression
        // pass, which freezes or rewinds the frozen structure, or one
        // restart, which does neither.
        let freezes = rec.counter_value("anytime.freezes");
        prop_assert!(freezes <= on.trace.len() as u64);
        prop_assert_eq!(
            freezes + rec.counter_value("anytime.freeze_reuses") + on.restarts,
            on.passes
        );
    }

    /// Same invariance under a degenerate-SINR model (the searcher's
    /// metrics promotion rides the same solve).
    #[test]
    fn recording_is_behavior_invariant_sinr(
        n in 30usize..70,
        topo_seed in 0u64..200,
    ) {
        let (topo, src) = SyntheticDeployment::paper(n).sample(topo_seed);
        let params = SinrParams::degenerate(&topo, 3.0);
        let model = SinrModel::new(params, &topo);
        let cfg = anytime_cfg(0x0B5_0002 ^ topo_seed);
        let (on, off, _rec) = with_and_without_recorder(|| {
            solve_anytime(&topo, src, &AlwaysAwake, &model, &cfg)
        });
        prop_assert_eq!(on.latency, off.latency);
        prop_assert_eq!(&on.schedule.entries, &off.schedule.entries);
        prop_assert_eq!(on.moves, off.moves);
    }

    /// The exact searcher is likewise invariant (its instrumentation is a
    /// post-run stats export, but pin it anyway).
    #[test]
    fn recording_is_behavior_invariant_exact_search(
        n in 30usize..60,
        topo_seed in 0u64..100,
    ) {
        let (topo, src) = SyntheticDeployment::paper(n).sample(topo_seed);
        let cfg = SearchConfig::default();
        let (on, off, rec) = with_and_without_recorder(|| {
            solve_gopt(&topo, src, &AlwaysAwake, &cfg)
        });
        prop_assert_eq!(on.latency, off.latency);
        prop_assert_eq!(&on.schedule.entries, &off.schedule.entries);
        prop_assert_eq!(on.stats.states, off.stats.states);
        prop_assert_eq!(rec.counter_value("searcher.gopt_solves"), 1);
        prop_assert_eq!(rec.counter_value("searcher.states"), on.stats.states as u64);
    }
}

/// Span events of one thread, in ring (= completion) order.
fn spans_of_tid(events: &[TraceEvent], tid: u32) -> Vec<(u64, u64)> {
    events
        .iter()
        .filter(|e| e.tid == tid)
        .filter_map(|e| match e.kind {
            EventKind::Span { dur_us } => Some((e.ts_us, e.ts_us + dur_us)),
            EventKind::Instant => None,
        })
        .collect()
}

/// Strict nesting check: spans recorded on one thread close in LIFO
/// order, so for any two spans their intervals are either disjoint or one
/// contains the other.
fn assert_strictly_nested(spans: &[(u64, u64)]) {
    for (i, &(s1, e1)) in spans.iter().enumerate() {
        for &(s2, e2) in &spans[i + 1..] {
            let disjoint = e1 <= s2 || e2 <= s1;
            let nested = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
            assert!(
                disjoint || nested,
                "spans [{s1},{e1}] and [{s2},{e2}] partially overlap"
            );
        }
    }
}

#[test]
fn chrome_trace_of_two_threads_is_valid_and_nested() {
    let _gate = RECORDER_GATE.lock().unwrap();
    let rec = Recorder::new();
    mlbs::obs::install(rec.clone());
    let (topo, src) = SyntheticDeployment::paper(80).sample(11);
    let solve = |seed| solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &anytime_cfg(seed));
    let outs: Vec<AnytimeOutcome> = std::thread::scope(|scope| {
        let handles = [0x0B5_0003, 0x0B5_0004].map(|seed| scope.spawn(move || solve(seed)));
        handles.map(|h| h.join().unwrap()).into()
    });
    mlbs::obs::uninstall();
    assert!(outs.iter().all(|out| out.latency >= 1));

    // The export parses as JSON and carries both event phases.
    let chrome = export::chrome_trace(&rec);
    Json::parse(&chrome).expect("chrome trace must be valid JSON");
    assert!(chrome.contains("\"ph\":\"X\""), "no span events exported");
    assert!(chrome.contains("anytime.chain"));

    // Two threads → at least two distinct tids carrying chain spans, and
    // every tid's span set is strictly nested.
    let events = rec.events_snapshot();
    let chain_tids: std::collections::BTreeSet<u32> = events
        .iter()
        .filter(|e| e.name == "anytime.chain")
        .map(|e| e.tid)
        .collect();
    assert!(
        chain_tids.len() >= 2,
        "expected 2 thread timelines, got {chain_tids:?}"
    );
    let all_tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
    for tid in all_tids {
        let spans = spans_of_tid(&events, tid);
        assert!(!spans.is_empty() || events.iter().any(|e| e.tid == tid));
        assert_strictly_nested(&spans);
    }

    // The Prometheus exposition renders the anytime family.
    let prom = export::prometheus(&rec);
    assert!(prom.contains("anytime_wall_us_count"));
}

#[test]
fn chrome_trace_of_span_and_instant_parses() {
    let rec = Recorder::new();
    drop(rec.span("fam.span"));
    rec.instant("fam.mark", Some(7));
    let chrome = Json::parse(&export::chrome_trace(&rec)).expect("chrome trace is valid JSON");
    let phases: Vec<&str> = chrome
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .map(|e| e.get("ph").and_then(Json::as_str).expect("ph"))
        .collect();
    assert_eq!(phases, ["X", "i"]);
}

/// A chain that stalls on its incumbent rewinds the frozen structure
/// instead of freezing it again, and the counters say so.
#[test]
fn stalled_passes_reuse_the_frozen_incumbent() {
    let (topo, src) = SyntheticDeployment::paper(120).sample(5);
    let cfg = AnytimeConfig {
        budget: Budget::Iterations(10_000),
        ..AnytimeConfig::default()
    };
    let (out, _, rec) =
        with_and_without_recorder(|| solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg));
    let freezes = rec.counter_value("anytime.freezes");
    let reuses = rec.counter_value("anytime.freeze_reuses");
    assert!(freezes >= 1 && freezes <= out.trace.len() as u64);
    assert!(reuses > 0, "a stalled chain must rewind, not re-freeze");
    assert_eq!(freezes + reuses + out.restarts, out.passes);
    // A pass builds the partner row of each relay it moves, when no pass
    // before it against the same incumbent did, so the chain builds at
    // least one row and no more than it made moves.
    let rows = rec.counter_value("anytime.partner_rows");
    assert!(
        rows >= 1 && rows <= out.moves,
        "{rows} rows in {} moves",
        out.moves
    );
}

/// Injected (non-global) recorders observe nothing from the global free
/// functions — installation is what turns the stack's instrumentation on.
#[test]
fn uninstalled_recorder_stays_empty() {
    let _gate = RECORDER_GATE.lock().unwrap();
    let rec = Recorder::new();
    let (topo, src) = SyntheticDeployment::paper(40).sample(3);
    let _ = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &anytime_cfg(9));
    assert_eq!(rec.counter_value("anytime.solves"), 0);
    assert!(rec.events_snapshot().is_empty());
}
