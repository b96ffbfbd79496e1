//! End-to-end reproduction of the paper's Tables II, III and IV.
//!
//! These tests drive the public facade exactly like the table binaries do
//! and assert the rows the paper prints (up to the two OCR-level typos in
//! Table III that `wsn_topology::fixtures` documents).

use mlbs::prelude::*;

fn exhaustive() -> SearchConfig {
    SearchConfig {
        collect_trace: true,
        exhaustive: true,
        ..SearchConfig::default()
    }
}

#[test]
fn table_ii_full_reproduction() {
    let f = fixtures::fig2a();
    let out = solve_gopt(&f.topo, f.source, &AlwaysAwake, &exhaustive());

    // Headline: t_s = 1, P(A) = 2.
    assert_eq!(out.schedule.start, 1);
    assert_eq!(out.schedule.completion_slot(), 2);
    out.schedule.verify(&f.topo, &AlwaysAwake).unwrap();

    let trace = out.trace.unwrap();
    // Row 1: M({1},1) → C1 = {1}, A = {2,3}.
    let r1 = &trace.states[0];
    assert_eq!(r1.informed, vec![f.source.idx()]);
    assert_eq!(r1.slot, 1);
    assert_eq!(r1.options.len(), 1);
    assert_eq!(r1.options[0].class, vec![f.id("1")]);

    // Row 2: M({1,2,3},2) → C1 = {2} with M(N,3) = 2 (selected),
    // C2 = {3} with M({1,2,3,4},3) = 3.
    let r2 = &trace.states[1];
    assert_eq!(r2.slot, 2);
    assert_eq!(r2.options[0].class, vec![f.id("2")]);
    assert_eq!(r2.options[0].m_value, Some(2));
    assert_eq!(r2.options[1].class, vec![f.id("3")]);
    assert_eq!(r2.options[1].m_value, Some(3));
    assert_eq!(r2.chosen, Some(0));

    // Row 3 (the deferred branch): M({1,2,3,4},3) → C1 = {2}, M(N,4) = 3.
    let r3 = trace
        .states
        .iter()
        .find(|s| s.informed.len() == 4)
        .expect("deferred branch state");
    assert_eq!(r3.slot, 3);
    assert_eq!(r3.options[0].class, vec![f.id("2")]);
    assert_eq!(r3.options[0].m_value, Some(3));
}

#[test]
fn table_iii_key_rows() {
    let f = fixtures::fig1();
    let out = solve_gopt(&f.topo, f.source, &AlwaysAwake, &exhaustive());
    assert_eq!(out.schedule.completion_slot(), 3, "P(A) = 3");
    let trace = out.trace.unwrap();

    let ids = |labels: &[&str]| -> Vec<NodeId> { labels.iter().map(|l| f.id(l)).collect() };
    let find_state = |informed_labels: &[&str], slot: Slot| {
        let mut want: Vec<usize> = informed_labels.iter().map(|l| f.id(l).idx()).collect();
        want.sort_unstable();
        trace
            .states
            .iter()
            .find(|s| s.slot == slot && s.informed == want)
            .unwrap_or_else(|| panic!("no state M({informed_labels:?}, {slot})"))
    };

    // M({s},1): C1 = {s}, advance {0,1,2}, and the chosen M value is 3.
    let r = find_state(&["s"], 1);
    assert_eq!(r.options[0].class, ids(&["s"]));
    assert_eq!(r.options[0].m_value, Some(3));

    // M({s,0−2},2): C1={0} → M=4 (typo-corrected reading: the paper's own
    // best for this branch), C2={1} → M=3 (selected), C3={2} → M=4.
    let r = find_state(&["s", "0", "1", "2"], 2);
    assert_eq!(r.options.len(), 3);
    assert_eq!(r.options[0].class, ids(&["0"]));
    assert_eq!(r.options[1].class, ids(&["1"]));
    assert_eq!(r.options[1].m_value, Some(3));
    assert_eq!(r.options[2].class, ids(&["2"]));
    assert_eq!(r.chosen, Some(1));

    // M({s,0−4,10},3): C1={0,4} → M(N,4)=3 (selected), C2={3}, C3={10}.
    let r = find_state(&["s", "0", "1", "2", "3", "4", "10"], 3);
    assert_eq!(r.options[0].class, ids(&["0", "4"]));
    assert_eq!(r.options[0].m_value, Some(3));
    assert_eq!(r.options[1].class, ids(&["3"]));
    assert_eq!(r.options[2].class, ids(&["10"]));
    assert_eq!(r.chosen, Some(0));

    // M({s,0−3,5−7},3): C1={3} → M({s,0−9},4), C2={1,6} → M({s,0−7,9,10},4).
    let r = find_state(&["s", "0", "1", "2", "3", "5", "6", "7"], 3);
    assert_eq!(r.options[0].class, ids(&["3"]));
    assert_eq!(r.options[1].class, ids(&["1", "6"]));

    // M({s,0−9},4): three singleton colors {1},{4},{8}, all completing at 4.
    let r = find_state(&["s", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9"], 4);
    assert_eq!(r.options.len(), 3);
    assert_eq!(r.options[0].class, ids(&["1"]));
    assert_eq!(r.options[1].class, ids(&["4"]));
    assert_eq!(r.options[2].class, ids(&["8"]));
    for o in &r.options {
        assert_eq!(o.m_value, Some(4));
    }

    // M({s,0−7,9−10},4): the paper prints colors {4},{9},{10}; with the
    // 3–8 edge its other rows force, node 3 is a fourth candidate (the
    // third Table III inconsistency). All four
    // singleton colors complete at 4.
    let r = find_state(&["s", "0", "1", "2", "3", "4", "5", "6", "7", "9", "10"], 4);
    assert_eq!(r.options.len(), 4);
    assert_eq!(r.options[0].class, ids(&["3"]));
    assert_eq!(r.options[1].class, ids(&["4"]));
    assert_eq!(r.options[2].class, ids(&["9"]));
    assert_eq!(r.options[3].class, ids(&["10"]));
    for o in &r.options {
        assert_eq!(o.m_value, Some(4));
    }

    // The selected schedule is Figure 1 (c): s; then 1; then {0,4}.
    assert_eq!(out.schedule.entries.len(), 3);
    assert_eq!(out.schedule.entries[0].senders, ids(&["s"]));
    assert_eq!(out.schedule.entries[1].senders, ids(&["1"]));
    assert_eq!(out.schedule.entries[2].senders, ids(&["0", "4"]));
}

#[test]
fn table_iv_full_reproduction() {
    let f = fixtures::fig2a();
    // The paper's wake-ups: source at 2; nodes 2, 3 at 4; node 2 again at
    // r + 3 = 13 (r = 10).
    let wake = ExplicitSchedule::new(vec![vec![2], vec![4, 13], vec![4], vec![9], vec![9]], 20);
    let out = solve_gopt(&f.topo, f.source, &wake, &exhaustive());

    assert_eq!(out.schedule.start, 2, "t_s = 2");
    assert_eq!(out.schedule.completion_slot(), 4, "P(A) = 4");
    out.schedule.verify(&f.topo, &wake).unwrap();

    let trace = out.trace.unwrap();
    // Row 2: M({1,2,3},3) is the N/A → φ row.
    assert!(trace
        .states
        .iter()
        .any(|s| s.slot == 3 && s.options.is_empty() && s.jumped_to == Some(4)));
    // Row 3: M({1,2,3},4): C1={2} → M(N,5)=4 selected; C2={3} defers.
    let r = trace
        .states
        .iter()
        .find(|s| s.slot == 4 && s.options.len() == 2)
        .expect("two-color state at slot 4");
    assert_eq!(r.options[0].class, vec![f.id("2")]);
    assert_eq!(r.options[0].m_value, Some(4));
    assert_eq!(r.options[1].class, vec![f.id("3")]);
    // The deferred branch completes at r + 3 = 13 (">> 4" in the paper).
    assert_eq!(r.options[1].m_value, Some(13));
    assert_eq!(r.chosen, Some(0));
}

#[test]
fn fig2_round_based_vs_duty_cycle_examples() {
    // Figure 2 (b)/(c): in the round-based system the wrong color costs one
    // extra round (3 vs 2); the searches avoid it.
    let f = fixtures::fig2a();
    let sync = solve_gopt(&f.topo, f.source, &AlwaysAwake, &SearchConfig::default());
    assert_eq!(sync.latency, 2);

    // Figure 2 (d)/(e): under the duty cycle the wrong color costs a whole
    // extra cycle (completion 13 instead of 4) — shown by the Table IV
    // trace above; here we double-check the optimum itself.
    let wake = ExplicitSchedule::new(vec![vec![2], vec![4, 13], vec![4], vec![9], vec![9]], 20);
    let duty = solve_gopt(&f.topo, f.source, &wake, &SearchConfig::default());
    assert_eq!(duty.schedule.completion_slot(), 4);
}
