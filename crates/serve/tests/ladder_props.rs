//! Degradation-ladder properties: for *any* deadline — including ~0 ms —
//! the daemon's answer is a schedule that passes `verify_with_model`,
//! and the quality tag is monotone in the deadline.

use proptest::prelude::*;
use wsn_dutycycle::AlwaysAwake;
use wsn_serve::{Json, Request, ShardSpec, ShardState, Tier};

fn tier(resp: &Json) -> Tier {
    match resp.get("tier").and_then(Json::as_str) {
        Some("greedy") => Tier::Greedy,
        Some("warm") => Tier::Warm,
        Some("serial") => Tier::Serial,
        other => panic!("missing tier tag: {other:?}"),
    }
}

fn solve(state: &mut ShardState, deadline_ms: u64) -> Json {
    let resp = state.handle(
        &Request::Solve {
            shard: "p".into(),
            deadline_ms,
        },
        deadline_ms,
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    resp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any deadline pair on any instance: both answers verify under the
    /// shard's conflict model (re-checked here, independently of the
    /// response flag) and the quality tag never decreases with a larger
    /// deadline.
    #[test]
    fn any_deadline_serves_verified_and_tags_are_monotone(
        seed in 0..32u64,
        n in 30usize..90,
        da in 0u64..260,
        db in 0u64..260,
    ) {
        let (lo, hi) = if da <= db { (da, db) } else { (db, da) };
        let spec = ShardSpec::from_create("p", n, seed, "paper", "protocol", 1, 0.0).unwrap();
        let mut state = ShardState::build(&spec);

        let r_lo = solve(&mut state, lo);
        let s_lo = state.current.clone().unwrap();
        prop_assert!(s_lo.verify_with_model(&state.topo, &AlwaysAwake, &state.model).is_ok());

        let r_hi = solve(&mut state, hi);
        let s_hi = state.current.clone().unwrap();
        prop_assert!(s_hi.verify_with_model(&state.topo, &AlwaysAwake, &state.model).is_ok());

        prop_assert!(
            tier(&r_lo) <= tier(&r_hi),
            "tag not monotone: {} ms -> {:?}, {} ms -> {:?}",
            lo, r_lo.get("tier"), hi, r_hi.get("tier")
        );
    }

    /// The ~0 ms floor: a zero deadline is still answered with a valid,
    /// verified schedule tagged greedy — never a timeout with nothing.
    #[test]
    fn zero_deadline_always_answers(seed in 0..16u64, n in 30usize..70) {
        let spec = ShardSpec::from_create("p", n, seed, "paper", "protocol", 1, 0.0).unwrap();
        let mut state = ShardState::build(&spec);
        let resp = solve(&mut state, 0);
        prop_assert_eq!(resp.get("tier").and_then(Json::as_str), Some("greedy"));
        prop_assert_eq!(resp.get("verified").and_then(Json::as_bool), Some(true));
        let s = state.current.clone().unwrap();
        prop_assert!(s.verify_with_model(&state.topo, &AlwaysAwake, &state.model).is_ok());
    }
}
