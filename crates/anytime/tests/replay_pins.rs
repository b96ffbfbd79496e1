//! Digest pins for the readers of a schedule replay outside the verifier:
//! repeat planning (`plan_repeats`), the loss-aware solve
//! (`solve_anytime_reliable`) and the repair's damage report
//! (`reschedule`'s `stranded`, `reused` and `uncovered`).
//!
//! Each case runs on a paper deployment under one conflict model, one
//! wake schedule and a lossy link layer. A digest covers the planned
//! entries' slots, the repeat counts and the bits of every delivery
//! bound, so any change to how the replay credits a delivery, picks a
//! serving parent or counts stranded nodes fails here.

use mlbs_core::Schedule;
use wsn_anytime::{
    plan_repeats, reschedule, solve_anytime_reliable, AnytimeConfig, Budget, ChurnDelta,
};
use wsn_dutycycle::{AlwaysAwake, WakeSchedule, WindowedRandom};
use wsn_phy::{ConflictModel, PhyModelSpec, SinrParams};
use wsn_topology::deploy::SyntheticDeployment;
use wsn_topology::{LinkQuality, LinkQualityParams, NodeId, Topology};

const EPSILON: f64 = 0.01;

/// FNV-1a over the little-endian bytes of `x`.
fn mix(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// A schedule's start, entry slots and repeat counts, then the bits of its
/// delivery profile (or a marker when it does not verify).
fn digest<S: WakeSchedule, M: ConflictModel>(
    h: &mut u64,
    s: &Schedule,
    topo: &Topology,
    wake: &S,
    model: &M,
    quality: &LinkQuality,
) {
    mix(h, s.start);
    for e in &s.entries {
        mix(h, e.slot);
    }
    for &r in &s.repeats {
        mix(h, u64::from(r));
    }
    match s.delivery_profile(topo, wake, model, quality) {
        Ok(p) => p.iter().for_each(|x| mix(h, x.to_bits())),
        Err(_) => mix(h, u64::MAX),
    }
}

/// `(plan digest, reliable digest, trimmed slots, stranded, reused,
/// uncovered)` of one case.
type Pin = (u64, u64, u64, usize, usize, usize);

fn run_case<S: WakeSchedule, M: ConflictModel>(
    topo: &Topology,
    src: NodeId,
    wake: &S,
    model: &M,
    quality: &LinkQuality,
    stride: usize,
) -> Pin {
    let cfg = AnytimeConfig {
        budget: Budget::Iterations(300),
        ..AnytimeConfig::default()
    };
    let rel = solve_anytime_reliable(topo, src, wake, model, quality, EPSILON, &cfg);
    let mut plan_h = 0xcbf2_9ce4_8422_2325u64;
    let planned = plan_repeats(&rel.base.schedule, topo, wake, model, quality, EPSILON);
    digest(&mut plan_h, &planned, topo, wake, model, quality);

    let mut rel_h = 0xcbf2_9ce4_8422_2325u64;
    digest(&mut rel_h, &rel.schedule, topo, wake, model, quality);
    rel.report
        .per_node
        .iter()
        .for_each(|x| mix(&mut rel_h, x.to_bits()));
    mix(&mut rel_h, u64::from(rel.meets_target));

    // Every `stride`-th node but the source dies, and so does every
    // neighbour of the last node, which cuts that node off. The damage is
    // counted against the lossless schedule the reliable plan was built on.
    let cut = NodeId(topo.len() as u32 - 1);
    let dead = topo
        .nodes()
        .filter(|&u| u != src && u != cut)
        .filter(|&u| u.idx() % stride == 1 || topo.adjacent(u, cut))
        .collect::<Vec<_>>();
    let rep = reschedule(
        topo,
        src,
        wake,
        model,
        &rel.base.schedule,
        &ChurnDelta::deaths(dead),
        &AnytimeConfig {
            budget: Budget::Iterations(0),
            ..AnytimeConfig::default()
        },
    );
    (
        plan_h,
        rel_h,
        rel.trimmed_slots,
        rep.stranded,
        rep.reused,
        rep.uncovered.len(),
    )
}

#[derive(Clone, Copy, Debug)]
enum Model {
    Protocol,
    TwoChannels,
    Sinr,
}

/// `(n, deployment seed, model, duty rate (0 = always awake), uniform link
/// delivery (0 = synthetic loss), death stride)`.
const CASES: [(usize, u64, Model, u32, f64, usize); 8] = [
    (100, 1, Model::Protocol, 0, 0.0, 9),
    (150, 2, Model::TwoChannels, 0, 0.0, 9),
    (200, 3, Model::Sinr, 0, 0.0, 2),
    (250, 4, Model::Protocol, 4, 0.0, 9),
    (300, 5, Model::Protocol, 10, 0.0, 3),
    (120, 6, Model::TwoChannels, 10, 0.0, 2),
    (180, 7, Model::Sinr, 4, 0.0, 9),
    (160, 8, Model::Protocol, 0, 0.9, 9),
];

/// The pins, one per case. The always-awake rows were re-recorded when
/// synchronous chains began ranking the legalizer's frontier by reach; the
/// duty rows are unchanged since the replay was unified.
const PINS: [Pin; 8] = [
    (
        16_101_779_850_557_622_973,
        10_134_647_801_632_109_580,
        8,
        69,
        20,
        1,
    ),
    (
        13_699_098_157_306_280_985,
        8_619_827_255_973_174_249,
        8,
        21,
        20,
        1,
    ),
    (
        9_481_534_376_750_642_248,
        13_351_427_291_941_070_562,
        18,
        52,
        17,
        1,
    ),
    (
        11_619_551_440_301_768_014,
        16_047_937_972_268_723_281,
        0,
        151,
        16,
        4,
    ),
    (
        13_981_997_160_196_335_191,
        16_084_290_234_172_606_046,
        1,
        151,
        14,
        1,
    ),
    (
        2_825_743_947_451_535_778,
        16_659_436_147_279_287_934,
        1,
        51,
        2,
        51,
    ),
    (
        13_909_197_751_666_585_654,
        1_155_139_588_825_237_008,
        0,
        6,
        23,
        1,
    ),
    (
        5_431_941_900_881_177_387,
        3_629_319_944_131_544_253,
        0,
        31,
        19,
        1,
    ),
];

#[test]
fn replay_consumers_are_pinned() {
    let mut got = Vec::new();
    for (n, seed, model, rate, uniform, stride) in CASES {
        let (topo, src) = SyntheticDeployment::paper(n).sample(seed);
        let spec = match model {
            Model::Protocol => PhyModelSpec::protocol(),
            Model::TwoChannels => PhyModelSpec::protocol().with_channels(2),
            Model::Sinr => PhyModelSpec::sinr(SinrParams::calibrated(topo.radius(), 3.0, 1.5)),
        };
        let model = spec.build(&topo);
        let quality = if uniform > 0.0 {
            LinkQuality::uniform(&topo, uniform)
        } else {
            LinkQuality::synthetic(&topo, &LinkQualityParams::default(), seed ^ 0x51)
        };
        got.push(if rate == 0 {
            run_case(&topo, src, &AlwaysAwake, &model, &quality, stride)
        } else {
            let wake = WindowedRandom::new(topo.len(), rate, seed ^ 0xD00F);
            run_case(&topo, src, &wake, &model, &quality, stride)
        });
    }
    assert_eq!(got, PINS, "a replay consumer drifted from its pin");
}
