//! The wall-clock budget check for the anytime chain (run by CI in release
//! mode, where wall-clock chains are meaningful).

use std::time::Instant;
use wsn_anytime::{solve_anytime, AnytimeConfig, Budget};
use wsn_dutycycle::AlwaysAwake;
use wsn_phy::ProtocolModel;
use wsn_topology::deploy;

#[test]
fn wall_clock_budget_is_not_overshot() {
    // Deadline checks poll every 16 moves inside pass loops and an EWMA
    // guard declines passes that cannot fit, so billed time stays within a
    // small tolerance of the budget. The tolerance absorbs pass-setup
    // granularity on slow CI machines.
    let (topo, src) = deploy::SyntheticDeployment::paper(2_000).sample(9);
    let budget_ms = 300u64;
    let cfg = AnytimeConfig {
        budget: Budget::WallClockMs(budget_ms),
        ..AnytimeConfig::default()
    };
    let started = Instant::now();
    let out = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
    let elapsed = started.elapsed().as_millis() as u64;
    out.schedule.verify(&topo, &AlwaysAwake).unwrap();
    assert!(
        elapsed <= budget_ms + 150,
        "billed {elapsed} ms against a {budget_ms} ms budget"
    );
}
