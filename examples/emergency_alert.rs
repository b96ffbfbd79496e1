//! Mission-critical alert dissemination in a duty-cycled sensor field.
//!
//! §I motivates minimum-latency broadcast with "mission-critical
//! applications" where the network must disseminate an alert quickly even
//! though nodes sleep aggressively to save energy. This example stages a
//! fire alert in a 250-node field running a 10%-duty-cycle MAC (r = 10)
//! and a 2% one (r = 50), and reports wall-clock dissemination estimates
//! using a Mica2-like slot length.
//!
//! ```text
//! cargo run --release --example emergency_alert
//! ```

use mlbs::prelude::*;

/// Mica2-like slot duration: one packet transmission at 38.4 kbps with a
/// ~36-byte frame ≈ 7.5 ms, rounded up for MAC overheads. (The paper
/// counts slots; seconds are derived presentation only.)
const SLOT_SECONDS: f64 = 0.01;

fn main() {
    let deployment = SyntheticDeployment::paper(250);
    let (topo, source) = deployment.sample(7);
    let d = bounds::source_eccentricity(&topo, source);
    println!(
        "sensor field: {} nodes, alert source at eccentricity {d} hops\n",
        topo.len()
    );

    for (label, rate) in [
        ("heavy duty cycle (10%, r=10)", 10u32),
        ("light duty cycle (2%, r=50)", 50),
    ] {
        let wake = WindowedRandom::new(topo.len(), rate, 0xF1FE);

        // Prior art: layered scheduling, waiting out every layer.
        let layered = schedule_17_approx(&topo, source, &wake, 1);
        layered.verify(&topo, &wake).unwrap();

        // The paper's scheme: pipelined + duty-cycle-aware E-model
        // (Eq. 11 weights are expected cycle waiting times).
        let emodel = EModel::build(&topo, &wake);
        let pipelined = run_pipeline(
            &topo,
            source,
            &wake,
            &mut EModelSelector::new(&emodel),
            &PipelineConfig::default(),
        );
        pipelined.verify(&topo, &wake).unwrap();

        let bound = bounds::opt_bound_duty(d, rate);
        println!("{label}");
        println!(
            "  17-approx baseline : {:>5} slots ≈ {:>6.2} s",
            layered.latency(),
            layered.latency() as f64 * SLOT_SECONDS
        );
        println!(
            "  E-model pipeline   : {:>5} slots ≈ {:>6.2} s  ({:.0}% faster)",
            pipelined.latency(),
            pipelined.latency() as f64 * SLOT_SECONDS,
            100.0 * (1.0 - pipelined.latency() as f64 / layered.latency() as f64)
        );
        println!("  Theorem 1 budget   : {:>5} slots (2r(d+2))\n", bound);
        assert!(pipelined.latency() <= bound, "Theorem 1 must hold");
    }

    println!(
        "every relay in both schedules respects the nodes' own wake-up times —\n\
         the alert never waits on a synchronization barrier, only on physics."
    );
}
