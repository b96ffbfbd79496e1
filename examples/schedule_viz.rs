//! ASCII visualization of a broadcast schedule.
//!
//! Renders the deployment as a character grid and replays the schedule
//! advance by advance: `S` source, `*` transmitting this slot, `o`
//! informed, `.` uninformed. Makes the pipeline's behaviour visible — from
//! the second slot on, transmitters appear at *several* distances from the
//! source simultaneously, which is exactly what the layer barrier forbids.
//!
//! ```text
//! cargo run --release --example schedule_viz
//! cargo run --release --example schedule_viz -- baseline   # layer barrier
//! ```

use mlbs::prelude::*;

const COLS: usize = 56;
const ROWS: usize = 24;

fn render(topo: &Topology, source: NodeId, informed: &NodeSet, senders: &[NodeId]) -> String {
    let mut grid = vec![vec![' '; COLS]; ROWS];
    for u in topo.nodes() {
        let p = topo.position(u);
        let c = ((p.x / 50.0) * (COLS as f64 - 1.0)).round() as usize;
        let r = ((p.y / 50.0) * (ROWS as f64 - 1.0)).round() as usize;
        let glyph = if u == source {
            'S'
        } else if senders.contains(&u) {
            '*'
        } else if informed.contains(u.idx()) {
            'o'
        } else {
            '.'
        };
        // Transmitters win cell contention so activity is always visible.
        let cell = &mut grid[ROWS - 1 - r][c.min(COLS - 1)];
        if *cell == ' ' || glyph == '*' || glyph == 'S' {
            *cell = glyph;
        }
    }
    grid.into_iter()
        .map(|row| row.into_iter().collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let use_baseline = std::env::args().any(|a| a == "baseline");
    let (topo, source) = SyntheticDeployment::paper(180).sample(5);

    let schedule = if use_baseline {
        schedule_26_approx(&topo, source)
    } else {
        let em = EModel::build(&topo, &AlwaysAwake);
        run_pipeline(
            &topo,
            source,
            &AlwaysAwake,
            &mut EModelSelector::new(&em),
            &PipelineConfig::default(),
        )
    };
    schedule.verify(&topo, &AlwaysAwake).unwrap();

    println!(
        "{} schedule on {} nodes — P(A) = {} rounds, {} transmissions\n",
        if use_baseline {
            "26-approx (layer barrier)"
        } else {
            "E-model pipeline"
        },
        topo.len(),
        schedule.latency(),
        schedule.transmission_count()
    );

    // A node is informed once its receive slot is at or before the slot
    // just replayed; the source reads the start slot, so it always counts.
    let received = schedule.receive_slots(&topo, &ProtocolModel, None);
    let mut informed = NodeSet::new(topo.len());
    informed.insert(source.idx());
    for entry in &schedule.entries {
        println!(
            "── slot {} ── transmitters: {} ───────────────────────",
            entry.slot,
            entry
                .senders
                .iter()
                .map(|u| u.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        println!("{}\n", render(&topo, source, &informed, &entry.senders));
        informed = NodeSet::from_indices(
            topo.len(),
            (0..topo.len()).filter(|&w| received[w] <= entry.slot),
        );
    }
    println!(
        "final coverage: {}/{} nodes informed",
        informed.len(),
        topo.len()
    );
}
