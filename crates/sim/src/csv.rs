//! Plain-text CSV emission for sweep results.
//!
//! One row per (density point, algorithm) with latency statistics, plus
//! rows for the analytical curves — enough to replot any of Figures 3–7
//! with any external tool.

use crate::{Regime, SweepResult};
use std::fmt::Write as _;

/// Renders a sweep as CSV. Columns:
/// `regime,nodes,density,series,mean,std,min,max,count,coverage,states`
/// — `coverage` is the mean lossy-replay coverage of the series
/// (first-class reliability metric) and `states` the mean search states
/// per run. The trailing columns are empty where they do not apply (analytic-bound
/// rows have no schedule to replay; non-search algorithms explore no
/// states).
pub fn sweep_to_csv(result: &SweepResult) -> String {
    let mut out =
        String::from("regime,nodes,density,series,mean,std,min,max,count,coverage,states\n");
    let regime = regime_label(result.regime);
    for p in &result.points {
        for a in &p.per_algorithm {
            let states = if a.search_states.count() == 0 {
                String::new()
            } else {
                format!("{:.1}", a.search_states.mean())
            };
            let _ = writeln!(
                out,
                "{},{},{:.4},{},{:.3},{:.3},{},{},{},{:.4},{}",
                regime,
                p.nodes,
                p.density,
                a.name,
                a.latency.mean(),
                a.latency.std_dev(),
                a.latency.min(),
                a.latency.max(),
                a.latency.count(),
                a.coverage.mean(),
                states
            );
        }
        for (name, series) in [
            ("OPT-analysis", &p.opt_analysis),
            ("baseline-bound", &p.baseline_bound),
        ] {
            let _ = writeln!(
                out,
                "{},{},{:.4},{},{:.3},{:.3},{},{},{},,",
                regime,
                p.nodes,
                p.density,
                name,
                series.mean(),
                series.std_dev(),
                series.min(),
                series.max(),
                series.count()
            );
        }
    }
    out
}

fn regime_label(regime: Regime) -> String {
    match regime {
        Regime::Sync => "sync".to_string(),
        Regime::Duty { rate } => format!("duty-r{rate}"),
    }
}

/// Renders the improving-bound traces of a sweep's anytime runs as CSV:
/// `regime,nodes,instance,series,elapsed_ms,moves,latency`, one row per
/// accepted incumbent, grouped per `(nodes, instance, series)` run. The
/// `moves` column is the bit-reproducible x-axis (deterministic under
/// iteration budgets); `elapsed_ms` is the wall-clock x-axis. Empty when
/// the sweep ran no anytime algorithm.
pub fn traces_to_csv(result: &SweepResult) -> String {
    let mut out = String::from("regime,nodes,instance,series,elapsed_ms,moves,latency\n");
    let regime = regime_label(result.regime);
    for t in &result.traces {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            regime, t.nodes, t.instance, t.series, t.elapsed_ms, t.moves, t.latency
        );
    }
    out
}

/// Renders a fixed-width table of mean latencies (series × density), the
/// shape the paper's figures plot.
pub fn sweep_to_table(result: &SweepResult) -> String {
    let mut out = String::new();
    let names: Vec<&str> = result
        .points
        .first()
        .map(|p| p.per_algorithm.iter().map(|a| a.name.as_str()).collect())
        .unwrap_or_default();
    let _ = write!(out, "{:<10} {:<9}", "nodes", "density");
    for n in &names {
        let _ = write!(out, " {n:>16}");
    }
    let _ = writeln!(out, " {:>16}", "OPT-analysis");
    for p in &result.points {
        let _ = write!(out, "{:<10} {:<9.4}", p.nodes, p.density);
        for a in &p.per_algorithm {
            let _ = write!(out, " {:>16.2}", a.latency.mean());
        }
        let _ = writeln!(out, " {:>16.2}", p.opt_analysis.mean());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Sweep};
    use mlbs_core::SearchConfig;

    fn sample_result() -> SweepResult {
        Sweep {
            node_counts: vec![50],
            instances: 2,
            algorithms: vec![Algorithm::Layered, Algorithm::EModelPipeline],
            regime: Regime::Sync,
            master_seed: 7,
            search: SearchConfig::default(),
            threads: 1,
        }
        .run()
    }

    #[test]
    fn csv_has_expected_rows_and_header() {
        let csv = sweep_to_csv(&sample_result());
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(
            lines[0],
            "regime,nodes,density,series,mean,std,min,max,count,coverage,states"
        );
        // 1 point × (2 algorithms + 2 analytic series) = 4 data rows.
        assert_eq!(lines.len(), 1 + 4);
        assert!(lines[1].starts_with("sync,50,0.0200,26-approx,"));
        assert!(csv.contains("OPT-analysis"));
        // Algorithm rows carry a coverage value, analytic rows leave the
        // trailing columns empty.
        assert_eq!(lines[1].split(',').count(), 11);
        let cov: f64 = lines[1].split(',').nth(9).unwrap().parse().unwrap();
        assert!((0.0..=1.0).contains(&cov));
        assert!(lines[3].ends_with(",,"));
        // Neither sample algorithm runs a search.
        assert_eq!(lines[1].split(',').nth(10), Some(""));
    }

    #[test]
    fn search_column_populates_for_search_algorithms() {
        let r = Sweep {
            node_counts: vec![50],
            instances: 2,
            algorithms: vec![Algorithm::GOpt, Algorithm::Anytime],
            regime: Regime::Sync,
            master_seed: 7,
            search: SearchConfig::default(),
            threads: 1,
        }
        .run();
        let csv = sweep_to_csv(&r);
        let row = |name: &str| {
            csv.lines()
                .find(|l| l.split(',').nth(3) == Some(name))
                .unwrap()
                .split(',')
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        // G-OPT explores states; the anytime tier reports none.
        let gopt = row("G-OPT");
        assert!(gopt[10].parse::<f64>().unwrap() > 0.0);
        assert_eq!(row("anytime")[10], "");
    }

    #[test]
    fn trace_csv_flattens_anytime_runs() {
        let r = Sweep {
            node_counts: vec![50],
            instances: 2,
            algorithms: vec![Algorithm::Layered, Algorithm::Anytime],
            regime: Regime::Sync,
            master_seed: 7,
            search: SearchConfig::default(),
            threads: 1,
        }
        .run();
        let csv = traces_to_csv(&r);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(
            lines[0],
            "regime,nodes,instance,series,elapsed_ms,moves,latency"
        );
        // Every anytime run contributes at least its greedy seed point;
        // the layered baseline contributes nothing.
        assert!(lines.len() > 2);
        assert!(lines[1..]
            .iter()
            .all(|l| l.split(',').nth(3) == Some("anytime")));
        // Latency is non-increasing and moves non-decreasing within a run.
        for pair in r.traces.windows(2) {
            if pair[0].nodes == pair[1].nodes && pair[0].instance == pair[1].instance {
                assert!(pair[1].latency <= pair[0].latency);
                assert!(pair[1].moves >= pair[0].moves);
            }
        }
    }

    #[test]
    fn table_lists_all_series() {
        let tbl = sweep_to_table(&sample_result());
        assert!(tbl.contains("26-approx"));
        assert!(tbl.contains("E-model"));
        assert!(tbl.contains("OPT-analysis"));
        assert!(tbl.lines().count() >= 2);
    }
}
