//! The traced run: the benchmark's own spans around each layer call, the
//! per-span table (count, total, p50, p99, self time, share of root) and
//! the Chrome trace.
//!
//! Spans nest by time containment within a group: the spans of one serve
//! request share its request id (the span value), so a request's spans on
//! the generator and on its reply thread form one tree; every other
//! benchmark span groups by thread.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use wsn_obs::{EventKind, Recorder, Span, TraceEvent};

static TRACING: AtomicBool = AtomicBool::new(false);

/// Ring capacity of the traced run's recorder: large enough that a full
/// run drops nothing (`obs.dropped_events` must read 0).
const EVENT_CAPACITY: usize = 1 << 21;

/// A benchmark span; inert unless the traced pass is running.
pub fn span(name: &'static str) -> Span {
    if TRACING.load(Ordering::Relaxed) {
        wsn_obs::span(name)
    } else {
        Span::none()
    }
}

/// A benchmark span tagged with a serve request id.
pub fn span_id(name: &'static str, id: u64) -> Span {
    let mut s = span(name);
    s.set_value(id as i64);
    s
}

/// A recorder for the traced run.
pub fn recorder() -> Recorder {
    Recorder::with_capacity(EVENT_CAPACITY)
}

/// Installs `rec` as the global recorder and opens the benchmark's spans.
pub fn on(rec: &Recorder) {
    wsn_obs::install(rec.clone());
    TRACING.store(true, Ordering::SeqCst);
}

/// Closes the benchmark's spans and removes the global recorder.
pub fn off() {
    TRACING.store(false, Ordering::SeqCst);
    wsn_obs::uninstall();
}

/// One row of the per-span table (times in microseconds).
pub struct Row {
    pub name: &'static str,
    pub count: usize,
    pub total_us: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub self_us: u64,
    pub root_share: f64,
}

/// The per-span table of the benchmark's spans (`names`), plus, for each
/// tree rooted at a `roots` span in start order (the blocking path of one
/// unit of work), the summed self times of its spans: the root's duration.
pub struct Table {
    pub rows: Vec<Row>,
    pub tree_self_us: Vec<u64>,
}

struct Node {
    name: &'static str,
    start: u64,
    end: u64,
    self_us: u64,
    root: usize,
}

/// `(start, end, name)` of the spans of each group, keyed by request id
/// (`true`, id) or by thread (`false`, tid).
type Groups = BTreeMap<(bool, i64), Vec<(u64, u64, &'static str)>>;

pub fn table(events: &[TraceEvent], names: &[&'static str], roots: &[&'static str]) -> Table {
    let mut groups = Groups::new();
    for ev in events {
        let EventKind::Span { dur_us } = ev.kind else {
            continue;
        };
        if !names.contains(&ev.name) {
            continue;
        }
        let key = match ev.value {
            Some(id) => (true, id),
            None => (false, i64::from(ev.tid)),
        };
        groups
            .entry(key)
            .or_default()
            .push((ev.ts_us, ev.ts_us + dur_us, ev.name));
    }
    let mut nodes: Vec<Node> = Vec::new();
    for (_, mut spans) in groups {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<usize> = Vec::new();
        for (start, end, name) in spans {
            while let Some(&top) = stack.last() {
                if nodes[top].end <= start || nodes[top].end < end {
                    stack.pop();
                } else {
                    break;
                }
            }
            let id = nodes.len();
            let root = match stack.last() {
                Some(&parent) => {
                    nodes[parent].self_us = nodes[parent].self_us.saturating_sub(end - start);
                    nodes[parent].root
                }
                None => id,
            };
            nodes.push(Node {
                name,
                start,
                end,
                self_us: end - start,
                root,
            });
            stack.push(id);
        }
    }
    let root_total: u64 = nodes
        .iter()
        .enumerate()
        .filter(|(i, n)| n.root == *i)
        .map(|(_, n)| n.end - n.start)
        .sum();
    let mut tree_us: BTreeMap<usize, u64> = BTreeMap::new();
    for n in nodes.iter().filter(|n| roots.contains(&nodes[n.root].name)) {
        *tree_us.entry(n.root).or_default() += n.self_us;
    }
    let mut trees: Vec<(u64, u64)> = tree_us
        .into_iter()
        .map(|(root, self_us)| (nodes[root].start, self_us))
        .collect();
    trees.sort_unstable();
    let rows = names
        .iter()
        .map(|&name| {
            let mine: Vec<&Node> = nodes.iter().filter(|n| n.name == name).collect();
            let durs: Vec<f64> = mine.iter().map(|n| (n.end - n.start) as f64).collect();
            let total_us: u64 = mine.iter().map(|n| n.end - n.start).sum();
            Row {
                name,
                count: mine.len(),
                total_us,
                p50_us: crate::stats::quantile(&durs, 0.5),
                p99_us: crate::stats::quantile(&durs, 0.99),
                self_us: mine.iter().map(|n| n.self_us).sum(),
                root_share: total_us as f64 / root_total.max(1) as f64,
            }
        })
        .collect();
    Table {
        rows,
        tree_self_us: trees.into_iter().map(|(_, us)| us).collect(),
    }
}

/// The traced-run check's coverage: the median, over units of work run
/// both ways, of the self times of the traced unit's blocking-path spans
/// (`tree_self_us`) over the untraced wall time of the same unit
/// (`untraced_ms`, in the same order). The median keeps one unit that the host slowed on
/// one side from moving the figure. Trees that do not pair up with the
/// units give 0, which fails the check.
pub fn coverage(tree_self_us: &[u64], untraced_ms: &[f64]) -> f64 {
    if tree_self_us.len() != untraced_ms.len() {
        return 0.0;
    }
    let ratios: Vec<f64> = tree_self_us
        .iter()
        .zip(untraced_ms)
        .map(|(&us, &ms)| us as f64 / 1e3 / ms)
        .collect();
    crate::stats::median(&ratios)
}

/// Writes the Chrome trace and the per-span table next to each other in
/// `dir` and prints the table.
pub fn write(dir: &Path, stem: &str, rec: &Recorder, table: &Table) {
    let _ = std::fs::create_dir_all(dir);
    let trace_path = dir.join(format!("{stem}.trace.json"));
    if let Err(e) = std::fs::write(&trace_path, wsn_obs::export::chrome_trace(rec)) {
        eprintln!("warning: cannot write {}: {e}", trace_path.display());
    }
    let mut text = String::from("span\tcount\ttotal_ms\tp50_ms\tp99_ms\tself_ms\troot_share\n");
    for r in &table.rows {
        text.push_str(&format!(
            "{}\t{}\t{:.3}\t{:.4}\t{:.4}\t{:.3}\t{:.4}\n",
            r.name,
            r.count,
            r.total_us as f64 / 1e3,
            r.p50_us / 1e3,
            r.p99_us / 1e3,
            r.self_us as f64 / 1e3,
            r.root_share
        ));
    }
    for line in text.lines() {
        println!("span  {line}");
    }
    let table_path = dir.join(format!("{stem}.spans.tsv"));
    let written = std::fs::File::create(&table_path).and_then(|mut f| {
        f.write_all(text.as_bytes())?;
        f.flush()
    });
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", table_path.display());
    }
}
