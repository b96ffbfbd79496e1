//! Exporters: Chrome trace-event JSON and Prometheus text exposition.
//!
//! Both are produced by string formatting only — no serde, matching the
//! workspace's registry-free constraint. This crate is a leaf and carries
//! no parser; the workspace's tests validate the Chrome export with
//! `wsn_serve::Json`.

use crate::spans::EventKind;
use crate::Recorder;
use std::fmt::Write as _;

/// Metric names are dotted (`anytime.restarts`); Prometheus wants
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, so dots (and any other stray byte) become
/// underscores.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Chrome trace-event JSON (the "JSON array format" wrapped in an object
/// with `traceEvents`), loadable in `chrome://tracing` / Perfetto.
///
/// Spans become `ph: "X"` complete events; instants become thread-scoped
/// `ph: "i"` markers. The event's optional payload lands in `args.value`.
pub fn chrome_trace(rec: &Recorder) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for ev in rec.events_snapshot() {
        if !first {
            out.push(',');
        }
        first = false;
        let name = escape_json(ev.name);
        let args = match ev.value {
            Some(v) => format!("{{\"value\":{v}}}"),
            None => "{}".to_string(),
        };
        match ev.kind {
            EventKind::Span { dur_us } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{args}}}",
                    ev.tid, ev.ts_us, dur_us
                );
            }
            EventKind::Instant => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{args}}}",
                    ev.tid, ev.ts_us
                );
            }
        }
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"droppedEvents\":{}}}}}",
        rec.dropped_events()
    );
    out
}

/// Prometheus text exposition (version 0.0.4): counters as `<name>_total`,
/// gauges bare, histograms as `_bucket{le=...}` / `_sum` / `_count`
/// families. Histogram names keep their recorded unit suffix (we record
/// microseconds throughout, e.g. `repair.wall_us`).
pub fn prometheus(rec: &Recorder) -> String {
    let mut out = String::new();
    for (name, v) in rec.counters_snapshot() {
        let n = sanitize(&name);
        let _ = writeln!(out, "# TYPE {n}_total counter");
        let _ = writeln!(out, "{n}_total {v}");
    }
    for (name, v) in rec.gauges_snapshot() {
        let n = sanitize(&name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, snap) in rec.histograms_snapshot() {
        let n = sanitize(&name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        for (upper, cum) in snap.cumulative_buckets() {
            let _ = writeln!(out, "{n}_bucket{{le=\"{upper}\"}} {cum}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(out, "{n}_sum {}", snap.sum);
        let _ = writeln!(out, "{n}_count {}", snap.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_prometheus_names() {
        assert_eq!(sanitize("repair.warm_us"), "repair_warm_us");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("a-b c"), "a_b_c");
    }
}
