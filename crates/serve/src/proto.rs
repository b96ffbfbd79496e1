//! Request/response protocol of the serving daemon.
//!
//! One request is one JSON object with an `"op"` field; one response is
//! one JSON object with an `"ok"` field. Over stdin the framing is
//! jsonl (one object per line); over TCP it is a 4-byte big-endian
//! length prefix followed by that many bytes of UTF-8 JSON, same payload
//! both ways.
//!
//! Failure responses carry a `"kind"` discriminator the client can act
//! on: `"overloaded"` (with `"retry_after_ms"` backoff hint), `"panic"`
//! (the shard restarted cold; retry is safe), `"no_such_shard"`,
//! `"bad_request"`, `"source_dead"`.

use crate::json::Json;
use wsn_topology::NodeId;

/// Default per-request deadline when the client sends none.
pub const DEFAULT_DEADLINE_MS: u64 = 100;

/// A parsed daemon request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Create (or replace) a resident shard.
    Create {
        shard: String,
        nodes: usize,
        seed: u64,
        /// `"paper"` or `"scaled"` synthetic deployment.
        deployment: String,
        /// `"protocol"` or `"sinr"`.
        model: String,
        channels: u32,
        /// Reliability target ε for repeat planning (0 disables).
        epsilon: f64,
    },
    /// Solve (or re-serve) the shard's schedule under a deadline.
    Solve { shard: String, deadline_ms: u64 },
    /// Incremental reschedule after node deaths.
    Churn {
        shard: String,
        dead: Vec<NodeId>,
        deadline_ms: u64,
    },
    /// Feed estimator observations (simulated ACK stream against a truth
    /// quality) and close the loop: on drift, incremental reschedule.
    Observe {
        shard: String,
        /// Uniform true delivery probability the ACK stream is drawn from.
        truth: f64,
        /// Per-link overrides of the truth: `(u, v, p)`.
        links: Vec<(NodeId, NodeId, f64)>,
        rounds: u32,
        seed: u64,
        deadline_ms: u64,
    },
    /// Shard statistics (no solving).
    Query { shard: String },
    /// Prometheus text exposition of the global recorder.
    Metrics,
    /// Chaos hook: make the shard worker panic (exercises isolation).
    ChaosPanic { shard: String },
    /// Drain and stop the daemon.
    Shutdown,
}

impl Request {
    /// The shard the request routes to, if any.
    pub fn shard(&self) -> Option<&str> {
        match self {
            Request::Create { shard, .. }
            | Request::Solve { shard, .. }
            | Request::Churn { shard, .. }
            | Request::Observe { shard, .. }
            | Request::Query { shard }
            | Request::ChaosPanic { shard } => Some(shard),
            Request::Metrics | Request::Shutdown => None,
        }
    }

    /// The request's deadline budget (ops without one get the default).
    pub fn deadline_ms(&self) -> u64 {
        match self {
            Request::Solve { deadline_ms, .. }
            | Request::Churn { deadline_ms, .. }
            | Request::Observe { deadline_ms, .. } => *deadline_ms,
            _ => DEFAULT_DEADLINE_MS,
        }
    }

    /// Parses one request object.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line)?;
        let op = v.get("op").and_then(Json::as_str).ok_or("missing \"op\"")?;
        let shard = || -> Result<String, String> {
            Ok(v.get("shard")
                .and_then(Json::as_str)
                .ok_or("missing \"shard\"")?
                .to_string())
        };
        let deadline = v
            .get("deadline_ms")
            .map(|d| d.as_u64().ok_or("bad \"deadline_ms\""))
            .transpose()?
            .unwrap_or(DEFAULT_DEADLINE_MS);
        match op {
            "create" => Ok(Request::Create {
                shard: shard()?,
                nodes: v
                    .get("nodes")
                    .and_then(Json::as_u64)
                    .ok_or("missing \"nodes\"")? as usize,
                seed: v.get("seed").and_then(Json::as_u64).unwrap_or(0),
                deployment: v
                    .get("deployment")
                    .and_then(Json::as_str)
                    .unwrap_or("paper")
                    .to_string(),
                model: v
                    .get("model")
                    .and_then(Json::as_str)
                    .unwrap_or("protocol")
                    .to_string(),
                channels: v
                    .get("channels")
                    .and_then(Json::as_u64)
                    .map_or(Ok(1), u32::try_from)
                    .map_err(|_| "bad \"channels\"")?,
                epsilon: v.get("epsilon").and_then(Json::as_f64).unwrap_or(0.0),
            }),
            "solve" => Ok(Request::Solve {
                shard: shard()?,
                deadline_ms: deadline,
            }),
            "churn" => {
                let dead = v
                    .get("dead")
                    .and_then(Json::as_arr)
                    .ok_or("missing \"dead\"")?
                    .iter()
                    .map(node_id)
                    .collect::<Option<Vec<_>>>()
                    .ok_or("bad \"dead\" entry")?;
                Ok(Request::Churn {
                    shard: shard()?,
                    dead,
                    deadline_ms: deadline,
                })
            }
            "observe" => {
                let links = match v.get("links").and_then(Json::as_arr) {
                    None => Vec::new(),
                    Some(items) => items
                        .iter()
                        .map(|it| {
                            let t = it.as_arr()?;
                            if t.len() != 3 {
                                return None;
                            }
                            Some((node_id(&t[0])?, node_id(&t[1])?, t[2].as_f64()?))
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or("bad \"links\" entry")?,
                };
                Ok(Request::Observe {
                    shard: shard()?,
                    truth: v.get("truth").and_then(Json::as_f64).unwrap_or(1.0),
                    links,
                    rounds: v
                        .get("rounds")
                        .and_then(Json::as_u64)
                        .map_or(Ok(40), u32::try_from)
                        .map_err(|_| "bad \"rounds\"")?,
                    seed: v.get("seed").and_then(Json::as_u64).unwrap_or(1),
                    deadline_ms: deadline,
                })
            }
            "query" => Ok(Request::Query { shard: shard()? }),
            "metrics" => Ok(Request::Metrics),
            "chaos_panic" => Ok(Request::ChaosPanic { shard: shard()? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// A node id field: `None` unless a non-negative integer that fits a
/// `u32`, so an out-of-range id can never wrap onto a real node.
fn node_id(x: &Json) -> Option<NodeId> {
    x.as_u64().and_then(|id| u32::try_from(id).ok()).map(NodeId)
}

/// `{"ok":false,"kind":…,"error":…}` plus extras.
pub fn err(kind: &str, msg: &str, extra: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(false)),
        ("kind", Json::str(kind)),
        ("error", Json::str(msg)),
    ];
    pairs.extend(extra);
    Json::obj(pairs)
}

/// The explicit load-shed response with its backoff hint.
pub fn overloaded(retry_after_ms: u64) -> Json {
    err(
        "overloaded",
        "shard queue full; retry after backoff",
        vec![("retry_after_ms", Json::num(retry_after_ms as f64))],
    )
}

/// Reads one length-prefixed frame (4-byte big-endian length + UTF-8
/// payload). `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<String>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "truncated frame length",
                ))
            }
            n => got += n,
        }
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > 64 << 20 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut buf = vec![0u8; n];
    std::io::Read::read_exact(r, &mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame not UTF-8"))
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl std::io::Write, payload: &str) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        let r = Request::parse(r#"{"op":"create","shard":"a","nodes":80,"seed":3}"#).unwrap();
        assert!(matches!(
            r,
            Request::Create {
                nodes: 80,
                seed: 3,
                ..
            }
        ));
        let r = Request::parse(r#"{"op":"solve","shard":"a","deadline_ms":7}"#).unwrap();
        assert_eq!(r.deadline_ms(), 7);
        let r = Request::parse(r#"{"op":"churn","shard":"a","dead":[1,2]}"#).unwrap();
        match r {
            Request::Churn { dead, .. } => assert_eq!(dead, vec![NodeId(1), NodeId(2)]),
            _ => panic!(),
        }
        let r = Request::parse(r#"{"op":"observe","shard":"a","truth":0.8,"links":[[0,1,0.5]]}"#)
            .unwrap();
        match r {
            Request::Observe { truth, links, .. } => {
                assert_eq!(truth, 0.8);
                assert_eq!(links, vec![(NodeId(0), NodeId(1), 0.5)]);
            }
            _ => panic!(),
        }
        assert!(matches!(
            Request::parse(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
        assert!(Request::parse(r#"{"op":"nope"}"#).is_err());
        assert!(Request::parse("not json").is_err());
    }

    #[test]
    fn ids_and_counts_past_u32_are_refused_not_wrapped() {
        // 2^32 + 3 and 2^32 + 1 would wrap to node 3 and one channel.
        for line in [
            r#"{"op":"churn","shard":"a","dead":[4294967299]}"#,
            r#"{"op":"observe","shard":"a","links":[[4294967296,1,0.5]]}"#,
            r#"{"op":"observe","shard":"a","links":[[0,4294967297,0.5]]}"#,
            r#"{"op":"observe","shard":"a","rounds":4294967296}"#,
            r#"{"op":"create","shard":"a","nodes":80,"channels":4294967297}"#,
        ] {
            assert!(Request::parse(line).is_err(), "{line}");
        }
        let r = Request::parse(r#"{"op":"churn","shard":"a","dead":[4294967295]}"#).unwrap();
        assert!(matches!(r, Request::Churn { dead, .. } if dead == vec![NodeId(u32::MAX)]));
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"metrics\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"op\":\"metrics\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "second");
        assert!(read_frame(&mut r).unwrap().is_none());
    }
}
