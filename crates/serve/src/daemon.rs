//! The daemon: shard registry, request routing, admission control, and
//! the metrics/shutdown verbs.
//!
//! The daemon itself does no solving — every schedule-producing request
//! is enqueued to its shard's owner thread ([`crate::shard`]) and the
//! caller blocks on the reply channel. `create`, `metrics`, and
//! `shutdown` are handled inline. Observability rides the *existing*
//! `wsn_obs` layer: [`Daemon::install_recorder`] installs the global
//! [`Recorder`](wsn_obs::Recorder) at startup and the `metrics` verb
//! answers with `wsn_obs::export::prometheus` text — the daemon invents
//! no metrics machinery of its own.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::proto::{self, Request};
use crate::shard::{spawn_shard, Job, PushError, ShardHandle, ShardSpec};

/// Daemon-wide knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bounded per-shard queue depth; pushes beyond it shed with an
    /// explicit `Overloaded` response.
    pub queue_cap: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig { queue_cap: 16 }
    }
}

/// A running scheduler daemon (in-process; the `wsn-serve` binary wraps
/// it in stdin-jsonl or TCP framing).
pub struct Daemon {
    cfg: DaemonConfig,
    shards: Mutex<HashMap<String, ShardHandle>>,
}

impl Daemon {
    pub fn new(cfg: DaemonConfig) -> Daemon {
        let d = Daemon {
            cfg,
            shards: Mutex::new(HashMap::new()),
        };
        wsn_obs::gauge_set("serve.shards", 0);
        d
    }

    /// Installs the global `wsn_obs` recorder if none is active yet (the
    /// daemon's startup hook; idempotent).
    pub fn install_recorder() {
        if !wsn_obs::enabled() {
            wsn_obs::install(wsn_obs::Recorder::new());
        }
    }

    /// Non-blocking submit: routes to the shard queue and returns the
    /// reply channel. Admission failures (shed/closed/unknown shard) are
    /// delivered *through* the channel so storm drivers handle one shape.
    pub fn submit(&self, req: Request) -> Receiver<Json> {
        wsn_obs::counter_add("serve.requests", 1);
        let (tx, rx) = channel();
        let resp_inline = match &req {
            Request::Metrics => Some(self.metrics()),
            Request::Shutdown => {
                self.shutdown();
                Some(Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("shutdown", Json::Bool(true)),
                ]))
            }
            Request::Create {
                shard,
                nodes,
                seed,
                deployment,
                model,
                channels,
                epsilon,
            } => Some(
                match ShardSpec::from_create(
                    shard, *nodes, *seed, deployment, model, *channels, *epsilon,
                ) {
                    Ok(spec) => self.create(spec),
                    Err(e) => proto::err("bad_request", &e, vec![]),
                },
            ),
            _ => None,
        };
        if let Some(resp) = resp_inline {
            let _ = tx.send(resp);
            return rx;
        }
        let name = req.shard().expect("shard ops carry a shard").to_string();
        let deadline = Instant::now() + Duration::from_millis(req.deadline_ms());
        let shards = self.shards.lock().unwrap();
        let Some(handle) = shards.get(&name) else {
            let _ = tx.send(proto::err(
                "no_such_shard",
                &format!("shard {name:?} does not exist; send create first"),
                vec![],
            ));
            return rx;
        };
        match handle.queue.push(Job {
            req,
            deadline,
            reply: tx.clone(),
        }) {
            Ok(()) => {}
            Err(PushError::Overloaded { retry_after_ms }) => {
                wsn_obs::counter_add("serve.shed", 1);
                let _ = tx.send(proto::overloaded(retry_after_ms));
            }
            Err(PushError::Closed) => {
                let _ = tx.send(proto::err("closed", "daemon is shutting down", vec![]));
            }
        }
        rx
    }

    /// Blocking request/reply.
    pub fn handle(&self, req: Request) -> Json {
        self.submit(req)
            .recv()
            .unwrap_or_else(|_| proto::err("internal", "reply channel dropped", vec![]))
    }

    /// One jsonl line in, one response out, plus whether this was a
    /// shutdown (the transport loop's exit signal).
    pub fn handle_line(&self, line: &str) -> (Json, bool) {
        match Request::parse(line) {
            Err(e) => (proto::err("bad_request", &e, vec![]), false),
            Ok(req) => {
                let stop = matches!(req, Request::Shutdown);
                (self.handle(req), stop)
            }
        }
    }

    fn create(&self, spec: ShardSpec) -> Json {
        let reply = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("shard", Json::str(spec.name.clone())),
            ("nodes", Json::num(spec.nodes as f64)),
        ]);
        let name = spec.name.clone();
        let handle = spawn_shard(spec, self.cfg.queue_cap);
        let mut shards = self.shards.lock().unwrap();
        if let Some(old) = shards.insert(name, handle) {
            // Replacing a shard retires the old worker cleanly.
            old.queue.close();
            drop(shards);
            let _ = old.join.join();
            self.note_shard_count();
        } else {
            drop(shards);
            self.note_shard_count();
        }
        reply
    }

    fn metrics(&self) -> Json {
        match wsn_obs::global() {
            Some(rec) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("content_type", Json::str("text/plain; version=0.0.4")),
                ("body", Json::str(wsn_obs::export::prometheus(&rec))),
            ]),
            None => proto::err("no_recorder", "no global recorder installed", vec![]),
        }
    }

    fn note_shard_count(&self) {
        let n = self.shards.lock().unwrap().len();
        wsn_obs::gauge_set("serve.shards", n as i64);
    }

    /// Closes every shard queue and joins the workers. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&self) {
        let drained: Vec<ShardHandle> = {
            let mut shards = self.shards.lock().unwrap();
            shards.drain().map(|(_, h)| h).collect()
        };
        for h in &drained {
            h.queue.close();
        }
        for h in drained {
            let _ = h.join.join();
        }
        self.note_shard_count();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create_line(name: &str, nodes: usize) -> String {
        format!(r#"{{"op":"create","shard":"{name}","nodes":{nodes},"seed":3}}"#)
    }

    #[test]
    fn routes_and_reports_unknown_shards() {
        Daemon::install_recorder();
        let d = Daemon::new(DaemonConfig::default());
        let (resp, _) = d.handle_line(r#"{"op":"solve","shard":"ghost"}"#);
        assert_eq!(resp.get("kind").unwrap().as_str(), Some("no_such_shard"));
        let (resp, _) = d.handle_line(&create_line("a", 40));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        let (resp, _) = d.handle_line(r#"{"op":"solve","shard":"a","deadline_ms":15}"#);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(resp.get("verified").unwrap().as_bool(), Some(true));
        let (resp, stop) = d.handle_line(r#"{"op":"shutdown"}"#);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        assert!(stop);
    }

    #[test]
    fn bad_lines_get_bad_request_not_a_crash() {
        let d = Daemon::new(DaemonConfig::default());
        for line in ["", "{", r#"{"op":"wat"}"#, r#"{"op":"create","shard":"x"}"#] {
            let (resp, stop) = d.handle_line(line);
            assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{line:?}");
            assert!(!stop);
        }
    }

    #[test]
    fn deeply_nested_line_gets_an_error_reply() {
        let d = Daemon::new(DaemonConfig::default());
        let (resp, stop) = d.handle_line(&"[".repeat(200_000));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(resp.get("kind").unwrap().as_str(), Some("bad_request"));
        assert!(!stop);
    }

    #[test]
    fn infeasible_create_answers_build_failed_instead_of_hanging() {
        let d = Daemon::new(DaemonConfig::default());
        // Two nodes pass request validation, but no connected `paper`
        // deployment of that size exists, so the cold build panics.
        let (resp, _) = d.handle_line(&create_line("tiny", 2));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        for _ in 0..2 {
            let resp = d
                .submit(Request::parse(r#"{"op":"solve","shard":"tiny"}"#).unwrap())
                .recv_timeout(Duration::from_secs(60))
                .expect("shard must reply, not hang");
            assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
            assert_eq!(resp.get("kind").unwrap().as_str(), Some("build_failed"));
        }
    }

    #[test]
    fn out_of_range_ids_and_round_counts_are_refused() {
        let d = Daemon::new(DaemonConfig::default());
        let (resp, _) = d.handle_line(&create_line("w", 40));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        // 2^32 + 3 must not wrap onto node 3 and kill it.
        let (resp, _) = d.handle_line(r#"{"op":"churn","shard":"w","dead":[4294967299]}"#);
        assert_eq!(resp.get("kind").unwrap().as_str(), Some("bad_request"));
        let (resp, _) = d.handle_line(r#"{"op":"query","shard":"w"}"#);
        assert_eq!(resp.get("dead").unwrap().as_u64(), Some(0));
        // 2^32 + 1 channels must not wrap onto one channel.
        let (resp, _) = d.handle_line(
            r#"{"op":"create","shard":"c","nodes":40,"seed":3,"channels":4294967297}"#,
        );
        assert_eq!(resp.get("kind").unwrap().as_str(), Some("bad_request"));
        // Rounds are capped at the estimator window; four billion would
        // wedge the shard thread, so they are refused at once.
        let (resp, _) = d.handle_line(r#"{"op":"observe","shard":"w","rounds":65}"#);
        assert_eq!(resp.get("kind").unwrap().as_str(), Some("bad_request"));
        let resp = d
            .submit(Request::parse(r#"{"op":"observe","shard":"w","rounds":4000000000}"#).unwrap())
            .recv_timeout(Duration::from_secs(60))
            .expect("shard must reply, not hang");
        assert_eq!(resp.get("kind").unwrap().as_str(), Some("bad_request"));
        let (resp, _) = d.handle_line(r#"{"op":"observe","shard":"w","rounds":64}"#);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn metrics_verb_speaks_prometheus() {
        Daemon::install_recorder();
        let d = Daemon::new(DaemonConfig::default());
        let (_, _) = d.handle_line(&create_line("m", 30));
        let (_, _) = d.handle_line(r#"{"op":"solve","shard":"m","deadline_ms":5}"#);
        let (resp, _) = d.handle_line(r#"{"op":"metrics"}"#);
        let body = resp.get("body").unwrap().as_str().unwrap();
        assert!(body.contains("serve_requests_total"), "{body}");
    }
}
