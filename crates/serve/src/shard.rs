//! Resident shards: one owner thread per topology, a bounded
//! oldest-deadline-first queue in front of it, and panic isolation
//! around every request.
//!
//! A shard owns everything a topology needs to be served warm: the
//! interned [`Topology`], its built conflict model, the incumbent
//! schedule, the schedule it serves, the assumed [`LinkQuality`], and the
//! [`LinkEstimator`] the closed loop feeds. Requests are handled strictly
//! on the owner thread, so none of that state needs locking.
//!
//! Every solve, churn and drift replan is one [`reschedule`] of the
//! incumbent against the accumulated deaths, on the budget the deadline
//! buys ([`rung`]). Before the first answer the incumbent is the empty
//! schedule, which makes that call a cold solve.
//!
//! Isolation contract: a panicking handler (a chaos-injected panic or a
//! genuine bug on one topology) is caught with `catch_unwind`, the
//! shard's state — including a possibly half-mutated incumbent — is
//! quarantined by rebuilding from the spec cold, the
//! `serve.shard_restarts` counter increments, and the caller gets
//! an explicit `"panic"` error. The daemon and its other shards never
//! notice. A cold build that panics leaves the shard answering every
//! request with a `"build_failed"` error.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mlbs_core::Schedule;
use wsn_anytime::{plan_repeats, reschedule, AnytimeConfig, ChurnDelta, RepairOutcome};
use wsn_dutycycle::AlwaysAwake;
use wsn_phy::{PhyModel, PhyModelSpec, SinrParams};
use wsn_sim::{simulate_acks, LinkEstimator};
use wsn_topology::deploy::SyntheticDeployment;
use wsn_topology::{LinkQuality, NodeId, Topology};

use crate::json::Json;
use crate::ladder::{rung, Tier};
use crate::proto::{self, Request};

/// Largest topology a `create` may ask for; 100k is the largest scale the
/// benches serve. This is a node cap, not a memory budget. A shard's
/// topology is CSR lists, `O(n + E)` bytes (tens of MB at 100k nodes), so
/// memory does not force this cap. But a failed allocation aborts the
/// daemon, which `catch_unwind` cannot contain, so `create` stays bounded
/// until a per-shard memory estimate checked against a daemon-wide budget
/// takes the cap's place.
pub const MAX_NODES: usize = 100_000;

/// Everything needed to (re)build a shard cold — kept by the worker so a
/// panic can quarantine-and-restart without the daemon's help.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    pub name: String,
    pub nodes: usize,
    pub seed: u64,
    /// `"paper"` or `"scaled"` synthetic deployment.
    pub deployment: String,
    /// `"protocol"` or `"sinr"`.
    pub model: String,
    pub channels: u32,
    /// ε for repeat planning after a quality replan (0 disables).
    pub epsilon: f64,
    /// Drift that triggers the closed-loop replan.
    pub drift_threshold: f64,
    /// Estimator evidence floor per link.
    pub min_samples: u32,
    /// Estimator window (attempts per link).
    pub window: u32,
}

impl ShardSpec {
    /// Validates a `create` request into a spec.
    pub fn from_create(
        name: &str,
        nodes: usize,
        seed: u64,
        deployment: &str,
        model: &str,
        channels: u32,
        epsilon: f64,
    ) -> Result<ShardSpec, String> {
        if !(2..=MAX_NODES).contains(&nodes) {
            return Err(format!("nodes must be in 2..={MAX_NODES}"));
        }
        if !matches!(deployment, "paper" | "scaled") {
            return Err(format!("unknown deployment {deployment:?}"));
        }
        if !matches!(model, "protocol" | "sinr") {
            return Err(format!("unknown model {model:?}"));
        }
        if channels == 0 || channels > 8 {
            return Err("channels must be in 1..=8".into());
        }
        if !(0.0..1.0).contains(&epsilon) {
            return Err("epsilon must be in [0, 1)".into());
        }
        Ok(ShardSpec {
            name: name.to_string(),
            nodes,
            seed,
            deployment: deployment.to_string(),
            model: model.to_string(),
            channels,
            epsilon,
            drift_threshold: 0.05,
            min_samples: 16,
            window: 64,
        })
    }
}

/// The per-topology state the owner thread mutates.
pub struct ShardState {
    pub topo: Topology,
    pub source: NodeId,
    pub model: PhyModel,
    /// The lossless, verified schedule every request warm-starts from;
    /// empty until the first answer.
    pub incumbent: Schedule,
    /// The schedule the shard serves: the incumbent, or its
    /// [`plan_repeats`] output after an ε replan. `None` until the first
    /// answer.
    pub current: Option<Schedule>,
    pub tier: Option<Tier>,
    pub assumed: LinkQuality,
    pub est: LinkEstimator,
    /// Accumulated churn deaths (masks every later repair).
    pub dead: Vec<NodeId>,
    base: AnytimeConfig,
    spec: ShardSpec,
}

impl ShardState {
    /// Builds the shard cold: sample the deployment, build the model,
    /// start with an empty incumbent and a unit link-quality assumption.
    pub fn build(spec: &ShardSpec) -> ShardState {
        let dep = if spec.deployment == "scaled" {
            SyntheticDeployment::scaled(spec.nodes)
        } else {
            SyntheticDeployment::paper(spec.nodes)
        };
        let (topo, source) = dep.sample(spec.seed);
        let phy_spec = if spec.model == "sinr" {
            PhyModelSpec::sinr(SinrParams::calibrated(topo.radius(), 3.0, 1.5))
        } else {
            PhyModelSpec::protocol()
        }
        .with_channels(spec.channels);
        let model = phy_spec.build(&topo);
        let assumed = LinkQuality::uniform(&topo, 1.0);
        let est = LinkEstimator::new(&topo, spec.window);
        let base = AnytimeConfig {
            seed: spec.seed,
            ..AnytimeConfig::default()
        };
        ShardState {
            source,
            model,
            incumbent: Schedule {
                source,
                start: base.start_from,
                entries: Vec::new(),
                repeats: Vec::new(),
            },
            current: None,
            tier: None,
            assumed,
            est,
            dead: Vec::new(),
            base,
            spec: spec.clone(),
            topo,
        }
    }

    fn schedule_reply(&self, extra: Vec<(&str, Json)>) -> Json {
        let s = self.current.as_ref().expect("reply requires a schedule");
        let mut pairs = vec![
            ("ok", Json::Bool(true)),
            ("shard", Json::str(self.spec.name.clone())),
            ("latency", Json::num(s.latency() as f64)),
            ("slots", Json::num(s.entries.len() as f64)),
            ("tier", Json::str(self.tier.map_or("greedy", Tier::label))),
            ("verified", Json::Bool(true)),
        ];
        pairs.extend(extra);
        Json::obj(pairs)
    }

    /// Repairs the incumbent against the accumulated deaths and
    /// `degraded_links` on the rung the deadline buys, verifies the result
    /// over the surviving subgraph, and installs it as both the incumbent
    /// and the served schedule.
    fn repair(
        &mut self,
        degraded_links: Vec<(NodeId, NodeId, f64)>,
        deadline_ms: u64,
        remaining_ms: u64,
    ) -> RepairOutcome {
        let (tier, cfg) = rung(&self.base, deadline_ms, remaining_ms);
        let delta = ChurnDelta {
            dead: self.dead.clone(),
            degraded_links,
        };
        let rep = reschedule(
            &self.topo,
            self.source,
            &AlwaysAwake,
            &self.model,
            &self.incumbent,
            &delta,
            &cfg,
        );
        // A verification failure panics; the isolation layer turns that
        // into a cold restart, never a silently-invalid answer.
        rep.outcome
            .schedule
            .verify_covering_with_model(&self.topo, &AlwaysAwake, &self.model, Some(&rep.mask))
            .expect("ladder produced an invalid schedule");
        wsn_obs::counter_add(tier.counter(), 1);
        self.incumbent = rep.outcome.schedule.clone();
        self.current = Some(rep.outcome.schedule.clone());
        self.tier = Some(tier);
        rep
    }

    /// [`Self::repair`] timed into `serve.reschedule_us`, replying with
    /// the reuse footprint.
    fn repair_reply(
        &mut self,
        degraded_links: Vec<(NodeId, NodeId, f64)>,
        deadline_ms: u64,
        remaining_ms: u64,
        mut extra: Vec<(&'static str, Json)>,
    ) -> Json {
        let started = Instant::now();
        let rep = self.repair(degraded_links, deadline_ms, remaining_ms);
        wsn_obs::observe_us("serve.reschedule_us", started.elapsed().as_micros() as u64);
        extra.push(("reused", Json::num(rep.reused as f64)));
        extra.push(("stranded", Json::num(rep.stranded as f64)));
        extra.push(("uncovered", Json::num(rep.uncovered.len() as f64)));
        self.schedule_reply(extra)
    }

    /// Solve (or re-solve) under the ladder. On a churned shard the reply
    /// reports the repair against the accumulated dead set; on an intact
    /// one it reports whether the search proved the schedule optimal.
    fn handle_solve(&mut self, deadline_ms: u64, remaining_ms: u64) -> Json {
        if !self.dead.is_empty() {
            return self.repair_reply(Vec::new(), deadline_ms, remaining_ms, Vec::new());
        }
        let rep = self.repair(Vec::new(), deadline_ms, remaining_ms);
        self.schedule_reply(vec![(
            "proved_optimal",
            Json::Bool(rep.outcome.proved_optimal),
        )])
    }

    fn handle_churn(&mut self, dead: &[NodeId], deadline_ms: u64, remaining_ms: u64) -> Json {
        if dead.contains(&self.source) {
            return proto::err(
                "source_dead",
                "the broadcast source died; recreate the shard with a new source",
                vec![],
            );
        }
        if dead.iter().any(|d| d.idx() >= self.topo.len()) {
            return proto::err("bad_request", "dead node id out of range", vec![]);
        }
        for &d in dead {
            if !self.dead.contains(&d) {
                self.dead.push(d);
            }
        }
        self.repair_reply(
            Vec::new(),
            deadline_ms,
            remaining_ms,
            vec![("dead_total", Json::num(self.dead.len() as f64))],
        )
    }

    /// The closed estimator loop: feed the simulated ACK stream, check
    /// drift, and on a trigger repair with the quality delta (plus any
    /// accumulated deaths) instead of re-planning from scratch.
    fn handle_observe(
        &mut self,
        truth_p: f64,
        links: &[(NodeId, NodeId, f64)],
        rounds: u32,
        seed: u64,
        deadline_ms: u64,
        remaining_ms: u64,
    ) -> Json {
        // `simulate_acks` draws once per round, transmission and neighbour,
        // so an unbounded round count would wedge the owner thread.
        if rounds > self.spec.window {
            return proto::err(
                "bad_request",
                &format!(
                    "rounds must be at most the estimator window ({})",
                    self.spec.window
                ),
                vec![],
            );
        }
        // The ACK stream needs a served schedule: greedy-solve one when
        // the very first request is an observe.
        if self.current.is_none() {
            self.repair(Vec::new(), 0, 0);
        }
        let mut truth = LinkQuality::uniform(&self.topo, truth_p.clamp(0.0, 1.0));
        for &(u, v, p) in links {
            if u.idx() < self.topo.len() && self.topo.neighbors(u).contains(&v) {
                truth.set_delivery(&self.topo, u, v, p.clamp(0.0, 1.0));
            }
        }
        let current = self.current.as_ref().expect("solved above");
        simulate_acks(&self.topo, current, &truth, &mut self.est, rounds, seed);
        let drift = self
            .est
            .drift(&self.topo, &self.assumed, self.spec.min_samples);
        if drift < self.spec.drift_threshold {
            return Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("shard", Json::str(self.spec.name.clone())),
                ("drift", Json::num(drift)),
                ("replanned", Json::Bool(false)),
            ]);
        }
        let quality = self
            .est
            .to_quality(&self.topo, &self.assumed, self.spec.min_samples);
        let degraded = self
            .assumed
            .moved_links(&self.topo, &quality, self.spec.drift_threshold);
        let degraded_links = degraded.len();
        wsn_obs::counter_add("serve.replans", 1);
        let reply = self.repair_reply(
            degraded,
            deadline_ms,
            remaining_ms,
            vec![
                ("drift", Json::num(drift)),
                ("replanned", Json::Bool(true)),
                ("degraded_links", Json::num(degraded_links as f64)),
            ],
        );
        // Re-plan repeat provisioning against the fused estimate (only on
        // an intact topology — repeat bounds assume full coverage).
        if self.spec.epsilon > 0.0 && self.dead.is_empty() {
            let planned = plan_repeats(
                &self.incumbent,
                &self.topo,
                &AlwaysAwake,
                &self.model,
                &quality,
                self.spec.epsilon,
            );
            planned
                .verify_with_model(&self.topo, &AlwaysAwake, &self.model)
                .expect("repeat planning broke a verified schedule");
            self.current = Some(planned);
        }
        self.assumed = quality;
        reply
    }

    fn handle_query(&self) -> Json {
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("shard", Json::str(self.spec.name.clone())),
            ("nodes", Json::num(self.topo.len() as f64)),
            ("dead", Json::num(self.dead.len() as f64)),
            (
                "latency",
                self.current
                    .as_ref()
                    .map_or(Json::Null, |s| Json::num(s.latency() as f64)),
            ),
            (
                "tier",
                self.tier.map_or(Json::Null, |t| Json::str(t.label())),
            ),
        ])
    }

    /// Dispatches one request on the owner thread.
    pub fn handle(&mut self, req: &Request, remaining_ms: u64) -> Json {
        match req {
            Request::Solve { deadline_ms, .. } => self.handle_solve(*deadline_ms, remaining_ms),
            Request::Churn {
                dead, deadline_ms, ..
            } => self.handle_churn(dead, *deadline_ms, remaining_ms),
            Request::Observe {
                truth,
                links,
                rounds,
                seed,
                deadline_ms,
                ..
            } => self.handle_observe(*truth, links, *rounds, *seed, *deadline_ms, remaining_ms),
            Request::Query { .. } => self.handle_query(),
            Request::ChaosPanic { .. } => panic!("injected chaos panic"),
            _ => proto::err("bad_request", "request not routable to a shard", vec![]),
        }
    }
}

/// One queued request with its absolute deadline and reply channel.
pub struct Job {
    pub req: Request,
    pub deadline: Instant,
    pub reply: Sender<Json>,
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError {
    /// Queue at capacity — shed, with a backoff hint in ms.
    Overloaded { retry_after_ms: u64 },
    /// Daemon shutting down.
    Closed,
}

struct QueueInner {
    jobs: Vec<Job>,
    closed: bool,
}

/// Bounded oldest-deadline-first queue with a service-time EWMA that
/// prices the retry-after hint.
pub struct DeadlineQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    cap: usize,
    /// EWMA of request service time, microseconds (atomic so the
    /// admission path reads it without the lock).
    ewma_us: AtomicU64,
}

impl DeadlineQueue {
    pub fn new(cap: usize) -> Arc<DeadlineQueue> {
        Arc::new(DeadlineQueue {
            inner: Mutex::new(QueueInner {
                jobs: Vec::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
            ewma_us: AtomicU64::new(0),
        })
    }

    /// Admission control: refuses beyond `cap` with a backoff hint sized
    /// to the backlog (`(depth + 1) × service EWMA`).
    pub fn push(&self, job: Job) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.jobs.len() >= self.cap {
            let est_us = self.ewma_us.load(Ordering::Relaxed).max(1_000);
            let retry_after_ms =
                (est_us.saturating_mul(inner.jobs.len() as u64 + 1) / 1_000).max(1);
            return Err(PushError::Overloaded { retry_after_ms });
        }
        inner.jobs.push(job);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the job with the earliest deadline; `None` once closed
    /// and drained.
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(best) = (0..inner.jobs.len()).min_by_key(|&i| inner.jobs[i].deadline) {
                return Some(inner.jobs.swap_remove(best));
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn note_service_us(&self, us: u64) {
        let prev = self.ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            us
        } else {
            prev - prev / 8 + us / 8
        };
        self.ewma_us.store(next, Ordering::Relaxed);
    }
}

/// A running shard: its admission queue and owner thread.
pub struct ShardHandle {
    pub queue: Arc<DeadlineQueue>,
    pub join: JoinHandle<()>,
}

/// Spawns the owner thread: build cold, then serve jobs oldest-deadline
/// first with panic isolation (see module docs). The cold build runs
/// inside the isolation boundary too: if it panics (no deployment exists
/// for the spec), the thread stays up and answers every job with an
/// explicit `build_failed` error instead of leaving callers blocked.
pub fn spawn_shard(spec: ShardSpec, queue_cap: usize) -> ShardHandle {
    let queue = DeadlineQueue::new(queue_cap);
    let q = Arc::clone(&queue);
    let join = std::thread::Builder::new()
        .name(format!("shard-{}", spec.name))
        .spawn(move || {
            let build = || catch_unwind(|| ShardState::build(&spec)).ok();
            let mut state = build();
            while let Some(job) = q.pop() {
                let started = Instant::now();
                wsn_obs::gauge_set("serve.queue_depth", q.len() as i64);
                let remaining_ms =
                    job.deadline.saturating_duration_since(started).as_millis() as u64;
                let outcome = state
                    .as_mut()
                    .map(|st| catch_unwind(AssertUnwindSafe(|| st.handle(&job.req, remaining_ms))));
                let resp = match outcome {
                    Some(Ok(resp)) => resp,
                    Some(Err(_)) => {
                        wsn_obs::counter_add("serve.shard_restarts", 1);
                        // Quarantine: the old state (and any half-mutated
                        // incumbent) is dropped wholesale; rebuild cold.
                        state = build();
                        proto::err(
                            "panic",
                            "shard worker panicked; restarted cold",
                            vec![("restarted", Json::Bool(true))],
                        )
                    }
                    None => proto::err(
                        "build_failed",
                        &format!(
                            "shard {:?} could not be built from its create spec",
                            spec.name
                        ),
                        vec![],
                    ),
                };
                let us = started.elapsed().as_micros() as u64;
                q.note_service_us(us);
                wsn_obs::observe_us("serve.request_us", us);
                let _ = job.reply.send(resp);
            }
        })
        .expect("spawn shard thread");
    ShardHandle { queue, join }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn spec(n: usize) -> ShardSpec {
        ShardSpec::from_create("t", n, 7, "paper", "protocol", 1, 0.0).unwrap()
    }

    #[test]
    fn create_rejects_node_counts_that_would_exhaust_memory() {
        let create = |n| ShardSpec::from_create("t", n, 7, "scaled", "protocol", 1, 0.0);
        assert!(create(1).is_err());
        assert!(create(100_000).is_ok());
        assert!(create(100_001).is_err());
        assert!(create(1_000_000).is_err());
    }

    #[test]
    fn queue_orders_by_deadline_and_sheds_beyond_cap() {
        let q = DeadlineQueue::new(2);
        let now = Instant::now();
        let (tx, _rx) = mpsc::channel();
        let mk = |ms: u64| Job {
            req: Request::Query { shard: "t".into() },
            deadline: now + Duration::from_millis(ms),
            reply: tx.clone(),
        };
        q.push(mk(50)).unwrap();
        q.push(mk(10)).unwrap();
        match q.push(mk(5)) {
            Err(PushError::Overloaded { retry_after_ms }) => assert!(retry_after_ms >= 1),
            other => panic!("expected shed, got {other:?}"),
        }
        // Oldest deadline first, regardless of arrival order.
        assert_eq!(q.pop().unwrap().deadline, now + Duration::from_millis(10));
        assert_eq!(q.pop().unwrap().deadline, now + Duration::from_millis(50));
        q.close();
        assert!(q.pop().is_none());
        assert_eq!(
            q.push(mk(1)),
            Err(PushError::Closed),
            "closed queue admits nothing"
        );
    }

    #[test]
    fn shard_survives_an_injected_panic_and_serves_again() {
        let h = spawn_shard(spec(60), 8);
        let ask = |req: Request| {
            let (tx, rx) = mpsc::channel();
            h.queue
                .push(Job {
                    req,
                    deadline: Instant::now() + Duration::from_millis(200),
                    reply: tx,
                })
                .unwrap();
            rx.recv_timeout(Duration::from_secs(60)).unwrap()
        };
        let ok = ask(Request::Solve {
            shard: "t".into(),
            deadline_ms: 20,
        });
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        let boom = ask(Request::ChaosPanic { shard: "t".into() });
        assert_eq!(boom.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(boom.get("kind").unwrap().as_str(), Some("panic"));
        // Cold restart: the shard still answers, with no incumbent yet.
        let again = ask(Request::Query { shard: "t".into() });
        assert_eq!(again.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(again.get("latency"), Some(&Json::Null));
        h.queue.close();
        h.join.join().unwrap();
    }

    fn observe(st: &mut ShardState, truth: f64) -> Json {
        st.handle(
            &Request::Observe {
                shard: "t".into(),
                truth,
                links: Vec::new(),
                rounds: 40,
                seed: 11,
                deadline_ms: 0,
            },
            0,
        )
    }

    #[test]
    fn drift_replan_repairs_the_incumbent_and_replans_repeats() {
        let eps = 0.05;
        let spec = ShardSpec::from_create("t", 150, 10, "paper", "protocol", 1, eps).unwrap();
        let mut st = ShardState::build(&spec);
        // A clean link stream stays under the trigger: nothing runs, and
        // neither the incumbent nor the assumed quality moves.
        let quiet = observe(&mut st, 1.0);
        assert_eq!(quiet.get("replanned").unwrap().as_bool(), Some(false));
        let before = st.current.clone().unwrap();
        let quiet = observe(&mut st, 1.0);
        assert_eq!(quiet.get("replanned").unwrap().as_bool(), Some(false));
        let after = st.current.as_ref().unwrap();
        assert_eq!(after.entries, before.entries);
        assert_eq!(after.repeats, before.repeats);
        assert!(st.assumed.is_uniform(1.0));
        // 1.0 → 0.8 crosses the 0.05 trigger: the incumbent is repaired
        // and its repeats re-planned against the measured quality.
        let loud = observe(&mut st, 0.8);
        assert_eq!(loud.get("replanned").unwrap().as_bool(), Some(true));
        assert!(loud.get("drift").unwrap().as_f64().unwrap() > 0.05);
        assert!(loud.get("degraded_links").unwrap().as_u64().unwrap() > 0);
        assert!(!st.assumed.is_uniform(1.0));
        st.current
            .as_ref()
            .unwrap()
            .verify_reliability(&st.topo, &AlwaysAwake, &st.model, &st.assumed, eps)
            .unwrap();
    }

    #[test]
    fn warm_rung_never_loses_to_the_incumbent() {
        let spec = ShardSpec::from_create("t", 150, 9, "paper", "protocol", 1, 0.0).unwrap();
        let mut st = ShardState::build(&spec);
        // Seed the incumbent with a strong solve, then ask for a warm
        // answer: a warm start from it cannot come back worse.
        let good = AnytimeConfig {
            budget: wsn_anytime::Budget::Iterations(20_000),
            ..AnytimeConfig::default()
        };
        let strong =
            wsn_anytime::solve_anytime(&st.topo, st.source, &AlwaysAwake, &st.model, &good);
        st.incumbent = strong.schedule;
        let warm = st.handle(
            &Request::Solve {
                shard: "t".into(),
                deadline_ms: crate::ladder::WARM_MS,
            },
            crate::ladder::WARM_MS,
        );
        assert_eq!(warm.get("tier").unwrap().as_str(), Some("warm"));
        assert!(warm.get("latency").unwrap().as_u64().unwrap() <= strong.latency);
        // An intact-shard solve replies like a ladder solve, not a repair.
        assert!(warm.get("proved_optimal").is_some());
        assert!(warm.get("reused").is_none());
    }

    #[test]
    fn solve_after_an_epsilon_replan_starts_from_the_lossless_incumbent() {
        let eps = 0.05;
        let spec = ShardSpec::from_create("t", 150, 10, "paper", "protocol", 1, eps).unwrap();
        let mut st = ShardState::build(&spec);
        observe(&mut st, 1.0);
        let loud = observe(&mut st, 0.8);
        assert_eq!(loud.get("replanned").unwrap().as_bool(), Some(true));
        // The replan serves a repeat-timed schedule but keeps the lossless
        // one as the incumbent.
        let lossless = st.incumbent.clone();
        let served = st.current.clone().unwrap();
        assert!(lossless.repeats.is_empty());
        assert!(!served.repeats.is_empty());
        assert!(served.latency() > lossless.latency());
        // A zero-budget solve replays the incumbent's placements, so it
        // answers with the lossless latency, not the repeat-timed one.
        let r = st.handle(
            &Request::Solve {
                shard: "t".into(),
                deadline_ms: 0,
            },
            0,
        );
        assert_eq!(r.get("tier").unwrap().as_str(), Some("greedy"));
        assert_eq!(r.get("latency").unwrap().as_u64(), Some(lossless.latency()));
        assert_eq!(st.incumbent.entries, lossless.entries);
        assert_eq!(st.current.as_ref().unwrap().entries, lossless.entries);
    }

    #[test]
    fn churn_then_solve_stays_masked() {
        let mut st = ShardState::build(&spec(80));
        let r = st.handle(
            &Request::Churn {
                shard: "t".into(),
                dead: vec![NodeId(3), NodeId(11)],
                deadline_ms: 20,
            },
            20,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("verified").unwrap().as_bool(), Some(true));
        // A later plain solve must keep honouring the accumulated deaths:
        // no dead node may appear as a sender.
        let r2 = st.handle(
            &Request::Solve {
                shard: "t".into(),
                deadline_ms: 15,
            },
            15,
        );
        assert_eq!(r2.get("ok").unwrap().as_bool(), Some(true));
        let s = st.current.as_ref().unwrap();
        for e in &s.entries {
            assert!(!e.senders.contains(&NodeId(3)));
            assert!(!e.senders.contains(&NodeId(11)));
        }
        // Killing the source is refused, not served.
        let refuse = st.handle(
            &Request::Churn {
                shard: "t".into(),
                dead: vec![st.source],
                deadline_ms: 20,
            },
            20,
        );
        assert_eq!(refuse.get("kind").unwrap().as_str(), Some("source_dead"));
    }
}
