//! `serve-10k`: an open loop at a fixed arrival rate against the
//! in-process `Daemon` with two resident 10k-node shards. One generator
//! thread sends each request when it is due, as jsonl through
//! `Request::parse`; a reply thread per request timestamps the reply and
//! encodes it. Every reply time runs from when the request was due.
//!
//! The mix holds solves at the four rung deadlines, churn with a few
//! non-source deaths (chosen so the survivors stay connected) and observe
//! requests whose alternating link truth makes the estimator replan. Each
//! solve and observe class alternates between the two shards; churn goes
//! to shard `a` only. The daemon answers every solve on a churned shard
//! with a repair against its dead set (its portfolio rung there is a serial
//! wall-clock repair, not a race), so after `a`'s first churn its solves
//! are repairs, while `b` stays intact and runs the ladder proper: warm
//! starts from its `ScheduleCache` and real portfolio races. Both shards
//! repair on drift replans.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsn_anytime::{solve_anytime, AnytimeConfig, Budget};
use wsn_bitset::NodeSet;
use wsn_dutycycle::AlwaysAwake;
use wsn_obs::Recorder;
use wsn_phy::ProtocolModel;
use wsn_serve::{Daemon, DaemonConfig, Json, Request};
use wsn_topology::deploy::SyntheticDeployment;
use wsn_topology::metrics::{self, UNREACHABLE};
use wsn_topology::{NodeId, Topology};

use crate::stats::{mean, median, ms_since, quantile};
use crate::{trace, Args, Outcome};

const NODES: usize = 10_000;
/// Shard names and their pinned deployment seeds.
const SHARDS: [(&str, u64); 2] = [("a", 21), ("b", 22)];
/// The shard that takes every churn; the other one stays intact.
const CHURNED: usize = 0;
/// Offered load. The shard workers are busy about a third of the time at
/// this rate (summed service time over the window, per shard), so the
/// queues stay short: at about half the capacity the run-to-run spread of
/// the solve median was 8–26% on a two-core host, because a portfolio race
/// holds both cores and queueing amplifies every slowdown.
const RATE_PER_S: f64 = 12.0;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Deaths per churn request.
const DEATHS: usize = 3;
/// The churn victims are pinned like the deployments: every later solve
/// on the churned shard repairs around the dead set, so its cost depends
/// on which nodes died.
const VICTIM_SEED: u64 = 0xDEAD;
/// How long to wait for outstanding replies after the window closes.
const DRAIN: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Greedy,
    Warm,
    Serial,
    Portfolio,
    Churn,
    Observe,
}

/// Every class, in the order of `Class`'s discriminants.
const CLASSES: [(Class, &str); 6] = [
    (Class::Greedy, "greedy"),
    (Class::Warm, "warm"),
    (Class::Serial, "serial"),
    (Class::Portfolio, "portfolio"),
    (Class::Churn, "churn"),
    (Class::Observe, "observe"),
];

/// One block of the mix, repeated: four greedy, six warm, four serial
/// and one portfolio solve, three churns and two observes. Warm and serial
/// solves take about the same time and make up the middle two thirds of
/// the solves, so the solve median sits inside that cluster rather than
/// between two rungs. The order is fixed so that every run offers the same
/// queueing pattern; the seed picks where in the block the stream starts
/// and draws the observe ACK streams.
const BLOCK: [Class; 20] = {
    use Class::*;
    [
        Greedy, Warm, Serial, Warm, Churn, Greedy, Portfolio, Warm, Observe, Serial, Greedy, Warm,
        Churn, Warm, Serial, Greedy, Serial, Warm, Churn, Observe,
    ]
};

fn is_solve(c: Class) -> bool {
    matches!(
        c,
        Class::Greedy | Class::Warm | Class::Serial | Class::Portfolio
    )
}

/// A request of the generated stream.
struct Req {
    shard: usize,
    class: Class,
    deadline_ms: u64,
    fields: Vec<(&'static str, Json)>,
}

/// A shard's deployment as the generator tracks it.
struct ShardInput {
    topo: Topology,
    source: NodeId,
    /// Full-graph hop distances from the source.
    hops: Vec<u32>,
    dead: NodeSet,
    victims: StdRng,
}

impl ShardInput {
    /// Picks `DEATHS` new non-source victims whose deaths leave every
    /// surviving node reachable from the source.
    fn kill(&mut self) -> Vec<Json> {
        let mut victims = Vec::new();
        while victims.len() < DEATHS {
            let v = self.victims.random_range(0..NODES as u32) as usize;
            if v == self.source.idx() || !self.dead.insert(v) {
                continue;
            }
            let dist = metrics::bfs_hops_masked(&self.topo, self.source, &self.dead);
            if (0..NODES).all(|u| dist[u] != UNREACHABLE || self.dead.contains(u)) {
                victims.push(Json::num(v as f64));
            } else {
                self.dead.remove(v);
            }
        }
        victims
    }

    /// A lower bound on the latency of every schedule the shard returns:
    /// the largest full-graph hop distance to a node still alive at the
    /// stream's end. (Distances over the final surviving graph are no
    /// bound for replies served before the last deaths.)
    fn bound(&self) -> u64 {
        (0..NODES)
            .filter(|&v| !self.dead.contains(v))
            .map(|v| u64::from(self.hops[v]))
            .max()
            .unwrap_or(0)
    }
}

/// Layer figures measured while generating the stream.
#[derive(Default)]
struct GenLayers {
    sample_ms: Vec<f64>,
    edges: Vec<f64>,
    bytes_per_node: Vec<f64>,
    greedy_ms: Vec<f64>,
    verify_ms: Vec<f64>,
}

/// Builds the request stream for `seconds` of arrivals from `seed`, and
/// each shard's lower bound on every reply's latency. With `layers`, also
/// times the deployment sampling and probes the greedy seed.
fn generate(seed: u64, seconds: f64, mut layers: Option<&mut GenLayers>) -> (Vec<Req>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = (seconds * RATE_PER_S).ceil() as usize;
    let phase = rng.random_range(0..BLOCK.len());
    let classes: Vec<Class> = BLOCK
        .iter()
        .copied()
        .cycle()
        .skip(phase)
        .take(total)
        .collect();

    let mut shards = Vec::new();
    for &(_, dep_seed) in &SHARDS {
        let t = Instant::now();
        let ((topo, source), bytes) = crate::alloc::measure_peak(|| {
            let _s = trace::span("topology.sample");
            SyntheticDeployment::scaled(NODES).sample(dep_seed)
        });
        if let Some(layers) = layers.as_deref_mut() {
            layers.sample_ms.push(ms_since(t));
            layers.edges.push(topo.csr().edge_count() as f64);
            layers.bytes_per_node.push(bytes as f64 / NODES as f64);
            let cfg = AnytimeConfig {
                budget: Budget::Iterations(0),
                seed: dep_seed,
                ..AnytimeConfig::default()
            };
            let t = Instant::now();
            let greedy = {
                let _s = trace::span("anytime.greedy");
                solve_anytime(&topo, source, &AlwaysAwake, &ProtocolModel, &cfg)
            };
            layers.greedy_ms.push(ms_since(t));
            let t = Instant::now();
            {
                let _s = trace::span("core.verify");
                greedy
                    .schedule
                    .verify_with_model(&topo, &AlwaysAwake, &ProtocolModel)
                    .expect("greedy schedule verifies");
            }
            layers.verify_ms.push(ms_since(t));
        }
        shards.push(ShardInput {
            hops: metrics::bfs_hops(&topo, source),
            topo,
            source,
            dead: NodeSet::new(NODES),
            victims: StdRng::seed_from_u64(dep_seed ^ VICTIM_SEED),
        });
    }

    // How many requests of each class came before: a class's consecutive
    // requests alternate between the shards.
    let mut turn = [0usize; CLASSES.len()];
    let mut reqs: Vec<Req> = Vec::with_capacity(total);
    for &class in &classes {
        let nth = turn[class as usize];
        turn[class as usize] += 1;
        let shard = if class == Class::Churn {
            CHURNED
        } else {
            nth % SHARDS.len()
        };
        let name = Json::str(SHARDS[shard].0);
        let (deadline_ms, mut fields) = match class {
            Class::Greedy | Class::Warm | Class::Serial | Class::Portfolio => {
                let d = match class {
                    Class::Greedy => 5,
                    Class::Warm => 15,
                    Class::Serial => 60,
                    _ => 250,
                };
                (d, vec![("op", Json::str("solve")), ("shard", name)])
            }
            Class::Churn => (
                if nth % 2 == 0 { 15 } else { 60 },
                vec![
                    ("op", Json::str("churn")),
                    ("shard", name),
                    ("dead", Json::Arr(shards[shard].kill())),
                ],
            ),
            Class::Observe => {
                // Each shard's observes alternate between a degraded and a
                // healthy link truth.
                let truth = if (nth / SHARDS.len()).is_multiple_of(2) {
                    0.6
                } else {
                    0.95
                };
                (
                    15,
                    vec![
                        ("op", Json::str("observe")),
                        ("shard", name),
                        ("truth", Json::num(truth)),
                        ("rounds", Json::num(40.0)),
                        ("seed", Json::num(rng.random_range(1..1_000_000u32) as f64)),
                    ],
                )
            }
        };
        fields.push(("deadline_ms", Json::num(deadline_ms as f64)));
        reqs.push(Req {
            shard,
            class,
            deadline_ms,
            fields,
        });
    }
    (reqs, shards.iter().map(ShardInput::bound).collect())
}

/// How long each client-side step of a request took.
struct Timing {
    /// From due to the reply's arrival.
    reply_ms: f64,
    /// How late the generator sent it.
    lag_ms: f64,
    parse_us: f64,
    /// Encoding the reply.
    encode_us: f64,
}

/// One reply as the client saw it.
struct Reply {
    class: Class,
    t: Timing,
    /// `ok:true` (and, with a schedule, `verified:true`).
    ok: bool,
    /// `ok` and back by the deadline.
    on_time: bool,
    latency: Option<u64>,
    /// The schedule is a repair of the shard's incumbent.
    repair: bool,
    replanned: bool,
    /// A reply that breaks the protocol: a schedule without
    /// `verified:true`, or a failure without a `kind`.
    malformed: Option<String>,
}

impl Reply {
    /// Reads a reply; `None` means the reply channel closed unanswered,
    /// which counts as a failure, not a protocol break.
    fn read(got: Option<Json>, class: Class, deadline_ms: u64, t: Timing) -> Reply {
        let v = got.unwrap_or(Json::Null);
        let flag = |k: &str| v.get(k).and_then(Json::as_bool) == Some(true);
        let latency = v.get("latency").and_then(Json::as_u64);
        let ok = flag("ok");
        let malformed = if ok && latency.is_some() && !flag("verified") {
            Some(format!("schedule reply without verified:true: {v}"))
        } else if !ok && v != Json::Null && v.get("kind").and_then(Json::as_str).is_none() {
            Some(format!("failure without a kind: {v}"))
        } else {
            None
        };
        let ok = ok && malformed.is_none();
        Reply {
            class,
            on_time: ok && t.reply_ms <= deadline_ms as f64,
            t,
            ok,
            latency: if ok { latency } else { None },
            repair: v.get("reused").is_some(),
            replanned: flag("replanned"),
            malformed,
        }
    }
}

/// Creates every shard and waits for each one's first reply (the cold
/// build). Returns the seconds it took.
fn create_shards(daemon: &Daemon) -> f64 {
    let _s = trace::span("serve.setup");
    let t = Instant::now();
    for &(name, seed) in &SHARDS {
        let create = Json::obj(vec![
            ("op", Json::str("create")),
            ("shard", Json::str(name)),
            ("nodes", Json::num(NODES as f64)),
            ("seed", Json::num(seed as f64)),
            ("deployment", Json::str("scaled")),
        ]);
        let query = Json::obj(vec![("op", Json::str("query")), ("shard", Json::str(name))]);
        for line in [create, query] {
            let reply = daemon.handle(Request::parse(&line.to_string()).expect("set-up parses"));
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "{line}: {reply}"
            );
        }
    }
    t.elapsed().as_secs_f64()
}

/// Runs `reqs` open-loop against `daemon`, the first one due at once.
/// `first_id` is the stream index of `reqs[0]`; request ids (which tag
/// the spans) continue from it. Returns the replies in order (`None`
/// where no reply came).
fn drive(daemon: &Daemon, reqs: &[Req], first_id: usize) -> Vec<Option<Reply>> {
    let (tx, rx) = channel::<(usize, Reply)>();
    let mut replies: Vec<Option<Reply>> = (0..reqs.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        s.spawn(|| {
            let start = Instant::now();
            for (i, req) in reqs.iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 / RATE_PER_S);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let id = (first_id + i) as u64 + 1;
                let root = trace::span_id("serve.request", id);
                let lag_ms = due.elapsed().as_secs_f64() * 1e3;
                let line = {
                    let _s = trace::span_id("serve.encode_request", id);
                    Json::obj(req.fields.clone()).to_string()
                };
                let t = Instant::now();
                let parsed = {
                    let _s = trace::span_id("serve.parse", id);
                    Request::parse(&line).expect("generated requests parse")
                };
                let parse_us = t.elapsed().as_secs_f64() * 1e6;
                let reply_rx = {
                    let _s = trace::span_id("serve.submit", id);
                    daemon.submit(parsed)
                };
                let tx = tx.clone();
                let (class, deadline_ms) = (req.class, req.deadline_ms);
                s.spawn(move || {
                    let got = reply_rx.recv();
                    let reply_ms = due.elapsed().as_secs_f64() * 1e3;
                    let t = Instant::now();
                    if let Ok(v) = &got {
                        let _s = trace::span_id("serve.encode", id);
                        std::hint::black_box(v.to_string());
                    }
                    let encode_us = t.elapsed().as_secs_f64() * 1e6;
                    drop(root);
                    let timing = Timing {
                        reply_ms,
                        lag_ms,
                        parse_us,
                        encode_us,
                    };
                    let _ = tx.send((i, Reply::read(got.ok(), class, deadline_ms, timing)));
                });
            }
        });
        let mut received = 0;
        while received < reqs.len() {
            match rx.recv_timeout(DRAIN + Duration::from_secs_f64(reqs.len() as f64 / RATE_PER_S)) {
                Ok((i, r)) => {
                    replies[i] = Some(r);
                    received += 1;
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    });
    replies
}

/// The client-side tallies of a pass.
#[derive(Default)]
struct Tally {
    replies: Vec<Reply>,
    missing: usize,
}

impl Tally {
    /// Runs the correctness gate on `got` and adds it to the tally.
    fn add(&mut self, reqs: &[Req], bounds: &[u64], got: Vec<Option<Reply>>, out: &mut Outcome) {
        out.attempted += reqs.len() as u64;
        for (req, r) in reqs.iter().zip(got) {
            let Some(r) = r else {
                self.missing += 1;
                out.failed += 1;
                continue;
            };
            let shard = SHARDS[req.shard].0;
            if let Some(m) = &r.malformed {
                out.violations.push(format!("shard {shard}: {m}"));
            }
            if let Some(l) = r.latency {
                if l < bounds[req.shard] {
                    out.violations.push(format!(
                        "shard {shard}: latency {l} below the BFS-depth bound {}",
                        bounds[req.shard]
                    ));
                }
            }
            out.failed += u64::from(!r.ok);
            self.replies.push(r);
        }
    }

    fn reply_ms(&self, keep: impl Fn(&Reply) -> bool) -> Vec<f64> {
        self.replies
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.t.reply_ms)
            .collect()
    }
}

/// The untraced pass: sets the shards up `SETUP_REPS` times, each on a
/// fresh daemon, then drives the whole stream against the last one. A
/// fresh daemon recorder is installed for the stream, so its figures cover
/// the stream alone.
fn pass(reqs: &[Req], bounds: &[u64], out: &mut Outcome) -> (Tally, Vec<f64>, Recorder) {
    let mut setup = Vec::new();
    let mut daemon = Daemon::new(DaemonConfig::default());
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            daemon.shutdown();
            daemon = Daemon::new(DaemonConfig::default());
        }
        setup.push(create_shards(&daemon));
    }
    let rec = Recorder::new();
    wsn_obs::install(rec.clone());
    let got = drive(&daemon, reqs, 0);
    daemon.shutdown();
    let mut tally = Tally::default();
    tally.add(reqs, bounds, got, out);
    (tally, setup, rec)
}

/// What the traced-run check measures.
struct Check {
    /// Reply times of the untraced blocks, in stream order.
    plain_ms: Vec<f64>,
    /// Summed reply times of the traced blocks.
    traced_ms: f64,
    table: trace::Table,
    probe: GenLayers,
}

/// The traced-run check: the stream again, one block at a time, untraced
/// on one daemon and traced on another, back to back and taking turns
/// going first, so that both see the host in the same state. Both daemons
/// get the same requests and so go through the same states. The blocks'
/// replies pass the same gate as the untraced pass.
fn check_pass(args: &Args, rec: &Recorder, out: &mut Outcome) -> Check {
    let daemon_rec = Recorder::new();
    wsn_obs::install(daemon_rec.clone());
    let plain = Daemon::new(DaemonConfig::default());
    create_shards(&plain);

    trace::on(rec);
    let mut probe = GenLayers::default();
    let (reqs, bounds) = generate(args.seed, args.seconds, Some(&mut probe));
    let traced = Daemon::new(DaemonConfig::default());
    create_shards(&traced);
    trace::off();
    wsn_obs::install(daemon_rec.clone());

    let (mut plain_tally, mut traced_tally) = (Tally::default(), Tally::default());
    for (k, block) in reqs.chunks(BLOCK.len()).enumerate() {
        let first = k * BLOCK.len();
        for traced_turn in [k % 2 == 1, k % 2 == 0] {
            if traced_turn {
                trace::on(rec);
                let got = drive(&traced, block, first);
                trace::off();
                wsn_obs::install(daemon_rec.clone());
                traced_tally.add(block, &bounds, got, out);
            } else {
                plain_tally.add(block, &bounds, drive(&plain, block, first), out);
            }
        }
    }
    plain.shutdown();
    traced.shutdown();

    let table = trace::table(
        &rec.events_snapshot(),
        &[
            "serve.request",
            "serve.encode_request",
            "serve.parse",
            "serve.submit",
            "serve.encode",
            "serve.setup",
            "topology.sample",
            "anytime.greedy",
            "core.verify",
        ],
        &["serve.request"],
    );
    trace::write(
        &args.out,
        &format!("serve-10k-seed{}", args.seed),
        rec,
        &table,
    );
    Check {
        plain_ms: plain_tally.reply_ms(|_| true),
        traced_ms: traced_tally.reply_ms(|_| true).iter().sum(),
        table,
        probe,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (reqs, bounds) = generate(args.seed, args.seconds, None);
    // The daemon's own recorder, as the wsn-serve binary installs it.
    Daemon::install_recorder();
    let (tally, setup, daemon_rec) = pass(&reqs, &bounds, &mut out);
    let solve_ms = tally.reply_ms(|r| is_solve(r.class));
    let reply_ms = tally.reply_ms(|_| true);
    let latencies: Vec<f64> = tally
        .replies
        .iter()
        .filter_map(|r| r.latency.map(|l| l as f64))
        .collect();
    // Schedules returned (solves, churn repairs, replans) per second of the
    // shard workers' summed service time, as the daemon measured it: the
    // offered rate does not enter.
    let service = daemon_rec
        .histogram_snapshot("serve.request_us")
        .expect("the daemon records its service times");
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert("latency_slots", mean(&latencies));
    out.e2e.insert("solve_p50_ms", median(&solve_ms));
    out.e2e.insert(
        "solves_per_s",
        latencies.len() as f64 / (service.sum as f64 / 1e6),
    );
    let window_s = reqs.len() as f64 / RATE_PER_S;
    let on_time = tally.replies.iter().filter(|r| r.on_time).count() as f64 / reqs.len() as f64;
    println!(
        "info  serve-10k: {} requests at {RATE_PER_S}/s over {window_s:.1} s, {} missing, on-time {on_time:.3}, reply p50 {:.2} ms, shard workers busy {:.2} of the window",
        reqs.len(),
        tally.missing,
        median(&reply_ms),
        service.sum as f64 / 1e6 / window_s / SHARDS.len() as f64
    );
    if !args.trace {
        return out;
    }

    // Per-layer figures of the untraced pass.
    let l = &mut out.layers;
    l.insert("reply_p50_ms", median(&reply_ms));
    l.insert("reply_p95_ms", quantile(&reply_ms, 0.95));
    l.insert("on_time_frac", on_time);
    l.insert("solve_p90_ms", quantile(&solve_ms, 0.9));
    let rs = &tally.replies;
    l.insert(
        "serve.parse_us",
        median(&rs.iter().map(|r| r.t.parse_us).collect::<Vec<_>>()),
    );
    l.insert(
        "serve.encode_us",
        median(&rs.iter().map(|r| r.t.encode_us).collect::<Vec<_>>()),
    );
    for (class, name) in CLASSES {
        let ms = tally.reply_ms(|r| r.class == class);
        let mine: Vec<&Reply> = rs.iter().filter(|r| r.class == class).collect();
        let attempted = reqs.iter().filter(|r| r.class == class).count();
        let late = mine.iter().filter(|r| !r.on_time).count() + (attempted - mine.len());
        let failed = mine.iter().filter(|r| !r.ok).count() + (attempted - mine.len());
        let key = |metric: String| crate::layer_key(&metric);
        l.insert(key(format!("serve.reply_ms.{name}.p50")), median(&ms));
        l.insert(
            key(format!("serve.reply_ms.{name}.p95")),
            quantile(&ms, 0.95),
        );
        l.insert(
            key(format!("serve.late_frac.{name}")),
            late as f64 / attempted.max(1) as f64,
        );
        l.insert(key(format!("serve.attempted.{name}")), attempted as f64);
        l.insert(key(format!("serve.failed.{name}")), failed as f64);
    }
    let ladder_ms = tally.reply_ms(|r| is_solve(r.class) && r.ok && !r.repair);
    let repair_ms = tally.reply_ms(|r| is_solve(r.class) && r.ok && r.repair);
    l.insert("serve.solve_ms.ladder.p50", median(&ladder_ms));
    l.insert("serve.solve_ms.repair.p50", median(&repair_ms));
    l.insert("serve.ladder_solves", ladder_ms.len() as f64);
    l.insert("serve.repair_solves", repair_ms.len() as f64);
    l.insert("serve.service_us.p50", service.quantile(0.5) as f64);
    l.insert("serve.service_us.p99", service.quantile(0.99) as f64);
    let reschedule = daemon_rec.histogram_snapshot("serve.reschedule_us");
    let resched_q = |q: f64| reschedule.as_ref().map_or(0.0, |h| h.quantile(q) as f64);
    l.insert("serve.reschedule_us.p50", resched_q(0.5));
    l.insert("serve.reschedule_us.p99", resched_q(0.99));
    l.insert(
        "serve.queue_wait_ms",
        mean(&reply_ms) - service.mean() / 1e3,
    );
    l.insert(
        "serve.gen_lag_ms.p99",
        quantile(&rs.iter().map(|r| r.t.lag_ms).collect::<Vec<_>>(), 0.99),
    );
    for (metric, counter) in [
        ("serve.shed", "serve.shed"),
        ("serve.shard_restarts", "serve.shard_restarts"),
        ("serve.tier.greedy", "serve.tier.greedy"),
        ("serve.tier.warm", "serve.tier.warm"),
        ("serve.tier.serial", "serve.tier.serial"),
        ("serve.tier.portfolio", "serve.tier.portfolio"),
    ] {
        l.insert(metric, daemon_rec.counter_value(counter) as f64);
    }
    let observes: Vec<&Reply> = rs.iter().filter(|r| r.class == Class::Observe).collect();
    l.insert(
        "sim.replan_frac",
        observes.iter().filter(|r| r.replanned).count() as f64 / observes.len().max(1) as f64,
    );

    let rec = trace::recorder();
    let c = check_pass(args, &rec, &mut out);
    let plain_sum: f64 = c.plain_ms.iter().sum();
    let l = &mut out.layers;
    l.insert("topology.sample_ms", median(&c.probe.sample_ms));
    l.insert("topology.edges", mean(&c.probe.edges));
    l.insert("topology.bytes_per_node", mean(&c.probe.bytes_per_node));
    l.insert("anytime.greedy_ms", median(&c.probe.greedy_ms));
    l.insert("core.verify_ms", median(&c.probe.verify_ms));
    l.insert("obs.trace_overhead_frac", c.traced_ms / plain_sum - 1.0);
    l.insert("obs.dropped_events", rec.dropped_events() as f64);
    l.insert(
        "obs.span_coverage_frac",
        trace::coverage(&c.table.tree_self_us, &c.plain_ms),
    );
    out
}
