//! `service_mixed`: an in-process `gsched_service::Server` (2 workers,
//! in-memory cache) driven open-loop over two pipelined connections.
//!
//! Each phase sends Poisson arrivals at a fixed rate: `light`, `heavy`,
//! then the probes of a rate search for the highest rate whose p95
//! latency meets [`LIMIT_MS`] with no growing backlog. Requests carry
//! inline, seeded variants of the paper machine: keys never seen before
//! (cold solves and cache writes, with evictions past the cache capacity),
//! some of them sent twice close together (singleflight), a few quick
//! sweeps, and repeats of warmed keys on a skewed popularity (cache
//! reads). The shares and sizes below are the benchmark's own assumptions,
//! not measured traffic: no source for them exists, and each is chosen for
//! the reason given at its constant (and in `perfbench/README.md`). With
//! two connections answered in order and two workers, at most two jobs are
//! ever in flight, so the server's sweep batching cannot engage;
//! `service.batch_merged` reports that.

use crate::loadgen::{drive, Conn, Outcome, Planned};
use crate::metrics::{peak_rss_mb, Metrics, Tally};
use crate::replay::{replay_solve, SubSteps};
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::sweeps::{count_work, print_substeps, report_layers};
use crate::trace::Tracer;
use crate::Run;
use gsched_core::{solve, GangModel, SolverOptions};
use gsched_engine::{run_sweep, SweepOptions};
use gsched_scenario::{registry, Scenario};
use gsched_service::client::{frame_for_scenario, RequestSpec};
use gsched_service::{
    frame_is_ok, parse_request, CacheStore, Client, MemoryLru, Op, Response, ServeConfig, Server,
};
use serde_json::Value;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency limit on the p95 for the rate search (about ten cold solves).
pub const LIMIT_MS: f64 = 1000.0;
/// Fixed rates of the `light` and `heavy` phases, requests per second,
/// about 1/6 and 1/2 of the `max_rps` measured when the benchmark was
/// defined (550–600/s on a 2-core x86-64 box). At 1/3 and 2/3 the connections
/// sit so close to the point where most requests queue behind a cold solve
/// that the light median and the heavy p95 swung 3–5× between runs.
pub const LIGHT_RPS: f64 = 110.0;
pub const HEAVY_RPS: f64 = 300.0;
/// Largest rise in median latency from the first to the last third of a
/// phase that still counts as no growing backlog.
const GROWTH_LIMIT_MS: f64 = LIMIT_MS / 4.0;
/// Where the rate search starts.
const SEARCH_START_RPS: f64 = 560.0;
/// Stop the search once the bracket is this narrow (steps ≤ 5% apart).
const SEARCH_RATIO: f64 = 1.05;
const MAX_PROBES: usize = 8;
/// Fewest requests in a phase: the p95 then has at least 12 samples beyond it.
const MIN_PHASE_REQUESTS: usize = 240;
/// A run's figures are invalid when, in the `light` or `heavy` phase or a
/// rate-search probe that met the limit, the generator's lateness p95
/// exceeds this share of the phase's length. Latency counts from due
/// times, so lateness cannot hide a slow reply; it can only thin the
/// offered load, and at this share it thins it by about 1%, a fifth of the
/// search's 5% step. A probe that missed the limit despite any thinning is
/// not judged: its verdict stands. (The generator's threads share the
/// box's two vCPUs with the server, so an overloaded server makes them late.)
const LATE_SHARE: f64 = 0.01;
/// How long a phase may take to drain after its last due time.
const DRAIN: Duration = Duration::from_secs(20);

const WORKERS: usize = 2;
/// Assumed: large enough that the warmed keys stay resident under LRU, small
/// enough that the ~500 never-seen keys of a run evict one another.
const CACHE_CAPACITY: usize = 128;
/// Assumed: the warmed keys behind the cache reads.
const HOT_SOLVES: usize = 16;
const HOT_SWEEPS: usize = 3;
/// Assumed: a moderately skewed popularity over the warmed keys.
const ZIPF_S: f64 = 1.1;
/// Never-seen keys sit at two fixed positions in every run of
/// `FRESH_PERIOD` requests, one on each connection: a fixed 5% share,
/// spread evenly so that the cold solves do not bunch up by chance.
/// Assumed: at 5% the cold solves take most of the workers' time near
/// `max_rps`, so the rate search measures the solver, while the light phase
/// keeps most of the workers idle.
const FRESH_PERIOD: usize = 40;
/// Erlang stages of the never-seen keys' quanta: one shape, so that cold
/// solves cost about the same (55–80 ms on a 2-core x86-64 box).
const FRESH_STAGES: usize = 2;
/// Every `DUPLICATE_EVERY`-th fresh key is also sent on the other
/// connection. Assumed: often enough that singleflight runs in every phase.
const DUPLICATE_EVERY: usize = 4;
/// Assumed: "a few" quick sweeps, rare enough not to set the latency.
const SWEEP_SHARE: f64 = 0.02;
/// Gap between a fresh request and its duplicate on the other connection;
/// far shorter than a cold solve, so the duplicate always joins it.
const DUPLICATE_GAP: Duration = Duration::from_millis(2);

/// A distinct request key: one scenario under one operation.
pub struct Key {
    pub scenario: Scenario,
    pub op: Op,
    pub frame: Arc<str>,
}

/// One request of a phase: its key, connection and due time, and whether
/// it is the first request for a never-seen key (a cold solve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    pub key: usize,
    pub conn: usize,
    pub due: Duration,
    pub cold: bool,
}

/// Everything the workload sends. Keys and each phase's request stream
/// come from the seed; a phase's rate and length only decide how much of
/// its stream is sent and how fast.
pub struct Inputs {
    seed: u64,
    pub keys: Vec<Key>,
    pub hot: Vec<usize>,
    sweeps: Vec<usize>,
}

/// A paper-machine variant: λ in [0.42, 0.52], quantum mean log-uniform
/// in [0.8, 1.25], Erlang quantum with `stages` stages. Assumed: a band
/// around the registry's λ = 0.5, unit-quantum operating point
/// (`ablation`), where every class is stable.
fn variant(rng: &mut Rng, name: String, stages: usize) -> Result<Scenario, String> {
    let lambda = rng.range(0.42, 0.52);
    let quantum = rng.range(0.8f64.ln(), 1.25f64.ln()).exp();
    Scenario::builder(name, registry::paper_machine(lambda, quantum, stages))
        .build()
        .map_err(|e| e.to_string())
}

fn sweep_variant(rng: &mut Rng, name: &str) -> Scenario {
    let lambda = rng.range(0.30, 0.50);
    let stages = 1 + rng.below(2);
    registry::quantum_scenario(
        name,
        lambda,
        stages,
        registry::default_quantum_grid(),
        Some(registry::quick_quantum_grid()),
    )
}

impl Inputs {
    pub fn generate(seed: u64) -> Result<Inputs, String> {
        let mut rng = Rng::new(seed).fork(0x5e7);
        let mut inputs = Inputs {
            seed,
            keys: Vec::new(),
            hot: Vec::new(),
            sweeps: Vec::new(),
        };
        for i in 0..HOT_SOLVES {
            let k = inputs.add(variant(&mut rng, format!("hot_{i}"), 1 + i % 2)?, Op::Solve);
            inputs.hot.push(k);
        }
        for i in 0..HOT_SWEEPS {
            let k = inputs.add(sweep_variant(&mut rng, &format!("sweep_{i}")), Op::Sweep);
            inputs.sweeps.push(k);
        }
        Ok(inputs)
    }

    fn add(&mut self, scenario: Scenario, op: Op) -> usize {
        let spec = RequestSpec {
            op: Some(op),
            quick: op == Op::Sweep,
            ..RequestSpec::default()
        };
        let frame: Arc<str> = Arc::from(frame_for_scenario(&scenario, &spec));
        self.keys.push(Key {
            scenario,
            op,
            frame,
        });
        self.keys.len() - 1
    }

    /// Phase `i`'s requests at `rate` per second: Poisson arrivals for
    /// `seconds`, and at least [`MIN_PHASE_REQUESTS`]. Fresh keys are
    /// generated here, so a phase adds keys no earlier phase has sent.
    pub fn phase(&mut self, i: usize, rate: f64, seconds: f64) -> Result<Vec<Slot>, String> {
        let mut rng = Rng::new(self.seed).fork(0x1000 + i as u64);
        let mut slots = Vec::new();
        let mut at = 0.0;
        let mut fresh = 0usize;
        for j in 0.. {
            at += rng.exp1() / rate;
            if at >= seconds && j >= MIN_PHASE_REQUESTS {
                break;
            }
            let due = Duration::from_secs_f64(at);
            let conn = j % 2;
            if j % FRESH_PERIOD == 0 || j % FRESH_PERIOD == FRESH_PERIOD / 2 + 1 {
                let name = format!("fresh_{i}_{j}");
                let key = self.add(variant(&mut rng, name, FRESH_STAGES)?, Op::Solve);
                slots.push(Slot {
                    key,
                    conn,
                    due,
                    cold: true,
                });
                if fresh.is_multiple_of(DUPLICATE_EVERY) {
                    let due = due + DUPLICATE_GAP;
                    slots.push(Slot {
                        key,
                        conn: 1 - conn,
                        due,
                        cold: false,
                    });
                }
                fresh += 1;
            } else {
                let key = if rng.uniform() < SWEEP_SHARE {
                    self.sweeps[rng.zipf(HOT_SWEEPS, ZIPF_S)]
                } else {
                    self.hot[rng.zipf(HOT_SOLVES, ZIPF_S)]
                };
                slots.push(Slot {
                    key,
                    conn,
                    due,
                    cold: false,
                });
            }
        }
        Ok(slots)
    }

    fn plan(&self, slots: &[Slot]) -> Vec<Planned> {
        slots
            .iter()
            .map(|s| Planned {
                due: s.due,
                conn: s.conn,
                frame: self.keys[s.key].frame.clone(),
            })
            .collect()
    }
}

/// Per-class numbers parsed from a served result.
#[derive(Debug, Clone, PartialEq)]
enum Served {
    /// `(N_p, T_p)` per class; `None` where the class is unstable.
    Solve(Vec<(Option<f64>, Option<f64>)>),
    /// Per-point N_p of a sweep.
    Sweep(Vec<Vec<Option<f64>>>),
}

fn numbers(v: Option<&Value>) -> Option<Vec<Option<f64>>> {
    Some(v?.as_array()?.iter().map(Value::as_f64).collect())
}

/// Parse one reply frame; `Err` for error frames and malformed replies.
fn parse_reply(line: &str, op: Op) -> Result<Served, String> {
    let frame: Value = serde_json::from_str(line).map_err(|e| format!("unparsable reply: {e}"))?;
    if frame.get("status").and_then(Value::as_str) != Some("ok") {
        let kind = frame
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .unwrap_or("unknown");
        return Err(format!("error reply: {kind}"));
    }
    let result = frame.get("result").ok_or("reply without a result")?;
    match op {
        Op::Solve => {
            let classes = result
                .get("classes")
                .and_then(Value::as_array)
                .ok_or("solve result without classes")?;
            Ok(Served::Solve(
                classes
                    .iter()
                    .map(|c| {
                        (
                            c.get("mean_jobs").and_then(Value::as_f64),
                            c.get("mean_response").and_then(Value::as_f64),
                        )
                    })
                    .collect(),
            ))
        }
        _ => {
            let points = result
                .as_array()
                .and_then(|a| a.first())
                .and_then(|r| r.get("points"))
                .and_then(Value::as_array)
                .ok_or("sweep result without points")?;
            points
                .iter()
                .map(|p| {
                    numbers(p.get("mean_jobs")).ok_or_else(|| "point without mean_jobs".to_string())
                })
                .collect::<Result<_, _>>()
                .map(Served::Sweep)
        }
    }
}

fn same(a: Option<f64>, b: f64) -> bool {
    match a {
        Some(a) => b.is_finite() && (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
        None => !b.is_finite(),
    }
}

/// The local answer for a key, compared with what the server sent.
fn check_key(key: &Key, served: &Served) -> Result<(), String> {
    let name = &key.scenario.name;
    match served {
        Served::Solve(classes) => {
            let model: GangModel = key.scenario.build_model().map_err(|e| e.to_string())?;
            let sol =
                solve(&model, &SolverOptions::default()).map_err(|e| format!("{name}: {e}"))?;
            if sol.classes.len() != classes.len() {
                return Err(format!(
                    "{name}: {} classes served, {} solved",
                    classes.len(),
                    sol.classes.len()
                ));
            }
            for (p, (c, &(n, t))) in sol.classes.iter().zip(classes).enumerate() {
                if !same(n, c.mean_jobs) || !same(t, c.mean_response) {
                    return Err(format!(
                        "{name} class {p}: served (N, T) = ({n:?}, {t:?}), local ({}, {})",
                        c.mean_jobs, c.mean_response
                    ));
                }
            }
        }
        Served::Sweep(points) => {
            let req = key
                .scenario
                .sweep_request(true)
                .map_err(|e| e.to_string())?;
            let rep = run_sweep(&req, &SweepOptions::default().with_jobs(1));
            if rep.points.len() != points.len() {
                return Err(format!(
                    "{name}: {} points served, {} swept",
                    points.len(),
                    rep.points.len()
                ));
            }
            for (i, (pr, served_n)) in rep.points.iter().zip(points).enumerate() {
                let local: Vec<f64> = pr
                    .solution
                    .as_ref()
                    .map(|s| s.classes.iter().map(|c| c.mean_jobs).collect())
                    .unwrap_or_default();
                if local.len() != served_n.len()
                    || !served_n.iter().zip(&local).all(|(&a, &b)| same(a, b))
                {
                    return Err(format!(
                        "{name} point {i}: served {served_n:?}, local {local:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A bound server with two client connections.
struct Live {
    addr: SocketAddr,
    conns: Vec<Conn>,
}

fn bind() -> Result<Server, String> {
    let cfg = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(WORKERS)
        .cache_capacity(CACHE_CAPACITY)
        .build()
        .map_err(|e| e.message)?;
    Server::bind(&cfg).map_err(|e| format!("bind: {e}"))
}

/// Results of one phase, with the keys its requests carried.
struct Phase {
    rate: f64,
    /// Due time of the phase's last request, seconds.
    span_s: f64,
    keys: Vec<usize>,
    cold: Vec<bool>,
    out: Vec<Outcome>,
}

impl Phase {
    /// Latency of every request from its due time; error replies and
    /// missing replies count as infinitely late.
    fn latencies(&self) -> Vec<f64> {
        self.out
            .iter()
            .map(|o| match o.reply.as_deref() {
                Some(r) if frame_is_ok(r) => o.latency_ms(),
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// How much longer the last third of the phase's requests waited
    /// than the first third (medians): a growing backlog shows here before
    /// it reaches the p95.
    fn growth_ms(&self) -> f64 {
        let lat = self.latencies();
        let third = lat.len() / 3;
        let first = median(&lat[..third]).unwrap_or(0.0);
        let last = median(&lat[lat.len() - third..]).unwrap_or(f64::INFINITY);
        last - first
    }

    /// Latencies of the phase's cold requests (first sends of never-seen keys).
    fn cold_latencies(&self) -> Vec<f64> {
        self.latencies()
            .into_iter()
            .zip(&self.cold)
            .filter_map(|(l, &c)| c.then_some(l))
            .collect()
    }

    fn p95(&self) -> f64 {
        percentile(&self.latencies(), 0.95).unwrap_or(f64::INFINITY)
    }

    /// At most 1 when the phase meets the limit: its p95 within
    /// [`LIMIT_MS`] and its backlog growth within [`GROWTH_LIMIT_MS`].
    fn score(&self) -> f64 {
        (self.p95() / LIMIT_MS).max(self.growth_ms() / GROWTH_LIMIT_MS)
    }
}

impl Live {
    fn phase(
        &mut self,
        inputs: &mut Inputs,
        i: usize,
        rate: f64,
        seconds: f64,
    ) -> Result<Phase, String> {
        let slots = inputs.phase(i, rate, seconds)?;
        let out = drive(self.addr, &mut self.conns, &inputs.plan(&slots), DRAIN);
        Ok(Phase {
            rate,
            span_s: slots.last().map_or(0.0, |s| s.due.as_secs_f64()),
            keys: slots.iter().map(|s| s.key).collect(),
            cold: slots.iter().map(|s| s.cold).collect(),
            out,
        })
    }

    /// Send every warm-up key once, all due at once, and wait for the replies.
    fn warm_up(&mut self, inputs: &Inputs) -> Result<(), String> {
        let warm: Vec<usize> = inputs.hot.iter().chain(&inputs.sweeps).copied().collect();
        let plan: Vec<Planned> = warm
            .iter()
            .enumerate()
            .map(|(j, &k)| Planned {
                due: Duration::ZERO,
                conn: j % 2,
                frame: inputs.keys[k].frame.clone(),
            })
            .collect();
        let out = drive(self.addr, &mut self.conns, &plan, DRAIN);
        for (o, &k) in out.iter().zip(&warm) {
            let reply = o.reply.as_deref().ok_or("warm-up request got no reply")?;
            parse_reply(reply, inputs.keys[k].op).map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(())
    }

    fn stats(&self) -> Result<Value, String> {
        let mut c = Client::connect(&self.addr.to_string()).map_err(|e| e.to_string())?;
        let line = c
            .request_line(&gsched_service::client::control_frame(Op::Stats, None))
            .map_err(|e| e.to_string())?;
        let frame: Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        frame
            .get("result")
            .cloned()
            .ok_or_else(|| "stats reply without result".to_string())
    }
}

/// Search for the highest rate that meets the limit: bracket from
/// [`SEARCH_START_RPS`] in 25% steps and bisect geometrically until the
/// bracket is [`SEARCH_RATIO`] wide; the answer is where the score crosses
/// 1 inside that bracket.
fn search(
    live: &mut Live,
    inputs: &mut Inputs,
    seconds: f64,
    phases: &mut Vec<Phase>,
) -> Result<Option<f64>, String> {
    let mut lo: Option<(f64, f64)> = None;
    let mut hi: Option<(f64, f64)> = None;
    let mut rate = SEARCH_START_RPS;
    for probe in 0..MAX_PROBES {
        let ph = live.phase(inputs, 2 + probe, rate, seconds)?;
        let score = ph.score();
        eprintln!(
            "  probe {rate:8.2} rps: p95 {:9.1} ms, backlog growth {:8.1} ms, score {score:.3}",
            ph.p95(),
            ph.growth_ms()
        );
        phases.push(ph);
        if score <= 1.0 {
            lo = Some((rate, score));
        } else {
            hi = Some((rate, score));
        }
        rate = match (lo, hi) {
            (Some((l, _)), Some((h, _))) if h / l <= SEARCH_RATIO * 1.0001 => break,
            (Some((l, _)), Some((h, _))) => (l * h).sqrt(),
            (Some((l, _)), None) => l * 1.25,
            (None, Some((h, _))) => h / 1.25,
            (None, None) => unreachable!("a probe always sets one side"),
        };
    }
    Ok(match (lo, hi) {
        (Some(lo), Some(hi)) if hi.0 / lo.0 <= SEARCH_RATIO * 1.0001 => Some(crossing(lo, hi)),
        _ => None,
    })
}

/// The rate where the score crosses 1 between a passing probe `lo` and a
/// failing probe `hi` (each `(rate, score)`), interpolating `ln score`
/// linearly in `ln rate`; the midpoint when the scores give no slope.
fn crossing(lo: (f64, f64), hi: (f64, f64)) -> f64 {
    let ((l, sl), (h, sh)) = (lo, hi);
    let frac = if sl > 0.0 && sh.is_finite() && sh > sl {
        ((1.0 / sl).ln() / (sh / sl).ln()).clamp(0.0, 1.0)
    } else {
        0.5
    };
    l * (h / l).powf(frac)
}

/// Bind, warm up and serve; everything after set-up runs in `body`.
fn with_server<T>(
    inputs: &mut Inputs,
    body: impl FnOnce(&mut Live, &mut Inputs) -> Result<T, String>,
) -> Result<T, String> {
    let server = bind()?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        let result = (|| {
            let conns = (0..2)
                .map(|_| Conn::open(addr).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            let mut live = Live { addr, conns };
            live.warm_up(inputs)?;
            let out = body(&mut live, inputs);
            drop(live.conns);
            out
        })();
        server.request_shutdown();
        match handle.join() {
            Ok(Ok(())) => result,
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    })
}

pub fn run(run: &Run, tally: &mut Tally, metrics: &mut Metrics) -> Result<(), String> {
    // Set-up: generate and build inputs, bind, warm the cache; the first
    // two repetitions are torn down, the third serves the measured phases.
    let mut setups = Vec::new();
    let mut built_ms = Vec::new();
    for _ in 0..2 {
        let t0 = Instant::now();
        let mut inp = Inputs::generate(run.seed)?;
        built_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        with_server(&mut inp, |_, _| {
            setups.push(t0.elapsed().as_secs_f64());
            Ok(())
        })?;
    }
    let t0 = Instant::now();
    let mut inputs = Inputs::generate(run.seed)?;
    built_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    // Phase lengths: light gets half the run, so that its p95 rests on some
    // 55 cold solves; heavy and each probe an eighth.
    let seconds = (run.seconds / 8.0).max(1.0);
    let measured = with_server(&mut inputs, |live, inputs| {
        setups.push(t0.elapsed().as_secs_f64());
        let mut phases = vec![
            live.phase(inputs, 0, LIGHT_RPS, 4.0 * seconds)?,
            live.phase(inputs, 1, HEAVY_RPS, seconds)?,
        ];
        let max_rps = search(live, inputs, seconds, &mut phases)?;
        let stats = live.stats()?;
        Ok((phases, max_rps, stats))
    })?;
    let (phases, max_rps, stats) = measured;

    // Every reply: ok frames only, one answer per key, equal to a local solve.
    let mut first: HashMap<usize, Served> = HashMap::new();
    let mut late = Vec::new();
    for ph in &phases {
        let mut failed = 0usize;
        for (o, &k) in ph.out.iter().zip(&ph.keys) {
            late.push(o.late_ms());
            let outcome = o
                .reply
                .as_deref()
                .ok_or_else(|| "no reply before the drain limit".to_string())
                .and_then(|r| parse_reply(r, inputs.keys[k].op))
                .and_then(|served| match first.get(&k) {
                    Some(prev) if *prev != served => {
                        Err(format!("{}: answers differ", inputs.keys[k].scenario.name))
                    }
                    Some(_) => Ok(()),
                    None => {
                        first.insert(k, served);
                        Ok(())
                    }
                });
            failed += usize::from(outcome.is_err());
            tally.record(outcome);
        }
        let lat = ph.latencies();
        let q = |x| percentile(&lat, x).unwrap_or(f64::NAN);
        eprintln!(
            "  phase at {:7.2} rps: {} requests, {failed} failed, latency p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} p95 {:.1} ms",
            ph.rate,
            ph.out.len(),
            q(0.10),
            q(0.25),
            q(0.5),
            q(0.75),
            ph.p95()
        );
    }
    let mut checked: Vec<(&usize, &Served)> = first.iter().collect();
    checked.sort_by_key(|(k, _)| **k);
    let t_check = Instant::now();
    let verdicts: Vec<Result<(), String>> = std::thread::scope(|s| {
        let halves: Vec<_> = checked
            .chunks(checked.len().div_ceil(2).max(1))
            .map(|part| {
                let inputs = &inputs;
                s.spawn(move || {
                    part.iter()
                        .map(|(k, served)| check_key(&inputs.keys[**k], served))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("check thread does not panic"))
            .collect()
    });
    for v in verdicts {
        if let Err(e) = v {
            tally.failed += 1;
            tally.problem(format!("served result differs from a local solve: {e}"));
        }
    }
    eprintln!(
        "checked {} distinct keys against local solves in {:.1} s",
        checked.len(),
        t_check.elapsed().as_secs_f64()
    );
    for (i, ph) in phases.iter().enumerate() {
        if i >= 2 && ph.score() > 1.0 {
            continue;
        }
        let late: Vec<f64> = ph.out.iter().map(Outcome::late_ms).collect();
        let p95 = percentile(&late, 0.95).unwrap_or(f64::INFINITY);
        let limit = LATE_SHARE * ph.span_s * 1e3;
        if p95 > limit {
            tally.problem(format!(
                "invalid run: the load generator fell behind at {:.2} rps (lateness p95 {p95:.2} ms > {limit:.2} ms)",
                ph.rate
            ));
        }
    }
    let late_p95 = percentile(&late, 0.95).unwrap_or(f64::INFINITY);
    let light = phases[0].latencies();
    if run.trace {
        return traced(
            run, &inputs, &stats, &phases, late_p95, built_ms, tally, metrics,
        );
    }
    metrics.set("setup_s", median(&setups).unwrap_or(0.0));
    metrics.require(tally, "work_per_s", max_rps);
    metrics.require(
        tally,
        "op_p50_ms",
        percentile(&phases[0].cold_latencies(), 0.5),
    );
    metrics.require(tally, "op_tail_ms", percentile(&light, 0.95));
    metrics.require(tally, "peak_rss_mb", peak_rss_mb());
    Ok(())
}

fn stat(stats: &Value, path: &[&str]) -> f64 {
    let mut v = stats;
    for p in path {
        match v.get(*p) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    run: &Run,
    inputs: &Inputs,
    stats: &Value,
    phases: &[Phase],
    late_p95: f64,
    built_ms: Vec<f64>,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let hits = stat(stats, &["cache_hits"]);
    let misses = stat(stats, &["cache_misses"]);
    metrics.set("service.cache_hit_share", hits / (hits + misses).max(1.0));
    metrics.set("service.coalesced", stat(stats, &["coalesced"]));
    metrics.set("service.batch_merged", stat(stats, &["batch_merged"]));
    metrics.set("service.shed", stat(stats, &["shed"]));
    metrics.set("service.errors", stat(stats, &["errors"]));
    metrics.set(
        "service.queue_wait_p50_ms",
        stat(stats, &["queue_wait_ms", "p50"]),
    );
    metrics.set(
        "service.queue_wait_p95_ms",
        stat(stats, &["queue_wait_ms", "p95"]),
    );
    metrics.set("service.solve_p50_ms", stat(stats, &["solve_ms", "p50"]));
    metrics.set("scenario.build_ms", median(&built_ms).unwrap_or(0.0));
    metrics.set("loadgen.late_p95_ms", late_p95);
    if let Some(v) = median(&phases[0].latencies()) {
        metrics.set("loadgen.light_p50_ms", v);
    }
    let heavy = phases[1].latencies();
    if let Some(v) = median(&heavy) {
        metrics.set("loadgen.heavy_p50_ms", v);
    }
    if let Some(v) = percentile(&heavy, 0.95) {
        metrics.set("loadgen.heavy_p95_ms", v);
    }

    // Inputs of the traced steps, prepared off the span clock: the run's
    // request frames, its cached results, and the warmed keys' models,
    // whose solves are first counted and timed untraced.
    let sequence: Vec<usize> = phases.iter().flat_map(|p| p.keys.iter().copied()).collect();
    let frames: Vec<&str> = sequence.iter().map(|&k| &*inputs.keys[k].frame).collect();
    let results: Vec<Arc<String>> = phases
        .iter()
        .flat_map(|p| p.out.iter())
        .filter_map(|o| o.reply.as_deref())
        .filter_map(|r| {
            let v: Value = serde_json::from_str(r).ok()?;
            serde_json::to_string(v.get("result")?).ok().map(Arc::new)
        })
        .collect();
    let opts = SolverOptions::default();
    let models: Vec<GangModel> = inputs
        .hot
        .iter()
        .map(|&k| {
            inputs.keys[k]
                .scenario
                .build_model()
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    count_work(metrics, || {
        for m in &models {
            std::hint::black_box(solve(m, &opts).ok());
        }
    });
    let t0 = Instant::now();
    let untraced: Vec<Vec<f64>> = models
        .iter()
        .map(|m| solve(m, &opts).map(|s| s.classes.iter().map(|c| c.mean_jobs).collect()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The request path's own steps, then the solver layers, under spans.
    let mut tr = Tracer::new();
    tr.span("service.parse", |_| {
        for f in &frames {
            std::hint::black_box(parse_request(f).ok());
        }
    });
    tr.span("service.render", |_| {
        for r in &results {
            std::hint::black_box(Response::ok(2, None, Op::Solve, true, r.clone()).render());
        }
    });
    let cache = MemoryLru::new(CACHE_CAPACITY);
    let payload = Arc::new(String::new());
    tr.span("service.cache", |_| {
        for &k in &sequence {
            if cache.get(k as u64).is_none() {
                cache.insert(k as u64, payload.clone());
            }
        }
    });
    let per_us = |ms: f64, n: usize| ms * 1e3 / n.max(1) as f64;
    metrics.set(
        "service.parse_us",
        per_us(tr.ms("service.parse"), frames.len()),
    );
    metrics.set(
        "service.render_us",
        per_us(tr.ms("service.render"), results.len()),
    );
    metrics.set(
        "service.cache_get_us",
        per_us(tr.ms("service.cache"), sequence.len()),
    );
    let mut st = SubSteps::default();
    let t0 = tr.now_ns();
    for (i, m) in models.iter().enumerate() {
        tr.set_op(i as u64);
        let got = replay_solve(&mut tr, &mut st, m, &opts, None, None)?;
        tally.record(if got.mean_jobs == untraced[i] {
            Ok(())
        } else {
            Err(format!(
                "{}: traced replay differs from solve",
                inputs.keys[inputs.hot[i]].scenario.name
            ))
        });
    }
    let replay_ms = (tr.now_ns() - t0) as f64 / 1e6;
    report_layers(&tr, &st, 1.0, metrics);
    metrics.set("trace.overhead_share", replay_ms / untraced_ms - 1.0);
    let traced_ms = tr.now_ns() as f64 / 1e6;
    metrics.set("trace.coverage", tr.covered_ms() / traced_ms);
    print!("{}", tr.layer_table(run.workload, 1.0, traced_ms));
    print_substeps(&tr, &st, 1.0);
    crate::write_trace(&tr, run);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let gen = |seed| {
            let mut inp = Inputs::generate(seed).unwrap();
            let slots = inp.phase(0, 100.0, 3.0).unwrap();
            let frames: Vec<String> = inp.keys.iter().map(|k| k.frame.to_string()).collect();
            (frames, slots)
        };
        assert_eq!(gen(11), gen(11));
        let (a, b) = (gen(11), gen(12));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
    }

    #[test]
    fn the_mix_has_fresh_keys_duplicates_and_sweeps() {
        let mut inp = Inputs::generate(5).unwrap();
        let slots = inp.phase(0, 1000.0, 3.0).unwrap();
        assert!(slots.len() >= 3000);
        let fresh = inp.keys.len() - HOT_SOLVES - HOT_SWEEPS;
        let share = fresh as f64 / slots.len() as f64;
        assert!(
            (share - 2.0 / FRESH_PERIOD as f64).abs() < 0.005,
            "fresh share {share}"
        );
        let dups = slots
            .windows(2)
            .filter(|w| w[0].key == w[1].key && w[0].conn != w[1].conn)
            .count();
        assert!(dups > 0, "no duplicate sends");
        assert!(
            slots.iter().any(|s| inp.keys[s.key].op == Op::Sweep),
            "no sweeps"
        );
        // Every frame parses as the server will parse it.
        for k in &inp.keys {
            parse_request(&k.frame).unwrap();
        }
    }

    #[test]
    fn crossing_interpolates_inside_the_bracket() {
        // score = (rate / 500)^6 crosses 1 at 500.
        let at = |r: f64| (r, (r / 500.0).powi(6));
        assert!((crossing(at(490.0), at(514.5)) - 500.0).abs() < 1e-9);
        // No usable slope: the geometric midpoint.
        let mid = crossing((490.0, 0.0), (514.5, f64::INFINITY));
        assert!((mid - (490.0f64 * 514.5).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn a_phase_has_enough_requests_for_its_p95() {
        let mut inp = Inputs::generate(5).unwrap();
        assert!(inp.phase(0, 10.0, 1.0).unwrap().len() >= MIN_PHASE_REQUESTS);
    }
}
