//! The two live-service workloads: load generators, collectors, and
//! the end-to-end pass.
//!
//! Load-generator rules (README.md, "Load generators"): an open loop
//! times each query from when it was *due*, not from when it was
//! submitted, and reports how late the generator ran; a closed loop
//! keeps a fixed number of clients each waiting for their reply. At
//! most two threads are ever busy — the generator and the service's
//! scheduler; the collector only blocks in `recv`.

use crate::json::Json;
use crate::outcome::{nums, peak_rss_mib, report_digest, set_simulated, Outcome};
use crate::span::Tracer;
use crate::spec::{MetricSet, ANSWER_LIMIT_MS};
use crate::stats::{median, Timing};
use crate::world::{self, Rng};
use airshare_geom::Point;
use airshare_serve::{
    QueryRequest, ServeConfig, ServeError, Service, ServiceHandle, ServiceReport,
};
use airshare_sim::{
    AnswerQuality, QueryAnswer, QueryKind, QuerySpec, SimConfig, Simulation, TrafficTrace,
};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `serve_city`: simulated minutes per wall second (an epoch every
/// 50 ms).
pub const CITY_SPEEDUP: f64 = 300.0;
/// `serve_closed`: an epoch every 25 ms.
pub const CLOSED_SPEEDUP: f64 = 600.0;
/// Sessions in the closed loop.
pub const CLOSED_CLIENTS: usize = 64;
/// Position deltas per `update_position` burst in the open loop.
pub const MOVE_CHUNK: usize = 32;
/// Set-ups per run (the measured service's included); the median is
/// reported.
const SETUPS: usize = 7;
/// How long the collector waits for one reply before calling it lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Closed-loop throughput is the median over windows this long.
const RATE_WINDOW_S: f64 = 0.5;

/// What one drive of a service measured.
pub struct ServeRun {
    pub offered: u64,
    /// Replies that never arrived.
    pub lost: u64,
    /// Replies graded `Failed` or malformed (wrong answer size).
    pub bad_answers: u64,
    /// Answer arrival minus due time (open loop) or minus submit time
    /// (closed loop), ms, one per reply that arrived.
    pub latency_ms: Vec<f64>,
    /// How late the generator issued each event, µs.
    pub gen_lag_us: Vec<f64>,
    /// Measured interval: first due time to last reply.
    pub wall_s: f64,
    /// Closed loop only: replies per second in each full window.
    pub window_rates: Vec<f64>,
    pub drain_ms: f64,
    pub service: ServiceReport,
}

impl ServeRun {
    pub fn answered(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    /// Offered queries that did not produce a good answer.
    pub fn failed(&self) -> u64 {
        self.service.rejected + self.lost + self.bad_answers
    }

    /// Share of offered queries answered within the limit; a refused,
    /// lost or failed query misses it by definition.
    pub fn within_limit_ratio(&self) -> f64 {
        let good = self
            .latency_ms
            .iter()
            .filter(|&&ms| ms <= ANSWER_LIMIT_MS)
            .count() as u64;
        good.saturating_sub(self.bad_answers) as f64 / self.offered.max(1) as f64
    }

    fn epochs_committed(&self) -> u64 {
        self.service.metrics.epochs_committed_total
    }

    /// Gates every serve workload must pass.
    pub fn check(&self, problems: &mut Vec<String>) {
        if self.answered() != self.service.accepted {
            problems.push(format!(
                "answered {} of {} accepted queries after drain",
                self.answered(),
                self.service.accepted
            ));
        }
        if self.bad_answers > 0 {
            problems.push(format!(
                "{} answers were Failed or malformed",
                self.bad_answers
            ));
        }
    }
}

fn bad_answer(answer: &QueryAnswer, spec: &QuerySpec) -> bool {
    answer.quality == AnswerQuality::Failed
        || match spec {
            QuerySpec::Knn { k } => answer.ids.len() != *k,
            QuerySpec::Window { .. } => false,
        }
}

/// Sleeps until shortly before `due`, then spins: a sleep alone
/// overshoots by tens of microseconds, a spin alone burns a core.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Records the workload the open loop replays: every query's inputs
/// and every epoch's position deltas, from the closed simulator. This
/// is input generation — untimed, reported as `gen_s`. The simulation
/// is returned too: its end state feeds the traced pass's ladder.
pub fn record_trace(cfg: &SimConfig) -> (TrafficTrace, Simulation, f64) {
    let t = Instant::now();
    let mut sim = Simulation::try_new(cfg.clone()).expect("benchmark config is valid");
    let (_, trace) = sim.run_recording();
    (trace, sim, t.elapsed().as_secs_f64())
}

/// `serve_city`'s world: long enough to fill `seconds` at 300x.
pub fn city_config(seed: u64, seconds: f64) -> SimConfig {
    world::serve(seed, seconds * CITY_SPEEDUP / 60.0)
}

fn city_serve_config(cfg: &SimConfig) -> ServeConfig {
    let mut sc = ServeConfig::scaled(cfg.clone(), CITY_SPEEDUP);
    sc.threads = 1;
    sc.queue_capacity = 4096;
    sc.admit_per_tick = 64;
    sc
}

/// Starts the open-loop service and opens its sessions: every host of
/// the trace registered and placed at its first recorded position.
fn start_city(cfg: &SimConfig, trace: &TrafficTrace) -> (Service, ServiceHandle, f64) {
    let t = Instant::now();
    let service = Service::start(city_serve_config(cfg)).expect("benchmark config is valid");
    let handle = service.handle();
    for (host, &up) in trace.initial_online.iter().enumerate() {
        if up {
            handle.register(host, None).expect("register");
        }
    }
    if let Some(first) = trace.epochs.first() {
        for &(host, pos) in &first.moved {
            handle
                .update_position(host as usize, pos, None)
                .expect("position");
        }
    }
    (service, handle, t.elapsed().as_secs_f64())
}

enum Event {
    Query(usize),
    /// `trace.epochs[epoch].moved[from..to]`.
    Moves {
        epoch: usize,
        from: usize,
        to: usize,
    },
}

/// The open loop's schedule, in seconds after the lead-in: query *i*
/// at `at_min * 60 / speedup`, and each epoch's position deltas spread
/// evenly over the wall interval of the epoch before it, so they are
/// in place when its barrier commits.
fn city_schedule(trace: &TrafficTrace, epoch_wall_s: f64) -> Vec<(f64, Event)> {
    let mut events: Vec<(f64, Event)> = trace
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| (q.at_min * 60.0 / CITY_SPEEDUP, Event::Query(i)))
        .collect();
    for (j, er) in trace.epochs.iter().enumerate().skip(1) {
        let start = (er.epoch as f64 - 1.0) * epoch_wall_s;
        let chunks = er.moved.len().div_ceil(MOVE_CHUNK);
        for c in 0..chunks {
            let from = c * MOVE_CHUNK;
            events.push((
                start + epoch_wall_s * c as f64 / chunks as f64,
                Event::Moves {
                    epoch: j,
                    from,
                    to: (from + MOVE_CHUNK).min(er.moved.len()),
                },
            ));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    events
}

/// One reply the collector is to wait for.
struct Awaited {
    /// When latency counts from: the due time (open loop).
    from: Instant,
    /// When the query was actually submitted (for the traced span).
    submitted: Instant,
    spec: QuerySpec,
    rx: mpsc::Receiver<QueryAnswer>,
}

struct Collected {
    latency_ms: Vec<f64>,
    lost: u64,
    bad_answers: u64,
    last_arrival: Option<Instant>,
    tracer: Option<Tracer>,
}

/// The collector thread: blocks on each reply in submission order
/// (replies arrive in admission order, so one FIFO keeps up) and
/// stamps its arrival.
fn collect(feed: mpsc::Receiver<Awaited>, mut tracer: Option<Tracer>) -> Collected {
    let mut out = Collected {
        latency_ms: Vec::new(),
        lost: 0,
        bad_answers: 0,
        last_arrival: None,
        tracer: None,
    };
    while let Ok(a) = feed.recv() {
        match a.rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(answer) => {
                let now = Instant::now();
                out.latency_ms
                    .push(now.saturating_duration_since(a.from).as_secs_f64() * 1e3);
                out.bad_answers += bad_answer(&answer, &a.spec) as u64;
                out.last_arrival = Some(now);
                if let Some(t) = tracer.as_mut() {
                    t.record("serve.answer", a.submitted, now);
                }
            }
            Err(_) => out.lost += 1,
        }
    }
    out.tracer = tracer;
    out
}

/// What the generator side of a drive counted.
#[derive(Default)]
struct Generated {
    offered: u64,
    gen_lag_us: Vec<f64>,
    window_rates: Vec<f64>,
}

/// Drives `serve_city`: the recorded trace offered open-loop to a
/// scaled-time service. With a tracer, `submit`, `update_position`,
/// submit-to-answer and `drain` are wrapped in spans.
pub fn drive_city(
    cfg: &SimConfig,
    trace: &TrafficTrace,
    mut tracer: Option<&mut Tracer>,
) -> (ServeRun, f64) {
    let epoch_wall_s = cfg.epoch_min * 60.0 / CITY_SPEEDUP;
    let schedule = city_schedule(trace, epoch_wall_s);
    let (service, handle, setup_s) = start_city(cfg, trace);
    // Three barriers pass before the first query is due, so every
    // session is online when it arrives.
    let origin = Instant::now() + Duration::from_secs_f64(3.0 * epoch_wall_s);

    let (feed_tx, feed_rx) = mpsc::channel::<Awaited>();
    let collector_tracer = tracer.as_ref().map(|_| Tracer::new(origin));
    let collector = std::thread::spawn(move || collect(feed_rx, collector_tracer));

    let mut run = Generated::default();
    for (due_s, event) in &schedule {
        let due = origin + Duration::from_secs_f64(*due_s);
        wait_until(due);
        let issued = Instant::now();
        run.gen_lag_us.push((issued - due).as_secs_f64() * 1e6);
        match event {
            Event::Query(i) => {
                let q = &trace.queries[*i];
                let req = QueryRequest {
                    host: q.host as usize,
                    pos: q.pos,
                    heading: q.heading,
                    spec: q.spec,
                    tag: None,
                };
                run.offered += 1;
                let result = match tracer.as_deref_mut() {
                    Some(t) => t.span("serve.submit", |_| handle.submit(req)),
                    None => handle.submit(req),
                };
                match result {
                    Ok(rx) => feed_tx
                        .send(Awaited {
                            from: due,
                            submitted: issued,
                            spec: q.spec,
                            rx,
                        })
                        .expect("collector alive"),
                    // Counted by the service; reported from its drain.
                    Err(ServeError::QueueFull { .. }) => {}
                    Err(e) => panic!("live submit failed: {e}"),
                }
            }
            Event::Moves { epoch, from, to } => {
                let moved = &trace.epochs[*epoch].moved[*from..*to];
                let send = || {
                    for &(host, pos) in moved {
                        handle
                            .update_position(host as usize, pos, None)
                            .expect("position");
                    }
                };
                match tracer.as_deref_mut() {
                    Some(t) => t.span("serve.update_position", |_| send()),
                    None => send(),
                }
            }
        }
    }
    drop(feed_tx);
    let collected = collector.join().expect("collector thread");
    (finish(run, service, collected, origin, tracer), setup_s)
}

/// Drains the service and joins both sides' findings into a run.
fn finish(
    gen: Generated,
    service: Service,
    collected: Collected,
    origin: Instant,
    tracer: Option<&mut Tracer>,
) -> ServeRun {
    let t = Instant::now();
    let report = match tracer {
        Some(tracer) => {
            let report = tracer.span("serve.drain", |_| service.drain());
            if let Some(ct) = collected.tracer {
                tracer.absorb(ct);
            }
            report
        }
        None => service.drain(),
    };
    let end = collected.last_arrival.unwrap_or(origin);
    ServeRun {
        offered: gen.offered,
        lost: collected.lost,
        bad_answers: collected.bad_answers,
        latency_ms: collected.latency_ms,
        gen_lag_us: gen.gen_lag_us,
        wall_s: end.saturating_duration_since(origin).as_secs_f64(),
        window_rates: gen.window_rates,
        drain_ms: t.elapsed().as_secs_f64() * 1e3,
        service: report,
    }
}

/// `serve_closed`'s world: the city of `city_*` (18,660 hosts, 550
/// POIs), of which 64 hosts open sessions. The twentieth-of-LA world
/// of `serve_city` has 138 POIs, too few for the share of queries that
/// need the channel to agree from one seed's layout to the next's.
///
/// A live service runs until it is drained, whatever `measure_min`
/// says; the ten minutes here are what the traced pass records of this
/// world for its ladder and its `LiveWorld` replay.
pub fn closed_config(seed: u64) -> SimConfig {
    world::city(QueryKind::Knn, seed, 10.0)
}

fn closed_serve_config(cfg: &SimConfig) -> ServeConfig {
    let mut sc = ServeConfig::scaled(cfg.clone(), CLOSED_SPEEDUP);
    sc.threads = 1;
    sc.queue_capacity = 1024;
    sc
}

/// A closed-loop client: where it stands and its step per query.
struct Client {
    pos: Point,
    step: (f64, f64),
}

/// Step per query as a fraction of the world side (about 3.5 m).
const CLOSED_STEP: f64 = 5e-4;

/// The closed loop's sessions: hosts `0..64` on an 8x8 grid across the
/// world (the `exp_serve` layout), jittered inside their grid squares
/// by the seed, each walking a straight line a step per query and
/// bouncing off the world's edge. Clients that stood still would make
/// the share of queries needing the channel a property of 64 points —
/// 7% to 16% from one seed to the next; walking averages it over a few
/// hundred thousand.
fn closed_clients(cfg: &SimConfig, seed: u64) -> Vec<Client> {
    let side = cfg.params.world_mi;
    let mut rng = Rng::new(seed ^ 0xC105_ED00);
    let g = (CLOSED_CLIENTS as f64).sqrt().ceil() as usize;
    let cell = side * 0.9 / g as f64;
    (0..CLOSED_CLIENTS)
        .map(|h| {
            let theta = rng.unit() * std::f64::consts::TAU;
            Client {
                pos: Point::new(
                    side * 0.05 + ((h % g) as f64 + rng.unit()) * cell,
                    side * 0.05 + ((h / g) as f64 + rng.unit()) * cell,
                ),
                step: (
                    side * CLOSED_STEP * theta.cos(),
                    side * CLOSED_STEP * theta.sin(),
                ),
            }
        })
        .collect()
}

impl Client {
    fn advance(&mut self, side: f64) {
        let (mut x, mut y) = (self.pos.x + self.step.0, self.pos.y + self.step.1);
        if !(0.0..=side).contains(&x) {
            self.step.0 = -self.step.0;
            x = x.clamp(0.0, side);
        }
        if !(0.0..=side).contains(&y) {
            self.step.1 = -self.step.1;
            y = y.clamp(0.0, side);
        }
        self.pos = Point::new(x, y);
    }
}

fn start_closed(cfg: &SimConfig, clients: &[Client]) -> (Service, ServiceHandle, f64) {
    let t = Instant::now();
    let service = Service::start(closed_serve_config(cfg)).expect("benchmark config is valid");
    let handle = service.handle();
    for (h, c) in clients.iter().enumerate() {
        handle.register(h, None).expect("register");
        handle.update_position(h, c.pos, None).expect("position");
    }
    (service, handle, t.elapsed().as_secs_f64())
}

/// Drives `serve_closed`: 64 clients, each with one query in flight,
/// for `seconds`. One generator thread models them all — it blocks on
/// the oldest outstanding reply, stamps it, and sends that client's
/// next query.
pub fn drive_closed(
    cfg: &SimConfig,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> (ServeRun, f64) {
    let side = cfg.params.world_mi;
    let spec = QuerySpec::Knn {
        k: cfg.params.knn_k,
    };
    let mut clients = closed_clients(cfg, seed);
    let (service, handle, setup_s) = start_closed(cfg, &clients);
    // Let four barriers pass so the sessions are online.
    std::thread::sleep(Duration::from_secs_f64(
        4.0 * cfg.epoch_min * 60.0 / CLOSED_SPEEDUP,
    ));

    let mut offered = 0u64;
    let mut submit = |h: usize, tracer: &mut Option<&mut Tracer>| {
        clients[h].advance(side);
        let req = QueryRequest {
            host: h,
            pos: clients[h].pos,
            heading: None,
            spec,
            tag: None,
        };
        offered += 1;
        let at = Instant::now();
        let rx = match tracer.as_deref_mut() {
            Some(t) => t.span("serve.submit", |_| handle.submit(req)),
            None => handle.submit(req),
        };
        // 64 in flight against a 1024-deep queue: a refusal here is a
        // service bug, not backpressure.
        (h, at, rx.expect("closed-loop submit refused"))
    };

    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut inflight: VecDeque<_> = (0..CLOSED_CLIENTS)
        .map(|h| submit(h, &mut tracer))
        .collect();
    let mut latency_ms = Vec::new();
    let mut arrivals_s = Vec::new();
    let (mut lost, mut bad_answers) = (0u64, 0u64);
    let mut last_arrival = origin;
    while let Some((h, at, rx)) = inflight.pop_front() {
        match rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(answer) => {
                let now = Instant::now();
                latency_ms.push((now - at).as_secs_f64() * 1e3);
                arrivals_s.push((now - origin).as_secs_f64());
                bad_answers += bad_answer(&answer, &spec) as u64;
                last_arrival = now;
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("serve.answer", at, now);
                }
            }
            Err(_) => lost += 1,
        }
        if Instant::now() < deadline {
            inflight.push_back(submit(h, &mut tracer));
        }
    }

    let full_windows = (seconds / RATE_WINDOW_S).floor() as usize;
    let mut counts = vec![0u64; full_windows];
    for &t in &arrivals_s {
        if let Some(c) = counts.get_mut((t / RATE_WINDOW_S) as usize) {
            *c += 1;
        }
    }
    let gen = Generated {
        offered,
        window_rates: counts.iter().map(|&c| c as f64 / RATE_WINDOW_S).collect(),
        ..Generated::default()
    };
    let collected = Collected {
        latency_ms,
        lost,
        bad_answers,
        last_arrival: Some(last_arrival),
        tracer: None,
    };
    (finish(gen, service, collected, origin, tracer), setup_s)
}

/// Extra set-ups beyond the measured one, so `setup_s` is a median.
fn extra_setups(mut setup: impl FnMut() -> (Service, ServiceHandle, f64), first: f64) -> Vec<f64> {
    let mut samples = vec![first];
    while samples.len() < SETUPS {
        let (service, handle, s) = setup();
        drop(handle);
        service.drain();
        samples.push(s);
    }
    samples
}

fn outcome(
    run: &ServeRun,
    cfg: &SimConfig,
    setups: &[f64],
    queries_per_s: f64,
    mut problems: Vec<String>,
    extra: Vec<(&'static str, Json)>,
) -> Outcome {
    run.check(&mut problems);
    let latency = Timing::of(&run.latency_ms);
    let mut metrics = MetricSet::end_to_end();
    metrics.set("setup_s", median(setups));
    metrics.set("queries_per_s", queries_per_s);
    metrics.set(
        "host_epochs_per_s",
        cfg.params.mh_number as f64 * run.epochs_committed() as f64 / run.wall_s,
    );
    metrics.set("peak_rss_mib", peak_rss_mib());
    metrics.set("answer_ms_p50", latency.p50);
    metrics.set("within_limit_ratio", run.within_limit_ratio());
    set_simulated(&mut metrics, &run.service.report);

    let mut detail = vec![
        ("hosts", Json::Int(cfg.params.mh_number as i64)),
        ("pois", Json::Int(cfg.params.poi_number as i64)),
        ("offered", Json::Int(run.offered as i64)),
        ("accepted", Json::Int(run.service.accepted as i64)),
        ("rejected", Json::Int(run.service.rejected as i64)),
        ("answered", Json::Int(run.answered() as i64)),
        ("lost", Json::Int(run.lost as i64)),
        ("bad_answers", Json::Int(run.bad_answers as i64)),
        ("wall_s", Json::Num(run.wall_s)),
        ("answer_ms", Json::str(latency.to_string())),
        ("answer_ms_max", Json::Num(latency.max)),
        ("epochs_committed", Json::Int(run.epochs_committed() as i64)),
        ("drain_ms", Json::Num(run.drain_ms)),
        ("setup_s", nums(setups)),
        (
            "report_digest",
            Json::str(report_digest(&run.service.report)),
        ),
    ];
    detail.extend(extra);
    Outcome {
        metrics,
        attempted: run.offered,
        failed: run.failed(),
        problems,
        detail: Json::obj(detail),
    }
}

/// Replays the trace through a lockstep service and requires every
/// answer to equal the simulator's, per nonce: the service's
/// correctness check, independent of the clock.
fn lockstep_parity(cfg: &SimConfig, trace: &TrafficTrace, problems: &mut Vec<String>) {
    let mut sc = ServeConfig::lockstep(cfg.clone());
    sc.threads = 1;
    let service = Service::start(sc).expect("benchmark config is valid");
    match airshare_serve::replay(&service.handle(), trace) {
        Ok(r) if r.is_clean() => {}
        Ok(r) => problems.push(format!(
            "lockstep replay diverged from the simulator: {r:?}"
        )),
        Err(e) => problems.push(format!("lockstep replay failed: {e}")),
    }
    service.drain();
}

pub fn run_city(seed: u64, seconds: f64) -> Outcome {
    let cfg = city_config(seed, seconds);
    let (trace, sim, gen_s) = record_trace(&cfg);
    drop(sim);
    let mut problems = Vec::new();
    lockstep_parity(&cfg, &trace, &mut problems);

    let (run, first_setup) = drive_city(&cfg, &trace, None);
    let setups = extra_setups(|| start_city(&cfg, &trace), first_setup);
    if run.service.rejected > 0 {
        problems.push(format!(
            "{} queries were refused at the offered rate",
            run.service.rejected
        ));
    }
    let lag = Timing::of(&run.gen_lag_us);
    let moves: usize = trace.epochs.iter().skip(1).map(|e| e.moved.len()).sum();
    let extra = vec![
        ("gen_s", Json::Num(gen_s)),
        ("offered_qps", Json::Num(run.offered as f64 / seconds)),
        ("position_updates_per_s", Json::Num(moves as f64 / seconds)),
        ("gen_lag_us", Json::str(lag.to_string())),
    ];
    let qps = run.answered() as f64 / run.wall_s;
    outcome(&run, &cfg, &setups, qps, problems, extra)
}

pub fn run_closed(seed: u64, seconds: f64) -> Outcome {
    let cfg = closed_config(seed);
    let (run, first_setup) = drive_closed(&cfg, seed, seconds, None);
    let clients = closed_clients(&cfg, seed);
    let setups = extra_setups(|| start_closed(&cfg, &clients), first_setup);
    let extra = vec![
        ("clients", Json::Int(CLOSED_CLIENTS as i64)),
        ("window_rates", nums(&run.window_rates)),
    ];
    let qps = median(&run.window_rates);
    outcome(&run, &cfg, &setups, qps, Vec::new(), extra)
}
