//! `serve`: an open loop from two client threads into one
//! `PipelineServer`, at a fixed ladder of offered rates. Each request is
//! timed from when it was due, so a stall also charges the requests queued
//! behind it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use halide_pipelines::{AppKind, ScheduleChoice};
use halide_runtime::{Buffer, CounterSnapshot};
use halide_serve::{Clock, PipelineServer, Request, ServeConfig};
use halide_trace::PID_SERVE;

use crate::alloc::AllocCount;
use crate::draw::{serve_mix, serve_schedule, Arrival, Key};
use crate::layers::{
    digest, layer_span, op_span, Inputs, LayerResult, Outputs, Prepared, References, BACKEND, OPT,
};
use crate::report::{LayerData, ServeLayer};
use crate::spans::{self, Span};
use crate::speed::{self, Meter};
use crate::stats::{median, medians_by_key, percentile, Rung};
use crate::{host, mpix_per_s, Config, Outcome, SETUP_REPS};

const CLIENTS: usize = 2;
const MAX_IN_FLIGHT: usize = 2;
/// Offered rates on the reference core (requests per second), lowest
/// first. `req_ms_*` are read at `NOMINAL`, about a sixth of the two slots'
/// capacity for this mix; from 192 up the rungs overload them.
const LADDER: [f64; 5] = [32.0, 96.0, 192.0, 288.0, 384.0];
const NOMINAL: usize = 0;
/// Probes per measurement of the host's speed: the ladder has few parts.
const PROBES: usize = 3;
/// Share of `--seconds` the nominal rung runs; the other rungs split the
/// rest evenly.
const NOMINAL_SHARE: f64 = 0.5;

fn config(clock: Clock) -> ServeConfig {
    ServeConfig {
        max_in_flight: MAX_IN_FLIGHT,
        threads_per_request: 1,
        backend: BACKEND,
        opt: OPT,
        pooling: true,
        // Every request of one key carries the same input here, where real
        // traffic would carry distinct images; coalescing would merge them.
        coalescing: false,
        default_deadline: None,
        adaptive: None,
        clock,
        ..ServeConfig::default()
    }
}

/// A server on a fresh clock, with the offset that maps its span times
/// onto the trace epoch.
fn server() -> (PipelineServer, i128) {
    let clock = Clock::system();
    let offset = halide_trace::epoch_ns() as i128 - clock.now().as_nanos() as i128;
    (PipelineServer::new(config(clock.clone())), offset)
}

fn keys() -> Vec<Key> {
    serve_mix().into_iter().map(|(k, _)| k).collect()
}

fn request(key: &Key, input: Arc<Buffer>) -> Request {
    Request::new(key.app, ScheduleChoice::Tuned, input)
}

/// One served request.
#[derive(Debug, Clone)]
struct Served {
    key: Key,
    /// Seconds from the rung's origin.
    due: f64,
    start: f64,
    end: f64,
    /// The host's slowdown around the part of the ladder it was served in
    /// (1 when not measured).
    slowdown: f64,
    allocs: AllocCount,
    counters: CounterSnapshot,
    digest: Option<u64>,
}

/// Times on the reference core (see `speed`).
impl Served {
    fn latency_ms(&self) -> f64 {
        (self.end - self.due) * 1e3 / self.slowdown
    }
    fn lateness_ms(&self) -> f64 {
        (self.start - self.due) * 1e3 / self.slowdown
    }
    fn call_s(&self) -> f64 {
        (self.end - self.start) / self.slowdown
    }
}

/// One `PipelineServer::call` inside a bench `call` span: when it returned,
/// what it allocated on this thread, and its output's digest.
struct Called {
    returned: Instant,
    allocs: AllocCount,
    result: Result<(u64, CounterSnapshot), String>,
}

fn call(server: &PipelineServer, key: &Key, input: Arc<Buffer>) -> Called {
    let before = AllocCount::now();
    let result = {
        let _call = layer_span("call")
            .arg("app", key.app.name())
            .arg("px", key.pixels());
        server.call(&request(key, input))
    };
    let returned = Instant::now();
    let allocs = AllocCount::now().since(before);
    let result = result
        .map(|r| (digest(&r.output), r.counters))
        .map_err(|e| format!("{}: {e}", key.label()));
    Called {
        returned,
        allocs,
        result,
    }
}

/// Warms every program and takes each one's first response: the set-up,
/// and each program's time to first output.
fn set_up(
    server: &PipelineServer,
    inputs: &mut Inputs,
    ttfo_ms: &mut Vec<(Key, f64)>,
    meter: &mut Meter,
) -> LayerResult<Outputs> {
    let mut outputs = Vec::new();
    for key in keys() {
        let input = inputs.get(&key);
        let start = Instant::now();
        let op = op_span(&key);
        {
            let _warm = layer_span("warm");
            server
                .warm(key.app, key.schedule, key.width, key.height)
                .map_err(|e| format!("{}: warm failed: {e}", key.label()))?;
        }
        let (d, _) = call(server, &key, input).result?;
        drop(op);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        ttfo_ms.push((key, ms / meter.op_done()));
        outputs.push((key, d));
    }
    Ok(outputs)
}

/// Plays one rung's schedule from `CLIENTS` threads, its due times
/// stretched by `stretch`. A thread takes the next arrival, waits until it
/// is due if it is early, and calls.
fn play(
    server: &PipelineServer,
    schedule: &[Arrival],
    stretch: f64,
    inputs: &mut Inputs,
) -> Vec<Served> {
    let inputs: Vec<Arc<Buffer>> = schedule.iter().map(|a| inputs.get(&a.key)).collect();
    let next = AtomicUsize::new(0);
    // A short lead so both clients are ready for the first arrival.
    let origin = Instant::now() + Duration::from_millis(20);
    let mut served: Vec<Served> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(a) = schedule.get(i) else { break };
                        let due_s = a.due_s * stretch;
                        let due = origin + Duration::from_secs_f64(due_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let start = Instant::now();
                        let called = {
                            let _op = op_span(&a.key);
                            call(server, &a.key, Arc::clone(&inputs[i]))
                        };
                        let (digest, counters) = match called.result {
                            Ok((d, c)) => (Some(d), c),
                            Err(e) => {
                                eprintln!("{e}");
                                (None, CounterSnapshot::default())
                            }
                        };
                        let since = |t: Instant| t.duration_since(origin).as_secs_f64();
                        mine.push(Served {
                            key: a.key,
                            due: due_s,
                            start: since(start),
                            end: since(called.returned),
                            slowdown: 1.0,
                            allocs: called.allocs,
                            counters,
                            digest,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a client thread panicked"))
            .collect()
    });
    served.sort_by(|a, b| a.due.total_cmp(&b.due));
    served
}

/// Plays one part of the ladder at its rate on the reference core, as the
/// latest probes saw the host, and puts its times on that core (see
/// `speed`).
fn part_of_ladder(
    server: &PipelineServer,
    schedule: &[Arrival],
    meter: &mut Meter,
    inputs: &mut Inputs,
) -> Vec<Served> {
    let mut served = play(server, schedule, meter.current(), inputs);
    let slowdown = meter.op_done();
    for s in &mut served {
        s.slowdown = slowdown;
    }
    served
}

fn rung_seconds(cfg: &Config, rung: usize) -> f64 {
    if rung == NOMINAL {
        cfg.seconds * NOMINAL_SHARE
    } else {
        cfg.seconds * (1.0 - NOMINAL_SHARE) / (LADDER.len() - 1) as f64
    }
}

fn schedule(cfg: &Config, rung: usize) -> Vec<Arrival> {
    serve_schedule(
        cfg.seed ^ ((rung as u64) << 32),
        LADDER[rung],
        rung_seconds(cfg, rung),
    )
}

fn rung_stats(rate: f64, served: &[Served]) -> Rung {
    // A failed request misses any limit.
    let latencies: Vec<f64> = served
        .iter()
        .map(|s| {
            if s.digest.is_some() {
                s.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let quarter = (served.len() / 4).max(1);
    let lateness =
        |part: &[Served]| median(&part.iter().map(Served::lateness_ms).collect::<Vec<_>>());
    let first = lateness(&served[..quarter.min(served.len())]);
    let last = lateness(&served[served.len().saturating_sub(quarter)..]);
    eprintln!(
        "rung {rate:>5} req/s: {:>4} requests, p50 {:.1} ms, p99 {:.1} ms, lateness {first:.1} -> {last:.1} ms",
        served.len(),
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.99)
    );
    Rung {
        rate,
        p99_ms: percentile(&latencies, 0.99),
        backlog_growth_ms: last - first,
    }
}

pub fn run(cfg: &Config) -> LayerResult<Outcome> {
    let mut out = Outcome::default();
    let mut inputs = Inputs::default();
    let mut checks = Vec::new();
    let mut live = None;
    let mut ttfo = Vec::new();
    let mut meter = Meter::median_of(PROBES);
    for _ in 0..SETUP_REPS {
        let ((srv, outputs), seconds) = speed::setup_seconds(&mut meter, |m| {
            let (srv, _) = server();
            let outputs = set_up(&srv, &mut inputs, &mut ttfo, m);
            (srv, outputs)
        });
        checks.extend(outputs?);
        out.setup_s.push(seconds);
        live = Some(srv);
    }
    out.ttfo_ms = medians_by_key(ttfo).into_values().collect();
    let srv = live.expect("at least one set-up");

    // The nominal rung plays in equal parts, one before each other rung, so
    // a slow spell of a shared host does not fall on it alone. Each part is
    // offered at its rate on the reference core: its arrivals are spaced by
    // the slowdown the latest probe saw, so a slow spell does not push the
    // host past its capacity at a lower rung.
    let others: Vec<usize> = (0..LADDER.len()).filter(|&r| r != NOMINAL).collect();
    let nominal_schedule = schedule(cfg, NOMINAL);
    let part = nominal_schedule.len().div_ceil(others.len());
    let mut all = Vec::new();
    let mut nominal = Vec::new();
    let mut rungs = Vec::new();
    for (i, &rung) in others.iter().enumerate() {
        let n = nominal_schedule.len();
        let chunk = &nominal_schedule[(i * part).min(n)..((i + 1) * part).min(n)];
        let t0 = chunk.first().map_or(0.0, |a| a.due_s);
        let rebased: Vec<Arrival> = chunk
            .iter()
            .map(|a| Arrival {
                due_s: a.due_s - t0,
                ..*a
            })
            .collect();
        nominal.extend(part_of_ladder(&srv, &rebased, &mut meter, &mut inputs));
        let served = part_of_ladder(&srv, &schedule(cfg, rung), &mut meter, &mut inputs);
        rungs.push(rung_stats(LADDER[rung], &served));
        all.extend(served);
    }
    rungs.push(rung_stats(LADDER[NOMINAL], &nominal));
    rungs.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    out.rungs = rungs;
    all.extend(nominal.iter().cloned());
    out.peak_rss_mib = host::peak_rss_mib();
    let stats = srv.stats();

    let ok: Vec<&Served> = nominal.iter().filter(|s| s.digest.is_some()).collect();
    out.req_ms = ok.iter().map(|s| s.latency_ms()).collect();
    out.mpix_s = mpix_per_s(ok.iter().map(|s| (s.key, s.call_s())));

    if cfg.trace {
        let mut layers = traced(cfg, &nominal, &mut inputs)?;
        layers.serve.rejected = stats.rejected as f64;
        layers.serve.shed = stats.shed as f64;
        layers.serve.pool_hit_rate = stats.pool.hit_rate();
        layers.serve.pool_peak_in_use_bytes = stats.pool.peak_in_use_bytes as f64;
        layers.serve.gen_lag_ms_p99 = percentile(
            &nominal.iter().map(Served::lateness_ms).collect::<Vec<_>>(),
            0.99,
        );
        out.layers = Some(layers);
    }
    drop(srv);

    let mut refs = References::default();
    for key in keys() {
        refs.ensure(&key, &mut inputs)?;
    }
    checks.extend(all.iter().filter_map(|s| s.digest.map(|d| (s.key, d))));
    let errors = all.iter().filter(|s| s.digest.is_none()).count() as u64;
    out.attempted = checks.len() as u64 + errors;
    out.wrong = checks.iter().filter(|(k, d)| !refs.matches(k, *d)).count() as u64;
    out.failed = errors + out.wrong;
    Ok(out)
}

/// A traced set-up on a fresh server, then the nominal rung replayed on
/// it with tracing on; per-op counts from one instrumented realize per app.
fn traced(cfg: &Config, untraced: &[Served], inputs: &mut Inputs) -> LayerResult<LayerData> {
    let mut layers = LayerData::default();
    let (srv, offset) = server();
    halide_trace::set_enabled(true);
    let _ = spans::drain(0);
    set_up(&srv, inputs, &mut Vec::new(), &mut Meter::new())?;
    let setup_spans = spans::drain(offset);
    let replay_start = Instant::now();
    let served = play(&srv, &schedule(cfg, NOMINAL), 1.0, inputs);
    let replay_wall = replay_start.elapsed().as_secs_f64();
    halide_trace::set_enabled(false);
    let replay = spans::drain(offset);

    let call_s = |s: &[Served]| s.iter().map(|s| s.call_s() * s.slowdown).sum::<f64>();
    layers.trace_overhead = call_s(&served) / call_s(untraced);
    for s in &served {
        layers.allocated(&s.key, s.allocs, &s.counters);
    }
    layers.serve = serve_layer(&replay, replay_wall);
    for (key, ns) in realize_by_key(&replay) {
        let a = layers.apps.entry(key.0).or_default();
        a.realize_ns += ns;
        a.realize_px += key.1;
    }
    let mut all = setup_spans;
    all.extend(replay);
    layers.spans = spans::nest(all);

    let mut instrumented = HashMap::new();
    for key in keys() {
        let p = Prepared::new(key, inputs.get(&key))?;
        layers.program(&p.built.module.stmt, &p.program);
        if let std::collections::hash_map::Entry::Vacant(e) = instrumented.entry(key.app) {
            let r = p.realize(&p.realizer(true))?;
            layers.instrumented(&key, &r.realization.counters);
            e.insert(());
        }
    }
    Ok(layers)
}

/// Serve's own spans per request: `request` → `queued`, `compile`,
/// `realize`, `respond`, on one tid per request.
fn serve_layer(spans: &[Span], wall_s: f64) -> ServeLayer {
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.pid == PID_SERVE && s.name == name)
            .map(|s| s.dur as f64 / 1e6)
            .collect()
    };
    let queue = durs("queued");
    let realize = durs("realize");
    let by_tid = |name: &str| -> HashMap<u64, f64> {
        spans
            .iter()
            .filter(|s| s.pid == PID_SERVE && s.name == name)
            .map(|s| (s.tid, s.dur as f64 / 1e6))
            .collect()
    };
    let realize_by_tid = by_tid("realize");
    let overhead: Vec<f64> = by_tid("request")
        .into_iter()
        .filter_map(|(tid, total)| realize_by_tid.get(&tid).map(|r| total - r))
        .collect();
    let compiles: Vec<&Span> = spans
        .iter()
        .filter(|s| s.pid == PID_SERVE && s.name == "compile")
        .collect();
    let hits = compiles
        .iter()
        .filter(|s| s.arg("cache") == Some("hit"))
        .count();
    ServeLayer {
        queue_ms_p50: percentile(&queue, 0.5),
        queue_ms_p99: percentile(&queue, 0.99),
        realize_ms_p50: percentile(&realize, 0.5),
        respond_ms_p50: percentile(&durs("respond"), 0.5),
        overhead_ms_p50: percentile(&overhead, 0.5),
        busy_frac: realize.iter().sum::<f64>() / 1e3 / (wall_s * MAX_IN_FLIGHT as f64),
        cache_hit_rate: if compiles.is_empty() {
            0.0
        } else {
            hits as f64 / compiles.len() as f64
        },
        ..ServeLayer::default()
    }
}

/// Serve `realize` time per (app, output pixels), each request linked to
/// the bench `call` that issued it.
fn realize_by_key(spans: &[Span]) -> Vec<((AppKind, f64), f64)> {
    let links = spans::link_requests(spans);
    let mut out = Vec::new();
    for s in spans
        .iter()
        .filter(|s| s.pid == PID_SERVE && s.name == "realize")
    {
        let Some(&call) = links.get(&s.tid) else {
            continue;
        };
        let c = &spans[call];
        let app = AppKind::ALL
            .into_iter()
            .find(|a| Some(a.name()) == c.arg("app"));
        let px = c.arg("px").and_then(|p| p.parse::<f64>().ok());
        if let (Some(app), Some(px)) = (app, px) {
            out.push(((app, px), s.dur as f64));
        }
    }
    out
}
