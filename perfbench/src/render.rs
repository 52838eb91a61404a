//! `render`: the six tuned apps at 384×256, compiled once in set-up, then
//! realized back to back by one caller on one thread (the paper's Sec. 6
//! measurement). All timed work is `Realizer::realize`.

use std::time::Instant;

use halide_pipelines::{AppKind, ScheduleChoice};

use crate::draw::{Key, Rng};
use crate::layers::{digest, op_span, Inputs, LayerResult, Outputs, Prepared, References};
use crate::report::LayerData;
use crate::speed::{self, Meter};
use crate::stats::{medians_by_key, percentile, Rung};
use crate::{host, mpix_per_s, spans, Config, Outcome, SETUP_REPS};

const SHAPE: (i64, i64) = (384, 256);
/// Rounds of six frames each, at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;

fn keys() -> Vec<Key> {
    AppKind::ALL
        .into_iter()
        .map(|app| Key::new(app, ScheduleChoice::Tuned, SHAPE))
        .collect()
}

/// Builds, compiles and first-realizes every app: the set-up, and each
/// app's time to first output. Returns the programs and their first
/// outputs' digests.
fn set_up(
    inputs: &mut Inputs,
    ttfo_ms: &mut Vec<(Key, f64)>,
    meter: &mut Meter,
) -> LayerResult<(Vec<Prepared>, Outputs)> {
    let mut programs = Vec::new();
    let mut outputs = Vec::new();
    for key in keys() {
        let start = Instant::now();
        let (p, first) = {
            let _op = op_span(&key);
            let p = Prepared::new(key, inputs.get(&key))?;
            let first = p.realize(&p.realizer(false))?;
            (p, first)
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        ttfo_ms.push((key, ms / meter.op_done()));
        outputs.push((key, digest(&first.realization.output)));
        programs.push(p);
    }
    Ok((programs, outputs))
}

/// One frame: realize, then digest the output for the final check.
struct Frame {
    key: Key,
    /// Time in `Realizer::realize`.
    seconds: f64,
    /// The whole operation, digest included.
    wall: f64,
    /// The host's slowdown around the frame (1 when not measured).
    slowdown: f64,
    digest: Option<u64>,
}

fn frame(p: &Prepared, layers: Option<&mut LayerData>) -> Frame {
    let start = Instant::now();
    let _op = op_span(&p.key);
    let realizer = p.realizer(false);
    let mut f = match p.realize(&realizer) {
        Ok(r) => {
            if let Some(l) = layers {
                l.realized(&p.key, r.seconds * 1e9, r.allocs, &r.realization.counters);
            }
            Frame {
                key: p.key,
                seconds: r.seconds,
                wall: 0.0,
                slowdown: 1.0,
                digest: Some(digest(&r.realization.output)),
            }
        }
        Err(e) => {
            eprintln!("{e}");
            Frame {
                key: p.key,
                seconds: 0.0,
                wall: 0.0,
                slowdown: 1.0,
                digest: None,
            }
        }
    };
    f.wall = start.elapsed().as_secs_f64();
    f
}

pub fn run(cfg: &Config) -> LayerResult<Outcome> {
    let mut out = Outcome::default();
    let mut inputs = Inputs::default();
    let mut checks = Vec::new();
    let mut programs = Vec::new();
    let mut ttfo = Vec::new();
    let mut meter = Meter::new();
    for _ in 0..SETUP_REPS {
        let (set, seconds) =
            speed::setup_seconds(&mut meter, |m| set_up(&mut inputs, &mut ttfo, m));
        let (p, outputs) = set?;
        out.setup_s.push(seconds);
        checks.extend(outputs);
        programs = p;
    }

    // Timed: whole rounds, each a seeded order of the six apps.
    let mut rng = Rng::new(cfg.seed);
    let mut order = Vec::new();
    let mut frames = Vec::new();
    let start = Instant::now();
    let deadline = cfg.deadline(start);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let mut round: Vec<usize> = (0..programs.len()).collect();
        rng.shuffle(&mut round);
        for &i in &round {
            let mut f = frame(&programs[i], None);
            f.slowdown = meter.op_done();
            frames.push(f);
        }
        order.extend(round);
        rounds += 1;
    }
    out.peak_rss_mib = host::peak_rss_mib();

    out.ttfo_ms = medians_by_key(ttfo).into_values().collect();
    let ok = || frames.iter().filter(|f| f.digest.is_some());
    let seconds = |f: &Frame| f.seconds / f.slowdown;
    out.req_ms = medians_by_key(ok().map(|f| (f.key, seconds(f) * 1e3)))
        .into_values()
        .collect();
    out.mpix_s = mpix_per_s(ok().map(|f| (f.key, seconds(f))));
    out.rungs.push(Rung {
        rate: frames.len() as f64 / frames.iter().map(|f| f.wall / f.slowdown).sum::<f64>(),
        p99_ms: percentile(&out.req_ms, 0.99),
        backlog_growth_ms: 0.0,
    });

    if cfg.trace {
        out.layers = Some(traced(&programs, &order, &frames, &mut inputs)?);
    }

    // The check runs last, so the breadth-first reference's memory stays out
    // of `peak_rss_mib`.
    let mut refs = References::default();
    for key in keys() {
        refs.ensure(&key, &mut inputs)?;
    }
    checks.extend(frames.iter().filter_map(|f| f.digest.map(|d| (f.key, d))));
    out.attempted =
        checks.len() as u64 + frames.iter().filter(|f| f.digest.is_none()).count() as u64;
    out.wrong = checks.iter().filter(|(k, d)| !refs.matches(k, *d)).count() as u64;
    out.failed = out.attempted - checks.len() as u64 + out.wrong;
    Ok(out)
}

/// Replays the timed frames with tracing on, after one traced set-up, and
/// takes per-op counts from one instrumented realize per app.
fn traced(
    programs: &[Prepared],
    order: &[usize],
    untraced: &[Frame],
    inputs: &mut Inputs,
) -> LayerResult<LayerData> {
    let mut layers = LayerData::default();
    halide_trace::set_enabled(true);
    let _ = spans::drain(0);
    let (fresh, _) = set_up(inputs, &mut Vec::new(), &mut Meter::new())?;
    let mut traced_s = 0.0;
    for &i in order {
        traced_s += frame(&programs[i], Some(&mut layers)).wall;
    }
    halide_trace::set_enabled(false);
    layers.spans = spans::nest(spans::drain(0));
    layers.trace_overhead = traced_s / untraced.iter().map(|f| f.wall).sum::<f64>();

    for p in &fresh {
        layers.program(&p.built.module.stmt, &p.program);
        let r = p.realize(&p.realizer(true))?;
        layers.instrumented(&p.key, &r.realization.counters);
    }
    Ok(layers)
}
