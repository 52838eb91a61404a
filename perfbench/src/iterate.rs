//! `iterate`: the schedule author's and autotuner's edit-run loop. Each
//! program of a seeded draw is built, lowered, compiled and realized once
//! with nothing cached, so lowering and compiling dominate and the machine
//! runs only small images.

use std::time::Instant;

use halide_pipelines::{AppKind, ScheduleChoice};

use crate::draw::{iterate_draw, iterate_keys, Key, ITERATE_SHAPES};
use crate::layers::{digest, op_span, Inputs, LayerResult, Prepared, References};
use crate::report::LayerData;
use crate::speed::{self, Meter};
use crate::stats::{medians_by_key, percentile, Rung};
use crate::{host, mpix_per_s, spans, Config, Outcome, SETUP_REPS};

/// Whole passes over the 36 keys: at least 3 (108 programs), then more
/// while the next pass is expected to end by the deadline, at most
/// `MAX_PASSES`.
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 40;

/// One edit-run step: build, compile, realize, check.
struct Step {
    key: Key,
    /// Build start to first output.
    ttfo_s: f64,
    /// Time in `Realizer::realize`.
    realize_s: f64,
    /// The whole operation, digest included.
    wall: f64,
    /// The host's slowdown around the step (1 when not measured).
    slowdown: f64,
    digest: Option<u64>,
}

fn step(key: Key, inputs: &mut Inputs, mut layers: Option<&mut LayerData>) -> Step {
    let start = Instant::now();
    let input = inputs.get(&key);
    let op = op_span(&key);
    let result = Prepared::new(key, input).and_then(|p| {
        let r = p.realize(&p.realizer(false))?;
        let ttfo_s = start.elapsed().as_secs_f64();
        if let Some(l) = layers.as_deref_mut() {
            l.realized(&key, r.seconds * 1e9, r.allocs, &r.realization.counters);
        }
        Ok((p, ttfo_s, r.seconds, digest(&r.realization.output)))
    });
    drop(op);
    let wall = start.elapsed().as_secs_f64();
    match result {
        Ok((p, ttfo_s, realize_s, d)) => {
            if let Some(l) = layers {
                l.program(&p.built.module.stmt, &p.program);
            }
            Step {
                key,
                ttfo_s,
                realize_s,
                wall,
                slowdown: 1.0,
                digest: Some(d),
            }
        }
        Err(e) => {
            eprintln!("{e}");
            Step {
                key,
                ttfo_s: 0.0,
                realize_s: 0.0,
                wall,
                slowdown: 1.0,
                digest: None,
            }
        }
    }
}

/// The breadth-first reference of every (app, shape) the draw can ask for.
fn references(inputs: &mut Inputs, meter: &mut Meter) -> LayerResult<References> {
    let mut refs = References::default();
    for key in iterate_keys() {
        refs.ensure(&key, inputs)?;
        meter.op_done();
    }
    Ok(refs)
}

pub fn run(cfg: &Config) -> LayerResult<Outcome> {
    let mut out = Outcome::default();
    let mut inputs = Inputs::default();

    // Set-up: the references each program is checked against (nothing else
    // is prepared ahead, by design). Repeated set-ups must agree exactly.
    let mut refs = References::default();
    let mut meter = Meter::new();
    for rep in 0..SETUP_REPS {
        let (r, seconds) = speed::setup_seconds(&mut meter, |m| references(&mut inputs, m));
        let r = r?;
        out.setup_s.push(seconds);
        if rep > 0 && r.digests() != refs.digests() {
            out.wrong += 1;
        }
        refs = r;
    }

    let draw = iterate_draw(cfg.seed, MAX_PASSES);
    let mut steps = Vec::new();
    let start = Instant::now();
    let deadline = cfg.deadline(start);
    for (i, pass) in draw.chunks(iterate_keys().len()).enumerate() {
        let mean_pass = start.elapsed() / (i.max(1) as u32);
        if i >= MIN_PASSES && Instant::now() + mean_pass > deadline {
            break;
        }
        for &key in pass {
            let mut s = step(key, &mut inputs, None);
            s.slowdown = meter.op_done();
            steps.push(s);
        }
    }
    out.peak_rss_mib = host::peak_rss_mib();

    let ok: Vec<&Step> = steps.iter().filter(|s| s.digest.is_some()).collect();
    out.ttfo_ms = medians_by_key(ok.iter().map(|s| (s.key, s.ttfo_s / s.slowdown * 1e3)))
        .into_values()
        .collect();
    out.req_ms = out.ttfo_ms.clone();
    out.mpix_s = mpix_per_s(ok.iter().map(|s| (s.key, s.realize_s / s.slowdown)));
    out.rungs.push(Rung {
        rate: steps.len() as f64 / steps.iter().map(|s| s.wall / s.slowdown).sum::<f64>(),
        p99_ms: percentile(&out.req_ms, 0.99),
        backlog_growth_ms: 0.0,
    });

    if cfg.trace {
        out.layers = Some(traced(&steps, &mut inputs)?);
    }

    out.attempted = (SETUP_REPS - 1 + steps.len()) as u64;
    out.wrong += ok
        .iter()
        .filter(|s| !refs.matches(&s.key, s.digest.expect("filtered")))
        .count() as u64;
    out.failed = (steps.len() - ok.len()) as u64 + out.wrong;
    Ok(out)
}

/// Replays the timed programs with tracing on and takes per-op counts from
/// one instrumented realize per app (tuned, at the smallest shape).
fn traced(untraced: &[Step], inputs: &mut Inputs) -> LayerResult<LayerData> {
    let mut layers = LayerData::default();
    halide_trace::set_enabled(true);
    let _ = spans::drain(0);
    let mut traced_s = 0.0;
    for s in untraced {
        traced_s += step(s.key, inputs, Some(&mut layers)).wall;
    }
    halide_trace::set_enabled(false);
    layers.spans = spans::nest(spans::drain(0));
    layers.trace_overhead = traced_s / untraced.iter().map(|s| s.wall).sum::<f64>();

    for app in AppKind::ALL {
        let key = Key::new(app, ScheduleChoice::Tuned, ITERATE_SHAPES[0]);
        let p = Prepared::new(key, inputs.get(&key))?;
        let r = p.realize(&p.realizer(true))?;
        layers.instrumented(&key, &r.realization.counters);
    }
    Ok(layers)
}
