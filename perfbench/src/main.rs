//! The repository benchmark. One workload per run:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <render|iterate|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics untraced
//! (`--trace 0`), or the per-layer metrics of a traced run (`--trace 1`).
//! The lines before it record the pinned configuration and the host, and
//! the host's speed during the run (see `speed`).
//! `perfbench/README.md` explains every workload and metric.

mod alloc;
mod draw;
mod host;
mod iterate;
mod layers;
mod render;
mod report;
mod serve;
mod spans;
mod speed;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::LayerData;
use stats::{Metrics, Rung};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Render,
    Iterate,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Render, Workload::Iterate, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Render => "render",
            Workload::Iterate => "iterate",
            Workload::Serve => "serve",
        }
    }

    /// The p99 latency limit `slo_rps` is measured against (also recorded
    /// in each workload's `why` in `BENCHMARK.json`). The closed loops'
    /// limits sit far above their slowest operation, so their `slo_rps` is
    /// the rate they sustain.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::Render => 10_000.0,
            Workload::Iterate => 10_000.0,
            Workload::Serve => 1_000.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// Everything a workload measured, before it becomes metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// Outputs that differ from the breadth-first reference.
    pub wrong: u64,
    pub setup_s: Vec<f64>,
    /// Time to first output: each program's median over its repeats.
    pub ttfo_ms: Vec<f64>,
    /// Latency from the due time: per request at `serve`'s nominal rate; in
    /// a closed loop, each program's median.
    pub req_ms: Vec<f64>,
    /// Output Mpix per second of the pixel-producing call, per program.
    pub mpix_s: Vec<f64>,
    pub rungs: Vec<Rung>,
    pub peak_rss_mib: f64,
    pub layers: Option<LayerData>,
}

impl Outcome {
    /// The end-to-end metrics. Every time and rate is already on the
    /// reference core speed (see `speed`).
    fn end_to_end(&self, workload: Workload) -> Metrics {
        let mut m = Metrics::default();
        m.push("setup_s", stats::median(&self.setup_s), "s");
        m.push("peak_rss_mib", self.peak_rss_mib, "MiB");
        m.push("render_mpix_s", stats::geomean(&self.mpix_s), "Mpix/s");
        m.push("ttfo_ms_p50", stats::percentile(&self.ttfo_ms, 0.5), "ms");
        m.push("ttfo_ms_p90", stats::percentile(&self.ttfo_ms, 0.9), "ms");
        m.push("req_ms_p50", stats::percentile(&self.req_ms, 0.5), "ms");
        m.push("req_ms_p99", stats::percentile(&self.req_ms, 0.99), "ms");
        m.push(
            "slo_rps",
            stats::slo_rps(&self.rungs, workload.latency_limit_ms()),
            "1/s",
        );
        m
    }
}

/// Each program's output Mpix per second of its median call time.
pub fn mpix_per_s(call_s: impl IntoIterator<Item = (draw::Key, f64)>) -> Vec<f64> {
    stats::medians_by_key(call_s)
        .into_iter()
        .map(|(key, s)| key.pixels() / s / 1e6)
        .collect()
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark's own tracing is the only tracing: start from a known
    // state whatever the environment says.
    halide_trace::set_enabled(false);
    println!("{}", host::fingerprint_json(&cfg));

    let outcome = match cfg.workload {
        Workload::Render => render::run(&cfg),
        Workload::Iterate => iterate::run(&cfg),
        Workload::Serve => serve::run(&cfg),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };

    println!("{}", speed::record_json());
    let metrics = if cfg.trace {
        let layers = outcome
            .layers
            .as_ref()
            .expect("a traced run records layer data");
        for (layer, share) in layers.shares() {
            eprintln!("share of traced time: {layer:<9} {:>6.1}%", share * 100.0);
        }
        layers.metrics(cfg.workload)
    } else {
        outcome.end_to_end(cfg.workload)
    };
    for m in &metrics.0 {
        eprintln!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!("attempted {} failed {}", outcome.attempted, outcome.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.wrong == 0,
        outcome.attempted,
        outcome.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
