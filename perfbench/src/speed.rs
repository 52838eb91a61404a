//! How fast the host ran this process's core, measured by a fixed probe
//! between operations, and the factor that puts each end-to-end time on one
//! reference core speed.
//!
//! On a shared host the core this process runs on slows down in spells of
//! a few seconds that come and go for minutes: code bound by the core's
//! issue throughput, like the inner loops of the engines and the compiler,
//! runs up to ~1.8x slower, while latency-bound code hardly slows, which
//! points at another tenant on the core's other hardware thread. That moved
//! every time metric by 15–35% between runs of the same code, far more than
//! the changes the benchmark exists to see. The probe is throughput-bound
//! the same way and touches no memory, so its time tracks that contention
//! and nothing the program does: it is the benchmark's own code, the same on
//! every commit. Each operation's time is divided by its
//! slowdown, the mean of the probes just before and just after it over
//! [`REFERENCE_PROBE_S`], which reports it at the speed of an uncontended
//! core. On a quiet host the slowdown is ~1 and the figures are the raw ones.

use std::sync::Mutex;
use std::time::Instant;

use crate::stats::{median, percentile};

/// The probe's time on the benchmark host (Intel Xeon, 2.1 GHz) in its
/// least contended spells, which read 5.2–5.4 ms: the speed every time is
/// put back on.
pub const REFERENCE_PROBE_S: f64 = 5.2e-3;

/// Every probe's slowdown, for the run's record.
static SAMPLES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Runs the probe `n` times and returns the host's slowdown now, the
/// median probe time over [`REFERENCE_PROBE_S`], and the seconds spent.
fn probe(n: usize) -> (f64, f64) {
    let start = Instant::now();
    let mut slowdowns = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        kernel();
        slowdowns.push(t.elapsed().as_secs_f64() / REFERENCE_PROBE_S);
    }
    SAMPLES.lock().expect("probe samples").extend(&slowdowns);
    (median(&slowdowns), start.elapsed().as_secs_f64())
}

/// Eight independent multiply-add chains, so the core's issue ports, not
/// one chain's latency, bound it, as they bound the engines' inner loops.
fn kernel() {
    let mut x: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..2_000_000 {
        for v in x.iter_mut() {
            *v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        x = std::hint::black_box(x);
    }
}

/// Probes between the operations of one thread and gives each operation
/// its slowdown. Probes run outside every timed interval.
pub struct Meter {
    /// Probes per measurement.
    n: usize,
    /// The slowdown the latest measurement saw.
    before: f64,
    probed_s: f64,
    /// Each operation's slowdown, in order.
    ops: Vec<f64>,
}

impl Meter {
    /// A meter that probes once between operations.
    pub fn new() -> Meter {
        Meter::median_of(1)
    }

    /// A meter that takes the median of `n` probes between operations, for
    /// operations too few for their own spread to average the probe's out.
    /// Measures once, so the first operation has a measurement before it.
    pub fn median_of(n: usize) -> Meter {
        let (before, probed_s) = probe(n);
        Meter {
            n,
            before,
            probed_s,
            ops: Vec::new(),
        }
    }

    /// The slowdown the latest measurement saw: the best guess for an
    /// operation about to start.
    pub fn current(&self) -> f64 {
        self.before
    }

    /// Call right after an operation: measures, and returns the
    /// operation's slowdown, the mean of the measurements on either side.
    pub fn op_done(&mut self) -> f64 {
        let (after, s) = probe(self.n);
        self.probed_s += s;
        let slowdown = (self.before + after) / 2.0;
        self.before = after;
        self.ops.push(slowdown);
        slowdown
    }
}

/// Times a stretch of set-up work during which `meter` probes: its wall
/// time less the probing, divided by the mean slowdown of its operations.
pub fn setup_seconds<T>(meter: &mut Meter, work: impl FnOnce(&mut Meter) -> T) -> (T, f64) {
    let (ops, probed_s) = (meter.ops.len(), meter.probed_s);
    let start = Instant::now();
    let out = work(meter);
    let wall = start.elapsed().as_secs_f64() - (meter.probed_s - probed_s);
    let recent = &meter.ops[ops..];
    if recent.is_empty() {
        return (out, wall);
    }
    (out, wall * recent.len() as f64 / recent.iter().sum::<f64>())
}

/// One JSON line recording the run's probes.
pub fn record_json() -> String {
    let samples = SAMPLES.lock().expect("probe samples");
    let q = |p| percentile(&samples, p);
    format!(
        "{{\"host_speed\": {{\"reference_probe_ms\": {}, \"probes\": {}, \"slowdown_p10\": {:.4}, \"slowdown_p50\": {:.4}, \"slowdown_p90\": {:.4}}}}}",
        REFERENCE_PROBE_S * 1e3,
        samples.len(),
        q(0.1),
        median(&samples),
        q(0.9)
    )
}
