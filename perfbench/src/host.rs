//! The run fingerprint (pinned configuration, toolchain, source, host) and
//! the process's peak memory.

use std::path::Path;
use std::time::Instant;

use crate::layers::{BACKEND, OPT, THREADS};
use crate::Config;

/// One JSON line recording what produced a run's numbers.
pub fn fingerprint_json(cfg: &Config) -> String {
    let (commit, tree) = source_identity();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        concat!(
            "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, ",
            "\"trace\": {}, \"opt_level\": \"{}\", \"backend\": \"{}\", \"threads\": {}, ",
            "\"instrument\": false, \"rustc\": \"{}\", \"commit\": \"{}\", ",
            "\"source_fnv64\": \"{:016x}\", \"cpu_model\": \"{}\", \"nproc\": {}, ",
            "\"effective_cores\": {:.3}}}}}"
        ),
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        OPT.name(),
        BACKEND.name(),
        THREADS,
        env!("PERFBENCH_RUSTC_VERSION"),
        commit,
        tree,
        cpu_model().replace('"', "'"),
        nproc,
        effective_cores(nproc),
    )
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// How many cores this process really gets: `n` threads spinning together
/// against one spinning alone. `nproc` counts cores a shared host may not
/// give us.
fn effective_cores(n: usize) -> f64 {
    fn spin() -> f64 {
        let start = Instant::now();
        let mut x = 0x1234_5678_u64;
        for _ in 0..20_000_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(x);
        start.elapsed().as_secs_f64()
    }
    let alone = spin();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..n {
            s.spawn(spin);
        }
    });
    n as f64 * alone / start.elapsed().as_secs_f64()
}

/// The git commit when run from a clone, and a digest of the source the
/// benchmark builds (a checkout without `.git` has no commit).
fn source_identity() -> (String, u64) {
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).ok(),
            None => Some(head),
        })
        .map_or_else(|| "none".to_string(), |c| c.trim().to_string());
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    for f in ["Cargo.toml", "Cargo.lock"] {
        files.push(Path::new(f).to_path_buf());
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (commit, h)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_files(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
