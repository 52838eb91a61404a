//! The per-layer metrics of a traced run. Every workload prints the full
//! list; a metric of a layer the workload does not exercise reads 0.

use std::collections::HashMap;

use halide_exec::Program;
use halide_ir::{visit_expr_children, visit_stmt_children, Expr, IrVisitor, Stmt};
use halide_pipelines::AppKind;
use halide_runtime::CounterSnapshot;

use crate::alloc::AllocCount;
use crate::draw::Key;
use crate::spans::Span;
use crate::stats::Metrics;
use crate::Workload;

/// The lowering phases, as (span name, metric infix).
const LOWER_PHASES: [(&str, &str); 7] = [
    ("lower/inline", "inline"),
    ("lower/inject-bounds", "inject_bounds"),
    ("lower/sliding", "sliding"),
    ("lower/flatten", "flatten"),
    ("lower/vectorize", "vectorize"),
    ("lower/licm", "licm"),
    ("lower/simplify", "simplify"),
];

const COMPILE_PHASES: [(&str, &str); 3] = [
    ("compile/linearize", "linearize"),
    ("compile/optimize", "opt"),
    ("compile/emit", "emit"),
];

/// What one app's realizations cost, summed over a workload's operations.
#[derive(Debug, Default, Clone)]
pub struct AppLayer {
    pub realize_ns: f64,
    pub realize_px: f64,
    pub allocs: f64,
    pub alloc_bytes: f64,
    pub alloc_px: f64,
    pub peak_live_bytes: u64,
    pub arith_px: f64,
    pub loads_px: f64,
}

/// Serve-layer figures of the nominal rung (all 0 off `serve`).
#[derive(Debug, Default, Clone)]
pub struct ServeLayer {
    pub queue_ms_p50: f64,
    pub queue_ms_p99: f64,
    pub realize_ms_p50: f64,
    pub respond_ms_p50: f64,
    pub overhead_ms_p50: f64,
    pub busy_frac: f64,
    pub cache_hit_rate: f64,
    pub rejected: f64,
    pub shed: f64,
    pub gen_lag_ms_p99: f64,
    pub pool_hit_rate: f64,
    pub pool_peak_in_use_bytes: f64,
}

#[derive(Debug, Default)]
pub struct LayerData {
    /// Nested spans of every traced phase.
    pub spans: Vec<Span>,
    pub stmt_nodes: Vec<f64>,
    pub insts_before: Vec<f64>,
    pub insts_after: Vec<f64>,
    pub apps: HashMap<AppKind, AppLayer>,
    pub serve: ServeLayer,
    /// Traced over untraced time of the same operations.
    pub trace_overhead: f64,
}

impl LayerData {
    /// Records a compiled program's IR size and instruction counts.
    pub fn program(&mut self, stmt: &Stmt, program: &Program) {
        self.stmt_nodes.push(count_nodes(stmt) as f64);
        let report = program.opt_report();
        self.insts_before.push(report.before_insts as f64);
        self.insts_after.push(report.after_insts as f64);
    }

    /// Adds one realization of `key` that took `ns` and allocated `allocs`
    /// on the calling thread.
    pub fn realized(&mut self, key: &Key, ns: f64, allocs: AllocCount, counters: &CounterSnapshot) {
        let a = self.apps.entry(key.app).or_default();
        a.realize_ns += ns;
        a.realize_px += key.pixels();
        self.allocated(key, allocs, counters);
    }

    /// Adds the allocations of one realization whose time comes from
    /// elsewhere (serve's own `realize` spans).
    pub fn allocated(&mut self, key: &Key, allocs: AllocCount, counters: &CounterSnapshot) {
        let a = self.apps.entry(key.app).or_default();
        a.allocs += allocs.allocs as f64;
        a.alloc_bytes += allocs.bytes as f64;
        a.alloc_px += key.pixels();
        a.peak_live_bytes = a.peak_live_bytes.max(counters.peak_bytes_live);
    }

    /// Per-op counts from one instrumented realization of `key`.
    pub fn instrumented(&mut self, key: &Key, counters: &CounterSnapshot) {
        let a = self.apps.entry(key.app).or_default();
        a.arith_px = counters.arith_ops as f64 / key.pixels();
        a.loads_px = counters.loads as f64 / key.pixels();
    }

    pub fn metrics(&self, workload: Workload) -> Metrics {
        let t = LayerTimes::of(&self.spans);
        let per_program = |ns: f64| ns / 1e6 / t.programs;
        let phase = |name: &str| sum(&self.spans, &|s| s.pid == 1 && s.name == name);

        let mut m = Metrics::default();
        m.push("frontend_ms", per_program(t.frontend), "ms");
        m.push("lower_ms", per_program(t.lower), "ms");
        for (span, infix) in LOWER_PHASES {
            m.push(format!("lower.{infix}_ms"), per_program(phase(span)), "ms");
        }
        m.push("lower.stmt_nodes", mean(&self.stmt_nodes), "count");
        m.push("compile_ms", per_program(t.compile), "ms");
        for (span, infix) in COMPILE_PHASES {
            m.push(
                format!("compile.{infix}_ms"),
                per_program(phase(span)),
                "ms",
            );
        }
        m.push("pir.insts_before", mean(&self.insts_before), "count");
        m.push("pir.insts_after", mean(&self.insts_after), "count");

        for app in AppKind::ALL {
            let a = self.apps.get(&app).cloned().unwrap_or_default();
            let per = |v: f64, px: f64| if px > 0.0 { v / px } else { 0.0 };
            let slug = app.slug();
            m.push(
                format!("realize_ns_px.{slug}"),
                per(a.realize_ns, a.realize_px),
                "ns/px",
            );
            m.push(
                format!("allocs_px.{slug}"),
                per(a.allocs, a.alloc_px),
                "1/px",
            );
            m.push(
                format!("alloc_bytes_px.{slug}"),
                per(a.alloc_bytes, a.alloc_px),
                "B/px",
            );
            m.push(format!("arith_px.{slug}"), a.arith_px, "1/px");
            m.push(format!("loads_px.{slug}"), a.loads_px, "1/px");
            m.push(
                format!("peak_live_bytes.{slug}"),
                a.peak_live_bytes as f64,
                "B",
            );
        }

        let s = &self.serve;
        m.push("pool.hit_rate", s.pool_hit_rate, "ratio");
        m.push("pool.peak_in_use_bytes", s.pool_peak_in_use_bytes, "B");
        m.push("serve.queue_ms_p50", s.queue_ms_p50, "ms");
        m.push("serve.queue_ms_p99", s.queue_ms_p99, "ms");
        m.push("serve.realize_ms_p50", s.realize_ms_p50, "ms");
        m.push("serve.respond_ms_p50", s.respond_ms_p50, "ms");
        m.push("serve.overhead_ms_p50", s.overhead_ms_p50, "ms");
        m.push("serve.busy_frac", s.busy_frac, "ratio");
        m.push("serve.cache_hit_rate", s.cache_hit_rate, "ratio");
        m.push("serve.rejected", s.rejected, "count");
        m.push("serve.shed", s.shed, "count");
        m.push("serve.gen_lag_ms_p99", s.gen_lag_ms_p99, "ms");

        for w in Workload::ALL {
            let v = if w == workload {
                self.trace_overhead
            } else {
                0.0
            };
            m.push(format!("trace.overhead.{}", w.name()), v, "ratio");
        }

        m.push(
            "bench.glue_frac",
            if t.ops > 0.0 { t.glue / t.ops } else { 0.0 },
            "ratio",
        );
        m
    }

    /// Each layer's share of the traced time: the top-level bench spans
    /// (the operations), split by the layer spans inside them. What no
    /// layer span covers is bench glue.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let t = LayerTimes::of(&self.spans);
        [
            ("frontend", t.frontend),
            ("lower", t.lower),
            ("compile", t.compile),
            ("realize", t.realize),
            ("serve", t.call),
            ("glue", t.glue),
        ]
        .into_iter()
        .map(|(name, ns)| (name, if t.top > 0.0 { ns / t.top } else { 0.0 }))
        .collect()
    }
}

/// Span time per layer over a traced run, in nanoseconds.
struct LayerTimes {
    /// Programs built (and compiled): bench `build` spans, or serve's
    /// `warm`, which builds and compiles inside the server.
    programs: f64,
    frontend: f64,
    lower: f64,
    compile: f64,
    realize: f64,
    call: f64,
    /// Self time of the bench `op` spans.
    glue: f64,
    ops: f64,
    /// All top-level bench spans.
    top: f64,
}

impl LayerTimes {
    fn of(spans: &[Span]) -> LayerTimes {
        let bench = |name: &'static str| sum(spans, &move |s: &Span| s.is_bench(name));
        let build = bench("build");
        let warm = bench("warm");
        let lower = sum(spans, &|s| s.pid == 1 && s.name.starts_with("lower/"));
        // Inside `warm` the compile phases are the only compile record.
        let warm_compile = if warm > 0.0 {
            sum(spans, &|s| s.pid == 1 && s.name.starts_with("compile/"))
        } else {
            0.0
        };
        let programs = spans
            .iter()
            .filter(|s| s.is_bench("build") || s.is_bench("warm"))
            .count();
        LayerTimes {
            programs: programs.max(1) as f64,
            frontend: build + warm - lower - warm_compile,
            lower,
            compile: bench("compile") + warm_compile,
            realize: bench("realize"),
            call: bench("call"),
            glue: spans
                .iter()
                .filter(|s| s.is_bench("op"))
                .fold(0.0, |total, s| total + s.self_ns as f64),
            ops: bench("op"),
            top: sum(spans, &|s| s.cat == "bench" && s.parent.is_none()),
        }
    }
}

/// Total duration of the spans `keep` selects (0, not -0, when none).
fn sum(spans: &[Span], keep: &dyn Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| keep(s))
        .fold(0.0, |total, s| total + s.dur as f64)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Statement plus expression nodes of a lowered statement.
fn count_nodes(stmt: &Stmt) -> u64 {
    struct Counter(u64);
    impl IrVisitor for Counter {
        fn visit_expr(&mut self, e: &Expr) {
            self.0 += 1;
            visit_expr_children(self, e);
        }
        fn visit_stmt(&mut self, s: &Stmt) {
            self.0 += 1;
            visit_stmt_children(self, s);
        }
    }
    let mut c = Counter(0);
    c.visit_stmt(stmt);
    c.0
}
