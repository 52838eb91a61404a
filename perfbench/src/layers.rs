//! Calls into each layer's public entry point, each wrapped in a bench-side
//! span (category `bench`) so a traced run can attribute time to layers
//! without tracing inside the program. Untraced, a span costs one relaxed
//! atomic load.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use halide_exec::{Backend, OptLevel, Program, Realization, Realizer};
use halide_ir::ScalarType;
use halide_pipelines::apps::BuiltApp;
use halide_runtime::Buffer;
use halide_trace::Span;

use crate::alloc::AllocCount;
use crate::draw::Key;

/// The pinned configuration of every timed realize. The optimizer level is
/// explicit rather than read from `HALIDE_OPT`, and instrumentation is off
/// because `Realizer::new` defaults it on, which throttles the compiled
/// engine several-fold.
pub const OPT: OptLevel = OptLevel::Default;
pub const BACKEND: Backend = Backend::Compiled;
pub const THREADS: usize = 1;

pub type LayerResult<T> = Result<T, String>;

static NEXT_OP: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The operation this thread is running, for the layer spans inside it.
    static OP: Cell<u64> = const { Cell::new(0) };
}

/// Opens the span of one operation under a fresh id, which every layer span
/// this thread opens until the next operation carries.
pub fn op_span(key: &Key) -> Span {
    let id = NEXT_OP.fetch_add(1, Ordering::Relaxed) + 1;
    OP.with(|op| op.set(id));
    let span = halide_trace::span("op", "bench");
    if halide_trace::enabled() {
        span.arg("op", id).arg("key", key.label())
    } else {
        span
    }
}

/// A bench span around one layer call, tagged with the current operation.
pub fn layer_span(name: &'static str) -> Span {
    halide_trace::span(name, "bench").arg("op", OP.with(Cell::get))
}

/// `AppKind::build`: the `pipelines`, `lang`, `schedule` and `lower` layers.
pub fn build(key: &Key) -> LayerResult<BuiltApp> {
    let _span = layer_span("build");
    key.app
        .build(key.width, key.height, key.schedule)
        .map_err(|e| format!("{}: lowering failed: {e}", key.label()))
}

/// `Program::compile_with`: the `exec` compiler.
pub fn compile(key: &Key, built: &BuiltApp) -> LayerResult<Arc<Program>> {
    let _span = layer_span("compile");
    Program::compile_with(&built.module, OPT)
        .map(Arc::new)
        .map_err(|e| format!("{}: compile failed: {e}", key.label()))
}

/// A program ready to realize: its module, compiled program and input.
pub struct Prepared {
    pub key: Key,
    pub built: BuiltApp,
    pub program: Arc<Program>,
    pub input: Arc<Buffer>,
}

impl Prepared {
    pub fn new(key: Key, input: Arc<Buffer>) -> LayerResult<Prepared> {
        let built = build(&key)?;
        let program = compile(&key, &built)?;
        Ok(Prepared {
            key,
            built,
            program,
            input,
        })
    }

    pub fn realizer(&self, instrument: bool) -> Realizer<'_> {
        Realizer::with_program(&self.built.module, Arc::clone(&self.program))
            .input_shared(self.built.input_name.clone(), Arc::clone(&self.input))
            .threads(THREADS)
            .instrument(instrument)
            .backend(BACKEND)
            .opt_level(OPT)
    }

    /// `Realizer::realize`: the `exec` machine and the `runtime`.
    pub fn realize(&self, realizer: &Realizer<'_>) -> LayerResult<Realized> {
        let key = &self.key;
        let before = AllocCount::now();
        let start = Instant::now();
        let result = {
            let _span = layer_span("realize");
            realizer.realize(&key.app.output_extents(key.width, key.height))
        };
        let seconds = start.elapsed().as_secs_f64();
        let allocs = AllocCount::now().since(before);
        let realization = result.map_err(|e| format!("{}: realize failed: {e}", key.label()))?;
        Ok(Realized {
            seconds,
            allocs,
            realization,
        })
    }
}

pub struct Realized {
    pub seconds: f64,
    pub allocs: AllocCount,
    pub realization: Realization,
}

/// One input per (app, shape), shared by every program that reads it.
#[derive(Default)]
pub struct Inputs(HashMap<(halide_pipelines::AppKind, i64, i64), Arc<Buffer>>);

impl Inputs {
    pub fn get(&mut self, key: &Key) -> Arc<Buffer> {
        Arc::clone(
            self.0
                .entry((key.app, key.width, key.height))
                .or_insert_with(|| Arc::new(key.app.make_input(key.width, key.height))),
        )
    }
}

/// A 64-bit digest of a buffer's type, shape and exact element bits.
pub fn digest(buffer: &Buffer) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |word: u64| h = (h ^ word).wrapping_mul(PRIME).rotate_left(29);
    for d in buffer.dims() {
        mix(d.min as u64);
        mix(d.extent as u64);
    }
    let float = matches!(buffer.ty(), ScalarType::Float(_));
    mix(float as u64);
    for i in 0..buffer.len() {
        mix(if float {
            buffer.get_flat_f64(i).to_bits()
        } else {
            buffer.get_flat_i64(i) as u64
        });
    }
    h
}

/// Outputs produced during set-up, as (program, digest), checked with the
/// rest at the end of a run.
pub type Outputs = Vec<(Key, u64)>;

/// Digests of the breadth-first (naive) outputs: the reference every
/// scheduled output must match bit for bit.
#[derive(Default)]
pub struct References(HashMap<Key, u64>);

impl References {
    /// Realizes the reference of `key` unless it is already known.
    pub fn ensure(&mut self, key: &Key, inputs: &mut Inputs) -> LayerResult<()> {
        let reference = key.reference();
        if let Entry::Vacant(e) = self.0.entry(reference) {
            e.insert(reference_digest(&reference, inputs)?);
        }
        Ok(())
    }

    /// Whether `digest` matches the reference of `key`.
    pub fn matches(&self, key: &Key, digest: u64) -> bool {
        self.0.get(&key.reference()) == Some(&digest)
    }

    pub fn digests(&self) -> &HashMap<Key, u64> {
        &self.0
    }
}

fn reference_digest(reference: &Key, inputs: &mut Inputs) -> LayerResult<u64> {
    let prepared = Prepared::new(*reference, inputs.get(reference))?;
    let realized = prepared.realize(&prepared.realizer(false))?;
    Ok(digest(&realized.realization.output))
}
