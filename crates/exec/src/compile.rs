//! The compile pass: lowers a [`halide_ir::Stmt`] into a flat
//! register-machine program.
//!
//! The tree-walking interpreter in [`crate::eval`] re-hashes variable names,
//! re-matches `ExprNode` variants and heap-allocates a `Vec`-backed
//! [`halide_runtime::Value`] for every scalar on every iteration.
//! Compilation removes all of that **ahead of execution**, playing the role
//! of the paper's LLVM code generation step (Sec. 4.6) for this repository's
//! runtime. It runs as three explicit layers (see `docs/optimizer.md` at the
//! repository root):
//!
//! 1. **linearize** (`pir.rs`): resolve every variable to a numeric
//!    frame slot, every buffer to an index, every intrinsic to a function
//!    pointer, and flatten the statement into the linear program IR —
//!    basic blocks over virtual registers, with explicit loop/alloc regions
//!    and side-effect annotations on buffer operations;
//! 2. **optimize** ([`crate::opt`]): a fixed-point pass pipeline over PIR —
//!    constant folding, algebraic simplification, CSE, strength reduction,
//!    loop-invariant hoisting (which subsumes the old compile-time peeling
//!    of loop-leading `let`s), copy propagation, and DCE — selected by
//!    [`OptLevel`];
//! 3. **emit** (`emit.rs`): translate the optimized PIR to the
//!    [`crate::machine`] instruction set: expressions become linearized
//!    trees of `CExpr` nodes over **unboxed** [`halide_runtime::Scalar`]
//!    values; vector lanes are only materialized where vectorization
//!    actually put `ramp`/`broadcast` nodes, and then into a lane arena
//!    whose layout (`LaneLayout`, the lane-width table) is fixed here.
//!
//! Symbols and buffers the statement does not bind internally become the
//! program's *free* slots; [`crate::Realizer`] binds them from the module's
//! inputs, parameters, and output metadata before execution
//! ([`halide_lower::Module::free_symbols`] documents the same contract on
//! the lowering side).
//!
//! Execution of a compiled program lives in [`crate::machine`].

use std::collections::HashMap;

use halide_ir::{BinOp, CmpOp, ForKind, ScalarType, Stmt};
use halide_lower::Module;

use crate::error::Result;
use crate::opt::{optimize, OptLevel, OptReport, PirStage};

/// A unary math intrinsic, resolved to its function pointer.
pub(crate) type UnaryFn = fn(f64) -> f64;
/// A binary math intrinsic, resolved to its function pointer.
pub(crate) type BinaryFn = fn(f64, f64) -> f64;

/// An intrinsic call with its resolution decided at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CIntrinsic {
    /// `f(x)` over lanes converted to `f64` (result is float).
    Unary(UnaryFn),
    /// `f(a, b)` over lanes converted to `f64` (result is float).
    Binary(BinaryFn),
    /// Kind-preserving absolute value.
    Abs,
    /// `min`/`max` as intrinsics: same semantics as the binary operator.
    MinMax(BinOp),
}

/// A compiled expression node. Slots and buffer indices are resolved;
/// evaluation, instrumented or not, allocates only to report an error.
#[derive(Debug)]
pub(crate) enum CExpr {
    /// Integer immediate.
    ConstI(i64),
    /// Float immediate.
    ConstF(f64),
    /// Read a register.
    Slot(u32),
    /// Numeric conversion.
    Cast { ty: ScalarType, value: Box<CExpr> },
    /// Binary arithmetic.
    Bin {
        op: BinOp,
        a: Box<CExpr>,
        b: Box<CExpr>,
    },
    /// Comparison producing 0/1.
    Cmp {
        op: CmpOp,
        a: Box<CExpr>,
        b: Box<CExpr>,
    },
    /// Short-circuiting logical and (on scalar conditions).
    And { a: Box<CExpr>, b: Box<CExpr> },
    /// Short-circuiting logical or (on scalar conditions).
    Or { a: Box<CExpr>, b: Box<CExpr> },
    /// Logical negation.
    Not { a: Box<CExpr> },
    /// Select; evaluates only the taken branch for scalar conditions.
    Select {
        cond: Box<CExpr>,
        t: Box<CExpr>,
        f: Box<CExpr>,
    },
    /// Affine vector constructor (vector path).
    Ramp {
        base: Box<CExpr>,
        stride: Box<CExpr>,
        lanes: u16,
    },
    /// Splat a scalar to lanes (vector path).
    Broadcast { value: Box<CExpr>, lanes: u16 },
    /// Scoped binding: write the slot, evaluate the body.
    Let {
        slot: u32,
        value: Box<CExpr>,
        body: Box<CExpr>,
    },
    /// Strength-reduced integer `value << bits` (from `mul` by a power of
    /// two; exact on the wrapping i64 lane ring).
    Shl { a: Box<CExpr>, bits: u32 },
    /// Strength-reduced integer arithmetic shift `value >> bits` (from
    /// floor division by a power of two; exact for all i64).
    Shr { a: Box<CExpr>, bits: u32 },
    /// Strength-reduced integer `value & mask` (from floor modulo by a
    /// power of two; exact for all i64 with a positive modulus).
    AndMask { a: Box<CExpr>, mask: i64 },
    /// Counter compensation wrapper: bumps the arithmetic counter by
    /// `arith` (two's complement; may be negative) when instrumented, then
    /// evaluates `inner`. Keeps optimized programs' dynamic counts
    /// bit-identical to the interpreter inside lazily-evaluated arms.
    Count { arith: i64, inner: Box<CExpr> },
    /// Load from a buffer at a flat index.
    Load { buf: u32, index: Box<CExpr> },
    /// Load `lanes` contiguous elements starting at `base` — the compiled
    /// form of a load through `ramp(base, 1, lanes)`: one bounds check, no
    /// index vector.
    LoadDense {
        buf: u32,
        base: Box<CExpr>,
        lanes: u16,
    },
    /// Load through `max(min(index, hi), lo)` — the clamped-index access
    /// `at_clamped` lowers to (and the camera pipe's LUT stage performs with
    /// a data-dependent index). Compiled as one clamping gather: the `min`/
    /// `max` intermediate vectors never materialize, though they still count
    /// as the two arithmetic operations the interpreter executes.
    LoadClamped {
        buf: u32,
        index: Box<CExpr>,
        lo: Box<CExpr>,
        hi: Box<CExpr>,
    },
    /// Predicated (masked) load: lanes whose mask lane is false are not
    /// read (and not bounds-checked) and yield zero. The dense/strided/
    /// gather masked forms are dispatched from the runtime index shape,
    /// like [`CExpr::Load`].
    LoadMasked {
        buf: u32,
        index: Box<CExpr>,
        mask: Box<CExpr>,
    },
    /// Intrinsic call through a resolved function pointer.
    Intrinsic { f: CIntrinsic, args: Vec<CExpr> },
}

/// Buffers a GPU kernel body touches, resolved to indices at compile time
/// (the interpreter re-scans the body on every launch).
#[derive(Debug, Clone, Default)]
pub(crate) struct GpuTouch {
    pub(crate) reads: Vec<u32>,
    pub(crate) writes: Vec<u32>,
}

/// A compiled statement node.
#[derive(Debug)]
pub(crate) enum CStmt {
    /// Evaluate `value` and write it to a register (the statement form of a
    /// binding — emission splits the old scoped `let` into a plain register
    /// write, since slots are unique per binder anyway).
    SetSlot { slot: u32, value: CExpr },
    /// Runtime check.
    Assert { cond: CExpr, message: String },
    /// A loop. `hoisted` is the loop-invariant code region: statements run
    /// once per loop entry (peeled loop-leading lets plus whatever LICM
    /// moved there), visible to every iteration; `gpu` is populated for
    /// `GpuBlock` loops.
    For {
        slot: u32,
        min: CExpr,
        extent: CExpr,
        kind: ForKind,
        hoisted: Vec<CStmt>,
        body: Box<CStmt>,
        gpu: Option<GpuTouch>,
    },
    /// Store to a buffer at a flat index.
    Store {
        buf: u32,
        value: CExpr,
        index: CExpr,
    },
    /// Store `lanes` contiguous elements starting at `base` — the compiled
    /// form of a store through `ramp(base, 1, lanes)`.
    StoreDense {
        buf: u32,
        value: CExpr,
        base: CExpr,
        lanes: u16,
    },
    /// Predicated (masked) store: lanes whose mask lane is false are
    /// skipped entirely — not written, not bounds-checked.
    StoreMasked {
        buf: u32,
        value: CExpr,
        index: CExpr,
        mask: CExpr,
    },
    /// Scoped allocation bound to a buffer index.
    Allocate {
        buf: u32,
        ty: ScalarType,
        size: CExpr,
        body: Box<CStmt>,
    },
    /// Sequential composition.
    Block(Vec<CStmt>),
    /// Conditional.
    If {
        cond: CExpr,
        then_case: Box<CStmt>,
        else_case: Option<Box<CStmt>>,
    },
    /// Evaluate for effect.
    Evaluate(CExpr),
    /// Counter compensation: bump the arithmetic counter by `arith` (two's
    /// complement; may be negative) when instrumented.
    Count { arith: i64 },
    /// A produce nest for func `func` (an index into
    /// [`Program::func_names`]): when a profiler is attached to the
    /// execution context, entry publishes the func as the sampler's
    /// current-func token (and counts one invocation) and exit restores
    /// the previous token. Without a profiler this is a plain `body`.
    Produce { func: u32, body: Box<CStmt> },
    /// Does nothing.
    NoOp,
}

/// A compiled pipeline body: the register-machine program the
/// [`crate::Realizer`] executes under [`crate::Backend::Compiled`].
///
/// Obtain one with [`Program::compile`]; run it by realizing the module it
/// was compiled from. The program records the *free* slots and buffers —
/// names the statement references but does not bind — which the realizer
/// must bind before execution.
#[derive(Debug)]
pub struct Program {
    pub(crate) body: CStmt,
    /// Register file size; every binder and free symbol has a unique slot.
    pub(crate) n_slots: usize,
    /// Buffer table size.
    pub(crate) n_bufs: usize,
    /// Buffer index → buffer name (diagnostics and the GPU residency map).
    pub(crate) buf_names: Vec<String>,
    /// Free scalar symbols: name → slot. All must be bound before running.
    pub(crate) free_slots: HashMap<String, u32>,
    /// Free buffers: name → index. All must be bound before running.
    pub(crate) free_bufs: HashMap<String, u32>,
    /// Func index → func name for [`CStmt::Produce`] markers (the
    /// per-Func profiler's id space).
    pub(crate) func_names: Vec<String>,
    /// What the optimizer did (pass statistics; see [`OptReport`]).
    pub(crate) opt_report: OptReport,
    /// Where vector lanes live in a machine's lane arena.
    pub(crate) lanes: LaneLayout,
}

/// The lane-width table: where every vector register's lanes live in a
/// machine's lane arena, fixed at compile time so execution never
/// allocates.
///
/// Every vector width originates in a `lanes` immediate (`Ramp`,
/// `Broadcast`, `LoadDense`, `StoreDense`); an operation is as wide as its
/// widest operand. So a slot's width is bounded by the widest value any
/// binder writes to it, and a slot that can hold a vector (width ≥ 2) gets
/// a region of that many lanes. Above the slot regions sits a stack of
/// regions for expression temporaries, each `width` lanes (the widest
/// vector in the program), as many as the deepest expression needs.
#[derive(Debug)]
pub(crate) struct LaneLayout {
    /// Arena offset of each slot's region (meaningful for vector slots).
    pub(crate) slot_at: Vec<u32>,
    /// Arena offset of the temporary stack.
    pub(crate) temps_at: u32,
    /// Lanes per temporary region.
    pub(crate) width: u32,
    /// Arena length in lanes.
    pub(crate) len: usize,
}

impl LaneLayout {
    fn of(body: &CStmt, n_slots: usize) -> LaneLayout {
        let mut w = LaneWidths {
            slots: vec![1; n_slots],
            width: 1,
            temps: 0,
        };
        // Slots read slots, so their widths are a (monotone, bounded) fixed
        // point.
        loop {
            let before = w.slots.clone();
            w.stmt(body);
            if w.slots == before {
                break;
            }
        }
        let mut slot_at = Vec::with_capacity(n_slots);
        let mut at = 0u32;
        for &lanes in &w.slots {
            slot_at.push(at);
            if lanes >= 2 {
                at += lanes as u32;
            }
        }
        let width = w.width as u32;
        LaneLayout {
            slot_at,
            temps_at: at,
            width,
            len: (at + w.temps * width) as usize,
        }
    }
}

/// The analysis behind [`LaneLayout`]: per-slot upper bounds on lane
/// counts, the widest vector, and the deepest temporary stack.
struct LaneWidths {
    slots: Vec<u16>,
    width: u16,
    temps: u32,
}

impl LaneWidths {
    /// Children evaluated in order, each possibly leaving one temporary
    /// region behind while the next runs, plus one region for the result
    /// (the machine never needs more). Returns the widest child, the first
    /// child's width, and the regions needed.
    fn seq<'a>(&mut self, children: impl IntoIterator<Item = &'a CExpr>) -> (u16, u16, u32) {
        let (mut widest, mut first, mut need, mut n) = (1, 1, 0, 0);
        for c in children {
            let (l, t) = self.expr(c);
            if n == 0 {
                first = l;
            }
            widest = widest.max(l);
            need = need.max(n + t);
            n += 1;
        }
        (widest, first, need.max(n + 1))
    }

    /// An upper bound on the lanes of `e`'s value, and the temporary
    /// regions its evaluation needs (including its result's).
    fn expr(&mut self, e: &CExpr) -> (u16, u32) {
        // An operation is as wide as its widest operand; a load as its index.
        let widest = |(w, _, need): (u16, u16, u32)| (w, need);
        let indexed = |(_, first, need): (u16, u16, u32)| (first, need);
        match e {
            CExpr::ConstI(_) | CExpr::ConstF(_) => (1, 0),
            CExpr::Slot(s) => (self.slots[*s as usize], 0),
            CExpr::Count { inner, .. } => self.expr(inner),
            CExpr::Let { slot, value, body } => {
                let (l, t) = self.expr(value);
                let w = &mut self.slots[*slot as usize];
                *w = (*w).max(l);
                let (lb, tb) = self.expr(body);
                (lb, t.max(tb))
            }
            CExpr::Ramp {
                lanes,
                base,
                stride,
            } => self.sized(*lanes, [&**base, &**stride]),
            CExpr::Broadcast { value, lanes } => self.sized(*lanes, [&**value]),
            CExpr::LoadDense { base, lanes, .. } => self.sized(*lanes, [&**base]),
            CExpr::Cast { value: a, .. }
            | CExpr::Not { a }
            | CExpr::Shl { a, .. }
            | CExpr::Shr { a, .. }
            | CExpr::AndMask { a, .. } => widest(self.seq([&**a])),
            CExpr::Bin { a, b, .. }
            | CExpr::Cmp { a, b, .. }
            | CExpr::And { a, b }
            | CExpr::Or { a, b } => widest(self.seq([&**a, &**b])),
            CExpr::Select { cond, t, f } => widest(self.seq([&**cond, &**t, &**f])),
            CExpr::Intrinsic { args, .. } => widest(self.seq(args)),
            CExpr::Load { index, .. } => indexed(self.seq([&**index])),
            CExpr::LoadClamped { index, lo, hi, .. } => indexed(self.seq([&**index, &**lo, &**hi])),
            CExpr::LoadMasked { index, mask, .. } => indexed(self.seq([&**index, &**mask])),
        }
    }

    /// A node whose width is the immediate `lanes`.
    fn sized<const N: usize>(&mut self, lanes: u16, children: [&CExpr; N]) -> (u16, u32) {
        self.width = self.width.max(lanes);
        (lanes, self.seq(children).2)
    }

    fn stmt(&mut self, s: &CStmt) {
        let need = match s {
            CStmt::SetSlot { slot, value } => {
                let (l, t) = self.expr(value);
                let w = &mut self.slots[*slot as usize];
                *w = (*w).max(l);
                t
            }
            CStmt::Assert { cond, .. } | CStmt::If { cond, .. } => self.seq([cond]).2,
            CStmt::Evaluate(value) => self.seq([value]).2,
            CStmt::For {
                min,
                extent,
                hoisted,
                body,
                ..
            } => {
                for h in hoisted {
                    self.stmt(h);
                }
                self.stmt(body);
                self.seq([min, extent]).2
            }
            CStmt::Store { value, index, .. } => self.seq([index, value]).2,
            CStmt::StoreDense {
                value, base, lanes, ..
            } => {
                self.width = self.width.max(*lanes);
                self.seq([base, value]).2
            }
            CStmt::StoreMasked {
                value, index, mask, ..
            } => self.seq([index, value, mask]).2,
            CStmt::Allocate { size, body, .. } => {
                self.stmt(body);
                self.seq([size]).2
            }
            CStmt::Block(stmts) => {
                stmts.iter().for_each(|s| self.stmt(s));
                0
            }
            CStmt::Produce { body, .. } => {
                self.stmt(body);
                0
            }
            CStmt::Count { .. } | CStmt::NoOp => 0,
        };
        if let CStmt::If {
            then_case,
            else_case,
            ..
        } = s
        {
            self.stmt(then_case);
            if let Some(e) = else_case {
                self.stmt(e);
            }
        }
        self.temps = self.temps.max(need);
    }
}

impl Program {
    /// Compiles a lowered module into a register-machine program, at the
    /// optimization level selected by the environment
    /// ([`OptLevel::from_env`]; `HALIDE_OPT=none` disables the optimizer).
    ///
    /// # Errors
    ///
    /// Fails on statements that did not finish lowering (`Provide`/`Realize`
    /// nodes, calls to non-intrinsic functions) and on unknown or mis-used
    /// intrinsics.
    pub fn compile(module: &Module) -> Result<Program> {
        Program::compile_stmt(&module.stmt)
    }

    /// Compiles a lowered module at an explicit [`OptLevel`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Program::compile`].
    pub fn compile_with(module: &Module, level: OptLevel) -> Result<Program> {
        Program::compile_stmt_with(&module.stmt, level)
    }

    /// Compiles a lowered module, recording a printable PIR snapshot after
    /// linearization and after every pass that changed the program (the
    /// `--dump-pir` / `pir_stages` debugging surface).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Program::compile`].
    pub fn compile_traced(module: &Module, level: OptLevel) -> Result<(Program, Vec<PirStage>)> {
        let mut pir = crate::pir::linearize(&module.stmt)?;
        let mut stages = vec![PirStage {
            name: "linearized".to_string(),
            changes: 0,
            pir: pir.print(),
        }];
        let report = optimize(&mut pir, level, Some(&mut stages));
        let program = Program::assemble(pir, report)?;
        Ok((program, stages))
    }

    /// Compiles a bare statement (the module-independent core, also used by
    /// unit tests) at the environment-selected level.
    pub(crate) fn compile_stmt(stmt: &Stmt) -> Result<Program> {
        Program::compile_stmt_with(stmt, OptLevel::from_env())
    }

    /// Compiles a bare statement at an explicit [`OptLevel`]: linearize to
    /// PIR, run the optimizer, emit machine statements. Each phase records
    /// a `compile`-category span into the global trace sink when tracing
    /// is enabled.
    pub(crate) fn compile_stmt_with(stmt: &Stmt, level: OptLevel) -> Result<Program> {
        let pir = {
            let _span = halide_trace::span("compile/linearize", "compile");
            crate::pir::linearize(stmt)?
        };
        let mut pir = pir;
        let report = {
            let _span = halide_trace::span("compile/optimize", "compile");
            optimize(&mut pir, level, None)
        };
        Program::assemble(pir, report)
    }

    /// Emits an optimized PIR program and packages it with its interface
    /// tables.
    fn assemble(pir: crate::pir::PirProgram, opt_report: OptReport) -> Result<Program> {
        let body = {
            let _span = halide_trace::span("compile/emit", "compile");
            crate::emit::emit(&pir)?
        };
        let lanes = LaneLayout::of(&body, pir.n_regs as usize);
        Ok(Program {
            body,
            lanes,
            n_slots: pir.n_regs as usize,
            n_bufs: pir.buf_names.len(),
            buf_names: pir.buf_names,
            free_slots: pir.free_slots,
            free_bufs: pir.free_bufs,
            func_names: pir.func_names,
            opt_report,
        })
    }

    /// The slot of a free symbol, if the program references it.
    pub(crate) fn free_slot(&self, name: &str) -> Option<u32> {
        self.free_slots.get(name).copied()
    }

    /// The buffer index of a free buffer, if the program references it.
    pub(crate) fn free_buf(&self, name: &str) -> Option<u32> {
        self.free_bufs.get(name).copied()
    }

    /// What the optimizer did to this program: instruction counts before
    /// and after, iterations to the fixed point, and per-pass change
    /// counters.
    pub fn opt_report(&self) -> &OptReport {
        &self.opt_report
    }

    /// Func names referenced by the program's produce markers — the name
    /// space the per-Func profiler attributes time to.
    pub fn func_names(&self) -> &[String] {
        &self.func_names
    }
}
