//! The register machine: executes a compiled [`Program`].
//!
//! A `Machine` is the per-thread execution state. It holds a register file
//! of `CValue`s indexed by the slots the compile pass assigned, a **lane
//! arena** that holds the lanes of every vector register, and a buffer
//! table of `Arc<Buffer>`s indexed the same way. A `CValue` is `Copy` and
//! owns no heap memory: a scalar is unboxed, a symbolic ramp is three
//! integers, and a vector is a handle to a region of the arena.
//!
//! The arena's layout is fixed at compile time ([`crate::compile`]'s
//! lane-width table). Each slot that can hold a vector owns a region as
//! wide as the widest value written to it. Above the slot regions is a
//! stack of regions, each as wide as the widest vector in the program, for
//! expression temporaries. A node's result goes to the first free region at
//! its entry (`mark`), in place over an operand already there, so an
//! operation writes its destination register directly. Reading a slot
//! borrows its region; only a slot *write* copies lanes. The arena keeps
//! one array per kind (`i64` and `f64`) at the same offsets: a register's
//! lanes live in the array of its kind, so a kind conversion reads one
//! array and writes the other at the same offsets without aliasing. So
//! execution does no per-operation heap allocation, and cloning a machine
//! costs a fixed number of allocations however many registers are live.
//!
//! The lane arithmetic is not defined here: vector operations call the
//! slice kernels in [`halide_runtime::value`], which the interpreter's
//! [`halide_runtime::Value`] operations also call. Everything else matches
//! the interpreter in [`crate::eval`] bit for bit too: value promotion,
//! short-circuit and taken-branch evaluation, instrumentation counters. The
//! two backends are interchangeable and differential-testable. The
//! wall-clock difference comes from resolution work moved to compile time,
//! unboxed scalars, allocation-free vector registers, and the dense vector
//! load/store paths that skip index-vector materialization.
//!
//! Parallel loops clone the machine **once per chunk of iterations** (not
//! once per iteration): every binder writes its slot before the slot is
//! read, so a machine can be reused serially across iterations; only
//! concurrent use needs a copy.

use std::sync::Arc;

use halide_ir::{BinOp, CmpOp, ForKind, ScalarType};
use halide_runtime::{
    bin_float, bin_int, blend_float, blend_int, cast_float_lanes, cast_int_lanes, cast_to_int,
    cmp_float, cmp_int, fill_float, fill_int, scalar_binary_op, scalar_compare_op, zip_float,
    AccessPattern, Buffer, Lanes, Scalar,
};

use crate::compile::{CExpr, CIntrinsic, CStmt, Program};
use crate::error::{ExecError, Result};
use crate::eval::Context;

/// A register value: `Copy`, and never owns heap memory.
///
/// The `R` variant is a **symbolic integer ramp** `[base, base + stride, …)`:
/// the affine index vectors vectorization emits stay unmaterialized through
/// `let` bindings and through `+`/`-`/`*`-by-scalar arithmetic (exact in the
/// mod-2⁶⁴ integer ring, so the eventual lanes are bit-identical to the
/// interpreter's), and a unit-stride ramp index turns a vector load/store
/// into one dense, bounds-checked-once memory operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CValue {
    /// One unboxed lane.
    S(Scalar),
    /// A symbolic integer affine vector (never materialized until needed).
    R { base: i64, stride: i64, lanes: u16 },
    /// Two or more lanes of one kind, in the machine's lane arena at `at`.
    /// (A one-lane result is always an `S`: a one-lane vector and a scalar
    /// behave identically everywhere.)
    V { float: bool, lanes: u16, at: u32 },
}

impl CValue {
    #[inline]
    fn lanes(&self) -> usize {
        match self {
            CValue::S(_) => 1,
            CValue::R { lanes, .. } | CValue::V { lanes, .. } => *lanes as usize,
        }
    }

    /// The value as a boolean, matching `Value::as_bool` (panics there, an
    /// error here).
    #[inline]
    fn as_bool(&self) -> Result<bool> {
        match self {
            CValue::S(s) => Ok(s.as_bool()),
            CValue::R { base, lanes: 1, .. } => Ok(*base != 0),
            other => Err(ExecError::new(format!(
                "expected a scalar condition, got a {}-lane vector",
                other.lanes()
            ))),
        }
    }

    /// The value as a loop bound / size, matching `Value::as_int`.
    #[inline]
    fn as_int(&self) -> Result<i64> {
        match self {
            CValue::S(Scalar::Int(v)) => Ok(*v),
            CValue::R { base, lanes: 1, .. } => Ok(*base),
            other => Err(ExecError::new(format!(
                "expected a scalar integer, got {other:?}"
            ))),
        }
    }

    /// True for the float kind (either representation).
    #[inline]
    fn is_float_kind(&self) -> bool {
        match self {
            CValue::S(s) => s.is_float(),
            CValue::R { .. } => false,
            CValue::V { float, .. } => *float,
        }
    }

    /// The arena offset of a vector at or above `mark`: a temporary of the
    /// node whose evaluation began at `mark`.
    #[inline]
    fn temp_at(&self, mark: u32) -> Option<u32> {
        match *self {
            CValue::V { at, .. } if at >= mark => Some(at),
            _ => None,
        }
    }
}

/// Orders a binary operation's operands for an in-place kernel: the
/// destination operand (the one already in the node's result region, else
/// `a`), the other operand, and whether the destination is the left one.
#[inline]
fn in_place_order(a: CValue, b: CValue, mark: u32) -> (CValue, CValue, bool) {
    match (a, b) {
        (CValue::V { at, .. }, _) if at == mark => (a, b, true),
        (_, CValue::V { at, .. }) if at == mark => (b, a, false),
        _ => (a, b, true),
    }
}

/// Symbolic ramp arithmetic: `ramp op scalar` (or scalar op ramp, or
/// ramp op ramp) without materializing lanes, for the operations where the
/// result is again an affine ramp with **bit-identical** lanes (integer
/// `+`/`-`/`*` distribute over the lane formula in the mod-2⁶⁴ ring).
#[inline]
fn ramp_bin(op: BinOp, a: &CValue, b: &CValue) -> Option<CValue> {
    if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
        return None;
    }
    let ramp = |base, stride, lanes| {
        Some(CValue::R {
            base,
            stride,
            lanes,
        })
    };
    match (*a, *b) {
        (
            CValue::R {
                base,
                stride,
                lanes,
            },
            CValue::S(Scalar::Int(c)),
        ) => match op {
            BinOp::Add => ramp(base.wrapping_add(c), stride, lanes),
            BinOp::Sub => ramp(base.wrapping_sub(c), stride, lanes),
            _ => ramp(base.wrapping_mul(c), stride.wrapping_mul(c), lanes),
        },
        (
            CValue::S(Scalar::Int(c)),
            CValue::R {
                base,
                stride,
                lanes,
            },
        ) => match op {
            BinOp::Add => ramp(c.wrapping_add(base), stride, lanes),
            BinOp::Sub => ramp(c.wrapping_sub(base), stride.wrapping_neg(), lanes),
            _ => ramp(c.wrapping_mul(base), c.wrapping_mul(stride), lanes),
        },
        (
            CValue::R {
                base: b1,
                stride: s1,
                lanes: l1,
            },
            CValue::R {
                base: b2,
                stride: s2,
                lanes: l2,
            },
        ) if l1 == l2 => match op {
            BinOp::Add => ramp(b1.wrapping_add(b2), s1.wrapping_add(s2), l1),
            BinOp::Sub => ramp(b1.wrapping_sub(b2), s1.wrapping_sub(s2), l1),
            _ => None,
        },
        _ => None,
    }
}

/// A lane array with one region lent out mutably: the lanes below and
/// above the region stay readable.
struct Around<'a, T> {
    lo: &'a [T],
    hi: &'a [T],
    hi_at: usize,
}

impl<'a, T> Around<'a, T> {
    fn whole(v: &'a [T]) -> Self {
        Around {
            lo: v,
            hi: &[],
            hi_at: v.len(),
        }
    }

    /// Lanes `[at, at + n)`, which must not overlap the lent region.
    #[inline]
    fn get(&self, at: usize, n: usize) -> &'a [T] {
        if at + n <= self.lo.len() {
            &self.lo[at..at + n]
        } else {
            &self.hi[at - self.hi_at..at - self.hi_at + n]
        }
    }
}

/// Splits `v` into the region `[at, at + n)` and the rest.
#[inline]
fn split<T>(v: &mut [T], at: u32, n: usize) -> (&mut [T], Around<'_, T>) {
    let at = at as usize;
    let (lo, rest) = v.split_at_mut(at);
    let (mid, hi) = rest.split_at_mut(n);
    (
        mid,
        Around {
            lo,
            hi,
            hi_at: at + n,
        },
    )
}

/// Read-only views of both lane arrays (one of them possibly split around
/// a destination region).
struct View<'a> {
    ints: Around<'a, i64>,
    floats: Around<'a, f64>,
}

impl<'a> View<'a> {
    /// `v` as a kernel operand of an operation `lanes` wide: its own lanes
    /// when it is that wide, otherwise its lane 0 in every lane (the
    /// broadcast rule of `Value::broadcast`).
    #[inline]
    fn lanes(&self, v: CValue, lanes: usize) -> Lanes<'a> {
        match v {
            CValue::S(s) => Lanes::Splat(s),
            CValue::R {
                base,
                stride,
                lanes: l,
            } if l as usize == lanes => Lanes::Ramp { base, stride },
            CValue::R { base, .. } => Lanes::Splat(Scalar::Int(base)),
            CValue::V {
                float,
                lanes: l,
                at,
            } => {
                let n = if l as usize == lanes { lanes } else { 1 };
                let own = if float {
                    Lanes::Float(self.floats.get(at as usize, n))
                } else {
                    Lanes::Int(self.ints.get(at as usize, n))
                };
                if l as usize == lanes {
                    own
                } else {
                    Lanes::Splat(own.scalar_at(0))
                }
            }
        }
    }

    /// All of `v`'s own lanes.
    #[inline]
    fn own(&self, v: CValue) -> Lanes<'a> {
        self.lanes(v, v.lanes())
    }

    /// Lane `lane` of `v` with the store rule of `Buffer::set_flat_lane`: a
    /// narrower value repeats its last lane.
    #[inline]
    fn store_lane(&self, v: CValue, lane: usize) -> Scalar {
        self.own(v).scalar_at(lane.min(v.lanes() - 1))
    }
}

/// The lane arena: the lanes of every vector register, plus the stack
/// pointer of the temporary regions (see the module docs).
#[derive(Clone)]
struct Arena {
    ints: Vec<i64>,
    floats: Vec<f64>,
    /// Offset of the first free temporary region.
    sp: u32,
    /// Lanes per temporary region.
    width: u32,
}

impl Arena {
    fn view(&self) -> View<'_> {
        View {
            ints: Around::whole(&self.ints),
            floats: Around::whole(&self.floats),
        }
    }

    /// The integer lanes `[at, at + n)` mutably, and a view of the rest.
    #[inline]
    fn split_int(&mut self, at: u32, n: usize) -> (&mut [i64], View<'_>) {
        let (out, ints) = split(&mut self.ints, at, n);
        let floats = Around::whole(&self.floats);
        (out, View { ints, floats })
    }

    /// The float lanes `[at, at + n)` mutably, and a view of the rest.
    #[inline]
    fn split_float(&mut self, at: u32, n: usize) -> (&mut [f64], View<'_>) {
        let (out, floats) = split(&mut self.floats, at, n);
        let ints = Around::whole(&self.ints);
        (out, View { ints, floats })
    }

    /// Makes region `at` hold `v` as `lanes` lanes of the given kind
    /// (broadcasting lane 0 of a value of another width). A no-op when `v`
    /// already is exactly that; a kind conversion in place otherwise.
    #[inline]
    fn place(&mut self, v: CValue, float: bool, lanes: usize, at: u32) {
        let v = match v {
            CValue::V {
                float: vf,
                lanes: l,
                at: va,
            } if va == at => {
                if l as usize == lanes {
                    let r = at as usize..at as usize + lanes;
                    match (vf, float) {
                        (false, true) => {
                            fill_float(&mut self.floats[r.clone()], Lanes::Int(&self.ints[r]))
                        }
                        (true, false) => {
                            fill_int(&mut self.ints[r.clone()], Lanes::Float(&self.floats[r]))
                        }
                        _ => {}
                    }
                    return;
                }
                CValue::S(self.view().lanes(v, 1).scalar_at(0))
            }
            v => v,
        };
        if float {
            let (out, view) = self.split_float(at, lanes);
            fill_float(out, view.lanes(v, lanes));
        } else {
            let (out, view) = self.split_int(at, lanes);
            fill_int(out, view.lanes(v, lanes));
        }
    }

    /// Finishes an operation whose result is in region `at`: moves it down
    /// to `mark` (the node's result region) if it is elsewhere, and makes a
    /// one-lane result a scalar.
    #[inline]
    fn result(&mut self, float: bool, lanes: usize, at: u32, mark: u32) -> CValue {
        let (a, m) = (at as usize, mark as usize);
        if lanes == 1 {
            self.sp = mark;
            return CValue::S(if float {
                Scalar::Float(self.floats[a])
            } else {
                Scalar::Int(self.ints[a])
            });
        }
        if a != m {
            if float {
                self.floats.copy_within(a..a + lanes, m);
            } else {
                self.ints.copy_within(a..a + lanes, m);
            }
        }
        self.sp = mark + self.width;
        CValue::V {
            float,
            lanes: lanes as u16,
            at: mark,
        }
    }

    /// A vector binary operator, in place on the operand already at `mark`.
    fn bin(&mut self, op: BinOp, a: CValue, b: CValue, mark: u32) -> CValue {
        let lanes = a.lanes().max(b.lanes());
        let float = a.is_float_kind() || b.is_float_kind();
        let (dst, src, dst_is_lhs) = in_place_order(a, b, mark);
        self.place(dst, float, lanes, mark);
        if float {
            let (out, view) = self.split_float(mark, lanes);
            bin_float(op, out, view.lanes(src, lanes), dst_is_lhs);
        } else {
            let (out, view) = self.split_int(mark, lanes);
            bin_int(op, out, view.lanes(src, lanes), dst_is_lhs);
        }
        self.result(float, lanes, mark, mark)
    }

    /// A vector comparison. Float operands are compared from the float
    /// array at `mark` into the integer array at the same offsets.
    fn cmp(&mut self, op: CmpOp, a: CValue, b: CValue, mark: u32) -> CValue {
        let lanes = a.lanes().max(b.lanes());
        let float = a.is_float_kind() || b.is_float_kind();
        let (dst, src, dst_is_lhs) = in_place_order(a, b, mark);
        self.place(dst, float, lanes, mark);
        let (out, view) = self.split_int(mark, lanes);
        let other = view.lanes(src, lanes);
        if float {
            let own = Lanes::Float(view.floats.get(mark as usize, lanes));
            if dst_is_lhs {
                cmp_float(op, out, own, other);
            } else {
                cmp_float(op, out, other, own);
            }
        } else {
            cmp_int(op, out, other, dst_is_lhs);
        }
        self.result(false, lanes, mark, mark)
    }

    /// A lane-wise select: mask and blend, in place over an arm that is
    /// already a temporary of this node (else in a fresh region).
    fn select(&mut self, cond: CValue, t: CValue, f: CValue, mark: u32) -> CValue {
        let lanes = cond.lanes().max(t.lanes()).max(f.lanes());
        let float = t.is_float_kind() || f.is_float_kind();
        let (keep, other, keep_is_true, at) = match (t.temp_at(mark), f.temp_at(mark)) {
            (Some(at), _) => (t, f, true, at),
            (None, Some(at)) => (f, t, false, at),
            (None, None) => (t, f, true, self.sp),
        };
        self.place(keep, float, lanes, at);
        if float {
            let (out, view) = self.split_float(at, lanes);
            blend_float(
                out,
                view.lanes(cond, lanes),
                view.lanes(other, lanes),
                keep_is_true,
            );
        } else {
            let (out, view) = self.split_int(at, lanes);
            blend_int(
                out,
                view.lanes(cond, lanes),
                view.lanes(other, lanes),
                keep_is_true,
            );
        }
        self.result(float, lanes, at, mark)
    }

    /// `v` at `mark` as the given kind, mapped through `f` lane by lane.
    fn map_int(&mut self, v: CValue, mark: u32, f: impl Fn(i64) -> i64) -> CValue {
        let lanes = v.lanes();
        self.place(v, false, lanes, mark);
        let m = mark as usize;
        self.ints[m..m + lanes].iter_mut().for_each(|x| *x = f(*x));
        self.result(false, lanes, mark, mark)
    }

    fn map_float(&mut self, v: CValue, mark: u32, f: impl Fn(f64) -> f64) -> CValue {
        let lanes = v.lanes();
        self.place(v, true, lanes, mark);
        let m = mark as usize;
        self.floats[m..m + lanes]
            .iter_mut()
            .for_each(|x| *x = f(*x));
        self.result(true, lanes, mark, mark)
    }

    /// A vector cast.
    fn cast(&mut self, ty: ScalarType, v: CValue, mark: u32) -> CValue {
        let (lanes, m) = (v.lanes(), mark as usize);
        if ty.is_float() {
            self.place(v, true, lanes, mark);
            cast_float_lanes(ty, &mut self.floats[m..m + lanes]);
            return self.result(true, lanes, mark, mark);
        }
        if v.is_float_kind() {
            let (out, view) = self.split_int(mark, lanes);
            cast_to_int(ty, out, view.lanes(v, lanes));
        } else {
            self.place(v, false, lanes, mark);
            cast_int_lanes(ty, &mut self.ints[m..m + lanes]);
        }
        self.result(false, lanes, mark, mark)
    }

    /// The arena offset of `idx`'s lanes as integers: a float vector is
    /// truncated into the integer array at its own offsets (which a float
    /// register does not use), and a ramp is materialized in a fresh region.
    fn index_lanes(&mut self, idx: CValue) -> usize {
        match idx {
            CValue::V { float, lanes, at } => {
                let r = at as usize..at as usize + lanes as usize;
                if float {
                    fill_int(&mut self.ints[r.clone()], Lanes::Float(&self.floats[r]));
                }
                at as usize
            }
            CValue::R {
                base,
                stride,
                lanes,
            } => {
                let at = self.sp as usize;
                fill_int(
                    &mut self.ints[at..at + lanes as usize],
                    Lanes::Ramp { base, stride },
                );
                self.sp += self.width;
                at
            }
            CValue::S(_) => unreachable!("index_lanes of a scalar"),
        }
    }
}

/// The access pattern of a load through `idx`, by the classification rule
/// shared with the interpreter ([`halide_runtime::classify_flat_indices`]).
/// Symbolic ramps classify without materializing — by construction a ramp's
/// lanes have the constant lane-to-lane delta `stride`, so the result is the
/// same one the interpreter computes from the materialized lanes.
fn classify_load_index(view: &View<'_>, idx: CValue) -> AccessPattern {
    match idx {
        CValue::S(_) => AccessPattern::Scalar,
        CValue::R { stride, lanes, .. } => {
            if lanes <= 1 {
                AccessPattern::Scalar
            } else if stride == 1 {
                AccessPattern::Dense
            } else {
                AccessPattern::Strided
            }
        }
        CValue::V { lanes, .. } => {
            let l = view.own(idx);
            halide_runtime::classify_lane_indices(lanes as usize, |k| l.int_at(k))
        }
    }
}

/// The access pattern of a store through `idx`, widened to `lanes` the way
/// the interpreter widens it (`idx.broadcast(lanes)` before the lane loop):
/// an index narrower than the store repeats its first lane, which makes the
/// deltas zero — a stride-0 strided store, never a dense one.
fn classify_store_index(view: &View<'_>, idx: CValue, lanes: usize) -> AccessPattern {
    if lanes <= 1 {
        return AccessPattern::Scalar;
    }
    if idx.lanes() != lanes {
        return AccessPattern::Strided; // broadcast of the first lane
    }
    classify_load_index(view, idx)
}

/// Per-thread execution state for a compiled program.
#[derive(Clone)]
pub(crate) struct Machine {
    pub(crate) regs: Vec<CValue>,
    lanes: Arena,
    pub(crate) bufs: Vec<Option<Arc<Buffer>>>,
    /// Set inside a simulated GPU kernel so nested block loops of the same
    /// kernel do not count as fresh launches.
    in_gpu_kernel: bool,
}

impl Machine {
    /// A machine with all registers zeroed and no buffers bound.
    pub(crate) fn new(prog: &Program) -> Machine {
        let layout = &prog.lanes;
        Machine {
            regs: vec![CValue::S(Scalar::Int(0)); prog.n_slots],
            lanes: Arena {
                ints: vec![0; layout.len],
                floats: vec![0.0; layout.len],
                sp: layout.temps_at,
                width: layout.width,
            },
            bufs: vec![None; prog.n_bufs],
            in_gpu_kernel: false,
        }
    }

    /// Writes a register (used by the realizer to bind free symbols).
    pub(crate) fn set_reg(&mut self, slot: u32, v: Scalar) {
        self.regs[slot as usize] = CValue::S(v);
    }

    /// Binds a buffer index (used by the realizer to bind free buffers).
    pub(crate) fn set_buf(&mut self, idx: u32, buf: Arc<Buffer>) {
        self.bufs[idx as usize] = Some(buf);
    }

    /// Binds `v` to a slot: a vector's lanes are copied into the slot's own
    /// region (a no-op for the slot's own value).
    #[inline]
    fn write_slot(&mut self, prog: &Program, slot: u32, v: CValue) {
        self.regs[slot as usize] = match v {
            CValue::V { float, lanes, at } => {
                let dst = prog.lanes.slot_at[slot as usize];
                if at != dst {
                    let (a, d, n) = (at as usize, dst as usize, lanes as usize);
                    if float {
                        self.lanes.floats.copy_within(a..a + n, d);
                    } else {
                        self.lanes.ints.copy_within(a..a + n, d);
                    }
                }
                CValue::V {
                    float,
                    lanes,
                    at: dst,
                }
            }
            v => v,
        };
    }
}

/// Buffer `idx` of the machine's buffer table.
#[inline]
fn buffer<'a>(bufs: &'a [Option<Arc<Buffer>>], prog: &Program, idx: u32) -> Result<&'a Buffer> {
    bufs[idx as usize].as_deref().ok_or_else(|| {
        ExecError::new(format!(
            "no buffer named {:?} is in scope",
            prog.buf_names[idx as usize]
        ))
    })
}

/// Evaluates a compiled expression. Registers and immediates, the most
/// frequent nodes, are read in place without a call.
#[inline(always)]
pub(crate) fn eval(prog: &Program, e: &CExpr, m: &mut Machine, ctx: &Context) -> Result<CValue> {
    match e {
        CExpr::Slot(slot) => Ok(m.regs[*slot as usize]),
        CExpr::ConstI(v) => Ok(CValue::S(Scalar::Int(*v))),
        CExpr::ConstF(v) => Ok(CValue::S(Scalar::Float(*v))),
        _ => eval_node(prog, e, m, ctx),
    }
}

/// Evaluates an interior node.
fn eval_node(prog: &Program, e: &CExpr, m: &mut Machine, ctx: &Context) -> Result<CValue> {
    // The node's result region: the first free temporary region at entry.
    let mark = m.lanes.sp;
    match e {
        CExpr::Slot(_) | CExpr::ConstI(_) | CExpr::ConstF(_) => unreachable!("read by eval"),
        CExpr::Cast { ty, value } => Ok(match eval(prog, value, m, ctx)? {
            CValue::S(s) => CValue::S(s.cast_to(*ty)),
            other => m.lanes.cast(*ty, other, mark),
        }),
        CExpr::Bin { op, a, b } => {
            let va = eval(prog, a, m, ctx)?;
            let vb = eval(prog, b, m, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            Ok(match (va, vb) {
                (CValue::S(x), CValue::S(y)) => CValue::S(scalar_binary_op(*op, x, y)),
                (va, vb) => match ramp_bin(*op, &va, &vb) {
                    Some(r) => r,
                    None => m.lanes.bin(*op, va, vb, mark),
                },
            })
        }
        CExpr::Cmp { op, a, b } => {
            let va = eval(prog, a, m, ctx)?;
            let vb = eval(prog, b, m, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            Ok(match (va, vb) {
                (CValue::S(x), CValue::S(y)) => CValue::S(scalar_compare_op(*op, x, y)),
                (va, vb) => m.lanes.cmp(*op, va, vb, mark),
            })
        }
        CExpr::And { a, b } => {
            let va = eval(prog, a, m, ctx)?;
            if va.lanes() == 1 && !va.as_bool()? {
                return Ok(CValue::S(Scalar::Int(0)));
            }
            let vb = eval(prog, b, m, ctx)?;
            if va.lanes() == 1 {
                // select(true-scalar, b, false) is exactly b.
                return Ok(vb);
            }
            Ok(m.lanes.select(va, vb, CValue::S(Scalar::Int(0)), mark))
        }
        CExpr::Or { a, b } => {
            let va = eval(prog, a, m, ctx)?;
            if va.lanes() == 1 && va.as_bool()? {
                return Ok(CValue::S(Scalar::Int(1)));
            }
            let vb = eval(prog, b, m, ctx)?;
            if va.lanes() == 1 {
                // select(false-scalar, true, b) is exactly b.
                return Ok(vb);
            }
            Ok(m.lanes.select(va, CValue::S(Scalar::Int(1)), vb, mark))
        }
        CExpr::Not { a } => Ok(match eval(prog, a, m, ctx)? {
            CValue::S(s) => CValue::S(Scalar::Int((s.as_i64() == 0) as i64)),
            // Floats truncate first, like `Value::lane_int`.
            other => m.lanes.map_int(other, mark, |x| (x == 0) as i64),
        }),
        CExpr::Select { cond, t, f } => {
            let c = eval(prog, cond, m, ctx)?;
            // Scalar condition: evaluate only the taken branch.
            if c.lanes() == 1 {
                return if c.as_bool()? {
                    eval(prog, t, m, ctx)
                } else {
                    eval(prog, f, m, ctx)
                };
            }
            // A vector condition: evaluate both (side-effect-free) arms,
            // then mask and blend. A condition held in a slot is read in
            // place; the arms cannot write it, because every binder has a
            // slot of its own.
            if ctx.instrument {
                ctx.counters.add_masked_select();
            }
            let tv = eval(prog, t, m, ctx)?;
            let fv = eval(prog, f, m, ctx)?;
            Ok(m.lanes.select(c, tv, fv, mark))
        }
        CExpr::Ramp {
            base,
            stride,
            lanes,
        } => {
            let b = eval(prog, base, m, ctx)?;
            let s = eval(prog, stride, m, ctx)?;
            if b.is_float_kind() || s.is_float_kind() {
                let (b, s) = (f64_scalar(&b)?, f64_scalar(&s)?);
                let (at, n) = (mark as usize, *lanes as usize);
                for (i, x) in m.lanes.floats[at..at + n].iter_mut().enumerate() {
                    *x = b + s * i as f64;
                }
                Ok(m.lanes.result(true, n, mark, mark))
            } else {
                Ok(CValue::R {
                    base: b.as_int()?,
                    stride: s.as_int()?,
                    lanes: *lanes,
                })
            }
        }
        CExpr::Broadcast { value, lanes } => {
            let v = eval(prog, value, m, ctx)?;
            let lanes = *lanes as usize;
            if v.lanes() == lanes {
                return Ok(v);
            }
            let float = v.is_float_kind();
            m.lanes.place(v, float, lanes, mark);
            Ok(m.lanes.result(float, lanes, mark, mark))
        }
        CExpr::Let { slot, value, body } => {
            let v = eval(prog, value, m, ctx)?;
            m.write_slot(prog, *slot, v);
            m.lanes.sp = mark;
            eval(prog, body, m, ctx)
        }
        CExpr::Shl { a, bits } => {
            let va = eval(prog, a, m, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            // A symbolic ramp shifts affinely: (base + stride·i) << k is
            // (base << k) + (stride << k)·i in the mod-2⁶⁴ ring.
            if let CValue::R {
                base,
                stride,
                lanes,
            } = va
            {
                return Ok(CValue::R {
                    base: base.wrapping_shl(*bits),
                    stride: stride.wrapping_shl(*bits),
                    lanes,
                });
            }
            int_map(
                m,
                va,
                mark,
                |x| x.wrapping_shl(*bits),
                "strength-reduced shift",
            )
        }
        CExpr::Shr { a, bits } => {
            let va = eval(prog, a, m, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            int_map(m, va, mark, |x| x >> *bits, "strength-reduced shift")
        }
        CExpr::AndMask { a, mask } => {
            let va = eval(prog, a, m, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            int_map(m, va, mark, |x| x & *mask, "strength-reduced mask")
        }
        CExpr::Count { arith, inner } => {
            if ctx.instrument {
                ctx.counters.add_arith(*arith as u64);
            }
            eval(prog, inner, m, ctx)
        }
        CExpr::Load { buf, index } => {
            let idx = eval(prog, index, m, ctx)?;
            let buffer = buffer(&m.bufs, prog, *buf)?;
            if ctx.gpu_in_use() {
                ctx.gpu
                    .ensure_on_host(&prog.buf_names[*buf as usize], &ctx.counters);
            }
            let lanes = idx.lanes();
            if ctx.instrument {
                count_load(ctx, &m.lanes.view(), idx, lanes);
            }
            load(prog, *buf, buffer, idx, &mut m.lanes, mark)
        }
        CExpr::LoadDense { buf, base, lanes } => {
            let lanes = *lanes as usize;
            let base_v = eval(prog, base, m, ctx)?.as_int()?;
            let buffer = buffer(&m.bufs, prog, *buf)?;
            if ctx.gpu_in_use() {
                ctx.gpu
                    .ensure_on_host(&prog.buf_names[*buf as usize], &ctx.counters);
            }
            if ctx.instrument {
                ctx.counters.add_load(lanes as u64);
                if lanes > 1 {
                    ctx.counters.add_load_pattern(AccessPattern::Dense);
                }
            }
            ramp_load(prog, *buf, buffer, base_v, 1, lanes, &mut m.lanes, mark)
        }
        CExpr::LoadClamped { buf, index, lo, hi } => {
            let idx = eval(prog, index, m, ctx)?;
            let lo_v = eval(prog, lo, m, ctx)?.as_int()?;
            let hi_v = eval(prog, hi, m, ctx)?.as_int()?;
            clamped_load(prog, *buf, idx, lo_v, hi_v, m, ctx, mark)
        }
        CExpr::LoadMasked { buf, index, mask } => {
            let idx = eval(prog, index, m, ctx)?;
            let mv = eval(prog, mask, m, ctx)?;
            let buffer = buffer(&m.bufs, prog, *buf)?;
            if ctx.gpu_in_use() {
                ctx.gpu
                    .ensure_on_host(&prog.buf_names[*buf as usize], &ctx.counters);
            }
            let lanes = idx.lanes();
            if ctx.instrument {
                count_load(ctx, &m.lanes.view(), idx, lanes);
                ctx.counters.add_masked_load();
            }
            masked_load(prog, *buf, buffer, idx, mv, &mut m.lanes, mark)
        }
        CExpr::Intrinsic { f, args } => intrinsic(prog, *f, args, m, ctx, mark),
    }
}

/// A load through an index of any shape: one typed read for a scalar, a
/// bulk dense or strided read for a symbolic ramp, a gather otherwise.
#[inline]
fn load(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    idx: CValue,
    lanes: &mut Arena,
    mark: u32,
) -> Result<CValue> {
    match idx {
        // Scalar fast path: one bounds check, one typed read.
        CValue::S(s) => {
            let (i, len) = (s.as_i64(), buffer.len());
            if i < 0 || i as usize >= len {
                return Err(oob(prog, buf, "load from", i, len));
            }
            Ok(CValue::S(buffer.get_flat_scalar(i as usize)))
        }
        // A symbolic ramp: one bulk memory operation, the index lanes never
        // materialize.
        CValue::R {
            base,
            stride,
            lanes: n,
        } => ramp_load(prog, buf, buffer, base, stride, n as usize, lanes, mark),
        CValue::V { lanes: n, .. } => gather(prog, buf, buffer, idx, n as usize, lanes, mark),
    }
}

/// Vector load through an arbitrary index vector (the gather case), into a
/// fresh region.
#[inline(never)]
fn gather(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    idx: CValue,
    n: usize,
    lanes: &mut Arena,
    mark: u32,
) -> Result<CValue> {
    let ia = lanes.index_lanes(idx);
    let (at, float) = (lanes.sp, buffer.ty().is_float());
    let err = |i| oob(prog, buf, "load from", i, buffer.len());
    if float {
        let (out, view) = lanes.split_float(at, n);
        buffer
            .gather_flat_f64(view.ints.get(ia, n), out)
            .map_err(err)?;
    } else {
        let (out, view) = lanes.split_int(at, n);
        buffer
            .gather_flat_i64(view.ints.get(ia, n), out)
            .map_err(err)?;
    }
    Ok(lanes.result(float, n, at, mark))
}

/// Loads `n` elements at `base, base + stride, …` into region `mark` as one
/// bulk read: contiguous (one bounds check) for unit stride, strided
/// otherwise. The compiled form of a load through a symbolic ramp.
#[allow(clippy::too_many_arguments)]
#[inline]
fn ramp_load(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    base: i64,
    stride: i64,
    n: usize,
    lanes: &mut Arena,
    mark: u32,
) -> Result<CValue> {
    let (len, float) = (buffer.len(), buffer.ty().is_float());
    let r = mark as usize..mark as usize + n;
    if stride == 1 {
        if base < 0 || base as usize + n > len {
            let first_bad = if base < 0 { base } else { base.max(len as i64) };
            return Err(oob(prog, buf, "load from", first_bad, len));
        }
        if float {
            buffer.read_flat_f64s(base as usize, &mut lanes.floats[r]);
        } else {
            buffer.read_flat_i64s(base as usize, &mut lanes.ints[r]);
        }
    } else {
        let err = |i| oob(prog, buf, "load from", i, len);
        if float {
            buffer
                .read_flat_strided_f64s(base, stride, &mut lanes.floats[r])
                .map_err(err)?;
        } else {
            buffer
                .read_flat_strided_i64s(base, stride, &mut lanes.ints[r])
                .map_err(err)?;
        }
    }
    Ok(lanes.result(float, n, mark, mark))
}

/// True when every lane of a predicate is set. A mask of another width
/// than the operation is uniform: its lane 0 (the broadcast the interpreter
/// materializes before its lane loop).
fn mask_all_true(view: &View<'_>, mask: CValue, lanes: usize) -> bool {
    let m = view.lanes(mask, lanes);
    (0..lanes).all(|l| m.int_at(l) != 0)
}

/// A load with a lane predicate: a disabled lane is neither read nor
/// bounds-checked and yields zero; enabled lanes behave exactly like the
/// unmasked forms (an enabled out-of-bounds lane is still an error). An
/// all-true mask falls through to the bulk dispatches, so a predicated
/// tail whose guard happens to pass everywhere costs one bulk read.
#[inline(never)]
fn masked_load(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    idx: CValue,
    mask: CValue,
    lanes: &mut Arena,
    mark: u32,
) -> Result<CValue> {
    let n = idx.lanes();
    if mask_all_true(&lanes.view(), mask, n) {
        return load(prog, buf, buffer, idx, lanes, mark);
    }
    // A mixed mask: the reference per-lane loop into a fresh region,
    // skipping disabled lanes before their bounds checks.
    let (at, float, len) = (lanes.sp, buffer.ty().is_float(), buffer.len());
    let read = |m: &Lanes<'_>, i: &Lanes<'_>, lane: usize| {
        if m.int_at(lane) == 0 {
            return Ok(Scalar::Int(0));
        }
        let i = i.int_at(lane);
        if i < 0 || i as usize >= len {
            return Err(oob(prog, buf, "load from", i, len));
        }
        Ok(buffer.get_flat_scalar(i as usize))
    };
    if float {
        let (out, view) = lanes.split_float(at, n);
        let (m, i) = (view.lanes(mask, n), view.lanes(idx, n));
        for (lane, x) in out.iter_mut().enumerate() {
            *x = read(&m, &i, lane)?.as_f64();
        }
    } else {
        let (out, view) = lanes.split_int(at, n);
        let (m, i) = (view.lanes(mask, n), view.lanes(idx, n));
        for (lane, x) in out.iter_mut().enumerate() {
            *x = read(&m, &i, lane)?.as_i64();
        }
    }
    Ok(lanes.result(float, n, at, mark))
}

/// A store with a lane predicate: a disabled lane is neither written nor
/// bounds-checked. An all-true mask falls through to the unmasked bulk
/// dispatches.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn masked_store(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    view: &View<'_>,
    idx: CValue,
    val: CValue,
    mask: CValue,
    lanes: usize,
) -> Result<()> {
    if mask_all_true(view, mask, lanes) {
        return store(prog, buf, buffer, view, idx, val, lanes);
    }
    let len = buffer.len();
    let (m, il) = (view.lanes(mask, lanes), view.lanes(idx, lanes));
    for lane in 0..lanes {
        if m.int_at(lane) == 0 {
            continue;
        }
        let i = il.int_at(lane);
        if i < 0 || i as usize >= len {
            return Err(oob(prog, buf, "store to", i, len));
        }
        buffer.set_flat_scalar(i as usize, view.store_lane(val, lane));
    }
    Ok(())
}

/// The instrument-on bookkeeping of a `Load`, kept out of the hot arm
/// (counter atomics plus the access-pattern classification).
#[cold]
fn count_load(ctx: &Context, view: &View<'_>, idx: CValue, lanes: usize) {
    ctx.counters.add_load(lanes as u64);
    ctx.counters
        .add_load_pattern(classify_load_index(view, idx));
}

/// The instrument-on bookkeeping of a `Store`.
#[cold]
fn count_store(ctx: &Context, view: &View<'_>, idx: CValue, lanes: usize) {
    ctx.counters.add_store(lanes as u64);
    ctx.counters
        .add_store_pattern(classify_store_index(view, idx, lanes));
}

/// A store through an index of any shape: one typed write for scalars,
/// dense or strided for symbolic ramps, a single scatter for index vectors
/// with a lane-matched value, the reference per-lane loop otherwise.
#[inline]
fn store(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    view: &View<'_>,
    idx: CValue,
    val: CValue,
    lanes: usize,
) -> Result<()> {
    let len = buffer.len();
    match (idx, val) {
        // Scalar fast path: one bounds check, one typed write.
        (CValue::S(i), CValue::S(v)) => {
            let i = i.as_i64();
            if i < 0 || i as usize >= len {
                return Err(oob(prog, buf, "store to", i, len));
            }
            buffer.set_flat_scalar(i as usize, v);
            Ok(())
        }
        // A symbolic ramp covering the whole store: one bulk write —
        // contiguous for unit stride, strided otherwise.
        (
            CValue::R {
                base, stride: 1, ..
            },
            _,
        ) => dense_store(prog, buf, buffer, view, base, idx.lanes(), lanes, val),
        (CValue::R { base, stride, .. }, CValue::V { .. })
            if idx.lanes() == lanes && val.lanes() == lanes =>
        {
            let err = |i| oob(prog, buf, "store to", i, len);
            match view.own(val) {
                Lanes::Float(v) => buffer.write_flat_strided_f64s(base, stride, v).map_err(err),
                Lanes::Int(v) => buffer.write_flat_strided_i64s(base, stride, v).map_err(err),
                _ => unreachable!("a vector register reads as a slice"),
            }
        }
        // An integer index vector with a matching value vector: one bulk
        // scatter, one storage dispatch.
        (CValue::V { float: false, .. }, CValue::V { .. })
            if idx.lanes() == lanes && val.lanes() == lanes =>
        {
            let err = |i| oob(prog, buf, "store to", i, len);
            let Lanes::Int(ints) = view.own(idx) else {
                unreachable!("an integer vector register reads as a slice")
            };
            match view.own(val) {
                Lanes::Float(v) => buffer.scatter_flat_f64s(ints, v).map_err(err),
                Lanes::Int(v) => buffer.scatter_flat_i64s(ints, v).map_err(err),
                _ => unreachable!("a vector register reads as a slice"),
            }
        }
        _ => per_lane_store(prog, buf, buffer, view, idx, val, lanes),
    }
}

/// A load through `max(min(index, hi), lo)`: clamp while gathering, one
/// storage dispatch, no min/max intermediate vectors (which still count as
/// the two arithmetic operations the interpreter executes for them).
/// Outlined to keep [`eval`]'s hot match small.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn clamped_load(
    prog: &Program,
    buf: u32,
    idx: CValue,
    lo_v: i64,
    hi_v: i64,
    m: &mut Machine,
    ctx: &Context,
    mark: u32,
) -> Result<CValue> {
    let buffer = buffer(&m.bufs, prog, buf)?;
    if ctx.gpu_in_use() {
        ctx.gpu
            .ensure_on_host(&prog.buf_names[buf as usize], &ctx.counters);
    }
    let n = idx.lanes();
    if ctx.instrument {
        ctx.counters.add_arith(2);
        ctx.counters.add_load(n as u64);
        if n > 1 {
            // Classify the post-clamp indices, as the interpreter (which
            // sees them materialized) does.
            let il = m.lanes.view().own(idx);
            ctx.counters
                .add_load_pattern(halide_runtime::classify_lane_indices(n, |k| {
                    il.int_at(k).min(hi_v).max(lo_v)
                }));
        }
    }
    let len = buffer.len();
    let err = |i| oob(prog, buf, "load from", i, len);
    // Scalar: clamp, one bounds check, one typed read.
    if let CValue::S(s) = idx {
        let i = s.as_i64().min(hi_v).max(lo_v);
        if i < 0 || i as usize >= len {
            return Err(err(i));
        }
        return Ok(CValue::S(buffer.get_flat_scalar(i as usize)));
    }
    let lanes = &mut m.lanes;
    let ia = lanes.index_lanes(idx);
    let (at, float) = (lanes.sp, buffer.ty().is_float());
    if float {
        let (out, view) = lanes.split_float(at, n);
        buffer
            .gather_flat_f64_clamped(view.ints.get(ia, n), lo_v, hi_v, out)
            .map_err(err)?;
    } else {
        let (out, view) = lanes.split_int(at, n);
        buffer
            .gather_flat_i64_clamped(view.ints.get(ia, n), lo_v, hi_v, out)
            .map_err(err)?;
    }
    Ok(lanes.result(float, n, at, mark))
}

/// The reference per-lane store loop: broadcast the index, bounds-check and
/// write lane by lane — exactly the interpreter's semantics. The bulk store
/// paths above are shortcuts for the shapes they cover; everything else
/// lands here.
fn per_lane_store(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    view: &View<'_>,
    idx: CValue,
    val: CValue,
    lanes: usize,
) -> Result<()> {
    let len = buffer.len();
    let il = view.lanes(idx, lanes);
    for lane in 0..lanes {
        let i = il.int_at(lane);
        if i < 0 || i as usize >= len {
            return Err(oob(prog, buf, "store to", i, len));
        }
        buffer.set_flat_scalar(i as usize, view.store_lane(val, lane));
    }
    Ok(())
}

/// Applies an integer lane-wise function (the strength-reduced shift/mask
/// forms). The optimizer only emits these for registers proven integer, so
/// a float here is an internal error, not a user-visible one.
fn int_map(
    m: &mut Machine,
    v: CValue,
    mark: u32,
    f: impl Fn(i64) -> i64,
    what: &str,
) -> Result<CValue> {
    match v {
        CValue::S(Scalar::Int(x)) => Ok(CValue::S(Scalar::Int(f(x)))),
        CValue::S(Scalar::Float(_)) => Err(ExecError::new(format!(
            "internal error: {what} applied to a float value"
        ))),
        CValue::V { float: true, .. } => Err(ExecError::new(format!(
            "internal error: {what} applied to a float vector"
        ))),
        other => Ok(m.lanes.map_int(other, mark, f)),
    }
}

fn f64_scalar(v: &CValue) -> Result<f64> {
    match v {
        CValue::S(s) => Ok(s.as_f64()),
        CValue::R { base, lanes: 1, .. } => Ok(*base as f64),
        other => Err(ExecError::new(format!("expected a scalar, got {other:?}"))),
    }
}

fn oob(prog: &Program, buf: u32, what: &str, i: i64, len: usize) -> ExecError {
    ExecError::new(format!(
        "{what} {:?} at flat index {i} is outside the allocation of {len} elements",
        prog.buf_names[buf as usize]
    ))
}

/// Stores `lanes` lanes of `val` contiguously starting at `base_v`; the
/// compiled form of a store through a unit-stride ramp. `lanes` is the
/// already-counted max of ramp and value lanes.
#[allow(clippy::too_many_arguments)]
fn dense_store(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    view: &View<'_>,
    base_v: i64,
    ramp_lanes: usize,
    lanes: usize,
    val: CValue,
) -> Result<()> {
    let len = buffer.len();
    if lanes > ramp_lanes {
        // A wider value than the index: the interpreter broadcasts the
        // index's first lane. Rare; reproduce it faithfully.
        for lane in 0..lanes {
            if base_v < 0 || base_v as usize >= len {
                return Err(oob(prog, buf, "store to", base_v, len));
            }
            buffer.set_flat_scalar(base_v as usize, view.store_lane(val, lane));
        }
        return Ok(());
    }
    if base_v < 0 || base_v as usize + lanes > len {
        let first_bad = if base_v < 0 {
            base_v
        } else {
            base_v.max(len as i64)
        };
        return Err(oob(prog, buf, "store to", first_bad, len));
    }
    let start = base_v as usize;
    match (val, view.own(val)) {
        (CValue::V { .. }, Lanes::Float(v)) if v.len() == lanes => buffer.write_flat_f64s(start, v),
        (CValue::V { .. }, Lanes::Int(v)) if v.len() == lanes => buffer.write_flat_i64s(start, v),
        // A scalar, a ramp, or a value narrower than the ramp (but not
        // scalar): the interpreter's per-lane clamp.
        _ => {
            for lane in 0..lanes {
                buffer.set_flat_scalar(start + lane, view.store_lane(val, lane));
            }
        }
    }
    Ok(())
}

/// Applies a resolved intrinsic with the same lane semantics as
/// `eval::eval_intrinsic`.
fn intrinsic(
    prog: &Program,
    f: CIntrinsic,
    args: &[CExpr],
    m: &mut Machine,
    ctx: &Context,
    mark: u32,
) -> Result<CValue> {
    let a = eval(prog, &args[0], m, ctx)?;
    let b = match f {
        CIntrinsic::Binary(_) | CIntrinsic::MinMax(_) => Some(eval(prog, &args[1], m, ctx)?),
        CIntrinsic::Unary(_) | CIntrinsic::Abs => None,
    };
    if ctx.instrument {
        ctx.counters.add_arith(1);
    }
    Ok(match (f, a, b) {
        (CIntrinsic::Unary(f), CValue::S(s), _) => CValue::S(Scalar::Float(f(s.as_f64()))),
        (CIntrinsic::Unary(f), v, _) => m.lanes.map_float(v, mark, f),
        (CIntrinsic::Abs, CValue::S(Scalar::Int(v)), _) => CValue::S(Scalar::Int(v.abs())),
        (CIntrinsic::Abs, CValue::S(Scalar::Float(v)), _) => CValue::S(Scalar::Float(v.abs())),
        (CIntrinsic::Abs, v, _) if v.is_float_kind() => m.lanes.map_float(v, mark, f64::abs),
        (CIntrinsic::Abs, v, _) => m.lanes.map_int(v, mark, i64::abs),
        (CIntrinsic::Binary(f), CValue::S(a), Some(CValue::S(b))) => {
            CValue::S(Scalar::Float(f(a.as_f64(), b.as_f64())))
        }
        // As wide as `a`, with `b` broadcast to it.
        (CIntrinsic::Binary(f), a, Some(b)) => {
            let lanes = a.lanes();
            let (dst, src, dst_is_lhs) = in_place_order(a, b, mark);
            m.lanes.place(dst, true, lanes, mark);
            let (out, view) = m.lanes.split_float(mark, lanes);
            zip_float(out, view.lanes(src, lanes), dst_is_lhs, f);
            m.lanes.result(true, lanes, mark, mark)
        }
        (CIntrinsic::MinMax(op), CValue::S(a), Some(CValue::S(b))) => {
            CValue::S(scalar_binary_op(op, a, b))
        }
        (CIntrinsic::MinMax(op), a, Some(b)) => m.lanes.bin(op, a, b, mark),
        (CIntrinsic::Binary(_) | CIntrinsic::MinMax(_), _, None) => {
            unreachable!("binary intrinsics take two arguments")
        }
    })
}

/// Executes a compiled statement.
pub(crate) fn exec(prog: &Program, s: &CStmt, m: &mut Machine, ctx: &Context) -> Result<()> {
    let mark = m.lanes.sp;
    match s {
        CStmt::SetSlot { slot, value } => {
            let v = eval(prog, value, m, ctx)?;
            m.write_slot(prog, *slot, v);
            m.lanes.sp = mark;
            Ok(())
        }
        CStmt::Count { arith } => {
            if ctx.instrument {
                ctx.counters.add_arith(*arith as u64);
            }
            Ok(())
        }
        CStmt::Assert { cond, message } => {
            if eval(prog, cond, m, ctx)?.as_bool()? {
                Ok(())
            } else {
                Err(ExecError::new(format!("assertion failed: {message}")))
            }
        }
        CStmt::For {
            slot,
            min,
            extent,
            kind,
            hoisted,
            body,
            gpu,
        } => {
            let min_v = eval(prog, min, m, ctx)?.as_int()?;
            let extent_v = eval(prog, extent, m, ctx)?.as_int()?;
            match kind {
                ForKind::Serial | ForKind::Vectorized | ForKind::Unrolled => {
                    // Vectorized/unrolled loops only reach execution when the
                    // corresponding pass was disabled; run them serially.
                    for h in hoisted {
                        exec(prog, h, m, ctx)?;
                    }
                    for i in min_v..min_v + extent_v {
                        m.regs[*slot as usize] = CValue::S(Scalar::Int(i));
                        exec(prog, body, m, ctx)?;
                        if ctx.has_failed() {
                            break;
                        }
                    }
                    Ok(())
                }
                ForKind::Parallel => {
                    for h in hoisted {
                        exec(prog, h, m, ctx)?;
                    }
                    let base: &Machine = m;
                    ctx.pool
                        .parallel_for_chunks(min_v, extent_v, &ctx.counters, |start, end| {
                            if ctx.has_failed() {
                                return;
                            }
                            let mut mm = base.clone();
                            for i in start..end {
                                mm.regs[*slot as usize] = CValue::S(Scalar::Int(i));
                                if let Err(e) = exec(prog, body, &mut mm, ctx) {
                                    ctx.record_error(e);
                                }
                                if ctx.has_failed() {
                                    return;
                                }
                            }
                        });
                    match ctx.take_error() {
                        Some(e) => Err(e),
                        None => Ok(()),
                    }
                }
                ForKind::GpuBlock | ForKind::GpuThread => gpu_launch(
                    prog,
                    *slot,
                    min_v,
                    extent_v,
                    *kind,
                    hoisted,
                    body,
                    gpu.as_ref(),
                    m,
                    ctx,
                ),
            }
        }
        CStmt::Store { buf, value, index } => {
            let idx = eval(prog, index, m, ctx)?;
            let val = eval(prog, value, m, ctx)?;
            let buffer = buffer(&m.bufs, prog, *buf)?;
            if ctx.gpu_in_use() {
                ctx.gpu.mark_host_dirty(&prog.buf_names[*buf as usize]);
            }
            let lanes = idx.lanes().max(val.lanes());
            let view = m.lanes.view();
            if ctx.instrument {
                count_store(ctx, &view, idx, lanes);
            }
            let r = store(prog, *buf, buffer, &view, idx, val, lanes);
            m.lanes.sp = mark;
            r
        }
        CStmt::StoreMasked {
            buf,
            value,
            index,
            mask,
        } => {
            let idx = eval(prog, index, m, ctx)?;
            let val = eval(prog, value, m, ctx)?;
            let mv = eval(prog, mask, m, ctx)?;
            let buffer = buffer(&m.bufs, prog, *buf)?;
            if ctx.gpu_in_use() {
                ctx.gpu.mark_host_dirty(&prog.buf_names[*buf as usize]);
            }
            let lanes = idx.lanes().max(val.lanes());
            let view = m.lanes.view();
            if ctx.instrument {
                count_store(ctx, &view, idx, lanes);
                ctx.counters.add_masked_store();
            }
            let r = masked_store(prog, *buf, buffer, &view, idx, val, mv, lanes);
            m.lanes.sp = mark;
            r
        }
        CStmt::StoreDense {
            buf,
            value,
            base,
            lanes,
        } => {
            let ramp_lanes = *lanes as usize;
            let base_v = eval(prog, base, m, ctx)?.as_int()?;
            let val = eval(prog, value, m, ctx)?;
            let buffer = buffer(&m.bufs, prog, *buf)?;
            if ctx.gpu_in_use() {
                ctx.gpu.mark_host_dirty(&prog.buf_names[*buf as usize]);
            }
            let lanes = ramp_lanes.max(val.lanes());
            if ctx.instrument {
                ctx.counters.add_store(lanes as u64);
                if lanes > 1 {
                    // A value wider than the ramp broadcasts the ramp's
                    // first lane, which the shared classification rule calls
                    // a stride-0 strided store.
                    ctx.counters.add_store_pattern(if ramp_lanes == lanes {
                        AccessPattern::Dense
                    } else {
                        AccessPattern::Strided
                    });
                }
            }
            let view = m.lanes.view();
            let r = dense_store(prog, *buf, buffer, &view, base_v, ramp_lanes, lanes, val);
            m.lanes.sp = mark;
            r
        }
        CStmt::Allocate {
            buf,
            ty,
            size,
            body,
        } => {
            let n = eval(prog, size, m, ctx)?.as_int()?;
            if n < 0 {
                return Err(ExecError::new(format!(
                    "allocation of {:?} has negative size {n}",
                    prog.buf_names[*buf as usize]
                )));
            }
            let buffer = Arc::new(ctx.alloc_scratch(*ty, &[n]));
            let bytes = buffer.size_bytes() as u64;
            ctx.counters.add_allocation(bytes);
            if let Some(p) = &ctx.profiler {
                p.record_alloc(&prog.buf_names[*buf as usize], bytes);
            }
            m.bufs[*buf as usize] = Some(buffer);
            let r = exec(prog, body, m, ctx);
            if let Some(buffer) = m.bufs[*buf as usize].take() {
                ctx.release_scratch(buffer);
            }
            ctx.counters.add_free(bytes);
            if let Some(p) = &ctx.profiler {
                p.record_free(&prog.buf_names[*buf as usize], bytes);
            }
            r
        }
        CStmt::Block(stmts) => {
            for s in stmts {
                exec(prog, s, m, ctx)?;
                if ctx.has_failed() {
                    break;
                }
            }
            Ok(())
        }
        CStmt::If {
            cond,
            then_case,
            else_case,
        } => {
            if eval(prog, cond, m, ctx)?.as_bool()? {
                exec(prog, then_case, m, ctx)
            } else if let Some(e) = else_case {
                exec(prog, e, m, ctx)
            } else {
                Ok(())
            }
        }
        CStmt::Evaluate(value) => {
            eval(prog, value, m, ctx)?;
            m.lanes.sp = mark;
            Ok(())
        }
        CStmt::Produce { func, body } => {
            if let Some(p) = &ctx.profiler {
                let prev = p.enter_named(&prog.func_names[*func as usize]);
                let r = exec(prog, body, m, ctx);
                p.exit(prev);
                r
            } else {
                exec(prog, body, m, ctx)
            }
        }
        CStmt::NoOp => Ok(()),
    }
}

/// Executes a GPU block/thread loop as a simulated kernel launch, mirroring
/// `eval::self_gpu_launch` but with the touched-buffer scan done at compile
/// time.
#[allow(clippy::too_many_arguments)]
fn gpu_launch(
    prog: &Program,
    slot: u32,
    min_v: i64,
    extent_v: i64,
    kind: ForKind,
    hoisted: &[CStmt],
    body: &CStmt,
    gpu: Option<&crate::compile::GpuTouch>,
    m: &mut Machine,
    ctx: &Context,
) -> Result<()> {
    if kind == ForKind::GpuBlock {
        ctx.mark_gpu_used();
    }
    // Count one launch per outermost block loop encountered while the device
    // is idle; nested block loops of the same kernel do not relaunch.
    let is_outer_block = kind == ForKind::GpuBlock && !m.in_gpu_kernel;
    if is_outer_block {
        ctx.gpu.launch(&ctx.counters);
        if let Some(touch) = gpu {
            for r in &touch.reads {
                if let Some(buf) = &m.bufs[*r as usize] {
                    ctx.gpu.ensure_on_device(
                        &prog.buf_names[*r as usize],
                        buf.size_bytes() as u64,
                        &ctx.counters,
                    );
                }
            }
            for w in &touch.writes {
                if let Some(buf) = &m.bufs[*w as usize] {
                    ctx.gpu
                        .mark_device_dirty(&prog.buf_names[*w as usize], buf.size_bytes() as u64);
                }
            }
        }
    }

    // Hoisted invariant lets: computed once per launch, visible to every
    // block/thread.
    let mut base = m.clone();
    if is_outer_block {
        base.in_gpu_kernel = true;
    }
    for h in hoisted {
        exec(prog, h, &mut base, ctx)?;
    }
    // Blocks run in parallel on the host pool; threads within a block run
    // serially (their data parallelism is already exposed by the block loop).
    if kind == ForKind::GpuBlock {
        let base_ref: &Machine = &base;
        ctx.pool
            .parallel_for_chunks(min_v, extent_v, &ctx.counters, |start, end| {
                if ctx.has_failed() {
                    return;
                }
                let mut mm = base_ref.clone();
                for i in start..end {
                    mm.regs[slot as usize] = CValue::S(Scalar::Int(i));
                    if let Err(e) = exec(prog, body, &mut mm, ctx) {
                        ctx.record_error(e);
                    }
                    if ctx.has_failed() {
                        return;
                    }
                }
            });
        match ctx.take_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    } else {
        let mut mm = base;
        for i in min_v..min_v + extent_v {
            mm.regs[slot as usize] = CValue::S(Scalar::Int(i));
            exec(prog, body, &mut mm, ctx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_stmt, Frame};
    use halide_ir::ScalarType;
    use halide_ir::{Expr, Stmt, Type};
    use halide_runtime::ThreadPool;

    fn ctx() -> Context {
        Context::new(ThreadPool::new(4), true)
    }

    /// Runs a statement through both backends against fresh float buffers of
    /// the given sizes and asserts bit-identical buffer contents and
    /// identical counters.
    fn assert_backends_agree(s: &Stmt, buffers: &[(&str, i64)]) {
        // Interpreter.
        let ictx = ctx();
        let mut frame = Frame::default();
        let mut interp_bufs = Vec::new();
        for (name, len) in buffers {
            let b = Arc::new(Buffer::with_extents(ScalarType::Float(32), &[*len]));
            frame.insert_buffer(name.to_string(), Arc::clone(&b));
            interp_bufs.push(b);
        }
        eval_stmt(s, &mut frame, &ictx).unwrap();

        // Compiled.
        let prog = Program::compile_stmt(s).unwrap();
        let cctx = ctx();
        let mut m = Machine::new(&prog);
        let mut compiled_bufs = Vec::new();
        for (name, len) in buffers {
            let b = Arc::new(Buffer::with_extents(ScalarType::Float(32), &[*len]));
            if let Some(idx) = prog.free_buf(name) {
                m.set_buf(idx, Arc::clone(&b));
            }
            compiled_bufs.push(b);
        }
        exec(&prog, &prog.body, &mut m, &cctx).unwrap();

        for ((name, _), (a, b)) in buffers.iter().zip(interp_bufs.iter().zip(&compiled_bufs)) {
            let av = a.to_f64_vec();
            let bv = b.to_f64_vec();
            assert_eq!(av.len(), bv.len());
            for (i, (x, y)) in av.iter().zip(bv.iter()).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "buffer {name}[{i}]: interp {x} != compiled {y}"
                );
            }
        }
        // `peak_bytes_live` depends on how many parallel iterations happen
        // to overlap, which is scheduling- not semantics-dependent; compare
        // everything else exactly.
        let mut ic = ictx.counters.snapshot();
        let mut cc = cctx.counters.snapshot();
        ic.peak_bytes_live = 0;
        cc.peak_bytes_live = 0;
        assert_eq!(ic, cc, "counters diverge between backends");
    }

    /// Store `value(i)` for i in [0, n) — a loop wrapping an expression so
    /// both backends evaluate it the same number of times.
    fn store_loop(value: Expr, n: i64, kind: ForKind) -> Stmt {
        Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::int(n as i32),
            kind,
            Stmt::store("out", value, Expr::var_i32("i")),
        )
    }

    #[test]
    fn intrinsics_agree_on_both_backends() {
        let x = Expr::var_i32("i").cast(Type::f32()) + 0.5f32;
        let xi = Expr::var_i32("i") - 3;
        let cases: Vec<Expr> = vec![
            x.sqrt(),
            x.exp(),
            x.log(),
            x.pow(Expr::f32(1.7)),
            x.abs(),
            xi.abs().cast(Type::f32()),
            x.floor(),
            x.ceil(),
            Expr::intrinsic("round", vec![x.clone()], Type::f32()),
            Expr::intrinsic("sin", vec![x.clone()], Type::f32()),
            Expr::intrinsic("cos", vec![x.clone()], Type::f32()),
            Expr::intrinsic("tanh", vec![x.clone()], Type::f32()),
            Expr::intrinsic("atan2", vec![x.clone(), Expr::f32(2.0)], Type::f32()),
            Expr::intrinsic("min", vec![x.clone(), Expr::f32(3.0)], Type::f32()),
            Expr::intrinsic("max", vec![x.clone(), Expr::f32(3.0)], Type::f32()),
            Expr::intrinsic("min", vec![xi.clone(), Expr::int(0)], Type::i32()).cast(Type::f32()),
            Expr::intrinsic("max", vec![xi, Expr::int(0)], Type::i32()).cast(Type::f32()),
        ];
        for value in cases {
            assert_backends_agree(&store_loop(value, 8, ForKind::Serial), &[("out", 8)]);
        }
    }

    #[test]
    fn arithmetic_lets_selects_agree() {
        let i = Expr::var_i32("i");
        let cases: Vec<Expr> = vec![
            (i.clone() * 3 + 7).cast(Type::f32()) / 1.5f32,
            (i.clone() % 4).cast(Type::f32()),
            Expr::let_in(
                "t",
                i.clone() * 2,
                (Expr::var_i32("t") + Expr::var_i32("t")).cast(Type::f32()),
            ),
            Expr::select(
                Expr::lt(i.clone() % 2, Expr::int(1)),
                i.clone().cast(Type::f32()),
                -i.clone().cast(Type::f32()),
            ),
            Expr::select(
                Expr::and(
                    Expr::lt(i.clone(), Expr::int(6)),
                    Expr::gt(i.clone(), Expr::int(1)),
                ),
                Expr::f32(1.0),
                Expr::f32(0.0),
            ),
            Expr::select(
                Expr::or(
                    Expr::lt(i.clone(), Expr::int(2)),
                    Expr::not(Expr::lt(i.clone(), Expr::int(5))),
                ),
                Expr::f32(1.0),
                Expr::f32(0.0),
            ),
        ];
        for value in cases {
            assert_backends_agree(&store_loop(value, 8, ForKind::Serial), &[("out", 8)]);
        }
    }

    #[test]
    fn vector_ramps_agree() {
        // out[ramp(i*4, 1, 4)] = src-less vector arithmetic.
        let idx = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let value = idx.clone().cast(Type::f32()) * 0.25f32 + 1.0f32;
        let s = Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::int(4),
            ForKind::Serial,
            Stmt::store("out", value, idx),
        );
        assert_backends_agree(&s, &[("out", 16)]);
    }

    #[test]
    fn parallel_loops_and_allocations_agree() {
        // A parallel loop whose body allocates a scratch buffer, fills it,
        // and reduces it into the output — exercises machine cloning,
        // per-chunk allocation scoping, and the structural counters.
        let scratch_store = Stmt::store(
            "tmp",
            Expr::var_i32("j").cast(Type::f32()) + Expr::var_i32("i").cast(Type::f32()),
            Expr::var_i32("j"),
        );
        let fill = Stmt::for_loop(
            "j",
            Expr::int(0),
            Expr::int(4),
            ForKind::Serial,
            scratch_store,
        );
        let reduce = Stmt::store(
            "out",
            Expr::load(Type::f32(), "tmp", Expr::int(0))
                + Expr::load(Type::f32(), "tmp", Expr::int(3)),
            Expr::var_i32("i"),
        );
        let body = Stmt::allocate(
            "tmp",
            Type::f32(),
            Expr::int(4),
            Stmt::block_of(vec![fill, reduce]),
        );
        let s = Stmt::for_loop("i", Expr::int(0), Expr::int(64), ForKind::Parallel, body);
        assert_backends_agree(&s, &[("out", 64)]);
    }

    #[test]
    fn hoisted_invariant_lets_agree() {
        // let a = 5; let b = a + 1 at the head of a loop body: peeled at
        // compile time by the compiled backend, per loop entry by the
        // interpreter — identical results and counters either way.
        let body = Stmt::let_stmt(
            "a",
            Expr::int(5),
            Stmt::let_stmt(
                "b",
                Expr::var_i32("a") + 1,
                Stmt::store(
                    "out",
                    (Expr::var_i32("b") + Expr::var_i32("i")).cast(Type::f32()),
                    Expr::var_i32("i"),
                ),
            ),
        );
        for kind in [ForKind::Serial, ForKind::Parallel] {
            let s = Stmt::for_loop("i", Expr::int(0), Expr::int(16), kind, body.clone());
            assert_backends_agree(&s, &[("out", 16)]);
        }
    }

    #[test]
    fn gpu_launches_agree() {
        let body = Stmt::store(
            "out",
            Expr::load(
                Type::f32(),
                "src",
                Expr::var_i32("bx") * 4 + Expr::var_i32("tx"),
            ) * 2.0f32,
            Expr::var_i32("bx") * 4 + Expr::var_i32("tx"),
        );
        let threads = Stmt::for_loop("tx", Expr::int(0), Expr::int(4), ForKind::GpuThread, body);
        let blocks = Stmt::for_loop("bx", Expr::int(0), Expr::int(4), ForKind::GpuBlock, threads);
        assert_backends_agree(&blocks, &[("src", 16), ("out", 16)]);
    }

    /// Fills `src[j] = j * 1.5 - 3.0` for j in [0, n) — gives loads real
    /// data to chew on inside a single differential statement.
    fn fill_loop(buf: &str, n: i64) -> Stmt {
        Stmt::for_loop(
            "j",
            Expr::int(0),
            Expr::int(n as i32),
            ForKind::Serial,
            Stmt::store(
                buf,
                Expr::var_i32("j").cast(Type::f32()) * 1.5f32 - 3.0f32,
                Expr::var_i32("j"),
            ),
        )
    }

    #[test]
    fn masked_selects_blend_identically() {
        // A vector-condition select whose arms are both loads: the engines
        // evaluate both arms and blend — outputs, masked-select and
        // dense-load counters must all match.
        let idx = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let mask = Expr::lt(idx.clone() % 3, Expr::broadcast(Expr::int(2), 4));
        let value = Expr::select(
            mask,
            Expr::load(Type::f32(), "src", idx.clone()),
            Expr::load(Type::f32(), "src", idx.clone()) * -1.0f32,
        );
        let s = Stmt::block_of(vec![
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(4),
                ForKind::Serial,
                Stmt::store("out", value, idx),
            ),
        ]);
        assert_backends_agree(&s, &[("src", 16), ("out", 16)]);
    }

    #[test]
    fn masked_select_with_oob_unless_masked_arm_errors_on_both_backends() {
        // The false arm loads 100 elements past the allocation. A masked
        // blend still evaluates both (side-effect-free) arms, so BOTH
        // engines must report the out-of-bounds load — the mask does not
        // license skipping the untaken lanes' bounds checks.
        let idx = Expr::ramp(Expr::int(0), Expr::int(1), 4);
        let value = Expr::select(
            Expr::lt(idx.clone(), Expr::broadcast(Expr::int(99), 4)),
            Expr::load(Type::f32(), "src", idx.clone()),
            Expr::load(Type::f32(), "src", idx.clone() + 100),
        );
        let s = Stmt::store("out", value, idx);

        let prog = Program::compile_stmt(&s).unwrap();
        let cctx = ctx();
        let mut m = Machine::new(&prog);
        for name in ["src", "out"] {
            m.set_buf(
                prog.free_buf(name).unwrap(),
                Arc::new(Buffer::with_extents(ScalarType::Float(32), &[8])),
            );
        }
        let compiled_err = exec(&prog, &prog.body, &mut m, &cctx).unwrap_err();
        assert!(compiled_err.to_string().contains("outside the allocation"));

        let ictx = ctx();
        let mut frame = Frame::default();
        for name in ["src", "out"] {
            frame.insert_buffer(
                name.to_string(),
                Arc::new(Buffer::with_extents(ScalarType::Float(32), &[8])),
            );
        }
        let interp_err = eval_stmt(&s, &mut frame, &ictx).unwrap_err();
        assert_eq!(compiled_err.to_string(), interp_err.to_string());
    }

    #[test]
    fn strided_loads_and_stores_agree() {
        // Non-unit-stride ramps on both the load and the store side: the
        // compiled engine's bulk strided paths against the interpreter's
        // per-lane loops, including the strided-access counters.
        let load_idx = Expr::ramp(Expr::var_i32("i"), Expr::int(3), 4);
        let store_idx = Expr::ramp(Expr::var_i32("i") * 8, Expr::int(2), 4);
        let s = Stmt::block_of(vec![
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(4),
                ForKind::Serial,
                Stmt::store(
                    "out",
                    Expr::load(Type::f32(), "src", load_idx) * 2.0f32,
                    store_idx,
                ),
            ),
        ]);
        assert_backends_agree(&s, &[("src", 16), ("out", 32)]);
    }

    #[test]
    fn data_dependent_gather_and_scatter_agree() {
        // Indices loaded from a buffer (data-dependent): the load is a bulk
        // gather and the store a bulk scatter on the compiled engine; both
        // engines must agree on values and on the gather/scatter counters.
        let lane = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let perm = Stmt::for_loop(
            "j",
            Expr::int(0),
            Expr::int(16),
            ForKind::Serial,
            Stmt::store("ind", (Expr::var_i32("j") * 7) % 16, Expr::var_i32("j")),
        );
        let gathered = Expr::load(
            Type::f32(),
            "src",
            Expr::load(Type::i32(), "ind", lane.clone()).cast(Type::i32()),
        );
        let s = Stmt::block_of(vec![
            perm,
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(4),
                ForKind::Serial,
                Stmt::store(
                    "out",
                    gathered + 1.0f32,
                    Expr::load(Type::i32(), "ind", lane).cast(Type::i32()),
                ),
            ),
        ]);
        // `ind` is a float-storage buffer here (the helper allocates f32),
        // which exercises the trunc-to-int index conversions identically on
        // both engines.
        assert_backends_agree(&s, &[("ind", 16), ("src", 16), ("out", 16)]);
    }

    #[test]
    fn clamped_gather_loads_agree() {
        // The fused clamped-gather form against the interpreter's
        // min/max-then-load: identical values, arith counts, and pattern
        // counters — at the edges where the clamp actually bites.
        let idx = Expr::ramp(Expr::var_i32("i") * 4 - 6, Expr::int(1), 4);
        let clamped = Expr::max(
            Expr::min(idx, Expr::broadcast(Expr::int(15), 4)),
            Expr::broadcast(Expr::int(0), 4),
        );
        let s = Stmt::block_of(vec![
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(6),
                ForKind::Serial,
                Stmt::store(
                    "out",
                    Expr::load(Type::f32(), "src", clamped),
                    Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4),
                ),
            ),
        ]);
        assert_backends_agree(&s, &[("src", 16), ("out", 24)]);
    }

    #[test]
    fn masked_dense_and_strided_ops_agree() {
        // Predicated (masked) loads and stores — the form predicate-tail
        // vectorization emits — on unit-stride and strided ramps with a
        // mixed mask: the compiled engine's bulk masked paths against the
        // interpreter's per-lane loop, values and masked-op counters alike.
        let dense = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let strided = Expr::ramp(Expr::var_i32("i") * 8, Expr::int(2), 4);
        for idx in [dense, strided] {
            let mask = Expr::lt(idx.clone() % 3, Expr::broadcast(Expr::int(2), 4));
            let value =
                Expr::load_predicated(Type::f32(), "src", idx.clone(), mask.clone()) * 2.0f32;
            let s = Stmt::block_of(vec![
                fill_loop("src", 32),
                Stmt::for_loop(
                    "i",
                    Expr::int(0),
                    Expr::int(4),
                    ForKind::Serial,
                    Stmt::store_predicated("out", value, idx, mask),
                ),
            ]);
            assert_backends_agree(&s, &[("src", 32), ("out", 32)]);
        }

        // An all-true mask falls through to the unmasked bulk dispatch on
        // both engines — same values, same (unmasked) counters.
        let idx = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let mask = Expr::lt(idx.clone(), Expr::broadcast(Expr::int(100), 4));
        let value = Expr::load_predicated(Type::f32(), "src", idx.clone(), mask.clone()) + 1.0f32;
        let s = Stmt::block_of(vec![
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(4),
                ForKind::Serial,
                Stmt::store_predicated("out", value, idx, mask),
            ),
        ]);
        assert_backends_agree(&s, &[("src", 16), ("out", 16)]);
    }

    #[test]
    fn masked_oob_lanes_skip_checks_only_when_disabled() {
        // A ramp whose last two lanes run past the allocation — the shape
        // of a predicated tail. With those lanes masked off, both engines
        // skip them: no fault, disabled load lanes yield zero, disabled
        // store lanes stay untouched.
        let idx = Expr::ramp(Expr::int(4), Expr::int(1), 4); // lanes 4..8 of a 6-buffer
        let in_range = Expr::lt(idx.clone(), Expr::broadcast(Expr::int(6), 4));
        let value =
            Expr::load_predicated(Type::f32(), "src", idx.clone(), in_range.clone()) + 1.0f32;
        let ok = Stmt::block_of(vec![
            fill_loop("src", 6),
            Stmt::store_predicated("out", value, idx.clone(), in_range),
        ]);
        assert_backends_agree(&ok, &[("src", 6), ("out", 6)]);

        // The same lanes *enabled* must fault — the mask, not luck, is what
        // licenses the overhang — and both engines must report the very
        // same error, for the store and for the load.
        let enabled = Expr::lt(idx.clone(), Expr::broadcast(Expr::int(100), 4));
        let bad_store = Stmt::store_predicated(
            "out",
            Expr::broadcast(Expr::f32(1.0), 4),
            idx.clone(),
            enabled.clone(),
        );
        let bad_load = Stmt::store(
            "out",
            Expr::load_predicated(Type::f32(), "src", idx.clone() + 100, enabled),
            Expr::ramp(Expr::int(0), Expr::int(1), 4),
        );
        for s in [bad_store, bad_load] {
            let prog = Program::compile_stmt(&s).unwrap();
            let cctx = ctx();
            let mut m = Machine::new(&prog);
            for name in ["src", "out"] {
                if let Some(b) = prog.free_buf(name) {
                    m.set_buf(
                        b,
                        Arc::new(Buffer::with_extents(ScalarType::Float(32), &[6])),
                    );
                }
            }
            let compiled_err = exec(&prog, &prog.body, &mut m, &cctx).unwrap_err();
            assert!(
                compiled_err.to_string().contains("outside the allocation"),
                "{compiled_err}"
            );

            let ictx = ctx();
            let mut frame = Frame::default();
            for name in ["src", "out"] {
                frame.insert_buffer(
                    name.to_string(),
                    Arc::new(Buffer::with_extents(ScalarType::Float(32), &[6])),
                );
            }
            let interp_err = eval_stmt(&s, &mut frame, &ictx).unwrap_err();
            assert_eq!(compiled_err.to_string(), interp_err.to_string());
        }
    }

    #[test]
    fn narrow_value_through_wide_ramp_store_agrees() {
        // Regression: a 2-lane value stored through a 4-lane ramp (unit or
        // wider stride) must clamp lanes like the interpreter
        // (set_flat_lane), not panic or stop after the value's lanes.
        for stride in [1, 2] {
            let value = Expr::ramp(Expr::int(10), Expr::int(1), 2).cast(Type::f32());
            let idx = Expr::ramp(Expr::int(0), Expr::int(stride), 4);
            let s = Stmt::store("out", value, idx);
            assert_backends_agree(&s, &[("out", 8)]);
        }
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let s = Stmt::store("out", Expr::f32(1.0), Expr::int(99));
        let prog = Program::compile_stmt(&s).unwrap();
        let c = ctx();
        let mut m = Machine::new(&prog);
        m.set_buf(
            prog.free_buf("out").unwrap(),
            Arc::new(Buffer::with_extents(ScalarType::Float(32), &[4])),
        );
        let err = exec(&prog, &prog.body, &mut m, &c).unwrap_err();
        assert!(err.to_string().contains("outside the allocation"));
    }

    #[test]
    fn out_of_bounds_inside_parallel_loop_is_reported() {
        let body = Stmt::store("out", Expr::f32(1.0), Expr::var_i32("i"));
        let s = Stmt::for_loop("i", Expr::int(0), Expr::int(100), ForKind::Parallel, body);
        let prog = Program::compile_stmt(&s).unwrap();
        let c = ctx();
        let mut m = Machine::new(&prog);
        m.set_buf(
            prog.free_buf("out").unwrap(),
            Arc::new(Buffer::with_extents(ScalarType::Float(32), &[4])),
        );
        assert!(exec(&prog, &prog.body, &mut m, &c).is_err());
    }

    #[test]
    fn unknown_intrinsics_fail_at_compile_time() {
        let s = Stmt::store(
            "out",
            Expr::intrinsic("no_such_intrinsic", vec![Expr::int(0)], Type::i32()),
            Expr::int(0),
        );
        let err = Program::compile_stmt(&s).unwrap_err();
        assert!(err.to_string().contains("no_such_intrinsic"));
    }

    #[test]
    fn asserts_and_conditionals_execute() {
        let s = Stmt::block_of(vec![
            Stmt::assert_stmt(Expr::bool(true), "fine"),
            Stmt::if_then_else(
                Expr::bool(false),
                Stmt::assert_stmt(Expr::bool(false), "unreachable"),
                Some(Stmt::store("out", Expr::f32(7.0), Expr::int(0))),
            ),
        ]);
        assert_backends_agree(&s, &[("out", 1)]);

        let failing = Stmt::assert_stmt(Expr::bool(false), "boom");
        let prog = Program::compile_stmt(&failing).unwrap();
        let c = ctx();
        let mut m = Machine::new(&prog);
        let err = exec(&prog, &prog.body, &mut m, &c).unwrap_err();
        assert!(err.to_string().contains("boom"));
    }
}
