//! Runtime values: scalars and SIMD-style vectors.
//!
//! The executor evaluates every expression to a [`Value`]: a vector of lanes
//! that is either integer (covering all signed/unsigned integer and boolean
//! IR types, stored as `i64`) or floating point (`f64`). A scalar is simply a
//! one-lane vector. Mixed-lane operations broadcast the scalar side, which is
//! how vectorized code produced by Sec. 4.5 of the paper executes without a
//! separate static broadcasting pass.
//!
//! The lane arithmetic itself lives in allocation-free kernels over
//! `&[i64]`/`&[f64]` slices ([`Lanes`], [`bin_int`], [`blend_float`], …).
//! The `Value` operations here call them, and so does the compiled engine's
//! register file, so both backends share one definition of every lane.

use halide_ir::{BinOp, CmpOp, ScalarType};

/// A runtime value: one or more lanes of integers or floats.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer lanes (also used for unsigned and boolean values).
    Int(Vec<i64>),
    /// Floating-point lanes.
    Float(Vec<f64>),
}

/// An unboxed one-lane value: the register type of the compiled execution
/// engine.
///
/// [`Value`] heap-allocates a `Vec` even for scalars, which dominates the
/// interpreter's per-operation cost. `Scalar` is a plain `Copy` enum carrying
/// the same two kinds, and every operation on it is defined to be
/// **bit-identical** to the corresponding one-lane [`Value`] operation
/// (promotion to float when either side is float, floor division/modulo for
/// integers, the same cast wrapping/truncation rules), so the compiled
/// backend and the interpreting backend produce identical results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// An integer (also unsigned and boolean values, as in [`Value::Int`]).
    Int(i64),
    /// A float.
    Float(f64),
}

impl Scalar {
    /// True for the float kind.
    pub fn is_float(self) -> bool {
        matches!(self, Scalar::Float(_))
    }

    /// The value as an `f64` (exact for the integer kind, like
    /// [`Value::as_f64`]).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::Int(v) => v as f64,
            Scalar::Float(v) => v,
        }
    }

    /// The value as an `i64`, truncating floats toward zero (the semantics of
    /// [`Value::lane_int`]).
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            Scalar::Int(v) => v,
            Scalar::Float(v) => v as i64,
        }
    }

    /// The value interpreted as a boolean (non-zero is true, like
    /// [`Value::as_bool`]).
    #[inline]
    pub fn as_bool(self) -> bool {
        self.as_f64() != 0.0
    }

    /// Converts to a one-lane [`Value`] of the same kind.
    pub fn to_value(self) -> Value {
        match self {
            Scalar::Int(v) => Value::int(v),
            Scalar::Float(v) => Value::float(v),
        }
    }

    /// Casts to the given scalar type with exactly the semantics of
    /// [`Value::cast_to`] on a one-lane value.
    #[inline]
    pub fn cast_to(self, ty: ScalarType) -> Scalar {
        match ty {
            ScalarType::Float(32) => Scalar::Float(self.as_f64() as f32 as f64),
            ScalarType::Float(_) => Scalar::Float(self.as_f64()),
            ScalarType::UInt(1) => Scalar::Int((self.as_f64() != 0.0) as i64),
            ScalarType::UInt(bits) => {
                let mask: i64 = if bits >= 63 { -1 } else { (1i64 << bits) - 1 };
                Scalar::Int(self.trunc_i64() & mask)
            }
            ScalarType::Int(bits) => {
                let shift = 64 - bits as u32;
                let v = self.trunc_i64();
                Scalar::Int(if shift == 0 { v } else { (v << shift) >> shift })
            }
        }
    }

    /// The value as an `i64`, truncating floats toward zero (the rule of
    /// integer casts, like [`cast_to_int`]).
    #[inline]
    fn trunc_i64(self) -> i64 {
        match self {
            Scalar::Int(v) => v,
            Scalar::Float(v) => v.trunc() as i64,
        }
    }
}

/// Applies a binary arithmetic operator to two scalars with exactly the
/// semantics of [`binary_op`] on one-lane values: promote to float when
/// either side is float, floor division/modulo for integers.
#[inline]
pub fn scalar_binary_op(op: BinOp, a: Scalar, b: Scalar) -> Scalar {
    match (a, b) {
        (Scalar::Int(x), Scalar::Int(y)) => Scalar::Int(int_bin(op, x, y)),
        _ => Scalar::Float(float_bin(op, a.as_f64(), b.as_f64())),
    }
}

/// Whether a comparison operator holds for an ordering — the single
/// definition behind every scalar and lane comparison path.
#[inline]
fn cmp_holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    }
}

/// Applies a comparison to two scalars, producing a boolean (0/1) scalar —
/// the one-lane form of [`compare_op`].
#[inline]
pub fn scalar_compare_op(op: CmpOp, a: Scalar, b: Scalar) -> Scalar {
    let ord = match (a, b) {
        (Scalar::Int(x), Scalar::Int(y)) => x.cmp(&y),
        _ => float_ord(a.as_f64(), b.as_f64()),
    };
    Scalar::Int(cmp_holds(op, ord) as i64)
}

impl Value {
    /// A one-lane integer.
    pub fn int(v: i64) -> Value {
        Value::Int(vec![v])
    }

    /// A one-lane float.
    pub fn float(v: f64) -> Value {
        Value::Float(vec![v])
    }

    /// A one-lane boolean (stored as 0/1).
    pub fn bool(v: bool) -> Value {
        Value::Int(vec![v as i64])
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        match self {
            Value::Int(v) => v.len(),
            Value::Float(v) => v.len(),
        }
    }

    /// True if this is a single-lane value.
    pub fn is_scalar(&self) -> bool {
        self.lanes() == 1
    }

    /// The single integer lane.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a one-lane integer.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) if v.len() == 1 => v[0],
            other => panic!("expected a scalar integer, got {other:?}"),
        }
    }

    /// The single lane as an `f64` (works for both kinds).
    ///
    /// # Panics
    ///
    /// Panics if the value is not one-lane.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int(v) if v.len() == 1 => v[0] as f64,
            Value::Float(v) if v.len() == 1 => v[0],
            other => panic!("expected a scalar, got {other:?}"),
        }
    }

    /// The single lane interpreted as a boolean.
    ///
    /// # Panics
    ///
    /// Panics if the value is not one-lane.
    pub fn as_bool(&self) -> bool {
        self.as_f64() != 0.0
    }

    /// Lane `i` as an `i64`, truncating floats.
    pub fn lane_int(&self, i: usize) -> i64 {
        match self {
            Value::Int(v) => v[i.min(v.len() - 1)],
            Value::Float(v) => v[i.min(v.len() - 1)] as i64,
        }
    }

    /// Lane `i` as an `f64`.
    pub fn lane_f64(&self, i: usize) -> f64 {
        match self {
            Value::Int(v) => v[i.min(v.len() - 1)] as f64,
            Value::Float(v) => v[i.min(v.len() - 1)],
        }
    }

    /// All lanes as `i64`.
    pub fn to_int_lanes(&self) -> Vec<i64> {
        match self {
            Value::Int(v) => v.clone(),
            Value::Float(v) => v.iter().map(|x| *x as i64).collect(),
        }
    }

    /// All lanes as `f64`.
    pub fn to_f64_lanes(&self) -> Vec<f64> {
        match self {
            Value::Int(v) => v.iter().map(|x| *x as f64).collect(),
            Value::Float(v) => v.clone(),
        }
    }

    /// If this value has exactly one lane, returns it as an unboxed
    /// [`Scalar`] of the same kind.
    pub fn as_scalar(&self) -> Option<Scalar> {
        match self {
            Value::Int(v) if v.len() == 1 => Some(Scalar::Int(v[0])),
            Value::Float(v) if v.len() == 1 => Some(Scalar::Float(v[0])),
            _ => None,
        }
    }

    /// Broadcasts a scalar to `lanes` lanes (no-op if already that wide).
    pub fn broadcast(&self, lanes: usize) -> Value {
        if self.lanes() == lanes {
            return self.clone();
        }
        match self {
            Value::Int(v) => Value::Int(vec![v[0]; lanes]),
            Value::Float(v) => Value::Float(vec![v[0]; lanes]),
        }
    }

    /// Casts every lane to the given scalar type, wrapping integers into the
    /// target width (matching hardware conversion behaviour) and truncating
    /// floats toward zero when converting to integers.
    pub fn cast_to(&self, ty: ScalarType) -> Value {
        let lanes = self.lanes();
        if ty.is_float() {
            let mut out = float_lanes(self, lanes);
            cast_float_lanes(ty, &mut out);
            Value::Float(out)
        } else {
            let mut out = vec![0; lanes];
            cast_to_int(ty, &mut out, self.view(lanes));
            Value::Int(out)
        }
    }

    /// True for the float kind.
    fn is_float(&self) -> bool {
        matches!(self, Value::Float(_))
    }

    /// This value as an operand of a lane kernel `lanes` wide: its own lanes
    /// when it is that wide, otherwise its lane 0 in every lane (the rule of
    /// [`Value::broadcast`]).
    fn view(&self, lanes: usize) -> Lanes<'_> {
        match self {
            Value::Int(v) if v.len() == lanes => Lanes::Int(v),
            Value::Float(v) if v.len() == lanes => Lanes::Float(v),
            Value::Int(v) => Lanes::Splat(Scalar::Int(v[0])),
            Value::Float(v) => Lanes::Splat(Scalar::Float(v[0])),
        }
    }
}

/// The float form of one binary operation lane (shared by every float path,
/// so all of them are bit-identical by construction).
#[inline]
fn float_bin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Mod => x - y * (x / y).floor(),
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
    }
}

/// The integer form of one binary operation lane (floor division/modulo,
/// wrapping arithmetic).
#[inline]
fn int_bin(op: BinOp, x: i64, y: i64) -> i64 {
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => halide_ir::simplify::div_floor(x, y),
        BinOp::Mod => halide_ir::simplify::mod_floor(x, y),
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
    }
}

/// The ordering of two float lanes; unordered (NaN) compares as greater.
#[inline]
fn float_ord(x: f64, y: f64) -> std::cmp::Ordering {
    x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Greater)
}

// ---- lane kernels ----------------------------------------------------------
//
// The one definition of vector lane arithmetic. The interpreter's `Value`
// operations below and the compiled engine's register file (flat lane
// arenas, see `halide-exec`'s machine) both run through these kernels, so
// the two backends agree bit for bit by construction. Kernels never
// allocate: they write into a caller-owned `out` slice, in place where an
// operand already sits there.

/// One operand of a lane kernel: where lane `i` of a vector operation reads
/// from.
#[derive(Debug, Clone, Copy)]
pub enum Lanes<'a> {
    /// Integer lanes, one per lane of the operation.
    Int(&'a [i64]),
    /// Float lanes, one per lane of the operation.
    Float(&'a [f64]),
    /// The same scalar in every lane: a scalar operand, or lane 0 of an
    /// operand of another width (the rule of [`Value::broadcast`]).
    Splat(Scalar),
    /// The integer ramp `base + stride * i`, never materialized.
    Ramp {
        /// Lane 0.
        base: i64,
        /// The lane-to-lane step.
        stride: i64,
    },
}

impl Lanes<'_> {
    /// True for the float kind.
    pub fn is_float(&self) -> bool {
        match self {
            Lanes::Float(_) => true,
            Lanes::Splat(s) => s.is_float(),
            Lanes::Int(_) | Lanes::Ramp { .. } => false,
        }
    }

    /// Lane `i` as an `i64`, truncating floats (the rule of
    /// [`Value::lane_int`]).
    #[inline]
    pub fn int_at(&self, i: usize) -> i64 {
        match *self {
            Lanes::Int(v) => v[i],
            Lanes::Float(v) => v[i] as i64,
            Lanes::Splat(s) => s.as_i64(),
            Lanes::Ramp { base, stride } => base + stride * i as i64,
        }
    }

    /// Lane `i` as a [`Scalar`] of the operand's kind.
    #[inline]
    pub fn scalar_at(&self, i: usize) -> Scalar {
        match *self {
            Lanes::Float(v) => Scalar::Float(v[i]),
            Lanes::Splat(s) => s,
            _ => Scalar::Int(self.int_at(i)),
        }
    }
}

/// Expands `$body` once per operand shape, with `$at` bound to a lane reader
/// that converts to `i64` (`int`) or `f64` (`float`): every kernel loop is
/// then a tight loop over one operand shape.
macro_rules! read_lanes {
    (int, $src:expr, $n:expr, |$at:ident| $body:expr) => {
        match $src {
            Lanes::Int(v) => {
                let v = &v[..$n];
                let $at = |i: usize| v[i];
                $body
            }
            Lanes::Float(v) => {
                let v = &v[..$n];
                let $at = |i: usize| v[i] as i64;
                $body
            }
            Lanes::Splat(s) => {
                let x = s.as_i64();
                let $at = |_: usize| x;
                $body
            }
            Lanes::Ramp { base, stride } => {
                let $at = |i: usize| base + stride * i as i64;
                $body
            }
        }
    };
    (float, $src:expr, $n:expr, |$at:ident| $body:expr) => {
        match $src {
            Lanes::Int(v) => {
                let v = &v[..$n];
                let $at = |i: usize| v[i] as f64;
                $body
            }
            Lanes::Float(v) => {
                let v = &v[..$n];
                let $at = |i: usize| v[i];
                $body
            }
            Lanes::Splat(s) => {
                let x = s.as_f64();
                let $at = |_: usize| x;
                $body
            }
            Lanes::Ramp { base, stride } => {
                let $at = |i: usize| (base + stride * i as i64) as f64;
                $body
            }
        }
    };
}

/// Writes `src` into `out` as integers (floats truncate toward zero).
pub fn fill_int(out: &mut [i64], src: Lanes<'_>) {
    let n = out.len();
    read_lanes!(int, src, n, |at| {
        for (i, x) in out.iter_mut().enumerate() {
            *x = at(i);
        }
    })
}

/// Writes `src` into `out` as floats.
pub fn fill_float(out: &mut [f64], src: Lanes<'_>) {
    let n = out.len();
    read_lanes!(float, src, n, |at| {
        for (i, x) in out.iter_mut().enumerate() {
            *x = at(i);
        }
    })
}

/// `out[i] = f(out[i], src[i])` (or `f(src[i], out[i])` when `out_is_lhs`
/// is false) over integer lanes.
#[inline(always)]
fn zip_int(out: &mut [i64], src: Lanes<'_>, out_is_lhs: bool, f: impl Fn(i64, i64) -> i64) {
    let n = out.len();
    read_lanes!(int, src, n, |at| {
        if out_is_lhs {
            for (i, x) in out.iter_mut().enumerate() {
                *x = f(*x, at(i));
            }
        } else {
            for (i, x) in out.iter_mut().enumerate() {
                *x = f(at(i), *x);
            }
        }
    })
}

/// `out[i] = f(out[i], src[i])` (or `f(src[i], out[i])` when `out_is_lhs`
/// is false) over float lanes; also the lane loop of the binary float
/// intrinsics.
#[inline(always)]
pub fn zip_float(out: &mut [f64], src: Lanes<'_>, out_is_lhs: bool, f: impl Fn(f64, f64) -> f64) {
    let n = out.len();
    read_lanes!(float, src, n, |at| {
        if out_is_lhs {
            for (i, x) in out.iter_mut().enumerate() {
                *x = f(*x, at(i));
            }
        } else {
            for (i, x) in out.iter_mut().enumerate() {
                *x = f(at(i), *x);
            }
        }
    })
}

/// Instantiates a lane loop once per operator, so the operator is a
/// constant inside every loop.
macro_rules! per_op {
    ($op:expr, |$o:ident| $body:expr) => {
        match $op {
            BinOp::Add => {
                let $o = BinOp::Add;
                $body
            }
            BinOp::Sub => {
                let $o = BinOp::Sub;
                $body
            }
            BinOp::Mul => {
                let $o = BinOp::Mul;
                $body
            }
            BinOp::Div => {
                let $o = BinOp::Div;
                $body
            }
            BinOp::Mod => {
                let $o = BinOp::Mod;
                $body
            }
            BinOp::Min => {
                let $o = BinOp::Min;
                $body
            }
            BinOp::Max => {
                let $o = BinOp::Max;
                $body
            }
        }
    };
}

/// A binary operator over integer lanes, in place on `out` (the left
/// operand when `out_is_lhs`, else the right one).
pub fn bin_int(op: BinOp, out: &mut [i64], src: Lanes<'_>, out_is_lhs: bool) {
    per_op!(op, |o| zip_int(out, src, out_is_lhs, |x, y| int_bin(
        o, x, y
    )))
}

/// A binary operator over float lanes, in place on `out` (the left operand
/// when `out_is_lhs`, else the right one).
pub fn bin_float(op: BinOp, out: &mut [f64], src: Lanes<'_>, out_is_lhs: bool) {
    per_op!(op, |o| zip_float(out, src, out_is_lhs, |x, y| float_bin(
        o, x, y
    )))
}

/// A comparison of integer lanes, in place on `out` (the left operand when
/// `out_is_lhs`, else the right one), producing 0/1 lanes.
pub fn cmp_int(op: CmpOp, out: &mut [i64], src: Lanes<'_>, out_is_lhs: bool) {
    zip_int(out, src, out_is_lhs, |x, y| cmp_holds(op, x.cmp(&y)) as i64)
}

/// A comparison of `a` and `b` as floats, producing 0/1 lanes in `out`.
pub fn cmp_float(op: CmpOp, out: &mut [i64], a: Lanes<'_>, b: Lanes<'_>) {
    let n = out.len();
    read_lanes!(float, a, n, |x| read_lanes!(float, b, n, |y| {
        for (i, o) in out.iter_mut().enumerate() {
            *o = cmp_holds(op, float_ord(x(i), y(i))) as i64;
        }
    }))
}

/// Mask and blend over integer lanes: `out` holds one arm of a select (the
/// true arm when `out_is_true`), and its lanes the mask does not pick are
/// overwritten from `other`. A mask lane is true when its integer value
/// (floats truncate) is non-zero.
pub fn blend_int(out: &mut [i64], cond: Lanes<'_>, other: Lanes<'_>, out_is_true: bool) {
    let n = out.len();
    read_lanes!(int, cond, n, |c| read_lanes!(int, other, n, |o| {
        for (i, x) in out.iter_mut().enumerate() {
            if (c(i) != 0) != out_is_true {
                *x = o(i);
            }
        }
    }))
}

/// Mask and blend over float lanes; see [`blend_int`].
pub fn blend_float(out: &mut [f64], cond: Lanes<'_>, other: Lanes<'_>, out_is_true: bool) {
    let n = out.len();
    read_lanes!(int, cond, n, |c| read_lanes!(float, other, n, |o| {
        for (i, x) in out.iter_mut().enumerate() {
            if (c(i) != 0) != out_is_true {
                *x = o(i);
            }
        }
    }))
}

/// Casts integer lanes in place to the integer type `ty`: wrap into the
/// target width (booleans test for non-zero).
pub fn cast_int_lanes(ty: ScalarType, out: &mut [i64]) {
    match ty {
        ScalarType::UInt(1) => out.iter_mut().for_each(|x| *x = (*x != 0) as i64),
        ScalarType::UInt(bits) => {
            let mask: i64 = if bits >= 63 { -1 } else { (1i64 << bits) - 1 };
            out.iter_mut().for_each(|x| *x &= mask);
        }
        ScalarType::Int(bits) => {
            let shift = 64 - bits as u32;
            if shift != 0 {
                out.iter_mut().for_each(|x| *x = (*x << shift) >> shift);
            }
        }
        ScalarType::Float(_) => unreachable!("cast_int_lanes to a float type"),
    }
}

/// Casts float lanes in place to the float type `ty` (`f32` rounds through
/// single precision; wider types are unchanged).
pub fn cast_float_lanes(ty: ScalarType, out: &mut [f64]) {
    if ty == ScalarType::Float(32) {
        out.iter_mut().for_each(|x| *x = *x as f32 as f64);
    }
}

/// Writes `src` cast to the integer type `ty` into `out`: floats truncate
/// toward zero and then wrap, except that a boolean tests the float itself.
pub fn cast_to_int(ty: ScalarType, out: &mut [i64], src: Lanes<'_>) {
    if ty == ScalarType::UInt(1) && src.is_float() {
        let n = out.len();
        read_lanes!(float, src, n, |at| {
            for (i, x) in out.iter_mut().enumerate() {
                *x = (at(i) != 0.0) as i64;
            }
        })
    } else {
        fill_int(out, src);
        cast_int_lanes(ty, out);
    }
}

// ---- Value operations ------------------------------------------------------

/// `v` as `lanes` float lanes (broadcast and converted).
fn float_lanes(v: &Value, lanes: usize) -> Vec<f64> {
    let mut out = vec![0.0; lanes];
    fill_float(&mut out, v.view(lanes));
    out
}

/// `v` as `lanes` integer lanes (broadcast and truncated).
fn int_lanes(v: &Value, lanes: usize) -> Vec<i64> {
    let mut out = vec![0; lanes];
    fill_int(&mut out, v.view(lanes));
    out
}

/// Applies a binary arithmetic operator lane-wise, promoting to float when
/// either side is float and broadcasting the scalar side when lane counts
/// differ. Integer division/modulo use the floor semantics of the IR.
pub fn binary_op(op: BinOp, a: &Value, b: &Value) -> Value {
    let lanes = a.lanes().max(b.lanes());
    if a.is_float() || b.is_float() {
        let mut out = float_lanes(a, lanes);
        bin_float(op, &mut out, b.view(lanes), true);
        Value::Float(out)
    } else {
        let mut out = int_lanes(a, lanes);
        bin_int(op, &mut out, b.view(lanes), true);
        Value::Int(out)
    }
}

/// Applies a comparison lane-wise, producing a boolean (0/1) vector.
pub fn compare_op(op: CmpOp, a: &Value, b: &Value) -> Value {
    let lanes = a.lanes().max(b.lanes());
    if a.is_float() || b.is_float() {
        let mut out = vec![0; lanes];
        cmp_float(op, &mut out, a.view(lanes), b.view(lanes));
        Value::Int(out)
    } else {
        let mut out = int_lanes(a, lanes);
        cmp_int(op, &mut out, b.view(lanes), true);
        Value::Int(out)
    }
}

/// Lane-wise select: a float result when either arm is float.
pub fn select_op(cond: &Value, t: &Value, f: &Value) -> Value {
    let lanes = cond.lanes().max(t.lanes()).max(f.lanes());
    if t.is_float() || f.is_float() {
        let mut out = float_lanes(t, lanes);
        blend_float(&mut out, cond.view(lanes), f.view(lanes), true);
        Value::Float(out)
    } else {
        let mut out = int_lanes(t, lanes);
        blend_int(&mut out, cond.view(lanes), f.view(lanes), true);
        Value::Int(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors() {
        assert_eq!(Value::int(3).as_int(), 3);
        assert_eq!(Value::float(2.5).as_f64(), 2.5);
        assert!(Value::bool(true).as_bool());
        assert!(Value::int(7).is_scalar());
        assert_eq!(Value::Int(vec![1, 2, 3]).lanes(), 3);
    }

    #[test]
    fn arithmetic_with_broadcast() {
        let v = Value::Int(vec![1, 2, 3, 4]);
        let s = Value::int(10);
        let sum = binary_op(BinOp::Add, &v, &s);
        assert_eq!(sum, Value::Int(vec![11, 12, 13, 14]));
        let prod = binary_op(BinOp::Mul, &s, &v);
        assert_eq!(prod, Value::Int(vec![10, 20, 30, 40]));
    }

    #[test]
    fn float_promotion() {
        let a = Value::int(3);
        let b = Value::float(0.5);
        assert_eq!(binary_op(BinOp::Add, &a, &b), Value::Float(vec![3.5]));
        assert_eq!(
            binary_op(BinOp::Div, &a, &Value::int(2)),
            Value::Int(vec![1])
        );
        assert_eq!(
            binary_op(BinOp::Div, &Value::int(-3), &Value::int(2)),
            Value::Int(vec![-2]),
            "integer division rounds toward negative infinity"
        );
    }

    #[test]
    fn comparisons_and_select() {
        let a = Value::Int(vec![1, 5, 3]);
        let b = Value::int(3);
        let lt = compare_op(CmpOp::Lt, &a, &b);
        assert_eq!(lt, Value::Int(vec![1, 0, 0]));
        let sel = select_op(&lt, &Value::int(100), &a);
        assert_eq!(sel, Value::Int(vec![100, 5, 3]));
        let ge = compare_op(CmpOp::Ge, &Value::float(1.5), &Value::float(1.5));
        assert_eq!(ge, Value::Int(vec![1]));
    }

    #[test]
    fn casts_wrap_and_truncate() {
        let v = Value::Int(vec![300, -1, 255]);
        assert_eq!(
            v.cast_to(ScalarType::UInt(8)),
            Value::Int(vec![44, 255, 255])
        );
        assert_eq!(
            Value::float(3.9).cast_to(ScalarType::Int(32)),
            Value::Int(vec![3])
        );
        assert_eq!(
            Value::Int(vec![200]).cast_to(ScalarType::Int(8)),
            Value::Int(vec![-56])
        );
        assert_eq!(
            Value::float(2.0).cast_to(ScalarType::UInt(1)),
            Value::Int(vec![1])
        );
        assert_eq!(
            Value::int(7).cast_to(ScalarType::Float(32)),
            Value::Float(vec![7.0])
        );
    }

    #[test]
    fn min_max_and_mod() {
        let a = Value::Int(vec![-7, 7]);
        let b = Value::int(3);
        assert_eq!(binary_op(BinOp::Mod, &a, &b), Value::Int(vec![2, 1]));
        assert_eq!(binary_op(BinOp::Min, &a, &b), Value::Int(vec![-7, 3]));
        assert_eq!(binary_op(BinOp::Max, &a, &b), Value::Int(vec![3, 7]));
    }

    /// The per-lane reference the kernels must reproduce: broadcast both
    /// operands, convert them to the result kind, apply the lane formula.
    fn reference_binary(op: BinOp, a: &Value, b: &Value) -> Value {
        let lanes = a.lanes().max(b.lanes());
        if a.is_float() || b.is_float() {
            let (av, bv) = (
                a.broadcast(lanes).to_f64_lanes(),
                b.broadcast(lanes).to_f64_lanes(),
            );
            Value::Float(
                av.iter()
                    .zip(&bv)
                    .map(|(x, y)| float_bin(op, *x, *y))
                    .collect(),
            )
        } else {
            let (av, bv) = (
                a.broadcast(lanes).to_int_lanes(),
                b.broadcast(lanes).to_int_lanes(),
            );
            Value::Int(
                av.iter()
                    .zip(&bv)
                    .map(|(x, y)| int_bin(op, *x, *y))
                    .collect(),
            )
        }
    }

    /// A kernel run with the result register holding the *right* operand
    /// (`out_is_lhs == false`), the compiled engine's form when only the
    /// right operand is a temporary.
    fn binary_into_rhs(op: BinOp, a: &Value, b: &Value) -> Value {
        let lanes = a.lanes().max(b.lanes());
        if a.is_float() || b.is_float() {
            let mut out = float_lanes(b, lanes);
            bin_float(op, &mut out, a.view(lanes), false);
            Value::Float(out)
        } else {
            let mut out = int_lanes(b, lanes);
            bin_int(op, &mut out, a.view(lanes), false);
            Value::Int(out)
        }
    }

    /// The lane kernels must match the per-lane reference in every operand
    /// position and shape the compiled engine uses: the result register
    /// holding the left or the right operand, the other operand a slice, a
    /// splat, or an unmaterialized ramp.
    #[test]
    fn lane_kernels_match_reference_in_every_operand_position() {
        let values = [
            Value::Int(vec![3]),
            Value::Int(vec![1, -2, 3, 40]),
            Value::Float(vec![0.5]),
            Value::Float(vec![1.5, -2.25, 3.75, 4.0]),
        ];
        for a in &values {
            for b in &values {
                for op in BinOp::ALL {
                    let want = reference_binary(op, a, b);
                    assert_eq!(binary_op(op, a, b), want, "{op:?} on {a:?}, {b:?}");
                    assert_eq!(binary_into_rhs(op, a, b), want, "{op:?} on {a:?}, {b:?}");
                }
            }
            for ty in [
                ScalarType::Float(32),
                ScalarType::Float(64),
                ScalarType::UInt(1),
                ScalarType::Int(16),
                ScalarType::UInt(8),
            ] {
                let want = match ty {
                    ScalarType::Float(_) => Value::Float(
                        a.to_f64_lanes()
                            .iter()
                            .map(|v| {
                                if ty.bits() == 32 {
                                    *v as f32 as f64
                                } else {
                                    *v
                                }
                            })
                            .collect(),
                    ),
                    _ => Value::Int(
                        a.to_f64_lanes()
                            .iter()
                            .map(|v| Scalar::Float(*v).cast_to(ty).as_i64())
                            .collect(),
                    ),
                };
                assert_eq!(a.cast_to(ty), want, "cast of {a:?} to {ty:?}");
            }
        }
        // A ramp operand reads exactly the lanes of its materialized form.
        let ramp = Lanes::Ramp {
            base: 7,
            stride: -3,
        };
        let materialized = Value::Int(vec![7, 4, 1, -2]);
        for a in [&values[1], &values[3]] {
            for op in BinOp::ALL {
                for out_is_lhs in [true, false] {
                    if let Value::Float(av) = a {
                        let (mut x, mut y) = (av.clone(), av.clone());
                        bin_float(op, &mut x, ramp, out_is_lhs);
                        bin_float(op, &mut y, materialized.view(4), out_is_lhs);
                        assert_eq!(x, y, "{op:?} with a ramp on {a:?}");
                    } else {
                        let (mut x, mut y) = (a.to_int_lanes(), a.to_int_lanes());
                        bin_int(op, &mut x, ramp, out_is_lhs);
                        bin_int(op, &mut y, materialized.view(4), out_is_lhs);
                        assert_eq!(x, y, "{op:?} with a ramp on {a:?}");
                    }
                }
            }
        }
    }

    /// Select and compare through the kernels must match the per-lane
    /// reference, including the blend into the false arm's register and
    /// the in-place compare into the right operand's register.
    #[test]
    fn lane_select_and_compare_kernels_match_reference() {
        let values = [
            Value::Int(vec![3]),
            Value::Int(vec![1, -2, 3, 40]),
            Value::Int(vec![7, 8]),
            Value::Float(vec![0.5]),
            Value::Float(vec![1.5, -2.25, 3.75, 4.0]),
            Value::Float(vec![9.0, -1.0]),
        ];
        let conds = [
            Value::Int(vec![1]),
            Value::Int(vec![0]),
            Value::Int(vec![1, 0, 0, 1]),
            Value::Int(vec![0, 1, 1, 0]),
            Value::Float(vec![1.0, 0.0, 2.0, 0.0]),
        ];
        for c in &conds {
            for t in &values {
                for f in &values {
                    let lanes = c.lanes().max(t.lanes()).max(f.lanes());
                    let cv = c.broadcast(lanes);
                    let float = t.is_float() || f.is_float();
                    let want = if float {
                        let (tv, fv) = (
                            t.broadcast(lanes).to_f64_lanes(),
                            f.broadcast(lanes).to_f64_lanes(),
                        );
                        Value::Float(
                            (0..lanes)
                                .map(|i| if cv.lane_int(i) != 0 { tv[i] } else { fv[i] })
                                .collect(),
                        )
                    } else {
                        let (tv, fv) = (
                            t.broadcast(lanes).to_int_lanes(),
                            f.broadcast(lanes).to_int_lanes(),
                        );
                        Value::Int(
                            (0..lanes)
                                .map(|i| if cv.lane_int(i) != 0 { tv[i] } else { fv[i] })
                                .collect(),
                        )
                    };
                    assert_eq!(select_op(c, t, f), want, "select {c:?}, {t:?}, {f:?}");
                    let into_false_arm = if float {
                        let mut out = float_lanes(f, lanes);
                        blend_float(&mut out, c.view(lanes), t.view(lanes), false);
                        Value::Float(out)
                    } else {
                        let mut out = int_lanes(f, lanes);
                        blend_int(&mut out, c.view(lanes), t.view(lanes), false);
                        Value::Int(out)
                    };
                    assert_eq!(into_false_arm, want, "blend {c:?}, {t:?}, {f:?}");
                }
            }
        }
        for a in &values {
            for b in &values {
                let lanes = a.lanes().max(b.lanes());
                for op in CmpOp::ALL {
                    let (av, bv) = (
                        a.broadcast(lanes).to_f64_lanes(),
                        b.broadcast(lanes).to_f64_lanes(),
                    );
                    let want = Value::Int(
                        av.iter()
                            .zip(&bv)
                            .map(|(x, y)| cmp_holds(op, float_ord(*x, *y)) as i64)
                            .collect(),
                    );
                    assert_eq!(compare_op(op, a, b), want, "{op:?} on {a:?}, {b:?}");
                    if !a.is_float() && !b.is_float() {
                        let mut out = int_lanes(b, lanes);
                        cmp_int(op, &mut out, a.view(lanes), false);
                        assert_eq!(Value::Int(out), want, "{op:?} into rhs on {a:?}, {b:?}");
                    }
                }
            }
        }
    }

    /// Every scalar operation must agree bit-for-bit with the one-lane
    /// `Value` operation it shadows: this is the compiled backend's licence
    /// to use unboxed scalars.
    #[test]
    fn scalar_ops_match_one_lane_value_ops() {
        let samples = [
            Scalar::Int(0),
            Scalar::Int(7),
            Scalar::Int(-13),
            Scalar::Int(300),
            Scalar::Float(0.0),
            Scalar::Float(2.5),
            Scalar::Float(-3.9),
            Scalar::Float(1e9),
        ];
        // Bit-pattern equality, so NaN == NaN (0/0 must produce the *same*
        // NaN through both paths).
        let same = |fast: Value, slow: Value| match (&fast, &slow) {
            (Value::Float(a), Value::Float(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => fast == slow,
        };
        for &a in &samples {
            for &b in &samples {
                for op in BinOp::ALL {
                    let fast = scalar_binary_op(op, a, b);
                    let slow = binary_op(op, &a.to_value(), &b.to_value());
                    assert!(
                        same(fast.to_value(), slow),
                        "binary {op:?} diverges on {a:?}, {b:?}"
                    );
                }
                for op in CmpOp::ALL {
                    let fast = scalar_compare_op(op, a, b);
                    let slow = compare_op(op, &a.to_value(), &b.to_value());
                    assert_eq!(
                        fast.to_value(),
                        slow,
                        "compare {op:?} diverges on {a:?}, {b:?}"
                    );
                }
            }
            for ty in [
                ScalarType::Float(32),
                ScalarType::Float(64),
                ScalarType::UInt(1),
                ScalarType::UInt(8),
                ScalarType::UInt(16),
                ScalarType::Int(8),
                ScalarType::Int(32),
                ScalarType::Int(64),
            ] {
                let fast = a.cast_to(ty);
                let slow = a.to_value().cast_to(ty);
                assert_eq!(fast.to_value(), slow, "cast to {ty:?} diverges on {a:?}");
            }
        }
        assert_eq!(Value::int(4).as_scalar(), Some(Scalar::Int(4)));
        assert_eq!(Value::Int(vec![1, 2]).as_scalar(), None);
        assert!(Scalar::Float(1.5).is_float());
        assert_eq!(Scalar::Float(-2.7).as_i64(), -2);
        assert!(Scalar::Int(1).as_bool() && !Scalar::Float(0.0).as_bool());
    }
}
