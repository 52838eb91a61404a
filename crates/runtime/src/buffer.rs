//! Typed, multi-dimensional buffers.
//!
//! A [`Buffer`] owns the pixel data of an input image, an output image, or an
//! intermediate allocation created by an `Allocate` statement. Storage is in
//! scanline order (innermost dimension has stride 1), matching the flattening
//! convention of the compiler (Sec. 4.4).
//!
//! # Concurrency
//!
//! Buffers support shared-reference stores ([`Buffer::set_flat_lane`]) because the
//! generated code writes to them from many threads at once. This is sound for
//! the same reason Halide's generated code is sound: the compiler only
//! parallelizes loops whose iterations write disjoint elements (data
//! parallelism is guaranteed by construction in the language), so no two
//! threads ever write the same element concurrently, and reads of an element
//! only happen after the producer loop that wrote it (enforced by the thread
//! pool joining before consumers run).

use std::cell::UnsafeCell;

use halide_ir::ScalarType;

use crate::value::{Scalar, Value};

/// One dimension of a buffer: the coordinates `[min, min + extent)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferDim {
    /// Smallest valid coordinate.
    pub min: i64,
    /// Number of valid coordinates.
    pub extent: i64,
}

#[derive(Debug, Clone)]
enum Storage {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
}

impl Storage {
    fn new(ty: ScalarType, len: usize) -> Storage {
        match ty {
            ScalarType::UInt(1) | ScalarType::UInt(8) => Storage::U8(vec![0; len]),
            ScalarType::UInt(16) => Storage::U16(vec![0; len]),
            ScalarType::UInt(_) => Storage::U32(vec![0; len]),
            ScalarType::Int(8) => Storage::I8(vec![0; len]),
            ScalarType::Int(16) => Storage::I16(vec![0; len]),
            ScalarType::Int(32) => Storage::I32(vec![0; len]),
            ScalarType::Int(_) => Storage::I64(vec![0; len]),
            ScalarType::Float(32) => Storage::F32(vec![0.0; len]),
            ScalarType::Float(_) => Storage::F64(vec![0.0; len]),
        }
    }

    fn len(&self) -> usize {
        match self {
            Storage::U8(v) => v.len(),
            Storage::U16(v) => v.len(),
            Storage::U32(v) => v.len(),
            Storage::I8(v) => v.len(),
            Storage::I16(v) => v.len(),
            Storage::I32(v) => v.len(),
            Storage::I64(v) => v.len(),
            Storage::F32(v) => v.len(),
            Storage::F64(v) => v.len(),
        }
    }

    /// The storage-kind tag a [`ScalarType`] maps to — two scalar types with
    /// the same tag share a `Storage` variant, so their allocations are
    /// interchangeable (the buffer pool's free lists are keyed by this).
    fn kind_of(ty: ScalarType) -> u8 {
        match ty {
            ScalarType::UInt(1) | ScalarType::UInt(8) => 0,
            ScalarType::UInt(16) => 1,
            ScalarType::UInt(_) => 2,
            ScalarType::Int(8) => 3,
            ScalarType::Int(16) => 4,
            ScalarType::Int(32) => 5,
            ScalarType::Int(_) => 6,
            ScalarType::Float(32) => 7,
            ScalarType::Float(_) => 8,
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Storage::U8(v) => v.capacity(),
            Storage::U16(v) => v.capacity(),
            Storage::U32(v) => v.capacity(),
            Storage::I8(v) => v.capacity(),
            Storage::I16(v) => v.capacity(),
            Storage::I32(v) => v.capacity(),
            Storage::I64(v) => v.capacity(),
            Storage::F32(v) => v.capacity(),
            Storage::F64(v) => v.capacity(),
        }
    }

    /// Clears and zero-fills to `len` elements, keeping the allocation when
    /// it is large enough (the reuse path of the buffer pool).
    fn reset(&mut self, len: usize) {
        match self {
            Storage::U8(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::U16(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::U32(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::I8(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::I16(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::I32(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::I64(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::F32(v) => {
                v.clear();
                v.resize(len, 0.0);
            }
            Storage::F64(v) => {
                v.clear();
                v.resize(len, 0.0);
            }
        }
    }

    /// Bulk-copies another storage's elements into this one. Both sides must
    /// be the same variant and length (callers guarantee this via the
    /// buffer-level shape/type checks).
    fn copy_from(&mut self, src: &Storage) {
        match (self, src) {
            (Storage::U8(d), Storage::U8(s)) => d.copy_from_slice(s),
            (Storage::U16(d), Storage::U16(s)) => d.copy_from_slice(s),
            (Storage::U32(d), Storage::U32(s)) => d.copy_from_slice(s),
            (Storage::I8(d), Storage::I8(s)) => d.copy_from_slice(s),
            (Storage::I16(d), Storage::I16(s)) => d.copy_from_slice(s),
            (Storage::I32(d), Storage::I32(s)) => d.copy_from_slice(s),
            (Storage::I64(d), Storage::I64(s)) => d.copy_from_slice(s),
            (Storage::F32(d), Storage::F32(s)) => d.copy_from_slice(s),
            (Storage::F64(d), Storage::F64(s)) => d.copy_from_slice(s),
            _ => panic!("copying between storage variants"),
        }
    }

    fn get_f64(&self, i: usize) -> f64 {
        match self {
            Storage::U8(v) => v[i] as f64,
            Storage::U16(v) => v[i] as f64,
            Storage::U32(v) => v[i] as f64,
            Storage::I8(v) => v[i] as f64,
            Storage::I16(v) => v[i] as f64,
            Storage::I32(v) => v[i] as f64,
            Storage::I64(v) => v[i] as f64,
            Storage::F32(v) => v[i] as f64,
            Storage::F64(v) => v[i],
        }
    }

    fn get_i64(&self, i: usize) -> i64 {
        match self {
            Storage::U8(v) => v[i] as i64,
            Storage::U16(v) => v[i] as i64,
            Storage::U32(v) => v[i] as i64,
            Storage::I8(v) => v[i] as i64,
            Storage::I16(v) => v[i] as i64,
            Storage::I32(v) => v[i] as i64,
            Storage::I64(v) => v[i],
            Storage::F32(v) => v[i] as i64,
            Storage::F64(v) => v[i] as i64,
        }
    }

    fn set_i64(&mut self, i: usize, v: i64) {
        match self {
            Storage::U8(s) => s[i] = v as u8,
            Storage::U16(s) => s[i] = v as u16,
            Storage::U32(s) => s[i] = v as u32,
            Storage::I8(s) => s[i] = v as i8,
            Storage::I16(s) => s[i] = v as i16,
            Storage::I32(s) => s[i] = v as i32,
            Storage::I64(s) => s[i] = v,
            Storage::F32(s) => s[i] = v as f32,
            Storage::F64(s) => s[i] = v as f64,
        }
    }

    fn set_f64(&mut self, i: usize, v: f64) {
        match self {
            Storage::U8(s) => s[i] = v as u8,
            Storage::U16(s) => s[i] = v as u16,
            Storage::U32(s) => s[i] = v as u32,
            Storage::I8(s) => s[i] = v as i8,
            Storage::I16(s) => s[i] = v as i16,
            Storage::I32(s) => s[i] = v as i32,
            Storage::I64(s) => s[i] = v as i64,
            Storage::F32(s) => s[i] = v as f32,
            Storage::F64(s) => s[i] = v,
        }
    }
}

/// Dispatches once on the storage variant and runs `$body` with `$s` bound
/// to the typed element slice — the heart of the bulk accessors below.
macro_rules! with_storage {
    ($storage:expr, $s:ident, $body:expr) => {{
        // `$body` converts elements with `as`; in the arm whose element type
        // is the target type that cast is the identity.
        #[allow(clippy::unnecessary_cast)]
        let r = match $storage {
            Storage::U8($s) => $body,
            Storage::U16($s) => $body,
            Storage::U32($s) => $body,
            Storage::I8($s) => $body,
            Storage::I16($s) => $body,
            Storage::I32($s) => $body,
            Storage::I64($s) => $body,
            Storage::F32($s) => $body,
            Storage::F64($s) => $body,
        };
        r
    }};
}

/// A typed, multi-dimensional pixel buffer with interior mutability for
/// data-parallel stores (see the module-level concurrency note).
#[derive(Debug)]
pub struct Buffer {
    ty: ScalarType,
    dims: Vec<BufferDim>,
    data: UnsafeCell<Storage>,
}

// SAFETY: see the module-level documentation — the compiler guarantees that
// concurrently executing iterations write disjoint elements, and all
// cross-thread reads of an element are ordered after the thread-pool join of
// the loop that produced it.
unsafe impl Sync for Buffer {}
unsafe impl Send for Buffer {}

impl Buffer {
    /// Creates a zero-filled buffer with the given element type and
    /// dimensions (each dimension is `(min, extent)`).
    ///
    /// # Panics
    ///
    /// Panics if any extent is negative or the total size overflows.
    pub fn new(ty: ScalarType, dims: &[(i64, i64)]) -> Buffer {
        let mut len: usize = 1;
        let dims: Vec<BufferDim> = dims
            .iter()
            .map(|&(min, extent)| {
                assert!(
                    extent >= 0,
                    "buffer extent must be non-negative, got {extent}"
                );
                len = len
                    .checked_mul(extent as usize)
                    .expect("buffer size overflow");
                BufferDim { min, extent }
            })
            .collect();
        Buffer {
            ty,
            dims,
            data: UnsafeCell::new(Storage::new(ty, len)),
        }
    }

    /// Creates a buffer spanning `[0, extent)` in each dimension.
    pub fn with_extents(ty: ScalarType, extents: &[i64]) -> Buffer {
        let dims: Vec<(i64, i64)> = extents.iter().map(|&e| (0, e)).collect();
        Buffer::new(ty, &dims)
    }

    /// Creates a 2-D buffer filled from a closure of `(x, y)`.
    pub fn from_fn_2d(
        ty: ScalarType,
        width: i64,
        height: i64,
        f: impl Fn(i64, i64) -> f64,
    ) -> Buffer {
        let buf = Buffer::with_extents(ty, &[width, height]);
        for y in 0..height {
            for x in 0..width {
                buf.set_coords_f64(&[x, y], f(x, y));
            }
        }
        buf
    }

    /// Element type.
    pub fn ty(&self) -> ScalarType {
        self.ty
    }

    /// The storage-kind tag of a scalar type: buffers whose types share a tag
    /// store their elements in the same `Vec` variant, so one's allocation
    /// can be recycled into the other (see [`crate::BufferPool`]).
    pub(crate) fn storage_kind(ty: ScalarType) -> u8 {
        Storage::kind_of(ty)
    }

    /// Bytes per element of the *storage* a scalar type maps to — the
    /// allocation's real footprint, which can exceed `ty.bytes()` (e.g.
    /// `Float(16)` is stored in the `f64` variant). Pool byte accounting
    /// must use this, not the nominal width, or credits and debits for
    /// types sharing a storage kind diverge.
    pub(crate) fn storage_bytes_per_elem(ty: ScalarType) -> usize {
        match Storage::kind_of(ty) {
            0 | 3 => 1,     // U8, I8
            1 | 4 => 2,     // U16, I16
            2 | 5 | 7 => 4, // U32, I32, F32
            _ => 8,         // I64, F64
        }
    }

    /// The number of elements the underlying allocation can hold without
    /// reallocating.
    pub(crate) fn capacity_elems(&self) -> usize {
        // SAFETY: reading the capacity does not race with element writes.
        unsafe { &*self.data.get() }.capacity()
    }

    /// Consumes this buffer and rebuilds it for a new type and shape,
    /// reusing the storage allocation when it is large enough. All elements
    /// of the result are zero, exactly as [`Buffer::new`] produces.
    ///
    /// # Panics
    ///
    /// Panics if `ty` maps to a different storage kind than the buffer's
    /// current type (the pool's free lists are keyed by kind, so this is a
    /// pool-internal invariant), or if an extent is negative.
    pub(crate) fn recycle(self, ty: ScalarType, extents: &[i64]) -> Buffer {
        assert_eq!(
            Storage::kind_of(self.ty),
            Storage::kind_of(ty),
            "recycling across storage kinds"
        );
        let mut len: usize = 1;
        let dims: Vec<BufferDim> = extents
            .iter()
            .map(|&extent| {
                assert!(
                    extent >= 0,
                    "buffer extent must be non-negative, got {extent}"
                );
                len = len
                    .checked_mul(extent as usize)
                    .expect("buffer size overflow");
                BufferDim { min: 0, extent }
            })
            .collect();
        let mut storage = self.data.into_inner();
        storage.reset(len);
        Buffer {
            ty,
            dims,
            data: UnsafeCell::new(storage),
        }
    }

    /// Dimension descriptors.
    pub fn dims(&self) -> &[BufferDim] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn dimensions(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        // SAFETY: reading the length does not race with element writes.
        unsafe { &*self.data.get() }.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.ty.bytes()
    }

    /// The stride (in elements) of each dimension: innermost is 1.
    pub fn strides(&self) -> Vec<i64> {
        let mut strides = Vec::with_capacity(self.dims.len());
        let mut s = 1i64;
        for d in &self.dims {
            strides.push(s);
            s *= d.extent;
        }
        strides
    }

    fn flat_index(&self, coords: &[i64]) -> usize {
        assert_eq!(
            coords.len(),
            self.dims.len(),
            "buffer has {} dimensions, got {} coordinates",
            self.dims.len(),
            coords.len()
        );
        let strides = self.strides();
        let mut idx = 0i64;
        for ((c, d), s) in coords.iter().zip(&self.dims).zip(&strides) {
            let off = c - d.min;
            assert!(
                off >= 0 && off < d.extent,
                "coordinate {c} outside [{}, {})",
                d.min,
                d.min + d.extent
            );
            idx += off * s;
        }
        idx as usize
    }

    /// Reads the element at flat index `i` as an `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get_flat_f64(&self, i: usize) -> f64 {
        // SAFETY: element reads racing with writes of *other* elements are
        // fine; same-element read/write races are excluded by construction.
        unsafe { &*self.data.get() }.get_f64(i)
    }

    /// Reads the element at flat index `i` as an `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get_flat_i64(&self, i: usize) -> i64 {
        unsafe { &*self.data.get() }.get_i64(i)
    }

    /// Reads the element at flat index `i` as a [`Value`] lane of the
    /// buffer's kind (integer buffers produce integer values).
    pub fn get_flat(&self, i: usize) -> Value {
        if self.ty.is_float() {
            Value::float(self.get_flat_f64(i))
        } else {
            Value::int(self.get_flat_i64(i))
        }
    }

    /// Reads the element at flat index `i` as an unboxed [`Scalar`] of the
    /// buffer's kind — the allocation-free accessor the compiled backend
    /// loads through.
    #[inline]
    pub fn get_flat_scalar(&self, i: usize) -> Scalar {
        if self.ty.is_float() {
            Scalar::Float(self.get_flat_f64(i))
        } else {
            Scalar::Int(self.get_flat_i64(i))
        }
    }

    /// Stores an unboxed [`Scalar`] at flat index `i` (converted to the
    /// element type, with the same conversion rules as [`Value`] stores).
    #[inline]
    pub fn set_flat_scalar(&self, i: usize, v: Scalar) {
        match v {
            Scalar::Int(x) => self.set_flat_i64(i, x),
            Scalar::Float(x) => self.set_flat_f64(i, x),
        }
    }

    /// Stores an integer at flat index `i` (converted to the element type).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[allow(clippy::mut_from_ref)]
    fn storage_mut(&self) -> &mut Storage {
        // SAFETY: see the module-level concurrency note.
        unsafe { &mut *self.data.get() }
    }

    /// Stores an `i64` at flat index `i`.
    pub fn set_flat_i64(&self, i: usize, v: i64) {
        self.storage_mut().set_i64(i, v);
    }

    /// Stores an `f64` at flat index `i`.
    pub fn set_flat_f64(&self, i: usize, v: f64) {
        self.storage_mut().set_f64(i, v);
    }

    /// Stores one lane of a [`Value`] at flat index `i`.
    pub fn set_flat_lane(&self, i: usize, v: &Value, lane: usize) {
        match v {
            Value::Int(_) => self.set_flat_i64(i, v.lane_int(lane)),
            Value::Float(_) => self.set_flat_f64(i, v.lane_f64(lane)),
        }
    }

    // ---- bulk typed accessors ---------------------------------------------
    //
    // One storage dispatch per vector operation instead of one per lane;
    // the compiled backend's dense and gather paths run through these.

    /// Reads `out.len()` contiguous elements starting at flat index `start`
    /// into `out` as `f64`s.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_flat_f64s(&self, start: usize, out: &mut [f64]) {
        // SAFETY: see the module-level concurrency note.
        let storage = unsafe { &*self.data.get() };
        let end = start + out.len();
        with_storage!(storage, s, {
            for (dst, v) in out.iter_mut().zip(&s[start..end]) {
                *dst = *v as f64;
            }
        })
    }

    /// Reads `out.len()` contiguous elements starting at flat index `start`
    /// into `out` as `i64`s.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_flat_i64s(&self, start: usize, out: &mut [i64]) {
        let storage = unsafe { &*self.data.get() };
        let end = start + out.len();
        with_storage!(storage, s, {
            for (dst, v) in out.iter_mut().zip(&s[start..end]) {
                *dst = *v as i64;
            }
        })
    }

    /// Writes a contiguous run of `f64`s starting at flat index `start`
    /// (each converted to the element type).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_flat_f64s(&self, start: usize, vals: &[f64]) {
        let storage = self.storage_mut();
        with_storage!(storage, s, {
            for (dst, v) in s[start..start + vals.len()].iter_mut().zip(vals) {
                *dst = *v as _;
            }
        })
    }

    /// Writes a contiguous run of `i64`s starting at flat index `start`
    /// (each converted to the element type).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_flat_i64s(&self, start: usize, vals: &[i64]) {
        let storage = self.storage_mut();
        with_storage!(storage, s, {
            for (dst, v) in s[start..start + vals.len()].iter_mut().zip(vals) {
                *dst = *v as _;
            }
        })
    }

    /// Reads the elements at the given flat indices into `out` as `f64`s, or
    /// reports the first out-of-range index.
    ///
    /// # Errors
    ///
    /// Returns the first index outside `[0, len)`.
    pub fn gather_flat_f64(&self, idx: &[i64], out: &mut [f64]) -> std::result::Result<(), i64> {
        let storage = unsafe { &*self.data.get() };
        with_storage!(storage, s, {
            let len = s.len() as i64;
            for (dst, &i) in out.iter_mut().zip(idx) {
                if i < 0 || i >= len {
                    return Err(i);
                }
                *dst = s[i as usize] as f64;
            }
            Ok(())
        })
    }

    /// Reads the elements at the given flat indices into `out` as `i64`s, or
    /// reports the first out-of-range index.
    ///
    /// # Errors
    ///
    /// Returns the first index outside `[0, len)`.
    pub fn gather_flat_i64(&self, idx: &[i64], out: &mut [i64]) -> std::result::Result<(), i64> {
        let storage = unsafe { &*self.data.get() };
        with_storage!(storage, s, {
            let len = s.len() as i64;
            for (dst, &i) in out.iter_mut().zip(idx) {
                if i < 0 || i >= len {
                    return Err(i);
                }
                *dst = s[i as usize] as i64;
            }
            Ok(())
        })
    }

    /// Reads the elements at the given flat indices into `out` as `f64`s,
    /// clamping each
    /// index into `[lo, hi]` first (exactly `max(min(i, hi), lo)`, the
    /// clamped-access pattern `at_clamped` lowers to) — the bulk form of the
    /// clamped gathers the camera pipe's LUT stage performs.
    ///
    /// # Errors
    ///
    /// Returns the first **clamped** index outside `[0, len)` (possible when
    /// the clamp range itself reaches outside the allocation).
    pub fn gather_flat_f64_clamped(
        &self,
        idx: &[i64],
        lo: i64,
        hi: i64,
        out: &mut [f64],
    ) -> std::result::Result<(), i64> {
        let storage = unsafe { &*self.data.get() };
        with_storage!(storage, s, {
            let len = s.len() as i64;
            for (dst, &i) in out.iter_mut().zip(idx) {
                let i = i.min(hi).max(lo);
                if i < 0 || i >= len {
                    return Err(i);
                }
                *dst = s[i as usize] as f64;
            }
            Ok(())
        })
    }

    /// Reads the elements at the given flat indices into `out` as `i64`s,
    /// clamping each
    /// index into `[lo, hi]` first; the integer twin of
    /// [`Buffer::gather_flat_f64_clamped`].
    ///
    /// # Errors
    ///
    /// Returns the first clamped index outside `[0, len)`.
    pub fn gather_flat_i64_clamped(
        &self,
        idx: &[i64],
        lo: i64,
        hi: i64,
        out: &mut [i64],
    ) -> std::result::Result<(), i64> {
        let storage = unsafe { &*self.data.get() };
        with_storage!(storage, s, {
            let len = s.len() as i64;
            for (dst, &i) in out.iter_mut().zip(idx) {
                let i = i.min(hi).max(lo);
                if i < 0 || i >= len {
                    return Err(i);
                }
                *dst = s[i as usize] as i64;
            }
            Ok(())
        })
    }

    /// Reads `out.len()` elements at flat indices `start, start + stride, …` as
    /// `f64`s in one storage dispatch — the bulk form of a load through a
    /// non-unit-stride ramp.
    ///
    /// # Errors
    ///
    /// Returns the first index outside `[0, len)`.
    pub fn read_flat_strided_f64s(
        &self,
        start: i64,
        stride: i64,
        out: &mut [f64],
    ) -> std::result::Result<(), i64> {
        let storage = unsafe { &*self.data.get() };
        with_storage!(storage, s, {
            let len = s.len() as i64;
            for (k, dst) in out.iter_mut().enumerate() {
                let i = start + stride * k as i64;
                if i < 0 || i >= len {
                    return Err(i);
                }
                *dst = s[i as usize] as f64;
            }
            Ok(())
        })
    }

    /// Reads `out.len()` elements at flat indices `start, start + stride, …` as
    /// `i64`s; the integer twin of [`Buffer::read_flat_strided_f64s`].
    ///
    /// # Errors
    ///
    /// Returns the first index outside `[0, len)`.
    pub fn read_flat_strided_i64s(
        &self,
        start: i64,
        stride: i64,
        out: &mut [i64],
    ) -> std::result::Result<(), i64> {
        let storage = unsafe { &*self.data.get() };
        with_storage!(storage, s, {
            let len = s.len() as i64;
            for (k, dst) in out.iter_mut().enumerate() {
                let i = start + stride * k as i64;
                if i < 0 || i >= len {
                    return Err(i);
                }
                *dst = s[i as usize] as i64;
            }
            Ok(())
        })
    }

    /// Writes `vals[k]` at flat indices `start, start + stride, …` (each value
    /// converted to the element type) in one storage dispatch — the bulk form
    /// of a store through a non-unit-stride ramp.
    ///
    /// # Errors
    ///
    /// Returns the first index outside `[0, len)`; values at earlier indices
    /// have already been written when that happens (callers surface the error
    /// and discard the buffer, matching the per-lane store paths).
    pub fn write_flat_strided_f64s(
        &self,
        start: i64,
        stride: i64,
        vals: &[f64],
    ) -> std::result::Result<(), i64> {
        let storage = self.storage_mut();
        with_storage!(storage, s, {
            let len = s.len() as i64;
            for (k, v) in vals.iter().enumerate() {
                let i = start + stride * k as i64;
                if i < 0 || i >= len {
                    return Err(i);
                }
                s[i as usize] = *v as _;
            }
            Ok(())
        })
    }

    /// Writes `vals[k]` at flat indices `start, start + stride, …`; the
    /// integer twin of [`Buffer::write_flat_strided_f64s`].
    ///
    /// # Errors
    ///
    /// Returns the first index outside `[0, len)` (see the `f64` form for the
    /// partial-write caveat).
    pub fn write_flat_strided_i64s(
        &self,
        start: i64,
        stride: i64,
        vals: &[i64],
    ) -> std::result::Result<(), i64> {
        let storage = self.storage_mut();
        with_storage!(storage, s, {
            let len = s.len() as i64;
            for (k, v) in vals.iter().enumerate() {
                let i = start + stride * k as i64;
                if i < 0 || i >= len {
                    return Err(i);
                }
                s[i as usize] = *v as _;
            }
            Ok(())
        })
    }

    /// Writes `vals[k]` at flat index `idx[k]` (each value converted to the
    /// element type) in one storage dispatch — the bulk **scatter** that
    /// replaces per-lane vector stores through arbitrary index vectors.
    ///
    /// # Errors
    ///
    /// Returns the first index outside `[0, len)`; values at earlier indices
    /// have already been written when that happens (callers surface the error
    /// and discard the buffer, matching the per-lane store paths).
    ///
    /// # Panics
    ///
    /// Panics if `idx` and `vals` have different lengths.
    pub fn scatter_flat_f64s(&self, idx: &[i64], vals: &[f64]) -> std::result::Result<(), i64> {
        assert_eq!(idx.len(), vals.len(), "scatter index/value length mismatch");
        let storage = self.storage_mut();
        with_storage!(storage, s, {
            let len = s.len() as i64;
            for (&i, v) in idx.iter().zip(vals) {
                if i < 0 || i >= len {
                    return Err(i);
                }
                s[i as usize] = *v as _;
            }
            Ok(())
        })
    }

    /// Writes `vals[k]` at flat index `idx[k]`; the integer twin of
    /// [`Buffer::scatter_flat_f64s`].
    ///
    /// # Errors
    ///
    /// Returns the first index outside `[0, len)` (see the `f64` form for the
    /// partial-write caveat).
    ///
    /// # Panics
    ///
    /// Panics if `idx` and `vals` have different lengths.
    pub fn scatter_flat_i64s(&self, idx: &[i64], vals: &[i64]) -> std::result::Result<(), i64> {
        assert_eq!(idx.len(), vals.len(), "scatter index/value length mismatch");
        let storage = self.storage_mut();
        with_storage!(storage, s, {
            let len = s.len() as i64;
            for (&i, v) in idx.iter().zip(vals) {
                if i < 0 || i >= len {
                    return Err(i);
                }
                s[i as usize] = *v as _;
            }
            Ok(())
        })
    }

    /// Reads the element at the given coordinates as `f64`.
    pub fn at_f64(&self, coords: &[i64]) -> f64 {
        self.get_flat_f64(self.flat_index(coords))
    }

    /// Reads the element at the given coordinates as `i64`.
    pub fn at_i64(&self, coords: &[i64]) -> i64 {
        self.get_flat_i64(self.flat_index(coords))
    }

    /// Writes an `f64` at the given coordinates (converted to the element type).
    pub fn set_coords_f64(&self, coords: &[i64], v: f64) {
        let i = self.flat_index(coords);
        self.set_flat_f64(i, v);
    }

    /// Writes an `i64` at the given coordinates (converted to the element type).
    pub fn set_coords_i64(&self, coords: &[i64], v: i64) {
        let i = self.flat_index(coords);
        self.set_flat_i64(i, v);
    }

    /// Bulk-copies another buffer's elements into this one — one `memcpy`
    /// per buffer instead of one store per element. This is the fan-out path
    /// of coalesced serving: one realization's output is replicated into
    /// each waiting request's pooled buffer.
    ///
    /// # Panics
    ///
    /// Panics if the element types or shapes differ.
    pub fn copy_from(&self, src: &Buffer) {
        assert_eq!(self.ty, src.ty, "copying between element types");
        assert_eq!(self.dims, src.dims, "copying between shapes");
        // SAFETY: see the module-level concurrency note — the destination is
        // exclusively held by the copying thread, and the source's producer
        // has been joined before the copy.
        self.storage_mut().copy_from(unsafe { &*src.data.get() });
    }

    /// Maximum absolute difference against another buffer of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Buffer) -> f64 {
        assert_eq!(self.dims, other.dims, "buffer shapes differ");
        (0..self.len())
            .map(|i| (self.get_flat_f64(i) - other.get_flat_f64(i)).abs())
            .fold(0.0, f64::max)
    }

    /// All elements as `f64`, in flat (scanline) order.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get_flat_f64(i)).collect()
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        // One allocation-plus-memcpy, not one dispatch per element.
        // SAFETY: cloning reads every element; the producer that wrote them
        // has been joined before a clone can be reached (module-level note).
        Buffer {
            ty: self.ty,
            dims: self.dims.clone(),
            data: UnsafeCell::new(unsafe { &*self.data.get() }.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_layout() {
        let b = Buffer::with_extents(ScalarType::UInt(8), &[4, 3]);
        assert_eq!(b.len(), 12);
        assert_eq!(b.size_bytes(), 12);
        assert_eq!(b.strides(), vec![1, 4]);
        assert_eq!(b.dimensions(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn typed_storage_wraps() {
        let b = Buffer::with_extents(ScalarType::UInt(8), &[2]);
        b.set_flat_i64(0, 300);
        assert_eq!(b.get_flat_i64(0), 44);
        let f = Buffer::with_extents(ScalarType::Float(32), &[2]);
        f.set_flat_f64(1, 1.5);
        assert_eq!(f.get_flat_f64(1), 1.5);
        assert_eq!(f.get_flat(1), Value::float(1.5));
        assert_eq!(b.get_flat(0), Value::int(44));
    }

    #[test]
    fn coordinates_respect_mins() {
        let b = Buffer::new(ScalarType::Int(32), &[(-2, 5), (10, 3)]);
        b.set_coords_i64(&[-2, 10], 7);
        b.set_coords_i64(&[2, 12], 9);
        assert_eq!(b.at_i64(&[-2, 10]), 7);
        assert_eq!(b.at_i64(&[2, 12]), 9);
        assert_eq!(b.get_flat_i64(0), 7);
        assert_eq!(b.get_flat_i64(14), 9);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_coordinates_panic() {
        let b = Buffer::with_extents(ScalarType::Int(32), &[4]);
        let _ = b.at_i64(&[4]);
    }

    #[test]
    fn from_fn_and_diff() {
        let a = Buffer::from_fn_2d(ScalarType::Float(32), 3, 2, |x, y| (x + 10 * y) as f64);
        let b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set_coords_f64(&[1, 1], 0.0);
        assert_eq!(a.max_abs_diff(&b), 11.0);
        assert_eq!(a.to_f64_vec().len(), 6);
    }

    #[test]
    fn bulk_accessors_match_single_element_paths() {
        for ty in [
            ScalarType::UInt(8),
            ScalarType::Int(32),
            ScalarType::Float(32),
            ScalarType::Float(64),
        ] {
            let b = Buffer::with_extents(ty, &[10]);
            for i in 0..10 {
                b.set_flat_f64(i, (i as f64) * 1.5 - 3.0);
            }
            let (mut bulk_f, mut bulk_i) = ([0.0; 5], [0i64; 5]);
            b.read_flat_f64s(2, &mut bulk_f);
            b.read_flat_i64s(2, &mut bulk_i);
            for (k, i) in (2..7).enumerate() {
                assert_eq!(bulk_f[k], b.get_flat_f64(i), "{ty:?} f64 read");
                assert_eq!(bulk_i[k], b.get_flat_i64(i), "{ty:?} i64 read");
            }
            let idx = [9i64, 0, 4];
            let mut g = [0.0; 3];
            b.gather_flat_f64(&idx, &mut g).unwrap();
            assert_eq!(g[0], b.get_flat_f64(9));
            assert_eq!(g[2], b.get_flat_f64(4));
            assert_eq!(b.gather_flat_f64(&[3, 10], &mut g).unwrap_err(), 10);
            assert_eq!(b.gather_flat_i64(&[-1], &mut [0]).unwrap_err(), -1);

            let w = Buffer::with_extents(ty, &[10]);
            w.write_flat_f64s(1, &[1.25, 2.5, 3.75]);
            for (k, i) in (1..4).enumerate() {
                let expect = Buffer::with_extents(ty, &[1]);
                expect.set_flat_f64(0, [1.25, 2.5, 3.75][k]);
                assert_eq!(w.get_flat_f64(i), expect.get_flat_f64(0), "{ty:?} write");
            }
            w.write_flat_i64s(5, &[7, -2]);
            let expect = Buffer::with_extents(ty, &[2]);
            expect.set_flat_i64(0, 7);
            expect.set_flat_i64(1, -2);
            assert_eq!(w.get_flat_i64(5), expect.get_flat_i64(0));
            assert_eq!(w.get_flat_i64(6), expect.get_flat_i64(1));
        }
    }

    #[test]
    fn scatter_strided_and_clamped_accessors_match_per_lane_paths() {
        for ty in [
            ScalarType::UInt(8),
            ScalarType::Int(32),
            ScalarType::Float(32),
            ScalarType::Float(64),
        ] {
            let b = Buffer::with_extents(ty, &[12]);
            for i in 0..12 {
                b.set_flat_f64(i, (i as f64) * 1.5 - 3.0);
            }

            // Strided reads agree with per-lane reads at base + stride * k.
            let (mut sf, mut si) = ([0.0; 4], [0i64; 4]);
            b.read_flat_strided_f64s(1, 3, &mut sf).unwrap();
            b.read_flat_strided_i64s(1, 3, &mut si).unwrap();
            for k in 0..4 {
                assert_eq!(sf[k], b.get_flat_f64(1 + 3 * k), "{ty:?} strided f64");
                assert_eq!(si[k], b.get_flat_i64(1 + 3 * k), "{ty:?} strided i64");
            }
            // Negative strides walk backwards; out-of-range reports the index.
            let mut back = [0.0; 3];
            b.read_flat_strided_f64s(9, -4, &mut back).unwrap();
            assert_eq!(back[2], b.get_flat_f64(1));
            assert_eq!(
                b.read_flat_strided_f64s(9, 4, &mut [0.0; 2]).unwrap_err(),
                13
            );
            assert_eq!(
                b.read_flat_strided_i64s(2, -3, &mut [0; 2]).unwrap_err(),
                -1
            );

            // Clamped gathers agree with clamping then reading per lane.
            let idx = [-5i64, 0, 7, 40, 11];
            let (lo, hi) = (0i64, 11i64);
            let (mut g, mut gi) = ([0.0; 5], [0i64; 5]);
            b.gather_flat_f64_clamped(&idx, lo, hi, &mut g).unwrap();
            b.gather_flat_i64_clamped(&idx, lo, hi, &mut gi).unwrap();
            for (k, &i) in idx.iter().enumerate() {
                let c = i.min(hi).max(lo) as usize;
                assert_eq!(g[k], b.get_flat_f64(c), "{ty:?} clamped f64");
                assert_eq!(gi[k], b.get_flat_i64(c), "{ty:?} clamped i64");
            }
            // A clamp range outside the allocation still reports the bad
            // (clamped) index instead of reading out of bounds.
            assert_eq!(
                b.gather_flat_f64_clamped(&[50], 0, 99, &mut [0.0])
                    .unwrap_err(),
                50
            );
            assert_eq!(
                b.gather_flat_i64_clamped(&[-9], -2, 11, &mut [0])
                    .unwrap_err(),
                -2
            );

            // Bulk scatters agree with per-element stores.
            let w1 = Buffer::with_extents(ty, &[12]);
            let w2 = Buffer::with_extents(ty, &[12]);
            let sidx = [11i64, 0, 5, 2];
            let fvals = [1.25, -2.5, 3.75, 40.0];
            w1.scatter_flat_f64s(&sidx, &fvals).unwrap();
            for (&i, &v) in sidx.iter().zip(&fvals) {
                w2.set_flat_f64(i as usize, v);
            }
            assert_eq!(w1.to_f64_vec(), w2.to_f64_vec(), "{ty:?} scatter f64");
            let ivals = [7i64, -2, 300, 9];
            w1.scatter_flat_i64s(&sidx, &ivals).unwrap();
            for (&i, &v) in sidx.iter().zip(&ivals) {
                w2.set_flat_i64(i as usize, v);
            }
            assert_eq!(w1.to_f64_vec(), w2.to_f64_vec(), "{ty:?} scatter i64");
            assert_eq!(w1.scatter_flat_f64s(&[3, 12], &[0.0, 0.0]).unwrap_err(), 12);

            // Strided writes agree with per-element stores.
            let w3 = Buffer::with_extents(ty, &[12]);
            let w4 = Buffer::with_extents(ty, &[12]);
            w3.write_flat_strided_f64s(2, 4, &[5.5, 6.5, 7.5]).unwrap();
            for (k, &v) in [5.5, 6.5, 7.5].iter().enumerate() {
                w4.set_flat_f64(2 + 4 * k, v);
            }
            assert_eq!(w3.to_f64_vec(), w4.to_f64_vec(), "{ty:?} strided write f64");
            w3.write_flat_strided_i64s(1, 5, &[3, 4]).unwrap();
            w4.set_flat_i64(1, 3);
            w4.set_flat_i64(6, 4);
            assert_eq!(w3.to_f64_vec(), w4.to_f64_vec(), "{ty:?} strided write i64");
            assert_eq!(
                w3.write_flat_strided_f64s(10, 3, &[0.0, 0.0]).unwrap_err(),
                13
            );
        }
    }

    #[test]
    fn copy_from_replicates_bit_exactly() {
        for ty in [
            ScalarType::UInt(8),
            ScalarType::Int(32),
            ScalarType::Float(32),
            ScalarType::Float(64),
        ] {
            let src = Buffer::with_extents(ty, &[5, 3]);
            for i in 0..src.len() {
                src.set_flat_f64(i, (i as f64) * 1.5 - 3.0);
            }
            let dst = Buffer::with_extents(ty, &[5, 3]);
            dst.copy_from(&src);
            assert_eq!(dst.to_f64_vec(), src.to_f64_vec(), "{ty:?} copy_from");
            // Clone takes the same storage-level path.
            assert_eq!(src.clone().to_f64_vec(), src.to_f64_vec(), "{ty:?} clone");
        }
        // Non-zero mins survive a clone.
        let b = Buffer::new(ScalarType::Int(32), &[(-2, 4)]);
        b.set_coords_i64(&[-1], 9);
        assert_eq!(b.clone().at_i64(&[-1]), 9);
    }

    #[test]
    #[should_panic(expected = "shapes")]
    fn copy_from_rejects_shape_mismatch() {
        let a = Buffer::with_extents(ScalarType::Float(32), &[4]);
        let b = Buffer::with_extents(ScalarType::Float(32), &[5]);
        a.copy_from(&b);
    }

    #[test]
    fn i16_and_f64_storage() {
        let b = Buffer::with_extents(ScalarType::Int(16), &[2]);
        b.set_flat_i64(0, 40000);
        assert_eq!(b.get_flat_i64(0), 40000i64 as i16 as i64);
        let d = Buffer::with_extents(ScalarType::Float(64), &[1]);
        d.set_flat_f64(0, 1e-12);
        assert_eq!(d.get_flat_f64(0), 1e-12);
    }
}
