//! # halide-runtime
//!
//! The runtime substrate for the halide-rs reproduction: typed pixel
//! [`Buffer`]s, the data-parallel [`ThreadPool`], instrumentation
//! [`Counters`], the simulated [`GpuDevice`], and the runtime [`Value`]
//! representation the executor evaluates expressions to.
//!
//! The paper's generated code relies on a small runtime (a task queue
//! consumed by a thread pool, buffer management, and CUDA driver calls for
//! the GPU backend); this crate plays that role for the closure-compiling
//! backend in `halide-exec`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod bufpool;
pub mod counters;
pub mod gpu;
pub mod pool;
pub mod value;

pub use buffer::{Buffer, BufferDim};
pub use bufpool::{BufferPool, PoolStats, PooledBuffer};
pub use counters::{
    classify_flat_indices, classify_lane_indices, AccessPattern, CounterSnapshot, Counters,
};
pub use gpu::{GpuDevice, Residency};
pub use pool::{num_threads_default, ThreadPool};
pub use value::{
    bin_float, bin_int, binary_op, blend_float, blend_int, cast_float_lanes, cast_int_lanes,
    cast_to_int, cmp_float, cmp_int, compare_op, fill_float, fill_int, scalar_binary_op,
    scalar_compare_op, select_op, zip_float, Lanes, Scalar, Value,
};
