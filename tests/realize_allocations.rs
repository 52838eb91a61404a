//! Steady-state realization does not allocate per pixel.
//!
//! The compiled engine keeps vector registers in a lane arena sized at
//! compile time, so after warm-up a `Realizer::realize` allocates only a
//! fixed number of blocks per call (machine, context, output buffer) plus a
//! few per scratch buffer the schedule allocates. This binary counts heap
//! allocations with its own global allocator and checks that for every
//! tuned app, at two sizes four times the pixels apart.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use halide::exec::{Backend, Realizer};
use halide::pipelines::{AppKind, ScheduleChoice};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local cell, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap blocks one scratch buffer costs (its shape, its storage, the `Arc`
/// it is bound through, and the extents list it is built from). Schedules
/// allocate scratch per tile, so this is the per-tile constant.
const PER_SCRATCH_BUFFER: u64 = 4;

/// The rest of a realize is a fixed number of blocks: the machine and its
/// per-parallel-loop clones, the context, the output buffer, the bindings.
/// It may differ by this much between the two sizes, and no more.
const PER_REALIZE_SLACK: u64 = 8;

/// One realize: its heap allocations less the per-scratch-buffer blocks.
fn fixed_allocations(realizer: &Realizer<'_>, extents: &[i64]) -> u64 {
    let before = allocations();
    let r = realizer.realize(extents).unwrap();
    let allocs = allocations() - before;
    allocs - PER_SCRATCH_BUFFER * r.counters.allocations
}

#[test]
fn realize_allocations_do_not_grow_with_pixels() {
    for app in AppKind::ALL {
        // One program, bound to a 128x96 input, realized at 64x48 and at
        // 128x96 (four times the pixels) after a warm-up at both sizes.
        let built = app.build(64, 48, ScheduleChoice::Tuned).unwrap();
        let realizer = Realizer::new(&built.module)
            .input(built.input_name.clone(), app.make_input(128, 96))
            .backend(Backend::Compiled)
            .instrument(false)
            .threads(1);
        let (small, large) = (app.output_extents(64, 48), app.output_extents(128, 96));
        realizer.realize(&small).unwrap();
        realizer.realize(&large).unwrap();
        let at_small = fixed_allocations(&realizer, &small);
        let at_large = fixed_allocations(&realizer, &large);
        assert!(
            at_large <= at_small + PER_REALIZE_SLACK,
            "{app:?}: {at_small} allocations at 64x48 but {at_large} at 128x96, \
             beyond the per-scratch-buffer blocks: something allocates per pixel"
        );
    }
}
