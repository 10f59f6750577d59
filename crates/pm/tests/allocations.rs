//! A PM solve holds no mesh beyond the transform's buffer and the Green's
//! function table: the accelerations are differenced into a ring of three
//! planes and interpolated from it, so no `n³` acceleration mesh is ever
//! allocated, and a solve after the first allocates the same number of
//! times at every mesh side.
//!
//! Heap use is taken with a counting global allocator, on the calling
//! thread, with the pool at one thread so that every task runs there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Once;

use greem_math::testutil::rand_positions;
use greem_math::Vec3;
use greem_pm::{PmParams, PmSolver};

/// This thread's heap: allocations made, live bytes, and the most live
/// bytes since the last [`reset_peak`].
#[derive(Clone, Copy)]
struct Heap {
    allocations: usize,
    live: isize,
    peak: isize,
}

thread_local! {
    static HEAP: Cell<Heap> = const {
        Cell::new(Heap {
            allocations: 0,
            live: 0,
            peak: 0,
        })
    };
}

fn track(allocated: usize, freed: usize) {
    let _ = HEAP.try_with(|h| {
        let mut heap = h.get();
        heap.allocations += usize::from(allocated > 0);
        heap.live += allocated as isize - freed as isize;
        heap.peak = heap.peak.max(heap.live);
        h.set(heap);
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The pool at one thread, set before anything builds it.
fn one_thread() {
    static SET: Once = Once::new();
    SET.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "1"));
}

fn heap() -> Heap {
    HEAP.with(Cell::get)
}

/// Start a new high-water mark at the current live bytes.
fn reset_peak() {
    HEAP.with(|h| {
        h.set(Heap {
            peak: h.get().live,
            ..h.get()
        })
    });
}

fn bodies(n: usize) -> (Vec<Vec3>, Vec<f64>) {
    (rand_positions(n, 61), vec![1.0 / n as f64; n])
}

/// Bytes a solver at `side` (the transform's) must hold: the padded
/// buffer, the Green's function table, one ring of three planes of three
/// components, and `per_body` bytes for each of `bodies`.
fn needed(side: usize, bodies: usize) -> usize {
    const PER_BODY: usize = 128;
    let f64s = side * side * (side + 2) + (side / 2 + 1).pow(3) + 9 * side * side;
    f64s * 8 + PER_BODY * bodies
}

#[test]
fn the_heap_high_water_mark_holds_no_acceleration_mesh() {
    one_thread();
    let n = 64;
    let (pos, mass) = bodies(4000);
    for (name, side) in [("periodic", n), ("isolated", 2 * n)] {
        let before = heap().live;
        reset_peak();
        let params = PmParams::standard(n);
        let solver = match name {
            "periodic" => PmSolver::new(params),
            _ => PmSolver::isolated(params),
        };
        solver.solve(&pos, &mass);
        solver.solve(&pos, &mass);
        let used = (heap().peak - before) as usize;
        let bound = needed(side, pos.len()) * 105 / 100;
        let mesh = 3 * side * side * side * 8;
        eprintln!("{name}: {used} B at the high-water mark, bound {bound} B, one 3-component mesh {mesh} B");
        assert!(used <= bound, "{name}: {used} B > {bound} B");
    }
}

/// Allocations of the second of two solves at mesh side `n`.
fn allocations(n: usize) -> usize {
    let (pos, mass) = bodies(3000);
    let solver = PmSolver::new(PmParams::standard(n));
    solver.solve(&pos, &mass);
    let before = heap().allocations;
    solver.solve(&pos, &mass);
    heap().allocations - before
}

#[test]
fn a_solve_allocates_the_same_at_every_mesh_side() {
    one_thread();
    let (small, large) = (allocations(16), allocations(64));
    eprintln!("allocations per solve: n = 16 {small}, n = 64 {large}");
    assert_eq!(small, large, "allocations per solve at n = 16 and n = 64");
}
