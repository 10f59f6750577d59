//! After warm-up, a `RealFft3::convolve` allocates the same number of
//! times at every mesh side: one scratch per pass and task and one table
//! of row borrows for the x lines, nothing per plane, line or panel.
//!
//! The count is taken with a counting global allocator, on the calling
//! thread, with the pool at one thread so that every task runs there.
//! This binary holds this one test, so the pool is built after the
//! thread count is set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use greem_fft::RealFft3;

thread_local! {
    /// Allocations and bytes requested on this thread.
    static COUNT: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = COUNT.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes));
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and bytes of the second of two convolutions at side `n`.
fn allocations(n: usize) -> (usize, usize) {
    let plan = RealFft3::new(n);
    let h = n / 2 + 1;
    let table: Vec<f64> = (0..h * h * h).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let kernel = |x: usize, y: usize| &table[(x.min(n - x) * h + y.min(n - y)) * h..][..h];
    let mut buf: Vec<f64> = (0..plan.buf_len()).map(|i| (i as f64).sin()).collect();
    plan.convolve(&mut buf, kernel);
    let before = COUNT.with(Cell::get);
    plan.convolve(&mut buf, kernel);
    let after = COUNT.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn convolve_allocations_do_not_grow_with_the_mesh() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (small, large) = (allocations(16), allocations(128));
    eprintln!("allocations per convolve: n = 16 {small:?}, n = 128 {large:?} (count, bytes)");
    assert_eq!(
        small.0, large.0,
        "allocations per convolve at n = 16 and n = 128"
    );
}
