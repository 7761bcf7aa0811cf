//! The counting allocator behind every zero-allocation test suite of the workspace.
//!
//! A test binary installs it with
//! `#[global_allocator] static COUNTER: CountingAlloc = CountingAlloc;` and then reads
//! one of three counters:
//!
//! * [`thread_allocations_during`] counts what **the calling thread** allocated. The
//!   test harness runs the `#[test]`s of one binary on parallel threads, so a claim
//!   about one test's own work ("a warm training step allocates nothing") must not see
//!   its neighbour's warm-up — a process-wide counter made those suites fail on every
//!   multi-core host.
//! * [`process_allocations`] counts every thread. It is for claims that span threads
//!   on purpose (a worker, a server loop and a reader thread over one socket); a
//!   binary that uses it must hold a single `#[test]`.

#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed everywhere: the counter is a statistic and publishes no other data.
static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching them from inside the
    // allocator neither allocates nor registers a thread-exit hook.
    static THREAD: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: an allocation made while the thread tears its locals down is not
    // this thread's test body and may go uncounted there.
    let _ = THREAD.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and `realloc`, and
/// the bytes each asks for (a `realloc`'s new size).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is `count`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System` underneath, and the
        // caller's remaining obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations the calling thread makes while `body` runs (0 forever when
/// [`CountingAlloc`] is not the global allocator).
pub fn thread_allocations_during(body: impl FnOnce()) -> u64 {
    let before = THREAD.with(Cell::get);
    body();
    THREAD.with(Cell::get) - before
}

/// Bytes the calling thread asks the allocator for while `body` runs (a `realloc`
/// counts its new size; 0 forever when [`CountingAlloc`] is not the global
/// allocator).
pub fn thread_bytes_during(body: impl FnOnce()) -> u64 {
    let before = THREAD_BYTES.with(Cell::get);
    body();
    THREAD_BYTES.with(Cell::get) - before
}

/// Heap allocations made by any thread of the process so far.
pub fn process_allocations() -> u64 {
    PROCESS.load(Ordering::Relaxed)
}
