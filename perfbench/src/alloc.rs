//! A counting global allocator: the source of the traced run's
//! allocation counts (`api.solve_allocs`, `api.solve_allocs_per_superstep`
//! and the per-span `allocs` of the Chrome trace).
//!
//! Counting is off until [`enable`] is called, so an untraced run pays one
//! relaxed load per allocation and nothing else. The counters are
//! process-wide: a span's count includes allocations made by every thread
//! while it was open (executor pool threads included), which is what a
//! solve's cost is, but it also means spans that overlap in time on
//! different threads share each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with allocation counters in front of it.
pub struct Counting;

#[inline]
fn count(size: usize) {
    // Statistics only: the counters publish no other data, so relaxed
    // ordering suffices.
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`, since every
        // allocation of this allocator is made by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from `System` as in `dealloc`;
        // the caller guarantees `new_size` is valid for `layout`'s
        // alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting (for the traced phase of a traced run).
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` since counting was enabled.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
