//! Heap-allocation counting for the zero-allocation discipline.
//!
//! Compiled only under the `alloc_stats` feature: installs a counting
//! wrapper around the system allocator as the crate's global allocator, so
//! benches and tests can assert *allocation budgets* — e.g. that a warm
//! memoized `AnalysisSession::analyze_with_loops` call stays within a
//! handful of heap allocations (see `tests/alloc_budget.rs`).
//!
//! The counter tallies `alloc` and `realloc` calls (a `realloc` that moves
//! is the same allocator round-trip as a fresh `alloc`); `dealloc` is free.
//! Counts are process-global and monotone — measure a region by
//! differencing [`alloc_count`] before and after, on a single thread, with
//! the worker pool quiescent.
//!
//! The feature is **off by default**. Counting costs an atomic increment on
//! every allocation, which perturbs the timing baselines, so
//! `BENCH_curves.json` / `BENCH_incremental.json` are always regenerated
//! without it; `perf_snapshot` additionally reports allocations per warm
//! analysis when the feature is on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// A [`System`]-backed allocator that counts `alloc` + `realloc` calls and
/// tracks live heap bytes.
pub struct CountingAlloc;

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (`alloc` + `realloc`) since process start.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes currently live on the heap (allocated minus deallocated). The
/// soak tests difference this across eviction cycles to prove the service's
/// memory stays bounded by the session cap, not by tenant churn.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}
