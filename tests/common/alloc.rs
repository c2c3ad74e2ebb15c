//! A counting `GlobalAlloc` wrapper for the steady-state allocation
//! tests. The static itself lives in `tests/steady_state_alloc.rs` (a
//! `#[global_allocator]` here would hijack every test binary that pulls
//! in `common`); this module only defines the type.
//!
//! Allocated and freed bytes are metered separately, both per thread and
//! process-wide, so allocated minus freed over a stretch of work is the
//! live heap it left behind.

// Only the steady-state binary exercises this module; the other test
// binaries compile it unused.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    // Const-initialized and drop-free, so touching them from inside the
    // allocator never allocates or registers a destructor.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES_FREED: Cell<u64> = const { Cell::new(0) };
}

/// Allocation events on the calling thread since it started. Unlike the
/// process-wide meters it ignores other threads — such as the test
/// harness spawning the next test or printing a slow-test notice — so
/// single-worker measurements of one thread's frames stay exact.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Bytes requested by the calling thread since it started (never
/// decremented); see [`thread_allocations`].
pub fn thread_bytes_allocated() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

/// Bytes released by the calling thread since it started (never
/// decremented; a `realloc` releases its old size). Memory allocated on
/// one thread and freed on another moves both threads' meters, so
/// per-thread live bytes are exact only when one thread does the work.
pub fn thread_bytes_freed() -> u64 {
    THREAD_BYTES_FREED.with(Cell::get)
}

/// Forwards to the system allocator while counting every allocation
/// (including `realloc` growths and zeroed allocations) process-wide,
/// across all threads.
pub struct CountingAlloc {
    allocations: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        Self {
            allocations: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }

    /// Total allocation events since process start.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::SeqCst)
    }

    /// Total bytes requested since process start (never decremented —
    /// a monotone high-water meter, not a live-bytes gauge).
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }

    /// Total bytes released since process start (never decremented;
    /// `bytes_allocated() - bytes_freed()` is the live heap).
    pub fn bytes_freed(&self) -> u64 {
        self.freed.load(Ordering::SeqCst)
    }

    fn record(&self, size: usize) {
        self.allocations.fetch_add(1, Ordering::SeqCst);
        self.bytes.fetch_add(size as u64, Ordering::SeqCst);
        // `try_with`: the slots are gone while the thread is torn down.
        let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = THREAD_BYTES.try_with(|b| b.set(b.get() + size as u64));
    }

    fn record_free(&self, size: usize) {
        self.freed.fetch_add(size as u64, Ordering::SeqCst);
        let _ = THREAD_BYTES_FREED.try_with(|b| b.set(b.get() + size as u64));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.record_free(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.record(new_size);
        self.record_free(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
