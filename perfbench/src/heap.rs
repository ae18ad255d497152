//! Peak live-heap accounting for `peak_heap_mb`.
//!
//! A counting wrapper around the system allocator. The counters must see
//! `long-haul`'s snapshot-writer thread, which frees checkpoints the
//! simulation thread allocated, so they are process-wide atomics. They
//! live here, in the benchmark binary, and not under `crates/*/src`, whose
//! concurrency discipline (lint L5) keeps atomics out of the library code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus live and peak byte counts. The counts are
/// statistics that publish no other data, hence `Relaxed`.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// The counters do not allocate, so each method is `System`'s plus arithmetic.
// SAFETY: every method forwards the caller's arguments to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `GlobalAlloc::alloc`, upheld by the caller.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: same contract as `GlobalAlloc::alloc_zeroed`, upheld by the caller.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: same contract as `GlobalAlloc::dealloc`, upheld by the caller.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    // SAFETY: same contract as `GlobalAlloc::realloc`, upheld by the caller.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Starts a new peak window at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The largest live heap since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
