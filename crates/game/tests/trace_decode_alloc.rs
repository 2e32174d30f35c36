//! `GameTrace::from_bytes` on hostile headers: every count it reads is
//! bounded by the bytes left to hold it, so a short input claiming a huge
//! trace is refused before anything proportional to the claim is reserved.
//!
//! The counting allocator below sees the whole test binary, so this file
//! holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use watchmen_game::trace::{GameTrace, TraceDecodeError};

/// Passes through to the system allocator, adding up the bytes requested.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every call to `System` unchanged; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A header: empty map name, then players, seed and frame count.
fn header(players: u64, frames: u64) -> Vec<u8> {
    [0, players, 7, frames].iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Decodes `bytes`, returning the result and the bytes allocated meanwhile.
fn decode(bytes: &[u8]) -> (Result<GameTrace, TraceDecodeError>, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let result = GameTrace::from_bytes(bytes);
    (result, ALLOCATED.load(Ordering::Relaxed) - before)
}

#[test]
fn hostile_counts_are_refused_before_they_are_reserved() {
    const MIB: usize = 1 << 20;

    // 32 bytes claiming 2^28 - 1 frames of 48 players.
    let (result, allocated) = decode(&header(48, (1 << 28) - 1));
    assert_eq!(result.unwrap_err(), TraceDecodeError::Truncated);
    assert!(allocated < MIB, "frame count reserved {allocated} bytes");

    // One frame of 2^20 players, with no player bytes behind it.
    let (result, allocated) = decode(&header(1 << 20, 1));
    assert_eq!(result.unwrap_err(), TraceDecodeError::Truncated);
    assert!(allocated < MIB, "player count reserved {allocated} bytes");

    // One empty frame claiming 2^20 events, with no event bytes behind it.
    let mut bytes = header(0, 1);
    bytes.extend_from_slice(&(1u64 << 20).to_le_bytes());
    let (result, allocated) = decode(&bytes);
    assert_eq!(result.unwrap_err(), TraceDecodeError::Truncated);
    assert!(allocated < MIB, "event count reserved {allocated} bytes");

    // Counts the bytes do hold still decode.
    let mut bytes = header(0, 2);
    bytes.extend_from_slice(&[0; 16]);
    let (result, _) = decode(&bytes);
    let trace = result.expect("two empty frames decode");
    assert_eq!((trace.players, trace.len()), (0, 2));
}
