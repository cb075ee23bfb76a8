//! What the benchmark reads from the host: process CPU time, peak RSS and
//! hypervisor steal from `/proc`, a counting global allocator, and a
//! fixed pure-CPU loop — the last two tell a slow machine from slow code.
//! No `libc` crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// From the C library `std` already links; declared here so that the
    /// crate needs no `libc` dependency.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process user+system CPU seconds so far, all threads, exited ones
/// included: the scheduler's exact runtime sum. (`/proc/self/stat` would
/// do without the foreign call, but this kernel fills it by sampling at
/// 10 ms ticks, which on `ingest`'s short bursts between sleeps was off
/// by ±12 % per slice.)
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Seconds the hypervisor has run something else while a virtual CPU of
/// this machine wanted to run (`steal` in `/proc/stat`, all CPUs).
pub fn host_steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_steal_ticks(&stat) as f64 / 100.0
}

/// The eighth value of the aggregate `cpu` line, in `USER_HZ` ticks.
fn parse_steal_ticks(stat: &str) -> u64 {
    stat.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|rest| rest.split_ascii_whitespace().nth(7))
        .and_then(|steal| steal.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kb(&status, "VmHWM:") as f64 / 1024.0
}

fn parse_status_kb(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times a fixed pure-CPU loop (no memory traffic, no syscalls), in ms.
pub fn host_spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..8_000_000u64 {
        x ^= i;
        x = x.wrapping_mul(0x0100_0000_01b3).rotate_left(17);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Counts allocations while [`set_alloc_counting`] is on (traced runs
/// only: untraced runs pay one relaxed load per allocation).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never touch the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Turns allocation counting on or off.
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        let stat =
            "cpu  2523628 0 489635 3534089 43250 0 145471 49149 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), 49149);
        assert_eq!(parse_steal_ticks("intr 5"), 0);
    }

    #[test]
    fn status_field_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), 51200);
        assert_eq!(parse_status_kb(status, "VmNope:"), 0);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        assert!(host_spin_ms() > 0.0);
        assert!(cpu_seconds() > before, "spinning burns process CPU time");
        assert!(nproc() >= 1);
    }
}
