//! Raw Linux system-call bindings used by the reactor.
//!
//! The build environment has no crates.io access (so no `libc`/`mio`);
//! following the repository's shim approach, the handful of syscalls the
//! reactor needs — `epoll`, `eventfd` and `rlimit` — are declared here as
//! direct `extern "C"` bindings against the platform libc that every Rust
//! Linux target already links. This is the only module in the workspace
//! containing `unsafe` code; everything above it speaks in safe wrappers
//! ([`Epoll`], [`EventFd`]). For the same reason it holds
//! [`CountingAlloc`], the counting global allocator that test binaries
//! install to pin allocation budgets (a `GlobalAlloc` impl is `unsafe`).
//!
//! Some wrappers here have callers only in tests and benches
//! (`set_send_buffer`, `set_nofile_soft`, `raise_nofile_limit`,
//! `thread_allocations`, `thread_held_bytes`). They stay public because
//! the `unsafe-confinement` lint keeps every `unsafe` block in this
//! module, so a test cannot carry its own binding.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::os::raw::{c_int, c_uint};

/// `epoll_event.events` flag: readable.
pub const EPOLLIN: u32 = 0x001;
/// `epoll_event.events` flag: writable.
pub const EPOLLOUT: u32 = 0x004;
/// `epoll_event.events` flag: error condition.
pub const EPOLLERR: u32 = 0x008;
/// `epoll_event.events` flag: hangup.
pub const EPOLLHUP: u32 = 0x010;
/// `epoll_event.events` flag: peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const RLIMIT_NOFILE: c_int = 7;
const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;

/// Most buffers one [`writev_fd`] call gathers. Linux's `IOV_MAX` is
/// 1024; 64 already amortises the syscall across a deep outbox while
/// keeping the stack-allocated iovec array small.
pub const WRITEV_BATCH: usize = 64;

/// One gather-write segment (`struct iovec`).
#[repr(C)]
#[derive(Clone, Copy)]
struct IoVec {
    base: *const u8,
    len: usize,
}

/// One readiness notification, as filled in by `epoll_wait`.
///
/// The kernel/libc definition is packed on x86-64 (`__EPOLL_PACKED`), and
/// has natural alignment on other architectures; getting this wrong
/// corrupts the token of every second event.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitset of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

impl EpollEvent {
    /// An empty (zeroed) event, for pre-allocating wait buffers.
    pub const fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_int,
        optlen: u32,
    ) -> c_int;
}

/// Gather-writes up to [`WRITEV_BATCH`] buffers to `fd` in **one**
/// syscall, returning the bytes written (possibly a short write ending
/// mid-buffer — the caller advances its queue by the count). The iovec
/// array lives on the stack and `bufs` is consumed lazily, so the hot
/// flush path allocates nothing; buffers beyond the batch cap are left
/// un-consumed and the caller loops.
///
/// # Errors
///
/// Propagates `writev` failure, including `WouldBlock` on a full socket
/// buffer and `Interrupted` on `EINTR` (callers retry).
pub fn writev_fd<'a>(fd: i32, bufs: impl IntoIterator<Item = &'a [u8]>) -> io::Result<usize> {
    let mut iov = [IoVec {
        base: std::ptr::null(),
        len: 0,
    }; WRITEV_BATCH];
    let mut count = 0;
    for (slot, buf) in iov.iter_mut().zip(bufs) {
        slot.base = buf.as_ptr();
        slot.len = buf.len();
        count += 1;
    }
    let n = unsafe { writev(fd, iov.as_ptr(), count as c_int) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Shrinks (or grows) a socket's kernel send buffer. The outbox flush
/// tests use a tiny buffer to force partial `writev` results; the kernel
/// clamps to its own minimum and doubles the value for bookkeeping.
///
/// # Errors
///
/// Propagates `setsockopt` failure.
pub fn set_send_buffer(fd: i32, bytes: i32) -> io::Result<()> {
    cvt(unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_SNDBUF,
            &bytes,
            std::mem::size_of::<c_int>() as u32,
        )
    })
    .map(drop)
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: c_int,
}

impl Epoll {
    /// Creates a new epoll instance (`CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure (fd exhaustion).
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Registers `fd` for the `events` readiness set under `token`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) }).map(drop)
    }

    /// Changes the readiness set of an already registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_MOD, fd, &mut ev) }).map(drop)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        let mut ev = EpollEvent::zeroed();
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) }).map(drop)
    }

    /// Waits for readiness, filling `events`; `timeout_ms` of `-1` blocks
    /// indefinitely. Returns the number of events filled in. `EINTR`
    /// surfaces as `Ok(0)` so callers simply loop.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure other than `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len().min(i32::MAX as usize) as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An owned `eventfd`, used to wake `epoll_wait` from other threads.
#[derive(Debug)]
pub struct EventFd {
    fd: c_int,
}

impl EventFd {
    /// Creates a nonblocking eventfd.
    ///
    /// # Errors
    ///
    /// Propagates `eventfd` failure.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw descriptor, for epoll registration.
    pub fn raw_fd(&self) -> i32 {
        self.fd
    }

    /// Posts one wakeup. Saturation (`EAGAIN` when the counter is full)
    /// is fine — the pending wakeup already guarantees delivery.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consumes all pending wakeups.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// Attempts to raise the process's open-file soft limit to at least
/// `want` descriptors (capped at the hard limit), and returns the soft
/// limit in force afterwards. Used by the idle-connection benches, which
/// hold tens of thousands of sockets in one process.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 1024; // conservative POSIX default
    }
    if lim.rlim_cur >= want {
        return lim.rlim_cur;
    }
    let target = want.min(lim.rlim_max);
    let new = RLimit {
        rlim_cur: target,
        rlim_max: lim.rlim_max,
    };
    if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
        target
    } else {
        lim.rlim_cur
    }
}

/// OS threads currently in this process, from `/proc/self/status`.
/// Used by the benches and tests that pin the reactor's bounded-thread
/// property (`0` if the proc file is unreadable). Public for the `sched`
/// bench's thread bound.
pub fn os_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("Threads:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|count| count.parse().ok())
        })
        .unwrap_or(0)
}

/// Sets the open-file *soft* limit (which may be below the current
/// value — used by the accept-robustness tests to provoke `EMFILE`), and
/// returns the previous soft limit.
///
/// # Errors
///
/// Propagates `getrlimit`/`setrlimit` failure.
pub fn set_nofile_soft(limit: u64) -> io::Result<u64> {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    let previous = lim.rlim_cur;
    let new = RLimit {
        rlim_cur: limit.min(lim.rlim_max),
        rlim_max: lim.rlim_max,
    };
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &new) })?;
    Ok(previous)
}

/// A global allocator for test binaries that pin allocation budgets. It
/// forwards every call to [`System`] unchanged and counts, per thread,
/// the allocations made (reallocations included) and the bytes held;
/// read them with [`thread_allocations`] and [`thread_held_bytes`].
/// Per-thread counts are untouched by whatever other test threads do.
#[derive(Debug)]
pub struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static HELD_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Adds to this thread's counts. The counters are `const`-initialised
/// and have no destructor, so touching them never allocates; `try_with`
/// skips a thread that is tearing down its locals.
fn note_alloc(allocations: u64, bytes: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = HELD_BYTES.try_with(|held| held.set(held.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s contract is the caller's; the bookkeeping
// beside it touches only thread-local `Cell`s, never the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_alloc(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

/// Allocations and reallocations this thread has made through
/// [`CountingAlloc`].
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes this thread has allocated through [`CountingAlloc`] minus the
/// bytes it has freed.
pub fn thread_held_bytes() -> i64 {
    HELD_BYTES.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing pending: times out immediately.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        ev.wake();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, 7);

        // Level-triggered: still ready until drained.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn modify_and_delete_registrations() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw_fd(), EPOLLIN, 1).unwrap();
        ev.wake();
        // Mask out EPOLLIN: no longer reported.
        ep.modify(ev.raw_fd(), 0, 1).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        ep.modify(ev.raw_fd(), EPOLLIN, 2).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);
        assert_eq!({ events[0].data }, 2);
        ep.delete(ev.raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn nofile_limit_reports_a_sane_value() {
        let lim = raise_nofile_limit(64);
        assert!(lim >= 64, "soft limit {lim} below floor");
    }
}
