//! Resource accounting: per-thread CPU time and allocation counting.
//!
//! The daemon's existing metrics describe *what* it did (publications,
//! rounds, latencies); this module accounts for what the work *cost*:
//!
//! * [`CpuClock`] reads the calling thread's consumed CPU time
//!   (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)` via a raw syscall — the
//!   workspace vendors no libc). It is a trait so the simulator and tests
//!   can substitute a deterministic clock ([`NullCpuClock`],
//!   [`ManualCpuClock`]) and stay reproducible.
//! * [`CountingAlloc`] is an opt-in `#[global_allocator]` wrapper over the
//!   system allocator keeping *per-thread* allocation and byte counters,
//!   read with [`alloc_counts`]. Per-thread counters mean a shard worker's
//!   reading covers exactly its own work, with no cross-thread attribution
//!   and no atomics on the allocation hot path.
//!
//! Neither facility records anything by itself: the shard loop samples
//! both around each round and folds the deltas into its registry, so the
//! cost series ride the existing snapshot/merge/exposition machinery.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// A source of per-thread consumed-CPU-time readings.
///
/// `thread_cpu_us` returns the total CPU time the *calling thread* has
/// consumed, in microseconds, or `None` when the platform (or the chosen
/// implementation) provides no reading. Callers take deltas; the absolute
/// origin is the thread's birth.
pub trait CpuClock: Send {
    /// CPU time consumed by the calling thread, in microseconds.
    fn thread_cpu_us(&self) -> Option<u64>;
}

/// The real per-thread CPU clock: `CLOCK_THREAD_CPUTIME_ID` via a raw
/// `clock_gettime` syscall on Linux, `None` elsewhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadCpuClock;

impl CpuClock for ThreadCpuClock {
    fn thread_cpu_us(&self) -> Option<u64> {
        thread_cpu_time_us()
    }
}

/// A clock that never reads: cost accounting records nothing, and
/// sim/test runs stay bit-for-bit deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCpuClock;

impl CpuClock for NullCpuClock {
    fn thread_cpu_us(&self) -> Option<u64> {
        None
    }
}

/// A hand-advanced clock for tests: returns a scripted sequence of
/// readings.
#[derive(Debug, Default)]
pub struct ManualCpuClock {
    readings: std::sync::Mutex<Vec<u64>>,
}

impl ManualCpuClock {
    /// A clock that yields `readings` in order, then `None`.
    pub fn new(readings: Vec<u64>) -> Self {
        let mut r = readings;
        r.reverse();
        ManualCpuClock { readings: std::sync::Mutex::new(r) }
    }
}

impl CpuClock for ManualCpuClock {
    fn thread_cpu_us(&self) -> Option<u64> {
        self.readings.lock().unwrap().pop()
    }
}

/// `CLOCK_THREAD_CPUTIME_ID` from `linux/time.h`.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
const CLOCK_THREAD_CPUTIME_ID: u64 = 3;

/// Reads the calling thread's consumed CPU time in microseconds.
///
/// The workspace vendors its dependencies and has no libc crate, so this
/// issues the `clock_gettime` syscall directly on the architectures the
/// project targets; other platforms get `None` and cost accounting simply
/// stays dark there.
pub fn thread_cpu_time_us() -> Option<u64> {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        // struct timespec { tv_sec: i64, tv_nsec: i64 } on 64-bit Linux.
        let mut ts = [0i64; 2];
        let ret: i64;
        #[cfg(target_arch = "x86_64")]
        unsafe {
            // __NR_clock_gettime = 228 on x86_64.
            core::arch::asm!(
                "syscall",
                inlateout("rax") 228i64 => ret,
                in("rdi") CLOCK_THREAD_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        #[cfg(target_arch = "aarch64")]
        unsafe {
            // __NR_clock_gettime = 113 on aarch64.
            core::arch::asm!(
                "svc #0",
                inlateout("x0") CLOCK_THREAD_CPUTIME_ID as i64 => ret,
                in("x1") ts.as_mut_ptr(),
                in("x8") 113i64,
                options(nostack),
            );
        }
        if ret != 0 {
            return None;
        }
        let (sec, nsec) = (ts[0], ts[1]);
        if sec < 0 || nsec < 0 {
            return None;
        }
        Some((sec as u64).saturating_mul(1_000_000).saturating_add(nsec as u64 / 1_000))
    }
    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    {
        None
    }
}

/// A point-in-time reading of the calling thread's allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// Allocations performed (alloc + zeroed + growing reallocs).
    pub allocs: u64,
    /// Bytes requested across those allocations.
    pub bytes: u64,
}

impl AllocCounts {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

// Const-initialized thread locals: no lazy-init branch or registration on
// the allocation path, just a TLS offset and an add.
thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Global switch for the wrapper's counting (the wrapper itself is chosen
/// at link time). Off = the wrapper is a pure pass-through, which is what
/// overhead A/B measurements compare against.
static COUNTING: AtomicBool = AtomicBool::new(true);

/// Set once a `CountingAlloc` has observed an allocation, so readers can
/// distinguish "no allocations" from "wrapper not installed".
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables allocation counting at runtime (counting is on by
/// default). Used for overhead A/B runs: the wrapper stays installed, only
/// the counter updates are gated.
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Whether a [`CountingAlloc`] is installed as the global allocator (more
/// precisely: has counted at least one allocation in this process).
pub fn alloc_counting_active() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// The calling thread's allocation counters since thread start. All zeros
/// when no [`CountingAlloc`] is installed.
pub fn alloc_counts() -> AllocCounts {
    // `try_with` keeps reads safe during TLS teardown at thread exit.
    let allocs = TL_ALLOCS.try_with(Cell::get).unwrap_or(0);
    let bytes = TL_BYTES.try_with(Cell::get).unwrap_or(0);
    AllocCounts { allocs, bytes }
}

/// An opt-in `#[global_allocator]` wrapper over [`System`] that counts
/// allocations and requested bytes per thread.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: richnote_obs::rsrc::CountingAlloc = richnote_obs::rsrc::CountingAlloc::new();
/// ```
///
/// Only binaries that want allocation accounting install it (the daemon
/// and the benchmark); library users and the simulator pay nothing.
pub struct CountingAlloc;

impl CountingAlloc {
    /// The wrapper (stateless; counters live in thread-local storage).
    pub const fn new() -> Self {
        CountingAlloc
    }

    #[inline]
    fn note(size: usize) {
        if !COUNTING.load(Ordering::Relaxed) {
            return;
        }
        INSTALLED.store(true, Ordering::Relaxed);
        // During thread teardown the TLS slots may already be destroyed;
        // allocations there just go uncounted.
        let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = TL_BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates touch only thread-local
// cells and allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the grown portion only; shrinks are free.
        Self::note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_is_monotonic_per_thread() {
        let clock = ThreadCpuClock;
        let Some(a) = clock.thread_cpu_us() else {
            // Unsupported platform: the accounting layer stays dark.
            return;
        };
        // Burn a little CPU so the second reading can only move forward.
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1, "keep the loop");
        let b = clock.thread_cpu_us().expect("clock read twice");
        assert!(b >= a, "thread CPU time went backwards: {a} -> {b}");
    }

    #[test]
    fn null_clock_reads_nothing() {
        assert_eq!(NullCpuClock.thread_cpu_us(), None);
    }

    #[test]
    fn manual_clock_scripts_readings() {
        let c = ManualCpuClock::new(vec![10, 25]);
        assert_eq!(c.thread_cpu_us(), Some(10));
        assert_eq!(c.thread_cpu_us(), Some(25));
        assert_eq!(c.thread_cpu_us(), None);
    }

    #[test]
    fn alloc_counts_delta_saturates() {
        let a = AllocCounts { allocs: 5, bytes: 100 };
        let b = AllocCounts { allocs: 7, bytes: 130 };
        assert_eq!(b.since(a), AllocCounts { allocs: 2, bytes: 30 });
        // A thread restart (fresh TLS) must not underflow.
        assert_eq!(a.since(b), AllocCounts { allocs: 0, bytes: 0 });
    }
}
