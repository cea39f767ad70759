//! What the benchmark reads from the host: process CPU time, peak memory,
//! core count, pinning to one CPU, a machine-speed calibration, and scratch
//! directories that stay inside the checkout.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux architecture this repo targets).
const CLK_TCK: f64 = 100.0;

/// User plus system CPU time the whole process (all threads) has consumed,
/// in seconds, at 10 ms resolution; `None` where procfs is unavailable.
/// Preemption by other tenants inflates wall time but not this. Read over
/// windows of a second or more, where the resolution is under one percent.
pub fn process_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// `VmHWM` (peak resident set) in MB; `None` where procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Cores the process may run on, as first asked: [`pin_to_one_cpu`] does
/// not change the answer, so the load shape stays that of the host.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Generator threads, connections and shards: `min(nproc, 2)`.
pub fn lanes() -> usize {
    nproc().min(2)
}

/// The lowest CPU the process is allowed on, from `Cpus_allowed_list` in
/// `/proc/self/status` (`0-3,8` reads 0).
fn first_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first = list.trim().split([',', '-']).next()?;
    first.parse().ok()
}

/// Restricts the calling thread, and every thread spawned after it, to one
/// CPU; returns the CPU, or `None` where that is not possible (the run goes
/// on unpinned and says so).
///
/// Why: on a shared two-vCPU host the scheduler's placement of the daemon's
/// six threads decided the figures. The same binary acked in 80, 91 or
/// 120 µs from run to run depending on which idle vCPU each hop had to
/// wake; a tick took 1.8 ms with the two shards on different cores and
/// 3.0 ms with both on one, from second to second. On one CPU there is no
/// placement to decide and no idle sibling to wake: ten runs on ten seeds
/// agree within 2% where they agreed within 6 to 36%. Every figure is then
/// a cost on one core, which is also what the ledger's costs add up to.
/// What is given up is what two cores add: shards running in parallel and
/// connections meeting on the router's locks.
pub fn pin_to_one_cpu() -> Option<usize> {
    nproc(); // remember the host's count before narrowing it
    let cpu = first_allowed_cpu()?;
    let mut mask = [0u64; 16]; // 1024 CPUs
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    set_affinity(&mask).then_some(cpu)
}

/// `sched_setaffinity(0, size_of(mask), mask)` as a raw syscall: the repo
/// vendors no libc (`richnote_obs::rsrc` reads its clock the same way).
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn set_affinity(mask: &[u64; 16]) -> bool {
    let ret: i64;
    // SAFETY: `sched_setaffinity(2)` only reads `cpusetsize` bytes from the
    // mask pointer; `mask` is a live, initialised `[u64; 16]` and the size
    // passed is its size. Pid 0 is the calling thread. The clobbers named
    // are those of the kernel's syscall ABI.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // __NR_sched_setaffinity = 203 on x86_64.
        core::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret,
            in("rdi") 0i64,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    // SAFETY: as above; `svc #0` with the number in x8 is the aarch64
    // syscall ABI and returns in x0.
    #[cfg(target_arch = "aarch64")]
    unsafe {
        // __NR_sched_setaffinity = 122 on aarch64.
        core::arch::asm!(
            "svc #0",
            inlateout("x0") 0i64 => ret,
            in("x1") std::mem::size_of_val(mask),
            in("x2") mask.as_ptr(),
            in("x8") 122i64,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn set_affinity(_mask: &[u64; 16]) -> bool {
    false
}

/// Millions of iterations per second of a fixed serial integer kernel, best
/// of three. Explains differences between machines; gated on nothing.
pub fn calibration_mops() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.min(started.elapsed().as_secs_f64());
    }
    ITERS as f64 / best.max(1e-9) / 1e6
}

/// A fresh, empty directory next to the benchmark executable (inside the
/// build directory, which the repo's `.gitignore` names), so nothing is
/// written outside the checkout. Removed by [`remove_scratch`].
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let base = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    let dir = base.join("bench-scratch").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory beside the executable");
    dir
}

pub fn remove_scratch(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_advances_with_work() {
        let Some(before) = process_cpu_secs() else { return };
        let started = Instant::now();
        let mut x = 1u64;
        while started.elapsed().as_millis() < 60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        let after = process_cpu_secs().unwrap();
        assert!(after > before, "cpu {before} -> {after}");
        assert!(peak_rss_mb().unwrap() > 0.5);
    }

    #[test]
    fn pinning_narrows_a_thread_and_its_children_but_not_the_remembered_count() {
        // On its own thread: the test harness's other threads stay free.
        std::thread::spawn(|| {
            let before = nproc();
            let Some(cpu) = pin_to_one_cpu() else { return };
            assert_eq!(first_allowed_cpu(), Some(cpu));
            assert_eq!(std::thread::available_parallelism().map(|n| n.get()).ok(), Some(1));
            let child = std::thread::spawn(first_allowed_cpu).join().unwrap();
            assert_eq!(child, Some(cpu));
            assert_eq!(nproc(), before);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn scratch_dirs_are_distinct_and_removable() {
        let a = scratch_dir("t");
        let b = scratch_dir("t");
        assert_ne!(a, b);
        assert!(a.is_dir() && b.is_dir());
        remove_scratch(&a);
        remove_scratch(&b);
        assert!(!a.exists());
    }
}
