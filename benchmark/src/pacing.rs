//! Open-loop pacing: operations are due on a fixed schedule whatever the
//! system under test does, each is timed from its *due* time, and how late
//! the generator itself ran is counted. The clock is a trait so the
//! arithmetic is tested against a fake one.

use richnote_obs::rsrc::thread_cpu_time_us;
use std::time::Instant;

/// Nanoseconds since the schedule's origin, and a way to wait.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t_ns` (immediately when already past),
    /// with the nanoseconds of CPU it burned busy-waiting.
    fn wait_until(&self, t_ns: u64) -> u64;
}

/// The real clock. It busy-waits and never sleeps: on a virtualised host an
/// idle vCPU takes tens of µs to wake, and whether a publish pays that
/// depends on where the scheduler last put the threads involved, so a
/// sleeping generator measures the host's idle states (ack medians of 80,
/// 91 and 120 µs in three runs of the same binary) where a polling one
/// measures the daemon (24 to 30 µs). The CPU it burns waiting is returned
/// so that callers can take it out of the system's bill.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn starting_now() -> Self {
        WallClock { origin: Instant::now() }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) -> u64 {
        let woke = self.now_ns();
        // Thread CPU, not wall time: while the daemon's threads preempt
        // this one, it waits without burning anything.
        let cpu0 = thread_cpu_time_us();
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
        match (cpu0, thread_cpu_time_us()) {
            (Some(c0), Some(c1)) => c1.saturating_sub(c0) * 1_000,
            _ => t_ns.saturating_sub(woke),
        }
    }
}

/// A generator is counted late when it sends more than this after due time.
pub const LATE_NS: u64 = 1_000_000;

/// One open-loop generator: operation `i` is due at `i * period_ns`.
pub struct OpenLoop {
    period_ns: u64,
    issued: u64,
    late: u64,
    /// Time spent busy-waiting for due times, ns: the generator's own CPU,
    /// which callers take out of the system's bill.
    pub spin_ns: u64,
    /// Completion minus due time of every operation, ns.
    pub latencies_ns: Vec<u64>,
}

impl OpenLoop {
    pub fn new(rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "rate must be positive");
        OpenLoop {
            period_ns: (1e9 / rate_per_s).round() as u64,
            issued: 0,
            late: 0,
            spin_ns: 0,
            latencies_ns: Vec::new(),
        }
    }

    /// Due time of operation `i`, ns since the clock's origin.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// Waits for the next operation's due time, runs it, and books its
    /// latency from the due time. An operation that overran delays the
    /// sends after it; their wait shows as latency, and as lateness.
    pub fn run_next<C: Clock, T>(&mut self, clock: &C, op: impl FnOnce() -> T) -> T {
        let due = self.due_ns(self.issued);
        self.spin_ns += clock.wait_until(due);
        if clock.now_ns() - due > LATE_NS {
            self.late += 1;
        }
        let out = op();
        self.latencies_ns.push(clock.now_ns() - due);
        self.issued += 1;
        out
    }

    /// Operations sent more than [`LATE_NS`] after they were due.
    pub fn late(&self) -> u64 {
        self.late
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to, or when waited on.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) -> u64 {
            self.0.set(self.0.get().max(t_ns));
            0
        }
    }

    #[test]
    fn due_times_follow_the_rate_not_the_system() {
        let clock = FakeClock(Cell::new(0));
        let mut gen = OpenLoop::new(2_500.0);
        assert_eq!(gen.due_ns(0), 0);
        assert_eq!(gen.due_ns(1), 400_000);
        assert_eq!(gen.due_ns(2_500), 1_000_000_000);
        // Each operation takes 100 µs: sent on time, latency 100 µs.
        for _ in 0..3 {
            gen.run_next(&clock, || clock.0.set(clock.0.get() + 100_000));
        }
        assert_eq!(gen.latencies_ns, vec![100_000; 3]);
        assert_eq!(gen.late(), 0);
        assert_eq!(clock.now_ns(), 900_000);
    }

    #[test]
    fn a_stall_is_charged_to_the_operations_behind_it() {
        let clock = FakeClock(Cell::new(0));
        let mut gen = OpenLoop::new(1_000.0); // due every 1 ms
        let cost_ns = [5_000_000u64, 100_000, 100_000, 100_000, 100_000, 100_000, 100_000];
        for cost in cost_ns {
            gen.run_next(&clock, || clock.0.set(clock.0.get() + cost));
        }
        // Op 0 stalls 5 ms. Ops 1..=5 were due at 1..5 ms but go out
        // back-to-back from 5.0 ms, so they are timed from their due times;
        // op 6 (due 6 ms) is back on schedule.
        assert_eq!(
            gen.latencies_ns,
            vec![5_000_000, 4_100_000, 3_200_000, 2_300_000, 1_400_000, 500_000, 100_000]
        );
        // Sent more than 1 ms late: ops 1 to 4 (4.0, 3.1, 2.2 and 1.3 ms).
        assert_eq!(gen.late(), 4);
    }
}
