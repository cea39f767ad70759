//! Turning a measured region into steady numbers.
//!
//! The hosts this runs on are shared: a co-tenant slows a core for a second
//! or two at a time (a fixed serial kernel here swings between 63 and 95 ms
//! within a minute), and such bursts only ever make a run look *worse*. So
//! a region is cut into windows of about a second, every metric is taken
//! per window, and the reported value is that of the best quarter of the
//! windows: the upper quartile of a rate, the lower quartile of a cost or
//! a latency percentile. A change in the code moves every window, so it
//! moves the quartile; a burst moves a few windows, and does not.

use crate::host;
use crate::report::Better;
use crate::stats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A cumulative count over time: `(seconds since the region began, total so
/// far)`, both non-decreasing. Between points the count is taken to grow
/// evenly.
#[derive(Debug, Clone, Default)]
pub struct Series {
    points: Vec<(f64, f64)>,
}

impl Series {
    pub fn push(&mut self, t: f64, total: f64) {
        debug_assert!(self.points.last().is_none_or(|&(pt, pv)| pt <= t && pv <= total));
        self.points.push((t, total));
    }

    pub fn total(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.1)
    }

    /// The count at time `t`, interpolated; 0 before the first point's
    /// interval begins at `(0, 0)`, the last total after the last point.
    pub fn at(&self, t: f64) -> f64 {
        let after = self.points.partition_point(|&(pt, _)| pt < t);
        let (t0, v0) = if after == 0 { (0.0, 0.0) } else { self.points[after - 1] };
        match self.points.get(after) {
            Some(&(t1, v1)) if t1 > t0 => v0 + (v1 - v0) * ((t - t0) / (t1 - t0)).clamp(0.0, 1.0),
            Some(&(_, v1)) => v1,
            None => v0,
        }
    }
}

/// Samples process CPU time on a fixed period from its own thread; the
/// sample instants are the window edges.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(f64, f64)>>,
}

impl Sampler {
    /// Starts sampling at `origin`, the region's start (now or shortly).
    pub fn start(origin: Instant, period: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let read = || (origin.elapsed().as_secs_f64(), host::process_cpu_secs().unwrap_or(0.0));
            // An origin in the future is the end of a warm-up: wait for it.
            std::thread::sleep(origin.saturating_duration_since(Instant::now()));
            let mut edges = vec![read()];
            let mut next = origin + period;
            while !stopped.load(Ordering::SeqCst) {
                // Short naps, so stopping never waits out a whole period.
                let nap =
                    next.saturating_duration_since(Instant::now()).min(Duration::from_millis(10));
                std::thread::sleep(nap);
                if Instant::now() >= next {
                    edges.push(read());
                    next += period;
                }
            }
            edges
        });
        Sampler { stop, handle }
    }

    /// Stops and returns `(seconds since origin, process CPU seconds)` at
    /// every edge, the region's start first.
    pub fn stop(self) -> Vec<(f64, f64)> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("sampler thread")
    }
}

/// What the generators logged over one measured region.
#[derive(Debug, Clone, Default)]
pub struct RegionLog {
    /// Work units completed, one series per generator thread.
    pub work: Vec<Series>,
    /// Publications acked (or, in the simulator, notifications arrived),
    /// the divisor of `cpu_us_per_pub`; one series per generator thread.
    pub pubs: Vec<Series>,
    /// CPU seconds that are the generator's own busy-wait and are taken out
    /// of the bill; one series per generator thread, possibly none.
    pub cpu_credit: Vec<Series>,
    /// `(seconds since the region began, latency in µs)` of every timed
    /// operation, in any order.
    pub latency_us: Vec<(f64, f64)>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub work_per_s: f64,
    pub cpu_us_per_pub: f64,
    pub lat_p50_us: f64,
    pub lat_tail_us: f64,
    /// Full windows the summary rests on.
    pub windows: usize,
    /// Windows that had enough latency samples for the tail percentile.
    pub tail_windows: usize,
}

/// The value of the best quarter of windows: the 75th percentile of a
/// metric that is better higher, the 25th of one that is better lower.
pub fn best_quartile(per_window: &[f64], better: Better) -> f64 {
    let mut v = per_window.to_vec();
    stats::sort(&mut v);
    match better {
        Better::Higher => stats::percentile(&v, 0.75),
        Better::Lower => stats::percentile(&v, 0.25),
    }
}

fn sum_at(series: &[Series], t: f64) -> f64 {
    series.iter().map(|s| s.at(t)).sum()
}

/// Per-window metrics, then their best quartiles. `edges` come from a
/// [`Sampler`]; `tail` is the workload's stated tail percentile. CPU per
/// publication is taken over `cpu_span` consecutive windows at a time: the
/// process's CPU time is read in 10 ms steps, too coarse for one window of a
/// workload that nets most of it out again.
pub fn summarise(log: &RegionLog, edges: &[(f64, f64)], tail: f64, cpu_span: usize) -> Summary {
    let mut rates = Vec::new();
    let mut cpu_per_pub = Vec::new();
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut lat: Vec<(f64, f64)> = log.latency_us.clone();
    lat.sort_by(|a, b| a.0.total_cmp(&b.0));
    for w in edges.windows(2) {
        let ((t0, _), (t1, _)) = (w[0], w[1]);
        if t1 <= t0 {
            continue;
        }
        rates.push((sum_at(&log.work, t1) - sum_at(&log.work, t0)) / (t1 - t0));
        let from = lat.partition_point(|&(t, _)| t <= t0);
        let to = lat.partition_point(|&(t, _)| t <= t1);
        let mut us: Vec<f64> = lat[from..to].iter().map(|&(_, us)| us).collect();
        if !us.is_empty() {
            stats::sort(&mut us);
            p50s.push(stats::percentile(&us, 0.50));
            if us.len() >= stats::samples_needed(tail) {
                tails.push(stats::percentile(&us, tail));
            }
        }
    }
    let span = cpu_span.max(1);
    for first in (0..edges.len().saturating_sub(span)).step_by(span) {
        let ((t0, cpu0), (t1, cpu1)) = (edges[first], edges[first + span]);
        let pubs = sum_at(&log.pubs, t1) - sum_at(&log.pubs, t0);
        if pubs > 0.0 {
            let credit = sum_at(&log.cpu_credit, t1) - sum_at(&log.cpu_credit, t0);
            cpu_per_pub.push((cpu1 - cpu0 - credit).max(0.0) * 1e6 / pubs);
        }
    }
    let best = |v: &[f64], better| if v.is_empty() { 0.0 } else { best_quartile(v, better) };
    Summary {
        work_per_s: best(&rates, Better::Higher),
        cpu_us_per_pub: best(&cpu_per_pub, Better::Lower),
        lat_p50_us: best(&p50s, Better::Lower),
        lat_tail_us: best(&tails, Better::Lower),
        windows: rates.len(),
        tail_windows: tails.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(f64, f64)]) -> Series {
        let mut s = Series::default();
        for &(t, v) in points {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn a_series_interpolates_between_its_points() {
        let s = series(&[(1.0, 100.0), (3.0, 300.0)]);
        assert_eq!(s.at(0.0), 0.0);
        assert_eq!(s.at(0.5), 50.0);
        assert_eq!(s.at(1.0), 100.0);
        assert_eq!(s.at(2.0), 200.0);
        assert_eq!(s.at(9.0), 300.0);
        assert_eq!(s.total(), 300.0);
        assert_eq!(Series::default().at(1.0), 0.0);
    }

    #[test]
    fn best_quartile_ignores_the_disturbed_windows() {
        let rates = [100.0, 99.0, 101.0, 60.0, 55.0, 98.0, 100.0, 70.0];
        assert_eq!(best_quartile(&rates, Better::Higher), 100.0);
        let costs = [10.0, 10.2, 9.9, 17.0, 19.0, 10.1, 10.0, 15.0];
        assert_eq!(best_quartile(&costs, Better::Lower), 10.0);
    }

    #[test]
    fn windows_yield_rates_cpu_per_pub_and_latency_quartiles() {
        // Four one-second windows; the third is disturbed: half the work,
        // the same CPU, and slow operations.
        let work = series(&[(1.0, 1000.0), (2.0, 2000.0), (3.0, 2500.0), (4.0, 3500.0)]);
        let edges = [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0), (3.0, 1.5), (4.0, 2.0)];
        let mut latency_us = Vec::new();
        for w in 0..4 {
            for i in 0..40 {
                let slow = if w == 2 { 10.0 } else { 1.0 };
                latency_us.push((w as f64 + (i as f64 + 0.5) / 40.0, slow * (100.0 + i as f64)));
            }
        }
        let log = RegionLog {
            work: vec![work.clone()],
            pubs: vec![work],
            cpu_credit: vec![series(&[(4.0, 0.4)])],
            latency_us,
        };
        let s = summarise(&log, &edges, 0.75, 1);
        assert_eq!((s.windows, s.tail_windows), (4, 4));
        assert_eq!(s.work_per_s, 1000.0);
        // (0.5 s CPU - 0.1 s credit) / 1000 pubs = 400 µs in a quiet window.
        assert!((s.cpu_us_per_pub - 400.0).abs() < 1e-9);
        assert_eq!(s.lat_p50_us, 119.0);
        assert_eq!(s.lat_tail_us, 129.0);
        // Too few samples per window for p99: no tail, not a wrong one.
        assert_eq!(summarise(&log, &edges, 0.99, 1).tail_windows, 0);
        // Two windows at a time: (1.0 s - 0.2 s) / 2000 and / 1500 pubs.
        let s = summarise(&log, &edges, 0.75, 2);
        assert!((s.cpu_us_per_pub - 400.0).abs() < 1e-9);
    }

    #[test]
    fn the_sampler_returns_the_start_and_about_one_edge_per_period() {
        let origin = Instant::now();
        let sampler = Sampler::start(origin, Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(110));
        let edges = sampler.stop();
        assert!(edges.len() >= 4 && edges.len() <= 7, "{} edges", edges.len());
        assert!(edges.windows(2).all(|w| w[1].0 > w[0].0 && w[1].1 >= w[0].1));
    }
}
