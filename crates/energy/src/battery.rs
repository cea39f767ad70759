//! Battery state and synthetic diurnal battery traces.
//!
//! The paper drives energy replenishment from "a separate trace of
//! timestamped battery status per user ... to mimic energy drain and
//! battery recharge patterns" (Sec. V-C, trace from Do et al. INFOCOM'14).
//! Those traces are proprietary; this module synthesizes per-user diurnal
//! traces with the same qualitative shape: overnight charging to full,
//! daytime drain with per-user phase/rate variation.

use serde::{Deserialize, Serialize};

/// A device battery with a capacity and current charge, both in joules.
///
/// Typical smartphone batteries of the paper's era held ≈10 Wh = 36 kJ; the
/// default uses that figure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity: f64,
    charge: f64,
}

impl Battery {
    /// A full battery of `capacity` joules.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "battery capacity must be positive");
        Self { capacity, charge: capacity }
    }

    /// Typical ≈10 Wh smartphone battery.
    pub fn typical_smartphone() -> Self {
        Self::new(36_000.0)
    }

    /// Capacity in joules.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Current charge in joules.
    pub fn charge(&self) -> f64 {
        self.charge
    }

    /// Charge as a fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.charge / self.capacity
    }

    /// Drains `joules`, saturating at empty; returns the amount actually
    /// drained.
    pub fn drain(&mut self, joules: f64) -> f64 {
        let drained = joules.max(0.0).min(self.charge);
        self.charge -= drained;
        drained
    }

    /// Recharges `joules`, saturating at capacity.
    pub fn recharge(&mut self, joules: f64) {
        self.charge = (self.charge + joules.max(0.0)).min(self.capacity);
    }
}

impl Default for Battery {
    fn default() -> Self {
        Self::typical_smartphone()
    }
}

/// Configuration of the synthetic diurnal battery trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryTraceConfig {
    /// Hour of day charging starts (device plugged in overnight).
    pub charge_start_hour: f64,
    /// Hour of day charging ends.
    pub charge_end_hour: f64,
    /// Baseline drain per hour as a fraction of capacity (background use).
    pub drain_per_hour: f64,
    /// Per-user phase shift in hours (staggers users' routines).
    pub phase_hours: f64,
}

impl Default for BatteryTraceConfig {
    fn default() -> Self {
        Self {
            charge_start_hour: 23.0,
            charge_end_hour: 7.0,
            drain_per_hour: 0.05,
            phase_hours: 0.0,
        }
    }
}

/// A deterministic per-round battery-fraction trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatteryTrace {
    fractions: Vec<f64>,
}

impl BatteryTrace {
    /// Synthesizes a trace of `rounds` hourly samples.
    ///
    /// The device charges quickly inside the charging window and drains at
    /// `drain_per_hour` outside it, starting full at the (phase-shifted)
    /// midnight of day 0.
    pub fn synthesize(cfg: &BatteryTraceConfig, rounds: u64) -> Self {
        let mut fractions = Vec::with_capacity(rounds as usize);
        let mut level = 1.0f64;
        for r in 0..rounds {
            let hour = ((r as f64 + cfg.phase_hours) % 24.0 + 24.0) % 24.0;
            let charging = if cfg.charge_start_hour <= cfg.charge_end_hour {
                (cfg.charge_start_hour..cfg.charge_end_hour).contains(&hour)
            } else {
                hour >= cfg.charge_start_hour || hour < cfg.charge_end_hour
            };
            if charging {
                level = (level + 0.25).min(1.0); // ~4 h full charge
            } else {
                level = (level - cfg.drain_per_hour).max(0.05);
            }
            fractions.push(level);
        }
        Self { fractions }
    }

    /// Builds a trace from explicit fractions (e.g. replayed real data).
    pub fn from_fractions(fractions: Vec<f64>) -> Self {
        Self { fractions: fractions.into_iter().map(|f| f.clamp(0.0, 1.0)).collect() }
    }

    /// Battery fraction at `round`, clamping past the end.
    pub fn fraction_at(&self, round: u64) -> f64 {
        if self.fractions.is_empty() {
            return 1.0;
        }
        let idx = (round as usize).min(self.fractions.len() - 1);
        self.fractions[idx]
    }

    /// Number of rounds covered.
    pub fn len(&self) -> usize {
        self.fractions.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.fractions.is_empty()
    }
}

/// The variable per-round energy replenishment `e(t)` (Algorithm 2):
/// proportional to battery status, reaching the full per-round budget `κ`
/// at or above 80% charge and throttling linearly below.
///
/// ```
/// use richnote_energy::battery::energy_grant;
/// assert_eq!(energy_grant(1.0, 3000.0), 3000.0);
/// assert_eq!(energy_grant(0.4, 3000.0), 1500.0);
/// assert_eq!(energy_grant(0.0, 3000.0), 0.0);
/// ```
pub fn energy_grant(battery_fraction: f64, kappa: f64) -> f64 {
    (battery_fraction.clamp(0.0, 1.0) / 0.8).min(1.0) * kappa
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_drain_and_recharge_saturate() {
        let mut b = Battery::new(100.0);
        assert_eq!(b.drain(30.0), 30.0);
        assert_eq!(b.charge(), 70.0);
        assert_eq!(b.drain(1000.0), 70.0);
        assert_eq!(b.charge(), 0.0);
        b.recharge(150.0);
        assert_eq!(b.charge(), 100.0);
    }

    #[test]
    fn negative_amounts_are_ignored() {
        let mut b = Battery::new(100.0);
        assert_eq!(b.drain(-5.0), 0.0);
        b.recharge(-5.0);
        assert_eq!(b.charge(), 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = Battery::new(0.0);
    }

    #[test]
    fn trace_is_diurnal() {
        let trace = BatteryTrace::synthesize(&BatteryTraceConfig::default(), 48);
        // 6 AM (during overnight charge window) should be near-full.
        assert!(trace.fraction_at(6) > 0.9);
        // 10 PM after a full day of drain should be visibly lower.
        assert!(trace.fraction_at(22) < trace.fraction_at(6));
        // Second day repeats the cycle.
        assert!(trace.fraction_at(30) > 0.9);
    }

    #[test]
    fn trace_never_leaves_unit_interval() {
        let cfg = BatteryTraceConfig { drain_per_hour: 0.5, ..Default::default() };
        let trace = BatteryTrace::synthesize(&cfg, 24 * 7);
        for r in 0..trace.len() as u64 {
            let f = trace.fraction_at(r);
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn trace_clamps_past_end() {
        let trace = BatteryTrace::from_fractions(vec![0.5, 0.6]);
        assert_eq!(trace.fraction_at(100), 0.6);
        let empty = BatteryTrace::from_fractions(vec![]);
        assert_eq!(empty.fraction_at(0), 1.0);
    }

    #[test]
    fn phase_shifts_routine() {
        let base = BatteryTrace::synthesize(&BatteryTraceConfig::default(), 24);
        let shifted = BatteryTrace::synthesize(
            &BatteryTraceConfig { phase_hours: 12.0, ..Default::default() },
            24,
        );
        assert_ne!(base, shifted);
    }

    #[test]
    fn grant_is_monotone_in_battery() {
        let mut last = -1.0;
        for pct in 0..=10 {
            let g = energy_grant(pct as f64 / 10.0, 3_000.0);
            assert!(g >= last);
            last = g;
        }
        assert_eq!(energy_grant(0.9, 3_000.0), 3_000.0);
    }
}
