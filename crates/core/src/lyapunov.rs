//! Lyapunov drift-plus-penalty control for notification scheduling (Sec. IV).
//!
//! The scheduler maintains two queues:
//!
//! * the **scheduling queue** `Q(t)` measured in bytes of *all*
//!   presentations of the queued items (`s(i) = Σ_j s(i,j)`), and
//! * a **virtual energy queue** `P(t)` that tracks how much energy the
//!   device is allowed to spend; it is replenished at rate `e(t)` up to the
//!   per-round budget `κ`.
//!
//! With the Lyapunov function `L(t) = ½(Q²(t) + (P(t) − κ)²)`, minimizing
//! the drift-plus-penalty bound `Δ(L(t)) − V·U_t` reduces to per-round
//! maximization of the **adjusted utility**
//!
//! ```text
//! Ua(i,j) = Q(t)·s(i) + (P(t) − κ)·ρ(i,j) + V·U(i,j)
//! ```
//!
//! under the data-budget constraint — an MCKP instance solved by
//! [`crate::mckp::select_greedy`].

use crate::paper;
use serde::{Deserialize, Serialize};

/// Configuration of the Lyapunov controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LyapunovConfig {
    /// Control knob `V`: larger values weight utility over queue backlog.
    pub v: f64,
    /// Per-round energy budget `κ` in joules.
    pub kappa: f64,
    /// Initial virtual energy queue value `P(0)`.
    pub initial_energy: f64,
}

impl LyapunovConfig {
    /// The paper's settings: `V = 1000`, `κ = 3 kJ` per hourly round.
    pub fn paper_default() -> Self {
        Self {
            v: paper::LYAPUNOV_V,
            kappa: paper::KAPPA_JOULES_PER_ROUND,
            initial_energy: paper::KAPPA_JOULES_PER_ROUND,
        }
    }
}

impl Default for LyapunovConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Mutable state of the Lyapunov controller: the two queues plus the
/// rolled-over data budget `B(t)`.
///
/// ```
/// use richnote_core::lyapunov::{LyapunovConfig, LyapunovState};
///
/// let mut state = LyapunovState::new(LyapunovConfig::paper_default());
/// state.begin_round(100_000, 3_000.0); // grant θ bytes and e(t) joules
/// state.on_enqueue(2_000_000);         // an item's presentations arrive
/// // A large backlog makes *any* delivery highly valuable:
/// let ua = state.adjusted_utility(2_000_000, 15.0, 0.4);
/// assert!(ua > 0.0);
/// state.on_deliver(2_000_000, 200, 15.0);
/// assert_eq!(state.q(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LyapunovState {
    cfg: LyapunovConfig,
    q: f64,
    p: f64,
    data_budget: f64,
}

impl LyapunovState {
    /// Creates fresh state with empty queues and zero data budget.
    pub fn new(cfg: LyapunovConfig) -> Self {
        Self { q: 0.0, p: cfg.initial_energy, data_budget: 0.0, cfg }
    }

    /// Current scheduling-queue backlog `Q(t)` (bytes).
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Current virtual energy queue `P(t)` (joules).
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Currently accumulated data budget `B(t)` (bytes).
    pub fn data_budget(&self) -> f64 {
        self.data_budget
    }

    /// The controller configuration.
    pub fn config(&self) -> &LyapunovConfig {
        &self.cfg
    }

    /// The Lyapunov function `L(t) = ½(Q² + (P − κ)²)`.
    pub fn lyapunov_value(&self) -> f64 {
        0.5 * (self.q * self.q + (self.p - self.cfg.kappa).powi(2))
    }

    /// The adjusted utility `Ua(i,j)` for a presentation of size-sum `s(i)`,
    /// energy cost `ρ(i,j)` and combined utility `U(i,j)` (Eq. 7).
    pub fn adjusted_utility(&self, item_total_size: u64, energy: f64, utility: f64) -> f64 {
        self.q * item_total_size as f64 + (self.p - self.cfg.kappa) * energy + self.cfg.v * utility
    }

    /// Round bookkeeping (Algorithm 2, step 2): grant `θ` bytes of data
    /// budget and add `e(t)` joules to `P(t)` **iff** `P(t) ≤ κ`.
    pub fn begin_round(&mut self, data_grant: u64, energy_grant: f64) {
        self.data_budget += data_grant as f64;
        if self.p <= self.cfg.kappa {
            self.p += energy_grant.max(0.0);
        }
    }

    /// `rounds` consecutive [`LyapunovState::begin_round`] calls with the
    /// same grants, bit for bit, in less than `rounds` steps: `B(t)` in
    /// one multiply-add while the sums stay exact, and `P(t)` by replaying
    /// the gated add only until it crosses `κ` or stops changing — after
    /// which no further round can move it.
    pub fn idle_rounds(&mut self, data_grant: u64, energy_grant: f64, rounds: u64) {
        self.data_budget = accrue(self.data_budget, data_grant, rounds);
        let e = energy_grant.max(0.0);
        let mut left = rounds;
        while left > 0 && self.p <= self.cfg.kappa {
            let next = self.p + e;
            if next.to_bits() == self.p.to_bits() {
                break;
            }
            self.p = next;
            left -= 1;
        }
    }

    /// Records arrival of an item whose presentations total
    /// `item_total_size` bytes (the `ν(t)` term of Eq. 4).
    pub fn on_enqueue(&mut self, item_total_size: u64) {
        self.q += item_total_size as f64;
    }

    /// Records delivery of an item (Algorithm 2, step 3): deduct the
    /// delivered bytes from `B(t)`, the energy from `P(t)`, and drop all of
    /// the item's presentations from `Q(t)`.
    pub fn on_deliver(&mut self, item_total_size: u64, delivered_bytes: u64, energy: f64) {
        self.data_budget = (self.data_budget - delivered_bytes as f64).max(0.0);
        self.p = (self.p - energy).max(0.0);
        self.q = (self.q - item_total_size as f64).max(0.0);
    }

    /// Drops an item from the scheduling queue without delivering it
    /// (e.g. expiry), removing its bytes from `Q(t)`.
    pub fn on_drop(&mut self, item_total_size: u64) {
        self.q = (self.q - item_total_size as f64).max(0.0);
    }
}

/// `budget += grant as f64`, `rounds` times, bit for bit.
///
/// Budgets only ever move by whole bytes, so the usual case is a whole
/// budget whose every partial sum stays at or below 2⁵³: each of those
/// adds is exact and the result is one integer multiply-add. Any other
/// budget (fractional, negative, huge — reachable only through a
/// hand-written checkpoint) replays the adds, stopping once one no longer
/// changes the value.
pub(crate) fn accrue(budget: f64, grant: u64, rounds: u64) -> f64 {
    const EXACT: u64 = 1 << 53;
    if rounds == 0 {
        return budget;
    }
    let whole = budget as u64; // saturating: negative and NaN give 0
    if whole as f64 == budget && whole < EXACT {
        let total = grant.checked_mul(rounds).and_then(|g| g.checked_add(whole));
        if let Some(total) = total.filter(|&t| t <= EXACT) {
            return total as f64;
        }
    }
    let mut b = budget;
    for _ in 0..rounds {
        let next = b + grant as f64;
        if next.to_bits() == b.to_bits() {
            break;
        }
        b = next;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TWO_53: f64 = 9_007_199_254_740_992.0;

    /// Budgets on every path of [`accrue`]: whole (the closed form), whole
    /// but within reach of 2⁵³ (the partial sums leave the exact range),
    /// fractional, beyond 2⁵³, negative.
    fn budgets() -> impl Strategy<Value = f64> {
        (0usize..5, 0u64..1 << 40, 0.0f64..1.0).prop_map(|(kind, whole, frac)| match kind {
            0 => whole as f64,
            1 => TWO_53 - (whole % 4096) as f64,
            2 => whole as f64 + frac,
            3 => TWO_53 * (1.0 + 1000.0 * frac),
            _ => -(whole as f64) * frac,
        })
    }

    fn grants() -> impl Strategy<Value = u64> {
        (0usize..4, 0u64..1 << 20).prop_map(|(kind, g)| match kind {
            0 => 0,
            1 => g % 7,
            2 => g,
            _ => (1 << 53) + (g << 30),
        })
    }

    /// `P` below, exactly at and above `κ`, for `κ = 3000`; and the signed
    /// zero a zero grant turns into `+0.0`.
    fn energy_levels() -> impl Strategy<Value = f64> {
        (0usize..5, 0.0f64..3000.0).prop_map(|(kind, x)| match kind {
            0 => x,
            1 => 3000.0,
            2 => 3000.0 + x,
            3 => -0.0,
            _ => x / 1e6,
        })
    }

    fn energy_grants() -> impl Strategy<Value = f64> {
        (0usize..5, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
            0 => -x,
            1 => 0.0,
            2 => 1e-300,
            3 => x / 100.0, // thousands of rounds to reach κ
            _ => 5000.0 * x,
        })
    }

    /// Mostly short, sometimes a million rounds.
    fn round_counts() -> impl Strategy<Value = u64> {
        (0usize..4, 0u64..=1_000_000).prop_map(|(kind, n)| match kind {
            0 => n % 4,
            1 | 2 => n % 600,
            _ => n,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn idle_rounds_is_begin_round_repeated_bit_for_bit(
            data_budget in budgets(),
            grant in grants(),
            p in energy_levels(),
            e in energy_grants(),
            n in round_counts(),
        ) {
            let mut fast =
                LyapunovState { cfg: LyapunovConfig::paper_default(), q: 0.0, p, data_budget };
            let mut slow = fast.clone();
            fast.idle_rounds(grant, e, n);
            for _ in 0..n {
                slow.begin_round(grant, e);
            }
            prop_assert_eq!(fast.data_budget.to_bits(), slow.data_budget.to_bits());
            prop_assert_eq!(fast.p.to_bits(), slow.p.to_bits());
            prop_assert_eq!(fast.q.to_bits(), slow.q.to_bits());
        }
    }

    #[test]
    fn idle_rounds_at_the_edges_of_the_closed_form() {
        // (budget, grant, rounds): the last exact sum, the first inexact
        // one, a signed zero that must survive zero rounds, and a grant
        // whose product overflows u64.
        for (budget, grant, rounds) in [
            (TWO_53 - 10.0, 5, 2),
            (TWO_53 - 10.0, 5, 3),
            (TWO_53 - 1.0, 1, 40),
            (-0.0, 0, 0),
            (-0.0, 0, 3),
            (7.0, u64::MAX, 9),
            (0.5, 3, 1000),
        ] {
            let mut slow = budget;
            for _ in 0..rounds {
                slow += grant as f64;
            }
            assert_eq!(
                accrue(budget, grant, rounds).to_bits(),
                slow.to_bits(),
                "budget {budget} grant {grant} rounds {rounds}"
            );
        }
    }

    fn state() -> LyapunovState {
        LyapunovState::new(LyapunovConfig::paper_default())
    }

    #[test]
    fn paper_defaults_match_constants() {
        let cfg = LyapunovConfig::paper_default();
        assert_eq!(cfg.v, 1000.0);
        assert_eq!(cfg.kappa, 3000.0);
    }

    #[test]
    fn new_state_is_empty() {
        let s = state();
        assert_eq!(s.q(), 0.0);
        assert_eq!(s.data_budget(), 0.0);
        assert_eq!(s.p(), 3000.0);
    }

    #[test]
    fn enqueue_and_deliver_balance_q() {
        let mut s = state();
        s.on_enqueue(1_000);
        s.on_enqueue(2_000);
        assert_eq!(s.q(), 3_000.0);
        s.on_deliver(1_000, 400, 10.0);
        assert_eq!(s.q(), 2_000.0);
        s.on_drop(2_000);
        assert_eq!(s.q(), 0.0);
    }

    #[test]
    fn q_never_goes_negative() {
        let mut s = state();
        s.on_enqueue(100);
        s.on_deliver(500, 0, 0.0);
        assert_eq!(s.q(), 0.0);
    }

    #[test]
    fn energy_replenish_gated_by_kappa() {
        let mut s = state();
        // P(0) = κ, so the gate (P ≤ κ) is open.
        s.begin_round(0, 500.0);
        assert_eq!(s.p(), 3500.0);
        // Now P > κ: further grants are ignored.
        s.begin_round(0, 500.0);
        assert_eq!(s.p(), 3500.0);
        // Spend energy below κ and the gate reopens.
        s.on_deliver(0, 0, 1000.0);
        assert_eq!(s.p(), 2500.0);
        s.begin_round(0, 500.0);
        assert_eq!(s.p(), 3000.0);
    }

    #[test]
    fn negative_energy_grants_are_ignored() {
        let mut s = state();
        s.begin_round(0, -100.0);
        assert_eq!(s.p(), 3000.0);
    }

    #[test]
    fn data_budget_rolls_over() {
        let mut s = state();
        s.begin_round(1_000, 0.0);
        s.begin_round(1_000, 0.0);
        assert_eq!(s.data_budget(), 2_000.0);
        s.on_deliver(10, 500, 0.0);
        assert_eq!(s.data_budget(), 1_500.0);
    }

    #[test]
    fn adjusted_utility_follows_eq7() {
        let mut s = state();
        s.on_enqueue(1_000);
        // Q = 1000, P = 3000 = κ, V = 1000.
        let ua = s.adjusted_utility(1_000, 50.0, 0.2);
        assert!((ua - (1_000.0 * 1_000.0 + 0.0 * 50.0 + 1_000.0 * 0.2)).abs() < 1e-9);
        // Deplete energy: the (P − κ) term penalizes energy-hungry levels.
        s.on_deliver(0, 0, 2_000.0);
        let ua2 = s.adjusted_utility(1_000, 50.0, 0.2);
        assert!(ua2 < ua);
        assert!((ua2 - (1_000_000.0 - 2_000.0 * 50.0 + 200.0)).abs() < 1e-9);
    }

    #[test]
    fn lyapunov_value_is_half_sum_of_squares() {
        let mut s = state();
        s.on_enqueue(10);
        // Q = 10, P − κ = 0.
        assert!((s.lyapunov_value() - 50.0).abs() < 1e-12);
        s.on_deliver(0, 0, 1_000.0);
        // P − κ = −1000.
        assert!((s.lyapunov_value() - (50.0 + 500_000.0)).abs() < 1e-9);
    }

    #[test]
    fn delivering_backlog_reduces_the_lyapunov_drift() {
        // The theoretical backbone of Sec. IV: with a large backlog,
        // delivering items strictly reduces L(t+1) − L(t) compared to
        // idling, which is why drift minimization implies queue stability.
        let mut idle = state();
        let mut active = state();
        for s in [50_000u64, 80_000, 20_000] {
            idle.on_enqueue(s);
            active.on_enqueue(s);
        }
        let l0 = idle.lyapunov_value();

        // One round: both receive the same grants and arrivals; only the
        // active scheduler delivers.
        idle.begin_round(10_000, 0.0);
        active.begin_round(10_000, 0.0);
        idle.on_enqueue(5_000);
        active.on_enqueue(5_000);
        active.on_deliver(80_000, 40_000, 100.0);

        let drift_idle = idle.lyapunov_value() - l0;
        let drift_active = active.lyapunov_value() - l0;
        assert!(
            drift_active < drift_idle,
            "delivery must shrink the drift: {drift_active} vs {drift_idle}"
        );
    }

    #[test]
    fn larger_v_weights_utility_more() {
        let mut hi =
            LyapunovState::new(LyapunovConfig { v: 10_000.0, ..LyapunovConfig::paper_default() });
        let mut lo =
            LyapunovState::new(LyapunovConfig { v: 10.0, ..LyapunovConfig::paper_default() });
        hi.on_enqueue(100);
        lo.on_enqueue(100);
        let d_hi = hi.adjusted_utility(100, 0.0, 1.0) - hi.adjusted_utility(100, 0.0, 0.0);
        let d_lo = lo.adjusted_utility(100, 0.0, 1.0) - lo.adjusted_utility(100, 0.0, 0.0);
        assert!(d_hi > d_lo);
    }
}
