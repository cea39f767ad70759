//! Deterministic fault injection for the delivery daemon.
//!
//! A [`FaultPlan`] rides inside [`crate::ServerConfig`] and describes which
//! failures the daemon should inject into itself: connection resets after
//! reading a frame, short (slow) socket reads, a shard-worker panic at a
//! chosen round, and checkpoint-write failures. All randomness comes from a
//! seeded [`FaultRng`] so every failure schedule is reproducible — the
//! integration tests rely on replaying the exact same faults.
//!
//! The plan is inert by default ([`FaultPlan::none`]); production configs
//! simply never set it.

use serde::{Deserialize, Serialize};
use std::io::{self, Read};

/// A tiny xorshift64* PRNG for fault schedules and retry jitter.
///
/// Not suitable for anything cryptographic; chosen because it is seedable,
/// has no dependencies, and produces identical streams on every platform.
#[derive(Debug, Clone)]
pub struct FaultRng(u64);

impl FaultRng {
    /// Creates a generator from `seed` (zero is mapped to a fixed odd
    /// constant; xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        FaultRng(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of the raw output.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Panic a specific shard worker when it is about to run a specific round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPanicFault {
    /// Shard index to kill.
    pub shard: usize,
    /// The round index whose execution triggers the panic (the worker dies
    /// *before* running it, i.e. mid-tick from the client's view).
    pub round: u64,
}

/// Which failures the daemon injects into itself. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that the connection is reset immediately
    /// after a frame is read (the client sees an abrupt close with no
    /// response — exactly what a dropped mobile link looks like).
    pub conn_reset_per_frame: f64,
    /// When nonzero, socket reads return at most this many bytes per call,
    /// simulating slow/fragmented links and exercising `read_exact`
    /// reassembly of partial frames.
    pub short_read_limit: usize,
    /// Panic one shard worker at a chosen round.
    pub shard_panic: Option<ShardPanicFault>,
    /// When nonzero, every k-th checkpoint write fails with an I/O error.
    pub checkpoint_fail_every: u64,
    /// Seed for the per-connection fault schedules.
    pub seed: u64,
}

impl FaultPlan {
    /// The inert plan: nothing is ever injected.
    pub fn none() -> Self {
        FaultPlan {
            conn_reset_per_frame: 0.0,
            short_read_limit: 0,
            shard_panic: None,
            checkpoint_fail_every: 0,
            seed: 0,
        }
    }

    /// Whether every probability is inside `[0, 1]` (and not NaN);
    /// [`crate::ServerConfig::validate`] maps a `false` to
    /// [`crate::ConfigError::BadFaultRate`].
    pub fn is_valid(&self) -> bool {
        (0.0..=1.0).contains(&self.conn_reset_per_frame)
    }

    /// Parses a CLI fault spec: comma-separated `key=value` pairs among
    /// `reset=P`, `short-read=N`, `panic=SHARD@ROUND`, `ckfail=K`,
    /// `seed=S`. An empty spec yields [`FaultPlan::none`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed pair.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{pair}` is not key=value"))?;
            match key.trim() {
                "reset" => {
                    plan.conn_reset_per_frame =
                        value.parse().map_err(|_| format!("bad reset probability `{value}`"))?;
                }
                "short-read" => {
                    plan.short_read_limit =
                        value.parse().map_err(|_| format!("bad short-read limit `{value}`"))?;
                }
                "panic" => {
                    let (shard, round) = value
                        .split_once('@')
                        .ok_or_else(|| format!("bad panic spec `{value}` (want SHARD@ROUND)"))?;
                    plan.shard_panic = Some(ShardPanicFault {
                        shard: shard.parse().map_err(|_| format!("bad shard `{shard}`"))?,
                        round: round.parse().map_err(|_| format!("bad round `{round}`"))?,
                    });
                }
                "ckfail" => {
                    plan.checkpoint_fail_every =
                        value.parse().map_err(|_| format!("bad ckfail interval `{value}`"))?;
                }
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The fault schedule for connection number `conn`: deterministic given
    /// the plan seed and the connection's accept index.
    pub fn connection_faults(&self, conn: u64) -> ConnectionFaults {
        ConnectionFaults {
            reset_per_frame: self.conn_reset_per_frame,
            rng: FaultRng::new(self.seed ^ conn.wrapping_mul(0xA24B_AED4_963E_E407)),
        }
    }

    /// Whether shard `shard` must panic before executing round `round`.
    pub fn should_panic(&self, shard: usize, round: u64) -> bool {
        self.shard_panic.is_some_and(|p| p.shard == shard && p.round == round)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Per-connection fault state derived from a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct ConnectionFaults {
    reset_per_frame: f64,
    rng: FaultRng,
}

impl ConnectionFaults {
    /// Rolls the dice after one frame was read: `true` means "reset the
    /// connection now".
    pub fn reset_now(&mut self) -> bool {
        self.reset_per_frame > 0.0 && self.rng.next_f64() < self.reset_per_frame
    }
}

/// A reader that returns at most `limit` bytes per `read` call, used to
/// inject short/slow reads without touching socket options.
pub struct ShortReader<R> {
    inner: R,
    limit: usize,
}

impl<R: Read> ShortReader<R> {
    /// Wraps `inner`, clamping each read to `limit` bytes (`limit` must be
    /// nonzero; zero-byte reads would spin forever).
    pub fn new(inner: R, limit: usize) -> Self {
        assert!(limit > 0, "short-read limit must be nonzero");
        ShortReader { inner, limit }
    }
}

impl<R: Read> Read for ShortReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.limit);
        self.inner.read(&mut buf[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_uniformish() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let seq: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(seq, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        let mut c = FaultRng::new(43);
        assert_ne!(seq[0], c.next_u64(), "different seeds must diverge");
        let mut r = FaultRng::new(7);
        let mean: f64 = (0..10_000).map(|_| r.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("reset=0.05,short-read=7,panic=1@3,ckfail=2,seed=9").unwrap();
        assert_eq!(plan.conn_reset_per_frame, 0.05);
        assert_eq!(plan.short_read_limit, 7);
        assert_eq!(plan.shard_panic, Some(ShardPanicFault { shard: 1, round: 3 }));
        assert_eq!(plan.checkpoint_fail_every, 2);
        assert_eq!(plan.seed, 9);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("reset").is_err());
        assert!(FaultPlan::parse("panic=3").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
    }

    #[test]
    fn connection_faults_reproduce() {
        let plan = FaultPlan { conn_reset_per_frame: 0.5, seed: 11, ..FaultPlan::none() };
        let seq = |mut f: ConnectionFaults| (0..32).map(|_| f.reset_now()).collect::<Vec<_>>();
        assert_eq!(seq(plan.connection_faults(3)), seq(plan.connection_faults(3)));
        assert_ne!(seq(plan.connection_faults(3)), seq(plan.connection_faults(4)));
        assert!(seq(plan.connection_faults(3)).iter().any(|&r| r), "0.5 rate must fire");
    }

    #[test]
    fn shard_panic_matching() {
        let plan = FaultPlan {
            shard_panic: Some(ShardPanicFault { shard: 1, round: 5 }),
            ..FaultPlan::none()
        };
        assert!(plan.should_panic(1, 5));
        assert!(!plan.should_panic(0, 5));
        assert!(!plan.should_panic(1, 4));
        assert!(!FaultPlan::none().should_panic(0, 0));
    }

    #[test]
    fn short_reader_fragments_but_preserves_bytes() {
        let data: Vec<u8> = (0..100u8).collect();
        let mut r = ShortReader::new(&data[..], 7);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        let mut r = ShortReader::new(&data[..], 7);
        let mut buf = [0u8; 64];
        assert_eq!(r.read(&mut buf).unwrap(), 7, "reads are clamped to the limit");
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::parse("reset=0.1,panic=0@2,seed=5").unwrap();
        let s = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(plan, back);
    }
}
