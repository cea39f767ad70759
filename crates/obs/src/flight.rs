//! The flight recorder: a bounded [`Ring`] of complete span trees kept for
//! post-mortems.
//!
//! Each shard retains the last [`FLIGHT_CAPACITY`] span trees it flushed
//! (plus every anomalous tree that bypassed sampling). The daemon shares
//! each shard's ring between the worker that fills it and the server that
//! reads it, so a dead worker's last trees stay readable: the `Flight`
//! view and every incident bundle's `flights` section cut the rings
//! directly. Cuts are non-destructive, so a poller like `richnote-top`
//! does not race the post-mortem path.

use crate::ring::Ring;
use crate::span::SpanTree;
use serde::{Deserialize, Serialize};

/// Span trees a shard's flight recorder retains (the recorder is on
/// exactly when tracing is): enough recent history for a post-mortem,
/// small enough to copy into an incident bundle.
pub const FLIGHT_CAPACITY: usize = 64;

/// A serialized cut of one shard's flight recorder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Shard the recorder belongs to.
    pub shard: usize,
    /// Why the cut was taken: `request` for a `Flight` read, the
    /// incident's trigger inside a bundle.
    pub reason: String,
    /// Retained span trees, oldest first.
    pub trees: Vec<SpanTree>,
    /// Trees evicted from the ring since it was created.
    pub dropped: u64,
}

impl FlightDump {
    /// A non-destructive cut of `ring` for `shard` with the given `reason`.
    pub fn cut(ring: &Ring<SpanTree>, shard: usize, reason: &str) -> FlightDump {
        FlightDump {
            shard,
            reason: reason.to_string(),
            trees: ring.iter().cloned().collect(),
            dropped: ring.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecord;

    fn tree(trace: u64) -> SpanTree {
        SpanTree::assemble(&[
            SpanRecord::publish(trace, 1, 42),
            SpanRecord::queued(trace, 0, 0, 5, 42),
        ])
        .pop()
        .expect("one tree")
    }

    #[test]
    fn cut_is_non_destructive() {
        let mut r = Ring::new(2);
        for t in 1..=4 {
            r.push(tree(t));
        }
        let dump = FlightDump::cut(&r, 3, "shard_panic");
        assert_eq!((dump.shard, dump.reason.as_str(), dump.dropped), (3, "shard_panic", 2));
        assert_eq!(dump.trees.iter().map(|t| t.trace).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(r.iter().count(), 2, "reads are non-destructive");
        assert_eq!(FlightDump::cut(&r, 3, "shard_panic"), dump, "a second cut sees the same trees");
    }
}
