//! Integration test for the counting global allocator: this test binary
//! installs [`CountingAlloc`] for real (the unit tests cannot — a global
//! allocator is a link-time choice), checks that per-thread counters move
//! and stay per-thread, and that exported counts round-trip through the
//! registry's snapshot/serialize/merge pipeline without double-counting.

use richnote_obs::rsrc::{alloc_counts, set_alloc_counting, CountingAlloc};
use richnote_obs::{Registry, RegistrySnapshot};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The gate test flips process-global counting; serialize the tests so
/// the flip cannot race the other test's measurements.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Allocates deliberately and returns the observed per-thread delta.
fn burn_allocations(bytes: usize) -> richnote_obs::AllocCounts {
    let before = alloc_counts();
    let v: Vec<u8> = std::hint::black_box(vec![7u8; bytes]);
    drop(v);
    alloc_counts().since(before)
}

#[test]
fn counting_allocator_round_trips_through_registry_merge() {
    let _gate = GATE.lock().unwrap();
    let d = burn_allocations(64 * 1024);
    assert!(d.allocs >= 1, "vec allocation not counted");
    assert!(d.bytes >= 64 * 1024, "vec bytes not counted: {}", d.bytes);
    assert!(richnote_obs::rsrc::alloc_counting_active());

    // Another thread's allocations must not land on this thread's
    // counters (per-thread attribution is the whole point).
    let before = alloc_counts();
    std::thread::spawn(|| {
        let other = burn_allocations(1024 * 1024);
        assert!(other.allocs >= 1, "spawned thread's own counters move");
    })
    .join()
    .unwrap();
    let cross = alloc_counts().since(before);
    assert!(
        cross.bytes < 1024 * 1024,
        "cross-thread allocation attributed to this thread: {} bytes",
        cross.bytes
    );

    // Export the way shards do — absolute per-thread readings as
    // per-shard counters — then snapshot, serialize, merge. The merged
    // total must be the exact sum of the shard series, once.
    let mut shard0 = Registry::new();
    let c0 = shard0.counter("richnote_allocs_total", "allocs", &[("shard", "0")]);
    let b0 = shard0.counter("richnote_alloc_bytes_total", "bytes", &[("shard", "0")]);
    shard0.set_counter(c0, d.allocs);
    shard0.set_counter(b0, d.bytes);
    let mut shard1 = Registry::new();
    let c1 = shard1.counter("richnote_allocs_total", "allocs", &[("shard", "1")]);
    let b1 = shard1.counter("richnote_alloc_bytes_total", "bytes", &[("shard", "1")]);
    shard1.set_counter(c1, 2 * d.allocs);
    shard1.set_counter(b1, 2 * d.bytes);

    let wire = serde_json::to_string(&shard0.snapshot()).unwrap();
    let mut merged: RegistrySnapshot = serde_json::from_str(&wire).unwrap();
    merged.merge(&shard1.snapshot());
    assert_eq!(merged.counter_total("richnote_allocs_total"), 3 * d.allocs);
    assert_eq!(merged.counter_total("richnote_alloc_bytes_total"), 3 * d.bytes);
    // Same-label re-merge is the double-counting hazard: merging shard 0
    // again must add, visibly, not silently dedupe — callers merge each
    // shard exactly once, so totals stay exact.
    merged.merge(&shard0.snapshot());
    assert_eq!(merged.counter_total("richnote_allocs_total"), 4 * d.allocs);
}

#[test]
fn counting_gate_stops_the_counters() {
    let _gate = GATE.lock().unwrap();
    // The runtime gate is what overhead A/B runs flip: with counting off
    // the wrapper is a pass-through and the counters freeze.
    let warm = burn_allocations(32 * 1024);
    assert!(warm.allocs >= 1);
    set_alloc_counting(false);
    let frozen = burn_allocations(32 * 1024);
    set_alloc_counting(true);
    assert_eq!(frozen.allocs, 0, "counters moved while counting was off");
    let thawed = burn_allocations(32 * 1024);
    assert!(thawed.allocs >= 1, "counters resumed after re-enable");
}

#[test]
fn looking_up_an_existing_series_allocates_nothing() {
    let _gate = GATE.lock().unwrap();
    let labels = [("connectivity", "wifi"), ("level", "3"), ("policy", "RichNote"), ("shard", "0")];
    let mut reg = Registry::new();
    let g = reg.gauge("richnote_utility_total", "utility", &labels);
    let c = reg.counter("richnote_delivered_bytes_total", "bytes", &labels);
    let before = alloc_counts();
    let g_again = reg.gauge("richnote_utility_total", "utility", &labels);
    let c_again = reg.counter("richnote_delivered_bytes_total", "bytes", &labels);
    let d = alloc_counts().since(before);
    assert_eq!((g_again, c_again), (g, c), "a lookup returns the registered handles");
    assert_eq!(d.allocs, 0, "re-registering an existing series allocated {} times", d.allocs);
}
