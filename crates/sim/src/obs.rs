//! Bridge from the simulator's paper-metric accumulators to the shared
//! `richnote-obs` vocabulary.
//!
//! The paper-figure structs in [`crate::metrics`] stay — delivery ratio,
//! precision/recall and the level mix are evaluation quantities a
//! counters-and-gauges registry cannot express. What this module removes
//! is the *second vocabulary*: every operational quantity the simulator
//! shares with the daemon (publications, deliveries, bytes, rounds,
//! backlog, queuing-delay distribution) is exported under the exact
//! metric families the daemon serves on `/metrics`, labeled
//! `shard="sim"`, so dashboards and scrape-side tooling work unchanged
//! against either producer. Everything exported is virtual-time
//! deterministic: same trace + same seed → byte-identical exposition.

use crate::metrics::AggregateMetrics;
use richnote_core::quality::{
    DELIVERED_BYTES_FAMILY, DELIVERED_BYTES_HELP, SUPPRESSED_FAMILY, SUPPRESSED_HELP,
    UTILITY_FAMILY, UTILITY_HELP,
};
use richnote_obs::{encode_text, Registry, RegistrySnapshot};

/// Exports one finished run into the shared registry vocabulary.
///
/// `rounds` is the simulated horizon ([`crate::SimulationConfig::rounds`]);
/// it is not recoverable from the aggregate itself.
pub fn export_registry(agg: &AggregateMetrics, rounds: u64) -> RegistrySnapshot {
    let mut r = Registry::new();
    let labels = [("shard", "sim")];
    let pubs = r.counter("richnote_pubs_total", "Publications ingested", &labels);
    let selected = r.counter("richnote_selected_total", "Notifications delivered", &labels);
    let rounds_h = r.counter("richnote_rounds_total", "Selection rounds run", &labels);
    let bytes = r.counter("richnote_bytes_spent_total", "Bytes delivered to devices", &labels);
    let users = r.gauge("richnote_users", "Users with scheduler state", &labels);
    let backlog = r.gauge("richnote_backlog", "Notifications queued, pending selection", &labels);
    let delay = r.histogram(
        "richnote_selection_latency_us",
        "Ingest-to-selection latency (virtual time for the simulator)",
        &labels,
    );
    r.set_counter(pubs, agg.arrived as u64);
    r.set_counter(selected, agg.delivered as u64);
    r.set_counter(rounds_h, rounds);
    r.set_counter(bytes, agg.bytes_delivered);
    r.set_gauge(users, agg.users as f64);
    r.set_gauge(backlog, agg.final_backlog as f64);
    r.merge_histogram(delay, &agg.delay_histogram);
    // Delivery-quality cohorts, under the exact family names, help
    // strings, and label order the daemon's shards export — so a
    // dashboard keyed on `richnote_utility_total` reads either producer.
    let policy = agg.quality.policy();
    if !policy.is_empty() {
        for cell in agg.quality.cells() {
            let lv = usize::from(cell.level).to_string();
            let labels = [
                ("connectivity", cell.connectivity.as_str()),
                ("level", lv.as_str()),
                ("policy", policy),
                ("shard", "sim"),
            ];
            let u = r.gauge(UTILITY_FAMILY, UTILITY_HELP, &labels);
            r.set_gauge(u, cell.utility);
            let b = r.counter(DELIVERED_BYTES_FAMILY, DELIVERED_BYTES_HELP, &labels);
            r.set_counter(b, cell.bytes);
        }
        for (cohort, count) in agg.quality.suppressed_cells() {
            let labels = [("connectivity", cohort.as_str()), ("policy", policy), ("shard", "sim")];
            let s = r.counter(SUPPRESSED_FAMILY, SUPPRESSED_HELP, &labels);
            r.set_counter(s, count);
        }
    }
    r.snapshot()
}

/// The run as Prometheus text exposition — the same format the daemon
/// serves on `--metrics-addr`.
pub fn exposition(agg: &AggregateMetrics, rounds: u64) -> String {
    encode_text(&export_registry(agg, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{constant_utility, PopulationSim, SimulationConfig};
    use richnote_trace::generator::{TraceConfig, TraceGenerator};
    use std::sync::Arc;

    #[test]
    fn export_matches_the_aggregate_and_uses_shared_names() {
        let trace = Arc::new(TraceGenerator::new(TraceConfig::small(3)).generate());
        let users = trace.top_users(8);
        let cfg = SimulationConfig { rounds: 48, ..SimulationConfig::default() };
        let sim = PopulationSim::new(trace, constant_utility(0.6), cfg);
        let (agg, _) = sim.run(&users);
        assert!(agg.delivered > 0);

        let snap = export_registry(&agg, 48);
        assert_eq!(snap.counter_total("richnote_pubs_total"), agg.arrived as u64);
        assert_eq!(snap.counter_total("richnote_selected_total"), agg.delivered as u64);
        assert_eq!(snap.counter_total("richnote_rounds_total"), 48);
        assert_eq!(snap.counter_total("richnote_bytes_spent_total"), agg.bytes_delivered);
        let hist = snap.histogram_merged("richnote_selection_latency_us");
        assert_eq!(hist.count(), agg.delivered as u64, "one delay sample per delivery");

        let text = exposition(&agg, 48);
        assert!(text.contains("richnote_pubs_total{shard=\"sim\"}"));
        assert!(text.contains("richnote_selection_latency_us_count{shard=\"sim\"}"));
    }

    #[test]
    fn export_carries_quality_cohorts_under_daemon_names() {
        let trace = Arc::new(TraceGenerator::new(TraceConfig::small(7)).generate());
        let users = trace.top_users(8);
        // Markov connectivity so real cell/wifi cohorts appear, unlike the
        // daemon whose round contexts carry no network signal.
        let cfg = SimulationConfig {
            rounds: 48,
            network: crate::simulator::NetworkKind::Markov,
            ..SimulationConfig::default()
        };
        let sim = PopulationSim::new(trace, constant_utility(0.6), cfg);
        let (agg, _) = sim.run(&users);
        assert!(agg.delivered > 0);
        assert!(!agg.quality.is_empty(), "deliveries must feed the ledger");
        assert!(
            (agg.quality.total_utility() - agg.total_utility).abs() < 1e-9,
            "ledger utility {} must equal the aggregate's {}",
            agg.quality.total_utility(),
            agg.total_utility
        );
        assert_eq!(agg.quality.total_bytes(), agg.bytes_delivered);
        assert!(agg.utility_per_mb().expect("bytes were delivered") > 0.0);

        let snap = export_registry(&agg, 48);
        let family = snap.family("richnote_utility_total").expect("utility family exported");
        assert!(!family.series.is_empty());
        let text = exposition(&agg, 48);
        assert!(
            text.contains("richnote_utility_total{connectivity=\"cell\"")
                || text.contains("richnote_utility_total{connectivity=\"wifi\""),
            "sim cohorts must carry real connectivity states:\n{text}"
        );
        assert!(text.contains("policy=\"RichNote\",shard=\"sim\"}"), "label order must match");
        assert!(text.contains("richnote_delivered_bytes_total{connectivity="));
    }

    #[test]
    fn same_seed_quality_exposition_is_byte_identical() {
        let trace = Arc::new(TraceGenerator::new(TraceConfig::small(7)).generate());
        let users = trace.top_users(8);
        let cfg = SimulationConfig {
            rounds: 48,
            network: crate::simulator::NetworkKind::Markov,
            ..SimulationConfig::default()
        };
        let sim = PopulationSim::new(trace, constant_utility(0.6), cfg);
        let (a, _) = sim.run(&users);
        let (b, _) = sim.run(&users);
        assert!(!a.quality.is_empty());
        assert_eq!(a.quality, b.quality, "same-seed runs must fill identical ledgers");
        assert_eq!(
            exposition(&a, 48),
            exposition(&b, 48),
            "same-seed analytics exposition must be byte-identical"
        );
    }

    #[test]
    fn exposition_is_deterministic_across_runs() {
        let trace = Arc::new(TraceGenerator::new(TraceConfig::small(5)).generate());
        let users = trace.top_users(6);
        let cfg = SimulationConfig { rounds: 24, ..SimulationConfig::default() };
        let sim = PopulationSim::new(trace, constant_utility(0.5), cfg);
        let (a, _) = sim.run(&users);
        let (b, _) = sim.run(&users);
        assert_eq!(exposition(&a, 24), exposition(&b, 24));
    }
}
