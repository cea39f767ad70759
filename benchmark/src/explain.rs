//! Turns a traced run into per-layer figures: the daemon's own stage timers
//! and counters, span self-time shares, and `--explain` — the ledger's cost
//! per operation times how often the run crossed each layer, summed and set
//! against the process CPU the region actually used.

use crate::layers::Ledger;
use crate::spans;
use crate::workloads::Outcome;
use richnote_server::RegistrySnapshot;
use std::collections::BTreeMap;

/// CPU seconds the ledger accounts for, by layer group, in print order.
pub fn attribution(out: &Outcome, ledger: &Ledger) -> Vec<(&'static str, f64)> {
    let c = &out.counts;
    let ns = |name: &str| ledger.get(name) * 1e-9;
    let snap = out.server.as_ref();
    let ack_batches = snap.map_or(0, |s| s.counter_total("richnote_ack_batches_total")) as f64;
    let pubs = (c.binary_publishes + c.json_publishes) as f64;
    let json_share = c.json_publishes as f64 / pubs.max(1.0);
    let shards = crate::host::lanes() as f64;

    // Each publish is encoded by the client and decoded by the daemon; each
    // cumulative ack is written and read once; reports are encoded once.
    let codec = c.binary_publishes as f64
        * (ns("codec.binary.encode_publish_ns") + ns("codec.binary.decode_publish_ns"))
        + c.json_publishes as f64
            * (ns("codec.json.encode_publish_ns") + ns("codec.json.decode_publish_ns"))
        + ack_batches
            * (json_share * ns("codec.json.puback_ns")
                + (1.0 - json_share) * ns("codec.binary.puback_ns"))
        + c.report_deliveries as f64 / 1_000.0 * ns("codec.binary.encode_tickreport_ns");
    // `apply_publish` covers dedup, broker match and the queue push; the
    // queue's own line is the consumer's half of a push+pop pair.
    let router = pubs * ns("router.apply_publish_ns");
    let queue = pubs * ns("queue.push_pop_ns") / 2.0;
    let ingest = pubs * ns("shard.ingest_ns");
    let rounds = c.user_rounds as f64 * ns("shard.round_idle_ns_per_user")
        + c.selected as f64 * ns("shard.round_active_ns_per_item");
    // The ledger checkpoints 20000 users; a checkpoint scales with its users.
    let checkpoint = c.checkpoints as f64
        * (ledger.get("checkpoint.save_ms") * 1e-3 + 20_000.0 * ns("shard.checkpoint_ns_per_user"))
        * (c.checkpoint_users as f64 / 20_000.0);
    // Per tick: one merged stats cut (a registry snapshot per shard plus the
    // server's), one history record, one alert evaluation.
    let obs = c.ticks as f64
        * (ns("obs.history_record_ns")
            + ns("obs.alert_eval_ns")
            + (shards + 1.0) * ns("obs.registry_snapshot_ns"));
    let sim = c.sim_user_weeks * ledger.get("sim.user_week_us") * 1e-6;
    vec![
        ("codec", codec),
        ("router", router),
        ("queue", queue),
        ("ingest", ingest),
        ("rounds", rounds),
        ("checkpoint", checkpoint),
        ("obs", obs),
        ("sim", sim),
    ]
}

/// The `--explain` table: attributed CPU per layer group, their sum, the
/// measured process CPU and the unattributed remainder as a share.
pub fn explain_table(workload: &str, out: &Outcome, ledger: &Ledger) -> String {
    use std::fmt::Write;
    let parts = attribution(out, ledger);
    let total: f64 = parts.iter().map(|(_, s)| s).sum();
    let cpu = out.region_cpu_s.max(1e-9);
    let mut s =
        format!("explain {workload}: ledger cost x crossings against measured process CPU\n");
    for (name, secs) in &parts {
        writeln!(s, "  {name:<12} {secs:>9.3} s  {:>6.1}%", secs / cpu * 100.0).expect("write");
    }
    writeln!(s, "  {:<12} {total:>9.3} s  {:>6.1}%", "attributed", total / cpu * 100.0)
        .expect("write");
    writeln!(
        s,
        "  {:<12} {cpu:>9.3} s  process CPU over {:.2} s of wall time",
        "measured", out.region_wall_s
    )
    .expect("write");
    writeln!(
        s,
        "  {:<12} {:>9.3} s  {:>6.1}%  (syscalls and TCP, client bookkeeping, thread wake-ups, \
         the generator itself, and whatever the isolated loops flatter)",
        "unattributed",
        cpu - total,
        (1.0 - total / cpu) * 100.0
    )
    .expect("write");
    s
}

fn stage_mean_us(snap: &RegistrySnapshot, stage: &str) -> f64 {
    snap.histogram_merged_where("richnote_stage_duration_us", "stage", stage).mean_us()
}

/// Span names folded into the per-layer `span.self_share.*` metrics.
fn span_group(name: &str) -> &'static str {
    match name {
        "publish" | "publish_chunk" | "publish_batch" => "publish",
        "sync" => "sync",
        "tick" => "tick",
        "tick_report" => "tick_report",
        "checkpoint" => "checkpoint",
        "PopulationSim::run" => "sim_run",
        // Enclosing spans: their self time is the generator's own work.
        _ => "generator",
    }
}

/// Every per-layer metric of a traced run, by name. Names the run has no
/// reading for (a bypassed layer) are simply absent and read as 0.
pub fn per_layer_values(out: &Outcome, ledger: &Ledger) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    for (name, value) in &ledger.values {
        v.insert((*name).to_string(), *value);
    }
    for (name, value) in &out.detail {
        v.insert(name.clone(), *value);
    }
    if let Some(snap) = &out.server {
        let pubs = snap.counter_total("richnote_pubs_total").max(1) as f64;
        let shed = snap.counter_total("richnote_queue_dropped_total") as f64;
        // Every ingest is one push and one pop on a shard queue.
        let contended = snap.counter_total("richnote_queue_contended_total") as f64;
        v.insert("queue.contended_share".into(), contended / (2.0 * (pubs + shed)));
        v.insert("queue.shed_share".into(), shed / (pubs + shed));
        for stage in ["dequeue", "match", "select", "serialize", "ack"] {
            v.insert(format!("server.stage_mean_us.{stage}"), stage_mean_us(snap, stage));
        }
        let rounds = snap.histogram_merged("richnote_round_duration_us");
        v.insert("server.round_duration_us.p50".into(), rounds.quantile_us(0.50) as f64);
        let round_cpu_us =
            crate::daemon::round_cpu_us(snap).saturating_sub(out.round_cpu_us_before);
        v.insert(
            "server.round_cpu_share".into(),
            round_cpu_us as f64 / 1e6 / out.region_cpu_s.max(1e-9),
        );
        let batches = snap.counter_total("richnote_ack_batches_total").max(1) as f64;
        v.insert("server.pubs_per_ack_batch".into(), pubs / batches);
        v.insert(
            "server.allocs_per_pub".into(),
            snap.counter_total("richnote_allocs_total") as f64 / pubs,
        );
    }
    let mut totals = BTreeMap::new();
    for thread in &out.spans {
        spans::merge_totals(&mut totals, spans::totals_by_name(thread));
    }
    let traced_ns: u64 = totals.values().map(|t| t.self_ns).sum();
    for (name, t) in &totals {
        let key = format!("span.self_share.{}", span_group(name));
        *v.entry(key).or_default() += t.self_ns as f64 / traced_ns.max(1) as f64;
    }
    let cpu = out.region_cpu_s.max(1e-9);
    let parts = attribution(out, ledger);
    let attributed: f64 = parts.iter().map(|(_, s)| s).sum();
    for (name, secs) in parts {
        v.insert(format!("explain.{name}_share"), secs / cpu);
    }
    v.insert("explain.unattributed_share".into(), 1.0 - attributed / cpu);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;
    use crate::spans::Span;

    #[test]
    fn every_value_a_traced_run_produces_is_a_defined_per_layer_metric() {
        let mut out = Outcome { region_cpu_s: 2.0, region_wall_s: 1.5, ..Outcome::default() };
        out.counts.binary_publishes = 1_000_000;
        let span = |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, op: 0 };
        out.spans.push(vec![
            span("cycle", 0, 100, None),
            span("publish_batch", 5, 65, Some(0)),
            span("tick", 65, 95, Some(0)),
        ]);
        out.detail.insert("trace_overhead_share".into(), 0.01);
        out.server = Some(RegistrySnapshot::default());
        let mut ledger = Ledger::default();
        ledger.values.insert("codec.binary.encode_publish_ns", 100.0);
        ledger.values.insert("codec.binary.decode_publish_ns", 300.0);
        ledger.values.insert("router.apply_publish_ns", 600.0);

        let values = per_layer_values(&out, &ledger);
        for name in values.keys() {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} is not in PER_LAYER");
        }
        // 1e6 x (100 + 300) ns = 0.4 s of 2 s; router 0.6 s of 2 s.
        assert!((values["explain.codec_share"] - 0.2).abs() < 1e-12);
        assert!((values["explain.router_share"] - 0.3).abs() < 1e-12);
        assert!((values["explain.unattributed_share"] - 0.5).abs() < 1e-12);
        assert!((values["span.self_share.publish"] - 0.6).abs() < 1e-12);
        assert!((values["span.self_share.generator"] - 0.1).abs() < 1e-12);
        assert!(explain_table("x", &out, &ledger).contains("unattributed"));
    }
}
