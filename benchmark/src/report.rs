//! The benchmark's metric definitions — names, units, directions and
//! regression bounds — and the two things built from them: `BENCHMARK.json`
//! and the result a run prints.

use crate::workloads;
use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// What a user of the system sees. Every workload reports every one of
/// them; the README says what each means on each workload.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.20),
    e2e("cpu_us_per_pub", "us", Better::Lower, 0.20),
    e2e("lat_p50_us", "us", Better::Lower, 0.20),
    e2e("lat_tail_us", "us", Better::Lower, 0.25),
    e2e("utility_per_mb", "utility/MB", Better::Higher, 0.05),
];

use Better::{Higher, Lower};

/// Figures of single layers, from a traced run: the workload's own
/// figures under the issue's names, client- and daemon-side splits, span
/// self-time shares, the `--explain` attribution, and the ledger of
/// isolated per-operation costs. A layer a workload bypasses reads 0.
pub const PER_LAYER: [MetricDef; 85] = [
    // The workload's own figures (0 on workloads that do not have them).
    layer("ingest_pubs_per_s", "1/s", Higher),
    layer("ack_p50_us", "us", Lower),
    layer("ack_p99_us", "us", Lower),
    layer("user_rounds_per_s", "1/s", Higher),
    layer("tick_p50_us", "us", Lower),
    layer("tick_p99_us", "us", Lower),
    layer("checkpoint_p50_ms", "ms", Lower),
    layer("restore_ms", "ms", Lower),
    layer("sim_user_weeks_per_s", "1/s", Higher),
    // Client-observed splits.
    layer("client.ack_us.binary.p50", "us", Lower),
    layer("client.ack_us.json.p50", "us", Lower),
    layer("client.ack_p999_us", "us", Lower),
    layer("client.tick_us.p50", "us", Lower),
    layer("client.tickreport_us.p50", "us", Lower),
    layer("client.late_share", "ratio", Lower),
    // The daemon's own stage timers and counters, scraped once at the end.
    layer("queue.contended_share", "ratio", Lower),
    layer("queue.shed_share", "ratio", Lower),
    layer("server.stage_mean_us.dequeue", "us", Lower),
    layer("server.stage_mean_us.match", "us", Lower),
    layer("server.stage_mean_us.select", "us", Lower),
    layer("server.stage_mean_us.serialize", "us", Lower),
    layer("server.stage_mean_us.ack", "us", Lower),
    layer("server.round_duration_us.p50", "us", Lower),
    layer("server.round_cpu_share", "ratio", Lower),
    layer("server.pubs_per_ack_batch", "count", Higher),
    layer("server.allocs_per_pub", "count", Lower),
    // Share of the generator threads' traced time inside each call.
    layer("span.self_share.publish", "ratio", Lower),
    layer("span.self_share.sync", "ratio", Lower),
    layer("span.self_share.tick", "ratio", Lower),
    layer("span.self_share.tick_report", "ratio", Lower),
    layer("span.self_share.checkpoint", "ratio", Lower),
    layer("span.self_share.sim_run", "ratio", Lower),
    layer("span.self_share.generator", "ratio", Lower),
    layer("trace_overhead_share", "ratio", Lower),
    // Ledger cost x crossings, as shares of the region's process CPU.
    layer("explain.codec_share", "ratio", Lower),
    layer("explain.router_share", "ratio", Lower),
    layer("explain.queue_share", "ratio", Lower),
    layer("explain.ingest_share", "ratio", Lower),
    layer("explain.rounds_share", "ratio", Lower),
    layer("explain.checkpoint_share", "ratio", Lower),
    layer("explain.obs_share", "ratio", Lower),
    layer("explain.sim_share", "ratio", Lower),
    layer("explain.unattributed_share", "ratio", Lower),
    // The ledger: isolated cost per operation of each module.
    layer("codec.binary.decode_publish_ns", "ns", Lower),
    layer("codec.binary.encode_publish_ns", "ns", Lower),
    layer("codec.binary.puback_ns", "ns", Lower),
    layer("codec.binary.publish_frame_bytes", "B", Lower),
    layer("codec.binary.encode_tickreport_ns", "ns", Lower),
    layer("codec.json.decode_publish_ns", "ns", Lower),
    layer("codec.json.encode_publish_ns", "ns", Lower),
    layer("codec.json.puback_ns", "ns", Lower),
    layer("codec.json.encode_tickreport_ns", "ns", Lower),
    layer("router.apply_publish_ns", "ns", Lower),
    layer("router.apply_publish_dup_ns", "ns", Lower),
    layer("router.apply_publish_2thr_ns", "ns", Lower),
    layer("pubsub.broker_publish_ns", "ns", Lower),
    layer("queue.push_pop_ns", "ns", Lower),
    layer("queue.push_evicting_full_ns", "ns", Lower),
    layer("shard.ingest_ns", "ns", Lower),
    layer("shard.round_idle_ns_per_user", "ns", Lower),
    layer("shard.round_active_ns_per_item", "ns", Lower),
    layer("shard.checkpoint_ns_per_user", "ns", Lower),
    layer("core.mckp_greedy_ns_per_item", "ns", Lower),
    layer("core.select_round_ns.richnote", "ns", Lower),
    layer("core.select_round_ns.fifo", "ns", Lower),
    layer("core.select_round_ns.util", "ns", Lower),
    layer("core.select_round_ns.adaptive", "ns", Lower),
    layer("core.lyapunov_adjust_ns", "ns", Lower),
    layer("checkpoint.save_ms", "ms", Lower),
    layer("checkpoint.load_ms", "ms", Lower),
    layer("checkpoint.bytes", "B", Lower),
    layer("obs.history_record_ns", "ns", Lower),
    layer("obs.alert_eval_ns", "ns", Lower),
    layer("obs.registry_snapshot_ns", "ns", Lower),
    layer("obs.expo_encode_ns", "ns", Lower),
    layer("sim.user_week_us", "us", Lower),
    layer("forest.predict_ns", "ns", Lower),
    layer("forest.train_ms", "ms", Lower),
    layer("trace.generate_ms_per_kuser_day", "ms", Lower),
    layer("energy.cost_ns", "ns", Lower),
    layer("net.markov_step_ns", "ns", Lower),
    layer("replay.replay_into_us_per_pub", "us", Lower),
    layer("replay.allocs_per_pub", "count", Lower),
    layer("host.calib_mops", "Mop/s", Higher),
    // Peak resident set at exit. Not an end-to-end metric: the peak is set
    // by how deep the shard queues happened to get, 50 to 73 MB from run to
    // run of `ingest_binary`, wider than any bound it could be given.
    layer("host.peak_rss_mb", "MB", Lower),
];

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `BENCHMARK.json` this code stands for; a unit test holds the file
/// at the repo root to it.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("write to string");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads::WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < workloads::WORKLOADS.len() { "," } else { "" };
        writeln!(s, "    {{\"name\": {}, \"why\": {}}}{sep}", json_string(name), json_string(why))
            .expect("write to string");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}{sep}",
            json_string(m.name),
            json_string(m.unit),
            m.better.as_str(),
            m.bound.expect("end-to-end metrics have bounds")
        )
        .expect("write to string");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}{sep}",
            json_string(m.name),
            json_string(m.unit),
            m.better.as_str()
        )
        .expect("write to string");
    }
    s.push_str("  ]\n}\n");
    s
}

/// A JSON number with all its digits; a non-finite reading becomes 0 so
/// the line stays valid JSON (and the run is marked incorrect by the caller).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics in the order of their definitions.
pub fn result_line(
    defs: &[MetricDef],
    values: &dyn Fn(&str) -> f64,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(values(m.name)),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A table of every metric with unit, direction and bound, for people.
pub fn table(defs: &[MetricDef], values: &dyn Fn(&str) -> f64) -> String {
    let mut s = String::new();
    for m in defs {
        let bound = m.bound.map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        writeln!(
            s,
            "  {:<38} {:>16.4} {:<10} ({} is better){bound}",
            m.name,
            values(m.name),
            m.unit,
            m.better.as_str()
        )
        .expect("write to string");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok_char)
    }

    #[test]
    fn committed_benchmark_json_is_what_the_code_defines() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark --print-benchmark-json`"
        );
    }

    #[test]
    fn definitions_fit_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for name in workloads::names().chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name)) {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
        }
        for m in &END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        for (w, why) in workloads::WORKLOADS {
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "why of {w}");
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_in_a_stable_order() {
        let line = result_line(&END_TO_END, &|name| name.len() as f64 + 0.25, true, 12, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert!(!line.contains('\n'));
        let mut at = 0;
        for m in &END_TO_END {
            let key = format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.name.len() as f64 + 0.25,
                m.unit
            );
            let found =
                line[at..].find(&key).unwrap_or_else(|| panic!("{key} missing or out of order"));
            at += found;
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(result_line(&END_TO_END, &|_| f64::NAN, false, 1, 1).contains("\"value\": 0,"));
    }
}
