//! The golden digests for seed 42, kept beside the benchmark's sources and
//! compiled in: `round_dense` and `sim_week` run single-threaded input, so
//! their selections must repeat exactly. `--bless` rewrites the file.

use crate::workloads::Digest;
use std::collections::BTreeMap;

pub const GOLDEN_SEED: u64 = 42;
const GOLDEN_TEXT: &str = include_str!("../golden_seed42.txt");

/// One `workload key value` triple per line; `#` starts a comment.
pub fn render(digests: &BTreeMap<String, Digest>) -> String {
    let mut s = String::from(
        "# Golden digests of the deterministic workloads for seed 42 at full scale.\n\
         # Rewritten by `benchmark --bless`; a change here means selections changed.\n",
    );
    for (workload, d) in digests {
        s.push_str(&format!("{workload} selected {}\n", d.selected));
        s.push_str(&format!("{workload} delivered_bytes {}\n", d.delivered_bytes));
        for (level, n) in &d.levels {
            s.push_str(&format!("{workload} level:{level} {n}\n"));
        }
        s.push_str(&format!("{workload} utility_per_mb {:?}\n", d.utility_per_mb));
    }
    s
}

pub fn parse(text: &str) -> Result<BTreeMap<String, Digest>, String> {
    let mut out: BTreeMap<String, Digest> = BTreeMap::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let (Some(workload), Some(key), Some(value), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("golden line {line:?}: expected `workload key value`"));
        };
        let d = out.entry(workload.to_string()).or_insert_with(|| Digest {
            selected: 0,
            delivered_bytes: 0,
            levels: BTreeMap::new(),
            utility_per_mb: 0.0,
        });
        let bad = |e: &dyn std::fmt::Display| format!("golden line {line:?}: {e}");
        match key {
            "selected" => d.selected = value.parse().map_err(|e| bad(&e))?,
            "delivered_bytes" => d.delivered_bytes = value.parse().map_err(|e| bad(&e))?,
            "utility_per_mb" => d.utility_per_mb = value.parse().map_err(|e| bad(&e))?,
            level => match level.strip_prefix("level:") {
                Some(l) => {
                    d.levels.insert(l.to_string(), value.parse().map_err(|e| bad(&e))?);
                }
                None => return Err(bad(&"unknown key")),
            },
        }
    }
    Ok(out)
}

/// Checks `digest` against the compiled-in golden; `Ok(false)` when the
/// golden has no entry for the workload (nothing blessed yet).
pub fn check(workload: &str, digest: &Digest) -> Result<bool, String> {
    let golden = parse(GOLDEN_TEXT)?;
    match golden.get(workload) {
        None => Ok(false),
        Some(g) if g.matches(digest) => Ok(true),
        Some(g) => Err(format!("{workload} digest {digest:?} differs from the golden {g:?}")),
    }
}

/// Where `--bless` writes: the source file this binary was compiled from.
pub fn path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden_seed42.txt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_text_round_trips_and_the_committed_file_parses() {
        let d = Digest {
            selected: 12,
            delivered_bytes: 3_400,
            levels: BTreeMap::from([("1".to_string(), 5), ("reported_at_2".to_string(), 7)]),
            utility_per_mb: 1.679_169_219_555_856_7,
        };
        let all = BTreeMap::from([("round_dense".to_string(), d.clone())]);
        assert_eq!(parse(&render(&all)).unwrap(), all);
        assert!(parse("round_dense selected").is_err());
        assert!(parse("round_dense bogus 3").is_err());
        let committed = parse(GOLDEN_TEXT).unwrap();
        assert!(committed.contains_key("round_dense") && committed.contains_key("sim_week"));
    }

    #[test]
    fn a_digest_differs_on_any_count_and_tolerates_only_float_dust() {
        let d = Digest {
            selected: 1,
            delivered_bytes: 2,
            levels: BTreeMap::from([("1".to_string(), 1)]),
            utility_per_mb: 2.5,
        };
        assert!(d.matches(&Digest { utility_per_mb: 2.5 * (1.0 + 1e-12), ..d.clone() }));
        assert!(!d.matches(&Digest { utility_per_mb: 2.5 * (1.0 + 1e-6), ..d.clone() }));
        assert!(!d.matches(&Digest { selected: 2, ..d.clone() }));
        assert!(!d.matches(&Digest { levels: BTreeMap::new(), ..d.clone() }));
    }
}
