//! `--repeat N [--vary-seed]`: the same workload N times in fresh processes
//! (on one seed, or on N consecutive ones), then median,
//! quartiles and relative spread per end-to-end metric, judged against the
//! metric's bound. Used to set the bounds in `BENCHMARK.json`.

use crate::report::END_TO_END;
use crate::stats;
use std::process::Command;

/// Reads `"<name>": {"value": <number>` out of a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// `vary_seed` gives run `i` the seed `seed + i`, as the driver's own
/// steadiness check does; otherwise every run gets `seed`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    n: usize,
    vary_seed: bool,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut lines = Vec::new();
    for i in 0..n {
        let run_seed = if vary_seed { seed + i as u64 } else { seed };
        let output = Command::new(&exe)
            .args(["--workload", workload, "--trace", "0"])
            .args(["--seed", &run_seed.to_string(), "--seconds", &seconds.to_string()])
            .output()
            .map_err(|e| format!("spawn run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("").to_string();
        if !output.status.success() || !line.contains("\"correct\": true") {
            return Err(format!(
                "run {i} of {workload} failed ({}):\n{stdout}{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        eprintln!("run {}/{n} of {workload} done", i + 1);
        lines.push(line);
    }

    let seeds = if vary_seed {
        format!("seeds {seed}..={}", seed + n as u64 - 1)
    } else {
        format!("seed {seed}")
    };
    println!("{workload}: {n} fresh-process runs, {seeds}, {seconds} s measured each");
    println!(
        "  {:<16} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut steady = true;
    for m in &END_TO_END {
        let values: Vec<f64> = lines
            .iter()
            .map(|l| metric_value(l, m.name).ok_or_else(|| format!("{} missing from {l}", m.name)))
            .collect::<Result<_, _>>()?;
        let s = stats::spread(&values);
        let bound = m.bound.expect("end-to-end metrics have bounds");
        // Set-up time is gated on its median only, not on its spread.
        let over = s.relative > bound && m.name != "setup_s";
        steady &= !over;
        println!(
            "  {:<16} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6.0}%{}",
            m.name,
            s.median,
            s.q1,
            s.q3,
            s.relative * 100.0,
            bound * 100.0,
            if over { "  SPREAD EXCEEDS BOUND" } else { "" }
        );
    }
    Ok(steady)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_line;

    #[test]
    fn values_are_read_back_from_a_result_line() {
        let line = result_line(&END_TO_END, &|name| name.len() as f64 * 1.5, true, 3, 0);
        for m in &END_TO_END {
            assert_eq!(metric_value(&line, m.name), Some(m.name.len() as f64 * 1.5), "{}", m.name);
        }
        assert_eq!(metric_value(&line, "absent"), None);
        assert_eq!(metric_value("{\"x\": {\"value\": 1e-3}}", "x"), Some(0.001));
    }
}
