//! The RichNote benchmark: one workload per process, from a seed.
//!
//! ```text
//! benchmark --workload <name> [--seed 42] [--seconds 10] [--trace 0|1]
//! benchmark --layers | --explain [--workload <name>] | --smoke | --bless
//! benchmark --workload <name> --repeat <n> [--vary-seed]
//! ```
//!
//! A workload run prints every metric by name with unit and direction,
//! checks the outputs, and ends with one JSON object on the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See README.md in this directory.

mod daemon;
mod explain;
mod golden;
mod host;
mod layers;
mod measure;
mod pacing;
mod repeat;
mod report;
mod spans;
mod stats;
mod workloads;

use richnote_obs::rsrc::{set_alloc_counting, CountingAlloc};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{Outcome, Params};

/// Counts allocations per thread for the daemon's `richnote_allocs_total`
/// and the ledger's allocs/op. Counting is switched on only by `--layers`
/// and `--trace 1`; otherwise the wrapper passes straight through.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Loop length of the ledger inside a traced workload run, and of
/// `--layers`, seconds.
const LEDGER_QUICK_SECS: f64 = 0.04;
const LEDGER_FULL_SECS: f64 = 0.5;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
    vary_seed: bool,
    layers: bool,
    explain: bool,
    smoke: bool,
    bless: bool,
    print_benchmark_json: bool,
}

const USAGE: &str = "usage: benchmark --workload <ingest_binary|paced_mixed|round_dense|sim_week> \
[--seed N] [--seconds S] [--trace 0|1] [--repeat N [--vary-seed]]\n       benchmark --layers | --explain \
[--workload W] | --smoke | --bless | --print-benchmark-json";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("missing value for {flag}"));
        let bad = |what: &str| format!("bad value for {what}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = Some(value()?.parse().map_err(|_| bad("--seed"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("--seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("--seconds"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|_| bad("--repeat"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs".to_string());
                }
                a.repeat = Some(n);
            }
            "--vary-seed" => a.vary_seed = true,
            "--layers" => a.layers = true,
            "--explain" => a.explain = true,
            "--smoke" => a.smoke = true,
            "--bless" => a.bless = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

/// Compares a deterministic workload's digest with the golden for seed 42.
fn check_golden(workload: &str, p: &Params, out: &mut Outcome) {
    let Some(digest) = &out.digest else { return };
    if p.seed != golden::GOLDEN_SEED || p.smoke {
        return;
    }
    match golden::check(workload, digest) {
        Ok(true) => out.notes.push("digest equals the golden for seed 42".to_string()),
        Ok(false) => out.notes.push("no golden for this workload; run --bless".to_string()),
        Err(why) => {
            out.failed += 1;
            out.problems.push(why);
        }
    }
}

/// Runs a workload pinned to one CPU (see [`host::pin_to_one_cpu`]) and
/// checks its digest against the golden.
fn run_checked(workload: &str, p: &Params) -> Result<Outcome, String> {
    let pinned = host::pin_to_one_cpu();
    let mut out = workloads::run(workload, p)?;
    out.notes.insert(
        0,
        match pinned {
            Some(cpu) => format!("process pinned to CPU {cpu} of the host's {}", host::nproc()),
            None => {
                "could not pin to one CPU: expect scheduler placement to move the figures".into()
            }
        },
    );
    check_golden(workload, p, &mut out);
    Ok(out)
}

fn end_to_end_values(out: &Outcome) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", out.setup_s),
        ("work_per_s", out.work_per_s),
        ("cpu_us_per_pub", out.cpu_us_per_pub),
        ("lat_p50_us", out.lat_p50_us),
        ("lat_tail_us", out.lat_tail_us),
        ("utility_per_mb", out.utility_per_mb),
    ])
}

fn print_notes(workload: &str, p: &Params, out: &Outcome) {
    println!(
        "workload {workload}  seed {}  measured {} s  trace {}  nproc {}",
        p.seed,
        p.seconds,
        u8::from(p.trace),
        host::nproc()
    );
    for note in &out.notes {
        println!("  note: {note}");
    }
    for problem in &out.problems {
        println!("  PROBLEM: {problem}");
    }
    println!(
        "  operations attempted {}, failed {} (failed share {:.6})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
}

/// Writes a traced run's spans beside the executable and says where.
fn write_spans(workload: &str, p: &Params, out: &Outcome) {
    let Some(dir) =
        std::env::current_exe().ok().and_then(|e| e.parent().map(|d| d.join("bench-scratch")))
    else {
        return;
    };
    let path = dir.join(format!("spans-{workload}-seed{}.jsonl", p.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (thread, spans) in out.spans.iter().enumerate() {
            spans::write_json_lines(&mut w, thread, spans)?;
        }
        std::io::Write::flush(&mut w)
    });
    let n: usize = out.spans.iter().map(Vec::len).sum();
    match written {
        Ok(()) => println!("  note: {n} spans written to {}", path.display()),
        Err(e) => println!("  note: could not write spans to {}: {e}", path.display()),
    }
}

/// One workload run as the driver invokes it.
fn workload_run(workload: &str, p: &Params) -> Result<bool, String> {
    set_alloc_counting(p.trace);
    // The ledger first, while the process may still use every core: its
    // two-thread loop needs two.
    let ledger = if p.trace { Some(layers::run(LEDGER_QUICK_SECS, p.seed)?) } else { None };
    // Forget the ledger's memory peak, so that the peak reported at exit is
    // the workload's (best effort: "5" resets VmHWM on Linux 4.0 and later).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let out = run_checked(workload, p)?;
    print_notes(workload, p, &out);
    let mut correct = out.problems.is_empty() && out.failed == 0;
    let line = if let Some(ledger) = &ledger {
        write_spans(workload, p, &out);
        for note in &ledger.notes {
            println!("  note: {note}");
        }
        print!("{}", explain::explain_table(workload, &out, ledger));
        let mut values = explain::per_layer_values(&out, ledger);
        values.insert("host.peak_rss_mb".to_string(), host::peak_rss_mb().unwrap_or(0.0));
        let get = |name: &str| values.get(name).copied().unwrap_or(0.0);
        println!("per-layer metrics (traced run; a bypassed layer reads 0):");
        print!("{}", report::table(&report::PER_LAYER, &get));
        report::result_line(&report::PER_LAYER, &get, correct, out.attempted, out.failed)
    } else {
        let values = end_to_end_values(&out);
        let get = |name: &str| values.get(name).copied().unwrap_or(0.0);
        // The contract: an end-to-end metric is never 0.
        for m in &report::END_TO_END {
            if !(get(m.name).is_finite() && get(m.name) > 0.0) {
                println!("  PROBLEM: end-to-end metric {} reads {}", m.name, get(m.name));
                correct = false;
            }
        }
        println!("end-to-end metrics (untraced run):");
        print!("{}", report::table(&report::END_TO_END, &get));
        report::result_line(&report::END_TO_END, &get, correct, out.attempted, out.failed)
    };
    println!("{line}");
    Ok(correct)
}

fn layers_mode(seed: u64) -> Result<(), String> {
    set_alloc_counting(true);
    let ledger = layers::run(LEDGER_FULL_SECS, seed)?;
    println!(
        "per-layer ledger: fixed-work loops of at least {LEDGER_FULL_SECS} s each, seed {seed}"
    );
    for m in report::PER_LAYER.iter().filter(|m| ledger.values.contains_key(m.name)) {
        let allocs = ledger
            .allocs_per_op
            .get(m.name)
            .map_or(String::new(), |a| format!("  {a:.2} allocs/op"));
        println!("  {:<38} {:>14.3} {:<6}{allocs}", m.name, ledger.get(m.name), m.unit);
    }
    for note in &ledger.notes {
        println!("  note: {note}");
    }
    Ok(())
}

fn explain_mode(only: Option<&str>, seed: u64, seconds: f64) -> Result<bool, String> {
    set_alloc_counting(true);
    let ledger = layers::run(LEDGER_FULL_SECS, seed)?;
    let mut all_correct = true;
    for workload in workloads::names().filter(|w| only.is_none_or(|o| o == *w)) {
        let p = Params { seed, seconds, trace: true, smoke: false };
        let out = run_checked(workload, &p)?;
        print_notes(workload, &p, &out);
        print!("{}", explain::explain_table(workload, &out, &ledger));
        all_correct &= out.problems.is_empty() && out.failed == 0;
    }
    Ok(all_correct)
}

/// All four workloads at a twentieth of the scale, checks on.
fn smoke_mode(seed: u64) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let mut all_correct = true;
    for workload in workloads::names() {
        let p = Params { seed, seconds: 1.0, trace: false, smoke: true };
        let out = run_checked(workload, &p)?;
        let ok = out.problems.is_empty() && out.failed == 0;
        println!(
            "smoke {workload:<14} {}  work/s {:.1}  attempted {}  failed {}",
            if ok { "ok  " } else { "FAIL" },
            out.work_per_s,
            out.attempted,
            out.failed
        );
        for problem in &out.problems {
            println!("  PROBLEM: {problem}");
        }
        all_correct &= ok;
    }
    println!("smoke: {:.1} s", started.elapsed().as_secs_f64());
    Ok(all_correct)
}

/// Re-derives the seed-42 digests at full scale and rewrites the golden.
fn bless_mode() -> Result<(), String> {
    let mut digests = BTreeMap::new();
    for workload in ["round_dense", "sim_week"] {
        let p = Params { seed: golden::GOLDEN_SEED, seconds: 1.0, trace: false, smoke: false };
        let out = workloads::run(workload, &p)?;
        if !out.problems.is_empty() {
            return Err(format!("{workload}: {}", out.problems.join("; ")));
        }
        digests.insert(workload.to_string(), out.digest.ok_or("workload produced no digest")?);
    }
    std::fs::write(golden::path(), golden::render(&digests))
        .map_err(|e| format!("write {}: {e}", golden::path().display()))?;
    println!("blessed {} (rebuild to compile it in)", golden::path().display());
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1)).map_err(|e| format!("{e}\n{USAGE}"))?;
    let seed = args.seed.unwrap_or(golden::GOLDEN_SEED);
    let seconds = args.seconds.unwrap_or(report::RUN_SECONDS as f64);
    if args.print_benchmark_json {
        print!("{}", report::benchmark_json());
        return Ok(true);
    }
    if args.bless {
        return bless_mode().map(|()| true);
    }
    if args.smoke {
        return smoke_mode(seed);
    }
    if args.layers {
        return layers_mode(seed).map(|()| true);
    }
    if args.explain {
        return explain_mode(args.workload.as_deref(), seed, seconds);
    }
    let workload = args.workload.ok_or_else(|| format!("no workload named\n{USAGE}"))?;
    if !workloads::names().any(|w| w == workload) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    if let Some(n) = args.repeat {
        return repeat::run(&workload, seed, seconds, n, args.vary_seed);
    }
    workload_run(&workload, &Params { seed, seconds, trace: args.trace, smoke: false })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload paced_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("paced_mixed"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), true));
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--repeat 1").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("--seed").is_err());
    }

    /// All four workloads at 1/20 scale with their checks on, as `--smoke`
    /// runs them: the end-to-end pass a CI step can afford.
    #[test]
    fn smoke_runs_all_four_workloads_correctly() {
        for workload in workloads::names() {
            let p =
                Params { seed: 43, seconds: 0.5, trace: workload == "round_dense", smoke: true };
            let out = run_checked(workload, &p).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(out.problems.is_empty(), "{workload}: {:?}", out.problems);
            assert_eq!(out.failed, 0, "{workload}");
            assert!(out.attempted > 0 && out.work_per_s > 0.0 && out.setup_s > 0.0, "{workload}");
            assert!(out.lat_p50_us > 0.0 && out.utility_per_mb > 0.0, "{workload}");
            if p.trace {
                assert!(out.spans[0].iter().any(|s| s.name == "tick"), "no tick span");
            }
        }
    }
}
