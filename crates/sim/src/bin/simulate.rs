//! `simulate` — run one custom RichNote simulation from the command line.
//!
//! ```text
//! simulate [--policy richnote|fifo|util|adaptive] [--level N] [--budget-mb N]
//!          [--network cell|sporadic:P|markov|diurnal|commute-flaky|
//!                     evening-wifi|mass-event]
//!          [--scenario NAME|all] [--quick] [--users N] [--days N]
//!          [--rate N] [--seed N] [--v N] [--kappa N] [--json] [--metrics]
//! ```
//!
//! Example: compare RichNote and UTIL on a 5 MB weekly budget under the
//! Markov network:
//!
//! ```text
//! simulate --policy richnote --budget-mb 5 --network markov
//! simulate --policy util --level 3 --budget-mb 5 --network markov
//! ```
//!
//! `--scenario` switches to the deterministic scenario pack and prints a
//! [`richnote_sim::scenarios::ScenarioReport`] per run:
//!
//! ```text
//! simulate --scenario commute-flaky --policy adaptive --quick --json
//! simulate --scenario all --policy richnote --json
//! ```

use richnote_core::{paper, PolicyName};
use richnote_sim::experiments::{EnvConfig, ExperimentEnv};
use richnote_sim::report::to_json;
use richnote_sim::simulator::{NetworkKind, PolicyKind, PopulationSim, SimulationConfig};
use std::process::ExitCode;

#[derive(Debug)]
struct Options {
    policy: PolicyName,
    level: u8,
    budget_mb: u64,
    scenario: Option<String>,
    quick: bool,
    network: NetworkKind,
    users: usize,
    days: u64,
    rate: f64,
    seed: u64,
    v: f64,
    kappa: f64,
    json: bool,
    metrics: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            policy: PolicyName::RichNote,
            level: 3,
            budget_mb: 20,
            scenario: None,
            quick: false,
            network: NetworkKind::CellAlways,
            users: 150,
            days: 7,
            rate: 40.0,
            seed: 2015,
            v: paper::LYAPUNOV_V,
            kappa: paper::KAPPA_JOULES_PER_ROUND,
            json: false,
            metrics: false,
        }
    }
}

fn parse() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--policy" => opts.policy = take("--policy")?.parse().map_err(|e| format!("{e}"))?,
            "--level" => {
                opts.level = take("--level")?.parse().map_err(|e| format!("bad level: {e}"))?
            }
            "--budget-mb" => {
                opts.budget_mb =
                    take("--budget-mb")?.parse().map_err(|e| format!("bad budget: {e}"))?
            }
            "--network" => {
                let v = take("--network")?;
                opts.network = match v.as_str() {
                    "cell" => NetworkKind::CellAlways,
                    "markov" => NetworkKind::Markov,
                    "diurnal" => NetworkKind::Diurnal,
                    "commute-flaky" => NetworkKind::CommuteFlaky,
                    "evening-wifi" => NetworkKind::EveningWifi,
                    "mass-event" => NetworkKind::MassEvent,
                    other if other.starts_with("sporadic:") => {
                        let p: f64 = other["sporadic:".len()..]
                            .parse()
                            .map_err(|e| format!("bad availability: {e}"))?;
                        NetworkKind::CellSporadic(p)
                    }
                    other => return Err(format!("unknown network {other}")),
                };
            }
            "--users" => {
                opts.users = take("--users")?.parse().map_err(|e| format!("bad users: {e}"))?
            }
            "--days" => {
                opts.days = take("--days")?.parse().map_err(|e| format!("bad days: {e}"))?
            }
            "--rate" => {
                opts.rate = take("--rate")?.parse().map_err(|e| format!("bad rate: {e}"))?
            }
            "--seed" => {
                opts.seed = take("--seed")?.parse().map_err(|e| format!("bad seed: {e}"))?
            }
            "--v" => opts.v = take("--v")?.parse().map_err(|e| format!("bad v: {e}"))?,
            "--kappa" => {
                opts.kappa = take("--kappa")?.parse().map_err(|e| format!("bad kappa: {e}"))?
            }
            "--scenario" => opts.scenario = Some(take("--scenario")?),
            "--quick" => opts.quick = true,
            "--json" => opts.json = true,
            "--metrics" => opts.metrics = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// Runs one scenario (or `all`) from the deterministic pack and prints
/// its report(s).
fn run_scenario_pack(name: &str, policy: PolicyKind, quick: bool, json: bool) -> ExitCode {
    use richnote_sim::scenarios::{run_scenario, spec, ScenarioReport, SCENARIO_NAMES};

    let names: Vec<&str> = if name == "all" {
        SCENARIO_NAMES.to_vec()
    } else if spec(name).is_some() {
        vec![name]
    } else {
        eprintln!("unknown scenario {name} (expected all, {})", SCENARIO_NAMES.join(", "));
        return ExitCode::FAILURE;
    };

    let mut reports: Vec<ScenarioReport> = Vec::new();
    for n in names {
        eprintln!(
            "running scenario {n} under {}{}...",
            policy.name(),
            if quick { " (quick)" } else { "" }
        );
        reports.push(run_scenario(n, policy, quick).expect("validated above"));
    }

    if json {
        if reports.len() == 1 {
            println!("{}", to_json(&reports[0]));
        } else {
            println!("{}", to_json(&reports));
        }
    } else {
        for r in &reports {
            println!(
                "scenario {} | policy {} | {} users x {} rounds",
                r.scenario, r.policy, r.users, r.rounds
            );
            println!("  arrived        {}", r.arrived);
            println!(
                "  delivered      {} ({:.1}%)",
                r.delivered,
                100.0 * r.delivered as f64 / r.arrived.max(1) as f64
            );
            println!("  data           {:.2} MB", r.bytes_delivered as f64 / 1e6);
            println!("  utility        {:.1}", r.total_utility);
            println!("  utility/MB     {:.2}", r.utility_per_mb);
            println!("  shed rate      {:.3}", r.shed_rate);
            println!("  mean delay     {:.2} h", r.mean_delay_secs / 3600.0);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let policy = match opts.policy {
        PolicyName::RichNote => PolicyKind::richnote_with(opts.v, opts.kappa),
        PolicyName::Fifo => PolicyKind::Fifo { level: opts.level },
        PolicyName::Util => PolicyKind::Util { level: opts.level },
        PolicyName::Adaptive => PolicyKind::adaptive_default(),
    };

    if let Some(name) = &opts.scenario {
        return run_scenario_pack(name, policy, opts.quick, opts.json);
    }

    eprintln!(
        "building environment: {} users, {} days, ~{} notifications/user-day...",
        opts.users, opts.days, opts.rate
    );
    let env = ExperimentEnv::build(EnvConfig {
        seed: opts.seed,
        n_users: opts.users,
        top_users: opts.users / 2,
        mean_notifications_per_user_day: opts.rate,
        days: opts.days,
    });

    let cfg = SimulationConfig {
        policy,
        network: opts.network,
        rounds: opts.days * 24,
        theta_bytes: paper::theta_bytes_per_round(opts.budget_mb),
        kappa: opts.kappa,
        ..SimulationConfig::default()
    };
    let cfg_rounds = cfg.rounds;
    let sim = PopulationSim::new(env.trace.clone(), env.utility(), cfg);
    let (agg, _) = sim.run(&env.users);

    if opts.json {
        println!("{}", to_json(&agg));
    } else {
        println!(
            "policy {} | budget {} MB/week | {} users simulated",
            policy.name(),
            opts.budget_mb,
            env.users.len()
        );
        println!("  arrived        {}", agg.arrived);
        println!("  delivered      {} ({:.1}%)", agg.delivered, 100.0 * agg.delivery_ratio());
        println!("  data           {:.1} MB", agg.bytes_delivered as f64 / 1e6);
        println!("  utility        {:.1}", agg.total_utility);
        println!("  precision      {:.3}", agg.precision());
        println!("  recall         {:.3}", agg.recall());
        println!("  energy         {:.1} kJ", agg.energy_joules / 1000.0);
        println!("  mean delay     {:.2} h", agg.mean_delay_secs() / 3600.0);
        let mix = agg.level_mix();
        println!(
            "  level mix      meta {:.2} | 5s {:.2} | 10s {:.2} | 20s {:.2} | 30s {:.2} | 40s {:.2}",
            mix[1], mix[2], mix[3], mix[4], mix[5], mix[6]
        );
    }
    if opts.metrics {
        print!("{}", richnote_sim::obs::exposition(&agg, cfg_rounds));
    }
    ExitCode::SUCCESS
}
