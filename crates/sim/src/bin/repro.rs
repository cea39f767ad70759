//! `repro` — regenerate every table and figure of the RichNote paper.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--json <path>] [--scale small|default]
//!
//! experiments:
//!   classifier   Sec. V-A  five-fold CV of the content-utility classifier
//!   fig2a        Fig. 2(a) survey grid -> Pareto-useful presentations
//!   fig2b        Fig. 2(b) duration-utility fits (Eq. 8 vs Eq. 9)
//!   fig3         Fig. 3    delivery ratio / data / recall / precision
//!   fig4         Fig. 4    utility / clicked utility / energy / delay
//!   fig5a        Fig. 5(a) RichNote vs fixed presentation levels
//!   fig5b        Fig. 5(b) presentation mix vs budget (cellular)
//!   fig5c        Fig. 5(c) presentation mix under the WiFi Markov model
//!   fig5d        Fig. 5(d) utility by user-volume category
//!   lyapunov-v   Sec. V-D5 sensitivity to the control knob V
//!   ablations    design-choice ablations (greedy variant, utility curve,
//!                round length, energy control)
//!   network      availability sweep (sporadic cellular) + connectivity models
//!   model-value  constant vs learned vs oracle content utility
//!   stability    per-round backlog trajectories (Lyapunov queue stability)
//!   all          everything above, in order
//! ```

use richnote_core::paper;
use richnote_sim::experiments::{
    ablation, classifier, fig2, fig5, lyapunov, network, stability, sweep, EnvConfig, ExperimentEnv,
};
use richnote_sim::report::{to_json, Table};
use richnote_sim::simulator::{NetworkKind, SimulationConfig};
use richnote_trace::generator::TraceConfig;
use std::io::Write;
use std::process::ExitCode;

struct Args {
    experiment: String,
    json_path: Option<String>,
    scale: EnvConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().ok_or_else(usage)?;
    let mut json_path = None;
    let mut scale = EnvConfig::repro_default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--json" => {
                json_path = Some(args.next().ok_or("--json needs a path".to_string())?);
            }
            "--scale" => match args.next().as_deref() {
                Some("small") => scale = EnvConfig::test_small(),
                Some("default") => scale = EnvConfig::repro_default(),
                other => return Err(format!("unknown scale {other:?}")),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args { experiment, json_path, scale })
}

fn usage() -> String {
    "usage: repro <classifier|fig2a|fig2b|fig3|fig4|fig5a|fig5b|fig5c|fig5d|lyapunov-v|ablations\
     |network|model-value|stability|all> [--json <path>] [--scale small|default]"
        .to_string()
}

fn print_tables(tables: &[Table]) {
    for t in tables {
        println!("{t}");
    }
}

fn write_json(path: &Option<String>, name: &str, json: String) {
    if let Some(dir) = path {
        let file = format!("{dir}/{name}.json");
        if let Some(parent) = std::path::Path::new(&file).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::File::create(&file).and_then(|mut f| f.write_all(json.as_bytes())) {
            Ok(()) => eprintln!("wrote {file}"),
            Err(e) => eprintln!("failed to write {file}: {e}"),
        }
    }
}

struct Harness {
    args: Args,
    env: Option<ExperimentEnv>,
    sweep: Option<sweep::SweepReport>,
}

impl Harness {
    fn env(&mut self) -> &ExperimentEnv {
        if self.env.is_none() {
            eprintln!(
                "building environment: {} users ({} simulated), {} days...",
                self.args.scale.n_users, self.args.scale.top_users, self.args.scale.days
            );
            self.env = Some(ExperimentEnv::build(self.args.scale));
        }
        self.env.as_ref().expect("just built")
    }

    fn base(&self) -> SimulationConfig {
        SimulationConfig { rounds: self.args.scale.days * 24, ..SimulationConfig::default() }
    }

    fn run(&mut self, name: &str) -> Result<(), String> {
        let json_path = self.args.json_path.clone();
        match name {
            "classifier" => {
                let cfg = TraceConfig {
                    seed: self.args.scale.seed,
                    n_users: self.args.scale.n_users,
                    days: self.args.scale.days,
                    mean_notifications_per_user_day: self
                        .args
                        .scale
                        .mean_notifications_per_user_day,
                    ..TraceConfig::default()
                };
                let report = classifier::run(&cfg, 5);
                print_tables(&report.tables());
                write_json(&json_path, "classifier", to_json(&report));
            }
            "fig2a" => {
                let report = fig2::run_fig2a();
                println!("{}", report.table());
                println!(
                    "useful presentations: {} of {} (paper: 6 of 20)\n",
                    report.useful.len(),
                    report.cells.len()
                );
                write_json(&json_path, "fig2a", to_json(&report));
            }
            "fig2b" => {
                let report = fig2::run_fig2b(self.args.scale.seed, paper::SURVEY_PARTICIPANTS);
                print_tables(&report.tables());
                write_json(&json_path, "fig2b", to_json(&report));
            }
            "fig3" | "fig4" => {
                if self.sweep.is_none() {
                    let base = self.base();
                    let env = self.env();
                    eprintln!(
                        "running budget sweep (5 policies x {} budgets)...",
                        paper::BUDGET_SWEEP_MB.len()
                    );
                    self.sweep = Some(sweep::run(
                        env,
                        &sweep::paper_policies(),
                        &paper::BUDGET_SWEEP_MB,
                        &base,
                    ));
                }
                let report = self.sweep.as_ref().expect("just computed");
                if name == "fig3" {
                    print_tables(&[report.fig3a(), report.fig3b(), report.fig3c(), report.fig3d()]);
                } else {
                    print_tables(&[report.fig4a(), report.fig4b(), report.fig4c(), report.fig4d()]);
                }
                write_json(&json_path, name, to_json(report));
            }
            "fig5a" => {
                let base = self.base();
                let env = self.env();
                let report = fig5::run_fig5a(env, &paper::BUDGET_SWEEP_MB, &base);
                println!("{}", report.table());
                write_json(&json_path, "fig5a", to_json(&report));
            }
            "fig5b" => {
                let base = self.base();
                let env = self.env();
                let report = fig5::run_level_mix(
                    env,
                    &paper::BUDGET_SWEEP_MB,
                    &base,
                    NetworkKind::CellAlways,
                    "Fig. 5(b)",
                );
                println!("{}", report.table());
                write_json(&json_path, "fig5b", to_json(&report));
            }
            "fig5c" => {
                let base = self.base();
                let env = self.env();
                let report = fig5::run_level_mix(
                    env,
                    &paper::BUDGET_SWEEP_MB,
                    &base,
                    NetworkKind::Markov,
                    "Fig. 5(c)",
                );
                println!("{}", report.table());
                write_json(&json_path, "fig5c", to_json(&report));
            }
            "fig5d" => {
                let base = self.base();
                let env = self.env();
                let report = fig5::run_fig5d(env, 20, &base);
                println!("{}", report.table());
                write_json(&json_path, "fig5d", to_json(&report));
            }
            "lyapunov-v" => {
                let base = self.base();
                let env = self.env();
                let report = lyapunov::run(
                    env,
                    &[1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0],
                    10,
                    &base,
                );
                println!("{}", report.table());
                println!(
                    "uniformly better than UTIL: {} (paper: yes)\n",
                    report.uniformly_better()
                );
                write_json(&json_path, "lyapunov_v", to_json(&report));
            }
            "ablations" => {
                let base = self.base();
                let seed = self.args.scale.seed;
                let env = self.env();
                let budgets = [3u64, 10, 50];
                let reports = vec![
                    ablation::greedy_variants(env, &budgets, &base),
                    ablation::utility_function(env, &budgets, &base),
                    ablation::round_length(env, 10, &base),
                    ablation::energy_control(env, 20, &[3_000.0, 100.0, 10.0], &base),
                    ablation::workload_model(seed, 10, base.rounds),
                ];
                for r in &reports {
                    println!("{}", r.table());
                }
                write_json(&json_path, "ablations", to_json(&reports));
            }
            "network" => {
                let base = self.base();
                let env = self.env();
                let report =
                    network::availability_sweep(env, &[0.1, 0.25, 0.5, 0.75, 1.0], 10, &base);
                println!("{}", report.table());
                let models = network::connectivity_models(env, 10, &base);
                println!("{}", models.table());
                write_json(&json_path, "network", to_json(&report));
                write_json(&json_path, "network_models", to_json(&models));
            }
            "model-value" => {
                let base = self.base();
                let env = self.env();
                let report = network::model_value(env, 3, &base);
                println!("{}", report.table());
                write_json(&json_path, "model_value", to_json(&report));
            }
            "stability" => {
                let base = self.base();
                let env = self.env();
                let report = stability::run(env, 3, &base);
                println!("{}", report.table());
                write_json(&json_path, "stability", to_json(&report));
            }
            "all" => {
                for exp in [
                    "classifier",
                    "fig2a",
                    "fig2b",
                    "fig3",
                    "fig4",
                    "fig5a",
                    "fig5b",
                    "fig5c",
                    "fig5d",
                    "lyapunov-v",
                    "ablations",
                    "network",
                    "model-value",
                    "stability",
                ] {
                    eprintln!(">>> {exp}");
                    self.run(exp)?;
                }
            }
            other => return Err(format!("unknown experiment '{other}'\n{}", usage())),
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let experiment = args.experiment.clone();
    let mut harness = Harness { args, env: None, sweep: None };
    match harness.run(&experiment) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
