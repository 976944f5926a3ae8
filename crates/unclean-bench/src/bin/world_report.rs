//! Prints diagnostics of the generated world and epidemic: the
//! substitution-argument sanity report (DESIGN.md §2) for any scale/seed.

use std::process::ExitCode;
use unclean_bench::runner::EXIT_USAGE;
use unclean_bench::BenchOpts;
use unclean_netmodel::{EpidemicDiagnostics, Scenario, WorldDiagnostics};
use unclean_telemetry::Registry;

fn main() -> ExitCode {
    let opts = match BenchOpts::from_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let registry = Registry::new(opts.telemetry);
    let scenario = Scenario::generate_recorded(opts.scenario_config(), &registry);
    println!(
        "== world diagnostics (scale {}, seed {}) ==\n",
        opts.scale, opts.seed
    );
    println!("{}\n", WorldDiagnostics::of(&scenario.world).render());
    println!("== epidemic diagnostics ==\n");
    println!(
        "{}",
        EpidemicDiagnostics::of(&scenario.world, &scenario.infections).render()
    );
    println!(
        "expected control-week coverage: {:.1}%",
        scenario.expected_control_coverage() * 100.0
    );
    if registry.enabled() {
        println!("\n== telemetry ==\n");
        print!("{}", registry.snapshot().render_tree());
    }
    ExitCode::SUCCESS
}
