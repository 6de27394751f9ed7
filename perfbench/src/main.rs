//! `oocp-perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]`
//!
//! Prints one line per cell of the first pass, then, as the last line,
//! the JSON result. Exits 0 only if every check passed; 2 on bad
//! arguments, without a result.

use std::process::ExitCode;

use oocp_perfbench::catalog::WORKLOADS;
use oocp_perfbench::cells::Scale;
use oocp_perfbench::host::{cpu_model, nproc, pin_to_current_cpu, PROBE_REF_S};
use oocp_perfbench::run::{run, Options};
use oocp_perfbench::RUN_SECONDS;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: oocp_perfbench::bench7::SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {}",
                        o.seconds
                    ));
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            f => return Err(format!("unknown argument {f:?}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == o.workload) {
        return Err(format!("unknown or missing --workload {:?}", o.workload));
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: oocp-perfbench --workload <paper-2x|incore-warm|tenants-2> \
                 [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let cpu = pin_to_current_cpu().map_or("unpinned".to_string(), |c| format!("pinned to cpu {c}"));
    println!("host: {} cpus, {}, {cpu}", nproc(), cpu_model());
    let mut report = match run(&o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "probe loop: median {:.4} s (reference host {PROBE_REF_S} s)",
        report.probe_s
    );
    if report.traced {
        report.metrics.insert("host.calib_s", report.probe_s);
    }
    for p in &report.checks.problems {
        eprintln!("FAILED {p}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
