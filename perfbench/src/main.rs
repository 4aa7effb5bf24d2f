//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The line before it is the environment stamp.
//! Exits 2 on bad arguments and 1 when a correctness check failed.

use perfbench::{env_stamp, pinned_threads, result_json, run, RunArgs, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <fleet_crash|session_mix|long_ctx_single|trace_sweep> \
--seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Workload, RunArgs), String> {
    let mut workload = None;
    let mut run_args = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => run_args.seed = value.parse().map_err(|_| bad("expected a u64"))?,
            "--seconds" => {
                run_args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected positive seconds"))?;
            }
            "--trace" => {
                run_args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, run_args))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run_args) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    longsight_exec::set_thread_count(pinned_threads());
    let out = run(workload, &run_args);
    for failure in &out.check_failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", env_stamp());
    println!("{}", result_json(&out, run_args.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
