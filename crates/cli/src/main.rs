//! `longsight` — command-line interface to the LongSight reproduction.
//!
//! ```text
//! longsight quality   [--ctx 1024] [--window 256] [--k 128] [--threshold 18] [--itq true]
//! longsight serve     [--model 1b|8b] [--ctx 131072] [--users 8] [--system longsight|gpu|gpu2|attacc|window]
//!                     [--fault-profile none|mild|severe|RATE] [--fault-seed N] [--deadline-ms MS]
//!                     [--page-tokens N] [--watermark F] [--trace-out FILE] [--metrics-out FILE]
//! longsight loadtest  [--model 1b|8b] [--rate 2.0] [--duration 10] [--ctx-min 32768] [--ctx-max 131072]
//!                     [--sched fifo|slo-aware] [--mix I,B,E] [--page-tokens N] [--prefill-chunk N]
//!                     [--prefill-slots N] [--watermark F] [--replicas N] [--router jsq|rr]
//!                     [--crash-profile none|mild|severe|RATE] [--crash-seed N]
//!                     [--breaker on|off] [--shed-cap N]
//!                     [--fault-profile ...] [--fault-seed N] [--deadline-ms MS] (any replica count)
//!                     [--trace-out FILE] [--metrics-out FILE]
//! longsight profile   [--model 1b|8b] [--rate 2.0] [--duration 10] [--ctx-min 131072] [--ctx-max 131072]
//!                     [--fault-profile ...] [--fault-seed N] [--trace-out FILE] [--metrics-out FILE]
//! longsight offload   [--model 1b|8b] [--ctx 131072] [--users 1]
//!                     [--fault-profile ...] [--fault-seed N] [--deadline-ms MS]
//!                     [--trace-out FILE] [--metrics-out FILE]
//! longsight trace-validate --file trace.json
//! longsight dashboard --file timeseries.tsv [--width 60]
//! longsight perf-diff [--self-check FILE | --gate results/trajectory.tsv | --baseline A --candidate B]
//! longsight tune      [--ctx 768] [--window 192] [--k 96] [--budget 0.05]
//! longsight layout    [--model 1b|8b] [--ctx 1048576]
//! ```
//!
//! Every command also accepts a global `--threads N` flag selecting the
//! worker count for the deterministic parallel maps (`longsight-exec`);
//! results are bit-identical at any setting.

#![forbid(unsafe_code)]

mod args;
mod commands;
mod perf;

use args::Args;

/// Strips a global `--threads N` pair from the argument list and applies it
/// to the worker pool ([`longsight_exec::set_thread_count`]); `--threads 1`
/// forces the exact serial path. Output is identical at any thread count.
fn take_threads(argv: Vec<String>) -> Result<Vec<String>, String> {
    let mut out = Vec::with_capacity(argv.len());
    let mut it = argv.into_iter();
    while let Some(tok) = it.next() {
        if tok == "--threads" {
            let Some(v) = it.next() else {
                return Err("flag --threads needs a value".into());
            };
            let n: usize = v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --threads"))?;
            if n == 0 {
                return Err("--threads must be >= 1".into());
            }
            longsight_exec::set_thread_count(n);
        } else {
            out.push(tok);
        }
    }
    Ok(out)
}

fn main() {
    let argv = match take_threads(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let parsed = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match cmd.as_str() {
        "quality" => commands::quality(&parsed),
        "serve" => commands::serve(&parsed),
        "loadtest" => commands::loadtest(&parsed),
        "profile" => commands::profile(&parsed),
        "offload" => commands::offload(&parsed),
        "trace-validate" => commands::trace_validate(&parsed),
        "dashboard" => perf::dashboard(&parsed),
        "perf-diff" => perf::perf_diff(&parsed),
        "tune" => commands::tune(&parsed),
        "layout" => commands::layout(&parsed),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

const USAGE: &str = "\
longsight — LongSight (MICRO 2025) reproduction CLI

global flags:
  --threads N  worker threads for the deterministic parallel maps
               (default: LONGSIGHT_THREADS env or hardware; results are
               bit-identical at any thread count; 1 = serial)

commands:
  quality    dense vs LongSight hybrid perplexity + filter ratio on the
             induction model       [--ctx N] [--window W] [--k K]
                                   [--threshold T] [--itq true|false]
  serve      one serving evaluation row
                                   [--model 1b|8b] [--ctx N] [--users U]
                                   [--system longsight|gpu|gpu2|attacc|window]
                                   [--fault-profile none|mild|severe|RATE]
                                   [--fault-seed N] [--deadline-ms MS]
                                   [--page-tokens N] [--watermark F]
                                   [--trace-out FILE] [--metrics-out FILE]
                                   [--timeseries-out FILE] [--ts-window-ms MS]
  loadtest   closed-loop Poisson serving simulation with percentiles
                                   [--model 1b|8b] [--rate R] [--duration S]
                                   [--ctx-min N] [--ctx-max N]
                                   [--sched fifo|slo-aware] [--mix I,B,E]
                                   [--page-tokens N] [--prefill-chunk N]
                                   [--prefill-slots N] [--watermark F]
                                   [--replicas N] [--router jsq|rr]
                                   [--crash-profile none|mild|severe|RATE]
                                   [--crash-seed N] [--breaker on|off]
                                   [--shed-cap N]
                                   [--fault-profile ...] [--fault-seed N]
                                   [--deadline-ms MS] (token faults on
                                   every replica, with or without
                                   sessions and crashes)
                                   [--trace-out FILE] [--metrics-out FILE]
                                   [--timeseries-out FILE] [--ts-window-ms MS]
  profile    per-token latency attribution table over a serving run
                                   [--model 1b|8b] [--rate R] [--duration S]
                                   [--ctx-min N] [--ctx-max N]
                                   [--fault-profile ...] [--fault-seed N]
                                   [--trace-out FILE] [--metrics-out FILE]
  offload    DReX offload latency profile (Fig 8 style)
                                   [--model 1b|8b] [--ctx N] [--users U]
                                   [--fault-profile ...] [--fault-seed N]
                                   [--deadline-ms MS]
                                   [--trace-out FILE] [--metrics-out FILE]
  trace-validate  check a --trace-out file is valid non-empty Chrome
                  trace JSON       --file FILE
  dashboard  per-replica text-sparkline panels from a --timeseries-out
             export                --file FILE [--width N]
  perf-diff  compare observability exports / run the CI trajectory gate
                                   --self-check FILE
                                 | --gate results/trajectory.tsv
                                   [--threshold-pct P]
                                 | --baseline A --candidate B
                                   [--threshold-pct P]
  tune       run the paper's SCF threshold tuner (section 8.1.3)
                                   [--ctx N] [--window W] [--k K] [--budget F]
  layout     User Partition plan + capacity for a context length
                                   [--model 1b|8b] [--ctx N]";
