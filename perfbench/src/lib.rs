//! The repository benchmark: four workloads run against the public API of
//! `longsight-system`, `longsight-core` and `longsight-model`, reporting
//! end-to-end metrics (plain run) or per-layer metrics (layer run).
//!
//! Two clocks appear in the results. *Host* time is what the simulator
//! costs to run, measured with [`std::time::Instant`]. *Simulated* time is
//! what the modelled H100+DReX does; it is deterministic for a seed. Units
//! name the clock: `s`/`host_ms`/`host_ns` are host time, `sim_ms`/`sim_s`
//! simulated time. See `README.md` in this directory.

pub mod layers;
pub mod serving;
pub mod sweep;

use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2x Llama-3-1B, JSQ with breakers and shedding, replica crashes.
    FleetCrash,
    /// 2 replicas, multi-turn sessions, prefix cache under ownership-blind JSQ.
    SessionMix,
    /// 1x Llama-3-8B, FIFO, 128K-1M prompts, lookahead, token faults.
    LongCtxSingle,
    /// One head trace, ITQ, and a Fig 3/4 SCF-threshold sweep.
    TraceSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetCrash,
        Workload::SessionMix,
        Workload::LongCtxSingle,
        Workload::TraceSweep,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetCrash => "fleet_crash",
            Workload::SessionMix => "session_mix",
            Workload::LongCtxSingle => "long_ctx_single",
            Workload::TraceSweep => "trace_sweep",
        }
    }

    /// Parses a command-line name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid workloads.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (one of {})", names.join(", "))
            })
    }
}

/// Run-size preset: `Full` is the benchmark, `Tiny` the self-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` runs.
    Full,
    /// A few-second version of every workload for the self-tests.
    Tiny,
}

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Host seconds the measured repetitions may take.
    pub seconds: f64,
    /// `false`: plain run, end-to-end metrics. `true`: layer run,
    /// per-layer metrics.
    pub trace: bool,
    /// Run size.
    pub scale: Scale,
}

/// Metrics a plain run reports, with units. Every workload reports all of
/// them.
pub const END_TO_END: &[(&str, &str)] = &[("host_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics a layer run reports, with units. Every workload
/// reports all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Simulated outcomes of the serving workloads (deterministic per seed).
    ("sim_int_p50_request_ms", "sim_ms"),
    ("sim_int_p99_request_ms", "sim_ms"),
    ("sim_int_completions", "count"),
    ("sim_p50_token_ms", "sim_ms"),
    ("sim_p99_token_ms", "sim_ms"),
    ("sim_throughput_tps", "sim_tok/s"),
    ("sim_offered", "count"),
    ("sim_completed", "count"),
    ("failed_frac", "ratio"),
    // Step model: ServingSystem::evaluate behind a counting wrapper.
    ("step_model.calls", "count"),
    ("step_model.infeasible", "count"),
    ("step_model.host_ms", "host_ms"),
    ("step_model.us_per_call", "host_us"),
    ("step_model.detail_host_ms", "host_ms"),
    ("drex.layer_host_ms", "host_ms"),
    ("drex.replayed_shapes", "count"),
    // Serving driver + scheduler + router (self time).
    ("driver.self_host_ms", "host_ms"),
    ("driver.ns_per_token", "host_ns"),
    ("driver.ns_per_request", "host_ns"),
    ("layer_run.host_ms", "host_ms"),
    ("layer_run.overhead_x", "ratio"),
    ("sched.decode_tokens", "count"),
    ("sched.prefill_chunks", "count"),
    ("sched.preemptions", "count"),
    ("sched.resumes", "count"),
    ("sched.rejected", "count"),
    ("sched.prefill_work_s", "sim_s"),
    ("router.placements", "count"),
    ("router.redispatches", "count"),
    ("fleet.crashes", "count"),
    ("fleet.shed", "count"),
    ("fleet.downtime_s", "sim_s"),
    // Prefix cache.
    ("prefix.hits", "count"),
    ("prefix.pulls", "count"),
    ("prefix.pulled_pages", "count"),
    ("prefix.cold_turns", "count"),
    ("prefix.reuse_ratio", "ratio"),
    // Lookahead and token faults.
    ("spec.hits", "count"),
    ("spec.misses", "count"),
    ("spec.denied", "count"),
    ("spec.hit_ratio", "ratio"),
    ("faults.events", "count"),
    ("faults.retried_tokens", "count"),
    ("faults.degraded_tokens", "count"),
    ("faults.failed_requests", "count"),
    // Per-token attribution means (TokenAttribution).
    ("attr.window_ms", "sim_ms"),
    ("attr.weights_ms", "sim_ms"),
    ("attr.merge_ms", "sim_ms"),
    ("attr.filter_ms", "sim_ms"),
    ("attr.score_ms", "sim_ms"),
    ("attr.queue_ms", "sim_ms"),
    ("attr.link_ms", "sim_ms"),
    ("attr.retry_ms", "sim_ms"),
    ("attr.spec_miss_ms", "sim_ms"),
    ("attr.overlap_hidden_ms", "sim_ms"),
    // Recorder: the same short window with and without recording.
    ("obs.recorded_host_ms", "host_ms"),
    ("obs.unrecorded_host_ms", "host_ms"),
    ("obs.overhead_x", "ratio"),
    ("obs.export_ms", "host_ms"),
    ("obs.trace_mb", "MB"),
    ("obs.timeseries_kb", "KB"),
    // core/model replayed on the trace_sweep trace.
    ("trace_eval.calls", "count"),
    ("trace_eval.host_ms", "host_ms"),
    ("tracegen.ms", "host_ms"),
    ("itq.train_ms", "host_ms"),
    ("itq.rotate_ms", "host_ms"),
    ("scf.scan_ms", "host_ms"),
    ("scf.keys_scanned", "count"),
    ("scf.ns_per_key", "host_ns"),
    ("scf.survivors", "count"),
    ("scf.filter_ratio", "ratio"),
    ("score.dot_ms", "host_ms"),
    ("topk.ms", "host_ms"),
    ("attend.ms", "host_ms"),
    ("trace_eval.other_ms", "host_ms"),
    ("topk_recall", "ratio"),
    ("output_rel_err", "ratio"),
    ("filter_ratio_at_budget", "ratio"),
    ("sweep.threshold", "count"),
    // Execution environment.
    ("exec.threads", "count"),
    ("exec.nproc", "count"),
];

/// The result of one run: named metric values plus the correctness
/// verdict.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// `(name, value)` pairs; units come from [`END_TO_END`] /
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (offered requests, or trace evaluations).
    pub attempted: u64,
    /// Operations that failed: rejected, shed or killed requests, plus
    /// one per failed correctness check.
    pub failed: u64,
    /// Descriptions of failed correctness checks (empty when correct).
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The recorded value of a metric, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Records a correctness check; a failed check counts as one failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
            self.failed += 1;
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Keeps exactly the metrics declared for the run's mode, in declared
    /// order, filling declared-but-missing ones with 0 (a layer the
    /// workload does not exercise). A metric the run produced but the mode
    /// does not declare is dropped.
    pub fn select(
        &self,
        declared: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        declared
            .iter()
            .map(|&(name, unit)| (name, unit, self.get(name).unwrap_or(0.0)))
            .collect()
    }
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. A non-finite value
/// prints as 0 and marks the result incorrect.
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut correct = out.correct();
    let mut body = Vec::new();
    for (name, unit, value) in out.select(declared) {
        let value = if value.is_finite() {
            value
        } else {
            correct = false;
            0.0
        };
        // `{:?}` is Rust's shortest round-trip form: every digit, and
        // always valid JSON for a finite value (`1.0`, `2.5e-7`).
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

/// Median of a non-empty sample (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// [`calibrate`] seconds on the reference machine that calibrated host
/// times are scaled to (a 2-core x86-64 host, unloaded).
pub const CALIBRATION_REF_S: f64 = 0.025;

/// Calibrated host seconds: the median over repetitions of each one's host
/// seconds over the mean of the [`calibrate`] seconds timed just before and
/// just after it (`calib` has one entry more than `times`), scaled to
/// [`CALIBRATION_REF_S`]. Other load on a shared machine slows everything
/// running at the time, in phases of seconds that can cover a whole run;
/// dividing by a reference computation timed in the same phase takes most
/// of that out, while a change to the repository moves only the numerator.
///
/// # Panics
///
/// Panics on an empty sample or unequal lengths.
pub fn calibrated(times: &[f64], calib: &[f64]) -> f64 {
    assert_eq!(
        times.len() + 1,
        calib.len(),
        "a calibration around every repetition"
    );
    let ratios: Vec<f64> = times
        .iter()
        .zip(calib.windows(2))
        .map(|(t, c)| 2.0 * t / (c[0] + c[1]))
        .collect();
    median(&ratios) * CALIBRATION_REF_S
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of this process so far, MB (`VmHWM`); 0 where
/// the kernel does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Most measured repetitions in one run.
pub const MAX_REPS: usize = 4096;

/// Host seconds of a fixed reference computation: sorting 2^20
/// pseudo-random `u64` keys, code no change to the repository touches.
/// Timed next to every measured repetition, it tells how fast the machine
/// ran at that moment.
pub fn calibrate() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut keys: Vec<u64> = (0..1 << 20)
        .map(|_| {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect();
    let t0 = Instant::now();
    keys.sort_unstable();
    std::hint::black_box(&keys);
    secs(t0)
}

/// Repeats `rep` until `seconds` of host time have passed (at least
/// `min_reps` times, at most `max_reps`), returning the per-repetition host
/// seconds, the [`calibrate`] seconds taken before the first and after
/// every repetition, and the first repetition's output.
pub fn repeat_for<T>(
    seconds: f64,
    min_reps: usize,
    max_reps: usize,
    mut rep: impl FnMut() -> T,
    mut same: impl FnMut(&T, &T) -> bool,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>, T) {
    let start = Instant::now();
    let mut calib = vec![calibrate()];
    let t0 = Instant::now();
    let first = std::hint::black_box(rep());
    let mut times = vec![secs(t0)];
    while times.len() < max_reps && (times.len() < min_reps || secs(start) < seconds) {
        calib.push(calibrate());
        let t0 = Instant::now();
        let again = std::hint::black_box(rep());
        times.push(secs(t0));
        let ok = same(&first, &again);
        out.check(ok, || {
            format!("repetition {} did not reproduce the first", times.len())
        });
    }
    calib.push(calibrate());
    (times, calib, first)
}

/// Runs one workload and returns its outcome (metrics selected by the
/// caller through [`result_json`]).
pub fn run(workload: Workload, args: &RunArgs) -> Outcome {
    let mut out = match workload {
        Workload::TraceSweep => sweep::run(args),
        w => serving::run(w, args),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.set("exec.threads", longsight_exec::thread_count() as f64);
    out.set("exec.nproc", nproc as f64);
    out
}

/// The worker-thread count the benchmark pins: two, or fewer on a host
/// with fewer cores, so hosts with more cores measure the same work split.
pub fn pinned_threads() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    nproc.clamp(1, 2)
}

/// First line of a command's standard output, or `unknown` when the
/// command is missing or fails. Waits for the command to end.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment stamp printed with every result: core count, pinned
/// worker threads, git commit (`unknown` outside a git checkout) and
/// compiler version, so numbers from different hosts are never compared
/// silently.
pub fn env_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "env: nproc={nproc} threads={} commit={} rustc=\"{}\"",
        longsight_exec::thread_count(),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["-V"]),
    )
}
