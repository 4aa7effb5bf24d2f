//! Helpers shared by the integration suites. Each test binary compiles its
//! own copy of this module and uses a subset of it.
#![allow(dead_code)]

use longsight::exec;
use longsight::faults::{FaultInjector, FaultLog, RetryPolicy};
use longsight::model::ModelConfig;
use longsight::obs::Recorder;
use longsight::system::serving::{run, RunSpec, ServeMetrics, WorkloadConfig};
use longsight::system::{LongSightConfig, LongSightSystem, ServingSystem, TokenAttribution};
use std::sync::Mutex;

/// One FIFO replica of `sys` serving `wl` through [`run`], under token
/// `faults`, with `rec` and `attr` attached.
pub fn serve_one(
    sys: &mut dyn ServingSystem,
    model: &ModelConfig,
    wl: &WorkloadConfig,
    faults: Option<(&FaultInjector, &RetryPolicy)>,
    rec: &mut Recorder,
    attr: Option<&mut TokenAttribution>,
) -> (ServeMetrics, FaultLog) {
    let spec = RunSpec {
        token_faults: faults.map(|(inj, retry)| (inj.clone(), *retry)),
        ..RunSpec::new(model.clone(), wl.clone())
    };
    let (m, _, log) = run(&mut [sys], &spec, rec, attr).expect("one replica runs");
    (m, log)
}

/// The worker-count override is process-global, so tests that sweep it must
/// not interleave. Each test binary has its own lock.
pub static THREAD_LOCK: Mutex<()> = Mutex::new(());

/// Thread counts exercised: exact serial, a fixed pool, and whatever the
/// host hardware reports (deduplicated).
pub fn thread_counts() -> Vec<usize> {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 4];
    if !counts.contains(&hw) {
        counts.push(hw);
    }
    counts
}

/// Runs `f` once per thread count, holding [`THREAD_LOCK`], and returns
/// the per-count results.
pub fn across_thread_counts<R>(f: impl Fn() -> R) -> Vec<(usize, R)> {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let out = thread_counts()
        .into_iter()
        .map(|t| {
            exec::set_thread_count(t);
            (t, f())
        })
        .collect();
    exec::set_thread_count(0);
    out
}

/// `n` Llama-3-1B LongSight replicas under the paper's default config.
pub fn fleet_of(n: usize) -> Vec<Box<dyn ServingSystem>> {
    let model = ModelConfig::llama3_1b();
    (0..n)
        .map(|_| {
            Box::new(LongSightSystem::new(
                LongSightConfig::paper_default(),
                model.clone(),
            )) as Box<dyn ServingSystem>
        })
        .collect()
}

/// The 64-bit FNV-1a hash of `text`: a short pin for a long export.
pub fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
