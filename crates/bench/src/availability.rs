//! Degradation-curve driver: SLO capacity and degradation counters under
//! injected faults, the experiment behind the `availability` bench and
//! `results/availability.txt`.
//!
//! Sweeps fault rate × offload deadline on a faults-enabled
//! [`LongSightSystem`]. For each cell it reports the largest batch still
//! meeting the latency SLO (via [`max_users_under_slo`], whose `evaluate`
//! routes through the faulted step-cost path) together with the fault
//! counters from a fixed-batch probe of the faulted DReX layer. A second
//! sweep runs the closed-loop serving simulation under token-level faults
//! and reports the retried / degraded / failed counters of
//! [`ServeMetrics`].
//!
//! Everything is seed-deterministic: the same fault seed reproduces the
//! exact fault timeline (and therefore every number here) at any thread
//! count.

use longsight_faults::{FaultInjector, FaultKind, FaultProfile, RetryPolicy};
use longsight_model::ModelConfig;
use longsight_obs::Recorder;
use longsight_system::serving::{run, RunSpec, ServeMetrics, WorkloadConfig};
use longsight_system::slo::{max_users_under_slo, SloCapacity};
use longsight_system::{LongSightConfig, LongSightSystem, ServingSystem};

/// One cell of the rate × deadline capacity sweep.
#[derive(Debug, Clone)]
pub struct AvailabilityPoint {
    /// Injected fault rate (the [`FaultProfile::scaled`] knob).
    pub rate: f64,
    /// Per-attempt offload deadline, ms.
    pub deadline_ms: f64,
    /// SLO capacity under these faults.
    pub capacity: SloCapacity,
    /// Tokens that retried but completed, in a fixed-batch layer probe.
    pub retried_tokens: usize,
    /// Tokens degraded to window-only attention in the same probe.
    pub degraded_tokens: usize,
    /// CXL link CRC-replay events in the probe.
    pub link_replays: usize,
    /// NMA slices hit by a straggler multiplier in the probe.
    pub straggled_slices: usize,
}

/// Builds a faults-enabled system for one sweep cell.
fn faulted_system(model: &ModelConfig, rate: f64, deadline_ms: f64, seed: u64) -> LongSightSystem {
    let mut cfg = LongSightConfig::paper_default().with_faults(FaultProfile::scaled(rate), seed);
    cfg.retry.offload_deadline_ns = deadline_ms * 1e6;
    LongSightSystem::new(cfg, model.clone())
}

/// Sweeps fault rate × deadline at one context/SLO point.
///
/// `probe_users` fixes the batch size used for the fault-counter probe so
/// the counters are comparable across cells (capacity itself varies).
pub fn capacity_sweep(
    model: &ModelConfig,
    context: usize,
    slo_ms: f64,
    rates: &[f64],
    deadlines_ms: &[f64],
    probe_users: usize,
    seed: u64,
) -> Vec<AvailabilityPoint> {
    let mut points = Vec::new();
    for &deadline_ms in deadlines_ms {
        for &rate in rates {
            let mut sys = faulted_system(model, rate, deadline_ms, seed);
            let capacity = max_users_under_slo(&mut sys, context, slo_ms);
            let probe = sys.drex_layer_faulty(probe_users, context);
            points.push(AvailabilityPoint {
                rate,
                deadline_ms,
                capacity,
                retried_tokens: probe.stats.retried_tokens,
                degraded_tokens: probe.stats.degraded_tokens,
                link_replays: probe
                    .log
                    .count_matching(|k| matches!(k, FaultKind::LinkReplay { .. })),
                straggled_slices: probe.straggled_slices,
            });
        }
    }
    points
}

/// One row of the serving-simulation sweep.
#[derive(Debug, Clone)]
pub struct ServingFaultPoint {
    /// Injected fault rate.
    pub rate: f64,
    /// Metrics of the faulted closed-loop run.
    pub metrics: ServeMetrics,
    /// Fault events logged during the run.
    pub events: usize,
}

/// Runs the closed-loop serving simulation across fault rates.
///
/// Token-level faults (offload timeouts, hard failures) resolve through the
/// retry/deadline degradation policy; the returned metrics carry the
/// retried / degraded / failed counters.
pub fn serving_sweep(
    model: &ModelConfig,
    workload: &WorkloadConfig,
    rates: &[f64],
    seed: u64,
) -> Vec<ServingFaultPoint> {
    let mut points = Vec::new();
    for &rate in rates {
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let spec = RunSpec {
            token_faults: Some((
                FaultInjector::new(FaultProfile::scaled(rate), seed),
                RetryPolicy::serving_default(),
            )),
            ..RunSpec::new(model.clone(), workload.clone())
        };
        let mut systems = [&mut sys as &mut dyn ServingSystem];
        let (metrics, _, log) = run(&mut systems, &spec, &mut Recorder::disabled(), None)
            .expect("one replica without fault domains runs");
        points.push(ServingFaultPoint {
            rate,
            metrics,
            events: log.len(),
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_monotone_in_fault_rate() {
        let model = ModelConfig::llama3_1b();
        let rates = [0.0, 0.05, 0.2];
        let pts = capacity_sweep(&model, 131_072, 50.0, &rates, &[2.0], 4, 11);
        for pair in pts.windows(2) {
            assert!(
                pair[1].capacity.users <= pair[0].capacity.users,
                "capacity rose with fault rate: {:?} -> {:?}",
                pair[0].capacity,
                pair[1].capacity
            );
        }
        assert_eq!(pts[0].retried_tokens + pts[0].degraded_tokens, 0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let model = ModelConfig::llama3_1b();
        let run = || capacity_sweep(&model, 131_072, 50.0, &[0.1], &[2.0], 4, 11);
        let (a, b) = (run(), run());
        assert_eq!(a[0].capacity, b[0].capacity);
        assert_eq!(a[0].link_replays, b[0].link_replays);
        assert_eq!(a[0].straggled_slices, b[0].straggled_slices);
    }
}
