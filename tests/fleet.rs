//! Fleet contract — multi-replica sharding behind the deterministic router.
//!
//! Three promises are pinned here:
//!
//! 1. **Single-replica equivalence.** `run` over one system, boxed or
//!    borrowed, reports the degenerate one-replica fleet of its own
//!    scheduler report, so the fleet layer costs nothing when there is no
//!    fleet.
//! 2. **Deterministic placement.** The router's placement log is a pure
//!    function of `(seed, arrival index, load)`: byte-identical at 1, 4,
//!    and hardware worker-thread counts, for both policies.
//! 3. **Conservation.** The cross-replica audit passes: every arrival is
//!    placed exactly once, each replica's arrivals match its placements,
//!    and no replica leaks pages.

use longsight::exec;
use longsight::model::ModelConfig;
use longsight::obs::Recorder;
use longsight::sched::FleetReport;
use longsight::sched::{RouterPolicy, SchedPolicy, SloMix};
use longsight::system::serving::{run, RunSpec, SchedOptions, ServeMetrics, WorkloadConfig};
use longsight::system::{LongSightConfig, LongSightSystem, ServingSystem};
use std::sync::Mutex;

/// The worker-count override is process-global, so tests that sweep it must
/// not interleave.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn thread_counts() -> Vec<usize> {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 4];
    if !counts.contains(&hw) {
        counts.push(hw);
    }
    counts
}

fn across_thread_counts<R>(f: impl Fn() -> R) -> Vec<(usize, R)> {
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

/// A best-effort-heavy mix under a tight watermark: the load point where
/// routing policy matters (plenty of scavenger traffic to spill).
fn skewed_opts() -> SchedOptions {
    SchedOptions {
        policy: SchedPolicy::SloAware,
        mix: SloMix {
            interactive: 0.2,
            batch: 0.2,
            best_effort: 0.6,
        },
        page_tokens: 1024,
        prefill_chunk_tokens: 128,
        prefill_slots: 1,
        hbm_watermark: 0.01,
    }
}

fn workload(rate: f64) -> WorkloadConfig {
    WorkloadConfig {
        arrivals_per_s: rate,
        context_tokens: (16_384, 32_768),
        output_tokens: (32, 128),
        duration_s: 4.0,
        seed: 11,
    }
}

fn fleet_of(n: usize) -> Vec<Box<dyn ServingSystem>> {
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

/// `fleet` serving [`workload`] at `rate` under [`skewed_opts`] and
/// `policy`.
fn serve<S: std::ops::DerefMut<Target = dyn ServingSystem>>(
    fleet: &mut [S],
    rate: f64,
    policy: RouterPolicy,
) -> (ServeMetrics, FleetReport) {
    let spec = RunSpec {
        sched: skewed_opts(),
        router: policy,
        ..RunSpec::new(ModelConfig::llama3_1b(), workload(rate))
    };
    let (m, rep, _) = run(fleet, &spec, &mut Recorder::disabled(), None).expect("fleet runs");
    (m, rep)
}

#[test]
fn single_replica_run_reports_its_degenerate_fleet() {
    let (m_boxed, rep_boxed) = serve(&mut fleet_of(1), 8.0, RouterPolicy::JsqSpillover);
    let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), ModelConfig::llama3_1b());
    let mut borrowed: [&mut dyn ServingSystem; 1] = [&mut sys];
    let (m, rep) = serve(&mut borrowed, 8.0, RouterPolicy::JsqSpillover);
    assert_eq!(m_boxed, m, "a boxed replica must run like a borrowed one");
    assert_eq!(rep_boxed, rep);
    let single = FleetReport::single(RouterPolicy::JsqSpillover, rep.replicas[0].clone());
    assert_eq!(rep, single, "one replica is the degenerate fleet");
    assert_eq!(rep.audit_violation, None);
    assert_eq!(rep.placements.len(), rep.total_arrived());
}

#[test]
fn placement_log_is_byte_identical_at_any_thread_count() {
    for policy in [RouterPolicy::JsqSpillover, RouterPolicy::RoundRobin] {
        let runs = across_thread_counts(|| {
            let (m, rep) = serve(&mut fleet_of(4), 12.0, policy);
            (rep.placement_log(), m.to_text(), rep)
        });
        for (t, (_, _, rep)) in &runs {
            assert_eq!(
                rep.audit_violation,
                None,
                "{} audit failed at {t} threads",
                policy.name()
            );
        }
        let (_, (log0, text0, rep0)) = &runs[0];
        assert!(!log0.is_empty(), "router must place something");
        for (t, (log, text, rep)) in &runs[1..] {
            assert_eq!(
                log,
                log0,
                "{} placement diverged at {t} threads",
                policy.name()
            );
            assert_eq!(text, text0, "metrics diverged at {t} threads");
            assert_eq!(rep, rep0, "fleet report diverged at {t} threads");
        }
    }
}

#[test]
fn fleet_conserves_arrivals_and_spreads_load() {
    let (m, rep) = serve(&mut fleet_of(4), 12.0, RouterPolicy::JsqSpillover);
    assert_eq!(rep.audit_violation, None);
    assert_eq!(rep.placements.len(), rep.total_arrived());
    // Every replica serves part of the load under JSQ.
    for i in 0..4 {
        assert!(
            rep.placements.iter().any(|&(_, r)| r == i),
            "replica {i} never used"
        );
    }
    // Fleet-wide conservation: everything placed either completed, was
    // rejected, is still in flight, or waits in a queue.
    let done: usize = rep.per_class.iter().map(|c| c.completed).sum();
    assert_eq!(m.completed, done);
    assert!(done > 0, "the fleet must finish work: {m:?}");
    // No replica exceeded its own watermark.
    for (i, r) in rep.replicas.iter().enumerate() {
        assert!(
            r.pages.peak_hbm <= r.pages.hbm_limit,
            "replica {i} broke its watermark"
        );
    }
}

#[test]
fn routers_disagree_under_skew() {
    // Sanity that the two policies are actually different controllers:
    // same offered load, different placement logs.
    let run = |policy| {
        let (_, rep) = serve(&mut fleet_of(2), 12.0, policy);
        rep.placement_log()
    };
    assert_ne!(
        run(RouterPolicy::JsqSpillover),
        run(RouterPolicy::RoundRobin)
    );
}
