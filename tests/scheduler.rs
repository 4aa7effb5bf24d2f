//! Scheduler contract — the `longsight-sched` continuous-batching layer.
//!
//! Three promises are pinned here:
//!
//! 1. **Legacy equivalence.** The scheduler is now the single serving
//!    implementation; with the default all-interactive FIFO options, the
//!    one-replica `run` must reproduce the
//!    pre-scheduler metrics **bit-identically** (values captured from the
//!    legacy loop before the rewire, including the fault log's FNV-1a
//!    fingerprint, and re-captured once when simulated time became whole
//!    picoseconds).
//! 2. **Memory safety.** The paged KV manager never exceeds the HBM
//!    watermark ceiling in enforce mode, never leaks a page, and its
//!    end-of-run audit is clean — at any worker-thread count, with
//!    bit-identical reports.
//! 3. **SLO value.** On a mixed fleet under HBM pressure, the SLO-aware
//!    policy strictly improves the interactive p99 token latency over FIFO
//!    fed byte-identical arrivals (the `results/sched_comparison.txt`
//!    claim).

use longsight::faults::{FaultInjector, FaultProfile, RetryPolicy};
use longsight::model::ModelConfig;
use longsight::obs::Recorder;
use longsight::sched::SchedReport;
use longsight::sched::{SchedPolicy, SloClass, SloMix};
use longsight::system::serving::{run, RunSpec, SchedOptions, ServeMetrics, WorkloadConfig};
use longsight::system::{LongSightConfig, LongSightSystem, ServingSystem};

mod common;

use common::{across_thread_counts, fnv1a};

/// One replica serving `spec`: the run's metrics and its scheduler report.
fn scheduled(sys: &mut LongSightSystem, spec: &RunSpec) -> (ServeMetrics, SchedReport) {
    let mut systems = [sys as &mut dyn ServingSystem];
    let mut rec = Recorder::disabled();
    let (m, mut fleet, _) = run(&mut systems, spec, &mut rec, None).expect("one replica runs");
    (m, fleet.replicas.swap_remove(0))
}

fn workload(rate: f64, seed: u64, dur: f64, ctx: (usize, usize)) -> WorkloadConfig {
    WorkloadConfig {
        arrivals_per_s: rate,
        context_tokens: ctx,
        output_tokens: (16, 64),
        duration_s: dur,
        seed,
    }
}

/// The mixed-fleet configuration behind `results/sched_comparison.txt`:
/// tight HBM watermark so best-effort decoders get evicted to DReX, small
/// prefill chunks so prefill piggybacks into memory-bound decode steps.
fn pressure_opts(policy: SchedPolicy) -> SchedOptions {
    SchedOptions {
        policy,
        mix: SloMix::mixed(),
        page_tokens: 1024,
        prefill_chunk_tokens: 128,
        prefill_slots: 1,
        hbm_watermark: 0.01,
    }
}

/// One pinned legacy load point: workload knobs, expected completion count,
/// and the bit patterns of the six reported metrics
/// (tput, p50/p99 token, p50/p99 request, mean batch).
type PinnedRun = (f64, u64, f64, (usize, usize), usize, [u64; 6]);

#[test]
fn fifo_default_reproduces_legacy_metrics_bit_exact() {
    // Captured from the pre-scheduler serving loop, then moved once by the
    // picosecond clock's rounding (each value within 1e-10 relative of the
    // capture; the counts and the mean batch did not move).
    let pinned: [PinnedRun; 3] = [
        (
            2.0,
            3,
            5.0,
            (32_768, 65_536),
            9,
            [
                0x4052f33c085371cd,
                0x3ff4b4c8a9d276db,
                0x3ff7edf6f26537bd,
                0x4083d6e45a56a771,
                0x4088e58c773b1fe6,
                0x3ff017e225515a4f,
            ],
        ),
        (
            8.0,
            11,
            8.0,
            (32_768, 262_144),
            58,
            [
                0x40708560a94df857,
                0x3ffd761d7358674a,
                0x400aa8765a71b2ed,
                0x40a4164a54d428f3,
                0x40c2150bb127b9c7,
                0x3ff23c82f866c96e,
            ],
        ),
        (
            16.0,
            11,
            8.0,
            (32_768, 131_072),
            112,
            [
                0x4080cddee8d17834,
                0x3ffd9cdd245dd84d,
                0x4004df0ff3e05969,
                0x4091d4017bea871d,
                0x40a44b4a1eeaeb8a,
                0x3ff6c43178ccaa1a,
            ],
        ),
    ];
    for (rate, seed, dur, ctx, completed, bits) in pinned {
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let spec = RunSpec::new(model.clone(), workload(rate, seed, dur, ctx));
        let (m, _) = scheduled(&mut sys, &spec);
        assert_eq!(m.completed, completed, "rate {rate}");
        assert_eq!(m.rejected, 0, "rate {rate}");
        assert_eq!(m.in_flight, 0, "rate {rate}");
        let got = [
            m.throughput_tps.to_bits(),
            m.p50_token_ms.to_bits(),
            m.p99_token_ms.to_bits(),
            m.p50_request_ms.to_bits(),
            m.p99_request_ms.to_bits(),
            m.mean_batch.to_bits(),
        ];
        assert_eq!(got, bits, "metrics drifted from legacy at rate {rate}");
    }
}

#[test]
fn fifo_faulted_reproduces_legacy_log_bit_exact() {
    let model = ModelConfig::llama3_1b();
    let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
    let wl = workload(2.0, 3, 5.0, (32_768, 65_536));
    let inj = FaultInjector::new(FaultProfile::scaled(0.2), 11);
    let retry = RetryPolicy::serving_default();
    let spec = RunSpec {
        token_faults: Some((inj, retry)),
        ..RunSpec::new(model.clone(), wl)
    };
    let mut systems = [&mut sys as &mut dyn ServingSystem];
    let (m, _, log) = run(&mut systems, &spec, &mut Recorder::disabled(), None).expect("runs");
    assert_eq!(m.completed, 8);
    assert_eq!(m.retried_tokens, 38);
    assert_eq!(m.degraded_tokens, 0);
    assert_eq!(m.failed_requests, 1);
    assert_eq!(m.p99_token_ms.to_bits(), 0x400ac0cabb4fa1d4);
    assert_eq!(m.throughput_tps.to_bits(), 0x4050fbda7d843504);
    assert_eq!(log.len(), 79);
    assert_eq!(fnv1a(&log.to_text()), 0x359a49ad8600870b);
}

#[test]
fn memory_invariants_hold_at_any_thread_count() {
    let runs = across_thread_counts(|| {
        let model = ModelConfig::llama3_1b();
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let wl = workload(8.0, 11, 6.0, (16_384, 32_768));
        let spec = RunSpec {
            sched: pressure_opts(SchedPolicy::SloAware),
            ..RunSpec::new(model.clone(), wl)
        };
        let (m, rep) = scheduled(&mut sys, &spec);
        (m.to_text(), rep)
    });
    for (t, (_, rep)) in &runs {
        assert_eq!(rep.leaked_pages, 0, "page leak at {t} threads");
        assert_eq!(
            rep.invariant_violation, None,
            "ledger audit failed at {t} threads"
        );
        assert!(
            rep.pages.peak_hbm <= rep.pages.hbm_limit,
            "HBM watermark exceeded at {t} threads: {} > {}",
            rep.pages.peak_hbm,
            rep.pages.hbm_limit
        );
        assert!(rep.preemptions > 0, "pressure config must evict");
        assert_eq!(rep.preemptions, rep.resumes, "evicted work must resume");
    }
    // Bit-identical metrics and scheduler reports at every worker count.
    let (_, (text0, rep0)) = &runs[0];
    for (t, (text, rep)) in &runs[1..] {
        assert_eq!(text, text0, "metrics diverged at {t} threads");
        assert_eq!(rep, rep0, "scheduler report diverged at {t} threads");
    }
}

#[test]
fn slo_aware_strictly_improves_interactive_p99_token_latency() {
    let model = ModelConfig::llama3_1b();
    // Exactly the `results/sched_comparison.txt` 8 req/s row (the bench
    // draws outputs from 32-128 tokens, unlike the short-output pinned
    // legacy runs above).
    let wl = WorkloadConfig {
        output_tokens: (32, 128),
        ..workload(8.0, 11, 8.0, (16_384, 32_768))
    };
    let run = |policy| {
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let spec = RunSpec {
            sched: pressure_opts(policy),
            ..RunSpec::new(model.clone(), wl.clone())
        };
        scheduled(&mut sys, &spec).1
    };
    let fifo = run(SchedPolicy::Fifo);
    let slo = run(SchedPolicy::SloAware);
    let i = SloClass::Interactive.index();
    // Identical fleet: class draws depend only on the workload seed.
    for c in SloClass::ALL {
        assert_eq!(
            fifo.per_class[c.index()].arrived,
            slo.per_class[c.index()].arrived,
            "class draws must not depend on the policy"
        );
    }
    assert!(
        slo.per_class[i].p99_token_ms < fifo.per_class[i].p99_token_ms,
        "SLO-aware must strictly improve interactive p99 token latency: {} vs {}",
        slo.per_class[i].p99_token_ms,
        fifo.per_class[i].p99_token_ms
    );
    // No work is lost to preemption: everything admitted completes.
    assert_eq!(slo.per_class[i].failed, 0);
    let done: usize = slo.per_class.iter().map(|c| c.completed).sum();
    let arrived: usize = slo.per_class.iter().map(|c| c.arrived).sum();
    assert_eq!(done, arrived);
}
