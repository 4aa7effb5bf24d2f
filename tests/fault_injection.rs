//! End-to-end contracts of the fault-injection layer.
//!
//! * **Rate-0 identity** — a disabled injector must leave every number
//!   produced by the stack byte-identical to the fault-free path: the
//!   goldens under `results/` and the bit-identity promise of
//!   `longsight-exec` survive with faults compiled in but switched off.
//! * **Monotone degradation** — raising the fault rate can only cost
//!   capacity: the SLO search never admits *more* users under a higher
//!   rate, and degraded-token counters only grow.
//! * **Accounting** — every degraded token in the metrics corresponds to a
//!   `Degraded` event in the deterministic fault log, and each one implies
//!   a full retry ladder of timeouts before it.

use longsight::faults::{FaultInjector, FaultKind, FaultProfile, RetryPolicy};
use longsight::model::ModelConfig;
use longsight::obs::Recorder;
mod common;

use common::serve_one;
use longsight::system::serving::WorkloadConfig;
use longsight::system::slo::max_users_under_slo;
use longsight::system::{LongSightConfig, LongSightSystem, LookaheadConfig, ServingSystem};

fn short_workload() -> WorkloadConfig {
    WorkloadConfig {
        duration_s: 3.0,
        ..WorkloadConfig::long_context_chat()
    }
}

#[test]
fn disabled_faults_reproduce_the_fault_free_stack() {
    let model = ModelConfig::llama3_8b();

    // Step-cost path: a config with a disabled profile is the same system.
    let mut plain = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
    let mut gated = LongSightSystem::new(
        LongSightConfig::paper_default().with_faults(FaultProfile::disabled(), 99),
        model.clone(),
    );
    let a = plain.evaluate(8, 131_072).unwrap();
    let b = gated.evaluate(8, 131_072).unwrap();
    assert_eq!(a, b, "disabled fault profile changed the step report");

    // Serving path: a disabled injector is no injector: same metrics, empty log.
    let workload = short_workload();
    let baseline = serve_one(
        &mut plain,
        &model,
        &workload,
        None,
        &mut Recorder::disabled(),
        None,
    )
    .0;
    let (faulted, log) = serve_one(
        &mut gated,
        &model,
        &workload,
        Some((&FaultInjector::disabled(), &RetryPolicy::serving_default())),
        &mut Recorder::disabled(),
        None,
    );
    assert_eq!(baseline, faulted);
    assert!(log.is_empty());
    assert_eq!(faulted.retried_tokens, 0);
    assert_eq!(faulted.degraded_tokens, 0);
    assert_eq!(faulted.failed_requests, 0);
}

#[test]
fn slo_capacity_never_rises_with_the_fault_rate() {
    let model = ModelConfig::llama3_1b();
    let mut prev_users = usize::MAX;
    for rate in [0.0, 0.05, 0.2] {
        let mut sys = LongSightSystem::new(
            LongSightConfig::paper_default().with_faults(FaultProfile::scaled(rate), 11),
            model.clone(),
        );
        let cap = max_users_under_slo(&mut sys, 131_072, 50.0);
        assert!(
            cap.users <= prev_users,
            "rate {rate} admitted {} users, more than {prev_users} at a lower rate",
            cap.users
        );
        prev_users = cap.users;
    }
}

#[test]
fn degraded_tokens_match_logged_degradation_events() {
    let model = ModelConfig::llama3_8b();
    // Timeout-only profile with a high rate so retries actually exhaust.
    let profile = FaultProfile {
        timeout_rate: 0.6,
        ..FaultProfile::disabled()
    };
    let retry = RetryPolicy::serving_default();
    let inj = FaultInjector::new(profile, 7);
    let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
    let (metrics, log) = serve_one(
        &mut sys,
        &model,
        &short_workload(),
        Some((&inj, &retry)),
        &mut Recorder::disabled(),
        None,
    );

    let degraded_events = log.count_matching(|k| matches!(k, FaultKind::Degraded));
    let timeouts = log.count_matching(|k| matches!(k, FaultKind::Timeout { .. }));
    assert!(
        metrics.degraded_tokens > 0,
        "rate 0.6 should degrade tokens"
    );
    assert_eq!(
        metrics.degraded_tokens, degraded_events,
        "every degraded token must log exactly one Degraded event"
    );
    // A degraded token burned the full ladder: max_retries + 1 timeouts.
    assert!(
        timeouts >= metrics.degraded_tokens * (retry.max_retries as usize + 1),
        "degraded tokens imply a full timeout ladder each"
    );
    assert!(metrics.degraded_quality_delta > 0.0);
}

#[test]
fn faulted_runs_are_reproducible_under_a_seed() {
    let model = ModelConfig::llama3_8b();
    let run = |seed: u64| {
        let inj = FaultInjector::new(FaultProfile::severe(), seed);
        let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        serve_one(
            &mut sys,
            &model,
            &short_workload(),
            Some((&inj, &RetryPolicy::serving_default())),
            &mut Recorder::disabled(),
            None,
        )
    };
    let (m1, l1) = run(11);
    let (m2, l2) = run(11);
    assert_eq!(m1, m2, "same fault seed must reproduce identical metrics");
    assert_eq!(l1.to_text(), l2.to_text());

    let (m3, l3) = run(12);
    assert!(
        l3.to_text() != l1.to_text() || m3 != m1,
        "different fault seeds should produce a different timeline"
    );
}

/// Lookahead with a zero stale-rate: every speculation miss below must come
/// from an injected fault voiding the in-flight slice.
fn void_only_lookahead() -> LookaheadConfig {
    LookaheadConfig {
        miss_rate: 0.0,
        ..LookaheadConfig::serving_default()
    }
}

#[test]
fn injected_faults_void_in_flight_slots_without_double_retry() {
    let model = ModelConfig::llama3_8b();
    let workload = short_workload();
    let retry = RetryPolicy::serving_default();
    let run = |lookahead: Option<LookaheadConfig>| {
        let mut cfg = LongSightConfig::paper_default();
        if let Some(la) = lookahead {
            cfg = cfg.with_lookahead(la);
        }
        let mut sys = LongSightSystem::new(cfg, model.clone());
        let inj = FaultInjector::new(FaultProfile::scaled(0.2), 11);
        serve_one(
            &mut sys,
            &model,
            &workload,
            Some((&inj, &retry)),
            &mut Recorder::disabled(),
            None,
        )
    };
    let (off_m, off_log) = run(None);
    let (on_m, on_log) = run(Some(void_only_lookahead()));

    // The fault voided slices: with the stale-rate at zero, every miss is a
    // voided in-flight slot, charged as a miss.
    assert!(
        on_m.spec_misses > 0,
        "rate 0.2 should void some in-flight slices"
    );
    assert_eq!(on_m.spec_denied, 0, "paper-default pool should not starve");

    // Never double-retried: the void draw lives on its own stream
    // coordinate, so every token runs the exact same retry ladder with
    // speculation on or off. Hit steps finish sooner and reorder the global
    // timeline, so compare the ladders as a multiset of log lines.
    let ladder = |log: &longsight::faults::FaultLog| {
        let text = log.to_text();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        lines.join("\n")
    };
    assert_eq!(ladder(&on_log), ladder(&off_log));
    assert_eq!(on_m.retried_tokens, off_m.retried_tokens);
    assert_eq!(on_m.degraded_tokens, off_m.degraded_tokens);
    assert_eq!(on_m.failed_requests, off_m.failed_requests);
}

#[test]
fn rate_zero_lookahead_is_byte_identical_across_reruns() {
    let model = ModelConfig::llama3_8b();
    let workload = short_workload();
    let run = || {
        let cfg =
            LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default());
        let mut sys = LongSightSystem::new(cfg, model.clone());
        let mut rec = Recorder::enabled();
        let (m, log) = serve_one(&mut sys, &model, &workload, None, &mut rec, None);
        (
            m,
            log.to_text(),
            rec.chrome_trace_json(),
            rec.metrics_json(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "fault-free lookahead reruns diverged");
    assert!(a.1.is_empty(), "no injector, no fault log");
}

#[test]
fn fault_log_and_instants_agree_with_speculation_on() {
    let model = ModelConfig::llama3_8b();
    let cfg = LongSightConfig::paper_default().with_lookahead(void_only_lookahead());
    let mut sys = LongSightSystem::new(cfg, model.clone());
    let mut rec = Recorder::enabled();
    let inj = FaultInjector::new(FaultProfile::scaled(0.2), 11);
    let retry = RetryPolicy::serving_default();
    let (m, log) = serve_one(
        &mut sys,
        &model,
        &short_workload(),
        Some((&inj, &retry)),
        &mut rec,
        None,
    );
    assert!(!log.is_empty(), "rate 0.2 should fire events");
    assert_eq!(
        rec.instants_matching("fault."),
        log.len(),
        "speculation must not add or swallow fault instants"
    );
    assert_eq!(
        rec.instants_matching("spec.miss"),
        m.spec_misses,
        "every voided slice must surface as exactly one spec.miss instant"
    );
}
