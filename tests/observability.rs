//! Observability contract — the `longsight-obs` tracing/metrics layer.
//!
//! The tracer records **simulated** time on the serial control path of each
//! simulator, so exported traces must be byte-identical at any worker-thread
//! count and across same-seed reruns; the disabled recorder must be
//! invisible (same metrics as the uninstrumented entry points, nothing
//! captured); span trees must nest properly per track; every fault-log
//! entry must appear as exactly one `fault.*` trace instant; and the
//! per-token attribution table's total row must reproduce the run's
//! reported token-latency percentiles bit-for-bit.

use longsight::faults::{FaultInjector, FaultLog, FaultProfile, RetryPolicy};
use longsight::model::ModelConfig;
use longsight::obs::{json, Recorder};
use longsight::system::attribution::OVERLAP_HIDDEN;
mod common;

use common::{across_thread_counts, serve_one};
use longsight::system::serving::{ServeMetrics, WorkloadConfig};
use longsight::system::{
    LongSightConfig, LongSightSystem, LookaheadConfig, SpecCharge, TokenAttribution,
};

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        duration_s: 3.0,
        ..WorkloadConfig::long_context_chat()
    }
}

/// One fully-observed serving run: fault injection at `rate` (0.0 = none),
/// recording on, attribution collected.
fn observed_run(rate: f64) -> (ServeMetrics, FaultLog, Recorder, TokenAttribution) {
    let model = ModelConfig::llama3_8b();
    let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
    let mut rec = Recorder::enabled();
    let mut attr = TokenAttribution::new();
    let inj = FaultInjector::new(FaultProfile::scaled(rate), 11);
    let retry = RetryPolicy::serving_default();
    let faults = (rate > 0.0).then_some((&inj, &retry));
    let (metrics, log) = serve_one(
        &mut sys,
        &model,
        &workload(),
        faults,
        &mut rec,
        Some(&mut attr),
    );
    (metrics, log, rec, attr)
}

#[test]
fn trace_export_is_bit_identical_across_thread_counts_and_reruns() {
    let runs = across_thread_counts(|| {
        let export = |(m, log, rec, _): (ServeMetrics, FaultLog, Recorder, _)| {
            (
                rec.chrome_trace_json(),
                rec.metrics_json(),
                rec.text_report(),
                log.to_text(),
                m,
            )
        };
        let first = export(observed_run(0.2));
        // Same seed, same thread count: the export must not depend on any
        // ambient state between runs.
        let second = export(observed_run(0.2));
        assert_eq!(first, second, "same-seed reruns diverged");
        first
    });
    let (_, baseline) = &runs[0];
    assert!(
        baseline.0.contains("\"ph\":\"X\""),
        "trace should contain complete events"
    );
    for (threads, got) in &runs[1..] {
        assert_eq!(
            got, baseline,
            "trace/metrics export diverged at {threads} threads"
        );
    }
}

#[test]
fn disabled_recorder_is_invisible() {
    let model = ModelConfig::llama3_8b();
    let wl = workload();

    // Fault-free: the plain entry point and the observed one with a no-op
    // recorder must produce identical metrics, and nothing gets captured.
    let mut plain_sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
    let plain = serve_one(
        &mut plain_sys,
        &model,
        &wl,
        None,
        &mut Recorder::disabled(),
        None,
    )
    .0;
    let mut obs_sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
    let mut rec = Recorder::disabled();
    let (observed, _) = serve_one(&mut obs_sys, &model, &wl, None, &mut rec, None);
    assert_eq!(plain, observed, "disabled recorder changed the simulation");
    assert!(rec.spans().is_empty() && rec.instants().is_empty());

    // Faulted: same identity against an unrecorded faulted run.
    let inj = FaultInjector::new(FaultProfile::scaled(0.2), 11);
    let retry = RetryPolicy::serving_default();
    let mut plain_sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
    let (plain_m, plain_log) = serve_one(
        &mut plain_sys,
        &model,
        &wl,
        Some((&inj, &retry)),
        &mut Recorder::disabled(),
        None,
    );
    let mut obs_sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
    let mut rec = Recorder::disabled();
    let (obs_m, obs_log) = serve_one(
        &mut obs_sys,
        &model,
        &wl,
        Some((&inj, &retry)),
        &mut rec,
        None,
    );
    assert_eq!(plain_m, obs_m);
    assert_eq!(plain_log.to_text(), obs_log.to_text());
    assert!(rec.spans().is_empty() && rec.instants().is_empty());

    // Recording on must not perturb the simulation either: observability
    // reads the timeline, never steers it.
    let (traced_m, traced_log, _, _) = observed_run(0.2);
    assert_eq!(plain_m, traced_m, "enabled recorder changed the simulation");
    assert_eq!(plain_log.to_text(), traced_log.to_text());
}

#[test]
fn span_trees_are_well_formed() {
    for rate in [0.0, 0.2] {
        let (_, _, rec, _) = observed_run(rate);
        rec.validate_well_formed()
            .unwrap_or_else(|e| panic!("malformed trace at fault rate {rate}: {e}"));
        assert!(
            rec.spans().iter().any(|s| s.name == "decode.step"),
            "expected decode.step spans at fault rate {rate}"
        );
        assert!(
            rec.spans().iter().any(|s| s.name.starts_with("pfu.")),
            "expected offload-phase detail spans at fault rate {rate}"
        );
    }
}

#[test]
fn fault_log_and_trace_instants_agree() {
    let (_, log, rec, _) = observed_run(0.2);
    assert!(!log.to_text().is_empty(), "rate 0.2 should fire events");
    assert_eq!(
        rec.instants_matching("fault."),
        log.len(),
        "every fault-log entry must appear as exactly one trace instant"
    );

    let (_, log, rec, _) = observed_run(0.0);
    assert_eq!(log.len(), 0);
    assert_eq!(rec.instants_matching("fault."), 0);
}

#[test]
fn attribution_total_row_reconciles_with_serve_metrics() {
    for rate in [0.0, 0.2] {
        let (m, _, _, attr) = observed_run(rate);
        assert!(!attr.is_empty(), "attribution collected no samples");
        let (_, p50, p99) = attr.total_stats();
        assert_eq!(
            p50.to_bits(),
            m.p50_token_ms.to_bits(),
            "attribution p50 != reported p50 at fault rate {rate}"
        );
        assert_eq!(
            p99.to_bits(),
            m.p99_token_ms.to_bits(),
            "attribution p99 != reported p99 at fault rate {rate}"
        );
        // The mean column decomposes each token's latency exactly.
        let comp_mean: f64 = (0..8).map(|c| attr.component_stats(c).0).sum();
        let (total_mean, _, _) = attr.total_stats();
        assert!(
            (comp_mean - total_mean).abs() <= 1e-9 * total_mean.max(1.0),
            "component means {comp_mean} do not sum to total mean {total_mean}"
        );
    }
}

/// One fully-observed serving run with the lookahead pipeline on.
fn observed_lookahead_run(rate: f64) -> (ServeMetrics, FaultLog, Recorder, TokenAttribution) {
    let model = ModelConfig::llama3_8b();
    let cfg = LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default());
    let mut sys = LongSightSystem::new(cfg, model.clone());
    let mut rec = Recorder::enabled();
    let mut attr = TokenAttribution::new();
    let inj = FaultInjector::new(FaultProfile::scaled(rate), 11);
    let retry = RetryPolicy::serving_default();
    let faults = (rate > 0.0).then_some((&inj, &retry));
    let (metrics, log) = serve_one(
        &mut sys,
        &model,
        &workload(),
        faults,
        &mut rec,
        Some(&mut attr),
    );
    (metrics, log, rec, attr)
}

#[test]
fn spec_instants_agree_with_attribution_and_metrics_counts() {
    for rate in [0.0, 0.2] {
        let (m, _, rec, attr) = observed_lookahead_run(rate);
        let (hits, misses, denied) = attr.spec_counts();
        assert!(hits > 0, "rate {rate}: run speculated nothing");
        assert_eq!(
            (m.spec_hits, m.spec_misses, m.spec_denied),
            (hits, misses, denied),
            "rate {rate}: metrics and attribution disagree on resolutions"
        );
        // Every speculated token emits exactly one spec.hit or spec.miss
        // instant, and one spec.issue when its slot was granted.
        assert_eq!(
            rec.instants_matching("spec.hit"),
            hits,
            "rate {rate}: spec.hit instants != attributed hits"
        );
        assert_eq!(
            rec.instants_matching("spec.miss"),
            misses,
            "rate {rate}: spec.miss instants != attributed misses"
        );
        assert_eq!(
            rec.instants_matching("spec.issue"),
            hits + misses,
            "rate {rate}: every granted issue must resolve exactly once"
        );
    }
}

#[test]
fn spec_samples_reconstruct_the_unoverlapped_chain_bit_for_bit() {
    let (_, _, _, attr) = observed_lookahead_run(0.2);
    assert!(attr.has_spec(), "no speculated steps recorded");
    for s in attr.spec_steps() {
        // The recorded components must equal the defining subtractions with
        // the exact expression order `attribution_parts` uses — bit-for-bit,
        // so `overlap_hidden + visible + spec_miss` rebuilds the chain (plus
        // the penalty actually charged) with no float slack.
        match s.charge {
            SpecCharge::Hit => {
                assert_eq!(s.spec_miss_ns.to_bits(), 0.0f64.to_bits());
                assert_eq!(s.penalty_ns.to_bits(), 0.0f64.to_bits());
                assert_eq!(
                    s.overlap_hidden_ns.to_bits(),
                    (s.chain_ns - s.hit_visible_ns).to_bits(),
                    "hit: overlap_hidden != chain - hit_visible"
                );
            }
            SpecCharge::Miss => {
                assert_eq!(
                    s.spec_miss_ns.to_bits(),
                    ((s.serial_visible_ns - s.hit_visible_ns) + s.penalty_ns).to_bits(),
                    "miss: spec_miss != re-exposed wait + penalty"
                );
                assert_eq!(
                    s.overlap_hidden_ns.to_bits(),
                    (s.chain_ns - s.serial_visible_ns).to_bits(),
                    "miss: overlap_hidden != chain - serial_visible"
                );
            }
            SpecCharge::Denied => {
                assert_eq!(s.penalty_ns.to_bits(), 0.0f64.to_bits());
                assert_eq!(
                    s.spec_miss_ns.to_bits(),
                    (s.serial_visible_ns - s.hit_visible_ns).to_bits(),
                    "denied: spec_miss != re-exposed wait"
                );
                assert_eq!(
                    s.overlap_hidden_ns.to_bits(),
                    (s.chain_ns - s.serial_visible_ns).to_bits(),
                    "denied: overlap_hidden != chain - serial_visible"
                );
            }
        }
    }
}

#[test]
fn lookahead_attribution_total_row_reconciles_with_serve_metrics() {
    for rate in [0.0, 0.2] {
        let (m, _, _, attr) = observed_lookahead_run(rate);
        assert!(attr.has_spec(), "no speculated steps at rate {rate}");
        let (_, p50, p99) = attr.total_stats();
        assert_eq!(p50.to_bits(), m.p50_token_ms.to_bits());
        assert_eq!(p99.to_bits(), m.p99_token_ms.to_bits());
        // Every component except `overlap_hidden` joins the decomposition
        // identity; the hidden time sits outside each token's latency.
        let comp_mean: f64 = (0..OVERLAP_HIDDEN).map(|c| attr.component_stats(c).0).sum();
        let (total_mean, _, _) = attr.total_stats();
        assert!(
            (comp_mean - total_mean).abs() <= 1e-9 * total_mean.max(1.0),
            "rate {rate}: non-hidden component means {comp_mean} do not sum to {total_mean}"
        );
        assert!(
            attr.component_stats(OVERLAP_HIDDEN).0 > 0.0,
            "rate {rate}: lookahead hid nothing"
        );
    }
}

#[test]
fn chrome_trace_round_trips_through_the_json_parser() {
    let (_, _, rec, _) = observed_run(0.2);
    let trace = rec.chrome_trace_json();
    let v = json::parse(&trace).expect("exported trace must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace exported no events");
    let mut phases = (0usize, 0usize, 0usize);
    for ev in events {
        match ev.get("ph").and_then(|p| p.as_str()) {
            Some("X") => phases.0 += 1,
            Some("i") => phases.1 += 1,
            Some("M") => phases.2 += 1,
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(phases.0 > 0, "no complete events");
    assert!(phases.1 > 0, "no instants (faults should be present)");
    assert!(phases.2 > 0, "no metadata events");

    let metrics = rec.metrics_json();
    let v = json::parse(&metrics).expect("metrics export must be valid JSON");
    assert!(v.get("counters").is_some() && v.get("gauges").is_some());
}
