//! Fleet time-series telemetry contract — the windowed sampler, the SLO
//! burn-rate engine, and the export formats, pinned end to end.
//!
//! Four promises:
//!
//! 1. **Bit-identical exports.** The TSV and JSON timeseries exports of a
//!    traced 2-replica crash run are byte-identical at 1, 4, and hardware
//!    worker threads, and across same-seed reruns — the sampler is driven
//!    by simulated time only.
//! 2. **The crash is visible.** On the seed-11 crash run the breaker
//!    series trips to open (2) and recovers below open, the replica
//!    up/down gauge drops and returns, and the burn-rate engine fires at
//!    least one `slo.burn` alert window with matching trace instants.
//! 3. **Telemetry is free when off.** The same run without timeseries
//!    yields a `ServeMetrics`/`FleetReport` equal to the telemetry run
//!    modulo the `slo_burn` summary, and report text that differs only by
//!    the burn block.
//! 4. **Exports round-trip.** `Export::parse` reads both the TSV and the
//!    JSON form back into the same columns the sampler produced.

use longsight::faults::ReplicaFaultProfile;
use longsight::model::ModelConfig;
use longsight::obs::timeseries::Export;
use longsight::obs::{BurnConfig, Recorder};
use longsight::sched::{BreakerConfig, FleetReport, SchedPolicy, SloMix};
use longsight::system::serving::{
    run, FleetFaultOptions, RunSpec, SchedOptions, ServeMetrics, WorkloadConfig,
};

mod common;

use common::{across_thread_counts, fleet_of, fnv1a, THREAD_LOCK};

/// The CLI defaults for `--sched slo-aware` — the same operating point the
/// `results/fleet_timeseries.txt` golden is rendered from.
fn opts() -> SchedOptions {
    SchedOptions {
        policy: SchedPolicy::SloAware,
        mix: SloMix::mixed(),
        page_tokens: 1024,
        prefill_chunk_tokens: 8192,
        prefill_slots: 1,
        hbm_watermark: 0.9,
    }
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        arrivals_per_s: 10.0,
        context_tokens: (16_384, 32_768),
        output_tokens: (32, 128),
        duration_s: 6.0,
        seed: 11,
    }
}

/// Seed 11 gives a single-replica crash plus brownouts at this rate — the
/// regime the checked-in `results/fleet_timeseries.txt` golden renders.
fn crashy() -> FleetFaultOptions {
    FleetFaultOptions {
        profile: ReplicaFaultProfile::scaled(0.1),
        fault_seed: 11,
        breaker: Some(BreakerConfig::serving_default()),
        shed_queue_cap: None,
    }
}

struct TracedRun {
    metrics: ServeMetrics,
    report: FleetReport,
    tsv: String,
    json: String,
    trace: String,
}

fn run_crashy(timeseries: bool) -> TracedRun {
    let spec = RunSpec {
        sched: opts(),
        faults: crashy(),
        ..RunSpec::new(ModelConfig::llama3_1b(), workload())
    };
    let mut rec = Recorder::enabled();
    if timeseries {
        rec.enable_timeseries(250e6, BurnConfig::default());
    }
    let (metrics, report, _) = run(&mut fleet_of(2), &spec, &mut rec, None).expect("fleet runs");
    TracedRun {
        metrics,
        report,
        tsv: rec.timeseries.to_tsv(),
        json: rec.timeseries.to_json(),
        trace: rec.chrome_trace_json(),
    }
}

fn column<'a>(export: &'a Export, name: &str) -> &'a [Option<f64>] {
    &export
        .columns
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("export is missing series '{name}'"))
        .1
}

#[test]
fn exports_are_bit_identical_across_thread_counts_and_reruns() {
    let runs = across_thread_counts(|| {
        let a = run_crashy(true);
        let b = run_crashy(true);
        assert_eq!(a.tsv, b.tsv, "same-seed rerun must export identical TSV");
        assert_eq!(a.json, b.json, "same-seed rerun must export identical JSON");
        (a.tsv, a.json)
    });
    let (_, (tsv0, json0)) = &runs[0];
    for (threads, (tsv, json)) in &runs[1..] {
        assert_eq!(tsv, tsv0, "TSV export differs at {threads} threads");
        assert_eq!(json, json0, "JSON export differs at {threads} threads");
    }
}

#[test]
fn seed11_crash_run_shows_breaker_trip_recovery_and_burn_alerts() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = run_crashy(true);
    let export = Export::parse(&run.tsv).expect("own TSV export must parse");

    // The breaker on the crashed replica trips to open (2) and comes back
    // below open after recovery; the up/down gauge mirrors it.
    let tripped: Vec<usize> = (0..run.report.replicas.len())
        .filter(|r| column(&export, &format!("r{r}.breaker")).contains(&Some(2.0)))
        .collect();
    assert!(!tripped.is_empty(), "no breaker series ever tripped open");
    for r in &tripped {
        let breaker = column(&export, &format!("r{r}.breaker"));
        let open_at = breaker.iter().position(|v| *v == Some(2.0)).expect("trip");
        assert!(
            breaker[open_at..]
                .iter()
                .any(|v| matches!(v, Some(l) if *l < 2.0)),
            "r{r}.breaker never recovered below open after tripping"
        );
        let up = column(&export, &format!("r{r}.up"));
        assert!(up.contains(&Some(0.0)), "r{r}.up never recorded the crash");
        let down_at = up.iter().position(|v| *v == Some(0.0)).expect("down");
        assert!(
            up[down_at..].contains(&Some(1.0)),
            "r{r}.up never recorded the recovery"
        );
    }

    // The burn-rate engine fired: alert windows in the export, a summary
    // on both reports, and matching trace instants.
    let alerts = column(&export, "slo.burn.alert")
        .iter()
        .filter(|v| **v == Some(1.0))
        .count();
    assert!(alerts >= 1, "expected at least one slo.burn alert window");
    let burn = run.metrics.slo_burn.as_ref().expect("metrics burn summary");
    assert_eq!(burn.alert_windows as usize, alerts);
    assert!(burn.misses > 0 && burn.completions >= burn.misses);
    assert!(burn.consumed > 1.0, "the crash run must exhaust the budget");
    assert_eq!(run.report.slo_burn, run.metrics.slo_burn);
    assert!(
        run.trace.contains("\"slo.burn\""),
        "trace must carry slo.burn instants"
    );
    assert!(
        run.metrics.to_text().contains("slo burn alerts:"),
        "text report must carry the burn block"
    );
}

#[test]
fn telemetry_off_changes_nothing_but_the_burn_summary() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let on = run_crashy(true);
    let off = run_crashy(false);
    assert!(off.metrics.slo_burn.is_none());
    assert!(off.report.slo_burn.is_none());
    assert_eq!(off.tsv, "", "disabled sampler must export nothing");

    let mut stripped_m = on.metrics.clone();
    stripped_m.slo_burn = None;
    assert_eq!(
        off.metrics, stripped_m,
        "telemetry must not perturb the serving metrics"
    );
    let mut stripped_r = on.report.clone();
    stripped_r.slo_burn = None;
    assert_eq!(
        off.report, stripped_r,
        "telemetry must not perturb the fleet report"
    );

    // Text reports differ only by the burn block.
    let burn_block = on
        .metrics
        .slo_burn
        .as_ref()
        .expect("burn summary")
        .to_text();
    assert_eq!(
        on.metrics.to_text(),
        format!("{}{burn_block}", off.metrics.to_text()),
        "metrics text must be the telemetry-off text plus the burn block"
    );
}

#[test]
fn tsv_and_json_exports_parse_to_the_same_columns() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = run_crashy(true);
    let from_tsv = Export::parse(&run.tsv).expect("TSV parse");
    let from_json = Export::parse(&run.json).expect("JSON parse");
    assert_eq!(from_tsv.window_ns, from_json.window_ns);
    assert_eq!(from_tsv.columns, from_json.columns);
    assert!(from_tsv.windows() > 0);
    assert!(from_tsv
        .columns
        .iter()
        .all(|(_, v)| v.len() == from_tsv.windows()));
}

/// A lone replica records unprefixed series and samples its scheduler
/// after every drain as well as after every step. Pinned by the FNV-1a
/// fingerprint of the TSV export of a short single-replica SLO-aware run,
/// the operating point of the lone-replica `loadtest --timeseries-out`
/// smoke in `scripts/ci.sh` (whose export hashes the same).
#[test]
fn lone_replica_timeseries_export_is_pinned() {
    let spec = RunSpec {
        sched: SchedOptions {
            prefill_chunk_tokens: 128,
            hbm_watermark: 0.01,
            ..SchedOptions::slo_aware(SloMix {
                interactive: 0.5,
                batch: 0.3,
                best_effort: 0.2,
            })
        },
        ..RunSpec::new(
            ModelConfig::llama3_1b(),
            WorkloadConfig {
                arrivals_per_s: 8.0,
                context_tokens: (16_384, 32_768),
                output_tokens: (32, 128),
                duration_s: 4.0,
                seed: 7,
            },
        )
    };
    let mut rec = Recorder::disabled();
    rec.enable_timeseries(250e6, BurnConfig::default());
    run(&mut fleet_of(1), &spec, &mut rec, None).expect("one replica runs");
    let tsv = rec.timeseries.to_tsv();
    assert!(tsv.contains("queue.interactive") && !tsv.contains("r0."));
    assert_eq!(
        fnv1a(&tsv),
        0xc3bd04989241b56b,
        "lone-replica TSV fingerprint"
    );
}
