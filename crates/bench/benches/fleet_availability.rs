//! Fleet availability under replica crashes: goodput and interactive tail
//! latency vs crash rate, with and without the health-aware circuit
//! breaker, at 2 and 4 replicas.
//!
//! Every cell sees byte-identical arrivals and class draws (one workload
//! seed) and a byte-identical crash/brownout timeline (one fault seed, on
//! its own stream domains); only the replica count, crash rate, and
//! breaker mode differ. The trap this bench pins: a crashed replica has
//! every KV page freed, so to a health-blind JSQ router it looks like the
//! *emptiest* node in the fleet and attracts traffic precisely while it
//! can serve none — the naive rows wedge arrivals on dead replicas until
//! repair. The breaker rows learn the crash from observed behavior, fail
//! over, and hold the interactive p99 down. `results/fleet_availability.txt`
//! pins the claim; the bench itself asserts breaker-on beats breaker-off
//! on interactive p99 in every crashy cell.

use longsight_bench::print_table;
use longsight_faults::ReplicaFaultProfile;
use longsight_model::ModelConfig;
use longsight_obs::Recorder;
use longsight_sched::{BreakerConfig, SchedPolicy, SloClass, SloMix};
use longsight_system::serving::{run, FleetFaultOptions, RunSpec, SchedOptions, WorkloadConfig};
use longsight_system::{LongSightConfig, LongSightSystem, ServingSystem};

fn main() {
    let model = ModelConfig::llama3_1b();
    let wl = WorkloadConfig {
        arrivals_per_s: 10.0,
        context_tokens: (16_384, 32_768),
        output_tokens: (32, 128),
        duration_s: 10.0,
        seed: 11,
    };
    let opts = SchedOptions {
        policy: SchedPolicy::SloAware,
        mix: SloMix::mixed(),
        page_tokens: 1024,
        prefill_chunk_tokens: 128,
        prefill_slots: 1,
        hbm_watermark: 0.01,
    };

    let mut rows = Vec::new();
    for replicas in [2usize, 4] {
        for crash_rate in [0.0f64, 0.05, 0.1] {
            let mut p99_by_mode = [0.0f64; 2];
            for (mode, breaker) in [
                ("off", None),
                ("on", Some(BreakerConfig::serving_default())),
            ] {
                let fopts = FleetFaultOptions {
                    profile: if crash_rate > 0.0 {
                        ReplicaFaultProfile::scaled(crash_rate)
                    } else {
                        ReplicaFaultProfile::disabled()
                    },
                    fault_seed: 11,
                    breaker,
                    shed_queue_cap: None,
                };
                let mut fleet: Vec<Box<dyn ServingSystem>> = (0..replicas)
                    .map(|_| {
                        Box::new(LongSightSystem::new(
                            LongSightConfig::paper_default(),
                            model.clone(),
                        )) as Box<dyn ServingSystem>
                    })
                    .collect();
                let mut rec = Recorder::disabled();
                let spec = RunSpec {
                    sched: opts.clone(),
                    faults: fopts,
                    ..RunSpec::new(model.clone(), wl.clone())
                };
                let (m, rep, _) = run(&mut fleet, &spec, &mut rec, None).expect("fleet runs");
                assert_eq!(
                    rep.audit_violation, None,
                    "fleet audit must pass for every cell"
                );
                let i = &rep.per_class[SloClass::Interactive.index()];
                let (crashes, redisp, shed, down_s) =
                    rep.faults.as_ref().map_or((0, 0, 0, 0.0), |f| {
                        (
                            f.crashes,
                            f.redispatches.len(),
                            f.shed.len(),
                            f.downtime_ns.iter().sum::<f64>() / 1e9,
                        )
                    });
                let offered = rep.faults.as_ref().map_or(m.completed, |f| f.offered);
                let goodput = if offered == 0 {
                    100.0
                } else {
                    100.0 * m.completed as f64 / offered as f64
                };
                p99_by_mode[usize::from(mode == "on")] = i.p99_request_ms;
                rows.push(vec![
                    format!("{replicas}"),
                    format!("{crash_rate:.2}"),
                    mode.to_string(),
                    crashes.to_string(),
                    format!("{goodput:.1}%"),
                    format!("{:.0} ms", i.p99_request_ms),
                    redisp.to_string(),
                    shed.to_string(),
                    format!("{down_s:.1}"),
                ]);
            }
            if crash_rate > 0.0 {
                assert!(
                    p99_by_mode[1] < p99_by_mode[0],
                    "breaker must hold the interactive p99 below naive JSQ at \
                     {replicas} replicas, crash rate {crash_rate}: \
                     {} ms (on) vs {} ms (off)",
                    p99_by_mode[1],
                    p99_by_mode[0],
                );
            }
        }
    }
    print_table(
        "Fleet availability — Llama-3-1B, 10 req/s mixed SLO load, crash/brownout schedule on seed 11, JSQ router",
        &[
            "Replicas",
            "Crash",
            "Breaker",
            "Crashes",
            "Goodput",
            "int p99 req",
            "Redisp",
            "Shed",
            "Down s",
        ],
        &rows,
    );
    println!("\nshape: crash-rate-0 rows are the immortal-fleet baseline (goodput 100%,");
    println!("no downtime; breaker on/off agree placement-for-placement while every");
    println!("breaker stays closed). Under crashes, a dead replica's freed pages make");
    println!("it the JSQ favourite, so the naive rows park new arrivals on it until");
    println!("repair and the interactive tail blows up; the breaker rows trip on the");
    println!("crash, fail over, probe half-open after repair, and hold the interactive");
    println!("p99 strictly below naive in every crashy cell (asserted). Goodput counts");
    println!("completed-of-offered; evacuated requests are redispatched, never lost.");
}
