//! JSQ-spillover vs round-robin routing over 1, 2, and 4 replicas on a
//! skewed, best-effort-heavy fleet under HBM pressure.
//!
//! Every cell sees byte-identical arrivals and class draws (one seed pins
//! the whole offered load); only the replica count and the router differ.
//! The claim pinned by `results/router_scaling.txt`: with scavenger
//! traffic dominating the mix, JSQ-spillover keeps best-effort requests
//! off hot replicas, so the interactive p99 stays at or below round-robin
//! at 2 and 4 replicas. At 1 replica the router is a no-op and the two
//! rows must be identical.

use longsight_bench::print_table;
use longsight_model::ModelConfig;
use longsight_obs::Recorder;
use longsight_sched::{RouterPolicy, SchedPolicy, SloClass, SloMix};
use longsight_system::serving::{run, RunSpec, SchedOptions, WorkloadConfig};
use longsight_system::{LongSightConfig, LongSightSystem, ServingSystem};

fn main() {
    let model = ModelConfig::llama3_1b();
    let wl = WorkloadConfig {
        arrivals_per_s: 24.0,
        context_tokens: (16_384, 32_768),
        output_tokens: (32, 128),
        duration_s: 8.0,
        seed: 11,
    };
    let opts = SchedOptions {
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
    };

    let mut rows = Vec::new();
    for replicas in [1usize, 2, 4] {
        for router in [RouterPolicy::RoundRobin, RouterPolicy::JsqSpillover] {
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
                router,
                ..RunSpec::new(model.clone(), wl.clone())
            };
            let (m, rep, _) = run(&mut fleet, &spec, &mut rec, None).expect("fleet runs");
            assert_eq!(
                rep.audit_violation, None,
                "fleet audit must pass for every cell"
            );
            let i = &rep.per_class[SloClass::Interactive.index()];
            let be = &rep.per_class[SloClass::BestEffort.index()];
            let evictions: usize = rep.replicas.iter().map(|r| r.preemptions).sum();
            rows.push(vec![
                format!("{replicas}"),
                router.name().to_string(),
                m.completed.to_string(),
                format!("{:.1}", m.throughput_tps),
                format!("{:.2} ms", i.p50_token_ms),
                format!("{:.2} ms", i.p99_token_ms),
                format!("{:.0} ms", i.p99_request_ms),
                format!("{:.0} ms", be.p99_request_ms),
                evictions.to_string(),
            ]);
        }
    }
    print_table(
        "JSQ-spillover vs round-robin — Llama-3-1B, 24 req/s skewed mix (0.2/0.2/0.6), HBM watermark 0.01",
        &[
            "Replicas",
            "Router",
            "Done",
            "Tok/s",
            "int p50 tok",
            "int p99 tok",
            "int p99 req",
            "be p99 req",
            "Evict",
        ],
        &rows,
    );
    println!("\nshape: the routers see byte-identical arrivals; at one replica they are");
    println!("the same controller (identical rows). From two replicas up, JSQ-spillover");
    println!("sheds best-effort traffic off hot replicas (>=50% HBM occupancy) before");
    println!("batch (>=75%) and never sheds interactive, so the interactive p99 stays at");
    println!("or below round-robin while scavenger traffic pays with queueing on the");
    println!("colder replicas. Placement is a pure function of (seed, arrival index).");
}
