//! FIFO vs SLO-aware continuous batching on an identical mixed fleet
//! (50% interactive / 30% batch / 20% best-effort) under HBM pressure.
//!
//! Both policies see byte-identical arrivals and class draws; only the
//! scheduling decisions differ. The SLO-aware policy must strictly improve
//! the interactive p99 token latency over FIFO — that invariant is also
//! enforced by `tests/scheduler.rs`.

use longsight_bench::print_table;
use longsight_model::ModelConfig;
use longsight_obs::Recorder;
use longsight_sched::{SchedPolicy, SloClass, SloMix};
use longsight_system::serving::{run, RunSpec, SchedOptions, WorkloadConfig};
use longsight_system::{LongSightConfig, LongSightSystem, ServingSystem};

fn main() {
    let model = ModelConfig::llama3_1b();
    let rates = [8.0f64, 16.0];

    let mut rows = Vec::new();
    for &rate in &rates {
        let wl = WorkloadConfig {
            arrivals_per_s: rate,
            context_tokens: (16_384, 32_768),
            output_tokens: (32, 128),
            duration_s: 8.0,
            seed: 11,
        };
        for policy in [SchedPolicy::Fifo, SchedPolicy::SloAware] {
            let sched = SchedOptions {
                policy,
                mix: SloMix::mixed(),
                page_tokens: 1024,
                prefill_chunk_tokens: 128,
                prefill_slots: 1,
                hbm_watermark: 0.01,
            };
            let mut sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
            let spec = RunSpec {
                sched,
                ..RunSpec::new(model.clone(), wl.clone())
            };
            let mut rec = Recorder::disabled();
            let (_, fleet, _) = run(
                &mut [&mut sys as &mut dyn ServingSystem],
                &spec,
                &mut rec,
                None,
            )
            .expect("one replica runs");
            let rep = &fleet.replicas[0];
            for class in SloClass::ALL {
                let c = &rep.per_class[class.index()];
                rows.push(vec![
                    format!("{rate:.0}/s"),
                    policy.name().to_string(),
                    class.name().to_string(),
                    c.completed.to_string(),
                    c.preempted.to_string(),
                    format!("{:.2} ms", c.p50_token_ms),
                    format!("{:.2} ms", c.p99_token_ms),
                    format!("{:.0} ms", c.p99_request_ms),
                ]);
            }
            rows.push(vec![
                format!("{rate:.0}/s"),
                policy.name().to_string(),
                "(pages)".to_string(),
                format!("hbm {}/{}", rep.pages.peak_hbm, rep.pages.hbm_limit),
                format!("{} evict", rep.preemptions),
                format!("{} resume", rep.resumes),
                format!("{:.2} ms restore", rep.restore_charged_ns / 1e6),
                format!("{} chunks", rep.prefill_chunks),
            ]);
        }
    }
    print_table(
        "FIFO vs SLO-aware — Llama-3-1B, 16K-32K mixed fleet, HBM watermark 0.01",
        &[
            "Rate",
            "Policy",
            "Class",
            "Done",
            "Evicted",
            "p50 token",
            "p99 token",
            "p99 request",
        ],
        &rows,
    );
    println!("\nshape: with both policies fed byte-identical arrivals, the SLO-aware");
    println!("scheduler strictly lowers the interactive p99 token latency by evicting");
    println!("best-effort decoders to their DReX-resident tail under HBM pressure and");
    println!("admitting by class priority; best-effort pays with request latency, not");
    println!("failures — evicted work resumes from restored pages or recompute,");
    println!("whichever is cheaper.");
}
