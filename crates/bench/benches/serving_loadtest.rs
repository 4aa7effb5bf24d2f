//! Closed-loop serving under Poisson load: throughput and latency
//! percentiles vs. offered rate, for LongSight and the dense 1-GPU baseline.
//! (The operating-regime view behind Fig 7's user sweeps.)

use longsight_bench::print_table;
use longsight_gpu::{DataParallelGpus, GpuSpec};
use longsight_model::ModelConfig;
use longsight_obs::Recorder;
use longsight_system::serving::{run, RunSpec, WorkloadConfig};
use longsight_system::{GpuOnlySystem, LongSightConfig, LongSightSystem, ServingSystem};

fn main() {
    let model = ModelConfig::llama3_1b();
    let rates = [1.0f64, 4.0, 16.0];

    let mut rows = Vec::new();
    for &rate in &rates {
        let wl = WorkloadConfig {
            arrivals_per_s: rate,
            context_tokens: (32_768, 131_072),
            output_tokens: (32, 128),
            duration_s: 8.0,
            seed: 11,
        };
        let mut systems: Vec<Box<dyn ServingSystem>> = vec![
            Box::new(GpuOnlySystem {
                gpus: DataParallelGpus::new(GpuSpec::h100_sxm(), 1),
                model: model.clone(),
            }),
            Box::new(LongSightSystem::new(
                LongSightConfig::paper_default(),
                model.clone(),
            )),
        ];
        for sys in &mut systems {
            let spec = RunSpec::new(model.clone(), wl.clone());
            let (m, ..) = run(
                std::slice::from_mut(sys),
                &spec,
                &mut Recorder::disabled(),
                None,
            )
            .expect("one replica runs");
            rows.push(vec![
                format!("{rate:.0}/s"),
                sys.name(),
                m.completed.to_string(),
                format!("{:.1}", m.throughput_tps),
                format!("{:.1}", m.mean_batch),
                format!("{:.2} ms", m.p50_token_ms),
                format!("{:.2} ms", m.p99_token_ms),
                format!("{:.0} ms", m.p99_request_ms),
            ]);
        }
    }
    print_table(
        "Poisson load test — Llama-3-1B, 32K-128K contexts, 8 s window",
        &[
            "Rate",
            "System",
            "Done",
            "Tok/s",
            "Mean batch",
            "p50 token",
            "p99 token",
            "p99 request",
        ],
        &rows,
    );
    println!("\nshape: as offered load rises, batches grow and token latency climbs;");
    println!("LongSight keeps accepting long-context work the dense GPU must refuse");
    println!("once KV no longer fits.");
}
