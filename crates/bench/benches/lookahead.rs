//! Lookahead DReX pipeline under Poisson load: slot-pool size × re-filter
//! penalty sweep at the paper's 8B/128K operating point, against the
//! synchronous (lookahead-off) baseline.
//!
//! Speculation hides the filter→score→top-k chain behind the GPU's dense
//! step, so the hit rows collapse toward the GPU-bound floor; a starved
//! one-slot pool denies issues under batching and its tail falls back
//! toward the serial baseline, and a larger miss penalty only moves the
//! (rare) miss tail.

use longsight_bench::print_table;
use longsight_model::ModelConfig;
use longsight_obs::Recorder;
use longsight_system::serving::{run, RunSpec, WorkloadConfig};
use longsight_system::{LongSightConfig, LongSightSystem, LookaheadConfig, ServingSystem};

fn main() {
    let model = ModelConfig::llama3_8b();
    let wl = WorkloadConfig {
        arrivals_per_s: 2.0,
        context_tokens: (131_072, 131_072),
        output_tokens: (32, 128),
        duration_s: 8.0,
        seed: 11,
    };

    // (slots, refilter penalty ms); slots == 0 encodes the off baseline.
    let sweep: [(usize, f64); 5] = [(0, 0.0), (1, 0.25), (4, 0.25), (32, 0.25), (32, 2.0)];

    let mut rows = Vec::new();
    for &(slots, penalty_ms) in &sweep {
        let la = if slots == 0 {
            LookaheadConfig::disabled()
        } else {
            LookaheadConfig {
                slots,
                refilter_penalty_ns: penalty_ms * 1e6,
                ..LookaheadConfig::serving_default()
            }
        };
        let mut sys = LongSightSystem::new(
            LongSightConfig::paper_default().with_lookahead(la),
            model.clone(),
        );
        let spec = RunSpec::new(model.clone(), wl.clone());
        let (m, ..) = run(
            &mut [&mut sys as &mut dyn ServingSystem],
            &spec,
            &mut Recorder::disabled(),
            None,
        )
        .expect("one replica runs");
        let speculated = m.spec_hits + m.spec_misses + m.spec_denied;
        let hit_rate = if speculated == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * m.spec_hits as f64 / speculated as f64)
        };
        rows.push(vec![
            if slots == 0 {
                "off".to_string()
            } else {
                slots.to_string()
            },
            if slots == 0 {
                "-".to_string()
            } else {
                format!("{penalty_ms:.2} ms")
            },
            hit_rate,
            m.spec_denied.to_string(),
            m.completed.to_string(),
            format!("{:.1}", m.throughput_tps),
            format!("{:.2} ms", m.p50_token_ms),
            format!("{:.2} ms", m.p99_token_ms),
        ]);
    }
    print_table(
        "Lookahead DReX pipeline — Llama-3-8B, 128K contexts, 2 req/s, 8 s window",
        &[
            "Slots",
            "Penalty",
            "Hit rate",
            "Denied",
            "Done",
            "Tok/s",
            "p50 token",
            "p99 token",
        ],
        &rows,
    );
    println!("\nshape: with a healthy slot pool the speculative chain is fully hidden");
    println!("and the p50 token drops to the GPU-bound floor; a one-slot pool denies");
    println!("issues whenever decodes batch up, dragging the tail back toward the");
    println!("synchronous baseline, and a 2 ms re-filter penalty widens only the");
    println!("miss tail (p99), not the p50.");
}
