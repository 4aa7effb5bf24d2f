//! Parallel ≡ serial equivalence — the contract of `longsight-exec`.
//!
//! Every simulation in this workspace promises bit-reproducible results
//! under a seed, at *any* worker-thread count: parallel maps collect partial
//! results in index order and all floating-point reductions fold serially.
//! These tests pin that contract on the hot paths the execution layer
//! threads through: the model forward pass with the LongSight attention
//! backend, trace generation and ITQ training, the trace-based quality
//! evaluation, the DReX offload timing simulation, and the fault-injection
//! schedule (whose event log must be byte-identical at any worker count).

use longsight::core::{
    trace_eval, HybridConfig, ItqConfig, ItqRotation, LongSightBackend, RotationTable,
    ThresholdTable,
};
use longsight::drex::{try_time_head_offload, try_time_slice_offload, DrexParams, HeadOffloadSpec};
use longsight::model::tracegen::{generate_head_trace, TraceConfig};
use longsight::model::{corpus, perplexity, InductionParams, Model, ModelConfig, ModelWeights};
use longsight::tensor::{Matrix, SimRng};

mod common;

use common::{across_thread_counts, serve_one};

#[test]
fn forward_pass_perplexity_is_bit_identical_across_thread_counts() {
    let cfg = ModelConfig::tiny();
    let mut rng = SimRng::seed_from(2025);
    let model = Model::new(ModelWeights::induction(
        &cfg,
        &InductionParams::default(),
        &mut rng,
    ));
    let text = corpus::generate(&corpus::CorpusConfig::long_book(cfg.vocab), 512, &mut rng);

    let runs = across_thread_counts(|| {
        let mut backend = LongSightBackend::new(
            HybridConfig {
                window: 128,
                sinks: 16,
                top_k: 64,
            },
            ThresholdTable::uniform(cfg.layers, cfg.kv_heads, cfg.head_dim as u32 / 2),
            RotationTable::identity(cfg.layers, cfg.kv_heads, cfg.head_dim),
        );
        let r = perplexity::evaluate(&model, &text, &mut backend, 64);
        let s = backend.stats();
        (r.perplexity.to_bits(), s.scored, s.retrieved)
    });
    let (_, baseline) = runs[0];
    for (threads, got) in &runs[1..] {
        assert_eq!(
            *got, baseline,
            "forward-pass result diverged at {threads} threads"
        );
    }
}

#[test]
fn trace_eval_metrics_are_bit_identical_across_thread_counts() {
    let mut rng = SimRng::seed_from(42);
    let trace = generate_head_trace(&TraceConfig::llama_like(64, 4096), &mut rng);
    let cfg = HybridConfig {
        window: 512,
        sinks: 16,
        top_k: 256,
    };
    let rot = ItqRotation::identity(64);

    let runs = across_thread_counts(|| {
        let q = trace_eval::evaluate_trace(&trace, &rot, &cfg, 20);
        (
            q.topk_recall.to_bits(),
            q.ground_truth_recall.to_bits(),
            q.output_rel_err.to_bits(),
            q.stats.scored,
            q.stats.retrieved,
        )
    });
    let (_, baseline) = runs[0];
    for (threads, got) in &runs[1..] {
        assert_eq!(
            *got, baseline,
            "trace-eval metrics diverged at {threads} threads"
        );
    }
}

#[test]
fn trace_generation_and_itq_training_are_bit_identical_across_thread_counts() {
    // 3000 keys: eleven full generation chunks and a partial one; 300
    // training rows: two full row blocks of `X·R` and a partial one.
    let cfg = TraceConfig::llama_like(128, 3000);
    let runs = across_thread_counts(|| {
        let mut rng = SimRng::seed_from(29);
        let trace = generate_head_trace(&cfg, &mut rng);
        let data = Matrix::from_vec(300, 128, trace.keys.slice(0..300).to_vec());
        let rot = ItqRotation::train(
            &data,
            &ItqConfig {
                iterations: 4,
                seed: 29,
            },
        );
        let mut bits: Vec<u32> = trace.keys.iter().flatten().map(|x| x.to_bits()).collect();
        bits.extend(trace.values.iter().flatten().map(|x| x.to_bits()));
        for p in &trace.queries {
            bits.extend(p.q.iter().map(|x| x.to_bits()));
            bits.extend(p.relevant.iter().map(|&i| i as u32));
        }
        bits.extend(rot.matrix().data().iter().map(|x| x.to_bits()));
        bits.push(rng.next_u64() as u32);
        bits
    });
    let (_, baseline) = &runs[0];
    for (threads, got) in &runs[1..] {
        assert!(
            got == baseline,
            "trace generation or ITQ training diverged at {threads} threads"
        );
    }
}

#[test]
fn fault_schedule_is_bit_identical_across_thread_counts() {
    use longsight::faults::{FaultInjector, FaultProfile, RetryPolicy};
    use longsight::obs::Recorder;
    use longsight::system::serving::WorkloadConfig;
    use longsight::system::{LongSightConfig, LongSightSystem};

    let model = ModelConfig::llama3_8b();
    let runs = across_thread_counts(|| {
        // Step-cost-level faults: stragglers, link replays, deadline retries.
        let cfg = LongSightConfig::paper_default().with_faults(FaultProfile::scaled(0.2), 11);
        let sys = LongSightSystem::new(cfg, model.clone());
        let layer = sys.drex_layer_faulty(8, 131_072);

        // Token-level faults through the closed-loop serving simulation.
        let mut serve_sys = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());
        let workload = WorkloadConfig {
            duration_s: 3.0,
            ..WorkloadConfig::long_context_chat()
        };
        let inj = FaultInjector::new(FaultProfile::scaled(0.2), 11);
        let (metrics, log) = serve_one(
            &mut serve_sys,
            &model,
            &workload,
            Some((&inj, &RetryPolicy::serving_default())),
            &mut Recorder::disabled(),
            None,
        );
        (
            layer.log.to_text(),
            layer.layer_ns.to_bits(),
            log.to_text(),
            metrics,
        )
    });
    let (_, baseline) = &runs[0];
    assert!(
        !baseline.0.is_empty(),
        "fault schedule should fire events at rate 0.2"
    );
    for (threads, got) in &runs[1..] {
        assert_eq!(
            got, baseline,
            "fault schedule or metrics diverged at {threads} threads"
        );
    }
}

#[test]
fn packed_scan_matches_per_key_reference_across_thread_counts() {
    use longsight::model::{attend_over_indices, AttentionBackend, AttentionRequest, HeadKv};
    use longsight::tensor::{vecops, SignBits, TopK};

    // A serial per-key reference of the hybrid filter→score→rank pipeline,
    // written against `scf_pass` semantics (`concordance >= threshold`) with
    // heap-allocated per-key SignBits — the layout the packed arena replaced.
    // The backend must reproduce it bit-for-bit at every thread count.
    let dim = 24;
    let n = 9_000; // several 4096-key scan chunks and many 128-key blocks
    let window = 256;
    let sinks = 16;
    let top_k = 96;
    let threshold = 12u32;
    let mut rng = SimRng::seed_from(7);
    let mut history = HeadKv::new(dim);
    for _ in 0..n {
        let k = rng.normal_vec(dim);
        let v = rng.normal_vec(dim);
        history.push(&k, &v);
    }
    let queries = vec![rng.normal_vec(dim), rng.normal_vec(dim)];
    let req = AttentionRequest {
        layer: 0,
        kv_head: 0,
        position: n - 1,
        queries: &queries,
        history: &history,
        scale: 0.25,
    };

    let window_start = n - window;
    let sinks_end = sinks;
    let key_signs: Vec<SignBits> = (0..window_start)
        .map(|i| SignBits::from_slice(history.keys().get(i)))
        .collect();
    let reference: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            let q_signs = SignBits::from_slice(q);
            let mut top = TopK::new(top_k);
            for (i, k_signs) in key_signs.iter().enumerate().skip(sinks_end) {
                if q_signs.concordance(k_signs) >= threshold {
                    top.push(vecops::dot(q, history.keys().get(i)), i);
                }
            }
            let mut candidates: Vec<usize> = (0..sinks_end).collect();
            candidates.extend(top.into_sorted_vec().iter().map(|s| s.index));
            candidates.extend(window_start..n);
            candidates.sort_unstable();
            attend_over_indices(q, &history, &candidates, req.scale)
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect();

    let runs = across_thread_counts(|| {
        let mut backend = LongSightBackend::new(
            HybridConfig {
                window,
                sinks,
                top_k,
            },
            ThresholdTable::uniform(1, 1, threshold),
            RotationTable::identity(1, 1, dim),
        );
        let out = backend.attend(&req);
        let bits: Vec<Vec<u32>> = out
            .iter()
            .map(|o| o.iter().map(|x| x.to_bits()).collect())
            .collect();
        (bits, backend.stats().scored, backend.stats().retrieved)
    });
    for (threads, (bits, _, _)) in &runs {
        assert_eq!(
            *bits, reference,
            "packed scan diverged from the per-key reference at {threads} threads"
        );
    }
    let (_, baseline) = &runs[0];
    for (threads, got) in &runs[1..] {
        assert_eq!(
            got, baseline,
            "packed scan stats diverged at {threads} threads"
        );
    }
}

#[test]
fn offload_timing_is_bit_identical_across_thread_counts() {
    let params = DrexParams::paper();
    // Several slices' worth of keys so the per-slice parallel map engages.
    let spec = HeadOffloadSpec {
        context_len: 300_000,
        head_dim: 128,
        queries: 4,
        k: 1024,
        survivors: 15_000,
    };

    let runs = across_thread_counts(|| {
        let head = try_time_head_offload(&params, &spec, 99, None).unwrap();
        let slice = try_time_slice_offload(&params, &spec, 60_000, 3_000, 17, None).unwrap();
        (head, slice)
    });
    let (_, baseline) = runs[0];
    for (threads, got) in &runs[1..] {
        assert_eq!(
            *got, baseline,
            "offload timing diverged at {threads} threads"
        );
    }
}

#[test]
fn lookahead_serving_is_bit_identical_across_thread_counts() {
    use longsight::obs::Recorder;
    use longsight::sched::{RouterPolicy, SchedPolicy, SloMix};
    use longsight::system::serving::{run, RunSpec, SchedOptions, WorkloadConfig};
    use longsight::system::{LongSightConfig, LongSightSystem, LookaheadConfig, ServingSystem};

    let runs = across_thread_counts(|| {
        // Traced single-system run with speculation on: metrics, trace
        // bytes, and the spec counters must not depend on the worker count.
        let model = ModelConfig::llama3_8b();
        let cfg =
            LongSightConfig::paper_default().with_lookahead(LookaheadConfig::serving_default());
        let mut sys = LongSightSystem::new(cfg, model.clone());
        let wl = WorkloadConfig {
            duration_s: 3.0,
            ..WorkloadConfig::long_context_chat()
        };
        let mut rec = Recorder::enabled();
        let (m, _) = serve_one(&mut sys, &model, &wl, None, &mut rec, None);
        assert!(m.spec_hits > 0, "run speculated nothing");

        // Two-replica fleet with speculating replicas: the router's
        // placement log rides on the same determinism contract.
        let fleet_model = ModelConfig::llama3_1b();
        let mut fleet: Vec<Box<dyn ServingSystem>> = (0..2)
            .map(|_| {
                let cfg = LongSightConfig::paper_default()
                    .with_lookahead(LookaheadConfig::serving_default());
                Box::new(LongSightSystem::new(cfg, fleet_model.clone())) as Box<dyn ServingSystem>
            })
            .collect();
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
        let fleet_wl = WorkloadConfig {
            arrivals_per_s: 12.0,
            context_tokens: (16_384, 32_768),
            output_tokens: (32, 128),
            duration_s: 4.0,
            seed: 11,
        };
        let spec = RunSpec {
            sched: opts,
            router: RouterPolicy::JsqSpillover,
            ..RunSpec::new(fleet_model, fleet_wl)
        };
        let (fm, rep, _) =
            run(&mut fleet, &spec, &mut Recorder::disabled(), None).expect("fleet runs");
        (
            m,
            rec.chrome_trace_json(),
            rec.metrics_json(),
            fm,
            rep.placement_log(),
        )
    });
    let (_, baseline) = &runs[0];
    assert!(!baseline.4.is_empty(), "router must place something");
    for (threads, got) in &runs[1..] {
        assert_eq!(
            got, baseline,
            "lookahead serving diverged at {threads} threads"
        );
    }
}
