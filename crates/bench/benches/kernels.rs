//! Micro-benchmarks of the hot kernels: sign packing, SCF block filtering,
//! top-k selection, ITQ training and rotation, full-precision scoring, one
//! trace-quality evaluation and one eight-threshold sweep of it, the DRAM
//! channel scheduler, and the serving metrics tail over run-length latency
//! samples. Runs on the in-repo timing harness
//! ([`longsight_bench::timing`]); output shape matches the old criterion
//! goldens in `results/kernels.txt`. Ends with the SCF scan-kernel table
//! (per-key walk vs bitplane-packed) whose packed ns/key
//! `results/trajectory.tsv` pins.

use longsight_bench::fig3::{trace_for, train_trace_itq};
use longsight_bench::fig7::{scan_kernel_bench, scan_kernel_rows};
use longsight_bench::print_table;
use longsight_bench::timing::bench_report;
use longsight_core::trace_eval::{evaluate_trace, TraceSweep};
use longsight_core::{
    filter_block, filter_block_packed, HybridConfig, ItqConfig, ItqRotation, PFU_BLOCK_KEYS,
};
use longsight_dram::{ChannelSim, DramTiming, Request};
use longsight_sched::{LatencySamples, SortedSamples};
use longsight_tensor::{vecops, Matrix, SignArena, SignBits, SimRng, TopK};
use std::hint::black_box;

fn bench_sign_packing() {
    let mut rng = SimRng::seed_from(1);
    let v = rng.normal_vec(128);
    bench_report("sign/pack_128d", Some(128), || {
        SignBits::from_slice(black_box(&v))
    });
    let q = SignBits::from_slice(&rng.normal_vec(128));
    let k = SignBits::from_slice(&v);
    bench_report("sign/concordance_128d", Some(128), || {
        black_box(&q).concordance(black_box(&k))
    });
}

fn bench_scf_block() {
    let mut rng = SimRng::seed_from(2);
    let q = SignBits::from_slice(&rng.normal_vec(128));
    let keys: Vec<SignBits> = (0..PFU_BLOCK_KEYS)
        .map(|_| SignBits::from_slice(&rng.normal_vec(128)))
        .collect();
    bench_report(
        "scf/filter_block_128x128",
        Some(PFU_BLOCK_KEYS as u64),
        || filter_block(black_box(&q), black_box(&keys), 70),
    );
    let mut arena = SignArena::new(128);
    for k in &keys {
        arena.push_bits(k);
    }
    bench_report(
        "scf/filter_packed_128x128",
        Some(PFU_BLOCK_KEYS as u64),
        || filter_block_packed(black_box(&q), black_box(&arena), 0..PFU_BLOCK_KEYS, 70),
    );
}

fn bench_topk() {
    let mut rng = SimRng::seed_from(3);
    let scores: Vec<f32> = (0..65_536).map(|_| rng.normal() as f32).collect();
    bench_report("topk/top1024_of_64k", Some(scores.len() as u64), || {
        let mut t = TopK::new(1024);
        for (i, &s) in scores.iter().enumerate() {
            t.push(s, i);
        }
        black_box(t.len())
    });
}

fn bench_scoring() {
    let mut rng = SimRng::seed_from(4);
    let q = rng.normal_vec(128);
    let keys: Vec<Vec<f32>> = (0..1024).map(|_| rng.normal_vec(128)).collect();
    bench_report("score/dot_1024x128", Some(1024), || {
        let mut acc = 0.0f32;
        for k in &keys {
            acc += vecops::dot(black_box(&q), k);
        }
        black_box(acc)
    });
}

fn bench_itq() {
    let mut rng = SimRng::seed_from(5);
    let data = Matrix::random_gaussian(256, 64, &mut rng);
    bench_report("itq_train_256x64_10it", None, || {
        ItqRotation::train(
            black_box(&data),
            &ItqConfig {
                iterations: 10,
                seed: 1,
            },
        )
    });
    let rot = ItqRotation::train(&data, &ItqConfig::default());
    let v = rng.normal_vec(64);
    bench_report("itq_apply_64d", None, || rot.apply(black_box(&v)));

    // The trace-sweep shapes: training on 1024 unit keys of dimension 128
    // (thirty Procrustes SVDs of a 128×128 matrix), then rotating and
    // packing the sign bits of a 32K-key trace.
    let mut train = Matrix::random_gaussian(1024, 128, &mut rng);
    for r in 0..train.rows() {
        let row = train.row_mut(r);
        let norm = vecops::l2_norm(row).max(1e-9);
        row.iter_mut().for_each(|x| *x /= norm);
    }
    bench_report("itq_train_1024x128_30it", None, || {
        ItqRotation::train(
            black_box(&train),
            &ItqConfig {
                iterations: 30,
                seed: 11,
            },
        )
    });
    let rot = ItqRotation::train(&train, &ItqConfig::default());
    let keys = Matrix::random_gaussian(32_768, 128, &mut rng);
    bench_report("itq_rotate_32k_keys", Some(keys.rows() as u64), || {
        let mut arena = SignArena::new(128);
        rot.rotate_and_pack(black_box(keys.data()), &mut arena);
        arena
    });
}

fn bench_trace_eval() {
    // One Fig 3/4 sweep point on the trace_sweep shape: 32 probes over a
    // 32K-key, d = 128 trace at W = 1024, k = 1024, ITQ threshold 72.
    // Throughput counts (probe, key) pairs.
    let trace = trace_for(128, 32_768, 6);
    let rot = train_trace_itq(&trace, 1024, 6);
    let cfg = HybridConfig::paper_default();
    let pairs = (trace.queries.len() * trace.len()) as u64;
    bench_report("trace_eval/32k_keys", Some(pairs), || {
        evaluate_trace(black_box(&trace), &rot, &cfg, 72)
    });
    // The same trace scored once and evaluated at the trace_sweep
    // workload's eight thresholds.
    bench_report("trace_sweep/32k_keys_8_thresholds", Some(pairs), || {
        let sweep = TraceSweep::new(black_box(&trace), &rot, &cfg).expect("a non-empty trace");
        [64, 68, 70, 72, 74, 76, 78, 80].map(|th| sweep.evaluate(th))
    });
}

fn bench_dram() {
    let reqs: Vec<Request> = (0..4096)
        .map(|i| Request::read(i % 64, (i / 64) % 32, i % 64))
        .collect();
    bench_report("dram/channel_4096_reqs", Some(reqs.len() as u64), || {
        let mut sim = ChannelSim::new(DramTiming::lpddr5x_8533(), 64);
        black_box(sim.run(black_box(&reqs)))
    });
}

fn bench_metrics_tail() {
    // A fleet_crash-shaped token population: 2 replicas x 3 classes, ~3.8M
    // samples in 204 runs over 5 distinct step durations. One iteration is
    // the metrics tail: sort each ledger once, merge each class's views
    // across replicas and take its ceil p50/p99, then merge everything and
    // take the round p50/p99.
    const STEP_MS: [f64; 5] = [21.25, 22.5, 24.0, 25.75, 31.5];
    let mut rng = SimRng::seed_from(8);
    let ledgers: Vec<[LatencySamples; 3]> = (0..2)
        .map(|_| {
            [0, 1, 2].map(|_| {
                let mut s = LatencySamples::new();
                for _ in 0..34 {
                    s.push_n(STEP_MS[rng.below(STEP_MS.len())], 18_627);
                }
                s
            })
        })
        .collect();
    let samples: usize = ledgers.iter().flatten().map(LatencySamples::len).sum();
    bench_report("sched/metrics_tail_3.8m", Some(samples as u64), || {
        let views: Vec<[SortedSamples; 3]> = ledgers
            .iter()
            .map(|replica| black_box(replica).each_ref().map(LatencySamples::sorted))
            .collect();
        let mut acc = 0.0;
        for class in 0..3 {
            let merged = SortedSamples::merge(views.iter().map(|v| &v[class]));
            acc += merged.percentile_ceil(0.5) + merged.percentile_ceil(0.99);
        }
        let all = SortedSamples::merge(views.iter().flatten());
        black_box(acc + all.percentile_round(0.5) + all.percentile_round(0.99))
    });
}

fn bench_scan_kernel() {
    // The full SCF scan over a 64K-key region: per-key `scf_pass` walk vs
    // the bitplane kernel the hybrid/trace/device scans run on. The packed
    // row's ns/key is the trajectory-gated one; bit-identity is asserted
    // here and in the scf_kernel ci smoke.
    let kb = scan_kernel_bench(65_536, 128);
    print_table(
        "SCF scan kernel: per-key vs bitplane-packed (host wall-clock)",
        &["kernel", "keys", "dim", "ns per key", "speedup"],
        &scan_kernel_rows(&kb),
    );
    assert!(kb.identical, "packed kernel diverged from per-key scan");
}

fn main() {
    bench_sign_packing();
    bench_scf_block();
    bench_topk();
    bench_scoring();
    bench_itq();
    bench_trace_eval();
    bench_dram();
    bench_metrics_tail();
    bench_scan_kernel();
}
