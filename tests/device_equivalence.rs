//! The simulated DReX device must implement *exactly* the retrieval the
//! reference algorithm defines: same SCF decisions, same scores (at BF16 key
//! precision), same top-k — per query, per head.

use longsight::core::{scf_pass, ItqConfig, ItqRotation, RotationTable, ThresholdTable};
use longsight::cxl::CxlLink;
use longsight::dram::Geometry;
use longsight::drex::{DrexDevice, DrexParams, RequestDescriptor};
use longsight::faults::FaultInjector;
use longsight::tensor::{quantize_bf16_in_place, vecops, SimRng, TopK};

const LAYERS: usize = 2;
const KV_HEADS: usize = 3;
const DIM: usize = 32;

fn build_device(thresholds: ThresholdTable, rotations: RotationTable) -> DrexDevice {
    DrexDevice::new(
        DrexParams::paper(),
        CxlLink::pcie5_x16(),
        Geometry::drex(),
        thresholds,
        rotations,
        DIM,
    )
}

/// Reference pipeline: BF16-round keys, rotate for signs, SCF, score, top-k.
fn reference_topk(
    keys: &[Vec<f32>],
    q: &[f32],
    rotation: &ItqRotation,
    threshold: u32,
    k: usize,
) -> Vec<usize> {
    let q_signs = rotation.signs(q);
    let mut top = TopK::new(k);
    for (i, key) in keys.iter().enumerate() {
        let mut kq = key.clone();
        quantize_bf16_in_place(&mut kq);
        if scf_pass(&q_signs, &rotation.signs(&kq), threshold) {
            top.push(vecops::dot(q, &kq), i);
        }
    }
    top.into_sorted_vec().into_iter().map(|s| s.index).collect()
}

#[test]
fn device_matches_reference_for_all_heads_and_queries() {
    let mut rng = SimRng::seed_from(99);
    // Per-head ITQ rotations (random orthogonal stand-ins) and varied
    // thresholds exercise the full table indexing.
    let rotations = RotationTable::from_fn(LAYERS, KV_HEADS, |l, h| {
        ItqRotation::train(
            &longsight::tensor::Matrix::random_gaussian(
                64,
                DIM,
                &mut SimRng::seed_from((l * 7 + h) as u64),
            ),
            &ItqConfig {
                iterations: 8,
                seed: (l * 31 + h) as u64,
            },
        )
    });
    let mut thresholds = ThresholdTable::zeros(LAYERS, KV_HEADS);
    for l in 0..LAYERS {
        for h in 0..KV_HEADS {
            thresholds.set(l, h, 10 + (l * KV_HEADS + h) as u32 * 2);
        }
    }
    let mut dev = build_device(thresholds.clone(), rotations.clone());
    let user = dev.register_user();

    // Populate with per-head distinct keys.
    let n = 400usize;
    let mut all_keys = vec![vec![Vec::new(); KV_HEADS]; LAYERS];
    for (l, layer_keys) in all_keys.iter_mut().enumerate() {
        for (h, head_keys) in layer_keys.iter_mut().enumerate() {
            let keys: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_vec(DIM)).collect();
            let vals: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_vec(DIM)).collect();
            dev.write_kv_block(user, l, h, &keys, &vals).unwrap();
            *head_keys = keys;
        }
    }

    #[allow(clippy::needless_range_loop)]
    for layer in 0..LAYERS {
        let queries: Vec<Vec<Vec<f32>>> = (0..KV_HEADS)
            .map(|_| (0..2).map(|_| rng.normal_vec(DIM)).collect())
            .collect();
        let req = RequestDescriptor {
            user,
            layer: layer as u32,
            queries: queries.clone(),
        };
        let k = 16;
        let out = dev
            .offload(&req, k, 0.0, &FaultInjector::disabled())
            .unwrap();
        for h in 0..KV_HEADS {
            let rotation = rotations.get(layer, h);
            let threshold = thresholds.get(layer, h);
            for (qi, q) in queries[h].iter().enumerate() {
                let want = reference_topk(&all_keys[layer][h], q, rotation, threshold, k);
                let got: Vec<usize> = out.response.hits[h][qi].iter().map(|x| x.index).collect();
                assert_eq!(
                    got, want,
                    "device/reference divergence at layer {layer}, head {h}, query {qi}"
                );
            }
        }
    }
}

#[test]
fn device_timing_is_monotone_in_load() {
    let mut rng = SimRng::seed_from(100);
    let mut dev = build_device(
        ThresholdTable::zeros(1, 2),
        RotationTable::identity(1, 2, DIM),
    );
    let user = dev.register_user();
    for h in 0..2 {
        let keys: Vec<Vec<f32>> = (0..512).map(|_| rng.normal_vec(DIM)).collect();
        let vals = keys.clone();
        dev.write_kv_block(user, 0, h, &keys, &vals).unwrap();
    }
    let q: Vec<Vec<Vec<f32>>> = (0..2).map(|_| vec![rng.normal_vec(DIM)]).collect();
    let req = RequestDescriptor {
        user,
        layer: 0,
        queries: q,
    };
    // Back-to-back offloads at the same arrival queue on the same NMAs.
    let t1 = dev
        .offload(&req, 32, 0.0, &FaultInjector::disabled())
        .unwrap()
        .timing;
    let t2 = dev
        .offload(&req, 32, 0.0, &FaultInjector::disabled())
        .unwrap()
        .timing;
    assert!(t2.device_done_ns >= t1.device_done_ns);
}
