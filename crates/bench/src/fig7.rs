//! Fig 7 driver: decode-phase throughput and per-token latency for the four
//! systems across models, context lengths, and user counts — plus the host
//! scan-kernel microbench that keeps the bitplane SCF path honest.

use crate::timing;
use longsight_core::{filter_block_packed, scf_pass, PFU_BLOCK_KEYS};
use longsight_gpu::{DataParallelGpus, GpuSpec};
use longsight_model::ModelConfig;
use longsight_system::{
    AttAccSystem, GpuOnlySystem, LongSightConfig, LongSightSystem, ServingSystem, StepReport,
};
use longsight_tensor::{SignArena, SignBits, SimRng};

/// One Fig 7 cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Point {
    /// System name.
    pub system: String,
    /// Model name.
    pub model: &'static str,
    /// Context length.
    pub context: usize,
    /// Users.
    pub users: usize,
    /// Report, or `None` when infeasible (the paper's missing entries).
    pub report: Option<StepReport>,
}

/// Builds the four systems of Fig 7 for a model.
pub fn systems(model: &ModelConfig) -> Vec<Box<dyn ServingSystem>> {
    vec![
        Box::new(GpuOnlySystem {
            gpus: DataParallelGpus::new(GpuSpec::h100_sxm(), 1),
            model: model.clone(),
        }),
        Box::new(GpuOnlySystem {
            gpus: DataParallelGpus::new(GpuSpec::h100_sxm(), 2),
            model: model.clone(),
        }),
        Box::new(AttAccSystem::h100_pim(model.clone())),
        Box::new(LongSightSystem::new(
            LongSightConfig::paper_default(),
            model.clone(),
        )),
    ]
}

/// The context sweep of Fig 7 (32K → 1M).
pub fn contexts() -> Vec<usize> {
    vec![32_768, 65_536, 131_072, 262_144, 524_288, 1 << 20]
}

/// Evaluates every (system × context × user-count) cell for a model.
///
/// `user_counts` of `0` means "the system's maximum batch at this context".
pub fn sweep(model: &ModelConfig, user_counts: &[usize]) -> Vec<Fig7Point> {
    // Every cell is an independent pure evaluation (no serving system
    // mutates state across calls), so the grid runs on the deterministic
    // parallel map with one freshly built system per cell; rows come back in
    // the same context → system → users order the serial loops produced.
    let n_sys = systems(model).len();
    let cells: Vec<(usize, usize, usize)> = contexts()
        .into_iter()
        .flat_map(|ctx| (0..n_sys).flat_map(move |s| user_counts.iter().map(move |&u| (ctx, s, u))))
        .collect();
    longsight_exec::deterministic_map(&cells, |_, &(ctx, s, u)| {
        let mut sys = systems(model).swap_remove(s);
        let users = if u == 0 { sys.max_users(ctx).max(1) } else { u };
        let report = sys.evaluate(users, ctx).ok();
        Fig7Point {
            system: sys.name(),
            model: model.name,
            context: ctx,
            users,
            report,
        }
    })
}

/// The headline comparison (§9.1): at the maximum context a single GPU
/// supports, LongSight's best throughput and per-user rate vs. the 1-GPU
/// system. Returns `(throughput_gain, tps_per_user_gain)`.
pub fn headline_speedup(model: &ModelConfig) -> (f64, f64) {
    let mut gpu = GpuOnlySystem {
        gpus: DataParallelGpus::new(GpuSpec::h100_sxm(), 1),
        model: model.clone(),
    };
    let mut ls = LongSightSystem::new(LongSightConfig::paper_default(), model.clone());

    // Max context a single GPU supports with at least one user.
    let ctx = longsight_gpu::max_context(&GpuSpec::h100_sxm(), model, 1);
    // Round down to a power-of-two-ish grid point.
    let ctx = contexts()
        .into_iter()
        .rfind(|&c| c <= ctx)
        .unwrap_or(32_768);

    let gpu_users = gpu.max_users(ctx).max(1);
    let g = gpu
        .evaluate(gpu_users, ctx)
        .expect("1-GPU must run at its own max context");
    let ls_users = ls.max_users(ctx).max(1);
    let l = ls.evaluate(ls_users, ctx).expect("LongSight must run");

    let throughput_gain = l.throughput_tps / g.throughput_tps;
    // Per-user rate at matched (single-user) load.
    let g1 = gpu.evaluate(1, ctx).expect("single user");
    let l1 = ls.evaluate(1, ctx).expect("single user");
    let per_user_gain = l1.tps_per_user() / g1.tps_per_user();
    (throughput_gain, per_user_gain)
}

/// Host wall-clock comparison of the two SCF scan kernels over the same
/// sign store: the legacy per-key `scf_pass` walk over heap-allocated
/// `SignBits` vs the bitplane [`filter_block_packed`] kernel streaming a
/// packed [`SignArena`] in 128-key PFU blocks.
#[derive(Debug, Clone, Copy)]
pub struct ScanKernelBench {
    /// Keys in the scanned region.
    pub keys: usize,
    /// Sign dimension (head_dim after rotation).
    pub dim: usize,
    /// SCF threshold applied by both kernels.
    pub threshold: u32,
    /// Median per-key cost of the per-key scan, ns.
    pub per_key_ns_per_key: f64,
    /// Median per-key cost of the packed block kernel, ns.
    pub packed_ns_per_key: f64,
    /// Whether the two kernels produced the same survivor set (must be true;
    /// the ci smoke asserts it).
    pub identical: bool,
}

impl ScanKernelBench {
    /// Packed-kernel speedup over the per-key scan.
    pub fn speedup(&self) -> f64 {
        self.per_key_ns_per_key / self.packed_ns_per_key
    }
}

/// Times both scan kernels over `keys` random sign vectors of `dim`
/// dimensions, their samples interleaved ([`timing::measure_pair`]), and
/// cross-checks their survivor sets bit-for-bit.
///
/// The threshold is placed one standard deviation above the random-sign
/// mean (`dim/2 + √dim/2`), giving a realistically sparse survivor rate in
/// the ballpark of the paper's ~20× filter ratio.
pub fn scan_kernel_bench(keys: usize, dim: usize) -> ScanKernelBench {
    let threshold = (dim as f64 / 2.0 + (dim as f64).sqrt() / 2.0).round() as u32;
    let mut rng = SimRng::seed_from(0x5CF);
    let mut per_key: Vec<SignBits> = Vec::with_capacity(keys);
    let mut arena = SignArena::new(dim);
    for _ in 0..keys {
        let v = rng.normal_vec(dim);
        per_key.push(SignBits::from_slice(&v));
        arena.push_signs_of(&v);
    }
    let q = SignBits::from_slice(&rng.normal_vec(dim));

    let mut identical = true;
    let mut block = 0;
    while block < keys {
        let end = (block + PFU_BLOCK_KEYS).min(keys);
        let bitmap = filter_block_packed(&q, &arena, block..end, threshold);
        for (i, k) in per_key[block..end].iter().enumerate() {
            if (bitmap >> i & 1 == 1) != scf_pass(&q, k, threshold) {
                identical = false;
            }
        }
        block = end;
    }

    // The two kernels' samples alternate, so a load phase of the host
    // slows both rather than one.
    let (t_per_key, t_packed) = timing::measure_pair(
        || {
            let mut survivors = 0u32;
            for k in &per_key {
                survivors += u32::from(scf_pass(&q, k, threshold));
            }
            survivors
        },
        || {
            let mut survivors = 0u32;
            let mut block = 0;
            while block < keys {
                let end = (block + PFU_BLOCK_KEYS).min(keys);
                survivors += filter_block_packed(&q, &arena, block..end, threshold).count_ones();
                block = end;
            }
            survivors
        },
    );
    ScanKernelBench {
        keys,
        dim,
        threshold,
        per_key_ns_per_key: t_per_key.median_ns / keys as f64,
        packed_ns_per_key: t_packed.median_ns / keys as f64,
        identical,
    }
}

/// Renders the microbench as table rows for [`crate::print_table`] with the
/// headers `["kernel", "keys", "dim", "ns per key", "speedup"]` — the
/// `packed scan` row's `ns per key` field is the one `trajectory.tsv` pins
/// via `perf-diff --gate`.
pub fn scan_kernel_rows(b: &ScanKernelBench) -> Vec<Vec<String>> {
    vec![
        vec![
            "per-key scan".into(),
            b.keys.to_string(),
            b.dim.to_string(),
            format!("{:.3}", b.per_key_ns_per_key),
            "1.00x".into(),
        ],
        vec![
            "packed scan".into(),
            b.keys.to_string(),
            b.dim.to_string(),
            format!("{:.3}", b.packed_ns_per_key),
            format!(
                "{:.2}x (bit-identical: {})",
                b.speedup(),
                if b.identical { "yes" } else { "NO" }
            ),
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_kernels_agree_bit_for_bit() {
        // Odd dim exercises the generic lane arm; the wall-clock numbers are
        // host-dependent, so only shape and identity are asserted here.
        let b = scan_kernel_bench(4096, 67);
        assert!(b.identical, "packed kernel diverged from per-key scan");
        assert!(b.per_key_ns_per_key > 0.0);
        assert!(b.packed_ns_per_key > 0.0);
        let rows = scan_kernel_rows(&b);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], "packed scan");
    }

    #[test]
    fn longsight_wins_headline_at_max_gpu_context() {
        // Paper: "up to 8.1–9.6× higher throughput and 3.6–11.9× higher
        // tokens per second per user" at the max 1-GPU context. We assert
        // the direction and a conservative magnitude.
        for model in [ModelConfig::llama3_1b(), ModelConfig::llama3_8b()] {
            let (tp, pu) = headline_speedup(&model);
            assert!(
                tp > 2.0,
                "{}: throughput gain {tp:.2} too small",
                model.name
            );
            assert!(pu > 1.5, "{}: per-user gain {pu:.2} too small", model.name);
        }
    }

    #[test]
    fn only_longsight_reaches_one_million_tokens() {
        let model = ModelConfig::llama3_8b();
        let points = sweep(&model, &[1]);
        let at_1m: Vec<&Fig7Point> = points.iter().filter(|p| p.context == 1 << 20).collect();
        let ls = at_1m
            .iter()
            .find(|p| p.system == "LongSight")
            .expect("LongSight row exists");
        assert!(ls.report.is_some(), "LongSight must serve 1M tokens");
        let dense1 = at_1m
            .iter()
            .find(|p| p.system == "1-GPU dense")
            .expect("1-GPU row exists");
        assert!(
            dense1.report.is_none(),
            "one GPU cannot hold a 1M dense KV cache"
        );
    }
}
