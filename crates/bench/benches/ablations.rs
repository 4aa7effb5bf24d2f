//! Ablations of LongSight's design choices (paper §6–7):
//!
//! 1. **Channel interleaving of Key Objects** — §7.3.3: "This interleaving is
//!    essential: if surviving Keys ... are accessed from only one memory
//!    channel, the result would be bandwidth imbalance and NMA stalls."
//! 2. **Bank-level filtering parallelism** — Context Slices spanning fewer
//!    banks reduce PFU parallelism (but filtering is rarely the bottleneck).
//! 3. **Staging-buffer flush granularity** — §6: updating DReX in bulk
//!    (groups of 128) "reduces communication overhead compared to sending
//!    one KV vector per generated token".
//! 4. **Polling interval** — the GPU observes completion by polling over CXL.
//! 5. **PFU query-batch width** — one pass filters up to 16 queries.

use longsight_bench::{fmt_ns, print_table};
use longsight_cxl::CxlLink;
use longsight_dram::{ChannelSim, DramTiming, Request};
use longsight_drex::{try_time_slice_offload, DrexParams, HeadOffloadSpec};
use longsight_model::ModelConfig;
use longsight_system::{LongSightConfig, LongSightSystem, ServingSystem};
use longsight_tensor::SimRng;

/// Builds the per-channel fetch trace for `survivors` of `slice_keys` keys,
/// with accesses spread over `channels` of the 8 (1 = no interleaving).
fn fetch_time(slice_keys: usize, survivors: usize, key_bytes: usize, channels: usize) -> f64 {
    let accesses_total = survivors * key_bytes.div_ceil(32);
    let per_channel = accesses_total.div_ceil(channels);
    let mut rng = SimRng::seed_from(5);
    let stride = slice_keys as f64 / survivors.max(1) as f64;
    let mut by_bank: Vec<Vec<Request>> = vec![Vec::new(); 128];
    for i in 0..per_channel {
        let pos = (((i % survivors.max(1)) as f64 * stride + rng.uniform() * stride) as usize)
            .min(slice_keys - 1);
        let bank = (pos / 1024).min(127);
        let within = pos % 1024;
        by_bank[bank].push(Request::read(bank, within / 64, within % 64));
    }
    let mut reqs = Vec::new();
    let mut i = 0;
    while reqs.len() < per_channel {
        let mut any = false;
        for b in &by_bank {
            if i < b.len() {
                reqs.push(b[i]);
                any = true;
            }
        }
        if !any {
            break;
        }
        i += 1;
    }
    let mut sim = ChannelSim::new(DramTiming::lpddr5x_8533(), 128);
    sim.run(&reqs).iter().map(|c| c.finish).fold(0.0, f64::max)
}

fn main() {
    // --- 1. Channel interleaving ---
    let slice = 131_072;
    let survivors = slice / 20;
    let mut rows = Vec::new();
    for channels in [8usize, 4, 2, 1] {
        let t = fetch_time(slice, survivors, 256, channels);
        rows.push(vec![
            channels.to_string(),
            fmt_ns(t),
            format!("{:.1}x", t / fetch_time(slice, survivors, 256, 8)),
        ]);
    }
    print_table(
        "Ablation 1: key fetch time vs channels used (full slice, 20x filter)",
        &["Channels", "Fetch time", "Slowdown vs 8-ch interleave"],
        &rows,
    );

    // --- 2. Bank-level filtering parallelism ---
    let params = DrexParams::paper();
    let mut rows = Vec::new();
    for keys in [131_072usize, 32_768, 8_192, 1_024] {
        let spec = HeadOffloadSpec {
            context_len: keys,
            head_dim: 128,
            queries: 4,
            k: 1024,
            survivors: keys / 20,
        };
        let t = try_time_slice_offload(&params, &spec, keys, keys / 20, 3, None)
            .expect("valid slice spec");
        rows.push(vec![
            keys.to_string(),
            (keys.div_ceil(1024) * 8).min(1024).to_string(),
            fmt_ns(t.filter_ns),
            fmt_ns(t.total_ns()),
        ]);
    }
    print_table(
        "Ablation 2: slice size vs banks used (filter stays off the critical path)",
        &["Slice keys", "Banks", "Filter time", "Total offload"],
        &rows,
    );

    // --- 3. Staging-buffer flush granularity ---
    let link = CxlLink::pcie5_x16();
    let cfg = ModelConfig::llama3_8b();
    let tokens = 4096usize;
    let per_token = cfg.kv_bytes_per_token();
    let mut rows = Vec::new();
    for block in [1usize, 8, 128, 1024] {
        let blocks = tokens / block;
        let ns = blocks as f64 * link.transfer_ns(block * per_token);
        rows.push(vec![
            block.to_string(),
            fmt_ns(ns),
            format!(
                "{:.2}x",
                ns / (tokens as f64 * per_token as f64 / link.bandwidth_gbps)
            ),
        ]);
    }
    print_table(
        "Ablation 3: cost of flushing 4096 tokens of KV vs flush-block size",
        &[
            "Block (tokens)",
            "Total transfer",
            "Overhead vs pure bandwidth",
        ],
        &rows,
    );

    // --- 4. Polling interval ---
    let mut rows = Vec::new();
    for poll in [50.0f64, 200.0, 1000.0, 5000.0] {
        let mut sys_cfg = LongSightConfig::paper_default();
        sys_cfg.link.poll_interval_ns = poll;
        let mut sys = LongSightSystem::new(sys_cfg, ModelConfig::llama3_8b());
        let r = sys.evaluate(1, 131_072).expect("feasible");
        rows.push(vec![
            format!("{poll:.0} ns"),
            format!("{:.3} ms", r.latency_ms()),
        ]);
    }
    print_table(
        "Ablation 4: per-token latency vs CXL polling interval (1 user, 128K)",
        &["Poll interval", "Step latency"],
        &rows,
    );

    // --- 5. PFU query-batch width ---
    let mut rows = Vec::new();
    for width in [16usize, 4, 1] {
        let mut p = DrexParams::paper();
        p.pfu_query_batch = width;
        let spec = HeadOffloadSpec {
            context_len: 131_072,
            head_dim: 128,
            queries: 4,
            k: 1024,
            survivors: 131_072 / 20,
        };
        let t = try_time_slice_offload(&p, &spec, 131_072, 131_072 / 20, 9, None)
            .expect("valid slice spec");
        rows.push(vec![
            width.to_string(),
            fmt_ns(t.filter_ns),
            fmt_ns(t.total_ns()),
        ]);
    }
    print_table(
        "Ablation 5: PFU query-batch width (GQA group of 4 queries)",
        &["Batch width", "Filter time", "Total offload"],
        &rows,
    );
}
