//! DReX device walkthrough: populate per-head vector databases over the CXL
//! load/store interface, submit a sparse-attention offload, and inspect the
//! top-k response and the device-side timing (paper §6–7).
//!
//! ```text
//! cargo run --release --example drex_offload
//! ```

use longsight::core::{RotationTable, ThresholdTable};
use longsight::cxl::CxlLink;
use longsight::dram::Geometry;
use longsight::drex::layout::{UserPartition, MAX_CONTEXT_SLICE_KEYS};
use longsight::drex::{DrexDevice, DrexParams, RequestDescriptor};
use longsight::faults::FaultInjector;
use longsight::tensor::SimRng;

fn main() {
    let layers = 2;
    let kv_heads = 4;
    let head_dim = 64;
    let mut dev = DrexDevice::new(
        DrexParams::paper(),
        CxlLink::pcie5_x16(),
        Geometry::drex(),
        ThresholdTable::uniform(layers, kv_heads, 34),
        RotationTable::identity(layers, kv_heads, head_dim),
        head_dim,
    );
    println!(
        "DReX: {} GB capacity, {} packages x {} channels x {} banks",
        dev.capacity() >> 30,
        Geometry::drex().packages,
        Geometry::drex().channels,
        Geometry::drex().banks,
    );

    // Data layout planning for a 1M-token Llama-3-8B user.
    let plan = UserPartition::plan(&Geometry::drex(), 8, 32, 128, 1 << 20, 0);
    println!(
        "layout: 1M-token Llama-3-8B user -> {} slices/head ({} keys max per slice), \
         {} packages touched, {:.1} GiB footprint",
        plan.slices[0].len(),
        MAX_CONTEXT_SLICE_KEYS,
        plan.packages_touched(),
        plan.footprint_bytes() as f64 / (1u64 << 30) as f64,
    );

    // Populate a user context: the GPU flushes staging-buffer blocks of 128.
    let mut rng = SimRng::seed_from(7);
    let user = dev.register_user();
    let context = 4096usize;
    for layer in 0..layers {
        for head in 0..kv_heads {
            for block in 0..context / 128 {
                let keys: Vec<Vec<f32>> = (0..128)
                    .map(|i| {
                        let mut k = rng.normal_vec(head_dim);
                        k[0] += (block * 128 + i) as f32 * 1e-4; // mild drift
                        k
                    })
                    .collect();
                let values: Vec<Vec<f32>> = (0..128).map(|_| rng.normal_vec(head_dim)).collect();
                dev.write_kv_block(user, layer, head, &keys, &values)
                    .expect("capacity is ample");
            }
        }
    }
    println!(
        "\npopulated user {user}: {} keys per head, {:.1} MiB used",
        dev.stored_keys(user, 0, 0),
        dev.bytes_used() as f64 / (1 << 20) as f64
    );

    // Offload one layer's sparse attention (4 query heads per KV head).
    let queries: Vec<Vec<Vec<f32>>> = (0..kv_heads)
        .map(|_| (0..2).map(|_| rng.normal_vec(head_dim)).collect())
        .collect();
    let req = RequestDescriptor {
        user,
        layer: 0,
        queries,
    };
    let out = dev
        .offload(&req, 64, 0.0, &FaultInjector::disabled())
        .expect("user exists");

    println!("\noffload response (k = 64):");
    for (h, per_query) in out.response.hits.iter().enumerate() {
        let hits = &per_query[0];
        println!(
            "  kv head {h}: {} hits, best (idx {}, score {:.3}), worst score {:.3}",
            hits.len(),
            hits.first().map(|x| x.index).unwrap_or(0),
            hits.first().map(|x| x.score).unwrap_or(0.0),
            hits.last().map(|x| x.score).unwrap_or(0.0),
        );
    }
    let t = out.timing;
    println!("\ndevice timing:");
    println!("  descriptor submitted : {:>9.2} us", t.submitted_ns / 1e3);
    println!(
        "  device compute done  : {:>9.2} us",
        t.device_done_ns / 1e3
    );
    println!("  observed by GPU      : {:>9.2} us", t.observed_ns / 1e3);
    println!("  of which value/CXL   : {:>9.2} us", t.value_read_ns / 1e3);
    let c = t.critical_head;
    println!(
        "  critical head: filter {:.2} us, bitmap {:.2} us, addr {:.2} us, fetch+dot {:.2} us, topk {:.2} us",
        c.filter_ns / 1e3,
        c.bitmap_ns / 1e3,
        c.addr_gen_ns / 1e3,
        c.fetch_score_ns / 1e3,
        c.topk_ns / 1e3
    );
}
