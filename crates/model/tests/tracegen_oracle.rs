//! Chunked trace generation against the serial generator it replaced.
//!
//! `try_generate_head_trace` generates keys and values in chunks on the
//! worker pool, each chunk from a snapshot of the generator taken by a pass
//! that skips the normals, and redraws the few pre-RoPE keys the query
//! probes read. [`serial_head_trace`] is the one-pass generator it
//! replaced, kept verbatim (validation aside) as the oracle: keys, values,
//! queries, relevant sets and the state the generator is left in must agree
//! by bits at one and two worker threads.

use longsight_model::tracegen::{try_generate_head_trace, HeadTrace, QueryProbe, TraceConfig};
use longsight_model::Rope;
use longsight_tensor::check::{run_cases, Gen};
use longsight_tensor::{prop_ensure, FlatVecs, SimRng};
use std::sync::Mutex;

/// Serializes the tests here: each sets the process-wide thread count.
static THREADS: Mutex<()> = Mutex::new(());

/// The serial generator, for a configuration `try_generate_head_trace`
/// accepts.
fn serial_head_trace(cfg: &TraceConfig, rng: &mut SimRng) -> HeadTrace {
    let d = cfg.head_dim;
    let rope = cfg.rope_theta.map(|t| Rope::new(d, t));

    // Content mask: the low-frequency half of each rotary pair carries the
    // cluster/relevance content; high-frequency dims carry filler.
    let half = d / 2;
    let low_start = half / 2; // pairs with index >= half/2 rotate slowly
    let is_content_dim = |i: usize| -> bool {
        let pair = i % half;
        pair >= low_start
    };

    // Shared DC direction, confined to a *sparse* subset of content dims so
    // the per-dimension offset is large — this is what skews sign-bit
    // distributions the way real LLaMA keys are skewed (§5.4). It also
    // survives RoPE (content dims rotate slowly).
    let mut dc = vec![0.0f32; d];
    let content_dims: Vec<usize> = (0..d).filter(|&i| is_content_dim(i)).collect();
    let dc_support = (content_dims.len() / 4).max(1);
    for _ in 0..dc_support {
        let i = content_dims[rng.below(content_dims.len())];
        dc[i] = rng.normal() as f32;
    }
    longsight_tensor::vecops::normalize_in_place(&mut dc);

    // Cluster centers, in content dims.
    let centers: Vec<Vec<f32>> = (0..cfg.clusters.max(1))
        .map(|_| {
            let mut c = vec![0.0f32; d];
            for (i, v) in c.iter_mut().enumerate() {
                if is_content_dim(i) {
                    *v = rng.normal() as f32 * 0.5;
                }
            }
            c
        })
        .collect();

    // Keys: DC + cluster + spread noise (content dims) + filler (other dims),
    // then RoPE by absolute position. Pre-RoPE copies are kept to build
    // queries that target specific keys.
    let mut pre_keys = FlatVecs::with_capacity(d, cfg.context_len);
    let mut keys = FlatVecs::with_capacity(d, cfg.context_len);
    let mut values = FlatVecs::with_capacity(d, cfg.context_len);
    for pos in 0..cfg.context_len {
        let cluster = rng.below(centers.len());
        let mut k = vec![0.0f32; d];
        for (i, v) in k.iter_mut().enumerate() {
            if is_content_dim(i) {
                *v = cfg.dc_magnitude * dc[i]
                    + centers[cluster][i]
                    + cfg.cluster_spread * rng.normal() as f32;
            } else {
                *v = 0.6 * rng.normal() as f32;
            }
        }
        pre_keys.push(&k);
        if let Some(r) = &rope {
            r.apply_in_place(&mut k, pos);
        }
        keys.push(&k);
        // Values: cluster-correlated plus noise, so attention outputs carry
        // signal about which keys were selected.
        let v: Vec<f32> = (0..d)
            .map(|i| centers[cluster][i] + 0.3 * rng.normal() as f32)
            .collect();
        values.push(&v);
    }

    // Query probes: each targets `relevant_per_query` past keys — a few
    // recent, the rest spread over the whole history (long-range retrieval).
    let mut queries = Vec::with_capacity(cfg.queries);
    for _ in 0..cfg.queries {
        let position = cfg.context_len;
        let mut relevant = Vec::with_capacity(cfg.relevant_per_query);
        while relevant.len() < cfg.relevant_per_query {
            let idx = if rng.coin(0.25) {
                // Recent token.
                position - 1 - rng.below(64.min(position))
            } else {
                rng.below(position)
            };
            if !relevant.contains(&idx) {
                relevant.push(idx);
            }
        }
        relevant.sort_unstable();

        let mut q = vec![0.0f32; d];
        // Content: the (pre-RoPE) sum of relevant keys' content components.
        // Full weight per key (not the mean): each relevant key's individual
        // within-cluster component must stand out over cross-correlation
        // noise from the other keys, which dilution would destroy.
        for &ri in &relevant {
            let k = pre_keys.get(ri);
            for (i, v) in q.iter_mut().enumerate() {
                if is_content_dim(i) {
                    *v += k[i];
                }
            }
        }
        for (i, v) in q.iter_mut().enumerate() {
            if is_content_dim(i) {
                *v = cfg.relevance_strength * *v + 0.2 * rng.normal() as f32;
            } else {
                *v = 0.6 * rng.normal() as f32;
            }
        }
        if let Some(r) = &rope {
            r.apply_in_place(&mut q, position);
        }
        queries.push(QueryProbe {
            position,
            q,
            relevant,
        });
    }

    HeadTrace {
        keys,
        values,
        queries,
    }
}

/// Bits of every float of `t`, with the probes' positions and relevant
/// sets, followed by the next draws of `rng`.
fn fingerprint(t: &HeadTrace, rng: &mut SimRng) -> Vec<u64> {
    let mut out = Vec::new();
    for store in [&t.keys, &t.values] {
        out.push(store.len() as u64);
        out.extend(store.iter().flatten().map(|x| u64::from(x.to_bits())));
    }
    for p in &t.queries {
        out.push(p.position as u64);
        out.extend(p.relevant.iter().map(|&i| i as u64));
        out.extend(p.q.iter().map(|x| u64::from(x.to_bits())));
    }
    out.extend([
        rng.normal().to_bits(),
        rng.next_u64(),
        rng.normal().to_bits(),
    ]);
    out
}

/// Where the chunked trace of `cfg` first differs from the serial one, at
/// each of one and two worker threads.
fn mismatch(cfg: &TraceConfig, seed: u64) -> Option<String> {
    let mut rng = SimRng::seed_from(seed);
    let want = fingerprint(&serial_head_trace(cfg, &mut rng), &mut rng);
    for threads in [1, 2] {
        longsight_exec::set_thread_count(threads);
        let mut rng = SimRng::seed_from(seed);
        let trace = try_generate_head_trace(cfg, &mut rng).expect("valid config");
        let got = fingerprint(&trace, &mut rng);
        if got != want {
            let at = got.iter().zip(&want).position(|(a, b)| a != b);
            return Some(format!(
                "{cfg:?} seed {seed} at {threads} threads: first difference at word {at:?} \
                 of {} (serial {})",
                got.len(),
                want.len()
            ));
        }
    }
    None
}

fn config(context_len: usize, head_dim: usize, rope: bool) -> TraceConfig {
    TraceConfig {
        clusters: 6,
        relevant_per_query: 4.min(context_len - 1),
        queries: 3,
        rope_theta: rope.then_some(10_000.0),
        ..TraceConfig::llama_like(head_dim, context_len)
    }
}

#[test]
fn chunked_traces_equal_the_serial_generator_on_chunk_edges() {
    // Head dims 2 and 6 draw an odd number of normals before the key loop,
    // so a spare is cached at every chunk start; 64 and 128 draw an even
    // number. Lengths 255–257 straddle one chunk, 1300 ends mid-chunk.
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let mut failures = Vec::new();
    for context_len in [2, 255, 256, 257, 1300] {
        for head_dim in [2, 6, 64, 128] {
            for rope in [true, false] {
                let cfg = config(context_len, head_dim, rope);
                failures.extend(mismatch(&cfg, 11 + head_dim as u64));
            }
        }
    }
    longsight_exec::set_thread_count(0);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A random configuration the generator accepts.
fn generated_config(g: &mut Gen) -> TraceConfig {
    let context_len = g.usize_in(2, 1800);
    TraceConfig {
        head_dim: 2 * g.usize_in(1, 70),
        context_len,
        clusters: g.usize_in(0, 12),
        dc_magnitude: g.f32_in(0.0, 4.0),
        cluster_spread: g.f32_in(0.1, 1.5),
        relevant_per_query: g.usize_in(0, 6.min(context_len)),
        relevance_strength: g.f32_in(0.5, 4.0),
        queries: g.usize_in(0, 5),
        rope_theta: g.bool().then_some(500_000.0),
    }
}

#[test]
fn chunked_traces_equal_the_serial_generator_on_generated_configs() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    run_cases(
        "chunked_traces_equal_the_serial_generator_on_generated_configs",
        24,
        |g| {
            let cfg = generated_config(g);
            let seed = g.rng().next_u64();
            let failure = mismatch(&cfg, seed);
            longsight_exec::set_thread_count(0);
            prop_ensure!(failure.is_none(), "{}", failure.unwrap_or_default());
            Ok(())
        },
    );
}
