//! Bit-identity of `evaluate_trace` and of a [`TraceSweep`] against the
//! per-probe loop they replaced, on the in-repo
//! [`check`](longsight_tensor::check) runner (replay a failure with
//! `LONGSIGHT_PROP_SEED`).
//!
//! `reference_evaluate_trace` below is that loop, verbatim apart from its
//! name: each probe ranks its region keys by `q · k` through two [`TopK`]
//! heaps, then runs [`attend_over_kv`] twice (hybrid candidates, then all
//! keys), which computes each dot again. One-shot calls and every
//! threshold of one sweep must reproduce every [`TraceQuality`] field bit
//! for bit at every worker-thread count. This file is its own test binary
//! because it sets the process-wide thread count.

use longsight_core::trace_eval::{evaluate_trace, TraceError, TraceQuality, TraceSweep};
use longsight_core::{
    filter_block_packed, FilterStats, HybridConfig, ItqConfig, ItqRotation, PFU_BLOCK_KEYS,
};
use longsight_model::attend_over_kv;
use longsight_model::tracegen::{generate_head_trace, HeadTrace, QueryProbe, TraceConfig};
use longsight_tensor::check::{run_cases, run_seed, Gen};
use longsight_tensor::{prop_ensure_eq, vecops, FlatVecs, Matrix, SignArena, TopK};
use std::sync::Mutex;

/// Serializes the tests of this binary around the process-wide thread count.
static THREADS: Mutex<()> = Mutex::new(());

/// The per-probe loop, verbatim apart from its name.
fn reference_evaluate_trace(
    trace: &HeadTrace,
    rotation: &ItqRotation,
    config: &HybridConfig,
    threshold: u32,
) -> TraceQuality {
    assert!(!trace.is_empty(), "empty trace");
    let n = trace.len();
    let d = trace.keys.dim();
    assert_eq!(rotation.dim(), d, "rotation dimension mismatch");

    // Precompute rotated sign bits for all keys into one packed arena (the
    // Key Sign Object region the PFUs scan).
    let mut key_signs = SignArena::new(d);
    rotation.rotate_and_pack(trace.keys.slice(0..n), &mut key_signs);
    let key_signs = &key_signs;
    let (keys, values) = (&trace.keys, &trace.values);

    let window_start = n.saturating_sub(config.window);
    let sinks_end = config.sinks.min(window_start);
    let region = window_start.saturating_sub(sinks_end);
    let scale = 1.0 / (d as f32).sqrt();

    let mut stats = FilterStats::new(1, 1);
    let mut topk_hits = 0usize;
    let mut topk_total = 0usize;
    let mut gt_hits = 0usize;
    let mut gt_total = 0usize;
    let mut err_sum = 0.0f64;

    let all: Vec<usize> = (0..n).collect();
    // Each probe is an independent evaluation of the same read-only trace
    // state, so the probe loop runs on the deterministic parallel map; the
    // accumulators are folded serially in probe order below, which keeps the
    // floating-point `err_sum` reduction order — and therefore every metric —
    // bit-identical to the serial loop at any thread count.
    let per_probe = longsight_exec::deterministic_map(&trace.queries, |_, probe| {
        let q = &probe.q;
        let q_signs = rotation.signs(q);

        // Sparse pipeline over the region: one PFU epoch per 128-key block
        // off the packed arena, then every key is scored for the exact
        // (true_top) side while survivors also feed the hybrid heap —
        // identical push order to the per-key scan.
        let mut top = TopK::new(config.top_k);
        let mut scored = 0u64;
        let mut true_top = TopK::new(config.top_k);
        let mut block = sinks_end;
        while block < window_start {
            let block_end = (block + PFU_BLOCK_KEYS).min(window_start);
            let bitmap = filter_block_packed(&q_signs, key_signs, block..block_end, threshold);
            for i in block..block_end {
                let s = vecops::dot(q, keys.get(i));
                true_top.push(s, i);
                if bitmap >> (i - block) & 1 == 1 {
                    scored += 1;
                    top.push(s, i);
                }
            }
            block = block_end;
        }
        let retrieved: Vec<usize> = top.into_sorted_vec().iter().map(|s| s.index).collect();
        let exact: Vec<usize> = true_top.into_sorted_vec().iter().map(|s| s.index).collect();
        let probe_topk_hits = exact.iter().filter(|i| retrieved.contains(i)).count();
        let probe_topk_total = exact.len();

        let mut candidates: Vec<usize> = (0..sinks_end).collect();
        candidates.extend(retrieved.iter().copied());
        candidates.extend(window_start..n);
        candidates.sort_unstable();

        let probe_gt_hits = probe
            .relevant
            .iter()
            .filter(|i| candidates.binary_search(i).is_ok())
            .count();

        let hybrid_out = attend_over_kv(q, keys, values, &candidates, scale);
        let dense_out = attend_over_kv(q, keys, values, &all, scale);
        let diff: f32 = hybrid_out
            .iter()
            .zip(&dense_out)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        let denom = vecops::l2_norm(&dense_out).max(1e-12);
        let rel_err = (diff / denom) as f64;

        (
            probe_topk_hits,
            probe_topk_total,
            probe_gt_hits,
            probe.relevant.len(),
            rel_err,
            scored,
            retrieved.len() as u64,
        )
    });
    for (p_topk_hits, p_topk_total, p_gt_hits, p_gt_total, rel_err, scored, retrieved) in per_probe
    {
        topk_hits += p_topk_hits;
        topk_total += p_topk_total;
        gt_hits += p_gt_hits;
        gt_total += p_gt_total;
        err_sum += rel_err;

        stats.queries += 1;
        stats.dense_kv += n as u64;
        stats.window_accessed += (n - window_start) as u64 + sinks_end as u64;
        stats.sparse_region += region as u64;
        stats.scored += scored;
        stats.retrieved += retrieved;
        let ph = &mut stats.per_head[0];
        ph.region += region as u64;
        ph.scored += scored;
        ph.retrieved += retrieved;
    }

    let probes = trace.queries.len().max(1) as f64;
    TraceQuality {
        topk_recall: if topk_total == 0 {
            1.0
        } else {
            topk_hits as f64 / topk_total as f64
        },
        ground_truth_recall: if gt_total == 0 {
            1.0
        } else {
            gt_hits as f64 / gt_total as f64
        },
        output_rel_err: err_sum / probes,
        stats,
    }
}

const DIMS: [usize; 3] = [63, 64, 128];

/// Probe counts around both admissible block sizes (4 and 8): one probe,
/// a block minus one, a full block, a block plus one, and several blocks.
const PROBES: [usize; 9] = [1, 3, 4, 5, 7, 8, 9, 17, 0];

/// A context length: below a typical window, around one PFU block, or
/// several blocks plus a ragged tail (never a multiple of 128).
fn context_len(g: &mut Gen) -> usize {
    match g.usize_in(0, 3) {
        0 => g.usize_in(1, 48),
        1 => g.usize_in(48, 300),
        _ => PFU_BLOCK_KEYS * g.usize_in(2, 8) + g.usize_in(1, PFU_BLOCK_KEYS),
    }
}

/// A generated trace (even `d` only, half the time) or a Gaussian one in
/// which about one key in eight repeats an earlier key, so equal scores
/// exercise the top-k tie-break.
fn trace(g: &mut Gen, d: usize) -> HeadTrace {
    trace_with_repeats(g, d, 8)
}

/// [`trace`] with about one Gaussian key in `one_in` repeating an earlier
/// key.
fn trace_with_repeats(g: &mut Gen, d: usize, one_in: usize) -> HeadTrace {
    let n = context_len(g);
    let queries = PROBES[g.usize_in(0, PROBES.len())];
    if d.is_multiple_of(2) && n >= 8 && g.bool() {
        let cfg = TraceConfig {
            queries,
            ..TraceConfig::llama_like(d, n)
        };
        return generate_head_trace(&cfg, g.rng());
    }
    let mut keys = FlatVecs::with_capacity(d, n);
    let mut values = FlatVecs::with_capacity(d, n);
    for i in 0..n {
        let k = if i > 0 && g.usize_in(0, one_in) == 0 {
            keys.get(g.usize_in(0, i)).to_vec()
        } else {
            g.rng().normal_vec(d)
        };
        keys.push(&k);
        values.push(&g.rng().normal_vec(d));
    }
    let queries = (0..queries)
        .map(|_| QueryProbe {
            position: n,
            q: g.rng().normal_vec(d),
            relevant: (0..g.usize_in(0, 5)).map(|_| g.usize_in(0, n)).collect(),
        })
        .collect();
    HeadTrace {
        keys,
        values,
        queries,
    }
}

/// Window, sinks and k, including a window longer than the trace, sinks
/// at or past the window start, and k = 0.
fn config(g: &mut Gen, n: usize) -> HybridConfig {
    HybridConfig {
        window: g.usize_in(1, n + 64),
        sinks: if g.bool() {
            g.usize_in(0, 20)
        } else {
            g.usize_in(0, n + 8)
        },
        top_k: match g.usize_in(0, 4) {
            0 => 0,
            1 => 1,
            _ => g.usize_in(1, n + 8),
        },
    }
}

/// The identity one time in three, otherwise a trained rotation.
fn rotation(g: &mut Gen, d: usize) -> ItqRotation {
    if g.usize_in(0, 3) == 0 {
        return ItqRotation::identity(d);
    }
    let data = Matrix::random_gaussian(2 * d, d, g.rng());
    let seed = g.u64_in(0, 1 << 20);
    ItqRotation::train(
        &data,
        &ItqConfig {
            iterations: 1,
            seed,
        },
    )
}

/// Every field of a [`TraceQuality`], floats as bit patterns.
fn bits(q: &TraceQuality) -> (u64, u64, u64, FilterStats) {
    (
        q.topk_recall.to_bits(),
        q.ground_truth_recall.to_bits(),
        q.output_rel_err.to_bits(),
        q.stats.clone(),
    )
}

/// One generated case: the fused pass at 1, 2 and hardware threads against
/// the oracle, over thresholds 0 through d + 1.
fn fused_matches_reference(g: &mut Gen) -> Result<(), String> {
    let d = DIMS[g.usize_in(0, DIMS.len())];
    let trace = trace(g, d);
    let config = config(g, trace.len());
    let rotation = rotation(g, d);
    let mut thresholds = vec![0, d as u32 + 1, g.u32_in(0, d as u32 + 2)];
    thresholds.push(g.u32_in(d as u32 / 3, 2 * d as u32 / 3 + 1));
    for threshold in thresholds {
        let want = bits(&reference_evaluate_trace(
            &trace, &rotation, &config, threshold,
        ));
        for threads in [1, 2, 0] {
            longsight_exec::set_thread_count(threads);
            let got = bits(&evaluate_trace(&trace, &rotation, &config, threshold));
            prop_ensure_eq!(
                got,
                want,
                "d={d} n={} probes={} {config:?} threshold={threshold} threads={threads}: \
                 fused {got:?} != reference {want:?}",
                trace.len(),
                trace.queries.len()
            );
        }
    }
    longsight_exec::set_thread_count(0);
    Ok(())
}

/// One generated case: at 1, 2 and hardware threads, one sweep evaluates
/// every threshold 0 through d + 1 in a shuffled order, so state leaking
/// from one `evaluate` into the next would show. Half the Gaussian keys
/// repeat an earlier key, so tied scores often straddle the top-k cut.
fn sweep_matches_reference(g: &mut Gen) -> Result<(), String> {
    let d = DIMS[g.usize_in(0, DIMS.len())];
    let trace = trace_with_repeats(g, d, 2);
    let config = config(g, trace.len());
    let rotation = rotation(g, d);
    let want: Vec<_> = (0..=d as u32 + 1)
        .map(|threshold| {
            bits(&reference_evaluate_trace(
                &trace, &rotation, &config, threshold,
            ))
        })
        .collect();
    for threads in [1, 2, 0] {
        longsight_exec::set_thread_count(threads);
        let sweep = TraceSweep::new(&trace, &rotation, &config).map_err(|e| e.to_string())?;
        let mut thresholds: Vec<u32> = (0..=d as u32 + 1).collect();
        for i in (1..thresholds.len()).rev() {
            thresholds.swap(i, g.usize_in(0, i + 1));
        }
        for threshold in thresholds {
            let got = bits(&sweep.evaluate(threshold));
            let want = &want[threshold as usize];
            prop_ensure_eq!(
                &got,
                want,
                "d={d} n={} probes={} {config:?} threshold={threshold} threads={threads}: \
                 sweep {got:?} != reference {want:?}",
                trace.len(),
                trace.queries.len()
            );
        }
    }
    longsight_exec::set_thread_count(0);
    Ok(())
}

/// One generated case: a trace with one NaN or infinity at a random row
/// and lane of its keys, values or queries is rejected with that row, at
/// 1, 2 and hardware threads, instead of being ranked.
fn non_finite_input_is_rejected(g: &mut Gen) -> Result<(), String> {
    let d = DIMS[g.usize_in(0, DIMS.len())];
    let mut trace = trace(g, d);
    let config = config(g, trace.len());
    let rotation = rotation(g, d);
    let bad = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY][g.usize_in(0, 4)];
    let lane = g.usize_in(0, d);
    let arrays = if trace.queries.is_empty() { 2 } else { 3 };
    let (array, index) = match g.usize_in(0, arrays) {
        0 => {
            let i = g.usize_in(0, trace.len());
            trace.keys.get_mut(i)[lane] = bad;
            ("keys", i)
        }
        1 => {
            let i = g.usize_in(0, trace.len());
            trace.values.get_mut(i)[lane] = bad;
            ("values", i)
        }
        _ => {
            let i = g.usize_in(0, trace.queries.len());
            trace.queries[i].q[lane] = bad;
            ("queries", i)
        }
    };
    for threads in [1, 2, 0] {
        longsight_exec::set_thread_count(threads);
        let got = TraceSweep::new(&trace, &rotation, &config).map(|_| ());
        prop_ensure_eq!(
            got,
            Err(TraceError::NonFinite { array, index }),
            "d={d} n={} probes={} {bad} in {array} row {index} lane {lane} threads={threads}",
            trace.len(),
            trace.queries.len()
        );
    }
    longsight_exec::set_thread_count(0);
    Ok(())
}

#[test]
fn non_finite_inputs_are_rejected_not_ranked() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    run_cases(
        "non_finite_inputs_are_rejected_not_ranked",
        48,
        non_finite_input_is_rejected,
    );
    longsight_exec::set_thread_count(0);
}

#[test]
fn sweep_is_bit_identical_to_per_probe_loop_at_every_threshold() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    run_cases(
        "sweep_is_bit_identical_to_per_probe_loop_at_every_threshold",
        32,
        sweep_matches_reference,
    );
    longsight_exec::set_thread_count(0);
}

#[test]
fn fused_pass_is_bit_identical_to_per_probe_loop() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    run_cases(
        "fused_pass_is_bit_identical_to_per_probe_loop",
        48,
        fused_matches_reference,
    );
    longsight_exec::set_thread_count(0);
}

#[test]
fn fused_pass_matches_on_the_paper_shape() {
    // d = 128 at W = 1024, k = 1024 over 2.5K keys with a ragged last
    // block: the trace_sweep configuration at a debug-build size.
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    run_seed("fused_pass_matches_on_the_paper_shape", 301, |g| {
        let cfg = TraceConfig {
            queries: 9,
            ..TraceConfig::llama_like(128, 2 * 1024 + 500)
        };
        let trace = generate_head_trace(&cfg, g.rng());
        let rotation = rotation(g, 128);
        let config = HybridConfig {
            window: 1024,
            sinks: 16,
            top_k: 1024,
        };
        let thresholds = [0, 64, 72, 80, 129];
        let want: Vec<_> = thresholds
            .iter()
            .map(|&th| bits(&reference_evaluate_trace(&trace, &rotation, &config, th)))
            .collect();
        for threads in [1, 2, 0] {
            longsight_exec::set_thread_count(threads);
            let sweep = TraceSweep::new(&trace, &rotation, &config).map_err(|e| e.to_string())?;
            for (&threshold, want) in thresholds.iter().zip(&want) {
                let got = bits(&evaluate_trace(&trace, &rotation, &config, threshold));
                prop_ensure_eq!(&got, want, "threshold={threshold} threads={threads}");
                let got = bits(&sweep.evaluate(threshold));
                prop_ensure_eq!(&got, want, "sweep threshold={threshold} threads={threads}");
            }
        }
        longsight_exec::set_thread_count(0);
        Ok(())
    });
}
