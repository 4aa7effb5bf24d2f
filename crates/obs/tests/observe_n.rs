//! `observe_n(name, v, n)` against `n` calls of `observe(name, v)`, on the
//! in-repo [`check`](longsight_tensor::check) runner (replay a failure with
//! `LONGSIGHT_PROP_SEED`). Histograms are compared bit for bit: bucket
//! counts, count, sum, min, max, and the JSON export.

use longsight_obs::metrics::{Histogram, MetricsRegistry};
use longsight_tensor::check::{run_cases, Gen};
use longsight_tensor::prop_ensure_eq;

/// One observed value: mostly a few repeated values that straddle bucket
/// edges, with signed zeros, NaNs and infinities among them.
fn value(g: &mut Gen) -> f64 {
    const POOL: [f64; 9] = [
        0.0,
        -0.0,
        0.1,
        1.0,
        3.3,
        250.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    match g.usize_in(0, 3) {
        0 => g.f64_in(-5.0, 6000.0),
        _ => POOL[g.usize_in(0, POOL.len())],
    }
}

fn bits(h: &Histogram) -> (Vec<u64>, Vec<u64>, u64, u64, u64, u64) {
    (
        h.edges.iter().map(|e| e.to_bits()).collect(),
        h.counts.clone(),
        h.count,
        h.sum.to_bits(),
        h.min.to_bits(),
        h.max.to_bits(),
    )
}

fn batched_equals_repeated(g: &mut Gen) -> Result<(), String> {
    let (mut batched, mut repeated) = (MetricsRegistry::default(), MetricsRegistry::default());
    for _ in 0..g.usize_in(0, 40) {
        // Time-suffixed and count-suffixed names get different default
        // edges; `n` includes 0, which must register nothing.
        let name = ["lat_ms", "pages"][g.usize_in(0, 2)];
        let v = value(g);
        let n = g.u64_in(0, 200);
        batched.observe_n(name, v, n);
        for _ in 0..n {
            repeated.observe(name, v);
        }
    }
    for name in ["lat_ms", "pages"] {
        prop_ensure_eq!(
            batched.histogram(name).map(bits),
            repeated.histogram(name).map(bits),
            "histogram {name}"
        );
    }
    prop_ensure_eq!(batched.to_json(), repeated.to_json());
    Ok(())
}

#[test]
fn observe_n_equals_n_single_observations() {
    run_cases(
        "observe_n_equals_n_single_observations",
        300,
        batched_equals_repeated,
    );
}
