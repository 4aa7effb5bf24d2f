//! [`LatencySamples`] against the population it compresses, on the in-repo
//! [`check`](longsight_tensor::check) runner (replay a failure with
//! `LONGSIGHT_PROP_SEED`).
//!
//! The oracle is the expanded `Vec<f64>` and its copy sorted by
//! `f64::total_cmp`, with the two slice percentiles the ledger replaced.
//! Every comparison is by `to_bits()`: the ledger must return the very
//! sample the sorted slice holds, not just an equal one. Populations run
//! from a dozen pushes to tens of thousands, past the compaction threshold
//! ([`MIN_COMPACT_RUNS`]), over a few distinct values and over about
//! 2,000 (which must compact in a bounded buffer) and over all-distinct
//! ones.

use longsight_sched::{LatencySamples, SortedSamples, MIN_COMPACT_RUNS};
use longsight_tensor::check::{run_cases, run_seed, Gen};
use longsight_tensor::{prop_ensure, prop_ensure_eq};

/// The former scheduler rule: `sorted[ceil(len × p) - 1]`, rank clamped
/// to `1..=len`.
fn oracle_ceil(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The former serving rule: `sorted[round((len - 1) × p)]`.
fn oracle_round(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// One sample value: mostly from a small pool, so runs repeat and sorted
/// runs tie, with signed zeros and both NaN signs among them.
fn value(g: &mut Gen) -> f64 {
    const POOL: [f64; 8] = [0.0, -0.0, 1.5, 2.25, -3.0, 7.0, f64::NAN, -f64::NAN];
    match g.usize_in(0, 4) {
        0 => g.f64_in(-10.0, 10.0),
        _ => POOL[g.usize_in(0, POOL.len())],
    }
}

/// A random ledger and its expansion in recording order. Counts include 0
/// (a no-op push) and runs long enough to straddle percentile ranks.
fn ledger(g: &mut Gen) -> (LatencySamples, Vec<f64>) {
    let mut s = LatencySamples::new();
    let mut flat = Vec::new();
    for _ in 0..g.usize_in(0, 12) {
        let v = value(g);
        let n = match g.usize_in(0, 4) {
            0 => 0,
            1 => 1,
            2 => g.usize_in(1, 8),
            _ => g.usize_in(1, 70),
        };
        s.push_n(v, n);
        flat.extend(std::iter::repeat_n(v, n));
    }
    (s, flat)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every read of `s` equals the same read of the expanded `flat`.
fn matches_oracle(g: &mut Gen, s: &LatencySamples, flat: &[f64]) -> Result<(), String> {
    prop_ensure_eq!(s.len(), flat.len());
    prop_ensure_eq!(s.is_empty(), flat.is_empty());
    view_matches_oracle(g, &s.sorted(), flat)
}

/// Every read of the sorted `view` equals the same read of the sorted
/// expansion of `flat`.
fn view_matches_oracle(g: &mut Gen, view: &SortedSamples, flat: &[f64]) -> Result<(), String> {
    let runs = view.runs();
    prop_ensure!(runs.iter().all(|&(_, n)| n > 0), "zero-count run");
    prop_ensure!(
        runs.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_lt()),
        "runs not strictly ascending"
    );
    let mut sorted = flat.to_vec();
    sorted.sort_by(f64::total_cmp);
    prop_ensure_eq!(view.len(), sorted.len());
    prop_ensure_eq!(view.is_empty(), sorted.is_empty());
    prop_ensure_eq!(
        bits(&view.iter().collect::<Vec<_>>()),
        bits(&sorted),
        "ascending expansion"
    );
    prop_ensure_eq!(view.get(sorted.len()), None, "index past the end");
    let random_p = g.f64_in(0.0, 1.0);
    for p in [0.0, 0.5, 0.99, 1.0, random_p] {
        prop_ensure_eq!(
            view.percentile_ceil(p).to_bits(),
            oracle_ceil(&sorted, p).to_bits(),
            "ceil rank at p = {p} over {} samples",
            sorted.len()
        );
        prop_ensure_eq!(
            view.percentile_round(p).to_bits(),
            oracle_round(&sorted, p).to_bits(),
            "round rank at p = {p} over {} samples",
            sorted.len()
        );
    }
    Ok(())
}

fn single_ledger(g: &mut Gen) -> Result<(), String> {
    let (s, flat) = ledger(g);
    matches_oracle(g, &s, &flat)
}

/// 1–4 ledgers' sorted views merged in a random order equal the sorted
/// union of their populations.
fn merged_ledgers(g: &mut Gen) -> Result<(), String> {
    let parts: Vec<_> = (0..g.usize_in(1, 5))
        .map(|_| match g.usize_in(0, 4) {
            0 => long_ledger(g),
            _ => ledger(g),
        })
        .collect();
    let mut order: Vec<usize> = (0..parts.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, g.usize_in(0, i + 1));
    }
    let views: Vec<SortedSamples> = order.iter().map(|&i| parts[i].0.sorted()).collect();
    let flat: Vec<f64> = order.iter().flat_map(|&i| parts[i].1.clone()).collect();
    view_matches_oracle(g, &SortedSamples::merge(&views), &flat)
}

/// A ledger long enough to compact: thousands of pushes of 1–8 distinct
/// values (drawn from the pool, so signed zeros and both NaN signs among
/// them), in an order that rarely repeats the last value.
fn long_ledger(g: &mut Gen) -> (LatencySamples, Vec<f64>) {
    let distinct: Vec<f64> = (0..g.usize_in(1, 9)).map(|_| value(g)).collect();
    let mut s = LatencySamples::new();
    let mut flat = Vec::new();
    for _ in 0..g.usize_in(1_000, 6_000) {
        let v = distinct[g.usize_in(0, distinct.len())];
        let n = g.usize_in(0, 65);
        s.push_n(v, n);
        flat.extend(std::iter::repeat_n(v, n));
    }
    (s, flat)
}

/// Distinct bit patterns among `flat`.
fn distinct_bits(flat: &[f64]) -> usize {
    let mut b = bits(flat);
    b.sort_unstable();
    b.dedup();
    b.len()
}

/// Past the compaction threshold, a few-distinct population stays
/// bit-identical to its expansion in a buffer of about twice its distinct
/// values plus the threshold.
fn compacted_ledger(g: &mut Gen) -> Result<(), String> {
    let (s, flat) = long_ledger(g);
    let bound = 2 * distinct_bits(&flat) + MIN_COMPACT_RUNS;
    prop_ensure!(
        s.capacity() <= bound,
        "buffer of {} runs for {} distinct values over {} samples",
        s.capacity(),
        distinct_bits(&flat),
        flat.len()
    );
    matches_oracle(g, &s, &flat)
}

/// All-distinct populations (request latencies) grow by doubling and still
/// equal their expansion; a random share of the pushes are signed zeros
/// and NaNs of both signs, so those tie across runs.
fn distinct_ledger(g: &mut Gen) -> Result<(), String> {
    let mut s = LatencySamples::new();
    let mut flat = Vec::new();
    for i in 0..g.usize_in(500, 5_000) {
        let v = match g.usize_in(0, 8) {
            0 => value(g),
            _ => i as f64 * 0.25 + g.f64_in(0.0, 0.125),
        };
        let n = g.usize_in(1, 3);
        s.push_n(v, n);
        flat.extend(std::iter::repeat_n(v, n));
    }
    matches_oracle(g, &s, &flat)
}

/// A population whose first compaction keeps more than half of the
/// buffer, then settles on about 2,000 distinct values over tens of
/// thousands of step changes (the shape of a busy replica's token
/// ledger): it keeps compacting, within twice its distinct values plus
/// the threshold, and equals its expansion.
fn settling_ledger(g: &mut Gen) -> Result<(), String> {
    let pool: Vec<f64> = (0..g.usize_in(1_800, 2_300))
        .map(|k| match g.usize_in(0, 50) {
            0 => value(g),
            _ => k as f64 * 0.5 + 0.125,
        })
        .collect();
    let mut s = LatencySamples::new();
    let mut flat: Vec<f64> = Vec::new();
    let (mut runs, mut first_kept) = (0usize, None);
    for _ in 0..g.usize_in(20_000, 40_000) {
        let v = pool[g.usize_in(0, pool.len())];
        if flat.last().is_none_or(|l| l.to_bits() != v.to_bits()) {
            if runs == MIN_COMPACT_RUNS {
                first_kept = Some(distinct_bits(&flat));
            }
            runs += 1;
        }
        let n = g.usize_in(1, 4);
        s.push_n(v, n);
        flat.extend(std::iter::repeat_n(v, n));
    }
    let first_kept = first_kept.unwrap_or(0);
    prop_ensure!(
        first_kept * 2 > MIN_COMPACT_RUNS,
        "the first compaction kept {first_kept} of {MIN_COMPACT_RUNS} runs"
    );
    let distinct = distinct_bits(&flat);
    prop_ensure!(
        s.capacity() <= 2 * distinct + MIN_COMPACT_RUNS,
        "buffer of {} runs for {distinct} distinct values over {} samples",
        s.capacity(),
        flat.len()
    );
    matches_oracle(g, &s, &flat)
}

#[test]
fn ledger_matches_the_expanded_population() {
    run_cases("ledger_matches_the_expanded_population", 400, single_ledger);
}

#[test]
fn merged_ledgers_match_the_concatenated_population() {
    run_cases(
        "merged_ledgers_match_the_concatenated_population",
        300,
        merged_ledgers,
    );
}

#[test]
fn compacted_ledger_matches_its_expansion_in_a_bounded_buffer() {
    run_cases(
        "compacted_ledger_matches_its_expansion_in_a_bounded_buffer",
        60,
        compacted_ledger,
    );
}

#[test]
fn settling_ledger_keeps_compacting_within_its_distinct_values() {
    run_cases(
        "settling_ledger_keeps_compacting_within_its_distinct_values",
        16,
        settling_ledger,
    );
}

#[test]
fn distinct_ledger_matches_its_expansion() {
    run_cases("distinct_ledger_matches_its_expansion", 40, distinct_ledger);
}

#[test]
fn edge_populations_match_the_oracle() {
    run_seed("edge_populations_match_the_oracle", 0, |g| {
        // Empty, one sample, zero-count pushes only, and signed zeros and
        // NaNs of both signs tied across runs.
        matches_oracle(g, &LatencySamples::new(), &[])?;
        let mut one = LatencySamples::new();
        one.push(4.5);
        matches_oracle(g, &one, &[4.5])?;
        let mut zeros = LatencySamples::new();
        zeros.push_n(1.0, 0);
        zeros.push_n(f64::NAN, 0);
        matches_oracle(g, &zeros, &[])?;
        let mut mixed = LatencySamples::new();
        let mut flat = Vec::new();
        for (v, n) in [
            (0.0, 3),
            (-0.0, 2),
            (f64::NAN, 1),
            (0.0, 4),
            (-f64::NAN, 2),
            (-0.0, 1),
            (1.0, 5),
        ] {
            mixed.push_n(v, n);
            flat.extend(std::iter::repeat_n(v, n));
        }
        matches_oracle(g, &mixed, &flat)
    });
}
