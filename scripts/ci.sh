#!/usr/bin/env bash
# Offline CI gate for the LongSight reproduction.
#
# The workspace has zero external dependencies, so every step below runs
# without network access (--offline). Steps:
#   1. formatting check
#   2. lint gate (clippy, warnings are errors)
#   3. no-unwrap gate for the fault-hardened crates
#   3b. packed-sign-store gate (no per-key SignBits in the hybrid scan)
#   4. sim-time-only gate (no wall-clock reads in the instrumented crates)
#   4b. unsafe gate: `unsafe` code only in crates/tensor/src/simd.rs (the
#      AVX2 kernel dispatch), and every other library or binary crate root
#      `#![forbid(unsafe_code)]`
#   5. release build (all crates, all bench targets compile), then the
#      scf kernel smoke (packed scan bit-identical to and faster than the
#      per-key walk)
#   6. observability smoke: serve/profile with --trace-out, validate the
#      exported Chrome trace JSON round-trips through `trace-validate`
#   7. scheduler smoke: SLO-mixed loadtest on one replica under the
#      slo-aware policy with a traced run, validated the same way, and
#      its --timeseries-out export (the lone replica's unprefixed series)
#      validated by `perf-diff --self-check`
#   8. fleet smokes: multi-replica routing, then the 2-replica crash run
#      with --timeseries-out validated by `perf-diff --self-check`; its
#      `dashboard` must reproduce results/fleet_timeseries.txt from the
#      `== fleet_ts.tsv` line on
#   9. lookahead smokes: speculative loadtest with a traced run, validated
#      the same way, then the same load behind a 2-slot pool under mild
#      token faults (the pool saturates while tokens retry and slots void)
#  10. session smoke: 2-replica session workload under affinity routing
#      with a traced run, then the same workload under replica crashes
#      with the breaker on, both validated the same way
#  10a. composed-fault smoke: token faults on a 2-replica crash fleet
#      with the breaker on, traced and validated the same way
#  10b. serving goldens reproduce: the eight serving benches regenerate
#      byte-identical to their checked-in results/ goldens
#  10c. quality goldens reproduce: fig3_filter_ratio and fig4_pareto (the
#      TraceSweep threshold sweeps) regenerate byte-identical to their
#      checked-in results/ goldens
#  10c'. model and hardware goldens reproduce: filtering_baselines,
#      power_area, table1_models and table2_system regenerate
#      byte-identical to their checked-in results/ goldens
#  10d. offload goldens reproduce: ablations, fig7_throughput,
#      fig8_drex_breakdown, fig9_system_breakdown and fig10_vs_sliding_window
#      (the DReX offload timing path and the step model) regenerate
#      byte-identical to their checked-in results/ goldens
#  10e. attribution golden reproduces: the four `longsight profile` runs
#      of results/profile_attribution.txt (fault-free, token faults,
#      lookahead, both) regenerate byte-identical to it
#  11. perf trajectory gate: `perf-diff --gate results/trajectory.tsv`
#      re-reads the checked-in goldens and fails on a >10% interactive-p99
#      regression against the pinned values
#  12. rustdoc gate (missing/broken docs are errors)
#  13. full test suite (unit + property + integration + doc tests)
#  14. benchmark self-tests (perfbench/: tiny run of every workload,
#      identical results at 1 and 2 threads, BENCHMARK.json matches the code),
#      then, inside a git checkout, one HEAD-vs-HEAD pair of
#      scripts/bench_pairs.sh (session_mix, --seconds 1)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

# The error-model refactor removed panicking paths from the CXL link, the
# DReX device, the fault injector, the recorder, the serving stack, and the
# scheduler/router; keep them out. Test modules (everything at and below the first `#[cfg(test)]`
# in a file) may unwrap.
echo "== no-unwrap gate (cxl, drex, faults, obs, system, sched) =="
unwrap_hits=$(
    find crates/cxl/src crates/drex/src crates/faults/src crates/obs/src \
        crates/system/src crates/sched/src -name '*.rs' -print0 |
        xargs -0 -I{} sh -c 'awk "/#\\[cfg\\(test\\)\\]/ {exit} /\\.unwrap\\(\\)/ {print FILENAME \":\" FNR \": \" \$0}" {}'
)
if [ -n "$unwrap_hits" ]; then
    echo "error: .unwrap() outside tests in fault-hardened code:" >&2
    echo "$unwrap_hits" >&2
    exit 1
fi

# The hybrid scan hot path must stream the packed SignArena, not rebuild
# per-key SignBits heap objects (the regression the bitplane kernel
# removed). Query-side sign packing is fine; per-key construction, a
# per-key vector, or the old HeadSignCache are not. Test modules may do
# whatever they like.
echo "== packed-sign-store gate (no per-key SignBits in the hybrid scan) =="
packed_hits=$(
    awk '/#\[cfg\(test\)\]/ {exit} /SignBits::from_slice|Vec<SignBits>|HeadSignCache/ {print FILENAME ":" FNR ": " $0}' \
        crates/core/src/hybrid.rs
)
if [ -n "$packed_hits" ]; then
    echo "error: per-key SignBits construction in the hybrid scan hot path:" >&2
    echo "$packed_hits" >&2
    exit 1
fi

# Traces and metrics must carry *simulated* time only: a wall-clock read
# anywhere in the instrumented crates would break byte-identical exports
# across thread counts and reruns.
echo "== sim-time gate (no std::time::Instant / SystemTime) =="
clock_hits=$(grep -rn 'std::time::Instant\|SystemTime' \
    crates/obs/src crates/system/src crates/drex/src \
    crates/dram/src crates/cxl/src crates/faults/src || true)
if [ -n "$clock_hits" ]; then
    echo "error: wall-clock reads in sim-time-instrumented crates:" >&2
    echo "$clock_hits" >&2
    exit 1
fi

# The workspace's only `unsafe` code is the AVX2 dispatch of the numeric
# kernels: one call per kernel behind `is_x86_feature_detected!`, in
# crates/tensor/src/simd.rs. The tensor crate root denies `unsafe_code` and
# allows it on that one module; every other library and binary root
# forbids it. The search covers every Rust file (tests, benches, examples
# and perfbench too), skipping comment lines.
echo "== unsafe gate (only crates/tensor/src/simd.rs) =="
unsafe_hits=$(
    grep -rnE --include='*.rs' \
        '(^|[^[:alnum:]_])unsafe([[:space:]]*(\{|fn|impl|trait|extern)|\()|allow\(unsafe_code\)' \
        crates src tests examples perfbench/src perfbench/tests |
        grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
        grep -v '^crates/tensor/src/simd\.rs:' |
        grep -vx 'crates/tensor/src/lib\.rs:[0-9]*:#\[allow(unsafe_code)\]' || true
)
for root in crates/*/src/lib.rs crates/*/src/main.rs src/lib.rs; do
    [ -e "$root" ] || continue
    want='#![forbid(unsafe_code)]'
    [ "$root" = crates/tensor/src/lib.rs ] && want='#![deny(unsafe_code)]'
    grep -qxF "$want" "$root" || unsafe_hits+="${unsafe_hits:+$'\n'}$root: missing $want"
done
if [ -n "$unsafe_hits" ]; then
    echo "error: unsafe code outside crates/tensor/src/simd.rs, or a crate root without its unsafe_code lint:" >&2
    echo "$unsafe_hits" >&2
    exit 1
fi

# Every `#[ignore]` must carry a reason string (`#[ignore = "..."]`) so a
# skipped test is never silent about why. The four annotated manual
# harnesses — three in tests/itq_diagnostics.rs and one in
# tests/param_tuning.rs — pass this gate because they name their reason.
echo "== annotated-ignore gate (no bare #[ignore]) =="
ignore_hits=$(grep -rn '#\[ignore\]' tests crates || true)
if [ -n "$ignore_hits" ]; then
    echo "error: bare #[ignore] without a reason string:" >&2
    echo "$ignore_hits" >&2
    exit 1
fi

echo "== cargo build --release --offline =="
cargo build --release --workspace --offline

# The packed scan kernel must stay bit-identical to the per-key walk and
# faster than it (the bench target asserts both and exits non-zero
# otherwise); the packed row's absolute ns/key is additionally pinned in
# results/trajectory.tsv via the perf gate below.
echo "== scf kernel smoke (per-key vs bitplane-packed) =="
cargo bench -p longsight-bench --bench scf_kernel --offline

echo "== observability smoke (serve/profile --trace-out, trace-validate) =="
obs_tmp=$(mktemp -d)
trap 'rm -rf "$obs_tmp"' EXIT
target/release/longsight serve --model 8b --ctx 131072 --users 4 \
    --trace-out "$obs_tmp/serve_trace.json" --metrics-out "$obs_tmp/serve_metrics.json"
target/release/longsight profile --model 8b --duration 5 \
    --fault-profile mild --fault-seed 11 --host-kernels on \
    --trace-out "$obs_tmp/profile_trace.json" --metrics-out "$obs_tmp/profile_metrics.json"
target/release/longsight trace-validate --file "$obs_tmp/serve_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/profile_trace.json"

echo "== scheduler smoke (SLO-mixed single-replica loadtest, trace-validate, perf-diff --self-check) =="
target/release/longsight loadtest --model 1b --rate 8 --duration 4 \
    --ctx-min 16384 --ctx-max 32768 --sched slo-aware --mix 0.5,0.3,0.2 \
    --prefill-chunk 128 --watermark 0.01 \
    --trace-out "$obs_tmp/sched_trace.json" \
    --timeseries-out "$obs_tmp/sched_ts.tsv"
target/release/longsight trace-validate --file "$obs_tmp/sched_trace.json"
target/release/longsight perf-diff --self-check "$obs_tmp/sched_ts.tsv"

echo "== fleet smoke (2-replica loadtest, both routers) =="
target/release/longsight loadtest --model 1b --rate 12 --duration 4 \
    --ctx-min 16384 --ctx-max 32768 --replicas 2 --router jsq \
    --trace-out "$obs_tmp/fleet_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/fleet_trace.json"
target/release/longsight loadtest --model 1b --rate 12 --duration 4 \
    --ctx-min 16384 --ctx-max 32768 --replicas 2 --router rr

echo "== fleet availability smoke (2-replica crash profile, trace + timeseries) =="
target/release/longsight loadtest --model 1b --rate 10 --duration 6 \
    --ctx-min 16384 --ctx-max 32768 --sched slo-aware --replicas 2 --router jsq \
    --crash-profile 0.1 --crash-seed 11 --breaker on \
    --trace-out "$obs_tmp/fleet_faults_trace.json" \
    --timeseries-out "$obs_tmp/fleet_ts.tsv"
target/release/longsight trace-validate --file "$obs_tmp/fleet_faults_trace.json"
target/release/longsight perf-diff --self-check "$obs_tmp/fleet_ts.tsv"
# The fleet telemetry golden covers the time-series path across crashes,
# brownouts and breakers: the dashboard of this smoke's own export must
# match it byte for byte. It runs inside $obs_tmp because the panel header
# names the file as given.
longsight_bin="$PWD/target/release/longsight"
(cd "$obs_tmp" && "$longsight_bin" dashboard --file fleet_ts.tsv) >"$obs_tmp/fleet_dashboard.txt"
sed -n '/^== fleet_ts.tsv/,$p' results/fleet_timeseries.txt | cmp - "$obs_tmp/fleet_dashboard.txt"

echo "== lookahead smokes (speculative loadtest, then a saturated pool under token faults, trace-validate) =="
target/release/longsight loadtest --model 8b --rate 2 --duration 4 \
    --ctx-min 131072 --ctx-max 131072 --lookahead on \
    --trace-out "$obs_tmp/lookahead_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/lookahead_trace.json"
target/release/longsight loadtest --model 8b --rate 2 --duration 4 \
    --ctx-min 131072 --ctx-max 131072 --lookahead on \
    --fault-profile mild --fault-seed 7 --spec-slots 2 \
    --trace-out "$obs_tmp/lookahead_faults_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/lookahead_faults_trace.json"

echo "== session smoke (2-replica affinity loadtest, trace-validate) =="
target/release/longsight loadtest --model 1b --duration 8 \
    --ctx-min 16384 --ctx-max 32768 --out-min 16 --out-max 64 \
    --replicas 2 --router affinity \
    --sessions 4 --turns 3 --think-time-ms 1500 --reuse 0.9 \
    --trace-out "$obs_tmp/session_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/session_trace.json"
target/release/longsight loadtest --model 1b --duration 8 \
    --ctx-min 16384 --ctx-max 32768 --out-min 16 --out-max 64 \
    --replicas 2 --router affinity --sched slo-aware \
    --sessions 4 --turns 3 --think-time-ms 1500 --reuse 0.9 \
    --crash-profile 0.1 --crash-seed 11 --breaker on \
    --trace-out "$obs_tmp/session_crash_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/session_crash_trace.json"

# Token faults compose with fleets: the same injector serves every replica
# while replicas crash and breakers trip.
echo "== composed-fault smoke (token faults on a crashy fleet, trace-validate) =="
target/release/longsight loadtest --model 1b --rate 10 --duration 6 \
    --ctx-min 16384 --ctx-max 32768 --replicas 2 --sched slo-aware \
    --crash-profile 0.1 --breaker on --fault-profile mild --fault-seed 11 \
    --trace-out "$obs_tmp/fleet_token_faults_trace.json"
target/release/longsight trace-validate --file "$obs_tmp/fleet_token_faults_trace.json"

# The serving drivers are pinned by their goldens: every serving bench
# must regenerate its checked-in results/ file byte for byte.
echo "== serving goldens reproduce (regenerate and cmp against results/) =="
for b in serving_loadtest sched_comparison router_scaling availability \
    fleet_availability lookahead session_reuse slo_capacity; do
    cargo bench -q -p longsight-bench --bench "$b" --offline >"$obs_tmp/$b.txt"
    cmp "$obs_tmp/$b.txt" "results/$b.txt"
done

# The trace-quality pipeline is pinned the same way: fig3_filter_ratio
# sweeps the SCF threshold of 37 (trace, variant, k) configurations and
# fig4_pareto its whole W x k x threshold grid, each scoring a trace once
# per configuration with one TraceSweep (~25 s and ~5 s on a 2-core host).
echo "== quality goldens reproduce (regenerate fig3_filter_ratio, fig4_pareto and cmp against results/) =="
for b in fig3_filter_ratio fig4_pareto; do
    cargo bench -q -p longsight-bench --bench "$b" --offline >"$obs_tmp/$b.txt"
    cmp "$obs_tmp/$b.txt" "results/$b.txt"
done

# The remaining model and hardware goldens: the baseline-filter comparison
# (TraceSweep again, ~2.5 s on a 2-core host), the DReX power/area model
# and the two paper tables.
echo "== model and hardware goldens reproduce (regenerate and cmp against results/) =="
for b in filtering_baselines power_area table1_models table2_system; do
    cargo bench -q -p longsight-bench --bench "$b" --offline >"$obs_tmp/$b.txt"
    cmp "$obs_tmp/$b.txt" "results/$b.txt"
done

# The DReX offload timing path (slice/head timing, DCC scheduling, the layer
# plan) and the step model it feeds are pinned by the offload goldens. They
# carry no wall-clock numbers (fig7's host-timed scan-kernel table lives in
# results/kernels.txt), so each regenerates byte for byte; together they take
# well under 10 s on a 2-core host.
echo "== offload goldens reproduce (regenerate and cmp against results/) =="
for b in ablations fig7_throughput fig8_drex_breakdown fig9_system_breakdown \
    fig10_vs_sliding_window; do
    cargo bench -q -p longsight-bench --bench "$b" --offline >"$obs_tmp/$b.txt"
    cmp "$obs_tmp/$b.txt" "results/$b.txt"
done

# The per-token attribution golden is the only one that runs attribution,
# speculation and token faults together. It prints simulated time only
# (the host-timed `--host-kernels` table lives in results/kernels.txt), so
# it regenerates byte for byte in well under a second.
echo "== attribution golden reproduces (regenerate profile_attribution and cmp against results/) =="
first=1
for args in "--model 8b" "--model 8b --fault-profile mild --fault-seed 11" \
    "--model 8b --lookahead on" \
    "--model 8b --fault-profile mild --fault-seed 11 --lookahead on"; do
    [ "$first" = 1 ] || echo
    first=0
    echo "\$ longsight profile $args"
    # $args is unquoted on purpose: it is the word list of one command.
    target/release/longsight profile $args
done >"$obs_tmp/profile_attribution.txt"
cmp "$obs_tmp/profile_attribution.txt" results/profile_attribution.txt

# Interactive tail-latency trajectory: the checked-in goldens must not
# regress the interactive p99 request latency more than 10% past the values
# pinned in results/trajectory.tsv. Regenerating a golden with a worse tail
# forces an explicit, same-commit update of the trajectory file. The key
# grammar and golden-table parsing live in `longsight perf-diff` (tested in
# crates/cli/src/perf.rs), not in ad-hoc awk here.
echo "== perf trajectory gate (interactive p99 vs results/trajectory.tsv) =="
target/release/longsight perf-diff --gate results/trajectory.tsv

echo "== cargo doc -D warnings =="
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline --quiet

echo "== cargo test -q --offline =="
cargo test --workspace --offline -q

echo "== perfbench self-tests =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The paired-benchmark tool builds a revision in a git worktree, so it
# runs only where there is git history to build from.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "== bench_pairs smoke (HEAD vs HEAD, session_mix, 1 pair) =="
    scripts/bench_pairs.sh HEAD session_mix 1 1 1
fi

echo "CI gate passed."
