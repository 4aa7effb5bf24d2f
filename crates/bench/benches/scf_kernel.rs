//! SCF scan-kernel smoke: times the per-key `scf_pass` walk against the
//! bitplane `filter_block_packed` kernel over the same packed sign store and
//! asserts the packed path is both bit-identical and faster. This is the
//! fast CI guard for the kernel speedup (the `kernels` bench prints the same
//! table into `results/kernels.txt`); `perf-diff --gate` pins the packed
//! row's absolute ns/key there via `results/trajectory.tsv`.

use longsight_bench::fig7::{scan_kernel_bench, scan_kernel_rows};
use longsight_bench::print_table;

fn main() {
    let b = scan_kernel_bench(65_536, 128);
    print_table(
        "SCF scan kernel: per-key vs bitplane-packed (host wall-clock)",
        &["kernel", "keys", "dim", "ns per key", "speedup"],
        &scan_kernel_rows(&b),
    );
    assert!(b.identical, "packed kernel diverged from per-key scan");
    assert!(
        b.packed_ns_per_key < b.per_key_ns_per_key,
        "packed kernel must beat the per-key scan: {:.3} vs {:.3} ns/key",
        b.packed_ns_per_key,
        b.per_key_ns_per_key
    );
    println!(
        "\nscf_kernel: packed scan {:.2}x faster than per-key at {} keys x {} dims",
        b.speedup(),
        b.keys,
        b.dim
    );
}
