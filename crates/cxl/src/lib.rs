//! CXL.mem link model.
//!
//! DReX is a Type-3 CXL device whose internal DRAM and MMIO registers are
//! mapped into the GPU address space (paper §6): the GPU writes Request
//! Descriptors into an MMIO Request Queue, polls a Polling Register, and
//! reads top-k results from Response Buffers — all over the CXL/PCIe link.
//!
//! The paper measures these overheads by emulating CXL on a dual-socket Xeon
//! (following Pond \[18\]) and folds them into its performance model; this
//! module exposes the same knobs with literature-consistent defaults for a
//! PCIe 5.0 ×16 link.
//!
//! # Example
//!
//! ```
//! use longsight_cxl::CxlLink;
//!
//! let link = CxlLink::pcie5_x16();
//! // Reading 1024 top-k value vectors of 128 BF16 dims ≈ 256 KiB:
//! let ns = link.transfer_ns(1024 * 128 * 2);
//! assert!(ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use longsight_obs::{ArgVal, Recorder, TrackId};

/// Flit window retransmitted per CRC replay round, bytes. PCIe/CXL links
/// recover from CRC errors by replaying from the last acknowledged flit, so
/// a replay costs re-arbitration plus one replay-buffer window — not the
/// whole payload.
pub const REPLAY_WINDOW_BYTES: usize = 4096;

/// Latency/bandwidth parameters of the CXL link between GPU and DReX.
#[derive(Debug, Clone, PartialEq)]
pub struct CxlLink {
    /// One-way latency of a posted MMIO write (doorbell / descriptor word).
    pub mmio_write_ns: f64,
    /// Round-trip latency of an uncached MMIO read (one poll).
    pub mmio_read_ns: f64,
    /// Base one-way latency added to every bulk transfer.
    pub base_latency_ns: f64,
    /// Sustained payload bandwidth, bytes per nanosecond (= GB/s).
    pub bandwidth_gbps: f64,
    /// Period of the GPU's completion-polling loop.
    pub poll_interval_ns: f64,
}

impl CxlLink {
    /// PCIe 5.0 ×16 CXL defaults.
    ///
    /// ~64 GB/s raw ×16 PCIe 5.0; ~85 % payload efficiency after CXL.mem
    /// flit overhead → 54 GB/s sustained. MMIO read round trip and base
    /// latency follow published CXL Type-3 access measurements (~300–600 ns),
    /// consistent with the paper's dual-socket emulation methodology.
    pub fn pcie5_x16() -> Self {
        Self {
            mmio_write_ns: 150.0,
            mmio_read_ns: 600.0,
            base_latency_ns: 300.0,
            bandwidth_gbps: 54.0,
            poll_interval_ns: 200.0,
        }
    }

    /// Time for a bulk transfer of `bytes` over the link.
    pub fn transfer_ns(&self, bytes: usize) -> f64 {
        self.base_latency_ns + bytes as f64 / self.bandwidth_gbps
    }

    /// Time to submit a descriptor of `bytes` via MMIO writes (64 B per
    /// write-combining store).
    pub fn descriptor_submit_ns(&self, bytes: usize) -> f64 {
        let stores = bytes.div_ceil(64);
        // Posted writes pipeline; the first incurs full latency, the rest
        // stream at one store per 8 ns (write-combining buffer drain).
        self.mmio_write_ns + stores.saturating_sub(1) as f64 * 8.0
    }

    /// Completion observation time: the device finishes at `ready_at`
    /// (relative ns); the GPU polls every `poll_interval_ns`. Returns the
    /// time at which the GPU *observes* completion, including the final
    /// MMIO read.
    pub fn polled_completion_ns(&self, ready_at: f64) -> f64 {
        if ready_at <= 0.0 {
            return self.mmio_read_ns;
        }
        let polls = (ready_at / self.poll_interval_ns).ceil();
        polls * self.poll_interval_ns + self.mmio_read_ns
    }

    /// In-flight transfer accounting for the lookahead pipeline: given a
    /// chain (device work + link transfer) of `in_flight_ns` issued
    /// speculatively one step ahead, and `compute_ns` of GPU work available
    /// to hide it behind, returns the portion of the chain that overlaps
    /// with compute. The remainder, `in_flight_ns - overlapped`, is what the
    /// decode step still sees as visible wait.
    pub fn overlapped_ns(&self, in_flight_ns: f64, compute_ns: f64) -> f64 {
        in_flight_ns.min(compute_ns.max(0.0))
    }

    /// Cost of one CRC replay round on a transfer of `bytes`: link
    /// re-arbitration (the base latency) plus retransmission of the last
    /// replay-buffer window.
    pub fn replay_penalty_ns(&self, bytes: usize) -> f64 {
        self.base_latency_ns + bytes.min(REPLAY_WINDOW_BYTES) as f64 / self.bandwidth_gbps
    }

    /// Bulk transfer time including `replays` CRC replay rounds. With zero
    /// replays this is exactly [`CxlLink::transfer_ns`]; each round adds a
    /// fixed penalty, so the time is monotone in the replay count.
    pub fn transfer_ns_with_replays(&self, bytes: usize, replays: u32) -> f64 {
        self.transfer_ns(bytes) + replays as f64 * self.replay_penalty_ns(bytes)
    }

    /// Completion observation under replays: a replayed completion message
    /// costs the GPU one extra polling round per replay on top of
    /// [`CxlLink::polled_completion_ns`].
    pub fn polled_completion_ns_with_replays(&self, ready_at: f64, replays: u32) -> f64 {
        self.polled_completion_ns(ready_at) + replays as f64 * self.poll_interval_ns
    }

    /// [`CxlLink::descriptor_submit_ns`] that also emits a `cxl.submit` span
    /// starting at simulated time `start_ns` on `track`.
    pub fn descriptor_submit_ns_traced(
        &self,
        bytes: usize,
        rec: &mut Recorder,
        track: TrackId,
        start_ns: f64,
    ) -> f64 {
        let t = self.descriptor_submit_ns(bytes);
        rec.leaf_with(
            track,
            "cxl.submit",
            start_ns,
            start_ns + t,
            &[("bytes", ArgVal::U(bytes as u64))],
        );
        t
    }

    /// [`CxlLink::transfer_ns_with_replays`] that also emits a `cxl.transfer`
    /// span starting at simulated time `start_ns` on `track`. Replay rounds
    /// (CRC retransmits) are recorded as an argument so faulted transfers are
    /// distinguishable in the trace viewer.
    pub fn transfer_ns_traced(
        &self,
        bytes: usize,
        replays: u32,
        rec: &mut Recorder,
        track: TrackId,
        start_ns: f64,
    ) -> f64 {
        let t = self.transfer_ns_with_replays(bytes, replays);
        rec.leaf_with(
            track,
            "cxl.transfer",
            start_ns,
            start_ns + t,
            &[
                ("bytes", ArgVal::U(bytes as u64)),
                ("replays", ArgVal::U(replays as u64)),
            ],
        );
        t
    }
}

impl Default for CxlLink {
    fn default() -> Self {
        Self::pcie5_x16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_linearly_with_size() {
        let l = CxlLink::pcie5_x16();
        let small = l.transfer_ns(1024);
        let big = l.transfer_ns(1024 * 1024);
        assert!(big > small);
        // Slope check: doubling payload doubles the bandwidth term.
        let a = l.transfer_ns(2_000_000) - l.base_latency_ns;
        let b = l.transfer_ns(1_000_000) - l.base_latency_ns;
        assert!((a / b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn polling_quantizes_completion_time() {
        let l = CxlLink::pcie5_x16();
        // Ready at 250 ns with a 200 ns poll period → observed on the poll
        // at 400 ns plus the read round trip.
        let t = l.polled_completion_ns(250.0);
        assert!((t - (400.0 + l.mmio_read_ns)).abs() < 1e-9);
        // Already ready: one read.
        assert_eq!(l.polled_completion_ns(0.0), l.mmio_read_ns);
    }

    #[test]
    fn descriptor_submit_grows_with_size() {
        let l = CxlLink::pcie5_x16();
        let one = l.descriptor_submit_ns(64);
        let many = l.descriptor_submit_ns(64 * 100);
        assert_eq!(one, l.mmio_write_ns);
        assert!(many > one);
        assert!(many < l.mmio_write_ns + 100.0 * 8.0);
    }

    #[test]
    fn overlap_accounting_is_clamped_to_the_chain_and_the_budget() {
        let l = CxlLink::pcie5_x16();
        // Chain fully hidden when compute is longer.
        assert_eq!(l.overlapped_ns(100.0, 250.0), 100.0);
        // Compute shorter: only the compute window hides.
        assert_eq!(l.overlapped_ns(400.0, 250.0), 250.0);
        // Negative budgets hide nothing.
        assert_eq!(l.overlapped_ns(400.0, -5.0), 0.0);
    }

    #[test]
    fn replays_inflate_transfer_and_polling_monotonically() {
        let l = CxlLink::pcie5_x16();
        let bytes = 256 * 1024;
        assert_eq!(l.transfer_ns_with_replays(bytes, 0), l.transfer_ns(bytes));
        let t1 = l.transfer_ns_with_replays(bytes, 1);
        let t3 = l.transfer_ns_with_replays(bytes, 3);
        assert!(t1 > l.transfer_ns(bytes));
        assert!(t3 > t1);
        // Replay retransmits a flit window, never the full payload.
        assert!(t1 - l.transfer_ns(bytes) < l.transfer_ns(bytes));
        assert_eq!(
            l.polled_completion_ns_with_replays(500.0, 0),
            l.polled_completion_ns(500.0)
        );
        assert!(l.polled_completion_ns_with_replays(500.0, 2) > l.polled_completion_ns(500.0));
    }

    #[test]
    fn traced_variants_match_plain_and_emit_spans() {
        let l = CxlLink::pcie5_x16();
        let mut rec = Recorder::enabled();
        let track = rec.track("cxl");
        let mut at = 0.0;
        let submit = l.descriptor_submit_ns_traced(256, &mut rec, track, at);
        assert_eq!(submit, l.descriptor_submit_ns(256));
        at += submit;
        let xfer = l.transfer_ns_traced(4096, 2, &mut rec, track, at);
        assert_eq!(xfer, l.transfer_ns_with_replays(4096, 2));
        assert_eq!(rec.spans().len(), 2);
        rec.validate_well_formed().unwrap();

        // No-op recorder: identical numbers, zero events.
        let mut off = Recorder::disabled();
        let t0 = off.track("cxl");
        assert_eq!(
            l.transfer_ns_traced(4096, 2, &mut off, t0, 0.0),
            l.transfer_ns_with_replays(4096, 2)
        );
        assert!(off.spans().is_empty());
    }

    #[test]
    fn value_readback_time_is_plausible() {
        // 1024 values × 128 dims × 2 B ≈ 256 KiB → ~5 µs at 54 GB/s.
        let l = CxlLink::pcie5_x16();
        let ns = l.transfer_ns(1024 * 128 * 2);
        assert!((4_000.0..8_000.0).contains(&ns), "got {ns}");
    }
}
