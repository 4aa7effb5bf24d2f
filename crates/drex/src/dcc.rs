//! DReX CXL Controller (DCC) scheduling model (paper §7.2).
//!
//! The DCC pulls Request Descriptors from its MMIO queue in FIFO order,
//! distributes per-head (and per-slice) workloads to the NMAs that host the
//! corresponding Context Slices, aggregates partial top-k lists, and posts
//! completions to per-user Response Buffers that the GPU polls over CXL.
//!
//! This module tracks per-NMA busy timelines, which is what produces the
//! multi-user contention behaviour of Figs 8 (bottom) and 9.

use crate::offload::{
    slice_layout, try_time_slice_offload, DrexParams, HeadOffloadSpec, HeadOffloadTiming,
};
use longsight_cxl::CxlLink;
use longsight_obs::{ArgVal, Recorder};

/// One head's workload with the packages hosting its slices.
#[derive(Debug, Clone)]
pub struct HeadWork {
    /// The workload parameters.
    pub spec: HeadOffloadSpec,
    /// Hosting package for each Context Slice segment (parallel NMAs).
    pub slice_packages: Vec<usize>,
}

/// End-to-end timing of one offloaded request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTiming {
    /// Arrival at the DCC (descriptor fully written), ns.
    pub submitted_ns: f64,
    /// All NMA work complete and response buffer populated, ns.
    pub device_done_ns: f64,
    /// GPU has observed completion and finished reading the response, ns.
    pub observed_ns: f64,
    /// Portion of `observed − device_done` spent moving values over CXL.
    pub value_read_ns: f64,
    /// Breakdown of the critical (slowest) head chain.
    pub critical_head: HeadOffloadTiming,
    /// Time the request waited for a free NMA (queueing), ns.
    pub queue_wait_ns: f64,
}

impl RequestTiming {
    /// Total latency from arrival to observed completion.
    pub fn total_ns(&self) -> f64 {
        self.observed_ns
    }
}

/// The DCC scheduler: per-package NMA busy timelines plus the CXL front end.
#[derive(Debug, Clone)]
pub struct DccSim {
    params: DrexParams,
    link: CxlLink,
    nma_busy: Vec<f64>,
    served: u64,
}

impl DccSim {
    /// Creates a scheduler for a device with `packages` NMAs.
    ///
    /// # Panics
    ///
    /// Panics if `packages == 0`.
    pub fn new(params: DrexParams, link: CxlLink, packages: usize) -> Self {
        assert!(packages > 0, "need at least one NMA");
        Self {
            params,
            link,
            nma_busy: vec![0.0; packages],
            served: 0,
        }
    }

    /// The hardware parameters.
    pub fn params(&self) -> &DrexParams {
        &self.params
    }

    /// The CXL link model.
    pub fn link(&self) -> &CxlLink {
        &self.link
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Resets the NMA timelines (new measurement epoch).
    pub fn reset_timelines(&mut self) {
        self.nma_busy.iter_mut().for_each(|t| *t = 0.0);
    }

    /// Schedules pre-timed slice workloads onto the NMA timelines, starting
    /// no earlier than `start_ns`. Returns `(device_done_ns, queue_wait_ns)`.
    ///
    /// This is the fast path for serving-level simulation where many users
    /// submit *identical* workloads: the caller times each distinct slice
    /// once and replays the durations here.
    pub fn schedule_slices(&mut self, start_ns: f64, slices: &[(usize, f64)]) -> (f64, f64) {
        let mut rec = Recorder::disabled();
        self.schedule_slices_traced(start_ns, slices, &mut rec, "nma.slice")
    }

    /// [`DccSim::schedule_slices`] that also emits one span per slice on a
    /// per-NMA track (`nma/p{slot}`), named `label`, covering the slice's
    /// busy interval with its queueing delay as an argument. The returned
    /// `(done, wait)` and the busy-timeline mutation are bit-identical to the
    /// plain call.
    pub fn schedule_slices_traced(
        &mut self,
        start_ns: f64,
        slices: &[(usize, f64)],
        rec: &mut Recorder,
        label: &str,
    ) -> (f64, f64) {
        let mut done = start_ns;
        let mut wait: f64 = 0.0;
        for &(pkg, duration) in slices {
            let slot = pkg % self.nma_busy.len();
            let begin = self.nma_busy[slot].max(start_ns);
            wait = wait.max(begin - start_ns);
            let end = begin + duration;
            self.nma_busy[slot] = end;
            done = done.max(end);
            if rec.is_enabled() {
                let track = rec.track(&format!("nma/p{slot}"));
                rec.leaf_with(
                    track,
                    label,
                    begin,
                    end,
                    &[("queued_ns", ArgVal::F(begin - start_ns))],
                );
            }
        }
        (done, wait)
    }

    /// Submits one request at `arrival_ns`.
    ///
    /// `descriptor_bytes`/`response_bytes` size the CXL transfers; `heads`
    /// lists each KV head's workload and slice placement. Each head's slices
    /// are laid out by [`slice_layout`], and each slice samples its survivor
    /// placement with the per-request seed `(served << 16) ^ (head << 8) ^
    /// slice`.
    ///
    /// # Panics
    ///
    /// Panics if a slice placement is inconsistent (one package per Context
    /// Slice is required) or a head spec is one the hardware cannot run
    /// (`k` beyond the top-k bound, zero `head_dim`) — both programmer
    /// errors, not injectable faults.
    pub fn submit(
        &mut self,
        arrival_ns: f64,
        heads: &[HeadWork],
        descriptor_bytes: usize,
        response_bytes: usize,
    ) -> RequestTiming {
        let submitted_ns = arrival_ns + self.link.descriptor_submit_ns(descriptor_bytes);

        let mut device_done = submitted_ns;
        let mut critical = HeadOffloadTiming::default();
        let mut queue_wait: f64 = 0.0;
        for (hi, head) in heads.iter().enumerate() {
            // An empty head still occupies one (idle) slice placement.
            let layout = slice_layout(&head.spec, 0);
            let slices = layout.len().max(1);
            assert_eq!(
                head.slice_packages.len(),
                slices,
                "head {hi}: {} slice packages for {} slices",
                head.slice_packages.len(),
                slices
            );
            let mut head_done = submitted_ns;
            let mut head_worst = HeadOffloadTiming::default();
            for (si, (w, &pkg)) in layout.iter().zip(&head.slice_packages).enumerate() {
                let seed = (self.served << 16) ^ ((hi as u64) << 8) ^ si as u64;
                let t = try_time_slice_offload(
                    &self.params,
                    &head.spec,
                    w.keys,
                    w.survivors,
                    seed,
                    None,
                )
                .unwrap_or_else(|e| panic!("head {hi}: {e}"));
                let slot = pkg % self.nma_busy.len();
                let nma = &mut self.nma_busy[slot];
                let start = nma.max(submitted_ns);
                queue_wait = queue_wait.max(start - submitted_ns);
                let end = start + t.total_ns();
                *nma = end;
                if end > head_done {
                    head_done = end;
                    head_worst = t;
                }
            }
            // After ranking, the NMA streams the k winning Value vectors out
            // of LPDDR into the Response Buffer (channel-interleaved like the
            // keys; a small serial tail after the last slice finishes).
            let value_bytes = (head.spec.k.min(self.params.max_k) * head.spec.head_dim * 2) as f64;
            let package_bw = 8.0 * self.params.dram.channel_bandwidth_gbps();
            head_done += value_bytes / package_bw + self.params.dram.row_conflict_latency();
            if head_done > device_done {
                device_done = head_done;
                critical = head_worst;
            }
        }

        // GPU observes completion via polling, then reads the response.
        let ready_rel = device_done - arrival_ns;
        let value_read_ns = self.link.transfer_ns(response_bytes);
        let observed_ns = arrival_ns + self.link.polled_completion_ns(ready_rel) + value_read_ns;

        self.served += 1;
        RequestTiming {
            submitted_ns,
            device_done_ns: device_done,
            observed_ns,
            value_read_ns,
            critical_head: critical,
            queue_wait_ns: queue_wait,
        }
    }
}

/// A bounded pool of in-flight speculative offload slots (the lookahead
/// pipeline's backpressure model).
///
/// Each slot carries one speculative filter→bitmap→addr-gen→fetch/score→top-k
/// chain issued at decode step *t* for step *t+1* and stays busy until the
/// chain's simulated completion time. When every slot is busy a new issue is
/// *denied* and that token falls back to the synchronous path — no queueing,
/// no retry, so denial is free of any re-filter penalty. Slots are pooled per
/// DReX device, not per request, which is what lets batched requests share
/// the speculative pipeline.
///
/// Purely simulated-time state: identical call sequences produce identical
/// occupancy timelines at any worker-thread count.
#[derive(Debug, Clone)]
pub struct SpecSlotPool {
    slots: usize,
    in_flight: Vec<f64>,
    peak: usize,
    issued: u64,
    denied: u64,
}

impl SpecSlotPool {
    /// Creates a pool with `slots` concurrent speculative chains.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` — a zero-slot pool would deny everything,
    /// which callers express by disabling lookahead instead.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "need at least one speculative slot");
        Self {
            slots,
            in_flight: Vec::with_capacity(slots),
            peak: 0,
            issued: 0,
            denied: 0,
        }
    }

    /// The configured slot bound.
    pub fn capacity(&self) -> usize {
        self.slots
    }

    /// Retires every slot whose chain completed at or before `now_ns`.
    pub fn release_until(&mut self, now_ns: f64) {
        self.in_flight.retain(|&done| done > now_ns);
    }

    /// Tries to occupy one slot from `now_ns` for `duration_ns`. Returns
    /// `false` (denied, backpressure) when all slots are busy.
    pub fn try_issue(&mut self, now_ns: f64, duration_ns: f64) -> bool {
        if self.in_flight.len() >= self.slots {
            self.denied += 1;
            return false;
        }
        self.in_flight.push(now_ns + duration_ns.max(0.0));
        self.peak = self.peak.max(self.in_flight.len());
        self.issued += 1;
        true
    }

    /// Slots currently busy.
    pub fn occupancy(&self) -> usize {
        self.in_flight.len()
    }

    /// High-water mark of concurrent slots over the pool's lifetime.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// Total successful issues.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total denied issues (backpressure events).
    pub fn denied(&self) -> u64 {
        self.denied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MAX_CONTEXT_SLICE_KEYS;

    fn head(context: usize, survivors: usize, packages: Vec<usize>) -> HeadWork {
        HeadWork {
            spec: HeadOffloadSpec {
                context_len: context,
                head_dim: 128,
                queries: 4,
                k: 1024,
                survivors,
            },
            slice_packages: packages,
        }
    }

    fn dcc() -> DccSim {
        DccSim::new(DrexParams::paper(), CxlLink::pcie5_x16(), 8)
    }

    #[test]
    fn single_request_has_ordered_phases() {
        let mut d = dcc();
        let t = d.submit(0.0, &[head(32_768, 1_600, vec![0])], 1024, 256 * 1024);
        assert!(t.submitted_ns > 0.0);
        assert!(t.device_done_ns > t.submitted_ns);
        assert!(t.observed_ns > t.device_done_ns);
        assert!(t.value_read_ns > 0.0);
        assert_eq!(t.queue_wait_ns, 0.0);
    }

    #[test]
    fn heads_on_distinct_packages_run_in_parallel() {
        let mut serial = dcc();
        let same_pkg: Vec<HeadWork> = (0..4).map(|_| head(65_536, 3_000, vec![0])).collect();
        let t_serial = serial.submit(0.0, &same_pkg, 1024, 1024);

        let mut parallel = dcc();
        let spread: Vec<HeadWork> = (0..4).map(|i| head(65_536, 3_000, vec![i])).collect();
        let t_parallel = parallel.submit(0.0, &spread, 1024, 1024);

        assert!(
            t_parallel.device_done_ns < t_serial.device_done_ns,
            "spreading heads across packages must be faster: {} vs {}",
            t_parallel.device_done_ns,
            t_serial.device_done_ns
        );
    }

    #[test]
    fn back_to_back_requests_queue_on_busy_nmas() {
        let mut d = dcc();
        let w = vec![head(131_072, 6_000, vec![0])];
        let t1 = d.submit(0.0, &w, 1024, 1024);
        let t2 = d.submit(0.0, &w, 1024, 1024);
        assert!(
            t2.queue_wait_ns > 0.0,
            "second request must wait for the NMA"
        );
        assert!(t2.device_done_ns > t1.device_done_ns);
    }

    #[test]
    fn multi_slice_head_uses_parallel_nmas() {
        let mut d = dcc();
        let big = head(2 * MAX_CONTEXT_SLICE_KEYS, 12_000, vec![0, 1]);
        let t_par = d.submit(0.0, &[big], 1024, 1024);
        let mut d2 = dcc();
        let crammed = head(2 * MAX_CONTEXT_SLICE_KEYS, 12_000, vec![0, 0]);
        let t_ser = d2.submit(0.0, &[crammed], 1024, 1024);
        assert!(t_par.device_done_ns < t_ser.device_done_ns);
    }

    #[test]
    #[should_panic(expected = "slice packages")]
    fn wrong_slice_package_count_panics() {
        let mut d = dcc();
        let bad = head(2 * MAX_CONTEXT_SLICE_KEYS, 100, vec![0]); // needs 2
        let _ = d.submit(0.0, &[bad], 64, 64);
    }

    #[test]
    fn spec_pool_denies_past_capacity_and_releases_on_completion() {
        let mut pool = SpecSlotPool::new(2);
        assert!(pool.try_issue(0.0, 100.0));
        assert!(pool.try_issue(0.0, 200.0));
        assert!(!pool.try_issue(0.0, 50.0), "third issue must be denied");
        assert_eq!(pool.occupancy(), 2);
        assert_eq!(pool.denied(), 1);

        pool.release_until(150.0); // first chain done at 100
        assert_eq!(pool.occupancy(), 1);
        assert!(pool.try_issue(150.0, 10.0));
        assert_eq!(pool.issued(), 3);
        assert_eq!(pool.peak_occupancy(), 2);
    }

    /// The two facts a serving step relies on to check a later step of a
    /// run before taking it: releasing twice at one time is releasing once,
    /// and after a release `k` issues all succeed exactly when
    /// `occupancy() + k <= capacity()`.
    #[test]
    fn spec_pool_release_is_idempotent_and_issues_fit_the_free_slots() {
        for slots in 1..=4usize {
            for t in [0.0, 50.0, 100.0, 150.0, 250.0] {
                for k in 0..=slots + 1 {
                    // Chains done at 100, 200 and 300, up to the capacity.
                    let mut pool = SpecSlotPool::new(slots);
                    for i in 0..slots.min(3) {
                        assert!(pool.try_issue(0.0, 100.0 * (i + 1) as f64));
                    }
                    let mut once = pool.clone();
                    once.release_until(t);
                    pool.release_until(t);
                    pool.release_until(t);
                    assert_eq!(format!("{pool:?}"), format!("{once:?}"), "t {t}");
                    let fits = pool.occupancy() + k <= pool.capacity();
                    let issued = (0..k).filter(|_| pool.try_issue(t, 10.0)).count();
                    assert_eq!(issued == k, fits, "slots {slots}, t {t}, k {k}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "speculative slot")]
    fn zero_slot_pool_panics() {
        let _ = SpecSlotPool::new(0);
    }
}
