//! Per-channel FR-FCFS command scheduling over bank state.
//!
//! Each LPDDR5X channel is independent (own command/data bus, own banks), so
//! the device simulator runs one [`ChannelSim`] per channel. The model tracks
//! per-bank row-buffer state and ready times, the shared data bus, command
//! bus occupancy, and the tRRD/tFAW activate constraints — the same set of
//! constraints DRAMSim3 enforces for this access pattern class.

use crate::timing::DramTiming;
use longsight_obs::{ArgVal, Recorder, TrackId};
use std::collections::VecDeque;

/// One column-granularity access request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Bank index within the channel.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Column (burst) index within the row.
    pub col: usize,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Arrival time at the channel controller, ns.
    pub arrival: f64,
}

impl Request {
    /// A read arriving at time zero.
    pub fn read(bank: usize, row: usize, col: usize) -> Self {
        Self {
            bank,
            row,
            col,
            is_write: false,
            arrival: 0.0,
        }
    }
}

/// Completion record for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Time the last data beat left the bus, ns.
    pub finish: f64,
    /// Whether the access hit an open row.
    pub row_hit: bool,
}

/// Aggregate statistics of a channel run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    /// Requests served.
    pub requests: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Time the last request finished, ns.
    pub finish_time: f64,
    /// Total data-bus busy time, ns.
    pub data_busy: f64,
    /// Sum of per-request latencies (finish − arrival), ns.
    pub total_latency: f64,
}

impl ChannelStats {
    /// Achieved bandwidth in GB/s given the burst size.
    pub fn bandwidth_gbps(&self, burst_bytes: usize) -> f64 {
        if self.finish_time <= 0.0 {
            return 0.0;
        }
        self.requests as f64 * burst_bytes as f64 / self.finish_time
    }

    /// Row-buffer hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }
}

#[derive(Debug, Clone, Default)]
struct BankState {
    open_row: Option<usize>,
    /// Earliest time an ACT may issue.
    act_ready: f64,
    /// Earliest time a column command may issue.
    rw_ready: f64,
    /// Earliest time a PRE may issue.
    pre_ready: f64,
}

/// Command-bus occupancy per command, ns (one command slot per ~tCK).
const CMD_SLOT_NS: f64 = 1.0;

/// FR-FCFS scheduler for one channel.
#[derive(Debug, Clone)]
pub struct ChannelSim {
    timing: DramTiming,
    banks: Vec<BankState>,
    bus_free: f64,
    cmd_free: f64,
    last_act: f64,
    recent_acts: VecDeque<f64>,
    next_refresh: f64,
    stats: ChannelStats,
}

impl ChannelSim {
    /// Creates a channel with `banks` banks, all precharged.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn new(timing: DramTiming, banks: usize) -> Self {
        assert!(banks > 0, "a channel needs at least one bank");
        let next_refresh = timing.t_refi;
        Self {
            timing,
            banks: vec![BankState::default(); banks],
            bus_free: 0.0,
            cmd_free: 0.0,
            last_act: f64::NEG_INFINITY,
            recent_acts: VecDeque::new(),
            next_refresh,
            stats: ChannelStats::default(),
        }
    }

    /// The timing parameters.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Serves a batch of requests with FR-FCFS scheduling and returns each
    /// request's completion, in the order of the input slice.
    ///
    /// # Panics
    ///
    /// Panics if any request names a bank out of range.
    pub fn run(&mut self, requests: &[Request]) -> Vec<Completion> {
        for r in requests {
            assert!(r.bank < self.banks.len(), "bank {} out of range", r.bank);
        }
        let mut completions = vec![
            Completion {
                finish: 0.0,
                row_hit: false
            };
            requests.len()
        ];
        // Pending indices ordered by arrival (stable for ties).
        let mut pending: Vec<usize> = (0..requests.len()).collect();
        pending.sort_by(|&a, &b| {
            requests[a]
                .arrival
                .total_cmp(&requests[b].arrival)
                .then(a.cmp(&b))
        });

        // Real memory controllers schedule over a bounded transaction queue;
        // scanning a fixed-size window keeps the simulation O(n·W).
        const SCHED_WINDOW: usize = 32;

        let mut pending: VecDeque<usize> = pending.into_iter().collect();
        let mut now = 0.0f64;
        while !pending.is_empty() {
            // Requests that have arrived, among the scheduling window.
            let horizon = now.max(requests[*pending.front().expect("non-empty")].arrival);
            now = horizon;

            // FR-FCFS: oldest row hit first (within the window), else oldest.
            let pick_pos = pending
                .iter()
                .take(SCHED_WINDOW)
                .position(|&i| {
                    let r = &requests[i];
                    r.arrival <= horizon && self.banks[r.bank].open_row == Some(r.row)
                })
                .unwrap_or(0);
            let pick = pending.remove(pick_pos).expect("position in range");

            let r = requests[pick];
            let c = self.issue(&r, now);
            completions[pick] = c;
            self.stats.requests += 1;
            if c.row_hit {
                self.stats.row_hits += 1;
            }
            self.stats.finish_time = self.stats.finish_time.max(c.finish);
            self.stats.data_busy += self.timing.burst_ns;
            self.stats.total_latency += c.finish - r.arrival;
        }
        completions
    }

    /// [`ChannelSim::run`] that also emits one `dram.channel` span on `track`
    /// covering the batch (anchored at simulated time `start_ns`; channel
    /// time zero maps to the anchor), with row-hit-rate and bandwidth stats
    /// as span arguments. The returned completions are bit-identical to a
    /// plain `run` — tracing never perturbs the schedule.
    pub fn run_traced(
        &mut self,
        requests: &[Request],
        rec: &mut Recorder,
        track: TrackId,
        start_ns: f64,
    ) -> Vec<Completion> {
        let before = self.stats;
        let completions = self.run(requests);
        if rec.is_enabled() && !completions.is_empty() {
            let finish = completions.iter().fold(0.0f64, |m, c| m.max(c.finish));
            let served = self.stats.requests - before.requests;
            let hits = self.stats.row_hits - before.row_hits;
            let hit_rate = if served == 0 {
                0.0
            } else {
                hits as f64 / served as f64
            };
            rec.leaf_with(
                track,
                "dram.channel",
                start_ns,
                start_ns + finish,
                &[
                    ("requests", ArgVal::U(served)),
                    ("row_hit_rate", ArgVal::F(hit_rate)),
                    (
                        "data_busy_ns",
                        ArgVal::F(self.stats.data_busy - before.data_busy),
                    ),
                ],
            );
        }
        completions
    }

    /// Issues the command sequence for one request starting no earlier than
    /// `now`, updating all state. Returns the completion.
    ///
    /// Each command (PRE/ACT/RD/WR) occupies one command-bus slot; commands
    /// of *different* requests interleave freely, so a request waiting out
    /// tRCD does not block the next request's activate — the controller
    /// pipeline real DRAM schedulers have.
    fn issue(&mut self, r: &Request, now: f64) -> Completion {
        let t = self.timing.clone();

        // All-bank refresh: when the timeline crosses a tREFI boundary every
        // bank precharges and stays busy for tRFC.
        while t.t_refi > 0.0 && now.max(self.cmd_free) >= self.next_refresh {
            let resume = self.next_refresh + t.t_rfc;
            for b in &mut self.banks {
                b.open_row = None;
                b.act_ready = b.act_ready.max(resume);
                b.rw_ready = b.rw_ready.max(resume);
                b.pre_ready = b.pre_ready.max(resume);
            }
            self.next_refresh += t.t_refi;
        }

        let hit = self.banks[r.bank].open_row == Some(r.row);

        if !hit {
            // Precharge if a different row is open.
            if self.banks[r.bank].open_row.is_some() {
                let pre_at = now.max(self.cmd_free).max(self.banks[r.bank].pre_ready);
                self.cmd_free = pre_at + CMD_SLOT_NS;
                self.banks[r.bank].act_ready = self.banks[r.bank].act_ready.max(pre_at + t.t_rp);
                self.banks[r.bank].open_row = None;
            }
            // Activate, honoring tRRD and tFAW across banks.
            let mut act_at = now
                .max(self.cmd_free)
                .max(self.banks[r.bank].act_ready)
                .max(self.last_act + t.t_rrd);
            while self.recent_acts.len() >= 4 {
                let oldest = *self.recent_acts.front().expect("non-empty");
                if act_at < oldest + t.t_faw {
                    act_at = oldest + t.t_faw;
                }
                self.recent_acts.pop_front();
            }
            self.recent_acts.push_back(act_at);
            if self.recent_acts.len() > 4 {
                self.recent_acts.pop_front();
            }
            self.last_act = act_at;
            self.cmd_free = act_at + CMD_SLOT_NS;
            let bank = &mut self.banks[r.bank];
            bank.open_row = Some(r.row);
            bank.rw_ready = act_at + t.t_rcd;
            bank.pre_ready = act_at + t.t_ras;
        }

        // Column command: bank CCD and the shared data bus (data must not
        // start before the bus frees). Column commands are not coupled into
        // `cmd_free`: they issue *later* than the next requests' activates in
        // a pipelined controller, and serializing the next ACT behind this
        // read would model a depth-1 pipeline. The CA bus is far from
        // saturated at one command per burst slot (burst_ns > CMD_SLOT_NS).
        let data_delay = t.t_cl; // writes modeled with the same column latency
        let col_at = now
            .max(self.banks[r.bank].rw_ready)
            .max(self.bus_free - data_delay);
        let data_start = col_at + data_delay;
        let finish = data_start + t.burst_ns;
        self.bus_free = finish;

        let bank = &mut self.banks[r.bank];
        bank.rw_ready = bank.rw_ready.max(col_at + t.t_ccd);
        bank.pre_ready = bank.pre_ready.max(if r.is_write {
            finish + t.t_wr
        } else {
            col_at + t.t_rtp
        });

        Completion {
            finish,
            row_hit: hit,
        }
    }
}

/// Runs one independent [`ChannelSim`] per request batch and returns each
/// channel's completions and final statistics, in input order.
///
/// LPDDR5X channels share nothing (own command/data bus, own banks), so the
/// batches simulate concurrently on the deterministic parallel map
/// ([`longsight_exec::deterministic_map`]); every channel's result is
/// bit-identical to running it alone, at any thread count.
///
/// # Panics
///
/// Panics if `banks == 0` or any request names a bank out of range.
pub fn run_channels(
    timing: &DramTiming,
    banks: usize,
    per_channel: &[Vec<Request>],
) -> Vec<(Vec<Completion>, ChannelStats)> {
    longsight_exec::deterministic_map(per_channel, |_, requests| {
        let mut sim = ChannelSim::new(timing.clone(), banks);
        let completions = sim.run(requests);
        (completions, *sim.stats())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> ChannelSim {
        ChannelSim::new(DramTiming::lpddr5x_8533(), 16)
    }

    #[test]
    fn cold_single_read_latency_is_act_rcd_cl_burst() {
        let mut s = sim();
        let c = s.run(&[Request::read(0, 5, 0)]);
        let t = DramTiming::lpddr5x_8533();
        let expect = t.t_rcd + t.t_cl + t.burst_ns;
        assert!(
            (c[0].finish - expect).abs() < 2.0 * 2.0, // two command slots of slack
            "finish {} vs expected ~{expect}",
            c[0].finish
        );
        assert!(!c[0].row_hit);
    }

    #[test]
    fn same_row_reads_hit_and_stream_at_bus_rate() {
        let mut s = sim();
        let reqs: Vec<Request> = (0..64).map(|c| Request::read(0, 7, c)).collect();
        let comps = s.run(&reqs);
        assert!(comps[1..].iter().all(|c| c.row_hit));
        let t = DramTiming::lpddr5x_8533();
        // Steady state: one burst per burst_ns.
        let span = comps.last().unwrap().finish - comps[0].finish;
        let ideal = 63.0 * t.burst_ns;
        assert!(
            span < ideal * 1.2 + 1.0,
            "streaming span {span} too far above ideal {ideal}"
        );
        assert!(span >= ideal - 1e-9, "cannot beat the data bus");
    }

    #[test]
    fn row_conflict_in_same_bank_is_slower_than_bank_parallel() {
        let t = DramTiming::lpddr5x_8533();
        // 8 accesses to 8 different rows of the SAME bank.
        let mut s1 = sim();
        let conflict: Vec<Request> = (0..8).map(|r| Request::read(0, r, 0)).collect();
        let f1 = s1
            .run(&conflict)
            .iter()
            .map(|c| c.finish)
            .fold(0.0, f64::max);
        // 8 accesses to 8 different banks.
        let mut s2 = sim();
        let parallel: Vec<Request> = (0..8).map(|b| Request::read(b, 0, 0)).collect();
        let f2 = s2
            .run(&parallel)
            .iter()
            .map(|c| c.finish)
            .fold(0.0, f64::max);
        assert!(
            f1 > f2,
            "bank conflicts ({f1} ns) must be slower than bank parallelism ({f2} ns)"
        );
        let _ = t;
    }

    #[test]
    fn bandwidth_never_exceeds_bus_peak() {
        let mut s = sim();
        let reqs: Vec<Request> = (0..512)
            .map(|i| Request::read(i % 16, (i / 16) % 4, i % 64))
            .collect();
        s.run(&reqs);
        let t = DramTiming::lpddr5x_8533();
        let bw = s.stats().bandwidth_gbps(t.burst_bytes);
        assert!(
            bw <= t.channel_bandwidth_gbps() + 1e-9,
            "achieved {bw} GB/s exceeds peak {}",
            t.channel_bandwidth_gbps()
        );
        assert!(bw > 0.0);
    }

    #[test]
    fn faw_throttles_activate_bursts() {
        // 8 activates to 8 banks: the 5th..8th must wait for tFAW windows.
        let mut s = sim();
        let reqs: Vec<Request> = (0..8).map(|b| Request::read(b, 1, 0)).collect();
        let comps = s.run(&reqs);
        let t = DramTiming::lpddr5x_8533();
        // The 5th activate can start no earlier than the 1st + tFAW.
        let lower = t.t_faw + t.t_rcd + t.t_cl + t.burst_ns;
        assert!(
            comps[4].finish >= lower - 1e-9,
            "5th access at {} violates tFAW (needs >= {lower})",
            comps[4].finish
        );
    }

    #[test]
    fn later_arrivals_are_not_served_before_they_arrive() {
        let mut s = sim();
        let reqs = vec![
            Request {
                bank: 0,
                row: 0,
                col: 0,
                is_write: false,
                arrival: 1000.0,
            },
            Request {
                bank: 1,
                row: 0,
                col: 0,
                is_write: false,
                arrival: 2000.0,
            },
        ];
        let comps = s.run(&reqs);
        assert!(comps[0].finish >= 1000.0);
        assert!(comps[1].finish >= 2000.0);
    }

    #[test]
    fn refresh_interrupts_long_streams() {
        // A stream long enough to cross several tREFI boundaries loses
        // roughly t_rfc/t_refi of its bandwidth.
        let t = DramTiming::lpddr5x_8533();
        let mut with = ChannelSim::new(t.clone(), 16);
        let reqs: Vec<Request> = (0..8192)
            .map(|c| Request::read(0, c / 64 % 8, c % 64))
            .collect();
        let f_with = with.run(&reqs).iter().map(|c| c.finish).fold(0.0, f64::max);
        let mut no_refresh = t.clone();
        no_refresh.t_refi = 0.0;
        let mut without = ChannelSim::new(no_refresh, 16);
        let f_without = without
            .run(&reqs)
            .iter()
            .map(|c| c.finish)
            .fold(0.0, f64::max);
        assert!(f_with > f_without, "refresh must cost something");
        let overhead = f_with / f_without - 1.0;
        assert!(
            overhead < 3.0 * t.refresh_overhead() + 0.05,
            "refresh overhead {overhead} implausibly high"
        );
    }

    #[test]
    fn short_bursts_may_dodge_refresh_entirely() {
        let t = DramTiming::lpddr5x_8533();
        let mut s = ChannelSim::new(t, 16);
        // Finishes well before the first tREFI at 3.9 us.
        let reqs: Vec<Request> = (0..8).map(|c| Request::read(0, 0, c)).collect();
        let f = s.run(&reqs).iter().map(|c| c.finish).fold(0.0, f64::max);
        assert!(f < 200.0);
    }

    #[test]
    fn run_channels_matches_independent_serial_runs() {
        let t = DramTiming::lpddr5x_8533();
        let batches: Vec<Vec<Request>> = (0..6)
            .map(|ch| {
                (0..256)
                    .map(|i| Request::read((i + ch) % 16, (i / 16 + ch) % 8, i % 64))
                    .collect()
            })
            .collect();
        let parallel = run_channels(&t, 16, &batches);
        assert_eq!(parallel.len(), batches.len());
        for (batch, (comps, stats)) in batches.iter().zip(&parallel) {
            let mut solo = ChannelSim::new(t.clone(), 16);
            let expect = solo.run(batch);
            assert_eq!(comps, &expect, "channel completions diverged");
            assert_eq!(stats, solo.stats(), "channel stats diverged");
        }
    }

    #[test]
    fn writes_delay_subsequent_precharge() {
        let mut s = sim();
        let reqs = vec![
            Request {
                bank: 0,
                row: 0,
                col: 0,
                is_write: true,
                arrival: 0.0,
            },
            // Different row, same bank: forces precharge after the write.
            Request::read(0, 1, 0),
        ];
        let comps = s.run(&reqs);
        let t = DramTiming::lpddr5x_8533();
        // Write finish + tWR + tRP + tRCD + tCL + burst is a lower bound.
        let lower = comps[0].finish + t.t_wr + t.t_rp + t.t_rcd + t.t_cl + t.burst_ns;
        assert!(
            comps[1].finish >= lower - 1e-6,
            "read after write finished too early: {} < {lower}",
            comps[1].finish
        );
    }
}
