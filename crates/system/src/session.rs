//! Multi-turn session workload model.
//!
//! A session is one user holding a conversation: an opening turn with a
//! fresh prompt, then follow-up turns that arrive after a think-time gap
//! and *extend* the prior context (everything the model already saw plus
//! the answer it produced plus a short new user message). The KV state of
//! the shared prefix is what the content-keyed prefix cache in
//! `longsight-sched` deduplicates: a follow-up that resumes on a replica
//! still holding the prefix pays prefill only for the suffix, and one that
//! resumes elsewhere can pull the pages over the pooled-DReX fabric
//! instead of recomputing (see `serving::run`).
//!
//! Determinism follows the same stream discipline as the Poisson
//! generator: every session owns a private RNG stream keyed off
//! `workload.seed ^ SESSION_SEED` mixed with the session index, and the
//! reuse draws live on a *separate* stream per session — sweeping the
//! reuse rate never shifts an arrival time, context length, or class, so
//! curves across reuse values compare identical offered load. Generation
//! is a pure function of `(seed, options)`, byte-identical at any worker
//! thread count.

use crate::serving::{price_prefill, Arrival, WorkloadConfig};
use longsight_model::ModelConfig;
use longsight_sched::{SloClass, SloMix};
use longsight_tensor::SimRng;

/// XOR'd into the workload seed for the per-session streams, so session
/// traffic never perturbs the Poisson arrival stream (sessions-off runs
/// stay bit-exact).
const SESSION_SEED: u64 = 0x7365_7373; // "sess"

/// Stream key of the per-session reuse draws (separate from the shape
/// stream: sweeping `reuse` keeps every arrival byte-identical).
const REUSE_SEED: u64 = 0x7265_7573; // "reus"

/// Stream key of the prefix-hash chain.
const PREFIX_SEED: u64 = 0x7066_6978; // "pfix"

/// Session workload knobs of a `serving::run`. The
/// [`SessionOptions::disabled`] value keeps the Poisson workload, and the
/// fleet runs byte-identical to a sessionless one.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOptions {
    /// Concurrent sessions (0 disables the session workload).
    pub sessions: usize,
    /// Turns per session (the opening turn included).
    pub turns: usize,
    /// Mean think time between a turn's arrival and the next, ms
    /// (exponentially distributed).
    pub think_time_ms: f64,
    /// Probability that a follow-up turn can reuse its session's cached
    /// prefix (a non-reusable turn models the user editing earlier
    /// context, which invalidates the content key).
    pub reuse: f64,
    /// Per-replica prefix-cache carve-out in pages (0 = cache off — the
    /// cold-routing baseline: every follow-up pays full re-prefill).
    pub prefix_cache_pages: usize,
}

impl SessionOptions {
    /// No session workload: `serving::run` serves the Poisson workload
    /// byte-for-byte as without sessions.
    pub fn disabled() -> Self {
        Self {
            sessions: 0,
            turns: 0,
            think_time_ms: 0.0,
            reuse: 0.0,
            prefix_cache_pages: 0,
        }
    }

    /// Whether a session workload is armed.
    pub fn is_active(&self) -> bool {
        self.sessions > 0
    }
}

impl Default for SessionOptions {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Session bookkeeping carried by one turn arrival.
#[derive(Debug, Clone)]
pub(crate) struct SessionTurn {
    /// Turn index within the session (0 = opening turn).
    pub(crate) turn: usize,
    /// Content key of the prefix this turn can reuse (`None` for opening
    /// turns and non-reusable follow-ups).
    pub(crate) pin_hash: Option<u64>,
    /// Prompt tokens covered by `pin_hash` — the prefill work a cache hit
    /// skips. Strictly less than the turn's context (the new user message
    /// is always a suffix).
    pub(crate) prefix_tokens: usize,
    /// Content key this turn publishes on completion (its full context
    /// plus its own output — the prefix of the next turn).
    pub(crate) publish_hash: u64,
    /// Tokens covered by `publish_hash`.
    pub(crate) publish_tokens: usize,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pre-generates the session workload: every turn of every session,
/// flattened and sorted by arrival time, with ids assigned in arrival
/// order (the fleet audit requires it). Prefill costs compute on the
/// deterministic parallel map exactly like the Poisson generator's. Comes
/// back reversed — pop from the back in time order.
pub(crate) fn gen_session_turns(
    model: &ModelConfig,
    workload: &WorkloadConfig,
    mix: &SloMix,
    sess: &SessionOptions,
) -> Vec<Arrival> {
    struct RawTurn {
        arrival_ns: f64,
        context: usize,
        output: usize,
        class: SloClass,
        session: usize,
        info: SessionTurn,
    }
    let horizon_ns = workload.duration_s * 1e9;
    let mut raw: Vec<RawTurn> = Vec::with_capacity(sess.sessions * sess.turns.max(1));
    for s in 0..sess.sessions {
        let base = splitmix64(
            workload.seed ^ SESSION_SEED ^ (s as u64).wrapping_mul(0xd6e8_feb8_6659_fd93),
        );
        let mut rng = SimRng::seed_from(base);
        let mut reuse_rng = SimRng::seed_from(splitmix64(base ^ REUSE_SEED));
        // One class per session: a conversation keeps its SLO class.
        let class = mix.classify(rng.uniform());
        // Opening turns spread over the first half of the window, leaving
        // room for follow-ups to land inside it.
        let mut t = rng.uniform() * horizon_ns * 0.5;
        let (c0, c1) = workload.context_tokens;
        let (o0, o1) = workload.output_tokens;
        let mut context = c0 + rng.below((c1 - c0).max(1));
        let mut output = o0 + rng.below((o1 - o0).max(1));
        let mut hash = splitmix64(base ^ PREFIX_SEED);
        for k in 0..sess.turns.max(1) {
            let (pin_hash, prefix_tokens) = if k == 0 {
                (None, 0)
            } else {
                // Think-time gap, then the turn extends the prior state by
                // a short user message. The reuse draw lives on its own
                // stream so arrival shapes are identical across rates.
                t += -((1.0 - rng.uniform()).ln()) * sess.think_time_ms * 1e6;
                let prev_state = context + output;
                let prev_hash = hash;
                let ext = 64 + rng.below(193);
                let reusable = reuse_rng.uniform() < sess.reuse;
                context = prev_state + ext;
                output = o0 + rng.below((o1 - o0).max(1));
                hash = splitmix64(hash ^ (k as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                (reusable.then_some(prev_hash), prev_state)
            };
            if t >= 2.0 * horizon_ns {
                break; // drop turns that would only land in the overload guard
            }
            raw.push(RawTurn {
                arrival_ns: t,
                context,
                output,
                class,
                session: s,
                info: SessionTurn {
                    turn: k,
                    pin_hash,
                    prefix_tokens,
                    publish_hash: hash,
                    publish_tokens: context + output,
                },
            });
        }
    }
    raw.sort_by(|a, b| {
        a.arrival_ns
            .total_cmp(&b.arrival_ns)
            .then(a.session.cmp(&b.session))
            .then(a.info.turn.cmp(&b.info.turn))
    });
    let mut arrivals: Vec<Arrival> = raw
        .into_iter()
        .enumerate()
        .map(|(id, rt)| Arrival {
            id,
            arrival_ns: rt.arrival_ns,
            context: rt.context,
            output: rt.output,
            class: rt.class,
            prefill_ns: 0.0,
            turn: Some(rt.info),
        })
        .collect();
    price_prefill(model, &mut arrivals);
    arrivals
}
