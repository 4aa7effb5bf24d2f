//! Degradation policy for fault-injected serving: per-token offload
//! deadline, bounded retry with exponential backoff, and graceful fallback
//! to dense sliding-window-only attention.
//!
//! A production deployment cannot let one hung NMA stall a synchronized
//! decode step forever. The policy here mirrors what a real serving stack
//! would do: the GPU abandons an offload attempt at the configured deadline,
//! backs off exponentially, retries a bounded number of times, and — if
//! every attempt fails — emits the token from dense window attention alone
//! (the sliding-window + sinks path the GPU computes anyway), sacrificing
//! long-range recall for that one token instead of availability.
//!
//! Two fault processes live at this level, keyed by `(request, token)`:
//! hard per-token failures (the request dies) and per-attempt offload
//! timeouts. Slice-grain faults (NMA stragglers, CXL CRC replays) live at
//! the step-cost level in [`crate::LongSightSystem`]; the two layers sample
//! disjoint event streams, so no fault is ever counted twice.

use longsight_faults::{domain, FaultInjector, FaultKind, FaultLog, RetryPolicy, StreamPrefix};

/// How one token's offload resolved under the degradation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenOutcome {
    /// The offload completed, possibly after retries.
    Completed {
        /// Retries needed (0 = first attempt succeeded).
        retries: u32,
    },
    /// Every attempt timed out; the token was emitted from dense
    /// window-only attention.
    Degraded,
    /// The request died unrecoverably (host eviction, link down beyond the
    /// replay budget).
    Failed,
}

/// Aggregate degradation counters across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeStats {
    /// Tokens that needed at least one retry but eventually completed.
    pub retried_tokens: usize,
    /// Tokens that exhausted retries and fell back to window-only attention.
    pub degraded_tokens: usize,
    /// Requests that died unrecoverably.
    pub failed_requests: usize,
}

impl DegradeStats {
    /// Folds one token outcome into the counters.
    pub fn record(&mut self, outcome: TokenOutcome) {
        match outcome {
            TokenOutcome::Completed { retries } if retries > 0 => self.retried_tokens += 1,
            TokenOutcome::Completed { .. } => {}
            TokenOutcome::Degraded => self.degraded_tokens += 1,
            TokenOutcome::Failed => self.failed_requests += 1,
        }
    }
}

/// The first fault one token's offload meets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FirstFault {
    /// The request dies; `key` is the token's `domain::HARD` stream.
    HardFail {
        /// Stream the fault event is logged under.
        key: u64,
    },
    /// Attempt 0 times out; `key` is the token's `domain::TOKEN` stream.
    Timeout {
        /// Stream the fault events are logged under.
        key: u64,
    },
}

/// One request's draw streams: the `(domain, request id)` halves of its
/// `domain::HARD`, `domain::TOKEN` and `domain::SPEC` stream keys, hashed
/// once per request, so each token's key hashes only `(token, coordinate)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RequestStreams {
    hard: StreamPrefix,
    token: StreamPrefix,
    spec: StreamPrefix,
}

impl RequestStreams {
    pub(crate) fn new(request_id: u64) -> Self {
        Self {
            hard: StreamPrefix::new(domain::HARD, request_id),
            token: StreamPrefix::new(domain::TOKEN, request_id),
            spec: StreamPrefix::new(domain::SPEC, request_id),
        }
    }

    /// `stream(HARD, id, tok, 0)`: the token's hard-fail stream.
    #[inline]
    pub(crate) fn hard(&self, tok: u64) -> u64 {
        self.hard.key(tok, 0)
    }

    /// `stream(TOKEN, id, tok, 0)`: the token's retry-ladder stream.
    #[inline]
    pub(crate) fn token(&self, tok: u64) -> u64 {
        self.token.key(tok, 0)
    }

    /// `[stream(SPEC, id, tok, 0), stream(SPEC, id, tok, 1)]`: the token's
    /// stale and void speculation streams.
    #[inline]
    pub(crate) fn spec(&self, tok: u64) -> [u64; 2] {
        self.spec.keys(tok, [0, 1])
    }
}

/// Draws one token's hard-fail and then its attempt-0 timeout, the two
/// draws every token takes, on the request's cached stream prefixes.
/// `None` means the token completes on its first attempt: no penalty and
/// nothing logged. [`resolve_token`] starts here, and the serving step
/// uses it alone to tell a clean step from one that needs the full
/// resolution ([`resolve_fault`]). A rate of zero takes no draw.
#[inline]
pub(crate) fn first_fault(
    inj: &FaultInjector,
    keys: &RequestStreams,
    tok: u64,
) -> Option<FirstFault> {
    let profile = inj.profile();
    if profile.hard_fail_rate > 0.0 {
        let key = keys.hard(tok);
        if inj.hard_fails(key) {
            return Some(FirstFault::HardFail { key });
        }
    }
    if profile.timeout_rate > 0.0 {
        let key = keys.token(tok);
        if inj.attempt_times_out(key, 0) {
            return Some(FirstFault::Timeout { key });
        }
    }
    None
}

/// Resolves one token's offload under the retry/deadline policy.
///
/// Returns the outcome and the *extra* latency the faults added on top of
/// the healthy offload (which the step cost already accounts for): each
/// timed-out attempt costs the full deadline, each retry adds its backoff,
/// and a hard failure is detected at the first deadline expiry.
///
/// Every decision derives from `(inj.seed, request_id, token_idx, attempt)`
/// alone — the resolution is identical at any thread count — and the fault
/// events are appended to `log` in attempt order. Because each attempt's
/// timeout draw is a fixed uniform compared against the rate, a higher
/// timeout rate can only turn successes into retries and retries into
/// degradation: the penalty is monotone in the fault rate.
pub fn resolve_token(
    inj: &FaultInjector,
    retry: &RetryPolicy,
    request_id: u64,
    token_idx: u64,
    log: &mut FaultLog,
) -> (TokenOutcome, f64) {
    match first_fault(inj, &RequestStreams::new(request_id), token_idx) {
        None => (TokenOutcome::Completed { retries: 0 }, 0.0),
        Some(first) => resolve_fault(inj, retry, first, log),
    }
}

/// [`resolve_token`] for a token whose [`first_fault`] is `first`: logs it
/// and, for a timeout, walks the retry ladder from attempt 1.
pub(crate) fn resolve_fault(
    inj: &FaultInjector,
    retry: &RetryPolicy,
    first: FirstFault,
    log: &mut FaultLog,
) -> (TokenOutcome, f64) {
    let token_key = match first {
        FirstFault::HardFail { key } => {
            log.push(key, FaultKind::HardFail);
            return (TokenOutcome::Failed, retry.offload_deadline_ns);
        }
        FirstFault::Timeout { key } => key,
    };
    let mut penalty = 0.0;
    for attempt in 0..=retry.max_retries {
        // Attempt 0's timeout is the one `first_fault` drew.
        if attempt > 0 && !inj.attempt_times_out(token_key, attempt) {
            return (TokenOutcome::Completed { retries: attempt }, penalty);
        }
        log.push(token_key, FaultKind::Timeout { attempt });
        penalty += retry.offload_deadline_ns;
        if attempt < retry.max_retries {
            let backoff = retry.backoff_ns(attempt + 1);
            penalty += backoff;
            log.push(
                token_key,
                FaultKind::Retry {
                    attempt: attempt + 1,
                    backoff_ns: backoff,
                },
            );
        }
    }
    log.push(token_key, FaultKind::Degraded);
    (TokenOutcome::Degraded, penalty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_faults::{stream, unit_draw, FaultProfile};
    use longsight_tensor::check::run_cases;
    use longsight_tensor::prop_ensure_eq;

    /// A request's cached stream halves key every token of its HARD, TOKEN
    /// and SPEC streams, coordinates 0 and 1, as the full `stream` hash.
    #[test]
    fn request_stream_keys_equal_the_full_stream_keys() {
        run_cases("request_stream_keys_equal_the_full_stream_keys", 500, |g| {
            let id = [g.u64_in(0, 1 << 16), g.rng().next_u64()][g.usize_in(0, 2)];
            let keys = RequestStreams::new(id);
            for _ in 0..8 {
                let tok = [g.u64_in(0, 4096), g.rng().next_u64()][g.usize_in(0, 2)];
                prop_ensure_eq!(keys.hard(tok), stream(domain::HARD, id, tok, 0));
                prop_ensure_eq!(keys.token(tok), stream(domain::TOKEN, id, tok, 0));
                let spec = [0, 1].map(|c| stream(domain::SPEC, id, tok, c));
                prop_ensure_eq!(keys.spec(tok), spec);
            }
            Ok(())
        });
    }

    /// The threshold path decides each token's first fault as the float
    /// draws against the profile's rates did, in the order they were drawn.
    #[test]
    fn first_faults_equal_the_float_draws() {
        run_cases("first_faults_equal_the_float_draws", 300, |g| {
            let rate = |g: &mut longsight_tensor::check::Gen| {
                [0.0, 1.0, g.f64_in(0.0, 1.0), g.f64_in(0.0, 0.01)][g.usize_in(0, 4)]
            };
            let profile = FaultProfile {
                hard_fail_rate: rate(g),
                timeout_rate: rate(g),
                ..FaultProfile::disabled()
            };
            let inj = FaultInjector::new(profile, g.rng().next_u64());
            let id = g.u64_in(0, 1 << 16);
            let keys = RequestStreams::new(id);
            for tok in 0..64 {
                let hard = stream(domain::HARD, id, tok, 0);
                let token = stream(domain::TOKEN, id, tok, 0);
                let want = if unit_draw(inj.seed(), hard, 0) < inj.profile().hard_fail_rate {
                    Some(FirstFault::HardFail { key: hard })
                } else if unit_draw(inj.seed(), token, 1) < inj.profile().timeout_rate {
                    Some(FirstFault::Timeout { key: token })
                } else {
                    None
                };
                prop_ensure_eq!(first_fault(&inj, &keys, tok), want, "token {tok}");
            }
            Ok(())
        });
    }

    #[test]
    fn disabled_injector_always_completes_free() {
        let inj = FaultInjector::disabled();
        let retry = RetryPolicy::serving_default();
        let mut log = FaultLog::new();
        for t in 0..100 {
            let (o, p) = resolve_token(&inj, &retry, 1, t, &mut log);
            assert_eq!(o, TokenOutcome::Completed { retries: 0 });
            assert_eq!(p, 0.0);
        }
        assert!(log.is_empty());
    }

    #[test]
    fn guaranteed_timeouts_degrade_with_full_penalty() {
        let inj = FaultInjector::new(
            FaultProfile {
                timeout_rate: 1.0,
                ..FaultProfile::disabled()
            },
            3,
        );
        let retry = RetryPolicy::serving_default();
        let mut log = FaultLog::new();
        let (o, p) = resolve_token(&inj, &retry, 1, 0, &mut log);
        assert_eq!(o, TokenOutcome::Degraded);
        assert_eq!(p, retry.degraded_elapsed_ns());
        // 3 timeouts, 2 retries, 1 degraded marker.
        assert_eq!(log.len(), 6);
        assert_eq!(
            log.count_matching(|k| matches!(k, FaultKind::Timeout { .. })),
            3
        );
    }

    #[test]
    fn penalty_is_monotone_in_timeout_rate() {
        let retry = RetryPolicy::serving_default();
        for token in 0..200u64 {
            let mut prev = 0.0f64;
            for rate in [0.0, 0.1, 0.4, 0.9] {
                let inj = FaultInjector::new(
                    FaultProfile {
                        timeout_rate: rate,
                        ..FaultProfile::disabled()
                    },
                    17,
                );
                let mut log = FaultLog::new();
                let (_, p) = resolve_token(&inj, &retry, 5, token, &mut log);
                assert!(p >= prev, "token {token}: rate {rate} got cheaper");
                prev = p;
            }
        }
    }

    #[test]
    fn zero_deadline_charges_backoffs_only() {
        // A zero offload deadline is a legal (if aggressive) policy: timed-out
        // attempts cost nothing, so a fully-degraded token pays exactly the
        // backoff schedule and a healthy token pays nothing.
        let retry = RetryPolicy {
            offload_deadline_ns: 0.0,
            ..RetryPolicy::serving_default()
        };
        let all_fail = FaultInjector::new(
            FaultProfile {
                timeout_rate: 1.0,
                ..FaultProfile::disabled()
            },
            3,
        );
        let mut log = FaultLog::new();
        let (o, p) = resolve_token(&all_fail, &retry, 1, 0, &mut log);
        assert_eq!(o, TokenOutcome::Degraded);
        assert_eq!(p, retry.backoff_ns(1) + retry.backoff_ns(2));
        let none_fail = FaultInjector::disabled();
        let (o, p) = resolve_token(&none_fail, &retry, 1, 0, &mut log);
        assert_eq!(o, TokenOutcome::Completed { retries: 0 });
        assert_eq!(p, 0.0);
    }

    #[test]
    fn success_on_the_final_attempt_exhausts_the_budget_without_degrading() {
        // Find a token whose first `max_retries` attempts all time out but
        // whose last one succeeds: the outcome must be Completed with the
        // full retry count and the penalty must charge every failed attempt
        // plus every backoff — the boundary just short of degradation.
        let retry = RetryPolicy::serving_default();
        let inj = FaultInjector::new(
            FaultProfile {
                timeout_rate: 0.8,
                ..FaultProfile::disabled()
            },
            29,
        );
        let mut found = false;
        for token in 0..4000u64 {
            let mut log = FaultLog::new();
            let (o, p) = resolve_token(&inj, &retry, 9, token, &mut log);
            if o == (TokenOutcome::Completed {
                retries: retry.max_retries,
            }) {
                let expected = retry.max_retries as f64 * retry.offload_deadline_ns
                    + (1..=retry.max_retries)
                        .map(|a| retry.backoff_ns(a))
                        .sum::<f64>();
                assert_eq!(p, expected, "token {token}");
                // Every failed attempt logged a timeout and a retry; the
                // success itself leaves no degraded marker.
                assert_eq!(log.len(), 2 * retry.max_retries as usize);
                assert_eq!(log.count_matching(|k| matches!(k, FaultKind::Degraded)), 0);
                found = true;
                break;
            }
        }
        assert!(found, "no last-attempt success in 4000 tokens at rate 0.8");
    }

    #[test]
    fn backoff_saturates_at_the_cap() {
        let retry = RetryPolicy {
            offload_deadline_ns: 1.0e6,
            max_retries: 6,
            backoff_base_ns: 50_000.0,
            backoff_multiplier: 4.0,
            backoff_cap_ns: 200_000.0,
        };
        // 50 µs, 200 µs, then flat at the cap instead of 800 µs, 3.2 ms, ...
        assert_eq!(retry.backoff_ns(1), 50_000.0);
        assert_eq!(retry.backoff_ns(2), 200_000.0);
        for a in 3..=6 {
            assert_eq!(retry.backoff_ns(a), retry.backoff_cap_ns, "attempt {a}");
        }
        // The degraded worst case uses the saturated schedule.
        let inj = FaultInjector::new(
            FaultProfile {
                timeout_rate: 1.0,
                ..FaultProfile::disabled()
            },
            3,
        );
        let mut log = FaultLog::new();
        let (o, p) = resolve_token(&inj, &retry, 1, 0, &mut log);
        assert_eq!(o, TokenOutcome::Degraded);
        assert_eq!(p, retry.degraded_elapsed_ns());
        assert_eq!(p, 7.0 * 1.0e6 + 50_000.0 + 200_000.0 + 4.0 * 200_000.0);
    }

    #[test]
    fn stats_record_each_outcome_class() {
        let mut s = DegradeStats::default();
        s.record(TokenOutcome::Completed { retries: 0 });
        s.record(TokenOutcome::Completed { retries: 2 });
        s.record(TokenOutcome::Degraded);
        s.record(TokenOutcome::Failed);
        assert_eq!(
            s,
            DegradeStats {
                retried_tokens: 1,
                degraded_tokens: 1,
                failed_requests: 1,
            }
        );
    }
}
