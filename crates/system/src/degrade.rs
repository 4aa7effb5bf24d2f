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

use longsight_faults::{domain, stream, FaultInjector, FaultKind, FaultLog, RetryPolicy};

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

/// Draws one token's hard-fail and then its attempt-0 timeout, the two
/// draws every token takes. `None` means the token completes on its first
/// attempt: no penalty and nothing logged. [`resolve_token`] starts here,
/// and the serving step uses it alone to tell a clean step from one that
/// needs the full resolution.
pub(crate) fn first_fault(
    inj: &FaultInjector,
    request_id: u64,
    token_idx: u64,
) -> Option<FirstFault> {
    let hard_key = stream(domain::HARD, request_id, token_idx, 0);
    if inj.hard_fails(hard_key) {
        return Some(FirstFault::HardFail { key: hard_key });
    }
    let token_key = stream(domain::TOKEN, request_id, token_idx, 0);
    inj.attempt_times_out(token_key, 0)
        .then_some(FirstFault::Timeout { key: token_key })
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
    let token_key = match first_fault(inj, request_id, token_idx) {
        None => return (TokenOutcome::Completed { retries: 0 }, 0.0),
        Some(FirstFault::HardFail { key }) => {
            log.push(key, FaultKind::HardFail);
            return (TokenOutcome::Failed, retry.offload_deadline_ns);
        }
        Some(FirstFault::Timeout { key }) => key,
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
    use longsight_faults::FaultProfile;

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
