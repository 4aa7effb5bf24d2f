//! The simulated clock: whole picoseconds in a `u64`.
//!
//! Simulated time and prefill/resume work are integers, so a run of `n`
//! identical steps of `dt` moves the clock by exactly `n·dt` and a chunk
//! of `c` ps leaves `left − n·c` after `n` steps, whatever `n` is. A `u64`
//! spans about 5,124 hours; the longest workload's overload guard (four
//! horizons of 120,000 s) needs under 134.
//!
//! Values enter the clock once, rounded to the nearest ps where a float
//! model produces them ([`ps`]): an arrival time, a fleet event time, a
//! prefill, pull or restore cost, and a step's final paced duration. They
//! leave it ([`ns`], [`ms`]) only where they leave the simulation: latency
//! samples, trace spans, time series and report fields.

/// Picoseconds per nanosecond.
const PS_PER_NS: f64 = 1e3;

/// `ns` rounded to the nearest picosecond. Negative values and NaN give
/// 0; values past the `u64` range, `+∞` included, give `u64::MAX`, which
/// the clock reads as "never".
#[inline]
pub fn ps(ns: f64) -> u64 {
    (ns * PS_PER_NS).round() as u64
}

/// `ps` in nanoseconds.
#[inline]
pub fn ns(ps: u64) -> f64 {
    ps as f64 / PS_PER_NS
}

/// `ps` in milliseconds: [`ns`], then ns to ms, the conversion every
/// ns-based latency (attribution's in particular) makes, so the two agree
/// by bits.
#[inline]
pub fn ms(ps: u64) -> f64 {
    ns(ps) / 1e6
}

/// A step count as a `usize`, saturating.
#[inline]
fn steps(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// How many steps of `dt` from `now` it takes to end a step at or past
/// `until`: `⌈(until − now) / dt⌉`, at least 1. With `dt == 0` the clock
/// never moves, so a later `until` is never reached (`usize::MAX`).
#[inline]
pub fn steps_to_reach(now: u64, dt: u64, until: u64) -> usize {
    let gap = until.saturating_sub(now);
    match dt {
        0 if gap > 0 => usize::MAX,
        0 => 1,
        _ => steps(gap.div_ceil(dt)).max(1),
    }
}

/// How many steps of `dt` from `now` end at or before `guard`:
/// `⌊(guard − now) / dt⌋`, 0 when `now` is already past it. With
/// `dt == 0` and `now ≤ guard` no step ever crosses it (`usize::MAX`).
#[inline]
pub fn steps_within(now: u64, dt: u64, guard: u64) -> usize {
    match guard.checked_sub(now) {
        None => 0,
        Some(_) if dt == 0 => usize::MAX,
        Some(room) => steps(room / dt),
    }
}

/// The clock `k` steps of `dt` after `now`, saturating at `u64::MAX`.
#[inline]
pub fn after(now: u64, k: usize, dt: u64) -> u64 {
    now.saturating_add((k as u64).saturating_mul(dt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_tensor::check::{run_cases, Gen};
    use longsight_tensor::prop_ensure_eq;

    #[test]
    fn conversions_round_once_and_saturate() {
        assert_eq!(ps(1.0), 1000);
        assert_eq!(ps(0.0004), 0);
        assert_eq!(ps(0.0005), 1);
        assert_eq!(ps(-3.0), 0);
        assert_eq!(ps(f64::NAN), 0);
        assert_eq!(ps(f64::INFINITY), u64::MAX);
        assert_eq!(ns(1_500), 1.5);
        assert_eq!(ms(2_000_000_000), 2.0);
    }

    /// The brute-force step loop both bounds replace, in `u128` so no
    /// clock wraps: the first `k ≥ 1` whose end `now + k·dt` satisfies
    /// `stop`, or `None` when none does within `cap` steps.
    fn first_step(now: u64, dt: u64, cap: u64, stop: impl Fn(u128) -> bool) -> Option<u64> {
        (1..=cap).find(|&k| stop(now as u128 + k as u128 * dt as u128))
    }

    /// `(now, dt)` near zero or near `u64::MAX`, with `dt` 0 now and then
    /// and otherwise sized so that at most ~`cap` steps fit in `room`.
    fn gen_clock(g: &mut Gen, cap: u64) -> (u64, u64, u64) {
        let room = [
            g.u64_in(0, 1 << 20),
            g.u64_in(0, u64::MAX / 2),
            u64::MAX / 2,
        ][g.usize_in(0, 3)];
        let now = [g.u64_in(0, 1 << 20), u64::MAX / 2 - g.u64_in(0, 1 << 20)][g.usize_in(0, 2)];
        let dt = match g.usize_in(0, 5) {
            0 => 0,
            1 => g.u64_in(1, 4),
            _ => (room / cap).max(1) + g.u64_in(0, room / cap + 2),
        };
        (now, dt, room)
    }

    /// The O(1) `until` and guard bounds equal the step loop over clocks
    /// from zero up to `u64::MAX`, targets before, at and after `now`, and
    /// `dt == 0`.
    fn bounds_match_the_step_loop(g: &mut Gen) -> Result<(), String> {
        const CAP: u64 = 4096;
        let (now, dt, room) = gen_clock(g, CAP / 2);
        let target = match g.usize_in(0, 4) {
            0 => now.saturating_sub(g.u64_in(0, 3)),
            1 => now,
            _ => now + g.u64_in(0, room + 1),
        };
        let want_until = match first_step(now, dt, CAP, |end| end >= target as u128) {
            Some(k) => k as usize,
            None if dt == 0 => usize::MAX,
            None => return Ok(()), // beyond the brute-force cap
        };
        prop_ensure_eq!(
            steps_to_reach(now, dt, target),
            want_until,
            "until {target}"
        );
        let want_guard = match first_step(now, dt, CAP, |end| end > target as u128) {
            Some(k) => k as usize - 1,
            None if dt == 0 => usize::MAX,
            None => return Ok(()),
        };
        prop_ensure_eq!(steps_within(now, dt, target), want_guard, "guard {target}");
        if want_guard < usize::MAX {
            let end = after(now, want_guard, dt);
            prop_ensure_eq!(end as u128, now as u128 + want_guard as u128 * dt as u128);
        }
        Ok(())
    }

    #[test]
    fn run_bounds_equal_the_brute_force_step_loop() {
        run_cases(
            "run_bounds_equal_the_brute_force_step_loop",
            2000,
            bounds_match_the_step_loop,
        );
    }
}
