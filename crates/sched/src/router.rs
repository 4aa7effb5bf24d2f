//! Deterministic front-end router over a fleet of (GPU, DReX) replicas.
//!
//! The router owns exactly one decision: which replica an arriving request
//! joins. It sees a [`SchedLoad`] snapshot per replica (taken at the
//! request's arrival time) and returns an index. Everything downstream —
//! admission, paging, preemption — stays each replica's own
//! [`crate::Scheduler`].
//!
//! One call, [`Router::route`], first narrows the fleet to the replicas
//! whose circuit breakers admit the arrival's class, then applies one of
//! three policies:
//!
//! * [`RouterPolicy::RoundRobin`] ignores load entirely:
//!   `arrival_index % replicas`. The baseline.
//! * [`RouterPolicy::JsqSpillover`] is join-shortest-queue on free HBM
//!   pages with class-aware spillover: a replica past a class's occupancy
//!   threshold stops accepting that class (best-effort sheds first at 50%
//!   occupancy, batch at 75%, interactive never), so scavenger traffic
//!   drains toward cold replicas before it can crowd the hot ones. When
//!   every replica is past the threshold the full fleet is eligible again
//!   (shedding balances load; it never rejects).
//! * [`RouterPolicy::Affinity`] resumes a session turn on the replica that
//!   owns its prefix, else spills over like JSQ with the owner credited
//!   the pull it saves.
//!
//! Ties on the (free HBM, free DReX) key break by a seeded hash of the
//! arrival index, so placement is a pure function of `(seed, arrival
//! index, load snapshots)` — bit-identical at any worker-thread count.

use crate::request::SloClass;

/// Fleet routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// `arrival_index % replicas`, load-blind.
    RoundRobin,
    /// Join-shortest-queue on free HBM pages with class-aware spillover.
    JsqSpillover,
    /// Session affinity with spillover: a resuming turn lands on the
    /// replica that owns its prefix when that replica is healthy and under
    /// the watermark; otherwise it routes by predicted cost, crediting the
    /// owner the pull price (in pages) it would save. Arrivals without an
    /// owner hint route exactly like [`RouterPolicy::JsqSpillover`].
    Affinity,
}

impl RouterPolicy {
    /// Parses a CLI policy name (`rr`, `jsq`, or `affinity`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "rr" | "round-robin" => Ok(RouterPolicy::RoundRobin),
            "jsq" | "jsq-spillover" => Ok(RouterPolicy::JsqSpillover),
            "affinity" | "session-affinity" => Ok(RouterPolicy::Affinity),
            other => Err(format!(
                "invalid router policy '{other}' (use jsq, rr, or affinity)"
            )),
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "rr",
            RouterPolicy::JsqSpillover => "jsq",
            RouterPolicy::Affinity => "affinity",
        }
    }
}

/// A replica's load as the router sees it: one snapshot per arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedLoad {
    /// Requests in the running batch.
    pub active: usize,
    /// Requests queued for admission.
    pub waiting: usize,
    /// HBM pages currently held.
    pub hbm_used: usize,
    /// HBM pages usable under the watermark.
    pub hbm_limit: usize,
    /// DReX pages currently held.
    pub drex_used: usize,
    /// DReX page capacity.
    pub drex_capacity: usize,
}

impl SchedLoad {
    /// Free HBM pages under the watermark.
    pub fn free_hbm(&self) -> usize {
        self.hbm_limit.saturating_sub(self.hbm_used)
    }

    /// Free DReX pages.
    pub fn free_drex(&self) -> usize {
        self.drex_capacity.saturating_sub(self.drex_used)
    }

    /// HBM occupancy fraction in `[0, 1]` (a zero-limit ledger reads as
    /// fully occupied).
    pub fn hbm_occupancy(&self) -> f64 {
        if self.hbm_limit == 0 {
            return 1.0;
        }
        (self.hbm_used as f64 / self.hbm_limit as f64).min(1.0)
    }
}

/// Occupancy fraction past which a replica sheds this class to the rest of
/// the fleet. Shedding order under rising load: best-effort first, then
/// batch; interactive traffic is never shed.
fn shed_threshold(class: SloClass) -> f64 {
    match class {
        SloClass::Interactive => f64::INFINITY,
        SloClass::Batch => 0.75,
        SloClass::BestEffort => 0.5,
    }
}

/// Typed routing failures (replacing the former panic-on-empty-fleet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The load-snapshot slice was empty — there is no fleet to route over.
    EmptyFleet,
    /// Every replica's breaker is open: nothing can accept this arrival.
    /// The caller must shed (with a recorded reason) rather than place.
    NoHealthyReplica,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::EmptyFleet => write!(f, "route over an empty fleet"),
            RouteError::NoHealthyReplica => write!(f, "no healthy replica (all breakers open)"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Circuit-breaker health state of one replica, as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: eligible for every class.
    Closed,
    /// Tripped (crash or sustained SLO misses): eligible for nothing.
    Open,
    /// Probing after cooldown/recovery: best-effort traffic first; other
    /// classes only when no closed replica exists.
    HalfOpen,
}

impl BreakerState {
    /// Short display name (`closed`/`open`/`half-open`).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Trip/cooldown thresholds of a per-replica circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Interactive deadline, ms: a completion slower than this counts as a
    /// deadline miss against the replica.
    pub slo_ms: f64,
    /// Consecutive interactive deadline misses that trip a closed breaker.
    pub consecutive_misses: u32,
    /// Degraded tokens accumulated since the breaker last closed that trip
    /// it (sustained brownout pressure).
    pub degraded_tokens_trip: u64,
    /// How long an open breaker waits before probing, ns of simulated time.
    pub cooldown_ns: f64,
    /// Successful (in-deadline) interactive completions a half-open breaker
    /// needs before closing again.
    pub probe_successes: u32,
}

impl BreakerConfig {
    /// Serving defaults: a 2.5 s interactive deadline, trip after 8
    /// consecutive misses or 4096 degraded tokens, probe after a 500 ms
    /// cooldown, close after 4 clean probes.
    pub fn serving_default() -> Self {
        Self {
            slo_ms: 2500.0,
            consecutive_misses: 8,
            degraded_tokens_trip: 4096,
            cooldown_ns: 0.5e9,
            probe_successes: 4,
        }
    }
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self::serving_default()
    }
}

/// A per-replica circuit breaker: closed → open on a crash or sustained
/// deadline misses / degraded-token pressure, open → half-open after
/// cooldown (or explicit recovery), half-open → closed after enough clean
/// probes — or straight back to open on a probe miss.
///
/// The breaker is driven only by observable serving signals (completion
/// latencies and degraded-token counters), never by the fault schedule
/// itself: the router learns a replica died the same way a real front-end
/// would.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Consecutive interactive deadline misses while closed.
    misses: u32,
    /// Degraded tokens since the breaker last closed.
    degraded: u64,
    /// When the breaker opened, ns.
    opened_at_ns: f64,
    /// While true the breaker must not half-open on cooldown (the node is
    /// physically down; recovery is announced via [`CircuitBreaker::on_recovery`]).
    held_open: bool,
    /// Clean probes seen while half-open.
    probes: u32,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: BreakerState::Closed,
            misses: 0,
            degraded: 0,
            opened_at_ns: 0.0,
            held_open: false,
            probes: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// True while the breaker is open because the replica is physically
    /// down (crash), as opposed to tripped open by observed slowness. A
    /// tripped-open replica is alive and can take last-resort traffic; a
    /// held-open one cannot serve anything until recovery.
    pub fn is_held_open(&self) -> bool {
        self.state == BreakerState::Open && self.held_open
    }

    fn open(&mut self, now_ns: f64, held: bool) -> Option<BreakerState> {
        self.state = BreakerState::Open;
        self.opened_at_ns = now_ns;
        self.held_open = held;
        self.misses = 0;
        self.probes = 0;
        Some(BreakerState::Open)
    }

    fn close(&mut self) -> Option<BreakerState> {
        self.state = BreakerState::Closed;
        self.misses = 0;
        self.degraded = 0;
        self.probes = 0;
        Some(BreakerState::Closed)
    }

    /// Trips the breaker open and holds it there (a replica crash): no
    /// cooldown probe until [`CircuitBreaker::on_recovery`]. Returns the new
    /// state when this was a transition.
    pub fn force_open(&mut self, now_ns: f64) -> Option<BreakerState> {
        let was_open = self.state == BreakerState::Open;
        let t = self.open(now_ns, true);
        if was_open {
            None
        } else {
            t
        }
    }

    /// The replica came back (repair finished): a held-open breaker moves
    /// to half-open so probe traffic can test it. Returns the new state
    /// when this was a transition.
    pub fn on_recovery(&mut self) -> Option<BreakerState> {
        if self.state == BreakerState::Open {
            self.state = BreakerState::HalfOpen;
            self.held_open = false;
            self.probes = 0;
            Some(BreakerState::HalfOpen)
        } else {
            None
        }
    }

    /// Cooldown tick: an open (not held-open) breaker becomes half-open
    /// once `cooldown_ns` has elapsed. Returns the new state on transition.
    pub fn poll(&mut self, now_ns: f64) -> Option<BreakerState> {
        if self.state == BreakerState::Open
            && !self.held_open
            && now_ns - self.opened_at_ns >= self.cfg.cooldown_ns
        {
            self.state = BreakerState::HalfOpen;
            self.probes = 0;
            Some(BreakerState::HalfOpen)
        } else {
            None
        }
    }

    /// Feeds one observed completion. Only interactive completions count
    /// toward the deadline-miss ladder, but *any* class counts as a clean
    /// half-open probe: the router sends a half-open replica best-effort
    /// traffic first, and a probe only asks whether the node is alive —
    /// requiring an interactive completion to close would quarantine a
    /// repaired replica forever. Returns the new state on transition.
    pub fn note_completion(
        &mut self,
        class: SloClass,
        latency_ms: f64,
        now_ns: f64,
    ) -> Option<BreakerState> {
        let missed = class == SloClass::Interactive && latency_ms > self.cfg.slo_ms;
        match self.state {
            BreakerState::Closed => {
                if class != SloClass::Interactive {
                    return None;
                }
                if missed {
                    self.misses += 1;
                    if self.misses >= self.cfg.consecutive_misses {
                        return self.open(now_ns, false);
                    }
                } else {
                    self.misses = 0;
                }
                None
            }
            BreakerState::HalfOpen => {
                if missed {
                    self.open(now_ns, false)
                } else {
                    self.probes += 1;
                    if self.probes >= self.cfg.probe_successes {
                        self.close()
                    } else {
                        None
                    }
                }
            }
            BreakerState::Open => None,
        }
    }

    /// Feeds newly observed degraded tokens (brownout pressure). A closed
    /// breaker trips once the accumulated count since it last closed
    /// reaches the threshold. Returns the new state on transition.
    pub fn note_degraded(&mut self, tokens: u64, now_ns: f64) -> Option<BreakerState> {
        self.degraded = self.degraded.saturating_add(tokens);
        if self.state == BreakerState::Closed && self.degraded >= self.cfg.degraded_tokens_trip {
            self.open(now_ns, false)
        } else {
            None
        }
    }
}

/// splitmix64 — the deterministic tie-break stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fleet router. Stateless apart from its seed: every decision is a
/// pure function of `(seed, arrival_index, class, loads, states, owner)`.
#[derive(Debug, Clone, Copy)]
pub struct Router {
    policy: RouterPolicy,
    seed: u64,
}

impl Router {
    /// Creates a router with the given tie-break seed (the workload seed,
    /// by convention, so one seed pins the whole run).
    pub fn new(policy: RouterPolicy, seed: u64) -> Self {
        Self { policy, seed }
    }

    /// The policy this router applies.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Picks the replica for arrival `arrival_index` of `class` from the
    /// per-replica load snapshots and breaker states.
    ///
    /// The healthy pool is the closed replicas; half-open ones join it for
    /// best-effort probe traffic, and for every class when no replica is
    /// closed; open replicas take nothing. The policy then picks within the
    /// pool. `owner` is the replica holding the arrival's prefix, with its
    /// page count; only [`RouterPolicy::Affinity`] uses it, and an owner
    /// outside the fleet is ignored. Affinity resumes on the owner when it
    /// is in the pool with free HBM under the watermark (no fabric
    /// transfer); otherwise it spills over by predicted cost, JSQ where the
    /// owner's free-HBM key is credited the prefix pages every other
    /// replica would have to pull.
    ///
    /// # Errors
    ///
    /// [`RouteError::EmptyFleet`] when `loads` is empty (or `states` is
    /// shorter than `loads`), [`RouteError::NoHealthyReplica`] when no
    /// breaker admits the class — the caller sheds, it never loses the
    /// arrival.
    pub fn route(
        &self,
        arrival_index: usize,
        class: SloClass,
        loads: &[SchedLoad],
        states: &[BreakerState],
        owner: Option<(usize, usize)>,
    ) -> Result<usize, RouteError> {
        if loads.is_empty() || states.len() < loads.len() {
            return Err(RouteError::EmptyFleet);
        }
        let closed: Vec<usize> = (0..loads.len())
            .filter(|&i| states[i] == BreakerState::Closed)
            .collect();
        let healthy: Vec<usize> = if class == SloClass::BestEffort || closed.is_empty() {
            (0..loads.len())
                .filter(|&i| states[i] != BreakerState::Open)
                .collect()
        } else {
            closed
        };
        if healthy.is_empty() {
            return Err(RouteError::NoHealthyReplica);
        }
        let owner =
            owner.filter(|&(o, _)| self.policy == RouterPolicy::Affinity && o < loads.len());
        match (self.policy, owner) {
            (RouterPolicy::RoundRobin, _) => Ok(healthy[arrival_index % healthy.len()]),
            (_, Some((own, _))) if healthy.contains(&own) && loads[own].free_hbm() > 0 => Ok(own),
            _ => Ok(self.jsq_spillover(arrival_index, class, loads, &healthy, owner)),
        }
    }

    fn jsq_spillover(
        &self,
        arrival_index: usize,
        class: SloClass,
        loads: &[SchedLoad],
        candidates: &[usize],
        owner_bonus: Option<(usize, usize)>,
    ) -> usize {
        let threshold = shed_threshold(class);
        // The credited prefix owner stays eligible past the shed threshold:
        // whether crowding it beats paying the pull is exactly the cost
        // comparison the key below performs, so the occupancy filter must
        // not pre-empt it. Breaker gating already happened upstream (the
        // owner is only ever credited inside the healthy candidate pool).
        let eligible: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| {
                loads[i].hbm_occupancy() < threshold
                    || matches!(owner_bonus, Some((own, _)) if own == i)
            })
            .collect();
        // Every candidate hot: spillover balances, it never rejects — fall
        // back to plain JSQ over the whole candidate pool.
        let pool: Vec<usize> = if eligible.is_empty() {
            candidates.to_vec()
        } else {
            eligible
        };
        // Most free HBM pages wins; free DReX breaks the first tie, the
        // shortest admission queue the second. The prefix owner's key is
        // credited the pull price (in pages) every other replica would pay.
        let key = |i: usize| {
            let bonus = match owner_bonus {
                Some((own, pages)) if own == i => pages,
                _ => 0,
            };
            (
                loads[i].free_hbm() + bonus,
                loads[i].free_drex(),
                usize::MAX - loads[i].waiting,
            )
        };
        let mut best_key = key(pool[0]);
        for &i in &pool[1..] {
            best_key = best_key.max(key(i));
        }
        let tied: Vec<usize> = pool.into_iter().filter(|&i| key(i) == best_key).collect();
        // Seeded rotation among exact ties keeps placement a pure function
        // of (seed, arrival index) without biasing toward low indices.
        let r = splitmix64(self.seed ^ (arrival_index as u64).wrapping_mul(0x243f_6a88_85a3_08d3));
        tied[(r % tied.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Breaker states of a fault-free fleet of up to four replicas.
    const CLOSED: [BreakerState; 4] = [BreakerState::Closed; 4];

    fn load(hbm_used: usize, hbm_limit: usize) -> SchedLoad {
        SchedLoad {
            active: 0,
            waiting: 0,
            hbm_used,
            hbm_limit,
            drex_used: 0,
            drex_capacity: 1000,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let r = Router::new(RouterPolicy::RoundRobin, 7);
        let loads = [load(0, 10), load(9, 10), load(5, 10)];
        for i in 0..9 {
            assert_eq!(
                r.route(i, SloClass::Interactive, &loads, &CLOSED, None)
                    .unwrap(),
                i % 3
            );
        }
    }

    #[test]
    fn jsq_picks_the_most_free_hbm() {
        let r = Router::new(RouterPolicy::JsqSpillover, 7);
        let loads = [load(8, 10), load(2, 10), load(5, 10)];
        for class in SloClass::ALL {
            assert_eq!(r.route(0, class, &loads, &CLOSED, None).unwrap(), 1);
        }
    }

    #[test]
    fn empty_fleet_is_a_typed_error_not_a_panic() {
        let r = Router::new(RouterPolicy::JsqSpillover, 7);
        assert_eq!(
            r.route(0, SloClass::Interactive, &[], &[], None),
            Err(RouteError::EmptyFleet)
        );
        assert!(RouteError::EmptyFleet.to_string().contains("empty fleet"));
        assert!(RouteError::NoHealthyReplica
            .to_string()
            .contains("no healthy replica"));
    }

    #[test]
    fn spillover_sheds_best_effort_before_batch_before_interactive() {
        // Replica 0 at 60% occupancy but with the most free pages (larger
        // device): plain JSQ would pick it for everyone; spillover keeps
        // best-effort off it.
        let loads = [load(60, 100), load(4, 10)];
        assert!(loads[0].free_hbm() > loads[1].free_hbm());
        let r = Router::new(RouterPolicy::JsqSpillover, 7);
        assert_eq!(
            r.route(0, SloClass::BestEffort, &loads, &CLOSED, None)
                .unwrap(),
            1,
            "0 is past 50%"
        );
        assert_eq!(
            r.route(0, SloClass::Batch, &loads, &CLOSED, None).unwrap(),
            0,
            "0 is under 75%"
        );
        assert_eq!(
            r.route(0, SloClass::Interactive, &loads, &CLOSED, None)
                .unwrap(),
            0
        );
        // Past 75% the batch class sheds too; interactive never does.
        let hot = [load(80, 100), load(4, 10)];
        assert_eq!(r.route(0, SloClass::Batch, &hot, &CLOSED, None).unwrap(), 1);
        assert_eq!(
            r.route(0, SloClass::Interactive, &hot, &CLOSED, None)
                .unwrap(),
            0
        );
    }

    #[test]
    fn spillover_boundary_at_exactly_50_percent() {
        // The eligibility filter is strict (`occupancy < threshold`), so a
        // replica sitting at exactly 50% no longer takes best-effort
        // traffic — but still takes batch and interactive.
        let loads = [load(50, 100), load(4, 10)];
        assert_eq!(loads[0].hbm_occupancy(), 0.5);
        assert!(loads[0].free_hbm() > loads[1].free_hbm());
        let r = Router::new(RouterPolicy::JsqSpillover, 7);
        assert_eq!(
            r.route(0, SloClass::BestEffort, &loads, &CLOSED, None)
                .unwrap(),
            1
        );
        assert_eq!(
            r.route(0, SloClass::Batch, &loads, &CLOSED, None).unwrap(),
            0
        );
        assert_eq!(
            r.route(0, SloClass::Interactive, &loads, &CLOSED, None)
                .unwrap(),
            0
        );
        // One page under the boundary it still takes everything.
        let under = [load(49, 100), load(4, 10)];
        assert_eq!(
            r.route(0, SloClass::BestEffort, &under, &CLOSED, None)
                .unwrap(),
            0
        );
    }

    #[test]
    fn spillover_boundary_at_exactly_75_percent() {
        let loads = [load(75, 100), load(4, 10)];
        assert_eq!(loads[0].hbm_occupancy(), 0.75);
        assert!(loads[0].free_hbm() > loads[1].free_hbm());
        let r = Router::new(RouterPolicy::JsqSpillover, 7);
        assert_eq!(
            r.route(0, SloClass::Batch, &loads, &CLOSED, None).unwrap(),
            1
        );
        assert_eq!(
            r.route(0, SloClass::Interactive, &loads, &CLOSED, None)
                .unwrap(),
            0
        );
        let under = [load(74, 100), load(4, 10)];
        assert_eq!(
            r.route(0, SloClass::Batch, &under, &CLOSED, None).unwrap(),
            0
        );
    }

    #[test]
    fn all_hot_falls_back_to_global_jsq() {
        let loads = [load(9, 10), load(7, 10)];
        let r = Router::new(RouterPolicy::JsqSpillover, 7);
        // Both past the best-effort threshold: the freer one still wins.
        assert_eq!(
            r.route(0, SloClass::BestEffort, &loads, &CLOSED, None)
                .unwrap(),
            1
        );
    }

    #[test]
    fn tie_break_is_a_pure_function_of_seed_and_index() {
        let loads = [load(5, 10), load(5, 10), load(5, 10), load(5, 10)];
        let r = Router::new(RouterPolicy::JsqSpillover, 42);
        let picks: Vec<usize> = (0..64)
            .map(|i| {
                r.route(i, SloClass::Interactive, &loads, &CLOSED, None)
                    .unwrap()
            })
            .collect();
        // Reproducible...
        let again: Vec<usize> = (0..64)
            .map(|i| {
                r.route(i, SloClass::Interactive, &loads, &CLOSED, None)
                    .unwrap()
            })
            .collect();
        assert_eq!(picks, again);
        // ...seed-dependent...
        let other = Router::new(RouterPolicy::JsqSpillover, 43);
        let shifted: Vec<usize> = (0..64)
            .map(|i| {
                other
                    .route(i, SloClass::Interactive, &loads, &CLOSED, None)
                    .unwrap()
            })
            .collect();
        assert_ne!(picks, shifted);
        // ...and not biased onto one replica.
        for rep in 0..4 {
            assert!(picks.contains(&rep), "replica {rep} never picked");
        }
    }

    #[test]
    fn route_skips_open_and_probes_half_open_with_best_effort() {
        let loads = [load(0, 10), load(9, 10)];
        let r = Router::new(RouterPolicy::JsqSpillover, 7);
        // Replica 0 (the freer one) is open: everything lands on 1.
        let states = [BreakerState::Open, BreakerState::Closed];
        for class in SloClass::ALL {
            assert_eq!(r.route(0, class, &loads, &states, None).unwrap(), 1);
        }
        // Replica 0 half-open: best-effort probes it, interactive and batch
        // stay on the closed replica.
        let states = [BreakerState::HalfOpen, BreakerState::Closed];
        assert_eq!(
            r.route(0, SloClass::BestEffort, &loads, &states, None)
                .unwrap(),
            0
        );
        assert_eq!(
            r.route(0, SloClass::Interactive, &loads, &states, None)
                .unwrap(),
            1
        );
        assert_eq!(
            r.route(0, SloClass::Batch, &loads, &states, None).unwrap(),
            1
        );
        // No closed replica at all: half-open takes every class rather than
        // shedding traffic a probe could serve.
        let states = [BreakerState::HalfOpen, BreakerState::Open];
        assert_eq!(
            r.route(0, SloClass::Interactive, &loads, &states, None)
                .unwrap(),
            0
        );
        // Everything open: a typed shed signal, never a panic.
        let states = [BreakerState::Open, BreakerState::Open];
        assert_eq!(
            r.route(0, SloClass::Interactive, &loads, &states, None),
            Err(RouteError::NoHealthyReplica)
        );
    }

    #[test]
    fn breaker_trips_on_consecutive_misses_and_recovers_via_probes() {
        let cfg = BreakerConfig {
            slo_ms: 100.0,
            consecutive_misses: 3,
            degraded_tokens_trip: 1000,
            cooldown_ns: 1e9,
            probe_successes: 2,
        };
        let mut b = CircuitBreaker::new(cfg);
        assert_eq!(b.state(), BreakerState::Closed);
        // Two misses, a hit, two misses: the hit resets the ladder.
        for t in [0.0, 1.0] {
            assert_eq!(b.note_completion(SloClass::Interactive, 200.0, t), None);
        }
        assert_eq!(b.note_completion(SloClass::Interactive, 50.0, 2.0), None);
        assert_eq!(b.note_completion(SloClass::Interactive, 200.0, 3.0), None);
        assert_eq!(b.note_completion(SloClass::Interactive, 200.0, 4.0), None);
        // Third consecutive miss trips it.
        assert_eq!(
            b.note_completion(SloClass::Interactive, 200.0, 5.0),
            Some(BreakerState::Open)
        );
        // Batch misses never count.
        assert_eq!(b.note_completion(SloClass::Batch, 9e9, 6.0), None);
        // Cooldown: not yet... then half-open.
        assert_eq!(b.poll(5.5e8), None);
        assert_eq!(b.poll(5.0 + 1e9), Some(BreakerState::HalfOpen));
        // One clean probe, then the closing one.
        assert_eq!(b.note_completion(SloClass::Interactive, 50.0, 2e9), None);
        assert_eq!(
            b.note_completion(SloClass::Interactive, 50.0, 2e9),
            Some(BreakerState::Closed)
        );
        // A probe miss while half-open reopens immediately.
        b.force_open(3e9);
        assert_eq!(b.on_recovery(), Some(BreakerState::HalfOpen));
        assert_eq!(
            b.note_completion(SloClass::Interactive, 200.0, 4e9),
            Some(BreakerState::Open)
        );
    }

    #[test]
    fn best_effort_probes_close_a_half_open_breaker() {
        let cfg = BreakerConfig {
            probe_successes: 2,
            ..BreakerConfig::serving_default()
        };
        let mut b = CircuitBreaker::new(cfg);
        b.force_open(1e9);
        assert_eq!(b.on_recovery(), Some(BreakerState::HalfOpen));
        // The router probes half-open replicas with best-effort traffic
        // first; those completions have no deadline but prove liveness,
        // so they must be able to close the breaker.
        assert_eq!(b.note_completion(SloClass::BestEffort, 9e9, 2e9), None);
        assert_eq!(
            b.note_completion(SloClass::Batch, 9e9, 2e9),
            Some(BreakerState::Closed)
        );
    }

    #[test]
    fn breaker_holds_open_through_a_crash_until_recovery() {
        let mut b = CircuitBreaker::new(BreakerConfig::serving_default());
        assert_eq!(b.force_open(1e9), Some(BreakerState::Open));
        // Already open: no duplicate transition.
        assert_eq!(b.force_open(1.5e9), None);
        // Cooldown never half-opens a held breaker — the node is down.
        assert_eq!(b.poll(1e12), None);
        assert_eq!(b.on_recovery(), Some(BreakerState::HalfOpen));
        assert_eq!(b.on_recovery(), None);
    }

    #[test]
    fn breaker_trips_on_degraded_token_pressure() {
        let cfg = BreakerConfig {
            degraded_tokens_trip: 100,
            ..BreakerConfig::serving_default()
        };
        let mut b = CircuitBreaker::new(cfg);
        assert_eq!(b.note_degraded(60, 1.0), None);
        assert_eq!(b.note_degraded(60, 2.0), Some(BreakerState::Open));
        assert_eq!(b.state().name(), "open");
    }

    #[test]
    fn policy_parses() {
        assert_eq!(
            RouterPolicy::parse("jsq").unwrap(),
            RouterPolicy::JsqSpillover
        );
        assert_eq!(RouterPolicy::parse("rr").unwrap(), RouterPolicy::RoundRobin);
        assert_eq!(
            RouterPolicy::parse("affinity").unwrap(),
            RouterPolicy::Affinity
        );
        assert_eq!(RouterPolicy::Affinity.name(), "affinity");
        let err = RouterPolicy::parse("bogus").unwrap_err();
        assert!(err.contains("affinity"), "error names every policy: {err}");
    }

    #[test]
    fn affinity_resumes_on_the_owner_when_healthy_and_under_watermark() {
        let r = Router::new(RouterPolicy::Affinity, 7);
        // Replica 1 owns the prefix and has one free page: the resume lands
        // there even though replica 0 is far freer.
        let loads = [load(0, 10), load(9, 10)];
        let states = [BreakerState::Closed; 2];
        assert_eq!(
            r.route(0, SloClass::Interactive, &loads, &states, Some((1, 4)))
                .unwrap(),
            1
        );
        // At the watermark (no free page) the owner no longer qualifies and
        // the pull-credited spillover picks the freer replica.
        let full = [load(0, 10), load(10, 10)];
        assert_eq!(
            r.route(0, SloClass::Interactive, &full, &states, Some((1, 4)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn affinity_spillover_credits_the_owner_the_pull_price() {
        let r = Router::new(RouterPolicy::Affinity, 7);
        // Owner (replica 1) is at its watermark, so the resume-in-place
        // fast path fails and the decision falls to the cost spillover,
        // where the owner's key is credited the prefix pages every other
        // replica would have to pull.
        let loads = [load(4, 10), load(10, 10)];
        let states = [BreakerState::Closed, BreakerState::HalfOpen];
        // Interactive: half-open owner is out of the pool entirely (a
        // closed replica exists) — spillover to the closed one.
        assert_eq!(
            r.route(0, SloClass::Interactive, &loads, &states, Some((1, 64)))
                .unwrap(),
            0
        );
        // Best-effort: the half-open owner is poolable but full; the pull
        // credit (64 pages) outweighs replica 0's 6-page lead, so the
        // arrival stays home rather than paying the fabric pull.
        assert_eq!(
            r.route(0, SloClass::BestEffort, &loads, &states, Some((1, 64)))
                .unwrap(),
            1
        );
        // A tiny prefix (1 page) is not worth staying: spillover wins.
        assert_eq!(
            r.route(0, SloClass::BestEffort, &loads, &states, Some((1, 1)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn affinity_without_owner_matches_jsq_spillover() {
        let aff = Router::new(RouterPolicy::Affinity, 42);
        let jsq = Router::new(RouterPolicy::JsqSpillover, 42);
        let loads = [load(5, 10), load(3, 10), load(7, 10)];
        for i in 0..32 {
            for class in SloClass::ALL {
                assert_eq!(
                    aff.route(i, class, &loads, &CLOSED, None),
                    jsq.route(i, class, &loads, &CLOSED, None),
                    "ownerless affinity is plain jsq"
                );
                assert_eq!(
                    jsq.route(i, class, &loads, &CLOSED, Some((0, 64))),
                    jsq.route(i, class, &loads, &CLOSED, None),
                    "only affinity reads the owner"
                );
            }
        }
    }

    #[test]
    fn affinity_respects_breakers() {
        let r = Router::new(RouterPolicy::Affinity, 7);
        let loads = [load(0, 10), load(2, 10)];
        // Owner open: never placed there, even as owner.
        let states = [BreakerState::Closed, BreakerState::Open];
        assert_eq!(
            r.route(0, SloClass::Interactive, &loads, &states, Some((1, 8)))
                .unwrap(),
            0
        );
        // Everything open: shed, exactly like an ownerless arrival.
        let states = [BreakerState::Open, BreakerState::Open];
        assert_eq!(
            r.route(0, SloClass::Interactive, &loads, &states, Some((1, 8))),
            Err(RouteError::NoHealthyReplica)
        );
        // An out-of-range owner hint is ignored, not a panic.
        let states = [BreakerState::Closed, BreakerState::Closed];
        assert!(r
            .route(0, SloClass::Interactive, &loads, &states, Some((9, 8)))
            .is_ok());
    }

    #[test]
    fn occupancy_handles_zero_limit() {
        assert_eq!(load(0, 0).hbm_occupancy(), 1.0);
        assert_eq!(load(5, 10).hbm_occupancy(), 0.5);
    }
}
