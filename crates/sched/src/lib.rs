//! longsight-sched — SLO-aware continuous batching over a paged HBM/DReX
//! KV cache.
//!
//! LongSight's two-tier KV layout (HBM-resident sliding window + sinks,
//! long-range tail on DReX) induces a natural paged memory hierarchy. This
//! crate turns that hierarchy into an admission-control and scheduling
//! problem:
//!
//! * [`PagedKvManager`] is the block-granular page ledger: every request
//!   holds window pages against the HBM capacity (gated by a watermark) and
//!   tail pages against the DReX capacity. Admission becomes a memory
//!   decision, and the ledger's invariants (no leaks, watermark never
//!   exceeded) are cheap to audit at the end of a run.
//! * [`Scheduler`] is the continuous-batching state machine: SLO-class
//!   priority queues ([`SloClass`]), chunked prefill interleaved with
//!   decode steps, preemption-by-eviction of best-effort requests to
//!   DReX-resident state, and a deterministic restore-or-recompute cost on
//!   resume.
//!
//! A fleet of replicas scales the same machinery out:
//!
//! * [`Router`] is the deterministic front end over N (GPU, DReX)
//!   replicas: join-shortest-queue on free HBM pages with class-aware
//!   spillover ([`RouterPolicy::JsqSpillover`]), or load-blind round-robin
//!   as the baseline. Each replica keeps its own [`Scheduler`] and
//!   [`PagedKvManager`]; the router only picks where an arrival lands,
//!   from a [`SchedLoad`] snapshot taken at arrival time.
//! * [`FleetReport`] rolls per-replica reports up (counts summed,
//!   percentiles over the merged samples) and audits the cross-replica
//!   invariants: every arrival placed exactly once, arrivals conserved,
//!   every replica's page ledger clean.
//! * [`LatencySamples`] is the latency population every report ends in:
//!   `(value, count)` runs compacted into a multiset when the buffer fills,
//!   so its memory follows its distinct values, not its samples. Its
//!   [`SortedSamples`] view, sorted once and merged linearly across classes
//!   and replicas, gives percentiles bit-identical to sorting the expanded
//!   samples.
//!
//! The crate is dependency-free and knows nothing about latency models or
//! observability: feasibility is a callback, costs arrive precomputed on
//! each [`SchedRequest`] as whole picoseconds ([`clock`]), and decisions
//! come back as [`SchedEvent`]s. The serving loop in `longsight-system`
//! owns simulated time and translates events into trace instants, which
//! keeps every scheduling decision — including fleet placement — a pure
//! function of the (seed, workload, config) triple — bit-identical at any
//! thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod fleet;
pub mod pages;
pub mod request;
pub mod router;
pub mod samples;
pub mod scheduler;

pub use fleet::{
    FleetFaultSummary, FleetReport, Placement, PullRecord, RedispatchRecord, SessionSummary,
    ShedRecord, SloBurnSummary,
};
pub use pages::{AllocError, PageConfig, PageStats, PagedKvManager};
pub use request::{KvDeviceGeometry, ResumePath, SchedRequest, SloClass, SloMix};
pub use router::{
    BreakerConfig, BreakerState, CircuitBreaker, RouteError, Router, RouterPolicy, SchedLoad,
};
pub use samples::{LatencySamples, SortedSamples, MIN_COMPACT_RUNS};
pub use scheduler::{
    ClassReport, ClassViews, Completion, Member, SchedConfig, SchedEvent, SchedPolicy, SchedReport,
    Scheduler, StepPlan,
};
