//! Layer timing from outside the program: a [`ServingSystem`] wrapper that
//! times every call the serving driver makes into the step model, and a
//! replay of `LongSightSystem::drex_layer` over the shapes it saw.

use longsight_obs::Recorder;
use longsight_sched::KvDeviceGeometry;
use longsight_system::{Infeasible, LongSightSystem, ServingSystem, StepReport};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Counters shared by every replica's wrapper in one run.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    /// `evaluate` calls.
    pub calls: u64,
    /// `evaluate` calls that returned `Infeasible`.
    pub infeasible: u64,
    /// Host ns spent inside `evaluate`.
    pub eval_ns: f64,
    /// Host ns spent inside `record_step_detail`.
    pub detail_ns: f64,
    /// `(users, context)` of every feasible evaluation, in call order.
    pub shapes: Vec<(usize, usize)>,
}

/// A step model that forwards to `inner` and records call counts and host
/// time into shared [`StepStats`]. It changes no simulated output.
pub struct TimedSystem {
    inner: LongSightSystem,
    stats: Rc<RefCell<StepStats>>,
}

impl TimedSystem {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: LongSightSystem, stats: Rc<RefCell<StepStats>>) -> Self {
        Self { inner, stats }
    }
}

impl ServingSystem for TimedSystem {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn evaluate(&mut self, users: usize, context: usize) -> Result<StepReport, Infeasible> {
        let t0 = Instant::now();
        let r = self.inner.evaluate(users, context);
        let ns = t0.elapsed().as_nanos() as f64;
        let mut s = self.stats.borrow_mut();
        s.calls += 1;
        s.eval_ns += ns;
        match r {
            Ok(_) => s.shapes.push((users, context)),
            Err(_) => s.infeasible += 1,
        }
        r
    }

    fn max_users(&self, context: usize) -> usize {
        self.inner.max_users(context)
    }

    fn record_step_detail(
        &mut self,
        users: usize,
        context: usize,
        rec: &mut Recorder,
        anchor_ns: f64,
    ) {
        let t0 = Instant::now();
        self.inner
            .record_step_detail(users, context, rec, anchor_ns);
        self.stats.borrow_mut().detail_ns += t0.elapsed().as_nanos() as f64;
    }

    fn kv_geometry(&self, page_tokens: usize) -> Option<KvDeviceGeometry> {
        self.inner.kv_geometry(page_tokens)
    }
}

/// Replays `drex_layer` once per shape on `sys` and returns the host ms it
/// took. The replay covers the DReX offload model (and the DRAM/CXL timing
/// behind it) without the GPU side of the step.
pub fn replay_drex(sys: &LongSightSystem, shapes: &[(usize, usize)]) -> f64 {
    let t0 = Instant::now();
    for &(users, context) in shapes {
        std::hint::black_box(sys.drex_layer(users, context));
    }
    t0.elapsed().as_secs_f64() * 1e3
}
