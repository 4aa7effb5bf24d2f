//! Helpers shared by the integration suites.

use longsight::faults::{FaultInjector, FaultLog, RetryPolicy};
use longsight::model::ModelConfig;
use longsight::obs::Recorder;
use longsight::system::serving::{run, RunSpec, ServeMetrics, WorkloadConfig};
use longsight::system::{ServingSystem, TokenAttribution};

/// One FIFO replica of `sys` serving `wl` through [`run`], under token
/// `faults`, with `rec` and `attr` attached.
pub fn serve_one(
    sys: &mut dyn ServingSystem,
    model: &ModelConfig,
    wl: &WorkloadConfig,
    faults: Option<(&FaultInjector, &RetryPolicy)>,
    rec: &mut Recorder,
    attr: Option<&mut TokenAttribution>,
) -> (ServeMetrics, FaultLog) {
    let spec = RunSpec {
        token_faults: faults.map(|(inj, retry)| (inj.clone(), *retry)),
        ..RunSpec::new(model.clone(), wl.clone())
    };
    let (m, _, log) = run(&mut [sys], &spec, rec, attr).expect("one replica runs");
    (m, log)
}
