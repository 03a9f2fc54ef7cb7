//! Multi-device execution (paper §IV-E, Fig. 12).
//!
//! "The initial tasks are first evenly assigned to all the GPUs by round
//! robin … T-DFS currently does not do task migration among GPUs." Each
//! simulated device gets its own warp pool, task queue, page arena and
//! edge partition; devices run in parallel and counts are summed.

use std::time::{Duration, Instant};

use tdfs_gpu::device::Device;
use tdfs_gpu::Clock;
use tdfs_graph::GraphView;
use tdfs_query::plan::QueryPlan;

use crate::config::{MatcherConfig, Strategy};
use crate::engine::{run_on_device, EngineError, InitialSource};
use crate::stack::StackFactory;
use crate::stats::{RunResult, RunStats};

/// Result of a multi-device run.
#[derive(Debug, Clone)]
pub struct MultiDeviceResult {
    /// Per-device results, in device order.
    pub per_device: Vec<RunResult>,
    /// Total matches across devices.
    pub matches: u64,
    /// Wall-clock time of the whole job (max over devices).
    pub elapsed: Duration,
}

impl MultiDeviceResult {
    /// Merged statistics across devices.
    pub fn merged_stats(&self) -> RunStats {
        let mut s = RunStats::default();
        for r in &self.per_device {
            s.merge(&r.stats);
        }
        s
    }
}

/// Runs `plan` against `g` on `num_devices` simulated devices.
///
/// Only the `Timeout` strategy supports multi-device execution (as in
/// the paper, which scales T-DFS itself).
pub fn run_multi_device<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    num_devices: usize,
) -> Result<MultiDeviceResult, EngineError> {
    assert!(num_devices >= 1);
    assert!(
        matches!(cfg.strategy, Strategy::Timeout { .. }),
        "multi-device execution scales the T-DFS timeout engine"
    );
    let start = Instant::now();
    let results: Vec<Result<RunResult, EngineError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_devices);
        for d in 0..num_devices {
            handles.push(scope.spawn(move || {
                let device = Device::in_group(d, num_devices, cfg.chunk_size, cfg.queue_capacity);
                let stacks = StackFactory::for_config(cfg, g.max_degree());
                let source = InitialSource::choose(g, plan, cfg, None);
                run_on_device(g, plan, cfg, &device, &stacks, Clock::real(), None, source)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("device thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();

    let mut per_device = Vec::with_capacity(num_devices);
    for r in results {
        per_device.push(r?);
    }
    let matches = per_device.iter().map(|r| r.matches).sum();
    Ok(MultiDeviceResult {
        per_device,
        matches,
        elapsed,
    })
}
