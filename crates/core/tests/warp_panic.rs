//! A panic in one warp must end the whole run promptly, on every
//! strategy and at every warp count: the panic reaches the caller instead
//! of leaving the other warps waiting for a warp that is gone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use tdfs_core::{match_plan_with_sink, MatchSink, MatcherConfig};
use tdfs_graph::generators::barabasi_albert;
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;

/// Panics on its first emit only: a second panic while the first unwinds
/// would abort the test process.
struct PanicOnce(AtomicBool);

impl MatchSink for PanicOnce {
    fn emit(&self, _m: &[u32]) {
        if self.0.swap(false, Ordering::SeqCst) {
            panic!("sink panic (injected by test)");
        }
    }
}

#[test]
fn a_panicking_warp_ends_the_run_on_every_strategy() {
    let configs = [
        ("tdfs", MatcherConfig::tdfs()),
        ("no_steal", MatcherConfig::no_steal()),
        ("stmatch", MatcherConfig::stmatch_like()),
        ("egsm", MatcherConfig::egsm_like()),
        ("pbe", MatcherConfig::pbe_like()),
        ("hybrid", MatcherConfig::hybrid()),
    ];
    for (name, cfg) in configs {
        for warps in [2, 4] {
            let cfg = cfg.clone().with_warps(warps);
            let (done, ended) = mpsc::channel();
            std::thread::spawn(move || {
                let g = barabasi_albert(400, 6, 3);
                let plan = QueryPlan::build_with(&Pattern::clique(3), cfg.plan);
                let sink = PanicOnce(AtomicBool::new(true));
                let run = catch_unwind(AssertUnwindSafe(|| {
                    match_plan_with_sink(&g, &plan, &cfg, Some(&sink))
                }));
                let _ = done.send(run.is_err());
            });
            let panicked = ended
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("{name} at {warps} warps still running after 20 s"));
            assert!(panicked, "{name} at {warps} warps swallowed the panic");
        }
    }
}
