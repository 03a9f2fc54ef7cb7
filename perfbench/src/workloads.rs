//! The three workloads and the client harness they share.
//!
//! One client thread drives one [`Service`] in a closed loop: the next
//! operation goes out only after the previous one returned, so on a small
//! host the loop measures service time rather than the scheduler. Every
//! answer is checked against an oracle that does not share the serving
//! path. A traced run also keeps spans and the counters the API returns in
//! memory, and after the timed loop replays a sample of the same
//! operations through each layer's entry points for their self times.

use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tdfs_core::engine::edge_admitted;
use tdfs_core::{
    host_filter_edges, match_plan, match_plan_on_edges, reference_count, MatcherConfig, RunStats,
};
use tdfs_graph::generators::barabasi_albert;
use tdfs_graph::rng::Rng;
use tdfs_graph::{DatasetId, DeltaCsr, EdgeBatch};
use tdfs_query::automorphism::edge_orbit_reps;
use tdfs_query::{Pattern, PatternId, QueryPlan};
use tdfs_service::{
    shard_cuts, DurableConfig, QueryRequest, Service, ServiceConfig, ServiceMetrics,
    StandingRequest,
};

use crate::ops::{self, ChurnStep};
use crate::stats;
use crate::trace::{self, Trace};

/// Warps per query, pinned rather than read from the host: 2 is the
/// reference host's core count.
pub const WARPS: usize = 2;
/// Service worker threads.
pub const SERVICE_WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 64;
const PLAN_CACHE_CAPACITY: usize = 64;
/// The timed loop runs in this many equal segments. The end-to-end
/// latencies and throughput are medians over the segments with the least
/// CPU steal (see [`stats::least_stolen`]): on a shared 2-core host, runs
/// that lost a third of their CPU time to other guests served 60% fewer
/// ego_lookup queries per second.
const SEGMENTS: usize = 5;
/// `setup_s` is the median of repeated set-ups, run in windows before,
/// between and after the loop's segments, over the windows with the least
/// steal: each window holds at least this many set-ups and as many as fit
/// in this many seconds. A shared host switches between faster and slower
/// states over seconds (on a 2-core one, ego_lookup's graph build took
/// from 4.4 to 9 ms from one window to the next), so set-ups taken back to
/// back would all see one state.
const SETUP_WINDOW_REPS: usize = 3;
const SETUP_WINDOW_SECS: f64 = 0.4;
/// Timings of the calibration loop before and after the workload.
const CALIB_REPS: usize = 5;
/// motif_mix blocks generated ahead of the loop, which cycles through them.
const MOTIF_BLOCKS: usize = 64;
/// ego_lookup's ledger graph, BA(20 000, 4), and its distinct requests;
/// the loop cycles through them, so the oracle runs once per request.
const EGO_VERTICES: usize = 20_000;
const EGO_GRAPH_SEED: u64 = 2024;
const EGO_POOL: usize = 4096;
/// standing_churn's graph, BA(3000, 6) as in the delta bench; edges per
/// batch (settlement-sized, as in `examples/standing_fraud.rs`); and how
/// many batches stay live before they are deleted.
const CHURN_VERTICES: usize = 3000;
const CHURN_GRAPH_SEED: u64 = 13;
const CHURN_BATCH: usize = 40;
const CHURN_WINDOW: usize = 8;
/// Batches generated ahead of the loop; a run that uses them up stops.
const CHURN_STEPS: usize = 4000;
/// Keeps the replay sampler's random stream apart from the workload's.
const SAMPLER_SEED: u64 = 0x5A3D_1E55_0F7A_CE55;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MotifMix,
    EgoLookup,
    StandingChurn,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::MotifMix,
        Workload::EgoLookup,
        Workload::StandingChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MotifMix => "motif_mix",
            Workload::EgoLookup => "ego_lookup",
            Workload::StandingChurn => "standing_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One named value of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed operations and self-checks; any one fails the run.
    pub problems: Vec<String>,
}

fn query_config() -> MatcherConfig {
    MatcherConfig::tdfs().with_warps(WARPS)
}

fn new_service() -> Service {
    Service::new(ServiceConfig {
        workers: SERVICE_WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        plan_cache_capacity: PLAN_CACHE_CAPACITY,
        ..ServiceConfig::default()
    })
}

/// How a traced run alternates untraced and traced blocks, and which
/// traced operations its replay keeps.
struct Sampling {
    /// Operations per block.
    block: usize,
    /// Traced queries the replay keeps per query class, in proportion to
    /// the classes' shares of the operation sequence, so that the replayed
    /// sample holds the workload's mix. Each class keeps a uniform sample
    /// of the whole run.
    quota: Vec<usize>,
    /// Traced applies the replay keeps, likewise.
    apply_quota: usize,
}

/// A traced query kept for the replay.
struct QuerySample {
    view: Arc<DeltaCsr>,
    pattern: Pattern,
    seeds: Option<Vec<(u32, u32)>>,
    expected: u64,
    exec_ns: u64,
}

/// A traced apply kept for the replay: the batch and the view it hit.
struct ApplySample {
    pre: Arc<DeltaCsr>,
    batch: EdgeBatch,
}

/// What a traced run keeps in memory.
struct Tracer {
    sampling: Sampling,
    rng: Rng,
    trace: Trace,
    /// Span of the operation in progress.
    op: Option<usize>,
    admit_wait_ms: Vec<f64>,
    deliver_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    /// `RunStats` of the traced queries, merged; their count; the largest
    /// single-query stack peak.
    stats: RunStats,
    queries: u64,
    stack_peak: usize,
    /// Traced queries seen per class, and traced applies seen.
    seen_queries: Vec<usize>,
    seen_applies: usize,
    /// The replay's samples, per query class.
    query_samples: Vec<Vec<QuerySample>>,
    apply_samples: Vec<ApplySample>,
    /// Client time and answered queries of untraced [0] and traced [1]
    /// blocks.
    block_secs: [f64; 2],
    block_queries: [usize; 2],
}

impl Tracer {
    fn new(sampling: Sampling, seed: u64) -> Self {
        let classes = sampling.quota.len();
        Self {
            sampling,
            rng: Rng::seed_from_u64(seed ^ SAMPLER_SEED),
            trace: Trace::default(),
            op: None,
            admit_wait_ms: Vec::new(),
            deliver_ms: Vec::new(),
            exec_ms: Vec::new(),
            stats: RunStats::default(),
            queries: 0,
            stack_peak: 0,
            seen_queries: vec![0; classes],
            seen_applies: 0,
            query_samples: (0..classes).map(|_| Vec::new()).collect(),
            apply_samples: Vec::new(),
            block_secs: [0.0; 2],
            block_queries: [0; 2],
        }
    }

    /// Where the next traced query of `class` goes in its sample, if the
    /// replay keeps it.
    fn query_slot(&mut self, class: usize) -> Option<usize> {
        let seen = self.seen_queries[class];
        self.seen_queries[class] += 1;
        stats::reservoir_slot(seen, self.sampling.quota[class], &mut self.rng)
    }

    /// Where the next traced apply goes in its sample, if the replay keeps it.
    fn apply_slot(&mut self) -> Option<usize> {
        let seen = self.seen_applies;
        self.seen_applies += 1;
        stats::reservoir_slot(seen, self.sampling.apply_quota, &mut self.rng)
    }
}

/// Puts `item` at `slot` of a reservoir sample: a new slot at the end, or
/// in place of the item there.
fn keep<T>(sample: &mut Vec<T>, slot: usize, item: T) {
    if slot == sample.len() {
        sample.push(item);
    } else {
        sample[slot] = item;
    }
}

/// What every run records.
#[derive(Default)]
struct Record {
    query_ms: Vec<f64>,
    /// Query latencies by class (pattern), for the per-class diagnostics.
    class_ms: Vec<Vec<f64>>,
    apply_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Correctly answered queries.
    correct: usize,
    /// The segments of the timed loop.
    segments: Vec<Segment>,
    pages_spilled: u64,
    pages_leaked: u64,
    /// The first few failures, for the report.
    errors: Vec<String>,
}

/// One segment of the timed loop: its wall time, the CPU steal during it,
/// and what the record gained in it.
struct Segment {
    secs: f64,
    steal: u64,
    correct: usize,
    queries: Range<usize>,
    applies: Range<usize>,
}

impl Record {
    /// The segments the end-to-end figures come from.
    fn quiet(&self) -> Vec<&Segment> {
        let steal: Vec<u64> = self.segments.iter().map(|s| s.steal).collect();
        stats::least_stolen(&steal, stats::STEAL_SLACK)
            .into_iter()
            .map(|i| &self.segments[i])
            .collect()
    }
}

/// One count query and the oracle's answer to it.
struct Query<'a> {
    class: usize,
    pattern: &'a Pattern,
    seeds: Option<Vec<(u32, u32)>>,
    expected: u64,
}

/// The client: one service, one graph, one closed loop.
struct Harness {
    svc: Service,
    graph: &'static str,
    /// Built once: `MatcherConfig::tdfs()` reads the host's core count,
    /// which is client work the loop should not repeat per request.
    config: MatcherConfig,
    rec: Record,
    tracer: Option<Tracer>,
    /// Queries answered before the operation in progress began.
    answered_before: usize,
    /// Id of the next loop operation.
    next_op: u64,
}

impl Harness {
    fn new(svc: Service, graph: &'static str, classes: usize, tracer: Option<Tracer>) -> Self {
        Self {
            svc,
            graph,
            config: query_config(),
            rec: Record {
                class_ms: vec![Vec::new(); classes],
                ..Record::default()
            },
            tracer,
            answered_before: 0,
            next_op: 0,
        }
    }

    /// Whether operation `i` falls in a traced block. A traced run
    /// alternates untraced and traced blocks, so both see the same host
    /// and their throughput difference is the cost of tracing.
    fn traced(&self, i: usize) -> bool {
        self.tracer
            .as_ref()
            .is_some_and(|t| (i / t.sampling.block) % 2 == 1)
    }

    fn begin(&mut self, traced: bool) -> Instant {
        self.answered_before = self.rec.query_ms.len();
        self.next_op += 1;
        let now = Instant::now();
        if let Some(t) = self.tracer.as_mut().filter(|_| traced) {
            let at = t.trace.at(now);
            t.op = Some(t.trace.push(self.next_op - 1, "op", None, at, at));
        }
        now
    }

    fn end(&mut self, started: Instant, traced: bool) {
        let now = Instant::now();
        let answered = self.rec.query_ms.len() - self.answered_before;
        let Some(t) = self.tracer.as_mut() else {
            return;
        };
        if let Some(op) = t.op.take() {
            t.trace.spans[op].end = t.trace.at(now);
        }
        let b = usize::from(traced);
        t.block_secs[b] += (now - started).as_secs_f64();
        t.block_queries[b] += answered;
    }

    fn fail(&mut self, what: String) {
        self.rec.failed += 1;
        if self.rec.errors.len() < 5 {
            self.rec.errors.push(what);
        }
    }

    /// Submits one count query, waits for it, and checks the answer.
    fn query(&mut self, q: Query<'_>, traced: bool) {
        self.rec.attempted += 1;
        let slot = match self.tracer.as_mut() {
            Some(t) if traced => t.query_slot(q.class),
            _ => None,
        };
        let view = slot.and_then(|_| self.svc.catalog().get(self.graph));
        let kept_seeds = slot.and_then(|_| q.seeds.clone());
        let mut request =
            QueryRequest::new(self.graph, q.pattern.clone()).with_config(self.config.clone());
        if let Some(seeds) = q.seeds {
            request = request.with_seed_edges(seeds);
        }
        let t0 = Instant::now();
        let submitted = self.svc.submit(request);
        let t1 = Instant::now();
        let handle = match submitted {
            Ok(handle) => handle,
            Err(rejected) => return self.fail(format!("submit rejected: {rejected}")),
        };
        let t2 = Instant::now();
        let outcome = handle.wait();
        let t3 = Instant::now();
        let run = match outcome.result {
            Ok(run) => run,
            Err(e) => return self.fail(format!("query failed: {e}")),
        };
        let client_ms = ms(t3 - t0);
        self.rec.query_ms.push(client_ms);
        self.rec.class_ms[q.class].push(client_ms);
        self.rec.pages_spilled += run.stats.pages_spilled;
        self.rec.pages_leaked += run.stats.pages_leaked;
        if run.matches == q.expected {
            self.rec.correct += 1;
        } else {
            self.rec.wrong += 1;
            self.fail(format!(
                "query class {} counted {} matches, the oracle {}",
                q.class, run.matches, q.expected
            ));
        }
        let Some(t) = self.tracer.as_mut().filter(|_| traced) else {
            return;
        };
        let op_id = t.op.map_or(0, |i| t.trace.spans[i].op);
        let (a, b, c, d) = (
            t.trace.at(t0),
            t.trace.at(t1),
            t.trace.at(t2),
            t.trace.at(t3),
        );
        let latency = nanos(outcome.latency);
        let exec = nanos(run.elapsed);
        t.trace.push(op_id, "submit", t.op, a, b);
        t.trace.push(op_id, "wait", t.op, c, d);
        // Rebuilt from the durations the API returns, aligned to the
        // outcome's arrival: submission to completion, and within it the
        // execution (`RunResult::elapsed`).
        let service = t
            .trace
            .push(op_id, "service", t.op, d.saturating_sub(latency), d);
        t.trace
            .push(op_id, "exec", Some(service), d.saturating_sub(exec), d);
        t.admit_wait_ms.push(ns_ms(latency.saturating_sub(exec)));
        t.deliver_ms.push(ns_ms((d - a).saturating_sub(latency)));
        t.exec_ms.push(ns_ms(exec));
        t.stats.merge(&run.stats);
        t.stack_peak = t.stack_peak.max(run.stats.stack_bytes_peak);
        t.queries += 1;
        if let (Some(slot), Some(view)) = (slot, view) {
            let sample = QuerySample {
                view,
                pattern: q.pattern.clone(),
                seeds: kept_seeds,
                expected: q.expected,
                exec_ns: exec,
            };
            keep(&mut t.query_samples[q.class], slot, sample);
        }
    }

    /// Applies one batch and checks that it changed exactly its edges.
    fn apply(&mut self, step: &ChurnStep, traced: bool) {
        self.rec.attempted += 1;
        let slot = match self.tracer.as_mut() {
            Some(t) if traced => t.apply_slot(),
            _ => None,
        };
        let pre = slot.and_then(|_| self.svc.catalog().get(self.graph));
        let batch = step.batch();
        let t0 = Instant::now();
        let applied = self.svc.apply(self.graph, &batch);
        let t1 = Instant::now();
        let report = match applied {
            Ok(report) => report,
            Err(e) => return self.fail(format!("apply failed: {e}")),
        };
        self.rec.apply_ms.push(ms(t1 - t0));
        if report.inserted != step.insert.len() || report.deleted != step.delete.len() {
            self.rec.wrong += 1;
            self.fail(format!(
                "apply changed +{} -{} edges of a +{} -{} batch",
                report.inserted,
                report.deleted,
                step.insert.len(),
                step.delete.len()
            ));
        }
        let Some(t) = self.tracer.as_mut().filter(|_| traced) else {
            return;
        };
        let op_id = t.op.map_or(0, |i| t.trace.spans[i].op);
        let (a, b) = (t.trace.at(t0), t.trace.at(t1));
        t.trace.push(op_id, "apply", t.op, a, b);
        if let (Some(slot), Some(pre)) = (slot, pre) {
            keep(&mut t.apply_samples, slot, ApplySample { pre, batch });
        }
    }
}

/// Runs operations `0, 1, …` in a closed loop for `seconds`, in
/// [`SEGMENTS`] equal segments with a call of `between` after each, until
/// `op` reports its inputs used up. Returns the (vector, scalar)
/// lane-kernel dispatches of the segments.
fn timed_loop(
    h: &mut Harness,
    seconds: f64,
    mut between: impl FnMut(),
    mut op: impl FnMut(&mut Harness, usize, bool) -> bool,
) -> (u64, u64) {
    let budget = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let (mut simd, mut scalar) = (0, 0);
    let mut i = 0;
    for _ in 0..SEGMENTS {
        let d0 = tdfs_gpu::simd::dispatch_counts();
        let (steal, correct) = (steal_ticks(), h.rec.correct);
        let (queries, applies) = (h.rec.query_ms.len(), h.rec.apply_ms.len());
        let start = Instant::now();
        let mut more = true;
        while more && start.elapsed() < budget {
            let traced = h.traced(i);
            let t = h.begin(traced);
            more = op(h, i, traced);
            h.end(t, traced);
            i += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        let d1 = tdfs_gpu::simd::dispatch_counts();
        (simd, scalar) = (simd + d1.simd - d0.simd, scalar + d1.scalar - d0.scalar);
        let rec = &mut h.rec;
        rec.segments.push(Segment {
            secs,
            steal: steal_ticks().saturating_sub(steal),
            correct: rec.correct - correct,
            queries: queries..rec.query_ms.len(),
            applies: applies..rec.apply_ms.len(),
        });
        between();
        if !more {
            break;
        }
    }
    (simd, scalar)
}

/// A workload's timed part and the service counters around it.
struct Measured {
    h: Harness,
    before: ServiceMetrics,
    after: ServiceMetrics,
    /// (vector, scalar) lane-kernel dispatches during the timed loop.
    dispatch: (u64, u64),
    /// The live view right after the timed loop.
    live: Arc<DeltaCsr>,
}

/// Runs the timed loop with a window of set-ups after each segment; the
/// window before the first segment is the one that built `h`.
fn measure<S>(
    mut h: Harness,
    seconds: f64,
    setups: &mut Setups<impl FnMut() -> (S, f64)>,
    op: impl FnMut(&mut Harness, usize, bool) -> bool,
) -> Measured {
    let before = h.svc.metrics();
    let dispatch = timed_loop(&mut h, seconds, || drop(setups.window()), op);
    let live = h
        .svc
        .catalog()
        .get(h.graph)
        .expect("the graph is registered");
    let after = h.svc.metrics();
    Measured {
        h,
        before,
        after,
        dispatch,
        live,
    }
}

/// A workload's set-up, which returns its state and the graph build part
/// of its time (ms), with the timings of every run of it.
struct Setups<F> {
    setup: F,
    windows: Vec<SetupWindow>,
}

/// One window of set-ups: the CPU steal during it, and each set-up's wall
/// time (s) and graph build part (ms).
#[derive(Default)]
struct SetupWindow {
    steal: u64,
    secs: Vec<f64>,
    build_ms: Vec<f64>,
}

impl<S, F: FnMut() -> (S, f64)> Setups<F> {
    fn new(setup: F) -> Self {
        Self {
            setup,
            windows: Vec::new(),
        }
    }

    /// Runs one window of set-ups (see [`SETUP_WINDOW_SECS`]), each from a
    /// clean slate, and returns the last one's state.
    fn window(&mut self) -> S {
        let mut w = SetupWindow::default();
        let mut last = None;
        let (window, steal) = (Instant::now(), steal_ticks());
        while w.secs.len() < SETUP_WINDOW_REPS || window.elapsed().as_secs_f64() < SETUP_WINDOW_SECS
        {
            drop(last.take());
            let started = Instant::now();
            let (state, built) = (self.setup)();
            w.secs.push(started.elapsed().as_secs_f64());
            w.build_ms.push(built);
            last = Some(state);
        }
        w.steal = steal_ticks().saturating_sub(steal);
        self.windows.push(w);
        last.expect("at least one set-up")
    }
}

/// The set-ups of the windows with the least steal: their wall times (s)
/// and graph build parts (ms).
fn quiet_setups(windows: &[SetupWindow]) -> (Vec<f64>, Vec<f64>) {
    let steal: Vec<u64> = windows.iter().map(|w| w.steal).collect();
    let quiet = stats::least_stolen(&steal, stats::STEAL_SLACK);
    let pick = |f: fn(&SetupWindow) -> &Vec<f64>| {
        quiet
            .iter()
            .flat_map(|&i| f(&windows[i]).iter().copied())
            .collect()
    };
    (pick(|w| &w.secs), pick(|w| &w.build_ms))
}

/// CPU time the host gave to its other guests while this machine's CPUs
/// had work to run (the `steal` column of `/proc/stat`), in clock ticks; 0
/// where it is not reported.
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// One query of the set-up's warm-up pass, which fills the plan cache.
fn warm(svc: &Service, graph: &str, pattern: &Pattern, seeds: Option<Vec<(u32, u32)>>) {
    let mut request = QueryRequest::new(graph, pattern.clone()).with_config(query_config());
    if let Some(seeds) = seeds {
        request = request.with_seed_edges(seeds);
    }
    let outcome = svc.submit(request).expect("warm-up query admitted").wait();
    outcome.result.expect("warm-up query runs");
}

/// A finished workload, ready to be reported.
struct Finished {
    m: Measured,
    /// Names of the query classes, for the diagnostics.
    classes: Vec<String>,
    setups: Vec<SetupWindow>,
    /// Standing patterns, whose rooted plans the replay rebuilds.
    standing: Vec<Pattern>,
    /// Wrong answers found after the loop.
    wrong: Vec<String>,
}

/// The 4-cycle ring of `examples/standing_fraud.rs`.
fn ring() -> Pattern {
    Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
}

fn motif_mix(seed: u64, seconds: f64, tracing: bool) -> Finished {
    const GRAPH: &str = "youtube_s";
    let ids: Vec<u8> = ops::MOTIF_BLOCK.iter().map(|&(id, _)| id).collect();
    let patterns: Vec<Pattern> = ids.iter().map(|&id| PatternId(id).pattern()).collect();
    let sequence: Vec<usize> = ops::motif_sequence(seed, MOTIF_BLOCKS)
        .into_iter()
        .map(|id| {
            ids.iter()
                .position(|&x| x == id)
                .expect("drawn from MOTIF_BLOCK")
        })
        .collect();
    let mut setups = Setups::new(|| {
        let started = Instant::now();
        let graph = Arc::new(DatasetId::YoutubeS.generate(1.0));
        let built = ms(started.elapsed());
        let svc = new_service();
        svc.register_graph(GRAPH, graph.clone());
        for p in &patterns {
            warm(&svc, GRAPH, p, None);
        }
        ((svc, graph), built)
    });
    let (svc, graph) = setups.window();
    // Oracle: the serial reference matcher, once per pattern.
    let options = query_config().plan;
    let expected: Vec<u64> = patterns
        .iter()
        .map(|p| reference_count(&*graph, &QueryPlan::build_with(p, options)))
        .collect();
    // The replay keeps one block's worth of each pattern: 40 queries in
    // the mix's proportions.
    let quota: Vec<usize> = ops::MOTIF_BLOCK.iter().map(|&(_, n)| n).collect();
    let tracer = tracing.then(|| {
        let sampling = Sampling {
            block: quota.iter().sum(),
            quota,
            apply_quota: 0,
        };
        Tracer::new(sampling, seed)
    });
    let h = Harness::new(svc, GRAPH, patterns.len(), tracer);
    let m = measure(h, seconds, &mut setups, |h, i, traced| {
        let k = sequence[i % sequence.len()];
        let q = Query {
            class: k,
            pattern: &patterns[k],
            seeds: None,
            expected: expected[k],
        };
        h.query(q, traced);
        true
    });
    Finished {
        m,
        classes: ids.iter().map(|id| format!("P{id}")).collect(),
        setups: setups.windows,
        standing: Vec::new(),
        wrong: Vec::new(),
    }
}

fn ego_lookup(seed: u64, seconds: f64, tracing: bool) -> Finished {
    const GRAPH: &str = "ledger";
    let patterns = [Pattern::clique(3), ring(), PatternId(1).pattern()];
    let mut setups = Setups::new(|| {
        let started = Instant::now();
        let graph = Arc::new(barabasi_albert(EGO_VERTICES, 4, EGO_GRAPH_SEED));
        let built = ms(started.elapsed());
        let svc = new_service();
        svc.register_graph(GRAPH, graph.clone());
        // The newest vertex has the fewest edges: a cheap warm-up.
        let leaf = (EGO_VERTICES - 1) as u32;
        for p in &patterns {
            warm(&svc, GRAPH, p, Some(ops::ego_seeds(&*graph, leaf)));
        }
        ((svc, graph), built)
    });
    let (svc, graph) = setups.window();
    let pool = ops::ego_pool(seed, EGO_VERTICES, patterns.len(), EGO_POOL);
    let seeds: Vec<Vec<(u32, u32)>> = pool
        .iter()
        .map(|r| ops::ego_seeds(&*graph, r.vertex))
        .collect();
    // Oracle: the PBE-like BFS engine over the seeds the service's plan
    // admits.
    let oracle = MatcherConfig::pbe_like().with_warps(1);
    let plans: Vec<QueryPlan> = patterns
        .iter()
        .map(|p| QueryPlan::build_with(p, query_config().plan))
        .collect();
    let expected: Vec<u64> = pool
        .iter()
        .zip(&seeds)
        .map(|(r, s)| {
            let plan = &plans[r.pattern];
            let admitted = s
                .iter()
                .copied()
                .filter(|&(u, v)| edge_admitted(&*graph, plan, u, v))
                .collect();
            match_plan_on_edges(&*graph, plan, &oracle, admitted, None)
                .expect("the oracle engine runs")
                .matches
        })
        .collect();
    // The pool deals the patterns in turn, so the replay keeps as many of
    // each; their cost varies with the drawn vertex's degree.
    let tracer = tracing.then(|| {
        let sampling = Sampling {
            block: 256,
            quota: vec![64; patterns.len()],
            apply_quota: 0,
        };
        Tracer::new(sampling, seed)
    });
    let h = Harness::new(svc, GRAPH, patterns.len(), tracer);
    let m = measure(h, seconds, &mut setups, |h, i, traced| {
        let k = i % pool.len();
        let class = pool[k].pattern;
        let q = Query {
            class,
            pattern: &patterns[class],
            seeds: Some(seeds[k].clone()),
            expected: expected[k],
        };
        h.query(q, traced);
        true
    });
    Finished {
        m,
        classes: vec!["K3".into(), "C4".into(), "P1".into()],
        setups: setups.windows,
        standing: Vec::new(),
        wrong: Vec::new(),
    }
}

fn standing_churn(seed: u64, seconds: f64, tracing: bool) -> Finished {
    const GRAPH: &str = "ledger";
    let (k3, ring) = (Pattern::clique(3), ring());
    let base = barabasi_albert(CHURN_VERTICES, 6, CHURN_GRAPH_SEED);
    let steps = ops::churn_steps(&base, seed, CHURN_WINDOW, CHURN_BATCH, CHURN_STEPS);
    let mut setups = Setups::new(|| {
        let started = Instant::now();
        let graph = Arc::new(barabasi_albert(CHURN_VERTICES, 6, CHURN_GRAPH_SEED));
        let built = ms(started.elapsed());
        let svc = new_service();
        svc.register_graph(GRAPH, graph);
        // Net match change each standing query reported: [K3, ring].
        let net = Arc::new(Mutex::new([0i64; 2]));
        for (slot, pattern) in [&k3, &ring].into_iter().enumerate() {
            let net = net.clone();
            let request = StandingRequest::new(GRAPH, pattern.clone()).with_config(query_config());
            svc.register_standing(request, move |d| {
                net.lock().expect("delta counter lock")[slot] += d.added as i64 - d.removed as i64;
            })
            .expect("the graph is registered");
        }
        for step in &steps[..CHURN_WINDOW] {
            svc.apply(GRAPH, &step.batch())
                .expect("a warm-up batch applies");
        }
        warm(&svc, GRAPH, &k3, None);
        ((svc, net), built)
    });
    let (svc, net) = setups.window();
    let options = query_config().plan;
    let ring_plan = QueryPlan::build_with(&ring, options);
    let k3_base = reference_count(&base, &QueryPlan::build_with(&k3, options)) as i64;
    let ring_base = reference_count(&base, &ring_plan) as i64;
    let net_now = |slot: usize| net.lock().expect("delta counter lock")[slot];
    let tracer = tracing.then(|| {
        let sampling = Sampling {
            block: 8,
            quota: vec![32],
            apply_quota: 32,
        };
        Tracer::new(sampling, seed)
    });
    let h = Harness::new(svc, GRAPH, 1, tracer);
    let m = measure(h, seconds, &mut setups, |h, i, traced| {
        let Some(step) = steps.get(CHURN_WINDOW + i) else {
            return false;
        };
        h.apply(step, traced);
        // Standing deltas are delivered before `apply` returns, so the
        // running count already covers this batch.
        let q = Query {
            class: 0,
            pattern: &k3,
            seeds: None,
            expected: (k3_base + net_now(0)) as u64,
        };
        h.query(q, traced);
        true
    });
    // The ring's running count is checked once, against a recount of the
    // final graph.
    let recount = reference_count(&*m.live, &ring_plan) as i64;
    let running = ring_base + net_now(1);
    let wrong = if recount == running {
        Vec::new()
    } else {
        vec![format!(
            "ring running count {running} differs from the final recount {recount}"
        )]
    };
    Finished {
        m,
        classes: vec!["K3".into()],
        setups: setups.windows,
        standing: vec![k3, ring],
        wrong,
    }
}

/// Runs one workload and returns its result: the end-to-end metrics, or
/// with `tracing` the per-layer ones.
pub fn run(workload: Workload, seed: u64, seconds: f64, tracing: bool) -> Report {
    let mut calib = calibrate();
    let f = match workload {
        Workload::MotifMix => motif_mix(seed, seconds, tracing),
        Workload::EgoLookup => ego_lookup(seed, seconds, tracing),
        Workload::StandingChurn => standing_churn(seed, seconds, tracing),
    };
    calib.extend(calibrate());
    eprintln!(
        "host.calib_ms: {:.3} before, {:.3} after",
        stats::median(&calib[..CALIB_REPS]),
        stats::median(&calib[CALIB_REPS..])
    );
    let mut problems = self_checks(&f);
    let metrics = if tracing {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{seed}.jsonl", workload.name()));
        per_layer(&f, stats::median(&calib), &path, &mut problems)
    } else {
        end_to_end(&f, &mut problems)
    };
    let rec = &f.m.h.rec;
    problems.extend(rec.errors.iter().cloned());
    problems.extend(f.wrong.iter().cloned());
    Report {
        correct: rec.wrong == 0 && f.wrong.is_empty(),
        attempted: rec.attempted,
        failed: rec.failed + f.wrong.len() as u64,
        metrics,
        problems,
    }
}

/// Checks every run makes besides the answers: a reclaimed lease is a
/// timing-dependent re-execution, a spill or a leak breaks the arena's
/// bound, and a rejection is a request the client was never served.
fn self_checks(f: &Finished) -> Vec<String> {
    let (b, a) = (&f.m.before, &f.m.after);
    let rec = &f.m.h.rec;
    let mut problems = Vec::new();
    let reclaimed = a.leases_reclaimed - b.leases_reclaimed;
    if reclaimed > 0 {
        problems.push(format!("{reclaimed} shard leases reclaimed"));
    }
    let rejected = rejections(a) - rejections(b);
    if rejected > 0 {
        problems.push(format!("{rejected} submissions rejected"));
    }
    if rec.pages_spilled > 0 {
        problems.push(format!("{} arena pages spilled", rec.pages_spilled));
    }
    if rec.pages_leaked > 0 {
        problems.push(format!("{} arena pages leaked", rec.pages_leaked));
    }
    problems
}

fn rejections(m: &ServiceMetrics) -> u64 {
    m.rejected_queue_full
        + m.rejected_unknown_graph
        + m.rejected_shutdown
        + m.rejected_unmeetable
        + m.rejected_brownout
}

fn end_to_end(f: &Finished, problems: &mut Vec<String>) -> Vec<Metric> {
    let rec = &f.m.h.rec;
    for (name, samples) in f.classes.iter().zip(&rec.class_ms) {
        eprintln!(
            "class {name}: {} queries, median {:.3} ms",
            samples.len(),
            stats::median(samples)
        );
    }
    for (k, s) in rec.segments.iter().enumerate() {
        eprintln!(
            "segment {k}: steal {} ticks, {:.1} queries/s",
            s.steal,
            s.correct as f64 / s.secs
        );
    }
    for (k, w) in f.setups.iter().enumerate() {
        eprintln!(
            "set-up window {k}: steal {} ticks, {} set-ups, median {:.4} s",
            w.steal,
            w.secs.len(),
            stats::median(&w.secs)
        );
    }
    let (setup_secs, build_ms) = quiet_setups(&f.setups);
    eprintln!(
        "setup_s: median of {} set-ups; graph build median {:.3} ms",
        setup_secs.len(),
        stats::median(&build_ms)
    );
    let peak = peak_rss_mb().unwrap_or_else(|| {
        problems.push("VmHWM is not readable from /proc/self/status".to_owned());
        0.0
    });
    let quiet = rec.quiet();
    let rates: Vec<f64> = quiet.iter().map(|s| s.correct as f64 / s.secs).collect();
    eprintln!("queries_per_s: median of {rates:?}");
    let slices: Vec<Range<usize>> = quiet.iter().map(|s| s.queries.clone()).collect();
    vec![
        metric("setup_s", stats::median(&setup_secs), "s"),
        pct(problems, "query_p50_ms", &rec.query_ms, &slices, 50),
        pct(problems, "query_p90_ms", &rec.query_ms, &slices, 90),
        metric("queries_per_s", stats::median(&rates), "1/s"),
        metric("peak_rss_mb", peak, "MB"),
    ]
}

/// An apply latency percentile: as [`pct`] over the loop's segments where
/// the workload applies batches, 0 where it sends no writes.
fn apply_pct(problems: &mut Vec<String>, name: &'static str, rec: &Record, p: usize) -> Metric {
    if rec.apply_ms.is_empty() {
        eprintln!("{name}: 0, the workload sends no writes");
        return metric(name, 0.0, "ms");
    }
    let slices: Vec<Range<usize>> = rec.quiet().iter().map(|s| s.applies.clone()).collect();
    pct(problems, name, &rec.apply_ms, &slices, p)
}

/// A percentile in milliseconds, the median over the `slices` of the
/// samples, printed with the samples behind it; a refused one fails the
/// run.
fn pct(
    problems: &mut Vec<String>,
    name: &'static str,
    samples: &[f64],
    slices: &[Range<usize>],
    p: usize,
) -> Metric {
    match stats::segmented_percentile(samples, slices, p) {
        Ok(q) => {
            eprintln!(
                "{name}: {:.4} ({} samples, {} beyond)",
                q.value, q.samples, q.beyond
            );
            metric(name, q.value, "ms")
        }
        Err(e) => {
            problems.push(format!("{name}: {e}"));
            metric(name, 0.0, "ms")
        }
    }
}

/// The median of all the samples, as [`pct`].
fn p50(problems: &mut Vec<String>, name: &'static str, samples: &[f64]) -> Metric {
    pct(
        problems,
        name,
        samples,
        std::slice::from_ref(&(0..samples.len())),
        50,
    )
}

/// The process's peak resident set size (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn per_layer(f: &Finished, calib_ms: f64, path: &Path, problems: &mut Vec<String>) -> Vec<Metric> {
    let m = &f.m;
    let t = m.h.tracer.as_ref().expect("a traced run has a tracer");
    let rec = &m.h.rec;
    let (b, a) = (&m.before, &m.after);
    let hits = a.plan_cache.hits - b.plan_cache.hits;
    let misses = a.plan_cache.misses - b.plan_cache.misses;
    let samples: Vec<&QuerySample> = t.query_samples.iter().flatten().collect();
    let replay = replay_queries(&samples, ratio(misses, hits + misses), problems);
    let mut plan_us = replay.plan_us;
    let options = query_config().plan;
    for p in &f.standing {
        for (x, y) in edge_orbit_reps(p) {
            plan_us.push(median_ns(5, || QueryPlan::build_rooted(p, x, y, options)) as f64 / 1e3);
        }
    }
    let apply_ms: Vec<f64> = t
        .apply_samples
        .iter()
        .map(|s| {
            ns_ms(median_ns(3, || {
                s.pre.apply(&s.batch).expect("a replayed batch applies")
            }))
        })
        .collect();
    let s = &t.stats;
    let per_query = |x: u64| x as f64 / t.queries.max(1) as f64;
    let kernels = s.warp.merge_kernels + s.warp.bsearch_kernels + s.warp.gallop_kernels;
    let (simd, scalar) = m.dispatch;
    let [untraced_qps, traced_qps] = [0, 1].map(|k| t.block_queries[k] as f64 / t.block_secs[k]);
    let metrics = vec![
        p50(problems, "service.admit_wait_p50_ms", &t.admit_wait_ms),
        p50(problems, "service.deliver_p50_ms", &t.deliver_ms),
        p50(problems, "service.exec_p50_ms", &t.exec_ms),
        p50(problems, "service.scaffold_p50_ms", &replay.scaffold_ms),
        metric(
            "service.leases_per_query",
            ratio(
                a.leases_granted - b.leases_granted,
                a.durable_queries - b.durable_queries,
            ),
            "count",
        ),
        metric(
            "service.leases_reclaimed",
            (a.leases_reclaimed - b.leases_reclaimed) as f64,
            "count",
        ),
        metric(
            "service.plan_cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric(
            "service.maintenance_jobs_per_apply",
            ratio(
                a.maintenance_jobs - b.maintenance_jobs,
                rec.apply_ms.len() as u64,
            ),
            "count",
        ),
        metric(
            "service.maintenance_inline_fallbacks",
            (a.maintenance_inline_fallbacks - b.maintenance_inline_fallbacks) as f64,
            "count",
        ),
        apply_pct(problems, "apply_p50_ms", rec, 50),
        apply_pct(problems, "apply_p90_ms", rec, 90),
        metric("query.plan_build_us", stats::mean(&plan_us), "us"),
        metric(
            "core.engine_ms_per_query",
            stats::mean(&replay.engine_ms),
            "ms",
        ),
        metric("core.host_filter_ms", stats::mean(&replay.filter_ms), "ms"),
        metric(
            "core.edges_admitted_per_query",
            per_query(s.edges_admitted),
            "count",
        ),
        metric(
            "core.timeouts_per_query",
            per_query(s.timeouts_fired),
            "count",
        ),
        metric(
            "core.tasks_enqueued_per_query",
            per_query(s.tasks_enqueued),
            "count",
        ),
        metric(
            "core.work_units_per_query",
            per_query(s.warp_work_total),
            "count",
        ),
        metric(
            "gpu.intersections_per_query",
            per_query(s.warp.intersections),
            "count",
        ),
        metric(
            "gpu.merge_share",
            ratio(s.warp.merge_kernels, kernels),
            "ratio",
        ),
        metric(
            "gpu.bsearch_share",
            ratio(s.warp.bsearch_kernels, kernels),
            "ratio",
        ),
        metric(
            "gpu.gallop_share",
            ratio(s.warp.gallop_kernels, kernels),
            "ratio",
        ),
        metric(
            "gpu.bytes_touched_per_query",
            per_query(s.warp.bytes_touched),
            "bytes",
        ),
        metric("gpu.simd_share", ratio(simd, simd + scalar), "ratio"),
        metric(
            "gpu.queue_stall_yields_per_query",
            per_query(s.queue_stall_yields),
            "count",
        ),
        metric(
            "mem.page_faults_per_query",
            per_query(s.page_faults),
            "count",
        ),
        metric("mem.stack_peak_kb", t.stack_peak as f64 / 1024.0, "KB"),
        metric("mem.pages_spilled", rec.pages_spilled as f64, "count"),
        metric("mem.pages_leaked", rec.pages_leaked as f64, "count"),
        metric("graph.delta_apply_ms", stats::mean(&apply_ms), "ms"),
        metric(
            "graph.overlay_kb",
            m.live.overlay_bytes() as f64 / 1024.0,
            "KB",
        ),
        metric(
            "graph.overlay_read_ratio",
            overlay_read_ratio(&m.live),
            "ratio",
        ),
        metric(
            "graph.build_ms",
            stats::median(&quiet_setups(&f.setups).1),
            "ms",
        ),
        metric("trace.residual_share", residual_share(&t.trace), "ratio"),
        metric(
            "trace.overhead_share",
            1.0 - traced_qps / untraced_qps,
            "ratio",
        ),
        metric("host.calib_ms", calib_ms, "ms"),
    ];
    match t.trace.write_jsonl(path) {
        Ok(()) => eprintln!(
            "{} spans written to {}",
            t.trace.spans.len(),
            path.display()
        ),
        Err(e) => problems.push(format!("writing {}: {e}", path.display())),
    }
    metrics
}

/// Layer self times of the replayed queries.
#[derive(Default)]
struct Replay {
    plan_us: Vec<f64>,
    filter_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    scaffold_ms: Vec<f64>,
}

/// Replays each sampled query through the layers the service calls: plan
/// build, host filter (or seed admission), and the engine over the same
/// shard cuts, one single-warp run per shard as a shard worker runs it.
/// The service's scaffold is what is left of the query's execution time
/// once those layers are laid inside it end to end, with the engine time
/// divided across the shard workers that had shards and the plan build
/// weighted by the run's plan-cache miss share.
fn replay_queries(samples: &[&QuerySample], miss_share: f64, problems: &mut Vec<String>) -> Replay {
    let cfg = query_config();
    let shard_edges = DurableConfig::default().shard_edges;
    let mut out = Replay::default();
    for s in samples {
        let view = &*s.view;
        let plan_ns = median_ns(5, || QueryPlan::build_with(&s.pattern, cfg.plan));
        let plan = QueryPlan::build_with(&s.pattern, cfg.plan);
        let started = Instant::now();
        let edges: Vec<(u32, u32)> = match &s.seeds {
            None => host_filter_edges(view, &plan),
            Some(seeds) => seeds
                .iter()
                .copied()
                .filter(|&(u, v)| edge_admitted(view, &plan, u, v))
                .collect(),
        };
        let filter_ns = nanos(started.elapsed());
        let cuts = shard_cuts(view, &edges, shard_edges);
        let (mut engine_ns, mut matches) = (0, 0);
        for cut in &cuts {
            let shard = edges[cut.start as usize..cut.end as usize].to_vec();
            let mut shard_cfg = cfg.clone().with_warps(1);
            shard_cfg.queue_capacity = shard_cfg.queue_capacity.min((shard.len() * 4).max(1024));
            let started = Instant::now();
            match match_plan_on_edges(view, &plan, &shard_cfg, shard, None) {
                Ok(r) => matches += r.matches,
                Err(e) => problems.push(format!("replayed shard failed: {e}")),
            }
            engine_ns += nanos(started.elapsed());
        }
        if matches != s.expected {
            problems.push(format!(
                "replayed engine counted {matches} matches, the oracle {}",
                s.expected
            ));
        }
        let engine_wall = engine_ns / cuts.len().clamp(1, WARPS) as u64;
        let layers = trace::laid_out(
            0,
            &[(plan_ns as f64 * miss_share) as u64, filter_ns, engine_wall],
        );
        out.plan_us.push(plan_ns as f64 / 1e3);
        out.filter_ms.push(ns_ms(filter_ns));
        out.engine_ms.push(ns_ms(engine_ns));
        out.scaffold_ms
            .push(ns_ms(trace::self_time((0, s.exec_ns), &layers)));
    }
    out
}

/// Read cost through the overlay: a triangle count on the live view over
/// the same count on its `compact()` copy, medians of 5 runs each.
fn overlay_read_ratio(live: &DeltaCsr) -> f64 {
    let compact = live.compact();
    let cfg = query_config();
    let plan = QueryPlan::build(&Pattern::clique(3));
    let (mut through, mut flat) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        through.push(median_ns(1, || match_plan(live, &plan, &cfg)) as f64);
        flat.push(median_ns(1, || match_plan(&compact, &plan, &cfg)) as f64);
    }
    stats::median(&through) / stats::median(&flat)
}

/// Share of the client's operation time that no span under the operation
/// covers: the client's own work between its calls into the service.
fn residual_share(trace: &Trace) -> f64 {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); trace.spans.len()];
    for s in &trace.spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let (mut residual, mut total) = (0, 0);
    for (i, s) in trace.spans.iter().enumerate() {
        if s.parent.is_none() {
            residual += trace::self_time((s.start, s.end), &children[i]);
            total += s.end - s.start;
        }
    }
    ratio(residual, total)
}

/// A fixed single-thread loop (a serial triangle count on a fixed graph),
/// timed before and after the workload: it shows a drifting host in the
/// output instead of as a change.
fn calibrate() -> Vec<f64> {
    let g = barabasi_albert(2000, 8, 1);
    let plan = QueryPlan::build(&Pattern::clique(3));
    (0..CALIB_REPS)
        .map(|_| ns_ms(median_ns(1, || reference_count(&g, &plan))))
        .collect()
}

/// Median wall time of `reps` calls, in nanoseconds.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&times) as u64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
