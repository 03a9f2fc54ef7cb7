//! # tdfs-bench
//!
//! Experiment harness reproducing every table and figure of the T-DFS
//! paper's evaluation (§IV). Each bench target (`cargo bench -p
//! tdfs-bench --bench <name>`) regenerates one table/figure, printing
//! the same rows/series the paper reports plus a machine-readable CSV
//! block. The layers the paper does not measure (lane kernels, fused
//! leaf, batch-dynamic maintenance, mmap tier, governor, cluster) are
//! measured by one target, `cargo bench -p tdfs-bench --bench ledger`,
//! which records every figure in one `BENCH.json` through the
//! [`harness::Ledger`] (the workspace carries no external crates).
//!
//! Environment knobs:
//! - `TDFS_SCALE` — dataset scale factor (see `tdfs_graph::datasets`);
//! - `TDFS_BENCH_WARPS` — warps per device (default: available cores);
//! - `TDFS_BENCH_SMOKE` — set to run a reduced pattern/dataset subset,
//!   and the ledger's smoke tier ([`harness::Ledger::new`]).

pub mod harness;

use std::time::Duration;

use tdfs_core::{match_plan, EngineError, MatcherConfig, RunResult};
use tdfs_graph::{CsrGraph, Dataset, DatasetId};
use tdfs_query::plan::QueryPlan;
use tdfs_query::PatternId;

/// Warps per device for benchmarks.
pub fn bench_warps() -> usize {
    std::env::var("TDFS_BENCH_WARPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(tdfs_core::config::default_warps)
}

/// Whether the reduced smoke subset was requested.
pub fn smoke() -> bool {
    std::env::var("TDFS_BENCH_SMOKE").is_ok()
}

/// Per-cell time budget (seconds) — the analogue of the paper's 1000 s
/// cap (default 8 s); cells that exceed it are reported as "T" exactly as
/// in Fig. 11.
/// Override with `TDFS_TIME_LIMIT_SECS`.
pub fn cell_time_limit() -> Duration {
    let secs = std::env::var("TDFS_TIME_LIMIT_SECS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(8.0);
    Duration::from_secs_f64(secs.max(0.1))
}

/// The unlabeled pattern set for a run (P1–P11, reduced under smoke).
pub fn unlabeled_patterns() -> Vec<PatternId> {
    if smoke() {
        vec![PatternId(1), PatternId(2), PatternId(8)]
    } else {
        PatternId::unlabeled().collect()
    }
}

/// The full pattern set P1–P22 (reduced under smoke).
pub fn all_patterns() -> Vec<PatternId> {
    if smoke() {
        vec![PatternId(1), PatternId(8), PatternId(12), PatternId(19)]
    } else {
        PatternId::all().collect()
    }
}

/// The moderate datasets (reduced under smoke).
pub fn moderate_datasets() -> Vec<DatasetId> {
    if smoke() {
        vec![DatasetId::AmazonS, DatasetId::YoutubeS]
    } else {
        DatasetId::MODERATE.to_vec()
    }
}

/// The big labeled datasets (reduced under smoke).
pub fn big_datasets() -> Vec<DatasetId> {
    if smoke() {
        vec![DatasetId::DatagenS]
    } else {
        DatasetId::BIG.to_vec()
    }
}

/// Loads a dataset through the process-wide cache.
pub fn load(id: DatasetId) -> &'static Dataset {
    Dataset::load(id)
}

/// Times one (graph, pattern, config) run under the per-cell time
/// budget; the plan is compiled with the config's own options so each
/// system gets its documented behaviour.
pub fn run_one(
    g: &CsrGraph,
    pattern: PatternId,
    cfg: &MatcherConfig,
) -> Result<RunResult, EngineError> {
    let plan = QueryPlan::build_with(&pattern.pattern(), cfg.plan);
    let cfg = cfg.clone().with_time_limit(Some(cell_time_limit()));
    match_plan(g, &plan, &cfg)
}

/// One measured cell of a result table.
#[derive(Debug, Clone)]
pub struct Cell {
    /// System label ("T-DFS", "STMatch", …).
    pub system: String,
    /// Dataset name.
    pub dataset: String,
    /// Pattern name.
    pub pattern: String,
    /// Wall time in milliseconds; `None` = failed (paper's ERR/T).
    pub millis: Option<f64>,
    /// Match count (0 when failed).
    pub matches: u64,
    /// Virtual makespan in Mega-work-units (simulated device time); the
    /// load-imbalance metric on hosts with fewer cores than warps.
    pub makespan_mu: Option<f64>,
    /// Failure label when `millis` is `None`: "T" (time budget, the
    /// paper's > 1000 s marker) or "ERR" (stack/OOM failure).
    pub fail: &'static str,
}

impl Cell {
    /// Formats the time like the paper's charts ("T"/"ERR" for failures).
    pub fn time_str(&self) -> String {
        match self.millis {
            Some(ms) => format!("{ms:.1}"),
            None => self.fail.to_owned(),
        }
    }

    /// Formats the makespan column.
    pub fn makespan_str(&self) -> String {
        match self.makespan_mu {
            Some(mu) => format!("{mu:.1}"),
            None => self.fail.to_owned(),
        }
    }
}

/// Collects cells and renders both a human table and a CSV block.
#[derive(Default)]
pub struct Report {
    title: String,
    cells: Vec<Cell>,
}

impl Report {
    /// Creates a report titled after the paper artifact it reproduces.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            cells: Vec::new(),
        }
    }

    /// Records one measurement.
    pub fn push(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// Records a run result under system/dataset/pattern labels.
    pub fn record(
        &mut self,
        system: &str,
        dataset: &str,
        pattern: &str,
        result: &Result<RunResult, EngineError>,
    ) {
        let (millis, matches, makespan, fail) = match result {
            Ok(r) => (
                Some(r.millis()),
                r.matches,
                Some(r.stats.warp_makespan as f64 / 1e6),
                "",
            ),
            Err(EngineError::TimeLimit) => (None, 0, None, "T"),
            Err(EngineError::Stack(_))
            | Err(EngineError::WorkerPanicked)
            | Err(EngineError::Wedged)
            | Err(EngineError::Shed) => (None, 0, None, "ERR"),
        };
        self.push(Cell {
            system: system.to_owned(),
            dataset: dataset.to_owned(),
            pattern: pattern.to_owned(),
            millis,
            matches,
            makespan_mu: makespan,
            fail,
        });
    }

    /// Prints the grouped table plus CSV.
    pub fn print(&self) {
        println!("==== {} ====", self.title);
        let mut datasets: Vec<&str> = self.cells.iter().map(|c| c.dataset.as_str()).collect();
        datasets.dedup();
        let mut systems: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !systems.contains(&c.system.as_str()) {
                systems.push(&c.system);
            }
        }
        for d in datasets {
            println!("\n-- {d} (time in ms; ERR = failed) --");
            let mut patterns: Vec<&str> = Vec::new();
            for c in self.cells.iter().filter(|c| c.dataset == d) {
                if !patterns.contains(&c.pattern.as_str()) {
                    patterns.push(&c.pattern);
                }
            }
            print!("{:<10}", "pattern");
            for s in &systems {
                print!("{s:>14}");
            }
            println!();
            for p in patterns {
                print!("{p:<10}");
                for s in &systems {
                    let cell = self
                        .cells
                        .iter()
                        .find(|c| c.dataset == d && c.pattern == p && &c.system == s);
                    match cell {
                        Some(c) => print!("{:>14}", c.time_str()),
                        None => print!("{:>14}", "-"),
                    }
                }
                println!();
            }
            println!("   (virtual makespan, M work-units)");
            let mut patterns2: Vec<&str> = Vec::new();
            for c in self.cells.iter().filter(|c| c.dataset == d) {
                if !patterns2.contains(&c.pattern.as_str()) {
                    patterns2.push(&c.pattern);
                }
            }
            for p in patterns2 {
                print!("{p:<10}");
                for s in &systems {
                    let cell = self
                        .cells
                        .iter()
                        .find(|c| c.dataset == d && c.pattern == p && &c.system == s);
                    match cell {
                        Some(c) => print!("{:>14}", c.makespan_str()),
                        None => print!("{:>14}", "-"),
                    }
                }
                println!();
            }
        }
        println!("\n-- csv --");
        println!("system,dataset,pattern,millis,matches,makespan_mu");
        for c in &self.cells {
            println!(
                "{},{},{},{},{},{}",
                c.system,
                c.dataset,
                c.pattern,
                c.millis
                    .map_or_else(|| c.fail.to_owned(), |m| format!("{m:.3}")),
                c.matches,
                c.makespan_mu
                    .map_or_else(|| c.fail.to_owned(), |m| format!("{m:.3}")),
            );
        }
        println!();
    }

    /// Access to the recorded cells (used by bench self-checks).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }
}

/// Geometric-mean speedup of `base` over `other` across matching
/// (dataset, pattern) cells — the "average speedup" numbers of §IV-B.
pub fn geomean_speedup(report: &Report, base: &str, other: &str) -> Option<f64> {
    // Capped/failed cells are scored at the time budget, so the result is
    // a *lower bound* on the true speedup (the standard treatment for
    // timed-out baselines).
    let cap_ms = cell_time_limit().as_secs_f64() * 1e3;
    let mut logs = Vec::new();
    for c in report.cells().iter().filter(|c| c.system == base) {
        let o = report
            .cells()
            .iter()
            .find(|x| x.system == other && x.dataset == c.dataset && x.pattern == c.pattern)?;
        let a = c.millis.unwrap_or(cap_ms);
        let b = o.millis.unwrap_or(cap_ms);
        if a > 0.0 && b > 0.0 {
            logs.push((b / a).ln());
        }
    }
    if logs.is_empty() {
        None
    } else {
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

/// Runs the τ-ablation sweep of Tables II/III on one dataset:
/// `τ ∈ {1, 10, 100, 1000, ∞} ms` across the unlabeled patterns.
pub fn tau_sweep(ds: DatasetId, title: &str) {
    let warps = bench_warps();
    let taus: Vec<Option<Duration>> = vec![
        Some(Duration::from_millis(1)),
        Some(Duration::from_millis(10)),
        Some(Duration::from_millis(100)),
        Some(Duration::from_millis(1000)),
        None,
    ];

    let d = load(ds);
    eprintln!("[tau] {}", d.stats.table_row(ds.name()));
    let mut report = Report::new(title);
    for pid in unlabeled_patterns() {
        for tau in &taus {
            let cfg = MatcherConfig::tdfs().with_warps(warps).with_tau(*tau);
            let r = run_one(&d.graph, pid, &cfg);
            report.record(
                &format!("tau={}", tau_label(*tau)),
                ds.name(),
                &pid.name(),
                &r,
            );
        }
    }
    report.print();
}

/// Runs the paged-vs-array stack study of Tables V–VIII on one dataset:
/// patterns P1–P7, reporting peak stack memory (MB) and run time, plus
/// the STMatch-like row of the time tables.
pub fn memory_tables(ds: DatasetId, caption: &str) {
    let warps = bench_warps();
    let d = load(ds);
    eprintln!("[memory] {}", d.stats.table_row(ds.name()));
    let patterns: Vec<PatternId> = if smoke() {
        vec![PatternId(1), PatternId(3)]
    } else {
        (1..=7).map(PatternId).collect()
    };
    let systems: Vec<(&str, MatcherConfig)> = vec![
        ("Page-based", MatcherConfig::tdfs().with_warps(warps)),
        ("Array-based", MatcherConfig::tdfs_array().with_warps(warps)),
        ("STMatch", MatcherConfig::stmatch_like().with_warps(warps)),
    ];

    println!("==== {caption}: peak stack memory (MB) and time (ms) ====");
    println!(
        "{:<12} {:>8} {:>14} {:>12} {:>14}",
        "method", "pattern", "stack MB", "time ms", "matches"
    );
    let mut rows: Vec<(String, String, f64, f64)> = Vec::new();
    for (name, cfg) in &systems {
        for pid in &patterns {
            match run_one(&d.graph, *pid, cfg) {
                Ok(r) => {
                    let mb = r.stats.stack_bytes_peak as f64 / (1 << 20) as f64;
                    println!(
                        "{:<12} {:>8} {:>14.3} {:>12.1} {:>14}",
                        name,
                        pid.name(),
                        mb,
                        r.millis(),
                        r.matches
                    );
                    rows.push((name.to_string(), pid.name(), mb, r.millis()));
                }
                Err(e) => {
                    let label = if matches!(e, EngineError::TimeLimit) {
                        "T"
                    } else {
                        "ERR"
                    };
                    println!("{:<12} {:>8} {:>14} {:>12}", name, pid.name(), label, label);
                }
            }
        }
    }
    // Summary: average memory saving of paged vs array (paper: 86–93 %).
    let avg = |sys: &str| -> Option<f64> {
        let v: Vec<f64> = rows.iter().filter(|r| r.0 == sys).map(|r| r.2).collect();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    };
    if let (Some(p), Some(a)) = (avg("Page-based"), avg("Array-based")) {
        if a > 0.0 {
            println!(
                "average stack-memory saving of page-based vs array-based: {:.0}%",
                (1.0 - p / a) * 100.0
            );
        }
    }
    println!();
}

/// Formats a duration for τ-sweep labels ("1", "10", …, "inf").
pub fn tau_label(tau: Option<Duration>) -> String {
    match tau {
        Some(t) => format!("{}", t.as_millis()),
        None => "inf".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_records_and_formats() {
        let mut r = Report::new("test");
        r.push(Cell {
            system: "A".into(),
            dataset: "d".into(),
            pattern: "P1".into(),
            millis: Some(1.0),
            matches: 5,
            makespan_mu: Some(2.0),
            fail: "",
        });
        r.push(Cell {
            system: "B".into(),
            dataset: "d".into(),
            pattern: "P1".into(),
            millis: Some(4.0),
            matches: 5,
            makespan_mu: Some(8.0),
            fail: "",
        });
        assert_eq!(r.cells().len(), 2);
        assert_eq!(r.cells()[0].time_str(), "1.0");
        let s = geomean_speedup(&r, "A", "B").unwrap();
        assert!((s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn err_cells_format() {
        let c = Cell {
            system: "E".into(),
            dataset: "d".into(),
            pattern: "P2".into(),
            millis: None,
            matches: 0,
            makespan_mu: None,
            fail: "ERR",
        };
        assert_eq!(c.time_str(), "ERR");
        assert_eq!(c.makespan_str(), "ERR");
    }

    #[test]
    fn tau_labels() {
        assert_eq!(tau_label(Some(Duration::from_millis(10))), "10");
        assert_eq!(tau_label(None), "inf");
    }

    #[test]
    fn pattern_sets_nonempty() {
        assert!(!unlabeled_patterns().is_empty());
        assert!(!all_patterns().is_empty());
        assert!(!moderate_datasets().is_empty());
        assert!(!big_datasets().is_empty());
    }
}
