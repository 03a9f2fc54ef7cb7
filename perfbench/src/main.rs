//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload motif_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One closed-loop client drives one workload through the public
//! `tdfs_service::Service` API and checks every answer against an
//! independent oracle. The last line of standard output is one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer
//! breakdown with `--trace 1`. Diagnostics go to standard error. See
//! README.md for the workloads and what each metric should move.

mod ops;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::{Report, Workload};

const USAGE: &str = "usage: perfbench --workload motif_mix|ego_lookup|standing_churn \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {value:?} is not in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| "--workload is required".to_owned())?,
        seed,
        seconds,
        trace,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} | seed {} | {} s | trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    eprintln!(
        "host: nproc {} | default features | simd available {} | {} warps per query | {} service workers",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tdfs_gpu::simd::available(),
        workloads::WARPS,
        workloads::SERVICE_WORKERS,
    );
    let mut report = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report
                .problems
                .push(format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
    }
    for p in &report.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    println!("{}", result_line(&report));
    if report.correct && report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
