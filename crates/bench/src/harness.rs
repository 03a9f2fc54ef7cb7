//! Minimal micro-benchmark harness (criterion stand-in).
//!
//! The workspace carries no external crates, so the micro benches time
//! themselves: per benchmark we run a short warm-up, then measure a
//! fixed number of samples of auto-calibrated batch size and report the
//! median, min and max ns/iter. This is deliberately simple — the paper
//! reproductions in the sibling bench targets do their own reporting —
//! but stable enough to compare kernels within one machine.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of measured samples per benchmark.
const SAMPLES: usize = 20;
/// Warm-up budget per benchmark.
const WARM_UP: Duration = Duration::from_millis(200);
/// Measurement budget across all samples.
const MEASURE: Duration = Duration::from_secs(1);

/// One benchmark run: drives the closure through warm-up, calibration
/// and sampling, then prints a criterion-like summary line.
pub fn bench<R, F: FnMut() -> R>(name: &str, f: F) {
    bench_median(name, f);
}

/// [`bench()`] that also returns the median ns/iter, for benches that feed
/// a machine-readable report (see [`JsonReport`]).
pub fn bench_median<R, F: FnMut() -> R>(name: &str, mut f: F) -> f64 {
    // Warm-up and calibration: find the iteration count per sample.
    let warm_start = Instant::now();
    let mut iters_per_probe = 1u64;
    let mut probe_ns;
    loop {
        let t = Instant::now();
        for _ in 0..iters_per_probe {
            black_box(f());
        }
        probe_ns = t.elapsed().as_nanos().max(1) as u64;
        if warm_start.elapsed() > WARM_UP || probe_ns > 1_000_000 {
            break;
        }
        iters_per_probe = iters_per_probe.saturating_mul(2);
    }
    let ns_per_iter = (probe_ns / iters_per_probe).max(1);
    let budget_ns = (MEASURE.as_nanos() as u64 / SAMPLES as u64).max(1);
    let iters_per_sample = (budget_ns / ns_per_iter).clamp(1, 1 << 24);

    let mut samples: Vec<f64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..iters_per_sample {
            black_box(f());
        }
        samples.push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = samples[SAMPLES / 2];
    let (min, max) = (samples[0], samples[SAMPLES - 1]);
    println!("{name:<44} {median:>12.1} ns/iter  [min {min:.1}, max {max:.1}]");
    median
}

/// Minimal machine-readable bench report: an ordered name → value map
/// written as a flat JSON object. Hand-rolled because the workspace
/// carries no external crates; names are restricted to characters that
/// need no JSON escaping (the writer asserts this).
#[derive(Debug, Default)]
pub struct JsonReport {
    entries: Vec<(String, f64)>,
}

impl JsonReport {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one metric. Last write wins is **not** implemented —
    /// duplicate names are a bug and panic.
    pub fn record(&mut self, name: &str, value: f64) {
        assert!(
            name.chars()
                .all(|c| c != '"' && c != '\\' && !c.is_control()),
            "metric name {name:?} would need JSON escaping"
        );
        assert!(
            self.entries.iter().all(|(n, _)| n != name),
            "duplicate metric {name:?}"
        );
        assert!(value.is_finite(), "metric {name:?} is not finite");
        self.entries.push((name.to_owned(), value));
    }

    /// Serializes to a pretty-printed JSON object, keys in insertion
    /// order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let sep = if i + 1 == self.entries.len() { "" } else { "," };
            // Integral values print without a fraction so counters stay
            // readable as counters.
            if value.fract() == 0.0 && value.abs() < 1e15 {
                out.push_str(&format!("  \"{name}\": {}{sep}\n", *value as i64));
            } else {
                out.push_str(&format!("  \"{name}\": {value:.1}{sep}\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        // Smoke: a trivial closure completes without panicking.
        bench("noop", || 1 + 1);
    }

    #[test]
    fn json_report_roundtrips_shapes() {
        let mut r = JsonReport::new();
        r.record("intersect/1:32/adaptive_ns", 123.456);
        r.record("leaf_fusion/k4/elements_emitted", 42.0);
        let json = r.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"intersect/1:32/adaptive_ns\": 123.5,"));
        assert!(json.contains("\"leaf_fusion/k4/elements_emitted\": 42\n"));
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn json_report_rejects_duplicates() {
        let mut r = JsonReport::new();
        r.record("x", 1.0);
        r.record("x", 2.0);
    }
}
