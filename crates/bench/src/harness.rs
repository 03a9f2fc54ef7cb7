//! The bench ledger: one timing loop and one report for the layer
//! benches (`cargo bench -p tdfs-bench --bench ledger`).
//!
//! The workspace carries no external crates, so the benches time
//! themselves: a short warm-up calibrates a batch size, then a fixed
//! number of batches are timed and the median ns/iter is kept. Every
//! figure a layer bench reports (a median, a ratio, a counter) becomes
//! one [`Row`] of a [`Ledger`]: layer, cell, metric, unit, value and an
//! optional bound. [`Ledger::finish`] writes every row to one JSON file,
//! then checks every bound.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// One ledger row. Its bound holds when `min <= value < max`: inclusive
/// below, strict above.
#[derive(Debug)]
pub struct Row {
    layer: &'static str,
    cell: String,
    metric: String,
    unit: &'static str,
    value: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Row {
    /// Bounds the row below (inclusive).
    pub fn at_least(&mut self, min: f64) {
        self.min = Some(min);
    }

    /// Bounds the row above (strict).
    pub fn below(&mut self, max: f64) {
        self.max = Some(max);
    }
}

/// The rows of one ledger run, in the order they were recorded, all
/// measured at one tier.
#[derive(Debug, Default)]
pub struct Ledger {
    smoke: bool,
    /// The layer every row recorded from now on is filed under.
    pub layer: &'static str,
    rows: Vec<Row>,
}

impl Ledger {
    /// An empty ledger. At the smoke tier every cell runs on shrunken
    /// timing budgets, so its timings prove nothing and no bound is
    /// checked; at the full tier every bound is.
    pub fn new(smoke: bool) -> Self {
        Ledger {
            smoke,
            ..Ledger::default()
        }
    }

    /// Records one row under the current layer and prints it. A
    /// duplicate (layer, cell, metric), a name that would need JSON
    /// escaping, or a non-finite value is a bug and panics.
    pub fn row(&mut self, cell: &str, metric: &str, unit: &'static str, value: f64) -> &mut Row {
        let layer = self.layer;
        let plain = |name: &str| !name.contains(|c: char| c == '"' || c == '\\' || c.is_control());
        let names = [layer, cell, metric, unit];
        assert!(
            names.into_iter().all(plain),
            "{names:?}: a name would need JSON escaping"
        );
        let same = |r: &Row| (r.layer, &*r.cell, &*r.metric) == (layer, cell, metric);
        assert!(
            !self.rows.iter().any(same),
            "duplicate row {layer}:{cell}/{metric}"
        );
        assert!(value.is_finite(), "row {cell}/{metric} is not finite");
        println!(
            "{layer:<8} {:<52} {value:>16.3} {unit}",
            format!("{cell}/{metric}")
        );
        self.rows.push(Row {
            layer,
            cell: cell.to_owned(),
            metric: metric.to_owned(),
            unit,
            value,
            min: None,
            max: None,
        });
        self.rows.last_mut().expect("just pushed")
    }

    /// Median ns per call of `f`: a warm-up that calibrates the calls per
    /// sample, then the timed samples. Records nothing.
    pub fn measure<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        let (warm_up, budget, samples) = if self.smoke {
            (Duration::from_millis(10), Duration::from_millis(50), 5)
        } else {
            (Duration::from_millis(200), Duration::from_secs(1), 20)
        };
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
            if warm_start.elapsed() > warm_up || probe_ns > 1_000_000 {
                break;
            }
            iters_per_probe = iters_per_probe.saturating_mul(2);
        }
        let ns_per_iter = (probe_ns / iters_per_probe).max(1);
        let budget_ns = (budget.as_nanos() as u64 / samples as u64).max(1);
        let iters_per_sample = (budget_ns / ns_per_iter).clamp(1, 1 << 24);

        let mut times: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            times.push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        times.sort_by(f64::total_cmp);
        times[samples / 2]
    }

    /// [`measure`](Self::measure)s `f` and records the median as an `ns`
    /// row; returns it.
    pub fn time<R>(&mut self, cell: &str, metric: &str, f: impl FnMut() -> R) -> f64 {
        let ns = self.measure(f);
        self.row(cell, metric, "ns", ns);
        ns
    }

    /// The ledger as one JSON object: a header with the host shape
    /// (`nproc`, whether the AVX2 lanes run) and the tier, then one
    /// object per row, every number in shortest round-trip form.
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let avx2 = tdfs_gpu::simd::available();
        let tier = if self.smoke { "smoke" } else { "full" };
        let mut out = format!(
            "{{\n  \"nproc\": {nproc},\n  \"avx2\": {avx2},\n  \"tier\": \"{tier}\",\n  \
             \"rows\": ["
        );
        for (i, r) in self.rows.iter().enumerate() {
            let (layer, cell, metric, unit, value) = (r.layer, &r.cell, &r.metric, r.unit, r.value);
            out += if i == 0 { "\n" } else { ",\n" };
            out += &format!(
                "    {{\"layer\": \"{layer}\", \"cell\": \"{cell}\", \"metric\": \"{metric}\", \
                 \"unit\": \"{unit}\", \"value\": {value}"
            );
            for (name, bound) in [("min", r.min), ("max", r.max)] {
                if let Some(b) = bound {
                    out += &format!(", \"{name}\": {b}");
                }
            }
            out += "}";
        }
        out + "\n  ]\n}\n"
    }

    /// Writes the ledger to `path`, then checks every bound (full tier
    /// only) and returns one line per violated row.
    pub fn finish(&self, path: &Path) -> std::io::Result<Vec<String>> {
        std::fs::write(path, self.to_json())?;
        let holds =
            |r: &&Row| r.min.is_none_or(|m| r.value >= m) && r.max.is_none_or(|m| r.value < m);
        let violated = self.rows.iter().filter(|r| !self.smoke && !holds(r));
        Ok(violated
            .map(|r| {
                let lo = r.min.map_or(String::new(), |m| format!(" >= {m}"));
                let hi = r.max.map_or(String::new(), |m| format!(" < {m}"));
                format!("{}/{} = {}, bound{lo}{hi}", r.cell, r.metric, r.value)
            })
            .collect())
    }
}

/// Geometric mean of `xs` (all positive).
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `value` of the row whose metric is `metric`, parsed back from
    /// the written JSON.
    fn parse_value(json: &str, metric: &str) -> f64 {
        let line = json
            .lines()
            .find(|l| l.contains(&format!("\"metric\": \"{metric}\"")))
            .expect("row present");
        let rest = &line[line.find("\"value\": ").expect("value") + 9..];
        let end = rest.find([',', '}']).expect("value ends");
        rest[..end].parse().expect("a JSON number")
    }

    #[test]
    fn measure_runs_at_both_tiers() {
        for smoke in [true, false] {
            let mut ledger = Ledger {
                smoke,
                layer: "kernel",
                ..Ledger::default()
            };
            assert!(ledger.time("noop", "add_ns", || black_box(1) + 1) > 0.0);
        }
    }

    #[test]
    fn values_round_trip_in_shortest_form() {
        let mut ledger = Ledger {
            layer: "service",
            ..Ledger::default()
        };
        ledger.row("overload/k4", "overhead_ratio", "ratio", 1.0449);
        ledger.row("leaf_fusion/k4", "fused_elements_emitted", "count", 42.0);
        let json = ledger.to_json();
        assert_eq!(parse_value(&json, "overhead_ratio"), 1.0449);
        assert!(
            json.contains("\"value\": 42}"),
            "integers print as integers"
        );
        assert!(json.contains("\"tier\": \"full\""));
        assert!(json.contains("\"nproc\": "));
    }

    #[test]
    fn every_violated_row_is_named_after_the_file_is_written() {
        let dir = tdfs_testkit::TempDir::new("tdfs-bench-ledger").unwrap();
        let path = dir.path().join("BENCH.json");
        let mut ledger = Ledger {
            layer: "dynamic",
            ..Ledger::default()
        };
        ledger.row("delta/1pct", "speedup", "x", 4.0).at_least(5.0);
        ledger.layer = "cluster";
        ledger
            .row("cluster/k4", "overhead_ratio", "ratio", 1.66)
            .below(1.25);
        ledger
            .row("cluster", "overhead_geomean", "ratio", 1.0)
            .below(1.1);
        ledger.layer = "storage";
        ledger
            .row("storage/cold_load", "speedup", "x", 10.0)
            .at_least(10.0);
        let violated = ledger.finish(&path).unwrap();
        assert_eq!(violated.len(), 2, "{violated:?}");
        assert!(violated[0].starts_with("delta/1pct/speedup = 4,"));
        assert!(violated[1].starts_with("cluster/k4/overhead_ratio = 1.66,"));
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, ledger.to_json());
        assert!(written.contains("\"layer\": \"cluster\", \"cell\": \"cluster/k4\""));
        assert!(written.contains("\"max\": 1.25}"));
    }

    #[test]
    fn smoke_tier_checks_no_bound() {
        let dir = tdfs_testkit::TempDir::new("tdfs-bench-ledger").unwrap();
        let path = dir.path().join("BENCH.json");
        let mut ledger = Ledger {
            smoke: true,
            layer: "cluster",
            ..Ledger::default()
        };
        ledger
            .row("cluster/k4", "overhead_ratio", "ratio", 9.0)
            .below(1.25);
        assert!(ledger.finish(&path).unwrap().is_empty());
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"tier\": \"smoke\""));
    }

    #[test]
    #[should_panic(expected = "duplicate row")]
    fn duplicate_rows_panic() {
        let mut ledger = Ledger {
            layer: "kernel",
            ..Ledger::default()
        };
        ledger.row("x", "y_ns", "ns", 1.0);
        ledger.row("x", "y_ns", "ns", 2.0);
    }

    #[test]
    fn same_cell_and_metric_in_two_layers_are_two_rows() {
        let mut ledger = Ledger::default();
        for layer in ["kernel", "engine"] {
            ledger.layer = layer;
            ledger.row("x", "y_ns", "ns", 1.0);
        }
        assert_eq!(ledger.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "a name would need JSON escaping")]
    fn names_needing_escapes_panic() {
        Ledger::default().row("a\"b", "y_ns", "ns", 1.0);
    }

    #[test]
    #[should_panic(expected = "is not finite")]
    fn non_finite_values_panic() {
        Ledger::default().row("x", "y", "ratio", f64::NAN);
    }
}
