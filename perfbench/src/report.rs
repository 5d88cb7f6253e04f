//! Metric names, exact percentiles, the self-describing header and the
//! one-line JSON result.

use crate::RunConfig;
use std::fmt;

/// The end-to-end metrics every untraced run prints, with their units
/// (the `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
];

/// Kernel engines of the offline workload, as `<crate>.<engine>` metric
/// prefixes, in the order a round first runs them.
pub const ENGINES: [&str; 5] = [
    "mmt-baselines.delta_presplit",
    "mmt-baselines.rho_stepping",
    "mmt-baselines.delta_star",
    "mmt-thorup.batch",
    "mmt-baselines.dijkstra",
];

/// Per-engine metric suffixes. `dijkstra` takes no counters, so it has
/// no `phases`, `relaxations` or `arcs_scanned` (see [`per_layer`]).
pub const ENGINE_METRICS: [(&str, &str); 6] = [
    ("solve_ms", "ms"),
    ("phases", "count"),
    ("relaxations", "count"),
    ("arcs_scanned", "count"),
    ("speedup_2t", "ratio"),
    ("allocs", "count"),
];

const LAYER_METRICS: [(&str, &str); 21] = [
    ("mmt-graph.csr_build_s", "s"),
    ("mmt-ch.build_s", "s"),
    ("mmt-thorup.registry.register_s", "s"),
    ("mmt-thorup.service.start_s", "s"),
    ("mmt-graph.split_build_s", "s"),
    ("mmt-thorup.registry.resident_mb", "MB"),
    ("mmt-thorup.service.submit_us.p50", "us"),
    ("mmt-thorup.service.submit_us.p99", "us"),
    ("mmt-thorup.service.queue_wait_ms.p50", "ms"),
    ("mmt-thorup.service.queue_wait_ms.p99", "ms"),
    ("mmt-thorup.service.overhead_us.p50", "us"),
    ("mmt-thorup.service.solve_share", "ratio"),
    ("mmt-thorup.service.coalesced_share", "ratio"),
    ("mmt-thorup.service.batch_size.mean", "count"),
    ("mmt-thorup.service.coalesce_hold_ms.p50", "ms"),
    ("mmt-thorup.service.solve_ms.p50", "ms"),
    ("mmt-thorup.service.solve_ms.p99", "ms"),
    ("mmt-thorup.service.arcs_per_query", "count"),
    ("mmt-thorup.batch.par_loops", "count"),
    ("mmt-platform.par_call_us", "us"),
    ("perfbench.trace_throughput_ratio", "ratio"),
];

/// Whether `engine` reports event counters (everything but Dijkstra,
/// whose public entry point takes no `EventCounters`).
pub fn engine_has_counters(engine: &str) -> bool {
    engine != "mmt-baselines.dijkstra"
}

/// Every per-layer metric a traced run prints, with its unit (the
/// `per_layer` list of `BENCHMARK.json`). A layer a workload does not
/// exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for engine in ENGINES {
        for (suffix, unit) in ENGINE_METRICS {
            let counted = matches!(suffix, "phases" | "relaxations" | "arcs_scanned");
            if counted && !engine_has_counters(engine) {
                continue;
            }
            out.push((format!("{engine}.{suffix}"), unit));
        }
    }
    out
}

/// Why a run produced no result.
#[derive(Debug)]
pub struct RunError(pub String);

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<String> for RunError {
    fn from(s: String) -> Self {
        RunError(s)
    }
}

/// Samples in ascending order, for exact (nearest-rank) percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values`.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self(values)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The nearest-rank `p`-quantile (0 when empty).
    pub fn quantile(&self, p: f64) -> f64 {
        match self.0.len() {
            0 => 0.0,
            n => self.0[rank(n, p)],
        }
    }

    /// The median, the mean of the middle two for an even count (0 when
    /// empty).
    pub fn median(&self) -> f64 {
        match self.0.len() {
            0 => 0.0,
            n if n % 2 == 0 => (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0,
            n => self.0[n / 2],
        }
    }

    /// Samples strictly beyond the nearest-rank `p`-quantile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        match self.0.len() {
            0 => 0,
            n => n - 1 - rank(n, p),
        }
    }
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// A percentile needs at least this many samples beyond it to be printed.
pub const MIN_BEYOND: usize = 10;

/// One run's result: counts, metrics and the header that describes them.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Answers checked against the oracle (requests, or offline solves).
    pub attempted: u64,
    /// Typed errors plus oracle mismatches among them.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    header: Vec<(String, String)>,
    percentiles: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    /// An outcome with the host part of the header filled in.
    pub fn new(cfg: &RunConfig) -> Self {
        let mut o = Self::default();
        o.text("workload", cfg.workload.name());
        o.num("seed", cfg.seed as f64);
        o.num("window_s", cfg.window.as_secs_f64());
        o.num("trace", f64::from(u8::from(cfg.trace)));
        o.num("nproc", mmt_platform::available_threads() as f64);
        for (level, bytes) in cache_sizes() {
            o.num(&format!("{level}_bytes"), bytes as f64);
        }
        o.text(
            "mmt_pin",
            &std::env::var("MMT_PIN").unwrap_or_else(|_| "unset".into()),
        );
        o.text("pin_policy", mmt_platform::PinPolicy::from_env().label());
        // No cargo feature of the program is enabled; the traced binary
        // installs the counting allocator.
        o.text("features", "none");
        o.text("allocator", if cfg.trace { "counting" } else { "system" });
        o
    }

    /// Adds a numeric header field.
    pub fn num(&mut self, key: &str, value: f64) {
        self.header.push((key.to_string(), json_num(value)));
    }

    /// Adds a text header field.
    pub fn text(&mut self, key: &str, value: &str) {
        self.header
            .push((key.to_string(), format!("\"{}\"", escape(value))));
    }

    /// Adds a human-readable note printed above the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records the `p`-quantile of `samples` as metric `name`, refusing it
    /// when fewer than [`MIN_BEYOND`] samples lie beyond it; the sample
    /// count goes into the header.
    pub fn percentile(
        &mut self,
        name: &str,
        samples: &Samples,
        p: f64,
        unit: &'static str,
    ) -> Result<(), RunError> {
        let beyond = samples.beyond(p);
        if beyond < MIN_BEYOND {
            return Err(RunError(format!(
                "{name}: {} samples leave {beyond} beyond the {}th percentile, fewer than {MIN_BEYOND}; \
                 measure longer",
                samples.len(),
                p * 100.0
            )));
        }
        self.percentiles
            .push(format!("{name}: n={} beyond={beyond}", samples.len()));
        self.metric(name, samples.quantile(p), unit);
        Ok(())
    }

    /// Records `p50_ms` and `p95_ms` of `samples` (milliseconds). The
    /// p99 goes into a note where at least [`MIN_BEYOND`] samples lie
    /// beyond it; it is too noisy on a shared 2-core host to gate on.
    pub fn latency(&mut self, samples: &Samples) -> Result<(), RunError> {
        self.percentile("p50_ms", samples, 0.5, "ms")?;
        self.percentile("p95_ms", samples, 0.95, "ms")?;
        let beyond = samples.beyond(0.99);
        if beyond >= MIN_BEYOND {
            self.note(format!(
                "p99_ms = {} (n={}, {beyond} beyond; reported, not gated)",
                samples.quantile(0.99),
                samples.len()
            ));
        }
        Ok(())
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Renders the header, notes and metric lines, then the one-line JSON
    /// result. Fails when a metric is missing,
    /// duplicated, unexpected or not finite.
    pub fn render(&self, cfg: &RunConfig) -> Result<String, RunError> {
        let expected: Vec<(String, &str)> = if cfg.trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        if self.metrics.len() != expected.len() {
            let names: Vec<_> = self.metrics.iter().map(|m| m.0.as_str()).collect();
            return Err(RunError(format!(
                "{} metrics measured, {} expected: {names:?}",
                self.metrics.len(),
                expected.len()
            )));
        }
        if self.attempted == 0 {
            return Err(RunError("no answer was attempted".into()));
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        out.push_str(&format!("# header {{{}}}\n", header.join(", ")));
        out.push_str(&format!(
            "# percentile samples: {}\n",
            if self.percentiles.is_empty() {
                "none".to_string()
            } else {
                self.percentiles.join("; ")
            }
        ));
        out.push_str(&format!(
            "# attempted={} failed={} fail_ratio={}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted as f64
        ));
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        let mut fields = Vec::new();
        for (name, unit) in &expected {
            let value = self
                .value(name)
                .ok_or_else(|| RunError(format!("metric {name} was not measured")))?;
            if !value.is_finite() {
                return Err(RunError(format!("metric {name} is not finite: {value}")));
            }
            out.push_str(&format!("# {name:<48} {value:>16.6} {unit}\n"));
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(name),
                json_num(value),
                escape(unit)
            ));
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ));
        Ok(out)
    }
}

/// A JSON number with every digit of the `f64` (integers print plain).
fn json_num(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Data and unified cache sizes of CPU 0 by level (`l1d`, `l2`, `l3`),
/// from sysfs; empty where the platform does not expose them.
fn cache_sizes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k * 1024),
            None => size.parse::<u64>().ok(),
        };
        if let Some(bytes) = bytes {
            let level = level.trim();
            let name = if level == "1" {
                "l1d".to_string()
            } else {
                format!("l{level}")
            };
            out.push((name, bytes));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_beyond_counts() {
        let s = Samples::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.median(), 500.5);
        assert_eq!(s.quantile(0.5), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.beyond(0.99), 10);
        let small = Samples::new((1..=999).map(f64::from).collect());
        assert_eq!(small.beyond(0.99), 9);
    }

    #[test]
    fn a_thin_tail_is_refused_not_printed() {
        let cfg = RunConfig::from_args(["--workload", "offline-rmat"].map(String::from)).unwrap();
        let mut o = Outcome::new(&cfg);
        let thin = Samples::new((0..500).map(f64::from).collect());
        assert!(o.percentile("p99", &thin, 0.99, "ms").is_err());
        assert!(o.percentile("p50", &thin, 0.5, "ms").is_ok());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let count = |key: &str| text.matches(&format!("\"{key}\"")).count();
        for (name, unit) in END_TO_END {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        for (name, unit) in per_layer() {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        assert_eq!(count("bound"), END_TO_END.len());
        assert_eq!(count("name"), END_TO_END.len() + per_layer().len() + 3);
    }
}
