//! Run bookkeeping and the metrics the benchmark prints: the job log a
//! workload fills, order statistics, peak memory, and the assembly of
//! the end-to-end and per-layer metric sets.

use std::collections::BTreeMap;

use halo_ckks::MetricsSnapshot;
use halo_core::PipelineHooks;

use crate::trace::{totals, Span};

/// Every `halo_ckks::Backend` entry point the timing wrapper records.
pub const BACKEND_OPS: [&str; 14] = [
    "encrypt",
    "decrypt",
    "add",
    "sub",
    "add_plain",
    "sub_plain",
    "mult",
    "mult_plain",
    "negate",
    "rotate",
    "rotate_batch",
    "rescale",
    "modswitch",
    "bootstrap",
];

/// The eight `ckks::metrics` counters, in `MetricsSnapshot` order.
pub const KERNEL_COUNTERS: [&str; 8] = [
    "poly_allocs",
    "pool_reuses",
    "lazy_reductions_skipped",
    "ntt_forward_rows",
    "ntt_inverse_rows",
    "digit_decomposes",
    "digit_ntt_rows",
    "keyswitch_calls",
];

fn kernel_values(m: &MetricsSnapshot) -> [u64; 8] {
    [
        m.poly_allocs,
        m.pool_reuses,
        m.lazy_reductions_skipped,
        m.ntt_forward_rows,
        m.ntt_inverse_rows,
        m.digit_decomposes,
        m.digit_ntt_rows,
        m.keyswitch_calls,
    ]
}

/// Outcome of every job of a timed phase.
#[derive(Debug, Default)]
pub struct JobLog {
    /// Wall time of each job that completed and passed its check.
    pub secs: Vec<f64>,
    pub attempted: u64,
    /// Jobs that returned an error or missed their check.
    pub failed: u64,
    /// The subset of `failed` whose output missed its check.
    pub wrong: u64,
    /// Sums over the passed jobs.
    pub bootstraps: f64,
    pub modeled_s: f64,
    pub exec_ops: f64,
    pub snapshot_writes: f64,
    pub snapshot_bytes: f64,
}

impl JobLog {
    pub fn passed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Records a job that returned an error.
    pub fn error(&mut self, what: &str, err: &dyn std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("job failed: {what}: {err}");
    }

    /// Records a job whose output missed its check.
    pub fn wrong_output(&mut self, what: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        eprintln!("job output wrong: {what}: {why}");
    }

    /// Records a passed job.
    pub fn pass(&mut self, secs: f64, bootstraps: f64, modeled_s: f64, exec_ops: f64) {
        self.attempted += 1;
        self.secs.push(secs);
        self.bootstraps += bootstraps;
        self.modeled_s += modeled_s;
        self.exec_ops += exec_ops;
    }
}

/// Compiler and tuner work, summed over `programs` programs (set-up
/// compiles) or jobs (`compile-tune`), and printed as per-program means.
#[derive(Debug, Default)]
pub struct CompileTally {
    pub programs: usize,
    pub halo_s: f64,
    pub dacapo_s: f64,
    pub static_bootstraps: f64,
    /// Static op count after each pass, summed over every compile made.
    pub ops_after: BTreeMap<&'static str, f64>,
    pub autotune_s: f64,
    pub evaluated: f64,
    pub pruned: f64,
    pub space: f64,
}

impl CompileTally {
    /// Adds one compile's pass record.
    pub fn passes(&mut self, hooks: &PipelineHooks<'_>) {
        for r in &hooks.trace {
            *self.ops_after.entry(r.pass.name()).or_default() += r.ops_after as f64;
        }
    }

    pub fn layers(&self) -> Vec<(String, f64)> {
        let n = self.programs.max(1) as f64;
        let mut v = vec![
            ("compile.halo_s".to_string(), self.halo_s / n),
            ("compile.dacapo_s".to_string(), self.dacapo_s / n),
            (
                "compile.static_bootstraps".to_string(),
                self.static_bootstraps / n,
            ),
            ("autotune.s".to_string(), self.autotune_s / n),
            ("autotune.evaluated".to_string(), self.evaluated / n),
            ("autotune.pruned".to_string(), self.pruned / n),
            ("autotune.space".to_string(), self.space / n),
        ];
        for (pass, ops) in &self.ops_after {
            v.push((format!("compile.ops_after.{pass}"), ops / n));
        }
        v
    }
}

/// Where set-up time went (seconds).
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub trace_s: f64,
    pub compile_s: f64,
    pub warmup_s: f64,
}

/// What one timed phase hands back.
pub struct Phase {
    pub log: JobLog,
    /// Timed window, in recorder nanoseconds (0..0 when untraced).
    pub from_ns: u64,
    pub to_ns: u64,
    pub elapsed_s: f64,
    /// Kernel-counter delta over the timed phase.
    pub kernel: MetricsSnapshot,
    /// Ring degree of the toy backend (0 when the workload runs none).
    pub ring_degree: usize,
    /// Workload-specific per-layer values (compile, autotune, serve).
    pub layers: Vec<(String, f64)>,
    /// Summed wall time of packed batch executions, for workloads whose
    /// executor runs inside the library (serving); `None` means the
    /// `exec.run` spans cover the executor.
    pub exec_wall_s: Option<f64>,
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile, `p` in 0–100.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail: the highest percentile of the ladder with at least ten
/// samples beyond it. Below forty samples there is no such tail and the
/// slowest job is reported instead (returned percentile 100).
pub fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n >= 40 {
        for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            if n - rank >= 10 {
                return (p, percentile(v, p));
            }
        }
    }
    (100.0, v.iter().copied().fold(0.0, f64::max))
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU ticks: (steal, total) from the first line of `/proc/stat`.
/// On a virtual machine, steal is time the hypervisor gave this guest's
/// virtual CPUs to someone else; it shows why a run was slow.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: f64, phase: &Phase, rss_mib: f64) -> Vec<Metric> {
    let log = &phase.log;
    let passed = log.passed().max(1) as f64;
    let (p, tail_s) = tail(&log.secs);
    eprintln!(
        "jobs: {} attempted, {} failed; tail is p{p} of {} samples",
        log.attempted,
        log.failed,
        log.secs.len()
    );
    vec![
        metric("setup_s", setup_s, "s"),
        metric("job_p50_s", median(&log.secs), "s"),
        metric(
            "jobs_per_s",
            log.passed() as f64 / phase.elapsed_s.max(1e-9),
            "1/s",
        ),
        metric("job_tail_s", tail_s, "s"),
        metric("bootstraps_per_job", log.bootstraps / passed, "count"),
        metric("modeled_job_s", log.modeled_s / passed, "modeled-s"),
        metric("peak_rss_mb", rss_mib, "MiB"),
    ]
}

/// Every per-layer metric name with its unit, in print order. Metrics a
/// workload does not exercise print as 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for op in BACKEND_OPS {
        v.push((format!("backend.{op}.s"), "s"));
        v.push((format!("backend.{op}.calls"), "count"));
    }
    for c in KERNEL_COUNTERS {
        v.push((format!("kernel.{c}"), "count"));
    }
    v.push(("kernel.ntt_bytes_computed".into(), "bytes"));
    for (n, u) in [
        ("exec.self_s", "s"),
        ("exec.ops", "count"),
        ("snapshot.writes", "count"),
        ("snapshot.bytes", "bytes"),
        ("snapshot.encode_s", "s"),
        ("store.puts", "count"),
        ("store.put_s", "s"),
        ("compile.halo_s", "s"),
        ("compile.dacapo_s", "s"),
        ("compile.static_bootstraps", "count"),
    ] {
        v.push((n.into(), u));
    }
    for pass in halo_core::Pass::ALL {
        v.push((format!("compile.ops_after.{}", pass.name()), "count"));
    }
    for (n, u) in [
        ("autotune.s", "s"),
        ("autotune.evaluated", "count"),
        ("autotune.pruned", "count"),
        ("autotune.space", "count"),
        ("serve.batches", "count"),
        ("serve.jobs_per_batch", "count"),
        ("serve.queue_wait_s", "s"),
        ("serve.peak_queue_depth", "count"),
        ("serve.batch_fallbacks", "count"),
        ("setup.trace_s", "s"),
        ("setup.compile_s", "s"),
        ("setup.warmup_s", "s"),
    ] {
        v.push((n.into(), u));
    }
    v
}

/// The per-layer metrics of a traced run. Per-job values divide by the
/// attempted jobs of the timed phase.
pub fn per_layer(setup: &SetupTimes, phase: &Phase, spans: &[Span]) -> Vec<Metric> {
    let jobs = phase.log.attempted.max(1) as f64;
    let t = totals(spans, phase.from_ns, phase.to_ns);
    let secs = |name: &str| t.get(name).map_or(0.0, |x| x.secs);
    let calls = |name: &str| t.get(name).map_or(0, |x| x.calls) as f64;

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut inner_s = 0.0;
    for op in BACKEND_OPS {
        let name = format!("backend.{op}");
        inner_s += secs(&name);
        values.insert(format!("{name}.s"), secs(&name) / jobs);
        values.insert(format!("{name}.calls"), calls(&name) / jobs);
    }
    let k = kernel_values(&phase.kernel);
    for (c, x) in KERNEL_COUNTERS.iter().zip(k) {
        values.insert(format!("kernel.{c}"), x as f64 / jobs);
    }
    let ntt_rows = (phase.kernel.ntt_forward_rows + phase.kernel.ntt_inverse_rows) as f64;
    values.insert(
        "kernel.ntt_bytes_computed".into(),
        ntt_rows * phase.ring_degree as f64 * 8.0 / jobs,
    );

    // The executor's own time: what its calls into the backend, the
    // snapshot codec and the store do not account for.
    let snap_s = secs("snapshot.encode") + secs("snapshot.decode");
    let store_s = secs("store.put") + secs("store.get") + secs("store.list");
    let exec_wall = phase.exec_wall_s.unwrap_or_else(|| secs("exec.run"));
    values.insert(
        "exec.self_s".into(),
        (exec_wall - inner_s - snap_s - store_s).max(0.0) / jobs,
    );
    let passed = phase.log.passed().max(1) as f64;
    values.insert("exec.ops".into(), phase.log.exec_ops / passed);
    values.insert("snapshot.writes".into(), phase.log.snapshot_writes / passed);
    values.insert("snapshot.bytes".into(), phase.log.snapshot_bytes / passed);
    values.insert("snapshot.encode_s".into(), secs("snapshot.encode") / jobs);
    values.insert("store.puts".into(), calls("store.put") / jobs);
    values.insert("store.put_s".into(), secs("store.put") / jobs);
    values.insert("setup.trace_s".into(), setup.trace_s);
    values.insert("setup.compile_s".into(), setup.compile_s);
    values.insert("setup.warmup_s".into(), setup.warmup_s);
    for (name, v) in &phase.layers {
        values.insert(name.clone(), *v);
    }

    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            metric(name, v, unit)
        })
        .collect()
}

/// The result line: one JSON object.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        // 100 samples: p90 leaves exactly ten beyond it; p95 only five.
        assert_eq!(tail(&v), (90.0, 90.0));
        // Fewer than forty samples: the slowest job.
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (100.0, 5.0));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), (99.0, 1980.0));
    }

    #[test]
    fn json_line_keeps_every_digit() {
        let line = json_line(true, 3, 0, &[metric("job_p50_s", 0.1 + 0.2, "s")]);
        assert!(line.contains("0.30000000000000004"), "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }

    /// The names this program prints are exactly the names the benchmark
    /// declares in `BENCHMARK.json` at the repository root.
    #[test]
    fn printed_names_match_the_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let declared = |section: &str| -> Vec<String> {
            let start = decl
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &decl[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let layer: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layer);
        let phase = Phase {
            log: JobLog::default(),
            from_ns: 0,
            to_ns: 0,
            elapsed_s: 1.0,
            kernel: MetricsSnapshot::default(),
            ring_degree: 0,
            layers: Vec::new(),
            exec_wall_s: None,
        };
        let e2e: Vec<String> = end_to_end(1.0, &phase, 1.0)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
    }
}
