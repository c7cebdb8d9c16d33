//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`; `run.py` rejects a result whose names or units differ
//! from it.

use std::collections::BTreeMap;

use crate::check::{CheckFailure, Checked};

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("effectiveness", "fraction"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
];

/// Per-layer metrics, reported by every workload with tracing on. A layer
/// the workload does not run reports 0, and the run says why.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.engine.self_s", "s"),
    ("sim.engine.decisions", "count"),
    ("sim.engine.actions_per_decision", "actions"),
    ("sim.sched.self_s", "s"),
    ("sim.sched.ns_per_decision", "ns"),
    ("core.kk.self_s", "s"),
    ("core.kk.ns_per_action", "ns"),
    ("core.kk.local_work", "count"),
    ("core.kk.shared_ops", "count"),
    ("ostree.kernels.popcount_gbps", "GB/s"),
    ("ostree.kernels.find_nth_ns", "ns"),
    ("ostree.kernels.tier", "level"),
    ("write_all.self_s", "s"),
    ("write_all.writes_per_cell", "writes"),
    ("write_all.local_work", "count"),
    ("write_all.restarted", "count"),
    ("sim.registers.self_s", "s"),
    ("sim.registers.reads", "count"),
    ("sim.registers.writes", "count"),
    ("sim.durable.self_s", "s"),
    ("sim.durable.journaled", "count"),
    ("sim.durable.flushed", "count"),
    ("sim.durable.barriers", "count"),
    ("sim.durable.dropped_records", "count"),
    ("sim.net.self_s", "s"),
    ("sim.net.messages_per_op", "messages"),
    ("sim.net.retransmit_frac", "fraction"),
    ("sim.net.drop_frac", "fraction"),
    ("sim.net.one_round_read_frac", "fraction"),
    ("sim.shard.ratio_vs_fast", "x"),
    ("sim.shard.barrier_s", "s"),
    ("serve.queue.submit_us_p50", "us"),
    ("serve.queue.peak_depth", "count"),
    ("serve.queue.rejected_full", "count"),
    ("serve.worker.grant_wait_us_p50", "us"),
    ("serve.worker.grant_wait_us_p99", "us"),
    ("serve.worker.generations_per_s", "1/s"),
    ("serve.worker.stranded_frac", "fraction"),
    ("serve.delivery.us_p50", "us"),
    ("trace.run_s", "s"),
    ("trace.clock_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// Why a layer reports nothing on a workload, by metric-name prefix.
fn absent_reason(metric: &str) -> &'static str {
    const REASONS: &[(&str, &str)] = &[
        ("sim.engine", "no simulator engine: the claim service runs its automatons on threads"),
        ("sim.sched", "no simulator scheduler: the claim service's threads are scheduled by the OS"),
        ("core.kk", "the fleet runs WA_IterativeKK, reported under write_all"),
        ("ostree.kernels", "kernels are timed once, at kk_batched's bitmap sizes"),
        ("write_all", "the fleet runs KKβ, not WA_IterativeKK"),
        ("sim.registers", "the register file is not a simulator file, or is wrapped by a backend whose self time includes it"),
        ("sim.durable", "the workload does not run over the durable backend"),
        ("sim.net", "the workload does not run over the quorum backend"),
        ("sim.shard", "the sharded comparison runs on kk_batched only"),
        ("serve", "the workload does not run the claim service"),
    ];
    REASONS
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map_or("not measured on this workload", |(_, why)| why)
}

/// What one run measured.
pub struct Outcome {
    /// Operations attempted: instances run, or claims submitted.
    pub attempted: u64,
    /// Operations that failed: claims refused or never granted.
    pub failed: u64,
    /// Metric values by name; names missing from a per-layer run read 0.
    pub values: BTreeMap<&'static str, f64>,
    /// Lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Prints the notes, one line per metric, and the JSON result line last.
///
/// # Panics
///
/// Panics if an end-to-end metric is missing or any value is not finite:
/// both are bugs in this benchmark.
pub fn print(outcome: &Outcome, traced: bool) {
    let table = if traced { PER_LAYER } else { END_TO_END };
    for note in &outcome.notes {
        println!("# {note}");
    }
    let mut absent: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut json = Vec::new();
    for &(name, unit) in table {
        let value = match outcome.values.get(name) {
            Some(&v) => v,
            None if traced => {
                absent.entry(absent_reason(name)).or_default().push(name);
                0.0
            }
            None => panic!("end-to-end metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("{name:<34} {value:>18.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (reason, names) in absent {
        println!("# reads 0 ({reason}): {}", names.join(", "));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
}

/// Peak resident set of this process in MB (`VmHWM`); a failure when
/// procfs does not report it.
pub fn peak_rss_mb(workload: &'static str) -> Checked<f64> {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    kb.map(|kb| kb / 1024.0).ok_or_else(|| CheckFailure {
        workload,
        check: "peak-rss",
        detail: "VmHWM is not readable from /proc/self/status".into(),
    })
}

/// Median of a non-empty sample (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Index of the nearest-rank `q` quantile (0..=1) in a sorted non-empty
/// sample of `len` values.
pub fn nearest_rank(len: usize, q: f64) -> usize {
    assert!(len > 0, "quantile of an empty sample");
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Nearest-rank percentile `q` (0..=1) of a non-empty sample (sorts in
/// place).
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[nearest_rank(xs.len(), q)]
}
