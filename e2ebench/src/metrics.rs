//! The benchmark's metrics: names, units, and how each is computed from
//! a [`Pass`]. `BENCHMARK.json` at the repository root lists the same
//! names and units; a test keeps the two in step.

use std::collections::BTreeMap;

use erebor::ehw::cycles::CLOCK_HZ;
use erebor::Bucket;

use crate::run::Pass;
use crate::stats::{median, nearest_rank};

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, e.g. `sim_us_p50`.
    pub name: &'static str,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the platform sees, printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("sim_us_p50", "us"),
    m("sim_us_p99", "us"),
    m("sim_ops_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A metric of a layer
/// that the workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("host_ops_per_s", "1/s"),
    m("channel.seal_us", "us"),
    m("channel.install_us", "us"),
    m("channel.fetch_us", "us"),
    m("channel.open_us", "us"),
    m("channel.connect_ms", "ms"),
    m("libos.input_us", "us"),
    m("libos.output_us", "us"),
    m("workloads.serve_us", "us"),
    m("sandbox.cycles_per_op", "cycles"),
    m("monitor.cycles_per_op", "cycles"),
    m("monitor.emc_per_op", "count"),
    m("monitor.exits_per_op", "count"),
    m("monitor.index_lookups_per_op", "count"),
    m("monitor.kill_ms", "ms"),
    m("hw.walk_cycles_per_op", "cycles"),
    m("hw.tlb_hit_rate", "ratio"),
    m("hw.tlb_miss_per_op", "count"),
    m("hw.shootdown_ipis_per_op", "count"),
    m("hw.tlb_flushes_per_op", "count"),
    m("hw.allocs_per_op", "count"),
    m("hw.alloc_words_per_alloc", "count"),
    m("kernel.cycles_per_op", "cycles"),
    m("kernel.ticks_per_op", "count"),
    m("kernel.tick_op_frac", "ratio"),
    m("kernel.tick_sim_us_p50", "us"),
    m("kernel.notick_sim_us_p50", "us"),
    m("kernel.syscalls_per_op", "count"),
    m("kernel.page_faults_per_op", "count"),
    m("tdx.cycles_per_op", "cycles"),
    m("tdx.tdcalls_per_op", "count"),
    m("platform.deploy_ms", "ms"),
    m("migrate.begin_ms", "ms"),
    m("migrate.round_ms", "ms"),
    m("migrate.finish_ms", "ms"),
    m("migrate.import_ms", "ms"),
    m("migrate.downtime_ms_p50", "ms"),
    m("migrate.pages_per_op", "count"),
    m("migrate.stopcopy_pages_per_op", "count"),
    m("migrate.records_per_op", "count"),
    m("trace.events_per_op", "count"),
    m("bench.trace_overhead", "ratio"),
    m("bench.op_fail_frac", "ratio"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn us(cycles: f64) -> f64 {
    cycles * 1e6 / CLOCK_HZ as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run whose set-up took
/// `setup_s` (the median of several set-ups) and whose peak RSS is
/// `peak_rss_mb`.
#[must_use]
pub fn end_to_end(pass: &Pass, setup_s: f64, peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let sim_s = pass.totals.map_or(0.0, |t| t.snap.cycles as f64) / CLOCK_HZ as f64;
    let mut out = BTreeMap::new();
    out.insert(
        "sim_us_p50",
        us(nearest_rank(&pass.cycles, 0.5).unwrap_or(0) as f64),
    );
    out.insert(
        "sim_us_p99",
        us(nearest_rank(&pass.cycles, 0.99).unwrap_or(0) as f64),
    );
    out.insert("sim_ops_per_s", ratio(pass.samples() as f64, sim_s));
    out.insert("setup_s", setup_s);
    out.insert("peak_rss_mb", peak_rss_mb);
    out
}

fn span_median(pass: &Pass, name: &str, scale: f64) -> f64 {
    median(&pass.tracer.durations(name)) / scale
}

/// The per-layer metrics of a traced pass; `untraced_rate` is the
/// untraced pass's host sample ops per second on the same seed.
#[must_use]
pub fn per_layer(traced: &Pass, untraced_rate: f64) -> BTreeMap<&'static str, f64> {
    let n = traced.samples() as f64;
    let mut out = BTreeMap::new();
    out.insert("host_ops_per_s", untraced_rate);
    for (name, span) in [
        ("channel.seal_us", "channel.seal"),
        ("channel.install_us", "channel.install"),
        ("channel.fetch_us", "channel.fetch"),
        ("channel.open_us", "channel.open"),
        ("libos.input_us", "libos.input"),
        ("libos.output_us", "libos.output"),
        ("workloads.serve_us", "workloads.serve"),
    ] {
        out.insert(name, span_median(traced, span, 1e3));
    }
    for (name, span) in [
        ("channel.connect_ms", "channel.connect"),
        ("monitor.kill_ms", "monitor.kill"),
        ("platform.deploy_ms", "platform.deploy"),
        ("migrate.begin_ms", "migrate.begin"),
        ("migrate.round_ms", "migrate.round"),
        ("migrate.finish_ms", "migrate.finish"),
        ("migrate.import_ms", "migrate.import"),
    ] {
        out.insert(name, span_median(traced, span, 1e6));
    }
    let per_op = |v: u64| ratio(v as f64, n);
    if let Some(t) = traced.totals {
        let s = &t.snap;
        let a = &s.attribution;
        out.insert("sandbox.cycles_per_op", per_op(a.get(Bucket::Sandbox)));
        out.insert("monitor.cycles_per_op", per_op(a.get(Bucket::Monitor)));
        out.insert("monitor.emc_per_op", per_op(s.monitor.emc_calls));
        out.insert(
            "monitor.exits_per_op",
            per_op(s.monitor.sandbox_total_exits()),
        );
        out.insert("monitor.index_lookups_per_op", per_op(t.lookups));
        out.insert("hw.walk_cycles_per_op", per_op(a.get(Bucket::PageWalk)));
        out.insert(
            "hw.tlb_hit_rate",
            ratio(
                s.hw.tlb_hits as f64,
                (s.hw.tlb_hits + s.hw.tlb_misses) as f64,
            ),
        );
        out.insert("hw.tlb_miss_per_op", per_op(s.hw.tlb_misses));
        out.insert("hw.shootdown_ipis_per_op", per_op(s.hw.tlb_shootdown_ipis));
        out.insert("hw.tlb_flushes_per_op", per_op(s.hw.tlb_flushes));
        out.insert("hw.allocs_per_op", per_op(t.allocs));
        out.insert(
            "hw.alloc_words_per_alloc",
            ratio(t.alloc_words as f64, t.allocs as f64),
        );
        out.insert("kernel.cycles_per_op", per_op(a.get(Bucket::Kernel)));
        out.insert("kernel.ticks_per_op", per_op(s.kernel.timer_ticks));
        out.insert("kernel.syscalls_per_op", per_op(s.kernel.syscalls));
        out.insert("kernel.page_faults_per_op", per_op(s.kernel.page_faults));
        out.insert("tdx.cycles_per_op", per_op(a.get(Bucket::Tdcall)));
        out.insert("tdx.tdcalls_per_op", per_op(s.tdx.tdcalls));
        out.insert("trace.events_per_op", per_op(t.events));
    }
    let mut ticked = Vec::new();
    let mut quiet = Vec::new();
    for (&c, &t) in traced.cycles.iter().zip(&traced.ticked) {
        if t { &mut ticked } else { &mut quiet }.push(c);
    }
    let p50 = |v: &[u64]| us(nearest_rank(v, 0.5).unwrap_or(0) as f64);
    out.insert("kernel.tick_op_frac", ratio(ticked.len() as f64, n));
    out.insert("kernel.tick_sim_us_p50", p50(&ticked));
    out.insert("kernel.notick_sim_us_p50", p50(&quiet));
    let mig = &traced.migration;
    out.insert(
        "migrate.pages_per_op",
        ratio((mig.precopy_pages + mig.stopcopy_pages) as f64, n),
    );
    out.insert(
        "migrate.stopcopy_pages_per_op",
        ratio(mig.stopcopy_pages as f64, n),
    );
    out.insert(
        "migrate.records_per_op",
        ratio(mig.records_sealed as f64, n),
    );
    out.insert("migrate.downtime_ms_p50", median(&traced.downtime_ms));
    out.insert(
        "bench.trace_overhead",
        ratio(untraced_rate, median(&traced.block_rates)),
    );
    out.insert(
        "bench.op_fail_frac",
        ratio(traced.failed as f64, traced.attempted as f64),
    );
    for metric in PER_LAYER {
        out.entry(metric.name).or_insert(0.0);
    }
    out
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`
/// with every metric of `spec`, in `spec` order.
///
/// # Panics
/// If `values` lacks a metric of `spec` (a bug in this benchmark).
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = spec
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .copied()
                .unwrap_or_else(|| panic!("metric {} not computed", m.name));
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        assert!(END_TO_END.contains(&m("setup_s", "s")));
    }

    #[test]
    fn validity_rules_reject_bad_names() {
        assert!(valid_name("a.b-c_1"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let doc = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = doc
                .split(&format!("\"{section}\""))
                .nth(1)
                .expect("section");
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        entry
                            .split(&format!("\"{key}\": \""))
                            .nth(1)
                            .and_then(|r| r.split('"').next())
                            .expect("field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let spec = |list: &[Metric]| -> Vec<(String, String)> {
            list.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), spec(END_TO_END));
        assert_eq!(listed("per_layer"), spec(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = result_json(true, 3, 0, END_TO_END, &values);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        for m in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\":{{\"value\":1.5,\"unit\":\"{}\"}}",
                m.name, m.unit
            )));
        }
    }
}
