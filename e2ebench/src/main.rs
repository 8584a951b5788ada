//! `e2ebench --workload <fleet|data|lifecycle|migrate> --seed <n>
//! --seconds <s> --trace <0|1>`: run one workload and print its metrics.
//! Stdout carries the behaviour digest and, on its last line, the JSON
//! result; a human summary goes to stderr.

use std::collections::BTreeMap;
use std::process::ExitCode;

use erebor::PlatformError;
use erebor_e2ebench::inputs::{Shape, Workload, DEFAULT_SEED};
use erebor_e2ebench::metrics::{self, Metric, END_TO_END, PER_LAYER};
use erebor_e2ebench::run::{pass, Pass};
use erebor_e2ebench::stats::{beyond, median, rel_iqr, Tracer};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Spans of the first this many ops (and of set-up) go to the span file.
const SPAN_FILE_OPS: u64 = 2_000;

/// A run's verdict and metric values.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Behaviour digest of the simulated epochs.
    digest: u64,
    values: BTreeMap<&'static str, f64>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn summary(spec: &[Metric], values: &BTreeMap<&'static str, f64>) {
    for m in spec {
        eprintln!("  {:<32} {:>16.4} {}", m.name, values[m.name], m.unit);
    }
}

fn describe(label: &str, p: &Pass) {
    let beyond_p99 = beyond(p.samples(), 0.99);
    eprintln!(
        "{label}: {} ops ({} failed), {} sample ops in the simulated epochs ({beyond_p99} beyond p99), \
         {} set-ups, {:.2} s in ops, host-rate blocks {} (rel IQR {:.3}), audit {}, digest {:016x}",
        p.attempted,
        p.failed,
        p.samples(),
        p.setups.len(),
        p.measured_s,
        p.block_rates.len(),
        rel_iqr(&p.block_rates),
        if p.audit_clean { "clean" } else { "FAILED" },
        p.digest
    );
}

fn self_times(t: &Tracer) {
    let own = t.self_ns();
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, o) in t.spans().iter().zip(own) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += o;
    }
    let total: u64 = by_name.values().map(|e| e.2).sum();
    eprintln!(
        "  {:<20} {:>9} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "self %"
    );
    for (name, (count, dur, own)) in by_name {
        eprintln!(
            "  {name:<20} {count:>9} {:>12.2} {:>12.2} {:>6.1}%",
            dur as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / total.max(1) as f64
        );
    }
}

fn untraced(a: &Args, shape: Shape) -> Result<Outcome, PlatformError> {
    let p = pass(a.workload, shape, a.seed, a.seconds, false, SETUPS)?;
    describe("untraced", &p);
    eprintln!("  setup_s samples {:?}", p.setups);
    eprintln!(
        "  host ops/s median {:.1} over {} blocks",
        median(&p.block_rates),
        p.block_rates.len()
    );
    if !p.downtime_ms.is_empty() {
        eprintln!(
            "  downtime_ms p50 {:.3} over {} migrations",
            median(&p.downtime_ms),
            p.downtime_ms.len()
        );
    }
    let values = metrics::end_to_end(&p, median(&p.setups), metrics::peak_rss_mb());
    let correct = p.failed == 0 && p.audit_clean;
    Ok(Outcome {
        correct,
        attempted: p.attempted,
        failed: p.failed,
        digest: p.digest,
        values,
    })
}

fn traced(a: &Args, shape: Shape) -> Result<Outcome, PlatformError> {
    let plain = pass(a.workload, shape, a.seed, a.seconds / 2.0, false, 1)?;
    let spanned = pass(a.workload, shape, a.seed, a.seconds / 2.0, true, 1)?;
    describe("untraced", &plain);
    describe("traced", &spanned);
    self_times(&spanned.tracer);
    let same = plain.digest == spanned.digest;
    if !same {
        eprintln!("traced digest differs from untraced digest");
    }
    let dir = std::path::Path::new("e2ebench/out");
    let file = dir.join(format!("spans-{}-{}.jsonl", a.workload.name(), a.seed));
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&file, spanned.tracer.json_lines(SPAN_FILE_OPS)))
    {
        eprintln!("could not write {}: {e}", file.display());
    }
    let values = metrics::per_layer(&spanned, median(&plain.block_rates));
    let correct = same
        && plain.failed == 0
        && spanned.failed == 0
        && plain.audit_clean
        && spanned.audit_clean;
    Ok(Outcome {
        correct,
        attempted: plain.attempted + spanned.attempted,
        failed: plain.failed + spanned.failed,
        digest: spanned.digest,
        values,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <fleet|data|lifecycle|migrate> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let shape = Shape::full(args.workload);
    let (spec, result): (&[Metric], _) = if args.trace {
        (PER_LAYER, traced(&args, shape))
    } else {
        (END_TO_END, untraced(&args, shape))
    };
    let Outcome {
        correct,
        attempted,
        failed,
        digest,
        values,
    } = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} seed={} trace={} correct={correct}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    summary(spec, &values);
    println!(
        "digest {} seed={} {digest:016x}",
        args.workload.name(),
        args.seed
    );
    println!(
        "{}",
        metrics::result_json(correct, attempted, failed, spec, &values)
    );
    ExitCode::SUCCESS
}
