//! Every workload at a tiny shape: all named metrics come out with
//! their units, outputs check, audits pass, and the behaviour digest
//! repeats per seed and does not depend on tracing.

use erebor_e2ebench::inputs::{Shape, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use erebor_e2ebench::metrics::{self, END_TO_END, PER_LAYER};
use erebor_e2ebench::run::{pass, Pass};

fn run(w: Workload, seed: u64, trace: bool) -> Pass {
    let p = pass(w, Shape::tiny(w), seed, 0.0, trace, 1).expect("tiny set-up");
    assert_eq!(p.failed, 0, "{}: ops failed", w.name());
    assert!(p.attempted > 0);
    assert!(p.audit_clean, "{}: audit", w.name());
    let shape = Shape::tiny(w);
    assert_eq!(
        p.samples(),
        shape.ops * shape.sim_epochs,
        "{}: samples",
        w.name()
    );
    p
}

fn check_metrics(w: Workload, untraced: &Pass, traced: &Pass) {
    let e2e = metrics::end_to_end(untraced, 0.5, 10.0);
    let line = metrics::result_json(true, 1, 0, END_TO_END, &e2e);
    for m in END_TO_END {
        let v = e2e[m.name];
        assert!(v.is_finite() && v > 0.0, "{}: {} = {v}", w.name(), m.name);
        assert!(line.contains(&format!("\"{}\":{{\"value\":", m.name)));
        assert!(line.contains(&format!("\"unit\":\"{}\"", m.unit)));
    }
    let layers = metrics::per_layer(traced, 100.0);
    let line = metrics::result_json(true, 1, 0, PER_LAYER, &layers);
    assert_eq!(
        layers.len(),
        PER_LAYER.len(),
        "{}: extra per-layer keys",
        w.name()
    );
    for m in PER_LAYER {
        let v = layers[m.name];
        assert!(v.is_finite() && v >= 0.0, "{}: {} = {v}", w.name(), m.name);
        assert!(line.contains(&format!("\"{}\":{{\"value\":", m.name)));
    }
    // Layers every workload crosses on each op.
    for name in [
        "channel.seal_us",
        "channel.open_us",
        "workloads.serve_us",
        "monitor.cycles_per_op",
    ] {
        assert!(layers[name] > 0.0, "{}: {name} is 0", w.name());
    }
    if w == Workload::Migrate {
        for name in [
            "migrate.import_ms",
            "migrate.pages_per_op",
            "migrate.downtime_ms_p50",
        ] {
            assert!(layers[name] > 0.0, "migrate: {name} is 0");
        }
    }
    if w == Workload::Lifecycle {
        for name in [
            "channel.connect_ms",
            "monitor.kill_ms",
            "platform.deploy_ms",
        ] {
            assert!(layers[name] > 0.0, "lifecycle: {name} is 0");
        }
    }
}

#[test]
fn every_workload_emits_every_metric_with_a_stable_digest() {
    for w in Workload::ALL {
        let a = run(w, DEFAULT_SEED, false);
        let b = run(w, DEFAULT_SEED, false);
        let traced = run(w, DEFAULT_SEED, true);
        assert_eq!(a.digest, b.digest, "{}: same seed, same digest", w.name());
        assert_eq!(
            a.cycles,
            b.cycles,
            "{}: simulated latencies repeat",
            w.name()
        );
        assert_eq!(
            a.digest,
            traced.digest,
            "{}: tracing changed behaviour",
            w.name()
        );
        assert!(a.tracer.spans().is_empty());
        assert!(!traced.tracer.spans().is_empty());
        let other = run(w, HELD_OUT_SEED, false);
        assert_ne!(
            a.digest,
            other.digest,
            "{}: seed must reach the inputs",
            w.name()
        );
        check_metrics(w, &a, &traced);
    }
}
