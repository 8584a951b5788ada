//! Criterion: the fleet-scale serving campaign — hundreds of concurrent
//! sandboxes, a six-figure request stream, and kill/redeploy churn —
//! with the fleet fast paths (bitmap frame scan, O(1) sandbox lookup)
//! on vs ablated.
//!
//! The headline numbers land in the JSON `meta` block so CI
//! (`scripts/ci.sh --fleet`) can assert them from the persisted
//! `BENCH_fleet.json`:
//!
//! - `fleet_sandboxes` / `fleet_requests` — campaign scale (ISSUE floors
//!   256 and 100k for the full run);
//! - `fleet_determinism` — 1.0 iff two same-seed fleet runs produced
//!   byte-identical trace documents and counter snapshots;
//! - `fleet_speedup` vs `fleet_speedup_floor` — whole-campaign
//!   wall-clock ratio, asserted against the *self-described* floor
//!   (5x for the full campaign, where ablated deploy/churn scans
//!   dominate; 1x for the tiny smoke shape) here *and* in CI;
//! - `fleet_gate_p50_cycles` / `_p99_` / `_p999_` — per-request
//!   monitor-bucket (gate + interposition) cycle deltas;
//! - `fleet_throughput_rps` — serve-phase requests per wall-clock
//!   second with the fast paths on.
//!
//! The red ablation asserts live here too: the ablated campaign must
//! never touch a fast-path structure (all lookup counters and the
//! bitmap word-scan counter pinned at zero), and both campaigns must
//! allocate the exact same number of frames — the fast scan is a
//! different search, not a different answer. Full observational
//! equivalence is `tests/fleet_equivalence.rs`'s job.

use std::time::Instant;

use erebor::{BootConfig, Mode, Platform};
use erebor_core::channel::Client;
use erebor_testkit::bench::{smoke, Criterion};
use erebor_testkit::{criterion_group, criterion_main};
use erebor_trace::Bucket;
use erebor_workloads::env::SandboxedWorkload;
use erebor_workloads::fleet::{FleetConfig, FleetDriver, FleetOp, LatencyRecorder};

/// FNV-1a over the deterministic trace document: cheap, stable digest
/// for the byte-identical determinism claim.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn boot_fleet_platform(fleet_mode: bool) -> Platform {
    let mut config = erebor_core::config::ExecConfig::new(Mode::Full);
    // Small pad quantum keeps reply sealing cheap at request volume.
    config.output_pad_quantum = 512;
    // 64–768 concurrent sandboxes is far past the 10 usable PKS keys:
    // fleet scale runs on the keyed TME-MK backend (create_sandbox now
    // fails typed at capacity instead of silently wrapping onto a live
    // key, so the old config would refuse the campaign outright).
    config.backend = erebor::ehw::isolation::BackendKind::TmeMk;
    let cfg = BootConfig {
        cores: 32,
        dram_bytes: 10 * 1024 * 1024 * 1024,
        config,
        ..BootConfig::default()
    };
    let mut p = Platform::boot_with(cfg).expect("fleet boot");
    p.set_fleet_mode(fleet_mode);
    // Scope the observability counters to the campaign: boot itself ran
    // with the default (fast) configuration before the flip.
    p.cvm.machine.mem.alloc_stats = Default::default();
    p.cvm.monitor.lookup_stats.reset();
    p
}

struct CampaignResult {
    wall_secs: f64,
    serve_secs: f64,
    requests: u64,
    latency: LatencyRecorder,
    trace_digest: u64,
    snapshot: String,
    allocated_frames: u64,
    words_scanned: u64,
    lookup_hits: u64,
}

/// Interpret the deterministic op schedule against one platform.
fn run_campaign(cfg: FleetConfig, fleet_mode: bool) -> CampaignResult {
    let t0 = Instant::now();
    let mut p = boot_fleet_platform(fleet_mode);
    let ops = FleetDriver::new(cfg).schedule();
    let mut svcs: Vec<Option<erebor::ServiceInstance>> =
        (0..cfg.sandboxes).map(|_| None).collect();
    let mut clients: Vec<Option<Client>> = (0..cfg.clients).map(|_| None).collect();
    let mut latency = LatencyRecorder::new();
    let mut requests = 0u64;
    let mut serve_secs = 0.0f64;
    for op in ops {
        match op {
            FleetOp::Deploy { slot, class } => {
                let program = SandboxedWorkload::new(class.workload(cfg.private_pages));
                svcs[slot] = Some(
                    p.deploy(Box::new(program), cfg.budget_pages)
                        .expect("fleet deploy"),
                );
            }
            FleetOp::Connect { slot } => {
                let svc = svcs[slot].as_ref().expect("connect before deploy");
                let seed = [u8::try_from(slot & 0xff).expect("masked"); 32];
                clients[slot] = Some(p.connect_client(svc, seed).expect("fleet attest"));
            }
            FleetOp::Request { slot, payload } => {
                let svc = svcs[slot].as_mut().expect("request before deploy");
                let client = clients[slot].as_mut().expect("request before connect");
                let gate_before = p.cvm.machine.cycles.attribution().get(Bucket::Monitor);
                let t = Instant::now();
                p.serve_request(svc, client, &payload).expect("fleet serve");
                serve_secs += t.elapsed().as_secs_f64();
                let gate_after = p.cvm.machine.cycles.attribution().get(Bucket::Monitor);
                latency.push(gate_after - gate_before);
                requests += 1;
            }
            FleetOp::Churn { slot, class } => {
                let old = svcs[slot].take().expect("churn before deploy");
                p.cvm
                    .monitor
                    .kill_sandbox(&mut p.cvm.machine, old.sandbox, "fleet churn");
                let program = SandboxedWorkload::new(class.workload(cfg.private_pages));
                svcs[slot] = Some(
                    p.deploy(Box::new(program), cfg.budget_pages)
                        .expect("fleet redeploy"),
                );
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let report = p.audit();
    assert!(report.is_clean(), "fleet campaign broke an audit claim");
    let stats = p.lookup_stats();
    CampaignResult {
        wall_secs,
        serve_secs,
        requests,
        latency,
        trace_digest: fnv1a(p.trace_json().as_bytes()),
        snapshot: format!("{:?}", p.snapshot()),
        allocated_frames: p.cvm.machine.mem.allocated_frames(),
        words_scanned: p.alloc_stats().words_scanned,
        lookup_hits: stats.root_index_lookups()
            + stats.as_index_lookups()
            + stats.cpuid_mru_hits(),
    }
}

fn bench_fleet(c: &mut Criterion) {
    let (cfg, floor) = if smoke() {
        // CI shape: too small for the scan costs to dominate, so the
        // floor only demands "not materially slower" (first-run host
        // warmup noise is comparable to the whole campaign here).
        (FleetConfig::smoke(), 0.75)
    } else {
        (FleetConfig::full(), 5.0)
    };

    // Two same-seed fleet runs: the determinism claim.
    let fast = run_campaign(cfg, true);
    let fast2 = run_campaign(cfg, true);
    assert_eq!(
        fast.trace_digest, fast2.trace_digest,
        "same-seed fleet campaigns must produce byte-identical traces"
    );
    assert_eq!(
        fast.snapshot, fast2.snapshot,
        "same-seed fleet campaigns must produce identical counter snapshots"
    );
    let deterministic = f64::from(
        u8::from(fast.trace_digest == fast2.trace_digest && fast.snapshot == fast2.snapshot),
    );

    // The ablated baseline: every fleet fast path off.
    let slow = run_campaign(cfg, false);

    // Red ablation asserts: off means *off* — no fast-path structure
    // may be consulted — and the fast scan must allocate the exact
    // same frames the linear scan did.
    assert_eq!(
        slow.lookup_hits, 0,
        "ablated campaign must never hit a lookup index"
    );
    assert_eq!(
        slow.words_scanned, 0,
        "ablated campaign must never scan a summary word"
    );
    assert!(
        fast.lookup_hits > 0 && fast.words_scanned > 0,
        "fleet campaign must exercise the fast paths"
    );
    assert_eq!(
        fast.allocated_frames, slow.allocated_frames,
        "fast and ablated campaigns must allocate identical frame counts"
    );

    // Best-of-two on the fast side: the first campaign of the process
    // pays one-time host warmup (page faults, allocator pools) that the
    // later ablated run does not.
    let fast_wall = fast.wall_secs.min(fast2.wall_secs);
    let speedup = slow.wall_secs / fast_wall;
    let throughput = fast.requests as f64 / fast.serve_secs;

    // A criterion-visible per-request timing on a warm fleet platform.
    let mut p = boot_fleet_platform(true);
    let mut svc = p
        .deploy(
            Box::new(SandboxedWorkload::new(
                erebor_workloads::fleet::FleetClass::Nginx.workload(cfg.private_pages),
            )),
            cfg.budget_pages,
        )
        .expect("deploy");
    let mut client = p.connect_client(&svc, [9; 32]).expect("attest");
    c.bench_function("fleet_request_roundtrip", |b| {
        b.iter(|| p.serve_request(&mut svc, &mut client, b"f=16384").expect("serve"));
    });

    c.meta("fleet_sandboxes", cfg.sandboxes as f64);
    c.meta("fleet_requests", fast.requests as f64);
    c.meta("fleet_churn", cfg.churn as f64);
    c.meta("fleet_determinism", deterministic);
    c.meta("fleet_speedup", speedup);
    c.meta("fleet_speedup_floor", floor);
    c.meta("fleet_wall_secs", fast_wall);
    c.meta("fleet_ablated_wall_secs", slow.wall_secs);
    c.meta("fleet_throughput_rps", throughput);
    c.meta("fleet_gate_p50_cycles", fast.latency.quantile(0.5) as f64);
    c.meta("fleet_gate_p99_cycles", fast.latency.quantile(0.99) as f64);
    c.meta("fleet_gate_p999_cycles", fast.latency.quantile(0.999) as f64);
    c.meta("fleet_gate_mean_cycles", fast.latency.mean() as f64);
    c.meta("fleet_allocated_frames", fast.allocated_frames as f64);
    c.meta("fleet_words_scanned", fast.words_scanned as f64);
    c.meta("fleet_lookup_hits", fast.lookup_hits as f64);

    assert!(
        (deterministic - 1.0).abs() < f64::EPSILON,
        "fleet campaign must be deterministic"
    );
    assert!(
        speedup >= floor,
        "fleet fast paths must be >={floor}x the ablated campaign: \
         {fast_wall:.2}s vs {:.2}s ({speedup:.2}x)",
        slow.wall_secs
    );
    assert!(
        fast.latency.quantile(0.999) > 0,
        "gate latency tail must be measured"
    );
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
