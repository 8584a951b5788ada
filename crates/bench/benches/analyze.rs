//! Criterion: cost of the static analysis passes, plus the audit-work
//! meta counters the CI smoke stage budgets.
//!
//! The auditor is meant to run after boot and inside every chaos case,
//! so its cost must stay bounded: the `audit_*` meta entries pin the
//! amount of state it walks on a freshly booted Full platform (PTE
//! reads, TLB entries, IDT entries), and CI asserts the total stays
//! under a fixed budget with zero findings. The `audit_many_roots_*`
//! entries audit a platform with many resident sandboxes and dead roots,
//! and assert in-bench that the walk's PTE reads grow with each root's
//! own tables, not with roots × the shared kernel half.

use erebor::eanalyze::detect_races;
use erebor::eanalyze::privilege::{scan_workspace, WaiverPolicy};
use erebor::ehw::isolation::BackendKind;
use erebor::{BootConfig, ExecConfig, Mode, Platform, TraceEvent, TraceRecord};
use erebor_testkit::bench::{self, Criterion};
use erebor_workloads::hello::HelloWorld;
use erebor_testkit::{criterion_group, criterion_main};
use std::path::PathBuf;

/// Ceiling on the privilege scan's work metric (lines of workspace
/// source scanned). The workspace sits well under half of this; growth
/// past the ceiling means the scan (which CI runs on every `--analyze`)
/// stopped being cheap and the budget needs a deliberate revisit.
const PRIVILEGE_WORK_BUDGET: u64 = 200_000;

fn bench_audit(c: &mut Criterion) {
    let p = Platform::boot(Mode::Full).expect("boot");
    let report = p.audit();
    c.meta("audit_findings", report.findings.len() as f64);
    c.meta("audit_roots_walked", report.roots_walked as f64);
    c.meta("audit_leaf_mappings", report.leaf_mappings as f64);
    c.meta("audit_pte_reads", report.pte_reads as f64);
    c.meta("audit_work", report.work() as f64);
    c.bench_function("audit_boot_snapshot", |b| {
        b.iter(|| p.audit());
    });
}

/// Page-table pages one HelloWorld sandbox owns beyond the shared kernel
/// half (its PML4 and one user L3, L2 and L1: 4, measured), doubled for
/// headroom. Roots × this many pages is the audit's allowance on top of
/// the boot snapshot.
const PER_ROOT_TABLES: u64 = 8;

fn bench_audit_many_roots(c: &mut Criterion) {
    // 256 residents on 352 MiB is the e2ebench `fleet` shape; smoke
    // keeps 64.
    let residents = if bench::smoke() { 64 } else { 256 };
    let mut config = ExecConfig::new(Mode::Full);
    config.backend = BackendKind::TmeMk;
    let mut p = Platform::boot_with(BootConfig {
        config,
        dram_bytes: 352 << 20,
        ..BootConfig::default()
    })
    .expect("boot");
    let boot = p.audit();
    c.bench_function("audit_boot_352mib", |b| {
        b.iter(|| p.audit());
    });
    for _ in 0..residents {
        p.deploy(Box::new(HelloWorld { len: 4 }), 4096)
            .expect("resident");
    }
    // Deploy/kill churn: the dead roots stay registered and walked.
    for _ in 0..32 {
        let svc = p
            .deploy(Box::new(HelloWorld { len: 4 }), 4096)
            .expect("churn");
        p.cvm
            .monitor
            .kill_sandbox(&mut p.cvm.machine, svc.sandbox, "churn");
    }
    let report = p.audit();
    assert!(report.is_clean(), "many-roots audit not clean: {}", report.json());
    let bound = boot.pte_reads + report.roots_walked * PER_ROOT_TABLES * 512;
    assert!(
        report.pte_reads <= bound,
        "audit walk scales with roots: {} PTE reads over {} roots > {bound}",
        report.pte_reads,
        report.roots_walked
    );
    c.meta("audit_many_roots_residents", residents as f64);
    c.meta("audit_many_roots_roots_walked", report.roots_walked as f64);
    c.meta("audit_many_roots_leaf_mappings", report.leaf_mappings as f64);
    c.meta("audit_many_roots_pte_reads", report.pte_reads as f64);
    c.meta("audit_many_roots_pte_read_bound", bound as f64);
    c.bench_function("audit_many_roots", |b| {
        b.iter(|| p.audit());
    });
}

fn bench_race_detector(c: &mut Criterion) {
    // A synthetic 4-core trace mixing revocations, acks, and hits —
    // the same shapes a chaos case produces, at a fixed size.
    let cores = 4;
    let mut records = Vec::new();
    for i in 0u64..4096 {
        let cpu = (i % cores as u64) as u32;
        let event = match i % 5 {
            0 => TraceEvent::TlbShootdown {
                root: 7,
                page: i % 64,
            },
            1 => TraceEvent::IpiSent {
                to: (cpu + 1) % cores as u32,
            },
            2 => TraceEvent::IpiReceived {
                from: (cpu + cores as u32 - 1) % cores as u32,
            },
            3 => TraceEvent::TlbInvlpg { page: i % 64 },
            _ => TraceEvent::TlbHit {
                root: 7,
                page: i % 64,
            },
        };
        records.push(TraceRecord {
            seq: i,
            cycles: i * 10,
            cpu,
            event,
        });
    }
    c.meta("race_trace_records", records.len() as f64);
    c.bench_function("race_detect_4k_records", |b| {
        b.iter(|| detect_races(&records, cores));
    });
}

fn bench_privilege(c: &mut Criterion) {
    // crates/bench -> workspace root is two levels up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("workspace root");
    let report = scan_workspace(&root, WaiverPolicy::Refuse);
    assert!(
        report.is_clean(),
        "privilege boundary violated in-bench: {:?}",
        report.findings
    );
    assert!(
        report.work() <= PRIVILEGE_WORK_BUDGET,
        "privilege scan over budget: {} > {PRIVILEGE_WORK_BUDGET} lines",
        report.work()
    );
    c.meta("privilege_findings", report.findings.len() as f64);
    c.meta("privilege_waivers", report.waivers_seen as f64);
    c.meta("privilege_files_scanned", report.files_scanned as f64);
    c.meta("privilege_modules", report.privileged_modules as f64);
    c.meta("privileged_lines", report.privileged_lines as f64);
    c.meta("privilege_work", report.work() as f64);
    c.bench_function("privilege_scan_workspace", |b| {
        b.iter(|| scan_workspace(&root, WaiverPolicy::Refuse));
    });
}

criterion_group!(
    benches,
    bench_audit,
    bench_audit_many_roots,
    bench_race_detector,
    bench_privilege
);
criterion_main!(benches);
