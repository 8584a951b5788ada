//! TD live migration end to end (ISSUE 9 acceptance).
//!
//! The scenario: a running platform exports its full TD state — sEPT,
//! pinned MSRs, monitor state, the EMC ledger, per-frame tags, the
//! domain-pool live set — over the attested, AEAD-sealed record stream,
//! with dirty-page pre-copy and a bounded stop-and-copy; the destination
//! imports it atomically. Asserted here:
//!
//! * **Equivalence** — a same-seed run that migrates mid-stream produces
//!   byte-identical trace JSON to one that never migrates.
//! * **Fresh counters** — non-architectural stats (allocator scans,
//!   lookup hits) start at zero on
//!   the destination while architectural state is byte-identical.
//! * **Domain pool** — the live set and LIFO recycle list round-trip
//!   exactly under both isolation backends: a domain freed on the source
//!   is the next one handed out on the destination.
//! * **Chaos** — a ≥200-case campaign of dropped, duplicated, reordered,
//!   corrupted and truncated records: every fault is a typed abort, the
//!   destination is never half-imported, the source stays auditable.
//! * **Sensitive domains** — a source that widens the set of domains
//!   allowed sensitive instructions is refused.
//! * **Fleet** — a migrated 64-sandbox fleet audits clean (C1–C8).

use erebor::ecore::channel::Client;
use erebor::ehw::cpu::Domain;
use erebor::ehw::isolation::BackendKind;
use erebor::elibos::api::SysError;
use erebor::{
    BootConfig, ExecConfig, MigrationError, MigrationKey, Mode, Platform, PlatformError,
    ServiceInstance,
};
use erebor_crypto::frame::FrameError;
use erebor_testkit::rng::TestRng;
use erebor_workloads::hello::HelloWorld;

fn boot(seed: u64, backend: BackendKind) -> Platform {
    let mut config = ExecConfig::new(Mode::Full);
    config.backend = backend;
    Platform::boot_with(BootConfig {
        seed,
        config,
        ..BootConfig::default()
    })
    .expect("boot")
}

/// Deploy one HelloWorld service and attest a client for it.
fn deploy(p: &mut Platform, key_seed: u8) -> (ServiceInstance, Client) {
    let svc = p
        .deploy(Box::new(HelloWorld { len: 4 }), 4096)
        .expect("deploy");
    let client = p.connect_client(&svc, [key_seed; 32]).expect("attest");
    (svc, client)
}

fn serve(p: &mut Platform, svc: &mut ServiceInstance, client: &mut Client, req: &[u8]) -> Vec<u8> {
    p.serve_request(svc, client, req).expect("serve")
}

/// Run one full outbound migration into a freshly booted destination of
/// the same configuration; returns the destination.
fn migrate(src: &mut Platform, seed: u64, backend: BackendKind) -> Platform {
    let mut dest = boot(seed, backend);
    let src_key = MigrationKey::from_seed([0x51; 32]);
    let dest_key = MigrationKey::from_seed([0xD5; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let (records, report) = src.migrate_to(&src_key, &offer).expect("migrate out");
    assert_eq!(report.records_sealed, records.len() as u64);
    assert_eq!(report.sections, 9, "all state sections must travel");
    assert!(report.precopy_pages > 0, "resident sweep must send pages");
    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("migrate in");
    dest
}

// ====================================================================
// Equivalence: migration is invisible to a same-seed run
// ====================================================================

#[test]
fn migrated_run_matches_unmigrated_run_byte_for_byte() {
    let seed = 0xE9E9;
    let phase1 = |p: &mut Platform| {
        let (mut svc, mut client) = deploy(p, 7);
        serve(p, &mut svc, &mut client, b"alpha");
        serve(p, &mut svc, &mut client, b"beta");
        (svc, client)
    };
    let phase2 = |p: &mut Platform, svc: &mut ServiceInstance, client: &mut Client| {
        serve(p, svc, client, b"gamma");
        serve(p, svc, client, b"delta");
    };

    // Control: never migrates.
    let mut control = boot(seed, BackendKind::Pks);
    let (mut csvc, mut cclient) = phase1(&mut control);
    phase2(&mut control, &mut csvc, &mut cclient);

    // Subject: migrates between the phases; phase 2 runs on the
    // imported destination with the *same* client and service handles.
    let mut src = boot(seed, BackendKind::Pks);
    let (mut svc, mut client) = phase1(&mut src);
    let mut dest = migrate(&mut src, seed, BackendKind::Pks);
    phase2(&mut dest, &mut svc, &mut client);

    assert_eq!(
        dest.trace_json(),
        control.trace_json(),
        "migration must be invisible to the trace"
    );
    assert!(src.audit().is_clean(), "source stays auditable after export");
    assert!(dest.audit().is_clean(), "imported platform audits clean");
}

/// Pre-copy proper: the guest keeps serving between `migrate_begin` and
/// `migrate_finish`; the dirtied pages travel in a later round and the
/// destination still lands byte-identical to the (still running) source.
#[test]
fn precopy_rounds_capture_pages_dirtied_in_flight() {
    let seed = 0xFACE;
    let mut src = boot(seed, BackendKind::Pks);
    let (mut svc, mut client) = deploy(&mut src, 9);
    serve(&mut src, &mut svc, &mut client, b"warm");

    let mut dest = boot(seed, BackendKind::Pks);
    let src_key = MigrationKey::from_seed([0x11; 32]);
    let dest_key = MigrationKey::from_seed([0x22; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());

    let (mut mig, mut records) = src.migrate_begin(&src_key, &offer).expect("begin");
    // The guest runs on while pre-copy is in flight and dirties pages.
    serve(&mut src, &mut svc, &mut client, b"mid-flight");
    let round = src.migrate_precopy_round(&mut mig).expect("round");
    assert!(
        !round.is_empty(),
        "serving a request must have dirtied pages"
    );
    records.extend(round);
    let (tail, report) = src.migrate_finish(mig).expect("finish");
    records.extend(tail);
    assert_eq!(report.precopy_rounds, 1);

    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("import");
    assert_eq!(
        dest.trace_json(),
        src.trace_json(),
        "destination must equal the quiesced source exactly"
    );
    assert!(dest.audit().is_clean());
}

// ====================================================================
// Satellite 2: non-architectural counters start fresh
// ====================================================================

#[test]
fn migrated_counters_start_fresh_while_architecture_is_identical() {
    let seed = 0xC0DE;
    let mut src = boot(seed, BackendKind::Pks);
    src.set_fleet_mode(true);
    let (mut svc, mut client) = deploy(&mut src, 3);
    serve(&mut src, &mut svc, &mut client, b"count me");
    assert!(
        src.alloc_stats().allocs > 0,
        "workload must exercise the allocator"
    );
    assert!(src.lookup_stats().as_index_lookups() > 0);

    let mut dest = boot(seed, BackendKind::Pks);
    dest.set_fleet_mode(true);
    let src_key = MigrationKey::from_seed([0x33; 32]);
    let dest_key = MigrationKey::from_seed([0x44; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let (records, _) = src.migrate_to(&src_key, &offer).expect("out");
    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("in");

    // Non-architectural: zeroed on the destination.
    assert_eq!(dest.alloc_stats(), Default::default());
    assert_eq!(dest.lookup_stats().as_index_lookups(), 0);
    assert_eq!(dest.lookup_stats().root_index_lookups(), 0);
    assert_eq!(dest.lookup_stats().cpuid_mru_hits(), 0);

    // Architectural: identical (all counters, cycles and attribution).
    let s = src.snapshot();
    let d = dest.snapshot();
    assert_eq!(d.cycles, s.cycles);
    assert_eq!(format!("{d:?}"), format!("{s:?}"));
    assert_eq!(dest.trace_json(), src.trace_json());
}

// ====================================================================
// Satellite 3: domain pool (live set + LIFO recycle) round-trips
// ====================================================================

#[test]
fn domain_pool_recycle_list_survives_migration_on_both_backends() {
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let seed = 0xD0A1;
        let mut src = boot(seed, backend);
        let (svc_a, _ca) = deploy(&mut src, 1);
        let (svc_b, _cb) = deploy(&mut src, 2);
        let (svc_c, _cc) = deploy(&mut src, 3);
        let freed_domain = src
            .cvm
            .monitor
            .sandboxes
            .get(&svc_b.sandbox.0)
            .expect("sandbox b")
            .domain;
        src.cvm
            .monitor
            .kill_sandbox(&mut src.cvm.machine, svc_b.sandbox, "recycle test");

        let mut dest = migrate(&mut src, seed, backend);

        // The freed domain is at the head of the migrated LIFO recycle
        // list: the next sandbox on the destination must reuse exactly
        // it — and so must the (unmigrated) source, identically.
        let (svc_d_dest, _cd) = deploy(&mut dest, 4);
        let reused_dest = dest
            .cvm
            .monitor
            .sandboxes
            .get(&svc_d_dest.sandbox.0)
            .expect("sandbox d (dest)")
            .domain;
        let (svc_d_src, _cs) = deploy(&mut src, 4);
        let reused_src = src
            .cvm
            .monitor
            .sandboxes
            .get(&svc_d_src.sandbox.0)
            .expect("sandbox d (src)")
            .domain;
        assert_eq!(
            reused_dest, freed_domain,
            "{backend:?}: destination must recycle the freed domain"
        );
        assert_eq!(
            reused_src, reused_dest,
            "{backend:?}: source and destination recycle identically"
        );
        assert!(dest.audit().is_clean());
        assert!(src.audit().is_clean());
        // The live sandboxes are intact on the destination.
        for svc in [&svc_a, &svc_c] {
            assert!(
                dest.cvm.monitor.sandboxes.get(&svc.sandbox.0).is_some(),
                "{backend:?}: live sandbox missing after import"
            );
        }
    }
}

// ====================================================================
// Kill on the destination: a migrated sandbox still dies cleanly
// ====================================================================

#[test]
fn migrated_sandbox_can_be_killed_and_stays_dead() {
    let seed = 0xDEAD;
    let mut src = boot(seed, BackendKind::Pks);
    let (mut svc, mut client) = deploy(&mut src, 5);
    serve(&mut src, &mut svc, &mut client, b"pre");
    let mut dest = migrate(&mut src, seed, BackendKind::Pks);
    dest.cvm
        .monitor
        .kill_sandbox(&mut dest.cvm.machine, svc.sandbox, "post-migration kill");
    let r = dest.serve_request(&mut svc, &mut client, b"post");
    assert!(
        matches!(r, Err(PlatformError::Sys(SysError::Killed(_))) | Err(_)),
        "a killed migrated sandbox must not serve"
    );
    assert!(dest.audit().is_clean());
}

// ====================================================================
// Chaos: every damaged stream is a typed abort, never a half-import
// ====================================================================

#[derive(Debug, Clone, Copy)]
enum Damage {
    Drop(usize),
    Duplicate(usize),
    Swap(usize),
    FlipBit(usize, usize),
    Truncate(usize, usize),
}

fn apply(records: &[Vec<u8>], damage: Damage) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = records.to_vec();
    match damage {
        Damage::Drop(i) => {
            out.remove(i);
        }
        Damage::Duplicate(i) => {
            out.insert(i + 1, out[i].clone());
        }
        Damage::Swap(i) => out.swap(i, i + 1),
        Damage::FlipBit(i, bit) => {
            let rec = &mut out[i];
            let b = bit % (rec.len() * 8);
            rec[b / 8] ^= 1 << (b % 8);
        }
        Damage::Truncate(i, keep) => {
            let rec = &mut out[i];
            let keep = keep % rec.len();
            rec.truncate(keep);
        }
    }
    out
}

/// ≥200 damaged streams (override with `EREBOR_CHAOS_CASES`): every one
/// must abort with a typed [`MigrationError`], the destination must be
/// byte-identical to its pre-import self afterwards, and a clean import
/// must still succeed at the end. The source is never touched by any of
/// it and audits clean throughout.
#[test]
fn chaos_campaign_every_fault_is_typed_and_atomic() {
    let cases: u64 = std::env::var("EREBOR_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(240);
    let seed = 0xCAF3;
    let mut src = boot(seed, BackendKind::Pks);
    let (mut svc, mut client) = deploy(&mut src, 8);
    serve(&mut src, &mut svc, &mut client, b"busy");

    let mut dest = boot(seed, BackendKind::Pks);
    let src_key = MigrationKey::from_seed([0x77; 32]);
    let dest_key = MigrationKey::from_seed([0x88; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let (records, _) = src.migrate_to(&src_key, &offer).expect("clean stream");
    assert!(records.len() > 12, "need a stream worth damaging");

    let pristine_dest = dest.trace_json();
    let source_audit_before = src.audit();
    assert!(source_audit_before.is_clean());

    let mut rng = TestRng::seed_from_u64(0x4D49_4752);
    let n = records.len();
    for case in 0..cases {
        let damage = match rng.below(5) {
            0 => Damage::Drop(rng.below(n as u64 - 1) as usize),
            1 => Damage::Duplicate(rng.below(n as u64 - 1) as usize),
            2 => Damage::Swap(rng.below(n as u64 - 1) as usize),
            3 => Damage::FlipBit(
                rng.below(n as u64) as usize,
                rng.below(1 << 16) as usize,
            ),
            _ => Damage::Truncate(rng.below(n as u64) as usize, rng.below(1 << 12) as usize),
        };
        let damaged = apply(&records, damage);
        let err = dest
            .migrate_from(&dest_key, src_key.public(), &damaged)
            .expect_err("damaged stream must abort");
        let PlatformError::Migration(mig_err) = err else {
            panic!("case {case} ({damage:?}): non-migration error {err}");
        };
        // The abort is *typed*: the damage class maps to the expected
        // channel/protocol verdict.
        match damage {
            Damage::Duplicate(_) => assert!(
                matches!(mig_err, MigrationError::Channel(FrameError::Replay { .. })),
                "case {case} ({damage:?}): got {mig_err:?}"
            ),
            Damage::Swap(_) => assert!(
                matches!(
                    mig_err,
                    MigrationError::Channel(FrameError::OutOfOrder { .. })
                ),
                "case {case} ({damage:?}): got {mig_err:?}"
            ),
            Damage::Drop(_) => assert!(
                matches!(
                    mig_err,
                    MigrationError::Channel(FrameError::OutOfOrder { .. })
                        | MigrationError::Protocol(_)
                ),
                "case {case} ({damage:?}): got {mig_err:?}"
            ),
            Damage::FlipBit(..) | Damage::Truncate(..) => assert!(
                matches!(
                    mig_err,
                    MigrationError::Channel(_)
                        | MigrationError::Decode(_)
                        | MigrationError::Protocol(_)
                        | MigrationError::Incomplete { .. }
                ),
                "case {case} ({damage:?}): got {mig_err:?}"
            ),
        }
        // Atomicity: the destination is exactly its booted self.
        assert_eq!(
            dest.trace_json(),
            pristine_dest,
            "case {case} ({damage:?}): destination mutated by a failed import"
        );
    }

    // The source was never involved in the damage: still clean, still live.
    assert!(src.audit().is_clean());
    serve(&mut src, &mut svc, &mut client, b"still alive");

    // And the pristine stream still imports into the battered destination.
    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("clean import after campaign");
    assert!(dest.audit().is_clean());
}

// ====================================================================
// Import: the source cannot widen the sensitive-domain set
// ====================================================================

/// A malicious but authenticated source that grants `Domain::Kernel`
/// sensitive-instruction rights before export would give the
/// destination's deprivileged kernel `wrmsr`/CR writes. The destination
/// refuses any set other than the one it registered at boot, with a
/// typed protocol error, and stays exactly as it booted.
#[test]
fn destination_refuses_widened_sensitive_domain_set() {
    let seed = 0x5E45;
    let mut src = boot(seed, BackendKind::Pks);
    let (mut svc, mut client) = deploy(&mut src, 9);
    serve(&mut src, &mut svc, &mut client, b"busy");
    src.cvm.machine.allow_sensitive(Domain::Kernel);

    let mut dest = boot(seed, BackendKind::Pks);
    let src_key = MigrationKey::from_seed([0x5A; 32]);
    let dest_key = MigrationKey::from_seed([0xA5; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let pristine_trace = dest.trace_json();
    let pristine_snapshot = format!("{:?}", dest.snapshot());
    let (records, _) = src.migrate_to(&src_key, &offer).expect("stream seals");

    let err = dest
        .migrate_from(&dest_key, src_key.public(), &records)
        .expect_err("a widened sensitive-domain set must be refused");
    assert!(
        matches!(err, PlatformError::Migration(MigrationError::Protocol(_))),
        "got {err}"
    );
    assert!(!dest.cvm.machine.sensitive_allowed(Domain::Kernel));
    assert_eq!(dest.trace_json(), pristine_trace);
    assert_eq!(format!("{:?}", dest.snapshot()), pristine_snapshot);
}

// ====================================================================
// Fleet: a migrated 64-sandbox snapshot audits clean
// ====================================================================

#[test]
fn migrated_64_sandbox_fleet_audits_clean() {
    let seed = 0xF1EE;
    let fleet_boot = || {
        // 64 concurrent sandboxes is past the usable PKS key pool, so the
        // fleet scenario runs on the keyed TME-MK backend like the fleet
        // bench and equivalence suites do.
        let mut config = ExecConfig::new(Mode::Full);
        config.backend = BackendKind::TmeMk;
        Platform::boot_with(BootConfig {
            seed,
            dram_bytes: 512 * 1024 * 1024,
            config,
            ..BootConfig::default()
        })
        .expect("boot")
    };
    let mut src = fleet_boot();
    src.set_fleet_mode(true);
    let mut fleet = Vec::new();
    for i in 0..64u8 {
        let svc = src
            .deploy(Box::new(HelloWorld { len: 2 }), 4096)
            .unwrap_or_else(|e| panic!("deploy fleet member {i}: {e}"));
        fleet.push((i, svc));
    }
    // A few members get attested clients and live traffic.
    for (i, svc) in fleet.iter_mut().take(4) {
        let mut client = src.connect_client(svc, [*i + 1; 32]).expect("attest");
        let reply = src
            .serve_request(svc, &mut client, b"fleet")
            .expect("serve");
        assert_eq!(reply, b"AA");
    }
    assert!(src.audit().is_clean());

    let mut dest = fleet_boot();
    dest.set_fleet_mode(true);
    let src_key = MigrationKey::from_seed([0x99; 32]);
    let dest_key = MigrationKey::from_seed([0xAA; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let (records, report) = src.migrate_to(&src_key, &offer).expect("out");
    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("in");

    let audit = dest.audit();
    assert!(
        audit.is_clean(),
        "imported fleet must audit zero findings, got: {:?}",
        audit.findings
    );
    for (_, svc) in &fleet {
        assert!(
            dest.cvm.monitor.sandboxes.get(&svc.sandbox.0).is_some(),
            "fleet member missing after import"
        );
    }
    assert_eq!(dest.trace_json(), src.trace_json());
    assert!(report.precopy_pages >= 64, "a fleet carries real pages");
}

// ====================================================================
// Handshake: a destination that attests wrong is refused outright
// ====================================================================

#[test]
fn source_refuses_unattested_destination() {
    let mut src = boot(0xBAD, BackendKind::Pks);
    // A destination booted from a *different* seed measures differently,
    // so its quote fails the expected-chain comparison.
    let dest = boot(0xBAD ^ 1, BackendKind::Pks);
    let src_key = MigrationKey::from_seed([0x01; 32]);
    let dest_key = MigrationKey::from_seed([0x02; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let err = src.migrate_to(&src_key, &offer).expect_err("must refuse");
    assert!(
        matches!(
            err,
            PlatformError::Migration(MigrationError::QuoteRejected(_))
        ),
        "got {err}"
    );
    // The refusal happened before any state was disturbed.
    assert!(!src.cvm.machine.mem.dirty_tracking());
    assert!(src.audit().is_clean());
}
