//! Integration tests for the isolation-backend seam: the PKS capacity
//! boundary (typed exhaustion, domain recycling), the TME-MK keyed
//! backend confining hundreds of sandboxes in one address space, and the
//! kill-teardown fence (alias retag + domain revocation) with its
//! ablation showing exactly what breaks without it.

use erebor::ecore::emc::{EmcError, EmcRequest};
use erebor::ehw::cpu::Domain;
use erebor::ehw::fault::AccessKind;
use erebor::ehw::isolation::{BackendKind, IsolationBackend};
use erebor::ehw::layout::KERNEL_BASE;
use erebor::ehw::paging;
use erebor::ehw::{CpuMode, VirtAddr};
use erebor::Platform;

/// Where each sandbox declares its confined page (sandbox-private
/// address spaces, so every sandbox can use the same VA).
const CONFINED_VA: VirtAddr = VirtAddr(0x7000_0000);

fn booted_with(backend: BackendKind) -> Platform {
    let mut config = erebor::ExecConfig::new(erebor::Mode::Full);
    config.backend = backend;
    let cfg = erebor::BootConfig {
        config,
        ..erebor::BootConfig::default()
    };
    Platform::boot_with(cfg).expect("boot")
}

/// Bigger machine for the many-sandbox runs.
fn booted_fleet(backend: BackendKind) -> Platform {
    let mut config = erebor::ExecConfig::new(erebor::Mode::Full);
    config.backend = backend;
    let cfg = erebor::BootConfig {
        cores: 4,
        dram_bytes: 512 * 1024 * 1024,
        config,
        ..erebor::BootConfig::default()
    };
    Platform::boot_with(cfg).expect("boot")
}

// ====================================================================
// Satellite: the PKS exhaustion boundary
// ====================================================================

/// PKS has 16 hardware keys, 6 reserved for the monitor: the 10th
/// sandbox fits, the 11th gets a *typed* `DomainsExhausted` (never a
/// silent wrap onto a live key, never a burned sandbox id), and killing
/// a sandbox makes its exact domain reusable.
#[test]
fn pks_backend_exhausts_at_capacity_with_typed_error() {
    let mut p = booted_with(BackendKind::Pks);
    p.enter_kernel_mode();
    assert_eq!(p.cvm.monitor.backend.capacity(), 16);
    assert_eq!(p.cvm.monitor.backend.reserved(), 6);
    let usable = p.cvm.monitor.backend.capacity() - p.cvm.monitor.backend.reserved();

    let mut ids = Vec::new();
    for _ in 0..usable {
        ids.push(
            p.cvm
                .monitor
                .create_sandbox(&mut p.cvm.machine, 0, 4)
                .expect("create within capacity"),
        );
    }
    assert_eq!(p.cvm.monitor.backend.live_domains(), usable);

    let next_id_before = p.cvm.monitor.sandboxes.len();
    let err = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 4)
        .expect_err("11th sandbox is over PKS capacity");
    assert!(
        matches!(err, EmcError::DomainsExhausted { capacity: 16 }),
        "typed exhaustion, got: {err}"
    );
    assert_eq!(
        p.cvm.monitor.sandboxes.len(),
        next_id_before,
        "failed create must not burn a sandbox id"
    );

    // Kill one: its domain returns to the pool and the next create
    // reuses exactly it (LIFO recycling), back at full occupancy.
    let victim = ids[3];
    let freed = p.cvm.monitor.sandboxes.get(&victim.0).expect("live").domain;
    p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, victim, "boundary test");
    assert_eq!(p.cvm.monitor.backend.live_domains(), usable - 1);
    let replacement = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 4)
        .expect("freed domain is reusable");
    assert_eq!(
        p.cvm.monitor.sandboxes.get(&replacement.0).expect("live").domain,
        freed,
        "recycled the revoked domain"
    );

    let report = p.audit();
    assert!(report.is_clean(), "{}", report.json());
}

// ====================================================================
// Tentpole: the keyed backend lifts the ceiling
// ====================================================================

/// The headline: 256 concurrently-live sandboxes — 16× the whole PKS key
/// space — each with a confined page tagged by its own key-ID, all in
/// one machine, and the full state audit stays green. Every confined
/// leaf carries the domain's key-ID and the frame's programmed key
/// matches (the PCONFIG pairing the keyed walk check enforces).
#[test]
fn keyed_backend_confines_256_sandboxes() {
    let mut p = booted_fleet(BackendKind::TmeMk);
    let mut domains = std::collections::BTreeSet::new();
    for _ in 0..256 {
        p.enter_kernel_mode();
        let id = p
            .cvm
            .monitor
            .create_sandbox(&mut p.cvm.machine, 0, 8)
            .expect("create");
        p.cvm
            .monitor
            .emc(
                &mut p.cvm.machine,
                &mut p.cvm.tdx,
                0,
                EmcRequest::DeclareConfined {
                    sandbox: id.0,
                    va: CONFINED_VA,
                    pages: 1,
                    executable: false,
                },
            )
            .expect("declare confined");
        let s = p.cvm.monitor.sandboxes.get(&id.0).expect("live");
        domains.insert(s.domain.0);
        let leaf = paging::lookup_raw(&p.cvm.machine.mem, s.root, CONFINED_VA)
            .expect("walk")
            .expect("confined page mapped");
        assert_eq!(leaf.keyid(), s.domain.0, "leaf tagged with the domain key-ID");
        assert_eq!(
            p.cvm.machine.mem.frame_key(leaf.frame()),
            s.domain.0,
            "frame key programmed to match"
        );
    }
    assert_eq!(domains.len(), 256, "256 distinct key-ID domains");
    assert!(p.cvm.monitor.backend.live_domains() >= 256);
    assert!(
        p.cvm.monitor.backend.capacity() > p.cvm.monitor.backend.live_domains(),
        "keyed capacity has headroom left"
    );
    let report = p.audit();
    assert!(report.is_clean(), "{}", report.json());
}

// ====================================================================
// Satellite: the kill-teardown fence and its ablation
// ====================================================================

/// Create a sandbox with *zero* confined pages (so teardown issues no
/// per-VA shootdowns — the worst case for the fence), park victim core 1
/// on the sandbox's CR3 with a cached translation under it, then kill
/// the sandbox. Returns whether core 1 still holds that TLB entry and
/// the live-domain counts before and after the kill.
fn kill_with_fence(kill_fence: bool) -> (bool, u16, u16) {
    let mut p = booted_with(BackendKind::Pks);
    p.cvm.monitor.kill_fence = kill_fence;
    p.enter_kernel_mode();
    let id = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 4)
        .expect("create");
    let root = p.cvm.monitor.sandboxes.get(&id.0).expect("live").root;

    // Victim core 1 runs (deprivileged-kernel mode) on the sandbox's
    // address space and caches a translation tagged with that CR3.
    p.cvm.machine.cpus[1].mode = CpuMode::Supervisor;
    p.cvm.machine.cpus[1].domain = Domain::Kernel;
    p.cvm.machine.cpus[1].cr3 = root;
    p.cvm.machine.flush_tlb(1);
    p.cvm
        .machine
        .probe(1, KERNEL_BASE, AccessKind::Read)
        .expect("kernel text readable");
    assert!(
        p.cvm.machine.tlbs[1]
            .lookup(root, KERNEL_BASE, AccessKind::Read)
            .is_some(),
        "translation cached under the sandbox's CR3"
    );

    let live_before = p.cvm.monitor.backend.live_domains();
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, id, "fence test");
    (
        p.cvm.machine.tlbs[1]
            .lookup(root, KERNEL_BASE, AccessKind::Read)
            .is_some(),
        live_before,
        p.cvm.monitor.backend.live_domains(),
    )
}

/// Red half: with the fence ablated, a zero-confined-page kill issues no
/// shootdown — core 1 still holds a live TLB entry for the dead
/// sandbox's CR3 — and the isolation domain is never revoked.
#[test]
fn kill_without_fence_leaves_stale_decisions_and_leaks_the_domain() {
    let (stale_entry, live_before, live_after) = kill_with_fence(false);
    assert!(
        stale_entry,
        "core 1 still caches a translation under the dead CR3"
    );
    assert_eq!(live_after, live_before, "the domain leaked");
}

/// Green half: the fence revokes the domain. It is not a TLB operation:
/// the entry under the dead CR3 stays until core 1's next CR3 load
/// flushes it, exactly as with the fence ablated.
#[test]
fn kill_fence_frees_the_domain() {
    let (stale_entry, live_before, live_after) = kill_with_fence(true);
    assert!(stale_entry, "the fence leaves TLBs to the next CR3 load");
    assert_eq!(live_after, live_before - 1, "domain revoked");
}

/// The leak compounds: without the fence, PKS create/kill churn runs the
/// key space dry even though at most one sandbox is ever alive. With the
/// fence, the same churn runs indefinitely.
#[test]
fn churn_without_fence_exhausts_pks_domains() {
    let mut p = booted_with(BackendKind::Pks);
    p.cvm.monitor.kill_fence = false;
    p.enter_kernel_mode();
    for _ in 0..10 {
        let id = p
            .cvm
            .monitor
            .create_sandbox(&mut p.cvm.machine, 0, 4)
            .expect("pre-exhaustion create");
        p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, id, "churn");
    }
    let err = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 4)
        .expect_err("leaked domains exhaust the key space");
    assert!(matches!(err, EmcError::DomainsExhausted { .. }));
}

#[test]
fn churn_with_fence_never_exhausts_pks_domains() {
    let mut p = booted_with(BackendKind::Pks);
    p.enter_kernel_mode();
    for _ in 0..32 {
        let id = p
            .cvm
            .monitor
            .create_sandbox(&mut p.cvm.machine, 0, 4)
            .expect("churn create");
        p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, id, "churn");
    }
    assert_eq!(p.cvm.monitor.backend.live_domains(), 0);
}
