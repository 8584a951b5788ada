//! The stale-translation window around page-table downgrades.
//!
//! A PTE store is invisible to translations already cached in a TLB; until
//! someone invalidates, a sandbox (or the kernel) keeps reading through
//! the *old* mapping. The negative tests demonstrate the attack — a PTE
//! zeroed in DRAM without a shootdown stays readable — and the positive
//! tests show the monitor's EMC paths close the window, including across
//! cores.

use erebor::eanalyze::detect_races;
use erebor::{Mode, Platform, TraceEvent};
use erebor_core::emc::{EmcRequest, EmcResponse};
use erebor_hw::cpu::Domain;
use erebor_hw::fault::{AccessKind, PfReason};
use erebor_hw::layout::direct_map;
use erebor_hw::{paging, CpuMode, Frame, VirtAddr};

const VA: VirtAddr = VirtAddr(0x40_0000);

/// Boot Full, create a fresh user address space through EMC, and map one
/// writable page at [`VA`].
fn platform_with_user_page() -> (Platform, Frame) {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    p.enter_kernel_mode();
    let root = match p.cvm.monitor.emc(
        &mut p.cvm.machine,
        &mut p.cvm.tdx,
        0,
        EmcRequest::CreateAddressSpace { asid: 77 },
    ) {
        Ok(EmcResponse::Root(r)) => r,
        other => panic!("create address space: {other:?}"),
    };
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::MapUserPage {
                root,
                va: VA,
                frame: None,
                writable: true,
                executable: false,
            },
        )
        .expect("map user page");
    (p, root)
}

/// Wake `cpu` and put it in user mode running `root`, with a clean TLB.
fn run_user(p: &mut Platform, cpu: usize, root: Frame) {
    p.cvm.machine.wake(cpu);
    p.cvm.machine.cpus[cpu].cr3 = root;
    p.cvm.machine.flush_tlb(cpu);
    p.cvm.machine.cpus[cpu].mode = CpuMode::User;
    p.cvm.machine.cpus[cpu].domain = Domain::User;
}

#[test]
fn stale_translation_survives_a_raw_pte_zero_without_shootdown() {
    let (mut p, root) = platform_with_user_page();
    run_user(&mut p, 0, root);
    p.cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect("mapped page readable");

    // A buggy (or bypassed) monitor zeroes the PTE in DRAM and *forgets*
    // the shootdown — the DMA-style backdoor write models exactly that.
    let slot = paging::leaf_slot(&p.cvm.machine.mem, root, VA)
        .expect("walk")
        .expect("leaf slot");
    p.cvm.machine.mem.write_u64(slot, 0).expect("backdoor store");
    assert!(
        paging::lookup_raw(&p.cvm.machine.mem, root, VA)
            .expect("walk")
            .is_none(),
        "the mapping is gone from the tables"
    );

    // ...and yet the sandbox still reads through the cached translation.
    p.cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect("stale TLB entry still serves the unmapped page");

    // Only an explicit invalidation closes the window.
    p.cvm.machine.cpus[0].mode = CpuMode::Supervisor;
    p.cvm.machine.invalidate_page(0, VA).expect("invlpg");
    p.cvm.machine.cpus[0].mode = CpuMode::User;
    let err = p
        .cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect_err("after invlpg the unmap is visible");
    assert!(err.is_pf(PfReason::NotPresent), "{err:?}");
}

#[test]
fn monitor_unmap_shoots_down_the_local_core() {
    let (mut p, root) = platform_with_user_page();
    run_user(&mut p, 0, root);
    p.cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect("mapped page readable");

    // The real path: the kernel delegates the unmap; the monitor's EMC
    // handler both clears the PTE and invalidates.
    p.enter_kernel_mode();
    let before = p.cvm.machine.stats.tlb_page_invalidations;
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::UnmapUserPage { root, va: VA },
        )
        .expect("delegated unmap");
    assert!(
        p.cvm.machine.stats.tlb_page_invalidations > before,
        "the monitor owes an invalidation with the PTE clear"
    );

    p.cvm.machine.cpus[0].mode = CpuMode::User;
    p.cvm.machine.cpus[0].domain = Domain::User;
    let err = p
        .cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect_err("no stale window after a delegated unmap");
    assert!(err.is_pf(PfReason::NotPresent), "{err:?}");
}

#[test]
fn monitor_unmap_shoots_down_remote_cores_running_the_address_space() {
    let (mut p, root) = platform_with_user_page();
    // Core 1 runs the sandbox's address space and caches the translation;
    // core 0 stays in the kernel.
    run_user(&mut p, 1, root);
    p.cvm
        .machine
        .probe(1, VA, AccessKind::Read)
        .expect("mapped page readable on core 1");

    p.enter_kernel_mode();
    let before = p.cvm.machine.stats.tlb_shootdown_ipis;
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::UnmapUserPage { root, va: VA },
        )
        .expect("delegated unmap");
    assert_eq!(
        p.cvm.machine.stats.tlb_shootdown_ipis,
        before + 1,
        "core 1 holds the address space and must be IPI'd"
    );

    let err = p
        .cvm
        .machine
        .probe(1, VA, AccessKind::Read)
        .expect_err("core 1 must not read through the dead mapping");
    assert!(err.is_pf(PfReason::NotPresent), "{err:?}");
}

#[test]
fn permission_downgrade_is_visible_without_an_address_space_reload() {
    // ProtectUserPage(writable=false) must invalidate: a cached writable
    // translation outliving the downgrade would let the sandbox keep
    // scribbling a sealed page.
    let (mut p, root) = platform_with_user_page();
    run_user(&mut p, 0, root);
    p.cvm
        .machine
        .probe(0, VA, AccessKind::Write)
        .expect("page starts writable");

    p.enter_kernel_mode();
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::ProtectUserPage {
                root,
                va: VA,
                writable: false,
            },
        )
        .expect("downgrade");

    p.cvm.machine.cpus[0].mode = CpuMode::User;
    p.cvm.machine.cpus[0].domain = Domain::User;
    let err = p
        .cvm
        .machine
        .probe(0, VA, AccessKind::Write)
        .expect_err("write must fault immediately after the downgrade");
    assert!(err.is_pf(PfReason::NotWritable), "{err:?}");
    p.cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect("reads still fine");
}

// --------------------------------------------------------------------
// Gathered shootdowns: one IPI round per confine and per teardown
// --------------------------------------------------------------------

/// Confined pages per declaration: past the 32-page full-flush ceiling.
const CONFINED_PAGES: u64 = 40;
const CONFINED_VA: VirtAddr = VirtAddr(0x60_0000);

/// Create a sandbox whose first confined page is already declared, so
/// every page table under [`CONFINED_VA`]'s 2 MiB window exists. The
/// page-table retypes of a first mapping keep their own immediate
/// shootdowns (each new table is written straight after its retag);
/// the counts below are about the confined aliases alone.
fn sandbox_with_tables(p: &mut Platform) -> erebor_core::sandbox::SandboxId {
    p.enter_kernel_mode();
    let id = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 2 * CONFINED_PAGES)
        .expect("create sandbox");
    declare(p, id, CONFINED_VA, 1).expect("first page");
    id
}

fn declare(
    p: &mut Platform,
    id: erebor_core::sandbox::SandboxId,
    va: VirtAddr,
    pages: u64,
) -> Result<EmcResponse, erebor_core::emc::EmcError> {
    p.enter_kernel_mode();
    p.cvm.monitor.emc(
        &mut p.cvm.machine,
        &mut p.cvm.tdx,
        0,
        EmcRequest::DeclareConfined {
            sandbox: id.0,
            va,
            pages,
            executable: false,
        },
    )
}

/// Wake `cpu` and put it in the kernel (supervisor, normal-mode PKRS)
/// with a clean TLB.
fn run_kernel(p: &mut Platform, cpu: usize) {
    p.cvm.machine.wake(cpu);
    p.cvm.machine.flush_tlb(cpu);
    p.cvm.machine.cpus[cpu].mode = CpuMode::Supervisor;
    p.cvm.machine.cpus[cpu].domain = Domain::Kernel;
}

#[test]
fn declare_confined_pays_one_ipi_round() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let cores = p.cvm.machine.cpus.len() as u64;
    let id = sandbox_with_tables(&mut p);
    // Wake the remote cores: a parked core takes no IPI, so with them
    // parked the count below would be 0 whatever the round structure.
    for cpu in 1..cores as usize {
        run_kernel(&mut p, cpu);
    }
    let before = p.cvm.machine.stats.tlb_shootdown_ipis;
    declare(&mut p, id, VirtAddr(CONFINED_VA.0 + 0x1000), CONFINED_PAGES).expect("declare");
    let sent = p.cvm.machine.stats.tlb_shootdown_ipis - before;
    // One round reaches the awake remote cores, at most one IPI each: C - 1.
    assert!(
        0 < sent && sent < cores,
        "{CONFINED_PAGES} confined aliases cost {sent} IPIs on {cores} cores"
    );
}

#[test]
fn kill_pays_at_most_two_ipi_rounds() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let cores = p.cvm.machine.cpus.len() as u64;
    let id = sandbox_with_tables(&mut p);
    declare(&mut p, id, VirtAddr(CONFINED_VA.0 + 0x1000), CONFINED_PAGES).expect("declare");
    // Core 1 runs the sandbox, so the user-page round has a target too.
    let root = p.cvm.monitor.sandboxes.get(&id.0).expect("sandbox").root;
    run_user(&mut p, 1, root);
    let before = p.cvm.machine.stats.tlb_shootdown_ipis;
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, id, "teardown count");
    let sent = p.cvm.machine.stats.tlb_shootdown_ipis - before;
    assert!(sent >= 1, "core 1 runs the dead root and must be IPI'd");
    assert!(
        sent <= 2 * (cores - 1),
        "a kill of {} confined pages cost {sent} IPIs on {cores} cores",
        CONFINED_PAGES + 1
    );
}

/// Kill a sandbox holding [`CONFINED_PAGES`] + 1 frames and return them:
/// first-fit CMA allocation hands exactly these frames to the next
/// declaration of the same size.
fn recycled_frames(p: &mut Platform) -> Vec<Frame> {
    let id = sandbox_with_tables(p);
    declare(p, id, VirtAddr(CONFINED_VA.0 + 0x1000), CONFINED_PAGES).expect("declare");
    let frames = confined_frames(p, id);
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, id, "recycle");
    frames
}

fn confined_frames(p: &Platform, id: erebor_core::sandbox::SandboxId) -> Vec<Frame> {
    let sandbox = p.cvm.monitor.sandboxes.get(&id.0).expect("sandbox");
    sandbox.confined.iter().map(|&(_, f)| f).collect()
}

/// Core 1, in the kernel, caches the direct-map alias of each frame.
fn cache_aliases(p: &mut Platform, frames: &[Frame]) {
    run_kernel(p, 1);
    for f in frames {
        p.cvm
            .machine
            .probe(1, direct_map(f.base()), AccessKind::Read)
            .expect("a free frame's alias is kernel-readable");
    }
}

#[test]
fn stale_direct_map_alias_dies_with_declare_confined() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let frames = recycled_frames(&mut p);
    cache_aliases(&mut p, &frames);
    let id = sandbox_with_tables(&mut p);
    declare(&mut p, id, VirtAddr(CONFINED_VA.0 + 0x1000), CONFINED_PAGES).expect("declare");
    let confined = confined_frames(&p, id);
    assert!(
        confined.iter().all(|f| frames.contains(f)),
        "the new sandbox reuses the recycled frames"
    );
    for f in confined {
        let err = p
            .cvm
            .machine
            .probe(1, direct_map(f.base()), AccessKind::Read)
            .expect_err("the kernel's cached alias must not outlive the confine");
        assert!(err.is_pf(PfReason::PksAccessDisabled), "{err:?}");
    }
}

struct DropAllIpis;

impl erebor_hw::inject::Injector for DropAllIpis {
    fn drop_shootdown_ipi(&mut self, _initiator: usize, _target: usize) -> bool {
        true
    }
}

#[test]
fn dropped_confine_round_is_a_tolerated_ledger_row() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let frames = recycled_frames(&mut p);
    cache_aliases(&mut p, &frames);
    let id = sandbox_with_tables(&mut p);
    p.install_injector(erebor_hw::inject::handle(DropAllIpis));
    declare(&mut p, id, VirtAddr(CONFINED_VA.0 + 0x1000), CONFINED_PAGES).expect("declare");
    p.clear_injector();
    assert!(
        p.cvm.machine.pending_asid_shootdowns().contains(&(1, 0)),
        "the dropped broadcast round must leave a (core 1, all roots) row: {:?}",
        p.cvm.machine.pending_asid_shootdowns()
    );
    let report = p.audit();
    assert!(report.is_clean(), "{}", report.json());
}

// --------------------------------------------------------------------
// Parked cores: no IPI to an idle vCPU, one owed flush at its wake
// --------------------------------------------------------------------

fn ipis(p: &Platform) -> u64 {
    p.cvm.machine.stats.tlb_shootdown_ipis
}

/// Targets of the shootdown IPIs sent since trace sequence `seq`.
fn ipi_targets_since(p: &Platform, seq: u64) -> Vec<u32> {
    p.cvm
        .machine
        .trace
        .last_n(p.cvm.machine.trace.len())
        .iter()
        .filter(|r| r.seq >= seq)
        .filter_map(|r| match r.event {
            TraceEvent::IpiSent { to } => Some(to),
            _ => None,
        })
        .collect()
}

fn next_seq(p: &Platform) -> u64 {
    p.cvm
        .machine
        .trace
        .last_n(1)
        .first()
        .map_or(0, |r| r.seq + 1)
}

/// One timer tick's housekeeping on core 0; returns `(EMCs, IPIs)`.
fn tick(p: &mut Platform) -> (u64, u64) {
    let (emcs, sent) = (p.cvm.monitor.stats.emc_calls, ipis(p));
    p.enter_kernel_mode();
    let mut hw = erebor_kernel::Hw {
        machine: &mut p.cvm.machine,
        tdx: &mut p.cvm.tdx,
        monitor: &mut p.cvm.monitor,
        cpu: 0,
    };
    p.kernel.on_timer(&mut hw);
    (p.cvm.monitor.stats.emc_calls - emcs, ipis(p) - sent)
}

#[test]
fn boot_parks_every_core_but_the_driving_one() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let cores = p.cvm.machine.cpus.len();
    assert_eq!(cores, 8);
    assert!(!p.cvm.machine.parked(0));
    assert!((1..cores).all(|cpu| p.cvm.machine.parked(cpu)));
    p.set_active_cpu(3);
    assert!(!p.cvm.machine.parked(3), "selecting a core wakes it");
    assert!(p.cvm.machine.parked(2));
}

#[test]
fn parked_cores_take_no_shootdown_ipis() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let cores = p.cvm.machine.cpus.len();
    let id = sandbox_with_tables(&mut p);
    let before = ipis(&p);
    declare(&mut p, id, VirtAddr(CONFINED_VA.0 + 0x1000), CONFINED_PAGES).expect("declare");
    assert_eq!(ipis(&p), before, "DeclareConfined");
    p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, id, "parked");
    assert_eq!(ipis(&p), before, "kill");

    // The tick's housekeeping unmaps on kernel_root, which every parked
    // core has held since boot: no IPI, and still one EMC per map/unmap.
    p.spawn_native().expect("spawn");
    let (emcs, sent) = tick(&mut p);
    assert_eq!(sent, 0, "tick-style UnmapUserPage on kernel_root");
    assert_eq!(emcs, 70, "34 map/unmap pairs plus 2 MSR writes");
    assert!((1..cores).all(|cpu| p.cvm.machine.flush_owed(cpu)));
    let report = p.audit();
    assert!(report.is_clean(), "{}", report.json());

    // With every core awake the same tick makes the same EMCs and pays
    // the IPIs.
    for cpu in 1..cores {
        p.set_active_cpu(cpu);
    }
    p.set_active_cpu(0);
    let (emcs_awake, sent_awake) = tick(&mut p);
    assert_eq!(emcs_awake, emcs);
    assert!(sent_awake >= 34 * (cores as u64 - 1), "{sent_awake} IPIs");
}

#[test]
fn kill_of_a_sandbox_running_on_a_woken_core_pays_one_ipi_per_round() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let id = sandbox_with_tables(&mut p);
    declare(&mut p, id, VirtAddr(CONFINED_VA.0 + 0x1000), CONFINED_PAGES).expect("declare");
    let root = p.cvm.monitor.sandboxes.get(&id.0).expect("sandbox").root;
    p.set_active_cpu(1);
    run_user(&mut p, 1, root);
    p.cvm
        .machine
        .probe(1, CONFINED_VA, AccessKind::Read)
        .expect("the sandbox reads its confined page");
    p.set_active_cpu(0);
    let (before, seq) = (ipis(&p), next_seq(&p));
    p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, id, "woken core");
    // One user-page round (core 1 runs the dead root) and one broadcast
    // alias round: core 1 is the only awake remote core in each.
    assert_eq!(ipis(&p) - before, 2);
    assert_eq!(ipi_targets_since(&p, seq), vec![1, 1]);
    let err = p
        .cvm
        .machine
        .probe(1, CONFINED_VA, AccessKind::Read)
        .expect_err("core 1 must not read the dead sandbox's page");
    assert!(err.is_pf(PfReason::NotPresent), "{err:?}");
}

#[test]
fn stale_alias_on_a_parked_core_is_flushed_at_wake() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let frames = recycled_frames(&mut p);
    p.cvm.machine.mmu_trace = true;
    cache_aliases(&mut p, &frames);
    p.cvm.machine.park(1);
    let id = sandbox_with_tables(&mut p);
    let before = ipis(&p);
    declare(&mut p, id, VirtAddr(CONFINED_VA.0 + 0x1000), CONFINED_PAGES).expect("declare");
    assert_eq!(ipis(&p), before, "no IPI to the parked core");
    let confined = confined_frames(&p, id);
    assert!(confined.iter().all(|f| frames.contains(f)));

    // Parked: the stale aliases are still cached, and tolerated because
    // core 1 owes a flush.
    assert!(p.cvm.machine.parked(1) && p.cvm.machine.flush_owed(1));
    assert!(p.cvm.machine.tlbs[1].occupancy() > 0);
    let report = p.audit();
    assert!(report.is_clean(), "{}", report.json());

    // The first access after waking pays the flush, then faults.
    let flushes = p.cvm.machine.stats.tlb_flushes;
    for f in confined {
        let err = p
            .cvm
            .machine
            .probe(1, direct_map(f.base()), AccessKind::Read)
            .expect_err("the parked core's cached alias must not outlive the confine");
        assert!(err.is_pf(PfReason::PksAccessDisabled), "{err:?}");
    }
    assert!(!p.cvm.machine.parked(1) && !p.cvm.machine.flush_owed(1));
    assert_eq!(p.cvm.machine.stats.tlb_flushes, flushes + 1, "one owed flush");
    let records = p.cvm.machine.trace.last_n(p.cvm.machine.trace.len());
    let findings = detect_races(&records, p.cvm.machine.cpus.len());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn run_helpers_wake_the_core_they_drive() {
    let (mut p, root) = platform_with_user_page();
    assert!(p.cvm.machine.parked(1) && p.cvm.machine.parked(2));
    run_user(&mut p, 1, root);
    run_kernel(&mut p, 2);
    assert!(!p.cvm.machine.parked(1) && !p.cvm.machine.parked(2));
    assert!(p.cvm.machine.parked(3));
}
