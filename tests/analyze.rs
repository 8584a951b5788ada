//! Red-team tests for `erebor-analyze`: every auditor check is exercised
//! with a deliberately corrupted snapshot (asserting exactly that check
//! fires) next to a clean snapshot (asserting none do), and the
//! happens-before race detector is shown reproducing the hand-written
//! stale-TLB attack from `tests/tlb_shootdown.rs` unprompted, from the
//! machine trace alone. Every corrupted snapshot is also audited by the
//! exhaustive oracle in `support/audit_oracle.rs`, which the memoised
//! walk must match finding for finding.

#[path = "support/audit_oracle.rs"]
mod audit_oracle;

use erebor::eanalyze::{detect_races, Finding};
use erebor::ecore::emc::{EmcRequest, EmcResponse};
use erebor::ecore::policy::{self, FrameKind};
use erebor::ehw::cpu::Domain;
use erebor::ehw::fault::AccessKind;
use erebor::ehw::idt::{self, vector, Idtr};
use erebor::ehw::isolation::BackendKind;
use erebor::ehw::layout;
use erebor::ehw::paging::{self, intermediate_for, map_raw, Pte, PteFlags};
use erebor::ehw::regs::Cr0;
use erebor::ehw::{CpuMode, Frame, PhysAddr, VirtAddr};
use erebor::{Mode, Platform, TraceEvent, TraceRecord};

/// A kernel-half VA far from anything boot maps (text, data, direct map).
const SCRATCH_VA: VirtAddr = VirtAddr(layout::KERNEL_BASE.0 + 0x4000_0000);
const USER_VA: VirtAddr = VirtAddr(0x40_0000);

fn booted() -> Platform {
    // `boot` itself runs the auditor and fails on findings, so every
    // successful boot doubles as the clean-snapshot half of each test.
    Platform::boot(Mode::Full).expect("boot")
}

/// Boot Full under a specific isolation backend (the corrupted-snapshot
/// suite runs generically over `Pks | TmeMk`).
fn booted_with(backend: BackendKind) -> Platform {
    let mut config = erebor::ExecConfig::new(Mode::Full);
    config.backend = backend;
    let cfg = erebor::BootConfig {
        config,
        ..erebor::BootConfig::default()
    };
    Platform::boot_with(cfg).expect("boot")
}

/// Run a corrupted-snapshot body under both backends: the findings
/// semantics (which check fires, and that only it fires) must be
/// identical whether confinement is PKS pkeys or TME-MK key-IDs.
fn for_both_backends(body: impl Fn(&mut Platform)) {
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let mut p = booted_with(backend);
        body(&mut p);
    }
}

/// Audit `p`, holding the memoised walk to the exhaustive oracle.
fn audited(p: &Platform) -> Vec<Finding> {
    let report = p.audit();
    audit_oracle::assert_agrees(p, &report);
    report.findings
}

fn only_check(findings: &[Finding], check: &str) {
    assert!(
        findings.iter().any(|f| f.check == check),
        "expected a {check} finding, got {findings:?}"
    );
    assert!(
        findings.iter().all(|f| f.check == check),
        "expected only {check} findings, got {findings:?}"
    );
}

// ====================================================================
// Clean snapshots
// ====================================================================

#[test]
fn boot_snapshot_audits_clean() {
    for_both_backends(|p| {
        let report = p.audit();
        audit_oracle::assert_agrees(p, &report);
        assert!(report.is_clean(), "{}", report.json());
        assert!(report.roots_walked >= 1);
        assert!(report.leaf_mappings > 0);
        assert!(report.idt_entries > 0);
        assert!(report.work() > 0);
    });
}

/// Regression for the seed bug the auditor caught: the syscall and
/// interrupt interposers are hardware entry points into the monitor and
/// must be `endbr64` landing pads (the monitor image only tagged the EMC
/// gate).
#[test]
fn hardware_entry_points_are_endbr_pads() {
    let p = booted();
    let mon = &p.cvm.monitor;
    for (what, va) in [
        ("gate entry", mon.gate.entry),
        ("syscall interposer", mon.syscall_interposer),
        ("interrupt interposer", mon.interrupt_interposer),
    ] {
        assert!(
            p.cvm.machine.endbr.is_target(va),
            "{what} {va:?} must be an ENDBR pad"
        );
    }
}

// ====================================================================
// Corrupted snapshots: one per auditor check
// ====================================================================

#[test]
fn c1_writable_executable_mapping_is_flagged() {
    for_both_backends(|p| {
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        // present + writable + executable (nx unset): the W^X violation.
        let wx = PteFlags {
            present: true,
            writable: true,
            ..PteFlags::default()
        };
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(f, wx),
            intermediate_for(PteFlags::kernel_rw(0)),
        )
        .expect("map");
        only_check(&audited(p), "wx-exclusive");
    });
}

#[test]
fn c2_monitor_frame_under_default_key_is_flagged() {
    for_both_backends(|p| {
        // Alias the monitor's text frame into the kernel half read-only
        // under the *default* key — normal mode could then read monitor
        // memory.
        let mon_frame = paging::lookup_raw(
            &p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            layout::MONITOR_BASE,
        )
        .expect("walk")
        .expect("monitor text mapped")
        .frame();
        assert_eq!(p.cvm.monitor.frames.kind(mon_frame), FrameKind::Monitor);
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(mon_frame, PteFlags::kernel_ro(policy::PK_DEFAULT)),
            intermediate_for(PteFlags::kernel_ro(0)),
        )
        .expect("map");
        only_check(&audited(p), "pkey-tagging");
    });
}

/// C2, keyed half: a live sandbox's confined frame aliased with the right
/// pkey but the *wrong key-ID* (or wrong pkey under PKS) is a tagging
/// violation — the backend decides what the correct `(pkey, keyid)` tag
/// is, and the auditor holds every confined alias to it.
#[test]
fn c2_confined_frame_with_wrong_domain_tag_is_flagged() {
    for_both_backends(|p| {
        p.enter_kernel_mode();
        let budget = 4;
        let id = p
            .cvm
            .monitor
            .create_sandbox(&mut p.cvm.machine, 0, budget)
            .expect("create sandbox");
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        p.cvm
            .monitor
            .frames
            .set_kind(f, FrameKind::Confined { sandbox: id.0 })
            .expect("typed");
        // Tag the alias as ordinary kernel data with key-ID zero: under
        // PKS the pkey is wrong, under TME-MK the key-ID is wrong (the
        // frame's hardware key was never programmed, so the keyed walk
        // check also sees a mismatch). Both must surface as findings.
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(f, PteFlags::kernel_ro(policy::PK_DEFAULT)),
            intermediate_for(PteFlags::kernel_ro(0)),
        )
        .expect("map");
        let findings = audited(p);
        assert!(
            findings
                .iter()
                .any(|f| f.check == "pkey-tagging" || f.check == "confined-unreachable"),
            "wrong domain tag must be flagged: {findings:?}"
        );
    });
}

/// A live sandbox with one declared confined page, and that page's frame.
fn sandbox_with_confined_page(p: &mut Platform) -> (erebor::ecore::sandbox::SandboxId, Frame) {
    p.enter_kernel_mode();
    let id = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 4)
        .expect("create sandbox");
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::DeclareConfined {
                sandbox: id.0,
                va: USER_VA,
                pages: 1,
                executable: false,
            },
        )
        .expect("declare");
    let sandbox = p.cvm.monitor.sandboxes.get(&id.0).expect("sandbox");
    (id, sandbox.confined[0].1)
}

#[test]
fn c3_confined_frame_reachable_from_kernel_root_is_flagged() {
    for_both_backends(|p| {
        // A properly owned and tagged confined frame, mapped a second
        // time into the kernel's own tree as a user page.
        let (_, f) = sandbox_with_confined_page(p);
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            USER_VA,
            Pte::encode(f, PteFlags::user_ro()),
            intermediate_for(PteFlags::user_ro()),
        )
        .expect("map");
        only_check(&audited(p), "confined-unreachable");
    });
    for_both_backends(|p| {
        // A supervisor alias normal mode can read: the kernel reading
        // confined memory through its own mapping. The frame's owner,
        // sandbox 9, does not exist, which C8 flags as well.
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        p.cvm
            .monitor
            .frames
            .set_kind(f, FrameKind::Confined { sandbox: 9 })
            .expect("typed");
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(f, PteFlags::kernel_ro(policy::PK_DEFAULT)),
            intermediate_for(PteFlags::kernel_ro(0)),
        )
        .expect("map");
        let findings = audited(p);
        assert!(
            findings.iter().any(|f| f.check == "confined-unreachable"),
            "supervisor alias must be flagged: {findings:?}"
        );
        assert!(
            findings
                .iter()
                .all(|f| f.check == "confined-unreachable" || f.check == "ledger-consistency"),
            "expected only C3 and the orphan's C8 finding, got {findings:?}"
        );
    });
}

#[test]
fn c4_writable_shadow_stack_frame_is_flagged() {
    for_both_backends(|p| {
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        p.cvm
            .monitor
            .frames
            .set_kind(f, FrameKind::ShadowStack)
            .expect("typed");
        // Retag the frame's direct-map alias the way boot does for real
        // shadow-stack frames, so only the corrupted scratch mapping
        // below is wrong.
        let dm_slot = paging::leaf_slot(
            &p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            layout::direct_map(erebor::ehw::PhysAddr(f.0 << 12)),
        )
        .expect("walk")
        .expect("direct-map leaf");
        p.cvm
            .machine
            .mem
            .write_u64(dm_slot, Pte::encode(f, PteFlags::kernel_ro(policy::PK_SSTK)).0)
            .expect("retag");
        // Writable under a non-SSTK, non-monitor key (kernel-text key
        // keeps the weak pkey-tagging check quiet, isolating the sstk
        // finding).
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(f, PteFlags::kernel_rw(policy::PK_KTEXT)),
            intermediate_for(PteFlags::kernel_rw(0)),
        )
        .expect("map");
        only_check(&audited(p), "sstk-protected");
    });
}

#[test]
fn c5_idt_vector_rewritten_into_kernel_half_is_flagged() {
    for_both_backends(|p| {
        let idtr = Idtr {
            base: p.cvm.monitor.idt_base,
        };
        // A DMA-style backdoor store retargets the timer vector at kernel
        // text — delivery would bypass the monitor's #INT interposer.
        idt::write_entry_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            idtr,
            vector::TIMER,
            VirtAddr(layout::KERNEL_BASE.0 + 0x100),
        )
        .expect("backdoor IDT store");
        only_check(&audited(p), "control-transfer");
    });
}

#[test]
fn c6_cleared_wp_is_flagged() {
    for_both_backends(|p| {
        p.cvm.machine.cpus[1].cr0 = Cr0(Cr0::PG); // WP off under paging
        only_check(&audited(p), "msr-pinning");
    });
}

#[test]
fn c7_shared_device_frame_still_private_is_flagged() {
    for_both_backends(|p| {
        // A frame typed SharedDevice that is still sEPT-private: the
        // frame table and the sEPT disagree, and the direct-map alias
        // already makes it a mapped frame the walk visits.
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        p.cvm
            .monitor
            .frames
            .set_kind(f, FrameKind::SharedDevice)
            .expect("typed");
        p.cvm.tdx.sept.accept_private(f);
        only_check(&audited(p), "sept-consistency");
    });
}

#[test]
fn c8_stale_tlb_entry_after_backdoor_unmap_is_flagged() {
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let (mut p, root) = platform_with_user_page_on(backend);
        run_user(&mut p, 0, root);
        p.cvm
            .machine
            .probe(0, USER_VA, AccessKind::Read)
            .expect("cache the translation");
        // Zero the PTE without any shootdown: the cached entry is now a
        // ledger inconsistency (no pending-shootdown record explains it).
        let slot = paging::leaf_slot(&p.cvm.machine.mem, root, USER_VA)
            .expect("walk")
            .expect("leaf");
        p.cvm.machine.mem.write_u64(slot, 0).expect("backdoor store");
        only_check(&audited(&p), "ledger-consistency");
    }
}

#[test]
fn c8_confined_frame_the_sandbox_does_not_own_is_flagged() {
    for_both_backends(|p| {
        // Dropped from the owner's list: no kill would ever release it.
        let (id, _) = sandbox_with_confined_page(p);
        assert!(audited(p).is_empty());
        let sandbox = p.cvm.monitor.sandboxes.get_mut(&id.0).expect("sandbox");
        sandbox.confined.clear();
        only_check(&audited(p), "ledger-consistency");
    });
    for_both_backends(|p| {
        // Owner marked dead without its teardown running.
        let (id, _) = sandbox_with_confined_page(p);
        let sandbox = p.cvm.monitor.sandboxes.get_mut(&id.0).expect("sandbox");
        sandbox.state = erebor::ecore::sandbox::SandboxState::Dead;
        only_check(&audited(p), "ledger-consistency");
    });
}

// ====================================================================
// The memoised walk: shared subtrees, per-root verdicts
// ====================================================================

/// Every root the audit walks, sorted: the kernel root, registered
/// address spaces and sandbox roots.
fn audited_roots(p: &Platform) -> Vec<u64> {
    let mon = &p.cvm.monitor;
    let mut roots: Vec<u64> = mon.address_space_roots().iter().map(|r| r.0).collect();
    roots.extend(mon.sandboxes.values().map(|s| s.root.0));
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// The hex number following `key` in a finding's detail (`"root 0x"`,
/// `"va 0x"`).
fn hex_after(detail: &str, key: &str) -> u64 {
    let hex = detail
        .split(key)
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no {key:?} in {detail}"));
    u64::from_str_radix(hex, 16).expect("hex field")
}

/// The roots named by the `check` findings whose detail starts with
/// `text`, in emission order.
fn roots_named(findings: &[Finding], check: &str, text: &str) -> Vec<u64> {
    findings
        .iter()
        .filter(|f| f.check == check && f.detail.starts_with(text))
        .map(|f| hex_after(&f.detail, "root 0x"))
        .collect()
}

/// The slot of `va`'s entry at `level` (4 = PML4) under `root`.
fn entry_slot(p: &Platform, root: Frame, va: VirtAddr, level: u8) -> PhysAddr {
    let mut tbl = root;
    for l in (level + 1..=4).rev() {
        let raw = p.cvm.machine.mem.read_u64(paging::pte_slot(tbl, va, l)).expect("slot");
        assert!(Pte(raw).present(), "level-{l} entry for {va:?} present");
        tbl = Pte(raw).frame();
    }
    paging::pte_slot(tbl, va, level)
}

fn read_pte(p: &Platform, slot: PhysAddr) -> Pte {
    Pte(p.cvm.machine.mem.read_u64(slot).expect("slot"))
}

fn write_pte(p: &mut Platform, slot: PhysAddr, pte: Pte) {
    p.cvm.machine.mem.write_u64(slot, pte.0).expect("backdoor store");
}

fn create_address_space(p: &mut Platform, asid: u32) -> Frame {
    match p.cvm.monitor.emc(
        &mut p.cvm.machine,
        &mut p.cvm.tdx,
        0,
        EmcRequest::CreateAddressSpace { asid },
    ) {
        Ok(EmcResponse::Root(r)) => r,
        other => panic!("create address space: {other:?}"),
    }
}

/// A present, writable, executable user leaf: the W^X violation C1
/// names once per root that reaches it with both rights intact.
fn wx_user() -> PteFlags {
    PteFlags {
        present: true,
        writable: true,
        user: true,
        ..PteFlags::default()
    }
}

const WX_TEXT: &str = "writable+executable leaf: ";

/// C3 depends on the root: a live sandbox's confined frame aliased,
/// normal-readable, into a shared kernel-half subtree is reachable from
/// every root that shares it except the owner's. Checked twice: once
/// with the kernel root walking the subtree first, once with the owner's
/// root walking it first, so a verdict taken from whichever root stored
/// the subtree is wrong in one case or the other.
#[test]
fn c3_fires_under_every_sharing_root_but_the_owners() {
    for_both_backends(|p| {
        let (id, f) = sandbox_with_confined_page(p);
        for _ in 0..2 {
            p.cvm
                .monitor
                .create_sandbox(&mut p.cvm.machine, 0, 4)
                .expect("create sandbox");
        }
        let owner = p.cvm.monitor.sandboxes.get(&id.0).expect("owner").root.0;
        // Through the kernel root's own kernel half, which every root
        // links: the kernel root (frame 0) walks it first.
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(f, PteFlags::kernel_ro(policy::PK_DEFAULT)),
            intermediate_for(PteFlags::kernel_ro(0)),
        )
        .expect("map");
        let findings = audited(p);
        let mut want = audited_roots(p);
        assert_eq!(want.first(), Some(&p.cvm.monitor.kernel_root.0), "kernel root sorts first");
        want.retain(|&r| r != owner);
        assert_eq!(roots_named(&findings, "confined-unreachable", ""), want, "{findings:#?}");
    });
    for_both_backends(|p| {
        let (id, f) = sandbox_with_confined_page(p);
        let owner = p.cvm.monitor.sandboxes.get(&id.0).expect("owner").root;
        let others: Vec<Frame> = (0..2)
            .map(|_| {
                let other = p
                    .cvm
                    .monitor
                    .create_sandbox(&mut p.cvm.machine, 0, 4)
                    .expect("create sandbox");
                p.cvm.monitor.sandboxes.get(&other.0).expect("live").root
            })
            .collect();
        assert!(others.iter().all(|r| r.0 > owner.0), "owner's root sorts first");
        // A fresh kernel-half subtree linked into the sandbox roots only,
        // built under the owner's root: of the roots that reach it, the
        // owner's walks it first.
        let free = (256..512u64)
            .map(|idx| VirtAddr(0xffff_0000_0000_0000 | idx << 39))
            .find(|&va| !read_pte(p, entry_slot(p, p.cvm.monitor.kernel_root, va, 4)).present())
            .expect("a free kernel-half PML4 slot");
        map_raw(
            &mut p.cvm.machine.mem,
            owner,
            free,
            Pte::encode(f, PteFlags::kernel_ro(policy::PK_DEFAULT)),
            intermediate_for(PteFlags::kernel_ro(0)),
        )
        .expect("map");
        let link = read_pte(p, entry_slot(p, owner, free, 4));
        for &other in &others {
            let slot = entry_slot(p, other, free, 4);
            write_pte(p, slot, link);
        }
        let findings = audited(p);
        let want: Vec<u64> = others.iter().map(|r| r.0).collect();
        assert_eq!(roots_named(&findings, "confined-unreachable", ""), want, "{findings:#?}");
    });
}

/// The memo key carries the inherited rights: three roots share one L3
/// table holding a writable, executable user leaf, one through a plain
/// PML4 entry, one through a read-only entry and one through an NX
/// entry. Only the first reaches the leaf as W+X.
#[test]
fn a_shared_l3_keeps_each_roots_inherited_rights() {
    for plain in [0, 2] {
        // Each order: the plain root walking the shared table first, and
        // walking it last.
        let mut p = booted();
        p.enter_kernel_mode();
        let roots: Vec<Frame> = (0..3).map(|i| create_address_space(&mut p, 80 + i)).collect();
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        map_raw(
            &mut p.cvm.machine.mem,
            roots[plain],
            USER_VA,
            Pte::encode(f, wx_user()),
            intermediate_for(PteFlags::user_rw()),
        )
        .expect("map");
        let link = read_pte(&p, entry_slot(&p, roots[plain], USER_VA, 4));
        let mut nx = link.flags();
        nx.nx = true;
        let others: Vec<Frame> = roots.iter().copied().filter(|r| *r != roots[plain]).collect();
        let slot = entry_slot(&p, others[0], USER_VA, 4);
        write_pte(&mut p, slot, link.read_only());
        let slot = entry_slot(&p, others[1], USER_VA, 4);
        write_pte(&mut p, slot, Pte::encode(link.frame(), nx));
        let findings = audited(&p);
        assert_eq!(roots_named(&findings, "wx-exclusive", WX_TEXT), vec![roots[plain].0], "{findings:#?}");
    }
}

/// The memo key carries the VA prefix: one L1 table linked at two L2
/// slots of one root is walked at each, and its leaf is reported at
/// both virtual addresses.
#[test]
fn one_table_at_two_vas_is_reported_at_each() {
    let mut p = booted();
    p.enter_kernel_mode();
    let root = create_address_space(&mut p, 90);
    let f = p.cvm.machine.mem.alloc_frame().expect("frame");
    map_raw(
        &mut p.cvm.machine.mem,
        root,
        USER_VA,
        Pte::encode(f, wx_user()),
        intermediate_for(PteFlags::user_rw()),
    )
    .expect("map");
    let twin = VirtAddr(USER_VA.0 + (1 << 21));
    let link = read_pte(&p, entry_slot(&p, root, USER_VA, 2));
    let slot = entry_slot(&p, root, twin, 2);
    assert!(!read_pte(&p, slot).present(), "twin slot starts empty");
    write_pte(&mut p, slot, link);
    let findings = audited(&p);
    let vas: Vec<u64> = findings
        .iter()
        .filter(|f| f.detail.starts_with(WX_TEXT))
        .map(|f| hex_after(&f.detail, "va 0x"))
        .collect();
    // Children are walked from the highest index down.
    assert_eq!(vas, vec![twin.0, USER_VA.0], "{findings:#?}");
}

/// Seeded raw corruption of a platform with ten sandbox roots (eight
/// live, two dead): flipped rights and keys, cleared present bits,
/// entries re-pointed at another table of the same level, retyped
/// frames, fresh confined aliases and planted writable+executable
/// leaves (whose C1 findings name each path's VA and rights). After every corruption the
/// memoised audit must match the exhaustive oracle finding for finding.
#[test]
fn memoised_audit_matches_the_oracle_under_seeded_corruption() {
    use erebor_testkit::rng::TestRng;
    use erebor_workloads::hello::HelloWorld;
    for seed in [1u64, 2, 3] {
        let mut p = booted_with(BackendKind::TmeMk);
        let mut live = Vec::new();
        for i in 0..10 {
            let svc = p.deploy(Box::new(HelloWorld { len: 4 }), 4096).expect("deploy");
            if i < 2 {
                p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, svc.sandbox, "campaign");
            } else {
                live.push(svc.sandbox.0);
            }
        }
        assert!(audited(&p).is_empty(), "clean before corruption");
        let mut rng = TestRng::seed_from_u64(seed);
        for step in 0..24 {
            corrupt(&mut p, &mut rng, &live);
            let report = p.audit();
            audit_oracle::assert_agrees(&p, &report);
            if step == 23 {
                assert!(!report.is_clean(), "seed {seed}: the campaign corrupts something");
            }
        }
    }
}

/// Present entry slots and table frames, each indexed by level and
/// deduplicated, over every audited root.
fn inventory(p: &Platform) -> ([Vec<PhysAddr>; 5], [Vec<Frame>; 5]) {
    use std::collections::BTreeSet;
    let mut entries: [BTreeSet<u64>; 5] = Default::default();
    let mut tables: [BTreeSet<u64>; 5] = Default::default();
    let mut stack: Vec<(Frame, u8)> = audited_roots(p).into_iter().map(|r| (Frame(r), 4)).collect();
    while let Some((tbl, level)) = stack.pop() {
        if !tables[level as usize].insert(tbl.0) {
            continue;
        }
        for idx in 0..512u64 {
            let slot = PhysAddr(tbl.base().0 + idx * 8);
            let Ok(raw) = p.cvm.machine.mem.read_u64(slot) else {
                continue;
            };
            if Pte(raw).present() {
                entries[level as usize].insert(slot.0);
                if level > 1 {
                    stack.push((Pte(raw).frame(), level - 1));
                }
            }
        }
    }
    (
        entries.map(|e| e.into_iter().map(PhysAddr).collect()),
        tables.map(|t| t.into_iter().map(Frame).collect()),
    )
}

/// Apply one seeded raw corruption to an entry at a level drawn
/// uniformly (leaves vastly outnumber table entries).
fn corrupt(p: &mut Platform, rng: &mut erebor_testkit::rng::TestRng, live: &[u32]) {
    let (entries, tables) = inventory(p);
    let pick = |rng: &mut erebor_testkit::rng::TestRng, n: usize| rng.below(n as u64) as usize;
    let level = 1 + rng.below(4) as u8;
    let at_level = &entries[level as usize];
    let slot = at_level[pick(rng, at_level.len())];
    let pte = read_pte(p, slot);
    match rng.below(6) {
        0 => {
            let mut flags = pte.flags();
            match rng.below(4) {
                0 => flags.writable = !flags.writable,
                1 => flags.user = !flags.user,
                2 => flags.nx = !flags.nx,
                _ => flags.pkey = rng.below(16) as u8,
            }
            write_pte(p, slot, Pte::encode(pte.frame(), flags).with_keyid(pte.keyid()));
        }
        1 => write_pte(p, slot, Pte::empty()),
        2 if level > 1 => {
            let same = &tables[level as usize - 1];
            let target = same[pick(rng, same.len())];
            write_pte(p, slot, Pte::encode(target, pte.flags()).with_keyid(pte.keyid()));
        }
        3 if level == 1 => {
            let kinds = [
                FrameKind::Confined {
                    sandbox: live[pick(rng, live.len())],
                },
                FrameKind::Confined { sandbox: 99 },
                FrameKind::ShadowStack,
                FrameKind::Monitor,
                FrameKind::UserAnon { asid: 1 },
                FrameKind::SharedDevice,
            ];
            let f = pte.frame();
            p.cvm.monitor.frames.release(f).expect("in range");
            let kind = kinds[pick(rng, kinds.len())];
            p.cvm.monitor.frames.set_kind(f, kind).expect("retype");
        }
        4 => {
            let l1 = &tables[1];
            let tbl = l1[pick(rng, l1.len())];
            let slot = PhysAddr(tbl.base().0 + rng.below(512) * 8);
            let f = p.cvm.machine.mem.alloc_frame().expect("frame");
            let flags = PteFlags {
                user: rng.below(2) == 0,
                ..wx_user()
            };
            write_pte(p, slot, Pte::encode(f, flags));
        }
        _ => {
            let confined: Vec<Frame> = p.cvm.monitor.frames.confined().map(|(f, _)| f).collect();
            let roots = audited_roots(p);
            let root = Frame(roots[pick(rng, roots.len())]);
            let page = rng.below(64) << 12;
            let (va, flags) = if rng.below(2) == 0 {
                (VirtAddr(USER_VA.0 + page), PteFlags::user_ro())
            } else {
                (VirtAddr(SCRATCH_VA.0 + page), PteFlags::kernel_ro(policy::PK_DEFAULT))
            };
            map_raw(
                &mut p.cvm.machine.mem,
                root,
                va,
                Pte::encode(confined[pick(rng, confined.len())], flags),
                intermediate_for(flags),
            )
            .ok();
        }
    }
}

/// Audit work scales with distinct page-table pages, not with roots ×
/// the kernel half: 64 resident sandboxes plus 32 deploy/kill cycles,
/// whose dead roots stay registered, cost at most the boot audit plus a
/// per-root allowance for each root's own tables. A walk that re-reads
/// the shared kernel half (about 76 tables) under every root exceeds the
/// allowance ninefold.
#[test]
fn audit_work_scales_with_distinct_tables() {
    use erebor_workloads::hello::HelloWorld;
    /// Page-table pages a deployed HelloWorld sandbox owns (its PML4 and
    /// one user L3, L2 and L1: 4, measured), doubled for headroom.
    const PER_ROOT_TABLES: u64 = 8;
    let mut p = booted_with(BackendKind::TmeMk);
    let boot = p.audit();
    for _ in 0..64 {
        p.deploy(Box::new(HelloWorld { len: 4 }), 4096).expect("resident");
    }
    for _ in 0..32 {
        let svc = p.deploy(Box::new(HelloWorld { len: 4 }), 4096).expect("churn");
        p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, svc.sandbox, "churn");
    }
    let report = p.audit();
    assert!(report.is_clean(), "{}", report.json());
    assert_eq!(
        report.roots_walked, 97,
        "kernel root, 64 residents, 32 dead roots (still registered: ROADMAP item 6)"
    );
    let bound = boot.pte_reads + report.roots_walked * PER_ROOT_TABLES * 512;
    assert!(
        report.pte_reads <= bound,
        "audit read {} PTEs over {} roots; bound {bound}",
        report.pte_reads,
        report.roots_walked
    );
    assert!(
        report.leaf_mappings >= report.roots_walked * boot.leaf_mappings,
        "leaf_mappings still counts (root, leaf) pairs"
    );
}

// ====================================================================
// The trace race detector
// ====================================================================

fn rec(seq: u64, cpu: u32, event: TraceEvent) -> TraceRecord {
    TraceRecord {
        seq,
        cycles: seq * 100,
        cpu,
        event,
    }
}

#[test]
fn synthetic_unmap_without_invalidation_is_a_race() {
    let records = vec![
        rec(0, 1, TraceEvent::TlbHit { root: 7, page: 5 }),
        rec(1, 0, TraceEvent::Emc { op: "unmap", arg: 5 }),
        rec(2, 1, TraceEvent::TlbHit { root: 7, page: 5 }),
    ];
    let findings = detect_races(&records, 2);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].cpu, 1);
    assert_eq!(findings[0].page, 5);
    assert!(!findings[0].dropped, "no injected drop explains this window");
}

#[test]
fn synthetic_acked_shootdown_is_clean() {
    let records = vec![
        rec(0, 1, TraceEvent::TlbHit { root: 7, page: 5 }),
        rec(1, 0, TraceEvent::TlbShootdown { root: 7, page: 5 }),
        rec(2, 0, TraceEvent::IpiSent { to: 1 }),
        rec(3, 1, TraceEvent::IpiReceived { from: 0 }),
        rec(4, 1, TraceEvent::TlbInvlpg { page: 5 }),
        rec(5, 1, TraceEvent::TlbHit { root: 7, page: 6 }),
    ];
    assert!(detect_races(&records, 2).is_empty());
}

/// Boot Full, create a fresh user address space through EMC, and map one
/// writable page at [`USER_VA`] (the `tests/tlb_shootdown.rs` setup).
fn platform_with_user_page() -> (Platform, Frame) {
    platform_with_user_page_on(BackendKind::Pks)
}

fn platform_with_user_page_on(backend: BackendKind) -> (Platform, Frame) {
    let mut p = booted_with(backend);
    p.enter_kernel_mode();
    let root = create_address_space(&mut p, 77);
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::MapUserPage {
                root,
                va: USER_VA,
                frame: None,
                writable: true,
                executable: false,
            },
        )
        .expect("map user page");
    (p, root)
}

fn run_user(p: &mut Platform, cpu: usize, root: Frame) {
    p.cvm.machine.wake(cpu);
    p.cvm.machine.cpus[cpu].cr3 = root;
    p.cvm.machine.flush_tlb(cpu);
    p.cvm.machine.cpus[cpu].mode = CpuMode::User;
    p.cvm.machine.cpus[cpu].domain = Domain::User;
}

/// The headline claim: given only the machine trace of the cross-core
/// stale-TLB attack (monitor unmaps, the shootdown IPI is dropped, the
/// victim core keeps reading), the vector-clock pass flags the exact
/// core, page, and revocation — no hand-written assertion about TLB
/// internals required.
#[test]
fn race_detector_reproduces_dropped_ipi_stale_read_unprompted() {
    struct DropAllIpis;
    impl erebor::ehw::inject::Injector for DropAllIpis {
        fn drop_shootdown_ipi(&mut self, _initiator: usize, _target: usize) -> bool {
            true
        }
    }

    let (mut p, root) = platform_with_user_page();
    p.cvm.machine.mmu_trace = true;
    // Victim core 1 runs the sandbox and caches the translation.
    run_user(&mut p, 1, root);
    p.cvm
        .machine
        .probe(1, USER_VA, AccessKind::Read)
        .expect("mapped page readable on core 1");

    // The monitor revokes the page, but the host eats the IPI.
    p.enter_kernel_mode();
    p.install_injector(erebor::ehw::inject::handle(DropAllIpis));
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::UnmapUserPage { root, va: USER_VA },
        )
        .expect("delegated unmap");
    p.clear_injector();

    // The victim still reads through the dead mapping...
    p.cvm.machine.cpus[1].mode = CpuMode::User;
    p.cvm.machine.cpus[1].domain = Domain::User;
    p.cvm
        .machine
        .probe(1, USER_VA, AccessKind::Read)
        .expect("stale TLB entry still serves the unmapped page");

    // ...and the detector reconstructs the whole attack from the trace.
    let records = p.cvm.machine.trace.last_n(usize::MAX);
    let findings = detect_races(&records, p.cvm.machine.cpus.len());
    let hit = findings
        .iter()
        .find(|f| f.cpu == 1 && f.page == USER_VA.0 >> 12)
        .unwrap_or_else(|| panic!("no stale-window finding for core 1: {findings:?}"));
    assert_eq!(hit.root, root.0, "window names the revoked address space");
    assert!(hit.dropped, "attributed to the dropped shootdown IPI");
    assert!(hit.access_seq > hit.revoke_seq);
}

/// Repeated accesses are individual events to the detector: a run of
/// reads through a revoked-but-stale mapping emits one `tlb_hit` per
/// access (never a coalesced summary), so the happens-before pass sees
/// the full stale window.
#[test]
fn race_detector_sees_individual_batched_accesses() {
    struct DropAllIpis;
    impl erebor::ehw::inject::Injector for DropAllIpis {
        fn drop_shootdown_ipi(&mut self, _initiator: usize, _target: usize) -> bool {
            true
        }
    }

    let (mut p, root) = platform_with_user_page();
    p.cvm.machine.mmu_trace = true;
    run_user(&mut p, 1, root);
    p.cvm
        .machine
        .probe(1, USER_VA, AccessKind::Read)
        .expect("mapped page readable on core 1");

    p.enter_kernel_mode();
    p.install_injector(erebor::ehw::inject::handle(DropAllIpis));
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::UnmapUserPage { root, va: USER_VA },
        )
        .expect("delegated unmap");
    p.clear_injector();

    // The victim issues three reads through the dead mapping; each one
    // hits the stale TLB entry.
    p.cvm.machine.cpus[1].mode = CpuMode::User;
    p.cvm.machine.cpus[1].domain = Domain::User;
    for _ in 0..3 {
        p.cvm
            .machine
            .probe(1, USER_VA, AccessKind::Read)
            .expect("stale entry still serves");
    }

    let records = p.cvm.machine.trace.last_n(usize::MAX);
    let page = USER_VA.0 >> 12;
    let revoke_seq = records
        .iter()
        .find_map(|r| match r.event {
            TraceEvent::TlbShootdown { page: pg, .. } if pg == page => Some(r.seq),
            _ => None,
        })
        .expect("shootdown traced");
    let stale_hits = records
        .iter()
        .filter(|r| {
            r.cpu == 1
                && r.seq > revoke_seq
                && matches!(r.event, TraceEvent::TlbHit { page: pg, .. } if pg == page)
        })
        .count();
    assert_eq!(stale_hits, 3, "one tlb_hit per access, none coalesced");

    let findings = detect_races(&records, p.cvm.machine.cpus.len());
    let hit = findings
        .iter()
        .find(|f| f.cpu == 1 && f.page == page)
        .unwrap_or_else(|| panic!("no stale-window finding: {findings:?}"));
    assert!(hit.dropped, "attributed to the dropped shootdown IPI");
}

/// Same schedule without the drop: the shootdown lands, the stale read
/// faults, the detector stays quiet — no false positives on the honest
/// path.
#[test]
fn race_detector_quiet_when_shootdown_lands() {
    let (mut p, root) = platform_with_user_page();
    p.cvm.machine.mmu_trace = true;
    run_user(&mut p, 1, root);
    p.cvm
        .machine
        .probe(1, USER_VA, AccessKind::Read)
        .expect("mapped page readable on core 1");

    p.enter_kernel_mode();
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::UnmapUserPage { root, va: USER_VA },
        )
        .expect("delegated unmap");

    p.cvm.machine.cpus[1].mode = CpuMode::User;
    p.cvm.machine.cpus[1].domain = Domain::User;
    p.cvm
        .machine
        .probe(1, USER_VA, AccessKind::Read)
        .expect_err("shootdown landed; the unmap is visible");

    let records = p.cvm.machine.trace.last_n(usize::MAX);
    let findings = detect_races(&records, p.cvm.machine.cpus.len());
    assert!(findings.is_empty(), "{findings:?}");
}

// ====================================================================
// The privilege-separation auditor (DESIGN.md §13)
// ====================================================================

/// The CI baseline: the whole workspace satisfies the declared privilege
/// manifest with zero findings and zero effective waivers, and the graph
/// attributes privileged-core references where they belong.
#[test]
fn workspace_satisfies_the_privilege_manifest() {
    use erebor::eanalyze::privilege::{scan_workspace, WaiverPolicy};
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let report = scan_workspace(&root, WaiverPolicy::Refuse);
    assert!(
        report.findings.is_empty(),
        "privilege boundary violated:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.waivers_seen, 0, "waivers present in the tree");
    assert!(report.is_clean());
    // The manifest is live: every declared privileged subtree matched
    // scanned files, and the graph shows the hw substrate carrying the
    // bulk of the raw reach.
    assert!(report.privileged_modules >= 4, "{}", report.privileged_modules);
    assert!(report.privileged_files > 10, "{}", report.privileged_files);
    let graph = report.graph_counts();
    let hw_refs: u64 = graph
        .iter()
        .filter(|(m, _)| m.starts_with("erebor-hw"))
        .map(|(_, n)| n)
        .sum();
    let kernel_refs: u64 = graph
        .iter()
        .filter(|(m, _)| m.starts_with("erebor-kernel"))
        .map(|(_, n)| n)
        .sum();
    assert!(hw_refs > 100, "hw substrate references: {hw_refs}");
    // The deprivileged kernel's residual mentions are comments/strings
    // only — at most a couple of stripped-code stragglers would show
    // here, and zero findings above proves none are reaches.
    assert!(kernel_refs < 10, "kernel raw references: {kernel_refs}");
    // The report JSON round-trips its headline counters.
    let json = report.json();
    assert!(json.starts_with("{\"findings\":["));
    assert!(json.contains("\"count\":0"));
    assert!(json.contains("\"waivers\":0"));
}

/// Red fixtures through the public API: each boundary rule produces
/// exactly one typed finding on a minimal out-of-manifest source.
#[test]
fn privilege_red_fixtures_fire_typed_findings() {
    use erebor::eanalyze::privilege::{scan_source, WaiverPolicy};
    // 1. Unprivileged module calling a raw hw mutator.
    let (_, f, _) = scan_source(
        "crates/libos/src/bad.rs",
        "fn f(m: &mut Machine) { m.mem.free_frame(f).ok(); }\n",
        WaiverPolicy::Refuse,
    );
    assert_eq!(f.len(), 2, "{f:?}"); // .mem reach + free_frame reach
    assert!(f.iter().all(|x| x.rule == "priv-reach"));
    assert!(f.iter().all(|x| x.module == "erebor-libos::bad"));
    // 2. An unsafe block outside the manifest (and inside it — banned
    // everywhere).
    let (_, f, _) = scan_source(
        "crates/wire/src/bad.rs",
        "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n",
        WaiverPolicy::Refuse,
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "stray-unsafe");
    let (_, f, _) = scan_source(
        "crates/hw/src/bad.rs",
        "fn f() { unsafe { x() } }\n",
        WaiverPolicy::Refuse,
    );
    assert_eq!(f.len(), 1, "unsafe is banned even in the manifest: {f:?}");
    // 3. A crate-root pub use re-exposing a privileged type.
    let (_, f, _) = scan_source(
        "crates/kernel/src/lib.rs",
        "pub use erebor_hw::phys::PhysMemory;\n",
        WaiverPolicy::Refuse,
    );
    let leak: Vec<_> = f.iter().filter(|x| x.rule == "pub-leak").collect();
    assert_eq!(leak.len(), 1, "{f:?}");
    assert_eq!(leak[0].symbol, "PhysMemory");
    // Findings serialize with escaped JSON.
    let j = leak[0].json();
    assert!(j.contains("\"rule\":\"pub-leak\""));
    assert!(j.contains("\"symbol\":\"PhysMemory\""));
}

/// Waivers are refused by default: a `priv:allow` comment turns the
/// finding into `waiver-refused` instead of hiding it, and is counted so
/// CI can gate on zero.
#[test]
fn privilege_waivers_are_refused_by_default() {
    use erebor::eanalyze::privilege::{scan_source, WaiverPolicy};
    let src = "fn f(m: &mut M) { m.mem.zero_frame(f).ok(); } // priv:allow(priv-reach)\n";
    let (_, refused, waivers) = scan_source("crates/libos/src/bad.rs", src, WaiverPolicy::Refuse);
    assert!(!refused.is_empty());
    assert!(refused.iter().all(|x| x.rule == "waiver-refused"), "{refused:?}");
    assert!(waivers >= 1);
    // Honor mode (exploratory only) drops them but still counts.
    let (_, honored, waivers) = scan_source("crates/libos/src/bad.rs", src, WaiverPolicy::Honor);
    assert!(honored.is_empty(), "{honored:?}");
    assert!(waivers >= 1);
}

// ====================================================================
// The chaos campaign with auditor + race detector as invariants
// ====================================================================

/// The CI `--analyze` campaign: every case ends with a full state audit
/// and a happens-before pass over its MMU trace; any audit finding or
/// un-injected stale window is a violation. Honors `EREBOR_CHAOS_CASES`
/// (default 100).
#[test]
fn chaos_campaign_under_audit_and_race_invariants_is_clean() {
    let cases = std::env::var("EREBOR_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let report = erebor_chaos::run(&erebor_chaos::ChaosConfig {
        cases,
        ..erebor_chaos::ChaosConfig::default()
    });
    assert!(report.passed(), "{}", report.summary());
}

/// Every chaos outcome carries the analyze results, clean or not.
#[test]
fn case_outcome_carries_audit_and_race_results() {
    let cfg = erebor_chaos::ChaosConfig::default();
    let outcome = erebor_chaos::exec_case(&cfg, erebor_chaos::case_seed(cfg.seed, 0), &[4, 11, 25]);
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(outcome.audit_findings.is_empty(), "{:?}", outcome.audit_findings);
    assert!(
        outcome.race_findings.iter().all(|r| r.dropped),
        "{:?}",
        outcome.race_findings
    );
}
