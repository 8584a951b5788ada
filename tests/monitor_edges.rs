//! EMC dispatcher edge cases: malformed and boundary requests the
//! (untrusted) kernel can submit.

use erebor::{Mode, Platform};
use erebor_core::emc::{EmcError, EmcRequest, EmcResponse};
use erebor_hw::layout::{KERNEL_BASE, MONITOR_BASE};
use erebor_hw::{Frame, VirtAddr};
use erebor_workloads::hello::HelloWorld;

fn full() -> Platform {
    Platform::boot(Mode::Full).expect("boot")
}

fn emc(p: &mut Platform, req: EmcRequest) -> Result<EmcResponse, EmcError> {
    p.enter_kernel_mode();
    p.cvm
        .monitor
        .emc(&mut p.cvm.machine, &mut p.cvm.tdx, 0, req)
}

#[test]
fn map_rejects_unaligned_and_non_user_vas() {
    let mut p = full();
    let root = p.cvm.monitor.kernel_root;
    for (va, why) in [
        (VirtAddr(0x40_0123), "unaligned"),
        (KERNEL_BASE, "kernel half"),
        (MONITOR_BASE, "monitor window"),
    ] {
        let err = emc(
            &mut p,
            EmcRequest::MapUserPage {
                root,
                va,
                frame: None,
                writable: true,
                executable: false,
            },
        )
        .expect_err(why);
        assert!(
            matches!(err, EmcError::BadRequest(_) | EmcError::Denied(_)),
            "{why}: {err}"
        );
    }
}

#[test]
fn map_rejects_writable_executable() {
    let mut p = full();
    let root = p.cvm.monitor.kernel_root;
    let err = emc(
        &mut p,
        EmcRequest::MapUserPage {
            root,
            va: VirtAddr(0x50_0000),
            frame: None,
            writable: true,
            executable: true,
        },
    )
    .expect_err("W^X");
    assert!(matches!(
        err,
        EmcError::Denied("W^X: writable+executable refused")
    ));
}

#[test]
fn switch_to_unregistered_root_denied() {
    let mut p = full();
    let before = p.cvm.machine.cpus[0].cr3;
    let err = emc(&mut p, EmcRequest::SwitchAddressSpace { root: Frame(4) }).expect_err("bogus");
    assert!(matches!(err, EmcError::Denied(_)));
    assert_eq!(p.cvm.machine.cpus[0].cr3, before, "cr3 unchanged on denial");
}

#[test]
fn sandbox_requests_on_unknown_ids_fail_cleanly() {
    let mut p = full();
    let err = emc(
        &mut p,
        EmcRequest::DeclareConfined {
            sandbox: 999,
            va: VirtAddr(0x50_0000),
            pages: 1,
            executable: false,
        },
    )
    .expect_err("unknown sandbox");
    assert!(matches!(err, EmcError::BadRequest(_)));
    let err = emc(
        &mut p,
        EmcRequest::AttachCommon {
            sandbox: 999,
            region: 999,
            va: VirtAddr(0x5_0000_0000),
        },
    )
    .expect_err("unknown region");
    assert!(matches!(err, EmcError::BadRequest(_)));
}

#[test]
fn declare_after_data_install_denied() {
    let mut p = full();
    let mut svc = p
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    let mut client = p.connect_client(&svc, [8; 32]).expect("attest");
    p.serve_request(&mut svc, &mut client, b"x").expect("serve");
    let err = emc(
        &mut p,
        EmcRequest::DeclareConfined {
            sandbox: svc.sandbox.0,
            va: VirtAddr(0x7000_0000),
            pages: 1,
            executable: false,
        },
    )
    .expect_err("post-install declare");
    assert!(matches!(
        err,
        EmcError::Denied("confined declaration after data install")
    ));
}

#[test]
fn only_cr0_and_cr4_are_delegated() {
    let mut p = full();
    for which in [1u8, 2, 3, 5] {
        let err = emc(
            &mut p,
            EmcRequest::WriteCr {
                which,
                value: 0xffff_ffff,
            },
        )
        .expect_err("cr");
        assert!(matches!(err, EmcError::BadRequest(_)), "CR{which}: {err}");
    }
}

#[test]
fn unmap_of_kernel_code_frame_denied() {
    let mut p = full();
    // Map a user page first, then try to unmap a *kernel text* VA... which
    // is not in the user half; probe instead with a user VA whose leaf the
    // kernel cannot unmap: an unmapped one.
    let root = p.cvm.monitor.kernel_root;
    let err = emc(
        &mut p,
        EmcRequest::UnmapUserPage {
            root,
            va: VirtAddr(0x7f77_0000_0000),
        },
    )
    .expect_err("not mapped");
    assert!(matches!(err, EmcError::BadRequest(_)));
}

#[test]
fn text_poke_bounds_checked() {
    let mut p = full();
    // Beyond kernel text.
    let err = emc(
        &mut p,
        EmcRequest::TextPoke {
            offset: 1 << 40,
            bytes: vec![0x90],
        },
    )
    .expect_err("out of range");
    assert!(matches!(err, EmcError::BadRequest(_)));
    // Crossing a page boundary.
    let err = emc(
        &mut p,
        EmcRequest::TextPoke {
            offset: 0x1ffe,
            bytes: vec![0x90; 8],
        },
    )
    .expect_err("page crossing");
    assert!(matches!(err, EmcError::BadRequest(_)));
    // Integer-overflow probing.
    let err = emc(
        &mut p,
        EmcRequest::TextPoke {
            offset: u64::MAX - 2,
            bytes: vec![0x90; 8],
        },
    )
    .expect_err("overflow");
    assert!(matches!(err, EmcError::BadRequest(_)));
}

#[test]
fn common_region_can_attach_at_two_sandboxes() {
    let mut p = full();
    let id = match emc(
        &mut p,
        EmcRequest::CreateCommon {
            pages: 4,
            logical_bytes: 1 << 20,
        },
    )
    .expect("create")
    {
        EmcResponse::Region(id) => id,
        other => panic!("{other:?}"),
    };
    let s1 = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 1024)
        .expect("s1");
    let s2 = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 1024)
        .expect("s2");
    for s in [s1, s2] {
        emc(
            &mut p,
            EmcRequest::AttachCommon {
                sandbox: s.0,
                region: id,
                va: VirtAddr(0x6_0000_0000),
            },
        )
        .expect("attach");
    }
    assert_eq!(p.cvm.monitor.common_regions[&id].attached.len(), 2);
}

#[test]
fn emc_denied_entirely_without_monitor() {
    let mut p = Platform::boot(Mode::Native).expect("boot");
    let err = emc(&mut p, EmcRequest::Nop).expect_err("no monitor");
    assert!(matches!(err, EmcError::Denied(_)));
}

/// Fails exactly the `n`-th frame allocation it is consulted on.
struct FailAllocN {
    n: u64,
    seen: u64,
}

impl erebor_hw::inject::Injector for FailAllocN {
    fn fail_alloc(&mut self) -> bool {
        self.seen += 1;
        self.seen == self.n
    }
}

const DECLARED_PAGES: u64 = 8;

/// Create a sandbox, issue one `DeclareConfined` of [`DECLARED_PAGES`]
/// pages with allocation `fail_at` failing (or, with `None`, a request
/// refused before it allocates anything), kill the sandbox, and report
/// `(allocated frames, frames still confined to it)` after the kill.
fn failed_declare_then_kill(fail_at: Option<u64>) -> (u64, u64) {
    let mut p = full();
    p.enter_kernel_mode();
    let id = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, DECLARED_PAGES)
        .expect("create sandbox");
    let pages = match fail_at {
        Some(n) => {
            p.install_injector(erebor_hw::inject::handle(FailAllocN { n, seen: 0 }));
            DECLARED_PAGES
        }
        None => DECLARED_PAGES + 1, // over budget: refused up front
    };
    let res = emc(
        &mut p,
        EmcRequest::DeclareConfined {
            sandbox: id.0,
            va: VirtAddr(0x40_0000),
            pages,
            executable: false,
        },
    );
    p.clear_injector();
    assert!(res.is_err(), "declaration must fail (fail_at {fail_at:?})");
    // The sandbox lists only pages it actually maps.
    let sandbox = p.cvm.monitor.sandboxes.get(&id.0).expect("sandbox");
    for &(va, f) in &sandbox.confined {
        assert_eq!(
            p.cvm.monitor.frames.mapcount(f),
            1,
            "fail_at {fail_at:?}: {va:?} listed as confined but not mapped"
        );
    }
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, id, "failed declaration");
    let report = p.audit();
    assert!(report.is_clean(), "fail_at {fail_at:?}: {}", report.json());
    let confined = p
        .cvm
        .monitor
        .frames
        .count_kind(|k| k == erebor_core::policy::FrameKind::Confined { sandbox: id.0 });
    (p.cvm.machine.mem.allocated_frames(), confined)
}

#[test]
fn failed_declare_confined_leaks_no_frame() {
    let (baseline, none) = failed_declare_then_kill(None);
    assert_eq!(none, 0);
    // Allocations 1..=8 are the confined arena; 9 is the first page-table
    // page of the first mapping.
    for n in [1, 4, DECLARED_PAGES, DECLARED_PAGES + 1] {
        let (allocated, confined) = failed_declare_then_kill(Some(n));
        assert_eq!(allocated, baseline, "allocation {n} failed: frames leaked");
        assert_eq!(
            confined, 0,
            "allocation {n} failed: a confined frame outlived the kill"
        );
    }
}

/// Faults every PKRS write on core 0: the monitor's privilege raise.
struct FailPkrsWrite;

impl erebor_hw::inject::Injector for FailPkrsWrite {
    fn inject_fault(
        &mut self,
        point: erebor_hw::inject::InjectionPoint,
    ) -> Option<erebor_hw::fault::Fault> {
        let raise = erebor_hw::inject::InjectionPoint::Wrmsr {
            cpu: 0,
            msr: erebor_hw::regs::Msr::Pkrs,
        };
        (point == raise).then_some(erebor_hw::fault::Fault::GeneralProtection(
            "injected PKRS write fault",
        ))
    }
}

fn core0(p: &Platform) -> (erebor_hw::cpu::Domain, erebor_hw::CpuMode, u64) {
    let c = &p.cvm.machine.cpus[0];
    (c.domain, c.mode, c.msr(erebor_hw::regs::Msr::Pkrs))
}

#[test]
fn failed_privilege_raise_leaves_the_core_where_it_was() {
    let mut p = full();
    p.enter_kernel_mode();
    let id = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, DECLARED_PAGES)
        .expect("create sandbox");
    let before = core0(&p);
    assert_eq!(before.0, erebor_hw::cpu::Domain::Kernel);
    p.install_injector(erebor_hw::inject::handle(FailPkrsWrite));
    p.cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, DECLARED_PAGES)
        .expect_err("the raise fails");
    assert_eq!(core0(&p), before, "after a failed create_sandbox");
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, id, "failed raise");
    assert_eq!(core0(&p), before, "after a failed kill_sandbox");
    p.clear_injector();
}

#[test]
fn kill_after_a_failed_raise_releases_every_confined_frame() {
    let mut p = full();
    p.enter_kernel_mode();
    let id = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, DECLARED_PAGES)
        .expect("create sandbox");
    emc(
        &mut p,
        EmcRequest::DeclareConfined {
            sandbox: id.0,
            va: VirtAddr(0x40_0000),
            pages: DECLARED_PAGES,
            executable: false,
        },
    )
    .expect("declare");
    let confined = |p: &Platform| {
        p.cvm
            .monitor
            .frames
            .count_kind(|k| k == erebor_core::policy::FrameKind::Confined { sandbox: id.0 })
    };
    p.install_injector(erebor_hw::inject::handle(FailPkrsWrite));
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, id, "failed raise");
    p.clear_injector();
    let sandbox = p.cvm.monitor.sandboxes.get(&id.0).expect("sandbox");
    assert_eq!(sandbox.state, erebor_core::sandbox::SandboxState::Dead);
    assert_eq!(
        sandbox.confined.len() as u64,
        DECLARED_PAGES,
        "the failed kill keeps the lists"
    );
    assert_eq!(confined(&p), DECLARED_PAGES);
    p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, id, "retry");
    assert_eq!(confined(&p), 0, "the retried kill released them");
    let report = p.audit();
    assert!(report.is_clean(), "{}", report.json());
}
