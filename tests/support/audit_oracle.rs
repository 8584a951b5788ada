//! Exhaustive reference for the state auditor's page-table checks.
//!
//! `erebor_analyze::audit` walks each distinct page-table subtree once
//! and re-expands per-leaf findings per root. This oracle does neither:
//! it walks every root in full, stores one mapping per (root, leaf) and
//! runs each leaf check over that flat list. Its output is the
//! subsequence of the audit's findings that name a leaf path (every such
//! detail carries `" slot 0x"`); the register, IDT, TLB and ownership
//! checks read no leaves and are not re-derived here.

use erebor::eanalyze::{AuditReport, Finding};
use erebor::ecore::policy::{self, FrameKind};
use erebor::ehw::isolation::IsolationBackend;
use erebor::ehw::paging::Pte;
use erebor::ehw::{Frame, PhysAddr, VirtAddr};
use erebor::etdx::sept::GpaState;
use erebor::Platform;
use std::collections::{BTreeMap, BTreeSet};

/// One present leaf mapping under one root.
struct LeafMapping {
    root: Frame,
    va: VirtAddr,
    pte: Pte,
    slot: PhysAddr,
    writable: bool,
    nx: bool,
    user: bool,
}

impl LeafMapping {
    fn detail(&self) -> String {
        format!(
            "root {:#x} va {:#x} slot {:#x} -> frame {:#x} pte {:#x} (w={} nx={} user={} pk={})",
            self.root.0,
            self.va.0,
            self.slot.0,
            self.pte.frame().0,
            self.pte.0,
            self.writable,
            self.nx,
            self.user,
            self.pte.pkey()
        )
    }
}

/// The unshared depth-first walk of one root.
fn walk_root(p: &Platform, root: Frame, out: &mut Vec<LeafMapping>) {
    let mem = &p.cvm.machine.mem;
    let mut stack: Vec<(Frame, u8, u64, bool, bool, bool)> = vec![(root, 4, 0, true, false, true)];
    while let Some((tbl, level, prefix, w, nx, user)) = stack.pop() {
        for idx in 0..512u64 {
            let slot = PhysAddr(tbl.base().0 + idx * 8);
            let Ok(raw) = mem.read_u64(slot) else {
                continue;
            };
            let entry = Pte(raw);
            if !entry.present() {
                continue;
            }
            let shift = 12 + 9 * u64::from(level - 1);
            let mut va = prefix | (idx << shift);
            if level == 4 && idx >= 256 {
                va |= 0xffff_0000_0000_0000;
            }
            let w2 = w && entry.writable();
            let nx2 = nx || entry.nx();
            let user2 = user && entry.user();
            if level > 1 {
                stack.push((entry.frame(), level - 1, va, w2, nx2, user2));
            } else {
                out.push(LeafMapping {
                    root,
                    va: VirtAddr(va),
                    pte: entry,
                    slot,
                    writable: w2,
                    nx: nx2,
                    user: user2,
                });
            }
        }
    }
}

/// The leaf-path findings and the `(roots_walked, leaf_mappings)`
/// counters an unshared walk of a Full-mode platform produces.
pub fn leaf_findings(p: &Platform) -> (Vec<Finding>, u64, u64) {
    let mon = &p.cvm.monitor;
    let mut roots: Vec<Frame> = mon.address_space_roots();
    roots.extend(mon.sandboxes.values().map(|s| s.root));
    roots.sort_by_key(|r| r.0);
    roots.dedup();
    let mut leaves = Vec::new();
    for &root in &roots {
        walk_root(p, root, &mut leaves);
    }
    let mut out = Vec::new();
    let mut push = |check, claim, detail| out.push(Finding::new(check, claim, detail));

    // C1, per leaf and cross-path.
    for m in &leaves {
        if m.writable && !m.nx {
            push("wx-exclusive", "C1", format!("writable+executable leaf: {}", m.detail()));
        }
    }
    let normal = policy::normal_mode_pkrs();
    let mut paths: BTreeMap<u64, (Option<usize>, Option<usize>)> = BTreeMap::new();
    for (i, m) in leaves.iter().enumerate() {
        let e = paths.entry(m.pte.frame().0).or_default();
        if !m.nx && e.0.is_none() {
            e.0 = Some(i);
        }
        let pk = m.pte.pkey();
        if m.writable
            && !normal.access_disabled(pk)
            && !normal.write_disabled(pk)
            && m.pte.keyid() == p.cvm.machine.mem.frame_key(m.pte.frame())
            && e.1.is_none()
        {
            e.1 = Some(i);
        }
    }
    for (frame, (exec, write)) in paths {
        if let (Some(x), Some(w)) = (exec, write) {
            if x != w {
                push(
                    "wx-exclusive",
                    "C1",
                    format!(
                        "frame {:#x} executable via one path and normal-writable via another: \
                         exec [{}], write [{}]",
                        frame,
                        leaves[x].detail(),
                        leaves[w].detail()
                    ),
                );
            }
        }
    }

    // C2.
    for m in &leaves {
        let kind = mon.frames.kind(m.pte.frame());
        let want = policy::pkey_for(kind);
        if want != policy::PK_DEFAULT && m.pte.pkey() == policy::PK_DEFAULT {
            push(
                "pkey-tagging",
                "C2",
                format!(
                    "{kind:?} frame demands pk{want} but is mapped with the default key: {}",
                    m.detail()
                ),
            );
        }
        if let FrameKind::Confined { sandbox } = kind {
            if !m.user {
                if let Some(s) = mon.sandboxes.get(&sandbox) {
                    let tag = mon.backend.frame_tag(s.domain);
                    if m.pte.pkey() != tag.pkey || m.pte.keyid() != tag.keyid {
                        push(
                            "pkey-tagging",
                            "C2",
                            format!(
                                "confined frame of sandbox {sandbox} demands tag \
                                 (pk{}, key {}) but a supervisor view carries \
                                 (pk{}, key {}): {}",
                                tag.pkey,
                                tag.keyid,
                                m.pte.pkey(),
                                m.pte.keyid(),
                                m.detail()
                            ),
                        );
                    }
                }
            }
        }
    }

    // C3: the owner test runs against each mapping's own root.
    for m in &leaves {
        let FrameKind::Confined { sandbox } = mon.frames.kind(m.pte.frame()) else {
            continue;
        };
        if !m.user && policy::normal_mode_pkrs().access_disabled(m.pte.pkey()) {
            continue;
        }
        let owner_root = mon.sandboxes.get(&sandbox).map(|s| s.root);
        if owner_root != Some(m.root) {
            push(
                "confined-unreachable",
                "C3",
                format!(
                    "confined frame of sandbox {sandbox} reachable outside its address space: {}",
                    m.detail()
                ),
            );
        }
    }

    // C4.
    for m in &leaves {
        if mon.frames.kind(m.pte.frame()) != FrameKind::ShadowStack {
            continue;
        }
        let pk = m.pte.pkey();
        if m.writable && pk != policy::PK_SSTK && pk != policy::PK_MONITOR {
            push(
                "sstk-protected",
                "C4",
                format!("shadow-stack frame writable under pk{pk}: {}", m.detail()),
            );
        }
    }

    // C7, leaf half: each frame at its first path.
    let mut checked: BTreeSet<u64> = BTreeSet::new();
    for m in &leaves {
        let f = m.pte.frame();
        if !checked.insert(f.0) {
            continue;
        }
        let kind = mon.frames.kind(f);
        match p.cvm.tdx.sept.state(f) {
            Some(GpaState::Shared) if kind != FrameKind::SharedDevice => push(
                "sept-consistency",
                "C7",
                format!("host-shared frame mapped as {kind:?}: {}", m.detail()),
            ),
            Some(GpaState::Private) if kind == FrameKind::SharedDevice => push(
                "sept-consistency",
                "C7",
                format!("SharedDevice frame still sEPT-private: {}", m.detail()),
            ),
            _ => {}
        }
    }

    // C8, mapcount clause.
    for m in &leaves {
        let f = m.pte.frame();
        if matches!(mon.frames.kind(f), FrameKind::UserAnon { .. }) && mon.frames.mapcount(f) == 0
        {
            push(
                "ledger-consistency",
                "C8",
                format!("frame accounted fully unmapped but still reachable: {}", m.detail()),
            );
        }
    }
    (out, roots.len() as u64, leaves.len() as u64)
}

/// Assert the memoised `report` of `p` agrees with the oracle: the same
/// leaf-path findings (same strings, same order) and the same root and
/// (root, leaf) counts.
pub fn assert_agrees(p: &Platform, report: &AuditReport) {
    let (expected, roots, leaves) = leaf_findings(p);
    let got: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.detail.contains(" slot 0x"))
        .collect();
    let expected: Vec<&Finding> = expected.iter().collect();
    assert!(got == expected, "memoised audit diverged from the oracle:\n got {got:#?}\n want {expected:#?}");
    assert_eq!(report.roots_walked, roots, "roots walked");
    assert_eq!(report.leaf_mappings, leaves, "(root, leaf) pairs");
}
