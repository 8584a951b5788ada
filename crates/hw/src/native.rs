//! Native-baseline MMU service: the raw page-table operations the
//! *privileged-kernel* baseline (Table 4's Native row) and the MMU
//! ablation configs perform directly, packaged behind a safe API.
//!
//! Under Erebor the kernel is deprivileged and every one of these
//! operations is delegated through the monitor's EMC gate. The baseline
//! kernel keeps ring-0 and does them itself — but the *code* that touches
//! raw frames, PTE slots, and TLB primitives still lives here, on the
//! hardware side of the privilege manifest (DESIGN.md §13), so the kernel
//! crate holds zero raw-state reach in either configuration and the
//! privilege auditor can enforce that statically.
//!
//! Every function charges exactly the simulated cycle costs the former
//! open-coded kernel paths charged; Table 4's MMU row is unchanged.

use crate::cpu::Machine;
use crate::paging::{self, Pte, PteFlags};
use crate::phys::{Frame, PhysAddr, PAGE_SIZE};
use crate::VirtAddr;

/// Why a native MMU operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeMmuError {
    /// Frame allocation or page-table growth failed.
    NoMemory,
    /// The VA has no present leaf mapping under the given root.
    NotMapped,
    /// The hardware refused the access (permission or mode check).
    Denied,
}

/// Build a user address space the native way: allocate a root PTP and
/// copy the kernel half (PML4 entries 256..512) from `kernel_root`,
/// charging one `mem_op` per entry as the open-coded loop did.
///
/// # Errors
/// [`NativeMmuError::NoMemory`] on allocation or copy failure.
pub fn create_address_space(m: &mut Machine, kernel_root: Frame) -> Result<Frame, NativeMmuError> {
    let root = m.mem.alloc_frame().map_err(|_| NativeMmuError::NoMemory)?;
    for idx in 256..512usize {
        let src = PhysAddr(kernel_root.base().0 + (idx * 8) as u64);
        let dst = PhysAddr(root.base().0 + (idx * 8) as u64);
        let v = m.mem.read_u64(src).map_err(|_| NativeMmuError::NoMemory)?;
        if v != 0 {
            m.mem
                .write_u64(dst, v)
                .map_err(|_| NativeMmuError::NoMemory)?;
        }
    }
    m.cycles.charge(256 * m.costs.mem_op);
    Ok(root)
}

/// Map one fresh anonymous user page at `va` with `flags`, returning the
/// backing frame. Charges `pte_store` per PTE written (leaf plus any
/// intermediate PTPs the walk had to grow).
///
/// # Errors
/// [`NativeMmuError::NoMemory`] on allocation or table-growth failure.
pub fn map_user_page(
    m: &mut Machine,
    root: Frame,
    va: VirtAddr,
    flags: PteFlags,
) -> Result<Frame, NativeMmuError> {
    let f = m.mem.alloc_frame().map_err(|_| NativeMmuError::NoMemory)?;
    let new_ptps = paging::map_raw(
        &mut m.mem,
        root,
        va,
        Pte::encode(f, flags),
        paging::intermediate_for(flags),
    )
    .map_err(|_| NativeMmuError::NoMemory)?;
    m.cycles.charge(m.costs.pte_store * (1 + new_ptps.len() as u64));
    Ok(f)
}

/// Unmap the leaf at `va`, invalidating only `cpu`'s own TLB entry
/// (`invlpg`), and return the frame that backed it. Callers unmapping a
/// whole range owe the cross-core IPI round themselves and batch it via
/// [`flush_mm_range`], as `flush_tlb_mm_range` amortizes it. The frame is
/// *not* freed — mapcount bookkeeping belongs to the caller; pass it to
/// [`free_user_frame`] when the last mapping drops.
///
/// # Errors
/// [`NativeMmuError::NotMapped`] if no present leaf exists;
/// [`NativeMmuError::Denied`] if the slot write or `invlpg` is refused.
pub fn unmap_user_page(
    m: &mut Machine,
    cpu: usize,
    root: Frame,
    va: VirtAddr,
) -> Result<Frame, NativeMmuError> {
    let leaf = paging::lookup_raw(&m.mem, root, va)
        .ok()
        .flatten()
        .ok_or(NativeMmuError::NotMapped)?;
    let slot = paging::leaf_slot(&m.mem, root, va)
        .ok()
        .flatten()
        .ok_or(NativeMmuError::NotMapped)?;
    m.mem
        .write_u64(slot, 0)
        .map_err(|_| NativeMmuError::Denied)?;
    m.cycles.charge(m.costs.pte_store);
    m.invalidate_page(cpu, va)
        .map_err(|_| NativeMmuError::Denied)?;
    Ok(leaf.frame())
}

/// Return an unmapped user frame to the allocator (last mapping gone).
pub fn free_user_frame(m: &mut Machine, f: Frame) {
    m.mem.free_frame(f).ok();
}

/// Native user copy (`stac`-window semantics at native cost): walks the
/// target address space and copies through physical memory. `write:
/// Some(bytes)` is `copy_to_user`; `None` reads `len` bytes out. Charges
/// `2 * stac` for the stac/clac pair plus a 4-level walk and per-chunk
/// memory ops, exactly as the open-coded kernel loop did.
///
/// # Errors
/// [`NativeMmuError::NotMapped`] on a hole,
/// [`NativeMmuError::Denied`] on a read-only target of a write.
pub fn user_copy(
    m: &mut Machine,
    root: Frame,
    va: VirtAddr,
    len: usize,
    write: Option<&[u8]>,
) -> Result<Vec<u8>, NativeMmuError> {
    let costs_stac = m.costs.stac;
    m.cycles.charge(2 * costs_stac); // stac + clac
    let mut out = vec![0u8; if write.is_some() { 0 } else { len }];
    let mut done = 0usize;
    while done < len {
        let cur = va.add(done as u64);
        let chunk = ((PAGE_SIZE as u64 - cur.page_offset()) as usize).min(len - done);
        let leaf = paging::lookup_raw(&m.mem, root, cur)
            .ok()
            .flatten()
            .ok_or(NativeMmuError::NotMapped)?;
        let pa = PhysAddr(leaf.frame().base().0 + cur.page_offset());
        match write {
            Some(bytes) => {
                if !leaf.writable() {
                    return Err(NativeMmuError::Denied);
                }
                m.mem
                    .write(pa, &bytes[done..done + chunk])
                    .map_err(|_| NativeMmuError::Denied)?;
            }
            None => {
                m.mem
                    .read(pa, &mut out[done..done + chunk])
                    .map_err(|_| NativeMmuError::Denied)?;
            }
        }
        m.cycles
            .charge(4 * m.costs.walk_level + m.costs.mem_op * (1 + chunk as u64 / 64));
        done += chunk;
    }
    Ok(out)
}

/// Read the full page backing `va` under `root`, if mapped (the reclaim
/// path's swap-out read). Returns `None` for holes or refused reads; no
/// cycle charge — the caller models the swap DMA cost.
#[must_use]
pub fn read_mapped_page(m: &Machine, root: Frame, va: VirtAddr) -> Option<Vec<u8>> {
    let leaf = paging::lookup_raw(&m.mem, root, va).ok().flatten()?;
    let mut contents = vec![0u8; PAGE_SIZE];
    m.mem.read(leaf.frame().base(), &mut contents).ok()?;
    Some(contents)
}

/// Whether `va` has a present leaf mapping under `root` (no access-check
/// side effects, no TLB fill).
#[must_use]
pub fn is_mapped(m: &Machine, root: Frame, va: VirtAddr) -> bool {
    paging::lookup_raw(&m.mem, root, va).ok().flatten().is_some()
}

/// One mm-targeted IPI round for a whole unmapped range
/// (`flush_tlb_mm_range`): the native kernel's batched follow-up to a
/// sequence of [`unmap_user_page`] calls. Failures (user-mode initiator)
/// are ignored, as the open-coded call sites did.
pub fn flush_mm_range(m: &mut Machine, cpu: usize, root: Frame, vas: &[VirtAddr]) {
    m.tlb_shootdown_mm(cpu, root, vas).ok();
}

/// The MMU-ablation CR3 switch: the monitor is present but MMU delegation
/// is disabled, so model the register write at native cost — `mov_cr`
/// plus the architectural full TLB flush — without the sensitive-
/// instruction check a real `write_cr3` would make.
pub fn switch_address_space_ablated(m: &mut Machine, cpu: usize, root: Frame) {
    m.cycles.charge(m.costs.mov_cr);
    m.cpus[cpu].cr3 = root;
    m.flush_tlb(cpu);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Machine;

    fn machine() -> Machine {
        Machine::new(2, 8 * 1024 * 1024)
    }

    fn kernel_root(m: &mut Machine) -> Frame {
        let root = m.mem.alloc_frame().unwrap();
        // Populate one kernel-half PML4 entry so the copy has work.
        let slot = PhysAddr(root.base().0 + 300 * 8);
        m.mem.write_u64(slot, 0xdead_b000 | 1).unwrap();
        root
    }

    #[test]
    fn create_copies_kernel_half_and_charges() {
        let mut m = machine();
        let kroot = kernel_root(&mut m);
        let before = m.cycles.total();
        let root = create_address_space(&mut m, kroot).unwrap();
        assert_eq!(
            m.mem.read_u64(PhysAddr(root.base().0 + 300 * 8)).unwrap(),
            0xdead_b000 | 1
        );
        assert_eq!(m.cycles.total() - before, 256 * m.costs.mem_op);
    }

    #[test]
    fn map_unmap_round_trip() {
        let mut m = machine();
        let kroot = kernel_root(&mut m);
        let root = create_address_space(&mut m, kroot).unwrap();
        let va = VirtAddr(0x4000_0000);
        let f = map_user_page(&mut m, root, va, PteFlags::user_rw()).unwrap();
        assert!(is_mapped(&m, root, va));
        let page = read_mapped_page(&m, root, va).unwrap();
        assert_eq!(page.len(), PAGE_SIZE);
        let unmapped = unmap_user_page(&mut m, 0, root, va).unwrap();
        assert_eq!(unmapped, f);
        assert!(!is_mapped(&m, root, va));
        assert_eq!(
            unmap_user_page(&mut m, 0, root, va),
            Err(NativeMmuError::NotMapped)
        );
        free_user_frame(&mut m, f);
    }

    #[test]
    fn user_copy_round_trips_and_respects_write_protection() {
        let mut m = machine();
        let kroot = kernel_root(&mut m);
        let root = create_address_space(&mut m, kroot).unwrap();
        let va = VirtAddr(0x4000_0000);
        map_user_page(&mut m, root, va, PteFlags::user_rw()).unwrap();
        user_copy(&mut m, root, va, 5, Some(b"hello")).unwrap();
        assert_eq!(user_copy(&mut m, root, va, 5, None).unwrap(), b"hello");
        let ro = VirtAddr(0x4000_2000);
        map_user_page(&mut m, root, ro, PteFlags::user_ro()).unwrap();
        assert_eq!(
            user_copy(&mut m, root, ro, 1, Some(b"x")),
            Err(NativeMmuError::Denied)
        );
        // A hole faults rather than reading zeros.
        assert_eq!(
            user_copy(&mut m, root, VirtAddr(0x5000_0000), 1, None),
            Err(NativeMmuError::NotMapped)
        );
    }

    #[test]
    fn ablated_switch_sets_cr3_and_flushes() {
        let mut m = machine();
        let root = m.mem.alloc_frame().unwrap();
        let flushes = m.stats.tlb_flushes;
        switch_address_space_ablated(&mut m, 0, root);
        assert_eq!(m.cr3(0), root);
        assert_eq!(m.stats.tlb_flushes, flushes + 1);
    }
}
