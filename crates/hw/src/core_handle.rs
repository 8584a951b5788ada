//! Per-core handles over the machine's mutable core-local state.
//!
//! Everything a single logical core mutates on its own behalf — its
//! register file, software TLB, supervisor shadow stack and interrupt
//! nesting depth — lives in per-core slots
//! of the [`Machine`]'s vectors. A [`CoreHandle`] borrows exactly those
//! slots, disjointly from DRAM and from every other core, which:
//!
//! * makes the *confinement* of core-local mutation explicit in the type
//!   system (a handle cannot reach another core's TLB, nor raw DRAM),
//!   matching the privilege manifest's story that cross-core effects go
//!   through the shootdown/IPI primitives only; and
//! * is the seam for parallel per-core execution (ROADMAP item on
//!   multi-core parallelism): [`Machine::cores`] hands out one handle
//!   per core simultaneously, each independently mutable, because the
//!   borrows are provably disjoint.
//!
//! Machine-global state (DRAM, cycle accounting, the staleness ledgers,
//! stats) stays on [`Machine`] and is *not* reachable
//! through a handle — any operation needing both (a TLB fill, a
//! shootdown) belongs on `Machine` itself, which is exactly the set of
//! operations that must remain serialized.

use crate::cet::ShadowStack;
use crate::cpu::{Cpu, Machine};
use crate::tlb::Tlb;

/// Exclusive access to one core's core-local mutable state. Obtained
/// from [`Machine::core`] (one core) or [`Machine::cores`] (all cores at
/// once, disjointly).
#[derive(Debug)]
pub struct CoreHandle<'m> {
    /// The core's index (its APIC id in the model).
    pub index: usize,
    /// The core's register file.
    pub cpu: &'m mut Cpu,
    /// The core's software TLB.
    pub tlb: &'m mut Tlb,
    /// The core's supervisor shadow stack.
    pub sstk: &'m mut ShadowStack,
    /// The core's interrupt nesting depth.
    pub interrupt_depth: &'m mut u32,
}

impl Machine {
    /// Borrow core `cpu`'s core-local state as one handle. The borrow is
    /// disjoint from [`Machine::mem`] and from every other core's slots.
    ///
    /// # Panics
    /// If `cpu` is out of range (as every per-core accessor does).
    #[must_use]
    pub fn core(&mut self, cpu: usize) -> CoreHandle<'_> {
        self.core_split(cpu)
    }

    /// One [`CoreHandle`] per core, all live at once: the parallel-
    /// execution seam. Each handle is independently mutable because the
    /// underlying per-core vectors are split element-wise.
    #[must_use]
    pub fn cores(&mut self) -> Vec<CoreHandle<'_>> {
        self.cores_split()
    }
}

#[cfg(test)]
mod tests {
    use crate::cpu::Machine;
    use crate::VirtAddr;

    #[test]
    fn handle_reaches_exactly_the_cores_slots() {
        let mut m = Machine::new(2, 1024 * 1024);
        let depth_before = {
            let h = m.core(1);
            assert_eq!(h.index, 1);
            assert_eq!(h.cpu.id, 1);
            *h.interrupt_depth += 1;
            *h.interrupt_depth
        };
        assert_eq!(depth_before, 1);
        // The mutation landed on core 1 only.
        assert_eq!(*m.core(0).interrupt_depth, 0);
        assert_eq!(*m.core(1).interrupt_depth, 1);
    }

    #[test]
    fn all_cores_are_borrowable_simultaneously() {
        let mut m = Machine::new(4, 1024 * 1024);
        let mut handles = m.cores();
        assert_eq!(handles.len(), 4);
        // Mutate every core through its own live handle — disjointness
        // is what lets this compile.
        for h in &mut handles {
            *h.interrupt_depth = h.index as u32 + 1;
            h.tlb.invalidate_page(VirtAddr(0x1000));
        }
        drop(handles);
        for cpu in 0..4 {
            assert_eq!(*m.core(cpu).interrupt_depth, cpu as u32 + 1);
        }
    }
}
