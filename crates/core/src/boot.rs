//! Two-stage verified boot (§5.1).
//!
//! **Stage one** loads only the trusted firmware and the monitor, measuring
//! both into the attestation digest (MRTD). The monitor builds the initial
//! page tables — direct map, monitor windows, IDT, secure stacks — with the
//! protection keys of [`crate::policy`], turns on every pinned hardware
//! protection (WP, SMEP, SMAP, PKS, CET-IBT), and points `IA32_LSTAR` and
//! every IDT vector at its interposers.
//!
//! **Stage two** ([`Cvm::load_kernel`]) byte-scans the kernel image and
//! maps it; [`Cvm::enter_kernel`] then drops every core to the normal
//! (deprivileged) mode.

use crate::config::{ExecConfig, Mode};
use crate::gate::EmcGate;
use crate::monitor::{LoadError, Monitor};
use crate::policy::{self, FrameKind, FrameTable};
use erebor_hw::cpu::{Domain, Machine};
use erebor_hw::fault::Fault;
use erebor_hw::image::{Image, SectionKind};
use erebor_hw::insn::{encode, SensitiveClass, ENDBR64};
use erebor_hw::layout::{self, direct_map};
use erebor_hw::paging::{self, Pte, PteFlags};
use erebor_hw::phys::Region;
use erebor_hw::regs::{s_cet, Cr0, Cr4, Msr};
use erebor_hw::{Frame, VirtAddr, PAGE_SIZE};
use erebor_tdx::TdxModule;

/// Boot-time parameters.
#[derive(Debug, Clone, Copy)]
pub struct BootConfig {
    /// Logical cores (the paper's CVM gets 8 vCPUs).
    pub cores: usize,
    /// Simulated DRAM size in bytes.
    pub dram_bytes: u64,
    /// Protection configuration.
    pub config: ExecConfig,
    /// Determinism seed (hardware root key, monitor RNG).
    pub seed: u64,
    /// Paravisor-enhanced deployment (§10): a trusted paravisor (e.g.
    /// COCONUT-SVSM / OpenHCL) occupies MRTD; Erebor's measurement goes to
    /// RTMR\[0\] and verifiers use the paravisor policy.
    pub paravisor: bool,
}

impl Default for BootConfig {
    fn default() -> BootConfig {
        BootConfig {
            cores: 8,
            dram_bytes: 128 * 1024 * 1024,
            config: ExecConfig::new(Mode::Full),
            seed: 0x45_52_45_42, // "EREB"
            paravisor: false,
        }
    }
}

/// Boot failure.
#[derive(Debug)]
pub enum BootError {
    /// DRAM too small for the fixed regions.
    DramTooSmall,
    /// Hardware fault during construction.
    Fault(Fault),
    /// Stage-two kernel load failure.
    Load(LoadError),
}

impl core::fmt::Display for BootError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BootError::DramTooSmall => write!(f, "DRAM too small for boot layout"),
            BootError::Fault(e) => write!(f, "boot fault: {e}"),
            BootError::Load(e) => write!(f, "kernel load failed: {e}"),
        }
    }
}

impl std::error::Error for BootError {}

impl From<Fault> for BootError {
    fn from(f: Fault) -> BootError {
        BootError::Fault(f)
    }
}

/// The booted confidential virtual machine.
pub struct Cvm {
    /// The hardware.
    pub machine: Machine,
    /// The TDX module and untrusted host.
    pub tdx: TdxModule,
    /// The security monitor (inert in [`Mode::Native`]).
    pub monitor: Monitor,
    /// Kernel entry point after stage two.
    pub kernel_entry: Option<VirtAddr>,
    /// The measured firmware image.
    pub firmware_image: Image,
    /// The measured monitor image.
    pub monitor_image: Image,
}

impl core::fmt::Debug for Cvm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Cvm")
            .field("mode", &self.monitor.cfg.mode)
            .field("kernel_entry", &self.kernel_entry)
            .finish_non_exhaustive()
    }
}

/// Build the firmware image (stands in for OVMF).
#[must_use]
pub fn firmware_image(seed: u64) -> Image {
    Image::builder("ovmf-firmware")
        .benign_text(
            ".text",
            VirtAddr(0xffff_8000_f000_0000),
            32 * 1024,
            seed ^ 0xf1f1,
        )
        .entry(VirtAddr(0xffff_8000_f000_0000))
        .build()
}

/// Build the monitor image: `endbr64` landing pads at every hardware
/// entry point into the monitor — the EMC entry gate, the syscall
/// interposer (LSTAR target), and the interrupt interposer (IDT gate
/// target) — followed by the monitor's (legitimately privileged) code,
/// which includes real sensitive-instruction encodings.
#[must_use]
pub fn monitor_image() -> Image {
    let mut text = vec![0x90u8; 64 * 1024];
    // Offset 0: the EMC entry gate landing pad.
    text[..4].copy_from_slice(&ENDBR64);
    // Offset 0x100: the syscall interposer LSTAR points at.
    // Offset 0x200: the interrupt interposer every IDT gate points at.
    // With IBT active these are architectural control transfers into the
    // monitor, so each must start with an endbr64 pad (claim C5).
    text[0x100..0x104].copy_from_slice(&ENDBR64);
    text[0x200..0x204].copy_from_slice(&ENDBR64);
    // Sprinkle the privileged instruction encodings the monitor uses.
    let mut off = 0x400;
    for class in SensitiveClass::ALL {
        let enc = encode(class);
        text[off..off + enc.len()].copy_from_slice(&enc);
        off += 0x40;
    }
    Image::builder("erebor-monitor")
        .section(".text", layout::MONITOR_BASE, SectionKind::Text, text)
        .entry(layout::MONITOR_BASE)
        .build()
}

/// Fixed physical layout, in frames, derived from DRAM size.
#[derive(Debug, Clone, Copy)]
pub struct PhysLayout {
    /// Firmware frames.
    pub firmware: Region,
    /// Monitor frames (image, data, stacks, IDT).
    pub monitor: Region,
    /// Reserved contiguous region for confined memory (Linux-CMA analogue).
    pub cma: Region,
    /// Device-shared window (the only frames allowed to become shared).
    pub device: Region,
}

impl PhysLayout {
    /// Compute the layout for `total_frames` of DRAM.
    ///
    /// # Errors
    /// [`BootError::DramTooSmall`] below 32 MiB.
    pub fn for_frames(total_frames: u64) -> Result<PhysLayout, BootError> {
        if total_frames < 8192 {
            return Err(BootError::DramTooSmall);
        }
        Ok(PhysLayout {
            firmware: Region::new(16, 48),
            monitor: Region::new(48, 1024),
            cma: Region::new(total_frames / 2, total_frames / 2 + total_frames / 4),
            device: Region::new(
                total_frames / 2 + total_frames / 4,
                total_frames / 2 + total_frames / 4 + total_frames / 8,
            ),
        })
    }
}

/// Stand-in image bytes for the open-source paravisor (§10) measured into
/// MRTD in paravisor deployments.
pub const PARAVISOR_MEASUREMENT_INPUT: &[u8] = b"coconut-svsm-paravisor-v1";

/// Virtual address of the hardware IDT inside the monitor window.
pub const IDT_VA: VirtAddr = VirtAddr(layout::MONITOR_BASE.0 + 0x0010_0000);
/// Virtual base of the per-core secure stacks.
pub const SECURE_STACK_VA: VirtAddr = VirtAddr(layout::MONITOR_BASE.0 + 0x0020_0000);

/// The 32-byte hardware root seed derived from the boot seed: the key
/// the TDX module's attestation identity grows from. Live migration
/// hands exactly these bytes to the destination (sealed, as the
/// `ROOT_SEED` section) so the imported module re-derives the same
/// signing keys.
#[must_use]
pub fn hw_root_seed(seed: u64) -> [u8; 32] {
    let mut seed32 = [0u8; 32];
    seed32[..8].copy_from_slice(&seed.to_le_bytes());
    erebor_crypto::sha256(&seed32)
}

/// Stage-one boot: firmware + monitor only (see module docs).
///
/// On return, every core is still in the privileged (firmware) state:
/// call [`Cvm::load_kernel`] and then [`Cvm::enter_kernel`].
///
/// # Errors
/// [`BootError`] on layout or construction failures.
pub fn boot_stage1(cfg: BootConfig) -> Result<Cvm, BootError> {
    let mut machine = Machine::new(cfg.cores, cfg.dram_bytes);
    let total = machine.mem.total_frames();
    let lay = PhysLayout::for_frames(total)?;

    // The TDX module accepts all of guest DRAM as private memory.
    let mut tdx = TdxModule::new(hw_root_seed(cfg.seed));
    for f in 0..total {
        tdx.sept.accept_private(Frame(f));
    }

    // Claim fixed regions; reserve the dynamic pools.
    machine
        .mem
        .claim_region(lay.firmware)
        .map_err(|_| BootError::DramTooSmall)?;
    machine
        .mem
        .claim_region(lay.monitor)
        .map_err(|_| BootError::DramTooSmall)?;
    machine.mem.reserve_region(lay.cma);
    machine.mem.reserve_region(lay.device);

    // Measure stage-one images. In a paravisor deployment (§10), MRTD is
    // occupied by the paravisor image and Erebor's chain moves to RTMR\[0\].
    let firmware = firmware_image(cfg.seed);
    let monitor_img = monitor_image();
    if cfg.paravisor {
        tdx.attest.extend_mrtd(PARAVISOR_MEASUREMENT_INPUT);
        tdx.attest.seal_mrtd();
        // Statically infallible: extend_rtmr only errors for an index
        // past the four architectural RTMRs, and 0 is hard-coded here.
        tdx.attest
            .extend_rtmr(0, &firmware.measurement_bytes())
            .ok();
        tdx.attest
            .extend_rtmr(0, &monitor_img.measurement_bytes())
            .ok();
    } else {
        tdx.attest.extend_mrtd(&firmware.measurement_bytes());
        tdx.attest.extend_mrtd(&monitor_img.measurement_bytes());
        tdx.attest.seal_mrtd();
    }

    let mut frames = FrameTable::new(total);
    for f in lay.firmware.start.0..lay.firmware.end.0 {
        // Statically infallible: the table was created empty on the line
        // above, so no frame can already carry a conflicting kind.
        frames.set_kind(Frame(f), FrameKind::Firmware).ok();
    }

    // Kernel root page table.
    let kernel_root = machine
        .mem
        .alloc_frame()
        .map_err(|_| BootError::DramTooSmall)?;
    let mut boot_ptps = vec![kernel_root];

    // Direct map of all physical memory (4 KiB pages; huge pages are
    // disabled, §7). Monitor/firmware frames get the monitor key.
    for f in 0..total {
        let in_monitor = lay.monitor.contains(Frame(f)) || lay.firmware.contains(Frame(f));
        let pkey = if in_monitor {
            policy::PK_MONITOR
        } else {
            policy::PK_DEFAULT
        };
        let flags = PteFlags {
            present: true,
            writable: true,
            nx: true,
            pkey,
            ..PteFlags::default()
        };
        let new = paging::map_raw(
            &mut machine.mem,
            kernel_root,
            direct_map(Frame(f).base()),
            Pte::encode(Frame(f), flags),
            paging::intermediate_for(flags),
        )
        .map_err(|_| BootError::DramTooSmall)?;
        boot_ptps.extend(new);
    }

    // Map the monitor image (RX) into the monitor window.
    let mut next_monitor_frame = lay.monitor.start.0;
    let mut alloc_monitor = |n: u64| -> Region {
        let r = Region::new(next_monitor_frame, next_monitor_frame + n);
        next_monitor_frame += n;
        r
    };
    for section in &monitor_img.sections {
        let pages = section.bytes.len().div_ceil(PAGE_SIZE) as u64;
        let region = alloc_monitor(pages);
        for p in 0..pages {
            let frame = Frame(region.start.0 + p);
            let start = (p as usize) * PAGE_SIZE;
            let end = (start + PAGE_SIZE).min(section.bytes.len());
            machine
                .mem
                .write(frame.base(), &section.bytes[start..end])
                .map_err(|_| BootError::DramTooSmall)?;
            let flags = match section.kind {
                SectionKind::Text => PteFlags::kernel_rx(policy::PK_MONITOR),
                SectionKind::Rodata => PteFlags::kernel_ro(policy::PK_MONITOR),
                SectionKind::Data => PteFlags::kernel_rw(policy::PK_MONITOR),
            };
            let new = paging::map_raw(
                &mut machine.mem,
                kernel_root,
                section.va.add(start as u64),
                Pte::encode(frame, flags),
                paging::intermediate_for(flags),
            )
            .map_err(|_| BootError::DramTooSmall)?;
            boot_ptps.extend(new);
        }
    }

    // Monitor data window: secure stacks (one page per core).
    let stack_region = alloc_monitor(cfg.cores as u64);
    let mut secure_stacks = Vec::with_capacity(cfg.cores);
    for (i, f) in (stack_region.start.0..stack_region.end.0).enumerate() {
        let va = SECURE_STACK_VA.add((i * PAGE_SIZE) as u64);
        let new = paging::map_raw(
            &mut machine.mem,
            kernel_root,
            va,
            Pte::encode(Frame(f), PteFlags::kernel_rw(policy::PK_MONITOR)),
            paging::intermediate_for(PteFlags::kernel_rw(policy::PK_MONITOR)),
        )
        .map_err(|_| BootError::DramTooSmall)?;
        boot_ptps.extend(new);
        secure_stacks.push(va.add(PAGE_SIZE as u64 - 16));
    }

    // Hardware IDT page (PK_IDT: kernel-readable, monitor-writable).
    let idt_region = alloc_monitor(1);
    let idt_frame = Frame(idt_region.start.0);
    let idt_key = if cfg.config.monitor_present() {
        policy::PK_IDT
    } else {
        policy::PK_DEFAULT
    };
    let new = paging::map_raw(
        &mut machine.mem,
        kernel_root,
        IDT_VA,
        Pte::encode(idt_frame, PteFlags::kernel_rw(idt_key)),
        paging::intermediate_for(PteFlags::kernel_rw(idt_key)),
    )
    .map_err(|_| BootError::DramTooSmall)?;
    boot_ptps.extend(new);

    // Tag monitor frames and the boot PTPs; fix their direct-map keys.
    for f in lay.monitor.start.0..lay.monitor.end.0 {
        // Statically infallible: the monitor region is disjoint from the
        // firmware region (checked by `Layout`), so these frames are
        // still untagged.
        frames.set_kind(Frame(f), FrameKind::Monitor).ok();
    }
    frames.set_kind(idt_frame, FrameKind::Idt).ok();
    for p in &boot_ptps {
        // Boot PTPs came from the general pool and default to PK_DEFAULT
        // in the direct map; retag raw (firmware privilege).
        frames.set_kind(*p, FrameKind::Ptp).ok();
        let slot = paging::leaf_slot(&machine.mem, kernel_root, direct_map(p.base()))
            .map_err(|_| BootError::DramTooSmall)?
            .ok_or(BootError::DramTooSmall)?;
        let flags = PteFlags {
            present: true,
            writable: true,
            nx: true,
            pkey: policy::PK_PTP,
            ..PteFlags::default()
        };
        machine
            .mem
            .write_u64(slot, Pte::encode(*p, flags).0)
            .map_err(|_| BootError::DramTooSmall)?;
    }

    // Register the monitor's landing pads: the EMC gate and the two
    // hardware interposers (syscall + interrupt).
    machine.endbr.add_image(&monitor_img);

    // Per-core state: pinned protections on, interposers installed.
    machine.allow_sensitive(Domain::Firmware);
    if cfg.config.monitor_present() {
        machine.allow_sensitive(Domain::Monitor);
    } else {
        // Native CVM: the kernel keeps its privileges.
        machine.allow_sensitive(Domain::Kernel);
    }
    let gate_entry = layout::MONITOR_BASE;
    let syscall_interposer = VirtAddr(layout::MONITOR_BASE.0 + 0x100);
    for cpu in 0..cfg.cores {
        machine.cpus[cpu].cr3 = kernel_root;
        machine.flush_tlb(cpu);
        machine.cpus[cpu].cr0 = Cr0(Cr0::WP | Cr0::PG);
        machine.cpus[cpu].cr4 = Cr4(Cr4::SMEP | Cr4::SMAP | Cr4::PKS | Cr4::CET);
        machine.cpus[cpu].domain = Domain::Firmware;
        let scet = if cfg.config.shadow_stacks {
            s_cet::ENDBR_EN | s_cet::SH_STK_EN
        } else {
            s_cet::ENDBR_EN
        };
        machine.wrmsr(cpu, Msr::SCet, scet)?;
        machine.wrmsr(cpu, Msr::Pkrs, policy::monitor_mode_pkrs().0)?;
        if cfg.config.monitor_present() {
            machine.wrmsr(cpu, Msr::Lstar, syscall_interposer.0)?;
        }
        machine.lidt(cpu, IDT_VA)?;
    }

    let monitor = Monitor::new(
        cfg.config,
        frames,
        EmcGate::new(gate_entry, secure_stacks),
        {
            let mut s = [0u8; 32];
            s[..8].copy_from_slice(&cfg.seed.to_le_bytes());
            s[8] = 0x4d;
            s
        },
        kernel_root,
        IDT_VA,
        lay.cma,
        lay.device,
    );

    let mut cvm = Cvm {
        machine,
        tdx,
        monitor,
        kernel_entry: None,
        firmware_image: firmware,
        monitor_image: monitor_img,
    };

    // Point every IDT vector at the monitor's interrupt interposer
    // (checked writes; boot PKRS grants PK_IDT).
    if cfg.config.monitor_present() {
        let interposer = cvm.monitor.interrupt_interposer;
        for vec in 0..=255u8 {
            cvm.monitor
                .write_idt_entry(&mut cvm.machine, 0, vec, interposer)?;
        }
    }

    Ok(cvm)
}

impl Cvm {
    /// Stage-two boot: verify and load the kernel image (§5.1).
    ///
    /// # Errors
    /// [`BootError::Load`] — in particular when the byte scan rejects the
    /// image.
    pub fn load_kernel(&mut self, image: &Image) -> Result<VirtAddr, BootError> {
        let entry = self
            .monitor
            .load_kernel(&mut self.machine, 0, image)
            .map_err(BootError::Load)?;
        self.kernel_entry = Some(entry);
        Ok(entry)
    }

    /// Drop every core to the deprivileged kernel state: normal-mode PKRS,
    /// kernel code domain. After this, sensitive instructions require an
    /// EMC.
    ///
    /// # Errors
    /// MSR faults.
    pub fn enter_kernel(&mut self) -> Result<(), BootError> {
        let pkrs = if self.monitor.cfg.monitor_present() {
            policy::normal_mode_pkrs().0
        } else {
            policy::monitor_mode_pkrs().0
        };
        for cpu in 0..self.machine.cpus.len() {
            self.machine.wrmsr(cpu, Msr::Pkrs, pkrs)?;
            self.machine.cpus[cpu].domain = Domain::Kernel;
            self.machine.cpus[cpu].ctx.rip = self.kernel_entry.map_or(0, |e| e.0);
        }
        Ok(())
    }

    /// Host/device DMA write into guest memory (attack-surface helper:
    /// succeeds only for frames the guest converted to shared).
    ///
    /// # Errors
    /// [`erebor_tdx::host::HostAccessError`] for private frames.
    pub fn host_dma_write(
        &mut self,
        frame: Frame,
        data: &[u8],
    ) -> Result<(), erebor_tdx::host::HostAccessError> {
        let sept = self.tdx.sept.clone();
        self.tdx
            .host
            .dma_write(&mut self.machine.mem, &sept, frame, data)
    }

    /// Convenience: full boot (stage one + stage two + privilege drop).
    /// Ends with every core but the boot core parked: secondary vCPUs
    /// idle until something is scheduled on them.
    ///
    /// # Errors
    /// Any [`BootError`].
    pub fn boot_all(cfg: BootConfig, kernel_image: &Image) -> Result<Cvm, BootError> {
        let mut cvm = boot_stage1(cfg)?;
        cvm.load_kernel(kernel_image)?;
        cvm.enter_kernel()?;
        for cpu in 1..cvm.machine.cpus.len() {
            cvm.machine.park(cpu);
        }
        Ok(cvm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(mode: Mode) -> BootConfig {
        BootConfig {
            cores: 2,
            dram_bytes: 48 * 1024 * 1024,
            config: ExecConfig::new(mode),
            seed: 7,
            paravisor: false,
        }
    }

    fn benign_kernel() -> Image {
        Image::builder("linux-6.6-erebor")
            .benign_text(".text", layout::KERNEL_BASE, 64 * 1024, 99)
            .section(
                ".data",
                VirtAddr(layout::KERNEL_BASE.0 + 0x0100_0000),
                SectionKind::Data,
                vec![0u8; 8192],
            )
            .entry(layout::KERNEL_BASE)
            .build()
    }

    #[test]
    fn stage1_boots_and_measures() {
        let cvm = boot_stage1(small_cfg(Mode::Full)).unwrap();
        let expect = erebor_tdx::attest::expected_mrtd(&[
            &cvm.firmware_image.measurement_bytes(),
            &cvm.monitor_image.measurement_bytes(),
        ]);
        assert_eq!(cvm.tdx.attest.mrtd(), expect);
    }

    #[test]
    fn benign_kernel_loads_and_enters() {
        let mut cvm = boot_stage1(small_cfg(Mode::Full)).unwrap();
        let entry = cvm.load_kernel(&benign_kernel()).unwrap();
        assert_eq!(entry, layout::KERNEL_BASE);
        cvm.enter_kernel().unwrap();
        assert_eq!(cvm.machine.cpus[0].pkrs(), policy::normal_mode_pkrs());
        assert_eq!(cvm.machine.cpus[0].domain, Domain::Kernel);
    }

    #[test]
    fn malicious_kernel_rejected_at_boot() {
        let mut cvm = boot_stage1(small_cfg(Mode::Full)).unwrap();
        let mut text = vec![0x90u8; 8192];
        let wrmsr = encode(SensitiveClass::Wrmsr);
        text[4000..4000 + wrmsr.len()].copy_from_slice(&wrmsr);
        let evil = Image::builder("evil-kernel")
            .section(".text", layout::KERNEL_BASE, SectionKind::Text, text)
            .entry(layout::KERNEL_BASE)
            .build();
        let err = cvm.load_kernel(&evil).unwrap_err();
        assert!(
            matches!(err, BootError::Load(LoadError::Rejected(_))),
            "{err}"
        );
        assert!(cvm.kernel_entry.is_none());
    }

    #[test]
    fn kernel_cannot_write_monitor_memory_after_entry() {
        let mut cvm = boot_stage1(small_cfg(Mode::Full)).unwrap();
        cvm.load_kernel(&benign_kernel()).unwrap();
        cvm.enter_kernel().unwrap();
        // Monitor text via its VA: PK_MONITOR access-disable.
        let err = cvm.machine.read_u64(0, layout::MONITOR_BASE).unwrap_err();
        assert!(err.is_pf(erebor_hw::fault::PfReason::PksAccessDisabled));
        // And via the direct-map alias of a monitor frame.
        let err = cvm
            .machine
            .read_u64(0, direct_map(Frame(100).base()))
            .unwrap_err();
        assert!(err.is_pf(erebor_hw::fault::PfReason::PksAccessDisabled));
    }

    #[test]
    fn kernel_cannot_execute_sensitive_instructions_after_entry() {
        let mut cvm = boot_stage1(small_cfg(Mode::Full)).unwrap();
        cvm.load_kernel(&benign_kernel()).unwrap();
        cvm.enter_kernel().unwrap();
        let err = cvm.machine.wrmsr(0, Msr::Pkrs, 0).unwrap_err();
        assert!(matches!(err, Fault::UndefinedInstruction(_)));
        let err = cvm.machine.write_cr4(0, 0).unwrap_err();
        assert!(matches!(err, Fault::UndefinedInstruction(_)));
    }

    #[test]
    fn native_mode_kernel_keeps_privileges() {
        let mut cvm = boot_stage1(small_cfg(Mode::Native)).unwrap();
        cvm.load_kernel(&benign_kernel()).unwrap();
        cvm.enter_kernel().unwrap();
        cvm.machine
            .wrmsr(0, Msr::Lstar, layout::KERNEL_BASE.0)
            .unwrap();
        assert_eq!(cvm.machine.cpus[0].msr(Msr::Lstar), layout::KERNEL_BASE.0);
    }

    #[test]
    fn idt_points_at_interposer() {
        let cvm = boot_stage1(small_cfg(Mode::Full)).unwrap();
        let mut machine = cvm.machine;
        let handler = erebor_hw::idt::read_entry(
            &mut machine.mem,
            machine.cpus[0].cr3,
            erebor_hw::idt::Idtr { base: IDT_VA },
            erebor_hw::idt::vector::TIMER,
        )
        .unwrap();
        assert_eq!(handler, cvm.monitor.interrupt_interposer);
    }
}
