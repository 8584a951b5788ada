//! The platform: assembles hardware, TDX module, monitor, kernel and LibOS
//! into a running CVM and drives the execution model — syscall and
//! interrupt interposition, demand paging, timer quanta, the client/proxy
//! data path — exactly as Fig. 7 lays it out.

use erebor_core::boot::{BootConfig, BootError, Cvm};
use erebor_core::channel::{Client, ClientError, Proxy};
use erebor_core::config::Mode;
use erebor_core::emc::{EmcRequest, EmcResponse};
use erebor_core::sandbox::{ExitDecision, SandboxId};
use erebor_core::stats::MonitorStats;
use erebor_hw::cpu::{CpuMode, Domain};
use erebor_hw::cycles::CLOCK_HZ;
use erebor_hw::fault::{AccessKind, Fault, PfReason, VeReason};
use erebor_hw::idt::vector;
use erebor_hw::inject::InjectorHandle;
use erebor_hw::{HwStats, VirtAddr};
use erebor_kernel::image::benign_kernel;
use erebor_kernel::kernel::KernelStats;
use erebor_kernel::{Hw, Kernel, Pid};
use erebor_libos::api::{Sys, SysError};
use erebor_libos::os::{export_registry, import_registry, CommonRegistry, LibOs, ServiceProgram};
use erebor_tdx::attest::{expected_mrtd, Expected, Quote};
use erebor_tdx::migrate::{
    check_pages_private, migration_binding, section, MigrationDest, MigrationError, MigrationKey,
    MigrationSource,
};
use erebor_tdx::tdcall::{tdcall, TdcallLeaf, TdcallResult, TdxStats, VmcallOp};
use erebor_wire::{WireError, WireReader, WireWriter};
use erebor_trace::{Attribution, Bucket};

/// The synthetic rip of user code (any user-half address works; only its
/// *half* matters to the privilege model).
const USER_RIP: u64 = 0x40_1000;

/// Platform-level failure.
#[derive(Debug)]
pub enum PlatformError {
    /// Boot failed.
    Boot(BootError),
    /// Kernel returned an errno at setup time.
    Errno(erebor_kernel::Errno),
    /// User-level failure (kill, fault).
    Sys(SysError),
    /// Channel / attestation failure.
    Channel(&'static str),
    /// Client-side verification failure.
    Client(ClientError),
    /// LibOS failure.
    LibOs(String),
    /// The post-boot state audit found violated security claims.
    Audit(erebor_analyze::AuditReport),
    /// A live-migration step failed. The stream is aborted; the source
    /// platform keeps running and stays auditable.
    Migration(MigrationError),
}

impl core::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlatformError::Boot(e) => write!(f, "boot: {e}"),
            PlatformError::Errno(e) => write!(f, "kernel: {e}"),
            PlatformError::Sys(e) => write!(f, "user: {e}"),
            PlatformError::Channel(e) => write!(f, "channel: {e}"),
            PlatformError::Client(e) => write!(f, "client: {e}"),
            PlatformError::LibOs(e) => write!(f, "libos: {e}"),
            PlatformError::Audit(r) => match r.findings.first() {
                Some(first) => write!(f, "audit: {} finding(s), first: {first}", r.findings.len()),
                None => write!(f, "audit: clean"),
            },
            PlatformError::Migration(e) => write!(f, "migration: {e}"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<SysError> for PlatformError {
    fn from(e: SysError) -> PlatformError {
        PlatformError::Sys(e)
    }
}

impl From<erebor_libos::os::LibOsError> for PlatformError {
    fn from(e: erebor_libos::os::LibOsError) -> PlatformError {
        PlatformError::LibOs(e.to_string())
    }
}

impl From<MigrationError> for PlatformError {
    fn from(e: MigrationError) -> PlatformError {
        PlatformError::Migration(e)
    }
}

impl From<WireError> for PlatformError {
    fn from(e: WireError) -> PlatformError {
        PlatformError::Migration(MigrationError::Decode(e))
    }
}

/// A counters snapshot for before/after measurement.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Simulated cycles.
    pub cycles: u64,
    /// Monitor counters.
    pub monitor: MonitorStats,
    /// Kernel counters.
    pub kernel: KernelStats,
    /// TDX counters.
    pub tdx: TdxStats,
    /// Hardware-model counters (TLB translation path).
    pub hw: HwStats,
    /// Per-bucket cycle attribution (sums to `cycles`).
    pub attribution: Attribution,
}

impl Snapshot {
    /// Elementwise *saturating* difference `self - earlier`. Saturating
    /// matters: benches snapshot around intervals on machines whose
    /// counters may reset (chaos replays) — an underflow must pin at 0,
    /// not wrap to a huge bogus delta.
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            monitor: self.monitor.delta(&earlier.monitor),
            kernel: self.kernel.delta(&earlier.kernel),
            tdx: self.tdx.delta(&earlier.tdx),
            hw: self.hw.delta(&earlier.hw),
            attribution: self.attribution.delta(&earlier.attribution),
        }
    }

    /// Simulated seconds represented by the cycles field.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / CLOCK_HZ as f64
    }
}

/// A deployed sandboxed service: the provider's program plus its LibOS.
pub struct ServiceInstance {
    /// The service program.
    pub program: Box<dyn ServiceProgram>,
    /// The LibOS instance inside the sandbox.
    pub os: LibOs,
    /// Host task.
    pub pid: Pid,
    /// The monitor's sandbox id.
    pub sandbox: SandboxId,
}

impl core::fmt::Debug for ServiceInstance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServiceInstance")
            .field("name", &self.program.name())
            .field("pid", &self.pid)
            .field("sandbox", &self.sandbox)
            .finish_non_exhaustive()
    }
}

/// The assembled, booted platform.
pub struct Platform {
    /// The booted CVM (hardware + TDX + monitor).
    pub cvm: Cvm,
    /// The guest kernel.
    pub kernel: Kernel,
    /// Service-wide common-region registry.
    pub registry: CommonRegistry,
    /// Whether this platform booted under a paravisor (§10).
    pub paravisor: bool,
    cpu: usize,
    last_timer: Vec<u64>,
    device_period_ticks: u64,
    ticks_since_device: Vec<u64>,
    /// Ticks between memory-pressure reclaim passes (0 = disabled).
    pub reclaim_period_ticks: u64,
    /// Pages reclaimed per pass.
    pub reclaim_pages_per_pass: u64,
    ticks_since_reclaim: u64,
    /// The hardware root seed this platform's attestation identity grows
    /// from; migration hands it over sealed (`section::ROOT_SEED`).
    root_seed: [u8; 32],
}

impl core::fmt::Debug for Platform {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Platform")
            .field("cvm", &self.cvm)
            .finish_non_exhaustive()
    }
}

impl Platform {
    /// Boot with default parameters in the given mode.
    ///
    /// ```
    /// use erebor::{Mode, Platform};
    /// use erebor_workloads::hello::HelloWorld;
    ///
    /// let mut platform = Platform::boot(Mode::Full)?;
    /// let mut svc = platform.deploy(Box::new(HelloWorld { len: 4 }), 4096)?;
    /// let mut client = platform.connect_client(&svc, [7u8; 32])?;
    /// let reply = platform.serve_request(&mut svc, &mut client, b"hi")?;
    /// assert_eq!(reply, b"AAAA");
    /// # Ok::<(), erebor::PlatformError>(())
    /// ```
    ///
    /// # Errors
    /// [`PlatformError::Boot`].
    pub fn boot(mode: Mode) -> Result<Platform, PlatformError> {
        let cfg = BootConfig {
            config: erebor_core::config::ExecConfig::new(mode),
            ..BootConfig::default()
        };
        Platform::boot_with(cfg)
    }

    /// Boot with explicit parameters.
    ///
    /// # Errors
    /// [`PlatformError::Boot`] / [`PlatformError::Errno`].
    pub fn boot_with(cfg: BootConfig) -> Result<Platform, PlatformError> {
        let kernel_img = benign_kernel(cfg.seed);
        let cvm = Cvm::boot_all(cfg, &kernel_img).map_err(PlatformError::Boot)?;
        let paravisor = cfg.paravisor;
        let cores = cfg.cores;
        let mut platform = Platform {
            cvm,
            kernel: Kernel::new(),
            registry: CommonRegistry::new(),
            paravisor,
            cpu: 0,
            last_timer: vec![0; cores],
            device_period_ticks: 3,
            ticks_since_device: vec![0; cores],
            reclaim_period_ticks: 2,
            reclaim_pages_per_pass: 4,
            ticks_since_reclaim: 0,
            root_seed: erebor_core::boot::hw_root_seed(cfg.seed),
        };
        let (mut hw, kernel) = platform.parts();
        kernel.init(&mut hw).map_err(PlatformError::Errno)?;
        let now = platform.cvm.machine.cycles.total();
        platform.last_timer.fill(now);
        // Post-boot state audit: a freshly booted platform must satisfy
        // every security claim (C1–C8) before any workload touches it.
        let report = platform.audit();
        if !report.is_clean() {
            return Err(PlatformError::Audit(report));
        }
        Ok(platform)
    }

    /// Run the state auditor over the live machine: every page-table
    /// tree the monitor tracks (kernel, registered user address spaces,
    /// sandboxes), the sEPT, the IDT, the gate descriptors, and the
    /// pinned MSRs, checked against the paper's claims C1–C8
    /// (DESIGN.md §9). Read-only and side-effect free; callable at any
    /// point, not just post-boot.
    #[must_use]
    pub fn audit(&self) -> erebor_analyze::AuditReport {
        // Monitor-dependent claims (pkey tagging, gate/IDT landing pads,
        // MSR pinning, sEPT typing) only hold where the monitor actually
        // deprivileged the kernel; native and LibOS-only modes run
        // without those protections by design.
        let deprivileged = self.cvm.monitor.cfg.monitor_present();
        let view = erebor_analyze::MachineView {
            machine: &self.cvm.machine,
            roots: &[],
            gate: deprivileged.then_some(&self.cvm.monitor.gate),
            monitor: deprivileged.then_some(&self.cvm.monitor),
            sept: deprivileged.then_some(&self.cvm.tdx.sept),
        };
        erebor_analyze::audit::audit(&view)
    }

    /// Install a chaos injector on the booted machine: every instrumented
    /// hardware operation (MSR/CR writes, branches, allocations, tdcalls,
    /// shootdown IPIs) from here on consults it. Pair with
    /// [`Platform::clear_injector`] to return to clean execution.
    pub fn install_injector(&mut self, injector: InjectorHandle) {
        self.cvm.machine.set_injector(injector);
    }

    /// Remove any installed chaos injector.
    pub fn clear_injector(&mut self) {
        self.cvm.machine.clear_injector();
    }

    /// Toggle every fleet-mode fast path together: the bitmap frame
    /// allocator scan (`PhysMemory::fast_scan`), the monitor's O(1)
    /// lookup indexes (`Monitor::fast_lookup`), and coalesced
    /// maintenance-window shootdowns (`Monitor::coalesce_shootdowns`).
    /// `false` is the ablated baseline the fleet bench measures against:
    /// the seed's linear frame scans, linear sandbox lookups, and
    /// per-page shootdown traffic.
    pub fn set_fleet_mode(&mut self, enabled: bool) {
        self.cvm.machine.mem.fast_scan = enabled;
        self.cvm.monitor.fast_lookup = enabled;
        self.cvm.monitor.coalesce_shootdowns = enabled;
    }

    /// Frame-allocator scan counters (host-side work, outside
    /// [`Snapshot`]: the fast and ablated scans do different amounts of
    /// host work for identical simulated results).
    #[must_use]
    pub fn alloc_stats(&self) -> erebor_hw::phys::AllocStats {
        self.cvm.machine.mem.alloc_stats
    }

    /// Monitor lookup fast-path counters (outside [`Snapshot`] for the
    /// same reason).
    #[must_use]
    pub fn lookup_stats(&self) -> &erebor_core::stats::LookupStats {
        &self.cvm.monitor.lookup_stats
    }

    /// Enter kernel execution context on the driving core (ring 0, kernel
    /// code domain) — the state in which kernel code like `spawn`/`schedule`
    /// legitimately runs. Public for tests and benches that drive kernel
    /// paths directly.
    pub fn enter_kernel_mode(&mut self) {
        let c = &mut self.cvm.machine.cpus[self.cpu];
        c.mode = CpuMode::Supervisor;
        c.domain = Domain::Kernel;
        self.cvm.machine.cycles.set_bucket(Bucket::Kernel);
    }

    fn parts(&mut self) -> (Hw<'_>, &mut Kernel) {
        (
            Hw {
                machine: &mut self.cvm.machine,
                tdx: &mut self.cvm.tdx,
                monitor: &mut self.cvm.monitor,
                cpu: self.cpu,
            },
            &mut self.kernel,
        )
    }

    /// A counters snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cycles: self.cvm.machine.cycles.total(),
            monitor: self.cvm.monitor.stats,
            kernel: self.kernel.stats,
            tdx: self.cvm.tdx.stats,
            hw: self.cvm.machine.stats,
            attribution: self.cvm.machine.cycles.attribution(),
        }
    }

    /// Deterministic JSON document with the full event trace and the
    /// cycle-attribution profile: same seed and op sequence → byte-identical
    /// output.
    #[must_use]
    pub fn trace_json(&self) -> String {
        let cycles = self.cvm.machine.cycles.total();
        let attribution = self.cvm.machine.cycles.attribution().json();
        let trace = self.cvm.machine.trace.json();
        format!("{{\"cycles\":{cycles},\"attribution\":{attribution},\"trace\":{trace}}}")
    }

    /// Spawn a native (non-sandboxed) process.
    ///
    /// # Errors
    /// Kernel errors.
    pub fn spawn_native(&mut self) -> Result<Pid, PlatformError> {
        self.enter_kernel_mode();
        let (mut hw, kernel) = self.parts();
        let pid = kernel.spawn_native(&mut hw).map_err(PlatformError::Errno)?;
        kernel
            .schedule(&mut hw, pid)
            .map_err(PlatformError::Errno)?;
        Ok(pid)
    }

    /// A [`Sys`] handle for driving a process's user-mode execution.
    pub fn proc(&mut self, pid: Pid) -> ProcHandle<'_> {
        ProcHandle {
            platform: self,
            pid,
        }
    }

    // ================================================================
    // Service deployment and the client data path (§6.3)
    // ================================================================

    /// Deploy a service program into a fresh sandbox: spawn the host task,
    /// run the LibOS loader (confined declaration, commons, preloads,
    /// thread pool) and the program's own pre-data initialization.
    ///
    /// # Errors
    /// Any setup failure.
    pub fn deploy(
        &mut self,
        mut program: Box<dyn ServiceProgram>,
        budget_pages: u64,
    ) -> Result<ServiceInstance, PlatformError> {
        self.enter_kernel_mode();
        let use_driver = self.cvm.monitor.cfg.monitor_present();
        let (pid, sandbox) = if use_driver {
            let (mut hw, kernel) = self.parts();
            let (pid, sandbox) = kernel
                .spawn_sandbox(&mut hw, budget_pages)
                .map_err(PlatformError::Errno)?;
            kernel
                .schedule(&mut hw, pid)
                .map_err(PlatformError::Errno)?;
            (pid, sandbox)
        } else {
            // LibOS-only / Native baselines: a plain process.
            let (mut hw, kernel) = self.parts();
            let pid = kernel.spawn_native(&mut hw).map_err(PlatformError::Errno)?;
            kernel
                .schedule(&mut hw, pid)
                .map_err(PlatformError::Errno)?;
            (pid, SandboxId(0))
        };
        let manifest = program.manifest();
        let mut registry = std::mem::take(&mut self.registry);
        let result = LibOs::load(manifest, &mut registry, &mut self.proc(pid), use_driver);
        self.registry = registry;
        let mut os = result?;
        program
            .init(
                &mut os,
                &mut ProcHandle {
                    platform: self,
                    pid,
                },
            )
            .map_err(PlatformError::Sys)?;
        Ok(ServiceInstance {
            program,
            os,
            pid,
            sandbox,
        })
    }

    /// Drive one request through a service *without* the monitor channel —
    /// the LibOS-only/Native baselines' (unprotected) DebugFS data path,
    /// mirroring the artifact's emulated I/O channel (§A.4).
    ///
    /// # Errors
    /// Any step's failure.
    pub fn serve_plain(
        &mut self,
        svc: &mut ServiceInstance,
        request: &[u8],
    ) -> Result<Vec<u8>, PlatformError> {
        if self.cvm.monitor.cfg.monitor_present() {
            return Err(PlatformError::Channel(
                "serve_plain is for monitor-less baselines; use serve_request",
            ));
        }
        self.kernel.vfs.debug_in.extend_from_slice(request);
        let pid = svc.pid;
        let req = svc.os.input(&mut ProcHandle {
            platform: self,
            pid,
        })?;
        let res = svc
            .program
            .serve(
                &mut svc.os,
                &mut ProcHandle {
                    platform: self,
                    pid,
                },
                &req,
            )
            .map_err(PlatformError::Sys)?;
        svc.os.output(
            &mut ProcHandle {
                platform: self,
                pid,
            },
            &res,
        )?;
        let out = std::mem::take(&mut self.kernel.vfs.debug_out);
        Ok(out)
    }

    /// The measurement chain this platform's boot should attest to —
    /// what clients (and a migration source vetting this platform as a
    /// destination) compare quotes against.
    fn expected_chain(&self) -> Expected {
        let erebor_chain = expected_mrtd(&[
            &self.cvm.firmware_image.measurement_bytes(),
            &self.cvm.monitor_image.measurement_bytes(),
        ]);
        if self.paravisor {
            Expected::ParavisorRtmr {
                mrtd: expected_mrtd(&[erebor_core::boot::PARAVISOR_MEASUREMENT_INPUT]),
                rtmr0: erebor_chain,
            }
        } else {
            Expected::Mrtd(erebor_chain)
        }
    }

    /// Run the remote-attestation handshake for a client of `svc`,
    /// relaying both flights through the untrusted proxy.
    ///
    /// # Errors
    /// Attestation / channel failures.
    pub fn connect_client(
        &mut self,
        svc: &ServiceInstance,
        key_seed: [u8; 32],
    ) -> Result<Client, PlatformError> {
        let root = self.cvm.tdx.attest.root_public();
        let expected = self.expected_chain();
        let (mut client, hello) = Client::with_expected(key_seed, root, expected);
        // First flight crosses the untrusted network/proxy.
        let _ = Proxy::relay(&mut self.cvm.tdx, &hello.client_pub);
        let server_hello = self
            .cvm
            .monitor
            .channel_accept(
                &mut self.cvm.machine,
                &mut self.cvm.tdx,
                self.cpu,
                svc.sandbox,
                &hello,
            )
            .map_err(PlatformError::Channel)?;
        let _ = Proxy::relay(&mut self.cvm.tdx, &server_hello.monitor_pub);
        client
            .finish(&server_hello)
            .map_err(PlatformError::Client)?;
        Ok(client)
    }

    /// Send sealed client data into the sandbox (through the proxy; the
    /// first record flips the sandbox to `DataLoaded`).
    ///
    /// # Errors
    /// Channel / record failures.
    pub fn client_send(
        &mut self,
        svc: &ServiceInstance,
        client: &mut Client,
        data: &[u8],
    ) -> Result<(), PlatformError> {
        let record = client.seal(data).map_err(PlatformError::Client)?;
        let record = Proxy::relay(&mut self.cvm.tdx, &record);
        self.cvm
            .monitor
            .install_client_data(&mut self.cvm.machine, self.cpu, svc.sandbox, &record)
            .map_err(PlatformError::Channel)
    }

    /// Fetch the next sealed result for the client (through the proxy).
    ///
    /// # Errors
    /// Channel / record failures.
    pub fn client_recv(
        &mut self,
        svc: &ServiceInstance,
        client: &mut Client,
    ) -> Result<Vec<u8>, PlatformError> {
        let record = self
            .cvm
            .monitor
            .fetch_output_quantized(&mut self.cvm.machine, svc.sandbox)
            .ok_or(PlatformError::Channel("no output pending"))?;
        let record = Proxy::relay(&mut self.cvm.tdx, &record);
        client.open_result(&record).map_err(PlatformError::Client)
    }

    /// Full request/response round trip: seal → install → program `serve`
    /// → padded sealed reply.
    ///
    /// # Errors
    /// Any step's failure (including a sandbox kill).
    pub fn serve_request(
        &mut self,
        svc: &mut ServiceInstance,
        client: &mut Client,
        request: &[u8],
    ) -> Result<Vec<u8>, PlatformError> {
        self.client_send(svc, client, request)?;
        let pid = svc.pid;
        let req = svc.os.input(&mut ProcHandle {
            platform: self,
            pid,
        })?;
        let res = svc
            .program
            .serve(
                &mut svc.os,
                &mut ProcHandle {
                    platform: self,
                    pid,
                },
                &req,
            )
            .map_err(PlatformError::Sys)?;
        svc.os.output(
            &mut ProcHandle {
                platform: self,
                pid,
            },
            &res,
        )?;
        self.client_recv(svc, client)
    }

    // ================================================================
    // Execution-model internals
    // ================================================================

    fn sandbox_of(&self, pid: Pid) -> Option<SandboxId> {
        self.kernel.task(pid).and_then(erebor_kernel::Task::sandbox)
    }

    /// Select the vCPU that subsequent [`Platform::proc`] handles drive.
    ///
    /// # Panics
    /// Panics on an out-of-range core id.
    pub fn set_active_cpu(&mut self, cpu: usize) {
        assert!(cpu < self.cvm.machine.cpus.len(), "no such core");
        self.cpu = cpu;
    }

    /// The currently active vCPU.
    #[must_use]
    pub fn active_cpu(&self) -> usize {
        self.cpu
    }

    fn ensure_current(&mut self, pid: Pid) -> Result<(), SysError> {
        if self.kernel.current_on(self.cpu) != Some(pid) {
            let saved_mode = self.cvm.machine.cpus[self.cpu].mode;
            let saved_domain = self.cvm.machine.cpus[self.cpu].domain;
            let saved_bucket = self.cvm.machine.cycles.bucket();
            self.enter_kernel_mode();
            let (mut hw, kernel) = self.parts();
            kernel.schedule(&mut hw, pid).map_err(|_| SysError::Fault)?;
            self.cvm.machine.cpus[self.cpu].mode = saved_mode;
            self.cvm.machine.cpus[self.cpu].domain = saved_domain;
            self.cvm.machine.cycles.set_bucket(saved_bucket);
        }
        Ok(())
    }

    fn enter_user(&mut self, _pid: Pid) {
        let c = &mut self.cvm.machine.cpus[self.cpu];
        c.mode = CpuMode::User;
        c.domain = Domain::User;
        c.ctx.rip = USER_RIP;
        self.cvm.machine.cycles.set_bucket(Bucket::Sandbox);
    }

    /// Deliver the APIC timer for every quantum that has elapsed, running
    /// the full interposition path (monitor scrub + kernel scheduler +
    /// resume). Large `compute` charges may span several quanta; each gets
    /// its tick, so event *rates* stay faithful to simulated time.
    fn tick(&mut self, pid: Pid) -> Result<(), SysError> {
        // Bound catch-up to keep pathological charges finite.
        for _ in 0..4096 {
            let quantum = self.cvm.monitor.cfg.timer_quantum_cycles;
            if self
                .cvm
                .machine
                .cycles
                .total()
                .saturating_sub(self.last_timer[self.cpu])
                < quantum
            {
                return Ok(());
            }
            self.tick_once(pid)?;
        }
        Ok(())
    }

    fn tick_once(&mut self, pid: Pid) -> Result<(), SysError> {
        let quantum = self.cvm.monitor.cfg.timer_quantum_cycles;
        self.last_timer[self.cpu] += quantum;
        if self
            .cvm
            .machine
            .cycles
            .total()
            .saturating_sub(self.last_timer[self.cpu])
            >= quantum * 64
        {
            // Far behind (huge single charge): resynchronize.
            self.last_timer[self.cpu] = self.cvm.machine.cycles.total();
        }
        self.ticks_since_device[self.cpu] += 1;
        let vec = if self.ticks_since_device[self.cpu] >= self.device_period_ticks {
            self.ticks_since_device[self.cpu] = 0;
            vector::DEVICE
        } else {
            vector::TIMER
        };
        // Periodic memory pressure: common (unpinned) pages and cold
        // anonymous pages get evicted, sustaining runtime fault rates.
        self.ticks_since_reclaim += 1;
        if self.reclaim_period_ticks > 0 && self.ticks_since_reclaim >= self.reclaim_period_ticks {
            self.ticks_since_reclaim = 0;
            let budget = self.reclaim_pages_per_pass;
            if self.cvm.monitor.cfg.monitor_present() {
                self.cvm
                    .monitor
                    .reclaim_common(&mut self.cvm.machine, self.cpu, budget);
            }
            let saved_mode = self.cvm.machine.cpus[self.cpu].mode;
            let saved_domain = self.cvm.machine.cpus[self.cpu].domain;
            let saved_bucket = self.cvm.machine.cycles.bucket();
            self.enter_kernel_mode();
            let (mut hw, kernel) = self.parts();
            kernel.reclaim_pages(&mut hw, budget);
            self.cvm.machine.cpus[self.cpu].mode = saved_mode;
            self.cvm.machine.cpus[self.cpu].domain = saved_domain;
            self.cvm.machine.cycles.set_bucket(saved_bucket);
        }
        self.deliver_interrupt(pid, vec)
    }

    fn deliver_interrupt(&mut self, pid: Pid, vec: u8) -> Result<(), SysError> {
        // Async exit: the TDX module protects the guest context from the
        // injecting host.
        self.cvm
            .tdx
            .async_exit_context_protect(&mut self.cvm.machine, self.cpu);
        let (_handler, saved) = self
            .cvm
            .machine
            .deliver_interrupt(self.cpu, vec)
            .map_err(|_| SysError::Fault)?;
        let sandbox = self.sandbox_of(pid);
        if self.cvm.monitor.cfg.monitor_present() && self.cvm.monitor.cfg.exit_protection() {
            let decision =
                self.cvm
                    .monitor
                    .on_interrupt(&mut self.cvm.machine, self.cpu, sandbox, vec, saved);
            match decision {
                ExitDecision::ForwardToKernel { .. } => {
                    let prev = self.cvm.machine.cycles.set_bucket(Bucket::Kernel);
                    let (mut hw, kernel) = self.parts();
                    kernel.on_timer(&mut hw);
                    self.cvm.machine.cycles.set_bucket(prev);
                }
                ExitDecision::Killed { reason } => return Err(SysError::Killed(reason)),
                ExitDecision::Handled { .. } => {}
            }
            if let Some(id) = sandbox {
                self.cvm
                    .monitor
                    .resume_sandbox(&mut self.cvm.machine, self.cpu, id)
                    .map_err(|_| SysError::Fault)?;
            }
        } else {
            let prev = self.cvm.machine.cycles.set_bucket(Bucket::Kernel);
            let (mut hw, kernel) = self.parts();
            kernel.on_timer(&mut hw);
            self.cvm.machine.cycles.set_bucket(prev);
        }
        // Return into the interrupted (possibly restored) user context.
        self.ensure_current(pid)?;
        self.cvm
            .machine
            .iret(self.cpu, saved)
            .map_err(|_| SysError::Fault)?;
        Ok(())
    }

    fn handle_user_pf(&mut self, pid: Pid, va: VirtAddr, write: bool) -> Result<(), SysError> {
        let (_handler, saved) = self
            .cvm
            .machine
            .deliver_interrupt(self.cpu, vector::PF)
            .map_err(|_| SysError::Fault)?;
        let sandbox = self.sandbox_of(pid);
        if self.cvm.monitor.cfg.monitor_present() {
            let decision = match sandbox {
                Some(id) => {
                    self.cvm
                        .monitor
                        .on_page_fault(&mut self.cvm.machine, self.cpu, id, va, write)
                }
                _ if self.cvm.monitor.cfg.exit_protection() => self.cvm.monitor.on_interrupt(
                    &mut self.cvm.machine,
                    self.cpu,
                    None,
                    vector::PF,
                    saved,
                ),
                _ => ExitDecision::ForwardToKernel {
                    handler: erebor_kernel::entry::PF,
                },
            };
            match decision {
                ExitDecision::Handled { .. } => {}
                ExitDecision::Killed { reason } => return Err(SysError::Killed(reason)),
                ExitDecision::ForwardToKernel { .. } => {
                    let prev = self.cvm.machine.cycles.set_bucket(Bucket::Kernel);
                    let (mut hw, kernel) = self.parts();
                    let r = kernel.handle_page_fault(&mut hw, pid, va, write);
                    self.cvm.machine.cycles.set_bucket(prev);
                    r.map_err(|_| SysError::Fault)?;
                }
            }
        } else {
            let prev = self.cvm.machine.cycles.set_bucket(Bucket::Kernel);
            let (mut hw, kernel) = self.parts();
            let r = kernel.handle_page_fault(&mut hw, pid, va, write);
            self.cvm.machine.cycles.set_bucket(prev);
            r.map_err(|_| SysError::Fault)?;
        }
        self.cvm
            .machine
            .iret(self.cpu, saved)
            .map_err(|_| SysError::Fault)?;
        Ok(())
    }

    fn user_access(&mut self, pid: Pid, va: u64, write: bool) -> Result<(), SysError> {
        self.tick(pid)?;
        self.ensure_current(pid)?;
        self.enter_user(pid);
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        for _attempt in 0..64 {
            match self.cvm.machine.probe(self.cpu, VirtAddr(va), kind) {
                Ok(()) => return Ok(()),
                Err(Fault::PageFault {
                    reason: PfReason::NotPresent,
                    va: fva,
                    ..
                }) => {
                    self.handle_user_pf(pid, fva, write)?;
                    self.enter_user(pid);
                }
                Err(_) => return Err(SysError::Fault),
            }
        }
        Err(SysError::Fault)
    }
}

// ====================================================================
// TD live migration (§2.1's migration TD, platform-level scenario)
// ====================================================================

/// The destination's half of the migration handshake: its ephemeral
/// public key plus a CPU-signed quote whose report data binds *both*
/// ephemeral keys ([`migration_binding`]).
#[derive(Debug, Clone)]
pub struct MigrationOffer {
    /// The destination's ephemeral X25519 public key.
    pub dest_pub: [u8; 32],
    /// Quote over the key-exchange binding, signed by the hardware root.
    pub quote: Quote,
}

/// Accounting for one completed (or in-flight) outbound migration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Page records sealed during pre-copy (full sweep + dirty rounds).
    pub precopy_pages: u64,
    /// Dirty-page rounds run between the full sweep and stop-and-copy.
    pub precopy_rounds: u64,
    /// Page records sealed inside the stop-and-copy window.
    pub stopcopy_pages: u64,
    /// State sections sealed (machine, monitor, kernel, ...).
    pub sections: u64,
    /// Total records sealed, `Begin` and `Finish` included.
    pub records_sealed: u64,
    /// Pending per-page shootdowns drained by the quiesce.
    pub drained_page_shootdowns: u64,
    /// Pending per-ASID shootdowns drained by the quiesce.
    pub drained_asid_shootdowns: u64,
}

/// An open outbound migration stream: the attested sealing channel plus
/// running accounting. Produced by [`Platform::migrate_begin`]; the
/// guest keeps running between [`Platform::migrate_precopy_round`]
/// calls, and [`Platform::migrate_finish`] closes the stream.
#[derive(Debug)]
pub struct OutboundMigration {
    source: MigrationSource,
    /// Accounting so far.
    pub report: MigrationReport,
}

impl Platform {
    /// Destination side, step 1: produce the attested half of the
    /// migration handshake. The quote binds the destination's ephemeral
    /// key and the source's (`source_pub`) into the TDREPORT's report
    /// data, so the source knows the attested TD terminates *this*
    /// channel and no other.
    #[must_use]
    pub fn migration_offer(&self, key: &MigrationKey, source_pub: &[u8; 32]) -> MigrationOffer {
        let binding = migration_binding(source_pub, &key.public());
        let report = self.cvm.tdx.attest.tdreport(binding);
        MigrationOffer {
            dest_pub: key.public(),
            quote: self.cvm.tdx.attest.quote(report),
        }
    }

    /// Source side, step 2: verify the destination's attestation, open
    /// the sealed stream, switch on dirty-page tracking and seal the
    /// `Begin` record plus the full resident-page sweep (pre-copy round
    /// zero). The guest keeps running afterwards; writes land in the
    /// dirty ledger for later rounds.
    ///
    /// # Errors
    /// [`PlatformError::Migration`] — quote rejection, binding mismatch,
    /// or a sealing failure. No platform state is disturbed on error
    /// (dirty tracking only engages after the handshake verifies).
    pub fn migrate_begin(
        &mut self,
        key: &MigrationKey,
        offer: &MigrationOffer,
    ) -> Result<(OutboundMigration, Vec<Vec<u8>>), PlatformError> {
        let root = self.cvm.tdx.attest.root_public();
        let expected = self.expected_chain();
        let mut source =
            MigrationSource::open(key, offer.dest_pub, &offer.quote, &root, &expected)?;
        self.cvm.machine.mem.set_dirty_tracking(true);
        let mut records = vec![source.begin()?];
        let resident: Vec<(u64, [u8; erebor_hw::PAGE_SIZE])> = self
            .cvm
            .machine
            .mem
            .resident_pages()
            .map(|(f, p)| (f, *p))
            .collect();
        let mut report = MigrationReport::default();
        for (frame, page) in &resident {
            records.push(source.page(*frame, page)?);
            report.precopy_pages += 1;
        }
        report.records_sealed = source.records_sealed();
        Ok((OutboundMigration { source, report }, records))
    }

    /// Source side, step 3 (repeatable): drain the dirty ledger and
    /// reseal exactly those pages. Frames dirtied but no longer resident
    /// travel as zero pages — on both ends a non-resident frame reads as
    /// zeroes, so the destination converges to the same contents.
    ///
    /// # Errors
    /// [`PlatformError::Migration`] on a sealing failure.
    pub fn migrate_precopy_round(
        &mut self,
        mig: &mut OutboundMigration,
    ) -> Result<Vec<Vec<u8>>, PlatformError> {
        let dirty = self.cvm.machine.mem.take_dirty();
        let mut records = Vec::with_capacity(dirty.len());
        let zero = [0u8; erebor_hw::PAGE_SIZE];
        for frame in dirty {
            let page = self
                .cvm
                .machine
                .mem
                .page_if_resident(frame)
                .copied()
                .unwrap_or(zero);
            records.push(mig.source.page(frame, &page)?);
            mig.report.precopy_pages += 1;
        }
        mig.report.precopy_rounds += 1;
        mig.report.records_sealed = mig.source.records_sealed();
        Ok(records)
    }

    /// Source side, final step: the bounded stop-and-copy window. The
    /// guest is quiesced — pending per-page and per-ASID shootdowns are
    /// drained so the staleness ledgers are empty — then the remaining
    /// dirty pages, every state section and the `Finish` record are
    /// sealed. The source stays fully live (and auditable) afterwards;
    /// only the dirty ledger is retired.
    ///
    /// # Errors
    /// [`PlatformError::Migration`] on any sealing failure.
    pub fn migrate_finish(
        &mut self,
        mut mig: OutboundMigration,
    ) -> Result<(Vec<Vec<u8>>, MigrationReport), PlatformError> {
        let (dp, da) = self.cvm.machine.quiesce_for_migration();
        mig.report.drained_page_shootdowns = dp as u64;
        mig.report.drained_asid_shootdowns = da as u64;
        mig.source.enter_stop_copy()?;

        let mut records = Vec::new();
        let zero = [0u8; erebor_hw::PAGE_SIZE];
        for frame in self.cvm.machine.mem.take_dirty() {
            let page = self
                .cvm
                .machine
                .mem
                .page_if_resident(frame)
                .copied()
                .unwrap_or(zero);
            records.push(mig.source.page(frame, &page)?);
            mig.report.stopcopy_pages += 1;
        }
        self.cvm.machine.mem.set_dirty_tracking(false);

        let sections: [(u8, Vec<u8>); 9] = [
            (section::MACHINE, self.cvm.machine.export_state()),
            (section::PHYS_META, self.cvm.machine.mem.export_meta()),
            (section::TDX, self.cvm.tdx.export_state()),
            (section::BACKEND, self.cvm.monitor.backend.export_state()),
            (section::MONITOR, self.cvm.monitor.export_state()),
            (section::KERNEL, self.kernel.export_state()),
            (section::LIBOS, export_registry(&self.registry)),
            (section::ROOT_SEED, self.root_seed.to_vec()),
            (section::PLATFORM, self.export_driver_state()),
        ];
        for (id, payload) in &sections {
            records.push(mig.source.section(*id, payload)?);
            mig.report.sections += 1;
        }
        records.push(mig.source.finish()?);
        mig.report.records_sealed = mig.source.records_sealed();
        Ok((records, mig.report))
    }

    /// One-shot outbound migration: [`Platform::migrate_begin`] straight
    /// into [`Platform::migrate_finish`] with no intervening pre-copy
    /// rounds (nothing runs in between, so the dirty ledger is empty).
    ///
    /// # Errors
    /// [`PlatformError::Migration`].
    pub fn migrate_to(
        &mut self,
        key: &MigrationKey,
        offer: &MigrationOffer,
    ) -> Result<(Vec<Vec<u8>>, MigrationReport), PlatformError> {
        let (mig, mut records) = self.migrate_begin(key, offer)?;
        let (tail, report) = self.migrate_finish(mig)?;
        records.extend(tail);
        Ok((records, report))
    }

    /// Destination side, final step: verify and stage the whole record
    /// stream, then import it **atomically**. Every section is parsed
    /// and cross-validated *before* any platform state is touched, so a
    /// damaged stream — dropped, duplicated, replayed, corrupted or
    /// truncated records — yields a typed error and leaves this platform
    /// exactly as it booted: there is no half-imported destination.
    ///
    /// Non-architectural counters (frame-allocator scan stats, monitor
    /// lookup stats) start fresh on the imported machine; architectural
    /// state — registers, MSRs, TLBs, sEPT, the EMC ledger, sandbox
    /// table, sessions, tasks — is byte-identical to the source.
    ///
    /// # Errors
    /// [`PlatformError::Migration`] naming the first fault.
    pub fn migrate_from(
        &mut self,
        key: &MigrationKey,
        source_pub: [u8; 32],
        records: &[Vec<u8>],
    ) -> Result<(), PlatformError> {
        let mut dest = MigrationDest::open(key, source_pub);
        for record in records {
            dest.feed(record)?;
        }
        let snap = dest.into_snapshot()?;

        // Stage 1: parse and cross-validate everything. No `self` writes.
        let root_seed: [u8; 32] = {
            let mut r = WireReader::new(snap.section(section::ROOT_SEED, "missing root seed")?);
            let seed = r.array()?;
            r.finish()?;
            seed
        };
        let machine = erebor_hw::cpu::Machine::import_state(
            snap.section(section::MACHINE, "missing machine section")?,
            &snap.pages,
        )?;
        // Which domains may run sensitive instructions is fixed by this
        // platform's own boot; a record that widens the set (say, to the
        // deprivileged kernel) would hand the source `wrmsr`/CR rights.
        if machine.sensitive_domains() != self.cvm.machine.sensitive_domains() {
            return Err(MigrationError::Protocol("sensitive-domain set mismatch").into());
        }
        if snap.section(section::PHYS_META, "missing phys meta")? != machine.mem.export_meta() {
            return Err(MigrationError::Protocol("phys metadata mismatch").into());
        }
        let tdx = erebor_tdx::TdxModule::import_state(
            root_seed,
            snap.section(section::TDX, "missing tdx section")?,
        )?;
        check_pages_private(&tdx.sept, &snap.pages)?;
        let monitor = erebor_core::monitor::Monitor::import_state(
            snap.section(section::MONITOR, "missing monitor section")?,
        )?;
        if snap.section(section::BACKEND, "missing backend section")?
            != monitor.backend.export_state()
        {
            return Err(MigrationError::Protocol("backend section mismatch").into());
        }
        let kernel = Kernel::import_state(snap.section(section::KERNEL, "missing kernel section")?)?;
        let registry =
            import_registry(snap.section(section::LIBOS, "missing libos section")?)?;
        let driver = DriverState::import(
            snap.section(section::PLATFORM, "missing platform section")?,
            machine.cpus.len(),
        )?;

        // Stage 2: commit. Infallible from here on.
        self.cvm.machine = machine;
        self.cvm.tdx = tdx;
        self.cvm.monitor = monitor;
        self.kernel = kernel;
        self.registry = registry;
        self.root_seed = root_seed;
        self.paravisor = driver.paravisor;
        self.cpu = driver.cpu;
        self.last_timer = driver.last_timer;
        self.device_period_ticks = driver.device_period_ticks;
        self.ticks_since_device = driver.ticks_since_device;
        self.reclaim_period_ticks = driver.reclaim_period_ticks;
        self.reclaim_pages_per_pass = driver.reclaim_pages_per_pass;
        self.ticks_since_reclaim = driver.ticks_since_reclaim;
        Ok(())
    }

    /// Serialise the platform-driver state (`section::PLATFORM`): timer
    /// phase, device/reclaim cadence, the active core. None of it is
    /// architectural, but same-seed trace equivalence requires the
    /// execution driver to resume mid-quantum exactly where the source
    /// stopped.
    fn export_driver_state(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.bool(self.paravisor);
        w.usize(self.cpu);
        w.seq(self.last_timer.len());
        for t in &self.last_timer {
            w.u64(*t);
        }
        w.u64(self.device_period_ticks);
        w.seq(self.ticks_since_device.len());
        for t in &self.ticks_since_device {
            w.u64(*t);
        }
        w.u64(self.reclaim_period_ticks);
        w.u64(self.reclaim_pages_per_pass);
        w.u64(self.ticks_since_reclaim);
        w.finish()
    }
}

/// Parsed `section::PLATFORM` payload, validated against the imported
/// machine's core count before anything is committed.
struct DriverState {
    paravisor: bool,
    cpu: usize,
    last_timer: Vec<u64>,
    device_period_ticks: u64,
    ticks_since_device: Vec<u64>,
    reclaim_period_ticks: u64,
    reclaim_pages_per_pass: u64,
    ticks_since_reclaim: u64,
}

impl DriverState {
    fn import(bytes: &[u8], cores: usize) -> Result<DriverState, WireError> {
        let mut r = WireReader::new(bytes);
        let paravisor = r.bool()?;
        let cpu = r.usize()?;
        if cpu >= cores {
            return Err(WireError::BadValue { what: "active cpu" });
        }
        let n = r.seq(8)?;
        if n != cores {
            return Err(WireError::BadValue {
                what: "timer vector length",
            });
        }
        let mut last_timer = Vec::with_capacity(n);
        for _ in 0..n {
            last_timer.push(r.u64()?);
        }
        let device_period_ticks = r.u64()?;
        let n = r.seq(8)?;
        if n != cores {
            return Err(WireError::BadValue {
                what: "device tick vector length",
            });
        }
        let mut ticks_since_device = Vec::with_capacity(n);
        for _ in 0..n {
            ticks_since_device.push(r.u64()?);
        }
        let reclaim_period_ticks = r.u64()?;
        let reclaim_pages_per_pass = r.u64()?;
        let ticks_since_reclaim = r.u64()?;
        r.finish()?;
        Ok(DriverState {
            paravisor,
            cpu,
            last_timer,
            device_period_ticks,
            ticks_since_device,
            reclaim_period_ticks,
            reclaim_pages_per_pass,
            ticks_since_reclaim,
        })
    }
}

/// A [`Sys`] implementation driving one process on the platform.
pub struct ProcHandle<'a> {
    platform: &'a mut Platform,
    /// The process this handle drives.
    pub pid: Pid,
}

impl Sys for ProcHandle<'_> {
    fn syscall(&mut self, syscall_nr: u64, args: [u64; 6]) -> Result<u64, SysError> {
        let p = &mut *self.platform;
        let pid = self.pid;
        p.tick(pid)?;
        p.ensure_current(pid)?;
        p.enter_user(pid);
        // Linux register convention: rax=nr, rdi/rsi/rdx/r10/r8/r9.
        {
            let ctx = &mut p.cvm.machine.cpus[p.cpu].ctx;
            ctx.gpr[0] = syscall_nr;
            ctx.gpr[7] = args[0];
            ctx.gpr[6] = args[1];
            ctx.gpr[2] = args[2];
            ctx.gpr[10] = args[3];
            ctx.gpr[8] = args[4];
            ctx.gpr[9] = args[5];
        }
        p.cvm.machine.syscall(p.cpu).map_err(|_| SysError::Fault)?;
        let sandbox = p.sandbox_of(pid);
        let rax = if p.cvm.monitor.cfg.monitor_present() && p.cvm.monitor.cfg.exit_protection() {
            let decision =
                p.cvm
                    .monitor
                    .on_syscall(&mut p.cvm.machine, &mut p.cvm.tdx, p.cpu, sandbox);
            match decision {
                ExitDecision::ForwardToKernel { .. } => {
                    let prev = p.cvm.machine.cycles.set_bucket(Bucket::Kernel);
                    let (mut hw, kernel) = p.parts();
                    let rax = kernel.handle_syscall(&mut hw, pid, syscall_nr, args);
                    p.cvm.machine.cycles.set_bucket(prev);
                    rax
                }
                ExitDecision::Handled { rax } => rax,
                ExitDecision::Killed { reason } => return Err(SysError::Killed(reason)),
            }
        } else {
            let prev = p.cvm.machine.cycles.set_bucket(Bucket::Kernel);
            let (mut hw, kernel) = p.parts();
            let rax = kernel.handle_syscall(&mut hw, pid, syscall_nr, args);
            p.cvm.machine.cycles.set_bucket(prev);
            rax
        };
        p.cvm.machine.sysret(p.cpu).map_err(|_| SysError::Fault)?;
        let signed = rax as i64;
        if (-4095..0).contains(&signed) {
            return Err(SysError::Errno(signed));
        }
        Ok(rax)
    }

    fn touch(&mut self, va: u64, write: bool) -> Result<(), SysError> {
        self.platform.user_access(self.pid, va, write)
    }

    fn read_mem(&mut self, va: u64, buf: &mut [u8]) -> Result<(), SysError> {
        if buf.is_empty() {
            return Ok(());
        }
        let p = &mut *self.platform;
        let pid = self.pid;
        let mut page = VirtAddr(va).page_base().0;
        let end = va + buf.len() as u64 - 1;
        while page <= end {
            p.user_access(pid, page, false)?;
            page += erebor_hw::PAGE_SIZE as u64;
        }
        p.enter_user(pid);
        for _retry in 0..4 {
            match p.cvm.machine.read(p.cpu, VirtAddr(va), buf) {
                Ok(()) => return Ok(()),
                Err(Fault::PageFault {
                    reason: PfReason::NotPresent,
                    va: fva,
                    ..
                }) => {
                    // A reclaim pass raced the copy; fault the page back.
                    p.handle_user_pf(pid, fva, false)?;
                    p.enter_user(pid);
                }
                Err(_) => return Err(SysError::Fault),
            }
        }
        Err(SysError::Fault)
    }

    fn write_mem(&mut self, va: u64, data: &[u8]) -> Result<(), SysError> {
        if data.is_empty() {
            return Ok(());
        }
        let p = &mut *self.platform;
        let pid = self.pid;
        let mut page = VirtAddr(va).page_base().0;
        let end = va + data.len() as u64 - 1;
        while page <= end {
            p.user_access(pid, page, true)?;
            page += erebor_hw::PAGE_SIZE as u64;
        }
        p.enter_user(pid);
        for _retry in 0..4 {
            match p.cvm.machine.write(p.cpu, VirtAddr(va), data) {
                Ok(()) => return Ok(()),
                Err(Fault::PageFault {
                    reason: PfReason::NotPresent,
                    va: fva,
                    ..
                }) => {
                    p.handle_user_pf(pid, fva, true)?;
                    p.enter_user(pid);
                }
                Err(_) => return Err(SysError::Fault),
            }
        }
        Err(SysError::Fault)
    }

    fn compute(&mut self, units: u64) -> Result<(), SysError> {
        // Saturating: a pathological `units` must pin the charge, not
        // wrap it into a tiny (or debug-panicking) cost.
        let cost = units.saturating_mul(self.platform.cvm.machine.costs.compute_unit);
        self.platform
            .cvm
            .machine
            .cycles
            .charge_to(Bucket::Sandbox, cost);
        self.platform.tick(self.pid)
    }

    fn cpuid(&mut self, leaf: u32) -> Result<u32, SysError> {
        let p = &mut *self.platform;
        let pid = self.pid;
        p.tick(pid)?;
        p.ensure_current(pid)?;
        p.enter_user(pid);
        let (_handler, saved) = p
            .cvm
            .tdx
            .inject_ve(&mut p.cvm.machine, p.cpu, VeReason::Cpuid)
            .map_err(|_| SysError::Fault)?;
        let sandbox = p.sandbox_of(pid);
        let eax = if p.cvm.monitor.cfg.monitor_present() && p.cvm.monitor.cfg.exit_protection() {
            let decision = p.cvm.monitor.on_ve(
                &mut p.cvm.machine,
                &mut p.cvm.tdx,
                p.cpu,
                sandbox,
                VeReason::Cpuid,
                leaf,
            );
            match decision {
                ExitDecision::Handled { rax } => rax as u32,
                ExitDecision::Killed { reason } => return Err(SysError::Killed(reason)),
                ExitDecision::ForwardToKernel { .. } => {
                    // Native path: kernel #VE handler delegates the GHCI
                    // round trip to the monitor.
                    let prev = p.cvm.machine.cycles.set_bucket(Bucket::Kernel);
                    let (mut hw, kernel) = p.parts();
                    kernel.handle_ve_native(&mut hw);
                    hw.machine.cycles.set_bucket(prev);
                    match hw.monitor.emc(
                        hw.machine,
                        hw.tdx,
                        hw.cpu,
                        EmcRequest::CpuidEmulate { leaf },
                    ) {
                        Ok(EmcResponse::Cpuid(v)) => v[0],
                        _ => 0,
                    }
                }
            }
        } else if p.cvm.monitor.cfg.monitor_present() {
            // Monitor present but exit interposition disabled: the kernel's
            // #VE handler still needs the monitor for GHCI.
            let prev = p.cvm.machine.cycles.set_bucket(Bucket::Kernel);
            let (mut hw, kernel) = p.parts();
            kernel.handle_ve_native(&mut hw);
            hw.machine.cycles.set_bucket(prev);
            match hw.monitor.emc(
                hw.machine,
                hw.tdx,
                hw.cpu,
                EmcRequest::CpuidEmulate { leaf },
            ) {
                Ok(EmcResponse::Cpuid(v)) => v[0],
                _ => 0,
            }
        } else {
            // Native CVM: the privileged kernel performs the tdcall itself.
            let (mut hw, kernel) = p.parts();
            hw.machine.cycles.set_bucket(Bucket::Kernel);
            kernel.handle_ve_native(&mut hw);
            hw.machine.cpus[hw.cpu].domain = Domain::Kernel;
            hw.machine.cpus[hw.cpu].mode = CpuMode::Supervisor;
            match tdcall(
                hw.tdx,
                hw.machine,
                hw.cpu,
                TdcallLeaf::VmCall(VmcallOp::Cpuid { leaf }),
            ) {
                Ok(TdcallResult::Cpuid(v)) => v[0],
                _ => 0,
            }
        };
        p.cvm
            .machine
            .iret(p.cpu, saved)
            .map_err(|_| SysError::Fault)?;
        Ok(eax)
    }

    fn cycles(&self) -> u64 {
        self.platform.cvm.machine.cycles.total()
    }
}

impl core::fmt::Debug for ProcHandle<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProcHandle")
            .field("pid", &self.pid)
            .finish_non_exhaustive()
    }
}
