//! The four workloads as closed loops over a booted platform. Each op
//! calls the platform's public API; with tracing on, every call into a
//! layer is wrapped in a span and `serve_request` is replaced by the
//! public steps it is made of.

use std::time::Instant;

use erebor::ecore::channel::{Client, Proxy};
use erebor::ehw::isolation::BackendKind;
use erebor::eworkloads::env::SandboxedWorkload;
use erebor::eworkloads::fleet::{FleetClass, FleetOp};
use erebor::{
    BootConfig, Bucket, ExecConfig, MigrationKey, MigrationReport, Mode, Platform, PlatformError,
    ServiceInstance, Snapshot,
};

use crate::inputs::{self, Request, Shape, Workload};
use crate::stats::Tracer;

/// Counters read around an op: the platform [`Snapshot`] plus the
/// host-side allocator and lookup counters and the event-trace length.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Simulated counters and cycle attribution.
    pub snap: Snapshot,
    /// Frame allocations.
    pub allocs: u64,
    /// Allocator bitmap words scanned.
    pub alloc_words: u64,
    /// Monitor index lookups (root index + address-space mirror).
    pub lookups: u64,
    /// Trace events recorded.
    pub events: u64,
}

impl Probe {
    /// Read the counters of `p`.
    #[must_use]
    pub fn take(p: &Platform) -> Probe {
        let alloc = p.alloc_stats();
        let lookup = p.lookup_stats();
        Probe {
            snap: p.snapshot(),
            allocs: alloc.allocs,
            alloc_words: alloc.words_scanned,
            lookups: lookup.root_index_lookups() + lookup.as_index_lookups(),
            events: p.cvm.machine.trace.recorded(),
        }
    }

    /// Counter-wise `self − earlier` (saturating: migration imports
    /// restart the host-side counters).
    #[must_use]
    pub fn delta(&self, earlier: &Probe) -> Probe {
        Probe {
            snap: self.snap.delta(&earlier.snap),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            alloc_words: self.alloc_words.saturating_sub(earlier.alloc_words),
            lookups: self.lookups.saturating_sub(earlier.lookups),
            events: self.events.saturating_sub(earlier.events),
        }
    }

    /// An all-zero delta.
    #[must_use]
    pub fn zero(p: &Platform) -> Probe {
        let now = Probe::take(p);
        now.delta(&now)
    }

    /// Counter-wise sum.
    pub fn add(&mut self, d: &Probe) {
        let s = &mut self.snap;
        let e = &d.snap;
        s.cycles += e.cycles;
        macro_rules! sum {
            ($($part:ident . $field:ident),*) => { $( s.$part.$field += e.$part.$field; )* };
        }
        sum!(
            monitor.emc_calls,
            monitor.pte_updates,
            monitor.cr_writes,
            monitor.msr_writes,
            monitor.idt_writes,
            monitor.user_copies,
            monitor.ghci_ops,
            monitor.sandbox_pf_exits,
            monitor.sandbox_timer_exits,
            monitor.sandbox_ve_exits,
            monitor.sandbox_syscall_exits,
            monitor.sandboxes_killed,
            monitor.emc_denied,
            monitor.cpuid_cached,
            kernel.syscalls,
            kernel.page_faults,
            kernel.timer_ticks,
            kernel.ctx_switches,
            kernel.forks,
            kernel.signals_delivered,
            kernel.ve_handled,
            tdx.tdcalls,
            tdx.mapgpa,
            tdx.vmcalls,
            tdx.ve_injected,
            tdx.tdreports,
            hw.tlb_hits,
            hw.tlb_misses,
            hw.tlb_flushes,
            hw.tlb_page_invalidations,
            hw.tlb_shootdown_ipis
        );
        for b in BUCKETS {
            s.attribution.charge(b, e.attribution.get(b));
        }
        self.allocs += d.allocs;
        self.alloc_words += d.alloc_words;
        self.lookups += d.lookups;
        self.events += d.events;
    }

    /// The simulated counters as words, for the behaviour digest: every
    /// [`Snapshot`] counter, each attribution bucket, the trace length.
    #[must_use]
    pub fn sim_words(&self) -> Vec<u64> {
        let s = &self.snap;
        let (m, k, t, h) = (&s.monitor, &s.kernel, &s.tdx, &s.hw);
        let mut w = vec![
            s.cycles,
            m.emc_calls,
            m.pte_updates,
            m.cr_writes,
            m.msr_writes,
            m.idt_writes,
            m.user_copies,
            m.ghci_ops,
            m.sandbox_pf_exits,
            m.sandbox_timer_exits,
            m.sandbox_ve_exits,
            m.sandbox_syscall_exits,
            m.sandboxes_killed,
            m.emc_denied,
            m.cpuid_cached,
            k.syscalls,
            k.page_faults,
            k.timer_ticks,
            k.ctx_switches,
            k.forks,
            k.signals_delivered,
            k.ve_handled,
            t.tdcalls,
            t.mapgpa,
            t.vmcalls,
            t.ve_injected,
            t.tdreports,
            h.tlb_hits,
            h.tlb_misses,
            h.tlb_flushes,
            h.tlb_page_invalidations,
            h.tlb_shootdown_ipis,
            self.events,
        ];
        w.extend(BUCKETS.iter().map(|&b| s.attribution.get(b)));
        w
    }
}

/// Every attribution bucket.
pub const BUCKETS: [Bucket; 6] = [
    Bucket::Monitor,
    Bucket::Kernel,
    Bucket::Sandbox,
    Bucket::Tdcall,
    Bucket::PageWalk,
    Bucket::Other,
];

/// What one op did.
#[derive(Debug)]
pub struct OpOutcome {
    /// Every step succeeded and every reply was correct.
    pub ok: bool,
    /// The op is a request (or lifecycle, or migration) that counts as a
    /// latency sample; fleet churn steps do not.
    pub sample: bool,
    /// Counter deltas over the op.
    pub delta: Probe,
    /// Reply bytes, in order, for the digest.
    pub replies: Vec<u8>,
    /// Migrate: the transfer's accounting.
    pub migration: Option<MigrationReport>,
    /// Migrate: host ns from `migrate_finish` start to import done.
    pub downtime_ns: Option<u64>,
}

/// A set-up workload.
pub trait World {
    /// Run op `i` of the epoch, `i < World::period()`.
    fn op(&mut self, i: usize, t: &mut Tracer) -> OpOutcome;
    /// Ops in the epoch.
    fn period(&self) -> usize;
    /// Whether every live platform passes `Platform::audit`.
    fn audit_clean(&self) -> bool;
}

/// Boot the shipped `Mode::Full` configuration; `keyed` switches to the
/// TME-MK backend, which workloads with more than ten resident sandboxes
/// need (the default backend has ten usable protection keys).
fn boot(keyed: bool, dram_mib: u64) -> Result<Platform, PlatformError> {
    let mut config = ExecConfig::new(Mode::Full);
    if keyed {
        config.backend = BackendKind::TmeMk;
    }
    Platform::boot_with(BootConfig {
        dram_bytes: dram_mib << 20,
        config,
        ..BootConfig::default()
    })
}

fn deploy(
    p: &mut Platform,
    t: &mut Tracer,
    program: Box<dyn erebor::eworkloads::env::Workload>,
    budget_pages: u64,
) -> Result<ServiceInstance, PlatformError> {
    t.span("platform.deploy", |_| {
        p.deploy(Box::new(SandboxedWorkload::new(program)), budget_pages)
    })
}

fn connect(
    p: &mut Platform,
    t: &mut Tracer,
    svc: &ServiceInstance,
    key: [u8; 32],
) -> Result<Client, PlatformError> {
    t.span("channel.connect", |_| p.connect_client(svc, key))
}

fn kill(p: &mut Platform, t: &mut Tracer, svc: &ServiceInstance) {
    t.span("monitor.kill", |_| {
        p.cvm
            .monitor
            .kill_sandbox(&mut p.cvm.machine, svc.sandbox, "benchmark teardown");
    });
}

/// One request round trip. Untraced it is `Platform::serve_request`;
/// traced it is that function's public steps, one span each.
///
/// # Errors
/// Any step's failure.
pub fn serve(
    p: &mut Platform,
    t: &mut Tracer,
    svc: &mut ServiceInstance,
    client: &mut Client,
    request: &[u8],
) -> Result<Vec<u8>, PlatformError> {
    if !t.enabled() {
        return p.serve_request(svc, client, request);
    }
    let record = t
        .span("channel.seal", |_| client.seal(request))
        .map_err(PlatformError::Client)?;
    let cpu = p.active_cpu();
    t.span("channel.install", |_| {
        let record = Proxy::relay(&mut p.cvm.tdx, &record);
        p.cvm
            .monitor
            .install_client_data(&mut p.cvm.machine, cpu, svc.sandbox, &record)
    })
    .map_err(PlatformError::Channel)?;
    let pid = svc.pid;
    let input = t.span("libos.input", |_| svc.os.input(&mut p.proc(pid)))?;
    let output = t
        .span("workloads.serve", |_| {
            svc.program.serve(&mut svc.os, &mut p.proc(pid), &input)
        })
        .map_err(PlatformError::Sys)?;
    t.span("libos.output", |_| svc.os.output(&mut p.proc(pid), &output))?;
    let record = t
        .span("channel.fetch", |_| {
            p.cvm
                .monitor
                .fetch_output_quantized(&mut p.cvm.machine, svc.sandbox)
                .map(|r| Proxy::relay(&mut p.cvm.tdx, &r))
        })
        .ok_or(PlatformError::Channel("no output pending"))?;
    t.span("channel.open", |_| client.open_result(&record))
        .map_err(PlatformError::Client)
}

/// Serve `req` and check its reply; the reply is appended to `replies`.
fn serve_checked(
    p: &mut Platform,
    t: &mut Tracer,
    svc: &mut ServiceInstance,
    client: &mut Client,
    req: &Request,
    replies: &mut Vec<u8>,
) -> bool {
    match serve(p, t, svc, client, &req.payload) {
        Ok(reply) => {
            let ok = req.expect.holds(&reply);
            replies.extend_from_slice(&reply);
            ok
        }
        Err(e) => {
            eprintln!("request on slot {} failed: {e}", req.slot);
            false
        }
    }
}

/// Set up workload `w` in `shape`, seeded by `seed`, recording set-up
/// spans on `t`.
///
/// # Errors
/// Boot, deploy or attestation failures.
pub fn setup(
    w: Workload,
    shape: Shape,
    seed: u64,
    t: &mut Tracer,
) -> Result<Box<dyn World>, PlatformError> {
    Ok(match w {
        Workload::Fleet => Box::new(FleetWorld::setup(shape, seed, t)?),
        Workload::Data => Box::new(DataWorld::setup(shape, seed, t)?),
        Workload::Lifecycle => Box::new(LifecycleWorld::setup(shape, seed, t)?),
        Workload::Migrate => Box::new(MigrateWorld::setup(shape, seed, t)?),
    })
}

// ---------------------------------------------------------------- fleet

/// A measured fleet step: a request, or a churn kill + redeploy.
enum FleetStep {
    Request(Request),
    Churn { slot: usize, class: FleetClass },
}

struct FleetWorld {
    p: Platform,
    svcs: Vec<Option<ServiceInstance>>,
    clients: Vec<Option<Client>>,
    private_pages: u64,
    budget_pages: u64,
    /// The schedule after its deploy/connect head.
    steps: Vec<FleetStep>,
}

impl FleetWorld {
    fn setup(shape: Shape, seed: u64, t: &mut Tracer) -> Result<FleetWorld, PlatformError> {
        let cfg = inputs::fleet_config(&shape, seed);
        let mut p = boot(true, shape.dram_mib)?;
        let mut svcs: Vec<Option<ServiceInstance>> = (0..cfg.sandboxes).map(|_| None).collect();
        let mut clients: Vec<Option<Client>> = (0..cfg.clients).map(|_| None).collect();
        let mut steps = Vec::new();
        for op in inputs::fleet_schedule(&shape, seed) {
            match op {
                FleetOp::Deploy { slot, class } => {
                    svcs[slot] = Some(deploy(
                        &mut p,
                        t,
                        class.workload(cfg.private_pages),
                        cfg.budget_pages,
                    )?);
                }
                FleetOp::Connect { slot } => {
                    let svc = svcs[slot].as_ref().expect("schedule connects after deploy");
                    clients[slot] = Some(connect(
                        &mut p,
                        t,
                        svc,
                        inputs::key_seed(seed, 0xf1ee, slot as u64),
                    )?);
                }
                // Churn only replaces non-client slots, so a client slot
                // keeps its boot-time class for the whole schedule.
                FleetOp::Request { slot, payload } => steps.push(FleetStep::Request(Request {
                    slot,
                    expect: inputs::fleet_expect(cfg.class_of(slot), &payload),
                    payload,
                })),
                FleetOp::Churn { slot, class } => steps.push(FleetStep::Churn { slot, class }),
            }
        }
        Ok(FleetWorld {
            p,
            svcs,
            clients,
            private_pages: cfg.private_pages,
            budget_pages: cfg.budget_pages,
            steps,
        })
    }

    fn churn(&mut self, t: &mut Tracer, slot: usize, class: FleetClass) -> bool {
        let Some(old) = self.svcs[slot].take() else {
            return false;
        };
        kill(&mut self.p, t, &old);
        match deploy(
            &mut self.p,
            t,
            class.workload(self.private_pages),
            self.budget_pages,
        ) {
            Ok(svc) => {
                self.svcs[slot] = Some(svc);
                true
            }
            Err(e) => {
                eprintln!("fleet redeploy failed: {e}");
                false
            }
        }
    }
}

impl World for FleetWorld {
    fn op(&mut self, i: usize, t: &mut Tracer) -> OpOutcome {
        let before = Probe::take(&self.p);
        let mut replies = Vec::new();
        let (ok, sample) = match &self.steps[i] {
            FleetStep::Request(req) => {
                let ok = match (
                    self.svcs[req.slot].as_mut(),
                    self.clients[req.slot].as_mut(),
                ) {
                    (Some(svc), Some(client)) => {
                        serve_checked(&mut self.p, t, svc, client, req, &mut replies)
                    }
                    _ => false,
                };
                (ok, true)
            }
            &FleetStep::Churn { slot, class } => (self.churn(t, slot, class), false),
        };
        OpOutcome {
            ok,
            sample,
            delta: Probe::take(&self.p).delta(&before),
            replies,
            migration: None,
            downtime_ns: None,
        }
    }

    fn period(&self) -> usize {
        self.steps.len()
    }

    fn audit_clean(&self) -> bool {
        self.p.audit().is_clean()
    }
}

// ----------------------------------------------------------------- data

struct DataWorld {
    p: Platform,
    svcs: Vec<ServiceInstance>,
    clients: Vec<Client>,
    requests: Vec<Request>,
}

impl DataWorld {
    fn setup(shape: Shape, seed: u64, t: &mut Tracer) -> Result<DataWorld, PlatformError> {
        let mut p = boot(false, shape.dram_mib)?;
        let mut svcs = Vec::new();
        let mut clients = Vec::new();
        // paper_workloads() lists the LLM first: its manifest declares the
        // largest common window, so it creates the shared region.
        for (i, (ctor, _standard_request)) in
            erebor_bench::paper_workloads().into_iter().enumerate()
        {
            let svc = deploy(&mut p, t, ctor(), 1 << 20)?;
            clients.push(connect(
                &mut p,
                t,
                &svc,
                inputs::key_seed(seed, 0xda7a, i as u64),
            )?);
            svcs.push(svc);
        }
        Ok(DataWorld {
            p,
            svcs,
            clients,
            requests: inputs::data_requests(seed, shape.ops),
        })
    }
}

impl World for DataWorld {
    fn op(&mut self, i: usize, t: &mut Tracer) -> OpOutcome {
        let before = Probe::take(&self.p);
        let req = &self.requests[i];
        let mut replies = Vec::new();
        let ok = serve_checked(
            &mut self.p,
            t,
            &mut self.svcs[req.slot],
            &mut self.clients[req.slot],
            req,
            &mut replies,
        );
        OpOutcome {
            ok,
            sample: true,
            delta: Probe::take(&self.p).delta(&before),
            replies,
            migration: None,
            downtime_ns: None,
        }
    }

    fn period(&self) -> usize {
        self.requests.len()
    }

    fn audit_clean(&self) -> bool {
        self.p.audit().is_clean()
    }
}

// ------------------------------------------------------------ lifecycle

struct LifecycleWorld {
    p: Platform,
    _resident: Vec<ServiceInstance>,
    ops: Vec<(FleetClass, Request)>,
    private_pages: u64,
    seed: u64,
}

impl LifecycleWorld {
    fn setup(shape: Shape, seed: u64, t: &mut Tracer) -> Result<LifecycleWorld, PlatformError> {
        let mut p = boot(true, shape.dram_mib)?;
        let mut resident = Vec::new();
        for slot in 0..shape.resident {
            let class = if slot % 2 == 0 {
                FleetClass::Nginx
            } else {
                FleetClass::Openssh
            };
            resident.push(deploy(
                &mut p,
                t,
                class.workload(shape.private_pages),
                4096,
            )?);
        }
        Ok(LifecycleWorld {
            p,
            _resident: resident,
            ops: inputs::lifecycle_ops(seed, shape.ops),
            private_pages: shape.private_pages,
            seed,
        })
    }
}

impl World for LifecycleWorld {
    fn op(&mut self, i: usize, t: &mut Tracer) -> OpOutcome {
        let before = Probe::take(&self.p);
        let (class, req) = &self.ops[i];
        let mut replies = Vec::new();
        let p = &mut self.p;
        let ok = match deploy(p, t, class.workload(self.private_pages), 4096) {
            Ok(mut svc) => {
                let ok = match connect(p, t, &svc, inputs::key_seed(self.seed, 0x11fe, i as u64)) {
                    Ok(mut client) => serve_checked(p, t, &mut svc, &mut client, req, &mut replies),
                    Err(e) => {
                        eprintln!("lifecycle connect failed: {e}");
                        false
                    }
                };
                kill(p, t, &svc);
                ok
            }
            Err(e) => {
                eprintln!("lifecycle deploy failed: {e}");
                false
            }
        };
        OpOutcome {
            ok,
            sample: true,
            delta: Probe::take(&self.p).delta(&before),
            replies,
            migration: None,
            downtime_ns: None,
        }
    }

    fn period(&self) -> usize {
        self.ops.len()
    }

    fn audit_clean(&self) -> bool {
        self.p.audit().is_clean()
    }
}

// -------------------------------------------------------------- migrate

struct MigrateWorld {
    /// The two peers; `live` indexes the one the sandboxes run on.
    peers: [Platform; 2],
    live: usize,
    svcs: Vec<ServiceInstance>,
    clients: Vec<Client>,
    ops: Vec<(Vec<Request>, Vec<Request>)>,
    seed: u64,
    /// The destination's trace has been compared with the source's.
    trace_checked: bool,
}

impl MigrateWorld {
    fn setup(shape: Shape, seed: u64, t: &mut Tracer) -> Result<MigrateWorld, PlatformError> {
        // Both peers boot from the same measured image, so each attests
        // as a valid destination for the other.
        let mut a = boot(true, shape.dram_mib)?;
        let b = boot(true, shape.dram_mib)?;
        let mut svcs = Vec::new();
        let mut clients = Vec::new();
        for slot in 0..shape.resident {
            let class = if slot % 2 == 0 {
                FleetClass::Nginx
            } else {
                FleetClass::Openssh
            };
            let svc = deploy(&mut a, t, class.workload(shape.private_pages), 4096)?;
            clients.push(connect(
                &mut a,
                t,
                &svc,
                inputs::key_seed(seed, 0x3197, slot as u64),
            )?);
            svcs.push(svc);
        }
        Ok(MigrateWorld {
            peers: [a, b],
            live: 0,
            svcs,
            clients,
            ops: inputs::migrate_ops(seed, &shape),
            seed,
            trace_checked: false,
        })
    }

    fn serve_batch(&mut self, t: &mut Tracer, batch: &[Request], replies: &mut Vec<u8>) -> bool {
        let p = &mut self.peers[self.live];
        let mut ok = true;
        for req in batch {
            ok &= serve_checked(
                p,
                t,
                &mut self.svcs[req.slot],
                &mut self.clients[req.slot],
                req,
                replies,
            );
        }
        ok
    }

    fn migrate(&mut self, i: usize, t: &mut Tracer) -> Result<OpOutcome, PlatformError> {
        let src_key = MigrationKey::from_seed(inputs::key_seed(self.seed, 0x5ac, i as u64));
        let dst_key = MigrationKey::from_seed(inputs::key_seed(self.seed, 0xd57, i as u64));
        let (src, dst) = (self.live, 1 - self.live);
        let before = Probe::take(&self.peers[src]);
        let offer = t.span("migrate.offer", |_| {
            self.peers[dst].migration_offer(&dst_key, &src_key.public())
        });
        let (mut mig, mut records) = t.span("migrate.begin", |_| {
            self.peers[src].migrate_begin(&src_key, &offer)
        })?;
        let (before_round, after_round) = self.ops[i].clone();
        let mut replies = Vec::new();
        let mut ok = self.serve_batch(t, &before_round, &mut replies);
        records.extend(t.span("migrate.round", |_| {
            self.peers[src].migrate_precopy_round(&mut mig)
        })?);
        ok &= self.serve_batch(t, &after_round, &mut replies);
        let down = Instant::now();
        let (tail, report) = t.span("migrate.finish", |_| self.peers[src].migrate_finish(mig))?;
        let delta = Probe::take(&self.peers[src]).delta(&before);
        records.extend(tail);
        t.span("migrate.import", |_| {
            self.peers[dst].migrate_from(&dst_key, src_key.public(), &records)
        })?;
        let downtime = u64::try_from(down.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if !self.trace_checked {
            // The destination must resume exactly where the quiesced
            // source stopped.
            ok &= self.peers[dst].trace_json() == self.peers[src].trace_json();
            self.trace_checked = true;
        }
        self.live = dst;
        Ok(OpOutcome {
            ok,
            sample: true,
            delta,
            replies,
            migration: Some(report),
            downtime_ns: Some(downtime),
        })
    }
}

impl World for MigrateWorld {
    fn op(&mut self, i: usize, t: &mut Tracer) -> OpOutcome {
        self.migrate(i, t).unwrap_or_else(|e| {
            eprintln!("migration {i} failed: {e}");
            OpOutcome {
                ok: false,
                sample: true,
                delta: Probe::zero(&self.peers[self.live]),
                replies: Vec::new(),
                migration: None,
                downtime_ns: None,
            }
        })
    }

    fn period(&self) -> usize {
        self.ops.len()
    }

    fn audit_clean(&self) -> bool {
        self.peers.iter().all(|p| p.audit().is_clean())
    }
}
