//! Differential equivalence suite for the fleet fast paths: a platform
//! running with the bitmap frame scan and the O(1) monitor lookup
//! structures enabled must be *observationally invisible* next to the
//! ablated (seed-algorithm) platform — byte-identical snapshots, traces,
//! cycle attribution, reply bytes and frame counts — on randomized
//! boot/kill/realloc/serve campaigns and on the deterministic fleet
//! schedule. The only permitted divergence is the observability
//! counters ([`erebor::ecore::stats::LookupStats`], `AllocStats`),
//! which live outside every snapshot.
//!
//! Reproducible via `EREBOR_PT_SEED` like every other property test.

use erebor::ecore::channel::Client;
use erebor::{Mode, Platform, ServiceInstance};
use erebor_testkit::collection;
use erebor_testkit::prelude::*;
use erebor_workloads::env::SandboxedWorkload;
use erebor_workloads::fleet::{FleetClass, FleetConfig, FleetDriver, FleetOp};

/// A platform with the equivalence-relevant fleet fast paths set to
/// `fast`, counters scoped to post-boot work.
fn fleet_platform(fast: bool) -> Platform {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    p.cvm.machine.mem.fast_scan = fast;
    p.cvm.monitor.fast_lookup = fast;
    p.cvm.machine.mem.alloc_stats = Default::default();
    p.cvm.monitor.lookup_stats.reset();
    p
}

struct Slot {
    svc: ServiceInstance,
    client: Client,
    alive: bool,
}

fn deploy_slot(p: &mut Platform, slots: &mut Vec<Slot>, seed: u32) {
    let class = if seed.is_multiple_of(2) {
        FleetClass::Nginx
    } else {
        FleetClass::Openssh
    };
    let pages = 4 + u64::from(seed) % 8;
    let svc = p
        .deploy(Box::new(SandboxedWorkload::new(class.workload(pages))), 4096)
        .expect("deploy");
    let client = p
        .connect_client(&svc, [u8::try_from(seed & 0xff).expect("masked"); 32])
        .expect("attest");
    slots.push(Slot {
        svc,
        client,
        alive: true,
    });
}

fn kill_slot(p: &mut Platform, slots: &mut [Slot], sel: u8) -> bool {
    let live: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].alive).collect();
    if live.is_empty() {
        return false;
    }
    let victim = live[sel as usize % live.len()];
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, slots[victim].svc.sandbox, "equiv kill");
    slots[victim].alive = false;
    true
}

/// Interpret one randomized campaign; returns every reply so the caller
/// can compare data-plane results across the toggle.
fn run_random_campaign(p: &mut Platform, script: &[(u8, u8, u32)]) -> Vec<Vec<u8>> {
    use erebor::elibos::api::Sys;
    let mut slots: Vec<Slot> = Vec::new();
    let mut replies = Vec::new();
    // Every campaign deploys at least once so the gate paths run, and
    // spawns one native process whose kernel-side user mappings drive
    // the CR3→sandbox lookup (`map_user_page` consults it per page).
    deploy_slot(p, &mut slots, 0);
    let pid = p.spawn_native().expect("spawn native");
    let base = p
        .proc(pid)
        .syscall(erebor::ekernel::syscall::nr::MMAP, [0, 4 * 4096, 3, 0, 0, 0])
        .expect("native mmap");
    for page in 0..4u64 {
        p.proc(pid).touch(base + page * 4096, true).expect("native touch");
    }
    for &(sel, slot_sel, seed) in script {
        match sel % 4 {
            0 => deploy_slot(p, &mut slots, seed),
            1 => {
                kill_slot(p, &mut slots, slot_sel);
            }
            2 => {
                let live: Vec<usize> =
                    (0..slots.len()).filter(|&i| slots[i].alive).collect();
                if let Some(&i) = live.get(slot_sel as usize % live.len().max(1)) {
                    let payload = format!("f={}", 4096u64 << (seed % 3));
                    let slot = &mut slots[i];
                    let reply = p
                        .serve_request(&mut slot.svc, &mut slot.client, payload.as_bytes())
                        .expect("serve");
                    replies.push(reply);
                }
            }
            _ => {
                // Realloc: kill one, immediately redeploy another — the
                // free-then-refill pattern the churn loop stresses.
                if kill_slot(p, &mut slots, slot_sel) {
                    deploy_slot(p, &mut slots, seed);
                }
            }
        }
    }
    replies
}

fn assert_platforms_equal(
    on: &Platform,
    off: &Platform,
) -> Result<(), erebor_testkit::prop::CaseError> {
    prop_assert_eq!(
        format!("{:?}", on.snapshot()),
        format!("{:?}", off.snapshot()),
        "snapshot diverged"
    );
    prop_assert_eq!(on.trace_json(), off.trace_json(), "trace JSON diverged");
    prop_assert_eq!(
        on.cvm.machine.cycles.attribution().json(),
        off.cvm.machine.cycles.attribution().json(),
        "attribution buckets diverged"
    );
    prop_assert_eq!(
        on.cvm.machine.mem.allocated_frames(),
        off.cvm.machine.mem.allocated_frames(),
        "allocated frame counts diverged"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn random_campaigns_identical_across_fleet_toggle(
        script in collection::vec((any::<u8>(), any::<u8>(), any::<u32>()), 1..24),
    ) {
        let mut on = fleet_platform(true);
        let mut off = fleet_platform(false);
        let replies_on = run_random_campaign(&mut on, &script);
        let replies_off = run_random_campaign(&mut off, &script);
        prop_assert_eq!(replies_on, replies_off, "reply bytes diverged");
        assert_platforms_equal(&on, &off)?;
        // The ablated platform must never have consulted a fast-path
        // structure; the fast one must have (a deploy always runs the
        // allocator and the map_user_page gate path).
        let off_stats = &off.cvm.monitor.lookup_stats;
        prop_assert_eq!(off_stats.root_index_lookups(), 0);
        prop_assert_eq!(off_stats.as_index_lookups(), 0);
        prop_assert_eq!(off_stats.cpuid_mru_hits(), 0);
        prop_assert_eq!(off.cvm.machine.mem.alloc_stats.words_scanned, 0);
        let on_stats = &on.cvm.monitor.lookup_stats;
        prop_assert!(on_stats.root_index_lookups() > 0);
        prop_assert!(on_stats.as_index_lookups() > 0);
        prop_assert!(on.cvm.machine.mem.alloc_stats.words_scanned > 0);
        // Both post-campaign states satisfy every audit claim (C1–C8).
        prop_assert!(on.audit().is_clean(), "fast platform audit dirty");
        prop_assert!(off.audit().is_clean(), "ablated platform audit dirty");
    }
}

// ====================================================================
// Deterministic fleet-schedule differentials
// ====================================================================

/// A miniature but complete fleet schedule: shared-region class, both
/// server shapes, client routing, interleaved churn.
fn tiny_fleet_config() -> FleetConfig {
    FleetConfig {
        seed: 0xeb0_0001,
        sandboxes: 8,
        clients: 3,
        requests: 40,
        churn: 4,
        private_pages: 8,
        budget_pages: 4096,
        llm_slots: 0,
        retrieval_slots: 1,
    }
}

/// Interpret the deterministic fleet schedule on `p`; returns reply
/// bytes in schedule order.
fn run_fleet_schedule(p: &mut Platform, cfg: FleetConfig) -> Vec<Vec<u8>> {
    let ops = FleetDriver::new(cfg).schedule();
    let mut svcs: Vec<Option<ServiceInstance>> = (0..cfg.sandboxes).map(|_| None).collect();
    let mut clients: Vec<Option<Client>> = (0..cfg.clients).map(|_| None).collect();
    let mut replies = Vec::new();
    for op in ops {
        match op {
            FleetOp::Deploy { slot, class } | FleetOp::Churn { slot, class } => {
                if let Some(old) = svcs[slot].take() {
                    p.cvm
                        .monitor
                        .kill_sandbox(&mut p.cvm.machine, old.sandbox, "fleet churn");
                }
                let program = SandboxedWorkload::new(class.workload(cfg.private_pages));
                svcs[slot] =
                    Some(p.deploy(Box::new(program), cfg.budget_pages).expect("deploy"));
            }
            FleetOp::Connect { slot } => {
                let svc = svcs[slot].as_ref().expect("deploy first");
                let seed = [u8::try_from(slot & 0xff).expect("masked"); 32];
                clients[slot] = Some(p.connect_client(svc, seed).expect("attest"));
            }
            FleetOp::Request { slot, payload } => {
                let svc = svcs[slot].as_mut().expect("deploy first");
                let client = clients[slot].as_mut().expect("connect first");
                replies.push(p.serve_request(svc, client, &payload).expect("serve"));
            }
        }
    }
    replies
}

/// The acceptance claim: the full fleet schedule — retrieval included,
/// churn included — is byte-identical across the fast/ablated toggle.
#[test]
fn fleet_schedule_identical_across_toggle() {
    let cfg = tiny_fleet_config();
    let mut on = fleet_platform(true);
    let mut off = fleet_platform(false);
    let replies_on = run_fleet_schedule(&mut on, cfg);
    let replies_off = run_fleet_schedule(&mut off, cfg);
    assert_eq!(replies_on, replies_off, "reply bytes diverged");
    assert_eq!(
        format!("{:?}", on.snapshot()),
        format!("{:?}", off.snapshot()),
        "snapshot diverged"
    );
    assert_eq!(on.trace_json(), off.trace_json(), "trace diverged");
    assert_eq!(
        on.cvm.machine.mem.allocated_frames(),
        off.cvm.machine.mem.allocated_frames()
    );
    // Pure-sandbox schedules drive the address-space index (every
    // context switch validates CR3 against it); the CR3→sandbox index
    // is covered by the native-mapping campaigns above.
    assert!(on.cvm.monitor.lookup_stats.as_index_lookups() > 0);
    assert_eq!(off.cvm.monitor.lookup_stats.as_index_lookups(), 0);
    assert!(on.audit().is_clean());
    assert!(off.audit().is_clean());
}

/// Same-seed determinism of the full fleet mode: two identical
/// campaigns, each kill and seal paying one gathered shootdown round,
/// produce byte-identical traces and audit clean.
#[test]
fn coalesced_campaign_is_deterministic() {
    let cfg = tiny_fleet_config();
    let run = || {
        let mut p = Platform::boot(Mode::Full).expect("boot");
        p.set_fleet_mode(true);
        let replies = run_fleet_schedule(&mut p, cfg);
        assert!(p.audit().is_clean(), "coalesced campaign audit dirty");
        (replies, p.trace_json(), format!("{:?}", p.snapshot()))
    };
    let (r1, t1, s1) = run();
    let (r2, t2, s2) = run();
    assert_eq!(r1, r2, "replies diverged across same-seed runs");
    assert_eq!(t1, t2, "trace diverged across same-seed runs");
    assert_eq!(s1, s2, "snapshot diverged across same-seed runs");
}

/// Red ablation check: flipping the toggles off genuinely disables the
/// structures (counters pinned at zero), flipping them on genuinely
/// engages them — so the equivalence properties above are comparing a
/// real fast path against a real baseline, not two copies of one path.
#[test]
fn ablation_toggles_are_load_bearing() {
    let script: Vec<(u8, u8, u32)> = vec![(0, 0, 3), (2, 0, 1), (3, 0, 5), (2, 1, 2)];
    let mut on = fleet_platform(true);
    run_random_campaign(&mut on, &script);
    let stats = &on.cvm.monitor.lookup_stats;
    assert!(stats.root_index_lookups() > 0, "root index never consulted");
    assert!(stats.as_index_lookups() > 0, "as index never consulted");
    assert!(
        on.cvm.machine.mem.alloc_stats.words_scanned > 0,
        "bitmap scan never ran"
    );
    let mut off = fleet_platform(false);
    run_random_campaign(&mut off, &script);
    let stats = &off.cvm.monitor.lookup_stats;
    assert_eq!(stats.root_index_lookups(), 0);
    assert_eq!(stats.as_index_lookups(), 0);
    assert_eq!(stats.cpuid_mru_hits(), 0);
    // `frames_scanned` meters the ablated linear scan as well;
    // `words_scanned` is the fast-path-only counter.
    assert_eq!(off.cvm.machine.mem.alloc_stats.words_scanned, 0);
    assert!(off.cvm.machine.mem.alloc_stats.frames_scanned > 0);
}
