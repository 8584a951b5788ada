//! Equivalence suite for the monitor's O(1) lookup indexes: on
//! randomized boot/kill/realloc/serve campaigns and on the deterministic
//! fleet schedule, after *every* operation, `sandbox_by_root` and
//! `address_space_registered` must agree with a linear scan over the
//! authoritative tables (`monitor.sandboxes`, `address_space_roots()`),
//! and every campaign must end audit-clean. Same-seed fleet campaigns
//! must be byte-identical. The allocator's frame order is held to a
//! brute-force first-fit oracle by the unit tests of `erebor_hw::phys`.
//!
//! Reproducible via `EREBOR_PT_SEED` like every other property test.

use erebor::ecore::channel::Client;
use erebor::ecore::sandbox::SandboxState;
use erebor::ehw::Frame;
use erebor::{Mode, Platform, ServiceInstance};
use erebor_testkit::collection;
use erebor_testkit::prelude::*;
use erebor_workloads::env::SandboxedWorkload;
use erebor_workloads::fleet::{FleetClass, FleetConfig, FleetDriver, FleetOp};

/// A booted platform with its counters scoped to post-boot work.
fn fleet_platform() -> Platform {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    p.cvm.machine.mem.alloc_stats = Default::default();
    p.cvm.monitor.lookup_stats.reset();
    p
}

/// The linear reference for the monitor's indexed lookups. It also
/// tallies the index lookups its own probes cost, so a campaign's
/// counters can still show that the campaign itself used the indexes.
#[derive(Default)]
struct LinearReference {
    checks: usize,
    own_root_lookups: u64,
    own_as_lookups: u64,
}

impl LinearReference {
    /// Compare both indexed lookups with a linear scan, over every
    /// sandbox root ever created (live or dead), every registered
    /// address-space root, and one frame past DRAM that is neither.
    fn check(&mut self, p: &Platform) {
        let m = &p.cvm.monitor;
        let stats = &m.lookup_stats;
        let (root_before, as_before) = (stats.root_index_lookups(), stats.as_index_lookups());
        let registered = m.address_space_roots();
        let mut probes: Vec<Frame> = m.sandboxes.values().map(|s| s.root).collect();
        probes.extend(registered.iter().copied());
        probes.push(Frame(p.cvm.machine.mem.total_frames()));
        for root in probes {
            let linear = m
                .sandboxes
                .values()
                .find(|s| s.root == root && s.state != SandboxState::Dead)
                .map(|s| s.id);
            assert_eq!(
                m.sandbox_by_root(root),
                linear,
                "sandbox_by_root({root:?}) diverged from the linear scan after op {}",
                self.checks
            );
            assert_eq!(
                m.address_space_registered(root),
                registered.contains(&root),
                "address_space_registered({root:?}) diverged from the linear scan after op {}",
                self.checks
            );
        }
        self.own_root_lookups = self
            .own_root_lookups
            .saturating_add(stats.root_index_lookups().saturating_sub(root_before));
        self.own_as_lookups = self
            .own_as_lookups
            .saturating_add(stats.as_index_lookups().saturating_sub(as_before));
        self.checks += 1;
    }

    /// The (root-index, address-space-index) lookups the campaign made,
    /// net of this reference's own probes.
    fn campaign_lookups(&self, p: &Platform) -> (u64, u64) {
        let stats = &p.cvm.monitor.lookup_stats;
        (
            stats.root_index_lookups() - self.own_root_lookups,
            stats.as_index_lookups() - self.own_as_lookups,
        )
    }
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

/// Interpret one randomized campaign, checking the lookups against
/// `reference` after every operation.
fn run_random_campaign(
    p: &mut Platform,
    script: &[(u8, u8, u32)],
    reference: &mut LinearReference,
) {
    use erebor::elibos::api::Sys;
    let mut slots: Vec<Slot> = Vec::new();
    // Every campaign deploys at least once so the gate paths run, and
    // spawns one native process whose kernel-side user mappings drive
    // the CR3→sandbox lookup (`map_user_page` consults it per page).
    deploy_slot(p, &mut slots, 0);
    reference.check(p);
    let pid = p.spawn_native().expect("spawn native");
    let base = p
        .proc(pid)
        .syscall(erebor::ekernel::syscall::nr::MMAP, [0, 4 * 4096, 3, 0, 0, 0])
        .expect("native mmap");
    for page in 0..4u64 {
        p.proc(pid).touch(base + page * 4096, true).expect("native touch");
        reference.check(p);
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
                    p.serve_request(&mut slot.svc, &mut slot.client, payload.as_bytes())
                        .expect("serve");
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
        reference.check(p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn random_campaigns_match_linear_lookups(
        script in collection::vec((any::<u8>(), any::<u8>(), any::<u32>()), 1..24),
    ) {
        let mut p = fleet_platform();
        let mut reference = LinearReference::default();
        run_random_campaign(&mut p, &script, &mut reference);
        // The campaign itself drove both indexes: every deploy runs the
        // map_user_page gate path and the native mappings consult the
        // CR3→sandbox index.
        let (root_lookups, as_lookups) = reference.campaign_lookups(&p);
        prop_assert!(root_lookups > 0);
        prop_assert!(as_lookups > 0);
        prop_assert!(p.cvm.machine.mem.alloc_stats.words_scanned > 0);
        // The post-campaign state satisfies every audit claim (C1–C8).
        prop_assert!(p.audit().is_clean(), "campaign audit dirty");
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

/// Interpret the deterministic fleet schedule on `p`, checking the
/// lookups against `reference` after every op; returns reply bytes in
/// schedule order.
fn run_fleet_schedule(
    p: &mut Platform,
    cfg: FleetConfig,
    reference: &mut LinearReference,
) -> Vec<Vec<u8>> {
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
        reference.check(p);
    }
    replies
}

/// The acceptance claim: through the full fleet schedule — retrieval
/// included, churn included — the indexed lookups agree with the linear
/// scan after every op, and the final state audits clean.
#[test]
fn fleet_schedule_matches_linear_lookups() {
    let cfg = tiny_fleet_config();
    let mut p = fleet_platform();
    let mut reference = LinearReference::default();
    run_fleet_schedule(&mut p, cfg, &mut reference);
    // Pure-sandbox schedules drive the address-space index (every
    // context switch validates CR3 against it); the CR3→sandbox index
    // is covered by the native-mapping campaigns above.
    assert!(reference.campaign_lookups(&p).1 > 0);
    assert!(p.audit().is_clean());
}

/// Same-seed determinism of the fleet schedule: two identical
/// campaigns, each kill and seal paying one gathered shootdown round,
/// produce byte-identical traces and audit clean.
#[test]
fn coalesced_campaign_is_deterministic() {
    let cfg = tiny_fleet_config();
    let run = || {
        let mut p = Platform::boot(Mode::Full).expect("boot");
        let replies = run_fleet_schedule(&mut p, cfg, &mut LinearReference::default());
        assert!(p.audit().is_clean(), "coalesced campaign audit dirty");
        (replies, p.trace_json(), format!("{:?}", p.snapshot()))
    };
    let (r1, t1, s1) = run();
    let (r2, t2, s2) = run();
    assert_eq!(r1, r2, "replies diverged across same-seed runs");
    assert_eq!(t1, t2, "trace diverged across same-seed runs");
    assert_eq!(s1, s2, "snapshot diverged across same-seed runs");
}
