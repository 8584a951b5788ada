//! Fleet-scale serving harness: a seeded, deterministic request-driven
//! load generator for many-sandbox campaigns (DESIGN.md §10).
//!
//! The driver does three things, all without touching the platform crate
//! (the interpreter loop lives in `benches/fleet.rs` and the fleet test
//! suites, which own a `Platform`):
//!
//! 1. **Schedule generation** — [`FleetDriver::schedule`] expands a
//!    [`FleetConfig`] into a flat op list (deploys, client connects,
//!    requests, churn kills/redeploys). Same config → byte-identical
//!    schedule, so two interpreter runs are comparable op-for-op.
//! 2. **Workload construction** — [`FleetClass::workload`] builds the
//!    per-slot service program: Nginx/OpenSSH-shaped [`FleetServer`]s
//!    carrying a configurable confined footprint, plus the existing
//!    [`crate::retrieval::Retrieval`] and [`crate::llm::LlmInference`]
//!    programs for the data-heavy share of the mix.
//! 3. **Latency accounting** — [`LatencyRecorder`] turns per-request
//!    monitor-gate cycle deltas into p50/p99/p999 figures.
//!
//! Schedule invariants the interpreter may rely on:
//! * Shared-region classes (retrieval, LLM) occupy the lowest slots and
//!   deploy before everything else, so the LLM instance — whose manifest
//!   declares the largest shared window — creates the common region, and
//!   every later attacher's wrapped reads stay inside it.
//! * Churn victims are always non-client Nginx/OpenSSH slots: their
//!   manifests declare no common region, so redeploying them after the
//!   first client record has sealed the shared region never triggers a
//!   write-after-seal kill.

use crate::env::{Env, Workload, WorkloadParams};
use crate::llm::LlmInference;
use crate::retrieval::Retrieval;
use erebor_libos::api::SysError;

/// Fixed per-request server work: accept, parse, headers, teardown
/// (mirrors the native servers.rs cost model).
const REQUEST_FIXED_CYCLES: u64 = 40_000;
/// Cycles per encrypted byte (OpenSSH-style ChaCha20 + MAC).
const ENC_CYCLES_PER_BYTE: u64 = 4;
/// Cycles per copied byte (memcpy + TCP segmentation).
const COPY_CYCLES_PER_BYTE: u64 = 3;
/// OpenSSH transfer chunk (cipher-block pipeline buffers).
const SSH_CHUNK: u64 = 16 * 1024;
/// Nginx sendfile chunk (larger zero-copy spans per syscall).
const NGINX_CHUNK: u64 = 64 * 1024;
/// A fleet server consults the emulated cpuid this often (per request).
const CPUID_EVERY: u64 = 16;
/// File sizes the load generator requests, picked per-request by seed.
const FILE_SIZES: [u64; 3] = [4 * 1024, 16 * 1024, 64 * 1024];

/// splitmix64: the schedule's only source of randomness. Deterministic,
/// seed-stable across platforms; the same generator the chaos suites use.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The class of service program occupying one fleet slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetClass {
    /// Static-file serving: large sendfile chunks, no encryption.
    Nginx,
    /// Encrypted transfer: smaller chunks, per-byte cipher cost.
    Openssh,
    /// Vector retrieval over the shared database ([`Retrieval`]).
    Retrieval,
    /// Token generation streaming shared weights ([`LlmInference`]).
    Llm,
}

impl FleetClass {
    /// Whether this class's manifest attaches the shared common region.
    #[must_use]
    pub fn uses_shared_region(self) -> bool {
        matches!(self, FleetClass::Retrieval | FleetClass::Llm)
    }

    /// Build the slot's workload. `private_pages` pads the confined
    /// footprint of the Nginx/OpenSSH servers (the fleet's allocator
    /// stressor); the retrieval/LLM programs keep their own shapes.
    #[must_use]
    pub fn workload(self, private_pages: u64) -> Box<dyn Workload> {
        match self {
            FleetClass::Nginx => Box::new(FleetServer::new(self, private_pages)),
            FleetClass::Openssh => Box::new(FleetServer::new(self, private_pages)),
            FleetClass::Retrieval => Box::new(Retrieval::default()),
            FleetClass::Llm => Box::new(LlmInference::default()),
        }
    }
}

/// An Nginx/OpenSSH-shaped sandboxed service: per-request fixed cost plus
/// per-chunk copy (and, for OpenSSH, encryption) cycles, a rotating
/// private-page working set, and a periodic cpuid probe. The request is
/// `f=<bytes>` — the reply echoes the byte count served.
#[derive(Debug)]
pub struct FleetServer {
    class: FleetClass,
    private_pages: u64,
    requests: u64,
}

impl FleetServer {
    /// A server of `class` with a `private_pages` confined footprint.
    ///
    /// # Panics
    /// If `class` is not one of the server shapes.
    #[must_use]
    pub fn new(class: FleetClass, private_pages: u64) -> FleetServer {
        assert!(
            matches!(class, FleetClass::Nginx | FleetClass::Openssh),
            "FleetServer models the Nginx/OpenSSH classes"
        );
        FleetServer {
            class,
            private_pages: private_pages.max(1),
            requests: 0,
        }
    }
}

impl Workload for FleetServer {
    fn name(&self) -> &'static str {
        match self.class {
            FleetClass::Openssh => "fleet-openssh",
            _ => "fleet-nginx",
        }
    }

    fn params(&self) -> WorkloadParams {
        WorkloadParams {
            private_pages: self.private_pages,
            logical_private: self.private_pages * erebor_hw::PAGE_SIZE as u64,
            shared_pages: 0,
            logical_shared: 0,
            threads: 1,
        }
    }

    fn serve(&mut self, env: &mut dyn Env, request: &[u8]) -> Result<Vec<u8>, SysError> {
        let text = String::from_utf8_lossy(request);
        let bytes = text
            .strip_prefix("f=")
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(FILE_SIZES[0]);
        let (chunk, per_byte) = match self.class {
            FleetClass::Openssh => (SSH_CHUNK, ENC_CYCLES_PER_BYTE + COPY_CYCLES_PER_BYTE),
            _ => (NGINX_CHUNK, COPY_CYCLES_PER_BYTE),
        };
        env.compute(REQUEST_FIXED_CYCLES)?;
        let mut sent = 0u64;
        while sent < bytes {
            let n = chunk.min(bytes - sent);
            env.compute(n * per_byte)?;
            // Each chunk stages through a different private buffer page.
            env.touch_private((self.requests + sent / chunk) % self.private_pages)?;
            sent += n;
        }
        self.requests += 1;
        if self.requests.is_multiple_of(CPUID_EVERY) {
            env.cpuid()?;
        }
        Ok(format!("served={bytes}").into_bytes())
    }
}

/// One step of a fleet campaign, interpreted against a platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetOp {
    /// Deploy `class` into slot `slot`.
    Deploy {
        /// Slot index, `0..sandboxes`.
        slot: usize,
        /// Program class.
        class: FleetClass,
    },
    /// Attest and connect a client to slot `slot`.
    Connect {
        /// Slot index, `0..clients`.
        slot: usize,
    },
    /// One request/response round trip on slot `slot`'s client.
    Request {
        /// Slot index, `0..clients`.
        slot: usize,
        /// Request bytes for the slot's program.
        payload: Vec<u8>,
    },
    /// Kill slot `slot`'s sandbox and redeploy `class` into it.
    Churn {
        /// Victim slot, always `clients..sandboxes`.
        slot: usize,
        /// Replacement class (never a shared-region class).
        class: FleetClass,
    },
}

/// Campaign shape. [`FleetConfig::full`] is the persisted-benchmark
/// configuration; [`FleetConfig::smoke`] the CI-sized one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Schedule seed.
    pub seed: u64,
    /// Concurrent sandboxes booted.
    pub sandboxes: usize,
    /// Slots with connected clients (requests route among these).
    pub clients: usize,
    /// Total request round trips.
    pub requests: usize,
    /// Kill+redeploy cycles interleaved with the request stream.
    pub churn: usize,
    /// Confined footprint (pages) of each Nginx/OpenSSH server.
    pub private_pages: u64,
    /// Per-sandbox confined budget passed to deploy.
    pub budget_pages: u64,
    /// Slots running [`LlmInference`].
    pub llm_slots: usize,
    /// Slots running [`Retrieval`].
    pub retrieval_slots: usize,
}

impl FleetConfig {
    /// The full campaign behind `BENCH_fleet.json`: 768 sandboxes,
    /// 100k requests, 128 churn cycles.
    #[must_use]
    pub fn full() -> FleetConfig {
        FleetConfig {
            seed: 0xf1ee_7001,
            sandboxes: 768,
            clients: 64,
            requests: 100_000,
            churn: 128,
            private_pages: 480,
            budget_pages: 4096,
            llm_slots: 1,
            retrieval_slots: 6,
        }
    }

    /// CI-sized smoke campaign: same shape, two orders of magnitude
    /// smaller.
    #[must_use]
    pub fn smoke() -> FleetConfig {
        FleetConfig {
            seed: 0xf1ee_7001,
            sandboxes: 64,
            clients: 16,
            requests: 2_000,
            churn: 16,
            private_pages: 96,
            budget_pages: 4096,
            llm_slots: 1,
            retrieval_slots: 2,
        }
    }

    /// The class occupying `slot` at boot: shared-region classes first
    /// (LLM lowest, so its manifest creates the common region at its
    /// largest declared size), then alternating Nginx/OpenSSH.
    #[must_use]
    pub fn class_of(&self, slot: usize) -> FleetClass {
        if slot < self.llm_slots {
            FleetClass::Llm
        } else if slot < self.llm_slots + self.retrieval_slots {
            FleetClass::Retrieval
        } else if slot.is_multiple_of(2) {
            FleetClass::Nginx
        } else {
            FleetClass::Openssh
        }
    }

    fn validate(&self) {
        assert!(self.sandboxes >= 1, "need at least one sandbox");
        assert!(
            self.clients >= 1 && self.clients < self.sandboxes,
            "need clients in 1..sandboxes so churn has victims"
        );
        assert!(
            self.llm_slots + self.retrieval_slots <= self.clients,
            "shared-region slots must all be client slots (never churned)"
        );
    }
}

/// Expands a [`FleetConfig`] into its deterministic op schedule.
#[derive(Debug)]
pub struct FleetDriver {
    /// The campaign shape.
    pub cfg: FleetConfig,
}

impl FleetDriver {
    /// A driver for `cfg`.
    ///
    /// # Panics
    /// On inconsistent configs (no churn victims, shared-region slots
    /// outside the client range).
    #[must_use]
    pub fn new(cfg: FleetConfig) -> FleetDriver {
        cfg.validate();
        FleetDriver { cfg }
    }

    /// The full op schedule: deploys, connects, then the request stream
    /// with churn interleaved at even intervals. Pure function of the
    /// config — two calls return identical vectors.
    #[must_use]
    pub fn schedule(&self) -> Vec<FleetOp> {
        let cfg = &self.cfg;
        let mut rng = cfg.seed;
        let mut ops =
            Vec::with_capacity(cfg.sandboxes + cfg.clients + cfg.requests + cfg.churn);
        for slot in 0..cfg.sandboxes {
            ops.push(FleetOp::Deploy {
                slot,
                class: cfg.class_of(slot),
            });
        }
        for slot in 0..cfg.clients {
            ops.push(FleetOp::Connect { slot });
        }
        let churn_every = cfg
            .requests
            .checked_div(cfg.churn)
            .unwrap_or(usize::MAX)
            .max(1);
        for i in 0..cfg.requests {
            let slot = self.pick_request_slot(&mut rng);
            ops.push(FleetOp::Request {
                slot,
                payload: self.payload_for(cfg.class_of(slot), &mut rng),
            });
            if (i + 1) % churn_every == 0 && cfg.churn > 0 {
                // Victims are non-client slots: by construction all
                // Nginx/OpenSSH, so redeploy never writes a sealed
                // common region. Alternate the replacement class.
                let victims = cfg.sandboxes - cfg.clients;
                let slot = cfg.clients + (splitmix64(&mut rng) as usize % victims);
                let class = if splitmix64(&mut rng).is_multiple_of(2) {
                    FleetClass::Nginx
                } else {
                    FleetClass::Openssh
                };
                ops.push(FleetOp::Churn { slot, class });
            }
        }
        ops
    }

    /// Weighted client pick: the LLM slot sees roughly one request in
    /// 256 and each retrieval slot one in ~64; the Nginx/OpenSSH client
    /// slots split the rest uniformly.
    fn pick_request_slot(&self, rng: &mut u64) -> usize {
        let cfg = &self.cfg;
        let roll = splitmix64(rng);
        if cfg.llm_slots > 0 && roll.is_multiple_of(256) {
            (splitmix64(rng) as usize) % cfg.llm_slots
        } else if cfg.retrieval_slots > 0 && roll % 16 == 1 {
            cfg.llm_slots + (splitmix64(rng) as usize) % cfg.retrieval_slots
        } else {
            let shared = cfg.llm_slots + cfg.retrieval_slots;
            shared + (splitmix64(rng) as usize) % (cfg.clients - shared)
        }
    }

    fn payload_for(&self, class: FleetClass, rng: &mut u64) -> Vec<u8> {
        match class {
            FleetClass::Llm => b"gen=1;the quick brown fox".to_vec(),
            FleetClass::Retrieval => {
                format!("q=2;{}", splitmix64(rng) % 1000).into_bytes()
            }
            _ => {
                let size = FILE_SIZES[splitmix64(rng) as usize % FILE_SIZES.len()];
                format!("f={size}").into_bytes()
            }
        }
    }
}

/// Accumulates per-request latency samples (monitor-gate cycle deltas)
/// and reports percentiles.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
}

impl LatencyRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Record one sample.
    pub fn push(&mut self, sample: u64) {
        self.samples.push(sample);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (nearest-rank on the sorted samples); 0 when
    /// empty. `q` is clamped to `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        // Deterministic nearest-rank: ceil(q·n) − 1.
        let idx = ((sorted.len() as f64 * q).ceil() as usize).saturating_sub(1);
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Mean sample, 0 when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let sum: u128 = self.samples.iter().map(|&s| u128::from(s)).sum();
        (sum / self.samples.len() as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let d = FleetDriver::new(FleetConfig::smoke());
        assert_eq!(d.schedule(), d.schedule());
    }

    #[test]
    fn schedule_shape_matches_config() {
        let cfg = FleetConfig::smoke();
        let ops = FleetDriver::new(cfg).schedule();
        let deploys = ops
            .iter()
            .filter(|o| matches!(o, FleetOp::Deploy { .. }))
            .count();
        let connects = ops
            .iter()
            .filter(|o| matches!(o, FleetOp::Connect { .. }))
            .count();
        let requests = ops
            .iter()
            .filter(|o| matches!(o, FleetOp::Request { .. }))
            .count();
        let churns = ops
            .iter()
            .filter(|o| matches!(o, FleetOp::Churn { .. }))
            .count();
        assert_eq!(deploys, cfg.sandboxes);
        assert_eq!(connects, cfg.clients);
        assert_eq!(requests, cfg.requests);
        assert_eq!(churns, cfg.churn);
    }

    #[test]
    fn churn_never_targets_clients_or_shared_regions() {
        let cfg = FleetConfig::smoke();
        for op in FleetDriver::new(cfg).schedule() {
            if let FleetOp::Churn { slot, class } = op {
                assert!(slot >= cfg.clients, "churned a client slot {slot}");
                assert!(!class.uses_shared_region());
                assert!(!cfg.class_of(slot).uses_shared_region());
            }
        }
    }

    #[test]
    fn shared_classes_occupy_lowest_slots_llm_first() {
        let cfg = FleetConfig::full();
        assert_eq!(cfg.class_of(0), FleetClass::Llm);
        for slot in cfg.llm_slots..cfg.llm_slots + cfg.retrieval_slots {
            assert_eq!(cfg.class_of(slot), FleetClass::Retrieval);
        }
        for slot in cfg.llm_slots + cfg.retrieval_slots..cfg.sandboxes {
            assert!(!cfg.class_of(slot).uses_shared_region());
        }
    }

    #[test]
    fn requests_route_to_clients_only() {
        let cfg = FleetConfig::smoke();
        for op in FleetDriver::new(cfg).schedule() {
            if let FleetOp::Request { slot, .. } = op {
                assert!(slot < cfg.clients);
            }
        }
    }

    #[test]
    fn full_config_meets_issue_floors() {
        let cfg = FleetConfig::full();
        assert!(cfg.sandboxes >= 256);
        assert!(cfg.requests >= 100_000);
    }

    #[test]
    fn recorder_percentiles() {
        let mut r = LatencyRecorder::new();
        for v in 1..=1000u64 {
            r.push(v);
        }
        assert_eq!(r.quantile(0.5), 500);
        assert_eq!(r.quantile(0.99), 990);
        assert_eq!(r.quantile(0.999), 999);
        assert_eq!(r.quantile(1.0), 1000);
        assert_eq!(r.mean(), 500);
        assert!(!r.is_empty());
        assert_eq!(r.len(), 1000);
    }

    #[test]
    fn recorder_empty_is_zero() {
        let r = LatencyRecorder::new();
        assert_eq!(r.quantile(0.999), 0);
        assert_eq!(r.mean(), 0);
    }

    #[test]
    fn fleet_server_params_carry_footprint() {
        let s = FleetServer::new(FleetClass::Nginx, 480);
        assert_eq!(s.params().private_pages, 480);
        assert_eq!(s.params().shared_pages, 0);
        assert_eq!(s.name(), "fleet-nginx");
        assert_eq!(FleetServer::new(FleetClass::Openssh, 1).name(), "fleet-openssh");
    }

    #[test]
    fn splitmix_reference_values() {
        // Known-good splitmix64 outputs for seed 0 (reference vector).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
    }
}
