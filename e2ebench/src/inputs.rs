//! Workload shapes and the seeded inputs the benchmark feeds the
//! platform. Everything the platform receives is generated here from the
//! `--seed` argument; the same seed always yields the same inputs.

use erebor::eworkloads::fleet::{splitmix64, FleetClass, FleetConfig, FleetDriver, FleetOp};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning; a performance claim is re-checked on it.
pub const HELD_OUT_SEED: u64 = 0x00C0_FFEE;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many resident TME-MK sandboxes, small server requests plus churn.
    Fleet,
    /// The five Table 5 private-data programs in one CVM.
    Data,
    /// Deploy → attest → one request → kill, next to resident sandboxes.
    Lifecycle,
    /// Live migration ping-pong between two platforms under traffic.
    Migrate,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::Fleet,
        Workload::Data,
        Workload::Lifecycle,
        Workload::Migrate,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Data => "data",
            Workload::Lifecycle => "lifecycle",
            Workload::Migrate => "migrate",
        }
    }

    /// Parse a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one workload run. [`Shape::full`] is what the command line
/// runs; [`Shape::tiny`] keeps the tests fast.
///
/// A run is a sequence of epochs. Each epoch sets the workload up on a
/// freshly booted platform and runs `ops` ops whose inputs come from
/// [`epoch_seed`]. Killed sandboxes stay registered address spaces, so
/// the audit's cost grows with every kill; fresh epochs keep the final
/// audit bounded however long the run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Sandboxes deployed before the first op of an epoch.
    pub resident: usize,
    /// Resident sandboxes with an attested client (fleet, migrate).
    pub clients: usize,
    /// Fleet slots running the retrieval program.
    pub retrieval_slots: usize,
    /// Ops per epoch.
    pub ops: usize,
    /// Leading epochs that the simulated metrics and the digest cover.
    pub sim_epochs: usize,
    /// Fleet: one kill/redeploy every this many requests.
    pub churn_every: usize,
    /// Confined pages of each Nginx/OpenSSH server.
    pub private_pages: u64,
    /// Simulated DRAM in MiB. Sandbox capacity grows with it, and so do
    /// the audit's time and memory.
    pub dram_mib: u64,
    /// Migrate: requests between `migrate_begin` and the pre-copy round.
    pub requests_before_round: usize,
    /// Migrate: requests between the pre-copy round and `migrate_finish`.
    pub requests_after_round: usize,
    /// Sample ops per block when computing the median host rate.
    pub block_ops: usize,
}

impl Shape {
    /// The benchmark's shape for `w`.
    #[must_use]
    pub fn full(w: Workload) -> Shape {
        let base = Shape {
            resident: 0,
            clients: 0,
            retrieval_slots: 0,
            ops: 0,
            sim_epochs: 1,
            churn_every: 0,
            private_pages: 32,
            dram_mib: 128,
            requests_before_round: 0,
            requests_after_round: 0,
            block_ops: 1,
        };
        match w {
            // 256 resident servers need ~320 MiB of DRAM at 16 pages
            // each; the extra leaves room for churn redeploys.
            Workload::Fleet => Shape {
                resident: 256,
                clients: 64,
                retrieval_slots: 6,
                ops: 16_384,
                sim_epochs: 2,
                churn_every: 512,
                private_pages: 16,
                dram_mib: 352,
                block_ops: 1024,
                ..base
            },
            Workload::Data => Shape {
                resident: 5,
                ops: 500,
                sim_epochs: 2,
                block_ops: 20,
                ..base
            },
            Workload::Lifecycle => Shape {
                resident: 64,
                ops: 400,
                sim_epochs: 3,
                block_ops: 40,
                ..base
            },
            Workload::Migrate => Shape {
                resident: 32,
                clients: 32,
                ops: 8,
                sim_epochs: 32,
                requests_before_round: 16,
                requests_after_round: 4,
                ..base
            },
        }
    }

    /// A small shape of `w` with the same structure, for tests.
    #[must_use]
    pub fn tiny(w: Workload) -> Shape {
        let full = Shape::full(w);
        match w {
            Workload::Fleet => Shape {
                resident: 24,
                clients: 8,
                retrieval_slots: 2,
                ops: 120,
                churn_every: 30,
                dram_mib: 128,
                block_ops: 16,
                ..full
            },
            Workload::Data => Shape {
                ops: 10,
                block_ops: 5,
                ..full
            },
            Workload::Lifecycle => Shape {
                resident: 4,
                ops: 6,
                block_ops: 2,
                ..full
            },
            Workload::Migrate => Shape {
                resident: 3,
                clients: 3,
                ops: 2,
                requests_before_round: 3,
                requests_after_round: 2,
                ..full
            },
        }
    }
}

/// The input seed of epoch `epoch` of a run seeded `seed`; epoch 0 uses
/// the run seed itself.
#[must_use]
pub fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    if epoch == 0 {
        return seed;
    }
    let mut s = seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut s)
}

/// What a correct reply looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Exactly these bytes.
    Exact(Vec<u8>),
    /// Starts with these bytes.
    Prefix(Vec<u8>),
    /// This many space-separated tokens.
    Tokens(usize),
}

impl Expect {
    /// Whether `reply` is correct.
    #[must_use]
    pub fn holds(&self, reply: &[u8]) -> bool {
        match self {
            Expect::Exact(b) => reply == b.as_slice(),
            Expect::Prefix(b) => reply.starts_with(b),
            Expect::Tokens(n) => {
                reply
                    .split(|&c| c == b' ')
                    .filter(|t| !t.is_empty())
                    .count()
                    == *n
            }
        }
    }
}

/// One request: the sandbox slot it goes to, its bytes and the check
/// on its reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Target slot.
    pub slot: usize,
    /// Request bytes.
    pub payload: Vec<u8>,
    /// Reply check.
    pub expect: Expect,
}

/// Per-stream generator seeded from the run seed and a stream tag, so
/// the streams stay independent of each other's lengths.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `tag` of run seed `seed`.
    #[must_use]
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut s = seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93);
        Rng(splitmix64(&mut s))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A 32-byte key seed for stream `tag`, item `i`.
#[must_use]
pub fn key_seed(seed: u64, tag: u64, i: u64) -> [u8; 32] {
    let mut rng = Rng::new(seed ^ i.rotate_left(17), tag);
    let mut out = [0u8; 32];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// File sizes the Nginx/OpenSSH servers are asked for.
pub const FILE_SIZES: [u64; 3] = [4 * 1024, 16 * 1024, 64 * 1024];

/// A file size for a server request: [`FILE_SIZES`]`[class]` less up to
/// 1 KiB, so that per-request costs, and the percentiles built from
/// them, are not the same three values on every seed.
#[must_use]
pub fn file_size(rng: &mut Rng, class: usize) -> u64 {
    FILE_SIZES[class % FILE_SIZES.len()] - rng.next_u64() % 1024
}

/// A seeded `f=<bytes>` request of size class `class` for an
/// Nginx/OpenSSH server in `slot`.
#[must_use]
pub fn server_request(rng: &mut Rng, slot: usize, class: usize) -> Request {
    let size = file_size(rng, class);
    Request {
        slot,
        payload: format!("f={size}").into_bytes(),
        expect: Expect::Exact(format!("served={size}").into_bytes()),
    }
}

fn random_class(rng: &mut Rng) -> usize {
    (rng.next_u64() % FILE_SIZES.len() as u64) as usize
}

/// The fleet campaign for `seed`: [`erebor::eworkloads::fleet::FleetDriver`]
/// expands it into the deploy/connect/request/churn schedule.
#[must_use]
pub fn fleet_config(shape: &Shape, seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        sandboxes: shape.resident,
        clients: shape.clients,
        requests: shape.ops,
        churn: shape.ops / shape.churn_every.max(1),
        private_pages: shape.private_pages,
        budget_pages: 4096,
        llm_slots: 0,
        retrieval_slots: shape.retrieval_slots,
    }
}

/// The fleet schedule for `seed`, with each Nginx/OpenSSH request's
/// file size redrawn by [`file_size`].
#[must_use]
pub fn fleet_schedule(shape: &Shape, seed: u64) -> Vec<FleetOp> {
    let cfg = fleet_config(shape, seed);
    let mut rng = Rng::new(seed, 0xf11e);
    let mut ops = FleetDriver::new(cfg).schedule();
    for op in &mut ops {
        if let FleetOp::Request { slot, payload } = op {
            if !cfg.class_of(*slot).uses_shared_region() {
                let class = random_class(&mut rng);
                *payload = format!("f={}", file_size(&mut rng, class)).into_bytes();
            }
        }
    }
    ops
}

/// The reply check for a fleet request to a slot of `class`: retrieval
/// answers `queries=<n> ...`, the servers `served=<bytes>`.
#[must_use]
pub fn fleet_expect(class: FleetClass, payload: &[u8]) -> Expect {
    let text = String::from_utf8_lossy(payload);
    if class == FleetClass::Retrieval {
        let n = text
            .strip_prefix("q=")
            .and_then(|r| r.split(';').next())
            .unwrap_or("");
        Expect::Prefix(format!("queries={n} ").into_bytes())
    } else {
        Expect::Exact(text.replacen("f=", "served=", 1).into_bytes())
    }
}

const WORDS: [&str; 8] = [
    "translate",
    "the",
    "following",
    "private",
    "record",
    "into",
    "french",
    "please",
];

/// `n` round-robin requests for the five Table 5 programs, in the order
/// of `erebor_bench::paper_workloads()`: LLM, imgproc, retrieval, graph,
/// IDS. Request sizes are drawn from the seed around a few milliseconds
/// of host work each.
#[must_use]
pub fn data_requests(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, 0xda7a);
    (0..n)
        .map(|i| {
            let slot = i % 5;
            let r = rng.next_u64() % 1000;
            let (payload, expect) = match slot {
                0 => {
                    let gen = rng.range(2, 4) as usize;
                    let words = rng.range(2, 6) as usize;
                    let prompt: Vec<&str> = (0..words)
                        .map(|_| WORDS[(rng.next_u64() % WORDS.len() as u64) as usize])
                        .collect();
                    (
                        format!("gen={gen};{}", prompt.join(" ")).into_bytes(),
                        Expect::Tokens(gen),
                    )
                }
                1 => (
                    format!("n=1;{r}").into_bytes(),
                    Expect::Prefix(b"images=1 ".to_vec()),
                ),
                2 => {
                    let q = rng.range(4_000, 8_000);
                    (
                        format!("q={q};{r}").into_bytes(),
                        Expect::Prefix(format!("queries={q} ").into_bytes()),
                    )
                }
                3 => (
                    format!("iters=1;{r}").into_bytes(),
                    Expect::Prefix(b"sum=".to_vec()),
                ),
                _ => {
                    let events = rng.range(1_000, 2_000);
                    (
                        erebor::eworkloads::ids::synthetic_log(events, r, true),
                        Expect::Prefix(format!("events={events} ").into_bytes()),
                    )
                }
            };
            Request {
                slot,
                payload,
                expect,
            }
        })
        .collect()
}

/// Lifecycle op `i`: the class deployed (alternating Nginx/OpenSSH) and
/// the one request its fresh client sends.
#[must_use]
pub fn lifecycle_ops(seed: u64, n: usize) -> Vec<(FleetClass, Request)> {
    let mut rng = Rng::new(seed, 0x11fe);
    (0..n)
        .map(|i| {
            let class = if i % 2 == 0 {
                FleetClass::Nginx
            } else {
                FleetClass::Openssh
            };
            let size_class = random_class(&mut rng);
            (class, server_request(&mut rng, 0, size_class))
        })
        .collect()
}

/// Migrate op `i`'s traffic: `before` requests between `migrate_begin`
/// and the pre-copy round, then `after` requests before
/// `migrate_finish`, each to a different client slot in seeded order.
/// Every op asks for the same mix of file sizes, so ops differ only in
/// which sandboxes their bytes land in and the per-migration percentiles
/// stay comparable across seeds.
#[must_use]
pub fn migrate_ops(seed: u64, shape: &Shape) -> Vec<(Vec<Request>, Vec<Request>)> {
    let mut rng = Rng::new(seed, 0x3197);
    (0..shape.ops)
        .map(|_| {
            let mut slots: Vec<usize> = (0..shape.clients).collect();
            for i in (1..slots.len()).rev() {
                slots.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let mut reqs: Vec<Request> = (0..shape.requests_before_round
                + shape.requests_after_round)
                .map(|k| server_request(&mut rng, slots[k % slots.len()], k))
                .collect();
            let after = reqs.split_off(shape.requests_before_round);
            (reqs, after)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let shape = Shape::tiny(w);
            let gen = |seed: u64| -> String {
                match w {
                    Workload::Fleet => format!("{:?}", fleet_schedule(&shape, seed)),
                    Workload::Data => format!("{:?}", data_requests(seed, 25)),
                    Workload::Lifecycle => format!("{:?}", lifecycle_ops(seed, 25)),
                    Workload::Migrate => format!("{:?}", migrate_ops(seed, &shape)),
                }
            };
            assert_eq!(gen(DEFAULT_SEED), gen(DEFAULT_SEED), "{}", w.name());
            assert_ne!(gen(DEFAULT_SEED), gen(HELD_OUT_SEED), "{}", w.name());
            assert_ne!(
                gen(epoch_seed(DEFAULT_SEED, 1)),
                gen(DEFAULT_SEED),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn fleet_campaign_has_no_llm_slot() {
        let cfg = fleet_config(&Shape::full(Workload::Fleet), 7);
        assert_eq!(cfg.llm_slots, 0);
        assert_eq!(cfg.churn, cfg.requests / 512);
        assert_eq!(epoch_seed(7, 0), 7);
        assert!(cfg.sandboxes >= 256 && cfg.clients == 64);
    }

    #[test]
    fn fleet_sizes_stay_near_the_schedule_mix() {
        let shape = Shape::tiny(Workload::Fleet);
        for op in fleet_schedule(&shape, 3) {
            if let FleetOp::Request { slot, payload } = op {
                let text = String::from_utf8(payload).expect("ascii");
                if let Some(n) = text.strip_prefix("f=") {
                    let n: u64 = n.parse().expect("size");
                    assert!(FILE_SIZES.iter().any(|&f| n <= f && n + 1024 > f), "{n}");
                } else {
                    assert!(fleet_config(&shape, 3).class_of(slot).uses_shared_region());
                }
            }
        }
    }

    #[test]
    fn expectations_check_replies() {
        assert!(fleet_expect(FleetClass::Nginx, b"f=4096").holds(b"served=4096"));
        assert!(!fleet_expect(FleetClass::Openssh, b"f=4096").holds(b"served=409"));
        assert!(fleet_expect(FleetClass::Retrieval, b"q=2;17").holds(b"queries=2 hits=1"));
        assert!(Expect::Tokens(3).holds(b"a b c"));
        assert!(!Expect::Tokens(3).holds(b"a b"));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn key_seeds_are_distinct_per_item() {
        assert_ne!(key_seed(1, 2, 0), key_seed(1, 2, 1));
        assert_ne!(key_seed(1, 2, 0), key_seed(1, 3, 0));
        assert_eq!(key_seed(5, 2, 9), key_seed(5, 2, 9));
    }
}
