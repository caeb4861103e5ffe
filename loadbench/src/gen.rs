//! Seeded workload generation and the key model that checks every answer.
//!
//! A run is a sequence of *epochs*. Each epoch starts a fresh server, preloads
//! it, and then drives a fixed list of windows, so every epoch walks the same
//! resident-state trajectory and a run's figures do not drift with its
//! length. Everything an epoch sends, and every answer it must get back, is a
//! pure function of `(workload, seed, epoch)`: the program under test only
//! ever sees the generated requests.

use fol_serve::{keys_digest, Request, WorkloadClass};
use fol_vm::Word;
use std::collections::HashSet;

/// Requests per window: `ServerConfig::max_batch`, so a window fills exactly
/// one batch on size and never waits on the `max_wait` linger.
pub const WINDOW: usize = 256;

/// Keys per preload request: 256 of them make one 4,096-key batch, so a
/// 65,536-key preload takes 16 batches (one huge batch costs ~300 FOL rounds
/// over a 65,536-wide vector; one-key batches pay the bracket 256 times).
pub const PRELOAD_KEYS: usize = 16;

/// Keys are drawn uniformly from `[0, KEY_SPACE)`.
pub const KEY_SPACE: u64 = 1 << 30;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniform key.
    pub fn key(&mut self) -> Word {
        self.below(KEY_SPACE) as Word
    }
}

/// The three workloads. See the benchmark's README for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process one-key chain inserts over a 65,536-key resident table.
    IngestResident,
    /// Loopback lookups (9 windows) and fresh inserts (1 window) against the
    /// open-addressing table.
    ReadMix,
    /// In-process chain and BST inserts with the write-ahead log and
    /// checkpoints on.
    DurableIngest,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::IngestResident,
        Workload::ReadMix,
        Workload::DurableIngest,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestResident => "ingest-resident",
            Workload::ReadMix => "read-mix",
            Workload::DurableIngest => "durable-ingest",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fixed size parameters of one epoch.
    pub fn shape(self) -> Shape {
        match self {
            Workload::IngestResident => Shape {
                preload: 65_536,
                windows: 64,
                chain_capacity: 65_536 + 64 * WINDOW,
                oa_slots: 4096,
                bst_capacity: 4096,
            },
            Workload::ReadMix => Shape {
                preload: 16_384,
                windows: 16 * READ_CYCLE,
                oa_slots: 32_768,
                chain_capacity: 4096,
                bst_capacity: 4096,
            },
            Workload::DurableIngest => Shape {
                preload: 0,
                windows: 64,
                chain_capacity: 32 * WINDOW,
                bst_capacity: 32 * WINDOW,
                oa_slots: 4096,
            },
        }
    }

    /// Whether the workload runs over the loopback network front-end.
    pub fn over_net(self) -> bool {
        self == Workload::ReadMix
    }

    /// Whether the workload runs with the write-ahead log and checkpoints.
    pub fn durable(self) -> bool {
        self == Workload::DurableIngest
    }
}

/// `read-mix` repeats 9 lookup windows then 1 insert window.
pub const READ_CYCLE: usize = 10;
/// Keys per `read-mix` lookup request.
pub const LOOKUP_KEYS: usize = 4;

/// Sizes of one epoch: what is preloaded, how many windows run, and the
/// structure sizes the server is configured with (the arenas hold exactly
/// what the epoch inserts).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Keys preloaded in set-up.
    pub preload: usize,
    /// Measured windows per epoch.
    pub windows: usize,
    /// `ServerConfig::chain_capacity`.
    pub chain_capacity: usize,
    /// `ServerConfig::oa_slots`.
    pub oa_slots: usize,
    /// `ServerConfig::bst_capacity`.
    pub bst_capacity: usize,
}

/// The kind of every request in a window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// One-key `ChainInsert`.
    ChainInsert,
    /// One-key `BstInsert`.
    BstInsert,
    /// One-key `OaInsert` of a fresh key.
    OaInsert,
    /// Four-key `OaLookup`.
    OaLookup,
}

/// One window: `WINDOW` requests of one kind, plus the answers a lookup
/// window must get back.
#[derive(Clone, Debug)]
pub struct Window {
    /// The kind of every request.
    pub op: Op,
    /// The requests, in submission order.
    pub requests: Vec<Request>,
    /// Per request, the membership answers the key model expects (lookup
    /// windows only; empty otherwise).
    pub expect_found: Vec<Vec<bool>>,
}

impl Window {
    /// Each request's key list, as the pool coalesces them into groups.
    pub fn groups(&self) -> Vec<Vec<Word>> {
        self.requests.iter().map(|r| keys_of(r).to_vec()).collect()
    }

    /// Every key of the window, concatenated in request order.
    pub fn flat_keys(&self) -> Vec<Word> {
        self.requests
            .iter()
            .flat_map(|r| keys_of(r).iter().copied())
            .collect()
    }
}

/// The keys a keyed request carries.
pub fn keys_of(r: &Request) -> &[Word] {
    match r {
        Request::ChainInsert { keys }
        | Request::OaInsert { keys }
        | Request::OaLookup { keys }
        | Request::BstInsert { keys } => keys,
        _ => &[],
    }
}

/// What `Request::Digest` must answer for one class at the end of an epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    /// The class asked about.
    pub class: WorkloadClass,
    /// `keys_digest` of every key the generator inserted into it.
    pub digest: u64,
    /// How many keys that is.
    pub count: u64,
}

/// Everything one epoch sends and expects.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Requests submitted in set-up, `WINDOW` at a time (multi-key, so the
    /// preload takes a few batches instead of hundreds).
    pub preload: Vec<Request>,
    /// The measured windows.
    pub windows: Vec<Window>,
    /// End-of-epoch digest answers, one per class the epoch used.
    pub expect: Vec<Expect>,
}

/// The generator's key model: every key inserted so far, per class.
#[derive(Default)]
struct Model {
    chain: Vec<Word>,
    bst: Vec<Word>,
    oa: Vec<Word>,
    oa_set: HashSet<Word>,
}

impl Model {
    /// A uniform key not yet in the open-addressing table.
    fn fresh_oa_key(&mut self, rng: &mut Rng) -> Word {
        loop {
            let k = rng.key();
            if !self.oa_set.contains(&k) {
                return k;
            }
        }
    }

    fn insert_oa(&mut self, k: Word) {
        self.oa_set.insert(k);
        self.oa.push(k);
    }

    fn expect(keys: &[Word], class: WorkloadClass) -> Expect {
        Expect {
            class,
            digest: keys_digest(keys),
            count: keys.len() as u64,
        }
    }
}

fn epoch_rng(w: Workload, seed: u64, epoch: u64) -> Rng {
    let salt = match w {
        Workload::IngestResident => 0x1A,
        Workload::ReadMix => 0x2B,
        Workload::DurableIngest => 0x3C,
    };
    let mut mix = Rng::new(seed ^ (salt << 56));
    let base = mix.next_u64();
    Rng::new(base ^ epoch.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

fn one_key_window(op: Op, keys: Vec<Word>) -> Window {
    let requests = keys
        .into_iter()
        .map(|k| match op {
            Op::ChainInsert => Request::ChainInsert { keys: vec![k] },
            Op::BstInsert => Request::BstInsert { keys: vec![k] },
            Op::OaInsert => Request::OaInsert { keys: vec![k] },
            Op::OaLookup => Request::OaLookup { keys: vec![k] },
        })
        .collect();
    Window {
        op,
        requests,
        expect_found: Vec::new(),
    }
}

/// The plan of epoch `epoch` of workload `w` under `seed`.
pub fn plan(w: Workload, seed: u64, epoch: u64) -> Plan {
    let mut rng = epoch_rng(w, seed, epoch);
    let shape = w.shape();
    let mut model = Model::default();
    let mut preload = Vec::new();
    let mut windows = Vec::with_capacity(shape.windows);
    match w {
        Workload::IngestResident => {
            // Uniform keys, duplicates legal: FOL rounds > 1 per batch.
            for _ in 0..shape.preload / PRELOAD_KEYS {
                let keys: Vec<Word> = (0..PRELOAD_KEYS).map(|_| rng.key()).collect();
                model.chain.extend_from_slice(&keys);
                preload.push(Request::ChainInsert { keys });
            }
            for _ in 0..shape.windows {
                let keys: Vec<Word> = (0..WINDOW).map(|_| rng.key()).collect();
                model.chain.extend_from_slice(&keys);
                windows.push(one_key_window(Op::ChainInsert, keys));
            }
        }
        Workload::ReadMix => {
            for _ in 0..shape.preload / PRELOAD_KEYS {
                let keys: Vec<Word> = (0..PRELOAD_KEYS)
                    .map(|_| {
                        let k = model.fresh_oa_key(&mut rng);
                        model.insert_oa(k);
                        k
                    })
                    .collect();
                preload.push(Request::OaInsert { keys });
            }
            for i in 0..shape.windows {
                if i % READ_CYCLE == READ_CYCLE - 1 {
                    let keys: Vec<Word> = (0..WINDOW)
                        .map(|_| {
                            let k = model.fresh_oa_key(&mut rng);
                            model.insert_oa(k);
                            k
                        })
                        .collect();
                    windows.push(one_key_window(Op::OaInsert, keys));
                } else {
                    // About half hits (a stored key), half misses (a key the
                    // model has never inserted).
                    let mut requests = Vec::with_capacity(WINDOW);
                    let mut expect_found = Vec::with_capacity(WINDOW);
                    for _ in 0..WINDOW {
                        let mut keys = Vec::with_capacity(LOOKUP_KEYS);
                        let mut found = Vec::with_capacity(LOOKUP_KEYS);
                        for _ in 0..LOOKUP_KEYS {
                            if rng.below(2) == 0 {
                                let at = rng.below(model.oa.len() as u64) as usize;
                                keys.push(model.oa[at]);
                                found.push(true);
                            } else {
                                keys.push(model.fresh_oa_key(&mut rng));
                                found.push(false);
                            }
                        }
                        requests.push(Request::OaLookup { keys });
                        expect_found.push(found);
                    }
                    windows.push(Window {
                        op: Op::OaLookup,
                        requests,
                        expect_found,
                    });
                }
            }
        }
        Workload::DurableIngest => {
            for i in 0..shape.windows {
                let keys: Vec<Word> = (0..WINDOW).map(|_| rng.key()).collect();
                if i % 2 == 0 {
                    model.chain.extend_from_slice(&keys);
                    windows.push(one_key_window(Op::ChainInsert, keys));
                } else {
                    model.bst.extend_from_slice(&keys);
                    windows.push(one_key_window(Op::BstInsert, keys));
                }
            }
        }
    }
    let mut expect = Vec::new();
    if !model.chain.is_empty() {
        expect.push(Model::expect(&model.chain, WorkloadClass::Chain));
    }
    if !model.oa.is_empty() {
        expect.push(Model::expect(&model.oa, WorkloadClass::OpenAddr));
    }
    if !model.bst.is_empty() {
        expect.push(Model::expect(&model.bst, WorkloadClass::Bst));
    }
    Plan {
        preload,
        windows,
        expect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_pure_function_of_seed_and_epoch() {
        for w in Workload::ALL {
            let a = plan(w, 7, 3);
            let b = plan(w, 7, 3);
            let c = plan(w, 8, 3);
            let d = plan(w, 7, 4);
            assert_eq!(a.expect, b.expect);
            assert_eq!(a.windows[5].requests, b.windows[5].requests);
            assert_ne!(a.expect, c.expect, "{}: seed must matter", w.name());
            assert_ne!(a.expect, d.expect, "{}: epoch must matter", w.name());
        }
    }

    #[test]
    fn windows_fill_one_batch_and_fit_the_arenas() {
        for w in Workload::ALL {
            let p = plan(w, 1, 0);
            let shape = w.shape();
            assert_eq!(p.windows.len(), shape.windows);
            assert!(p.windows.iter().all(|win| win.requests.len() == WINDOW));
            let count = |class| {
                p.expect
                    .iter()
                    .find(|e| e.class == class)
                    .map_or(0, |e| e.count as usize)
            };
            assert!(count(WorkloadClass::Chain) <= shape.chain_capacity);
            assert!(count(WorkloadClass::Bst) <= shape.bst_capacity);
            assert!(count(WorkloadClass::OpenAddr) < shape.oa_slots);
        }
    }

    #[test]
    fn read_mix_lookups_are_about_half_hits_and_inserts_are_fresh() {
        let p = plan(Workload::ReadMix, 11, 0);
        let answers: Vec<bool> = p
            .windows
            .iter()
            .flat_map(|w| w.expect_found.iter().flatten().copied())
            .collect();
        let hits = answers.iter().filter(|&&f| f).count() as f64 / answers.len() as f64;
        assert!((0.45..0.55).contains(&hits), "hit share {hits}");
        let inserted: Vec<Word> = p
            .windows
            .iter()
            .filter(|w| w.op == Op::OaInsert)
            .flat_map(|w| w.flat_keys())
            .collect();
        let distinct: HashSet<Word> = inserted.iter().copied().collect();
        assert_eq!(distinct.len(), inserted.len());
        assert_eq!(
            p.windows.iter().filter(|w| w.op == Op::OaInsert).count(),
            p.windows.len() / READ_CYCLE
        );
    }
}
