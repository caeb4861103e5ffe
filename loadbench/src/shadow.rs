//! The traced replay: the single pool worker's machine, rebuilt from the
//! public API the way the worker builds its own, and driven through the same
//! windows so every layer function can be timed at the live server's
//! resident state.
//!
//! Two replicas stay in lock-step. `txn` runs each batch the way the worker
//! does (`txn_insert_groups`, the whole recovery bracket). `parts` runs the
//! bracket's constituents one at a time — integrity resync, the journal
//! snapshot, the oracle walks, the bare FOL kernel, the pre-commit scrub,
//! the post-commit snapshot — and, with durability, a write-ahead log and
//! checkpoints of its own in the same cadence.

use crate::gen::{Expect, Op, Window};
use crate::trace::Trace;
use fol_core::recover::RetryPolicy;
use fol_hash::chaining::{self, ChainTable};
use fol_hash::open_addressing as oa;
use fol_hash::ProbeStrategy;
use fol_persist::frame::Enc;
use fol_persist::{Checkpoint, DeltaCheckpoint, FsyncPolicy, Wal};
use fol_serve::{keys_digest, DurRecord, ServerConfig, WorkloadClass, REQUEST_LOG_PREFIX};
use fol_tree::bst::{self, Bst};
use fol_vm::integrity::TrackedRegion;
use fol_vm::{CostModel, Machine, Region, Snapshot, Word};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// One copy of the worker's machine and structures.
struct Replica {
    m: Machine,
    chain: ChainTable,
    oa: Region,
    bst: Bst,
}

impl Replica {
    /// Mirrors the pool's machine build for a one-worker server, which owns
    /// every structure: same engine, same allocation order, same tracked
    /// regions.
    fn build(cfg: &ServerConfig) -> Replica {
        let mut m = Machine::with_engine(CostModel::unit(), fol_simd::engine_for(cfg.backend));
        let chain = ChainTable::alloc(&mut m, cfg.chain_buckets, cfg.chain_capacity);
        let table = m.alloc(cfg.oa_slots, "oa.table");
        oa::init_table(&mut m, table);
        let tree = Bst::alloc(&mut m, cfg.bst_capacity);
        for r in [
            chain.heads,
            chain.arena,
            chain.work,
            table,
            tree.links,
            tree.keys,
        ] {
            m.track_region(r);
        }
        Replica {
            m,
            chain,
            oa: table,
            bst: tree,
        }
    }

    fn tracked(&self) -> Vec<Region> {
        self.m.tracked_regions().iter().map(|t| t.region).collect()
    }

    /// The bare kernel for `op` over `keys`.
    fn kernel(&mut self, op: Op, keys: &[Word], probe: ProbeStrategy) {
        match op {
            Op::ChainInsert => {
                black_box(chaining::vectorized_insert_all(
                    &mut self.m,
                    &mut self.chain,
                    keys,
                ));
            }
            Op::BstInsert => {
                black_box(bst::vectorized_insert_all(&mut self.m, &mut self.bst, keys));
            }
            Op::OaInsert => {
                black_box(oa::vectorized_insert_all(&mut self.m, self.oa, keys, probe));
            }
            Op::OaLookup => unreachable!("lookups have no insert kernel"),
        }
    }

    /// The worker's transaction for `op` over `groups`; the first failure,
    /// rendered.
    fn txn(
        &mut self,
        op: Op,
        groups: &[Vec<Word>],
        policy: &RetryPolicy,
        probe: ProbeStrategy,
    ) -> Result<(), String> {
        let first_error = match op {
            Op::ChainInsert => {
                chaining::txn_insert_groups(&mut self.m, &mut self.chain, groups, policy)
                    .into_iter()
                    .find_map(|r| r.err().map(|e| e.to_string()))
            }
            Op::BstInsert => bst::txn_insert_groups(&mut self.m, &mut self.bst, groups, policy)
                .into_iter()
                .find_map(|r| r.err().map(|e| e.to_string())),
            Op::OaInsert => oa::txn_insert_groups(&mut self.m, self.oa, groups, probe, policy)
                .into_iter()
                .find_map(|r| r.err().map(|e| e.to_string())),
            Op::OaLookup => unreachable!("lookups run no transaction"),
        };
        first_error.map_or(Ok(()), Err)
    }
}

/// Span names of the per-kind transaction, kernel and oracle walk.
fn names(op: Op) -> (&'static str, &'static str, Option<&'static str>) {
    match op {
        Op::ChainInsert => (
            "recover.chain_txn",
            "chaining.kernel",
            Some("chaining.oracle"),
        ),
        Op::BstInsert => ("recover.bst_txn", "bst.kernel", Some("bst.oracle")),
        Op::OaInsert => ("recover.oa_txn", "open_addressing.kernel", None),
        Op::OaLookup => unreachable!("lookups run no transaction"),
    }
}

/// The shadow write-ahead log and checkpoint cadence of a durable worker.
struct ShadowDur {
    dir: PathBuf,
    wal: Wal,
    every: u64,
    full_every: u64,
    commits: u64,
    ckpt_seq: u64,
    deltas_since_full: u64,
    parent: Option<(u64, Vec<TrackedRegion>)>,
    applied: Vec<u64>,
    next_seq: u64,
}

/// A request-log admission record in the server's own format (checked
/// against `fol_serve::decode_record` by the tests and at start-up).
pub fn admit_record(seq: u64, op: Op, keys: &[Word]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(1); // admission
    e.u64(seq);
    e.u8(1); // Priority::Normal
    e.u8(0); // no deadline
    e.u64(0);
    e.u8(match op {
        Op::ChainInsert => 0,
        Op::OaInsert => 1,
        Op::OaLookup => 2,
        Op::BstInsert => 3,
    });
    e.u32(keys.len() as u32);
    for &k in keys {
        e.i64(k);
    }
    e.into_bytes()
}

/// A request-log completion record in the server's own format.
pub fn complete_record(seq: u64, applied: bool) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(2); // completion
    e.u64(seq);
    e.u8(applied as u8);
    e.into_bytes()
}

fn check_records() -> Result<(), String> {
    let admit = fol_serve::decode_record(&admit_record(5, Op::BstInsert, &[9]))
        .map_err(|e| format!("admit record: {e}"))?;
    let complete = fol_serve::decode_record(&complete_record(5, true))
        .map_err(|e| format!("completion record: {e}"))?;
    let ok = matches!(admit, DurRecord::Admit { seq: 5, request: fol_serve::Request::BstInsert { ref keys }, .. } if keys == &[9])
        && complete
            == DurRecord::Complete {
                seq: 5,
                applied: true,
            };
    ok.then_some(())
        .ok_or_else(|| "shadow log records do not round-trip".to_string())
}

/// The traced replay of one epoch.
pub struct Shadow {
    parts: Replica,
    txn: Replica,
    policy: RetryPolicy,
    probe: ProbeStrategy,
    dur: Option<ShadowDur>,
}

impl Shadow {
    /// Builds both replicas for `cfg`; with `durable_dir`, also a log and a
    /// checkpoint directory there, in the server's default cadence.
    pub fn new(cfg: &ServerConfig, durable_dir: Option<&Path>) -> Result<Shadow, String> {
        let dur = match (durable_dir, &cfg.durability) {
            (Some(dir), Some(d)) => {
                check_records()?;
                let wal = Wal::open(dir, REQUEST_LOG_PREFIX, d.fsync, d.segment_bytes)
                    .map_err(|e| format!("shadow log: {e}"))?;
                Some(ShadowDur {
                    dir: dir.to_path_buf(),
                    wal,
                    every: d.checkpoint_every.max(1),
                    full_every: d.full_image_every.max(1),
                    commits: 0,
                    ckpt_seq: 0,
                    deltas_since_full: 0,
                    parent: None,
                    applied: Vec::new(),
                    next_seq: 0,
                })
            }
            _ => None,
        };
        Ok(Shadow {
            parts: Replica::build(cfg),
            txn: Replica::build(cfg),
            policy: cfg.policy.clone(),
            probe: cfg.probe,
            dur,
        })
    }

    /// Applies the epoch's preload to both replicas (untimed).
    pub fn preload(&mut self, op: Option<Op>, groups: &[Vec<Word>]) -> Result<(), String> {
        let Some(op) = op else { return Ok(()) };
        let keys: Vec<Word> = groups.iter().flatten().copied().collect();
        self.parts.kernel(op, &keys, self.probe);
        self.txn.txn(op, groups, &self.policy, self.probe)
    }

    /// Replays `window` and records its constituent spans under the live
    /// window's `admit` and `wait` spans.
    pub fn replay(
        &mut self,
        window: &Window,
        trace: &mut Trace,
        id: u32,
        admit: u32,
        wait: u32,
    ) -> Result<(), String> {
        let probe = self.probe;
        if window.op == Op::OaLookup {
            let keys = window.flat_keys();
            let p = &mut self.parts;
            let (found, _) = trace.time(id, Some(wait), "open_addressing.lookup", || {
                oa::vectorized_lookup_all(&mut p.m, p.oa, &keys, probe)
            });
            let expected: Vec<bool> = window.expect_found.iter().flatten().copied().collect();
            return (found == expected)
                .then_some(())
                .ok_or_else(|| "replayed lookup disagrees with the key model".to_string());
        }
        let (txn_name, kernel_name, oracle_name) = names(window.op);
        let groups = window.groups();
        let keys = window.flat_keys();
        let first_seq = self.dur.as_ref().map_or(0, |d| d.next_seq);
        if let Some(d) = &mut self.dur {
            // Admission appends one record per request, under the queue lock.
            let records: Vec<Vec<u8>> = window
                .requests
                .iter()
                .enumerate()
                .map(|(i, r)| admit_record(first_seq + i as u64, window.op, crate::gen::keys_of(r)))
                .collect();
            let wal = &mut d.wal;
            let (appended, _) = trace.time(id, Some(admit), "wal.append", || {
                records.iter().try_for_each(|r| wal.append(r))
            });
            appended.map_err(|e| format!("shadow log append: {e}"))?;
            d.next_seq += records.len() as u64;
        }

        let (policy, t) = (&self.policy, &mut self.txn);
        let (result, txn) = trace.time(id, Some(wait), txn_name, || {
            t.txn(window.op, &groups, policy, probe)
        });
        result?;

        let p = &mut self.parts;
        let tracked = p.tracked();
        trace.time(id, Some(txn), "integrity.resync", || p.m.resync_integrity());
        trace.time(id, Some(txn), "journal.snapshot", || {
            black_box(Snapshot::capture(p.m.mem(), &tracked));
        });
        // The transaction walks the structure twice: the expected contents
        // before, the post-condition after.
        for _ in 0..2 {
            oracle(p, oracle_name, trace, id, txn);
        }
        trace.time(id, Some(txn), kernel_name, || {
            p.kernel(window.op, &keys, probe)
        });
        let (scrub, _) = trace.time(id, Some(txn), "integrity.scrub", || p.m.scrub());
        scrub.map_err(|e| format!("replayed scrub: {e}"))?;
        trace.time(id, Some(wait), "pool.commit_snapshot", || {
            black_box(Snapshot::capture(p.m.mem(), &tracked));
        });
        if window.op == Op::ChainInsert {
            // The pool republishes the chain shard's keys after the commit.
            oracle(p, oracle_name, trace, id, wait);
        }

        if let Some(d) = &mut self.dur {
            let completes: Vec<Vec<u8>> = (0..window.requests.len() as u64)
                .map(|i| complete_record(first_seq + i, true))
                .collect();
            let wal = &mut d.wal;
            let (appended, _) =
                trace.time(id, Some(wait), "wal.append", || wal.append_all(&completes));
            appended.map_err(|e| format!("shadow log append: {e}"))?;
            let (committed, _) = trace.time(id, Some(wait), "wal.commit", || wal.commit());
            committed.map_err(|e| format!("shadow log commit: {e}"))?;
            d.applied
                .extend(first_seq..first_seq + window.requests.len() as u64);
            checkpoint(d, p, trace, id, wait)?;
        }
        Ok(())
    }

    /// Both replicas must end holding exactly what the key model says.
    pub fn check(&self, expect: &[Expect]) -> Result<(), String> {
        for r in [&self.parts, &self.txn] {
            for ex in expect {
                let keys = match ex.class {
                    WorkloadClass::Chain => chaining::all_keys(&r.m, &r.chain),
                    WorkloadClass::Bst => r.bst.inorder(&r.m),
                    WorkloadClass::OpenAddr => oa::stored_keys(&r.m.mem().read_region(r.oa)),
                };
                if (keys_digest(&keys), keys.len() as u64) != (ex.digest, ex.count) {
                    return Err(format!(
                        "{:?} contents disagree with the key model",
                        ex.class
                    ));
                }
            }
        }
        Ok(())
    }
}

fn oracle(p: &Replica, name: Option<&'static str>, trace: &mut Trace, id: u32, parent: u32) {
    match name {
        Some(n @ "chaining.oracle") => {
            trace.time(id, Some(parent), n, || {
                black_box(chaining::all_keys(&p.m, &p.chain))
            });
        }
        Some(n @ "bst.oracle") => {
            trace.time(id, Some(parent), n, || black_box(p.bst.inorder(&p.m)));
        }
        _ => {}
    }
}

/// The worker's checkpoint cadence: every `every` commits a generation,
/// every `full_every`-th of them (and the first) a full image, the rest
/// deltas on their parent. Unsynced writes, as the worker does below
/// `FsyncPolicy::Always`.
fn checkpoint(
    d: &mut ShadowDur,
    p: &Replica,
    trace: &mut Trace,
    id: u32,
    parent: u32,
) -> Result<(), String> {
    d.commits += 1;
    if d.commits % d.every != 0 {
        return Ok(());
    }
    d.ckpt_seq += 1;
    let seq = d.ckpt_seq;
    let counters = vec![
        ("chain.used_nodes".to_string(), p.chain.used_nodes as u64),
        ("bst.used".to_string(), p.bst.used as u64),
    ];
    let applied = d.applied.clone();
    let sync = d.wal.policy() == FsyncPolicy::Always;
    let full = match &d.parent {
        None => true,
        Some(_) => d.deltas_since_full + 1 >= d.full_every,
    };
    if full {
        let regions = p.tracked();
        let path = d.dir.join(Checkpoint::file_name("worker0", seq));
        let (written, _) = trace.time(id, Some(parent), "checkpoint.full", || {
            let c = Checkpoint::capture(&p.m, &regions, seq, counters, applied);
            let w = if sync {
                c.write(&path)
            } else {
                c.write_unsynced(&path)
            };
            w.map(|()| c.checksums)
        });
        d.parent = Some((seq, written.map_err(|e| format!("shadow checkpoint: {e}"))?));
        d.deltas_since_full = 0;
    } else {
        let (parent_seq, parent_sums) = d.parent.as_ref().expect("deltas have a parent");
        let path = d.dir.join(DeltaCheckpoint::file_name("worker0", seq));
        let (written, _) = trace.time(id, Some(parent), "delta.write", || {
            let c =
                DeltaCheckpoint::capture(&p.m, seq, *parent_seq, parent_sums, counters, applied);
            let w = if sync {
                c.write(&path)
            } else {
                c.write_unsynced(&path)
            };
            w.map(|()| c.checksums)
        });
        d.parent = Some((seq, written.map_err(|e| format!("shadow delta: {e}"))?));
        d.deltas_since_full += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_log_records_match_the_server_codec() {
        check_records().unwrap();
        assert_eq!(
            fol_serve::decode_record(&admit_record(3, Op::ChainInsert, &[4, 5])).unwrap(),
            DurRecord::Admit {
                seq: 3,
                request: fol_serve::Request::ChainInsert { keys: vec![4, 5] },
                priority: fol_serve::Priority::Normal,
                deadline_millis: None,
            }
        );
    }
}
