//! Distribution counting sort, scalar and vectorized (Table 1, bottom).
//!
//! The classic three-phase sort for keys in `[0, range)`: histogram the
//! keys, form the cumulative counts, and permute each key to its final
//! position. The paper vectorizes it "using the overwrite-and-check
//! technique" but omits the listing; this module supplies one:
//!
//! * **histogram** — incrementing `count[key]` for duplicate keys is a
//!   shared rewrite, so it runs as FOL1 rounds (subscript labels in a work
//!   array over the key range; survivors gather-increment-scatter their
//!   counters conflict-free);
//! * **cumulative sum** — one `vprefix_sum` macro instruction (the S-810's
//!   first-order-recurrence support; without it this phase would be the
//!   scalar bottleneck);
//! * **permutation** — again FOL1 rounds: survivors claim output slot
//!   `cum[key] - 1` and decrement `cum[key]`.

use crate::validate_range;
use fol_core::error::{FolError, Validation};
use fol_core::recover::{
    decompose_with_mode, run_transaction, with_lane_mask, ExecMode, RecoveryError, RecoveryReport,
    RetryPolicy,
};
use fol_core::Decomposition;
use fol_vm::{AluOp, CmpOp, Machine, Region, VReg, Word};

/// Statistics from a distribution counting sort run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DistReport {
    /// FOL rounds in the histogram phase (vectorized only).
    pub histogram_rounds: usize,
    /// FOL rounds in the permutation phase (vectorized only).
    pub permute_rounds: usize,
}

/// Scalar distribution counting sort (Knuth's classic), sorting `a` in
/// place; keys must lie in `[0, range)`.
pub fn scalar_sort(m: &mut Machine, a: Region, range: Word) -> DistReport {
    let n = a.len();
    let data_check = m.mem().read_region(a);
    validate_range(&data_check, range);
    let r = range as usize;
    let count = m.alloc(r, "dist.count");
    let out = m.alloc(n, "dist.out");

    // count[*] := 0 (streaming).
    for i in 0..r {
        m.s_write_seq(count.at(i), 0);
    }
    m.s_branch(r.div_ceil(8) as u64);

    // Histogram: random access per key.
    for j in 0..n {
        let v = m.s_read_seq(a.at(j));
        let cnt = m.s_read(count.at(v as usize));
        m.s_alu(1);
        m.s_write(count.at(v as usize), cnt + 1);
        m.s_branch(1);
    }

    // Cumulative counts (streaming, loop-carried).
    let mut acc: Word = 0;
    for i in 0..r {
        let cv = m.s_read_seq(count.at(i));
        m.s_alu(1);
        acc += cv;
        m.s_write_seq(count.at(i), acc);
    }
    m.s_branch(r.div_ceil(8) as u64);

    // Permute (stable, scanning backwards as Knuth does).
    for j in (0..n).rev() {
        let v = m.s_read_seq(a.at(j));
        let pos = m.s_read(count.at(v as usize));
        m.s_alu(1);
        m.s_write(count.at(v as usize), pos - 1);
        m.s_write(out.at((pos - 1) as usize), v);
        m.s_branch(1);
    }

    // Copy back (streaming).
    for j in 0..n {
        let v = m.s_read_seq(out.at(j));
        m.s_write_seq(a.at(j), v);
    }
    m.s_branch(n.div_ceil(8) as u64);
    DistReport::default()
}

/// Vectorized distribution counting sort: FOL histogram + recurrence
/// cumulative sum + FOL permutation. Sorts `a` in place. Each phase is
/// recorded with [`Machine::measure_phase`].
///
/// # Panics
/// Panics if a key lies outside `[0, range)`.
pub fn vectorized_sort(m: &mut Machine, a: Region, range: Word) -> DistReport {
    sort_kernel(m, a, range, Stream::Paper).unwrap_or_else(|e| panic!("{e}"))
}

/// Typed bounds check: every value must lie in `[0, domain)` — keys against
/// the range (for the count/work scatters to be in bounds), claimed output
/// slots against the output length.
fn check_domain(
    values: impl IntoIterator<Item = Word>,
    domain: Word,
    round: Option<usize>,
) -> Result<(), FolError> {
    match values
        .into_iter()
        .enumerate()
        .find(|&(_, v)| !(0..domain).contains(&v))
    {
        Some((position, target)) => Err(FolError::TargetOutOfBounds {
            round,
            position,
            target,
            domain: domain as usize,
        }),
        None => Ok(()),
    }
}

/// Which instruction stream [`sort_kernel`] issues.
#[derive(Clone, Copy)]
enum Stream {
    /// The paper's: survivors counted on the host, each phase recorded with
    /// [`Machine::measure_phase`], so Table 1's modelled cost is unchanged.
    Paper,
    /// The supervised vector rungs': survivor counts charged as vector
    /// reductions, and no phases recorded (a transaction would grow
    /// [`Machine::phases`] on every call).
    Guarded,
    /// The `ForcedSequential` rung's: one decomposition from
    /// [`decompose_with_mode`] up front, reused by both phases (histogram
    /// and permutation target the same `count` cells). Under
    /// `ForcedSequential` its label scatters are tear-immune singletons.
    Decomposed(ExecMode, Validation),
}

/// The three-phase sort behind both [`vectorized_sort`] and [`txn_sort`]:
/// a typed range check, both FOL phases bounded by `n` rounds (the maximum
/// multiplicity cannot exceed `n`, Theorem 6), every detection pass checked
/// for a survivor, and the permutation's claimed output slots bounds-checked
/// before the scatter — a torn counter would otherwise send the output
/// scatter out of bounds. Scratch regions (`count`, `work`, `out`) are
/// freshly allocated per call. Sorting nothing returns at once and costs
/// nothing.
fn sort_kernel(
    m: &mut Machine,
    a: Region,
    range: Word,
    stream: Stream,
) -> Result<DistReport, FolError> {
    let n = a.len();
    let data = m.mem().read_region(a);
    check_domain(data.iter().copied(), range, None)?;
    if n == 0 {
        return Ok(DistReport::default());
    }
    let r = range as usize;
    let count = m.alloc(r, "dist.count");
    let work = m.alloc(r, "dist.work");
    let out = m.alloc(n, "dist.out");
    m.vfill(count, 0);

    // The vector streams load the keys; the decomposed stream picks each
    // round's keys on the host from the data its decomposition read.
    let (keys, fixed) = match stream {
        Stream::Decomposed(mode, validation) => {
            let d = decompose_with_mode(m, work, &data, mode, validation)?;
            (data.into_iter().collect(), Some(d))
        }
        _ => (m.vload(a, 0, n), None),
    };
    let guarded = !matches!(stream, Stream::Paper);
    let phase = |m: &mut Machine, name: &str, f: &mut dyn FnMut(&mut Machine) -> _| {
        if guarded {
            f(m)
        } else {
            m.measure_phase(name, f)
        }
    };

    // Phase 1: histogram via FOL1 rounds; survivors increment their
    // counters (conflict-free).
    let histogram_rounds = phase(m, "dist_count.histogram", &mut |m| {
        fol_rounds(m, work, &keys, fixed.as_ref(), guarded, |m, k_s, _| {
            let c_s = m.gather(count, k_s);
            let c_s = m.valu_s(AluOp::Add, &c_s, 1);
            m.scatter(count, k_s, &c_s);
            Ok(())
        })
    })?;

    // Phase 2: cumulative counts with the recurrence macro instruction.
    phase(m, "dist_count.prefix", &mut |m| {
        let counts = m.vload(count, 0, r);
        let cum = m.vprefix_sum(&counts);
        m.vstore(count, 0, &cum);
        Ok(0)
    })?;

    // Phase 3: permutation via FOL1 rounds; survivors claim output slot
    // `cum[key] - 1` and decrement their counter.
    let permute_rounds = phase(m, "dist_count.permute", &mut |m| {
        fol_rounds(m, work, &keys, fixed.as_ref(), guarded, |m, k_s, round| {
            let pos = m.gather(count, k_s);
            let pos = m.valu_s(AluOp::Sub, &pos, 1);
            // A counter mangled by a torn write could claim a slot outside
            // the output — catch it as a typed error, not a scatter panic.
            check_domain(pos.iter(), n as Word, Some(round))?;
            m.scatter(out, &pos, k_s);
            m.scatter(count, k_s, &pos);
            Ok(())
        })
    })?;

    // Copy the permuted data back into `a`.
    let sorted = m.vload(out, 0, n);
    m.vstore(a, 0, &sorted);
    Ok(DistReport {
        histogram_rounds,
        permute_rounds,
    })
}

/// One FOL1 pass over `keys`: per round, the survivors (one per distinct
/// key) run `main` conflict-free with the round index. With a `fixed`
/// decomposition the rounds are read from it; otherwise they are detected
/// on the fly with subscript labels in `work`, bounded by `keys.len()`
/// rounds, and a round without survivors is a typed error. `guarded`
/// charges the survivor count as a vector reduction; otherwise it is
/// counted on the host. Returns the number of rounds.
fn fol_rounds(
    m: &mut Machine,
    work: Region,
    keys: &VReg,
    fixed: Option<&Decomposition>,
    guarded: bool,
    mut main: impl FnMut(&mut Machine, &VReg, usize) -> Result<(), FolError>,
) -> Result<usize, FolError> {
    if let Some(d) = fixed {
        for (k, round) in d.iter().enumerate() {
            let k_s: VReg = round.iter().map(|&p| keys.get(p)).collect();
            main(m, &k_s, k)?;
        }
        return Ok(d.num_rounds());
    }
    let n = keys.len();
    let mut keys = keys.clone();
    let mut labels = m.iota(0, n);
    let mut rounds = 0usize;
    while !keys.is_empty() {
        if rounds == n {
            return Err(FolError::RoundBudgetExceeded {
                budget: n,
                live: keys.len(),
                completed_rounds: rounds,
            });
        }
        m.scatter(work, &keys, &labels);
        let got = m.gather(work, &keys);
        let ok = m.vcmp(CmpOp::Eq, &got, &labels);
        let survivors = if guarded {
            m.count_true(&ok)
        } else {
            ok.popcount()
        };
        if survivors == 0 {
            return Err(FolError::NoSurvivors {
                iteration: rounds,
                live: keys.len(),
            });
        }
        let k_s = m.compress(&keys, &ok);
        main(m, &k_s, rounds)?;
        let rest = m.mask_not(&ok);
        keys = m.compress(&keys, &rest);
        labels = m.compress(&labels, &rest);
        rounds += 1;
    }
    Ok(rounds)
}

/// Transactional distribution counting sort: every attempt runs inside a
/// machine transaction and the finished array must be exactly the sorted
/// permutation of the input (checked against a host-side sort). A failed
/// attempt rolls back byte-exact and escalates along the [`RetryPolicy`]
/// ladder: `Vector` → `ForcedSequential` (singleton label scatters) →
/// `ScalarTail` ([`scalar_sort`], immune to every scatter fault). Scratch
/// regions are allocated per attempt and abandoned on rollback.
///
/// The array region is checksum-tracked for the duration of the call, so
/// resident bit-rot in the data being sorted is caught by the supervisor's
/// pre-commit scrub rather than silently committed as a "sorted" result.
///
/// # Panics
/// Panics if a transaction is already open on `m`.
pub fn txn_sort(
    m: &mut Machine,
    a: Region,
    range: Word,
    policy: &RetryPolicy,
) -> Result<(DistReport, RecoveryReport), RecoveryError> {
    m.track_region(a);
    let mut expected = m.mem().read_region(a);
    expected.sort_unstable();
    let validation = policy.validation;

    run_transaction(m, policy, |m, mode| {
        let report = match mode {
            ExecMode::Vector => sort_kernel(m, a, range, Stream::Guarded)?,
            ExecMode::DegradedVector { quarantined } | ExecMode::VerifiedReplay { quarantined } => {
                with_lane_mask(m, quarantined, |m| {
                    sort_kernel(m, a, range, Stream::Guarded)
                })?
            }
            ExecMode::ForcedSequential => {
                sort_kernel(m, a, range, Stream::Decomposed(mode, validation))?
            }
            ExecMode::ScalarTail => {
                let data = m.mem().read_region(a);
                check_domain(data.iter().copied(), range, None)?;
                scalar_sort(m, a, range)
            }
        };
        if m.mem().read_region(a) != expected {
            return Err(FolError::PostConditionFailed {
                what: "dist_count sorted output",
            });
        }
        Ok(report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_sorted;
    use fol_vm::{ConflictPolicy, CostModel, OpKind};

    fn sort_with<F>(data: &[Word], range: Word, f: F) -> Vec<Word>
    where
        F: FnOnce(&mut Machine, Region, Word) -> DistReport,
    {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, data);
        let _ = f(&mut m, a, range);
        m.mem().read_region(a)
    }

    #[test]
    fn scalar_sorts() {
        let data = [5, 1, 4, 1, 5, 9, 2, 6];
        let mut expect = data.to_vec();
        expect.sort_unstable();
        assert_eq!(sort_with(&data, 10, scalar_sort), expect);
    }

    #[test]
    fn vectorized_sorts() {
        let data = [5, 1, 4, 1, 5, 9, 2, 6];
        let mut expect = data.to_vec();
        expect.sort_unstable();
        assert_eq!(sort_with(&data, 10, vectorized_sort), expect);
    }

    #[test]
    fn rounds_equal_max_multiplicity() {
        let data = [3, 3, 3, 3, 1];
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, &data);
        let r = vectorized_sort(&mut m, a, 5);
        assert_eq!(r.histogram_rounds, 4);
        assert_eq!(r.permute_rounds, 4);
        assert!(is_sorted(&m.mem().read_region(a)));
    }

    #[test]
    fn random_inputs_all_policies() {
        let mut seed = 99u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((seed >> 33) % 256) as Word
        };
        for policy in [
            ConflictPolicy::FirstWins,
            ConflictPolicy::LastWins,
            ConflictPolicy::Arbitrary(31),
        ] {
            let data: Vec<Word> = (0..300).map(|_| next()).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            let mut m = Machine::with_policy(CostModel::unit(), policy.clone());
            let a = m.alloc(data.len(), "A");
            m.mem_mut().write_region(a, &data);
            let _ = vectorized_sort(&mut m, a, 256);
            assert_eq!(m.mem().read_region(a), expect, "{policy:?}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(sort_with(&[], 4, vectorized_sort), Vec::<Word>::new());
        assert_eq!(sort_with(&[2], 4, vectorized_sort), vec![2]);
        assert_eq!(sort_with(&[], 4, scalar_sort), Vec::<Word>::new());
    }

    #[test]
    fn scalar_is_stable_by_construction() {
        // With key-only data stability is invisible, but the backward scan
        // must still place every duplicate: count occurrences.
        let data = [7, 7, 0, 7];
        assert_eq!(sort_with(&data, 8, scalar_sort), vec![0, 7, 7, 7]);
    }

    #[test]
    fn phases_are_recorded() {
        let mut m = Machine::new(CostModel::s810());
        let a = m.alloc(8, "A");
        m.mem_mut().write_region(a, &[3, 1, 3, 0, 7, 7, 2, 5]);
        let _ = vectorized_sort(&mut m, a, 8);
        let names: Vec<&str> = m.phases().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "dist_count.histogram",
                "dist_count.prefix",
                "dist_count.permute"
            ]
        );
        assert!(m.phases().iter().all(|(_, s)| s.vector_cycles > 0));
    }

    #[test]
    fn guarded_stream_matches_paper_stream_on_healthy_hardware() {
        // Same report and output; the guarded stream charges one extra
        // survivor-count reduction per FOL round and records no phases.
        let data = [5, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let mut m1 = Machine::new(CostModel::unit());
        let a1 = m1.alloc(data.len(), "A");
        m1.mem_mut().write_region(a1, &data);
        let r1 = vectorized_sort(&mut m1, a1, 10);
        let mut m2 = Machine::new(CostModel::unit());
        let a2 = m2.alloc(data.len(), "A");
        m2.mem_mut().write_region(a2, &data);
        let r2 = sort_kernel(&mut m2, a2, 10, Stream::Guarded).expect("no faults");
        assert_eq!(r1, r2);
        assert_eq!(m1.mem().read_region(a1), m2.mem().read_region(a2));
        let reduces = |m: &Machine| m.stats().count(OpKind::VReduce);
        assert_eq!(reduces(&m1), 0);
        assert_eq!(
            reduces(&m2),
            (r2.histogram_rounds + r2.permute_rounds) as u64
        );
        assert_eq!(m1.phases().len(), 3);
        assert!(m2.phases().is_empty());
    }

    #[test]
    fn sorting_nothing_costs_nothing() {
        // Both streams return before allocating scratch or issuing a single
        // instruction.
        for guarded in [false, true] {
            let mut m = Machine::new(CostModel::s810());
            let a = m.alloc(0, "A");
            let r = if guarded {
                sort_kernel(&mut m, a, 4, Stream::Guarded).expect("empty input")
            } else {
                vectorized_sort(&mut m, a, 4)
            };
            assert_eq!(r, DistReport::default());
            assert_eq!(m.stats().cycles(), 0, "guarded={guarded}");
            assert!(m.phases().is_empty());
        }
    }

    #[test]
    fn try_sort_rejects_out_of_range_keys_typed() {
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(3, "A");
        m.mem_mut().write_region(a, &[1, 7, 2]);
        let err = sort_kernel(&mut m, a, 4, Stream::Guarded).unwrap_err();
        assert!(matches!(
            err,
            FolError::TargetOutOfBounds {
                position: 1,
                target: 7,
                domain: 4,
                ..
            }
        ));
    }

    #[test]
    fn try_sort_turns_total_lane_loss_into_a_typed_error() {
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(5, 65535)));
        let a = m.alloc(6, "A");
        m.mem_mut().write_region(a, &[3, 1, 3, 0, 2, 1]);
        let err = sort_kernel(&mut m, a, 4, Stream::Guarded).unwrap_err();
        assert!(matches!(
            err,
            FolError::NoSurvivors { .. }
                | FolError::RoundBudgetExceeded { .. }
                | FolError::TargetOutOfBounds { .. }
        ));
    }

    #[test]
    fn txn_sort_clean_run_is_one_attempt() {
        let data: Vec<Word> = (0..100).map(|i| (i * 37) % 64).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut m = Machine::new(CostModel::unit());
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, &data);
        let (report, rec) = txn_sort(&mut m, a, 64, &RetryPolicy::default()).expect("clean run");
        assert_eq!(rec.attempts, 1);
        assert!(report.histogram_rounds >= 1);
        assert_eq!(m.mem().read_region(a), expect);
    }

    #[test]
    fn txn_sort_recovers_from_hostile_scatter_faults() {
        let data: Vec<Word> = (0..64).map(|i| (i * 13) % 32).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(
            fol_vm::FaultPlan::dropped_lanes(41, 25000)
                .with_torn_writes(25000, fol_vm::AmalgamMode::And),
        ));
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, &data);
        let (_, rec) = txn_sort(&mut m, a, 32, &RetryPolicy::default()).expect("ladder rescues");
        assert!(rec.recovered());
        assert_eq!(
            m.mem().read_region(a),
            expect,
            "sorted exactly despite ELS violations"
        );
    }

    #[test]
    fn txn_sort_exhaustion_leaves_the_input_untouched() {
        let data = [9, 2, 7, 2, 0, 9];
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::dropped_lanes(8, 65535)));
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, &data);
        let mut policy = RetryPolicy::vector_only(3);
        policy.reseed = false;
        let err = txn_sort(&mut m, a, 10, &policy).unwrap_err();
        assert_eq!(err.report().attempts, 3);
        assert_eq!(
            m.mem().read_region(a),
            data,
            "rollback restored the unsorted input"
        );
        assert!(!m.in_txn());
    }

    #[test]
    fn forced_sequential_rung_sorts_through_max_rate_tears() {
        // Pure torn writes: the ForcedSequential decomposition uses
        // singleton label scatters (never two competing values), and the
        // per-round payload scatters are conflict-free — so the first
        // ForcedSequential attempt must succeed.
        let data: Vec<Word> = (0..40).map(|i| (i * 7) % 16).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut m = Machine::new(CostModel::unit());
        m.set_fault_plan(Some(fol_vm::FaultPlan::torn_writes(
            3,
            65535,
            fol_vm::AmalgamMode::Xor,
        )));
        let a = m.alloc(data.len(), "A");
        m.mem_mut().write_region(a, &data);
        let policy = RetryPolicy {
            ladder: vec![ExecMode::ForcedSequential],
            reseed: false,
            ..RetryPolicy::default()
        };
        let (report, rec) = txn_sort(&mut m, a, 16, &policy).expect("tear-immune");
        assert_eq!(rec.final_mode, ExecMode::ForcedSequential);
        assert_eq!(report.histogram_rounds, report.permute_rounds);
        assert_eq!(m.mem().read_region(a), expect);
    }

    #[test]
    fn small_n_large_range_vector_wins() {
        // Table 1's setting: range 2^16 dominates; the vector machine
        // initializes/prefixes it at streaming speed.
        let data: Vec<Word> = (0..64).map(|i| (i * 1021) % 65536).collect();
        let mut ms = Machine::new(CostModel::s810());
        let a1 = ms.alloc(data.len(), "A");
        ms.mem_mut().write_region(a1, &data);
        ms.reset_stats();
        let _ = scalar_sort(&mut ms, a1, 65536);
        let sc = ms.stats().cycles();

        let mut mv = Machine::new(CostModel::s810());
        let a2 = mv.alloc(data.len(), "A");
        mv.mem_mut().write_region(a2, &data);
        mv.reset_stats();
        let _ = vectorized_sort(&mut mv, a2, 65536);
        let vc = mv.stats().cycles();
        let ratio = sc as f64 / vc as f64;
        assert!(ratio > 3.0, "expected substantial speedup, got {ratio:.2}");
    }
}
