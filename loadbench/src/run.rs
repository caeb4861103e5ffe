//! The epoch loop: untraced runs measure the end-to-end metrics, traced runs
//! interleave untraced and traced epochs and derive the per-layer metrics.

use crate::gen::{self, Op, Plan, Window, Workload};
use crate::shadow::Shadow;
use crate::stats::{self, MIN_TAIL};
use crate::target::{self, ScratchDir, Target, WindowRun};
use crate::trace::{Source, Trace};
use fol_net::wire::{frame_bytes, ClientMsg, ServerMsg, WireOutcome};
use fol_serve::NO_SHARD;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// No new epoch starts after this much wall time, so a run ends well inside
/// the three minutes a run may take.
const WALL_CAP: Duration = Duration::from_secs(120);

/// Blocks the p99 is the median of, at the least: with one or two, a burst
/// of host noise that slows 1% of a run's windows sets the figure.
const P99_BLOCKS: usize = 3;

/// Failure messages kept for the report (the count is exact regardless).
const KEEP_ERRORS: usize = 8;

/// What one run asks for.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Measured seconds (summed window time).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// What one run found.
pub struct Report {
    /// No wrong, failed or refused answer, and every metric was measurable.
    pub correct: bool,
    /// Requests issued, set-up and digest checks included.
    pub attempted: u64,
    /// Requests that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Metric values, by catalogue name.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

/// Running totals over a run's epochs of one kind.
#[derive(Default)]
struct Tally {
    epochs: usize,
    setups_s: Vec<f64>,
    window_ns: u64,
    windows: usize,
    requests: u64,
    request_ms: Vec<f64>,
    window_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    batches: u64,
    coalesced: u64,
    wal_appends: u64,
    completed: u64,
    rounds: Vec<f64>,
    /// Requests per second of each epoch's windows.
    epoch_rps: Vec<f64>,
    /// Window times, per request kind, in first-seen order of the kinds.
    by_op: Vec<(Op, Vec<f64>)>,
}

impl Tally {
    fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.errors.len() < KEEP_ERRORS {
            self.errors.push(what);
        }
    }

    /// Requests per second over every window of the tally.
    fn throughput(&self) -> f64 {
        self.requests as f64 / (self.window_ns as f64 / 1e9)
    }

    /// The median of the epochs' throughputs: a burst of host noise slows
    /// one epoch, not the figure.
    fn median_epoch_throughput(&self) -> Option<f64> {
        stats::median(&self.epoch_rps)
    }

    fn coalesce(&self) -> f64 {
        self.coalesced as f64 / self.batches.max(1) as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The live spans of one traced window, recorded while the epoch ran, and
/// what the replay needs to attach its spans under them.
struct Live {
    id: u32,
    root: u32,
    admit: u32,
    wait: u32,
    start: Instant,
    call: Duration,
    outcomes: Vec<Result<fol_serve::Response, String>>,
}

/// Records the live spans of `run`: the window (`net.call` over the wire),
/// and in-process its admission and its wait for the last outcome.
fn record_live(trace: &mut Trace, w: Workload, run: &WindowRun) -> Live {
    let id = trace.next_window();
    let (start, end) = (run.start, run.end());
    let root_name = if w.over_net() { "net.call" } else { "window" };
    let root = trace.record(id, None, root_name, start, end, Source::Real);
    let (admit, wait) = if w.over_net() {
        (root, root) // replaced by the twin's spans in the replay
    } else {
        (
            trace.record(
                id,
                Some(root),
                "queue.admit",
                start,
                run.admitted,
                Source::Real,
            ),
            trace.record(
                id,
                Some(root),
                "queue.wait",
                run.admitted,
                end,
                Source::Real,
            ),
        )
    };
    Live {
        id,
        root,
        admit,
        wait,
        start,
        call: end - start,
        outcomes: if w.over_net() {
            run.outcomes.clone()
        } else {
            Vec::new()
        },
    }
}

/// The traced half of an epoch, run after its live windows so the replay
/// never competes with them. Over the wire, an in-process twin server first
/// replays the windows at the same state, which splits each call into its
/// in-process part and the transport; then the rebuilt machines replay every
/// window's layer functions.
fn replay_epoch(
    args: &Args,
    plan: &Plan,
    e: u64,
    scratch: &Path,
    trace: &mut Trace,
    live: &mut [Live],
    tally: &mut Tally,
) -> Result<(), String> {
    let w = args.workload;
    if w.over_net() {
        let mut twin = Target::start(w, plan, None, false)?;
        for (window, l) in plan.windows.iter().zip(live.iter_mut()) {
            let local = twin.run(&window.requests);
            tally.attempted += window.requests.len() as u64;
            let wrong = target::wrong_answers(window, &local);
            if !wrong.is_empty() {
                tally.fail(wrong.len() as u64, format!("in-process twin: {}", wrong[0]));
            }
            let here = local.end() - local.start;
            let transport = trace.record_len(
                l.id,
                Some(l.root),
                "net.transport",
                l.start,
                l.call.saturating_sub(here).as_nanos() as u64,
            );
            wire_spans(trace, l.id, transport, window, &l.outcomes);
            let (id, end) = (l.id, local.end());
            let lw = trace.record(
                id,
                Some(l.root),
                "local.window",
                local.start,
                end,
                Source::Real,
            );
            l.admit = trace.record(
                id,
                Some(lw),
                "queue.admit",
                local.start,
                local.admitted,
                Source::Real,
            );
            l.wait = trace.record(
                id,
                Some(lw),
                "queue.wait",
                local.admitted,
                end,
                Source::Real,
            );
        }
        twin.stop();
    }
    let shadow_dir = w.durable().then(|| scratch.join(format!("replay-{e}")));
    let cfg = target::server_config(w, shadow_dir.as_deref());
    let mut shadow = Shadow::new(&cfg, shadow_dir.as_deref())?;
    let (op, groups) = preload_groups(w, plan);
    shadow.preload(op, &groups)?;
    let replayed = plan
        .windows
        .iter()
        .zip(live.iter())
        .try_for_each(|(window, l)| shadow.replay(window, trace, l.id, l.admit, l.wait))
        .and_then(|()| shadow.check(&plan.expect));
    drop(shadow);
    if let Some(dir) = shadow_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    replayed
}

/// Times the client's side of the wire for one window: encoding and framing
/// every submit, and decoding every result.
fn wire_spans(
    t: &mut Trace,
    id: u32,
    parent: u32,
    window: &Window,
    outcomes: &[Result<fol_serve::Response, String>],
) {
    t.time(id, Some(parent), "wire.encode", || {
        for (seq, r) in window.requests.iter().enumerate() {
            let msg = ClientMsg::Submit {
                client_id: 1,
                seq: seq as u64,
                acked_floor: 0,
                deadline_millis: Some(10_000),
                shard: NO_SHARD,
                map_epoch: 0,
                request: r.clone(),
            };
            black_box(frame_bytes(&msg.encode()));
        }
    });
    let payloads: Vec<Vec<u8>> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(seq, o)| o.as_ref().ok().map(|r| (seq, r)))
        .map(|(seq, r)| {
            ServerMsg::Result {
                seq: seq as u64,
                outcome: WireOutcome::Ok(r.clone()),
            }
            .encode()
        })
        .collect();
    t.time(id, Some(parent), "wire.decode", || {
        for p in &payloads {
            let _ = black_box(ServerMsg::decode(p));
        }
    });
}

/// The op and key groups of a plan's preload, for the replay.
fn preload_groups(w: Workload, plan: &Plan) -> (Option<Op>, Vec<Vec<fol_vm::Word>>) {
    let op = match w {
        Workload::IngestResident => Some(Op::ChainInsert),
        Workload::ReadMix => Some(Op::OaInsert),
        Workload::DurableIngest => None,
    };
    let groups = plan
        .preload
        .iter()
        .map(|r| gen::keys_of(r).to_vec())
        .collect();
    (op, groups)
}

/// Runs epoch `e`: set-up (timed), the plan's windows (timed per window),
/// then the digest checks and tear-down (untimed). With `trace`, also the
/// live spans of every window and, after tear-down, the traced replay.
fn epoch(args: &Args, e: u64, scratch: &Path, tally: &mut Tally, trace: Option<&mut Trace>) {
    let w = args.workload;
    let plan = gen::plan(w, args.seed, e);
    let server_dir = w.durable().then(|| scratch.join(format!("server-{e}")));
    tally.epochs += 1;
    tally.attempted += plan.preload.len() as u64;

    let t0 = Instant::now();
    let started = Target::start(w, &plan, server_dir.as_deref(), w.over_net());
    let setup = t0.elapsed();
    let mut target = match started {
        Ok(t) => t,
        Err(err) => {
            tally.fail(
                plan.preload.len().max(1) as u64,
                format!("epoch {e} set-up: {err}"),
            );
            return;
        }
    };
    tally.setups_s.push(setup.as_secs_f64());

    let mut trace = trace;
    let mut live = Vec::new();
    let before = target.stats();
    let (requests_before, ns_before) = (tally.requests, tally.window_ns);
    for window in &plan.windows {
        let run = target.run(&window.requests);
        let n = window.requests.len() as u64;
        let dur = run.end() - run.start;
        tally.window_ns += dur.as_nanos() as u64;
        tally.windows += 1;
        tally.requests += n;
        tally.attempted += n;
        tally.window_ms.push(ms(dur));
        match tally.by_op.iter_mut().find(|(op, _)| *op == window.op) {
            Some((_, v)) => v.push(ms(dur)),
            None => tally.by_op.push((window.op, vec![ms(dur)])),
        }
        tally
            .request_ms
            .extend(run.done.iter().map(|d| ms(*d - run.start)));
        let wrong = target::wrong_answers(window, &run);
        if !wrong.is_empty() {
            tally.fail(wrong.len() as u64, format!("epoch {e}: {}", wrong[0]));
        }
        if let Some(rounds) = target::chain_rounds(&run) {
            tally.rounds.push(rounds as f64);
        }
        if let Some(t) = trace.as_deref_mut() {
            live.push(record_live(t, w, &run));
        }
    }
    let after = target.stats();
    tally.epoch_rps.push(
        (tally.requests - requests_before) as f64 / ((tally.window_ns - ns_before) as f64 / 1e9),
    );
    tally.batches += after.batches - before.batches;
    tally.coalesced += after.coalesced_requests - before.coalesced_requests;
    tally.wal_appends += after.wal_appends - before.wal_appends;
    tally.completed += after.completed - before.completed;

    for ex in &plan.expect {
        tally.attempted += 1;
        match target.digest(ex.class) {
            Ok((digest, count)) if digest == ex.digest && count == ex.count => {}
            got => tally.fail(
                1,
                format!(
                    "epoch {e}: {:?} digest {got:?}, key model has ({}, {})",
                    ex.class, ex.digest, ex.count
                ),
            ),
        }
    }
    target.stop();
    if let Some(dir) = server_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Some(t) = trace {
        if let Err(err) = replay_epoch(args, &plan, e, scratch, t, &mut live, tally) {
            tally.fail(1, format!("epoch {e} replay: {err}"));
        }
    }
}

fn enough(tally: &Tally, seconds: f64, windows: usize) -> bool {
    tally.window_ns as f64 / 1e9 >= seconds && tally.windows >= windows
}

/// Runs the benchmark as `args` asks.
pub fn run(args: &Args) -> Report {
    let scratch = ScratchDir::for_this_run();
    let began = Instant::now();
    let mut lines = vec![crate::provenance::line(args)];
    // Epoch 0 warms the process up (allocator, page cache, CPU caches) and
    // is not measured; its answers are checked all the same.
    let mut warm = Tally::default();
    epoch(args, 0, &scratch.0, &mut warm, None);
    lines.extend(warm.errors.iter().map(|e| format!("error: warm-up {e}")));
    if args.trace {
        let mut report = run_traced(args, &scratch.0, began, lines);
        report.attempted += warm.attempted;
        report.failed += warm.failed;
        report.correct &= warm.failed == 0;
        return report;
    }
    let mut tally = Tally {
        attempted: warm.attempted,
        failed: warm.failed,
        ..Tally::default()
    };
    let needed = P99_BLOCKS * stats::samples_needed(0.99, MIN_TAIL);
    let mut e = 1;
    while !enough(&tally, args.seconds, needed) && began.elapsed() < WALL_CAP && tally.failed == 0 {
        epoch(args, e, &scratch.0, &mut tally, None);
        e += 1;
    }
    let p50 = stats::median(&tally.request_ms);
    let p99 = stats::blocked_tail_percentile(&tally.window_ms, 0.99, MIN_TAIL);
    let setup = stats::median(&tally.setups_s);
    lines.push(format!(
        "epochs {} windows {} requests {} measured_s {:.3} wall_s {:.3}",
        tally.epochs,
        tally.windows,
        tally.requests,
        tally.window_ns as f64 / 1e9,
        began.elapsed().as_secs_f64()
    ));
    let mut values = Vec::new();
    let mut measurable = true;
    match (p50, p99, setup, tally.median_epoch_throughput()) {
        (Some(p50), Some((p99, blocks)), Some(setup), Some(rps)) => {
            lines.push(format!(
                "throughput_rps {rps:.1} req/s, median of {} epochs ({:.1} over all windows)",
                tally.epochs,
                tally.throughput()
            ));
            lines.push(format!(
                "latency_p50_ms {p50:.4} ms over {} request samples (printed, not gated: see the README)",
                tally.request_ms.len()
            ));
            lines.push(format!(
                "latency_p99_ms {p99:.4} ms, median of {blocks} blocks of {} window samples, each with at least {MIN_TAIL} beyond its p99",
                tally.window_ms.len() / blocks
            ));
            lines.push(format!(
                "setup_s {setup:.5} s, median of {} set-ups",
                tally.setups_s.len()
            ));
            values = vec![
                ("throughput_rps", rps),
                ("latency_p99_ms", p99),
                ("setup_s", setup),
            ];
        }
        _ => {
            measurable = false;
            lines.push(format!(
                "not measurable: {} windows, {needed} needed for {P99_BLOCKS} p99 blocks",
                tally.windows
            ));
        }
    }
    lines.push(format!(
        "error_rate {} fraction ({} failed / {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    lines.push(format!("queue.coalesce {:.3} count", tally.coalesce()));
    let mut per_epoch = tally.epoch_rps.clone();
    per_epoch.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (per_epoch.first(), per_epoch.last()) {
        lines.push(format!(
            "epoch throughput_rps min {lo:.0} quartiles {:.0} {:.0} {:.0} max {hi:.0}",
            per_epoch[per_epoch.len() / 4],
            per_epoch[per_epoch.len() / 2],
            per_epoch[3 * per_epoch.len() / 4]
        ));
    }
    // Window-time quantiles per request kind, so a bimodal kind and the
    // kind that sets the tail both show.
    for (op, v) in &tally.by_op {
        let mut v = v.clone();
        v.sort_by(f64::total_cmp);
        let q = |f: f64| v[((v.len() - 1) as f64 * f) as usize];
        lines.push(format!(
            "window_ms {op:?} ({} windows): p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} p99 {:.3}",
            v.len(),
            q(0.10),
            q(0.25),
            q(0.50),
            q(0.75),
            q(0.90),
            q(0.99)
        ));
    }
    lines.extend(tally.errors.iter().map(|e| format!("error: {e}")));
    Report {
        correct: tally.failed == 0 && measurable,
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        lines,
    }
}

/// Why a workload leaves a layer's metric at 0: it does not exercise it.
fn absent_reason(metric: &str) -> &'static str {
    match metric.split('.').next().unwrap_or("") {
        "wire" | "net" => "in-process workload: no wire and no transport",
        "wal" | "checkpoint" | "delta" => "durability is off on this workload",
        _ if metric.contains("bst") => "no BST traffic on this workload",
        _ if metric.contains("chain") => "no chain traffic on this workload",
        _ if metric.contains("oa") || metric.starts_with("open_addressing") => {
            "no open-addressing traffic on this workload"
        }
        _ => "no such span in this workload's windows",
    }
}

fn run_traced(args: &Args, scratch: &Path, began: Instant, mut lines: Vec<String>) -> Report {
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut trace = Trace::new();
    let mut e = 1;
    loop {
        let measured = (plain.window_ns + traced.window_ns) as f64 / 1e9;
        let done = measured >= args.seconds && plain.epochs > 0 && traced.epochs > 0;
        if done || began.elapsed() >= WALL_CAP || plain.failed + traced.failed > 0 {
            break;
        }
        if e % 2 == 1 {
            epoch(args, e, scratch, &mut plain, None);
        } else {
            epoch(args, e, scratch, &mut traced, Some(&mut trace));
        }
        e += 1;
    }

    let mut values: Vec<(&'static str, f64)> = Vec::new();
    for &(name, unit) in crate::metrics::PER_LAYER {
        let scale = match unit {
            "us" => 1e-3,
            "ms" => 1e-6,
            _ => continue,
        };
        let span = name.rsplit_once('_').map_or(name, |(s, _)| s);
        match trace.median_per_window(span) {
            Some(ns) => values.push((name, ns * scale)),
            None => {
                values.push((name, 0.0));
                lines.push(format!("absent: {name} ({})", absent_reason(name)));
            }
        }
    }
    let kernels = ["chaining.kernel", "bst.kernel", "open_addressing.kernel"]
        .iter()
        .map(|n| trace.total(n))
        .sum::<u64>();
    let txns = ["recover.chain_txn", "recover.bst_txn", "recover.oa_txn"]
        .iter()
        .map(|n| trace.total(n))
        .sum::<u64>();
    let bracket = if txns > 0 {
        1.0 - kernels as f64 / txns as f64
    } else {
        0.0
    };
    let rounds = stats::median(&traced.rounds);
    let wal_per_req = traced.wal_appends as f64 / traced.completed.max(1) as f64;
    let traced_rps = traced.median_epoch_throughput().unwrap_or(0.0);
    let plain_rps = plain.median_epoch_throughput().unwrap_or(0.0);
    values.extend([
        ("queue.coalesce", traced.coalesce()),
        ("recover.bracket_share", bracket),
        ("chaining.rounds", rounds.unwrap_or(0.0)),
        ("wal.appends_per_req", wal_per_req),
        (
            "trace.unaccounted_share",
            trace.unaccounted_share().unwrap_or(1.0),
        ),
        ("trace.throughput_rps", traced_rps),
        ("trace.untraced_throughput_rps", plain_rps),
        ("trace.overhead_share", 1.0 - traced_rps / plain_rps),
    ]);
    if rounds.is_none() {
        lines.push(format!(
            "absent: chaining.rounds ({})",
            absent_reason("chaining.rounds")
        ));
    }
    if traced.wal_appends == 0 {
        lines.push(format!(
            "absent: wal.appends_per_req ({})",
            absent_reason("wal.appends_per_req")
        ));
    }
    lines.push(format!(
        "epochs {} untraced + {} traced, {} traced windows, {} spans, wall_s {:.3}",
        plain.epochs,
        traced.epochs,
        traced.windows,
        trace.spans().len(),
        began.elapsed().as_secs_f64()
    ));
    lines.push(write_spans(args, &trace));
    let failed = plain.failed + traced.failed;
    lines.extend(
        plain
            .errors
            .iter()
            .chain(&traced.errors)
            .map(|e| format!("error: {e}")),
    );
    let measurable =
        traced.windows > 0 && plain.windows > 0 && values.iter().all(|(_, v)| v.is_finite());
    Report {
        correct: failed == 0 && measurable,
        attempted: plain.attempted + traced.attempted,
        failed,
        values,
        lines,
    }
}

/// Writes the spans next to the run's scratch area and says where.
fn write_spans(args: &Args, trace: &Trace) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_jsonl())) {
        Ok(()) => format!("spans: {}", path.display()),
        Err(e) => format!("spans not written ({}): {e}", path.display()),
    }
}
