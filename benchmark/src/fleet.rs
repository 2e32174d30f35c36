//! `fleet1w`: the operator's number. The fleet on one pool worker, batch
//! after batch of eight 16-player, 160-frame matches (one scripted cheater
//! per batch, observability on). Unlike the match workloads the timed
//! region includes everything a match costs the fleet: `MatchCell::build`,
//! quantum scheduling, audit collection, the quality join and the roll-up.
//!
//! A batch is `fleet::run_fleet_specs_on` step for step, through the same
//! public functions, with one difference: each `MatchCell` is handed to
//! the pool inside a [`Probed`] task, which reads the host probe around
//! every quantum on the worker thread that runs it. A batch lasts 0.4 s
//! and the host changes pace within milliseconds, so readings around the
//! whole batch would say little about what it met.

use std::sync::Arc;
use std::time::Instant;

use watchmen::fleet::pool::{run_tasks_on, PoolConfig, Quantum, ShardContext, Task, TaskOutcome};
use watchmen::fleet::{roll_up, FleetConfig, FleetResult, FleetView, MatchCell, MatchReport};
use watchmen::sim::quality::UNDETECTED;
use watchmen::sim::workload::match_workload;
use watchmen::telemetry::Registry;

use crate::catalog;
use crate::host::Ops;
use crate::kernels;
use crate::matches::TTD_BUDGET_FRAMES;
use crate::pools;
use crate::report::Report;
use crate::stats::{derive_seed, median_f64, peak_rss_mb, percentile_u64, Samples};
use crate::workloads::{set_end_to_end, Budget};

pub const COUNTED_BATCHES: u32 = 8;
/// Matches per `run_fleet` call: the worker's in-flight cap, so a batch
/// is the steady-state interleaving of a larger fleet.
const BATCH_MATCHES: u64 = 8;
const WARM_UPS: u64 = 9;
const PLAYERS: usize = 16;
const FRAMES: u64 = 160;

/// A fleet of `matches` on `fleet_seed`.
fn config(fleet_seed: u64, workers: usize, matches: u64) -> FleetConfig {
    FleetConfig {
        matches,
        players: PLAYERS,
        frames: FRAMES,
        workers,
        max_local: 8,
        tick_quantum: 16,
        seed: fleet_seed,
        cheat_every: 8,
        observe: true,
        audit: false,
    }
}

/// A match cell that reads the host probe around each of its quanta.
struct Probed {
    cell: MatchCell,
    quanta: Ops,
}

impl Task for Probed {
    type Output = (MatchReport, Ops);

    fn run_quantum(&mut self, cx: &ShardContext) -> Quantum<Self::Output> {
        match self.quanta.time(|| self.cell.run_quantum(cx)) {
            Quantum::Pending { ticks } => Quantum::Pending { ticks },
            Quantum::Complete { ticks, output } => {
                Quantum::Complete { ticks, output: (output, std::mem::take(&mut self.quanta)) }
            }
        }
    }
}

/// One fleet call, timed from outside.
struct Batch {
    timed: Timed,
    result: FleetResult,
    view: FleetView,
}

/// A batch's wall time and every one of its quanta with its probe bracket.
struct Timed {
    wall_ns: u64,
    quanta: Ops,
}

impl Timed {
    /// The wall time as on an uncontended core: scaled by what the host
    /// cost the batch's quanta.
    fn uncontended_ns(&self) -> u64 {
        (self.wall_ns as f64 * self.quanta.uncontended_share()).round() as u64
    }
}

/// Spec expansion, the view, the pool run, the roll-up: what
/// `run_fleet_specs_on` does, with the cells inside [`Probed`].
fn run_batch(cfg: &FleetConfig) -> Batch {
    let start = Instant::now();
    let view = FleetView::for_config(cfg);
    let pool = PoolConfig { workers: cfg.workers, max_local: cfg.max_local };
    let specs = cfg.specs();
    let ids: Vec<u64> = specs.iter().map(|s| s.match_id).collect();
    let tasks: Vec<Probed> = specs
        .into_iter()
        .map(|spec| Probed { cell: MatchCell::new(spec), quanta: Ops::default() })
        .collect();
    let run = run_tasks_on(&pool, tasks, view.shards().to_vec());

    let (mut reports, mut panics, mut quanta) = (Vec::new(), Vec::new(), Ops::default());
    for (slot, outcome) in run.outcomes.into_iter().enumerate() {
        match outcome {
            TaskOutcome::Completed((report, q)) => {
                reports.push(report);
                quanta.extend(&q);
            }
            TaskOutcome::Panicked(msg) => panics.push((ids[slot], msg)),
        }
    }
    reports.sort_by_key(|r| r.match_id);
    panics.sort_by_key(|(id, _)| *id);
    let result =
        FleetResult { reports, panics, workers: run.workers, rollup: roll_up(&run.shards) };
    Batch { timed: Timed { wall_ns: start.elapsed().as_nanos() as u64, quanta }, result, view }
}

/// Matches of a batch whose outputs are wrong, with the first reasons.
fn check(result: &FleetResult, expected: u64, notes: &mut Vec<String>) -> u64 {
    let mut failed = result.panics.len() as u64
        + expected.saturating_sub(result.completed() + result.panics.len() as u64);
    for (id, msg) in &result.panics {
        notes.push(format!("match {id} panicked: {msg}"));
    }
    for r in &result.reports {
        let late = r.quality.ttd_frames.iter().any(|&t| t == UNDETECTED || t > TTD_BUDGET_FRAMES);
        if r.false_verdicts > 0 || r.bad_signatures > 0 || (r.cheaters > 0 && (!r.detected || late))
        {
            failed += 1;
            if notes.len() < 12 {
                notes.push(r.summary_line());
            }
        }
    }
    failed
}

/// Whether the batch on `fleet_seed` passes every check (`--vet fleet1w`).
pub fn runs_clean(fleet_seed: u64) -> bool {
    let batch = run_batch(&config(fleet_seed, 1, BATCH_MATCHES));
    check(&batch.result, BATCH_MATCHES, &mut Vec::new()) == 0
}

const POOL_TAG: u64 = 0x666c_6565_7400;

pub fn run(seed: u64, budget: Budget, traced: bool) -> Report {
    let def = if traced { &catalog::PER_LAYER[..] } else { &catalog::END_TO_END[..] };
    let mut report = Report::new("fleet1w", traced, seed, def);

    // Set-up: the fleet has none of its own (a match's set-up is inside the
    // timed region by design), so what precedes the first timed batch is the
    // warm-up: one match through a freshly started pool, nine times over —
    // the first pays the lazy initialisation and first-touch page faults,
    // and the median of nine is reported.
    let first = pools::pick(&pools::FLEET1W, seed, POOL_TAG, 0);
    let mut warm_ups: Vec<Timed> = Vec::new();
    for _ in 0..WARM_UPS {
        let warm = run_batch(&config(first, 1, 1));
        report.attempted += 1;
        report.failed += check(&warm.result, 1, &mut report.failure_notes);
        warm_ups.push(warm.timed);
    }

    // One sample per batch: a match's share of the batch's wall time, as
    // measured and as on an uncontended core.
    let (mut batches, mut all_quanta) = (Vec::<Timed>::new(), Ops::default());
    let (mut quanta, mut steals, mut delivered, mut audit_records) = (0u64, 0u64, 0u64, 0u64);
    let mut ttd: Vec<u64> = Vec::new();

    let started = Instant::now();
    let mut batch = 0u32;
    while batch < budget.counted_units || started.elapsed().as_secs_f64() < budget.seconds {
        let cfg = config(pools::pick(&pools::FLEET1W, seed, POOL_TAG, batch), 1, BATCH_MATCHES);
        let ran = run_batch(&cfg);
        let result = &ran.result;
        report.attempted += BATCH_MATCHES;
        report.failed += check(result, BATCH_MATCHES, &mut report.failure_notes);
        all_quanta.extend(&ran.timed.quanta);
        if batch < budget.counted_units {
            quanta += result.workers.iter().map(|w| w.quanta).sum::<u64>();
            steals += result.total_steals();
            delivered += result.reports.iter().map(|r| r.messages).sum::<u64>();
            audit_records += result.reports.iter().map(|r| r.audit_records).sum::<u64>();
            ttd.extend(result.detection_quality().ttd_frames.iter().filter(|&&t| t != UNDETECTED));
        }
        batches.push(ran.timed);
        batch += 1;
    }
    let peak_heap_mb = crate::heap::peak_mb();

    if !traced {
        // Scaled only now: the fastest probe reading is known best at the end.
        let per_match: Vec<u64> =
            batches.iter().map(|b| b.uncontended_ns() / BATCH_MATCHES).collect();
        let warm: Vec<u64> = warm_ups.iter().map(Timed::uncontended_ns).collect();
        set_end_to_end(
            &mut report,
            peak_heap_mb,
            &per_match.into(),
            &warm.into(),
            all_quanta.contention(),
        );
        return report;
    }

    report.set("peak_rss_mb", peak_rss_mb(), 1);
    report.set("ttd_frames_p99", percentile_u64(&ttd, 99.0) as f64, ttd.len() as u64);
    report.set("fleet.pool.quanta", quanta as f64, 0);
    report.set("fleet.pool.steals", steals as f64, 0);
    report.set("net.simnet.delivered", delivered as f64, 0);
    report.set("core.audit.records", audit_records as f64, 0);
    let wall: Samples =
        batches.iter().map(|b| b.wall_ns / BATCH_MATCHES).collect::<Vec<u64>>().into();
    cells_by_hand(&mut report, seed, wall.percentile_ms(50.0));
    let (share, factor) = all_quanta.contention();
    report.set("attrib.host_contended_share", share, all_quanta.len() as u64);
    report.set("attrib.host_slowdown_p50", factor, all_quanta.len() as u64);
    two_workers(&mut report, seed);
    kernels::stateless(&mut report, seed);

    let mut builds = Vec::new();
    for i in 0..8 {
        let start = Instant::now();
        std::hint::black_box(match_workload(
            PLAYERS,
            derive_seed(seed, 0x6275_696c_6400, i),
            FRAMES,
        ));
        builds.push(start.elapsed().as_secs_f64());
    }
    report.set("sim.workload.build_s", median_f64(&builds), 8);
    report.set(
        "game.trace.record_us_per_player_frame",
        median_f64(&builds) * 1e6 / (PLAYERS as f64 * FRAMES as f64),
        8,
    );
    report
}

/// Drives match cells through the public `Task::run_quantum` by hand, the
/// way a pool worker does, timing each quantum: the first one pays
/// `MatchCell::build`, the last one the drain and the quality join.
fn cells_by_hand(report: &mut Report, seed: u64, fleet_match_ms: f64) {
    let cx = ShardContext { shard: 0, registry: Arc::new(Registry::new()) };
    let (mut first, mut middle, mut last) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut match_ms = Vec::new();
    for spec in config(derive_seed(seed, POOL_TAG, 2), 1, 16).specs() {
        let mut cell = MatchCell::new(spec);
        let mut quanta = Vec::new();
        loop {
            let start = Instant::now();
            let q = cell.run_quantum(&cx);
            quanta.push(start.elapsed().as_nanos() as u64);
            if matches!(q, Quantum::Complete { .. }) {
                break;
            }
        }
        match_ms.push(quanta.iter().sum::<u64>() as f64 / 1e6);
        first.push(quanta[0]);
        last.push(*quanta.last().expect("at least one quantum"));
        for &q in &quanta[1..quanta.len() - 1] {
            middle.push(q);
        }
    }
    report.set("fleet.cell.first_quantum_ms_p50", first.percentile_ms(50.0), first.len() as u64);
    report.set("fleet.cell.quantum_ms_p50", middle.percentile_ms(50.0), middle.len() as u64);
    report.set_percentile(
        "fleet.cell.quantum_ms_p99",
        middle.percentile_ms(99.0),
        middle.len() as u64,
        middle.beyond(99.0),
    );
    report.set("fleet.cell.final_quantum_ms_p50", last.percentile_ms(50.0), last.len() as u64);
    if fleet_match_ms > 0.0 {
        // What the pool adds on top of the cells' own quanta.
        report.set(
            "fleet.pool.overhead_share",
            1.0 - median_f64(&match_ms) / fleet_match_ms,
            match_ms.len() as u64,
        );
    }
}

/// The ungated two-worker pass: speed-up over one worker on the same
/// sixteen matches, the cost of the roll-up, and how far apart the two
/// shards' reported tick p99s are.
fn two_workers(report: &mut Report, seed: u64) {
    const REPS: u32 = 3;
    let (mut w1, mut w2, mut roll, mut spreads) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rep in 0..REPS {
        let fleet_seed = derive_seed(seed, POOL_TAG, 3 + u64::from(rep));
        let one = run_batch(&config(fleet_seed, 1, 16));
        let two = run_batch(&config(fleet_seed, 2, 16));
        w1.push(one.timed.wall_ns as f64);
        w2.push(two.timed.wall_ns as f64);
        let start = Instant::now();
        std::hint::black_box(roll_up(two.view.shards()));
        roll.push(start.elapsed().as_secs_f64() * 1e3);
        let p99s = two.result.rollup.shard_tick_p99s();
        let (lo, hi) = p99s.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        if p99s.len() == 2 && hi > 0.0 {
            spreads.push((hi - lo) / hi);
        }
    }
    report.set("fleet.pool.speedup_2w", median_f64(&w1) / median_f64(&w2), u64::from(REPS));
    report.set("fleet.rollup.roll_up_ms", median_f64(&roll), u64::from(REPS));
    report.set("fleet.rollup.shard_p99_spread", median_f64(&spreads), spreads.len() as u64);
}
