//! Differential tests for the event-driven fast-forward core.
//!
//! The fast-forward path (`MemorySystem::next_event_at` + `skip_to`) claims
//! to be *bit-identical* to cycle stepping: same completions, same stats,
//! same samples, same command log, same protocol verdicts. These tests hold
//! it to that claim three ways:
//!
//! 1. a property test pushing random request streams through every system
//!    preset (including reliability-enabled ones) in both modes;
//! 2. a sweep over every checked-in `configs/*.cfg` file, parsed exactly as
//!    the `fgnvm_trace` binary would parse it, and the write drain (waves
//!    of writes that are mostly dead cycles), which must also skip at
//!    least five cycles per host step;
//! 3. exhaustive unit checks that both bank FSMs' `next_ready_hint` is a
//!    sound lower bound — the contract the skip logic rests on — and that
//!    every bank model's blocked verdicts are stable until their retry —
//!    the contract the issue calendar's per-bank slots rest on.
//!
//! Every run executes with the observability layer enabled: the snapshot
//! includes the rendered metrics and Chrome-trace JSON documents, so span
//! decompositions, the S×C conflict heatmap, and the trace event stream
//! must also match byte for byte between fast-forwarded and stepped runs
//! (observer hooks only fire from stepped paths; `skip_to` fires none).

use proptest::prelude::*;

use fgnvm_bank::{Access, Bank, BaselineBank, DramBank, FgnvmBank, Modes, RefreshCycles};
use fgnvm_check::Oracle;
use fgnvm_mem::{CommandRecord, MemorySystem, Sample, SystemStats};
use fgnvm_types::address::TileCoord;
use fgnvm_types::config::{SchedulerKind, SystemConfig};
use fgnvm_types::geometry::Geometry;
use fgnvm_types::request::{Completion, Op};
use fgnvm_types::time::Cycle;
use fgnvm_types::{PhysAddr, TimingConfig};

/// A compact random request: op, bank-ish region, row-ish index, line.
#[derive(Debug, Clone, Copy)]
struct Gen {
    is_write: bool,
    region: u64,
    row: u64,
    line: u64,
}

impl Gen {
    /// Maps the abstract coordinates onto a physical address that stays
    /// within a handful of rows/banks so conflicts actually happen.
    fn addr(&self) -> PhysAddr {
        // Default mapping: offset(6) | line(4) | bank(3) | row(15).
        PhysAddr::new((self.row << 13) | (self.region << 10) | (self.line << 6))
    }
}

fn gen_strategy() -> impl Strategy<Value = Gen> {
    (any::<bool>(), 0u64..8, 0u64..16, 0u64..16).prop_map(|(is_write, region, row, line)| Gen {
        is_write,
        region,
        row,
        line,
    })
}

/// Every preset the scheduler/bank matrix offers, plus reliability-enabled
/// variants so the differential covers retry and remap traffic too.
fn all_presets() -> Vec<(&'static str, SystemConfig)> {
    let mut presets = vec![
        ("baseline", SystemConfig::baseline()),
        ("fgnvm 4x4", SystemConfig::fgnvm(4, 4).unwrap()),
        ("fgnvm 8x2", SystemConfig::fgnvm(8, 2).unwrap()),
        ("fgnvm 8x8", SystemConfig::fgnvm(8, 8).unwrap()),
        (
            "multi-issue 8x2",
            SystemConfig::fgnvm_multi_issue(8, 2, 2).unwrap(),
        ),
        ("many-banks 128", SystemConfig::many_banks(128).unwrap()),
        ("dram", SystemConfig::dram()),
        (
            "pausing 8x8",
            SystemConfig::fgnvm_with_pausing(8, 8).unwrap(),
        ),
    ];
    let mut fcfs = SystemConfig::fgnvm(4, 4).unwrap();
    fcfs.scheduler = SchedulerKind::Fcfs;
    presets.push(("fcfs 4x4", fcfs));
    let mut frfcfs = SystemConfig::fgnvm(4, 4).unwrap();
    frfcfs.scheduler = SchedulerKind::Frfcfs;
    presets.push(("frfcfs 4x4", frfcfs));
    let mut cap = SystemConfig::fgnvm(4, 4).unwrap();
    cap.scheduler = SchedulerKind::FrfcfsCap;
    presets.push(("frfcfs-cap 4x4", cap));
    // Fault-injected variant mirroring configs/fgnvm_8x2_faulty.cfg: read
    // errors, write-verify retries, and row remaps all in play.
    let mut faulty = SystemConfig::fgnvm(8, 2).unwrap();
    faulty.reliability.fault_seed = 42;
    faulty.reliability.rber = 1e-3;
    faulty.reliability.write_fail_prob = 0.25;
    faulty.reliability.max_write_retries = 4;
    faulty.reliability.ecc_correctable_bits = 2;
    faulty.reliability.ecc_decode_penalty_cycles = 10;
    presets.push(("faulty 8x2", faulty));
    presets
}

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct Snapshot {
    now: Cycle,
    completions: Vec<Completion>,
    stats: SystemStats,
    banks: fgnvm_bank::BankStats,
    samples: Vec<Sample>,
    commands: Vec<Vec<CommandRecord>>,
    protocol: Vec<String>,
    /// Rendered metrics document (registry + spans + heatmap).
    obs_metrics: String,
    /// Rendered Chrome trace-event document.
    obs_trace: String,
    /// Rendered stall-attribution document (per-class bucket totals).
    obs_attribution: String,
}

/// Feeds `reqs` (retrying on backpressure), drains, and captures every
/// observable output — with fast-forwarding on or off.
fn drive(config: &SystemConfig, reqs: &[Gen], fast_forward: bool) -> Snapshot {
    drive_waves(config, &[reqs], fast_forward)
}

/// [`drive`] over several waves, draining the system to idle after each.
fn drive_waves(config: &SystemConfig, waves: &[&[Gen]], fast_forward: bool) -> Snapshot {
    let mut mem = MemorySystem::new(*config).unwrap();
    mem.set_fast_forward(fast_forward);
    mem.enable_command_log(1 << 20);
    mem.enable_sampling(64);
    mem.enable_observer();
    let mut completions = Vec::new();
    for wave in waves {
        for g in *wave {
            let op = if g.is_write { Op::Write } else { Op::Read };
            let mut guard = 0;
            loop {
                if mem.enqueue(op, g.addr()).is_some() {
                    break;
                }
                mem.tick_into(&mut completions);
                guard += 1;
                assert!(guard < 100_000, "backpressure never relieved");
            }
        }
        completions.extend(mem.run_until_idle(10_000_000));
    }
    let oracle = Oracle::new(mem.config()).unwrap();
    let mut commands = Vec::new();
    let mut protocol = Vec::new();
    for channel in 0..mem.config().geometry.channels() {
        let log = mem.command_log(channel);
        commands.push(log.records().copied().collect());
        protocol.push(format!("{:?}", oracle.audit(log)));
    }
    let obs = mem.take_observer().expect("observer enabled");
    let mut reg = fgnvm_obs::Registry::new();
    mem.export_metrics(&mut reg);
    obs.export_metrics(&mut reg);
    Snapshot {
        now: mem.now(),
        completions,
        stats: mem.stats().clone(),
        banks: mem.bank_stats(),
        samples: mem.samples().to_vec(),
        commands,
        protocol,
        obs_metrics: obs.metrics_json(&reg),
        obs_trace: obs.trace_json(),
        obs_attribution: obs.attribution.to_json(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random streams through every preset: fast-forwarded and stepped runs
    /// must agree on every observable, bit for bit.
    #[test]
    fn fast_forward_is_bit_identical_on_every_preset(
        reqs in prop::collection::vec(gen_strategy(), 1..80),
    ) {
        for (name, config) in all_presets() {
            let fast = drive(&config, &reqs, true);
            let stepped = drive(&config, &reqs, false);
            prop_assert_eq!(fast.now, stepped.now, "{}: final cycle diverged", name);
            prop_assert_eq!(
                &fast.completions, &stepped.completions,
                "{}: completions diverged", name
            );
            prop_assert_eq!(&fast.stats, &stepped.stats, "{}: stats diverged", name);
            prop_assert_eq!(&fast.banks, &stepped.banks, "{}: bank stats diverged", name);
            prop_assert_eq!(&fast.samples, &stepped.samples, "{}: samples diverged", name);
            prop_assert_eq!(&fast.commands, &stepped.commands, "{}: command log diverged", name);
            prop_assert_eq!(&fast.protocol, &stepped.protocol, "{}: oracle verdict diverged", name);
            prop_assert_eq!(
                &fast.obs_metrics,
                &stepped.obs_metrics,
                "{}: observability metrics diverged",
                name
            );
            prop_assert_eq!(
                &fast.obs_trace,
                &stepped.obs_trace,
                "{}: observability trace diverged",
                name
            );
            prop_assert_eq!(
                &fast.obs_attribution,
                &stepped.obs_attribution,
                "{}: stall attribution diverged",
                name
            );
        }
    }
}

/// Deterministic mixed read/write stream (the proptest generator's shape,
/// without the proptest dependency on run order).
fn lcg_stream(seed: u64, ops: usize) -> Vec<Gen> {
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..ops)
        .map(|_| Gen {
            is_write: next() % 3 == 0,
            region: next() % 8,
            row: next() % 16,
            line: next() % 16,
        })
        .collect()
}

/// Every checked-in parameter file, sorted by path and parsed exactly as
/// `fgnvm_trace replay --params` parses it, with its path for messages.
fn checked_in_configs() -> Vec<(String, SystemConfig)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("configs/ directory present")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "cfg"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 6,
        "expected the full config set, saw {paths:?}"
    );
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap();
            let config = fgnvm_types::parse_system_config(&text)
                .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
            (path.display().to_string(), config)
        })
        .collect()
}

/// Every checked-in parameter file must be fast-forward clean, including
/// the fault-injected one.
#[test]
fn every_checked_in_config_is_fast_forward_clean() {
    let configs = checked_in_configs();
    assert!(
        configs
            .iter()
            .any(|(path, _)| path.ends_with("fgnvm_8x2_faulty.cfg")),
        "the fault-injected config must be part of the sweep"
    );
    let reqs = lcg_stream(0xF09D_95A4, 160);
    for (path, config) in &configs {
        let fast = drive(config, &reqs, true);
        let stepped = drive(config, &reqs, false);
        // `Snapshot` equality covers the oracle verdicts too: whatever the
        // oracle concludes, it must conclude it identically in both modes.
        assert_eq!(fast, stepped, "{path} diverged under fast-forward");
        assert!(
            fast.commands.iter().any(|c| !c.is_empty()),
            "{path}: nothing issued — the sweep exercised nothing"
        );
        assert!(
            fast.obs_trace.contains("\"cat\":\"cmd\""),
            "{path}: observer recorded no command slices"
        );
    }
}

/// The write drain: 12 waves of 32 writes to distinct lines of 8 rows in
/// one bank of `fgnvm(8, 2)`, each wave drained to idle. The writes
/// serialize on the long program pulse, so the run is mostly dead cycles:
/// the workload where fast-forward skips the most.
fn write_drain_waves() -> Vec<Vec<Gen>> {
    (0..12u64)
        .map(|wave| {
            (wave * 32..(wave + 1) * 32)
                .map(|id| Gen {
                    is_write: true,
                    region: 0,
                    row: id % 8,
                    line: (id / 8) % 16,
                })
                .collect()
        })
        .collect()
}

/// Simulated cycles the write drain takes on `fgnvm(8, 2)`.
const WRITE_DRAIN_CYCLES: u64 = 30_732;

#[test]
fn write_drain_is_bit_identical_under_fast_forward() {
    let waves = write_drain_waves();
    let waves: Vec<&[Gen]> = waves.iter().map(Vec::as_slice).collect();
    let config = SystemConfig::fgnvm(8, 2).unwrap();
    let fast = drive_waves(&config, &waves, true);
    let stepped = drive_waves(&config, &waves, false);
    assert_eq!(fast.now.raw(), WRITE_DRAIN_CYCLES);
    assert_eq!(fast.completions.len(), 12 * 32);
    assert_eq!(fast, stepped, "the write drain diverged under fast-forward");
}

/// Fast-forward must actually skip: driving the write drain through the
/// public event API, one host step (a hop to the next event, then the tick
/// there) covers at least five simulated cycles on average. A stepped run
/// takes one step per cycle, so this is the floor "fast-forward is ≥ 5x
/// stepping" stated without a wall clock.
#[test]
fn write_drain_fast_forwards_at_least_five_cycles_per_step() {
    let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
    let mut out = Vec::new();
    let mut steps = 0u64;
    for wave in write_drain_waves() {
        for g in &wave {
            while mem.enqueue(Op::Write, g.addr()).is_none() {
                mem.tick_into(&mut out);
                steps += 1;
            }
        }
        while let Some(at) = mem.next_event_at() {
            mem.tick_to(at, &mut out);
            mem.tick_into(&mut out);
            steps += 1;
        }
    }
    assert_eq!(out.len(), 12 * 32);
    let cycles = mem.now().raw();
    assert_eq!(cycles, WRITE_DRAIN_CYCLES);
    assert!(
        cycles >= 5 * steps,
        "{cycles} cycles over {steps} steps: fast-forward skips too little"
    );
}

// ---------------------------------------------------------------------------
// Hint tightness: `next_ready_hint` must never point past an instant at
// which some access could issue. The fast-forward core turns the hint into
// skipped cycles, so an overshoot here silently drops real work.
// ---------------------------------------------------------------------------

fn access(geom: &Geometry, op: Op, row: u32, line: u32) -> Access {
    Access {
        op,
        row,
        line,
        coord: TileCoord {
            sag: geom.sag_of_row(row),
            cd_first: line % geom.cds(),
            cd_count: 1,
        },
    }
}

/// Brute-force check over `window` instants: for every `now`, no candidate
/// access may be issuable strictly before `next_ready_hint(now)`.
fn assert_hint_is_lower_bound(bank: &dyn Bank, candidates: &[Access], window: u64) {
    for now_raw in 0..window {
        let now = Cycle::new(now_raw);
        let hint = bank.next_ready_hint(now);
        assert!(hint >= now, "hint {hint} regressed behind now {now}");
        for t_raw in now_raw..hint.raw().min(window) {
            let t = Cycle::new(t_raw);
            for a in candidates {
                assert!(
                    bank.plan(a, t).is_err(),
                    "hint({now}) = {hint} overshot: {a:?} already issuable at {t}"
                );
            }
        }
    }
}

/// First instant `>= now` at which some candidate plans successfully.
fn first_issuable(bank: &dyn Bank, candidates: &[Access], now: Cycle, limit: u64) -> Cycle {
    for t_raw in now.raw()..limit {
        let t = Cycle::new(t_raw);
        if candidates.iter().any(|a| bank.plan(a, t).is_ok()) {
            return t;
        }
    }
    panic!("no candidate became issuable before cycle {limit}");
}

#[test]
fn baseline_hint_is_a_tight_lower_bound() {
    let geom = Geometry::builder().sags(1).cds(1).build().unwrap();
    let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
    let mut bank = BaselineBank::new(&geom, timing);
    let candidates = [
        access(&geom, Op::Read, 3, 0),  // same row as the commits below
        access(&geom, Op::Write, 3, 2), // same row, write path
        access(&geom, Op::Read, 9, 1),  // row switch
    ];
    // Exercise the FSM: a read opens row 3, then a write dirties it.
    for a in [
        access(&geom, Op::Read, 3, 0),
        access(&geom, Op::Write, 3, 1),
    ] {
        let at = first_issuable(&bank, &[a], bank.next_ready_hint(Cycle::ZERO), 5_000);
        let plan = bank.plan(&a, at).unwrap();
        bank.commit(&a, &plan, at, plan.earliest_data);
    }
    assert_hint_is_lower_bound(&bank, &candidates, 1_500);
    // The baseline hint mirrors `plan`'s gates exactly, so with candidates
    // covering both the column path and the row-switch path it is not just
    // a lower bound but *the* next issuable instant.
    for now_raw in [0u64, 1, 50, 500, 1_000] {
        let now = Cycle::new(now_raw);
        assert_eq!(
            bank.next_ready_hint(now),
            first_issuable(&bank, &candidates, now, 5_000),
            "baseline hint not tight at {now}"
        );
    }
}

#[test]
fn fgnvm_hint_is_a_sound_lower_bound() {
    let geom = Geometry::builder().sags(4).cds(4).build().unwrap();
    let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
    // Shared column path: `next_col` gates every access, so the hint must
    // both advance past it and never overshoot it.
    let mut bank = FgnvmBank::new(&geom, timing, Modes::all(), true).unwrap();
    let rows_per_sag = geom.rows_per_bank() / geom.sags();
    let candidates: Vec<Access> = (0..4u32)
        .flat_map(|sag| {
            let row = sag * rows_per_sag;
            [
                access(&geom, Op::Read, row, sag),
                access(&geom, Op::Write, row + 1, (sag + 1) % geom.cds()),
            ]
        })
        .collect();
    // Exercise: a write (long program, locks its SAG + CD) and a read in a
    // different tile, each committed at its earliest legal instant.
    for a in [
        access(&geom, Op::Write, 0, 0),
        access(&geom, Op::Read, rows_per_sag, 1),
    ] {
        let at = first_issuable(&bank, &[a], Cycle::ZERO, 5_000);
        let plan = bank.plan(&a, at).unwrap();
        bank.commit(&a, &plan, at, plan.earliest_data);
    }
    // The hint makes progress (the skip loop would otherwise degenerate to
    // single-stepping) ...
    assert!(bank.next_ready_hint(Cycle::ZERO) > Cycle::ZERO);
    // ... but never past a legal issue instant.
    assert_hint_is_lower_bound(&bank, &candidates, 1_500);
}

#[test]
fn fgnvm_hint_is_sound_with_serializing_modes() {
    // With multi-activation off the bank serializes everything through
    // `serial_until` — the hint's unconditional gate. A write makes that
    // window long; the hint must track it exactly, never past it.
    let geom = Geometry::builder().sags(4).cds(4).build().unwrap();
    let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
    let mut bank = FgnvmBank::new(&geom, timing, Modes::none(), false).unwrap();
    let rows_per_sag = geom.rows_per_bank() / geom.sags();
    let candidates: Vec<Access> = (0..4u32)
        .map(|sag| access(&geom, Op::Read, sag * rows_per_sag, sag))
        .collect();
    let w = access(&geom, Op::Write, 0, 0);
    let plan = bank.plan(&w, Cycle::ZERO).unwrap();
    bank.commit(&w, &plan, Cycle::ZERO, plan.earliest_data);
    assert!(bank.next_ready_hint(Cycle::ZERO) > Cycle::ZERO);
    assert_hint_is_lower_bound(&bank, &candidates, 1_500);
}

/// Brute-force check of the stable-verdict contract (see `Bank::plan`): for
/// every `now` in `window` and every candidate blocked at `now` until `r`,
/// re-planning at each instant in `(now, r)` reports the same `r`. The issue
/// calendar keeps a bank's verdicts until their retry arrives on the
/// strength of this.
fn assert_blocked_verdicts_are_stable(
    bank: &dyn Bank,
    candidates: &[Access],
    window: std::ops::Range<u64>,
) {
    for now_raw in window {
        let now = Cycle::new(now_raw);
        for a in candidates {
            let Err(blocked) = bank.plan(a, now) else {
                continue;
            };
            for t_raw in now_raw + 1..blocked.retry_at.raw() {
                assert_eq!(
                    bank.plan(a, Cycle::new(t_raw)).err().map(|b| b.retry_at),
                    Some(blocked.retry_at),
                    "{a:?} blocked at {now} until {} moved its retry at cycle {t_raw}",
                    blocked.retry_at
                );
            }
        }
    }
}

#[test]
fn dram_blocked_verdicts_are_stable_across_refresh_windows() {
    // Bank 0 refreshes over [3120, 3240). A read at 3105 puts the row
    // switch gate inside that window and the column gate just before it.
    let geom = Geometry::builder().sags(1).cds(1).build().unwrap();
    let timing = TimingConfig::ddr3_like().to_cycles().unwrap();
    let mut bank = DramBank::new(&geom, timing, RefreshCycles::ddr3_like());
    let a = access(&geom, Op::Read, 3, 0);
    let at = Cycle::new(3105);
    let plan = bank.plan(&a, at).unwrap();
    bank.commit(&a, &plan, at, plan.earliest_data);
    let candidates = [
        access(&geom, Op::Read, 3, 1),
        access(&geom, Op::Write, 3, 2),
        access(&geom, Op::Read, 9, 0),
        access(&geom, Op::Write, 9, 1),
    ];
    assert_blocked_verdicts_are_stable(&bank, &candidates, 3_080..3_260);
}

#[test]
fn fgnvm_blocked_verdicts_are_stable_with_and_without_pausing() {
    // Two writes 8 cycles apart: (SAG 1, CD 1) first, then (SAG 0, CD 0),
    // whose lock outlives the first write's CD I/O by less than the pause
    // threshold. A read of SAG 0 on CD 1 may pause the second write, but
    // waits on the first write's CD past the last instant it could pause.
    let geom = Geometry::builder().sags(4).cds(4).build().unwrap();
    let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
    let rows_per_sag = geom.rows_per_bank() / geom.sags();
    for pausing in [false, true] {
        let mut bank = FgnvmBank::new(&geom, timing, Modes::all(), true)
            .unwrap()
            .with_write_pausing(pausing);
        for (at, a) in [
            (0, access(&geom, Op::Write, rows_per_sag, 1)),
            (8, access(&geom, Op::Write, 0, 0)),
        ] {
            let at = Cycle::new(at);
            let plan = bank.plan(&a, at).unwrap();
            bank.commit(&a, &plan, at, plan.earliest_data);
        }
        let candidates: Vec<Access> = (0..4u32)
            .flat_map(|sag| {
                let row = sag * rows_per_sag + 1;
                (0..4u32).map(move |cd| (row, cd))
            })
            .flat_map(|(row, cd)| {
                [
                    access(&geom, Op::Read, row, cd),
                    access(&geom, Op::Write, row, cd),
                ]
            })
            .collect();
        assert_blocked_verdicts_are_stable(&bank, &candidates, 0..200);
    }
}

#[test]
fn baseline_blocked_verdicts_are_stable() {
    let geom = Geometry::builder().sags(1).cds(1).build().unwrap();
    let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
    let mut bank = BaselineBank::new(&geom, timing);
    for (at, a) in [
        (0, access(&geom, Op::Read, 3, 0)),
        (60, access(&geom, Op::Write, 3, 1)),
    ] {
        let at = Cycle::new(at);
        let plan = bank.plan(&a, at).unwrap();
        bank.commit(&a, &plan, at, plan.earliest_data);
    }
    let candidates = [
        access(&geom, Op::Read, 3, 0),
        access(&geom, Op::Write, 3, 2),
        access(&geom, Op::Read, 9, 1),
    ];
    assert_blocked_verdicts_are_stable(&bank, &candidates, 0..300);
}

// ---------------------------------------------------------------------------
// Calendar differential: the memoized `next_event_at` — per-(queue, bank)
// gate slots backed by the banks' O(1) readiness hints, with the
// per-channel NextAt memo and the issue-bound memo on top — must return
// *exactly* what a fresh linear scan of every event heap and queued-request
// gate returns, at every instant of a real run. An early memo silently
// replays events; a late one drops issue opportunities. Slots survive
// retirements and enqueues to other banks, are cleared per bank by an
// issue, and fold an accepted enqueue into the slot it lands in; the
// closed-loop driver crosses the issue, retire and skip edges mid-drain,
// and the open-loop driver interleaves arrivals with event hops (so
// arrivals land while other banks' slots are live) and restores from a
// snapshot halfway through.
// ---------------------------------------------------------------------------

/// Drives `reqs` through a fast-forwarded run, asserting at every loop
/// step — after enqueues, after skips, after due ticks — that the
/// memoized scan and the reference linear scan agree exactly.
fn drive_checking_calendar(name: &str, config: &SystemConfig, reqs: &[Gen]) {
    let mut mem = MemorySystem::new(*config).unwrap();
    mem.set_fast_forward(true);
    let mut completions = Vec::new();
    let check = |mem: &MemorySystem, whence: &str| assert_calendar_exact(name, mem, whence);
    for g in reqs {
        let op = if g.is_write { Op::Write } else { Op::Read };
        let mut guard = 0;
        loop {
            if mem.enqueue(op, g.addr()).is_some() {
                break;
            }
            mem.tick_into(&mut completions);
            guard += 1;
            assert!(guard < 100_000, "backpressure never relieved");
        }
        check(&mem, "after enqueue");
    }
    let mut guard = 0;
    while !mem.is_idle() {
        // One event hop at a time: `tick_to` skips the dead range (if any)
        // and steps the event instant, crossing every memo edge.
        let target = match mem.next_event_at() {
            Some(at) if at > mem.now() => at + fgnvm_types::time::CycleCount::new(1),
            _ => mem.now() + fgnvm_types::time::CycleCount::new(1),
        };
        mem.tick_to(target, &mut completions);
        check(&mem, "after hop");
        guard += 1;
        assert!(guard < 1_000_000, "{name}: drain failed to converge");
    }
    assert_eq!(
        mem.next_event_at(),
        None,
        "{name}: idle system still reports an event"
    );
}

#[test]
fn calendar_scan_matches_linear_reference_on_every_preset() {
    let reqs = lcg_stream(0xCA1E_17DA, 120);
    for (name, config) in all_presets() {
        drive_checking_calendar(name, &config, &reqs);
    }
}

#[test]
fn calendar_scan_matches_linear_reference_on_every_checked_in_config() {
    let reqs = lcg_stream(0x5CA2_CA1E, 120);
    for (path, config) in checked_in_configs() {
        drive_checking_calendar(&path, &config, &reqs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random streams: the calendar memo must track the linear reference
    /// through arbitrary interleavings of enqueue, skip, and tick.
    #[test]
    fn calendar_scan_matches_linear_reference_on_random_streams(
        reqs in prop::collection::vec(gen_strategy(), 1..60),
    ) {
        for (name, config) in [
            ("fgnvm 8x2", SystemConfig::fgnvm(8, 2).unwrap()),
            ("baseline", SystemConfig::baseline()),
            ("pausing 8x8", SystemConfig::fgnvm_with_pausing(8, 8).unwrap()),
        ] {
            drive_checking_calendar(name, &config, &reqs);
        }
    }
}

/// Asserts the memoized calendar equals the linear reference right now.
fn assert_calendar_exact(name: &str, mem: &MemorySystem, whence: &str) {
    // Linear first: it must not observe anything the memoized call
    // publishes.
    let linear = mem.next_event_at_linear();
    let memoized = mem.next_event_at();
    assert_eq!(
        memoized,
        linear,
        "{name}: calendar scan diverged from linear reference {whence} at cycle {}",
        mem.now().raw()
    );
}

/// A serve-like open-loop run: requests arrive at their own instants, and
/// between arrivals the clock moves one event hop at a time, as `serve`
/// drives it. Arrivals come in episodes on one bank region — write bursts,
/// read trickles into banks that hold queued writes, mixed runs — with idle
/// stretches between some of them. So arrivals land while other banks'
/// gate slots are live, retirements leave slots standing, and a command
/// from one queue moves the gates of the other queue's entries on the same
/// bank. Halfway through the arrivals the system is snapshotted and
/// replaced by its restored copy, which must keep the calendar exact. The
/// calendar is checked after every enqueue and every hop.
fn drive_open_loop_checking_calendar(
    name: &str,
    config: &SystemConfig,
    seed: u64,
    episodes: usize,
) {
    use fgnvm_types::time::CycleCount;
    let mut mem = MemorySystem::new(*config).unwrap();
    mem.set_fast_forward(true);
    let mut completions = Vec::new();
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut guard = 0u64;
    let mut hop_until = |mem: &mut MemorySystem, completions: &mut Vec<Completion>, to: Cycle| {
        while mem.now() < to {
            let target = match mem.next_event_at() {
                Some(at) if at > mem.now() => (at + CycleCount::new(1)).min(to),
                Some(_) => mem.now() + CycleCount::new(1),
                None => to,
            };
            mem.tick_to(target, completions);
            assert_calendar_exact(name, mem, "after hop");
            guard += 1;
            assert!(
                guard < 10_000_000,
                "{name}: open-loop run failed to converge"
            );
        }
    };
    let mut arrival = Cycle::ZERO;
    for episode in 0..episodes {
        if episode == episodes / 2 {
            let bytes = mem.save_snapshot();
            mem = MemorySystem::restore(*config, &bytes)
                .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
            assert_calendar_exact(name, &mem, "after restore");
        }
        if next() % 4 == 0 {
            // An idle stretch, often long enough for the queues to drain.
            arrival += CycleCount::new(next() % 600);
        }
        // (requests, max gap, writes out of 4, banks): a write burst or a
        // read trickle on one bank, a short mixed run, or a long mixed run
        // over several banks whose reads keep the write queue from
        // draining until it crosses the drain watermark.
        let (len, max_gap, writes, banks) = match next() % 4 {
            0 => (4 + next() % 12, 2, 4, 1),
            1 => (2 + next() % 5, 40, 0, 1),
            2 => (4 + next() % 8, 8, 2, 1),
            _ => (32 + next() % 64, 2, 2, 4),
        };
        let base = next() % 4;
        for _ in 0..len {
            arrival += CycleCount::new(next() % (max_gap + 1));
            hop_until(&mut mem, &mut completions, arrival);
            let g = Gen {
                is_write: next() % 4 < writes,
                region: (base + next() % banks) % 8,
                row: next() % 16,
                line: next() % 16,
            };
            let op = if g.is_write { Op::Write } else { Op::Read };
            while mem.enqueue(op, g.addr()).is_none() {
                // Backpressure: let at least one cycle pass.
                let to = mem.now() + CycleCount::new(1);
                hop_until(&mut mem, &mut completions, to);
            }
            assert_calendar_exact(name, &mem, "after enqueue");
            arrival = arrival.max(mem.now());
        }
    }
    while !mem.is_idle() {
        let to = match mem.next_event_at() {
            Some(at) if at > mem.now() => at,
            _ => mem.now(),
        } + CycleCount::new(1);
        hop_until(&mut mem, &mut completions, to);
    }
    assert_eq!(
        mem.next_event_at(),
        None,
        "{name}: idle system still reports an event"
    );
    assert!(
        !completions.is_empty(),
        "{name}: the open-loop run completed nothing"
    );
}

#[test]
fn open_loop_calendar_matches_linear_reference_on_every_preset() {
    // Small queues make the write drain engage and release every few
    // arrivals: an enqueue that engages it makes the write queue's slots
    // count again, spent ones included.
    let mut presets = all_presets();
    for (name, scheduler) in [
        ("small queues 8x2", SchedulerKind::FrfcfsTlp),
        ("small queues frfcfs 8x2", SchedulerKind::Frfcfs),
    ] {
        let mut config = SystemConfig::fgnvm(8, 2).unwrap();
        config.scheduler = scheduler;
        config.queue_entries = 8;
        config.write_queue_entries = 8;
        presets.push((name, config));
    }
    for (name, config) in presets {
        drive_open_loop_checking_calendar(name, &config, 0x0BE7_1004, 200);
    }
}

#[test]
fn open_loop_calendar_matches_linear_reference_on_every_checked_in_config() {
    for (path, config) in checked_in_configs() {
        drive_open_loop_checking_calendar(&path, &config, 0x5E2F_0A11, 200);
    }
}
