//! Shrinking command-sequence fuzzer for the raw [`MemorySystem`] API.
//!
//! The unit and differential tiers exercise curated workloads; the fuzzer
//! explores the space the curated tiers never reach — adversarial
//! interleavings, degenerate geometries (1×1 up to 32×32 tiles), fault
//! injection, and both stepping modes. Every generated [`FuzzCase`] is
//! executed end to end and judged by the independent correctness layer:
//! the [`Oracle`] audits the command stream, the
//! [`invariants`] check conservation, panics are caught
//! and the watchdog bounds runaway cases. A failing case is shrunk —
//! chunk-deletion over the op sequence, then field simplification — to a
//! minimal reproducer renderable as a [`.case` file](crate::case) that
//! `fgnvm-repro -- fuzz <file>` replays.
//!
//! Generation is fully deterministic: every case is a pure function of
//! `(seed, index)` via [`derive_seed`](crate::derive_seed)/[`splitmix64`], so a failure
//! message's seed always reproduces the run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fgnvm_mem::MemorySystem;
use fgnvm_types::config::{ReliabilityConfig, SystemConfig};
use fgnvm_types::{splitmix64, Completion, Op, PhysAddr, RequestId};

use crate::case::render_case;
use crate::invariants;
use crate::oracle::Oracle;

/// Which system model a fuzz case drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzModel {
    /// Monolithic PCM bank (the paper's baseline).
    Baseline,
    /// FgNVM with partial activation + backgrounded writes.
    Fgnvm,
    /// FgNVM with a 2-wide Multi-Issue column path.
    MultiIssue,
    /// FgNVM with write pausing enabled.
    Pausing,
    /// The DRAM contrast model.
    Dram,
}

impl FuzzModel {
    /// Every model, in generation-palette order.
    pub const ALL: [FuzzModel; 5] = [
        FuzzModel::Baseline,
        FuzzModel::Fgnvm,
        FuzzModel::MultiIssue,
        FuzzModel::Pausing,
        FuzzModel::Dram,
    ];

    /// Models the chaos knob is meaningful for (the knob lives in the
    /// tile-aware scheduler path; DRAM would just mask it).
    pub const CHAOS_ELIGIBLE: [FuzzModel; 3] =
        [FuzzModel::Fgnvm, FuzzModel::MultiIssue, FuzzModel::Pausing];

    /// The `.case`-file name of this model.
    pub fn name(self) -> &'static str {
        match self {
            FuzzModel::Baseline => "baseline",
            FuzzModel::Fgnvm => "fgnvm",
            FuzzModel::MultiIssue => "multi_issue",
            FuzzModel::Pausing => "pausing",
            FuzzModel::Dram => "dram",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        FuzzModel::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// One fuzzed memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzOp {
    /// Write (true) or read (false).
    pub write: bool,
    /// Cache-line index; reduced modulo the configuration's capacity.
    pub line: u64,
    /// Cycles to step the clock before the next enqueue.
    pub gap: u32,
    /// Tenant the request is billed to (0 in single-stream cases).
    pub tenant: u16,
}

/// A complete, replayable fuzz input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// The system model under test.
    pub model: FuzzModel,
    /// Subarray groups per bank (ignored by `baseline`/`dram`).
    pub sags: u32,
    /// Column divisions per bank (ignored by `baseline`/`dram`).
    pub cds: u32,
    /// Enable the device fault model (verify retries, ECC, bit errors).
    pub faulty: bool,
    /// Run with event-driven fast-forward instead of cycle stepping.
    pub fast_forward: bool,
    /// Enable the test-only illegal-issue knob (the deliberate scheduler
    /// mutation the oracle must catch).
    pub chaos: bool,
    /// Tenant slots the case exercises (0 = legacy single-stream case).
    /// When nonzero, ops carry tenant tags below this count; the highest
    /// slot is deliberately zero-rate, so silent-tenant accounting is
    /// fuzzed too.
    pub tenants: u16,
    /// The operation sequence.
    pub ops: Vec<FuzzOp>,
}

impl FuzzCase {
    /// Builds the [`SystemConfig`] this case drives.
    ///
    /// # Errors
    ///
    /// Returns the configuration error for inadmissible geometry.
    pub fn build_config(&self) -> Result<SystemConfig, String> {
        let base = match self.model {
            FuzzModel::Baseline => Ok(SystemConfig::baseline()),
            FuzzModel::Fgnvm => SystemConfig::fgnvm(self.sags, self.cds).map_err(|e| e.to_string()),
            FuzzModel::MultiIssue => {
                SystemConfig::fgnvm_multi_issue(self.sags, self.cds, 2).map_err(|e| e.to_string())
            }
            FuzzModel::Pausing => {
                SystemConfig::fgnvm_with_pausing(self.sags, self.cds).map_err(|e| e.to_string())
            }
            FuzzModel::Dram => Ok(SystemConfig::dram()),
        }?;
        let config = if self.faulty {
            base.with_reliability(ReliabilityConfig {
                enabled: true,
                fault_seed: 0xfa57,
                rber: 1e-4,
                write_fail_prob: 0.02,
                max_write_retries: 2,
                ecc_correctable_bits: 2,
                ecc_decode_penalty_cycles: 8,
                wear_stuck_threshold: 0,
                ..ReliabilityConfig::default()
            })
        } else {
            base
        };
        config.validate().map_err(|e| e.to_string())?;
        Ok(config)
    }
}

/// What a successfully executed case looked like.
#[derive(Debug)]
pub struct CaseReport {
    /// Requests the controller accepted.
    pub accepted: usize,
    /// Commands the oracle audited across channels.
    pub commands: usize,
    /// Peak per-bank tile concurrency the oracle observed.
    pub max_tile_concurrency: u32,
    /// The cycle the run went idle at.
    pub final_cycle: u64,
    /// FNV-1a 64 digest of the full end-of-run system snapshot — the
    /// strongest equality the kill/resume differential can demand: two
    /// runs with equal digests ended in bit-identical simulator states
    /// (stats, queues, bank FSMs, command logs, observer and all).
    pub state_digest: u64,
}

/// Runs one case end to end and judges it with the full correctness
/// layer. `Err` carries a human-readable description of the first
/// failure: an oracle violation, a broken invariant, a watchdog
/// stall, or a caught panic.
pub fn execute_case(case: &FuzzCase) -> Result<CaseReport, String> {
    execute_case_with_kill(case, None)
}

/// Like [`execute_case`], but additionally simulates a crash: when the
/// clock first reaches `kill_cycle` (or just before the final drain, if
/// the run never gets there), the entire system state is checkpointed,
/// the [`MemorySystem`] is dropped, and a fresh one is restored from the
/// blob to finish the run. The returned report — including the
/// full-state digest — must be identical to the uninterrupted run's.
pub fn execute_case_with_kill(
    case: &FuzzCase,
    kill_cycle: Option<u64>,
) -> Result<CaseReport, String> {
    let case = case.clone();
    catch_unwind(AssertUnwindSafe(move || execute_inner(&case, kill_cycle))).unwrap_or_else(
        |payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("panicked: {msg}"))
        },
    )
}

/// Snapshot → drop → restore, in place: the crash the kill/resume
/// differential injects.
fn crash_and_restore(memory: &mut MemorySystem, chaos: bool) -> Result<(), String> {
    let blob = memory.save_snapshot();
    let config = *memory.config();
    *memory = MemorySystem::restore(config, &blob)
        .map_err(|e| format!("restore after simulated crash: {e}"))?;
    if chaos {
        // The test-only mutation knob is debug state, deliberately
        // outside the checkpoint; re-arm it like a harness would.
        memory.debug_force_illegal_issue(true);
    }
    Ok(())
}

/// Advances to `target`, injecting the pending crash exactly at
/// `kill_cycle` if the hop would cross it.
fn advance_with_kill(
    memory: &mut MemorySystem,
    target: fgnvm_types::Cycle,
    completions: &mut Vec<Completion>,
    kill: &mut Option<u64>,
    chaos: bool,
) -> Result<(), String> {
    if let Some(k) = *kill {
        if memory.now().raw() <= k && target.raw() >= k {
            if memory.now().raw() < k {
                memory.tick_to(fgnvm_types::Cycle::new(k), completions);
            }
            crash_and_restore(memory, chaos)?;
            *kill = None;
        }
    }
    if memory.now() < target {
        memory.tick_to(target, completions);
    }
    Ok(())
}

fn execute_inner(case: &FuzzCase, mut kill: Option<u64>) -> Result<CaseReport, String> {
    let config = case.build_config()?;
    let mut memory = MemorySystem::new(config).map_err(|e| e.to_string())?;
    memory.set_fast_forward(case.fast_forward);
    memory.enable_command_log(1 << 20);
    memory.enable_observer();
    // Small windows + tiny ring: boundary rolls, retention eviction, and
    // the window-vs-cumulative conservation rule all get exercised (and,
    // with --kill-resume, the telemetry snapshot round-trip too).
    memory.enable_telemetry(512, 16, 64);
    // Audit every fuzz case too: the decision-audit conservation rule
    // then runs as part of every standard report (and the audit log's
    // snapshot round-trip is exercised by --kill-resume).
    memory.enable_audit();
    if case.chaos {
        memory.debug_force_illegal_issue(true);
    }
    let line_bytes = u64::from(config.geometry.line_bytes());
    let lines = config.geometry.capacity_bytes() / line_bytes;
    let mut accepted: Vec<RequestId> = Vec::new();
    let mut completions: Vec<Completion> = Vec::new();
    for op in &case.ops {
        let addr = PhysAddr::new((op.line % lines.max(1)) * line_bytes);
        let kind = if op.write { Op::Write } else { Op::Read };
        let mut id = memory.enqueue_for(kind, addr, op.tenant);
        if id.is_none() {
            // Queue full: drain a bounded window, then retry once. A still
            // -full queue after 64k cycles is a stall the watchdog below
            // would also catch; just drop the op.
            let target = fgnvm_types::Cycle::new(memory.now().raw() + 65_536);
            advance_with_kill(&mut memory, target, &mut completions, &mut kill, case.chaos)?;
            id = memory.enqueue_for(kind, addr, op.tenant);
        }
        if let Some(id) = id {
            accepted.push(id);
        }
        if op.gap > 0 {
            let target = fgnvm_types::Cycle::new(memory.now().raw() + u64::from(op.gap));
            advance_with_kill(&mut memory, target, &mut completions, &mut kill, case.chaos)?;
        }
    }
    if kill.is_some() {
        // The op sequence never reached the kill cycle: crash right
        // before the final drain instead, so every case still exercises
        // a restore somewhere.
        crash_and_restore(&mut memory, case.chaos)?;
    }
    completions.extend(
        memory
            .try_run_until_idle(100_000)
            .map_err(|e| format!("watchdog: {e:?}"))?,
    );

    let oracle = Oracle::new(&config).map_err(|e| e.to_string())?;
    let mut commands = 0;
    let mut max_conc = 0;
    for channel in 0..config.geometry.channels() {
        let report = oracle.audit(memory.command_log(channel));
        commands += report.commands;
        max_conc = max_conc.max(report.max_tile_concurrency);
        if let Some(first) = report.violations.first() {
            return Err(format!(
                "channel {channel}: {} oracle violation(s); first: {first}",
                report.violations.len()
            ));
        }
    }
    // Digest the full end state before the observer moves out: this is
    // what the kill/resume differential compares.
    let final_cycle = memory.now().raw();
    let state_digest = fgnvm_types::fnv1a64(&memory.save_snapshot());
    let observer = memory.take_observer().expect("observer enabled above");
    let mut inv = invariants::standard_report(&config, &memory, Some(&observer));
    inv.merge(invariants::check_completions(&accepted, &completions));
    if !inv.is_clean() {
        return Err(format!("invariant failure: {}", inv.failures.join("; ")));
    }
    Ok(CaseReport {
        accepted: accepted.len(),
        commands,
        max_tile_concurrency: max_conc,
        final_cycle,
        state_digest,
    })
}

/// Fuzzer knobs.
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// Cases to generate and run.
    pub cases: usize,
    /// Master seed; every case derives deterministically from it.
    pub seed: u64,
    /// Upper bound on ops per generated case.
    pub max_ops: usize,
    /// Enable the illegal-issue chaos knob in every generated case
    /// (restricting models to the tile-aware ones). Used by the
    /// mutation-detection tests; real fuzz runs leave this off.
    pub chaos: bool,
    /// Kill/resume differential mode: run every case twice — once
    /// straight and once crashed at a deterministically derived cycle
    /// (checkpoint → drop → restore) — and fail on ANY divergence in the
    /// final full-state digest, proving checkpoint/restore is exact at
    /// arbitrary kill points.
    pub kill_resume: bool,
    /// Multi-tenant mode: every generated case tags its ops with 2–4
    /// tenant slots — one deliberately zero-rate, one bursty — so the
    /// tenant-conservation invariant and the per-tenant checkpoint state
    /// get fuzzed. Off by default so legacy case streams stay
    /// byte-reproducible from their seeds.
    pub tenants: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            cases: 64,
            seed: crate::derive_seed("fgnvm-check::fuzz", 0),
            max_ops: 96,
            chaos: false,
            kill_resume: false,
            tenants: false,
        }
    }
}

/// A fuzz failure with its minimized reproducer.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Case index within the run (`derive_seed(label, index)` reproduces it).
    pub index: usize,
    /// The originally generated failing case.
    pub original: FuzzCase,
    /// The shrunk, minimal failing case.
    pub shrunk: FuzzCase,
    /// The failure message of the shrunk case.
    pub message: String,
}

impl FuzzFailure {
    /// The shrunk reproducer in `.case` format.
    pub fn case_file(&self) -> String {
        render_case(&self.shrunk)
    }
}

/// Outcome of a fuzz run.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Cases generated and executed (stops early on the first failure).
    pub cases_run: usize,
    /// The first failure, if any, already shrunk.
    pub failure: Option<FuzzFailure>,
}

/// Generates the `index`-th case of a run seeded with `seed`.
pub fn generate_case(
    seed: u64,
    index: usize,
    max_ops: usize,
    chaos: bool,
    tenant_mode: bool,
) -> FuzzCase {
    let mut rng = crate::derive_seed("fgnvm-check::fuzz-case", seed ^ (index as u64) << 1);
    let mut next = move || splitmix64(&mut rng);
    let model = if chaos {
        FuzzModel::CHAOS_ELIGIBLE[(next() % 3) as usize]
    } else {
        FuzzModel::ALL[(next() % 5) as usize]
    };
    const DIMS: [u32; 6] = [1, 2, 4, 8, 16, 32];
    let sags = DIMS[(next() % 6) as usize];
    let cds = DIMS[(next() % 6) as usize];
    // 2–4 tenant slots; the highest slot never sends (zero-rate), and one
    // of the active slots fires its ops in gapless bursts.
    let tenants: u16 = if tenant_mode {
        2 + (next() % 3) as u16
    } else {
        0
    };
    let active = u64::from(tenants.saturating_sub(1)).max(1);
    let bursty: u16 = if tenant_mode {
        (next() % active) as u16
    } else {
        0
    };
    let mut burst_left = 0u32;
    let n_ops = 1 + (next() as usize) % max_ops.max(1);
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let write = next() % 100 < 40;
        // Bias hard toward a small hot set so rows and tiles actually
        // contend; the cold tail still probes the full address space.
        let line = match next() % 4 {
            0..=2 => next() % 64,
            _ => next() % (1 << 20),
        };
        let gap = match next() % 8 {
            0..=4 => 0,
            5 | 6 => (next() % 64) as u32,
            _ => (next() % 2048) as u32,
        };
        let (tenant, gap) = if !tenant_mode {
            (0, gap)
        } else if burst_left > 0 {
            burst_left -= 1;
            (bursty, 0)
        } else if next() % 6 == 0 {
            burst_left = 1 + (next() % 5) as u32;
            (bursty, 0)
        } else {
            ((next() % active) as u16, gap)
        };
        ops.push(FuzzOp {
            write,
            line,
            gap,
            tenant,
        });
    }
    FuzzCase {
        model,
        sags,
        cds,
        faulty: next() % 4 == 0,
        fast_forward: next() % 2 == 0,
        chaos,
        tenants,
        ops,
    }
}

/// Runs the fuzzer: generate, execute, and on the first failure shrink to
/// a minimal reproducer.
pub fn fuzz(opts: &FuzzOptions) -> FuzzOutcome {
    for index in 0..opts.cases {
        let mut case = generate_case(opts.seed, index, opts.max_ops, opts.chaos, opts.tenants);
        if case.build_config().is_err() {
            // Inadmissible geometry for this model; fall back to the
            // canonical paper grid rather than wasting the slot.
            case.sags = 8;
            case.cds = 2;
        }
        if let Err(message) = execute_case(&case) {
            let (shrunk, message) = shrink(&case, message);
            return FuzzOutcome {
                cases_run: index + 1,
                failure: Some(FuzzFailure {
                    index,
                    original: case,
                    shrunk,
                    message,
                }),
            };
        }
        if opts.kill_resume {
            if let Some(message) = kill_resume_divergence(&case, opts.seed, index) {
                // Shrinking minimizes against plain execute_case, which
                // cannot reproduce a divergence; report the case as-is.
                return FuzzOutcome {
                    cases_run: index + 1,
                    failure: Some(FuzzFailure {
                        index,
                        original: case.clone(),
                        shrunk: case,
                        message,
                    }),
                };
            }
        }
    }
    FuzzOutcome {
        cases_run: opts.cases,
        failure: None,
    }
}

/// Runs `case` straight and with a crash at a deterministically derived
/// kill cycle, returning a failure message if the two final full-state
/// digests (or reports) diverge. The kill cycle is drawn inside the
/// straight run's observed length, so it genuinely lands mid-flight.
fn kill_resume_divergence(case: &FuzzCase, seed: u64, index: usize) -> Option<String> {
    let straight = match execute_case(case) {
        Ok(report) => report,
        // A case that fails cleanly is handled by the main fuzz path.
        Err(_) => return None,
    };
    let mut rng = crate::derive_seed("fgnvm-check::kill-cycle", seed ^ index as u64);
    let kill_cycle = splitmix64(&mut rng) % straight.final_cycle.max(1);
    match execute_case_with_kill(case, Some(kill_cycle)) {
        Ok(resumed) => {
            if resumed.state_digest != straight.state_digest
                || resumed.accepted != straight.accepted
                || resumed.commands != straight.commands
                || resumed.final_cycle != straight.final_cycle
            {
                Some(format!(
                    "kill/resume divergence at cycle {kill_cycle}: straight \
                     (accepted {}, commands {}, end cy{}, digest {:016x}) vs resumed \
                     (accepted {}, commands {}, end cy{}, digest {:016x})",
                    straight.accepted,
                    straight.commands,
                    straight.final_cycle,
                    straight.state_digest,
                    resumed.accepted,
                    resumed.commands,
                    resumed.final_cycle,
                    resumed.state_digest
                ))
            } else {
                None
            }
        }
        Err(message) => Some(format!(
            "kill/resume at cycle {kill_cycle} failed where the straight run \
             passed: {message}"
        )),
    }
}

/// Budgeted executions during shrinking; keeps pathological cases from
/// turning one failure into a minutes-long minimization.
const SHRINK_BUDGET: usize = 400;

/// Minimizes `case`, preserving failure. Returns the smallest failing
/// variant found and its failure message.
fn shrink(case: &FuzzCase, mut message: String) -> (FuzzCase, String) {
    let mut best = case.clone();
    let mut budget = SHRINK_BUDGET;
    let fails = |candidate: &FuzzCase, budget: &mut usize| -> Option<String> {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        execute_case(candidate).err()
    };

    // Pass 1: delete chunks of ops, halving the chunk size. Restart from
    // the large chunks after any successful deletion.
    let mut chunk = best.ops.len().max(1).next_power_of_two();
    while chunk >= 1 {
        let mut start = 0;
        let mut deleted_any = false;
        while start < best.ops.len() {
            let end = (start + chunk).min(best.ops.len());
            let mut candidate = best.clone();
            candidate.ops.drain(start..end);
            if candidate.ops.is_empty() {
                start = end;
                continue;
            }
            if let Some(msg) = fails(&candidate, &mut budget) {
                best = candidate;
                message = msg;
                deleted_any = true;
                // Same start now points at fresh ops.
            } else {
                start = end;
            }
        }
        if deleted_any && chunk < best.ops.len() {
            chunk = best.ops.len().next_power_of_two();
        } else {
            chunk /= 2;
        }
        if budget == 0 {
            break;
        }
    }

    // Pass 2: simplify fields while the case still fails.
    let try_edit = |best: &mut FuzzCase,
                    message: &mut String,
                    budget: &mut usize,
                    edit: &dyn Fn(&mut FuzzCase)| {
        let mut candidate = best.clone();
        edit(&mut candidate);
        if candidate == *best {
            return;
        }
        if let Some(msg) = fails(&candidate, budget) {
            *best = candidate;
            *message = msg;
        }
    };
    try_edit(&mut best, &mut message, &mut budget, &|c| c.faulty = false);
    try_edit(&mut best, &mut message, &mut budget, &|c| {
        c.fast_forward = false
    });
    try_edit(&mut best, &mut message, &mut budget, &|c| c.chaos = false);
    try_edit(&mut best, &mut message, &mut budget, &|c| {
        // Collapse tenancy entirely: if the failure survives, it has
        // nothing to do with multi-tenant accounting.
        c.tenants = 0;
        for op in &mut c.ops {
            op.tenant = 0;
        }
    });
    for dims in [(1, 1), (2, 2), (4, 2), (8, 2)] {
        try_edit(&mut best, &mut message, &mut budget, &|c| {
            c.sags = dims.0;
            c.cds = dims.1;
        });
    }
    for i in 0..best.ops.len() {
        try_edit(&mut best, &mut message, &mut budget, &|c| c.ops[i].gap = 0);
        try_edit(&mut best, &mut message, &mut budget, &|c| {
            c.ops[i].line %= 64
        });
        try_edit(&mut best, &mut message, &mut budget, &|c| {
            c.ops[i].tenant = 0
        });
    }
    (best, message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_case(7, 3, 64, false, false);
        let b = generate_case(7, 3, 64, false, false);
        assert_eq!(a, b);
        assert_ne!(a, generate_case(7, 4, 64, false, false));
    }

    #[test]
    fn chaos_generation_stays_on_tile_aware_models() {
        for index in 0..32 {
            let case = generate_case(11, index, 16, true, false);
            assert!(
                FuzzModel::CHAOS_ELIGIBLE.contains(&case.model),
                "chaos case {index} drew {:?}",
                case.model
            );
            assert!(case.chaos);
        }
    }

    #[test]
    fn tenant_generation_draws_a_silent_and_a_bursty_tenant() {
        let mut saw_burst = false;
        for index in 0..32 {
            let case = generate_case(23, index, 64, false, true);
            assert!(
                (2..=4).contains(&case.tenants),
                "case {index} drew {} tenant slots",
                case.tenants
            );
            // The highest slot is zero-rate: no op may ever use it.
            assert!(
                case.ops.iter().all(|op| op.tenant < case.tenants - 1),
                "case {index} billed an op to the zero-rate tenant"
            );
            saw_burst |= case
                .ops
                .windows(2)
                .any(|w| w[0].tenant == w[1].tenant && w[0].gap == 0 && w[1].gap == 0);
        }
        assert!(saw_burst, "no gapless same-tenant burst in 32 cases");
        // Tenant mode never leaks into legacy generation.
        for index in 0..8 {
            let case = generate_case(23, index, 64, false, false);
            assert_eq!(case.tenants, 0);
            assert!(case.ops.iter().all(|op| op.tenant == 0));
        }
    }

    #[test]
    fn multi_tenant_fuzz_batch_with_kill_resume_is_clean() {
        let opts = FuzzOptions {
            cases: 12,
            seed: crate::derive_seed("fgnvm-check::tenant-fuzz-test", 0),
            max_ops: 48,
            chaos: false,
            kill_resume: true,
            tenants: true,
        };
        let outcome = fuzz(&opts);
        assert!(
            outcome.failure.is_none(),
            "multi-tenant fuzz failure: {}",
            outcome.failure.unwrap().message
        );
        assert_eq!(outcome.cases_run, 12);
    }

    #[test]
    fn a_legal_hand_written_case_executes_cleanly() {
        let case = FuzzCase {
            model: FuzzModel::Fgnvm,
            sags: 8,
            cds: 2,
            faulty: false,
            fast_forward: true,
            chaos: false,
            tenants: 0,
            ops: (0..24)
                .map(|i| FuzzOp {
                    write: i % 3 == 0,
                    line: i * 7,
                    gap: (i % 5 * 10) as u32,
                    tenant: 0,
                })
                .collect(),
        };
        let report = execute_case(&case).expect("legal case is clean");
        assert!(report.accepted > 0);
        assert!(report.commands > 0);
    }

    #[test]
    fn kill_and_resume_is_bit_identical_on_a_hand_written_case() {
        let case = FuzzCase {
            model: FuzzModel::Fgnvm,
            sags: 8,
            cds: 2,
            faulty: true,
            fast_forward: true,
            chaos: false,
            tenants: 0,
            ops: (0..32)
                .map(|i| FuzzOp {
                    write: i % 3 == 0,
                    line: i * 5,
                    gap: (i % 7 * 9) as u32,
                    tenant: 0,
                })
                .collect(),
        };
        let straight = execute_case(&case).expect("straight run is clean");
        // Kill at several points across the run, including cycle 0 and
        // one past the end (forcing the pre-drain crash).
        for kill in [
            0,
            straight.final_cycle / 3,
            straight.final_cycle / 2,
            u64::MAX,
        ] {
            let resumed = execute_case_with_kill(&case, Some(kill)).expect("resumed run is clean");
            assert_eq!(
                resumed.state_digest, straight.state_digest,
                "digest diverged for kill at {kill}"
            );
            assert_eq!(resumed.accepted, straight.accepted);
            assert_eq!(resumed.commands, straight.commands);
            assert_eq!(resumed.final_cycle, straight.final_cycle);
        }
    }

    #[test]
    fn kill_resume_fuzz_batch_finds_no_divergence() {
        let opts = FuzzOptions {
            cases: 16,
            seed: crate::derive_seed("fgnvm-check::kill-resume-test", 0),
            max_ops: 48,
            chaos: false,
            kill_resume: true,
            tenants: false,
        };
        let outcome = fuzz(&opts);
        assert!(
            outcome.failure.is_none(),
            "kill/resume divergence: {}",
            outcome.failure.unwrap().message
        );
        assert_eq!(outcome.cases_run, 16);
    }
}
