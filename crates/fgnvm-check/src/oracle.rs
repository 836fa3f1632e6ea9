//! The analytical reference oracle.
//!
//! [`Oracle`] independently re-derives the legal-concurrency envelope of a
//! configuration from its geometry and timing parameters — it shares *no
//! code* with the bank FSMs — and replays a [`CommandLog`] against it. For
//! each recorded command it:
//!
//! 1. recomputes what kind of command (row hit / underfetch / activate /
//!    write) the device state at that instant admits, and flags a mismatch;
//! 2. checks every resource gate the architecture imposes: whole-bank
//!    serialization (Multi-Activation off), the whole-bank write block
//!    (Backgrounded Writes off), the per-SAG write lock (with the
//!    write-pausing bypass), the shared column-command path (tCCD), per-CD
//!    sense/drive I/O and row-buffer-latch windows, and the per-SAG
//!    quiesce/wordline gates for row switches;
//! 3. enforces the device minimum latency for the command kind, including
//!    the pause/resume overhead and the `(1+k)·tWP` verify-retry write
//!    occupancy;
//! 4. checks the paper's rook-placement claim directly: concurrently
//!    in-flight senses/writes in one bank must occupy disjoint column
//!    divisions, and a subarray group may have only one row in flight
//!    (write pausing being the architected exception).
//!
//! Two channel-wide rules hold on any window of the stream and run on
//! every log: at most `data_bus_width` data bursts overlap, and no write
//! reports more verify retries than the configured cap. When the stateful
//! replay cannot run — the log overflowed, or the DRAM contrast model,
//! whose refresh machinery is deliberately out of scope for the paper —
//! the per-kind latency floors still apply, and a complete DRAM log is
//! also held to tCCD on a shared column path and to tFAW.

use std::collections::HashMap;
use std::fmt;

use fgnvm_bank::{PlanKind, RefreshCycles, PAUSE_MIN_REMAINING, PAUSE_OVERHEAD};
use fgnvm_mem::{CommandLog, CommandRecord, MemorySystem};
use fgnvm_types::config::{BankModel, SystemConfig};
use fgnvm_types::error::ConfigError;

use crate::invariants::{self, InvariantReport};

/// One oracle-detected legality violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleViolation {
    /// The recorded command kind disagrees with what the replayed device
    /// state admits (e.g. a row hit logged while the row was closed).
    KindMismatch {
        /// Issue cycle.
        at: u64,
        /// Bank index within the channel.
        bank: usize,
        /// Kind the controller logged.
        recorded: PlanKind,
        /// Kind the replayed state expects.
        expected: PlanKind,
    },
    /// A resource gate the architecture imposes was still busy at issue.
    GateBusy {
        /// Issue cycle.
        at: u64,
        /// Bank index within the channel.
        bank: usize,
        /// The violated gate.
        gate: &'static str,
        /// When the resource actually frees.
        free_at: u64,
    },
    /// The data burst was scheduled before the device could deliver it.
    MinimumLatency {
        /// Issue cycle.
        at: u64,
        /// Bank index within the channel.
        bank: usize,
        /// The recorded command kind.
        kind: PlanKind,
        /// The recorded burst start.
        data_start: u64,
        /// The earliest legal burst start for this kind.
        earliest_legal: u64,
    },
    /// Two concurrently in-flight operations shared a column division —
    /// the rook-placement rule forbids two rooks in one column.
    CdOverlap {
        /// Issue cycle.
        at: u64,
        /// Bank index within the channel.
        bank: usize,
        /// The shared column division.
        cd: u32,
    },
    /// Two different rows were in flight within one subarray group — the
    /// rook-placement rule forbids two rooks in one row.
    SagRowConflict {
        /// Issue cycle.
        at: u64,
        /// Bank index within the channel.
        bank: usize,
        /// The subarray group.
        sag: u32,
        /// Row of the new command.
        row: u32,
        /// Row already in flight.
        in_flight: u32,
    },
    /// Log records were not in non-decreasing issue order.
    OutOfOrder {
        /// Issue cycle of the offending record.
        at: u64,
        /// Bank index within the channel.
        bank: usize,
        /// Issue cycle of the preceding record.
        prev: u64,
    },
    /// A command's tile coordinate fell outside the configured grid.
    BadCoord {
        /// Issue cycle.
        at: u64,
        /// Bank index within the channel.
        bank: usize,
    },
    /// More simultaneous data bursts than the channel bus has slots
    /// (reported once per log, at the first overload).
    BusOverload {
        /// First cycle the occupancy exceeded the width.
        at: u64,
        /// Overlapping bursts at that cycle.
        observed: u32,
        /// Configured bus width.
        width: u32,
    },
    /// A write logged more verify retries than the device cap permits.
    RetryBeyondCap {
        /// Issue cycle.
        at: u64,
        /// Bank index within the channel.
        bank: usize,
        /// Retries the write reported.
        retries: u32,
        /// The configured on-die retry budget.
        cap: u32,
    },
    /// A fifth activation inside one DRAM rank's tFAW window.
    FawViolation {
        /// Issue cycle of the fifth activation.
        at: u64,
        /// Rank the activations targeted.
        rank: usize,
    },
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::KindMismatch { at, bank, recorded, expected } => write!(
                f,
                "cycle {at} bank {bank}: logged {recorded:?} but device state admits {expected:?}"
            ),
            OracleViolation::GateBusy { at, bank, gate, free_at } => write!(
                f,
                "cycle {at} bank {bank}: issued through busy {gate} (free at {free_at})"
            ),
            OracleViolation::MinimumLatency { at, bank, kind, data_start, earliest_legal } => write!(
                f,
                "cycle {at} bank {bank}: {kind:?} burst at {data_start} beats device minimum {earliest_legal}"
            ),
            OracleViolation::CdOverlap { at, bank, cd } => write!(
                f,
                "cycle {at} bank {bank}: two in-flight operations share column division {cd}"
            ),
            OracleViolation::SagRowConflict { at, bank, sag, row, in_flight } => write!(
                f,
                "cycle {at} bank {bank}: SAG {sag} has rows {in_flight} and {row} in flight"
            ),
            OracleViolation::OutOfOrder { at, bank, prev } => write!(
                f,
                "cycle {at} bank {bank}: logged after cycle {prev}"
            ),
            OracleViolation::BadCoord { at, bank } => write!(
                f,
                "cycle {at} bank {bank}: tile coordinate outside the configured grid"
            ),
            OracleViolation::BusOverload { at, observed, width } => write!(
                f,
                "cycle {at}: {observed} overlapping bursts on a {width}-slot bus"
            ),
            OracleViolation::RetryBeyondCap { at, bank, retries, cap } => write!(
                f,
                "cycle {at} bank {bank}: write reports {retries} verify retries over the cap of {cap}"
            ),
            OracleViolation::FawViolation { at, rank } => write!(
                f,
                "cycle {at}: fifth activation inside rank {rank}'s tFAW window"
            ),
        }
    }
}

/// The outcome of one oracle audit over one channel's command log.
#[derive(Debug)]
pub struct OracleReport {
    /// Commands replayed.
    pub commands: usize,
    /// Highest number of simultaneously in-flight tile operations observed
    /// in any one bank (the paper's concurrency envelope; bounded by the
    /// number of column divisions).
    pub max_tile_concurrency: u32,
    /// Highest number of simultaneous data bursts observed on the channel
    /// bus (bounded by `data_bus_width`).
    pub max_bus_occupancy: u32,
    /// Why the stateful replay was skipped, if it was (log overflow, DRAM
    /// contrast model). The stateless rules still ran.
    pub skipped: Option<&'static str>,
    /// Every violation found, in rule order.
    pub violations: Vec<OracleViolation>,
}

impl OracleReport {
    /// True when the audit found no violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "oracle: {} commands, max tile concurrency {}, peak bus occupancy {}, {} violation(s){}",
            self.commands,
            self.max_tile_concurrency,
            self.max_bus_occupancy,
            self.violations.len(),
            self.skipped
                .map(|s| format!(" (replay skipped: {s})"))
                .unwrap_or_default()
        )?;
        for v in self.violations.iter().take(16) {
            write!(f, "\n  - {v}")?;
        }
        if self.violations.len() > 16 {
            write!(f, "\n  ... and {} more", self.violations.len() - 16)?;
        }
        Ok(())
    }
}

/// Resolved timing in raw cycles, as the oracle needs it.
#[derive(Debug, Clone, Copy)]
struct T {
    t_rcd: u64,
    t_cas: u64,
    t_rp: u64,
    t_ccd: u64,
    t_burst: u64,
    t_cwd: u64,
    t_wp: u64,
    t_wr: u64,
}

/// Replayed per-SAG state (mirrors the architecture, not the FSM code).
#[derive(Debug, Clone, Copy)]
struct SagR {
    open_row: Option<u32>,
    sensed: u128,
    wordline_free: u64,
    lock: u64,
    write_cds: u128,
    write_row: u32,
    quiesce: u64,
}

impl SagR {
    fn idle() -> Self {
        SagR {
            open_row: None,
            sensed: 0,
            wordline_free: 0,
            lock: 0,
            write_cds: 0,
            write_row: 0,
            quiesce: 0,
        }
    }
}

/// One in-flight tile operation (for the rook-placement check).
#[derive(Debug, Clone, Copy)]
struct Flight {
    sag: u32,
    mask: u128,
    row: u32,
    until: u64,
    is_write: bool,
}

/// Replayed state of one FgNVM bank.
#[derive(Debug)]
struct FgnvmReplay {
    sags: Vec<SagR>,
    cd_io_free: Vec<u64>,
    cd_latch_free: Vec<u64>,
    next_col: u64,
    serial_until: u64,
    write_block_until: u64,
    inflight: Vec<Flight>,
}

impl FgnvmReplay {
    fn new(sags: usize, cds: usize) -> Self {
        FgnvmReplay {
            sags: vec![SagR::idle(); sags],
            cd_io_free: vec![0; cds],
            cd_latch_free: vec![0; cds],
            next_col: 0,
            serial_until: 0,
            write_block_until: 0,
            inflight: Vec::new(),
        }
    }
}

/// Replayed state of one baseline (monolithic) bank.
#[derive(Debug, Default)]
struct BaselineReplay {
    open_row: Option<u32>,
    act_done: u64,
    next_col: u64,
    quiesce: u64,
}

/// The analytical reference oracle for one [`SystemConfig`].
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use fgnvm_check::Oracle;
/// use fgnvm_mem::MemorySystem;
/// use fgnvm_types::config::SystemConfig;
/// use fgnvm_types::request::Op;
/// use fgnvm_types::PhysAddr;
///
/// let config = SystemConfig::fgnvm(8, 2)?;
/// let mut mem = MemorySystem::new(config)?;
/// mem.enable_command_log(4096);
/// for i in 0..64 {
///     mem.enqueue(Op::Read, PhysAddr::new(i * 64));
/// }
/// mem.run_until_idle(100_000);
/// let report = Oracle::new(&config)?.audit(mem.command_log(0));
/// assert!(report.is_clean(), "{report}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Oracle {
    config: SystemConfig,
    timing: T,
}

impl Oracle {
    /// Builds the oracle, resolving the configuration's timing parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: &SystemConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let tc = config.timing.to_cycles()?;
        Ok(Oracle {
            config: *config,
            timing: T {
                t_rcd: tc.t_rcd.raw(),
                t_cas: tc.t_cas.raw(),
                t_rp: tc.t_rp.raw(),
                t_ccd: tc.t_ccd.raw(),
                t_burst: tc.t_burst.raw(),
                t_cwd: tc.t_cwd.raw(),
                t_wp: tc.t_wp.raw(),
                t_wr: tc.t_wr.raw(),
            },
        })
    }

    /// Audits one channel's command log: the channel-wide rules, then the
    /// stateful replay of the analytical envelope — or, where that cannot
    /// run, the stateless latency floors and the DRAM rule set.
    pub fn audit(&self, log: &CommandLog) -> OracleReport {
        let records: Vec<CommandRecord> = log.records().cloned().collect();
        let mut report = OracleReport {
            commands: records.len(),
            max_tile_concurrency: 0,
            max_bus_occupancy: 0,
            skipped: None,
            violations: Vec::new(),
        };
        self.check_bus(&records, &mut report);
        self.check_retry_cap(&records, &mut report);
        let complete = log.dropped() == 0;
        match self.config.bank_model {
            BankModel::Fgnvm { .. } if complete => self.replay_fgnvm(&records, &mut report),
            BankModel::Baseline if complete => self.replay_baseline(&records, &mut report),
            // The replays enforce stricter per-kind floors; without them
            // the floors every command must meet still apply.
            BankModel::Dram if complete => {
                self.check_latency_floors(&records, &mut report);
                self.check_dram(&records, &mut report);
                report.skipped = Some("dram contrast model: refresh state is out of replay scope");
            }
            _ => {
                self.check_latency_floors(&records, &mut report);
                report.skipped = Some("log overflowed; stateful replay needs the full stream");
            }
        }
        report
    }

    /// At most `data_bus_width` bursts overlap at any instant.
    fn check_bus(&self, records: &[CommandRecord], report: &mut OracleReport) {
        let width = self.config.data_bus_width;
        // Sweep burst edges: +1 at data_start, -1 at data_start + tBURST.
        // Ends sort before starts at the same cycle, so back-to-back
        // bursts do not overlap.
        let mut edges: Vec<(u64, i32)> = Vec::with_capacity(records.len() * 2);
        for r in records {
            edges.push((r.data_start.raw(), 1));
            edges.push((r.data_start.raw() + self.timing.t_burst, -1));
        }
        edges.sort_unstable();
        let mut occupancy: i32 = 0;
        for (cycle, delta) in edges {
            occupancy += delta;
            let observed = occupancy.max(0) as u32;
            // Report only the first overload: one per log, not per beat.
            if observed > width && report.max_bus_occupancy <= width {
                report.violations.push(OracleViolation::BusOverload {
                    at: cycle,
                    observed,
                    width,
                });
            }
            report.max_bus_occupancy = report.max_bus_occupancy.max(observed);
        }
    }

    /// No write reports more verify retries than the on-die budget.
    fn check_retry_cap(&self, records: &[CommandRecord], report: &mut OracleReport) {
        let cap = self.config.reliability.max_write_retries;
        for r in records.iter().filter(|r| r.retries > cap) {
            report.violations.push(OracleViolation::RetryBeyondCap {
                at: r.at.raw(),
                bank: r.bank_index,
                retries: r.retries,
                cap,
            });
        }
    }

    /// The minimum command-to-data latency every model imposes per kind.
    fn check_latency_floors(&self, records: &[CommandRecord], report: &mut OracleReport) {
        let t = self.timing;
        for r in records {
            let floor = match r.kind {
                PlanKind::RowHit => t.t_cas,
                PlanKind::Activate | PlanKind::Underfetch => t.t_rcd + t.t_cas,
                // A write may or may not pay tRCD; tCWD is the floor.
                PlanKind::Write => t.t_cwd,
            };
            let (at, data_start) = (r.at.raw(), r.data_start.raw());
            if data_start < at + floor {
                report.violations.push(OracleViolation::MinimumLatency {
                    at,
                    bank: r.bank_index,
                    kind: r.kind,
                    data_start,
                    earliest_legal: at + floor,
                });
            }
        }
    }

    /// The DRAM contrast model's history rules: tCCD between commands to
    /// one bank on a shared column path, and at most four activations per
    /// rank in any rolling tFAW window.
    fn check_dram(&self, records: &[CommandRecord], report: &mut OracleReport) {
        let t_ccd = self.timing.t_ccd;
        let t_faw = RefreshCycles::ddr3_like().t_faw.raw();
        let shared_col = self.config.commands_per_cycle == 1;
        let banks_per_rank = self.config.geometry.banks_per_rank() as usize;
        let mut last_cmd: HashMap<usize, u64> = HashMap::new();
        let mut windows: HashMap<usize, Vec<u64>> = HashMap::new();
        for r in records {
            let (at, bank) = (r.at.raw(), r.bank_index);
            if shared_col {
                if let Some(previous) = last_cmd.insert(bank, at) {
                    if at < previous + t_ccd {
                        report.violations.push(OracleViolation::GateBusy {
                            at,
                            bank,
                            gate: "shared column-command path",
                            free_at: previous + t_ccd,
                        });
                    }
                }
            }
            if r.kind.senses() {
                let rank = bank / banks_per_rank;
                let window = windows.entry(rank).or_default();
                window.retain(|&start| at < start + t_faw);
                if window.len() >= 4 {
                    report
                        .violations
                        .push(OracleViolation::FawViolation { at, rank });
                }
                window.push(at);
            }
        }
    }

    fn replay_fgnvm(&self, records: &[CommandRecord], report: &mut OracleReport) {
        let t = self.timing;
        let (partial, multi, background) = match self.config.bank_model {
            BankModel::Fgnvm {
                partial_activation,
                multi_activation,
                background_writes,
            } => (partial_activation, multi_activation, background_writes),
            _ => unreachable!("caller matched the model"),
        };
        let write_pausing = self.config.write_pausing;
        let shared_col = self.config.commands_per_cycle == 1;
        let sags = self.config.geometry.sags() as usize;
        let cds = self.config.geometry.cds() as usize;
        let full_mask: u128 = if cds == 128 {
            u128::MAX
        } else {
            (1u128 << cds) - 1
        };

        let mut banks: HashMap<usize, FgnvmReplay> = HashMap::new();
        let mut last_at = 0u64;
        for r in records {
            let at = r.at.raw();
            let data_start = r.data_start.raw();
            let bank = r.bank_index;
            if at < last_at {
                report.violations.push(OracleViolation::OutOfOrder {
                    at,
                    bank,
                    prev: last_at,
                });
            }
            last_at = last_at.max(at);
            let si = r.coord.sag as usize;
            let cd_end = u64::from(r.coord.cd_first) + u64::from(r.coord.cd_count);
            if si >= sags || cd_end > cds as u64 || r.coord.cd_count == 0 {
                report
                    .violations
                    .push(OracleViolation::BadCoord { at, bank });
                continue;
            }
            let mut mask = 0u128;
            for cd in r.coord.cd_first..r.coord.cd_first + r.coord.cd_count {
                mask |= 1u128 << cd;
            }
            let b = banks
                .entry(bank)
                .or_insert_with(|| FgnvmReplay::new(sags, cds));
            let sag = b.sags[si];
            let is_read = r.op.is_read();
            let pausing = write_pausing
                && is_read
                && at < sag.lock
                && sag.lock - at > PAUSE_MIN_REMAINING.raw()
                && sag.write_row != r.row;
            let pause_mask = if pausing { sag.write_cds } else { 0 };
            let row_open = sag.open_row == Some(r.row);

            // 1. Kind admissibility from the replayed state.
            let expected = if !is_read {
                PlanKind::Write
            } else if row_open && sag.sensed & mask == mask {
                PlanKind::RowHit
            } else if row_open && partial {
                PlanKind::Underfetch
            } else {
                PlanKind::Activate
            };
            if r.kind != expected {
                report.violations.push(OracleViolation::KindMismatch {
                    at,
                    bank,
                    recorded: r.kind,
                    expected,
                });
            }

            // 2. Resource gates, following the recorded kind's issue path.
            let mut gate = |cond: bool, name: &'static str, free_at: u64| {
                if cond {
                    report.violations.push(OracleViolation::GateBusy {
                        at,
                        bank,
                        gate: name,
                        free_at,
                    });
                }
            };
            if !multi {
                gate(
                    at < b.serial_until,
                    "bank serialization point",
                    b.serial_until,
                );
            }
            gate(
                at < b.write_block_until,
                "whole-bank write block",
                b.write_block_until,
            );
            if !pausing {
                gate(at < sag.lock, "SAG write lock", sag.lock);
            }
            if shared_col {
                gate(at < b.next_col, "shared column-command path", b.next_col);
            }
            let io_free = |b: &FgnvmReplay, m: u128, pm: u128| -> u64 {
                (0..cds)
                    .filter(|cd| m & (1u128 << cd) != 0 && pm & (1u128 << cd) == 0)
                    .map(|cd| b.cd_io_free[cd])
                    .max()
                    .unwrap_or(0)
            };
            let latch_free = |b: &FgnvmReplay, m: u128| -> u64 {
                (0..cds)
                    .filter(|cd| m & (1u128 << cd) != 0)
                    .map(|cd| b.cd_latch_free[cd])
                    .max()
                    .unwrap_or(0)
            };
            let all_free = |b: &FgnvmReplay| -> u64 {
                (0..cds)
                    .map(|cd| b.cd_io_free[cd].max(b.cd_latch_free[cd]))
                    .max()
                    .unwrap_or(0)
            };
            match r.kind {
                PlanKind::RowHit => {
                    let f = io_free(b, mask, pause_mask);
                    gate(at < f, "CD sense/drive I/O", f);
                }
                PlanKind::Underfetch => {
                    let f = io_free(b, mask, pause_mask);
                    gate(at < f, "CD sense/drive I/O", f);
                    let l = latch_free(b, mask);
                    gate(at < l, "CD row-buffer latch", l);
                }
                PlanKind::Activate => {
                    if !row_open {
                        if pausing {
                            gate(at < sag.wordline_free, "SAG wordline", sag.wordline_free);
                        } else {
                            gate(at < sag.quiesce, "SAG quiesce (row switch)", sag.quiesce);
                            gate(at < sag.wordline_free, "SAG wordline", sag.wordline_free);
                        }
                    }
                    if partial {
                        let f = io_free(b, mask, pause_mask);
                        gate(at < f, "CD sense/drive I/O", f);
                        let l = latch_free(b, mask);
                        gate(at < l, "CD row-buffer latch", l);
                    } else {
                        let f = all_free(b);
                        gate(at < f, "full row buffer (partial activation off)", f);
                    }
                }
                PlanKind::Write => {
                    let f = io_free(b, mask, 0);
                    gate(at < f, "CD sense/drive I/O", f);
                    let l = latch_free(b, mask);
                    gate(at < l, "CD row-buffer latch", l);
                    if !row_open {
                        gate(at < sag.quiesce, "SAG quiesce (row switch)", sag.quiesce);
                        gate(at < sag.wordline_free, "SAG wordline", sag.wordline_free);
                    }
                }
            }

            // 3. Device minimum latency for the kind.
            let pause_extra = if pausing { PAUSE_OVERHEAD.raw() } else { 0 };
            let delta = match r.kind {
                PlanKind::RowHit => t.t_cas,
                PlanKind::Underfetch => t.t_rcd + t.t_cas,
                PlanKind::Activate => pause_extra + t.t_rcd + t.t_cas,
                PlanKind::Write => t.t_cwd + if row_open { 0 } else { t.t_rcd },
            };
            let earliest_legal = at + delta;
            if data_start < earliest_legal {
                report.violations.push(OracleViolation::MinimumLatency {
                    at,
                    bank,
                    kind: r.kind,
                    data_start,
                    earliest_legal,
                });
            }

            // 4. Rook placement on the in-flight set, then the commit
            //    effects (per the *recorded* kind, so the replay tracks the
            //    state the real bank reached even through a violation).
            let cmd = data_start.saturating_sub(delta);
            let data_end = data_start + t.t_burst;
            b.inflight.retain(|fl| fl.until > cmd);
            if r.kind != PlanKind::RowHit {
                for fl in &b.inflight {
                    if pausing && fl.is_write && fl.sag == r.coord.sag {
                        // The architected exception: a pausing read reuses
                        // the paused write's tile resources.
                        continue;
                    }
                    let overlap = fl.mask & mask & !pause_mask;
                    if overlap != 0 {
                        report.violations.push(OracleViolation::CdOverlap {
                            at,
                            bank,
                            cd: overlap.trailing_zeros(),
                        });
                    }
                    if !pausing && fl.sag == r.coord.sag && fl.row != r.row {
                        report.violations.push(OracleViolation::SagRowConflict {
                            at,
                            bank,
                            sag: r.coord.sag,
                            row: r.row,
                            in_flight: fl.row,
                        });
                    }
                }
            }

            let completion;
            match r.kind {
                PlanKind::RowHit => {
                    for cd in 0..cds {
                        if mask & (1u128 << cd) != 0 {
                            b.cd_latch_free[cd] = b.cd_latch_free[cd].max(data_end);
                        }
                    }
                    let s = &mut b.sags[si];
                    s.quiesce = s.quiesce.max(data_end);
                    completion = data_end;
                }
                PlanKind::Underfetch => {
                    for cd in 0..cds {
                        if mask & (1u128 << cd) != 0 {
                            b.cd_io_free[cd] = data_start;
                            b.cd_latch_free[cd] = data_end;
                        }
                    }
                    if pausing {
                        // A pausing underfetch takes over the paused
                        // write's overlapping CDs (the FSM reassigns their
                        // I/O windows without re-extending them): the
                        // write's remaining exclusivity is the SAG lock,
                        // so drop the ceded CDs from its rook footprint.
                        for fl in &mut b.inflight {
                            if fl.is_write && fl.sag == r.coord.sag {
                                fl.mask &= !mask;
                            }
                        }
                    }
                    for s in &mut b.sags {
                        s.sensed &= !mask;
                    }
                    let s = &mut b.sags[si];
                    s.sensed |= mask;
                    s.quiesce = s.quiesce.max(data_end);
                    completion = data_end;
                    b.inflight.push(Flight {
                        sag: r.coord.sag,
                        mask,
                        row: r.row,
                        until: data_end,
                        is_write: false,
                    });
                }
                PlanKind::Activate => {
                    if partial {
                        for cd in 0..cds {
                            if mask & (1u128 << cd) != 0 {
                                b.cd_io_free[cd] = data_start;
                                b.cd_latch_free[cd] = data_end;
                            }
                        }
                        for s in &mut b.sags {
                            s.sensed &= !mask;
                        }
                    } else {
                        let act_done = cmd + t.t_rcd;
                        for cd in 0..cds {
                            b.cd_io_free[cd] = b.cd_io_free[cd].max(act_done);
                        }
                        for cd in 0..cds {
                            if mask & (1u128 << cd) != 0 {
                                b.cd_io_free[cd] = data_start;
                                b.cd_latch_free[cd] = data_end;
                            }
                        }
                        for s in &mut b.sags {
                            s.sensed = 0;
                        }
                    }
                    let s = &mut b.sags[si];
                    s.open_row = Some(r.row);
                    s.wordline_free = cmd + t.t_rcd;
                    s.sensed = if partial { mask } else { full_mask };
                    s.quiesce = s.quiesce.max(data_end);
                    completion = data_end;
                    b.inflight.push(Flight {
                        sag: r.coord.sag,
                        mask: if partial { mask } else { full_mask },
                        row: r.row,
                        until: data_end,
                        is_write: false,
                    });
                    if pausing {
                        let extension = data_end.saturating_sub(cmd) + PAUSE_OVERHEAD.raw();
                        let s = &mut b.sags[si];
                        s.lock += extension;
                        s.quiesce = s.quiesce.max(s.lock);
                        let (write_cds, new_lock, write_sag) = (s.write_cds, s.lock, r.coord.sag);
                        for cd in 0..cds {
                            if write_cds & (1u128 << cd) != 0 {
                                b.cd_io_free[cd] = b.cd_io_free[cd].max(new_lock);
                            }
                        }
                        for fl in &mut b.inflight {
                            if fl.is_write && fl.sag == write_sag {
                                fl.until = fl.until.max(new_lock);
                            }
                        }
                    }
                }
                PlanKind::Write => {
                    let program = t.t_wp * u64::from(r.retries + 1);
                    completion = data_end + program + t.t_wr;
                    for cd in 0..cds {
                        if mask & (1u128 << cd) != 0 {
                            b.cd_io_free[cd] = completion;
                        }
                    }
                    for s in &mut b.sags {
                        s.sensed &= !mask;
                    }
                    let s = &mut b.sags[si];
                    if s.open_row != Some(r.row) {
                        s.open_row = Some(r.row);
                        s.sensed = 0;
                        s.wordline_free = cmd + t.t_rcd;
                    }
                    s.lock = completion;
                    s.write_cds = mask;
                    s.write_row = r.row;
                    s.quiesce = s.quiesce.max(completion);
                    if !background {
                        b.write_block_until = completion;
                    }
                    b.inflight.push(Flight {
                        sag: r.coord.sag,
                        mask,
                        row: r.row,
                        until: completion,
                        is_write: true,
                    });
                }
            }
            if shared_col {
                b.next_col = cmd + t.t_ccd;
            }
            if !multi {
                b.serial_until = b.serial_until.max(completion);
            }
            report.max_tile_concurrency = report.max_tile_concurrency.max(b.inflight.len() as u32);
        }
    }

    fn replay_baseline(&self, records: &[CommandRecord], report: &mut OracleReport) {
        let t = self.timing;
        let mut banks: HashMap<usize, BaselineReplay> = HashMap::new();
        let mut last_at = 0u64;
        for r in records {
            let at = r.at.raw();
            let data_start = r.data_start.raw();
            let bank = r.bank_index;
            if at < last_at {
                report.violations.push(OracleViolation::OutOfOrder {
                    at,
                    bank,
                    prev: last_at,
                });
            }
            last_at = last_at.max(at);
            let b = banks.entry(bank).or_default();
            let row_open = b.open_row == Some(r.row);
            let is_read = r.op.is_read();

            let expected = if !is_read {
                PlanKind::Write
            } else if row_open {
                PlanKind::RowHit
            } else {
                PlanKind::Activate
            };
            if r.kind != expected {
                report.violations.push(OracleViolation::KindMismatch {
                    at,
                    bank,
                    recorded: r.kind,
                    expected,
                });
            }

            let column_ready = b.act_done.max(b.next_col);
            let row_switch_ready = b.quiesce + t.t_rp;
            let mut gate = |cond: bool, name: &'static str, free_at: u64| {
                if cond {
                    report.violations.push(OracleViolation::GateBusy {
                        at,
                        bank,
                        gate: name,
                        free_at,
                    });
                }
            };
            let delta = match r.kind {
                PlanKind::RowHit => {
                    gate(at < column_ready, "column path", column_ready);
                    t.t_cas
                }
                PlanKind::Activate | PlanKind::Underfetch => {
                    gate(
                        at < row_switch_ready,
                        "bank quiesce + tRP",
                        row_switch_ready,
                    );
                    t.t_rcd + t.t_cas
                }
                PlanKind::Write => {
                    if row_open {
                        gate(at < column_ready, "column path", column_ready);
                        t.t_cwd
                    } else {
                        gate(
                            at < row_switch_ready,
                            "bank quiesce + tRP",
                            row_switch_ready,
                        );
                        t.t_rcd + t.t_cwd
                    }
                }
            };
            let earliest_legal = at + delta;
            if data_start < earliest_legal {
                report.violations.push(OracleViolation::MinimumLatency {
                    at,
                    bank,
                    kind: r.kind,
                    data_start,
                    earliest_legal,
                });
            }

            let cmd = data_start.saturating_sub(delta);
            let data_end = data_start + t.t_burst;
            match r.kind {
                PlanKind::RowHit => {
                    b.next_col = cmd + t.t_ccd;
                    b.quiesce = b.quiesce.max(data_end);
                }
                PlanKind::Activate | PlanKind::Underfetch => {
                    b.open_row = Some(r.row);
                    b.act_done = cmd + t.t_rcd;
                    b.next_col = b.act_done + t.t_ccd;
                    b.quiesce = b.quiesce.max(data_end);
                }
                PlanKind::Write => {
                    let completion = data_end + t.t_wp * u64::from(r.retries + 1) + t.t_wr;
                    if !row_open {
                        b.act_done = cmd + t.t_rcd;
                    }
                    b.open_row = None;
                    b.next_col = completion;
                    b.quiesce = b.quiesce.max(completion);
                }
            }
        }
        // The monolithic bank never has more than one tile op in flight.
        report.max_tile_concurrency = report
            .max_tile_concurrency
            .max(u32::from(!records.is_empty()));
    }
}

/// Everything `fgnvm-repro -- check` reports for one configuration.
#[derive(Debug)]
pub struct CheckOutcome {
    /// One oracle report per channel.
    pub reports: Vec<OracleReport>,
    /// Whole-run conservation invariants.
    pub invariants: InvariantReport,
    /// Total commands audited across channels.
    pub commands: usize,
}

impl CheckOutcome {
    /// True when every channel's audit and every invariant passed.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(OracleReport::is_clean) && self.invariants.is_clean()
    }

    /// Total violations across channels plus failed invariants.
    pub fn violation_count(&self) -> usize {
        self.reports
            .iter()
            .map(|r| r.violations.len())
            .sum::<usize>()
            + self.invariants.failures.len()
    }
}

/// Runs a mixed read/write workload on `config` with command logging and
/// the observer enabled, then audits every channel's log through the
/// [`Oracle`] and checks the whole-run conservation invariants. This is
/// the engine behind `fgnvm-repro -- check <cfg>`.
///
/// # Errors
///
/// Returns a description of the failure if the configuration is invalid or
/// the run itself stalls (watchdog).
pub fn run_and_audit(config: &SystemConfig, ops: usize, seed: u64) -> Result<CheckOutcome, String> {
    config.validate().map_err(|e| e.to_string())?;
    let core =
        fgnvm_cpu::Core::new(fgnvm_cpu::CoreConfig::nehalem_like()).map_err(|e| e.to_string())?;
    let mut memory = MemorySystem::new(*config).map_err(|e| e.to_string())?;
    memory.set_fast_forward(true);
    memory.enable_command_log(1 << 20);
    memory.enable_observer();
    memory.enable_telemetry(2_000, 64, 128);
    // A read-dominated and a write-heavy profile back to back, mirroring
    // the observe command, so row hits, underfetches, backgrounded writes,
    // pauses and retries all appear in one audited stream.
    let mut records = Vec::new();
    for name in ["milc_like", "lbm_like"] {
        let trace = fgnvm_workloads::profile(name)
            .expect("known profile")
            .generate(config.geometry, seed, ops / 2);
        records.extend_from_slice(trace.records());
    }
    let trace = fgnvm_cpu::Trace::new("check-mix", records);
    core.run(&trace, &mut memory);

    let oracle = Oracle::new(config).map_err(|e| e.to_string())?;
    let mut reports = Vec::new();
    let mut commands = 0;
    for channel in 0..config.geometry.channels() {
        let report = oracle.audit(memory.command_log(channel));
        commands += report.commands;
        reports.push(report);
    }
    let obs = memory.take_observer().expect("observer enabled above");
    let invariants = invariants::standard_report(config, &memory, Some(&obs));
    Ok(CheckOutcome {
        reports,
        invariants,
        commands,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_types::address::TileCoord;
    use fgnvm_types::request::{Op, RequestId};
    use fgnvm_types::time::{Cycle, CycleCount};
    use fgnvm_types::PhysAddr;

    // Hand-built logs below use the paper's PCM timings at 400 MHz:
    // tRCD 10, tCAS 38, tRP 0, tCCD 4, tBURST 4, tCWD 3, tWP 60, tWR 3.

    fn record(
        at: u64,
        kind: PlanKind,
        bank: usize,
        row: u32,
        sag: u32,
        data_start: u64,
    ) -> CommandRecord {
        CommandRecord {
            at: Cycle::new(at),
            id: RequestId::new(at),
            op: if kind == PlanKind::Write {
                Op::Write
            } else {
                Op::Read
            },
            kind,
            bank_index: bank,
            row,
            coord: TileCoord {
                sag,
                cd_first: 0,
                cd_count: 1,
            },
            data_start: Cycle::new(data_start),
            retries: 0,
        }
    }

    /// `r` moved to column division `cd`.
    fn in_cd(mut r: CommandRecord, cd: u32) -> CommandRecord {
        r.coord.cd_first = cd;
        r
    }

    fn log_of(records: &[CommandRecord]) -> CommandLog {
        let mut log = CommandLog::new();
        log.enable(records.len().max(1));
        for r in records {
            log.push(*r);
        }
        log
    }

    fn oracle(config: &SystemConfig) -> Oracle {
        Oracle::new(config).unwrap()
    }

    fn has_gate(report: &OracleReport, name: &str) -> bool {
        report
            .violations
            .iter()
            .any(|v| matches!(v, OracleViolation::GateBusy { gate, .. } if *gate == name))
    }

    #[test]
    fn clean_sequence_passes() {
        let o = oracle(&SystemConfig::baseline());
        // Activate (data at +48), then a row hit once the column path
        // frees at tRCD + tCCD.
        let log = log_of(&[
            record(0, PlanKind::Activate, 0, 1, 0, 48),
            record(14, PlanKind::RowHit, 0, 1, 0, 52),
        ]);
        let report = o.audit(&log);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.commands, 2);
        assert_eq!(report.max_bus_occupancy, 1);
    }

    #[test]
    fn early_burst_is_flagged() {
        let o = oracle(&SystemConfig::baseline());
        // Hit with data 10 cycles after the command (< tCAS = 38). Open
        // the row first so only the latency rule trips.
        let log = log_of(&[
            record(0, PlanKind::Activate, 0, 1, 0, 48),
            record(52, PlanKind::RowHit, 0, 1, 0, 62),
        ]);
        let report = o.audit(&log);
        assert!(
            matches!(
                report.violations[..],
                [OracleViolation::MinimumLatency { .. }]
            ),
            "{report}"
        );
    }

    #[test]
    fn bus_overload_is_flagged_once() {
        // Three banks' bursts all occupying cycles 49..52 of a 1-slot bus.
        let o = oracle(&SystemConfig::baseline());
        let log = log_of(&[
            record(0, PlanKind::Activate, 0, 1, 0, 48),
            record(0, PlanKind::Activate, 1, 1, 0, 48),
            record(1, PlanKind::Activate, 2, 1, 0, 49),
        ]);
        let report = o.audit(&log);
        let overloads = report
            .violations
            .iter()
            .filter(|v| matches!(v, OracleViolation::BusOverload { .. }));
        assert_eq!(overloads.count(), 1, "{report}");
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.max_bus_occupancy, 3);
    }

    #[test]
    fn wide_bus_accepts_parallel_bursts() {
        let mut config = SystemConfig::fgnvm_multi_issue(8, 2, 2).unwrap();
        config.data_bus_width = 2;
        let o = oracle(&config);
        let log = log_of(&[
            record(0, PlanKind::Activate, 0, 1, 0, 48),
            record(0, PlanKind::Activate, 1, 1, 0, 48),
        ]);
        let report = o.audit(&log);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.max_bus_occupancy, 2);
    }

    #[test]
    fn column_spacing_violation_is_flagged() {
        let o = oracle(&SystemConfig::baseline());
        // A hit 2 cycles after the activate, inside tRCD + tCCD.
        let log = log_of(&[
            record(0, PlanKind::Activate, 0, 1, 0, 48),
            record(2, PlanKind::RowHit, 0, 1, 0, 52),
        ]);
        assert!(has_gate(&o.audit(&log), "column path"));
    }

    #[test]
    fn baseline_write_locks_whole_bank() {
        let o = oracle(&SystemConfig::baseline());
        // A write to a closed row (data 13..17) locks the bank until
        // 17 + 60 + 3 = 80; a fresh activate to another row at cycle 20
        // is illegal.
        let log = log_of(&[
            record(0, PlanKind::Write, 0, 1, 0, 13),
            record(20, PlanKind::Activate, 0, 2, 0, 68),
        ]);
        assert!(has_gate(&o.audit(&log), "bank quiesce + tRP"));
    }

    #[test]
    fn fgnvm_write_locks_only_its_sag() {
        let o = oracle(&SystemConfig::fgnvm(8, 2).unwrap());
        // Write into SAG 0, CD 0; a read in SAG 3 on the other CD during
        // tWP is legal (Backgrounded Writes), one in SAG 0 is not.
        let background = log_of(&[
            record(0, PlanKind::Write, 0, 1, 0, 13),
            in_cd(record(20, PlanKind::Activate, 0, 100, 3, 68), 1),
        ]);
        let report = o.audit(&background);
        assert!(report.is_clean(), "{report}");
        let conflicting = log_of(&[
            record(0, PlanKind::Write, 0, 1, 0, 13),
            in_cd(record(20, PlanKind::Activate, 0, 2, 0, 68), 1),
        ]);
        assert!(has_gate(&o.audit(&conflicting), "SAG write lock"));
    }

    #[test]
    fn pausing_config_relaxes_write_lock() {
        let mut config = SystemConfig::fgnvm(8, 2).unwrap();
        config.write_pausing = true;
        let o = oracle(&config);
        // Under pausing, a same-SAG read during tWP is legal; it pays the
        // pause overhead on top of tRCD + tCAS.
        let log = log_of(&[
            record(0, PlanKind::Write, 0, 1, 0, 13),
            record(20, PlanKind::Activate, 0, 2, 0, 20 + 4 + 48),
        ]);
        let report = o.audit(&log);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn stale_row_hit_is_flagged() {
        let o = oracle(&SystemConfig::baseline());
        let stale = |log: &CommandLog| {
            o.audit(log)
                .violations
                .iter()
                .any(|v| matches!(v, OracleViolation::KindMismatch { .. }))
        };
        let wrong_row = log_of(&[
            record(0, PlanKind::Activate, 0, 1, 0, 48),
            record(52, PlanKind::RowHit, 0, 9, 0, 90),
        ]);
        assert!(stale(&wrong_row));
        // A write closes the row; a later "hit" on it is stale.
        let after_write = log_of(&[
            record(0, PlanKind::Activate, 0, 1, 0, 48),
            record(60, PlanKind::Write, 0, 1, 0, 63),
            record(200, PlanKind::RowHit, 0, 1, 0, 238),
        ]);
        assert!(stale(&after_write));
    }

    #[test]
    fn dram_faw_violation_is_flagged() {
        let o = oracle(&SystemConfig::dram());
        // Five activations on one rank inside 12 cycles.
        let records: Vec<CommandRecord> = (0..5u64)
            .map(|i| record(i * 2, PlanKind::Activate, i as usize, 1, 0, i * 2 + 12))
            .collect();
        let report = o.audit(&log_of(&records));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, OracleViolation::FawViolation { at: 8, rank: 0 })));
        // The same five spread over 4 × tFAW are legal.
        let spread: Vec<CommandRecord> = (0..5u64)
            .map(|i| record(i * 13, PlanKind::Activate, i as usize, 1, 0, i * 13 + 12))
            .collect();
        let report = o.audit(&log_of(&spread));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn dram_latency_floor_and_tccd_are_enforced() {
        // DDR3-like timings: tRCD + tCAS = 12, tCAS = 6, tCCD = 4.
        let o = oracle(&SystemConfig::dram());
        let early = o.audit(&log_of(&[record(0, PlanKind::Activate, 0, 1, 0, 11)]));
        assert!(
            matches!(
                early.violations[..],
                [OracleViolation::MinimumLatency {
                    earliest_legal: 12,
                    ..
                }]
            ),
            "{early}"
        );
        // A column command to the same bank 2 cycles later (< tCCD).
        let crowded = o.audit(&log_of(&[
            record(0, PlanKind::Activate, 0, 1, 0, 12),
            record(2, PlanKind::RowHit, 0, 1, 0, 8),
        ]));
        assert!(
            matches!(
                crowded.violations[..],
                [OracleViolation::GateBusy {
                    at: 2,
                    free_at: 4,
                    ..
                }]
            ),
            "{crowded}"
        );
        let spaced = o.audit(&log_of(&[
            record(0, PlanKind::Activate, 0, 1, 0, 12),
            record(4, PlanKind::RowHit, 0, 1, 0, 16),
        ]));
        assert!(spaced.is_clean(), "{spaced}");
    }

    #[test]
    fn truncated_log_skips_history_checks() {
        let o = oracle(&SystemConfig::baseline());
        let mut log = CommandLog::new();
        log.enable(1);
        // The activate that opened row 1 is evicted; the surviving hit
        // must not be reported as stale.
        log.push(record(0, PlanKind::Activate, 0, 1, 0, 48));
        log.push(record(52, PlanKind::RowHit, 0, 1, 0, 90));
        assert!(log.dropped() > 0);
        let report = o.audit(&log);
        assert!(report.is_clean(), "{report}");
        assert!(report.skipped.is_some());
    }

    #[test]
    fn overflowed_log_still_checks_stateless_rules() {
        let mut config = SystemConfig::baseline();
        config.reliability.max_write_retries = 2;
        let o = oracle(&config);
        let mut log = CommandLog::new();
        log.enable(2);
        // The activate is evicted. The surviving hit's burst comes 8
        // cycles after its command (< tCAS)...
        log.push(record(0, PlanKind::Activate, 0, 1, 0, 48));
        log.push(record(52, PlanKind::RowHit, 0, 1, 0, 60));
        // ...and a write sharing its burst slot, over the retry cap.
        let mut write = record(56, PlanKind::Write, 1, 1, 0, 60);
        write.retries = 7;
        log.push(write);
        assert!(log.dropped() > 0);
        let report = o.audit(&log);
        assert!(report.skipped.is_some());
        assert!(
            matches!(
                report.violations[..],
                [
                    OracleViolation::BusOverload { at: 60, .. },
                    OracleViolation::RetryBeyondCap { retries: 7, .. },
                    OracleViolation::MinimumLatency { at: 52, .. },
                ]
            ),
            "{report}"
        );
    }

    #[test]
    fn violations_display_their_context() {
        let v = OracleViolation::GateBusy {
            at: 20,
            bank: 3,
            gate: "SAG write lock",
            free_at: 70,
        };
        let s = v.to_string();
        assert!(
            s.contains("bank 3") && s.contains("SAG write lock") && s.contains("70"),
            "{s}"
        );
    }

    fn write_with_retries(at: u64, sag: u32, data_start: u64, retries: u32) -> CommandRecord {
        let mut r = record(at, PlanKind::Write, 0, 1, sag, data_start);
        r.retries = retries;
        r
    }

    fn with_retry_cap(mut config: SystemConfig, cap: u32) -> SystemConfig {
        config.reliability.max_write_retries = cap;
        config
    }

    #[test]
    fn retrying_write_extends_the_lock_window() {
        let o = oracle(&with_retry_cap(SystemConfig::baseline(), 4));
        // A clean write (data 13..17) locks until 17 + 60 + 3 = 80, so an
        // activate at cycle 100 is legal...
        let clean = log_of(&[
            write_with_retries(0, 0, 13, 0),
            record(100, PlanKind::Activate, 0, 2, 0, 148),
        ]);
        let report = o.audit(&clean);
        assert!(report.is_clean(), "{report}");
        // ...but the same write with two verify retries programs for
        // 3 × tWP and locks until 17 + 180 + 3 = 200: the follower at 100
        // lands inside the extended window.
        let retried = log_of(&[
            write_with_retries(0, 0, 13, 2),
            record(100, PlanKind::Activate, 0, 2, 0, 148),
        ]);
        assert!(has_gate(&o.audit(&retried), "bank quiesce + tRP"));
    }

    #[test]
    fn retry_beyond_cap_is_flagged() {
        let o = oracle(&with_retry_cap(SystemConfig::baseline(), 2));
        let report = o.audit(&log_of(&[write_with_retries(0, 0, 13, 7)]));
        assert!(
            matches!(
                report.violations[..],
                [OracleViolation::RetryBeyondCap {
                    retries: 7,
                    cap: 2,
                    ..
                }]
            ),
            "{report}"
        );
        let within_budget = o.audit(&log_of(&[write_with_retries(0, 0, 13, 2)]));
        assert!(within_budget.is_clean(), "{within_budget}");
    }

    /// Mutation test for the retry rules: audit a real run of the fault
    /// model, then corrupt one write's retry count past the device budget
    /// and require the oracle to notice.
    #[test]
    fn corrupting_a_retry_sequence_is_detected() {
        let mut config = SystemConfig::fgnvm(8, 2).unwrap();
        config.reliability = fgnvm_types::config::ReliabilityConfig {
            enabled: true,
            fault_seed: 7,
            rber: 0.0,
            write_fail_prob: 0.3,
            max_write_retries: 4,
            ecc_correctable_bits: 1,
            ecc_decode_penalty_cycles: 10,
            wear_stuck_threshold: 0,
            ..fgnvm_types::config::ReliabilityConfig::default()
        };
        let mut mem = MemorySystem::new(config).unwrap();
        mem.enable_command_log(1 << 16);
        for i in 0..60u64 {
            while mem.enqueue(Op::Write, PhysAddr::new(i * 4096)).is_none() {
                mem.tick();
            }
            for _ in 0..200 {
                mem.tick();
            }
        }
        mem.run_until_idle(1_000_000);
        let clean: Vec<CommandRecord> = mem.command_log(0).records().copied().collect();
        let o = oracle(&config);
        let report = o.audit(&log_of(&clean));
        assert!(report.is_clean(), "{report}");
        assert!(
            clean.iter().any(|r| r.retries > 0),
            "the fault model should have produced at least one retried write"
        );

        // Inflating any write's retry count past the on-die budget must
        // trip the retry-budget rule.
        let victim = clean
            .iter()
            .position(|r| r.kind == PlanKind::Write)
            .expect("log contains writes");
        let mut mutated = clean.clone();
        mutated[victim].retries = config.reliability.max_write_retries + 5;
        let report = o.audit(&log_of(&mutated));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, OracleViolation::RetryBeyondCap { .. })));
    }

    /// Mutation testing for the auditor itself: take the log of a real,
    /// clean run, corrupt one record, and require the oracle to notice.
    /// An auditor that stays green under mutation proves nothing.
    #[test]
    fn corrupting_a_clean_log_is_detected() {
        let config = SystemConfig::fgnvm(8, 2).unwrap();
        let mut mem = MemorySystem::new(config).unwrap();
        mem.enable_command_log(1 << 16);
        // Mixed traffic over several banks and rows; drain as needed so
        // nothing is rejected.
        for i in 0..200u64 {
            while mem.enqueue(Op::Read, PhysAddr::new(i * 64 * 7)).is_none() {
                mem.tick();
            }
        }
        for i in 0..40u64 {
            while mem.enqueue(Op::Write, PhysAddr::new(i * 4096)).is_none() {
                mem.tick();
            }
            for _ in 0..100 {
                mem.tick();
            }
        }
        mem.run_until_idle(1_000_000);
        let clean: Vec<CommandRecord> = mem.command_log(0).records().copied().collect();
        let o = oracle(&config);
        let report = o.audit(&log_of(&clean));
        assert!(report.is_clean(), "{report}");
        assert!(clean.len() > 100, "need a substantial log to mutate");

        // Mutation 1: a burst pulled to its command cycle always violates
        // the minimum latency (every floor is at least tCWD > 0).
        for victim in [0, clean.len() / 2, clean.len() - 1] {
            let mut mutated = clean.clone();
            mutated[victim].data_start = mutated[victim].at;
            assert!(
                !o.audit(&log_of(&mutated)).is_clean(),
                "early-burst mutation at {victim} went unnoticed"
            );
        }

        // Mutation 2: duplicating a record's burst slot overloads the
        // 1-slot bus.
        let mut mutated = clean.clone();
        let dup = mutated[mutated.len() / 2];
        mutated.push(dup);
        assert!(
            o.audit(&log_of(&mutated))
                .violations
                .iter()
                .any(|v| matches!(v, OracleViolation::BusOverload { .. })),
            "bus-overload mutation went unnoticed"
        );

        // Mutation 3: moving any command into the cycle right after its
        // bank's previous command violates tCCD (shared column path).
        let same_bank_pair = clean
            .windows(2)
            .position(|w| w[0].bank_index == w[1].bank_index)
            .map(|i| i + 1);
        if let Some(i) = same_bank_pair {
            let mut mutated = clean.clone();
            mutated[i].at = mutated[i - 1].at + CycleCount::ONE;
            assert!(
                !o.audit(&log_of(&mutated)).is_clean(),
                "tCCD mutation went unnoticed"
            );
        }
    }
}
