//! The FgNVM bank: two-dimensional subdivision into subarray groups × column
//! divisions, enabling the paper's three access modes.
//!
//! # Resource model (§3–§5 of the paper)
//!
//! * Each **subarray group (SAG)** has its own row decoder and row-address
//!   latch, so each SAG can hold one row open independently. A SAG tracks
//!   which column divisions of its open row have been *sensed* into the
//!   bank's global row buffer (partial activation leaves the rest unsensed —
//!   the *underfetch* state).
//! * Each **column division (CD)** has local Y-select and I/O lines. A CD is
//!   modeled as two windows:
//!   - the *sense/drive I/O* window — one sensing or write-driving operation
//!     may use the CD's local I/O at a time;
//!   - the *latch* window — the CD-aligned slice of the global row buffer
//!     (the "GY-SEL & S/A row buffer" of Fig. 2). A slice belongs to exactly
//!     one SAG at a time: sensing a slice for one SAG **evicts** whatever
//!     another SAG had sensed there. Row-buffer *hits* stream from the latch
//!     and do not occupy the CD's local I/O, so back-to-back hits pipeline
//!     at tCCD spacing exactly as in the baseline.
//! * **Multi-Activation** follows from resource independence: accesses to
//!   distinct (SAG, CD) pairs overlap freely; accesses sharing a SAG
//!   wordline or a CD serialize.
//! * **Backgrounded Writes** lock their SAG *and* their CD(s) for the full
//!   programming time (tWP), but leave every other (SAG, CD) readable.
//!
//! Each of the three modes can be disabled independently for ablation
//! studies. With all three disabled and a 1×1 geometry the bank is still
//! *not* [`BaselineBank`](crate::BaselineBank): without Multi-Activation it
//! serializes every access behind the previous one's completion, where the
//! baseline pipelines row hits at tCCD spacing.

use fgnvm_types::config::BankModel;
use fgnvm_types::error::ConfigError;
use fgnvm_types::geometry::Geometry;
use fgnvm_types::request::Op;
use fgnvm_types::time::{Cycle, CycleCount};
use fgnvm_types::TimingCycles;

use crate::access::{Access, AccessPlan, BlockReason, Blocked, Issued, PlanKind};
use crate::faults::{FaultModel, FaultOutcome};
use crate::stats::BankStats;
use crate::Bank;

/// Pause/resume overhead added to a read that interrupts a write and again
/// to the write's completion (≈ 10 ns at 400 MHz). Public so the external
/// conformance oracle (`fgnvm-check`) can reproduce the pause arithmetic.
pub const PAUSE_OVERHEAD: CycleCount = CycleCount::new(4);
/// A write is only worth pausing if at least this much programming time
/// remains (otherwise just wait it out). Public for the same reason as
/// [`PAUSE_OVERHEAD`].
pub const PAUSE_MIN_REMAINING: CycleCount = CycleCount::new(12);

/// Which of the paper's access modes are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modes {
    /// Partial-Activation: sense only the requested column division(s).
    pub partial_activation: bool,
    /// Multi-Activation: allow concurrent accesses on distinct (SAG, CD)
    /// pairs. When disabled the bank serializes all accesses.
    pub multi_activation: bool,
    /// Backgrounded Writes: allow reads elsewhere in the bank while a write
    /// programs. When disabled a write blocks the whole bank.
    pub background_writes: bool,
}

impl Modes {
    /// All three access modes enabled (the paper's full design).
    pub const fn all() -> Self {
        Modes {
            partial_activation: true,
            multi_activation: true,
            background_writes: true,
        }
    }

    /// All modes disabled: every access serializes behind the previous
    /// one, so even at 1×1 this is stricter than the baseline bank, which
    /// pipelines row hits.
    pub const fn none() -> Self {
        Modes {
            partial_activation: false,
            multi_activation: false,
            background_writes: false,
        }
    }
}

impl Default for Modes {
    fn default() -> Self {
        Modes::all()
    }
}

impl TryFrom<BankModel> for Modes {
    type Error = ConfigError;

    fn try_from(model: BankModel) -> Result<Self, ConfigError> {
        match model {
            BankModel::Fgnvm {
                partial_activation,
                multi_activation,
                background_writes,
            } => Ok(Modes {
                partial_activation,
                multi_activation,
                background_writes,
            }),
            BankModel::Baseline | BankModel::Dram => Err(ConfigError::Invalid {
                field: "bank_model",
                reason: "only the fgnvm model carries access modes",
            }),
        }
    }
}

/// Per-subarray-group FSM state (the row-address latch plus sensing
/// bookkeeping) in struct-of-arrays layout: each field is a parallel array
/// indexed by SAG. The per-commit sweeps — slice eviction across every
/// SAG's `sensed` mask and the min-lock refresh of the bank's cached
/// readiness floor — scan one field across *all* SAGs, so packing each
/// field contiguously keeps them on dense cache lines instead of striding
/// through per-SAG records.
#[derive(Debug, Clone)]
struct SagArena {
    /// Row selected by each SAG's wordline, if any.
    open_row: Vec<Option<u32>>,
    /// Bitmask of column divisions whose slice of `open_row` currently sits
    /// in the global row buffer (may be evicted by other SAGs).
    sensed: Vec<u128>,
    /// The local wordline / row decoder is busy until this instant.
    wordline_free: Vec<Cycle>,
    /// Locked by a backgrounded write until this instant (§4: "the subarray
    /// group is also unavailable until the write completes").
    lock: Vec<Cycle>,
    /// Column divisions held by the in-flight write behind `lock`.
    write_cds: Vec<u128>,
    /// The row whose cells the in-flight write is programming (valid while
    /// `lock` is in the future). Pausing reads must never target it: its
    /// contents are mid-program. `open_row` cannot serve this purpose —
    /// a pausing read switches the wordline away from the written row.
    write_row: Vec<u32>,
    /// All in-flight operations that depend on the open row finish by this
    /// instant; the row may only be switched afterwards.
    quiesce: Vec<Cycle>,
}

impl SagArena {
    fn idle(count: usize) -> Self {
        SagArena {
            open_row: vec![None; count],
            sensed: vec![0; count],
            wordline_free: vec![Cycle::ZERO; count],
            lock: vec![Cycle::ZERO; count],
            write_cds: vec![0; count],
            write_row: vec![0; count],
            quiesce: vec![Cycle::ZERO; count],
        }
    }

    fn len(&self) -> usize {
        self.open_row.len()
    }
}

/// FgNVM two-dimensionally subdivided bank model.
///
/// ```
/// use fgnvm_bank::{Access, Bank, FgnvmBank, Modes};
/// use fgnvm_types::address::TileCoord;
/// use fgnvm_types::geometry::Geometry;
/// use fgnvm_types::request::Op;
/// use fgnvm_types::time::Cycle;
/// use fgnvm_types::TimingConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let geom = Geometry::builder().sags(8).cds(2).build()?;
/// let timing = TimingConfig::paper_pcm().to_cycles()?;
/// let mut bank = FgnvmBank::new(&geom, timing, Modes::all(), true)?;
///
/// // Two reads to different (SAG, CD) pairs overlap in flight — only the
/// // shared column-command path spaces their issue by tCCD (4 cycles):
/// // tile-level parallelism in action.
/// let a = Access { op: Op::Read, row: 0, line: 0,
///                  coord: TileCoord { sag: 0, cd_first: 0, cd_count: 1 } };
/// let b = Access { op: Op::Read, row: 5000, line: 8,
///                  coord: TileCoord { sag: 1, cd_first: 1, cd_count: 1 } };
/// let pa = bank.plan(&a, Cycle::ZERO).expect("idle bank");
/// let ia = bank.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
/// let pb = bank.plan(&b, Cycle::new(4)).expect("distinct pair is free");
/// let ib = bank.commit(&b, &pb, Cycle::new(4), pb.earliest_data);
/// assert!(ib.data_start <= ia.completion); // bursts back to back
/// assert_eq!(bank.stats().overlapped_accesses, 1); // reads overlapped in flight
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FgnvmBank {
    timing: TimingCycles,
    modes: Modes,
    /// Whether column commands share one global path (tCCD spacing across
    /// the whole bank). Multi-Issue configurations relax this to per-CD.
    shared_column_path: bool,
    /// Write pausing: reads may interrupt in-flight writes (see
    /// [`FgnvmBank::with_write_pausing`]).
    write_pausing: bool,
    cd_count: u32,
    /// Bits sensed when one CD's slice of a row is activated.
    slice_bits: u64,
    /// Bits in a full row (sensed when partial activation is disabled).
    row_bits: u64,
    /// Bits driven per cache-line write.
    line_bits: u64,
    sags: SagArena,
    /// Per-CD local sense/write-drive I/O busy-until instants.
    cd_io_free: Vec<Cycle>,
    /// Per-CD row-buffer-slice busy-until instants (pending bursts from the
    /// latch; sensing may not overwrite the slice before then).
    cd_latch_free: Vec<Cycle>,
    /// Global column-command path (tCCD) when `shared_column_path`.
    next_col: Cycle,
    /// Whole-bank serialization point when multi-activation is disabled.
    serial_until: Cycle,
    /// Whole-bank write block when backgrounded writes are disabled.
    write_block_until: Cycle,
    /// Latest completion of any committed op (overlap statistics).
    max_completion: Cycle,
    /// Latest completion of any committed write (read-under-write stats).
    max_write_completion: Cycle,
    /// Earliest instant any access could issue, ignoring `now`: the value
    /// [`Bank::next_ready_hint`] returns before clamping to the query time.
    /// It derives only from state that `commit`, `load_state` and
    /// `with_write_pausing` move, so it is re-swept there
    /// ([`ready_floor_sweep`](FgnvmBank::ready_floor_sweep)) instead of on
    /// every query.
    ready_floor: Cycle,
    /// Device fault injector, when the reliability layer is enabled.
    faults: Option<FaultModel>,
    stats: BankStats,
}

impl FgnvmBank {
    /// Creates an idle FgNVM bank.
    ///
    /// `shared_column_path` should be `true` for the standard design (one
    /// global column command path, tCCD-spaced) and `false` for Multi-Issue
    /// configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry has more than 128 column
    /// divisions (the sensed-slice bookkeeping uses a 128-bit mask).
    pub fn new(
        geometry: &Geometry,
        timing: TimingCycles,
        modes: Modes,
        shared_column_path: bool,
    ) -> Result<Self, ConfigError> {
        if geometry.cds() > 128 {
            return Err(ConfigError::OutOfRange {
                field: "cds",
                expected: "at most 128 column divisions",
            });
        }
        let row_bits = u64::from(geometry.row_bytes()) * 8;
        Ok(FgnvmBank {
            timing,
            modes,
            shared_column_path,
            write_pausing: false,
            cd_count: geometry.cds(),
            slice_bits: row_bits / u64::from(geometry.cds()),
            row_bits,
            line_bits: u64::from(geometry.line_bytes()) * 8,
            sags: SagArena::idle(geometry.sags() as usize),
            cd_io_free: vec![Cycle::ZERO; geometry.cds() as usize],
            cd_latch_free: vec![Cycle::ZERO; geometry.cds() as usize],
            next_col: Cycle::ZERO,
            serial_until: Cycle::ZERO,
            write_block_until: Cycle::ZERO,
            max_completion: Cycle::ZERO,
            max_write_completion: Cycle::ZERO,
            ready_floor: Cycle::ZERO,
            faults: None,
            stats: BankStats::new(),
        })
    }

    /// Attaches a device fault model (see [`FaultModel`]); without one the
    /// bank behaves exactly as before the reliability layer existed.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The enabled access modes.
    pub fn modes(&self) -> Modes {
        self.modes
    }

    /// Enables or disables write pausing (Zhou et al. — the paper's
    /// reference \[12\]): a read blocked only by an in-flight write in its
    /// (SAG, CD) may interrupt the write, paying a small pause/resume overhead of extra
    /// latency; the write's locks extend by the read's duration plus the
    /// resume overhead. A read of the row being written never pauses it
    /// (its cells are mid-program).
    pub fn with_write_pausing(mut self, enabled: bool) -> Self {
        self.write_pausing = enabled;
        self.ready_floor = self.ready_floor_sweep();
        self
    }

    /// The readiness floor swept from the bank state: a lower bound on the
    /// issue instant of every access, from the gates `plan` applies.
    /// `serial_until`, `write_block_until`, and (when the column path is
    /// shared) `next_col` gate unconditionally, so the floor may sit at
    /// their max. Per-resource gates differ per access, so only the min
    /// across a resource class may be added — and only without write
    /// pausing, since a pausing read may bypass its SAG lock and the
    /// paused write's CD I/O (that is the point of the pause).
    fn ready_floor_sweep(&self) -> Cycle {
        let mut floor = self.serial_until.max(self.write_block_until);
        if self.shared_column_path {
            floor = floor.max(self.next_col);
        }
        if !self.write_pausing {
            let min_lock = self.sags.lock.iter().copied().min().unwrap_or(Cycle::ZERO);
            let min_io = self.cd_io_free.iter().copied().min().unwrap_or(Cycle::ZERO);
            floor = floor.max(min_lock).max(min_io);
        }
        floor
    }

    /// True if `access` is a read that would pause an in-flight write in
    /// its subarray group at `now`.
    fn pauses_write(&self, access: &Access, now: Cycle) -> bool {
        if !self.write_pausing || !access.op.is_read() {
            return false;
        }
        let si = access.coord.sag as usize;
        let lock = self.sags.lock[si];
        now < lock
            && lock.saturating_since(now) > PAUSE_MIN_REMAINING
            && self.sags.write_row[si] != access.row
    }

    /// The row currently open in subarray group `sag`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `sag` is out of range.
    pub fn open_row(&self, sag: u32) -> Option<u32> {
        self.sags.open_row[sag as usize]
    }

    /// Instant at which column division `cd`'s local sense/drive I/O becomes
    /// free.
    ///
    /// # Panics
    ///
    /// Panics if `cd` is out of range.
    pub fn cd_io_free_at(&self, cd: u32) -> Cycle {
        self.cd_io_free[cd as usize]
    }

    /// Instant at which subarray group `sag`'s write lock releases.
    ///
    /// # Panics
    ///
    /// Panics if `sag` is out of range.
    pub fn sag_lock_until(&self, sag: u32) -> Cycle {
        self.sags.lock[sag as usize]
    }

    /// True if a backgrounded write is still programming anywhere in the
    /// bank at `now`.
    pub fn write_in_progress(&self, now: Cycle) -> bool {
        now < self.max_write_completion
    }

    fn coord_mask(&self, access: &Access) -> u128 {
        let mut mask = 0u128;
        for cd in access.coord.cds() {
            debug_assert!(cd < self.cd_count, "cd {cd} out of range");
            mask |= 1u128 << cd;
        }
        mask
    }

    fn full_mask(&self) -> u128 {
        if self.cd_count == 128 {
            u128::MAX
        } else {
            (1u128 << self.cd_count) - 1
        }
    }

    /// Removes the given row-buffer slices from every SAG's sensed set: the
    /// global row buffer is about to be overwritten (or the cells behind it
    /// rewritten).
    fn evict_slices(&mut self, mask: u128) {
        for sensed in &mut self.sags.sensed {
            *sensed &= !mask;
        }
    }

    /// Gates common to every access. A pausing read skips the write's SAG
    /// lock (that is the point of the pause).
    fn common_gates(&self, access: &Access, pausing: bool, gates: &mut GateSet) {
        gates.add(self.serial_until, BlockReason::BankBusy);
        gates.add(self.write_block_until, BlockReason::BankBusy);
        if !pausing {
            gates.add(
                self.sags.lock[access.coord.sag as usize],
                BlockReason::SagBusy,
            );
        }
        if self.shared_column_path {
            gates.add(self.next_col, BlockReason::ColumnPath);
        }
    }

    /// The target CDs' sense/drive I/O must be idle; a pausing read treats
    /// the CDs held by the write it pauses as free.
    fn cd_io_gate(&self, access: &Access, pause_mask: u128, gates: &mut GateSet) {
        let mut retry = Cycle::ZERO;
        for cd in access.coord.cds() {
            if pause_mask & (1u128 << cd) != 0 {
                continue;
            }
            retry = retry.max(self.cd_io_free[cd as usize]);
        }
        gates.add(retry, BlockReason::CdBusy);
    }

    /// The target CDs' row-buffer slices must have no pending bursts (a
    /// sensing or write would overwrite / invalidate them).
    fn cd_latch_gate(&self, access: &Access, gates: &mut GateSet) {
        let mut retry = Cycle::ZERO;
        for cd in access.coord.cds() {
            retry = retry.max(self.cd_latch_free[cd as usize]);
        }
        gates.add(retry, BlockReason::CdBusy);
    }

    /// Gates specific to switching the open row of SAG `si`.
    fn row_switch_gates(&self, si: usize, gates: &mut GateSet) {
        gates.add(self.sags.quiesce[si], BlockReason::RowLocked);
        gates.add(self.sags.wordline_free[si], BlockReason::SagBusy);
    }

    /// When partial activation is disabled an activation drives every CD and
    /// overwrites the whole row buffer, so everything must be quiet.
    fn all_cds_free(&self, gates: &mut GateSet) {
        let mut latest = Cycle::ZERO;
        for (io, latch) in self.cd_io_free.iter().zip(&self.cd_latch_free) {
            latest = latest.max(*io).max(*latch);
        }
        gates.add(latest, BlockReason::CdBusy);
    }
}

/// Accumulates every timing gate a plan path consults and remembers the
/// *latest* one. A blocked access cannot issue before all of its gates
/// clear, and each gate instant is a state-derived constant (only a
/// `commit` moves it), so the maximum is the tightest `retry_at` lower
/// bound `plan` can soundly report — it collapses what would otherwise be
/// a chain of fast-forward skip hops (one per gate) into a single hop.
/// Ties keep the gate added first, so the reported `BlockReason` stays
/// deterministic and follows the documented gate-check order.
struct GateSet {
    until: Cycle,
    reason: BlockReason,
}

impl GateSet {
    fn new() -> Self {
        GateSet {
            until: Cycle::ZERO,
            reason: BlockReason::BankBusy,
        }
    }

    fn add(&mut self, until: Cycle, reason: BlockReason) {
        if until > self.until {
            self.until = until;
            self.reason = reason;
        }
    }

    /// `Err` iff any gathered gate is still in the future at `now`.
    fn check(&self, now: Cycle) -> Result<(), Blocked> {
        if now < self.until {
            Err(Blocked {
                reason: self.reason,
                retry_at: self.until,
            })
        } else {
            Ok(())
        }
    }
}

impl FgnvmBank {
    /// `plan` along the path `pausing` selects: a pausing read skips the
    /// paused write's SAG lock and CD I/O but pays the pause overhead.
    fn plan_path(&self, access: &Access, now: Cycle, pausing: bool) -> Result<AccessPlan, Blocked> {
        let t = &self.timing;
        // Every gate the chosen path consults is gathered into `gates` and
        // checked once: a blocked plan therefore reports the *latest*
        // violated gate as `retry_at` (still a sound lower bound — every
        // gathered gate must clear before issue), which lets fast-forward
        // jump all of them in one hop instead of rediscovering them one
        // re-plan at a time.
        let mut gates = GateSet::new();
        self.common_gates(access, pausing, &mut gates);
        let si = access.coord.sag as usize;
        let sensed = self.sags.sensed[si];
        let pause_mask = if pausing { self.sags.write_cds[si] } else { 0 };
        let pause_extra = if pausing {
            PAUSE_OVERHEAD
        } else {
            CycleCount::ZERO
        };
        let mask = self.coord_mask(access);
        let row_open = self.sags.open_row[si] == Some(access.row);
        match access.op {
            Op::Read => {
                if row_open && sensed & mask == mask {
                    // Stream from the global row buffer: only the shared
                    // column path is used, so hits pipeline at tCCD.
                    self.cd_io_gate(access, pause_mask, &mut gates);
                    gates.check(now)?;
                    return Ok(AccessPlan {
                        kind: PlanKind::RowHit,
                        earliest_data: now + t.t_cas,
                        sense_bits: 0,
                    });
                }
                if row_open {
                    // Wordline already selects the row; sense the missing
                    // slice(s) — the underfetch penalty is the extra tRCD.
                    if self.modes.partial_activation {
                        self.cd_io_gate(access, pause_mask, &mut gates);
                        self.cd_latch_gate(access, &mut gates);
                        gates.check(now)?;
                        let unsensed = (mask & !sensed).count_ones() as u64;
                        Ok(AccessPlan {
                            kind: PlanKind::Underfetch,
                            earliest_data: now + t.t_rcd + t.t_cas,
                            sense_bits: unsensed * self.slice_bits,
                        })
                    } else {
                        // Full re-sense of the row (a write or another SAG
                        // invalidated part of it).
                        self.all_cds_free(&mut gates);
                        gates.check(now)?;
                        Ok(AccessPlan {
                            kind: PlanKind::Activate,
                            earliest_data: now + t.t_rcd + t.t_cas,
                            sense_bits: self.row_bits,
                        })
                    }
                } else {
                    if pausing {
                        // The paused write releases the wordline; only the
                        // latch protection of other in-flight reads
                        // remains (gathered below).
                        gates.add(self.sags.wordline_free[si], BlockReason::SagBusy);
                    } else {
                        self.row_switch_gates(si, &mut gates);
                    }
                    let sense_bits = if self.modes.partial_activation {
                        self.cd_io_gate(access, pause_mask, &mut gates);
                        self.cd_latch_gate(access, &mut gates);
                        u64::from(access.coord.cd_count) * self.slice_bits
                    } else {
                        self.all_cds_free(&mut gates);
                        self.row_bits
                    };
                    gates.check(now)?;
                    Ok(AccessPlan {
                        kind: PlanKind::Activate,
                        earliest_data: now + pause_extra + t.t_rcd + t.t_cas,
                        sense_bits,
                    })
                }
            }
            Op::Write => {
                self.cd_io_gate(access, 0, &mut gates);
                self.cd_latch_gate(access, &mut gates);
                let extra = if row_open {
                    CycleCount::ZERO
                } else {
                    self.row_switch_gates(si, &mut gates);
                    t.t_rcd
                };
                gates.check(now)?;
                Ok(AccessPlan {
                    kind: PlanKind::Write,
                    earliest_data: now + extra + t.t_cwd,
                    sense_bits: 0,
                })
            }
        }
    }
}

impl Bank for FgnvmBank {
    fn plan(&self, access: &Access, now: Cycle) -> Result<AccessPlan, Blocked> {
        let pausing = self.pauses_write(access, now);
        match self.plan_path(access, now, pausing) {
            // The read may pause the write only while more than
            // PAUSE_MIN_REMAINING of it is left. If the pausing path cannot
            // clear before then, the read will have to wait the write out:
            // report the non-pausing path's retry, so the verdict does not
            // move as the clock crosses the threshold (see `Bank::plan`).
            Err(blocked)
                if pausing
                    && blocked.retry_at + PAUSE_MIN_REMAINING
                        >= self.sags.lock[access.coord.sag as usize] =>
            {
                // The unpaused read waits on the SAG lock, so it is blocked.
                let unpaused = self.plan_path(access, now, false).err();
                Err(Blocked {
                    reason: blocked.reason,
                    retry_at: unpaused.map_or(blocked.retry_at, |b| b.retry_at),
                })
            }
            verdict => verdict,
        }
    }

    fn commit(
        &mut self,
        access: &Access,
        plan: &AccessPlan,
        now: Cycle,
        data_start: Cycle,
    ) -> Issued {
        assert!(
            data_start >= plan.earliest_data,
            "data burst scheduled before the bank can deliver it"
        );
        let t = self.timing;
        let shift = data_start - plan.earliest_data;
        let cmd = now + shift;
        let data_end = data_start + t.t_burst;
        let mask = self.coord_mask(access);

        // Parallelism statistics: did this access overlap another in-flight
        // operation (tile-level parallelism) or an in-flight write
        // (backgrounded-write hiding)?
        if cmd < self.max_completion {
            self.stats.overlapped_accesses += 1;
        }
        if access.op.is_read() && cmd < self.max_write_completion {
            self.stats.reads_under_write += 1;
        }

        let mut faults = FaultOutcome::default();
        if access.op.is_read() {
            if let Some(model) = &self.faults {
                let (bit_errors, stuck) =
                    model.read_faults(access.row, access.line, self.stats.reads);
                faults.bit_errors = bit_errors;
                faults.stuck_fault = stuck;
                self.stats.read_bit_errors += u64::from(bit_errors);
                self.stats.stuck_faults += u64::from(stuck);
            }
        }

        let completion;
        let full_mask = self.full_mask();
        let line_bits = self.line_bits;
        let partial = self.modes.partial_activation;
        let pausing = self.pauses_write(access, now);
        let si = access.coord.sag as usize;
        match (access.op, plan.kind) {
            (Op::Read, PlanKind::RowHit) => {
                self.stats.reads += 1;
                self.stats.row_hits += 1;
                // The burst streams from the latch; keep the slice alive.
                for cd in access.coord.cds() {
                    let latch = &mut self.cd_latch_free[cd as usize];
                    *latch = (*latch).max(data_end);
                }
                let quiesce = &mut self.sags.quiesce[si];
                *quiesce = (*quiesce).max(data_end);
                completion = data_end;
            }
            (Op::Read, PlanKind::Underfetch) => {
                self.stats.reads += 1;
                self.stats.underfetches += 1;
                self.stats.activations += 1;
                self.stats.sensed_bits += plan.sense_bits;
                // Sensing occupies the CD I/O until the data is latched,
                // then the burst streams from the latch.
                for cd in access.coord.cds() {
                    self.cd_io_free[cd as usize] = data_start;
                    self.cd_latch_free[cd as usize] = data_end;
                }
                self.evict_slices(mask);
                self.sags.sensed[si] |= mask;
                let quiesce = &mut self.sags.quiesce[si];
                *quiesce = (*quiesce).max(data_end);
                completion = data_end;
            }
            (Op::Read, PlanKind::Activate) => {
                self.stats.reads += 1;
                self.stats.activations += 1;
                self.stats.sensed_bits += plan.sense_bits;
                if partial {
                    for cd in access.coord.cds() {
                        self.cd_io_free[cd as usize] = data_start;
                        self.cd_latch_free[cd as usize] = data_end;
                    }
                    self.evict_slices(mask);
                } else {
                    // Every CD is driven and the whole row buffer rewritten.
                    let act_done = cmd + t.t_rcd;
                    for io in self.cd_io_free.iter_mut() {
                        *io = (*io).max(act_done);
                    }
                    for cd in access.coord.cds() {
                        self.cd_io_free[cd as usize] = data_start;
                        self.cd_latch_free[cd as usize] = data_end;
                    }
                    self.evict_slices(full_mask);
                }
                self.sags.open_row[si] = Some(access.row);
                self.sags.wordline_free[si] = cmd + t.t_rcd;
                self.sags.sensed[si] = if partial { mask } else { full_mask };
                self.sags.quiesce[si] = self.sags.quiesce[si].max(data_end);
                completion = data_end;
                if pausing {
                    // The interrupted write resumes after the read: its
                    // locks extend by the read's duration plus the resume
                    // overhead.
                    self.stats.write_pauses += 1;
                    let extension = data_end.saturating_since(cmd) + PAUSE_OVERHEAD;
                    self.sags.lock[si] += extension;
                    let new_lock = self.sags.lock[si];
                    self.sags.quiesce[si] = self.sags.quiesce[si].max(new_lock);
                    let write_cds = self.sags.write_cds[si];
                    for cd in 0..self.cd_count {
                        if write_cds & (1u128 << cd) != 0 {
                            let io = &mut self.cd_io_free[cd as usize];
                            *io = (*io).max(new_lock);
                        }
                    }
                    self.max_write_completion = self.max_write_completion.max(new_lock);
                }
            }
            (Op::Write, PlanKind::Write) => {
                if let Some(model) = &mut self.faults {
                    let (retries, verify_failed) =
                        model.write_attempts(access.row, access.line, self.stats.writes);
                    faults.retries = retries;
                    faults.verify_failed = verify_failed;
                    self.stats.write_retries += u64::from(retries);
                    self.stats.verify_failures += u64::from(verify_failed);
                }
                self.stats.writes += 1;
                self.stats.written_bits += line_bits;
                // Each write-verify retry re-applies a full programming
                // pulse, extending the tile occupancy by one tWP.
                let program = CycleCount::new(t.t_wp.raw() * u64::from(faults.retries + 1));
                completion = data_end + program + t.t_wr;
                // Write driving occupies the CD I/O until programming and
                // recovery finish; the written slices are stale everywhere.
                for cd in access.coord.cds() {
                    self.cd_io_free[cd as usize] = completion;
                }
                self.evict_slices(mask);
                if self.sags.open_row[si] != Some(access.row) {
                    self.stats.activations += 1;
                    self.sags.open_row[si] = Some(access.row);
                    self.sags.sensed[si] = 0;
                    self.sags.wordline_free[si] = cmd + t.t_rcd;
                }
                // §4: the write's SAG and CD(s) are unavailable until the
                // programming completes.
                self.sags.lock[si] = completion;
                self.sags.write_cds[si] = mask;
                self.sags.write_row[si] = access.row;
                self.sags.quiesce[si] = self.sags.quiesce[si].max(completion);
                if !self.modes.background_writes {
                    self.write_block_until = completion;
                }
                self.max_write_completion = self.max_write_completion.max(completion);
            }
            (op, kind) => unreachable!("fgnvm bank committed {op} with plan kind {kind:?}"),
        }

        if self.shared_column_path {
            self.next_col = cmd + t.t_ccd;
        }
        if !self.modes.multi_activation {
            self.serial_until = self.serial_until.max(completion);
        }
        self.max_completion = self.max_completion.max(completion);
        self.ready_floor = self.ready_floor_sweep();
        Issued {
            data_start,
            data_end,
            completion,
            sense_bits: plan.sense_bits,
            kind: plan.kind,
            faults,
        }
    }

    fn stats(&self) -> &BankStats {
        &self.stats
    }

    fn next_ready_hint(&self, now: Cycle) -> Cycle {
        // The cached floor is exactly what a fresh sweep would produce: it
        // is re-swept wherever its inputs move (see `ready_floor`).
        self.ready_floor.max(now)
    }

    fn plan_class(&self, access: &Access) -> u128 {
        // `plan` reads the access only through: the op, the tile coordinate
        // (SAG index and CD mask), whether the row is the SAG's open row,
        // and — for the pausing predicate — whether it is the row the
        // in-flight write is programming. Everything else comes from bank
        // state shared by all accesses, so this key is exact.
        let si = access.coord.sag as usize;
        u128::from(access.op.is_read())
            | u128::from(self.sags.open_row[si] == Some(access.row)) << 1
            | u128::from(self.sags.write_row[si] == access.row) << 2
            | u128::from(access.coord.sag) << 3
            | u128::from(access.coord.cd_first) << 35
            | u128::from(access.coord.cd_count) << 67
    }

    fn write_in_progress(&self, now: Cycle) -> bool {
        FgnvmBank::write_in_progress(self, now)
    }

    fn occupancy(&self) -> crate::OccupancySnapshot {
        crate::OccupancySnapshot {
            open_rows: self.sags.open_row.clone(),
            sag_locks: self.sags.lock.clone(),
            cd_io_free: self.cd_io_free.clone(),
            busy_until: self.max_completion,
        }
    }

    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("bank.fgnvm");
        // Snapshot layout is per-SAG record-ordered (the pre-SoA byte
        // stream): golden snapshots must stay byte-identical.
        w.usize(self.sags.len());
        for i in 0..self.sags.len() {
            w.opt_u32(self.sags.open_row[i]);
            w.u128(self.sags.sensed[i]);
            w.u64(self.sags.wordline_free[i].raw());
            w.u64(self.sags.lock[i].raw());
            w.u128(self.sags.write_cds[i]);
            w.u32(self.sags.write_row[i]);
            w.u64(self.sags.quiesce[i].raw());
        }
        w.usize(self.cd_io_free.len());
        for c in &self.cd_io_free {
            w.u64(c.raw());
        }
        for c in &self.cd_latch_free {
            w.u64(c.raw());
        }
        w.u64(self.next_col.raw());
        w.u64(self.serial_until.raw());
        w.u64(self.write_block_until.raw());
        w.u64(self.max_completion.raw());
        w.u64(self.max_write_completion.raw());
        w.bool(self.faults.is_some());
        if let Some(model) = &self.faults {
            model.save_state(w);
        }
        self.stats.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("bank.fgnvm")?;
        let sag_count = r.usize()?;
        if sag_count != self.sags.len() {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "checkpoint has {sag_count} SAGs, bank has {}",
                self.sags.len()
            )));
        }
        for i in 0..self.sags.len() {
            self.sags.open_row[i] = r.opt_u32()?;
            self.sags.sensed[i] = r.u128()?;
            self.sags.wordline_free[i] = Cycle::new(r.u64()?);
            self.sags.lock[i] = Cycle::new(r.u64()?);
            self.sags.write_cds[i] = r.u128()?;
            self.sags.write_row[i] = r.u32()?;
            self.sags.quiesce[i] = Cycle::new(r.u64()?);
        }
        let cd_count = r.usize()?;
        if cd_count != self.cd_io_free.len() {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "checkpoint has {cd_count} CDs, bank has {}",
                self.cd_io_free.len()
            )));
        }
        for c in &mut self.cd_io_free {
            *c = Cycle::new(r.u64()?);
        }
        for c in &mut self.cd_latch_free {
            *c = Cycle::new(r.u64()?);
        }
        self.next_col = Cycle::new(r.u64()?);
        self.serial_until = Cycle::new(r.u64()?);
        self.write_block_until = Cycle::new(r.u64()?);
        self.max_completion = Cycle::new(r.u64()?);
        self.max_write_completion = Cycle::new(r.u64()?);
        let has_faults = r.bool()?;
        if has_faults != self.faults.is_some() {
            return Err(fgnvm_types::SnapshotError::Corrupt(
                "fault-model presence mismatch between checkpoint and config".into(),
            ));
        }
        if let Some(model) = &mut self.faults {
            model.load_state(r)?;
        }
        self.stats = BankStats::load_state(r)?;
        self.ready_floor = self.ready_floor_sweep();
        Ok(())
    }
}

#[cfg(test)]
impl FgnvmBank {
    /// The readiness hint as a fresh sweep over every SAG lock and CD I/O
    /// window on each query — what `next_ready_hint` computed before the
    /// floor was cached. The cached hint must equal it after every commit.
    fn next_ready_hint_reference(&self, now: Cycle) -> Cycle {
        self.ready_floor_sweep().max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_types::address::TileCoord;
    use fgnvm_types::TimingConfig;
    use proptest::prelude::*;

    fn geom(sags: u32, cds: u32) -> Geometry {
        Geometry::builder().sags(sags).cds(cds).build().unwrap()
    }

    fn bank(sags: u32, cds: u32, modes: Modes) -> FgnvmBank {
        FgnvmBank::new(
            &geom(sags, cds),
            TimingConfig::paper_pcm().to_cycles().unwrap(),
            modes,
            true,
        )
        .unwrap()
    }

    fn access(op: Op, geometry: &Geometry, row: u32, line: u32) -> Access {
        let (cd_first, cd_count) = geometry.cds_of_line(line);
        Access {
            op,
            row,
            line,
            coord: TileCoord {
                sag: geometry.sag_of_row(row),
                cd_first,
                cd_count,
            },
        }
    }

    #[test]
    fn partial_activation_senses_one_slice() {
        let g = geom(8, 2);
        let b = bank(8, 2, Modes::all());
        let a = access(Op::Read, &g, 0, 0);
        let p = b.plan(&a, Cycle::ZERO).unwrap();
        assert_eq!(p.kind, PlanKind::Activate);
        // 8×2: one CD slice is 512 B = 4096 bits (paper Fig. 5).
        assert_eq!(p.sense_bits, 4096);
    }

    #[test]
    fn multi_activation_overlaps_distinct_pairs() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        let a = access(Op::Read, &g, 0, 0);
        let pa = b.plan(&a, Cycle::ZERO).unwrap();
        b.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
        // (sag1, cd1) read at the next column-command slot: allowed while
        // the first is still sensing.
        let rows_per_sag = g.rows_per_sag();
        let b_access = access(Op::Read, &g, rows_per_sag, 4);
        let t = Cycle::new(4);
        let pb = b.plan(&b_access, t).unwrap();
        let ib = b.commit(&b_access, &pb, t, pb.earliest_data);
        assert_eq!(pb.kind, PlanKind::Activate);
        assert!(ib.data_start < Cycle::new(100));
        assert_eq!(b.stats().overlapped_accesses, 1);
    }

    #[test]
    fn same_cd_sensing_conflict_serializes() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        let a = access(Op::Read, &g, 0, 0);
        let pa = b.plan(&a, Cycle::ZERO).unwrap();
        let ia = b.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
        // Same CD, different SAG: the CD's sense I/O is busy until the data
        // is latched (data_start), and the latch holds the pending burst
        // until data_end. `retry_at` names the latest violated gate, so the
        // conflict resolves in a single hop straight to data_end.
        let rows_per_sag = g.rows_per_sag();
        let conflicting = access(Op::Read, &g, rows_per_sag, 0);
        let blocked = b.plan(&conflicting, Cycle::new(4)).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::CdBusy);
        assert_eq!(blocked.retry_at, ia.data_end);
        // Probing between the two gates confirms the bound was sound: the
        // latch alone still blocks at data_start.
        let blocked = b.plan(&conflicting, ia.data_start).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::CdBusy);
        assert_eq!(blocked.retry_at, ia.data_end);
        assert!(b.plan(&conflicting, ia.data_end).is_ok());
    }

    #[test]
    fn cross_sag_sensing_evicts_row_buffer_slice() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        // SAG 0 senses CD 0.
        let a = access(Op::Read, &g, 0, 0);
        let pa = b.plan(&a, Cycle::ZERO).unwrap();
        let ia = b.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
        // SAG 1 senses the same CD later: evicts SAG 0's slice.
        let other = access(Op::Read, &g, g.rows_per_sag(), 0);
        let po = b.plan(&other, ia.data_end).unwrap();
        let io = b.commit(&other, &po, ia.data_end, po.earliest_data);
        // SAG 0's line 0 is no longer a hit — it must be re-sensed.
        let again = access(Op::Read, &g, 0, 1); // same CD slice
        let pa2 = b.plan(&again, io.data_end).unwrap();
        assert_eq!(pa2.kind, PlanKind::Underfetch);
    }

    #[test]
    fn row_hits_pipeline_at_tccd() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        let a = access(Op::Read, &g, 0, 0);
        let pa = b.plan(&a, Cycle::ZERO).unwrap();
        let ia = b.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
        // After the first burst, hits to the sensed slice go back to back.
        let t0 = ia.data_end;
        let h1 = access(Op::Read, &g, 0, 1);
        let p1 = b.plan(&h1, t0).unwrap();
        assert_eq!(p1.kind, PlanKind::RowHit);
        b.commit(&h1, &p1, t0, p1.earliest_data);
        // tCCD = 4 cycles later another hit to the same slice is plannable,
        // even though the first hit's burst is still pending.
        let t1 = t0 + CycleCount::new(4);
        let h2 = access(Op::Read, &g, 0, 2);
        let p2 = b.plan(&h2, t1).unwrap();
        assert_eq!(p2.kind, PlanKind::RowHit);
    }

    #[test]
    fn same_sag_different_row_waits() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        let a = access(Op::Read, &g, 0, 0);
        let pa = b.plan(&a, Cycle::ZERO).unwrap();
        let ia = b.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
        // Different row in the same SAG, different CD: the single wordline
        // per SAG forbids a second open row until quiesce.
        let conflicting = access(Op::Read, &g, 1, 4);
        let blocked = b.plan(&conflicting, Cycle::new(4)).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::RowLocked);
        assert_eq!(blocked.retry_at, ia.data_end);
    }

    #[test]
    fn same_sag_same_row_other_cd_is_underfetch_and_parallel() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        let a = access(Op::Read, &g, 0, 0);
        let pa = b.plan(&a, Cycle::ZERO).unwrap();
        b.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
        // Same row, different CD while the first read is still in flight:
        // wordline is held, so only the unsensed slice is fetched.
        let second = access(Op::Read, &g, 0, 4);
        let t = Cycle::new(4);
        let p2 = b.plan(&second, t).unwrap();
        assert_eq!(p2.kind, PlanKind::Underfetch);
        assert_eq!(p2.sense_bits, 2048); // 1 KB / 4 CDs
        assert_eq!(p2.earliest_data, t + CycleCount::new(48));
    }

    #[test]
    fn row_hit_after_sensing() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        let a = access(Op::Read, &g, 0, 0);
        let pa = b.plan(&a, Cycle::ZERO).unwrap();
        let ia = b.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
        // Line 1 shares the CD (4 lines per CD) — hit once the data latched.
        let hit = access(Op::Read, &g, 0, 1);
        let p = b.plan(&hit, ia.data_start).unwrap();
        assert_eq!(p.kind, PlanKind::RowHit);
        assert_eq!(p.sense_bits, 0);
    }

    #[test]
    fn backgrounded_write_allows_remote_reads_only() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        let w = access(Op::Write, &g, 0, 0);
        let pw = b.plan(&w, Cycle::ZERO).unwrap();
        let iw = b.commit(&w, &pw, Cycle::ZERO, pw.earliest_data);
        assert!(iw.completion > Cycle::new(60));
        let during = Cycle::new(30);
        // Same SAG: locked.
        let same_sag = access(Op::Read, &g, 1, 4);
        assert_eq!(
            b.plan(&same_sag, during).unwrap_err().reason,
            BlockReason::SagBusy
        );
        // Same CD, other SAG: locked.
        let same_cd = access(Op::Read, &g, g.rows_per_sag(), 0);
        assert_eq!(
            b.plan(&same_cd, during).unwrap_err().reason,
            BlockReason::CdBusy
        );
        // Distinct (SAG, CD): proceeds during the write.
        let free = access(Op::Read, &g, g.rows_per_sag(), 4);
        let pf = b.plan(&free, during).unwrap();
        b.commit(&free, &pf, during, pf.earliest_data);
        assert_eq!(b.stats().reads_under_write, 1);
    }

    #[test]
    fn disabled_background_writes_block_bank() {
        let g = geom(4, 4);
        let mut b = bank(
            4,
            4,
            Modes {
                background_writes: false,
                ..Modes::all()
            },
        );
        let w = access(Op::Write, &g, 0, 0);
        let pw = b.plan(&w, Cycle::ZERO).unwrap();
        let iw = b.commit(&w, &pw, Cycle::ZERO, pw.earliest_data);
        let far = access(Op::Read, &g, g.rows_per_sag(), 4);
        let blocked = b.plan(&far, Cycle::new(30)).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::BankBusy);
        assert_eq!(blocked.retry_at, iw.completion);
    }

    #[test]
    fn disabled_multi_activation_serializes_everything() {
        let g = geom(4, 4);
        let mut b = bank(
            4,
            4,
            Modes {
                multi_activation: false,
                ..Modes::all()
            },
        );
        let a = access(Op::Read, &g, 0, 0);
        let pa = b.plan(&a, Cycle::ZERO).unwrap();
        let ia = b.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
        let other = access(Op::Read, &g, g.rows_per_sag(), 4);
        let blocked = b.plan(&other, Cycle::new(4)).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::BankBusy);
        assert_eq!(blocked.retry_at, ia.completion);
    }

    #[test]
    fn disabled_partial_activation_senses_full_row() {
        let g = geom(4, 4);
        let mut b = bank(
            4,
            4,
            Modes {
                partial_activation: false,
                ..Modes::all()
            },
        );
        let a = access(Op::Read, &g, 0, 0);
        let p = b.plan(&a, Cycle::ZERO).unwrap();
        assert_eq!(p.sense_bits, 8192);
        let ia = b.commit(&a, &p, Cycle::ZERO, p.earliest_data);
        // Every CD was driven during the activation; a read in another SAG
        // sharing any CD must wait for the activation window (probe after
        // the tCCD column-path window so the CD gate is what blocks).
        let other = access(Op::Read, &g, g.rows_per_sag(), 4);
        let blocked = b.plan(&other, Cycle::new(4)).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::CdBusy);
        // …and a hit to any line of the row needs no re-sense.
        let hit = access(Op::Read, &g, 0, 15);
        let ph = b.plan(&hit, ia.data_end).unwrap();
        assert_eq!(ph.kind, PlanKind::RowHit);
    }

    #[test]
    fn write_invalidates_written_slice() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        // Open and sense CD 0 of row 0.
        let r = access(Op::Read, &g, 0, 0);
        let pr = b.plan(&r, Cycle::ZERO).unwrap();
        let ir = b.commit(&r, &pr, Cycle::ZERO, pr.earliest_data);
        // Write the same slice.
        let w = access(Op::Write, &g, 0, 1);
        let pw = b.plan(&w, ir.completion).unwrap();
        let iw = b.commit(&w, &pw, ir.completion, pw.earliest_data);
        // Re-reading the slice is an underfetch (stale buffer), not a hit.
        let r2 = access(Op::Read, &g, 0, 0);
        let p2 = b.plan(&r2, iw.completion).unwrap();
        assert_eq!(p2.kind, PlanKind::Underfetch);
    }

    #[test]
    fn wide_line_occupies_multiple_cds() {
        let g = geom(8, 32);
        let mut b = FgnvmBank::new(
            &g,
            TimingConfig::paper_pcm().to_cycles().unwrap(),
            Modes::all(),
            true,
        )
        .unwrap();
        let a = access(Op::Read, &g, 0, 0);
        assert_eq!(a.coord.cd_count, 2);
        let p = b.plan(&a, Cycle::ZERO).unwrap();
        // Two 32 B slices sensed = 64 B = 512 bits.
        assert_eq!(p.sense_bits, 512);
        let ia = b.commit(&a, &p, Cycle::ZERO, p.earliest_data);
        // Both CDs' sense I/O are busy until the data latches.
        assert_eq!(b.cd_io_free_at(0), ia.data_start);
        assert_eq!(b.cd_io_free_at(1), ia.data_start);
        assert_eq!(b.cd_io_free_at(2), Cycle::ZERO);
    }

    #[test]
    fn too_many_cds_rejected() {
        let g = Geometry::builder()
            .row_bytes(4096)
            .line_bytes(8)
            .sags(8)
            .cds(256)
            .build()
            .unwrap();
        let err = FgnvmBank::new(
            &g,
            TimingConfig::paper_pcm().to_cycles().unwrap(),
            Modes::all(),
            true,
        )
        .unwrap_err();
        assert!(matches!(err, ConfigError::OutOfRange { field: "cds", .. }));
    }

    #[test]
    fn modes_from_bank_model() {
        let m = Modes::try_from(BankModel::fgnvm()).unwrap();
        assert_eq!(m, Modes::all());
        assert!(Modes::try_from(BankModel::Baseline).is_err());
    }

    #[test]
    fn column_path_spacing_applies_across_sags() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        let a = access(Op::Read, &g, 0, 0);
        let pa = b.plan(&a, Cycle::ZERO).unwrap();
        b.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
        // One cycle later the shared column command path is still busy.
        let other = access(Op::Read, &g, g.rows_per_sag(), 4);
        let blocked = b.plan(&other, Cycle::new(1)).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::ColumnPath);
        assert_eq!(blocked.retry_at, Cycle::new(4));
    }

    #[test]
    fn unshared_column_path_removes_spacing() {
        let g = geom(4, 4);
        let mut b = FgnvmBank::new(
            &g,
            TimingConfig::paper_pcm().to_cycles().unwrap(),
            Modes::all(),
            false,
        )
        .unwrap();
        let a = access(Op::Read, &g, 0, 0);
        let pa = b.plan(&a, Cycle::ZERO).unwrap();
        b.commit(&a, &pa, Cycle::ZERO, pa.earliest_data);
        let other = access(Op::Read, &g, g.rows_per_sag(), 4);
        assert!(b.plan(&other, Cycle::new(1)).is_ok());
    }

    #[test]
    fn write_pausing_lets_blocked_read_through() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all()).with_write_pausing(true);
        let w = access(Op::Write, &g, 0, 0);
        let pw = b.plan(&w, Cycle::ZERO).unwrap();
        let iw = b.commit(&w, &pw, Cycle::ZERO, pw.earliest_data);
        // A read to the SAME SAG (different row) during the write: blocked
        // without pausing, allowed with it — paying the pause overhead.
        let during = Cycle::new(20);
        let r = access(Op::Read, &g, 1, 4);
        let pr = b.plan(&r, during).unwrap();
        assert_eq!(pr.kind, PlanKind::Activate);
        assert_eq!(pr.earliest_data, during + CycleCount::new(4 + 48)); // pause + tRCD+tCAS
        let ir = b.commit(&r, &pr, during, pr.earliest_data);
        assert_eq!(b.stats().write_pauses, 1);
        // The paused write's SAG lock extended past its original end.
        assert!(b.sag_lock_until(0) > iw.completion);
        assert!(b.sag_lock_until(0) >= ir.data_end);
    }

    #[test]
    fn write_pausing_never_pauses_for_the_written_row() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all()).with_write_pausing(true);
        let w = access(Op::Write, &g, 0, 0);
        let pw = b.plan(&w, Cycle::ZERO).unwrap();
        b.commit(&w, &pw, Cycle::ZERO, pw.earliest_data);
        // Reading the row whose cells are mid-program is not allowed.
        let r = access(Op::Read, &g, 0, 4);
        let blocked = b.plan(&r, Cycle::new(20)).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::SagBusy);
    }

    #[test]
    fn write_pausing_skips_nearly_finished_writes() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all()).with_write_pausing(true);
        let w = access(Op::Write, &g, 0, 0);
        let pw = b.plan(&w, Cycle::ZERO).unwrap();
        let iw = b.commit(&w, &pw, Cycle::ZERO, pw.earliest_data);
        // With less than the pause threshold remaining, just wait.
        let late = Cycle::new(iw.completion.raw() - 6);
        let r = access(Op::Read, &g, 1, 4);
        let blocked = b.plan(&r, late).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::SagBusy);
    }

    #[test]
    fn write_pausing_disabled_by_default() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        let w = access(Op::Write, &g, 0, 0);
        let pw = b.plan(&w, Cycle::ZERO).unwrap();
        b.commit(&w, &pw, Cycle::ZERO, pw.earliest_data);
        let r = access(Op::Read, &g, 1, 4);
        assert!(b.plan(&r, Cycle::new(20)).is_err());
        assert_eq!(b.stats().write_pauses, 0);
    }

    #[test]
    fn paper_availability_claim_93_8_percent() {
        // §4: "for more realistically sized banks such as a 32×32 tile
        // bank, the remaining 31×31 tiles are still available …
        // approximately 93.8% of data in the bank is still able to be
        // accessed during a backgrounded write operation."
        let g = Geometry::builder()
            .rows_per_bank(32_768)
            .row_bytes(4096)
            .line_bytes(64)
            .sags(32)
            .cds(32)
            .build()
            .unwrap();
        let mut b = FgnvmBank::new(
            &g,
            TimingConfig::paper_pcm().to_cycles().unwrap(),
            Modes::all(),
            true,
        )
        .unwrap();
        // Start a write in (SAG 0, CD 0).
        let w = access(Op::Write, &g, 0, 0);
        let pw = b.plan(&w, Cycle::ZERO).unwrap();
        b.commit(&w, &pw, Cycle::ZERO, pw.earliest_data);
        // Probe one read per (SAG, CD) pair during the write (after the
        // tCCD window so only write locks can block).
        let during = Cycle::new(30);
        let mut accessible = 0u32;
        for sag in 0..32u32 {
            for cd in 0..32u32 {
                let row = sag * g.rows_per_sag() + 1;
                let lines_per_cd = g.lines_per_row() / g.cds();
                let line = cd * lines_per_cd;
                let probe = access(Op::Read, &g, row, line);
                assert_eq!(probe.coord.sag, sag);
                assert_eq!(probe.coord.cd_first, cd);
                if b.plan(&probe, during).is_ok() {
                    accessible += 1;
                }
            }
        }
        // 31 × 31 of 32 × 32 pairs = 93.8 %.
        assert_eq!(accessible, 31 * 31);
        assert!((f64::from(accessible) / 1024.0 - 0.938).abs() < 0.001);
    }

    #[test]
    fn write_to_open_row_keeps_wordline_but_stales_slice() {
        let g = geom(4, 4);
        let mut b = bank(4, 4, Modes::all());
        let r = access(Op::Read, &g, 0, 4); // CD 1
        let pr = b.plan(&r, Cycle::ZERO).unwrap();
        let ir = b.commit(&r, &pr, Cycle::ZERO, pr.earliest_data);
        // Write a *different* CD of the same open row: no activation.
        let w = access(Op::Write, &g, 0, 0); // CD 0
        let pw = b.plan(&w, ir.data_end).unwrap();
        assert_eq!(pw.earliest_data, ir.data_end + CycleCount::new(3)); // just tCWD
        let iw = b.commit(&w, &pw, ir.data_end, pw.earliest_data);
        // CD 1's slice survived; it is still a hit after the write.
        let hit = access(Op::Read, &g, 0, 5);
        let ph = b.plan(&hit, iw.completion).unwrap();
        assert_eq!(ph.kind, PlanKind::RowHit);
    }

    /// One random step of a plan/commit sequence: the access (op, SAG, row
    /// within the SAG, CD), how long to wait before planning it, and how
    /// far the controller delays the data burst past its earliest slot.
    type Step = (bool, u32, u32, u32, u64, u64);

    fn step_strategy() -> impl Strategy<Value = Step> {
        (any::<bool>(), 0u32..4, 0u32..3, 0u32..4, 0u64..40, 0u64..6)
    }

    /// Asserts the cached hint equals the sweep at `now` and at instants
    /// around and past every gate the floor can sit on.
    fn assert_hint_matches_reference(b: &FgnvmBank, now: Cycle) {
        let mut probes = vec![now, now + CycleCount::new(1), b.ready_floor];
        probes.extend(b.sags.lock.iter().copied());
        probes.extend(b.cd_io_free.iter().copied());
        probes.push(b.next_col);
        probes.push(b.serial_until);
        probes.push(b.write_block_until);
        for t in probes {
            for t in [t, t + CycleCount::new(1)] {
                assert_eq!(
                    b.next_ready_hint(t),
                    b.next_ready_hint_reference(t),
                    "cached hint diverged from the sweep at {t}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random plan/commit sequences over every mode set, column-path
        /// sharing and write-pausing combination: after every commit — and
        /// across a `save_state`/`load_state` round trip halfway through —
        /// the cached readiness floor answers exactly as the old sweep.
        #[test]
        fn cached_hint_equals_the_lock_and_io_sweep(
            steps in prop::collection::vec(step_strategy(), 1..60),
        ) {
            let g = geom(4, 4);
            let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
            for modes in [Modes::all(), Modes::none()] {
                for shared in [true, false] {
                    for pausing in [false, true] {
                        let fresh = || {
                            FgnvmBank::new(&g, timing, modes, shared)
                                .unwrap()
                                .with_write_pausing(pausing)
                        };
                        let mut b = fresh();
                        let mut now = Cycle::ZERO;
                        assert_hint_matches_reference(&b, now);
                        for (i, &(is_write, sag, row, cd, wait, delay)) in steps.iter().enumerate() {
                            if i == steps.len() / 2 {
                                let mut w = fgnvm_types::SnapshotWriter::new();
                                b.save_state(&mut w);
                                let bytes = w.finish();
                                let mut restored = fresh();
                                let mut r = fgnvm_types::SnapshotReader::new(&bytes).unwrap();
                                restored.load_state(&mut r).unwrap();
                                b = restored;
                                assert_hint_matches_reference(&b, now);
                            }
                            now += CycleCount::new(wait);
                            let op = if is_write { Op::Write } else { Op::Read };
                            let a = Access {
                                op,
                                row: sag * g.rows_per_sag() + row,
                                line: cd * (g.lines_per_row() / g.cds()),
                                coord: TileCoord { sag, cd_first: cd, cd_count: 1 },
                            };
                            // A pausing read's retry can land where the
                            // pause no longer applies: re-plan until it issues.
                            let plan = loop {
                                match b.plan(&a, now) {
                                    Ok(plan) => break plan,
                                    Err(blocked) => now = blocked.retry_at,
                                }
                            };
                            b.commit(&a, &plan, now, plan.earliest_data + CycleCount::new(delay));
                            assert_hint_matches_reference(&b, now);
                        }
                        // Toggling pausing on a busy bank re-derives the floor.
                        let toggled = b.clone().with_write_pausing(!pausing);
                        assert_hint_matches_reference(&toggled, now);
                    }
                }
            }
        }
    }
}
