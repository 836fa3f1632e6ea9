//! The complete simulated memory system: address mapping plus one
//! [`Controller`] per channel, ticked on a common clock.

use std::collections::{HashMap, HashSet};

use fgnvm_bank::{Access, BankStats, RefreshCycles};
use fgnvm_obs::{AttributionParams, InstantKind, Observer};
use fgnvm_types::address::{AddressMapper, MappingScheme, PhysAddr};
use fgnvm_types::config::BankModel;
use fgnvm_types::config::SystemConfig;
use fgnvm_types::error::{ConfigError, SimError};
use fgnvm_types::request::{Completion, Op, Request, RequestId};
use fgnvm_types::time::{Cycle, CycleCount};

use crate::controller::{Controller, Enqueue};
use crate::data::DataStore;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::queues::Pending;
use crate::stats::SystemStats;
use crate::wear::{StartGap, WearTracker};

/// One point of the time-series sampler: cumulative counters at an epoch
/// boundary. Consumers diff consecutive samples to get per-epoch rates
/// (bandwidth, power).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Cycle the sample was taken.
    pub at: Cycle,
    /// Reads completed so far.
    pub completed_reads: u64,
    /// Bits sensed so far (activation energy).
    pub sensed_bits: u64,
    /// Bits written so far (program energy).
    pub written_bits: u64,
    /// Read-queue occupancy at the sample instant.
    pub read_queue: usize,
    /// Write-queue occupancy at the sample instant.
    pub write_queue: usize,
}

/// A cycle-accurate FgNVM / baseline-NVM main-memory model.
///
/// Drive it by [`enqueue`](MemorySystem::enqueue)-ing line-aligned reads and
/// writes and calling [`tick`](MemorySystem::tick) once per memory cycle;
/// completions come back with their end-to-end latency.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use fgnvm_mem::MemorySystem;
/// use fgnvm_types::config::SystemConfig;
/// use fgnvm_types::request::Op;
/// use fgnvm_types::PhysAddr;
///
/// let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2)?)?;
/// let id = mem.enqueue(Op::Read, PhysAddr::new(0x1000)).expect("queue has room");
/// let completions = mem.run_until_idle(10_000);
/// assert!(completions.iter().any(|c| c.id == id));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: SystemConfig,
    mapper: AddressMapper,
    controllers: Vec<Controller>,
    energy_model: EnergyModel,
    data: DataStore,
    /// Optional per-(bank, row) write counters.
    wear: Option<WearTracker>,
    /// Optional Start-Gap wear levelers, one per global bank.
    levelers: Option<Vec<StartGap>>,
    /// Time-series sampling: epoch length in cycles (0 = disabled) and the
    /// collected samples.
    sample_epoch: u64,
    samples: Vec<Sample>,
    /// Bad-row remap table: (channel, bank_index, row) → spare row.
    /// Populated when ECC reports an uncorrectable error; later accesses to
    /// the faulty row are steered to the spare.
    bad_rows: HashMap<(u32, usize, u32), u32>,
    /// Spare rows consumed so far per (channel, bank_index); spares are
    /// carved from the top of the bank downward.
    spares_used: HashMap<(u32, usize), u32>,
    /// Rows retired outright per (channel, bank_index): stage two of the
    /// wear-out escalation ladder, entered when a failing row finds no
    /// spare. Retired rows are permanent capacity loss.
    retired: HashMap<(u32, usize), u32>,
    /// Banks escalated to read-only mode (stage three): once a bank's
    /// retired-row count crosses `ReliabilityConfig::read_only_row_threshold`
    /// its writes are rejected at the door while reads keep working.
    read_only: HashSet<(u32, usize)>,
    /// Stage four, set when the read-only bank count reaches
    /// `ReliabilityConfig::capacity_exhausted_banks`; surfaced to callers
    /// via [`check_capacity`](Self::check_capacity).
    capacity_exhausted: bool,
    /// Event-driven fast-forward: when enabled, the drain loops jump the
    /// clock over provably dead stretches instead of single-stepping. The
    /// two modes are bit-identical in everything observable.
    fast_forward: bool,
    /// Observability layer (spans + heatmap + trace); `None` by default so
    /// the hot path pays nothing. Hooks fire only from cycle-stepped code
    /// paths — never from `skip_to` — so fast-forwarded runs produce
    /// bit-identical observability output.
    observer: Option<Box<Observer>>,
    now: Cycle,
    next_id: u64,
    stats: SystemStats,
}

impl MemorySystem {
    /// Builds the memory system described by `config` with the default
    /// (row-buffer-friendly) address mapping.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration fails validation.
    pub fn new(config: SystemConfig) -> Result<Self, ConfigError> {
        Self::with_mapping(config, MappingScheme::default())
    }

    /// Builds the memory system with an explicit address-mapping scheme.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration fails validation.
    pub fn with_mapping(config: SystemConfig, scheme: MappingScheme) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut controllers = Vec::with_capacity(config.geometry.channels() as usize);
        for channel in 0..config.geometry.channels() {
            controllers.push(Controller::new_for_channel(&config, channel)?);
        }
        Ok(MemorySystem {
            mapper: AddressMapper::new(config.geometry, scheme),
            energy_model: EnergyModel::new(&config),
            data: DataStore::new(config.geometry.line_bytes()),
            config,
            controllers,
            wear: None,
            levelers: None,
            sample_epoch: 0,
            samples: Vec::new(),
            bad_rows: HashMap::new(),
            spares_used: HashMap::new(),
            retired: HashMap::new(),
            read_only: HashSet::new(),
            capacity_exhausted: false,
            fast_forward: true,
            observer: None,
            now: Cycle::ZERO,
            next_id: 0,
            stats: SystemStats::new(),
        })
    }

    /// Enables the observability layer (request lifecycle spans, the S×C
    /// tile heatmap, and Chrome trace export), sized from the configured
    /// bank geometry. Idempotent per run: calling it again replaces the
    /// observer with a fresh one.
    pub fn enable_observer(&mut self) {
        let g = &self.config.geometry;
        // The attribution classifier needs the model facts: which bank
        // resources exist and which structural modes are on.
        let (serialized, full_row_sense, write_blocks_bank) = match self.config.bank_model {
            BankModel::Baseline | BankModel::Dram => (true, true, true),
            BankModel::Fgnvm {
                partial_activation,
                multi_activation,
                background_writes,
            } => (!multi_activation, !partial_activation, !background_writes),
        };
        let timing = self
            .config
            .timing
            .to_cycles()
            .expect("config validated at construction");
        let t_faw = matches!(self.config.bank_model, BankModel::Dram)
            .then(|| RefreshCycles::ddr3_like().t_faw.raw());
        self.observer = Some(Box::new(Observer::with_params(AttributionParams {
            sags: g.sags(),
            cds: g.cds(),
            serialized,
            full_row_sense,
            write_blocks_bank,
            t_rcd: timing.t_rcd.raw(),
            t_wp: timing.t_wp.raw(),
            t_faw,
            banks_per_rank: g.banks_per_rank(),
        })));
    }

    /// The observer, if enabled.
    pub fn observer(&self) -> Option<&Observer> {
        self.observer.as_deref()
    }

    /// Mutable access to the observer, if enabled (drivers use this to
    /// roll telemetry windows at boundary landings).
    pub fn observer_mut(&mut self) -> Option<&mut Observer> {
        self.observer.as_deref_mut()
    }

    /// Detaches and returns the observer (ends observation).
    pub fn take_observer(&mut self) -> Option<Box<Observer>> {
        self.observer.take()
    }

    /// Enables continuous telemetry (windowed time-series engine + flight
    /// recorder) on the observer, attaching an observer first if none is
    /// enabled. Replaces any existing telemetry state.
    pub fn enable_telemetry(&mut self, window_cycles: u64, retention: usize, flight: usize) {
        if self.observer.is_none() {
            self.enable_observer();
        }
        let obs = self.observer.as_deref_mut().expect("observer just enabled");
        obs.enable_timeseries(window_cycles, retention);
        obs.enable_flight(flight);
    }

    /// Enables the issue-audit layer (per-decision records, measured
    /// co-issue opportunity) on the observer, attaching an observer first
    /// if none is enabled. Idempotent: an already-running audit keeps its
    /// accumulated log.
    pub fn enable_audit(&mut self) {
        if self.observer.is_none() {
            self.enable_observer();
        }
        let obs = self.observer.as_deref_mut().expect("observer just enabled");
        obs.enable_audit();
    }

    /// Channels currently in write-drain mode.
    pub fn draining_channels(&self) -> usize {
        self.controllers.iter().filter(|c| c.is_draining()).count()
    }

    /// Samples queue occupancy and drain state into the telemetry gauges,
    /// so the next window to close records the occupancy at its end cycle.
    /// No-op without an observer or with telemetry disabled.
    pub fn sample_telemetry_gauges(&mut self) {
        let read_queue = self.read_queue_len() as u64;
        let write_queue = self.write_queue_len() as u64;
        let draining = self.draining_channels() as u64;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.set_telemetry_gauges(read_queue, write_queue, draining);
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Presents a request. Returns its id when accepted (or satisfied
    /// immediately by forwarding/merging), or `None` when the target queue
    /// is full — the caller should stall and retry.
    pub fn enqueue(&mut self, op: Op, addr: PhysAddr) -> Option<RequestId> {
        self.enqueue_for(op, addr, 0)
    }

    /// Like [`enqueue`](Self::enqueue), but tags the request as belonging
    /// to `tenant`. The tag rides the request through the controller into
    /// its completion, the per-tenant [`SystemStats`] counters, and every
    /// observer hook.
    pub fn enqueue_for(&mut self, op: Op, addr: PhysAddr, tenant: u16) -> Option<RequestId> {
        let addr = addr.line_aligned(self.config.geometry.line_bytes());
        let mut decoded = self.mapper.decode(addr);
        let global_bank = self.global_bank(decoded.channel, decoded.rank, decoded.bank);
        // Wear leveling rotates the logical→physical row mapping.
        if let Some(levelers) = &self.levelers {
            let leveler = &levelers[global_bank];
            let leveled_rows = self.config.geometry.rows_per_bank() - 1;
            // One physical row per bank is the Start-Gap spare; the top
            // logical row aliases its neighbour (a real system would
            // expose one row less of capacity to software).
            let logical = decoded.row.min(leveled_rows - 1);
            decoded.row = leveler.map(logical);
        }
        let outcome = self.enqueue_physical(op, addr, decoded, tenant);
        if outcome.is_some() && op.is_write() {
            if let Some(wear) = &mut self.wear {
                wear.record(global_bank as u32, decoded.row);
            }
            self.note_leveled_write(global_bank);
        }
        outcome
    }

    /// Enqueues at already-resolved physical coordinates (used for
    /// wear-leveling row copies, which must bypass the remapping).
    fn enqueue_physical(
        &mut self,
        op: Op,
        addr: PhysAddr,
        mut decoded: fgnvm_types::address::DecodedAddr,
        tenant: u16,
    ) -> Option<RequestId> {
        let bank_index =
            (decoded.rank * self.config.geometry.banks_per_rank() + decoded.bank) as usize;
        if op.is_write() && self.read_only.contains(&(decoded.channel, bank_index)) {
            // Stage three of the wear-out ladder: the bank is frozen
            // read-only. Reads (including forwarding) keep working.
            self.stats.read_only_write_rejections += 1;
            return None;
        }
        decoded.row = self.remapped_row(decoded.channel, bank_index, decoded.row);
        let coord = self.mapper.tile_coord(decoded);
        let id = RequestId::new(self.next_id);
        let pending = Pending {
            request: Request::new(id, op, addr, self.now).with_tenant(tenant),
            decoded,
            access: Access {
                op,
                row: decoded.row,
                line: decoded.line,
                coord,
            },
            bank_index,
        };
        let controller = &mut self.controllers[decoded.channel as usize];
        match controller.enqueue(pending, self.now, &mut self.stats) {
            Enqueue::Accepted | Enqueue::Satisfied => {
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_enqueued(id.raw(), op.is_read(), tenant, self.now.raw());
                }
                self.next_id += 1;
                Some(id)
            }
            Enqueue::Full => None,
        }
    }

    /// Steers accesses away from rows the ECC layer declared dead. Identity
    /// for healthy rows; rows in the bad-row table go to their spare,
    /// following chains: a spare serving as a remap target can itself fail
    /// later and be remapped onward, and accesses must land on the live end.
    /// Chains are acyclic — a remap target is never a known-failing row at
    /// allocation time — so the walk terminates.
    fn remapped_row(&self, channel: u32, bank_index: usize, row: u32) -> u32 {
        let mut current = row;
        while let Some(&spare) = self.bad_rows.get(&(channel, bank_index, current)) {
            current = spare;
        }
        current
    }

    /// Rows remapped to spares so far (graceful-degradation table size).
    pub fn remapped_row_count(&self) -> usize {
        self.bad_rows.len()
    }

    /// Rows retired outright (failed with no spare available), device-wide.
    pub fn retired_row_count(&self) -> u64 {
        self.stats.retired_rows
    }

    /// Banks currently frozen in read-only mode by the escalation ladder.
    pub fn read_only_bank_count(&self) -> usize {
        self.read_only.len()
    }

    /// True once the wear-out ladder reached its final stage: the
    /// read-only bank count crossed the configured capacity floor.
    pub fn capacity_exhausted(&self) -> bool {
        self.capacity_exhausted
    }

    /// Device-health check for drivers: `Ok` while capacity remains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CapacityExhausted`] once enough banks have
    /// dropped to read-only mode (see
    /// `ReliabilityConfig::capacity_exhausted_banks`). The system keeps
    /// serving reads past this point; the error is the signal that a
    /// long-horizon run has reached end-of-life.
    pub fn check_capacity(&self) -> Result<(), SimError> {
        if self.capacity_exhausted {
            Err(SimError::CapacityExhausted {
                read_only_banks: self.read_only.len() as u32,
                threshold: self.config.reliability.capacity_exhausted_banks,
                retired_rows: self.stats.retired_rows,
                now: self.now.raw(),
            })
        } else {
            Ok(())
        }
    }

    fn global_bank(&self, channel: u32, rank: u32, bank: u32) -> usize {
        let g = &self.config.geometry;
        ((channel * g.ranks_per_channel() + rank) * g.banks_per_rank() + bank) as usize
    }

    /// Advances the bank's Start-Gap state and issues the gap-copy traffic
    /// when a rotation fires. The copy is modeled as one internal row read
    /// plus one internal write through the normal request path (real
    /// hardware streams the copy through the row buffer), so its bandwidth
    /// and energy costs appear in the statistics.
    fn note_leveled_write(&mut self, global_bank: usize) {
        let Some(levelers) = &mut self.levelers else {
            return;
        };
        let Some(rotation) = levelers[global_bank].note_write() else {
            return;
        };
        let g = self.config.geometry;
        let banks = g.banks_per_rank();
        let ranks = g.ranks_per_channel();
        let channel = global_bank as u32 / (ranks * banks);
        let rank = (global_bank as u32 / banks) % ranks;
        let bank = global_bank as u32 % banks;
        let src = fgnvm_types::address::DecodedAddr {
            channel,
            rank,
            bank,
            row: rotation.src_row,
            line: 0,
        };
        let dst = fgnvm_types::address::DecodedAddr {
            row: rotation.dst_row,
            ..src
        };
        let src_addr = self.mapper.encode(src);
        let dst_addr = self.mapper.encode(dst);
        // Best effort: if the queues are full the copy traffic is simply
        // deferred to the bank's next rotation (the mapping has already
        // moved; only the modeled copy cost is skipped).
        let _ = self.enqueue_physical(Op::Read, src_addr, src, 0);
        if self.enqueue_physical(Op::Write, dst_addr, dst, 0).is_some() {
            if let Some(wear) = &mut self.wear {
                wear.record(global_bank as u32, rotation.dst_row);
            }
        }
    }

    /// Enables per-(bank, row) write counting; see [`wear`](Self::wear).
    pub fn enable_wear_tracking(&mut self) {
        let g = &self.config.geometry;
        self.wear = Some(WearTracker::new(g.total_banks(), g.rows_per_bank()));
    }

    /// Enables Start-Gap wear leveling with a gap movement every
    /// `interval` writes per bank (classic value: 100).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `interval` is zero or the geometry has
    /// fewer than two rows per bank.
    pub fn enable_start_gap(&mut self, interval: u32) -> Result<(), fgnvm_types::ConfigError> {
        let g = &self.config.geometry;
        if g.rows_per_bank() < 2 {
            return Err(fgnvm_types::ConfigError::Invalid {
                field: "rows_per_bank",
                reason: "start-gap needs at least two rows (one spare)",
            });
        }
        let mut levelers = Vec::with_capacity(g.total_banks() as usize);
        for _ in 0..g.total_banks() {
            levelers.push(StartGap::new(g.rows_per_bank() - 1, interval)?);
        }
        self.levelers = Some(levelers);
        Ok(())
    }

    /// Enables per-channel command logging (most recent `capacity`
    /// commands each); see [`command_log`](Self::command_log).
    pub fn enable_command_log(&mut self, capacity: usize) {
        for c in &mut self.controllers {
            c.enable_command_log(capacity);
        }
    }

    /// The command log of `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn command_log(&self, channel: u32) -> &crate::cmdlog::CommandLog {
        self.controllers[channel as usize].command_log()
    }

    /// Occupancy snapshots for every bank, channel-major (see
    /// [`fgnvm_bank::OccupancySnapshot`]). Models without introspection
    /// contribute empty snapshots.
    pub fn bank_occupancy(&self) -> Vec<fgnvm_bank::OccupancySnapshot> {
        self.controllers
            .iter()
            .flat_map(Controller::occupancy)
            .collect()
    }

    /// Test-only: deliberately breaks every channel's scheduler (see
    /// `Controller::set_chaos`). Exists so the `fgnvm-check` conformance
    /// oracle and fuzzer can prove they catch scheduler bugs; never enable
    /// outside tests.
    #[doc(hidden)]
    pub fn debug_force_illegal_issue(&mut self, enabled: bool) {
        for c in &mut self.controllers {
            c.set_chaos(enabled);
        }
    }

    /// Enables time-series sampling every `epoch_cycles` cycles (see
    /// [`samples`](Self::samples)). Pass 0 to disable.
    pub fn enable_sampling(&mut self, epoch_cycles: u64) {
        self.sample_epoch = epoch_cycles;
        self.samples.clear();
    }

    /// Samples collected so far (cumulative counters; diff neighbours for
    /// per-epoch rates).
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The wear counters, if tracking was enabled.
    pub fn wear(&self) -> Option<&WearTracker> {
        self.wear.as_ref()
    }

    /// Total Start-Gap rotations across banks, if leveling is enabled.
    pub fn start_gap_rotations(&self) -> Option<u64> {
        self.levelers
            .as_ref()
            .map(|ls| ls.iter().map(StartGap::rotations).sum())
    }

    /// Advances one memory cycle, returning any completions that finished.
    pub fn tick(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.tick_into(&mut out);
        out
    }

    /// Advances one memory cycle, appending completions to `out` (avoids
    /// per-cycle allocation in hot loops).
    pub fn tick_into(&mut self, out: &mut Vec<Completion>) {
        self.tick_into_report(out);
    }

    /// Like [`tick_into`](Self::tick_into), additionally reporting whether
    /// any controller issued a command. The fast-forward loops use this to
    /// detect dead cycles without re-deriving the issue decision.
    fn tick_into_report(&mut self, out: &mut Vec<Completion>) -> bool {
        // Spare rows reserved at the top of each bank for remapping;
        // once they run out, failing rows escalate down the wear-out
        // ladder: retirement → per-bank read-only → capacity exhaustion.
        let spare_rows = self.config.reliability.spare_rows_per_bank;
        let mut issued_any = false;
        for (channel, controller) in self.controllers.iter_mut().enumerate() {
            issued_any |=
                controller.tick(self.now, &mut self.stats, out, self.observer.as_deref_mut());
            for (bank_index, row) in controller.take_bad_rows() {
                let key = (channel as u32, bank_index, row);
                if self.bad_rows.contains_key(&key) {
                    continue;
                }
                let used = self
                    .spares_used
                    .entry((channel as u32, bank_index))
                    .or_insert(0);
                while *used < spare_rows {
                    let spare = self.config.geometry.rows_per_bank() - 1 - *used;
                    *used += 1;
                    if spare == row {
                        // The failing row is itself in the spare region;
                        // burn the slot but leave it unmapped.
                        break;
                    }
                    if self
                        .bad_rows
                        .contains_key(&(channel as u32, bank_index, spare))
                    {
                        // The candidate spare has itself already failed:
                        // handing it out would alias two logical rows onto
                        // one dead physical row. Burn it and keep looking.
                        self.stats.remap_collisions += 1;
                        continue;
                    }
                    self.bad_rows.insert(key, spare);
                    self.stats.remapped_rows += 1;
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.on_instant(
                            InstantKind::Remap,
                            channel as u32,
                            bank_index as u32,
                            self.now.raw(),
                        );
                    }
                    break;
                }
                if self.bad_rows.contains_key(&key) {
                    continue;
                }
                // No spare could absorb the failure: retire the row
                // outright (permanent capacity loss) and walk the ladder.
                let bank_key = (channel as u32, bank_index);
                let retired = self.retired.entry(bank_key).or_insert(0);
                *retired += 1;
                let bank_retired = *retired;
                self.stats.retired_rows += 1;
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_instant(
                        InstantKind::RowRetired,
                        channel as u32,
                        bank_index as u32,
                        self.now.raw(),
                    );
                }
                let threshold = self.config.reliability.read_only_row_threshold;
                if threshold > 0 && bank_retired >= threshold && self.read_only.insert(bank_key) {
                    // The bank has lost too many rows: freeze it read-only
                    // so the surviving data stays reachable.
                    self.stats.read_only_banks += 1;
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.on_instant(
                            InstantKind::BankReadOnly,
                            channel as u32,
                            bank_index as u32,
                            self.now.raw(),
                        );
                    }
                    let floor = self.config.reliability.capacity_exhausted_banks;
                    if floor > 0 && self.read_only.len() as u32 >= floor && !self.capacity_exhausted
                    {
                        self.capacity_exhausted = true;
                        if let Some(obs) = self.observer.as_deref_mut() {
                            obs.on_instant(
                                InstantKind::CapacityExhausted,
                                channel as u32,
                                bank_index as u32,
                                self.now.raw(),
                            );
                        }
                    }
                }
            }
        }
        if self.sample_epoch > 0
            && self.now.raw() > 0
            && self.now.raw().is_multiple_of(self.sample_epoch)
        {
            // Cycle 0 is deliberately not sampled: no work can have
            // happened yet, and the empty sample would skew epoch diffs.
            self.record_sample(self.now);
        }
        self.now.advance();
        issued_any
    }

    /// Records one time-series sample stamped `at` from the current
    /// counters (shared by the per-tick sampler and the fast-forward
    /// backfill, which must produce identical samples).
    fn record_sample(&mut self, at: Cycle) {
        let banks = self.bank_stats();
        self.samples.push(Sample {
            at,
            completed_reads: self.stats.completed_reads,
            sensed_bits: banks.sensed_bits,
            written_bits: banks.written_bits,
            read_queue: self.read_queue_len(),
            write_queue: self.write_queue_len(),
        });
    }

    /// The earliest instant at or after [`now`](Self::now) at which a tick
    /// could change state — retire a completion or issue a command — across
    /// all channels. `None` when the system is idle (no instant ever will).
    ///
    /// The result is a lower bound (see
    /// [`Bank::next_ready_hint`](fgnvm_bank::Bank::next_ready_hint) for the
    /// contract): ticking at it may still do nothing, but skipping to it
    /// can never jump over real work, which is what makes fast-forward
    /// bit-identical to cycle-stepping.
    pub fn next_event_at(&self) -> Option<Cycle> {
        let mut earliest: Option<Cycle> = None;
        for c in &self.controllers {
            if let Some(at) = c.next_event_at(self.now) {
                earliest = Some(match earliest {
                    Some(e) => e.min(at),
                    None => at,
                });
                if at <= self.now {
                    break; // cannot get any earlier
                }
            }
        }
        earliest
    }

    /// The reference implementation of [`next_event_at`](Self::next_event_at):
    /// a full linear scan of every channel's event heap and queued-request
    /// bank gates, bypassing the per-channel calendar memo. The memoized
    /// path must agree exactly; the calendar differential suite pins it.
    pub fn next_event_at_linear(&self) -> Option<Cycle> {
        self.controllers
            .iter()
            .filter_map(|c| c.next_event_at_linear(self.now))
            .min()
    }

    /// True while any channel has a completion event scheduled.
    fn has_pending_events(&self) -> bool {
        self.controllers.iter().any(Controller::has_pending_events)
    }

    /// Jumps the clock to `target`, accounting for everything the skipped
    /// ticks would have done. Only sound when [`next_event_at`] proved the
    /// skipped range dead (no retirement or issue possible), which leaves
    /// queue and bank state frozen: the per-tick queue-depth statistics are
    /// bulk-added and every crossed sampler epoch is backfilled, so a
    /// fast-forwarded run stays bit-identical to a cycle-stepped one.
    ///
    /// [`next_event_at`]: Self::next_event_at
    fn skip_to(&mut self, target: Cycle) {
        debug_assert!(target > self.now, "skip must move the clock forward");
        let skipped = target.saturating_since(self.now).raw();
        for c in &mut self.controllers {
            c.account_skipped_cycles(skipped, &mut self.stats);
            // The elided ticks would each have settled the write-drain
            // hysteresis; occupancy is frozen across the skip, so one
            // update folds them all (see `Controller::settle_drain`).
            // Settling here keeps the flag's trajectory — and with it the
            // snapshot bytes — identical to a cycle-stepped run even when
            // enqueues land between sparse ticks.
            c.settle_drain();
        }
        if self.sample_epoch > 0 {
            // Backfill the sample every skipped tick in [now, target) would
            // have recorded; counters are frozen across the skip, so the
            // current values are exactly what those ticks would have seen.
            let epoch = self.sample_epoch;
            let mut boundary = self.now.raw().next_multiple_of(epoch);
            if boundary == 0 {
                boundary = epoch; // cycle 0 is never sampled
            }
            while boundary < target.raw() {
                self.record_sample(Cycle::new(boundary));
                boundary += epoch;
            }
        }
        self.now.advance_to(target);
    }

    /// Advances the clock to exactly `target`, appending completions —
    /// observably identical to calling [`tick_into`](Self::tick_into) in a
    /// loop until [`now`](Self::now) reaches `target`, but with dead
    /// stretches jumped in O(1) when fast-forward is enabled.
    pub fn tick_to(&mut self, target: Cycle, out: &mut Vec<Completion>) {
        while self.now < target {
            if self.fast_forward {
                match self.next_event_at() {
                    None => {
                        self.skip_to(target);
                        break;
                    }
                    Some(at) if at >= target => {
                        self.skip_to(target);
                        break;
                    }
                    Some(at) if at > self.now => {
                        self.skip_to(at);
                    }
                    Some(_) => {}
                }
            }
            self.tick_into(out);
        }
    }

    /// Enables or disables event-driven fast-forward (enabled by default).
    /// Both modes produce bit-identical completions, statistics, command
    /// logs, and samples — they differ only in wall-clock speed. The
    /// differential tests pin that equivalence; disabling is useful mainly
    /// for those tests and for debugging the fast path itself.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
        for c in &mut self.controllers {
            // Event-driven operation affords the controllers an O(banks)
            // issue-gate pre-check per (sparse) tick; stepped mode keeps
            // the plain per-cycle reference path. Both are bit-identical.
            c.set_event_driven(enabled);
        }
    }

    /// True while event-driven fast-forward is enabled.
    pub fn fast_forward_enabled(&self) -> bool {
        self.fast_forward
    }

    /// Runs until every queue and event list is empty, or `max_cycles`
    /// elapse. Returns all completions observed.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to drain within `max_cycles` — queued
    /// work should always finish, so hitting the bound indicates a deadlock.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        let deadline = self.now + CycleCount::new(max_cycles);
        while !self.is_idle() {
            assert!(
                self.now < deadline,
                "memory system failed to drain in {max_cycles} cycles"
            );
            if self.fast_forward {
                if let Some(at) = self.next_event_at() {
                    // Jump the dead stretch; cap at the deadline so a
                    // wedged system still hits the same panic at the same
                    // instant as a cycle-stepped run.
                    let hop = at.min(deadline);
                    if hop > self.now {
                        self.skip_to(hop);
                        continue;
                    }
                }
            }
            self.tick_into(&mut out);
        }
        out
    }

    /// Runs until every queue and event list is empty, converting a stall
    /// into a structured [`SimError::Watchdog`] instead of panicking: if no
    /// request completes for `stall_cycles` consecutive cycles while work
    /// is still pending, the watchdog trips and the error carries the queue
    /// occupancies plus a per-channel state dump for diagnosis.
    ///
    /// This is the graceful counterpart of
    /// [`run_until_idle`](Self::run_until_idle) for workloads (wedged
    /// reliability configs, adversarial traces) where forward progress is
    /// not guaranteed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Watchdog`] when the system makes no progress for
    /// `stall_cycles` cycles with requests still outstanding.
    pub fn try_run_until_idle(&mut self, stall_cycles: u64) -> Result<Vec<Completion>, SimError> {
        let mut out = Vec::new();
        let mut last_progress = self.now;
        while !self.is_idle() {
            if self.now.saturating_since(last_progress).raw() >= stall_cycles {
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_instant(InstantKind::Watchdog, 0, 0, self.now.raw());
                }
                return Err(self.watchdog_error(stall_cycles));
            }
            if self.fast_forward {
                if let Some(at) = self.next_event_at() {
                    // Cap each hop at the watchdog horizon so a
                    // fast-forwarded run trips at exactly the same instant,
                    // with the same diagnostic snapshot, as a stepped one.
                    let horizon = last_progress + CycleCount::new(stall_cycles);
                    let hop = at.min(horizon);
                    if hop > self.now {
                        self.skip_to(hop);
                        // Mirror the stepped loop across the skipped
                        // stretch: events cannot retire during a skip, so
                        // if one is pending now it was pending at every
                        // skipped tick, each of which would have refreshed
                        // `last_progress`.
                        if self.has_pending_events() {
                            last_progress = self.now;
                        }
                        continue;
                    }
                }
            }
            let before = out.len();
            self.tick_into(&mut out);
            // Progress is a completion — observed, or still in flight: a
            // pending event retires at a known finite instant, so the long
            // (1+k)·tWP lock window of a legitimate retried write is not a
            // stall. A genuinely wedged system has neither: verify-failed
            // writes bounce back to the queue *without* scheduling an
            // event, so its event heaps stay empty and the watchdog trips.
            if out.len() > before || self.has_pending_events() {
                last_progress = self.now;
            }
        }
        Ok(out)
    }

    /// Builds the watchdog error with a snapshot of every channel's state.
    fn watchdog_error(&self, stall_cycles: u64) -> SimError {
        let mut state = String::new();
        for (channel, controller) in self.controllers.iter().enumerate() {
            state.push_str(&format!(
                "channel {channel}: {}\n",
                controller.state_dump(self.now)
            ));
        }
        SimError::Watchdog {
            stall_cycles,
            now: self.now.raw(),
            read_queue: self.read_queue_len(),
            write_queue: self.write_queue_len(),
            state,
        }
    }

    /// True when no requests are queued or in flight anywhere.
    pub fn is_idle(&self) -> bool {
        self.controllers.iter().all(Controller::is_idle)
    }

    /// System-level counters.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Exports the system's counters and gauges into `reg` under the
    /// `mem.*` namespace: queue traffic, latency aggregates and
    /// percentiles, reliability events, wear, energy, and bus occupancy.
    pub fn export_metrics(&self, reg: &mut fgnvm_obs::Registry) {
        let s = &self.stats;
        reg.set_counter("mem.enqueued_reads", s.enqueued_reads);
        reg.set_counter("mem.enqueued_writes", s.enqueued_writes);
        reg.set_counter("mem.forwarded_reads", s.forwarded_reads);
        reg.set_counter("mem.merged_writes", s.merged_writes);
        reg.set_counter("mem.completed_reads", s.completed_reads);
        reg.set_counter("mem.completed_writes", s.completed_writes);
        reg.set_counter("mem.rejected", s.rejected);
        reg.set_gauge("mem.avg_read_latency", s.avg_read_latency());
        reg.set_gauge("mem.avg_write_latency", s.avg_write_latency());
        reg.set_counter("mem.read_p50", s.read_latency_percentile(0.50));
        reg.set_counter("mem.read_p95", s.read_latency_percentile(0.95));
        reg.set_counter("mem.read_p99", s.read_latency_percentile(0.99));
        reg.set_counter("mem.read_latency_max", s.read_latency_max.raw());
        reg.set_counter("mem.write_p50", s.write_latency_percentile(0.50));
        reg.set_counter("mem.write_p95", s.write_latency_percentile(0.95));
        reg.set_counter("mem.write_p99", s.write_latency_percentile(0.99));
        reg.set_counter("mem.write_latency_max", s.write_latency_max.raw());
        reg.set_gauge("mem.avg_read_queue_depth", s.avg_read_queue_depth());
        reg.set_counter("mem.corrected_errors", s.corrected_errors);
        reg.set_counter("mem.uncorrectable_errors", s.uncorrectable_errors);
        reg.set_counter("mem.remapped_rows", s.remapped_rows);
        reg.set_counter("mem.remap_collisions", s.remap_collisions);
        reg.set_counter("mem.retired_rows", s.retired_rows);
        reg.set_counter("mem.read_only_banks", s.read_only_banks);
        reg.set_counter(
            "mem.read_only_write_rejections",
            s.read_only_write_rejections,
        );
        reg.set_counter("mem.reissued_writes", s.reissued_writes);
        reg.set_counter("mem.bus_busy_cycles", self.bus_busy_cycles().raw());
        reg.set_gauge("mem.bank_load_imbalance", self.bank_load_imbalance());
        let energy = self.energy();
        reg.set_gauge("mem.energy.sense_pj", energy.sense_pj);
        reg.set_gauge("mem.energy.write_pj", energy.write_pj);
        reg.set_gauge("mem.energy.background_pj", energy.background_pj);
        if let Some(wear) = &self.wear {
            reg.set_counter("mem.wear.total_writes", wear.total_writes());
            reg.set_counter("mem.wear.max_row_writes", u64::from(wear.max_row_writes()));
            reg.set_gauge("mem.wear.imbalance", wear.imbalance());
        }
        if let Some(rotations) = self.start_gap_rotations() {
            reg.set_counter("mem.start_gap_rotations", rotations);
        }
        // Per-tenant counters appear only once a tagged request has been
        // seen (single-tenant runs keep their metric set unchanged aside
        // from the implicit tenant-0 block).
        for (i, t) in s.tenants.iter().enumerate() {
            let p = format!("mem.tenant.{i}");
            reg.set_counter(&format!("{p}.enqueued_reads"), t.enqueued_reads);
            reg.set_counter(&format!("{p}.enqueued_writes"), t.enqueued_writes);
            reg.set_counter(&format!("{p}.completed_reads"), t.completed_reads);
            reg.set_counter(&format!("{p}.completed_writes"), t.completed_writes);
            reg.set_counter(&format!("{p}.read_latency_total"), t.read_latency_total);
            reg.set_counter(&format!("{p}.write_latency_total"), t.write_latency_total);
            reg.set_counter(&format!("{p}.read_p50"), t.read_latency_percentile(0.50));
            reg.set_counter(&format!("{p}.read_p95"), t.read_latency_percentile(0.95));
            reg.set_counter(&format!("{p}.read_p99"), t.read_latency_percentile(0.99));
            reg.set_counter(&format!("{p}.write_p99"), t.write_latency_percentile(0.99));
        }
        self.bank_stats().export_metrics(reg, "bank");
    }

    /// Aggregated per-bank counters across all channels.
    pub fn bank_stats(&self) -> BankStats {
        let mut total = BankStats::new();
        for c in &self.controllers {
            total += c.bank_stats();
        }
        total
    }

    /// Per-bank counters across all channels, in (channel, rank, bank)
    /// order. Useful for spotting load imbalance.
    pub fn bank_stats_per_bank(&self) -> Vec<BankStats> {
        self.controllers
            .iter()
            .flat_map(Controller::bank_stats_per_bank)
            .collect()
    }

    /// Coefficient of variation of per-bank access counts (reads + writes):
    /// 0 = perfectly balanced load; large values mean a few banks carry the
    /// traffic. Zero when nothing was accessed.
    pub fn bank_load_imbalance(&self) -> f64 {
        let loads: Vec<f64> = self
            .bank_stats_per_bank()
            .iter()
            .map(|s| (s.reads + s.writes) as f64)
            .collect();
        let total: f64 = loads.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let mean = total / loads.len() as f64;
        let var = loads.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / loads.len() as f64;
        var.sqrt() / mean
    }

    /// Energy consumed so far, per the paper's model.
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy_model
            .breakdown(&self.bank_stats(), self.now.saturating_since(Cycle::ZERO))
    }

    /// Total data-bus occupancy across channels.
    pub fn bus_busy_cycles(&self) -> CycleCount {
        self.controllers
            .iter()
            .map(Controller::bus_busy_cycles)
            .sum()
    }

    /// Occupancy of the channel read queues (for backpressure inspection).
    pub fn read_queue_len(&self) -> usize {
        self.controllers
            .iter()
            .map(Controller::read_queue_len)
            .sum()
    }

    /// Occupancy of the channel write queues.
    pub fn write_queue_len(&self) -> usize {
        self.controllers
            .iter()
            .map(Controller::write_queue_len)
            .sum()
    }

    /// The address mapper in use (exposed for trace generators that want to
    /// target specific banks/rows).
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Enqueues a speculative prefetch read. Prefetches are deprioritized
    /// by the scheduler (demand misses go first) and throttled at the
    /// door: when the target channel's read queue is more than ¾ full the
    /// prefetch is dropped (`None`) so speculation never starves demand.
    pub fn enqueue_prefetch(&mut self, addr: PhysAddr) -> Option<RequestId> {
        let addr = addr.line_aligned(self.config.geometry.line_bytes());
        let decoded = self.mapper.decode(addr);
        let controller = &self.controllers[decoded.channel as usize];
        if controller.read_queue_len() * 4 > self.config.queue_entries * 3 {
            return None;
        }
        let mut decoded = decoded;
        if let Some(levelers) = &self.levelers {
            let global_bank = self.global_bank(decoded.channel, decoded.rank, decoded.bank);
            let leveled_rows = self.config.geometry.rows_per_bank() - 1;
            let logical = decoded.row.min(leveled_rows - 1);
            decoded.row = levelers[global_bank].map(logical);
        }
        let bank_index =
            (decoded.rank * self.config.geometry.banks_per_rank() + decoded.bank) as usize;
        decoded.row = self.remapped_row(decoded.channel, bank_index, decoded.row);
        let coord = self.mapper.tile_coord(decoded);
        let id = RequestId::new(self.next_id);
        let pending = Pending {
            request: Request::new(id, Op::Read, addr, self.now).as_prefetch(),
            decoded,
            access: Access {
                op: Op::Read,
                row: decoded.row,
                line: decoded.line,
                coord,
            },
            bank_index,
        };
        let controller = &mut self.controllers[decoded.channel as usize];
        match controller.enqueue(pending, self.now, &mut self.stats) {
            Enqueue::Accepted | Enqueue::Satisfied => {
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_enqueued(id.raw(), true, 0, self.now.raw());
                }
                self.next_id += 1;
                Some(id)
            }
            Enqueue::Full => None,
        }
    }

    /// Enqueues a timed write carrying functional data: the store is
    /// updated in program order (so later reads observe it via
    /// [`peek`](Self::peek)) and the timing write proceeds through the
    /// write queue as usual. Returns `None` — with the store untouched —
    /// when the write queue is full.
    pub fn enqueue_write_data(&mut self, addr: PhysAddr, data: &[u8]) -> Option<RequestId> {
        let id = self.enqueue(Op::Write, addr)?;
        self.data.write(addr, data);
        Some(id)
    }

    /// Functional write without any timing traffic (architectural poke;
    /// use for initializing memory images).
    pub fn poke(&mut self, addr: PhysAddr, data: &[u8]) {
        self.data.write(addr, data);
    }

    /// Functional read of the current architectural state (zeros where
    /// never written). Timing is modeled separately via
    /// [`enqueue`](Self::enqueue).
    pub fn peek(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.data.read(addr, buf);
    }

    /// The functional backing store.
    pub fn data(&self) -> &DataStore {
        &self.data
    }

    /// Serializes the complete mutable simulation state — clock, stats,
    /// queues, in-flight events, bank FSMs, fault/wear/remap tables,
    /// sampler, escalation-ladder state, and the observer (when enabled) —
    /// into a versioned, checksummed byte image.
    ///
    /// The configuration itself is *not* stored; a fingerprint of it is,
    /// and [`restore`](Self::restore) rebuilds the structure from the
    /// caller-supplied configuration before overlaying this state. The
    /// invariant the differential tests pin: `restore(config, snapshot)`
    /// continued to any horizon is bit-identical — stats, samples, command
    /// logs, observer artifacts — to the uninterrupted run.
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = fgnvm_types::SnapshotWriter::new();
        self.save_into(&mut w);
        w.finish()
    }

    /// Writes the `memsys` section of [`save_snapshot`](Self::save_snapshot)
    /// into `w`, so a caller's own snapshot can carry the memory system
    /// inline under its single checksum trailer.
    pub fn save_into(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("memsys");
        w.u64(fgnvm_types::snapshot::fnv1a64(
            format!("{:?}", self.config).as_bytes(),
        ));
        w.u64(self.now.raw());
        w.u64(self.next_id);
        w.bool(self.fast_forward);
        w.u64(self.sample_epoch);
        self.stats.save_state(w);
        self.data.save_state(w);
        w.bool(self.wear.is_some());
        if let Some(wear) = &self.wear {
            wear.save_state(w);
        }
        w.bool(self.levelers.is_some());
        if let Some(levelers) = &self.levelers {
            w.usize(levelers.len());
            for l in levelers {
                l.save_state(w);
            }
        }
        w.usize(self.samples.len());
        for s in &self.samples {
            w.u64(s.at.raw());
            w.u64(s.completed_reads);
            w.u64(s.sensed_bits);
            w.u64(s.written_bits);
            w.usize(s.read_queue);
            w.usize(s.write_queue);
        }
        let mut bad: Vec<((u32, usize, u32), u32)> =
            self.bad_rows.iter().map(|(k, v)| (*k, *v)).collect();
        bad.sort_unstable();
        w.usize(bad.len());
        for ((channel, bank, row), spare) in bad {
            w.u32(channel);
            w.usize(bank);
            w.u32(row);
            w.u32(spare);
        }
        let mut spares: Vec<((u32, usize), u32)> =
            self.spares_used.iter().map(|(k, v)| (*k, *v)).collect();
        spares.sort_unstable();
        w.usize(spares.len());
        for ((channel, bank), used) in spares {
            w.u32(channel);
            w.usize(bank);
            w.u32(used);
        }
        let mut retired: Vec<((u32, usize), u32)> =
            self.retired.iter().map(|(k, v)| (*k, *v)).collect();
        retired.sort_unstable();
        w.usize(retired.len());
        for ((channel, bank), rows) in retired {
            w.u32(channel);
            w.usize(bank);
            w.u32(rows);
        }
        let mut read_only: Vec<(u32, usize)> = self.read_only.iter().copied().collect();
        read_only.sort_unstable();
        w.usize(read_only.len());
        for (channel, bank) in read_only {
            w.u32(channel);
            w.usize(bank);
        }
        w.bool(self.capacity_exhausted);
        w.usize(self.controllers.len());
        for c in &self.controllers {
            c.save_state(w);
        }
        w.bool(self.observer.is_some());
        if let Some(obs) = self.observer.as_deref() {
            obs.save_state(w);
        }
    }

    /// Rebuilds a memory system from `config` and overlays the state in
    /// `bytes` (written by [`save_snapshot`](Self::save_snapshot)).
    ///
    /// `config` must be the same configuration the snapshot was taken
    /// under — a fingerprint mismatch is rejected — and the system is
    /// rebuilt with the default address mapping, matching
    /// [`new`](Self::new). Wear tracking, Start-Gap leveling, command
    /// logging, and the observer are re-enabled automatically when the
    /// snapshot carries their state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if `config` fails validation, and
    /// [`SimError::Snapshot`] for a truncated, corrupted, or
    /// wrong-configuration checkpoint — never panics on hostile bytes.
    pub fn restore(config: SystemConfig, bytes: &[u8]) -> Result<MemorySystem, SimError> {
        let mut r = fgnvm_types::SnapshotReader::new(bytes)?;
        let mem = MemorySystem::restore_from(config, &mut r)?;
        r.expect_end()?;
        Ok(mem)
    }

    /// Rebuilds a memory system from `config` and the `memsys` section
    /// at `r`'s position (written by [`save_into`](Self::save_into)),
    /// leaving `r` just past it. [`restore`](Self::restore) documents the
    /// configuration contract.
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore).
    pub fn restore_from(
        config: SystemConfig,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<MemorySystem, SimError> {
        let mut mem = MemorySystem::new(config)?;
        r.tag("memsys")?;
        let fingerprint = r.u64()?;
        let expected = fgnvm_types::snapshot::fnv1a64(format!("{:?}", mem.config).as_bytes());
        if fingerprint != expected {
            return Err(fgnvm_types::SnapshotError::Corrupt(
                "checkpoint was taken under a different configuration".to_string(),
            )
            .into());
        }
        mem.now = Cycle::new(r.u64()?);
        mem.next_id = r.u64()?;
        mem.fast_forward = r.bool()?;
        mem.sample_epoch = r.u64()?;
        mem.stats = SystemStats::load_state(r)?;
        mem.data = DataStore::load_state(r)?;
        if r.bool()? {
            mem.enable_wear_tracking();
            mem.wear
                .as_mut()
                .expect("wear tracking just enabled")
                .load_state(r)?;
        }
        if r.bool()? {
            let n = r.usize()?;
            // The interval is runtime state inside each leveler's image;
            // enable with a placeholder and let load_state overwrite it.
            mem.enable_start_gap(1).map_err(|e| {
                fgnvm_types::SnapshotError::Corrupt(format!(
                    "checkpoint has start-gap levelers the geometry cannot support: {e}"
                ))
            })?;
            let levelers = mem.levelers.as_mut().expect("start-gap just enabled");
            if n != levelers.len() {
                return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                    "checkpoint has {n} start-gap levelers, geometry needs {}",
                    levelers.len()
                ))
                .into());
            }
            for l in levelers.iter_mut() {
                l.load_state(r)?;
            }
        }
        let n = r.count()?;
        mem.samples = Vec::with_capacity(n);
        for _ in 0..n {
            mem.samples.push(Sample {
                at: Cycle::new(r.u64()?),
                completed_reads: r.u64()?,
                sensed_bits: r.u64()?,
                written_bits: r.u64()?,
                read_queue: r.usize()?,
                write_queue: r.usize()?,
            });
        }
        let n = r.count()?;
        mem.bad_rows = HashMap::with_capacity(n);
        for _ in 0..n {
            let key = (r.u32()?, r.usize()?, r.u32()?);
            mem.bad_rows.insert(key, r.u32()?);
        }
        let n = r.count()?;
        mem.spares_used = HashMap::with_capacity(n);
        for _ in 0..n {
            let key = (r.u32()?, r.usize()?);
            mem.spares_used.insert(key, r.u32()?);
        }
        let n = r.count()?;
        mem.retired = HashMap::with_capacity(n);
        for _ in 0..n {
            let key = (r.u32()?, r.usize()?);
            mem.retired.insert(key, r.u32()?);
        }
        let n = r.count()?;
        mem.read_only = HashSet::with_capacity(n);
        for _ in 0..n {
            mem.read_only.insert((r.u32()?, r.usize()?));
        }
        mem.capacity_exhausted = r.bool()?;
        let n = r.usize()?;
        if n != mem.controllers.len() {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "checkpoint has {n} channels, configuration has {}",
                mem.controllers.len()
            ))
            .into());
        }
        for c in mem.controllers.iter_mut() {
            c.load_state(r)?;
        }
        // The restored fast-forward flag must reach the controllers' issue
        // gating too (it is a mode, not channel state, so the channel
        // snapshots do not carry it).
        let event_driven = mem.fast_forward;
        for c in mem.controllers.iter_mut() {
            c.set_event_driven(event_driven);
        }
        if r.bool()? {
            mem.enable_observer();
            mem.observer
                .as_deref_mut()
                .expect("observer just enabled")
                .load_state(r)?;
        }
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_types::config::SchedulerKind;

    fn read_all(mem: &mut MemorySystem, addrs: &[u64]) -> Vec<Completion> {
        for &a in addrs {
            mem.enqueue(Op::Read, PhysAddr::new(a))
                .expect("queue has room");
        }
        mem.run_until_idle(1_000_000)
    }

    #[test]
    fn single_read_latency_matches_bank_timing() {
        let mut mem = MemorySystem::new(SystemConfig::baseline()).unwrap();
        let id = mem.enqueue(Op::Read, PhysAddr::new(0)).unwrap();
        let done = mem.run_until_idle(10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        // Row miss issued at arrival: tRCD(10) + tCAS(38) + tBURST(4) = 52.
        assert_eq!(done[0].latency().raw(), 52);
    }

    #[test]
    fn writes_complete_and_count() {
        let mut mem = MemorySystem::new(SystemConfig::baseline()).unwrap();
        mem.enqueue(Op::Write, PhysAddr::new(0)).unwrap();
        mem.enqueue(Op::Write, PhysAddr::new(4096)).unwrap();
        let done = mem.run_until_idle(100_000);
        assert_eq!(done.iter().filter(|c| c.op.is_write()).count(), 2);
        assert_eq!(mem.stats().enqueued_writes, 2);
        assert_eq!(mem.bank_stats().writes, 2);
    }

    #[test]
    fn forwarding_serves_read_from_write_queue() {
        let mut mem = MemorySystem::new(SystemConfig::baseline()).unwrap();
        mem.enqueue(Op::Write, PhysAddr::new(0x40)).unwrap();
        mem.enqueue(Op::Read, PhysAddr::new(0x40)).unwrap();
        let done = mem.run_until_idle(100_000);
        assert_eq!(mem.stats().forwarded_reads, 1);
        // The forwarded read completed in one cycle.
        let read = done.iter().find(|c| c.op.is_read()).unwrap();
        assert_eq!(read.latency().raw(), 1);
    }

    #[test]
    fn write_merging_coalesces_same_line() {
        let mut mem = MemorySystem::new(SystemConfig::baseline()).unwrap();
        mem.enqueue(Op::Write, PhysAddr::new(0x80)).unwrap();
        mem.enqueue(Op::Write, PhysAddr::new(0x80)).unwrap();
        mem.run_until_idle(100_000);
        assert_eq!(mem.stats().merged_writes, 1);
        assert_eq!(mem.bank_stats().writes, 1);
    }

    #[test]
    fn queue_backpressure_reports_full() {
        let mut cfg = SystemConfig::baseline();
        cfg.queue_entries = 2;
        let mut mem = MemorySystem::new(cfg).unwrap();
        assert!(mem.enqueue(Op::Read, PhysAddr::new(0)).is_some());
        assert!(mem.enqueue(Op::Read, PhysAddr::new(4096)).is_some());
        // Third read to a busy bank cannot be accepted this cycle.
        assert!(mem.enqueue(Op::Read, PhysAddr::new(8192)).is_none());
        assert_eq!(mem.stats().rejected, 1);
        // After draining there is room again.
        mem.run_until_idle(100_000);
        assert!(mem.enqueue(Op::Read, PhysAddr::new(8192)).is_some());
    }

    #[test]
    fn row_hits_are_faster_than_misses() {
        let mut mem = MemorySystem::new(SystemConfig::baseline()).unwrap();
        // Two reads in the same row: second should be a hit.
        let done = read_all(&mut mem, &[0, 128]);
        assert_eq!(done.len(), 2);
        assert_eq!(mem.bank_stats().row_hits, 1);
    }

    #[test]
    fn fgnvm_bank_conflicts_resolve_faster_than_baseline() {
        // Four reads to different rows of the *same bank*, conflicting in
        // the baseline but spread across SAGs in FgNVM. With the default
        // mapping the row index sits above bit 13, and 8 SAGs partition the
        // 32 Ki rows into 4 Ki-row blocks, so a 32 MB stride changes SAG.
        // Alternate the 512 B half-row so the reads also alternate CDs:
        // four distinct (SAG, CD) pairs for the 8×2 FgNVM.
        let addrs: Vec<u64> = (0..4u64)
            .map(|i| i * 32 * 1024 * 1024 + (i % 2) * 512)
            .collect();
        let mut base = MemorySystem::new(SystemConfig::baseline()).unwrap();
        let mut fg = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        // Verify the addresses indeed share a bank and split across SAGs.
        let d: Vec<_> = addrs
            .iter()
            .map(|&a| fg.mapper().decode(PhysAddr::new(a)))
            .collect();
        assert!(d.iter().all(|x| x.bank == d[0].bank));
        let sags: std::collections::HashSet<u32> = d
            .iter()
            .map(|x| fg.mapper().geometry().sag_of_row(x.row))
            .collect();
        assert!(sags.len() > 1, "rows should span SAGs");
        read_all(&mut base, &addrs);
        read_all(&mut fg, &addrs);
        let base_cycles = base.now().raw();
        let fg_cycles = fg.now().raw();
        assert!(
            fg_cycles < base_cycles,
            "fgnvm ({fg_cycles}) should beat baseline ({base_cycles}) on bank conflicts"
        );
    }

    #[test]
    fn reads_proceed_during_background_write() {
        // One write plus many reads to other SAGs: the TLP scheduler should
        // complete reads while the write programs.
        let mut cfg = SystemConfig::fgnvm(8, 2).unwrap();
        cfg.scheduler = SchedulerKind::FrfcfsTlp;
        let mut mem = MemorySystem::new(cfg).unwrap();
        mem.enqueue(Op::Write, PhysAddr::new(0)).unwrap();
        // Let the write issue (opportunistic drain on the idle read queue).
        mem.tick();
        mem.tick();
        // Same bank, different SAG & CD: issues while the write programs.
        mem.enqueue(Op::Read, PhysAddr::new(32 * 1024 * 1024 + 512))
            .unwrap();
        mem.run_until_idle(100_000);
        assert!(mem.bank_stats().reads_under_write >= 1);
    }

    #[test]
    fn energy_accumulates() {
        let mut mem = MemorySystem::new(SystemConfig::baseline()).unwrap();
        read_all(&mut mem, &[0]);
        let e = mem.energy();
        assert!(e.sense_pj >= 16384.0); // one full-row activation
        assert!(e.background_pj > 0.0);
        assert_eq!(e.write_pj, 0.0);
    }

    #[test]
    fn functional_data_follows_timed_writes() {
        let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        mem.poke(PhysAddr::new(0x200), &[7u8; 64]);
        let mut buf = [0u8; 64];
        mem.peek(PhysAddr::new(0x200), &mut buf);
        assert_eq!(buf, [7u8; 64]);
        // A timed write with data updates the store and runs the timing
        // path (visible in the write counters after draining).
        mem.enqueue_write_data(PhysAddr::new(0x200), &[9u8; 64])
            .unwrap();
        mem.peek(PhysAddr::new(0x200), &mut buf);
        assert_eq!(buf, [9u8; 64]);
        mem.run_until_idle(100_000);
        assert_eq!(mem.bank_stats().writes, 1);
        // Unwritten memory reads as zeros.
        mem.peek(PhysAddr::new(0x4000), &mut buf);
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn wear_tracking_counts_writes() {
        let mut mem = MemorySystem::new(SystemConfig::baseline()).unwrap();
        mem.enable_wear_tracking();
        for i in 0..10u64 {
            mem.enqueue(Op::Write, PhysAddr::new(i * 8192)).unwrap();
            mem.run_until_idle(100_000);
        }
        let wear = mem.wear().unwrap();
        assert_eq!(wear.total_writes(), 10);
        assert_eq!(wear.max_row_writes(), 1); // ten distinct rows
        assert!((wear.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn start_gap_levels_a_hammered_row() {
        // Small row count so the gap sweeps the bank many times within the
        // test (Start-Gap levels at the timescale of full sweeps).
        let mut cfg = SystemConfig::baseline();
        cfg.geometry = fgnvm_types::Geometry::builder()
            .rows_per_bank(16)
            .sags(1)
            .cds(1)
            .build()
            .unwrap();
        let mut hammered = MemorySystem::new(cfg).unwrap();
        hammered.enable_wear_tracking();
        let mut leveled = MemorySystem::new(cfg).unwrap();
        leveled.enable_wear_tracking();
        leveled.enable_start_gap(2).unwrap();
        // Hammer one line 400 times (drain between writes so the write
        // queue cannot merge them away).
        for mem in [&mut hammered, &mut leveled] {
            for _ in 0..400 {
                mem.enqueue(Op::Write, PhysAddr::new(0)).unwrap();
                mem.run_until_idle(100_000);
            }
        }
        let without = hammered.wear().unwrap().max_row_writes();
        let with = leveled.wear().unwrap().max_row_writes();
        assert_eq!(without, 400, "all unleveled writes hit one row");
        assert!(
            with < without / 4,
            "start-gap should spread the hot row: max {with} vs {without}"
        );
        assert!(leveled.start_gap_rotations().unwrap() > 16);
    }

    #[test]
    fn start_gap_remaps_rows_but_preserves_function() {
        let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        mem.enable_start_gap(4).unwrap();
        // Functional data is keyed by logical address: remapping below is
        // invisible to peek/poke even across rotations.
        mem.poke(PhysAddr::new(0x40), &[3u8; 64]);
        for i in 0..50u64 {
            mem.enqueue(Op::Write, PhysAddr::new(0x10000 + i * 8192))
                .unwrap();
        }
        mem.run_until_idle(1_000_000);
        let mut buf = [0u8; 64];
        mem.peek(PhysAddr::new(0x40), &mut buf);
        assert_eq!(buf, [3u8; 64]);
        assert!(mem.start_gap_rotations().unwrap() >= 12);
    }

    #[test]
    fn prefetches_are_throttled_and_deprioritized() {
        let mut cfg = SystemConfig::fgnvm(8, 2).unwrap();
        cfg.queue_entries = 8;
        let mut mem = MemorySystem::new(cfg).unwrap();
        // Fill 7 of 8 read-queue slots with demand misses (above the ¾
        // watermark).
        for i in 0..7u64 {
            mem.enqueue(Op::Read, PhysAddr::new(i * 32 * 1024 * 1024))
                .unwrap();
        }
        // Above the ¾ watermark the prefetch is dropped at the door.
        assert!(mem.enqueue_prefetch(PhysAddr::new(0x123400)).is_none());
        mem.run_until_idle(1_000_000);
        // Below the watermark it is accepted.
        assert!(mem.enqueue_prefetch(PhysAddr::new(0x123400)).is_some());
        mem.run_until_idle(1_000_000);
    }

    #[test]
    fn demand_outranks_older_prefetch() {
        let mut mem = MemorySystem::new(SystemConfig::baseline()).unwrap();
        // An older prefetch and a younger demand read to different rows of
        // the same bank: both miss; the demand must issue first.
        let pf = mem.enqueue_prefetch(PhysAddr::new(0)).unwrap();
        let demand = mem
            .enqueue(Op::Read, PhysAddr::new(32 * 1024 * 1024))
            .unwrap();
        let done = mem.run_until_idle(1_000_000);
        let finish = |id| done.iter().find(|c| c.id == id).unwrap().finished;
        assert!(
            finish(demand) < finish(pf),
            "demand should complete before the older prefetch"
        );
    }

    #[test]
    fn per_bank_stats_and_imbalance() {
        let mut mem = MemorySystem::new(SystemConfig::baseline()).unwrap();
        assert_eq!(mem.bank_load_imbalance(), 0.0);
        // Hammer one bank only.
        for i in 0..8u64 {
            mem.enqueue(Op::Read, PhysAddr::new(i * 32 * 1024 * 1024))
                .unwrap();
            mem.run_until_idle(1_000_000);
        }
        let per_bank = mem.bank_stats_per_bank();
        assert_eq!(per_bank.len(), 8);
        assert_eq!(per_bank[0].reads, 8);
        assert!(per_bank[1..].iter().all(|s| s.reads == 0));
        // One loaded bank of eight: CV = sqrt(7) ≈ 2.65.
        assert!((mem.bank_load_imbalance() - 7f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn sampling_collects_monotone_counters() {
        let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        mem.enable_sampling(16);
        for i in 0..20u64 {
            mem.enqueue(Op::Read, PhysAddr::new(i * 8192)).unwrap();
        }
        mem.run_until_idle(1_000_000);
        let samples = mem.samples();
        assert!(
            samples.len() >= 3,
            "expected several epochs, got {}",
            samples.len()
        );
        for pair in samples.windows(2) {
            assert!(pair[1].at > pair[0].at);
            assert!(pair[1].completed_reads >= pair[0].completed_reads);
            assert!(pair[1].sensed_bits >= pair[0].sensed_bits);
        }
        assert_eq!(samples.last().unwrap().completed_reads, 20);
    }

    #[test]
    fn command_log_captures_issue_sequence() {
        use fgnvm_bank::PlanKind;
        let mut mem = MemorySystem::new(SystemConfig::baseline()).unwrap();
        mem.enable_command_log(16);
        mem.enqueue(Op::Read, PhysAddr::new(0)).unwrap();
        mem.run_until_idle(10_000);
        mem.enqueue(Op::Read, PhysAddr::new(128)).unwrap();
        mem.run_until_idle(10_000);
        let log = mem.command_log(0);
        let kinds: Vec<PlanKind> = log.records().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![PlanKind::Activate, PlanKind::RowHit]);
        let rows: Vec<u32> = log.records().map(|r| r.row).collect();
        assert_eq!(rows, vec![0, 0]);
    }

    #[test]
    fn memory_system_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MemorySystem>();
        assert_send::<crate::hybrid::HybridMemory>();
    }

    fn reliability(
        rber: f64,
        write_fail_prob: f64,
        max_write_retries: u32,
        ecc_correctable_bits: u32,
    ) -> fgnvm_types::config::ReliabilityConfig {
        fgnvm_types::config::ReliabilityConfig {
            enabled: true,
            fault_seed: 42,
            rber,
            write_fail_prob,
            max_write_retries,
            ecc_correctable_bits,
            ecc_decode_penalty_cycles: 10,
            wear_stuck_threshold: 0,
            ..fgnvm_types::config::ReliabilityConfig::default()
        }
    }

    #[test]
    fn ecc_correction_adds_decode_latency() {
        // rber 0.05 over a 512-bit line ⇒ ~26 expected bit errors, far
        // below the (generous) correction capability: every read pays the
        // decode penalty and counts as corrected.
        let cfg = SystemConfig::baseline().with_reliability(reliability(0.05, 0.0, 0, 4096));
        let mut mem = MemorySystem::new(cfg).unwrap();
        mem.enqueue(Op::Read, PhysAddr::new(0)).unwrap();
        let done = mem.run_until_idle(10_000);
        // Clean read is 52 cycles; + 10 for the ECC decode.
        assert_eq!(done[0].latency().raw(), 62);
        assert_eq!(mem.stats().corrected_errors, 1);
        assert_eq!(mem.stats().uncorrectable_errors, 0);
    }

    #[test]
    fn uncorrectable_error_remaps_the_row() {
        // Zero correction capability: the same error burst is now
        // uncorrectable, pays 4× the decode penalty, and retires the row.
        let cfg = SystemConfig::baseline().with_reliability(reliability(0.05, 0.0, 0, 0));
        let mut mem = MemorySystem::new(cfg).unwrap();
        mem.enable_command_log(16);
        mem.enqueue(Op::Read, PhysAddr::new(0)).unwrap();
        let done = mem.run_until_idle(10_000);
        assert_eq!(done[0].latency().raw(), 52 + 40);
        assert_eq!(mem.stats().uncorrectable_errors, 1);
        assert_eq!(mem.stats().remapped_rows, 1);
        assert_eq!(mem.remapped_row_count(), 1);
        // The next access to the same address is steered to the spare row
        // at the top of the bank.
        mem.enqueue(Op::Read, PhysAddr::new(0)).unwrap();
        mem.run_until_idle(10_000);
        let rows: Vec<u32> = mem.command_log(0).records().map(|r| r.row).collect();
        assert_eq!(rows[0], 0);
        assert_eq!(rows[1], mem.config().geometry.rows_per_bank() - 1);
    }

    #[test]
    fn verify_failed_write_is_reissued_until_it_sticks() {
        // 95% per-pulse failure with no on-die retry budget: most issues
        // exhaust verification and bounce back to the controller, which
        // re-queues them until one sticks.
        let cfg = SystemConfig::baseline().with_reliability(reliability(0.0, 0.95, 0, 0));
        let mut mem = MemorySystem::new(cfg).unwrap();
        mem.enqueue(Op::Write, PhysAddr::new(0)).unwrap();
        let done = mem.run_until_idle(1_000_000);
        assert_eq!(done.iter().filter(|c| c.op.is_write()).count(), 1);
        assert!(mem.stats().reissued_writes >= 1);
        assert!(mem.bank_stats().verify_failures >= 1);
        assert_eq!(
            mem.bank_stats().writes,
            mem.stats().reissued_writes + 1,
            "every reissue is a fresh device write"
        );
    }

    #[test]
    fn watchdog_reports_wedged_write_with_state_dump() {
        // A write that always fails verification with a zero retry budget
        // can never complete; the watchdog must convert the livelock into
        // a structured error instead of spinning forever.
        let cfg = SystemConfig::baseline().with_reliability(reliability(0.0, 1.0, 0, 0));
        let mut mem = MemorySystem::new(cfg).unwrap();
        mem.enqueue(Op::Write, PhysAddr::new(0)).unwrap();
        let err = mem.try_run_until_idle(2_000).unwrap_err();
        match err {
            SimError::Watchdog {
                stall_cycles,
                write_queue,
                ref state,
                ..
            } => {
                assert_eq!(stall_cycles, 2_000);
                assert!(write_queue >= 1);
                assert!(state.contains("channel 0"), "dump names the channel");
                assert!(!state.is_empty());
            }
            other => panic!("expected watchdog error, got {other:?}"),
        }
    }

    #[test]
    fn drain_hysteresis_survives_enqueues_in_elided_stretches() {
        // Regression: the write-drain flag is settled from queue occupancy
        // at every tick, but fast-forward elides dead ticks. If the queue
        // crosses a watermark during an elided stretch and new requests
        // arrive before the next sparse tick, the hysteresis must not be
        // fed the *future* occupancy — `skip_to` settles the flag over
        // every elided stretch so both stepping modes fold the identical
        // per-cycle update sequence. Open-loop write-heavy traffic with a
        // read trickle and mixed inter-arrival gaps keeps the queue
        // oscillating around the watermarks with arrivals landing inside
        // dead stretches.
        let run = |fast_forward: bool| {
            let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
            mem.set_fast_forward(fast_forward);
            let mut out = Vec::new();
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // Two-phase arrivals: calm stretches drain the queue toward
            // the low watermark with arrivals landing inside the issue
            // gaps; bursts push it back over the high watermark.
            let mut at = 0u64;
            let mut phase_until = 1_500u64;
            let mut burst = false;
            for _ in 0..2_000 {
                mem.tick_to(Cycle::new(at), &mut out);
                let op = if next() % 8 < 7 { Op::Write } else { Op::Read };
                let line = next() % 512;
                // Open-loop with loss: a full queue drops the arrival; the
                // drop decision is part of the equality under test.
                let _ = mem.enqueue(op, PhysAddr::new(line * 64));
                at += if burst {
                    1 + next() % 4
                } else {
                    20 + next() % 60
                };
                if at >= phase_until {
                    burst = !burst;
                    phase_until = at + if burst { 600 } else { 1_500 };
                }
            }
            while !mem.is_idle() {
                let target = Cycle::new(mem.now().raw() + 4096);
                mem.tick_to(target, &mut out);
            }
            (out, mem.now(), mem.stats().clone())
        };
        let fast = run(true);
        let stepped = run(false);
        assert!(
            stepped.2.enqueued_writes > stepped.2.rejected,
            "scenario must genuinely stress the write queue"
        );
        assert_eq!(fast.1, stepped.1, "final cycle differs between modes");
        assert_eq!(fast.2, stepped.2, "stats differ between modes");
        assert_eq!(fast.0, stepped.0, "completions differ between modes");
    }

    #[test]
    fn watchdog_tolerates_legitimate_long_writes() {
        // On-die verify retries stretch one write's bank occupancy to
        // data_end + (1+k)·tWP + tWR — far past a tight watchdog window.
        // The write's completion event is pending the whole time, so this
        // is progress, not a stall: the old completion-counting watchdog
        // tripped here, the event-aware one must not.
        let cfg = SystemConfig::baseline().with_reliability(reliability(0.0, 0.9, 50, 0));
        let mut mem = MemorySystem::new(cfg).unwrap();
        for i in 0..4u64 {
            mem.enqueue(Op::Write, PhysAddr::new(i * 64)).unwrap();
        }
        let done = mem
            .try_run_until_idle(250)
            .expect("a long write in flight is progress, not a stall");
        assert_eq!(done.iter().filter(|c| c.op.is_write()).count(), 4);
        assert!(
            mem.bank_stats().write_retries > 0,
            "scenario must actually exercise retry pulses"
        );
        // The same scenario, cycle-stepped, must agree in full.
        let cfg = SystemConfig::baseline().with_reliability(reliability(0.0, 0.9, 50, 0));
        let mut stepped = MemorySystem::new(cfg).unwrap();
        stepped.set_fast_forward(false);
        for i in 0..4u64 {
            stepped.enqueue(Op::Write, PhysAddr::new(i * 64)).unwrap();
        }
        let stepped_done = stepped.try_run_until_idle(250).unwrap();
        assert_eq!(done, stepped_done);
        assert_eq!(mem.now(), stepped.now());
        assert_eq!(mem.stats(), stepped.stats());
    }

    #[test]
    fn watchdog_trip_is_bit_identical_under_fast_forward() {
        // A genuinely wedged system must trip at the same instant with the
        // same diagnostic snapshot in both modes.
        let build = || {
            let cfg = SystemConfig::baseline().with_reliability(reliability(0.0, 1.0, 0, 0));
            let mut mem = MemorySystem::new(cfg).unwrap();
            mem.enqueue(Op::Write, PhysAddr::new(0)).unwrap();
            mem
        };
        let mut fast = build();
        let mut stepped = build();
        stepped.set_fast_forward(false);
        let fast_err = fast.try_run_until_idle(2_000).unwrap_err();
        let stepped_err = stepped.try_run_until_idle(2_000).unwrap_err();
        assert_eq!(format!("{fast_err:?}"), format!("{stepped_err:?}"));
        assert_eq!(fast.now(), stepped.now());
    }

    #[test]
    fn sampler_skips_cycle_zero_and_survives_fast_forward() {
        // Satellite checks for the epoch sampler: no empty cycle-0 sample,
        // and skipped epoch boundaries are backfilled so both modes emit
        // identical series.
        let build = || {
            let mut m = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
            m.enable_sampling(64);
            m
        };
        let mut fast = build();
        let mut stepped = build();
        stepped.set_fast_forward(false);
        for mem in [&mut fast, &mut stepped] {
            for i in 0..12u64 {
                let op = if i % 3 == 0 { Op::Write } else { Op::Read };
                mem.enqueue(op, PhysAddr::new(i * 8192 + (i % 2) * 256))
                    .unwrap();
            }
            mem.run_until_idle(1_000_000);
        }
        assert!(!fast.samples().is_empty());
        assert_eq!(
            fast.samples()[0].at.raw(),
            64,
            "cycle 0 must not be sampled"
        );
        assert_eq!(fast.samples(), stepped.samples());
        assert_eq!(fast.now(), stepped.now());
        assert_eq!(fast.stats(), stepped.stats());
    }

    #[test]
    fn remap_collision_burns_dead_spare_and_chains() {
        // Tiny single-bank geometry so spare-region rows are addressable.
        let mut cfg = SystemConfig::baseline().with_reliability(reliability(0.05, 0.0, 0, 0));
        cfg.geometry = fgnvm_types::geometry::Geometry::builder()
            .channels(1)
            .ranks_per_channel(1)
            .banks_per_rank(1)
            .rows_per_bank(256)
            .sags(1)
            .cds(1)
            .build()
            .unwrap();
        let mut mem = MemorySystem::new(cfg).unwrap();
        let addr_of_row = |mem: &MemorySystem, row: u32| -> PhysAddr {
            let line = u64::from(mem.config().geometry.line_bytes());
            (0..1u64 << 16)
                .map(|k| PhysAddr::new(k * line))
                .find(|&a| mem.mapper.decode(a).row == row)
                .expect("row is addressable")
        };
        // 1. Row 254 (inside the spare region) fails: remapped to 255.
        let a254 = addr_of_row(&mem, 254);
        mem.enqueue(Op::Read, a254).unwrap();
        mem.run_until_idle(100_000);
        assert_eq!(mem.stats().remapped_rows, 1);
        // 2. Row 0 fails. The next spare candidate is 254 — itself dead —
        //    so it is burned (collision) and 253 is handed out instead.
        mem.enqueue(Op::Read, addr_of_row(&mem, 0)).unwrap();
        mem.run_until_idle(100_000);
        assert_eq!(
            mem.stats().remap_collisions,
            1,
            "dead spare must be rejected"
        );
        assert_eq!(mem.stats().remapped_rows, 2);
        // 3. Re-reading row 254 steers to its spare 255, which now fails
        //    too and remaps onward: the table must be followed as a chain.
        mem.enqueue(Op::Read, a254).unwrap();
        mem.run_until_idle(100_000);
        assert_eq!(mem.stats().remapped_rows, 3);
        assert_eq!(mem.remapped_row_count(), 3);
        assert_eq!(
            mem.remapped_row(0, 0, 254),
            252,
            "254 → 255 → 252 must resolve through the chain"
        );
    }

    #[test]
    fn try_run_until_idle_matches_run_until_idle_when_healthy() {
        let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        for i in 0..4u64 {
            mem.enqueue(Op::Read, PhysAddr::new(i * 8192)).unwrap();
        }
        let done = mem.try_run_until_idle(10_000).unwrap();
        assert_eq!(done.len(), 4);
        assert!(mem.is_idle());
    }

    #[test]
    fn zero_rate_reliability_is_bit_identical_to_disabled() {
        // The fault layer enabled with all rates at zero must not perturb
        // timing or counters in any way.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4096 + (i % 4) * 256).collect();
        let mut plain = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        let faulty_cfg = SystemConfig::fgnvm(8, 2)
            .unwrap()
            .with_reliability(reliability(0.0, 0.0, 4, 2));
        let mut armed = MemorySystem::new(faulty_cfg).unwrap();
        for mem in [&mut plain, &mut armed] {
            for (i, &a) in addrs.iter().enumerate() {
                let op = if i % 3 == 0 { Op::Write } else { Op::Read };
                mem.enqueue(op, PhysAddr::new(a)).unwrap();
            }
            mem.run_until_idle(1_000_000);
        }
        assert_eq!(plain.now(), armed.now());
        assert_eq!(plain.bank_stats(), armed.bank_stats());
        assert_eq!(
            plain.stats().read_latency_total,
            armed.stats().read_latency_total
        );
        assert_eq!(armed.stats().corrected_errors, 0);
        assert_eq!(armed.stats().reissued_writes, 0);
    }

    #[test]
    fn multi_issue_not_slower() {
        let addrs: Vec<u64> = (0..16u64)
            .map(|i| i * 1024 * 1024 + (i % 4) * 256)
            .collect();
        let mut plain = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        let mut multi =
            MemorySystem::new(SystemConfig::fgnvm_multi_issue(8, 2, 4).unwrap()).unwrap();
        read_all(&mut plain, &addrs);
        read_all(&mut multi, &addrs);
        assert!(multi.now().raw() <= plain.now().raw());
    }

    #[test]
    fn escalation_ladder_walks_remap_retire_readonly_exhausted() {
        // One spare per bank, read-only after one retired row, device
        // exhausted after one read-only bank: every uncorrectable failure
        // walks one more rung of the ladder.
        let mut rel = reliability(0.05, 0.0, 0, 0);
        rel.spare_rows_per_bank = 1;
        rel.read_only_row_threshold = 1;
        rel.capacity_exhausted_banks = 1;
        let mut cfg = SystemConfig::baseline().with_reliability(rel);
        cfg.geometry = fgnvm_types::geometry::Geometry::builder()
            .channels(1)
            .ranks_per_channel(1)
            .banks_per_rank(1)
            .rows_per_bank(256)
            .sags(1)
            .cds(1)
            .build()
            .unwrap();
        let mut mem = MemorySystem::new(cfg).unwrap();
        mem.enable_observer();
        let line = u64::from(mem.config().geometry.line_bytes());
        let addr_of_row = |mem: &MemorySystem, row: u32| -> PhysAddr {
            (0..1u64 << 16)
                .map(|k| PhysAddr::new(k * line))
                .find(|&a| mem.mapper.decode(a).row == row)
                .expect("row is addressable")
        };
        // Rung 1: the first failing row takes the only spare.
        mem.enqueue(Op::Read, addr_of_row(&mem, 0)).unwrap();
        mem.run_until_idle(100_000);
        assert_eq!(mem.stats().remapped_rows, 1);
        assert_eq!(mem.stats().retired_rows, 0);
        assert!(mem.check_capacity().is_ok());
        // Rung 2-4: the second failure finds no spare — retired, the bank
        // flips read-only, and the device-wide floor is crossed.
        mem.enqueue(Op::Read, addr_of_row(&mem, 1)).unwrap();
        mem.run_until_idle(100_000);
        assert_eq!(mem.stats().retired_rows, 1);
        assert_eq!(mem.retired_row_count(), 1);
        assert_eq!(mem.stats().read_only_banks, 1);
        assert_eq!(mem.read_only_bank_count(), 1);
        assert!(mem.capacity_exhausted());
        match mem.check_capacity().unwrap_err() {
            SimError::CapacityExhausted {
                read_only_banks,
                threshold,
                retired_rows,
                ..
            } => {
                assert_eq!(read_only_banks, 1);
                assert_eq!(threshold, 1);
                assert_eq!(retired_rows, 1);
            }
            other => panic!("expected capacity exhaustion, got {other:?}"),
        }
        // Read-only bank: writes bounce at the door, reads still serve.
        assert!(mem.enqueue(Op::Write, addr_of_row(&mem, 2)).is_none());
        assert_eq!(mem.stats().read_only_write_rejections, 1);
        assert!(mem.enqueue(Op::Read, addr_of_row(&mem, 2)).is_some());
        mem.run_until_idle(100_000);
        // The ladder's instants reached the observer. (The final read of
        // row 2 is itself uncorrectable at this error rate and retires a
        // second row; the bank-level stages fire exactly once.)
        let obs = mem.observer().unwrap();
        assert_eq!(obs.instant_count(InstantKind::RowRetired), 2);
        assert_eq!(obs.instant_count(InstantKind::BankReadOnly), 1);
        assert_eq!(obs.instant_count(InstantKind::CapacityExhausted), 1);
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        // Mid-flight snapshot: requests in queues, events pending, observer
        // attached. The restored system must finish the run bit-identically.
        let build = || {
            let cfg = SystemConfig::fgnvm(8, 2)
                .unwrap()
                .with_reliability(reliability(0.01, 0.3, 4, 64));
            let mut m = MemorySystem::new(cfg).unwrap();
            m.enable_observer();
            m.enable_wear_tracking();
            m.enable_command_log(32);
            m.enable_sampling(64);
            m
        };
        let mut reference = build();
        let mut live = build();
        for mem in [&mut reference, &mut live] {
            for i in 0..24u64 {
                let op = if i % 3 == 0 { Op::Write } else { Op::Read };
                mem.enqueue(op, PhysAddr::new(i * 8192 + (i % 2) * 256))
                    .unwrap();
            }
            let mut out = Vec::new();
            mem.tick_to(Cycle::new(137), &mut out); // mid-flight, work pending
            assert!(!mem.is_idle());
        }
        let snapshot = live.save_snapshot();
        let mut restored = MemorySystem::restore(*live.config(), &snapshot).unwrap();
        let ref_done = reference.run_until_idle(1_000_000);
        let res_done = restored.run_until_idle(1_000_000);
        assert_eq!(ref_done, res_done);
        assert_eq!(reference.now(), restored.now());
        assert_eq!(reference.stats(), restored.stats());
        assert_eq!(reference.bank_stats(), restored.bank_stats());
        assert_eq!(reference.samples(), restored.samples());
        for channel in 0..reference.config().geometry.channels() {
            let log = |m: &MemorySystem| -> Vec<String> {
                m.command_log(channel)
                    .records()
                    .map(|rec| format!("{rec:?}"))
                    .collect()
            };
            assert_eq!(log(&reference), log(&restored));
        }
        let (obs_ref, obs_res) = (reference.observer().unwrap(), restored.observer().unwrap());
        assert_eq!(obs_ref.trace_json(), obs_res.trace_json());
        assert_eq!(
            obs_ref.attribution.spans_json(),
            obs_res.attribution.spans_json()
        );
        assert_eq!(obs_ref.heatmap.cells(), obs_res.heatmap.cells());
        assert_eq!(obs_ref.attribution.to_json(), obs_res.attribution.to_json());
        for kind in InstantKind::ALL {
            assert_eq!(obs_ref.instant_count(kind), obs_res.instant_count(kind));
        }
    }

    #[test]
    fn restore_rejects_corruption_without_panicking() {
        let cfg = SystemConfig::fgnvm(8, 2).unwrap();
        let mut mem = MemorySystem::new(cfg).unwrap();
        mem.enqueue(Op::Read, PhysAddr::new(0)).unwrap();
        mem.tick();
        let snapshot = mem.save_snapshot();
        // Truncation at every prefix must yield a structured error.
        for cut in [0, 4, 9, snapshot.len() / 2, snapshot.len() - 1] {
            assert!(
                MemorySystem::restore(cfg, &snapshot[..cut]).is_err(),
                "truncated checkpoint ({cut} bytes) must be rejected"
            );
        }
        // A flipped payload byte breaks the checksum.
        let mut bent = snapshot.clone();
        let mid = bent.len() / 2;
        bent[mid] ^= 0x41;
        assert!(MemorySystem::restore(cfg, &bent).is_err());
        // A different configuration fails the fingerprint check.
        let other = SystemConfig::fgnvm(4, 4).unwrap();
        assert!(MemorySystem::restore(other, &snapshot).is_err());
        // The pristine snapshot still loads.
        assert!(MemorySystem::restore(cfg, &snapshot).is_ok());
    }

    #[test]
    fn observer_does_not_perturb_simulation() {
        let addrs: Vec<u64> = (0..48u64).map(|i| i * 777 * 64).collect();
        let mut plain = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        let mut observed = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        observed.enable_observer();
        // Telemetry at serve's default 10k-cycle windows rides on the same
        // hooks and must be just as passive.
        let mut telemetry = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        telemetry.enable_telemetry(10_000, 128, 256);
        for mem in [&mut plain, &mut observed, &mut telemetry] {
            for wave in addrs.chunks(12) {
                for (i, &a) in wave.iter().enumerate() {
                    let op = if i % 4 == 0 { Op::Write } else { Op::Read };
                    mem.enqueue(op, PhysAddr::new(a)).expect("queue has room");
                }
                mem.run_until_idle(1_000_000);
            }
        }
        for mem in [&observed, &telemetry] {
            assert_eq!(plain.now(), mem.now());
            assert_eq!(plain.stats(), mem.stats());
            assert_eq!(plain.bank_stats(), mem.bank_stats());
        }
        let ts = telemetry.observer().and_then(Observer::timeseries);
        assert!(ts.is_some_and(|ts| ts.window_cycles() == 10_000));

        let obs = observed.observer().expect("observer enabled");
        // Every request got a lifecycle record and every record closed.
        assert_eq!(obs.attribution.open_count(), 0);
        assert_eq!(
            obs.attribution.completed(),
            observed.stats().completed_reads + observed.stats().completed_writes
        );
        // The heatmap saw every committed command and matches the grid.
        assert_eq!(obs.heatmap.dims(), (8, 2));
        let bank = observed.bank_stats();
        let heat_total: u64 = obs
            .heatmap
            .cells()
            .iter()
            .map(|c| c.row_hits + c.activations + c.underfetches + c.writes)
            .sum();
        assert_eq!(heat_total, bank.reads + bank.writes);
        // One trace slice per committed command; a valid Chrome JSON header.
        let trace = obs.trace.to_json();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert_eq!(obs.trace.dropped(), 0);
        assert_eq!(
            trace.matches("\"cat\":\"cmd\"").count() as u64,
            bank.reads + bank.writes
        );
    }
}
