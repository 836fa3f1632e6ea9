//! Crash-safe long-horizon serve driver.
//!
//! `fgnvm-repro -- serve <cfg>` runs an open-loop synthetic workload
//! against one [`MemorySystem`] for a fixed cycle horizon, periodically
//! writing versioned binary checkpoints of the *entire* simulation state
//! (memory system, bank FSMs, fault/wear tables, observer) plus the
//! driver's own admission state. A killed run resumes from the latest
//! checkpoint with `--resume <ckpt>` and reaches a final state that is
//! **bit-identical** to an uninterrupted run — stats, attribution,
//! metrics, and command logs all match exactly.
//!
//! Three robustness mechanisms live here:
//!
//! - **Deterministic checkpoint/restore** — [`save_checkpoint`] /
//!   [`load_checkpoint`] write the serve driver's own state (arrival
//!   cursor, backoff queue, watchdog progress marker) followed inline by
//!   the memory-system section ([`MemorySystem::save_into`]), under one
//!   checksum trailer, so the whole run is a pure function of
//!   `(config, ServeConfig)` no matter how many times it is killed.
//! - **Admission control & backpressure** — the controller's bounded
//!   request queues are the admission door; a full queue either rejects
//!   the request into an exponential-backoff retry queue
//!   ([`AdmissionPolicy::Reject`]) or blocks it, retrying every cycle
//!   ([`AdmissionPolicy::Block`]).
//! - **Watchdog with auto-snapshot** — if no request completes or is
//!   admitted for `watchdog_cycles` while work is pending, the driver
//!   writes a `crash-<cycle>.ckpt` snapshot *before* returning the
//!   structured [`SimError::Watchdog`], so the wedged state is always
//!   recoverable for post-mortem. The progress marker is captured
//!   verbatim in every checkpoint and restored verbatim on resume, so a
//!   restored run can never trip a spurious watchdog.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use fgnvm_mem::MemorySystem;
use fgnvm_obs::{json, prom, Registry};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::{
    Completion, Cycle, Op, PhysAddr, SimError, SnapshotError, SnapshotReader, SnapshotWriter,
};
use fgnvm_workloads::{TenantSpec, TenantStream};

use crate::profile;
use crate::viz;

/// Closed windows the serve telemetry engine retains in memory.
const TELEMETRY_RETENTION: usize = 128;

/// Flight-recorder ring capacity for serve runs.
const FLIGHT_CAPACITY: usize = 256;

/// What the serve driver does when the controller's bounded request
/// queue refuses an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject with retry-after: the request re-enters an exponential
    /// -backoff queue (`backoff_base << attempts`, capped at
    /// `backoff_max`) and is re-admitted when its deadline passes.
    Reject,
    /// Block: the request retries every cycle until the queue drains;
    /// each waited cycle is counted in `blocked_cycles`.
    Block,
}

impl AdmissionPolicy {
    /// The CLI name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::Block => "block",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "reject" => Some(AdmissionPolicy::Reject),
            "block" => Some(AdmissionPolicy::Block),
            _ => None,
        }
    }
}

/// Knobs of one serve run. The pair `(SystemConfig, ServeConfig)`
/// fully determines the run — there is no other source of nondeterminism.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Hard stop, in memory cycles.
    pub horizon: u64,
    /// Requests to generate over the run (arrivals stop once exhausted).
    pub ops: u64,
    /// Seed for the deterministic arrival/address/op generator.
    pub seed: u64,
    /// Cycles between checkpoints (0 disables periodic checkpointing).
    pub checkpoint_every: u64,
    /// Directory checkpoints are written into (`ckpt-<cycle>.ckpt`);
    /// `None` keeps the run in-memory only.
    pub checkpoint_dir: Option<PathBuf>,
    /// What to do when the request queue is full.
    pub policy: AdmissionPolicy,
    /// First retry-after delay for a rejected request, in cycles.
    pub backoff_base: u64,
    /// Upper bound on any single backoff delay, in cycles.
    pub backoff_max: u64,
    /// No-progress threshold before the watchdog auto-snapshots and
    /// aborts (0 disables the watchdog).
    pub watchdog_cycles: u64,
    /// Telemetry window size in cycles (0 disables continuous telemetry).
    pub telemetry_window: u64,
    /// Stream schema-versioned JSONL window records into this file
    /// (truncated at the start of each leg: a resumed leg writes exactly
    /// the byte-suffix of the uninterrupted stream past its checkpoint).
    pub telemetry_out: Option<PathBuf>,
    /// Rewrite a Prometheus text-exposition snapshot into this file at
    /// every window close and at run end.
    pub prom_out: Option<PathBuf>,
    /// Render an in-terminal sparkline/status line on stderr at every
    /// window close.
    pub live: bool,
    /// Print a one-line progress heartbeat on stderr at every window
    /// close (simulated cycle, wall rate, completions, queue depth).
    pub progress: bool,
    /// Read-latency p99 SLO target in cycles (0 disables SLO tracking);
    /// per-window burn accounting lands in the final report.
    pub slo_read_p99: u64,
    /// Dump the flight recorder (JSON at this path, ASCII timeline at
    /// `.txt`) at run end — and on crash, in addition to the
    /// checkpoint-dir post-mortem.
    pub dump_flight: Option<PathBuf>,
    /// Multi-tenant mode: each tenant drives its own open-loop arrival
    /// stream (Poisson or bursty MMPP), its requests are tagged end to
    /// end, and its SLO is burned per window. Empty keeps the legacy
    /// single-stream generator byte-for-byte unchanged. A resumed run
    /// must pass the same tenant list the checkpointed run used.
    pub tenants: Vec<TenantSpec>,
    /// Record the scheduler issue audit (decision stream + co-issue
    /// opportunity counters). Off by default: the probe walks both queues
    /// at every issue, so it costs simulation time. The audit log rides
    /// the observer's checkpoint section, and a resumed leg continues the
    /// stream bit-identically.
    pub audit: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            horizon: 200_000,
            ops: 2_000,
            seed: 7,
            checkpoint_every: 0,
            checkpoint_dir: None,
            policy: AdmissionPolicy::Reject,
            backoff_base: 16,
            backoff_max: 4_096,
            watchdog_cycles: 1_000_000,
            telemetry_window: 10_000,
            telemetry_out: None,
            prom_out: None,
            live: false,
            progress: false,
            slo_read_p99: 0,
            dump_flight: None,
            tenants: Vec::new(),
            audit: false,
        }
    }
}

/// One rejected request waiting out its backoff.
///
/// The entry carries the op payload itself rather than regenerating it
/// from `op_index` at retry time: tenant arrival streams are stateful
/// (their RNG advances with every draw), so a retried op can only be the
/// one originally drawn. The legacy single-stream generator is a pure
/// function of the index, for which carrying the payload is equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BackoffEntry {
    /// Cycle at which re-admission may be attempted.
    retry_at: u64,
    /// Index of the op in the deterministic arrival sequence (global
    /// across tenants; the deterministic retry tie-breaker).
    op_index: u64,
    /// Admission attempts so far (drives the exponential delay).
    attempts: u32,
    /// The operation to admit.
    op: Op,
    /// The physical address to admit it at.
    addr: PhysAddr,
    /// Tenant the op belongs to (0 in legacy single-stream mode).
    tenant: u16,
}

/// One tenant's slice of the serve driver state: its arrival stream, its
/// open-loop cursor, and its admission/SLO counters.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TenantServeState {
    /// The deterministic arrival/op stream (rides the checkpoint).
    stream: TenantStream,
    /// Cycle the tenant's next op arrives at (`u64::MAX` once the
    /// arrival process has shut off).
    next_arrival_at: u64,
    /// Requests this tenant got accepted into the controller.
    admitted: u64,
    /// This tenant's arrivals turned away at the admission door.
    rejected: u64,
    /// This tenant's successful re-admissions after backoff.
    retried: u64,
    /// This tenant's completed requests.
    completions: u64,
    /// Windows evaluated against this tenant's read-p99 SLO.
    slo_windows: u64,
    /// Windows whose per-tenant read p99 exceeded the tenant's SLO.
    slo_violations: u64,
}

impl TenantServeState {
    /// Fresh state for tenant `index` under `spec`, seeded from the run
    /// seed. The first arrival gap is drawn immediately so the stream
    /// cursor is always "next arrival", never "not started".
    fn fresh(seed: u64, index: usize, spec: &TenantSpec) -> Self {
        let mut stream = TenantStream::new(seed, index as u16);
        let next_arrival_at = stream.next_gap(&spec.arrival, 0).unwrap_or(u64::MAX);
        TenantServeState {
            stream,
            next_arrival_at,
            admitted: 0,
            rejected: 0,
            retried: 0,
            completions: 0,
            slo_windows: 0,
            slo_violations: 0,
        }
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.stream.save_state(w);
        w.u64(self.next_arrival_at);
        w.u64(self.admitted);
        w.u64(self.rejected);
        w.u64(self.retried);
        w.u64(self.completions);
        w.u64(self.slo_windows);
        w.u64(self.slo_violations);
    }

    fn load_state(r: &mut SnapshotReader<'_>) -> Result<TenantServeState, SnapshotError> {
        Ok(TenantServeState {
            stream: TenantStream::load_state(r)?,
            next_arrival_at: r.u64()?,
            admitted: r.u64()?,
            rejected: r.u64()?,
            retried: r.u64()?,
            completions: r.u64()?,
            slo_windows: r.u64()?,
            slo_violations: r.u64()?,
        })
    }
}

/// The serve driver's own checkpointable state — everything outside the
/// [`MemorySystem`] that the loop needs to continue deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeState {
    /// Index of the next op to generate.
    next_op: u64,
    /// Cycle the next op arrives at.
    next_arrival_at: u64,
    /// Rejected requests waiting out their backoff.
    backoff: Vec<BackoffEntry>,
    /// Requests completed so far.
    completions: u64,
    /// Cycle of the last completion or successful admission (the
    /// watchdog's progress marker; checkpointed verbatim so a resumed
    /// run cannot trip spuriously).
    last_progress: u64,
    /// Arrivals the admission door turned away (Reject policy).
    rejected: u64,
    /// Cycles spent blocked at the door (Block policy).
    blocked_cycles: u64,
    /// Successful re-admissions after backoff.
    retried: u64,
    /// Requests accepted into the controller.
    admitted: u64,
    /// Checkpoints written so far.
    checkpoints_written: u64,
    /// Telemetry windows already emitted to the JSONL stream (the resume
    /// cursor: a resumed leg emits only windows past this index, so its
    /// stream is a byte-suffix of the uninterrupted one).
    windows_seen: u64,
    /// Windows evaluated against the read-p99 SLO.
    slo_windows: u64,
    /// Windows whose read p99 exceeded the SLO target.
    slo_violations: u64,
    /// Per-tenant driver state (empty in legacy single-stream mode).
    tenants: Vec<TenantServeState>,
}

impl ServeState {
    fn fresh() -> Self {
        ServeState {
            next_op: 0,
            next_arrival_at: 0,
            backoff: Vec::new(),
            completions: 0,
            last_progress: 0,
            rejected: 0,
            blocked_cycles: 0,
            retried: 0,
            admitted: 0,
            checkpoints_written: 0,
            windows_seen: 0,
            slo_windows: 0,
            slo_violations: 0,
            tenants: Vec::new(),
        }
    }

    /// Fresh state for a serve run under `sc`, with one tenant slice per
    /// configured tenant (none in legacy mode).
    fn fresh_for(sc: &ServeConfig) -> Self {
        let mut state = ServeState::fresh();
        state.tenants = sc
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| TenantServeState::fresh(sc.seed, i, spec))
            .collect();
        state
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.tag("serve");
        w.u64(self.next_op);
        w.u64(self.next_arrival_at);
        w.usize(self.backoff.len());
        for b in &self.backoff {
            w.u64(b.retry_at);
            w.u64(b.op_index);
            w.u32(b.attempts);
            w.bool(b.op.is_write());
            w.u64(b.addr.raw());
            w.u32(u32::from(b.tenant));
        }
        w.u64(self.completions);
        w.u64(self.last_progress);
        w.u64(self.rejected);
        w.u64(self.blocked_cycles);
        w.u64(self.retried);
        w.u64(self.admitted);
        w.u64(self.checkpoints_written);
        w.u64(self.windows_seen);
        w.u64(self.slo_windows);
        w.u64(self.slo_violations);
        w.usize(self.tenants.len());
        for t in &self.tenants {
            t.save_state(w);
        }
    }

    fn load_state(r: &mut SnapshotReader<'_>) -> Result<ServeState, SnapshotError> {
        r.tag("serve")?;
        let next_op = r.u64()?;
        let next_arrival_at = r.u64()?;
        let n = r.usize()?;
        let mut backoff = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            backoff.push(BackoffEntry {
                retry_at: r.u64()?,
                op_index: r.u64()?,
                attempts: r.u32()?,
                op: if r.bool()? { Op::Write } else { Op::Read },
                addr: PhysAddr::new(r.u64()?),
                tenant: r.u32()? as u16,
            });
        }
        let completions = r.u64()?;
        let last_progress = r.u64()?;
        let rejected = r.u64()?;
        let blocked_cycles = r.u64()?;
        let retried = r.u64()?;
        let admitted = r.u64()?;
        let checkpoints_written = r.u64()?;
        let windows_seen = r.u64()?;
        let slo_windows = r.u64()?;
        let slo_violations = r.u64()?;
        let n_tenants = r.usize()?.min(usize::from(u16::MAX) + 1);
        let mut tenants = Vec::with_capacity(n_tenants);
        for _ in 0..n_tenants {
            tenants.push(TenantServeState::load_state(r)?);
        }
        Ok(ServeState {
            next_op,
            next_arrival_at,
            backoff,
            completions,
            last_progress,
            rejected,
            blocked_cycles,
            retried,
            admitted,
            checkpoints_written,
            windows_seen,
            slo_windows,
            slo_violations,
            tenants,
        })
    }
}

/// Serializes the driver state and the full memory-system state into
/// one self-describing checkpoint blob, in one pass under one checksum
/// trailer.
pub fn save_checkpoint(state: &ServeState, mem: &MemorySystem) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    state.save_state(&mut w);
    mem.save_into(&mut w);
    w.finish()
}

/// Decodes a checkpoint written by [`save_checkpoint`], rebuilding the
/// memory system under `config`.
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] for truncated, corrupted, or
/// config-mismatched checkpoints — never panics on hostile bytes.
pub fn load_checkpoint(
    config: SystemConfig,
    bytes: &[u8],
) -> Result<(ServeState, MemorySystem), SimError> {
    let mut r = SnapshotReader::new(bytes)?;
    let state = ServeState::load_state(&mut r)?;
    let mem = MemorySystem::restore_from(config, &mut r)?;
    r.expect_end()?;
    Ok((state, mem))
}

/// Reads a checkpoint file and rebuilds `(ServeState, MemorySystem)`.
///
/// # Errors
///
/// [`SimError::Io`] if the file cannot be read, [`SimError::Snapshot`]
/// if its contents do not decode.
pub fn load_checkpoint_file(
    config: SystemConfig,
    path: &Path,
) -> Result<(ServeState, MemorySystem), SimError> {
    let bytes = std::fs::read(path).map_err(|e| SimError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    load_checkpoint(config, &bytes)
}

/// Final report of a serve run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Cycle the run ended at.
    pub final_cycle: u64,
    /// Requests accepted into the controller.
    pub admitted: u64,
    /// Requests completed.
    pub completions: u64,
    /// Arrivals rejected at the admission door.
    pub rejected: u64,
    /// Successful re-admissions after backoff.
    pub retried: u64,
    /// Cycles spent blocked at the door (Block policy).
    pub blocked_cycles: u64,
    /// Checkpoints written over the whole run (including resumed legs).
    pub checkpoints_written: u64,
    /// Rows remapped to spares.
    pub remapped_rows: u64,
    /// Rows retired outright (spares exhausted).
    pub retired_rows: u64,
    /// Banks degraded to read-only mode.
    pub read_only_banks: u64,
    /// Writes rejected at the admission door because the target bank is
    /// read-only.
    pub read_only_write_rejections: u64,
    /// Telemetry windows emitted to the JSONL stream (closed windows;
    /// the final partial window is not counted).
    pub windows_emitted: u64,
    /// Windows evaluated against the read-p99 SLO (0 when SLO tracking
    /// is off).
    pub slo_windows: u64,
    /// Windows whose read p99 exceeded the SLO target.
    pub slo_violations: u64,
    /// Per-tenant outcomes, in tenant-id order (empty in legacy mode).
    pub tenants: Vec<TenantReport>,
    /// Full metrics registry (memory + observer + serve counters) as JSON.
    pub metrics_json: String,
}

/// One tenant's slice of the final serve report.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name from the spec.
    pub name: String,
    /// Requests accepted into the controller.
    pub admitted: u64,
    /// Requests completed.
    pub completions: u64,
    /// Arrivals rejected at the admission door.
    pub rejected: u64,
    /// Successful re-admissions after backoff.
    pub retried: u64,
    /// Cumulative read-latency percentiles, in cycles (bucket upper
    /// bounds of the per-tenant histogram).
    pub read_p50: u64,
    /// Cumulative read-latency p95.
    pub read_p95: u64,
    /// Cumulative read-latency p99.
    pub read_p99: u64,
    /// The tenant's read-p99 SLO target (0 = none).
    pub slo_read_p99: u64,
    /// Windows evaluated against the tenant SLO.
    pub slo_windows: u64,
    /// Windows whose per-tenant read p99 exceeded the target.
    pub slo_violations: u64,
}

/// One op of the deterministic open-loop workload: a pure function of
/// `(seed, index)`, so interrupted and uninterrupted runs generate the
/// exact same arrival stream.
fn generate_op(seed: u64, index: u64, lines: u64, line_bytes: u64) -> (Op, PhysAddr, u64) {
    let mut s = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next = move || fgnvm_types::splitmix64(&mut s);
    let op = if next() % 100 < 35 {
        Op::Write
    } else {
        Op::Read
    };
    // Hot-set bias: three quarters of traffic lands on 64 lines so rows
    // and tiles actually contend; the tail probes the full space.
    let line = match next() % 4 {
        0..=2 => next() % 64,
        _ => next() % lines.max(1),
    };
    // Mean inter-arrival of ~12 cycles keeps the queues under pressure
    // without permanently saturating them.
    let gap = next() % 25;
    (op, PhysAddr::new(line * line_bytes), gap)
}

fn write_checkpoint_file(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, SimError> {
    std::fs::create_dir_all(dir).map_err(|e| SimError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let path = dir.join(name);
    // Write-then-rename so a crash mid-write never leaves a torn file
    // under the final name: the newest `*.ckpt` is always complete.
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| SimError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
    Ok(path)
}

/// Runs a fresh serve session: builds the memory system (observer and a
/// bounded command log enabled), then drives the loop to the horizon.
///
/// # Errors
///
/// [`SimError::Config`] for an inadmissible configuration,
/// [`SimError::Watchdog`] if progress stalls (after auto-snapshotting),
/// [`SimError::CapacityExhausted`] if the wear-out ladder bottoms out,
/// [`SimError::Io`] if a checkpoint cannot be written.
pub fn serve(config: SystemConfig, sc: &ServeConfig) -> Result<ServeReport, SimError> {
    let mut mem = MemorySystem::new(config)?;
    mem.set_fast_forward(true);
    mem.enable_observer();
    mem.enable_command_log(1 << 16);
    if sc.telemetry_window > 0 {
        mem.enable_telemetry(sc.telemetry_window, TELEMETRY_RETENTION, FLIGHT_CAPACITY);
    }
    if sc.audit {
        mem.enable_audit();
    }
    run_loop(&mut mem, ServeState::fresh_for(sc), sc)
}

/// Resumes a serve session from a checkpoint file and drives it to the
/// same horizon. The final state is bit-identical to the uninterrupted
/// run of [`serve`] with the same `(config, ServeConfig)`.
///
/// # Errors
///
/// Same as [`serve`], plus [`SimError::Io`] / [`SimError::Snapshot`]
/// when the checkpoint cannot be read or decoded.
pub fn resume(
    config: SystemConfig,
    checkpoint: &Path,
    sc: &ServeConfig,
) -> Result<ServeReport, SimError> {
    let (state, mut mem) = load_checkpoint_file(config, checkpoint)?;
    if sc.audit {
        // Idempotent: a checkpoint written with the audit on restores the
        // log, and enabling again must not reset the stream mid-run.
        mem.enable_audit();
    }
    run_loop(&mut mem, state, sc)
}

fn write_text_file(path: &Path, text: &str) -> Result<(), SimError> {
    std::fs::write(path, text).map_err(|e| SimError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Dumps the flight recorder as a readable post-mortem: JSON + ASCII
/// timeline. On a crash (watchdog trip, capacity exhaustion) the dump
/// lands next to the crash checkpoint as `flight-<cycle>.{json,txt}`;
/// a `--dump-flight` path gets the pair in either case.
fn dump_flight_postmortem(
    mem: &MemorySystem,
    sc: &ServeConfig,
    now: u64,
    crash: bool,
) -> Result<(), SimError> {
    let Some(flight) = mem.observer().and_then(|o| o.flight()) else {
        return Ok(());
    };
    let doc = flight.to_json();
    let ascii = viz::render_flight(flight);
    if crash {
        if let Some(dir) = &sc.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(|e| SimError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
            write_text_file(&dir.join(format!("flight-{now:012}.json")), &doc)?;
            write_text_file(&dir.join(format!("flight-{now:012}.txt")), &ascii)?;
        }
    }
    if let Some(path) = &sc.dump_flight {
        write_text_file(path, &doc)?;
        write_text_file(&path.with_extension("txt"), &ascii)?;
    }
    Ok(())
}

/// Side-channel state of the telemetry exposition: the JSONL stream, the
/// shared provenance prefix, and the wall-clock markers the heartbeat
/// rate is computed from. None of this feeds back into simulated state.
struct TelemetryIo {
    jsonl: Option<(std::fs::File, PathBuf)>,
    provenance: String,
    wall_last: std::time::Instant,
    cycle_last: u64,
}

impl TelemetryIo {
    fn open(mem: &MemorySystem, sc: &ServeConfig) -> Result<TelemetryIo, SimError> {
        // Truncate, never append: a resumed leg owns its own file and
        // writes exactly the windows past its checkpoint, so its stream
        // is a byte-suffix of the uninterrupted run's.
        let jsonl = match &sc.telemetry_out {
            Some(path) => Some((
                std::fs::File::create(path).map_err(|e| SimError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })?,
                path.clone(),
            )),
            None => None,
        };
        // The PR 5 provenance block, minus the timestamp: window records
        // must be byte-identical across reruns and resumes.
        let provenance = format!(
            "\"schema_version\":{},\"git_sha\":{},\"config_hash\":{}",
            profile::SCHEMA_VERSION,
            json::quote(&profile::git_sha()),
            json::quote(&profile::fnv1a_hex(
                format!("{:?}", mem.config()).as_bytes()
            ))
        );
        Ok(TelemetryIo {
            jsonl,
            provenance,
            wall_last: std::time::Instant::now(),
            cycle_last: mem.now().raw(),
        })
    }

    fn write_record(&mut self, body: &str) -> Result<(), SimError> {
        if let Some((file, path)) = &mut self.jsonl {
            let line = format!("{{{},{}}}\n", self.provenance, body);
            file.write_all(line.as_bytes()).map_err(|e| SimError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
        }
        Ok(())
    }
}

/// Builds the full metrics registry for a run: memory, observer, and
/// serve-driver counters. Used for the final report and for every
/// Prometheus snapshot, so both expose the same names.
fn export_registry(mem: &MemorySystem, state: &ServeState) -> Registry {
    let mut reg = Registry::new();
    mem.export_metrics(&mut reg);
    if let Some(obs) = mem.observer() {
        obs.export_metrics(&mut reg);
    }
    reg.set_counter("serve.admitted", state.admitted);
    reg.set_counter("serve.completions", state.completions);
    reg.set_counter("serve.rejected", state.rejected);
    reg.set_counter("serve.retried", state.retried);
    reg.set_counter("serve.blocked_cycles", state.blocked_cycles);
    reg.set_counter("serve.windows_emitted", state.windows_seen);
    reg.set_counter("serve.slo_windows", state.slo_windows);
    reg.set_counter("serve.slo_violations", state.slo_violations);
    reg.set_counter("serve.final_cycle", mem.now().raw());
    for (i, t) in state.tenants.iter().enumerate() {
        let p = format!("serve.tenant.{i}");
        reg.set_counter(&format!("{p}.admitted"), t.admitted);
        reg.set_counter(&format!("{p}.completions"), t.completions);
        reg.set_counter(&format!("{p}.rejected"), t.rejected);
        reg.set_counter(&format!("{p}.retried"), t.retried);
        reg.set_counter(&format!("{p}.slo_windows"), t.slo_windows);
        reg.set_counter(&format!("{p}.slo_violations"), t.slo_violations);
    }
    reg
}

/// Closes every telemetry window ending at or before `now` and emits the
/// newly closed ones: JSONL records, SLO burn accounting, the Prometheus
/// snapshot rewrite, and the live/progress stderr lines. Idempotent via
/// the `windows_seen` cursor, so boundary landings and the end-of-run
/// flush can both call it.
fn process_telemetry_windows(
    mem: &mut MemorySystem,
    state: &mut ServeState,
    sc: &ServeConfig,
    io: &mut TelemetryIo,
    now: u64,
) -> Result<(), SimError> {
    mem.sample_telemetry_gauges();
    let Some(ts) = mem.observer_mut().and_then(|o| o.timeseries_mut()) else {
        return Ok(());
    };
    ts.roll_to(now);
    let win = ts.window_cycles();
    let Some(obs) = mem.observer() else {
        return Ok(());
    };
    let ts = obs.timeseries().expect("telemetry enabled above");
    let mut emitted_any = false;
    let mut status: Option<String> = None;
    for w in ts.windows() {
        if w.index < state.windows_seen {
            continue;
        }
        io.write_record(&w.to_json(win, (w.index + 1) * win, false))?;
        state.windows_seen = w.index + 1;
        emitted_any = true;
        if sc.slo_read_p99 > 0 {
            state.slo_windows += 1;
            if w.read_latency.percentile(0.99) > sc.slo_read_p99 {
                state.slo_violations += 1;
            }
        }
        // Per-tenant SLO burn: each tenant's window slice is judged
        // against its own target. Quiet windows (no slice yet, or no
        // completed reads) burn nothing.
        for (i, (spec, tstate)) in sc.tenants.iter().zip(state.tenants.iter_mut()).enumerate() {
            if spec.slo_read_p99 == 0 {
                continue;
            }
            tstate.slo_windows += 1;
            if let Some(slice) = w.tenants.get(i) {
                if slice.read_latency.percentile(0.99) > spec.slo_read_p99 {
                    tstate.slo_violations += 1;
                }
            }
        }
        if sc.live || sc.progress {
            let elapsed = io.wall_last.elapsed().as_secs_f64().max(1e-9);
            let rate = (now.saturating_sub(io.cycle_last)) as f64 / elapsed;
            io.wall_last = std::time::Instant::now();
            io.cycle_last = now;
            if sc.progress {
                eprintln!(
                    "progress: cycle={now} window={} rate={rate:.0} cyc/s \
                     completed={} read_queue={} write_queue={}",
                    w.index, state.completions, w.read_queue, w.write_queue
                );
            }
            if sc.live {
                let p99s: Vec<f64> = ts
                    .windows()
                    .map(|w| w.read_latency.percentile(0.99) as f64)
                    .collect();
                let tail = p99s.len().saturating_sub(32);
                status = Some(format!(
                    "\r[serve] cyc {now} win {} p99r {} rq {} wq {} |{}|  ",
                    w.index,
                    w.read_latency.percentile(0.99),
                    w.read_queue,
                    w.write_queue,
                    viz::sparkline(&p99s[tail..])
                ));
            }
        }
    }
    if let Some(line) = status {
        eprint!("{line}");
    }
    if emitted_any {
        if let Some(path) = &sc.prom_out {
            write_text_file(path, &prom::render(&export_registry(mem, state)))?;
        }
    }
    Ok(())
}

/// The deterministic serve loop. Hops the clock event-wise between
/// arrival, backoff, checkpoint, watchdog, and horizon boundaries; every
/// decision is a pure function of `(mem, state, sc)`.
fn run_loop(
    mem: &mut MemorySystem,
    mut state: ServeState,
    sc: &ServeConfig,
) -> Result<ServeReport, SimError> {
    let line_bytes = u64::from(mem.config().geometry.line_bytes());
    let lines = mem.config().geometry.capacity_bytes() / line_bytes.max(1);
    // A resumed run must be driven by the same tenant list it was
    // checkpointed with: the snapshot carries one stream per tenant.
    if state.tenants.len() != sc.tenants.len() {
        return Err(SimError::Config(fgnvm_types::ConfigError::Invalid {
            field: "tenants",
            reason: "checkpoint tenant count differs from the configured tenant list",
        }));
    }
    let tenant_mode = !sc.tenants.is_empty();
    // Window size comes from the (possibly restored) engine, not from
    // `sc`: a resumed run must keep the checkpoint's window geometry.
    let telemetry_window = mem
        .observer()
        .and_then(|o| o.timeseries())
        .map(|ts| ts.window_cycles());
    let mut tio = TelemetryIo::open(mem, sc)?;
    let mut out: Vec<Completion> = Vec::new();
    loop {
        let now = mem.now().raw();
        if now >= sc.horizon {
            break;
        }
        let next_arrival = if tenant_mode {
            state
                .tenants
                .iter()
                .map(|t| t.next_arrival_at)
                .min()
                .unwrap_or(u64::MAX)
        } else {
            state.next_arrival_at
        };
        let arrivals_left = state.next_op < sc.ops && next_arrival < u64::MAX;
        let work_pending = !mem.is_idle() || !state.backoff.is_empty();
        if !arrivals_left && !work_pending {
            break;
        }

        // Next cycle anything interesting happens.
        let mut target = sc.horizon;
        if arrivals_left {
            target = target.min(next_arrival);
        }
        if let Some(min_retry) = state.backoff.iter().map(|b| b.retry_at).min() {
            target = target.min(min_retry);
        }
        if let Some(intervals) = now.checked_div(sc.checkpoint_every) {
            target = target.min((intervals + 1) * sc.checkpoint_every);
        }
        if sc.watchdog_cycles > 0 && work_pending {
            target = target.min(state.last_progress.saturating_add(sc.watchdog_cycles));
        }
        // Land on every telemetry window boundary, so each window closes
        // with its end-of-window gauges sampled before any later hook.
        if let Some(win) = telemetry_window {
            target = target.min((now / win + 1).saturating_mul(win));
        }
        // Land on every device event while work is in flight, so the
        // cycle the run goes idle at (and therefore the final cycle) is
        // identical no matter where checkpoint boundaries fall.
        if !mem.is_idle() {
            if let Some(ev) = mem.next_event_at() {
                target = target.min(ev.raw().max(now + 1));
            }
        }

        if target > now {
            out.clear();
            mem.tick_to(Cycle::new(target), &mut out);
            state.completions += out.len() as u64;
            if tenant_mode {
                for c in &out {
                    if let Some(t) = state.tenants.get_mut(usize::from(c.tenant)) {
                        t.completions += 1;
                    }
                }
            }
            // Progress marker from completion timestamps, not the hop
            // boundary — hop placement must never affect the state.
            if let Some(last) = out.iter().map(|c| c.finished.raw()).max() {
                state.last_progress = state.last_progress.max(last);
            }
        }
        let now = mem.now().raw();

        // Watchdog: no completion or admission for watchdog_cycles while
        // work sat queued. Auto-snapshot before aborting so the wedged
        // state is preserved for post-mortem.
        let work_pending = !mem.is_idle() || !state.backoff.is_empty();
        if sc.watchdog_cycles > 0
            && work_pending
            && now.saturating_sub(state.last_progress) >= sc.watchdog_cycles
        {
            if let Some(dir) = &sc.checkpoint_dir {
                let blob = save_checkpoint(&state, mem);
                write_checkpoint_file(dir, &format!("crash-{now:012}.ckpt"), &blob)?;
            }
            // The flight post-mortem is best-effort on this path: the
            // watchdog diagnosis must surface even if a dump file fails.
            let _ = dump_flight_postmortem(mem, sc, now, true);
            return Err(SimError::Watchdog {
                stall_cycles: sc.watchdog_cycles,
                now,
                read_queue: mem.read_queue_len(),
                write_queue: mem.write_queue_len(),
                state: format!(
                    "serve: {} admitted, {} completed, {} in backoff; \
                     crash checkpoint written if --checkpoint-dir was set",
                    state.admitted,
                    state.completions,
                    state.backoff.len()
                ),
            });
        }

        // Wear-out ladder bottom rung: surface the structured error, with
        // the flight post-mortem alongside (best-effort, like the watchdog).
        if let Err(e) = mem.check_capacity() {
            let _ = dump_flight_postmortem(mem, sc, now, true);
            return Err(e);
        }

        // Close and emit telemetry windows at boundary landings — after
        // the health checks, before any hook at this cycle can fire.
        if let Some(win) = telemetry_window {
            if now > 0 && now.is_multiple_of(win) {
                process_telemetry_windows(mem, &mut state, sc, &mut tio, now)?;
            }
        }

        // Re-admit due backoff entries, oldest op first (deterministic).
        state
            .backoff
            .sort_unstable_by_key(|b| (b.retry_at, b.op_index));
        let mut still_waiting = Vec::new();
        for entry in std::mem::take(&mut state.backoff) {
            if entry.retry_at > now {
                still_waiting.push(entry);
                continue;
            }
            if mem
                .enqueue_for(entry.op, entry.addr, entry.tenant)
                .is_some()
            {
                state.admitted += 1;
                state.retried += 1;
                if let Some(t) = state.tenants.get_mut(usize::from(entry.tenant)) {
                    t.admitted += 1;
                    t.retried += 1;
                }
                state.last_progress = state.last_progress.max(now);
            } else {
                still_waiting.push(requeue(entry, now, sc, &mut state));
            }
        }
        state.backoff = still_waiting;

        // Admit new arrivals that are due.
        if tenant_mode {
            // Earliest-arrival tenant first; ties break to the lower
            // tenant id, so the interleave is a pure function of state.
            loop {
                if state.next_op >= sc.ops {
                    break;
                }
                let Some(ti) = state
                    .tenants
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.next_arrival_at <= now)
                    .min_by_key(|(i, t)| (t.next_arrival_at, *i))
                    .map(|(i, _)| i)
                else {
                    break;
                };
                let spec = &sc.tenants[ti];
                let index = state.next_op;
                state.next_op += 1;
                let arrived_at = state.tenants[ti].next_arrival_at;
                let t = &mut state.tenants[ti];
                let (op, line) = t.stream.next_op(spec, lines);
                let addr = PhysAddr::new(line * line_bytes);
                // The next gap is drawn against the arrival-time clock,
                // not the loop landing, so MMPP phase flips are a pure
                // function of the stream state.
                t.next_arrival_at = match t.stream.next_gap(&spec.arrival, arrived_at) {
                    Some(gap) => arrived_at.saturating_add(gap.max(1)),
                    None => u64::MAX,
                };
                let tenant = ti as u16;
                if mem.enqueue_for(op, addr, tenant).is_some() {
                    state.admitted += 1;
                    state.tenants[ti].admitted += 1;
                    state.last_progress = state.last_progress.max(now);
                } else {
                    let entry = BackoffEntry {
                        retry_at: now,
                        op_index: index,
                        attempts: 0,
                        op,
                        addr,
                        tenant,
                    };
                    let waiting = requeue(entry, now, sc, &mut state);
                    state.backoff.push(waiting);
                }
            }
        } else {
            while state.next_op < sc.ops && state.next_arrival_at <= now {
                let index = state.next_op;
                let (op, addr, gap) = generate_op(sc.seed, index, lines, line_bytes);
                state.next_op += 1;
                state.next_arrival_at = state.next_arrival_at.saturating_add(gap.max(1));
                if mem.enqueue(op, addr).is_some() {
                    state.admitted += 1;
                    state.last_progress = state.last_progress.max(now);
                } else {
                    let entry = BackoffEntry {
                        retry_at: now,
                        op_index: index,
                        attempts: 0,
                        op,
                        addr,
                        tenant: 0,
                    };
                    let waiting = requeue(entry, now, sc, &mut state);
                    state.backoff.push(waiting);
                }
            }
        }

        // Periodic checkpoint at absolute multiples of checkpoint_every,
        // so an uninterrupted and a resumed run hit the same boundaries.
        if sc.checkpoint_every > 0 && now > 0 && now.is_multiple_of(sc.checkpoint_every) {
            state.checkpoints_written += 1;
            if let Some(dir) = &sc.checkpoint_dir {
                let blob = save_checkpoint(&state, mem);
                write_checkpoint_file(dir, &format!("ckpt-{now:012}.ckpt"), &blob)?;
            }
        }
    }

    // End-of-run telemetry flush: close anything the last landing left
    // behind (idempotent via the cursor), then emit the final partial
    // window — stamped with live queue occupancy, since it never gets a
    // boundary close — and the final Prometheus snapshot.
    if let Some(win) = telemetry_window {
        let now = mem.now().raw();
        process_telemetry_windows(mem, &mut state, sc, &mut tio, now)?;
        if let Some(ts) = mem.observer().and_then(|o| o.timeseries()) {
            let cur = ts.current();
            if now > cur.index * win {
                let mut partial = cur.clone();
                partial.read_queue = mem.read_queue_len() as u64;
                partial.write_queue = mem.write_queue_len() as u64;
                partial.draining = mem.draining_channels() as u64;
                tio.write_record(&partial.to_json(win, now, true))?;
            }
        }
        if sc.live {
            eprintln!();
        }
    }
    dump_flight_postmortem(mem, sc, mem.now().raw(), false)?;

    let reg = export_registry(mem, &state);
    if let Some(path) = &sc.prom_out {
        write_text_file(path, &prom::render(&reg))?;
    }
    let tenants = sc
        .tenants
        .iter()
        .zip(state.tenants.iter())
        .enumerate()
        .map(|(i, (spec, t))| {
            let stats = mem.stats().tenants.get(i);
            TenantReport {
                name: spec.name.clone(),
                admitted: t.admitted,
                completions: t.completions,
                rejected: t.rejected,
                retried: t.retried,
                read_p50: stats.map_or(0, |s| s.read_latency_percentile(0.50)),
                read_p95: stats.map_or(0, |s| s.read_latency_percentile(0.95)),
                read_p99: stats.map_or(0, |s| s.read_latency_percentile(0.99)),
                slo_read_p99: spec.slo_read_p99,
                slo_windows: t.slo_windows,
                slo_violations: t.slo_violations,
            }
        })
        .collect();
    Ok(ServeReport {
        final_cycle: mem.now().raw(),
        admitted: state.admitted,
        completions: state.completions,
        rejected: state.rejected,
        retried: state.retried,
        blocked_cycles: state.blocked_cycles,
        checkpoints_written: state.checkpoints_written,
        remapped_rows: mem.stats().remapped_rows,
        retired_rows: mem.stats().retired_rows,
        read_only_banks: mem.stats().read_only_banks,
        read_only_write_rejections: mem.stats().read_only_write_rejections,
        windows_emitted: state.windows_seen,
        slo_windows: state.slo_windows,
        slo_violations: state.slo_violations,
        tenants,
        metrics_json: reg.to_json(),
    })
}

/// One tenant's row of the [`FairnessReport`].
#[derive(Debug, Clone)]
pub struct FairnessRow {
    /// Tenant name from the spec.
    pub name: String,
    /// Read p99 with the tenant running the device alone.
    pub isolated_p99: u64,
    /// Read p99 sharing the device under plain FRFCFS.
    pub shared_frfcfs_p99: u64,
    /// Read p99 sharing the device under the least-service QoS scheduler.
    pub shared_qos_p99: u64,
}

/// Outcome of the serve-driven QoS fairness experiment.
#[derive(Debug, Clone)]
pub struct FairnessReport {
    /// Per-tenant p99s across the three scenarios, in tenant order.
    pub tenants: Vec<FairnessRow>,
    /// Spread (max − min) of per-tenant read p99 under shared FRFCFS.
    pub frfcfs_p99_gap: u64,
    /// Spread of per-tenant read p99 under the shared QoS scheduler.
    pub qos_p99_gap: u64,
}

/// Runs the QoS fairness experiment: every tenant once in isolation,
/// then all tenants sharing the device under plain FRFCFS, then sharing
/// under the least-service `FRFCFS_QOS` scheduler. All three use the
/// same `(config, sc)` apart from the scheduler knob and, for the
/// isolated legs, the tenant list.
///
/// # Errors
///
/// [`SimError::Config`] when fewer than two tenants are configured, plus
/// anything [`serve`] can return.
pub fn fairness(config: SystemConfig, sc: &ServeConfig) -> Result<FairnessReport, SimError> {
    if sc.tenants.len() < 2 {
        return Err(SimError::Config(fgnvm_types::ConfigError::Invalid {
            field: "tenants",
            reason: "the fairness experiment needs at least two tenants",
        }));
    }
    let mut isolated = Vec::new();
    for spec in &sc.tenants {
        let mut solo = sc.clone();
        solo.tenants = vec![spec.clone()];
        let report = serve(config, &solo)?;
        isolated.push(report.tenants[0].read_p99);
    }
    let mut shared = config;
    shared.scheduler = fgnvm_types::config::SchedulerKind::Frfcfs;
    let frfcfs = serve(shared, sc)?;
    let mut qos_cfg = config;
    qos_cfg.scheduler = fgnvm_types::config::SchedulerKind::FrfcfsQos;
    let qos = serve(qos_cfg, sc)?;

    let tenants: Vec<FairnessRow> = sc
        .tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| FairnessRow {
            name: spec.name.clone(),
            isolated_p99: isolated[i],
            shared_frfcfs_p99: frfcfs.tenants[i].read_p99,
            shared_qos_p99: qos.tenants[i].read_p99,
        })
        .collect();
    let gap = |rows: &[FairnessRow], pick: fn(&FairnessRow) -> u64| {
        let active: Vec<u64> = rows.iter().map(pick).filter(|p| *p > 0).collect();
        match (active.iter().max(), active.iter().min()) {
            (Some(hi), Some(lo)) => hi - lo,
            _ => 0,
        }
    };
    let frfcfs_p99_gap = gap(&tenants, |r| r.shared_frfcfs_p99);
    let qos_p99_gap = gap(&tenants, |r| r.shared_qos_p99);
    Ok(FairnessReport {
        tenants,
        frfcfs_p99_gap,
        qos_p99_gap,
    })
}

/// Applies the admission policy to a refused request, returning the
/// entry to wait with.
fn requeue(
    entry: BackoffEntry,
    now: u64,
    sc: &ServeConfig,
    state: &mut ServeState,
) -> BackoffEntry {
    match sc.policy {
        AdmissionPolicy::Reject => {
            state.rejected += 1;
            if let Some(t) = state.tenants.get_mut(usize::from(entry.tenant)) {
                t.rejected += 1;
            }
            let delay = sc
                .backoff_base
                .saturating_mul(1u64 << entry.attempts.min(32))
                .min(sc.backoff_max.max(1));
            BackoffEntry {
                retry_at: now + delay.max(1),
                attempts: entry.attempts.saturating_add(1),
                ..entry
            }
        }
        AdmissionPolicy::Block => {
            state.blocked_cycles += 1;
            BackoffEntry {
                retry_at: now + 1,
                attempts: entry.attempts.saturating_add(1),
                ..entry
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SystemConfig {
        SystemConfig::fgnvm(8, 2).expect("paper grid is valid")
    }

    fn quick_sc() -> ServeConfig {
        ServeConfig {
            horizon: 40_000,
            ops: 600,
            seed: 11,
            backoff_base: 8,
            backoff_max: 512,
            telemetry_window: 5_000,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_completes_work_within_horizon() {
        let report = serve(small_cfg(), &quick_sc()).expect("serve runs clean");
        assert!(report.admitted > 0);
        assert_eq!(report.admitted, report.completions);
        assert!(report.final_cycle <= 40_000);
        assert!(report.metrics_json.contains("\"serve.admitted\""));
    }

    #[test]
    fn checkpoint_roundtrip_mid_run_is_bit_identical() {
        let sc = quick_sc();
        // Uninterrupted reference.
        let reference = serve(small_cfg(), &sc).expect("reference run");

        // Interrupted run: checkpoint at cycle 4000, then resume from
        // that file as if the process had been killed right after.
        let mut sc_ck = sc.clone();
        sc_ck.checkpoint_every = 4_000;
        let dir = std::env::temp_dir().join("fgnvm-serve-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        sc_ck.checkpoint_dir = Some(dir.clone());
        let full = serve(small_cfg(), &sc_ck).expect("checkpointing run");
        assert!(full.checkpoints_written >= 1, "run must have checkpointed");
        let first = dir.join(format!("ckpt-{:012}.ckpt", 4_000));
        assert!(first.exists(), "expected checkpoint at cycle 4000");
        let resumed = resume(small_cfg(), &first, &sc_ck).expect("resumed run");

        // The resumed run re-checkpoints later boundaries; everything
        // else must match the uninterrupted checkpointing run exactly.
        assert_eq!(resumed.final_cycle, full.final_cycle);
        assert_eq!(resumed.admitted, full.admitted);
        assert_eq!(resumed.completions, full.completions);
        assert_eq!(resumed.rejected, full.rejected);
        assert_eq!(resumed.retried, full.retried);
        assert_eq!(resumed.metrics_json, full.metrics_json);
        // And the checkpointing run itself must agree with the plain
        // reference (checkpoint boundaries never perturb the physics).
        assert_eq!(full.admitted, reference.admitted);
        assert_eq!(full.completions, reference.completions);
        assert_eq!(full.final_cycle, reference.final_cycle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_stream_is_schema_versioned_and_resume_is_a_byte_suffix() {
        let dir = std::env::temp_dir().join("fgnvm-serve-telemetry");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut sc = quick_sc();
        sc.checkpoint_every = 4_000;
        sc.checkpoint_dir = Some(dir.clone());
        sc.telemetry_window = 1_000;
        sc.telemetry_out = Some(dir.join("ref.jsonl"));
        sc.dump_flight = Some(dir.join("ref-flight.json"));
        sc.slo_read_p99 = 1; // everything violates: burn accounting must tick
        let full = serve(small_cfg(), &sc).expect("reference run");
        assert!(full.windows_emitted >= 2, "{}", full.windows_emitted);
        assert_eq!(full.slo_windows, full.windows_emitted);
        assert!(full.slo_violations >= 1);
        assert!(full.slo_violations <= full.slo_windows);

        let ref_stream = std::fs::read_to_string(dir.join("ref.jsonl")).expect("stream");
        // Every line is a JSON object carrying the provenance block and
        // the window payload.
        for line in ref_stream.lines() {
            let doc = profile::json::parse(line).expect("valid JSON");
            let obj = doc.as_object().expect("window record is an object");
            for field in [
                "schema_version",
                "git_sha",
                "config_hash",
                "window",
                "start",
                "end",
                "partial",
                "arrivals",
                "read",
                "write",
                "stall",
                "instants",
            ] {
                assert!(
                    obj.contains_key(field),
                    "window record missing `{field}`: {line}"
                );
            }
        }
        // The run ends mid-window, so the stream closes with a partial
        // record (exactly one).
        let partials = ref_stream
            .lines()
            .filter(|l| l.contains("\"partial\":true"))
            .count();
        assert_eq!(partials, 1, "{ref_stream}");
        assert!(ref_stream
            .lines()
            .last()
            .unwrap()
            .contains("\"partial\":true"));

        // Resume from the first checkpoint into its own files: the
        // resumed stream must be a byte-suffix of the reference stream,
        // and the flight dump byte-identical.
        let mut sc_res = sc.clone();
        sc_res.telemetry_out = Some(dir.join("res.jsonl"));
        sc_res.dump_flight = Some(dir.join("res-flight.json"));
        let first = dir.join(format!("ckpt-{:012}.ckpt", 4_000));
        let resumed = resume(small_cfg(), &first, &sc_res).expect("resumed run");
        assert_eq!(resumed.windows_emitted, full.windows_emitted);
        assert_eq!(resumed.slo_violations, full.slo_violations);
        let res_stream = std::fs::read_to_string(dir.join("res.jsonl")).expect("stream");
        assert!(!res_stream.is_empty());
        assert!(
            ref_stream.ends_with(&res_stream),
            "resumed stream must be a byte-suffix of the reference"
        );
        // The suffix split lands on a line boundary.
        let prefix_len = ref_stream.len() - res_stream.len();
        assert!(prefix_len == 0 || ref_stream.as_bytes()[prefix_len - 1] == b'\n');
        assert_eq!(
            std::fs::read(dir.join("ref-flight.json")).expect("ref dump"),
            std::fs::read(dir.join("res-flight.json")).expect("res dump"),
            "flight ring must restore bit-for-bit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_trip_dumps_a_flight_postmortem() {
        let dir = std::env::temp_dir().join("fgnvm-serve-watchdog-flight");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sc = quick_sc();
        // Reads take tens of cycles: a 10-cycle no-progress threshold
        // trips while the first batch is still in the array.
        sc.watchdog_cycles = 10;
        sc.checkpoint_dir = Some(dir.clone());
        sc.dump_flight = Some(dir.join("post.json"));
        let err = serve(small_cfg(), &sc).expect_err("watchdog must trip");
        assert!(matches!(err, SimError::Watchdog { .. }), "{err:?}");
        let mut crash_flight = None;
        for entry in std::fs::read_dir(&dir).expect("dir exists") {
            let name = entry.expect("entry").file_name();
            let name = name.to_string_lossy().to_string();
            if name.starts_with("flight-") && name.ends_with(".json") {
                crash_flight = Some(dir.join(&name));
            }
        }
        let crash_flight = crash_flight.expect("flight post-mortem next to crash checkpoint");
        let doc = std::fs::read_to_string(&crash_flight).expect("readable");
        profile::json::parse(&doc).expect("flight dump is valid JSON");
        assert!(doc.contains("\"events\":["));
        assert!(crash_flight.with_extension("txt").exists());
        assert!(dir.join("post.json").exists());
        assert!(dir.join("post.txt").exists());
        let ascii = std::fs::read_to_string(crash_flight.with_extension("txt")).expect("timeline");
        assert!(ascii.starts_with("flight recorder:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_disabled_run_emits_nothing() {
        let mut sc = quick_sc();
        sc.telemetry_window = 0;
        let report = serve(small_cfg(), &sc).expect("runs clean");
        assert_eq!(report.windows_emitted, 0);
        assert!(!report.metrics_json.contains("obs.telemetry."));
    }

    /// Re-seals `payload` (a checkpoint without its trailer) with a fresh
    /// checksum, so only the decoder can notice what was done to it.
    fn reseal(payload: &[u8]) -> Vec<u8> {
        let mut out = payload.to_vec();
        out.extend_from_slice(&fgnvm_types::fnv1a64(payload).to_le_bytes());
        out
    }

    /// Offset of the section tagged `tag` (its length prefix) in `bytes`.
    fn section_at(bytes: &[u8], tag: &str) -> usize {
        let mut needle = (tag.len() as u32).to_le_bytes().to_vec();
        needle.extend_from_slice(tag.as_bytes());
        bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap_or_else(|| panic!("no `{tag}` section"))
    }

    #[test]
    fn corrupt_checkpoint_is_a_structured_error() {
        let mut mem = MemorySystem::new(small_cfg()).expect("config valid");
        mem.enable_observer();
        let empty = save_checkpoint(&ServeState::fresh(), &mem);

        // A mid-run checkpoint of an audited serve, whose trace and
        // attribution sections hold real events and records.
        let dir = std::env::temp_dir().join("fgnvm-serve-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sc = quick_sc();
        sc.audit = true;
        sc.checkpoint_every = 4_000;
        sc.checkpoint_dir = Some(dir.clone());
        serve(small_cfg(), &sc).expect("checkpointing run");
        let mid = std::fs::read(dir.join(format!("ckpt-{:012}.ckpt", 4_000))).expect("checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        let (_, restored) = load_checkpoint(small_cfg(), &mid).expect("mid-run checkpoint loads");
        let obs = restored.observer().expect("serve runs the observer");
        assert!(!obs.trace.is_empty());
        assert!(!obs.attribution.requests.is_empty());

        for blob in [&empty, &mid] {
            // Truncations and bit flips must decode to errors, never panic.
            for cut in [0, 5, blob.len() / 2, blob.len() - 1] {
                assert!(load_checkpoint(small_cfg(), &blob[..cut]).is_err());
            }
            let mut flipped = blob.clone();
            let at = flipped.len() / 2;
            flipped[at] ^= 0xff;
            assert!(load_checkpoint(small_cfg(), &flipped).is_err());
            // And the pristine blob still loads.
            assert!(load_checkpoint(small_cfg(), blob).is_ok());
        }

        // Past the checksum: re-sealed cuts through the trace section (the
        // attribution section follows it) and the rest of the checkpoint
        // must each run out of bytes.
        let payload = &mid[..mid.len() - 8];
        let trace = section_at(payload, "trace");
        let attr = section_at(payload, "attr");
        assert!(trace < attr);
        let cuts = (trace..attr)
            .step_by((attr - trace) / 64 + 1)
            .chain((attr..payload.len()).step_by((payload.len() - attr) / 64 + 1));
        for cut in cuts {
            assert!(
                matches!(
                    load_checkpoint(small_cfg(), &reseal(&payload[..cut])),
                    Err(SimError::Snapshot(SnapshotError::Truncated { .. }))
                ),
                "cut at {cut} (trace at {trace}, attr at {attr})"
            );
        }

        // A hostile first trace record: an unknown phase byte, then a name
        // index past the table. The section opens with its tag, cap, drop
        // counter and name table, then the record count.
        let mut at = trace + 4 + "trace".len() + 8 + 8;
        let word = |at: usize, n: usize| {
            let mut le = [0u8; 8];
            le[..n].copy_from_slice(&payload[at..at + n]);
            u64::from_le_bytes(le) as usize
        };
        let names = word(at, 8);
        assert!(
            names > 0 && names < 0x7f,
            "{names} names fit one varint byte"
        );
        at += 8;
        for _ in 0..names {
            at += 4 + word(at, 4);
        }
        at += 8;
        for (offset, why) in [(at, "phase"), (at + 1, "names")] {
            let mut bent = payload.to_vec();
            bent[offset] = 0x7f;
            match load_checkpoint(small_cfg(), &reseal(&bent)) {
                Err(SimError::Snapshot(SnapshotError::Corrupt(m))) => {
                    assert!(m.contains(why), "{m}")
                }
                other => panic!("bent {why} byte decoded as {:?}", other.map(|_| ())),
            }
        }

        // A forged element count asks for more elements than bytes remain:
        // re-sealed, it must decode as a truncation, not size an
        // allocation. The attribution section opens with its open-request
        // count.
        let mut forged = payload.to_vec();
        let count = attr + 4 + "attr".len();
        forged[count..count + 8].copy_from_slice(&(u64::MAX >> 4).to_le_bytes());
        assert!(matches!(
            load_checkpoint(small_cfg(), &reseal(&forged)),
            Err(SimError::Snapshot(SnapshotError::Truncated { .. }))
        ));
    }

    #[test]
    fn block_policy_counts_blocked_cycles_under_overload() {
        let mut sc = quick_sc();
        sc.policy = AdmissionPolicy::Block;
        sc.ops = 3_000;
        sc.horizon = 120_000;
        let report = serve(small_cfg(), &sc).expect("blocking run finishes");
        // Open-loop arrivals at ~12-cycle spacing against one channel
        // must overflow the queue at some point.
        assert!(report.admitted > 0);
        assert_eq!(report.rejected, 0, "Block policy never counts rejects");
    }

    #[test]
    fn reject_policy_backs_off_and_retries() {
        let mut sc = quick_sc();
        sc.ops = 3_000;
        sc.horizon = 400_000;
        let report = serve(small_cfg(), &sc).expect("rejecting run finishes");
        assert_eq!(
            report.admitted, report.completions,
            "everything admitted eventually completes"
        );
        if report.rejected > 0 {
            assert!(report.retried > 0, "rejected ops must be re-admitted");
        }
    }
}
