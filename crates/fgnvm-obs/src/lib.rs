//! Unified tracing and metrics layer for the FgNVM simulator.
//!
//! This crate is the observability backbone threaded through the stack:
//!
//! - [`attribution::Attribution`] — the one per-request lifecycle record:
//!   an exact ten-bucket stall taxonomy per request, plus the
//!   queue/retry/bank/bus/tail [`span::LatencyBreakdown`] (reads and
//!   writes);
//! - [`heatmap::TileHeatmap`] — the S×C (SAG × column-division) conflict
//!   and occupancy grid that makes the paper's rook-placement model
//!   visible;
//! - [`trace::TraceSink`] — Chrome trace-event JSON export, loadable in
//!   `ui.perfetto.dev` (one process per channel, one thread per bank, one
//!   slice per command);
//! - [`registry::Registry`] — an insertion-ordered counter/gauge registry
//!   every component exports into, serialized as JSON/CSV;
//! - [`table::TableData`] and [`json`] — the single table/JSON emission
//!   backend shared with the CLI's report rendering.
//!
//! The memory system owns an `Option<Box<Observer>>`: when it is `None`
//! (the default) no hook does any work, keeping the hot path unchanged;
//! when enabled, hooks fire only from cycle-stepped execution paths, never
//! from event skips, so fast-forwarded runs produce bit-identical
//! observability output by construction.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attribution;
pub mod audit;
mod bank_map;
pub mod flight;
pub mod heatmap;
pub mod hist;
pub mod json;
pub mod prom;
pub mod registry;
pub mod span;
pub mod table;
pub mod timeseries;
pub mod trace;

pub use attribution::{
    classify_command, classify_instant, what_if, what_if_json, Attribution, AttributionParams,
    ClassTotals, RequestAttribution, StallCause, WhatIfBound,
};
pub use audit::{AuditLog, BlockGate, IssueAudit};
pub use flight::{FlightEvent, FlightRecorder};
pub use heatmap::{TileCell, TileHeatmap};
pub use hist::Log2Hist;
pub use registry::{CounterHandle, GaugeHandle, MetricValue, Registry};
pub use span::LatencyBreakdown;
pub use table::TableData;
pub use timeseries::{TenantWindow, TimeSeries, WindowAgg};
pub use trace::{SliceArgs, TraceSink};

/// Everything the observer needs to know about one issued memory command.
///
/// All timestamps are raw simulator cycles. `kind` is the bank's plan-kind
/// label (`"row-hit"`, `"activate"`, `"underfetch"`, `"write"`), passed as
/// a static string so this crate stays independent of the bank model and
/// the trace sink can keep it without copying.
#[derive(Debug, Clone, Copy)]
pub struct CommandIssue {
    /// Memory channel the command issued on.
    pub channel: u32,
    /// Bank index within the channel.
    pub bank: u32,
    /// Originating request id.
    pub id: u64,
    /// True for reads.
    pub is_read: bool,
    /// Plan-kind label.
    pub kind: &'static str,
    /// Cycle the request arrived in the system.
    pub arrival: u64,
    /// Cycle the command issued.
    pub at: u64,
    /// Earliest burst start the bank alone allowed (before global-I/O bus
    /// arbitration and rank turnaround pushed it to `data_start`).
    pub earliest_data: u64,
    /// First cycle of the data burst.
    pub data_start: u64,
    /// One past the last cycle of the data burst.
    pub data_end: u64,
    /// Cycle the device finishes (for writes: verify retries included).
    pub completion: u64,
    /// Target row.
    pub row: u32,
    /// Target subarray group.
    pub sag: u32,
    /// Target column division.
    pub cd: u32,
    /// Column divisions spanned, starting at `cd`.
    pub cd_count: u32,
    /// Device-level verify retries consumed by this command.
    pub retries: u32,
}

/// Discrete noteworthy events surfaced as trace instants and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantKind {
    /// A read was ECC-corrected at extra decode latency.
    EccCorrected,
    /// A read exceeded ECC correction capability.
    EccUncorrectable,
    /// A write exhausted the device verify budget and was re-queued.
    WriteReissue,
    /// A row was remapped to a spare.
    Remap,
    /// The stall watchdog tripped.
    Watchdog,
    /// A row was retired outright — it failed after the bank's spare pool
    /// was exhausted, so its capacity is lost (wear-out escalation rung 2).
    RowRetired,
    /// A bank crossed its retired-row threshold and degraded to read-only
    /// mode (wear-out escalation rung 3).
    BankReadOnly,
    /// Device-wide read-only bank count crossed the capacity floor; the
    /// run must stop with `CapacityExhausted` (escalation rung 4).
    CapacityExhausted,
}

impl InstantKind {
    /// Every instant kind, in counter-index order.
    pub const ALL: [InstantKind; 8] = [
        InstantKind::EccCorrected,
        InstantKind::EccUncorrectable,
        InstantKind::WriteReissue,
        InstantKind::Remap,
        InstantKind::Watchdog,
        InstantKind::RowRetired,
        InstantKind::BankReadOnly,
        InstantKind::CapacityExhausted,
    ];

    /// Stable display label (used as the trace event name).
    pub fn label(self) -> &'static str {
        match self {
            InstantKind::EccCorrected => "ecc-corrected",
            InstantKind::EccUncorrectable => "ecc-uncorrectable",
            InstantKind::WriteReissue => "write-reissue",
            InstantKind::Remap => "row-remap",
            InstantKind::Watchdog => "watchdog",
            InstantKind::RowRetired => "row-retired",
            InstantKind::BankReadOnly => "bank-read-only",
            InstantKind::CapacityExhausted => "capacity-exhausted",
        }
    }
}

/// The per-run observer: attribution + heatmap + trace sink behind one
/// facade.
///
/// The simulator calls the `on_*` hooks from its cycle-stepped paths; all
/// aggregation happens here so enabling observability changes no simulated
/// state.
#[derive(Debug)]
pub struct Observer {
    /// S×C tile conflict/occupancy grid.
    pub heatmap: TileHeatmap,
    /// Chrome trace-event sink.
    pub trace: TraceSink,
    /// Exact per-request stall-cycle attribution and latency breakdowns.
    pub attribution: Attribution,
    instants: [u64; 8],
    /// Windowed time-series engine; `None` until
    /// [`Observer::enable_timeseries`] — the hooks stay allocation-free.
    timeseries: Option<TimeSeries>,
    /// Flight recorder; `None` until [`Observer::enable_flight`].
    flight: Option<FlightRecorder>,
    /// Scheduler decision-audit log; `None` until
    /// [`Observer::enable_audit`] — the controller probes its queues only
    /// when this is attached, so auditing is zero-cost when off.
    audit: Option<AuditLog>,
}

impl Observer {
    /// An observer for banks subdivided into `sags` × `cds` tiles, with
    /// bare attribution parameters (tile conflicts only). Attach via
    /// [`Observer::with_params`] when a full configuration is available.
    pub fn new(sags: u32, cds: u32) -> Self {
        Observer::with_params(AttributionParams::bare(sags, cds))
    }

    /// An observer whose attribution classifier knows the full model facts
    /// (access modes, tFAW, timing carve-outs).
    pub fn with_params(params: AttributionParams) -> Self {
        Observer {
            heatmap: TileHeatmap::new(params.sags.max(1), params.cds.max(1)),
            trace: TraceSink::default(),
            attribution: Attribution::new(params),
            instants: [0; 8],
            timeseries: None,
            flight: None,
            audit: None,
        }
    }

    /// Attaches a windowed time-series engine (replacing any existing one)
    /// folding every subsequent hook into `window_cycles`-cycle windows
    /// with the given retention bound.
    pub fn enable_timeseries(&mut self, window_cycles: u64, retention: usize) {
        self.timeseries = Some(TimeSeries::new(window_cycles, retention));
    }

    /// Attaches a flight recorder (replacing any existing one) keeping the
    /// most recent `capacity` events.
    pub fn enable_flight(&mut self, capacity: usize) {
        self.flight = Some(FlightRecorder::new(capacity));
    }

    /// Attaches the scheduler decision-audit log, sized to the
    /// attribution grid's SAG × CD dimensions. Idempotent: an already
    /// attached log (including one restored from a checkpoint) keeps its
    /// accumulated state.
    pub fn enable_audit(&mut self) {
        if self.audit.is_none() {
            let p = self.attribution.params();
            self.audit = Some(AuditLog::new(p.sags, p.cds));
        }
    }

    /// True when the decision-audit log is attached; the controller
    /// checks this before paying for the candidate probe.
    pub fn audit_enabled(&self) -> bool {
        self.audit.is_some()
    }

    /// The decision-audit log, when enabled.
    pub fn audit(&self) -> Option<&AuditLog> {
        self.audit.as_ref()
    }

    /// Mutable access to the decision-audit log, when enabled (tests
    /// tamper with it to prove the conservation rules detect drift).
    pub fn audit_mut(&mut self) -> Option<&mut AuditLog> {
        self.audit.as_mut()
    }

    /// The time-series engine, when enabled.
    pub fn timeseries(&self) -> Option<&TimeSeries> {
        self.timeseries.as_ref()
    }

    /// Mutable access to the time-series engine, when enabled (drivers use
    /// this to roll windows at boundary landings).
    pub fn timeseries_mut(&mut self) -> Option<&mut TimeSeries> {
        self.timeseries.as_mut()
    }

    /// The flight recorder, when enabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Mutable access to the flight recorder, when enabled.
    pub fn flight_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.flight.as_mut()
    }

    /// Updates the time-series gauges (read queue, write queue, draining
    /// channels). No-op when the engine is disabled.
    pub fn set_telemetry_gauges(&mut self, read_queue: u64, write_queue: u64, draining: u64) {
        if let Some(ts) = &mut self.timeseries {
            ts.set_gauges(read_queue, write_queue, draining);
        }
    }

    /// Hook: a request entered the system, tagged as `tenant`'s traffic
    /// (0 for untagged).
    pub fn on_enqueued(&mut self, id: u64, is_read: bool, tenant: u16, now: u64) {
        self.attribution.on_enqueued(id, is_read, tenant, now);
        if let Some(ts) = &mut self.timeseries {
            ts.record_arrival(is_read, tenant, now);
        }
    }

    /// Hook: a request completed (or was satisfied without issuing).
    pub fn on_completed(&mut self, id: u64, now: u64) {
        let before = self.attribution.requests.len();
        self.attribution.on_completed(id, now);
        if let Some(ts) = &mut self.timeseries {
            // The attribution tracker just pushed this request's finished
            // record (unless the id was unknown); its latency is exactly
            // the cumulative-stats latency, which the window-vs-cumulative
            // conservation invariant relies on.
            if let Some(rec) = self.attribution.requests.get(before) {
                ts.record_completion(
                    rec.is_read,
                    rec.tenant,
                    rec.completion - rec.arrival,
                    &rec.cycles,
                    now,
                );
            }
        }
    }

    /// Hook: a command issued to a bank.
    pub fn on_command(&mut self, cmd: &CommandIssue) {
        self.attribution.on_command(cmd);
        let wait = self.attribution.take_last_wait();
        if let Some(ts) = &mut self.timeseries {
            ts.record_issue(cmd.at);
        }
        if let Some(flight) = &mut self.flight {
            flight.on_command(cmd, wait);
        }
        self.heatmap.on_command(
            cmd.channel,
            cmd.bank,
            cmd.sag,
            cmd.cd,
            cmd.kind,
            cmd.is_read,
            cmd.arrival,
            cmd.at,
            cmd.data_end,
            cmd.completion,
        );
        let end = if cmd.is_read {
            cmd.data_end
        } else {
            cmd.completion
        };
        self.trace.slice(
            cmd.channel,
            cmd.bank,
            cmd.kind,
            cmd.at,
            end.saturating_sub(cmd.at),
            SliceArgs {
                id: cmd.id,
                row: cmd.row,
                sag: cmd.sag,
                cd: cmd.cd,
                retries: cmd.retries,
            },
        );
    }

    /// Hook: one scheduler decision record, fired by the controller at
    /// the command-commit point when auditing is enabled. Folds into the
    /// audit log, the current telemetry window's opportunity stats, and
    /// the Perfetto decision track (an instant naming the dominant
    /// blocking gate, or `decision:clear` when nothing was rejected).
    pub fn on_audit(&mut self, rec: &IssueAudit<'_>) {
        let Some(audit) = &mut self.audit else {
            return;
        };
        audit.record(rec);
        if let Some(ts) = &mut self.timeseries {
            ts.record_opportunity(u64::from(rec.co_issuable), rec.at);
        }
        let name = match AuditLog::dominant_gate(rec) {
            Some(BlockGate::BankBusy) => "decision:bank-busy",
            Some(BlockGate::SagBusy) => "decision:sag-busy",
            Some(BlockGate::CdBusy) => "decision:cd-busy",
            Some(BlockGate::ColumnPath) => "decision:column-path",
            Some(BlockGate::RowLocked) => "decision:row-locked",
            None => "decision:clear",
        };
        self.trace.instant(rec.channel, rec.bank, name, rec.at);
    }

    /// Hook: a discrete event (fault, remap, watchdog) at `now`.
    pub fn on_instant(&mut self, kind: InstantKind, channel: u32, bank: u32, now: u64) {
        self.instants[kind as usize] += 1;
        self.trace.instant(channel, bank, kind.label(), now);
        if let Some(ts) = &mut self.timeseries {
            ts.record_instant(kind, now);
        }
        if let Some(flight) = &mut self.flight {
            flight.on_instant(kind, channel, bank, now);
        }
    }

    /// Occurrence count for one instant kind.
    pub fn instant_count(&self, kind: InstantKind) -> u64 {
        self.instants[kind as usize]
    }

    /// The cumulative instant counters, indexed by [`InstantKind`] (the
    /// window-vs-cumulative conservation check compares these against the
    /// summed per-window instants).
    pub fn instants(&self) -> &[u64; 8] {
        &self.instants
    }

    /// Exports the observer's own aggregates into a metric registry.
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.set_counter("obs.spans.completed", self.attribution.completed());
        reg.set_counter("obs.spans.never_issued", self.attribution.never_issued);
        reg.set_counter("obs.spans.reissues", self.attribution.reissues);
        reg.set_counter("obs.spans.open", self.attribution.open_count() as u64);
        reg.set_counter("obs.heatmap.conflicts", self.heatmap.total_conflicts());
        reg.set_counter(
            "obs.heatmap.conflict_cycles",
            self.heatmap.total_conflict_cycles(),
        );
        reg.set_gauge("obs.heatmap.conflict_rate", self.heatmap.conflict_rate());
        reg.set_counter("obs.trace.events", self.trace.len() as u64);
        reg.set_counter("obs.trace.dropped", self.trace.dropped());
        reg.set_counter("obs.attr.unclassified", self.attribution.unclassified);
        for cause in StallCause::ALL {
            reg.set_counter(
                &format!("obs.attr.{}", cause.label()),
                self.attribution.reads.cycles[cause as usize]
                    + self.attribution.writes.cycles[cause as usize],
            );
        }
        for kind in InstantKind::ALL {
            reg.set_counter(
                &format!("obs.instants.{}", kind.label()),
                self.instant_count(kind),
            );
        }
        if let Some(ts) = &self.timeseries {
            reg.set_counter("obs.telemetry.window_cycles", ts.window_cycles());
            reg.set_counter("obs.telemetry.windows_closed", ts.closed_total());
            reg.set_counter(
                "obs.telemetry.windows_retained",
                ts.windows().count() as u64,
            );
        }
        if let Some(flight) = &self.flight {
            reg.set_counter("obs.flight.events_total", flight.total());
            reg.set_counter("obs.flight.events_retained", flight.len() as u64);
        }
        if let Some(audit) = &self.audit {
            reg.set_counter("mem.audit.issues", audit.issues);
            reg.set_counter("mem.audit.issues_read", audit.issues_read);
            reg.set_counter("mem.audit.issues_write", audit.issues_write);
            reg.set_counter("mem.audit.considered", audit.considered_total);
            reg.set_counter("mem.audit.ready", audit.ready_total);
            reg.set_counter("mem.audit.opportunity", audit.opportunity_total);
            reg.set_counter("mem.audit.solo_decisions", audit.solo_decisions);
            reg.set_gauge("mem.audit.opportunity_ceiling", audit.opportunity_ceiling());
            for gate in BlockGate::ALL {
                reg.set_counter(
                    &format!("mem.audit.blocked.{}", gate.label()),
                    audit.blocked[gate as usize],
                );
            }
        }
    }

    /// Serialize the observer's full aggregation state (heatmap, trace
    /// buffer, attribution, instant counters) into a checkpoint.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("observer");
        for count in &self.instants {
            w.u64(*count);
        }
        self.heatmap.save_state(w);
        self.trace.save_state(w);
        self.attribution.save_state(w);
        w.bool(self.timeseries.is_some());
        if let Some(ts) = &self.timeseries {
            ts.save_state(w);
        }
        w.bool(self.flight.is_some());
        if let Some(flight) = &self.flight {
            flight.save_state(w);
        }
        w.bool(self.audit.is_some());
        if let Some(audit) = &self.audit {
            audit.save_state(w);
        }
    }

    /// Restore state written by [`Observer::save_state`] into a freshly
    /// built observer with the same attribution parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) when the
    /// stream is truncated or corrupt.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("observer")?;
        for count in &mut self.instants {
            *count = r.u64()?;
        }
        self.heatmap.load_state(r)?;
        self.trace.load_state(r)?;
        self.attribution.load_state(r)?;
        // Telemetry sections carry their own configuration, so a restored
        // observer needs no caller input to rebuild them.
        self.timeseries = if r.bool()? {
            Some(TimeSeries::load_state(r)?)
        } else {
            None
        };
        self.flight = if r.bool()? {
            Some(FlightRecorder::load_state(r)?)
        } else {
            None
        };
        self.audit = if r.bool()? {
            Some(AuditLog::load_state(r)?)
        } else {
            None
        };
        Ok(())
    }

    /// The full metrics document: registry contents plus latency
    /// breakdowns and the S×C heatmap, as one JSON object.
    pub fn metrics_json(&self, reg: &Registry) -> String {
        format!(
            "{{\"counters\":{},\"spans\":{},\"heatmap\":{},\"attribution\":{}}}",
            reg.to_json(),
            self.attribution.spans_json(),
            self.heatmap.to_json(),
            self.attribution.to_json()
        )
    }

    /// The Chrome trace-event JSON document.
    pub fn trace_json(&self) -> String {
        self.trace.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(id: u64, at: u64) -> CommandIssue {
        CommandIssue {
            channel: 0,
            bank: 0,
            id,
            is_read: true,
            kind: "activate",
            arrival: at.saturating_sub(5),
            at,
            earliest_data: at + 30,
            data_start: at + 30,
            data_end: at + 38,
            completion: at + 38,
            row: 1,
            sag: 0,
            cd: 0,
            cd_count: 1,
            retries: 0,
        }
    }

    #[test]
    fn facade_routes_to_all_sinks() {
        let mut obs = Observer::new(4, 4);
        obs.on_enqueued(1, true, 0, 5);
        obs.on_command(&issue(1, 10));
        obs.on_completed(1, 48);
        obs.on_instant(InstantKind::Remap, 0, 0, 50);
        assert_eq!(obs.attribution.completed(), 1);
        assert_eq!(obs.heatmap.cell(0, 0).activations, 1);
        assert_eq!(obs.instant_count(InstantKind::Remap), 1);
        let trace = obs.trace_json();
        assert!(trace.contains("\"row-remap\""));
        assert!(trace.contains("\"activate\""));
        let mut reg = Registry::new();
        obs.export_metrics(&mut reg);
        let metrics = obs.metrics_json(&reg);
        assert!(metrics.contains("\"obs.spans.completed\":1"));
        assert!(metrics.contains("\"heatmap\":{\"sags\":4,\"cds\":4"));
        assert!(metrics.contains("\"read\":{\"queue\":"));
    }

    #[test]
    fn degenerate_grid_is_clamped() {
        let obs = Observer::new(0, 0);
        assert_eq!(obs.heatmap.dims(), (1, 1));
    }

    #[test]
    fn telemetry_fans_out_and_rides_the_snapshot() {
        let mut obs = Observer::new(4, 4);
        obs.enable_timeseries(100, 8);
        obs.enable_flight(16);
        obs.on_enqueued(1, true, 0, 5);
        obs.on_command(&issue(1, 10));
        obs.on_completed(1, 48);
        obs.on_instant(InstantKind::WriteReissue, 0, 1, 50);
        obs.on_enqueued(2, true, 0, 150);
        let ts = obs.timeseries().expect("enabled");
        assert_eq!(ts.closed_total(), 1);
        let w0 = ts.windows().next().expect("w0");
        assert_eq!(w0.arrivals_read, 1);
        assert_eq!(w0.read_latency.count(), 1);
        assert_eq!(w0.read_latency.sum(), 43); // completion 48 − arrival 5
        assert_eq!(w0.issues, 1);
        assert_eq!(w0.instants[InstantKind::WriteReissue as usize], 1);
        let flight = obs.flight().expect("enabled");
        // Block (5-cycle queue wait) + issue + retry instant.
        assert_eq!(flight.total(), 3);

        let mut w = fgnvm_types::SnapshotWriter::new();
        obs.save_state(&mut w);
        let bytes = w.finish();
        let mut restored = Observer::new(4, 4);
        let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
        restored.load_state(&mut r).expect("decodes");
        assert_eq!(restored.timeseries(), obs.timeseries());
        assert_eq!(restored.flight(), obs.flight());
    }

    #[test]
    fn telemetry_disabled_observer_skips_the_sections() {
        let mut obs = Observer::new(2, 2);
        obs.on_enqueued(1, true, 0, 0);
        obs.on_completed(1, 10);
        let mut w = fgnvm_types::SnapshotWriter::new();
        obs.save_state(&mut w);
        let bytes = w.finish();
        let mut restored = Observer::new(2, 2);
        let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
        restored.load_state(&mut r).expect("decodes");
        assert!(restored.timeseries().is_none());
        assert!(restored.flight().is_none());
    }
}
