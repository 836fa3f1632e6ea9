//! Whole-run conservation invariants.
//!
//! Where the [`oracle`](crate::oracle) checks every individual command,
//! these checks assert *exact* global conservation laws over a finished
//! run. They are deliberately equalities, not tolerances (the one float
//! check uses a 1e-6 absolute epsilon): the quantities involved are all
//! integer counters, so any drift is a double-count or a leak, never
//! rounding.
//!
//! - **Span decomposition**: `queue + retry + bank + bus + tail == total`
//!   summed over every completed request, per operation class.
//! - **Attribution conservation**: the ten-bucket stall taxonomy sums
//!   exactly to end-to-end latency for every request, its aggregates agree
//!   with the per-request records, and it contains no unclassified command
//!   kinds or structurally illegal buckets.
//! - **Heatmap conservation**: the S×C tile grid's per-kind totals equal
//!   the bank counters the simulator kept independently.
//! - **Energy conservation**: sensing/programming energy is exactly the
//!   configured pJ/bit times the bit counters.
//! - **Time-series conservation**: summing every telemetry window (when
//!   the windowed engine is attached) reproduces the cumulative latency
//!   histograms, stall-attribution aggregates, and instant counters
//!   exactly.
//! - **Tenant conservation**: the controller's per-tenant counters and
//!   the telemetry engine's per-tenant window slices each fold exactly to
//!   their globals, and the two independently-tagged paths agree tenant
//!   by tenant — so billing a request to the wrong tenant is caught even
//!   when every global counter still balances.
//! - **Occupancy quiescence**: once the system reports idle, no bank
//!   resource may still claim a busy window in the future.
//! - **Exactly-once completion**: every accepted request id completes
//!   exactly once (checked by the fuzzer, which owns the id lists).

use std::fmt;

use fgnvm_bank::BankStats;
use fgnvm_mem::MemorySystem;
use fgnvm_obs::{Observer, StallCause};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::{Completion, RequestId};

/// The outcome of an invariant pass.
#[derive(Debug, Default)]
pub struct InvariantReport {
    /// Names of the invariants that were actually evaluated.
    pub checked: Vec<&'static str>,
    /// Human-readable descriptions of every violated invariant.
    pub failures: Vec<String>,
}

impl InvariantReport {
    /// True when every evaluated invariant held.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: InvariantReport) {
        self.checked.extend(other.checked);
        self.failures.extend(other.failures);
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariants: {} checked, {} failed",
            self.checked.len(),
            self.failures.len()
        )?;
        for failure in &self.failures {
            writeln!(f, "  - {failure}")?;
        }
        Ok(())
    }
}

/// `queue + retry + bank + bus + tail == total`, exactly, per op class.
///
/// Attribution records all six histograms from the same completion, so
/// both the counts and the cycle sums must agree; a mismatch means a
/// lifecycle hook fired twice or a span component was dropped.
pub fn check_span_sums(observer: &Observer) -> InvariantReport {
    let mut report = InvariantReport::default();
    report.checked.push("span-sums");
    let attr = &observer.attribution;
    for (class, b) in [("read", &attr.read_spans), ("write", &attr.write_spans)] {
        let parts = b.queue.sum() + b.retry.sum() + b.bank.sum() + b.bus.sum() + b.tail.sum();
        if parts != b.total.sum() {
            report.failures.push(format!(
                "span decomposition leak ({class}s): components sum to {parts} cycles but totals sum to {}",
                b.total.sum()
            ));
        }
        for (name, h) in [
            ("queue", &b.queue),
            ("retry", &b.retry),
            ("bank", &b.bank),
            ("bus", &b.bus),
            ("tail", &b.tail),
        ] {
            if h.count() != b.total.count() {
                report.failures.push(format!(
                    "span component count mismatch ({class}s): {name} recorded {} spans, total recorded {}",
                    h.count(),
                    b.total.count()
                ));
            }
        }
    }
    report
}

/// Attribution conservation: per request, the stall-taxonomy buckets sum
/// **exactly** to end-to-end latency, and the per-class aggregates agree
/// with the per-request records. Also rejects unclassified command kinds
/// and taxonomy buckets that are illegal for the run (tFAW cycles without
/// DRAM, verify-retry cycles on reads).
pub fn check_attribution(observer: &Observer) -> InvariantReport {
    let mut report = InvariantReport::default();
    report.checked.push("attribution-conservation");
    let attr = &observer.attribution;
    let mut bad = 0usize;
    for r in &attr.requests {
        let latency = r.completion - r.arrival;
        if r.attributed() != latency {
            bad += 1;
            if bad <= 3 {
                report.failures.push(format!(
                    "attribution leak: request {} attributed {} cycles but lived {} \
                     (arrival {}, completion {})",
                    r.id,
                    r.attributed(),
                    latency,
                    r.arrival,
                    r.completion
                ));
            }
        }
        if r.is_read && r.cycles[StallCause::VerifyRetry as usize] != 0 {
            report.failures.push(format!(
                "attribution legality: read {} carries {} verify-retry cycles",
                r.id,
                r.cycles[StallCause::VerifyRetry as usize]
            ));
        }
    }
    if bad > 3 {
        report
            .failures
            .push(format!("attribution leak: {bad} requests total"));
    }
    for (class, totals) in [("read", &attr.reads), ("write", &attr.writes)] {
        let per_request: u64 = attr
            .requests
            .iter()
            .filter(|r| r.is_read == (class == "read"))
            .map(|r| r.attributed())
            .sum();
        let aggregated: u64 = totals.cycles.iter().sum();
        if aggregated != per_request || aggregated != totals.total {
            report.failures.push(format!(
                "attribution aggregate drift ({class}s): buckets sum to {aggregated}, \
                 per-request records to {per_request}, totals counter says {}",
                totals.total
            ));
        }
    }
    if attr.unclassified > 0 {
        report.failures.push(format!(
            "attribution taxonomy: {} command(s) with unrecognized plan kind",
            attr.unclassified
        ));
    }
    if attr.params().t_faw.is_none() {
        let faw = attr.reads.cycles[StallCause::TfawWindow as usize]
            + attr.writes.cycles[StallCause::TfawWindow as usize];
        if faw != 0 {
            report.failures.push(format!(
                "attribution legality: {faw} tFAW-window cycles attributed on a non-DRAM config"
            ));
        }
    }
    report
}

/// The heatmap's per-kind cell totals equal the bank counters.
///
/// `banks.reads` counts every committed read, so full activations (the
/// heatmap's catch-all kind) must be exactly the reads that were neither
/// row hits nor underfetches. (`banks.activations` is *not* comparable:
/// it also counts write row switches.)
pub fn check_heatmap_totals(observer: &Observer, banks: &BankStats) -> InvariantReport {
    let mut report = InvariantReport::default();
    report.checked.push("heatmap-totals");
    let cells = observer.heatmap.cells();
    let row_hits: u64 = cells.iter().map(|c| c.row_hits).sum();
    let underfetches: u64 = cells.iter().map(|c| c.underfetches).sum();
    let writes: u64 = cells.iter().map(|c| c.writes).sum();
    let activations: u64 = cells.iter().map(|c| c.activations).sum();
    let mut expect = |name: &str, got: u64, want: u64| {
        if got != want {
            report.failures.push(format!(
                "heatmap conservation: {name} cells sum to {got} but bank counters say {want}"
            ));
        }
    };
    expect("row-hit", row_hits, banks.row_hits);
    expect("underfetch", underfetches, banks.underfetches);
    expect("write", writes, banks.writes);
    expect(
        "activation",
        activations,
        banks
            .reads
            .saturating_sub(banks.row_hits + banks.underfetches),
    );
    report
}

/// Sensing and programming energy are exactly `pJ/bit × bits`.
pub fn check_energy(
    config: &SystemConfig,
    banks: &BankStats,
    energy: &fgnvm_mem::EnergyBreakdown,
) -> InvariantReport {
    let mut report = InvariantReport::default();
    report.checked.push("energy-conservation");
    let want_sense = banks.sensed_bits as f64 * config.energy.read_pj_per_bit;
    let want_write = banks.written_bits as f64 * config.energy.write_pj_per_bit;
    // Equalities up to float representation: the model multiplies the same
    // two numbers, so anything beyond epsilon is a counter leak.
    let tol = 1e-6 + want_sense.abs() * 1e-12;
    if (energy.sense_pj - want_sense).abs() > tol {
        report.failures.push(format!(
            "energy conservation: sense {} pJ but {} sensed bits × {} pJ/bit = {}",
            energy.sense_pj, banks.sensed_bits, config.energy.read_pj_per_bit, want_sense
        ));
    }
    let tol = 1e-6 + want_write.abs() * 1e-12;
    if (energy.write_pj - want_write).abs() > tol {
        report.failures.push(format!(
            "energy conservation: write {} pJ but {} written bits × {} pJ/bit = {}",
            energy.write_pj, banks.written_bits, config.energy.write_pj_per_bit, want_write
        ));
    }
    report
}

/// At idle, no bank resource may still be busy in the future.
///
/// Returns an empty (nothing-checked) report when the system is not idle;
/// callers should drain first.
pub fn check_occupancy_quiesced(memory: &MemorySystem) -> InvariantReport {
    let mut report = InvariantReport::default();
    if !memory.is_idle() {
        return report;
    }
    report.checked.push("occupancy-quiesced");
    let now = memory.now();
    for (bank, snap) in memory.bank_occupancy().iter().enumerate() {
        for (sag, lock) in snap.sag_locks.iter().enumerate() {
            if *lock > now {
                report.failures.push(format!(
                    "idle system but bank {bank} SAG {sag} write lock held until {lock} (now {now})"
                ));
            }
        }
        for (cd, free) in snap.cd_io_free.iter().enumerate() {
            if *free > now {
                report.failures.push(format!(
                    "idle system but bank {bank} CD {cd} I/O busy until {free} (now {now})"
                ));
            }
        }
        if snap.busy_until > now {
            report.failures.push(format!(
                "idle system but bank {bank} busy until {} (now {now})",
                snap.busy_until
            ));
        }
    }
    report
}

/// Window-vs-cumulative conservation: summing *every* telemetry window
/// (evicted, retained, and the current partial one) must reproduce the
/// independent cumulative counters exactly — bucket by bucket for the
/// latency histograms, per stall-taxonomy bucket against the attribution
/// aggregates, and per instant kind. Both sides fold the same lifecycle
/// hooks, so any drift is a window that was double-counted, dropped at a
/// boundary roll, or corrupted across checkpoint/resume.
///
/// Returns an empty (nothing-checked) report when the observer has no
/// time-series engine attached.
pub fn check_timeseries_conservation(
    observer: &Observer,
    stats: &fgnvm_mem::SystemStats,
) -> InvariantReport {
    let mut report = InvariantReport::default();
    let Some(ts) = observer.timeseries() else {
        return report;
    };
    report.checked.push("timeseries-conservation");
    let agg = ts.aggregate();
    if agg.arrivals_read != stats.enqueued_reads || agg.arrivals_write != stats.enqueued_writes {
        report.failures.push(format!(
            "timeseries conservation: windows saw {}r/{}w arrivals but the system enqueued {}r/{}w",
            agg.arrivals_read, agg.arrivals_write, stats.enqueued_reads, stats.enqueued_writes
        ));
    }
    for (class, hist, cum_hist, cum_count, cum_sum, cum_max) in [
        (
            "read",
            &agg.read_latency,
            &stats.read_latency_hist,
            stats.completed_reads,
            stats.read_latency_total.raw(),
            stats.read_latency_max.raw(),
        ),
        (
            "write",
            &agg.write_latency,
            &stats.write_latency_hist,
            stats.completed_writes,
            stats.write_latency_total.raw(),
            stats.write_latency_max.raw(),
        ),
    ] {
        if hist.counts() != cum_hist {
            report.failures.push(format!(
                "timeseries conservation ({class}s): window latency buckets {:?} != cumulative {:?}",
                hist.counts(),
                cum_hist
            ));
        }
        if hist.count() != cum_count || hist.sum() != cum_sum || hist.max() != cum_max {
            report.failures.push(format!(
                "timeseries conservation ({class}s): windows folded {} samples / {} cycles \
                 (max {}) but cumulative stats say {} / {} (max {})",
                hist.count(),
                hist.sum(),
                hist.max(),
                cum_count,
                cum_sum,
                cum_max
            ));
        }
    }
    let attr = &observer.attribution;
    for (i, cause) in StallCause::ALL.iter().enumerate() {
        let cumulative = attr.reads.cycles[i] + attr.writes.cycles[i];
        if agg.stall[i] != cumulative {
            report.failures.push(format!(
                "timeseries conservation: {} stall cycles sum to {} across windows \
                 but attribution recorded {cumulative}",
                cause.label(),
                agg.stall[i]
            ));
        }
    }
    if agg.instants != *observer.instants() {
        report.failures.push(format!(
            "timeseries conservation: instant counters {:?} across windows != cumulative {:?}",
            agg.instants,
            observer.instants()
        ));
    }
    report
}

/// Tenant conservation: the controller's per-tenant counters and the
/// time-series engine's per-tenant window slices must each fold exactly
/// to their own global counters, and the two independently-tagged paths
/// must agree tenant by tenant.
///
/// The two sides tag tenants at different places — the controller from
/// the completion event, the observer from the
/// attribution record captured at enqueue — so a request billed to the
/// wrong tenant on either path shows up as a cross-path mismatch even
/// when every global counter still balances. Untagged traffic (wear
/// rotation, prefetch) rides tenant 0 on both sides, which is what makes
/// the folds exact rather than `<=`.
///
/// The window-slice checks are skipped when no time-series engine is
/// attached; the controller fold always runs.
pub fn check_tenant_conservation(
    observer: Option<&Observer>,
    stats: &fgnvm_mem::SystemStats,
) -> InvariantReport {
    let mut report = InvariantReport::default();
    report.checked.push("tenant-conservation");

    // Controller-side fold: per-tenant counters sum to the globals.
    let mut fold = fgnvm_mem::TenantStats::default();
    for t in &stats.tenants {
        fold.enqueued_reads += t.enqueued_reads;
        fold.enqueued_writes += t.enqueued_writes;
        fold.completed_reads += t.completed_reads;
        fold.completed_writes += t.completed_writes;
        fold.read_latency_total += t.read_latency_total;
        fold.write_latency_total += t.write_latency_total;
        for (acc, b) in fold.read_latency_hist.iter_mut().zip(&t.read_latency_hist) {
            *acc += b;
        }
        for (acc, b) in fold
            .write_latency_hist
            .iter_mut()
            .zip(&t.write_latency_hist)
        {
            *acc += b;
        }
    }
    for (name, got, want) in [
        ("enqueued reads", fold.enqueued_reads, stats.enqueued_reads),
        (
            "enqueued writes",
            fold.enqueued_writes,
            stats.enqueued_writes,
        ),
        (
            "completed reads",
            fold.completed_reads,
            stats.completed_reads,
        ),
        (
            "completed writes",
            fold.completed_writes,
            stats.completed_writes,
        ),
        (
            "read latency cycles",
            fold.read_latency_total,
            stats.read_latency_total.raw(),
        ),
        (
            "write latency cycles",
            fold.write_latency_total,
            stats.write_latency_total.raw(),
        ),
    ] {
        if got != want {
            report.failures.push(format!(
                "tenant conservation: per-tenant {name} sum to {got} but the system counted {want}"
            ));
        }
    }
    if fold.read_latency_hist != stats.read_latency_hist
        || fold.write_latency_hist != stats.write_latency_hist
    {
        report.failures.push(
            "tenant conservation: per-tenant latency buckets do not fold to the global histograms"
                .to_string(),
        );
    }

    let Some(ts) = observer.and_then(|obs| obs.timeseries()) else {
        return report;
    };
    let agg = ts.aggregate();

    // Observer-side fold: per-tenant window slices sum to the window
    // aggregate's own global histograms and stall buckets.
    let mut wfold = fgnvm_obs::TenantWindow::default();
    for t in &agg.tenants {
        wfold.fold(t);
    }
    if wfold.arrivals_read != agg.arrivals_read || wfold.arrivals_write != agg.arrivals_write {
        report.failures.push(format!(
            "tenant conservation: tenant window slices saw {}r/{}w arrivals but the windows \
             themselves saw {}r/{}w",
            wfold.arrivals_read, wfold.arrivals_write, agg.arrivals_read, agg.arrivals_write
        ));
    }
    for (class, folded, global) in [
        ("read", &wfold.read_latency, &agg.read_latency),
        ("write", &wfold.write_latency, &agg.write_latency),
    ] {
        if folded.counts() != global.counts() || folded.sum() != global.sum() {
            report.failures.push(format!(
                "tenant conservation ({class}s): tenant slices fold to {} samples / {} cycles \
                 but the window aggregate holds {} / {}",
                folded.count(),
                folded.sum(),
                global.count(),
                global.sum()
            ));
        }
    }
    if wfold.stall != agg.stall {
        report.failures.push(format!(
            "tenant conservation: tenant stall buckets fold to {:?} but the window aggregate \
             holds {:?}",
            wfold.stall, agg.stall
        ));
    }

    // Cross-path: the controller's tenant table (tagged from completion
    // events) against the observer's tenant slices (tagged from
    // attribution records), tenant by tenant.
    let n = stats.tenants.len().max(agg.tenants.len());
    let ctrl_default = fgnvm_mem::TenantStats::default();
    let obs_default = fgnvm_obs::TenantWindow::default();
    for i in 0..n {
        let c = stats.tenants.get(i).unwrap_or(&ctrl_default);
        let w = agg.tenants.get(i).unwrap_or(&obs_default);
        for (name, ctrl, wind) in [
            ("enqueued reads", c.enqueued_reads, w.arrivals_read),
            ("enqueued writes", c.enqueued_writes, w.arrivals_write),
            ("completed reads", c.completed_reads, w.read_latency.count()),
            (
                "completed writes",
                c.completed_writes,
                w.write_latency.count(),
            ),
            (
                "read latency cycles",
                c.read_latency_total,
                w.read_latency.sum(),
            ),
            (
                "write latency cycles",
                c.write_latency_total,
                w.write_latency.sum(),
            ),
        ] {
            if ctrl != wind {
                report.failures.push(format!(
                    "tenant misattribution: tenant {i} {name} — controller counted {ctrl}, \
                     telemetry windows counted {wind}"
                ));
            }
        }
    }
    report
}

/// Audit conservation: the scheduler decision-audit log must fold
/// exactly to the independently-kept command counters, and every
/// per-record identity must hold in aggregate.
///
/// - **Issue fold**: audited decisions equal the bank models' committed
///   reads plus writes (both sides count commits, including re-issued
///   verify-failed writes), and the read/write split folds to the total.
/// - **Candidate fold**: per record, `blocked + ready == considered − 1`
///   (everything but the chosen command is either gated or ready), so in
///   aggregate `blocked + ready + issues == considered`.
/// - **Opportunity bounds**: co-issuable peers are a subset of ready
///   peers; the missed-pair grid counts exactly one cell per counted
///   peer; and no decision may claim co-issue opportunity with an
///   otherwise-empty queue (`empty_queue_opportunity == 0`).
/// - **Window fold** (when the time-series engine is attached): summing
///   every telemetry window's opportunity counter reproduces the audit
///   log's total exactly.
///
/// Returns an empty (nothing-checked) report when the observer has no
/// audit log attached. Assumes auditing was on for the whole run (the
/// standard drivers enable it before the first tick).
pub fn check_audit_conservation(observer: &Observer, banks: &BankStats) -> InvariantReport {
    let mut report = InvariantReport::default();
    let Some(audit) = observer.audit() else {
        return report;
    };
    report.checked.push("audit-conservation");
    if audit.issues_read + audit.issues_write != audit.issues {
        report.failures.push(format!(
            "audit conservation: {} reads + {} writes != {} audited issues",
            audit.issues_read, audit.issues_write, audit.issues
        ));
    }
    let committed = banks.reads + banks.writes;
    if audit.issues != committed {
        report.failures.push(format!(
            "audit conservation: {} audited issues but the banks committed {committed} \
             commands ({} reads + {} writes)",
            audit.issues, banks.reads, banks.writes
        ));
    }
    let hist_sum: u64 = audit.parallelism_hist.iter().sum();
    if hist_sum != audit.issues {
        report.failures.push(format!(
            "audit conservation: parallelism histogram holds {hist_sum} decisions but {} issued",
            audit.issues
        ));
    }
    let blocked_sum: u64 = audit.blocked.iter().sum();
    if blocked_sum + audit.ready_total + audit.issues != audit.considered_total {
        report.failures.push(format!(
            "audit conservation: {blocked_sum} blocked + {} ready + {} issued != {} considered",
            audit.ready_total, audit.issues, audit.considered_total
        ));
    }
    if audit.opportunity_total > audit.ready_total {
        report.failures.push(format!(
            "audit conservation: {} co-issuable peers exceed the {} ready peers",
            audit.opportunity_total, audit.ready_total
        ));
    }
    let missed_sum: u64 = audit.missed_cells().iter().sum();
    if missed_sum != audit.opportunity_total {
        report.failures.push(format!(
            "audit conservation: missed-pair grid holds {missed_sum} cells but \
             opportunity totals {}",
            audit.opportunity_total
        ));
    }
    if audit.empty_queue_opportunity != 0 {
        report.failures.push(format!(
            "audit legality: {} decision(s) claimed co-issue opportunity with an \
             otherwise-empty queue",
            audit.empty_queue_opportunity
        ));
    }
    if let Some(ts) = observer.timeseries() {
        let window_sum = ts.aggregate().opportunity;
        if window_sum != audit.opportunity_total {
            report.failures.push(format!(
                "audit conservation: telemetry windows fold to {window_sum} opportunity \
                 but the audit log totals {}",
                audit.opportunity_total
            ));
        }
    }
    report
}

/// Every accepted request id completes exactly once.
pub fn check_completions(accepted: &[RequestId], completions: &[Completion]) -> InvariantReport {
    let mut report = InvariantReport::default();
    report.checked.push("exactly-once-completion");
    let mut want: Vec<RequestId> = accepted.to_vec();
    want.sort_unstable();
    let before = want.len();
    want.dedup();
    if want.len() != before {
        report
            .failures
            .push("request id accepted twice (controller id reuse)".to_string());
    }
    let mut got: Vec<RequestId> = completions.iter().map(|c| c.id).collect();
    got.sort_unstable();
    let mut dup = got.clone();
    dup.dedup();
    if dup.len() != got.len() {
        report.failures.push(format!(
            "completed {} requests but only {} distinct ids: some request completed twice",
            got.len(),
            dup.len()
        ));
    }
    if dup != want {
        let missing = want
            .iter()
            .filter(|id| dup.binary_search(id).is_err())
            .count();
        let phantom = dup
            .iter()
            .filter(|id| want.binary_search(id).is_err())
            .count();
        report.failures.push(format!(
            "completion conservation: {} accepted ids never completed, {} completions were never accepted",
            missing, phantom
        ));
    }
    report
}

/// Runs every invariant the given artifacts allow: span sums, heatmap
/// totals, and time-series conservation when an observer is present,
/// energy always, occupancy when the system is idle.
pub fn standard_report(
    config: &SystemConfig,
    memory: &MemorySystem,
    observer: Option<&Observer>,
) -> InvariantReport {
    let banks = memory.bank_stats();
    let mut report = InvariantReport::default();
    if let Some(obs) = observer {
        report.merge(check_span_sums(obs));
        report.merge(check_attribution(obs));
        report.merge(check_heatmap_totals(obs, &banks));
        report.merge(check_timeseries_conservation(obs, memory.stats()));
        report.merge(check_audit_conservation(obs, &banks));
    }
    report.merge(check_tenant_conservation(observer, memory.stats()));
    report.merge(check_energy(config, &banks, &memory.energy()));
    report.merge(check_occupancy_quiesced(memory));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_types::{Cycle, Op, PhysAddr};

    /// Runs a small mixed workload with the telemetry engine attached and
    /// returns the drained system plus its observer.
    fn run_with_telemetry() -> (MemorySystem, Observer) {
        let config = SystemConfig::fgnvm(8, 2).expect("valid config");
        let mut memory = MemorySystem::new(config).expect("valid system");
        memory.enable_observer();
        // A tiny window and ring so the run rolls boundaries and evicts.
        memory.enable_telemetry(64, 4, 16);
        let line = u64::from(config.geometry.line_bytes());
        let mut out = Vec::new();
        for i in 0..40u64 {
            let kind = if i % 3 == 0 { Op::Write } else { Op::Read };
            memory.enqueue(kind, PhysAddr::new(i * 7 % 256 * line));
            memory.tick_to(Cycle::new(i * 9), &mut out);
        }
        while !memory.is_idle() {
            out.extend(memory.tick());
        }
        let obs = memory.take_observer().expect("observer enabled above");
        (memory, *obs)
    }

    #[test]
    fn timeseries_conservation_holds_on_a_real_run() {
        let (memory, obs) = run_with_telemetry();
        assert!(obs.timeseries().expect("attached").closed_total() > 4);
        let report = check_timeseries_conservation(&obs, memory.stats());
        assert_eq!(report.checked, vec!["timeseries-conservation"]);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn span_sums_catch_a_tampered_histogram() {
        let (_, mut obs) = run_with_telemetry();
        assert!(check_span_sums(&obs).is_clean());
        // A bus cycle no completion recorded: the components now outgrow
        // the totals, in both cycles and counts.
        obs.attribution.read_spans.bus.record(1);
        let text = check_span_sums(&obs).to_string();
        assert!(text.contains("span decomposition leak (reads)"), "{text}");
        assert!(text.contains("bus recorded"), "{text}");
    }

    #[test]
    fn timeseries_conservation_catches_a_phantom_event() {
        let (memory, mut obs) = run_with_telemetry();
        // A window event with no matching cumulative counter is exactly
        // the class of drift the rule exists to catch.
        obs.timeseries_mut()
            .expect("attached")
            .record_arrival(true, 0, memory.now().raw());
        let report = check_timeseries_conservation(&obs, memory.stats());
        assert!(!report.is_clean());
    }

    /// Like [`run_with_telemetry`] but spreads the traffic across three
    /// tenants via the tagged enqueue path.
    fn run_multi_tenant() -> (MemorySystem, Observer) {
        let config = SystemConfig::fgnvm(8, 2).expect("valid config");
        let mut memory = MemorySystem::new(config).expect("valid system");
        memory.enable_observer();
        memory.enable_telemetry(64, 4, 16);
        let line = u64::from(config.geometry.line_bytes());
        let mut out = Vec::new();
        for i in 0..60u64 {
            let kind = if i % 3 == 0 { Op::Write } else { Op::Read };
            let tenant = (i % 5 % 3) as u16;
            memory.enqueue_for(kind, PhysAddr::new(i * 7 % 256 * line), tenant);
            memory.tick_to(Cycle::new(i * 9), &mut out);
        }
        while !memory.is_idle() {
            out.extend(memory.tick());
        }
        let obs = memory.take_observer().expect("observer enabled above");
        (memory, *obs)
    }

    #[test]
    fn tenant_conservation_holds_on_a_multi_tenant_run() {
        let (memory, obs) = run_multi_tenant();
        let stats = memory.stats();
        assert!(
            stats.tenants.len() >= 3 && stats.tenants.iter().all(|t| t.completed_reads > 0),
            "run should exercise three tenants"
        );
        let report = check_tenant_conservation(Some(&obs), stats);
        assert_eq!(report.checked, vec!["tenant-conservation"]);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn tenant_conservation_catches_cross_tenant_misattribution() {
        let (memory, obs) = run_multi_tenant();
        // Bill one of tenant 0's completed reads to tenant 1 on the
        // controller side only. Every global counter still balances, and
        // the controller fold still balances — only the cross-path check
        // against the independently-tagged telemetry slices can see it.
        let mut stats = memory.stats().clone();
        let bucket = stats.tenants[0]
            .read_latency_hist
            .iter()
            .position(|&b| b > 0)
            .expect("tenant 0 completed at least one read");
        let lat = 1u64 << bucket;
        stats.tenants[0].completed_reads -= 1;
        stats.tenants[0].read_latency_total -= lat;
        stats.tenants[0].read_latency_hist[bucket] -= 1;
        let shifted = stats.tenant_mut(1);
        shifted.completed_reads += 1;
        shifted.read_latency_total += lat;
        shifted.read_latency_hist[bucket] += 1;
        let report = check_tenant_conservation(Some(&obs), &stats);
        assert!(!report.is_clean(), "misattribution must be detected");
        assert!(
            report.failures.iter().any(|f| f.contains("misattribution")),
            "{report}"
        );
        // Sanity: the untampered stats stay clean.
        assert!(check_tenant_conservation(Some(&obs), memory.stats()).is_clean());
    }

    /// Like [`run_with_telemetry`] but with the issue-audit layer on and
    /// a heavier same-bank mix so some decisions see blocked candidates
    /// and others see genuine co-issue opportunity.
    fn run_with_audit() -> (MemorySystem, Observer) {
        let config = SystemConfig::fgnvm(8, 2).expect("valid config");
        let mut memory = MemorySystem::new(config).expect("valid system");
        memory.enable_observer();
        memory.enable_telemetry(64, 4, 16);
        memory.enable_audit();
        let line = u64::from(config.geometry.line_bytes());
        let mut out = Vec::new();
        for i in 0..60u64 {
            let kind = if i % 4 == 0 { Op::Write } else { Op::Read };
            memory.enqueue(kind, PhysAddr::new(i * 5 % 128 * line));
            memory.tick_to(Cycle::new(i * 6), &mut out);
        }
        while !memory.is_idle() {
            out.extend(memory.tick());
        }
        let obs = memory.take_observer().expect("observer enabled above");
        (memory, *obs)
    }

    #[test]
    fn audit_conservation_holds_on_a_real_run() {
        let (memory, obs) = run_with_audit();
        let audit = obs.audit().expect("audit enabled above");
        assert!(audit.issues > 0, "the run issued commands");
        assert!(
            audit.considered_total > audit.issues,
            "the backlog put more than the chosen command on the table"
        );
        let report = check_audit_conservation(&obs, &memory.bank_stats());
        assert_eq!(report.checked, vec!["audit-conservation"]);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn audit_conservation_catches_a_dropped_record() {
        let (memory, mut obs) = run_with_audit();
        // A decision record that never folded (or folded twice) is
        // exactly the drift the issue fold exists to catch.
        obs.audit_mut().expect("attached").issues += 1;
        let report = check_audit_conservation(&obs, &memory.bank_stats());
        assert!(!report.is_clean());
    }

    #[test]
    fn no_audit_means_nothing_checked() {
        let config = SystemConfig::fgnvm(8, 2).expect("valid config");
        let mut memory = MemorySystem::new(config).expect("valid system");
        memory.enable_observer();
        let obs = memory.take_observer().expect("observer enabled above");
        let report = check_audit_conservation(&obs, &memory.bank_stats());
        assert!(report.checked.is_empty());
        assert!(report.is_clean());
    }

    #[test]
    fn no_timeseries_means_nothing_checked() {
        let config = SystemConfig::fgnvm(8, 2).expect("valid config");
        let mut memory = MemorySystem::new(config).expect("valid system");
        memory.enable_observer();
        let obs = memory.take_observer().expect("observer enabled above");
        let report = check_timeseries_conservation(&obs, memory.stats());
        assert!(report.checked.is_empty());
        assert!(report.is_clean());
    }
}
