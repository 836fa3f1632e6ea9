//! The `observe` command: one fully-instrumented run of the simulator.
//!
//! Enables the [`fgnvm_obs::Observer`] on a [`MemorySystem`], replays a
//! mixed read/write workload through the core, and packages everything the
//! observability layer produced:
//!
//! - a metrics JSON document (counter/gauge registry + per-component
//!   latency breakdowns + the S×C conflict heatmap),
//! - a Chrome trace-event JSON document loadable at `ui.perfetto.dev`,
//! - presentation tables and an ASCII heatmap for the terminal.
//!
//! The observer is strictly passive: the same run with observability off
//! produces bit-identical simulation results (asserted by the differential
//! test-suite).

use fgnvm_cpu::{Core, Trace};
use fgnvm_mem::MemorySystem;
use fgnvm_obs::{Observer, Registry};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::error::ConfigError;

use crate::report::{fmt_ratio, Table};
use crate::runner::ExperimentParams;
use crate::viz;

/// Everything one instrumented run produced.
#[derive(Debug)]
pub struct ObserveOutcome {
    /// Headline numbers (IPC, latency percentiles, conflict totals).
    pub summary: Table,
    /// The S×C conflict heatmap as a table (one row per SAG).
    pub heatmap_table: Table,
    /// ASCII rendering of the conflict heatmap.
    pub heatmap_ascii: String,
    /// ASCII stacked latency-decomposition bars (stall attribution).
    pub decomposition_ascii: String,
    /// Metrics document: `{"counters": ..., "spans": ..., "heatmap": ...}`.
    pub metrics_json: String,
    /// Chrome trace-event JSON document.
    pub trace_json: String,
    /// The S×C heatmap as CSV (one row per cell).
    pub heatmap_csv: String,
    /// ASCII time-series dashboard (sparklines over telemetry windows).
    pub timeseries_ascii: String,
    /// ASCII issue-audit digest: issuable-parallelism histogram, per-gate
    /// block attribution, and the missed co-issue (SAG x CD) grid.
    pub audit_ascii: String,
}

/// Telemetry window size for instrumented runs (cycles). Small enough
/// that the quick profiles close several windows.
const OBSERVE_WINDOW_CYCLES: u64 = 2_000;
/// Windows retained in the time-series ring.
const OBSERVE_RETENTION: usize = 64;
/// Flight-recorder capacity (events).
const OBSERVE_FLIGHT_CAPACITY: usize = 128;

/// Runs a mixed read/write workload on `config` with the observer enabled
/// and returns every observability artifact.
///
/// # Errors
///
/// Returns [`ConfigError`] if the memory or core configuration is invalid.
pub fn observe(
    config: &SystemConfig,
    params: &ExperimentParams,
) -> Result<ObserveOutcome, ConfigError> {
    config.validate()?;
    let core = Core::new(params.core)?;
    let mut memory = MemorySystem::new(*config)?;
    memory.set_fast_forward(params.fast_forward);
    memory.enable_observer();
    memory.enable_telemetry(
        OBSERVE_WINDOW_CYCLES,
        OBSERVE_RETENTION,
        OBSERVE_FLIGHT_CAPACITY,
    );
    memory.enable_audit();
    // A read-dominated and a write-heavy profile back to back, so spans,
    // write occupancy, retries, and tile conflicts all appear in one trace.
    let mut records = Vec::new();
    for name in ["milc_like", "lbm_like"] {
        let trace = fgnvm_workloads::profile(name)
            .expect("known profile")
            .generate(config.geometry, params.seed, params.ops / 2);
        records.extend_from_slice(trace.records());
    }
    let trace = Trace::new("observe-mix", records);
    let result = core.run(&trace, &mut memory);

    let mut reg = Registry::new();
    memory.export_metrics(&mut reg);
    result.export_metrics(&mut reg, "cpu");
    memory.sample_telemetry_gauges();
    let final_cycle = memory.now().raw();
    let mut obs = memory.take_observer().expect("observer enabled above");
    // Close every complete window so the dashboard covers the whole run.
    if let Some(ts) = obs.timeseries_mut() {
        ts.roll_to(final_cycle);
    }
    obs.export_metrics(&mut reg);

    Ok(ObserveOutcome {
        summary: summary_table(&memory, &result, &obs),
        heatmap_table: heatmap_table(&obs),
        heatmap_ascii: viz::render_heatmap(&obs.heatmap),
        decomposition_ascii: viz::render_latency_decomposition(&obs.attribution, 48),
        metrics_json: obs.metrics_json(&reg),
        trace_json: obs.trace_json(),
        heatmap_csv: obs.heatmap.to_csv(),
        timeseries_ascii: obs
            .timeseries()
            .map(viz::render_timeseries)
            .unwrap_or_default(),
        audit_ascii: obs
            .audit()
            .map(|audit| {
                format!(
                    "{}{}{}",
                    viz::render_opportunity_histogram(audit, 48),
                    viz::render_block_attribution(audit, 48),
                    viz::render_missed_pairs(audit),
                )
            })
            .unwrap_or_default(),
    })
}

fn summary_table(memory: &MemorySystem, result: &fgnvm_cpu::CoreResult, obs: &Observer) -> Table {
    let stats = memory.stats();
    let mut t = Table::new("Instrumented run", &["metric", "value"]);
    let mut row = |name: &str, value: String| t.push_row(vec![name.to_string(), value]);
    row("ipc", format!("{:.3}", result.ipc()));
    row("reads completed", stats.completed_reads.to_string());
    row("writes completed", stats.completed_writes.to_string());
    row(
        "read latency p50/p95/p99 (cy)",
        format!(
            "{}/{}/{}",
            stats.read_latency_percentile(0.50),
            stats.read_latency_percentile(0.95),
            stats.read_latency_percentile(0.99)
        ),
    );
    row(
        "write latency p50/p95/p99 (cy)",
        format!(
            "{}/{}/{}",
            stats.write_latency_percentile(0.50),
            stats.write_latency_percentile(0.95),
            stats.write_latency_percentile(0.99)
        ),
    );
    row("spans completed", obs.attribution.completed().to_string());
    row(
        "spans never issued",
        obs.attribution.never_issued.to_string(),
    );
    row("tile conflicts", obs.heatmap.total_conflicts().to_string());
    row(
        "tile conflict cycles",
        obs.heatmap.total_conflict_cycles().to_string(),
    );
    row("conflict rate", fmt_ratio(obs.heatmap.conflict_rate()));
    row("trace events", obs.trace.len().to_string());
    row("trace events dropped", obs.trace.dropped().to_string());
    if let Some(audit) = obs.audit() {
        row("issue decisions audited", audit.issues.to_string());
        row(
            "measured opportunity ceiling",
            format!("{:.2}x", audit.opportunity_ceiling()),
        );
    }
    t
}

fn heatmap_table(obs: &Observer) -> Table {
    let (sags, cds) = obs.heatmap.dims();
    let headers: Vec<String> = std::iter::once("sag".to_string())
        .chain((0..cds).map(|cd| format!("cd{cd}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("Tile conflicts (SAG x CD)", &header_refs);
    for sag in 0..sags {
        let mut cells = vec![sag.to_string()];
        cells.extend((0..cds).map(|cd| obs.heatmap.cell(sag, cd).conflicts.to_string()));
        t.push_row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentParams {
        ExperimentParams {
            ops: 600,
            ..ExperimentParams::quick()
        }
    }

    #[test]
    fn observe_produces_all_artifacts() {
        let out = observe(&SystemConfig::fgnvm(8, 2).unwrap(), &quick()).unwrap();
        // Chrome trace JSON with command slices.
        assert!(out
            .trace_json
            .starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(out.trace_json.contains("\"ph\":\"X\""));
        // Metrics JSON carries the registry, the five-component latency
        // breakdown derived from attribution, and the heatmap.
        assert!(out.metrics_json.starts_with("{\"counters\":{"));
        assert!(out.metrics_json.contains("\"mem.completed_reads\""));
        assert!(out.metrics_json.contains("\"cpu.ipc\""));
        assert!(out.metrics_json.contains("\"obs.spans.completed\""));
        assert!(out.metrics_json.contains("\"read\":{\"queue\":"));
        assert!(out
            .metrics_json
            .contains("\"heatmap\":{\"sags\":8,\"cds\":2"));
        // Tables and ASCII heatmap render.
        assert!(out.summary.render().contains("ipc"));
        assert_eq!(out.heatmap_table.row_count(), 8);
        assert!(out.heatmap_ascii.contains("SAG  0"));
        assert!(out.heatmap_csv.starts_with("sag,cd,"));
        // The stacked decomposition bar rides along, and the metrics
        // document embeds the attribution aggregates.
        assert!(out.decomposition_ascii.contains("stall attribution"));
        assert!(out.decomposition_ascii.contains("service"));
        assert!(out.metrics_json.contains("\"attribution\":{\"requests\":"));
        // The telemetry dashboard rides along with closed windows.
        assert!(out.timeseries_ascii.starts_with("continuous telemetry ("));
        assert!(out.timeseries_ascii.contains("arrivals"));
        // The issue-audit digest rides along: histogram, gate attribution,
        // and the missed-pair grid, plus its counters in the metrics doc.
        assert!(out.audit_ascii.contains("issuable parallelism ("));
        assert!(out.audit_ascii.contains("block attribution ("));
        assert!(out.audit_ascii.contains("missed co-issue pairs"));
        assert!(out.metrics_json.contains("\"mem.audit.issues\""));
    }

    #[test]
    fn observe_baseline_degenerates_to_one_cell() {
        let out = observe(&SystemConfig::baseline(), &quick()).unwrap();
        assert_eq!(out.heatmap_table.row_count(), 1);
        assert!(out
            .metrics_json
            .contains("\"heatmap\":{\"sags\":1,\"cds\":1"));
    }
}
