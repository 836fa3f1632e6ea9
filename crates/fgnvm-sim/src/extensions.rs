//! Extension studies beyond the paper's evaluation section.
//!
//! Every study returns one [`Study`]: a title, column headers and rows of
//! typed [`Cell`]s that keep their unrounded values next to the rule that
//! renders them. [`STUDIES`] is the one registry, keyed by the
//! `fgnvm-repro` command names; the CLI, its `all` command, the `regress`
//! self-check and the golden snapshots all look studies up there.
//!
//! * `dims` — the paper's core architectural argument made quantitative:
//!   at an equal number of accessible units, is two-dimensional
//!   subdivision (S×C) better than the one-dimensional subdivision of
//!   DRAM SALP (S×1) or a pure column split (1×C)?
//! * `sched` — how much of FgNVM's benefit the controller policy unlocks
//!   (FCFS vs FRFCFS vs the TLP-augmented FRFCFS).
//! * `maps` — sensitivity of the results to the physical address mapping
//!   (row-friendly, bank-interleaved, row-thrashing).
//! * `tech` — the motivating NVM-vs-DRAM contrast: how close the FgNVM
//!   designs come to DDR3-like DRAM performance despite PCM's much slower
//!   cells, thanks to tile-level parallelism and the absence of refresh
//!   and destructive reads.
//! * `pause` — write pausing (the paper's reference \[12\]) on top of
//!   FgNVM: how much read latency interrupting in-flight writes recovers
//!   on write-heavy traffic.
//! * `scaling` — channel scaling: does tile-level parallelism still pay
//!   once the system has more channels, or do channels subsume it?
//! * `mlc` — SLC vs MLC PCM: slower multi-level cells make writes (and
//!   reads) costlier, so tile-level parallelism should matter *more*.
//! * `mix` — consolidation pressure: interleaved 4-workload mixes drive
//!   far more memory-level parallelism than any single program, which is
//!   where bank subdivision earns its keep.
//! * `coloring` — OS page placement: identity vs scattered vs SAG-aware
//!   striped placement, quantifying how much of FgNVM's benefit software
//!   can grant or destroy.
//! * `timeline` — a power/bandwidth time series of one workload on the
//!   baseline vs FgNVM, from the memory system's epoch sampler.
//! * `writes` — the Backgrounded-Writes headroom curve: FgNVM's speedup
//!   as a function of workload write intensity.
//! * `depth` — controller queue-depth sensitivity (how much of the
//!   benefit needs a deep transaction queue).
//! * `detail` — the full metric set of every workload on 8×8 FgNVM.
//! * `cores` — true multi-core runs (private windows, shared memory):
//!   weighted speedup and fairness per design.
//! * `tail` — the read-latency distribution under write-heavy traffic.
//! * `wear` — Start-Gap wear leveling: lifetime gain vs gap-copy cost.
//! * `policy` — DRAM open- vs closed-page, a knob PCM's substrate
//!   dissolves.
//! * `mlp` — FgNVM's speedup as a function of the core's MLP window.
//! * `hybrid` — DRAM-buffered PCM (the paper's reference \[8\]): how
//!   FgNVM compares against, and composes with, a DRAM buffer.
//! * `reliability` — device fault injection: raw bit-error rate and
//!   write-verify retry pressure swept together, reporting the slowdown
//!   and read-latency tail the ECC + retry + remap datapath costs.
//! * `reliability-horizon` — the wear-out escalation ladder over
//!   increasing serve horizons (`fgnvm-repro reliability --horizon N`).
//!
//! The (traces × designs) studies build their traces once and make one
//! [`run_grid`] call. `maps`, `timeline`, `cores`, `hybrid`, `wear` and
//! `reliability-horizon` keep their own run loops, because their runs are
//! not plain [`run_one`](crate::runner::run_one) runs.

use std::fmt;

use fgnvm_cpu::{Core, Trace};
use fgnvm_mem::MemorySystem;
use fgnvm_types::address::MappingScheme;
use fgnvm_types::config::{SchedulerKind, SystemConfig};
use fgnvm_types::error::SimError;
use fgnvm_types::geometry::Geometry;
use fgnvm_workloads::Profile;

use crate::report::{geometric_mean, mean, Table};
use crate::runner::{run_grid, ExperimentParams, RunOutcome};

/// How a numeric [`Cell`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// `{:.N}`, e.g. `0.635` for `Fixed(3)`.
    Fixed(usize),
    /// `{:.N}x`, e.g. `1.83x` for `Times(2)`.
    Times(usize),
    /// Memory cycles, `{:.0} cy`.
    Cycles,
    /// A fraction shown as a whole percentage, `{:.0}%` of ×100.
    Percent,
    /// Scientific notation, `{:.0e}`.
    Sci,
    /// A value out of a maximum, `{:.2} / N`.
    OutOf(usize),
}

/// One table cell: its unrounded value and how it renders.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A count, rendered as a plain integer.
    Int(u64),
    /// A measurement with its render rule.
    Num(f64, Fmt),
}

impl Cell {
    /// A label cell.
    pub fn text(s: impl Into<String>) -> Self {
        Cell::Text(s.into())
    }

    /// A ratio rendered like `1.83x`.
    pub fn speedup(x: f64) -> Self {
        Cell::Num(x, Fmt::Times(2))
    }

    /// The unrounded numeric value; `None` for labels.
    pub fn value(&self) -> Option<f64> {
        match *self {
            Cell::Text(_) => None,
            Cell::Int(n) => Some(n as f64),
            Cell::Num(x, _) => Some(x),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Num(x, rule) => match *rule {
                Fmt::Fixed(p) => write!(f, "{x:.p$}"),
                Fmt::Times(p) => write!(f, "{x:.p$}x"),
                Fmt::Cycles => write!(f, "{x:.0} cy"),
                Fmt::Percent => write!(f, "{:.0}%", x * 100.0),
                Fmt::Sci => write!(f, "{x:.0e}"),
                Fmt::OutOf(n) => write!(f, "{x:.2} / {n}"),
            },
        }
    }
}

/// The result of one study: a titled table of typed cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Study {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<&'static str>,
    /// Rows, each as wide as `headers`.
    pub rows: Vec<Vec<Cell>>,
    /// Text-mode figure printed after the table (`tail`'s histograms);
    /// empty for most studies.
    pub ascii: String,
}

impl Study {
    fn new(title: impl Into<String>, headers: &[&'static str]) -> Self {
        Study {
            title: title.into(),
            headers: headers.to_vec(),
            rows: Vec::new(),
            ascii: String::new(),
        }
    }

    fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.headers.len(), "row width");
        self.rows.push(row);
    }

    /// Renders as a text table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(self.title.clone(), &self.headers);
        for row in &self.rows {
            t.push_row(row.iter().map(Cell::to_string).collect());
        }
        t
    }

    /// The unrounded values in `column` of every row whose leading cells
    /// render as `key`, top to bottom (an empty key selects every row).
    /// Label cells and unknown columns yield nothing.
    pub fn values(&self, key: &[&str], column: &str) -> Vec<f64> {
        let Some(c) = self.headers.iter().position(|h| *h == column) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .filter(|row| {
                key.iter()
                    .zip(row.iter())
                    .all(|(k, cell)| cell.to_string() == *k)
            })
            .filter_map(|row| row[c].value())
            .collect()
    }

    /// The unrounded value in `column` of the first row whose leading
    /// cells render as `key`.
    pub fn value(&self, key: &[&str], column: &str) -> Option<f64> {
        self.values(key, column).first().copied()
    }
}

/// A study entry point.
pub type StudyFn = fn(&ExperimentParams) -> Result<Study, SimError>;

/// Every study, keyed by its `fgnvm-repro` command name, in the order
/// `fgnvm-repro all` runs them. `reliability-horizon` is what
/// `reliability --horizon N` runs.
pub const STUDIES: &[(&str, StudyFn)] = &[
    ("dims", dimensions),
    ("sched", schedulers),
    ("maps", mappings),
    ("tech", technology),
    ("pause", pausing),
    ("scaling", scaling),
    ("mlc", cells),
    ("mix", multiprogrammed),
    ("coloring", coloring),
    ("timeline", timeline),
    ("writes", write_sweep),
    ("depth", depth_sweep),
    ("detail", detail),
    ("cores", cores),
    ("tail", tail_latency),
    ("wear", wear),
    ("policy", page_policy),
    ("mlp", mlp),
    ("hybrid", hybrid),
    ("reliability", reliability),
    ("reliability-horizon", reliability_horizon),
];

/// Looks a study up by command name.
pub fn study(name: &str) -> Option<StudyFn> {
    STUDIES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, run)| run)
}

/// The four profiles most studies average over.
const STUDY_PROFILES: [&str; 4] = ["mcf_like", "lbm_like", "milc_like", "omnetpp_like"];

/// The PCM geometry every study's traces are generated for.
fn pcm_geometry() -> Geometry {
    SystemConfig::baseline().geometry
}

/// One trace per named profile.
fn profile_traces(names: &[&str], geometry: Geometry, params: &ExperimentParams) -> Vec<Trace> {
    names
        .iter()
        .map(|n| {
            fgnvm_workloads::profile(n)
                .expect("known profile")
                .generate(geometry, params.seed, params.ops)
        })
        .collect()
}

/// `f` applied to each trace's row of a [`run_grid`] result.
fn per_trace(grid: &[Vec<RunOutcome>], f: impl Fn(&[RunOutcome]) -> f64) -> Vec<f64> {
    grid.iter().map(|row| f(row)).collect()
}

/// Configuration `i`'s IPC over configuration `base`'s, per trace.
fn ipc_ratios(grid: &[Vec<RunOutcome>], i: usize, base: usize) -> Vec<f64> {
    per_trace(grid, |row| row[i].core.ipc() / row[base].core.ipc())
}

/// Runs the 1D-vs-2D study: every shape with 16 units per bank.
///
/// This is the quantitative version of the paper's §2–§3 argument: DRAM
/// constraints stop at one-dimensional subdivision (SALP, S×1), while NVM's
/// non-destructive reads and current-mode sensing enable the second
/// dimension. S×1 gets multi-activation but no partial-activation energy
/// (every activation still senses full rows); 1×C gets partial activation
/// but only one open row; S×C gets both.
fn dimensions(params: &ExperimentParams) -> Result<Study, SimError> {
    let shapes = [(16u32, 1u32), (1, 16), (4, 4), (8, 2), (2, 8)];
    let traces = profile_traces(&STUDY_PROFILES, pcm_geometry(), params);
    let mut configs = vec![SystemConfig::baseline()];
    for &(sags, cds) in &shapes {
        configs.push(SystemConfig::fgnvm(sags, cds)?);
    }
    let grid = run_grid(&traces, &configs, params)?;
    let mut study = Study::new(
        "1D vs 2D subdivision at equal unit count (16 units/bank)",
        &["design", "kind", "speedup", "rel. energy"],
    );
    for (i, (sags, cds)) in shapes.into_iter().enumerate() {
        let kind = match (sags, cds) {
            (_, 1) => "1D rows (SALP-like)",
            (1, _) => "1D columns",
            _ => "2D (FgNVM)",
        };
        let energies = per_trace(&grid, |row| row[i + 1].energy.relative_to(&row[0].energy));
        study.push(vec![
            Cell::text(format!("{sags}x{cds}")),
            Cell::text(kind),
            Cell::speedup(geometric_mean(&ipc_ratios(&grid, i + 1, 0))),
            Cell::Num(mean(&energies), Fmt::Fixed(3)),
        ]);
    }
    Ok(study)
}

/// Builds a phase-structured trace with write bursts: sustained reads
/// punctuated by batches of writebacks, the pattern that engages the
/// write-drain machinery (steady mixes drain opportunistically and never
/// hit the watermark).
fn bursty_trace(geometry: Geometry, seed: u64, ops: usize) -> Trace {
    use fgnvm_types::request::Op;
    use fgnvm_workloads::PatternBuilder;
    let builder = PatternBuilder::new(geometry, seed);
    let lines = geometry.lines_per_row();
    let rows = geometry.rows_per_bank();
    let banks = geometry.banks_per_rank();
    let mut records = Vec::with_capacity(ops);
    let mut i = 0u32;
    while records.len() < ops {
        // Read phase: 120 scattered reads, then a burst phase of 60
        // back-to-back writebacks (fills the write queue past the drain
        // watermark).
        for (op, count, gap) in [(Op::Read, 120, 20), (Op::Write, 60, 0)] {
            for _ in 0..count {
                let row = (i.wrapping_mul(2654435761)) % rows;
                records.push(builder.record(op, i % banks, row, i % lines, gap, false));
                i += 1;
            }
        }
    }
    records.truncate(ops);
    Trace::new("write_burst", records)
}

/// Runs the scheduler study: FCFS vs FRFCFS vs TLP-augmented FRFCFS on the
/// same FgNVM hardware (quantifies how much of the benefit is scheduling).
/// Besides the standard profiles, a bursty-write trace is included because
/// the TLP augmentation (reads continue during drains) only engages when
/// write bursts trip the drain watermark.
fn schedulers(params: &ExperimentParams) -> Result<Study, SimError> {
    let kinds = [
        SchedulerKind::Fcfs,
        SchedulerKind::Frfcfs,
        SchedulerKind::FrfcfsTlp,
    ];
    let mut traces = profile_traces(&STUDY_PROFILES, pcm_geometry(), params);
    traces.push(bursty_trace(pcm_geometry(), params.seed, params.ops));
    let mut configs = Vec::new();
    for scheduler in kinds {
        let mut cfg = SystemConfig::fgnvm(8, 8)?;
        cfg.scheduler = scheduler;
        configs.push(cfg);
    }
    let grid = run_grid(&traces, &configs, params)?;
    let mut study = Study::new(
        "Scheduler study on 8x8 FgNVM",
        &["scheduler", "speedup vs FCFS", "avg read latency"],
    );
    for (k, scheduler) in kinds.into_iter().enumerate() {
        let latencies = per_trace(&grid, |row| row[k].avg_read_latency);
        study.push(vec![
            Cell::text(format!("{scheduler:?}")),
            Cell::speedup(geometric_mean(&ipc_ratios(&grid, k, 0))),
            Cell::Num(mean(&latencies), Fmt::Cycles),
        ]);
    }
    Ok(study)
}

/// Runs the mapping sensitivity study: both baseline and FgNVM are rebuilt
/// under each scheme, so the speedup isolates the architecture from the
/// layout.
fn mappings(params: &ExperimentParams) -> Result<Study, SimError> {
    let schemes = [
        MappingScheme::RowRankBankLineChannel,
        MappingScheme::RowLineRankBankChannel,
        MappingScheme::LineRowRankBankChannel,
        MappingScheme::SagInterleaved,
    ];
    let traces = profile_traces(&STUDY_PROFILES, pcm_geometry(), params);
    let core = Core::new(params.core)?;
    let mut study = Study::new(
        "Address-mapping sensitivity (8x8 FgNVM vs baseline)",
        &["mapping", "FgNVM speedup", "row hit rate"],
    );
    for scheme in schemes {
        let mut speedups = Vec::new();
        let mut hits = Vec::new();
        for trace in &traces {
            let mut base = MemorySystem::with_mapping(SystemConfig::baseline(), scheme)?;
            let mut fg = MemorySystem::with_mapping(SystemConfig::fgnvm(8, 8)?, scheme)?;
            let base_result = core.run(trace, &mut base);
            let fg_result = core.run(trace, &mut fg);
            speedups.push(fg_result.speedup_over(&base_result));
            hits.push(fg.bank_stats().row_hit_rate());
        }
        study.push(vec![
            Cell::text(format!("{scheme:?}")),
            Cell::speedup(geometric_mean(&speedups)),
            Cell::Num(mean(&hits), Fmt::Percent),
        ]);
    }
    Ok(study)
}

/// Runs a (traces × labelled designs) lattice and tabulates, per design,
/// the geometric-mean IPC over design 0 and the mean read latency.
fn speedup_and_latency(
    title: &str,
    reference: &'static str,
    designs: &[(&'static str, SystemConfig)],
    traces: &[Trace],
    params: &ExperimentParams,
) -> Result<(Study, Vec<Vec<RunOutcome>>), SimError> {
    let configs: Vec<SystemConfig> = designs.iter().map(|(_, c)| *c).collect();
    let grid = run_grid(traces, &configs, params)?;
    let mut study = Study::new(title, &["design", reference, "avg read latency"]);
    for (i, (design, _)) in designs.iter().enumerate() {
        let latencies = per_trace(&grid, |row| row[i].avg_read_latency);
        study.push(vec![
            Cell::text(*design),
            Cell::speedup(geometric_mean(&ipc_ratios(&grid, i, 0))),
            Cell::Num(mean(&latencies), Fmt::Cycles),
        ]);
    }
    Ok((study, grid))
}

/// Runs the NVM-vs-DRAM contrast (performance only — the energy constants
/// of the two technologies are not comparable in this model).
fn technology(params: &ExperimentParams) -> Result<Study, SimError> {
    let designs = [
        ("PCM baseline", SystemConfig::baseline()),
        ("FgNVM 8x8", SystemConfig::fgnvm(8, 8)?),
        (
            "FgNVM 8x8 + Multi-Issue",
            SystemConfig::fgnvm_multi_issue(8, 8, 2)?,
        ),
        ("DDR3-like DRAM", SystemConfig::dram()),
    ];
    let traces = profile_traces(&STUDY_PROFILES, pcm_geometry(), params);
    let (study, _) = speedup_and_latency(
        "Technology contrast: PCM baseline vs FgNVM vs DDR3-like DRAM",
        "speedup vs PCM baseline",
        &designs,
        &traces,
        params,
    )?;
    Ok(study)
}

/// Runs the write-pausing study on write-heavy workloads.
fn pausing(params: &ExperimentParams) -> Result<Study, SimError> {
    let designs = [
        ("FgNVM 8x8", SystemConfig::fgnvm(8, 8)?),
        (
            "FgNVM 8x8 + pausing",
            SystemConfig::fgnvm_with_pausing(8, 8)?,
        ),
    ];
    let mut traces = profile_traces(&["lbm_like", "leslie3d_like"], pcm_geometry(), params);
    traces.push(bursty_trace(pcm_geometry(), params.seed, params.ops));
    let (mut study, grid) = speedup_and_latency(
        "Write pausing on 8x8 FgNVM (write-heavy workloads)",
        "speedup",
        &designs,
        &traces,
        params,
    )?;
    study.headers.push("writes paused");
    for (i, row) in study.rows.iter_mut().enumerate() {
        row.push(Cell::Int(
            grid.iter().map(|r| r[i].banks.write_pauses).sum(),
        ));
    }
    Ok(study)
}

/// Runs the channel-scaling study: baseline and 8×8 FgNVM at 1 and 2
/// channels, all over the same physical address stream.
fn scaling(params: &ExperimentParams) -> Result<Study, SimError> {
    let traces = profile_traces(&STUDY_PROFILES, pcm_geometry(), params);
    let mut cells: Vec<(u32, &'static str, SystemConfig)> = Vec::new();
    for channels in [1u32, 2] {
        let mut base = SystemConfig::baseline();
        base.geometry = Geometry::builder()
            .channels(channels)
            .sags(1)
            .cds(1)
            .build()?;
        cells.push((channels, "baseline", base));
        let mut fg = SystemConfig::fgnvm(8, 8)?;
        fg.geometry = Geometry::builder()
            .channels(channels)
            .sags(8)
            .cds(8)
            .build()?;
        cells.push((channels, "FgNVM 8x8", fg));
    }
    let configs: Vec<SystemConfig> = cells.iter().map(|&(_, _, c)| c).collect();
    let grid = run_grid(&traces, &configs, params)?;
    let mut study = Study::new(
        "Channel scaling (speedups vs 1-channel baseline)",
        &["channels", "design", "speedup", "~p95 latency"],
    );
    // Per-trace reference IPC: the 1-channel baseline (cell 0).
    for (i, &(channels, design, _)) in cells.iter().enumerate() {
        let p95s = per_trace(&grid, |row| row[i].read_p95 as f64);
        study.push(vec![
            Cell::Int(u64::from(channels)),
            Cell::text(design),
            Cell::speedup(geometric_mean(&ipc_ratios(&grid, i, 0))),
            Cell::Num(mean(&p95s), Fmt::Cycles),
        ]);
    }
    Ok(study)
}

/// Runs the SLC-vs-MLC study.
fn cells(params: &ExperimentParams) -> Result<Study, SimError> {
    let designs = [
        ("SLC", "baseline", SystemConfig::baseline()),
        ("SLC", "FgNVM 8x8", SystemConfig::fgnvm(8, 8)?),
        ("MLC", "baseline", SystemConfig::baseline().with_mlc_cells()),
        (
            "MLC",
            "FgNVM 8x8",
            SystemConfig::fgnvm(8, 8)?.with_mlc_cells(),
        ),
    ];
    let traces = profile_traces(&STUDY_PROFILES, pcm_geometry(), params);
    let configs: Vec<SystemConfig> = designs.iter().map(|&(_, _, c)| c).collect();
    let grid = run_grid(&traces, &configs, params)?;
    let gmeans: Vec<f64> = (0..designs.len())
        .map(|i| geometric_mean(&ipc_ratios(&grid, i, 0)))
        .collect();
    let mut study = Study::new(
        "SLC vs MLC PCM (speedups vs SLC baseline)",
        &[
            "cells",
            "design",
            "speedup",
            "FgNVM gain over same-cell baseline",
        ],
    );
    for (i, &(cell, design, _)) in designs.iter().enumerate() {
        // Gain over the same-cell baseline (index 0 for SLC, 2 for MLC).
        let base = if cell == "SLC" { gmeans[0] } else { gmeans[2] };
        study.push(vec![
            Cell::text(cell),
            Cell::text(design),
            Cell::speedup(gmeans[i]),
            Cell::speedup(gmeans[i] / base),
        ]);
    }
    Ok(study)
}

/// Runs the multiprogrammed study: the geometric mean of four single
/// workloads vs their 4-way round-robin interleave (one consolidated
/// channel serving four cores' miss streams).
fn multiprogrammed(params: &ExperimentParams) -> Result<Study, SimError> {
    let mut traces = profile_traces(&STUDY_PROFILES, pcm_geometry(), params);
    let mixed = fgnvm_workloads::mix::interleave("mix4", &traces);
    traces.push(mixed);
    let designs = [
        ("baseline", SystemConfig::baseline()),
        ("FgNVM 8x2", SystemConfig::fgnvm(8, 2)?),
        ("FgNVM 8x8", SystemConfig::fgnvm(8, 8)?),
    ];
    let configs: Vec<SystemConfig> = designs.iter().map(|&(_, c)| c).collect();
    let grid = run_grid(&traces, &configs, params)?;
    let (singles, mixed) = grid.split_at(STUDY_PROFILES.len());
    let mut study = Study::new(
        "Multiprogrammed pressure (speedup vs same-traffic baseline)",
        &["traffic", "design", "speedup"],
    );
    // Single-program traffic: gmean of per-workload speedups.
    for (i, &(design, _)) in designs.iter().enumerate() {
        study.push(vec![
            Cell::text("single program"),
            Cell::text(design),
            Cell::speedup(geometric_mean(&ipc_ratios(singles, i, 0))),
        ]);
    }
    // Consolidated traffic: one interleaved trace.
    for (i, &(design, _)) in designs.iter().enumerate() {
        study.push(vec![
            Cell::text("4-way mix"),
            Cell::text(design),
            Cell::speedup(ipc_ratios(mixed, i, 0)[0]),
        ]);
    }
    Ok(study)
}

/// Runs the page-coloring study.
fn coloring(params: &ExperimentParams) -> Result<Study, SimError> {
    use fgnvm_workloads::PagePolicy;
    let policies = [
        ("identity (worst case)", PagePolicy::Identity),
        ("scattered (buddy allocator)", PagePolicy::Scattered),
        (
            "SAG-striped (geometry-aware)",
            PagePolicy::SagStriped { sags: 8 },
        ),
    ];
    let traces: Vec<Trace> = policies
        .iter()
        .flat_map(|&(_, policy)| {
            STUDY_PROFILES.iter().map(move |n| {
                fgnvm_workloads::profile(n)
                    .expect("known profile")
                    .generate_with_policy(pcm_geometry(), policy, params.seed, params.ops)
            })
        })
        .collect();
    let configs = [SystemConfig::baseline(), SystemConfig::fgnvm(8, 8)?];
    let grid = run_grid(&traces, &configs, params)?;
    let mut study = Study::new(
        "OS page placement vs tile-level parallelism (FgNVM 8x8)",
        &["placement", "FgNVM speedup over same-placement baseline"],
    );
    for ((label, _), per_policy) in policies.iter().zip(grid.chunks(STUDY_PROFILES.len())) {
        study.push(vec![
            Cell::text(*label),
            Cell::speedup(geometric_mean(&ipc_ratios(per_policy, 1, 0))),
        ]);
    }
    Ok(study)
}

/// Runs the timeline study: milc-like on baseline vs 8×8 FgNVM with the
/// epoch sampler on; array power = d(sense+write energy)/dt (background is
/// flat and omitted).
fn timeline(params: &ExperimentParams) -> Result<Study, SimError> {
    use fgnvm_mem::Sample;
    const EPOCH: u64 = 4096; // 10.24 µs at 400 MHz
    let trace = profile_traces(&["milc_like"], pcm_geometry(), params).remove(0);
    let core = Core::new(params.core)?;
    let energy = SystemConfig::baseline().energy;
    let mut runs: Vec<Vec<Sample>> = Vec::new();
    for config in [SystemConfig::baseline(), SystemConfig::fgnvm(8, 8)?] {
        let mut memory = MemorySystem::new(config)?;
        memory.enable_sampling(EPOCH);
        core.run(&trace, &mut memory);
        runs.push(memory.samples().to_vec());
    }
    // Convert consecutive samples into per-epoch rates. The sampler's
    // first record lands at the end of the first epoch; the origin
    // (cycle 0, every cumulative counter zero) is implicit, so prepend
    // it to anchor the first window.
    let rates = |samples: &[Sample]| -> Vec<(u64, u64, f64)> {
        let origin = Sample {
            at: fgnvm_types::time::Cycle::ZERO,
            completed_reads: 0,
            sensed_bits: 0,
            written_bits: 0,
            read_queue: 0,
            write_queue: 0,
        };
        let mut series = Vec::with_capacity(samples.len() + 1);
        series.push(origin);
        series.extend_from_slice(samples);
        series
            .windows(2)
            .map(|w| {
                let cycles = (w[1].at - w[0].at).raw() as f64;
                let pj = (w[1].sensed_bits - w[0].sensed_bits) as f64 * energy.read_pj_per_bit
                    + (w[1].written_bits - w[0].written_bits) as f64 * energy.write_pj_per_bit;
                // pJ per 2.5 ns cycle → watts: 1e-12 J / 2.5e-9 s = 4e-4 W,
                // i.e. 0.4 mW per pJ/cycle.
                let mw = pj / cycles * 0.4;
                (
                    w[0].at.raw(),
                    w[1].completed_reads - w[0].completed_reads,
                    mw,
                )
            })
            .collect()
    };
    let mut study = Study::new(
        format!("Array power/bandwidth timeline ({EPOCH}-cycle epochs, milc_like)"),
        &["cycle", "base reads", "base mW", "fgnvm reads", "fgnvm mW"],
    );
    for (b, f) in rates(&runs[0]).into_iter().zip(rates(&runs[1])) {
        study.push(vec![
            Cell::Int(b.0),
            Cell::Int(b.1),
            Cell::Num(b.2, Fmt::Fixed(1)),
            Cell::Int(f.1),
            Cell::Num(f.2, Fmt::Fixed(1)),
        ]);
    }
    Ok(study)
}

/// Runs the write-intensity sweep: a fixed strided profile whose write
/// fraction varies from 0 % to 60 %.
fn write_sweep(params: &ExperimentParams) -> Result<Study, SimError> {
    use fgnvm_types::config::BankModel;
    let mut no_bg = SystemConfig::fgnvm(8, 8)?;
    no_bg.bank_model = BankModel::Fgnvm {
        partial_activation: true,
        multi_activation: true,
        background_writes: false,
    };
    let configs = [SystemConfig::baseline(), SystemConfig::fgnvm(8, 8)?, no_bg];
    let fractions: Vec<f64> = [0u32, 10, 20, 30, 45, 60]
        .iter()
        .map(|&pct| f64::from(pct) / 100.0)
        .collect();
    let traces: Vec<Trace> = fractions
        .iter()
        .map(|&write_fraction| {
            Profile {
                name: "write_sweep",
                mpki: 30.0,
                write_fraction,
                row_locality: 0.3,
                streams: 8,
                dependent_fraction: 0.0,
                footprint_rows: 16384,
            }
            .generate(pcm_geometry(), params.seed, params.ops)
        })
        .collect();
    let grid = run_grid(&traces, &configs, params)?;
    let mut study = Study::new(
        "Backgrounded-Writes headroom vs write intensity (8x8 FgNVM)",
        &["write %", "bg writes ON", "bg writes OFF"],
    );
    for (&fraction, row) in fractions.iter().zip(&grid) {
        study.push(vec![
            Cell::Num(fraction, Fmt::Percent),
            Cell::speedup(row[1].core.ipc() / row[0].core.ipc()),
            Cell::speedup(row[2].core.ipc() / row[0].core.ipc()),
        ]);
    }
    Ok(study)
}

/// Runs the queue-depth sweep over the study workloads.
fn depth_sweep(params: &ExperimentParams) -> Result<Study, SimError> {
    let depths = [8usize, 16, 32, 64];
    let traces = profile_traces(&STUDY_PROFILES, pcm_geometry(), params);
    // Configs pair up per depth: baseline at 2k, FgNVM 8x8 at 2k + 1.
    let mut configs = Vec::new();
    for depth in depths {
        let mut base = SystemConfig::baseline();
        base.queue_entries = depth;
        let mut fg = SystemConfig::fgnvm(8, 8)?;
        fg.queue_entries = depth;
        configs.extend([base, fg]);
    }
    let grid = run_grid(&traces, &configs, params)?;
    let mut study = Study::new(
        "Transaction-queue depth sensitivity (8x8 FgNVM vs baseline)",
        &["queue entries", "speedup", "fgnvm read latency"],
    );
    for (k, depth) in depths.into_iter().enumerate() {
        let latencies = per_trace(&grid, |row| row[2 * k + 1].avg_read_latency);
        study.push(vec![
            Cell::Int(depth as u64),
            Cell::speedup(geometric_mean(&ipc_ratios(&grid, 2 * k + 1, 2 * k))),
            Cell::Num(mean(&latencies), Fmt::Cycles),
        ]);
    }
    Ok(study)
}

/// Runs every standard workload on the 8×8 FgNVM and reports the full
/// metric set per workload.
fn detail(params: &ExperimentParams) -> Result<Study, SimError> {
    let profiles = fgnvm_workloads::all_profiles();
    let traces: Vec<Trace> = profiles
        .iter()
        .map(|p| p.generate(Geometry::default(), params.seed, params.ops))
        .collect();
    let grid = run_grid(&traces, &[SystemConfig::fgnvm(8, 8)?], params)?;
    let mut study = Study::new(
        "Per-workload detail on FgNVM 8x8",
        &[
            "workload",
            "ipc",
            "stall%",
            "read lat",
            "p95",
            "hits%",
            "energy uJ",
            "rdr-under-wr",
        ],
    );
    for (p, row) in profiles.iter().zip(&grid) {
        let r = &row[0];
        study.push(vec![
            Cell::text(p.name),
            Cell::Num(r.core.ipc(), Fmt::Fixed(3)),
            Cell::Num(r.core.stall_fraction() * 100.0, Fmt::Fixed(0)),
            Cell::Num(r.avg_read_latency, Fmt::Fixed(0)),
            Cell::Int(r.read_p95),
            Cell::Num(r.banks.row_hit_rate() * 100.0, Fmt::Fixed(0)),
            Cell::Num(r.energy.total_pj() / 1e6, Fmt::Fixed(1)),
            Cell::Int(r.banks.reads_under_write),
        ]);
    }
    Ok(study)
}

/// Runs four distinct workloads on four cores sharing one memory, per
/// design, and reports throughput / weighted speedup / fairness.
fn cores(params: &ExperimentParams) -> Result<Study, SimError> {
    use fgnvm_cpu::{fairness, weighted_speedup, MultiCore};
    const CORES: usize = 4;
    let traces = profile_traces(&STUDY_PROFILES, pcm_geometry(), params);
    let designs = [
        ("baseline", SystemConfig::baseline()),
        ("FgNVM 8x2", SystemConfig::fgnvm(8, 2)?),
        ("FgNVM 8x8", SystemConfig::fgnvm(8, 8)?),
    ];
    let core = Core::new(params.core)?;
    let multi = MultiCore::new(params.core, CORES)?;
    let mut study = Study::new(
        format!("{CORES}-core consolidation (private windows, shared memory)"),
        &[
            "design",
            "throughput (ΣIPC)",
            "weighted speedup",
            "fairness",
        ],
    );
    for (design, config) in designs {
        // Solo baselines: each trace alone on this design.
        let mut solo = Vec::new();
        for t in &traces {
            solo.push(core.run(t, &mut MemorySystem::new(config)?));
        }
        // Shared run.
        let shared = multi.run(&traces, &mut MemorySystem::new(config)?);
        study.push(vec![
            Cell::text(design),
            Cell::Num(shared.throughput(), Fmt::Fixed(3)),
            Cell::Num(weighted_speedup(&shared.per_core, &solo), Fmt::OutOf(CORES)),
            Cell::Num(fairness(&shared.per_core, &solo), Fmt::Fixed(2)),
        ]);
    }
    Ok(study)
}

/// Runs the DRAM-buffer study: bare PCM (baseline and FgNVM 8×8) against
/// the same arrays behind a 4 MiB DRAM buffer.
fn hybrid(params: &ExperimentParams) -> Result<Study, SimError> {
    use fgnvm_mem::HybridMemory;
    const BUFFER: u64 = 4 * 1024 * 1024;
    let traces = profile_traces(&STUDY_PROFILES, pcm_geometry(), params);
    let core = Core::new(params.core)?;
    let designs = [
        ("PCM baseline", SystemConfig::baseline(), false),
        ("FgNVM 8x8", SystemConfig::fgnvm(8, 8)?, false),
        ("DRAM buffer + PCM baseline", SystemConfig::baseline(), true),
        ("DRAM buffer + FgNVM 8x8", SystemConfig::fgnvm(8, 8)?, true),
    ];
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut pcm_writes = vec![0u64; designs.len()];
    let mut instructions = vec![0u64; designs.len()];
    for trace in &traces {
        let mut reference = None;
        for (i, &(_, config, buffered)) in designs.iter().enumerate() {
            let pcm = MemorySystem::new(config)?;
            let (result, writes) = if buffered {
                let mut memory = HybridMemory::new(pcm, BUFFER, 16)?;
                let result = core.run(trace, &mut memory);
                (result, memory.pcm().bank_stats().writes)
            } else {
                let mut memory = pcm;
                let result = core.run(trace, &mut memory);
                (result, memory.bank_stats().writes)
            };
            let base = *reference.get_or_insert(result.ipc());
            speedups[i].push(result.ipc() / base);
            pcm_writes[i] += writes;
            instructions[i] += result.instructions;
        }
    }
    let mut study = Study::new(
        format!(
            "DRAM-buffered PCM (ref [8], {} MiB buffer) vs FgNVM",
            BUFFER / (1024 * 1024)
        ),
        &["design", "speedup", "PCM writes / kilo-instr"],
    );
    for (i, &(design, _, _)) in designs.iter().enumerate() {
        let per_kilo = pcm_writes[i] as f64 * 1000.0 / instructions[i].max(1) as f64;
        study.push(vec![
            Cell::text(design),
            Cell::speedup(geometric_mean(&speedups[i])),
            Cell::Num(per_kilo, Fmt::Fixed(2)),
        ]);
    }
    Ok(study)
}

/// Runs the tail-latency study: write-heavy workloads on the baseline,
/// two FgNVM shapes, and FgNVM with write pausing.
///
/// The paper's Figure 4 reports mean IPC, but the mechanism behind the
/// write-heavy wins is a *tail* effect: a baseline bank holds every read
/// for the full tWP of any in-flight write, so the slow tail — not the
/// median — carries the damage. This study makes that visible; its text
/// form adds each design's read-latency histogram summed over workloads.
fn tail_latency(params: &ExperimentParams) -> Result<Study, SimError> {
    let designs = [
        ("baseline", SystemConfig::baseline()),
        ("FgNVM 8x2", SystemConfig::fgnvm(8, 2)?),
        ("FgNVM 8x8", SystemConfig::fgnvm(8, 8)?),
        (
            "FgNVM 8x8 + pausing",
            SystemConfig::fgnvm_with_pausing(8, 8)?,
        ),
    ];
    let names = ["lbm_like", "leslie3d_like", "gemsfdtd_like"];
    let mut traces = profile_traces(&names, pcm_geometry(), params);
    traces.push(bursty_trace(pcm_geometry(), params.seed, params.ops));
    let configs: Vec<SystemConfig> = designs.iter().map(|&(_, c)| c).collect();
    let grid = run_grid(&traces, &configs, params)?;
    let mut study = Study::new(
        "Read-latency distribution under write-heavy traffic (memory cycles)",
        &["design", "mean", "~p50", "~p95", "~p99"],
    );
    for (i, &(design, _)) in designs.iter().enumerate() {
        let column = |f: fn(&RunOutcome) -> f64| {
            Cell::Num(mean(&per_trace(&grid, |row| f(&row[i]))), Fmt::Fixed(0))
        };
        study.push(vec![
            Cell::text(design),
            column(|o| o.avg_read_latency),
            column(|o| o.read_p50 as f64),
            column(|o| o.read_p95 as f64),
            column(|o| o.read_p99 as f64),
        ]);
        let mut hist = [0u64; fgnvm_types::hist::HIST_BUCKETS];
        for row in &grid {
            for (total, bucket) in hist.iter_mut().zip(row[i].read_latency_hist) {
                *total += bucket;
            }
        }
        study.ascii += &format!(
            "\n{design}:\n{}",
            crate::viz::render_latency_histogram(&hist, 48)
        );
    }
    Ok(study)
}

/// Runs the wear-leveling study: a zipf-skewed write-heavy stream (a few
/// hot rows absorb most writes — the pattern that kills unleveled PCM)
/// through FgNVM 8x8 with no leveling and with Start-Gap at two rotation
/// intervals. Lifetime is endurance-limited at a fixed write rate, so it
/// scales inversely with the hottest row.
fn wear(params: &ExperimentParams) -> Result<Study, SimError> {
    use fgnvm_types::request::Op;
    use fgnvm_workloads::PatternBuilder;

    // A small bank (64 rows) so the gap completes several sweeps within
    // the run, and a zipf-skewed write stream hammering it.
    let mut config = SystemConfig::fgnvm(8, 8)?;
    config.geometry = Geometry::builder()
        .rows_per_bank(64)
        .sags(8)
        .cds(8)
        .build()?;
    let rows = config.geometry.rows_per_bank();
    let lines = config.geometry.lines_per_row();
    let builder = PatternBuilder::new(config.geometry, params.seed);
    // SplitMix64 keeps the study self-seeded and deterministic.
    let mut state = params.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || fgnvm_types::splitmix64(&mut state);
    let records: Vec<_> = (0..params.ops)
        .map(|_| {
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
            // Inverse CDF of P(rank) proportional to rank^-0.8.
            let row = (f64::from(rows) * u.powf(1.0 / 0.2)) as u32 % rows;
            let line = next() as u32 % lines;
            builder.record(Op::Write, 0, row, line, 6, false)
        })
        .collect();
    let trace = Trace::new("zipf_writes", records);
    let core = Core::new(params.core)?;

    let policies = [
        ("none", None),
        ("start-gap /64", Some(64)),
        ("start-gap /8", Some(8)),
    ];
    let mut study = Study::new(
        "Start-Gap wear leveling on zipf-skewed writes (FgNVM 8x8)",
        &[
            "policy",
            "relative IPC",
            "wear imbalance",
            "rotations",
            "lifetime gain",
        ],
    );
    let mut reference: Option<(f64, f64)> = None; // (ipc, lifetime proxy)
    for (policy, interval) in policies {
        let mut memory = MemorySystem::new(config)?;
        memory.enable_wear_tracking();
        if let Some(interval) = interval {
            memory.enable_start_gap(interval)?;
        }
        let result = core.run(&trace, &mut memory);
        let tracker = memory.wear().expect("tracking enabled");
        // Lifetime proxy: useful writes until the hottest row hits the
        // endurance limit, i.e. total stream over the max-row share.
        let lifetime = tracker.total_writes() as f64 / f64::from(tracker.max_row_writes().max(1));
        let (ref_ipc, ref_lifetime) = *reference.get_or_insert((result.ipc(), lifetime));
        study.push(vec![
            Cell::text(policy),
            Cell::Num(result.ipc() / ref_ipc, Fmt::Times(3)),
            Cell::Num(tracker.imbalance(), Fmt::Times(1)),
            Cell::Int(memory.start_gap_rotations().unwrap_or(0)),
            Cell::Num(lifetime / ref_lifetime, Fmt::Times(2)),
        ]);
    }
    Ok(study)
}

/// Runs the page-policy study: streaming, mixed, and scattered workloads
/// on open- vs closed-page DRAM.
///
/// Open vs closed page is a real tuning decision on DRAM — open wins
/// when locality produces row hits, closed wins on scattered traffic by
/// hiding tRP in idle time. On the paper's PCM substrate the knob
/// *does not exist*: tRP = tRAS = 0 and reads are non-destructive, so
/// there is nothing to hide and nothing to forfeit. The study therefore
/// doubles as a contrast argument: FgNVM's substrate dissolves a
/// controller policy problem DRAM designers must get right per-workload.
fn page_policy(params: &ExperimentParams) -> Result<Study, SimError> {
    use fgnvm_types::config::RowPolicy;
    let open = SystemConfig::dram();
    let mut closed = open;
    closed.row_policy = RowPolicy::Closed;
    let workloads = [
        "libquantum_like",
        "leslie3d_like",
        "omnetpp_like",
        "mcf_like",
    ];
    let traces = profile_traces(&workloads, open.geometry, params);
    let grid = run_grid(&traces, &[open, closed], params)?;
    let mut study = Study::new(
        "DRAM page policy: open vs closed (auto-precharge)",
        &[
            "workload",
            "open IPC",
            "closed IPC",
            "closed/open",
            "open hit rate",
        ],
    );
    for (name, row) in workloads.iter().zip(&grid) {
        let (open_ipc, closed_ipc) = (row[0].core.ipc(), row[1].core.ipc());
        study.push(vec![
            Cell::text(*name),
            Cell::Num(open_ipc, Fmt::Fixed(3)),
            Cell::Num(closed_ipc, Fmt::Fixed(3)),
            Cell::Num(closed_ipc / open_ipc, Fmt::Times(2)),
            Cell::Num(row[0].banks.row_hit_rate(), Fmt::Percent),
        ]);
    }
    Ok(study)
}

/// Runs the MLP-sensitivity study: FgNVM's speedup as a function of how
/// much memory-level parallelism the core can expose.
///
/// EXPERIMENTS.md attributes the gap between our Figure 4 magnitudes and
/// the paper's to the front end: tile-level parallelism in the array is
/// worthless unless the core keeps enough misses in flight to land on
/// distinct (SAG, CD) pairs. This study sweeps the instruction window and
/// MSHR file — the two resources that bound a core's MLP — and watches
/// the speedup track them.
fn mlp(params: &ExperimentParams) -> Result<Study, SimError> {
    use fgnvm_cpu::CoreConfig;
    let configs = [SystemConfig::baseline(), SystemConfig::fgnvm(8, 8)?];
    let names = ["milc_like", "lbm_like", "omnetpp_like"];
    let traces = profile_traces(&names, configs[0].geometry, params);
    // From an in-order-ish window to far beyond Nehalem. The prefetcher
    // stays off so the window alone controls MLP.
    let windows: [(u32, u32); 4] = [(16, 2), (64, 8), (256, 32), (1024, 128)];
    let mut study = Study::new(
        "FgNVM 8x8 speedup vs core MLP window (gmean over workloads)",
        &["ROB", "MSHRs", "baseline IPC", "FgNVM IPC", "speedup"],
    );
    for (rob, mshrs) in windows {
        let window = ExperimentParams {
            core: CoreConfig {
                rob_entries: rob,
                mshrs,
                prefetch_degree: 0,
                ..CoreConfig::nehalem_like()
            },
            ..*params
        };
        let grid = run_grid(&traces, &configs, &window)?;
        let baseline_ipc = geometric_mean(&per_trace(&grid, |row| row[0].core.ipc()));
        let fgnvm_ipc = geometric_mean(&per_trace(&grid, |row| row[1].core.ipc()));
        study.push(vec![
            Cell::Int(u64::from(rob)),
            Cell::Int(u64::from(mshrs)),
            Cell::Num(baseline_ipc, Fmt::Fixed(3)),
            Cell::Num(fgnvm_ipc, Fmt::Fixed(3)),
            Cell::Num(fgnvm_ipc / baseline_ipc, Fmt::Times(2)),
        ]);
    }
    Ok(study)
}

/// Runs the reliability study: the baseline and FgNVM 8x2 swept over
/// coupled (RBER, write-verify-failure) fault levels with a fixed ECC
/// and retry budget — the performance price of device faults through the
/// full graceful-degradation datapath.
///
/// Each fault level couples a read-side raw bit-error rate (paid as ECC
/// decode latency, escalating to row remap when uncorrectable) with a
/// write-side verify-failure probability (paid as extra tWP programming
/// pulses, escalating to controller re-issue when the on-die budget runs
/// out). The clean point anchors each design's slowdown at exactly 1.0.
fn reliability(params: &ExperimentParams) -> Result<Study, SimError> {
    use fgnvm_types::config::ReliabilityConfig;
    let designs = [
        ("baseline", SystemConfig::baseline()),
        ("FgNVM 8x2", SystemConfig::fgnvm(8, 2)?),
    ];
    // Severity sweep: each level raises both the read-side error rate and
    // the write-side verify pressure. 3e-3 over a 512-bit line exceeds a
    // 2-bit ECC often enough to exercise the remap path.
    let levels: [(f64, f64); 4] = [(0.0, 0.0), (1e-4, 0.10), (1e-3, 0.25), (3e-3, 0.50)];
    let traces = profile_traces(&["milc_like", "lbm_like"], pcm_geometry(), params);
    let mut configs = Vec::new();
    for (_, base_config) in &designs {
        for &(rber, write_fail_prob) in &levels {
            configs.push(base_config.with_reliability(ReliabilityConfig {
                enabled: true,
                fault_seed: params.seed,
                rber,
                write_fail_prob,
                max_write_retries: 4,
                ecc_correctable_bits: 2,
                ecc_decode_penalty_cycles: 10,
                wear_stuck_threshold: 0,
                ..ReliabilityConfig::default()
            }));
        }
    }
    let grid = run_grid(&traces, &configs, params)?;
    let mut study = Study::new(
        "Fault injection: RBER + write-verify pressure vs performance",
        &[
            "design",
            "RBER",
            "wfail",
            "IPC",
            "slowdown",
            "~p99",
            "retries",
            "vfail",
            "corrected",
            "uncorr",
            "remap",
            "reissue",
        ],
    );
    for (d, &(design, _)) in designs.iter().enumerate() {
        let mut clean_ipc = None;
        for (l, &(rber, write_fail_prob)) in levels.iter().enumerate() {
            let c = d * levels.len() + l;
            let sum =
                |f: fn(&RunOutcome) -> u64| Cell::Int(grid.iter().map(|row| f(&row[c])).sum());
            let ipc = geometric_mean(&per_trace(&grid, |row| row[c].core.ipc()));
            let clean = *clean_ipc.get_or_insert(ipc);
            study.push(vec![
                Cell::text(design),
                Cell::Num(rber, Fmt::Sci),
                Cell::Num(write_fail_prob, Fmt::Fixed(2)),
                Cell::Num(ipc, Fmt::Fixed(3)),
                Cell::Num(clean / ipc, Fmt::Times(3)),
                Cell::Int(grid.iter().map(|row| row[c].read_p99).max().unwrap_or(0)),
                sum(|o| o.banks.write_retries),
                sum(|o| o.banks.verify_failures),
                sum(|o| o.corrected_errors),
                sum(|o| o.uncorrectable_errors),
                sum(|o| o.remapped_rows),
                sum(|o| o.reissued_writes),
            ]);
        }
    }
    Ok(study)
}

/// Sweeps the serve driver over increasing horizons on a harshly faulty
/// FgNVM 8x2 device (tiny spare pool, read-only and capacity thresholds
/// armed), so each row is a later point in the device's lifetime: the
/// escalation ladder (remap → retire → read-only → capacity-exhausted)
/// plotted against run length. Runs that bottom out the ladder are
/// reported as `EXHAUSTED` rows built from the structured
/// [`SimError::CapacityExhausted`] error rather than failing the sweep;
/// any other run failure is returned.
fn reliability_horizon(params: &ExperimentParams) -> Result<Study, SimError> {
    use fgnvm_types::config::ReliabilityConfig;
    let config = SystemConfig::fgnvm(8, 2)?.with_reliability(ReliabilityConfig {
        enabled: true,
        fault_seed: params.seed,
        rber: 2e-4,
        write_fail_prob: 0.25,
        max_write_retries: 2,
        ecc_correctable_bits: 1,
        ecc_decode_penalty_cycles: 8,
        spare_rows_per_bank: 3,
        read_only_row_threshold: 8,
        capacity_exhausted_banks: 14,
        ..ReliabilityConfig::default()
    });
    config.validate()?;
    let horizons: [u64; 5] = [20_000, 60_000, 140_000, 300_000, 600_000];
    let mut study = Study::new(
        "Wear-out escalation over device lifetime (FgNVM 8x2, harsh faults)",
        &[
            "horizon",
            "admitted",
            "completed",
            "remapped",
            "retired",
            "ro banks",
            "w-rejects",
            "state",
        ],
    );
    for (i, &horizon) in horizons.iter().enumerate() {
        let sc = crate::serve::ServeConfig {
            horizon,
            // Arrival pressure scales with the horizon so later points
            // really are "more lifetime", not the same run cut short.
            ops: horizon / 40,
            seed: params.seed,
            watchdog_cycles: 10_000_000,
            ..crate::serve::ServeConfig::default()
        };
        match crate::serve::serve(config, &sc) {
            Ok(report) => {
                let state = if report.read_only_banks > 0 {
                    "read-only banks"
                } else if report.retired_rows > 0 {
                    "retiring rows"
                } else if report.remapped_rows > 0 {
                    "remapping"
                } else {
                    "healthy"
                };
                study.push(vec![
                    Cell::Int(horizon),
                    Cell::Int(report.admitted),
                    Cell::Int(report.completions),
                    Cell::Int(report.remapped_rows),
                    Cell::Int(report.retired_rows),
                    Cell::Int(report.read_only_banks),
                    Cell::Int(report.read_only_write_rejections),
                    Cell::text(state),
                ]);
            }
            Err(SimError::CapacityExhausted {
                read_only_banks,
                retired_rows,
                ..
            }) => {
                // Every longer horizon exhausts too; record them without
                // re-running the (deterministic) prefix.
                for &h in &horizons[i..] {
                    study.push(vec![
                        Cell::Int(h),
                        Cell::Int(0),
                        Cell::Int(0),
                        Cell::Int(0),
                        Cell::Int(retired_rows),
                        Cell::Int(u64::from(read_only_banks)),
                        Cell::Int(0),
                        Cell::text("EXHAUSTED"),
                    ]);
                }
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(study)
}

#[cfg(test)]
mod study_tests {
    use super::*;

    #[test]
    fn render_rules_reproduce_the_table_formats() {
        let cases = [
            (Cell::speedup(1.834), "1.83x"),
            (Cell::Num(0.6349, Fmt::Fixed(3)), "0.635"),
            (Cell::Num(118.5, Fmt::Cycles), "118 cy"),
            (Cell::Num(0.456, Fmt::Percent), "46%"),
            (Cell::Num(1e-4, Fmt::Sci), "1e-4"),
            (Cell::Num(2.5, Fmt::OutOf(4)), "2.50 / 4"),
            (Cell::Num(0.8881, Fmt::Times(3)), "0.888x"),
            (Cell::Int(12), "12"),
            (Cell::text("FgNVM 8x8"), "FgNVM 8x8"),
        ];
        for (cell, text) in cases {
            assert_eq!(cell.to_string(), text, "{cell:?}");
        }
    }

    #[test]
    fn lookup_matches_leading_cells_and_keeps_unrounded_values() {
        let mut study = Study::new("t", &["ch", "design", "speedup"]);
        study.push(vec![Cell::Int(1), Cell::text("a"), Cell::speedup(1.0)]);
        study.push(vec![Cell::Int(2), Cell::text("a"), Cell::speedup(1.23456)]);
        assert_eq!(study.value(&["2", "a"], "speedup"), Some(1.23456));
        assert_eq!(study.values(&[], "speedup"), vec![1.0, 1.23456]);
        assert_eq!(study.values(&["1"], "design"), Vec::<f64>::new());
        assert_eq!(study.value(&["3"], "speedup"), None);
        assert_eq!(study.value(&["1"], "nope"), None);
        assert_eq!(
            study.to_table().to_csv(),
            "ch,design,speedup\n1,a,1.00x\n2,a,1.23x\n"
        );
    }

    #[test]
    fn registry_names_are_unique_and_resolve() {
        for (i, (name, _)) in STUDIES.iter().enumerate() {
            assert!(study(name).is_some());
            assert!(STUDIES[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
        assert!(study("fig9").is_none());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn tiny() -> ExperimentParams {
        ExperimentParams {
            ops: 500,
            ..ExperimentParams::quick()
        }
    }

    #[test]
    fn dimensions_2d_beats_both_1d_shapes_on_energy_and_speed() {
        let result = dimensions(&tiny()).unwrap();
        let at = |shape: &str, column: &str| result.value(&[shape], column).unwrap();
        let (salp_energy, two_d_energy) = (at("16x1", "rel. energy"), at("4x4", "rel. energy"));
        let (salp, cols, two_d) = (
            at("16x1", "speedup"),
            at("1x16", "speedup"),
            at("4x4", "speedup"),
        );
        // SALP-like rows-only: parallelism but full-row sensing energy.
        assert!(
            salp_energy > two_d_energy,
            "salp {salp_energy} vs 2d {two_d_energy}"
        );
        // Columns-only: energy saving but a single open row limits speed.
        assert!(cols < two_d, "cols {cols} vs 2d {two_d}");
        // 2D is competitive with SALP on performance.
        assert!(two_d >= salp * 0.9);
    }

    #[test]
    fn schedulers_ordering() {
        let result = schedulers(&tiny()).unwrap();
        let by = |k: &str| result.value(&[k], "speedup vs FCFS").unwrap();
        assert!((by("Fcfs") - 1.0).abs() < 1e-9);
        assert!(by("Frfcfs") >= 1.0);
        assert!(by("FrfcfsTlp") >= by("Frfcfs") * 0.98);
    }

    #[test]
    fn mappings_all_schemes_run_and_speedup_positive() {
        let result = mappings(&tiny()).unwrap();
        assert_eq!(result.rows.len(), 4);
        for (row, speedup) in result.rows.iter().zip(result.values(&[], "FgNVM speedup")) {
            assert!(speedup > 0.8, "{} speedup {speedup}", row[0]);
        }
    }
}

#[cfg(test)]
mod technology_tests {
    use super::*;

    #[test]
    fn dram_beats_pcm_but_fgnvm_closes_the_gap() {
        let params = ExperimentParams {
            ops: 600,
            ..ExperimentParams::quick()
        };
        let result = technology(&params).unwrap();
        let at = |design: &str| result.value(&[design], "speedup vs PCM baseline").unwrap();
        let (pcm, fgnvm, dram) = (at("PCM baseline"), at("FgNVM 8x8"), at("DDR3-like DRAM"));
        assert!((pcm - 1.0).abs() < 1e-9);
        assert!(dram > 1.0, "dram {dram} should beat the PCM baseline");
        assert!(fgnvm > 1.0, "fgnvm {fgnvm} should beat the PCM baseline");
        // FgNVM recovers a meaningful share of the PCM-to-DRAM gap.
        let recovered = (fgnvm - 1.0) / (dram - 1.0);
        assert!(
            recovered > 0.15,
            "fgnvm recovered only {recovered:.2} of the gap"
        );
    }
}

#[cfg(test)]
mod pausing_tests {
    use super::*;

    #[test]
    fn pausing_reduces_read_latency_on_write_heavy_traffic() {
        let params = ExperimentParams {
            ops: 800,
            ..ExperimentParams::quick()
        };
        let result = pausing(&params).unwrap();
        let plain = |column: &str| result.value(&["FgNVM 8x8"], column).unwrap();
        let paused = |column: &str| result.value(&["FgNVM 8x8 + pausing"], column).unwrap();
        assert!(paused("writes paused") > 0.0, "no writes were paused");
        assert!(
            paused("avg read latency") <= plain("avg read latency") * 1.02,
            "pausing should not hurt read latency: {} vs {}",
            paused("avg read latency"),
            plain("avg read latency")
        );
        assert!(
            paused("speedup") >= 0.97,
            "pausing regressed ipc: {}",
            paused("speedup")
        );
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;

    #[test]
    fn channels_and_tlp_compose() {
        let params = ExperimentParams {
            ops: 600,
            ..ExperimentParams::quick()
        };
        let result = scaling(&params).unwrap();
        let at = |ch: &str, design: &str| result.value(&[ch, design], "speedup").unwrap();
        let base1 = at("1", "baseline");
        let fg1 = at("1", "FgNVM 8x8");
        let base2 = at("2", "baseline");
        let fg2 = at("2", "FgNVM 8x8");
        assert!((base1 - 1.0).abs() < 1e-9);
        // More channels help the baseline; FgNVM still adds on top.
        assert!(base2 > base1 * 0.99, "2ch baseline {base2}");
        assert!(fg1 > base1, "fgnvm should beat baseline at 1ch");
        assert!(
            fg2 > base2 * 0.99,
            "fgnvm should not hurt at 2ch: {fg2} vs {base2}"
        );
    }
}

#[cfg(test)]
mod cells_tests {
    use super::*;

    #[test]
    fn fgnvm_helps_mlc_at_least_as_much_as_slc() {
        let params = ExperimentParams {
            ops: 600,
            ..ExperimentParams::quick()
        };
        let result = cells(&params).unwrap();
        let gain = |cell: &str| {
            result
                .value(&[cell, "FgNVM 8x8"], "FgNVM gain over same-cell baseline")
                .unwrap()
        };
        let (slc_gain, mlc_gain) = (gain("SLC"), gain("MLC"));
        assert!(slc_gain > 1.0, "slc gain {slc_gain}");
        assert!(
            mlc_gain >= slc_gain * 0.95,
            "tlp should matter at least as much on slow cells: mlc {mlc_gain} vs slc {slc_gain}"
        );
    }
}

#[cfg(test)]
mod multiprogrammed_tests {
    use super::*;

    #[test]
    fn consolidation_amplifies_tlp() {
        let params = ExperimentParams {
            ops: 700,
            ..ExperimentParams::quick()
        };
        let result = multiprogrammed(&params).unwrap();
        let single = result
            .value(&["single program", "FgNVM 8x8"], "speedup")
            .unwrap();
        let mixed = result
            .value(&["4-way mix", "FgNVM 8x8"], "speedup")
            .unwrap();
        assert!(single > 1.0);
        assert!(
            mixed >= single * 0.95,
            "mix {mixed} should benefit at least as much as singles {single}"
        );
    }
}

#[cfg(test)]
mod coloring_tests {
    use super::*;

    #[test]
    fn placement_grants_or_destroys_tlp() {
        let params = ExperimentParams {
            ops: 700,
            ..ExperimentParams::quick()
        };
        let result = coloring(&params).unwrap();
        let at = |policy: &str| {
            result
                .value(&[policy], "FgNVM speedup over same-placement baseline")
                .unwrap()
        };
        let identity = at("identity (worst case)");
        let scattered = at("scattered (buddy allocator)");
        let striped = at("SAG-striped (geometry-aware)");
        // Identity placement confines footprints to few SAGs and should
        // yield the least benefit; geometry-aware striping at least matches
        // random scattering.
        assert!(
            identity <= scattered * 1.02,
            "identity {identity} vs scattered {scattered}"
        );
        assert!(
            striped >= scattered * 0.95,
            "striped {striped} vs scattered {scattered}"
        );
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;

    #[test]
    fn timeline_produces_epochs_with_lower_fgnvm_power() {
        let params = ExperimentParams {
            ops: 2000,
            ..ExperimentParams::quick()
        };
        let result = timeline(&params).unwrap();
        assert!(result.rows.len() >= 2, "expected several epochs");
        let base_total: f64 = result.values(&[], "base mW").iter().sum();
        let fg_total: f64 = result.values(&[], "fgnvm mW").iter().sum();
        assert!(
            fg_total < base_total,
            "fgnvm array power {fg_total} should undercut baseline {base_total}"
        );
    }
}

#[cfg(test)]
mod sweep_extension_tests {
    use super::*;

    #[test]
    fn write_sweep_bg_advantage_grows_with_writes() {
        let params = ExperimentParams {
            ops: 800,
            ..ExperimentParams::quick()
        };
        let result = write_sweep(&params).unwrap();
        let with_bg = result.values(&[], "bg writes ON");
        let without_bg = result.values(&[], "bg writes OFF");
        let last = with_bg.len() - 1;
        // With no writes the two variants are identical.
        assert!((with_bg[0] - without_bg[0]).abs() < 0.05);
        // At high write intensity, backgrounded writes clearly win.
        assert!(
            with_bg[last] > without_bg[last] * 1.1,
            "bg {} vs no-bg {} at 60% writes",
            with_bg[last],
            without_bg[last]
        );
    }

    #[test]
    fn depth_sweep_runs_and_stays_positive() {
        let params = ExperimentParams {
            ops: 600,
            ..ExperimentParams::quick()
        };
        let result = depth_sweep(&params).unwrap();
        assert_eq!(result.rows.len(), 4);
        let depths = result.values(&[], "queue entries");
        for (depth, speedup) in depths.iter().zip(result.values(&[], "speedup")) {
            assert!(speedup > 0.9, "depth {depth} speedup {speedup}");
        }
    }
}

#[cfg(test)]
mod detail_tests {
    use super::*;

    #[test]
    fn detail_covers_all_workloads() {
        let params = ExperimentParams {
            ops: 300,
            ..ExperimentParams::quick()
        };
        let result = detail(&params).unwrap();
        assert_eq!(result.rows.len(), 12);
        assert!(result.values(&[], "ipc").iter().all(|&ipc| ipc > 0.0));
        let table = result.to_table();
        assert_eq!(table.row_count(), 12);
    }
}

#[cfg(test)]
mod cores_tests {
    use super::*;

    #[test]
    fn consolidated_fgnvm_beats_consolidated_baseline() {
        let params = ExperimentParams {
            ops: 500,
            ..ExperimentParams::quick()
        };
        let result = cores(&params).unwrap();
        let at = |design: &str, column: &str| result.value(&[design], column).unwrap();
        assert!(at("FgNVM 8x8", "throughput (ΣIPC)") > at("baseline", "throughput (ΣIPC)"));
        assert!(at("FgNVM 8x8", "weighted speedup") >= at("baseline", "weighted speedup") * 0.98);
        let fairness = result.values(&[], "fairness");
        let weighted = result.values(&[], "weighted speedup");
        for ((row, fairness), weighted) in result.rows.iter().zip(fairness).zip(weighted) {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&fairness),
                "{}: {}",
                row[0],
                fairness
            );
            assert!(weighted <= 4.0 + 1e-9);
        }
    }
}

#[cfg(test)]
mod hybrid_tests {
    use super::*;

    #[test]
    fn buffer_and_subdivision_both_help_and_compose() {
        let params = ExperimentParams {
            ops: 600,
            ..ExperimentParams::quick()
        };
        let result = hybrid(&params).unwrap();
        let speedup = |design: &str| result.value(&[design], "speedup").unwrap();
        let writes = |design: &str| result.value(&[design], "PCM writes / kilo-instr").unwrap();
        let fg = speedup("FgNVM 8x8");
        let buf = speedup("DRAM buffer + PCM baseline");
        assert!(fg > 1.0);
        assert!(buf > 1.0);
        assert!(speedup("DRAM buffer + FgNVM 8x8") >= fg.min(buf));
        // The buffer filters writes away from the PCM array.
        assert!(writes("DRAM buffer + PCM baseline") < writes("PCM baseline"));
    }
}

#[cfg(test)]
mod tail_tests {
    use super::*;

    #[test]
    fn backgrounded_writes_shrink_the_read_tail() {
        let params = ExperimentParams {
            ops: 900,
            ..ExperimentParams::quick()
        };
        let result = tail_latency(&params).unwrap();
        let at = |design: &str, column: &str| result.value(&[design], column).unwrap();
        // The headline mechanism: reads no longer wait out tWP, so the
        // tail contracts by more than the median does.
        assert!(
            at("FgNVM 8x8", "~p99") < at("baseline", "~p99"),
            "FgNVM p99 {} should beat baseline p99 {}",
            at("FgNVM 8x8", "~p99"),
            at("baseline", "~p99")
        );
        assert!(at("FgNVM 8x8", "mean") < at("baseline", "mean"));
        // Distributions are ordered within themselves.
        for row in &result.rows {
            let design = row[0].to_string();
            let (p50, p95, p99) = (
                at(&design, "~p50"),
                at(&design, "~p95"),
                at(&design, "~p99"),
            );
            assert!(p50 <= p95 && p95 <= p99, "{row:?}");
        }
    }
}

#[cfg(test)]
mod wear_tests {
    use super::*;

    #[test]
    fn start_gap_trades_little_ipc_for_lifetime() {
        let params = ExperimentParams {
            ops: 4000,
            ..ExperimentParams::quick()
        };
        let result = wear(&params).unwrap();
        let none = |column: &str| result.value(&["none"], column).unwrap();
        let fast = |column: &str| result.value(&["start-gap /8"], column).unwrap();
        let slow = |column: &str| result.value(&["start-gap /64"], column).unwrap();
        assert_eq!(none("rotations"), 0.0);
        assert!(fast("rotations") > 0.0, "gap never rotated");
        // Leveling spreads the hot rows: imbalance and lifetime improve.
        assert!(
            fast("wear imbalance") < none("wear imbalance"),
            "leveling did not reduce imbalance: {} vs {}",
            fast("wear imbalance"),
            none("wear imbalance")
        );
        assert!(
            fast("lifetime gain") > 1.0,
            "no lifetime gain: {}",
            fast("lifetime gain")
        );
        // Gap-copy traffic (an extra read+write every 8 writes, on the
        // hammered bank itself) costs bounded IPC.
        assert!(
            fast("relative IPC") > 0.70,
            "gap traffic too costly: {}",
            fast("relative IPC")
        );
        // More frequent rotation levels at least as well, and costs more.
        assert!(fast("wear imbalance") <= slow("wear imbalance") * 1.10);
        assert!(fast("rotations") > slow("rotations"));
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    #[test]
    fn page_policy_tracks_row_locality() {
        let params = ExperimentParams {
            ops: 1500,
            ..ExperimentParams::quick()
        };
        let result = page_policy(&params).unwrap();
        let at = |workload: &str, column: &str| result.value(&[workload], column).unwrap();
        // Streaming traffic rides row hits: open page must win clearly.
        let streaming = at("libquantum_like", "closed/open");
        assert!(
            streaming < 0.98,
            "open page should win on streaming: {streaming}"
        );
        assert!(at("libquantum_like", "open hit rate") > 0.5);
        // Scattered pointer chasing has few hits to forfeit; closed page
        // must be at worst a wash (and usually ahead).
        let scattered = at("mcf_like", "closed/open");
        assert!(
            scattered > 0.97,
            "closed page should not lose on scattered traffic: {scattered}"
        );
        assert!(at("mcf_like", "open hit rate") < at("libquantum_like", "open hit rate"));
    }

    #[test]
    fn closed_page_rejected_outside_dram() {
        use fgnvm_types::config::RowPolicy;
        let mut config = SystemConfig::fgnvm(8, 8).unwrap();
        config.row_policy = RowPolicy::Closed;
        assert!(
            config.validate().is_err(),
            "closed page is a DRAM-only knob"
        );
    }
}

#[cfg(test)]
mod mlp_tests {
    use super::*;

    #[test]
    fn fgnvm_speedup_grows_with_the_mlp_window() {
        let params = ExperimentParams {
            ops: 1200,
            ..ExperimentParams::quick()
        };
        let result = mlp(&params).unwrap();
        let speedup = result.values(&[], "speedup");
        let baseline = result.values(&[], "baseline IPC");
        let fgnvm = result.values(&[], "FgNVM IPC");
        let (narrow, wide) = (0, speedup.len() - 1);
        // A near-in-order core cannot exploit tile parallelism; a huge
        // window can. The speedup must track the window.
        assert!(
            speedup[wide] > speedup[narrow],
            "speedup did not grow with MLP: narrow {:.3} wide {:.3}",
            speedup[narrow],
            speedup[wide]
        );
        // Absolute IPC grows with the window on both designs.
        assert!(baseline[wide] > baseline[narrow]);
        assert!(fgnvm[wide] > fgnvm[narrow]);
        // With essentially no outstanding misses the two designs are close
        // to indistinguishable.
        assert!(speedup[narrow] < speedup[wide] * 1.0 + 0.5);
    }
}

#[cfg(test)]
mod reliability_tests {
    use super::*;

    #[test]
    fn slowdown_is_monotone_in_fault_severity() {
        let params = ExperimentParams {
            ops: 900,
            ..ExperimentParams::quick()
        };
        let result = reliability(&params).unwrap();
        assert_eq!(result.rows.len(), 8);
        for design in ["baseline", "FgNVM 8x2"] {
            let column = |name: &str| result.values(&[design], name);
            let (slowdown, retries) = (column("slowdown"), column("retries"));
            let (corrected, uncorrectable) = (column("corrected"), column("uncorr"));
            assert_eq!(slowdown.len(), 4);
            // The clean point anchors at exactly 1.0 by construction, and
            // the fault layer at zero rates must not have cost anything
            // measurable either.
            assert!((slowdown[0] - 1.0).abs() < 1e-12);
            assert_eq!(retries[0], 0.0);
            assert_eq!(corrected[0] + uncorrectable[0], 0.0);
            // Severity must cost monotonically more.
            for pair in slowdown.windows(2) {
                assert!(
                    pair[1] >= pair[0],
                    "{design}: slowdown regressed between levels: {:?} -> {:?}",
                    pair[0],
                    pair[1]
                );
            }
            // The harshest level visibly hurts and exercises every path.
            assert!(slowdown[3] > 1.01, "{design}: {}", slowdown[3]);
            assert!(retries[3] > 0.0);
            assert!(corrected[3] > 0.0);
        }
    }
}

#[cfg(test)]
mod reliability_horizon_tests {
    use super::*;

    #[test]
    fn degradation_is_monotone_over_lifetime() {
        let params = ExperimentParams::quick();
        let result = reliability_horizon(&params).unwrap();
        assert_eq!(result.rows.len(), 5);
        let remapped = result.values(&[], "remapped");
        let retired = result.values(&[], "retired");
        let read_only = result.values(&[], "ro banks");
        let exhausted: Vec<bool> = result
            .rows
            .iter()
            .map(|row| row[7].to_string() == "EXHAUSTED")
            .collect();
        // Damage counters never heal as the horizon grows.
        for i in 1..result.rows.len() {
            assert!(remapped[i] >= remapped[i - 1] || exhausted[i]);
            assert!(retired[i] >= retired[i - 1]);
            assert!(read_only[i] >= read_only[i - 1]);
        }
        // The harsh fault config must visibly walk the ladder by the end.
        let last = result.rows.len() - 1;
        assert!(
            remapped[last] > 0.0 || retired[last] > 0.0 || exhausted[last],
            "no degradation observed: {:?}",
            result.rows[last]
        );
    }
}
