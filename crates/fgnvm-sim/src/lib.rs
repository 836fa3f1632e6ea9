//! Experiment harness reproducing the FgNVM paper's tables and figures.
//!
//! Each experiment ([`experiment::fig4`], [`experiment::fig5`],
//! [`experiment::table1`], …) regenerates one artifact of the paper's
//! evaluation section using the full simulation stack: synthetic SPEC-like
//! traces ([`fgnvm_workloads`]) replayed by a windowed core
//! ([`fgnvm_cpu`]) against the cycle-level memory simulator
//! ([`fgnvm_mem`]) with baseline or FgNVM banks ([`fgnvm_bank`]).
//!
//! The `fgnvm-repro` binary wraps these in a CLI:
//!
//! ```text
//! cargo run -p fgnvm-sim --bin fgnvm-repro -- fig4 --ops 6000
//! ```
//!
//! # Example
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fgnvm_sim::experiment;
//! use fgnvm_sim::runner::ExperimentParams;
//!
//! let fig4 = experiment::fig4(&ExperimentParams::quick())?;
//! println!("{}", fig4.to_table().render());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod experiment;
pub mod extensions;
pub mod golden;
pub mod observe;
pub mod profile;
pub mod report;
pub mod runner;
pub mod serve;
pub mod simulation;
pub mod viz;

pub use audit::{audit, AuditOutcome};
pub use experiment::{
    ablation, fig4, fig5, summary, sweep, table1, table2, AblationResult, Fig4Result, Fig5Result,
    Summary, SweepResult,
};
pub use extensions::{study, Cell, Fmt, Study, StudyFn, STUDIES};
pub use observe::{observe, ObserveOutcome};
pub use profile::{
    compare_ledgers, parse_ledger, profile, CompareOutcome, MetricDelta, ProfileOutcome, RunRecord,
    SCHEMA_VERSION,
};
pub use report::Table;
pub use runner::{
    run_configs, run_grid, run_jobs, run_one, run_one_with_warmup, ExperimentParams, RunOutcome,
};
pub use serve::{
    fairness, load_checkpoint, load_checkpoint_file, resume, save_checkpoint, serve,
    AdmissionPolicy, FairnessReport, FairnessRow, ServeConfig, ServeReport, ServeState,
    TenantReport,
};
pub use simulation::{Simulation, SimulationError, SimulationReport};
