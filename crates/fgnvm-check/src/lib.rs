//! Independent correctness layer for the FgNVM simulator.
//!
//! The paper's core claim — up to `min(S, C)` concurrent accesses per bank,
//! legal iff in-flight operations occupy distinct (SAG, CD) pairs, with
//! partial-activation underfetch and backgrounded `tWP` writes — is enforced
//! by the bank FSMs in `fgnvm-bank`. This crate re-derives the same legality
//! envelope from first principles (geometry + timing parameters only) and
//! checks every run against it, so a scheduler or FSM bug cannot silently
//! inflate reported speedups:
//!
//! - [`oracle`] — an analytical reference model that replays the
//!   [`CommandLog`](fgnvm_mem::CommandLog) stream and flags every command
//!   the legal-concurrency envelope forbids (rook-placement admissibility,
//!   per-SAG single-open-row, per-CD single-sense, global column-path
//!   serialization, write-occupancy windows including `(1+k)·tWP`
//!   verify-retry extensions), plus the channel-wide data-bus occupancy
//!   and verify-retry cap. The DRAM contrast model, which the replay does
//!   not cover, is audited by the oracle's DRAM rule set (latency floors,
//!   tCCD, tFAW).
//! - [`invariants`] — conservation laws checked on whole runs: every
//!   accepted request completes exactly once, the stall attribution and
//!   the five-component span decomposition it derives each sum exactly to
//!   end-to-end latency, energy is exactly the modeled constants times the
//!   bit counters, and the observability heatmap totals equal the bank
//!   counters.
//! - [`mod@fuzz`] — a shrinking command-sequence fuzzer driving the raw
//!   [`MemorySystem`](fgnvm_mem::MemorySystem) API with arbitrary
//!   interleavings, geometries, fault configs and stepping modes; failures
//!   minimize to a replayable [`case`] file.
//! - [`seed`] — the one deterministic seed-derivation helper shared by the
//!   fuzzer and the soak tests.
//!
//! `fgnvm-repro -- check <cfg>` and `-- fuzz` expose the oracle and fuzzer
//! on the command line; see `TESTING.md` at the repository root for the
//! full test taxonomy.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod case;
pub mod fuzz;
pub mod invariants;
pub mod oracle;
pub mod seed;

pub use case::{parse_case, render_case};
pub use fuzz::{
    execute_case, execute_case_with_kill, fuzz, CaseReport, FuzzCase, FuzzFailure, FuzzModel,
    FuzzOp, FuzzOptions, FuzzOutcome,
};
pub use invariants::{check_audit_conservation, check_tenant_conservation, InvariantReport};
pub use oracle::{run_and_audit, CheckOutcome, Oracle, OracleReport, OracleViolation};
pub use seed::derive_seed;
