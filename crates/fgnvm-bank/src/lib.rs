//! Bank models for the FgNVM architecture.
//!
//! This crate implements the paper's primary contribution — the
//! two-dimensionally subdivided NVM bank with tile-level parallelism
//! ([`FgnvmBank`]) — together with the state-of-the-art baseline it is
//! compared against ([`BaselineBank`]). Both speak the same two-phase
//! [`Bank`] protocol so the memory controller in `fgnvm-mem` can drive
//! either interchangeably.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fgnvm_bank::{Access, Bank, FgnvmBank, Modes};
//! use fgnvm_types::address::TileCoord;
//! use fgnvm_types::geometry::Geometry;
//! use fgnvm_types::request::Op;
//! use fgnvm_types::time::Cycle;
//! use fgnvm_types::TimingConfig;
//!
//! let geom = Geometry::builder().sags(4).cds(4).build()?;
//! let timing = TimingConfig::paper_pcm().to_cycles()?;
//! let mut bank = FgnvmBank::new(&geom, timing, Modes::all(), true)?;
//!
//! let read = Access {
//!     op: Op::Read,
//!     row: 42,
//!     line: 0,
//!     coord: TileCoord { sag: geom.sag_of_row(42), cd_first: 0, cd_count: 1 },
//! };
//! let plan = bank.plan(&read, Cycle::ZERO).expect("idle bank");
//! let issued = bank.commit(&read, &plan, Cycle::ZERO, plan.earliest_data);
//! assert_eq!(issued.sense_bits, 2048); // one 256 B slice of the 1 KB row
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod access;
pub mod baseline;
pub mod dram;
pub mod faults;
pub mod fgnvm;
pub mod stats;

pub use access::{Access, AccessPlan, BlockReason, Blocked, Issued, PlanKind};
pub use baseline::BaselineBank;
pub use dram::{DramBank, RefreshCycles};
pub use faults::{FaultModel, FaultOutcome};
pub use fgnvm::{FgnvmBank, Modes, PAUSE_MIN_REMAINING, PAUSE_OVERHEAD};
pub use stats::BankStats;

use fgnvm_types::time::Cycle;

/// Point-in-time snapshot of a bank's internal occupancy windows.
///
/// Exposed so external layers (the `fgnvm-check` conformance oracle, debug
/// dumps) can inspect the FSM without reaching into private state. Vectors
/// are indexed by SAG / CD; monolithic banks report single-element vectors
/// and models without introspection return the empty default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// The row each SAG's wordline currently selects, if any.
    pub open_rows: Vec<Option<u32>>,
    /// Instant each SAG's write lock releases (`ZERO` when unlocked).
    pub sag_locks: Vec<Cycle>,
    /// Instant each CD's sense/drive I/O path becomes free.
    pub cd_io_free: Vec<Cycle>,
    /// Instant every operation committed so far has fully retired.
    pub busy_until: Cycle,
}

/// The two-phase bank protocol spoken by the memory controller.
///
/// See the [`access`] module docs for why planning and committing are
/// separate steps. Implementations must be deterministic: a successful
/// `plan` at cycle `now` must still be valid for a `commit` at the same
/// `now` with any `data_start >= plan.earliest_data`.
pub trait Bank: std::fmt::Debug + Send {
    /// Checks whether `access` can be issued at `now` without mutating any
    /// state.
    ///
    /// A blocked verdict is *stable*: `retry_at` is a lower bound on the
    /// first instant the access could issue, and re-planning at any instant
    /// in `(now, retry_at)` without an intervening `commit` reports the
    /// same `retry_at`, even where a gate opens or closes by the clock
    /// alone (a DRAM refresh window, an FgNVM read that stops qualifying to
    /// pause a nearly finished write). The issue calendar keeps a bank's
    /// verdicts until their retry arrives on the strength of this; the
    /// calendar differential suite checks it against a fresh scan.
    ///
    /// # Errors
    ///
    /// Returns [`Blocked`] naming the busy resource and a retry hint when
    /// the access cannot be issued at `now`.
    fn plan(&self, access: &Access, now: Cycle) -> Result<AccessPlan, Blocked>;

    /// Commits a previously planned access with the controller-arbitrated
    /// data-burst start, updating every internal busy window.
    ///
    /// # Panics
    ///
    /// Panics if `data_start` is earlier than `plan.earliest_data`, or if
    /// `plan` does not correspond to the bank's current state (e.g. it was
    /// produced before another commit at the same cycle).
    fn commit(
        &mut self,
        access: &Access,
        plan: &AccessPlan,
        now: Cycle,
        data_start: Cycle,
    ) -> Issued;

    /// Event counters accumulated so far.
    fn stats(&self) -> &BankStats;

    /// A lower bound on the earliest instant at which *some* access could
    /// become issuable.
    ///
    /// Contract (the fast-forward core and the schedulers rely on it): for
    /// every access `a` and instant `t ≥ now`, if `plan(a, t)` succeeds then
    /// `next_ready_hint(now) ≤ t`. Equivalently the hint never points past
    /// a cycle at which work could issue — in particular, if anything is
    /// issuable at `now` the hint is exactly `now`. A hint *earlier* than
    /// the true next issuable cycle is merely less efficient (the caller
    /// re-polls); a hint later than it would skip real work and is a bug.
    fn next_ready_hint(&self, now: Cycle) -> Cycle;

    /// A plan-equivalence class for `access`: two accesses with equal keys
    /// are guaranteed to receive identical [`plan`](Bank::plan) results at
    /// any one instant and bank state. Callers scanning a queue (the
    /// fast-forward calendar) may therefore plan one representative per
    /// class and reuse its verdict for the rest.
    ///
    /// The default packs the access's full identity — exact for any
    /// deterministic model, deduplicating only true repeats. Models should
    /// coarsen it to what `plan` actually reads (e.g. the FgNVM bank's plan
    /// consults only the op, the tile coordinate, and how the row relates
    /// to the SAG's open and in-flight-write rows); a key that merges
    /// accesses `plan` can tell apart is a correctness bug, caught by the
    /// calendar differential suite.
    fn plan_class(&self, access: &Access) -> u128 {
        u128::from(access.op.is_read())
            | u128::from(access.row) << 1
            | u128::from(access.line) << 33
            | u128::from(access.coord.sag) << 65
            | u128::from(access.coord.cd_first) << 86
            | u128::from(access.coord.cd_count) << 107
    }

    /// True while a write is still programming cells anywhere in the bank.
    /// TLP-aware schedulers use this to avoid stacking writes in one bank
    /// (each in-flight write locks a whole column division and subarray
    /// group). The default is pessimistically `false` for models that do
    /// not track it.
    fn write_in_progress(&self, now: Cycle) -> bool {
        let _ = now;
        false
    }

    /// A snapshot of the bank's occupancy windows for external inspection.
    /// Models without introspection return the empty default; both NVM FSMs
    /// override this with their real per-SAG/per-CD state.
    fn occupancy(&self) -> OccupancySnapshot {
        OccupancySnapshot::default()
    }

    /// Serialize every piece of mutable FSM state into a checkpoint.
    ///
    /// Structural parameters (timing, geometry, fault hash seeds) are *not*
    /// written — restore rebuilds the bank from configuration and overlays
    /// this state. Together with [`Bank::load_state`] the round trip must be
    /// exact: a restored bank behaves bit-identically to the original from
    /// the checkpoint cycle onward.
    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter);

    /// Restore mutable FSM state written by [`Bank::save_state`] into a
    /// freshly constructed bank of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) when the
    /// checkpoint is truncated, corrupt, or was written by a different bank
    /// model.
    fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_trait_is_object_safe() {
        fn _takes_dyn(_: &dyn Bank) {}
    }
}
