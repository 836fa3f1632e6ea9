//! Golden-snapshot harness for the paper artifacts and every study.
//!
//! The headline outputs — Table 1, Table 2, and the CSV forms of Fig. 4
//! and Fig. 5 — and the CSV of every study in [`STUDIES`] are pinned
//! byte-for-byte under `tests/goldens/<name>.csv`. The experiments are
//! deterministic (fixed seeds, fixed parameters), so any diff is a
//! behavior change: either a bug, or an intentional model change that
//! must be *blessed* explicitly:
//!
//! ```text
//! FGNVM_BLESS=1 cargo test -p fgnvm-sim --test golden_snapshots
//! git diff tests/goldens/        # review what changed, then commit
//! ```
//!
//! The snapshot parameters are deliberately small (quick-tier trace
//! length) so the golden tier stays fast enough for every CI run.

use std::path::PathBuf;

use crate::experiment;
use crate::extensions::{study, STUDIES};
use crate::runner::ExperimentParams;

/// The paper-artifact snapshot names. Each maps to
/// `tests/goldens/<name>.csv`.
pub const PAPER_SNAPSHOTS: [&str; 4] = ["table1", "table2", "fig4", "fig5"];

/// Every snapshot name, in check order: the paper artifacts, then every
/// registered study under its command name.
pub fn snapshots() -> impl Iterator<Item = &'static str> {
    PAPER_SNAPSHOTS
        .into_iter()
        .chain(STUDIES.iter().map(|&(name, _)| name))
}

/// The directory holding the checked-in goldens.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens"))
}

/// The fixed parameters every snapshot is produced with. Changing these
/// invalidates the goldens, so they are part of the pinned contract.
pub fn golden_params() -> ExperimentParams {
    ExperimentParams {
        ops: 800,
        ..ExperimentParams::quick()
    }
}

/// Produces the current CSV for snapshot `name`.
///
/// # Errors
///
/// Returns a description for unknown names or failing experiments.
pub fn snapshot(name: &str) -> Result<String, String> {
    let params = golden_params();
    match name {
        "table1" => Ok(experiment::table1().to_csv()),
        "table2" => Ok(experiment::table2().to_csv()),
        "fig4" => Ok(experiment::fig4(&params)
            .map_err(|e| e.to_string())?
            .to_table()
            .to_csv()),
        "fig5" => Ok(experiment::fig5(&params)
            .map_err(|e| e.to_string())?
            .to_table()
            .to_csv()),
        other => {
            let run = study(other).ok_or_else(|| format!("unknown snapshot {other:?}"))?;
            Ok(run(&params).map_err(|e| e.to_string())?.to_table().to_csv())
        }
    }
}

/// Compares `actual` against the checked-in golden for `name`; with
/// `FGNVM_BLESS=1` in the environment, rewrites the golden instead.
///
/// # Errors
///
/// Returns a description of the mismatch (with the first differing line)
/// or of the I/O failure.
pub fn verify(name: &str, actual: &str) -> Result<(), String> {
    let path = golden_dir().join(format!("{name}.csv"));
    if std::env::var("FGNVM_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir())
            .map_err(|e| format!("creating {}: {e}", golden_dir().display()))?;
        std::fs::write(&path, actual).map_err(|e| format!("blessing {}: {e}", path.display()))?;
        return Ok(());
    }
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e}\n(no golden checked in? bless with FGNVM_BLESS=1)",
            path.display()
        )
    })?;
    if expected == actual {
        return Ok(());
    }
    let diff_line = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .map(|i| i + 1)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()) + 1);
    let show = |text: &str| {
        text.lines()
            .nth(diff_line - 1)
            .unwrap_or("<missing>")
            .to_string()
    };
    Err(format!(
        "golden mismatch for {name} at line {diff_line}:\n  golden: {}\n  actual: {}\n\
         If the change is intentional, re-bless: FGNVM_BLESS=1 cargo test -p fgnvm-sim \
         --test golden_snapshots && git diff tests/goldens/",
        show(&expected),
        show(actual)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_are_deterministic() {
        // The pinned-contract precondition: producing a snapshot twice
        // yields identical bytes.
        let a = snapshot("table1").unwrap();
        let b = snapshot("table1").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_snapshot_is_rejected() {
        assert!(snapshot("fig9").is_err());
    }
}
