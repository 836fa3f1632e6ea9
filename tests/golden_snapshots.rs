//! Golden-snapshot tier: the paper artifacts and every study, pinned
//! byte-for-byte.
//!
//! Every snapshot in [`fgnvm_sim::golden::snapshots`] is regenerated with
//! the fixed golden parameters and compared against `tests/goldens/`. A
//! mismatch is a behavior change; intentional ones are blessed with
//! `FGNVM_BLESS=1 cargo test -p fgnvm-sim --test golden_snapshots` and
//! reviewed via `git diff tests/goldens/`. See TESTING.md.

use fgnvm_sim::golden::{golden_params, snapshot, snapshots, verify, PAPER_SNAPSHOTS};

#[test]
fn paper_artifacts_match_their_goldens() {
    let mut failures = Vec::new();
    for name in PAPER_SNAPSHOTS {
        let actual = snapshot(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            actual.lines().count() > 1,
            "{name}: snapshot degenerated to {} line(s)",
            actual.lines().count()
        );
        if let Err(e) = verify(name, &actual) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// Every registered study renders a non-empty table in all four output
/// formats, and its CSV matches `tests/goldens/<command>.csv`. The studies
/// share one sweep pool (their own sweeps run inline on its workers),
/// dealt last-first so the serve-driven horizon sweep, the longest, starts
/// at once.
#[test]
fn every_study_matches_its_golden_and_renders() {
    let params = golden_params();
    let order: Vec<_> = fgnvm_sim::STUDIES.iter().rev().collect();
    let studies = fgnvm_sim::run_jobs(&order, |_, (name, run)| {
        run(&params).unwrap_or_else(|e| panic!("{name}: {e}"))
    });
    let mut failures = Vec::new();
    for ((name, _), study) in order.into_iter().zip(studies) {
        let table = study.to_table();
        assert!(table.row_count() > 0, "{name}: {} is empty", table.title());
        for rendered in [table.render(), table.to_markdown(), table.to_json()] {
            assert!(rendered.contains(table.title()), "{name}: no title");
        }
        if let Err(e) = verify(name, &table.to_csv()) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The goldens directory must not accumulate orphans: every checked-in
/// file corresponds to a registered snapshot.
#[test]
fn no_orphaned_golden_files() {
    let dir = fgnvm_sim::golden::golden_dir();
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        // Directory absent only before the very first bless.
        Err(_) => return,
    };
    for entry in entries {
        let name = entry.expect("readable entry").file_name();
        let name = name.to_string_lossy();
        let stem = name.strip_suffix(".csv");
        assert!(
            stem.is_some_and(|s| snapshots().any(|known| known == s)),
            "{} is not a registered snapshot; remove it or register it",
            dir.join(name.as_ref()).display()
        );
    }
}
