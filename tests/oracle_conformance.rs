//! Cross-crate oracle tier: every shipped configuration, both stepping
//! modes, audited by the independent reference oracle.
//!
//! The crate-level tests in `crates/fgnvm-check/tests/` validate the
//! oracle against presets; this tier closes the loop at the workspace
//! level: the exact artifacts a user runs (`configs/*.cfg`, both
//! fast-forward and cycle-stepped execution) must produce command streams
//! the analytical envelope accepts, and the two stepping modes must
//! produce *identical* streams (the differential guarantee the
//! fast-forward core documents).

use fgnvm_check::{run_and_audit, Oracle};
use fgnvm_mem::MemorySystem;
use fgnvm_types::{Op, PhysAddr, SystemConfig};

fn shipped_configs() -> Vec<(String, SystemConfig)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let mut out = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("configs/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cfg"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable cfg");
        let config = fgnvm_types::parse_system_config(&text)
            .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        out.push((
            path.file_name().unwrap().to_string_lossy().into_owned(),
            config,
        ));
    }
    assert!(out.len() >= 6, "expected the six shipped .cfg files");
    out
}

#[test]
fn check_command_is_clean_on_every_shipped_config() {
    // Mirrors `fgnvm-repro -- check configs/*.cfg` at the ops the CLI uses.
    for (name, config) in shipped_configs() {
        let seed = fgnvm_check::derive_seed("oracle_conformance::check", 0);
        let outcome = run_and_audit(&config, 1200, seed).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            outcome.is_clean(),
            "{name}: {} violation(s) on a real run (seed {seed})",
            outcome.violation_count()
        );
    }
}

/// Fast-forward and cycle stepping must produce identical command streams,
/// and both must satisfy the oracle. Catching a divergence here localizes
/// it to the event core rather than to a scheduler rule.
#[test]
fn stepping_modes_agree_and_both_audit_clean() {
    let seed = fgnvm_check::derive_seed("oracle_conformance::differential", 0);
    for (name, config) in shipped_configs() {
        let mut logs: Vec<Vec<String>> = Vec::new();
        for fast_forward in [false, true] {
            let mut memory = MemorySystem::new(config).expect("valid config");
            memory.set_fast_forward(fast_forward);
            memory.enable_command_log(1 << 18);
            let line = u64::from(config.geometry.line_bytes());
            let lines = config.geometry.capacity_bytes() / line;
            let mut rng = seed;
            for i in 0..600u64 {
                let r = fgnvm_types::splitmix64(&mut rng);
                let op = if r.is_multiple_of(3) {
                    Op::Write
                } else {
                    Op::Read
                };
                memory.enqueue(op, PhysAddr::new((r % lines) * line));
                if i % 7 == 0 {
                    let mut out = Vec::new();
                    memory.tick_into(&mut out);
                }
            }
            memory.try_run_until_idle(200_000).expect("drains");
            let oracle = Oracle::new(&config).expect("oracle builds");
            let mut rendered = Vec::new();
            for channel in 0..config.geometry.channels() {
                let log = memory.command_log(channel);
                let report = oracle.audit(log);
                assert!(
                    report.is_clean(),
                    "{name} (fast_forward={fast_forward}, seed {seed}): {report}"
                );
                rendered.extend(log.records().map(|r| format!("{r:?}")));
            }
            logs.push(rendered);
        }
        assert_eq!(
            logs[0], logs[1],
            "{name}: stepped and fast-forward runs produced different command streams (seed {seed})"
        );
    }
}
