//! Checkpoint/restore differential: resume(checkpoint(t)) must be
//! bit-identical to an uninterrupted run, for every preset and every
//! `configs/*.cfg` file, in both stepping modes, at arbitrary kill
//! cycles.
//!
//! The equality demanded is the strongest available: the FNV-1a 64
//! digest of the *entire* end-of-run snapshot (stats, queues, bank FSMs,
//! fault/wear tables, command logs, observer spans/heatmap/attribution).
//! Two equal digests mean no counter anywhere in the simulator diverged.
//!
//! Also covered here: hostile checkpoint bytes (truncated, flipped,
//! config-mismatched) must decode to structured errors — never panic —
//! and a resumed serve run must not trip a spurious watchdog.

use std::path::PathBuf;

use fgnvm_mem::MemorySystem;
use fgnvm_sim::{AdmissionPolicy, ServeConfig};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::{fnv1a64, splitmix64, Completion, Cycle, Op, PhysAddr, SimError};

/// Every built-in preset plus every parameter file shipped in `configs/`
/// (including the faulty one, so the fault/remap/wear tables are
/// exercised through the checkpoint).
fn all_configs() -> Vec<(String, SystemConfig)> {
    let mut configs = vec![
        ("baseline".to_string(), SystemConfig::baseline()),
        ("fgnvm-8x2".to_string(), SystemConfig::fgnvm(8, 2).unwrap()),
        (
            "multi-issue-8x4".to_string(),
            SystemConfig::fgnvm_multi_issue(8, 4, 2).unwrap(),
        ),
        (
            "pausing-8x8".to_string(),
            SystemConfig::fgnvm_with_pausing(8, 8).unwrap(),
        ),
        ("dram".to_string(), SystemConfig::dram()),
    ];
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../configs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("configs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cfg"))
        .collect();
    files.sort();
    assert!(
        files
            .iter()
            .any(|p| p.file_name().is_some_and(|n| n == "fgnvm_8x2_faulty.cfg")),
        "the faulty preset must be part of the sweep"
    );
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable cfg");
        let config = fgnvm_types::parse_system_config(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        configs.push((
            path.file_stem().unwrap().to_string_lossy().into_owned(),
            config,
        ));
    }
    configs
}

/// Drives `ops` deterministic mixed requests, optionally crashing
/// (snapshot → drop → restore) when the clock first crosses
/// `kill_cycle`, and returns the digest of the final full snapshot.
fn run_digest(config: SystemConfig, fast_forward: bool, mut kill_cycle: Option<u64>) -> u64 {
    let mut mem = MemorySystem::new(config).expect("config admissible");
    mem.set_fast_forward(fast_forward);
    mem.enable_observer();
    // Small telemetry windows and a tiny flight ring, so the digest also
    // covers the time-series engine (boundary rolls, retention eviction)
    // and flight-recorder state across the crash.
    mem.enable_telemetry(256, 8, 32);
    mem.enable_command_log(1 << 16);
    // The issue-audit log rides the observer's snapshot section, so the
    // digest also proves the decision stream survives kill/resume.
    mem.enable_audit();
    let line_bytes = u64::from(config.geometry.line_bytes());
    let lines = config.geometry.capacity_bytes() / line_bytes;
    let mut completions: Vec<Completion> = Vec::new();
    let mut state = 0xfeed_f00d_u64;
    // The trace is a pure function of the seed.
    let mut next = move || splitmix64(&mut state);
    for _ in 0..96 {
        let op = if next() % 3 == 0 { Op::Write } else { Op::Read };
        let line = next() % lines.clamp(1, 512);
        let _ = mem.enqueue(op, PhysAddr::new(line * line_bytes));
        let gap = next() % 120;
        if gap > 0 {
            let target = Cycle::new(mem.now().raw() + gap);
            advance(&mut mem, target, &mut completions, &mut kill_cycle);
        }
    }
    if kill_cycle.is_some() {
        crash_restore(&mut mem);
    }
    while !mem.is_idle() {
        let target = Cycle::new(mem.now().raw() + 4096);
        mem.tick_to(target, &mut completions);
    }
    // The stepping-mode flag is itself part of the snapshot; pin it so
    // digests compare the *state* across modes, not the knob setting.
    mem.set_fast_forward(true);
    fnv1a64(&mem.save_snapshot())
}

fn advance(
    mem: &mut MemorySystem,
    target: Cycle,
    completions: &mut Vec<Completion>,
    kill: &mut Option<u64>,
) {
    if let Some(k) = *kill {
        if mem.now().raw() <= k && target.raw() >= k {
            if mem.now().raw() < k {
                mem.tick_to(Cycle::new(k), completions);
            }
            crash_restore(mem);
            *kill = None;
        }
    }
    if mem.now() < target {
        mem.tick_to(target, completions);
    }
}

fn crash_restore(mem: &mut MemorySystem) {
    let blob = mem.save_snapshot();
    let config = *mem.config();
    *mem = MemorySystem::restore(config, &blob).expect("own snapshot restores");
}

#[test]
fn resume_is_bit_identical_for_every_config_and_stepping_mode() {
    for (name, config) in all_configs() {
        for fast_forward in [false, true] {
            let straight = run_digest(config, fast_forward, None);
            // Kill early, mid-run, and past the end (the pre-drain crash).
            for kill in [1, 700, 5_000, u64::MAX] {
                let resumed = run_digest(config, fast_forward, Some(kill));
                assert_eq!(
                    resumed, straight,
                    "{name} (fast_forward={fast_forward}): state diverged after \
                     kill/resume at cycle {kill}"
                );
            }
        }
    }
}

#[test]
fn stepped_and_fast_forwarded_checkpoints_agree() {
    // The two stepping modes end in the same logical state, so their
    // digests must match each other too — checkpointing must not leak
    // stepping-mode artifacts into the snapshot.
    for (name, config) in all_configs() {
        let stepped = run_digest(config, false, Some(1_000));
        let hopped = run_digest(config, true, Some(1_000));
        assert_eq!(
            stepped, hopped,
            "{name}: stepping mode leaked into the snapshot"
        );
    }
}

/// Drives the same deterministic request mix as [`run_digest`] (no crash)
/// and returns the audit aggregate as JSON.
fn run_audit_json(config: SystemConfig, fast_forward: bool) -> String {
    let mut mem = MemorySystem::new(config).expect("config admissible");
    mem.set_fast_forward(fast_forward);
    mem.enable_audit();
    let line_bytes = u64::from(config.geometry.line_bytes());
    let lines = config.geometry.capacity_bytes() / line_bytes;
    let mut completions: Vec<Completion> = Vec::new();
    let mut state = 0xfeed_f00d_u64;
    let mut next = move || splitmix64(&mut state);
    for _ in 0..96 {
        let op = if next() % 3 == 0 { Op::Write } else { Op::Read };
        let line = next() % lines.clamp(1, 512);
        let _ = mem.enqueue(op, PhysAddr::new(line * line_bytes));
        let gap = next() % 120;
        if gap > 0 {
            mem.tick_to(Cycle::new(mem.now().raw() + gap), &mut completions);
        }
    }
    while !mem.is_idle() {
        let target = Cycle::new(mem.now().raw() + 4096);
        mem.tick_to(target, &mut completions);
    }
    mem.observer()
        .and_then(|o| o.audit())
        .expect("audit enabled above")
        .to_json()
}

#[test]
fn audit_stream_is_identical_stepped_vs_fast_forwarded() {
    // Decision records are generated only at command-issue time, and the
    // two stepping modes issue the same commands at the same cycles — so
    // the audited candidate sets, block gates, and co-issue opportunities
    // must agree exactly, not just statistically.
    for (name, config) in all_configs() {
        let stepped = run_audit_json(config, false);
        let hopped = run_audit_json(config, true);
        assert_eq!(
            stepped, hopped,
            "{name}: audit stream diverged across stepping modes"
        );
        assert!(
            stepped.contains("\"issues\":"),
            "{name}: audit produced no aggregate"
        );
    }
}

#[test]
fn hostile_checkpoint_bytes_yield_structured_errors() {
    let config = SystemConfig::fgnvm(8, 2).unwrap();
    let mut mem = MemorySystem::new(config).unwrap();
    mem.enable_observer();
    let mut completions = Vec::new();
    for i in 0..24u64 {
        let op = if i % 3 == 0 { Op::Write } else { Op::Read };
        let _ = mem.enqueue(op, PhysAddr::new(i * 64));
        mem.tick_to(Cycle::new(mem.now().raw() + 40), &mut completions);
    }
    let blob = mem.save_snapshot();
    // Truncation at every interesting boundary.
    for cut in [0, 4, 9, blob.len() / 3, blob.len() / 2, blob.len() - 1] {
        let err = MemorySystem::restore(config, &blob[..cut]);
        assert!(
            matches!(err, Err(SimError::Snapshot(_))),
            "truncation at {cut} did not yield a snapshot error"
        );
    }
    // A flipped byte must fail the checksum or a structural check.
    for at in [16, blob.len() / 2, blob.len() - 2] {
        let mut bad = blob.clone();
        bad[at] ^= 0x55;
        assert!(
            MemorySystem::restore(config, &bad).is_err(),
            "bit flip at {at} went undetected"
        );
    }
    // A different configuration must be refused by the fingerprint.
    let other = SystemConfig::fgnvm(4, 4).unwrap();
    assert!(matches!(
        MemorySystem::restore(other, &blob),
        Err(SimError::Snapshot(_))
    ));
    // And the pristine blob still restores.
    assert!(MemorySystem::restore(config, &blob).is_ok());
}

#[test]
fn resumed_serve_run_never_trips_a_spurious_watchdog() {
    // A long quiet gap sits right after the checkpoint boundary: if the
    // watchdog's progress marker were reset to the restore cycle (or to
    // zero) instead of being carried verbatim, the resumed leg would
    // mis-measure the stall window and could trip where the
    // uninterrupted run does not.
    let config = SystemConfig::fgnvm(8, 2).unwrap();
    let dir = std::env::temp_dir().join("fgnvm-watchdog-resume-test");
    let _ = std::fs::remove_dir_all(&dir);
    let sc = ServeConfig {
        horizon: 30_000,
        ops: 200,
        seed: 23,
        checkpoint_every: 2_000,
        checkpoint_dir: Some(dir.clone()),
        policy: AdmissionPolicy::Reject,
        backoff_base: 8,
        backoff_max: 256,
        // Tight watchdog: well under the horizon, above any real stall.
        watchdog_cycles: 20_000,
        ..ServeConfig::default()
    };
    let full = fgnvm_sim::serve(config, &sc).expect("uninterrupted run passes its watchdog");
    let mut ckpts: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoints written")
        .map(|e| e.unwrap().path())
        .collect();
    ckpts.sort();
    assert!(!ckpts.is_empty(), "serve must have checkpointed");
    // Resume from EVERY checkpoint; each leg must finish cleanly and
    // land on the same final metrics.
    for ckpt in &ckpts {
        let resumed = fgnvm_sim::resume(config, ckpt, &sc)
            .unwrap_or_else(|e| panic!("resume from {} tripped: {e}", ckpt.display()));
        assert_eq!(
            resumed.metrics_json,
            full.metrics_json,
            "resume from {} diverged",
            ckpt.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_tenant_serve_resumes_bit_identically_from_every_checkpoint() {
    // The multi-tenant analogue of the serve differentials: with three
    // tenant streams (Poisson, bursty MMPP, zero-rate) feeding the run,
    // a resume from EVERY checkpoint must reproduce the per-tenant
    // telemetry JSONL as an exact byte-suffix, land on byte-identical
    // final metrics (which carry the serve.tenant.* and mem.tenant.*
    // counters), and report identical per-tenant SLO burn — proving the
    // tenant streams, per-tenant stats tables, and window slices all
    // ride the snapshot exactly.
    let config = SystemConfig::fgnvm(8, 2).unwrap();
    let dir = std::env::temp_dir().join("fgnvm-tenant-resume-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tenants = fgnvm_workloads::parse_tenants(
        "alpha:poisson:gap=60:slo=700,beta:mmpp:calm=200:burst=15:dwell-calm=3000:dwell-burst=900,idle:off",
    )
    .expect("valid tenant spec");
    let sc = ServeConfig {
        horizon: 30_000,
        ops: 400,
        seed: 31,
        checkpoint_every: 1_000,
        checkpoint_dir: Some(dir.clone()),
        policy: AdmissionPolicy::Reject,
        backoff_base: 8,
        backoff_max: 256,
        telemetry_window: 800,
        telemetry_out: Some(dir.join("ref.jsonl")),
        tenants,
        ..ServeConfig::default()
    };
    let full = fgnvm_sim::serve(config, &sc).expect("reference run");
    assert!(full.windows_emitted >= 4, "{}", full.windows_emitted);
    assert_eq!(full.tenants.len(), 3);
    assert!(full.tenants[0].completions > 0 && full.tenants[1].completions > 0);
    assert_eq!(
        full.tenants[2].admitted, 0,
        "the zero-rate tenant must stay silent"
    );
    assert!(
        full.tenants[0].slo_windows > 0,
        "windows closed, so the SLO-carrying tenant must have been judged"
    );
    let ref_stream = std::fs::read_to_string(dir.join("ref.jsonl")).expect("stream");
    assert!(
        ref_stream.contains("\"tenants\":[{\"tenant\":0,"),
        "window records must carry per-tenant slices"
    );
    let mut ckpts: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoints written")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    ckpts.sort();
    assert!(ckpts.len() >= 3, "expected several checkpoints");
    for ckpt in &ckpts {
        let stem = ckpt.file_stem().unwrap().to_string_lossy().into_owned();
        let mut sc_res = sc.clone();
        sc_res.telemetry_out = Some(dir.join(format!("{stem}.jsonl")));
        let resumed = fgnvm_sim::resume(config, ckpt, &sc_res)
            .unwrap_or_else(|e| panic!("resume from {} failed: {e}", ckpt.display()));
        assert_eq!(
            resumed.metrics_json,
            full.metrics_json,
            "resume from {}: final metrics diverged",
            ckpt.display()
        );
        for (r, f) in resumed.tenants.iter().zip(&full.tenants) {
            assert_eq!(r.admitted, f.admitted, "{}: {}", ckpt.display(), r.name);
            assert_eq!(
                r.completions,
                f.completions,
                "{}: {}",
                ckpt.display(),
                r.name
            );
            assert_eq!(r.rejected, f.rejected, "{}: {}", ckpt.display(), r.name);
            assert_eq!(r.retried, f.retried, "{}: {}", ckpt.display(), r.name);
            assert_eq!(r.read_p99, f.read_p99, "{}: {}", ckpt.display(), r.name);
            assert_eq!(
                r.slo_windows,
                f.slo_windows,
                "{}: {}",
                ckpt.display(),
                r.name
            );
            assert_eq!(
                r.slo_violations,
                f.slo_violations,
                "{}: {}",
                ckpt.display(),
                r.name
            );
        }
        let res_stream =
            std::fs::read_to_string(dir.join(format!("{stem}.jsonl"))).expect("stream");
        assert!(
            ref_stream.ends_with(&res_stream),
            "resume from {} did not reproduce the per-tenant window stream as a byte-suffix",
            ckpt.display()
        );
    }
    // A tenant-count mismatch between checkpoint and config must be a
    // structured error, not silent misaccounting.
    let mut sc_bad = sc.clone();
    sc_bad.tenants.pop();
    assert!(
        fgnvm_sim::resume(config, &ckpts[0], &sc_bad).is_err(),
        "resuming with a different tenant list must be refused"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_stream_and_flight_dump_survive_resume_from_every_checkpoint() {
    // The continuous-telemetry analogue of the digest tests: the JSONL
    // window stream a resumed leg emits must be an exact byte-suffix of
    // the uninterrupted run's stream (the windows before the checkpoint
    // were already on disk when the "crash" happened), and the final
    // flight-recorder dump must be byte-identical — for EVERY checkpoint
    // the run wrote.
    let config = SystemConfig::fgnvm(8, 2).unwrap();
    let dir = std::env::temp_dir().join("fgnvm-telemetry-resume-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sc = ServeConfig {
        horizon: 30_000,
        ops: 400,
        seed: 29,
        checkpoint_every: 1_000,
        checkpoint_dir: Some(dir.clone()),
        policy: AdmissionPolicy::Reject,
        backoff_base: 8,
        backoff_max: 256,
        telemetry_window: 800,
        telemetry_out: Some(dir.join("ref.jsonl")),
        dump_flight: Some(dir.join("ref-flight.json")),
        audit: true,
        ..ServeConfig::default()
    };
    let full = fgnvm_sim::serve(config, &sc).expect("reference run");
    assert!(full.windows_emitted >= 4, "{}", full.windows_emitted);
    let ref_stream = std::fs::read_to_string(dir.join("ref.jsonl")).expect("stream");
    assert!(
        ref_stream.contains("\"opportunity\":"),
        "audited serve must put the per-window co-issue opportunity in the stream"
    );
    let ref_flight = std::fs::read(dir.join("ref-flight.json")).expect("flight dump");
    let mut ckpts: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoints written")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    ckpts.sort();
    assert!(ckpts.len() >= 3, "expected several checkpoints");
    for ckpt in &ckpts {
        let stem = ckpt.file_stem().unwrap().to_string_lossy().into_owned();
        let mut sc_res = sc.clone();
        sc_res.telemetry_out = Some(dir.join(format!("{stem}.jsonl")));
        sc_res.dump_flight = Some(dir.join(format!("{stem}-flight.json")));
        let resumed = fgnvm_sim::resume(config, ckpt, &sc_res)
            .unwrap_or_else(|e| panic!("resume from {} failed: {e}", ckpt.display()));
        assert_eq!(resumed.windows_emitted, full.windows_emitted);
        let res_stream =
            std::fs::read_to_string(dir.join(format!("{stem}.jsonl"))).expect("stream");
        assert!(
            ref_stream.ends_with(&res_stream),
            "resume from {} did not reproduce the window stream as a byte-suffix",
            ckpt.display()
        );
        let prefix = ref_stream.len() - res_stream.len();
        assert!(
            prefix == 0 || ref_stream.as_bytes()[prefix - 1] == b'\n',
            "resume from {}: suffix split mid-line",
            ckpt.display()
        );
        let res_flight =
            std::fs::read(dir.join(format!("{stem}-flight.json"))).expect("flight dump");
        assert_eq!(
            res_flight,
            ref_flight,
            "resume from {}: flight ring diverged",
            ckpt.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
