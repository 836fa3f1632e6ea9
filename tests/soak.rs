//! Soak test: every optional layer enabled at once.
//!
//! Feature-interaction bugs hide where unit tests do not look — wear
//! leveling injecting gap-copy traffic while write pausing preempts
//! writes while the sampler and command log observe it all. This test
//! turns everything on simultaneously, runs a mixed workload, and checks
//! the cross-layer invariants that must survive the interactions.

use fgnvm_check::Oracle;
use fgnvm_cpu::{Core, CoreConfig};
use fgnvm_mem::MemorySystem;
use fgnvm_types::config::SystemConfig;
use fgnvm_types::request::Op;
use fgnvm_types::{Geometry, PhysAddr};
use fgnvm_workloads::profile;

#[test]
fn all_optional_layers_coexist() {
    let config = SystemConfig::fgnvm_with_pausing(8, 8).unwrap();
    let mut memory = MemorySystem::new(config).unwrap();
    memory.enable_wear_tracking();
    memory.enable_start_gap(32).unwrap();
    memory.enable_sampling(256);
    memory.enable_command_log(1 << 20);

    // Seed a few known data values through the functional path.
    let probes: Vec<(PhysAddr, [u8; 8])> = (0..8u64)
        .map(|i| (PhysAddr::new(i * 4096), [i as u8 + 1; 8]))
        .collect();
    for (addr, data) in &probes {
        memory
            .enqueue_write_data(*addr, data)
            .expect("queue has room");
    }
    memory.run_until_idle(1_000_000);

    // A write-heavy workload drives all layers at once. The seed comes
    // from the workspace-wide derivation helper so a failure names the
    // exact replay recipe instead of a magic constant.
    let seed = fgnvm_check::derive_seed("soak::all_optional_layers_coexist", 0);
    let trace = profile("lbm_like")
        .unwrap()
        .generate(Geometry::default(), seed, 6000);
    let core = Core::new(CoreConfig::nehalem_like()).unwrap();
    let result = core.run(&trace, &mut memory);
    assert!(result.ipc() > 0.0, "zero IPC on lbm_like (seed {seed})");

    let stats = memory.stats().clone();
    let banks = memory.bank_stats();

    // 1. Wear accounting is conserved: the tracker records every accepted
    //    write (merges included — they wear the queue entry's row once)
    //    plus Start-Gap's own copy writes, which also flow through the
    //    banks.
    let wear = memory.wear().expect("tracking enabled");
    assert_eq!(
        wear.total_writes(),
        banks.writes + stats.merged_writes,
        "wear tracker disagrees with array + merged writes"
    );
    assert!(memory.start_gap_rotations().unwrap() > 0, "gap never moved");

    // 2. Energy is exactly the modeled constants times the bit counters.
    let energy = memory.energy();
    let expected_sense = banks.sensed_bits as f64 * config.energy.read_pj_per_bit;
    let expected_write = banks.written_bits as f64 * config.energy.write_pj_per_bit;
    assert!(
        (energy.sense_pj - expected_sense).abs() < 1e-6,
        "sense energy drifted"
    );
    assert!(
        (energy.write_pj - expected_write).abs() < 1e-6,
        "write energy drifted"
    );
    assert!(energy.background_pj > 0.0);

    // 3. Samples are monotonic and end at the final totals.
    let samples = memory.samples();
    assert!(samples.len() > 2, "sampler took too few samples");
    for pair in samples.windows(2) {
        assert!(pair[1].at > pair[0].at);
        assert!(pair[1].completed_reads >= pair[0].completed_reads);
        assert!(pair[1].sensed_bits >= pair[0].sensed_bits);
        assert!(pair[1].written_bits >= pair[0].written_bits);
    }
    let last = samples.last().unwrap();
    assert!(last.completed_reads <= stats.completed_reads);
    assert!(last.sensed_bits <= banks.sensed_bits);

    // 4. The command log passes the protocol audit — including the
    //    Start-Gap copy traffic and paused writes.
    let report = Oracle::new(&config).unwrap().audit(memory.command_log(0));
    assert!(report.is_clean(), "{report}");
    assert!(report.commands > 1000, "log captured too little");

    // 5. Functional data survived everything: the probe writes are still
    //    readable (the workload's addresses are line-aligned too, but the
    //    probes pin specific known values).
    for (addr, _) in &probes {
        // Overwritten by the trace is possible only if the trace touched
        // the same line; either way peek must not panic and the store
        // must answer.
        let mut buf = [0u8; 8];
        memory.peek(*addr, &mut buf);
    }
    // Re-write and re-read one probe with traffic drained: exact value.
    memory
        .enqueue_write_data(PhysAddr::new(1 << 28), &[0xAB; 16])
        .unwrap();
    memory.run_until_idle(1_000_000);
    let mut buf = [0u8; 16];
    memory.peek(PhysAddr::new(1 << 28), &mut buf);
    assert_eq!(buf, [0xAB; 16]);

    // 6. Pausing actually happened under this write-heavy load, proving
    //    the layer was active while everything else ran.
    assert!(banks.write_pauses > 0, "no write was ever paused");
}

#[test]
fn soak_on_dram_with_closed_page() {
    // The DRAM flavor of the same idea: refresh + tFAW + closed page +
    // sampling + command log together.
    let mut config = SystemConfig::dram();
    config.row_policy = fgnvm_types::config::RowPolicy::Closed;
    let mut memory = MemorySystem::new(config).unwrap();
    memory.enable_sampling(512);
    memory.enable_command_log(1 << 20);
    let seed = fgnvm_check::derive_seed("soak::soak_on_dram_with_closed_page", 0);
    let trace = profile("omnetpp_like")
        .unwrap()
        .generate(Geometry::default(), seed, 4000);
    let core = Core::new(CoreConfig::nehalem_like()).unwrap();
    let result = core.run(&trace, &mut memory);
    assert!(result.ipc() > 0.0, "zero IPC on omnetpp_like (seed {seed})");
    // Closed page means zero row hits, by construction.
    assert_eq!(
        memory.bank_stats().row_hits,
        0,
        "row hits on closed page (seed {seed})"
    );
    let report = Oracle::new(&config).unwrap().audit(memory.command_log(0));
    assert!(report.is_clean(), "(seed {seed}) {report}");
}

#[test]
fn soak_survives_queue_pressure_bursts() {
    // Hammer the enqueue interface far past queue capacity: rejected
    // requests must never corrupt accounting.
    let config = SystemConfig::fgnvm(8, 2).unwrap();
    let mut memory = MemorySystem::new(config).unwrap();
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut completed: Vec<fgnvm_types::request::Completion> = Vec::new();
    for i in 0..4000u64 {
        let op = if i % 3 == 0 { Op::Write } else { Op::Read };
        match memory.enqueue(op, PhysAddr::new(i * 64)) {
            Some(_) => accepted += 1,
            None => rejected += 1,
        }
        if i % 7 == 0 {
            memory.tick_into(&mut completed);
        }
    }
    completed.extend(memory.run_until_idle(10_000_000));
    assert!(rejected > 0, "pressure never hit the queue limits");
    assert_eq!(
        completed.len() as u64,
        accepted,
        "every accepted request completes exactly once"
    );
    // No duplicate completions.
    let mut ids: Vec<u64> = completed.iter().map(|c| c.id.raw()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, accepted);
}
