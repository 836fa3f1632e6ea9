//! Auditing the simulator against its own device protocol.
//!
//! The controller's plan/commit split *should* make illegal command
//! sequences unrepresentable. This example shows how to verify that from
//! the outside: capture the command log of a real run, audit it with
//! [`fgnvm_check::Oracle`] (which re-derives the rules independently from
//! the configuration), and then corrupt a log by hand to see what a
//! violation report looks like.
//!
//! ```text
//! cargo run -p fgnvm-sim --release --example protocol_audit
//! ```

use fgnvm_bank::PlanKind;
use fgnvm_check::Oracle;
use fgnvm_mem::{CommandLog, CommandRecord, MemorySystem};
use fgnvm_types::address::TileCoord;
use fgnvm_types::config::SystemConfig;
use fgnvm_types::request::{Op, RequestId};
use fgnvm_types::time::Cycle;
use fgnvm_types::Geometry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A real run: a write-heavy workload on FgNVM 8x8, command log on.
    let config = SystemConfig::fgnvm(8, 8)?;
    let trace = fgnvm_workloads::profile("lbm_like")
        .expect("known profile")
        .generate(Geometry::default(), 11, 4000);
    let core = fgnvm_cpu::Core::new(fgnvm_cpu::CoreConfig::nehalem_like())?;
    let mut memory = MemorySystem::new(config)?;
    memory.enable_command_log(1 << 20);
    core.run(&trace, &mut memory);

    let oracle = Oracle::new(&config)?;
    let report = oracle.audit(memory.command_log(0));
    println!("real run, channel 0:");
    println!("  {report}\n");
    assert!(report.is_clean(), "the simulator broke its own protocol");

    // 2. What the oracle catches: hand-build a log where a read lands in
    // the SAG a write is still programming — the exact hazard
    // Backgrounded Writes (§4) must prevent.
    let record =
        |at: u64, op: Op, kind: PlanKind, row: u32, sag: u32, cd: u32, data: u64| CommandRecord {
            at: Cycle::new(at),
            id: RequestId::new(at),
            op,
            kind,
            bank_index: 0,
            row,
            coord: TileCoord {
                sag,
                cd_first: cd,
                cd_count: 1,
            },
            data_start: Cycle::new(data),
            retries: 0,
        };
    let log_of = |records: &[CommandRecord]| {
        let mut log = CommandLog::new();
        log.enable(16);
        for r in records {
            log.push(*r);
        }
        log
    };
    // Write into SAG 2, CD 0: data 13..17, SAG locked until
    // 17 + tWP + tWR = 80.
    let write = record(0, Op::Write, PlanKind::Write, 40, 2, 0, 13);
    // A read activation in the SAME SAG at cycle 20 — mid-programming.
    let same_sag = record(20, Op::Read, PlanKind::Activate, 41, 2, 0, 68);
    // And one in a different SAG and CD — legal under Backgrounded Writes.
    let other_sag = record(24, Op::Read, PlanKind::Activate, 99, 5, 1, 72);

    let report = oracle.audit(&log_of(&[write, same_sag, other_sag]));
    println!("hand-corrupted log (read inside a write's SAG):");
    println!("  {report}");
    assert!(!report.is_clean(), "the same-SAG read must be flagged");
    let legal = oracle.audit(&log_of(&[write, other_sag]));
    assert!(
        legal.is_clean(),
        "only the same-SAG read is illegal: {legal}"
    );
    Ok(())
}
