//! Per-layer metrics derived from the simulator's own counters: the
//! scheduler's issue audit, the banks, and the stall attribution.

use fgnvm_bank::BankStats;
use fgnvm_obs::{AuditLog, BlockGate, ClassTotals, StallCause};

use crate::metrics::frac;

/// Scheduler metrics summed over audit logs covering `cycles` cycles.
pub fn sched_metrics(logs: &[&AuditLog], cycles: u64) -> Vec<(&'static str, f64)> {
    let total = |f: fn(&AuditLog) -> u64| logs.iter().map(|l| f(l)).sum::<u64>() as f64;
    let issues = total(|l| l.issues);
    let rejects = total(|l| l.blocked.iter().sum());
    let gate = |g: BlockGate| logs.iter().map(|l| l.blocked[g as usize]).sum::<u64>() as f64;
    vec![
        (
            "sched.candidates_per_issue",
            frac(total(|l| l.considered_total), issues),
        ),
        ("sched.rejects_per_issue", frac(rejects, issues)),
        (
            "sched.reject.cd_busy_frac",
            frac(gate(BlockGate::CdBusy), rejects),
        ),
        (
            "sched.reject.sag_busy_frac",
            frac(gate(BlockGate::SagBusy), rejects),
        ),
        ("sched.issue_rate", frac(issues, cycles as f64)),
        (
            "sched.opportunity_per_issue",
            frac(total(|l| l.opportunity_total), issues),
        ),
    ]
}

/// Bank metrics from aggregated bank counters.
pub fn bank_metrics(b: &BankStats) -> Vec<(&'static str, f64)> {
    let reads = b.reads as f64;
    vec![
        ("bank.row_hit_rate", frac(b.row_hits as f64, reads)),
        (
            "bank.overlap_frac",
            frac(b.overlapped_accesses as f64, (b.reads + b.writes) as f64),
        ),
        (
            "bank.reads_under_write_frac",
            frac(b.reads_under_write as f64, reads),
        ),
        ("bank.underfetch_frac", frac(b.underfetches as f64, reads)),
        (
            "bank.sensed_bits_per_read",
            frac(b.sensed_bits as f64, reads),
        ),
    ]
}

/// Stall-attribution shares: each cause's cycles over the summed
/// lifetime of every attributed request. The shares sum to 1.
pub fn attr_metrics(classes: &[ClassTotals]) -> Vec<(&'static str, f64)> {
    let lifetime: u64 = classes.iter().map(|c| c.total).sum();
    let share = |cause: StallCause| {
        let cycles: u64 = classes.iter().map(|c| c.cycles[cause as usize]).sum();
        frac(cycles as f64, lifetime as f64)
    };
    vec![
        ("attr.queue_wait_frac", share(StallCause::QueueWait)),
        ("attr.sag_conflict_frac", share(StallCause::SagConflict)),
        ("attr.cd_conflict_frac", share(StallCause::CdConflict)),
        ("attr.global_io_frac", share(StallCause::GlobalIo)),
        ("attr.tfaw_window_frac", share(StallCause::TfawWindow)),
        ("attr.write_block_frac", share(StallCause::WriteBlock)),
        ("attr.verify_retry_frac", share(StallCause::VerifyRetry)),
        (
            "attr.underfetch_resense_frac",
            share(StallCause::UnderfetchResense),
        ),
        ("attr.ctrl_overhead_frac", share(StallCause::CtrlOverhead)),
        ("attr.service_frac", share(StallCause::Service)),
    ]
}
