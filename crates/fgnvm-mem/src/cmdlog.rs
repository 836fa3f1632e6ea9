//! Command logging: a bounded record of every command the controller
//! issues, for debugging, visualization, and sequence assertions in tests
//! (the role of NVMain's trace writers).

use std::collections::VecDeque;

use fgnvm_bank::PlanKind;
use fgnvm_types::address::TileCoord;
use fgnvm_types::request::{Op, RequestId};
use fgnvm_types::time::Cycle;

/// One issued command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRecord {
    /// Cycle the command issued.
    pub at: Cycle,
    /// The request it serves.
    pub id: RequestId,
    /// Read or write.
    pub op: Op,
    /// How the bank served it (hit / activate / underfetch / write).
    pub kind: PlanKind,
    /// Channel-local bank index.
    pub bank_index: usize,
    /// Row targeted.
    pub row: u32,
    /// Tile coordinates (SAG + CD span).
    pub coord: TileCoord,
    /// When the data burst starts.
    pub data_start: Cycle,
    /// Extra write-verify programming pulses this command needed (0 for
    /// reads and for clean first-pulse writes).
    pub retries: u32,
}

impl std::fmt::Display for CommandRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} {:?} ba{} row{} [{}] data@{}",
            self.at, self.op, self.kind, self.bank_index, self.row, self.coord, self.data_start
        )?;
        if self.retries > 0 {
            write!(f, " retries={}", self.retries)?;
        }
        Ok(())
    }
}

/// Bounded ring buffer of issued commands. Disabled (zero-capacity) by
/// default so the hot path pays nothing.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use fgnvm_mem::MemorySystem;
/// use fgnvm_types::config::SystemConfig;
/// use fgnvm_types::request::Op;
/// use fgnvm_types::PhysAddr;
///
/// let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2)?)?;
/// mem.enable_command_log(64);
/// mem.enqueue(Op::Read, PhysAddr::new(0));
/// mem.run_until_idle(10_000);
/// let log = mem.command_log(0);
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.records().next().unwrap().kind, fgnvm_bank::PlanKind::Activate);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CommandLog {
    capacity: usize,
    records: VecDeque<CommandRecord>,
    dropped: u64,
}

impl CommandLog {
    /// Creates a disabled log.
    pub fn new() -> Self {
        CommandLog::default()
    }

    /// Enables logging, keeping the most recent `capacity` commands.
    pub fn enable(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.records.clear();
        self.dropped = 0;
    }

    /// True when logging is active.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, record: CommandRecord) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &CommandRecord> {
        self.records.iter()
    }

    /// Records evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize the log configuration and retained records.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("cmdlog");
        w.usize(self.capacity);
        w.u64(self.dropped);
        w.usize(self.records.len());
        for rec in &self.records {
            w.u64(rec.at.raw());
            w.u64(rec.id.raw());
            w.u8(match rec.op {
                Op::Read => 0,
                Op::Write => 1,
            });
            w.u8(match rec.kind {
                PlanKind::RowHit => 0,
                PlanKind::Activate => 1,
                PlanKind::Underfetch => 2,
                PlanKind::Write => 3,
            });
            w.usize(rec.bank_index);
            w.u32(rec.row);
            w.u32(rec.coord.sag);
            w.u32(rec.coord.cd_first);
            w.u32(rec.coord.cd_count);
            w.u64(rec.data_start.raw());
            w.u32(rec.retries);
        }
    }

    /// Restore a log written by [`CommandLog::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated stream or an unknown op/kind discriminant.
    pub fn load_state(
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<CommandLog, fgnvm_types::SnapshotError> {
        r.tag("cmdlog")?;
        let capacity = r.usize()?;
        let dropped = r.u64()?;
        let n = r.count()?;
        let mut records = VecDeque::with_capacity(n);
        for _ in 0..n {
            let at = Cycle::new(r.u64()?);
            let id = RequestId::new(r.u64()?);
            let op = match r.u8()? {
                0 => Op::Read,
                1 => Op::Write,
                other => {
                    return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                        "unknown op discriminant {other}"
                    )))
                }
            };
            let kind = match r.u8()? {
                0 => PlanKind::RowHit,
                1 => PlanKind::Activate,
                2 => PlanKind::Underfetch,
                3 => PlanKind::Write,
                other => {
                    return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                        "unknown plan-kind discriminant {other}"
                    )))
                }
            };
            let bank_index = r.usize()?;
            let row = r.u32()?;
            let coord = TileCoord {
                sag: r.u32()?,
                cd_first: r.u32()?,
                cd_count: r.u32()?,
            };
            let data_start = Cycle::new(r.u64()?);
            let retries = r.u32()?;
            records.push_back(CommandRecord {
                at,
                id,
                op,
                kind,
                bank_index,
                row,
                coord,
                data_start,
                retries,
            });
        }
        Ok(CommandLog {
            capacity,
            records,
            dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at: u64) -> CommandRecord {
        CommandRecord {
            at: Cycle::new(at),
            id: RequestId::new(at),
            op: Op::Read,
            kind: PlanKind::Activate,
            bank_index: 0,
            row: 1,
            coord: TileCoord {
                sag: 0,
                cd_first: 0,
                cd_count: 1,
            },
            data_start: Cycle::new(at + 48),
            retries: 0,
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = CommandLog::new();
        log.push(record(0));
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut log = CommandLog::new();
        log.enable(2);
        for t in 0..5 {
            log.push(record(t));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let ats: Vec<u64> = log.records().map(|r| r.at.raw()).collect();
        assert_eq!(ats, vec![3, 4]);
    }

    #[test]
    fn display_is_informative() {
        let s = record(7).to_string();
        assert!(s.contains("cy7") && s.contains("ba0") && s.contains("row1"));
    }
}
