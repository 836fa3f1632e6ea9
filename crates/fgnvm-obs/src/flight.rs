//! Flight recorder: a fixed-capacity ring of recent noteworthy events.
//!
//! While the time-series engine keeps *aggregates* per window, the flight
//! recorder keeps the last N *individual* events — command issues, the
//! pre-issue blocks that gated them (classified by the attribution
//! engine's exact wait decomposition), controller write re-issues, and
//! fault instants. When a watchdog trips or a `SimError` escalates, the
//! ring is dumped as a post-mortem: the event history that led to the
//! wedge, not just the wedged state.
//!
//! The ring is filled purely from observer hooks, so its contents are
//! bit-identical across stepping modes, and its full state (including
//! the lifetime event counter) rides inside the observer snapshot — a
//! resumed run reproduces the ring byte-for-byte.

use std::collections::VecDeque;

use crate::{json, InstantKind, StallCause};

/// Command plan-kind labels the recorder compresses to one byte.
/// Unknown labels map to the final `"other"` slot.
pub const KIND_LABELS: [&str; 5] = ["row-hit", "activate", "underfetch", "write", "other"];

fn kind_code(label: &str) -> u8 {
    KIND_LABELS
        .iter()
        .position(|k| *k == label)
        .unwrap_or(KIND_LABELS.len() - 1) as u8
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// A command issued to a bank.
    Issue {
        /// Issue cycle.
        at: u64,
        /// Originating request id.
        id: u64,
        /// Channel / bank coordinates.
        channel: u32,
        /// Bank index within the channel.
        bank: u32,
        /// Compressed plan-kind label (index into [`KIND_LABELS`]).
        kind: u8,
        /// True for reads.
        is_read: bool,
        /// Target subarray group.
        sag: u32,
        /// Target column division.
        cd: u32,
        /// Device verify retries consumed.
        retries: u32,
    },
    /// A request waited before its first issue; `cause` is the dominant
    /// bucket of the attribution engine's exact wait decomposition (ties
    /// break to the lowest bucket index, deterministically).
    Block {
        /// Cycle the gated command finally issued.
        at: u64,
        /// Originating request id.
        id: u64,
        /// Dominant blocking cause over the wait.
        cause: StallCause,
        /// Total cycles waited before issue.
        cycles: u64,
    },
    /// A write exhausted its verify budget and was re-queued.
    Retry {
        /// Cycle of the re-issue instant.
        at: u64,
        /// Channel the write was queued on.
        channel: u32,
        /// Bank the write targeted.
        bank: u32,
    },
    /// A fault-class instant (ECC events, remaps, wear-out escalation,
    /// watchdog).
    Fault {
        /// Cycle of the instant.
        at: u64,
        /// Which instant fired.
        kind: InstantKind,
        /// Channel coordinate reported by the instant.
        channel: u32,
        /// Bank coordinate reported by the instant.
        bank: u32,
    },
}

impl FlightEvent {
    /// Event cycle (for timeline ordering; the ring is already pushed in
    /// hook order).
    pub fn at(&self) -> u64 {
        match self {
            FlightEvent::Issue { at, .. }
            | FlightEvent::Block { at, .. }
            | FlightEvent::Retry { at, .. }
            | FlightEvent::Fault { at, .. } => *at,
        }
    }

    fn to_json(self) -> String {
        match self {
            FlightEvent::Issue {
                at,
                id,
                channel,
                bank,
                kind,
                is_read,
                sag,
                cd,
                retries,
            } => format!(
                "{{\"type\":\"issue\",\"at\":{at},\"id\":{id},\"channel\":{channel},\
                 \"bank\":{bank},\"kind\":{},\"is_read\":{is_read},\"sag\":{sag},\
                 \"cd\":{cd},\"retries\":{retries}}}",
                json::quote(KIND_LABELS[usize::from(kind).min(KIND_LABELS.len() - 1)])
            ),
            FlightEvent::Block {
                at,
                id,
                cause,
                cycles,
            } => format!(
                "{{\"type\":\"block\",\"at\":{at},\"id\":{id},\"cause\":{},\"cycles\":{cycles}}}",
                json::quote(cause.label())
            ),
            FlightEvent::Retry { at, channel, bank } => {
                format!("{{\"type\":\"retry\",\"at\":{at},\"channel\":{channel},\"bank\":{bank}}}")
            }
            FlightEvent::Fault {
                at,
                kind,
                channel,
                bank,
            } => format!(
                "{{\"type\":\"fault\",\"at\":{at},\"kind\":{},\"channel\":{channel},\
                 \"bank\":{bank}}}",
                json::quote(kind.label())
            ),
        }
    }

    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        match *self {
            FlightEvent::Issue {
                at,
                id,
                channel,
                bank,
                kind,
                is_read,
                sag,
                cd,
                retries,
            } => {
                w.u32(0);
                w.u64(at);
                w.u64(id);
                w.u32(channel);
                w.u32(bank);
                w.u32(u32::from(kind));
                w.bool(is_read);
                w.u32(sag);
                w.u32(cd);
                w.u32(retries);
            }
            FlightEvent::Block {
                at,
                id,
                cause,
                cycles,
            } => {
                w.u32(1);
                w.u64(at);
                w.u64(id);
                w.u32(cause as u32);
                w.u64(cycles);
            }
            FlightEvent::Retry { at, channel, bank } => {
                w.u32(2);
                w.u64(at);
                w.u32(channel);
                w.u32(bank);
            }
            FlightEvent::Fault {
                at,
                kind,
                channel,
                bank,
            } => {
                w.u32(3);
                w.u64(at);
                w.u32(kind as u32);
                w.u32(channel);
                w.u32(bank);
            }
        }
    }

    fn load_state(
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<FlightEvent, fgnvm_types::SnapshotError> {
        let corrupt = |what: &str| fgnvm_types::SnapshotError::Corrupt(what.to_string());
        match r.u32()? {
            0 => Ok(FlightEvent::Issue {
                at: r.u64()?,
                id: r.u64()?,
                channel: r.u32()?,
                bank: r.u32()?,
                kind: u8::try_from(r.u32()?)
                    .ok()
                    .filter(|k| usize::from(*k) < KIND_LABELS.len())
                    .ok_or_else(|| corrupt("flight issue kind out of range"))?,
                is_read: r.bool()?,
                sag: r.u32()?,
                cd: r.u32()?,
                retries: r.u32()?,
            }),
            1 => Ok(FlightEvent::Block {
                at: r.u64()?,
                id: r.u64()?,
                cause: *StallCause::ALL
                    .get(r.u32()? as usize)
                    .ok_or_else(|| corrupt("flight block cause out of range"))?,
                cycles: r.u64()?,
            }),
            2 => Ok(FlightEvent::Retry {
                at: r.u64()?,
                channel: r.u32()?,
                bank: r.u32()?,
            }),
            3 => Ok(FlightEvent::Fault {
                at: r.u64()?,
                kind: *InstantKind::ALL
                    .get(r.u32()? as usize)
                    .ok_or_else(|| corrupt("flight fault kind out of range"))?,
                channel: r.u32()?,
                bank: r.u32()?,
            }),
            _ => Err(corrupt("unknown flight event discriminant")),
        }
    }
}

/// The flight recorder: a bounded ring of [`FlightEvent`]s in hook order,
/// evicting oldest-first, plus a lifetime event counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<FlightEvent>,
    total: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            total: 0,
        }
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events recorded over the recorder's lifetime (monotonic).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Records one event, evicting the oldest when full.
    pub fn push(&mut self, event: FlightEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.total += 1;
    }

    /// Serializes the ring as a JSON document:
    /// `{"capacity":..,"total":..,"events":[..]}`.
    pub fn to_json(&self) -> String {
        let events: Vec<String> = self.events.iter().map(|e| e.to_json()).collect();
        format!(
            "{{\"capacity\":{},\"total\":{},\"events\":[{}]}}",
            self.capacity,
            self.total,
            events.join(",")
        )
    }

    /// Serialize the full recorder state into a checkpoint.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("flight");
        w.usize(self.capacity);
        w.u64(self.total);
        w.usize(self.events.len());
        for e in &self.events {
            e.save_state(w);
        }
    }

    /// Restore a recorder written by [`FlightRecorder::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated or mistagged stream.
    pub fn load_state(
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<FlightRecorder, fgnvm_types::SnapshotError> {
        r.tag("flight")?;
        let capacity = r.usize()?.max(1);
        let total = r.u64()?;
        let n = r.count()?;
        if n > capacity {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "flight ring holds {n} events over its capacity {capacity}"
            )));
        }
        let mut events = VecDeque::with_capacity(n);
        for _ in 0..n {
            events.push_back(FlightEvent::load_state(r)?);
        }
        Ok(FlightRecorder {
            capacity,
            events,
            total,
        })
    }

    /// Records a command issue (and its pre-issue block, when the
    /// attribution engine reports a non-empty wait).
    pub fn on_command(&mut self, cmd: &crate::CommandIssue, wait: Option<(StallCause, u64)>) {
        if let Some((cause, cycles)) = wait {
            self.push(FlightEvent::Block {
                at: cmd.at,
                id: cmd.id,
                cause,
                cycles,
            });
        }
        self.push(FlightEvent::Issue {
            at: cmd.at,
            id: cmd.id,
            channel: cmd.channel,
            bank: cmd.bank,
            kind: kind_code(cmd.kind),
            is_read: cmd.is_read,
            sag: cmd.sag,
            cd: cmd.cd,
            retries: cmd.retries,
        });
    }

    /// Records an instant: write re-issues become [`FlightEvent::Retry`],
    /// everything else a [`FlightEvent::Fault`].
    pub fn on_instant(&mut self, kind: InstantKind, channel: u32, bank: u32, now: u64) {
        let event = match kind {
            InstantKind::WriteReissue => FlightEvent::Retry {
                at: now,
                channel,
                bank,
            },
            _ => FlightEvent::Fault {
                at: now,
                kind,
                channel,
                bank,
            },
        };
        self.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(at: u64, id: u64) -> FlightEvent {
        FlightEvent::Issue {
            at,
            id,
            channel: 0,
            bank: 1,
            kind: 1,
            is_read: true,
            sag: 2,
            cd: 0,
            retries: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut f = FlightRecorder::new(3);
        for i in 0..5 {
            f.push(issue(i * 10, i));
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.total(), 5);
        let ats: Vec<u64> = f.events().map(FlightEvent::at).collect();
        assert_eq!(ats, [20, 30, 40]);
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let mut f = FlightRecorder::new(4);
        f.push(issue(5, 1));
        f.push(FlightEvent::Block {
            at: 9,
            id: 2,
            cause: StallCause::SagConflict,
            cycles: 4,
        });
        f.push(FlightEvent::Retry {
            at: 11,
            channel: 0,
            bank: 3,
        });
        f.push(FlightEvent::Fault {
            at: 12,
            kind: InstantKind::Remap,
            channel: 1,
            bank: 0,
        });
        let mut w = fgnvm_types::SnapshotWriter::new();
        f.save_state(&mut w);
        let bytes = w.finish();
        let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
        let restored = FlightRecorder::load_state(&mut r).expect("decodes");
        assert_eq!(restored, f);
    }

    #[test]
    fn json_dump_covers_every_event_type() {
        let mut f = FlightRecorder::new(8);
        f.push(issue(5, 1));
        f.push(FlightEvent::Block {
            at: 9,
            id: 2,
            cause: StallCause::WriteBlock,
            cycles: 40,
        });
        f.on_instant(InstantKind::WriteReissue, 0, 2, 15);
        f.on_instant(InstantKind::Watchdog, 0, 0, 20);
        let json = f.to_json();
        assert!(json.starts_with("{\"capacity\":8,\"total\":4,\"events\":["));
        assert!(json.contains("\"type\":\"issue\""));
        assert!(json.contains("\"cause\":\"write-block\""));
        assert!(json.contains("\"type\":\"retry\""));
        assert!(json.contains("\"kind\":\"watchdog\""));
    }

    #[test]
    fn unknown_kind_labels_compress_to_other() {
        assert_eq!(kind_code("refresh-all"), 4);
        assert_eq!(kind_code("activate"), 1);
    }
}
