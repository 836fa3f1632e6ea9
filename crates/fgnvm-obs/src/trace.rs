//! Chrome trace-event (Perfetto-loadable) JSON sink.
//!
//! Events follow the Trace Event Format's JSON array flavor: the memory
//! channel becomes a process (`pid`), each bank a thread (`tid`), every
//! issued command a complete `"X"` slice, and faults/remaps/watchdog trips
//! instant `"i"` events. Simulator cycles are written through as
//! microseconds (1 cycle = 1 µs) — Perfetto only needs a monotonic unit.
//!
//! Events are stored as fixed-size typed records and rendered to JSON only
//! when the trace is exported ([`TraceSink::to_json`]) or checkpointed
//! ([`TraceSink::save_state`]), so recording an event allocates nothing
//! beyond the buffer's amortized growth. Events restored from a checkpoint
//! keep their rendered text. The buffer is bounded: once the cap is
//! reached further events are counted in `dropped` instead of growing
//! memory without bound.

use crate::json;

/// Default event capacity (~1M events).
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// The arguments a command slice carries, rendered as its `args` object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceArgs {
    /// Originating request id.
    pub id: u64,
    /// Target row.
    pub row: u32,
    /// Target subarray group.
    pub sag: u32,
    /// Target column division.
    pub cd: u32,
    /// Device-level verify retries consumed.
    pub retries: u32,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    ProcessName,
    ThreadName,
    Slice { dur: u64, args: SliceArgs },
    Instant,
}

/// One buffered event, not yet rendered.
#[derive(Debug, Clone, Copy)]
struct Record {
    name: &'static str,
    channel: u32,
    bank: u32,
    ts: u64,
    phase: Phase,
}

impl Record {
    /// Appends the event's JSON object to `out`.
    fn render(&self, out: &mut String) {
        let (c, b) = (u64::from(self.channel), u64::from(self.bank));
        out.push_str("{\"name\":");
        json::quote_into(out, self.name);
        match self.phase {
            Phase::ProcessName => {
                fields(
                    out,
                    &[
                        (",\"ph\":\"M\",\"pid\":", c),
                        (",\"tid\":0,\"args\":{\"name\":\"channel ", c),
                    ],
                );
                out.push_str("\"}}");
            }
            Phase::ThreadName => {
                fields(
                    out,
                    &[
                        (",\"ph\":\"M\",\"pid\":", c),
                        (",\"tid\":", b),
                        (",\"args\":{\"name\":\"bank ", b),
                    ],
                );
                out.push_str("\"}}");
            }
            Phase::Slice { dur, args } => {
                fields(
                    out,
                    &[
                        (",\"cat\":\"cmd\",\"ph\":\"X\",\"ts\":", self.ts),
                        (",\"dur\":", dur),
                        (",\"pid\":", c),
                        (",\"tid\":", b),
                        (",\"args\":{\"id\":", args.id),
                        (",\"row\":", u64::from(args.row)),
                        (",\"sag\":", u64::from(args.sag)),
                        (",\"cd\":", u64::from(args.cd)),
                        (",\"retries\":", u64::from(args.retries)),
                    ],
                );
                out.push_str("}}");
            }
            Phase::Instant => {
                fields(
                    out,
                    &[
                        (
                            ",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":",
                            self.ts,
                        ),
                        (",\"pid\":", c),
                        (",\"tid\":", b),
                    ],
                );
                out.push('}');
            }
        }
    }
}

/// Appends each `(text, number)` pair to `out`, the number in decimal.
/// Rendering runs for every buffered event at every checkpoint, so it
/// formats integers by hand rather than through `fmt`.
fn fields(out: &mut String, pairs: &[(&str, u64)]) {
    for &(text, mut v) in pairs {
        out.push_str(text);
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
    }
}

/// Bounded Chrome trace-event sink.
#[derive(Debug, Clone)]
pub struct TraceSink {
    /// Events restored from a checkpoint, already rendered; they precede
    /// every record.
    restored: Vec<String>,
    records: Vec<Record>,
    cap: usize,
    dropped: u64,
    /// Channels and (channel, bank) tracks already named, kept sorted.
    named_procs: Vec<u32>,
    named_tracks: Vec<(u32, u32)>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::with_capacity(DEFAULT_EVENT_CAP)
    }
}

/// Inserts `x` into the sorted `set`; true when it was not there yet.
fn insert_sorted<T: Ord>(set: &mut Vec<T>, x: T) -> bool {
    match set.binary_search(&x) {
        Ok(_) => false,
        Err(at) => {
            set.insert(at, x);
            true
        }
    }
}

impl TraceSink {
    /// A sink holding at most `cap` events (metadata included).
    pub fn with_capacity(cap: usize) -> Self {
        TraceSink {
            restored: Vec::new(),
            records: Vec::new(),
            cap,
            dropped: 0,
            named_procs: Vec::new(),
            named_tracks: Vec::new(),
        }
    }

    fn push(&mut self, record: Record) {
        if self.len() < self.cap {
            self.records.push(record);
        } else {
            self.dropped += 1;
        }
    }

    /// Emits process/thread name metadata for a track the first time it
    /// appears (deterministic: ordered by first use, not by hash).
    fn ensure_track(&mut self, channel: u32, bank: u32) {
        let meta = |name, phase| Record {
            name,
            channel,
            bank,
            ts: 0,
            phase,
        };
        if insert_sorted(&mut self.named_procs, channel) {
            self.push(meta("process_name", Phase::ProcessName));
        }
        if insert_sorted(&mut self.named_tracks, (channel, bank)) {
            self.push(meta("thread_name", Phase::ThreadName));
        }
    }

    /// Records a complete slice: a command occupying `[ts, ts + dur)` on
    /// bank `(channel, bank)`.
    pub fn slice(
        &mut self,
        channel: u32,
        bank: u32,
        name: &'static str,
        ts: u64,
        dur: u64,
        args: SliceArgs,
    ) {
        self.ensure_track(channel, bank);
        self.push(Record {
            name,
            channel,
            bank,
            ts,
            // Zero-width slices vanish in viewers.
            phase: Phase::Slice {
                dur: dur.max(1),
                args,
            },
        });
    }

    /// Records a thread-scoped instant event (fault, remap, watchdog).
    pub fn instant(&mut self, channel: u32, bank: u32, name: &'static str, ts: u64) {
        self.ensure_track(channel, bank);
        self.push(Record {
            name,
            channel,
            bank,
            ts,
            phase: Phase::Instant,
        });
    }

    /// Events currently buffered (including metadata records).
    pub fn len(&self) -> usize {
        self.restored.len() + self.records.len()
    }

    /// True if no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Calls `f` with every buffered event's JSON text, in record order,
    /// rendering through one reused buffer.
    fn for_each_rendered(&self, mut f: impl FnMut(&str)) {
        for e in &self.restored {
            f(e);
        }
        let mut buf = String::new();
        for rec in &self.records {
            buf.clear();
            rec.render(&mut buf);
            f(&buf);
        }
    }

    /// Serialize the buffered events (as rendered JSON text), cap, drop
    /// counter, and named-track sets (sorted) into a checkpoint.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("trace");
        w.usize(self.cap);
        w.u64(self.dropped);
        w.usize(self.len());
        self.for_each_rendered(|e| w.str(e));
        w.usize(self.named_procs.len());
        for p in &self.named_procs {
            w.u32(*p);
        }
        w.usize(self.named_tracks.len());
        for (c, b) in &self.named_tracks {
            w.u32(*c);
            w.u32(*b);
        }
    }

    /// Restore a sink written by [`TraceSink::save_state`] into this one,
    /// replacing its current contents (including the capacity). Restored
    /// events stay as the rendered text the checkpoint holds.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated or mistagged stream.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("trace")?;
        self.cap = r.usize()?;
        self.dropped = r.u64()?;
        let n = r.usize()?;
        self.records = Vec::new();
        self.restored = Vec::with_capacity(n.min(self.cap));
        for _ in 0..n {
            self.restored.push(r.str()?);
        }
        let n = r.usize()?;
        self.named_procs = Vec::with_capacity(n);
        for _ in 0..n {
            insert_sorted(&mut self.named_procs, r.u32()?);
        }
        let n = r.usize()?;
        self.named_tracks = Vec::with_capacity(n);
        for _ in 0..n {
            insert_sorted(&mut self.named_tracks, (r.u32()?, r.u32()?));
        }
        Ok(())
    }

    /// Renders the full trace as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`), loadable at `ui.perfetto.dev`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        self.for_each_rendered(|e| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(e);
        });
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(id: u64, row: u32) -> SliceArgs {
        SliceArgs {
            id,
            row,
            sag: 1,
            cd: 3,
            retries: 2,
        }
    }

    #[test]
    fn slices_carry_track_metadata_once() {
        let mut sink = TraceSink::default();
        sink.slice(0, 2, "activate", 100, 50, args(9, 7));
        sink.slice(0, 2, "row-hit", 200, 10, SliceArgs::default());
        // 2 metadata + 2 slices.
        assert_eq!(sink.len(), 4);
        let json = sink.to_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert_eq!(json.matches("process_name").count(), 1);
        assert_eq!(json.matches("thread_name").count(), 1);
        assert!(json.contains(
            "{\"name\":\"activate\",\"cat\":\"cmd\",\"ph\":\"X\",\"ts\":100,\"dur\":50,\
             \"pid\":0,\"tid\":2,\"args\":{\"id\":9,\"row\":7,\"sag\":1,\"cd\":3,\"retries\":2}}"
        ));
    }

    #[test]
    fn track_metadata_renders_names() {
        let mut sink = TraceSink::default();
        sink.instant(1, 3, "remap", 77);
        assert_eq!(
            sink.to_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"channel 1\"}},\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,\
             \"args\":{\"name\":\"bank 3\"}},\
             {\"name\":\"remap\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":77,\
             \"pid\":1,\"tid\":3}]}"
        );
    }

    #[test]
    fn zero_duration_slices_widen_to_one() {
        let mut sink = TraceSink::default();
        sink.slice(0, 0, "x", 5, 0, SliceArgs::default());
        assert!(sink.to_json().contains("\"dur\":1"));
    }

    #[test]
    fn instants_render_with_scope() {
        let mut sink = TraceSink::default();
        sink.instant(1, 3, "remap", 77);
        assert!(sink.to_json().contains(
            "{\"name\":\"remap\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":77,\
             \"pid\":1,\"tid\":3}"
        ));
    }

    #[test]
    fn cap_drops_instead_of_growing() {
        let mut sink = TraceSink::with_capacity(3);
        sink.slice(0, 0, "a", 0, 1, SliceArgs::default()); // +2 metadata, fills cap
        sink.slice(0, 0, "b", 1, 1, SliceArgs::default());
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 1);
    }

    /// Feeds event `i` of a fixed stream spread over two channels and
    /// three banks, so tracks keep appearing after a restore.
    fn record(sink: &mut TraceSink, i: u64) {
        let (channel, bank) = ((i % 2) as u32, (i % 3) as u32);
        if i % 5 == 4 {
            sink.instant(channel, bank, "row-remap", i * 10);
        } else {
            sink.slice(channel, bank, "write", i * 10, i % 4, args(i, i as u32));
        }
    }

    fn snapshot(sink: &TraceSink) -> Vec<u8> {
        let mut w = fgnvm_types::SnapshotWriter::new();
        sink.save_state(&mut w);
        w.finish()
    }

    #[test]
    fn checkpoint_mid_stream_matches_an_uninterrupted_sink() {
        for cut in [0, 1, 7, 20, 39] {
            let mut straight = TraceSink::with_capacity(45);
            let mut first = TraceSink::with_capacity(45);
            for i in 0..cut {
                record(&mut straight, i);
                record(&mut first, i);
            }
            let bytes = snapshot(&first);
            let mut resumed = TraceSink::with_capacity(1);
            let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
            resumed.load_state(&mut r).expect("decodes");
            assert_eq!(snapshot(&resumed), bytes, "cut {cut}: restore is lossless");
            for i in cut..40 {
                record(&mut straight, i);
                record(&mut resumed, i);
            }
            assert!(straight.dropped() > 0, "the stream overflows the cap");
            assert_eq!(resumed.len(), straight.len(), "cut {cut}");
            assert_eq!(resumed.dropped(), straight.dropped(), "cut {cut}");
            assert_eq!(resumed.to_json(), straight.to_json(), "cut {cut}");
            assert_eq!(snapshot(&resumed), snapshot(&straight), "cut {cut}");
        }
    }
}
