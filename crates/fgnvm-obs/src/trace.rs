//! Chrome trace-event (Perfetto-loadable) JSON sink.
//!
//! Events follow the Trace Event Format's JSON array flavor: the memory
//! channel becomes a process (`pid`), each bank a thread (`tid`), every
//! issued command a complete `"X"` slice, and faults/remaps/watchdog trips
//! instant `"i"` events. Simulator cycles are written through as
//! microseconds (1 cycle = 1 µs) — Perfetto only needs a monotonic unit.
//!
//! Events are stored as fixed-size typed records and rendered to JSON only
//! when the trace is exported ([`TraceSink::to_json`]), so recording an
//! event allocates nothing beyond the buffer's amortized growth. Each
//! distinct event name is kept once, in a per-sink name table the records
//! index. A checkpoint ([`TraceSink::save_state`]) writes the table and
//! then each record as binary fields, and a restore decodes them back
//! into the same record buffer. The buffer is bounded: once the cap is
//! reached further events are counted in `dropped` instead of growing
//! memory without bound.

use std::borrow::Cow;

use fgnvm_types::{SnapshotError, SnapshotReader, SnapshotWriter};

use crate::json;

/// Default event capacity (~1M events).
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// A sink's name memo has `1 << MEMO_BITS` slots, more than the distinct
/// labels a run records.
const MEMO_BITS: u32 = 4;
const MEMO_SLOTS: usize = 1 << MEMO_BITS;

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

impl Phase {
    /// The phase byte a checkpoint stores for this phase.
    fn code(&self) -> u8 {
        match self {
            Phase::ProcessName => 0,
            Phase::ThreadName => 1,
            Phase::Slice { .. } => 2,
            Phase::Instant => 3,
        }
    }
}

/// One buffered event, not yet rendered.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Index into the sink's name table.
    name: u32,
    channel: u32,
    bank: u32,
    ts: u64,
    phase: Phase,
}

impl Record {
    /// Writes the record as its phase byte followed by varint fields; only
    /// a slice carries a duration and arguments.
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(self.phase.code());
        w.var_u64(u64::from(self.name));
        w.var_u64(u64::from(self.channel));
        w.var_u64(u64::from(self.bank));
        w.var_u64(self.ts);
        if let Phase::Slice { dur, args } = self.phase {
            w.var_u64(dur);
            w.var_u64(args.id);
            w.var_u64(u64::from(args.row));
            w.var_u64(u64::from(args.sag));
            w.var_u64(u64::from(args.cd));
            w.var_u64(u64::from(args.retries));
        }
    }

    /// Decodes a record written by [`Record::save`] against a name table
    /// of `names` entries.
    fn load(r: &mut SnapshotReader<'_>, names: usize) -> Result<Record, SnapshotError> {
        let code = r.u8()?;
        let name = r.var_u32()?;
        if name as usize >= names {
            return Err(SnapshotError::Corrupt(format!(
                "trace event names entry {name} of a {names}-entry table"
            )));
        }
        let channel = r.var_u32()?;
        let bank = r.var_u32()?;
        let ts = r.var_u64()?;
        let phase = match code {
            0 => Phase::ProcessName,
            1 => Phase::ThreadName,
            2 => Phase::Slice {
                dur: r.var_u64()?,
                args: SliceArgs {
                    id: r.var_u64()?,
                    row: r.var_u32()?,
                    sag: r.var_u32()?,
                    cd: r.var_u32()?,
                    retries: r.var_u32()?,
                },
            },
            3 => Phase::Instant,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown trace event phase {other}"
                )))
            }
        };
        Ok(Record {
            name,
            channel,
            bank,
            ts,
            phase,
        })
    }

    /// Appends the event's JSON object, named `name`, to `out`.
    fn render(&self, name: &str, out: &mut String) {
        let (c, b) = (u64::from(self.channel), u64::from(self.bank));
        out.push_str("{\"name\":");
        json::quote_into(out, name);
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
/// Export renders every buffered event, so this formats integers by hand
/// rather than through `fmt`.
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
    records: Vec<Record>,
    /// Distinct event names in order of first use; records index it. A
    /// name recorded live borrows its `'static` label; one read back from
    /// a checkpoint owns its text.
    names: Vec<Cow<'static, str>>,
    /// Direct-mapped memo from a label's address to its `names` index,
    /// so a steady-state lookup is one pointer compare. Derived from
    /// `names`, so it is not serialized and a restore clears it.
    memo: [Option<(&'static str, u32)>; MEMO_SLOTS],
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
            records: Vec::new(),
            names: Vec::new(),
            memo: [None; MEMO_SLOTS],
            cap,
            dropped: 0,
            named_procs: Vec::new(),
            named_tracks: Vec::new(),
        }
    }

    /// The name table index of `name`, adding it on first use. A memo hit
    /// costs one pointer compare; a miss scans the table (a handful of
    /// labels) by content, which also finds a name read back from a
    /// checkpoint or the same text at another address.
    fn intern(&mut self, name: &'static str) -> u32 {
        // Fibonacci hashing of the label's address onto the memo slots.
        let hash = (name.as_ptr() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = (hash >> (64 - MEMO_BITS)) as usize;
        if let Some((label, at)) = self.memo[slot] {
            if std::ptr::eq(label, name) {
                return at;
            }
        }
        let at = match self.names.iter().position(|n| n == name) {
            Some(at) => at,
            None => {
                self.names.push(Cow::Borrowed(name));
                self.names.len() - 1
            }
        } as u32;
        self.memo[slot] = Some((name, at));
        at
    }

    fn push(&mut self, name: &'static str, channel: u32, bank: u32, ts: u64, phase: Phase) {
        if self.records.len() < self.cap {
            let name = self.intern(name);
            self.records.push(Record {
                name,
                channel,
                bank,
                ts,
                phase,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Emits process/thread name metadata for a track the first time it
    /// appears (deterministic: ordered by first use, not by hash).
    fn ensure_track(&mut self, channel: u32, bank: u32) {
        if insert_sorted(&mut self.named_procs, channel) {
            self.push("process_name", channel, bank, 0, Phase::ProcessName);
        }
        if insert_sorted(&mut self.named_tracks, (channel, bank)) {
            self.push("thread_name", channel, bank, 0, Phase::ThreadName);
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
        // Zero-width slices vanish in viewers.
        let dur = dur.max(1);
        self.push(name, channel, bank, ts, Phase::Slice { dur, args });
    }

    /// Records a thread-scoped instant event (fault, remap, watchdog).
    pub fn instant(&mut self, channel: u32, bank: u32, name: &'static str, ts: u64) {
        self.ensure_track(channel, bank);
        self.push(name, channel, bank, ts, Phase::Instant);
    }

    /// Events currently buffered (including metadata records).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serialize the cap, drop counter, name table, buffered events (as
    /// binary records) and named-track sets (sorted) into a checkpoint.
    /// Nothing is rendered.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.tag("trace");
        w.usize(self.cap);
        w.u64(self.dropped);
        w.usize(self.names.len());
        for name in &self.names {
            w.str(name);
        }
        w.usize(self.records.len());
        for rec in &self.records {
            rec.save(w);
        }
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
    /// replacing its current contents (including the capacity).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on a truncated or mistagged stream, an
    /// event whose phase or name index is out of range, or more events
    /// than the cap admits.
    pub fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.tag("trace")?;
        self.cap = r.usize()?;
        self.dropped = r.u64()?;
        let n = r.usize()?;
        self.names.clear();
        self.memo = [None; MEMO_SLOTS];
        for _ in 0..n {
            self.names.push(Cow::Owned(r.str()?));
        }
        let n = r.count()?;
        if n > self.cap {
            return Err(SnapshotError::Corrupt(format!(
                "trace holds {n} events, over its cap of {}",
                self.cap
            )));
        }
        self.records.clear();
        self.records.reserve(n);
        for _ in 0..n {
            self.records.push(Record::load(r, self.names.len())?);
        }
        let n = r.count()?;
        self.named_procs = Vec::with_capacity(n);
        for _ in 0..n {
            insert_sorted(&mut self.named_procs, r.u32()?);
        }
        let n = r.count()?;
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
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            rec.render(&self.names[rec.name as usize], &mut out);
        }
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
        let mut w = SnapshotWriter::new();
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
            let mut r = SnapshotReader::new(&bytes).expect("readable");
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

    #[test]
    fn restore_then_new_names_and_tracks_render_like_an_uninterrupted_sink() {
        // Before the cut: one track, a slice and an instant. After it: a
        // new track (fresh process and thread metadata) and two names the
        // name table read back from the checkpoint has never seen.
        let before = |sink: &mut TraceSink| {
            sink.slice(0, 1, "activate", 10, 40, args(1, 5));
            sink.instant(0, 1, "decision:clear", 10);
        };
        let after = |sink: &mut TraceSink| {
            sink.slice(0, 1, "activate", 60, 40, args(2, 6));
            sink.slice(1, 0, "row-hit", 70, 8, args(3, 6));
            sink.instant(1, 0, "watchdog", 90);
        };
        let mut straight = TraceSink::default();
        before(&mut straight);
        after(&mut straight);

        let mut first = TraceSink::default();
        before(&mut first);
        let bytes = snapshot(&first);
        // Restore over a sink whose own table put the same labels at
        // other indices: nothing it memoized may survive the restore.
        let mut resumed = TraceSink::with_capacity(8);
        resumed.instant(5, 5, "watchdog", 1);
        resumed.slice(5, 5, "activate", 2, 1, SliceArgs::default());
        let mut r = SnapshotReader::new(&bytes).expect("readable");
        resumed.load_state(&mut r).expect("decodes");
        r.expect_end().expect("whole section consumed");
        assert!(!resumed.to_json().contains("row-hit"));
        after(&mut resumed);

        let json = straight.to_json();
        for phase in ["\"ph\":\"M\"", "\"ph\":\"X\"", "\"ph\":\"i\""] {
            assert!(json.contains(phase), "{phase} missing from {json}");
        }
        assert_eq!(json.matches("process_name").count(), 2);
        assert_eq!(json.matches("thread_name").count(), 2);
        assert_eq!(resumed.to_json(), json);
        assert_eq!(snapshot(&resumed), snapshot(&straight));
    }

    /// A trace section with a one-entry name table, `cap` 8 and the
    /// records `write_records` emits, sealed as a snapshot.
    fn section(count: usize, write_records: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.tag("trace");
        w.usize(8);
        w.u64(0);
        w.usize(1);
        w.str("write");
        w.usize(count);
        write_records(&mut w);
        w.usize(0);
        w.usize(0);
        w.finish()
    }

    fn load(bytes: &[u8]) -> Result<TraceSink, SnapshotError> {
        let mut sink = TraceSink::default();
        let mut r = SnapshotReader::new(bytes)?;
        sink.load_state(&mut r)?;
        r.expect_end()?;
        Ok(sink)
    }

    /// Writes one instant record: phase byte, name index, channel, bank, ts.
    fn instant_record(w: &mut SnapshotWriter, phase: u8, name: u64) {
        w.u8(phase);
        for v in [name, 0, 0, 5] {
            w.var_u64(v);
        }
    }

    #[test]
    fn hostile_trace_sections_are_structured_errors() {
        let good = section(1, |w| instant_record(w, 3, 0));
        let sink = load(&good).expect("well-formed section decodes");
        assert!(sink.to_json().contains("\"name\":\"write\""));

        let bad_name = section(1, |w| instant_record(w, 3, 1));
        assert!(matches!(load(&bad_name), Err(SnapshotError::Corrupt(m)) if m.contains("names")));
        let bad_phase = section(1, |w| instant_record(w, 7, 0));
        assert!(matches!(load(&bad_phase), Err(SnapshotError::Corrupt(m)) if m.contains("phase")));
        let over_cap = section(9, |w| {
            for _ in 0..9 {
                instant_record(w, 3, 0);
            }
        });
        assert!(matches!(load(&over_cap), Err(SnapshotError::Corrupt(m)) if m.contains("cap")));
    }

    #[test]
    fn every_truncation_of_a_trace_section_is_an_error() {
        let mut sink = TraceSink::default();
        for i in 0..12 {
            record(&mut sink, i);
        }
        let bytes = snapshot(&sink);
        let payload = &bytes[..bytes.len() - 8];
        let header = fgnvm_types::snapshot::SNAPSHOT_MAGIC.len() + 4;
        // Cut the payload at every byte past the header (so inside every
        // record and varint) and re-seal it, so only the decoder can
        // notice.
        for cut in header..payload.len() {
            let mut resealed = payload[..cut].to_vec();
            let sum = fgnvm_types::fnv1a64(&resealed);
            resealed.extend_from_slice(&sum.to_le_bytes());
            assert!(
                matches!(load(&resealed), Err(SnapshotError::Truncated { .. })),
                "cut at {cut} of {}",
                payload.len()
            );
        }
    }
}
