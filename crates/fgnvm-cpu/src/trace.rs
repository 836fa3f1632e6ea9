//! Memory-access traces.
//!
//! A trace is the stream of last-level-cache misses of a program slice (the
//! role Simpoint slices of SPEC2006 play in the paper): each record is a
//! count of non-memory instructions followed by one memory operation.
//! Traces can be held in memory or serialized to a compact binary format.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use fgnvm_types::address::PhysAddr;
use fgnvm_types::request::Op;

/// One trace record: `gap` non-memory instructions, then one memory op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Non-memory instructions executed before this access.
    pub gap: u32,
    /// The access type.
    pub op: Op,
    /// Line-aligned physical address.
    pub addr: PhysAddr,
    /// True if this access depends on the previous load's data (pointer
    /// chasing): it may not issue while any load is outstanding. Lets
    /// traces control memory-level parallelism the way dependence chains
    /// do on a real core.
    pub dependent: bool,
}

impl TraceRecord {
    /// An independent read after `gap` instructions.
    pub fn read(gap: u32, addr: PhysAddr) -> Self {
        TraceRecord {
            gap,
            op: Op::Read,
            addr,
            dependent: false,
        }
    }

    /// A posted write after `gap` instructions.
    pub fn write(gap: u32, addr: PhysAddr) -> Self {
        TraceRecord {
            gap,
            op: Op::Write,
            addr,
            dependent: false,
        }
    }

    /// A dependent (pointer-chase) read after `gap` instructions.
    pub fn dependent_read(gap: u32, addr: PhysAddr) -> Self {
        TraceRecord {
            gap,
            op: Op::Read,
            addr,
            dependent: true,
        }
    }
}

/// An ordered memory-access trace with a human-readable name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    records: Vec<TraceRecord>,
}

/// Error decoding a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeTraceError {
    /// The magic header did not match.
    BadMagic,
    /// The buffer ended before the declared record count.
    Truncated,
    /// An op byte was neither read nor write.
    BadOp(u8),
    /// The name was not valid UTF-8.
    BadName,
}

impl std::fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeTraceError::BadMagic => f.write_str("not a trace: bad magic"),
            DecodeTraceError::Truncated => f.write_str("trace truncated"),
            DecodeTraceError::BadOp(b) => write!(f, "invalid op byte {b:#x}"),
            DecodeTraceError::BadName => f.write_str("trace name is not utf-8"),
        }
    }
}

impl std::error::Error for DecodeTraceError {}

const MAGIC: &[u8; 8] = b"FGNVMTR1";

impl Trace {
    /// Creates a trace from records.
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        Trace {
            name: name.into(),
            records,
        }
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The records in program order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of memory operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total instructions represented (gaps + one per memory op).
    pub fn instruction_count(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.gap) + 1).sum()
    }

    /// Fraction of memory operations that are writes.
    pub fn write_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let writes = self.records.iter().filter(|r| r.op.is_write()).count();
        writes as f64 / self.records.len() as f64
    }

    /// Misses per kilo-instruction, the paper's workload-selection metric.
    pub fn mpki(&self) -> f64 {
        let instructions = self.instruction_count();
        if instructions == 0 {
            return 0.0;
        }
        self.records.len() as f64 * 1000.0 / instructions as f64
    }

    /// Serializes to the compact binary format.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(24 + self.name.len() + self.records.len() * 13);
        buf.put_slice(MAGIC);
        buf.put_u32_le(self.name.len() as u32);
        buf.put_slice(self.name.as_bytes());
        buf.put_u64_le(self.records.len() as u64);
        for r in &self.records {
            buf.put_u32_le(r.gap);
            let op_byte = match (r.op, r.dependent) {
                (Op::Read, false) => 0,
                (Op::Write, _) => 1,
                (Op::Read, true) => 2,
            };
            buf.put_u8(op_byte);
            buf.put_u64_le(r.addr.raw());
        }
        buf.freeze()
    }

    /// Decodes a trace previously produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeTraceError`] on malformed input.
    pub fn from_bytes(mut data: Bytes) -> Result<Self, DecodeTraceError> {
        if data.remaining() < MAGIC.len() + 4 {
            return Err(DecodeTraceError::Truncated);
        }
        let mut magic = [0u8; 8];
        data.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(DecodeTraceError::BadMagic);
        }
        let name_len = data.get_u32_le() as usize;
        if data.remaining() < name_len + 8 {
            return Err(DecodeTraceError::Truncated);
        }
        let name_bytes = data.copy_to_bytes(name_len);
        let name = String::from_utf8(name_bytes.to_vec()).map_err(|_| DecodeTraceError::BadName)?;
        let count = data.get_u64_le() as usize;
        // A forged count must not wrap the size check into a pass.
        if count
            .checked_mul(13)
            .is_none_or(|need| data.remaining() < need)
        {
            return Err(DecodeTraceError::Truncated);
        }
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let gap = data.get_u32_le();
            let (op, dependent) = match data.get_u8() {
                0 => (Op::Read, false),
                1 => (Op::Write, false),
                2 => (Op::Read, true),
                b => return Err(DecodeTraceError::BadOp(b)),
            };
            let addr = PhysAddr::new(data.get_u64_le());
            records.push(TraceRecord {
                gap,
                op,
                addr,
                dependent,
            });
        }
        Ok(Trace { name, records })
    }
}

impl Trace {
    /// Writes the trace to `path` in the binary format.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a trace previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns an I/O error for filesystem problems, or
    /// [`std::io::ErrorKind::InvalidData`] wrapping a
    /// [`DecodeTraceError`] for malformed contents.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        Trace::from_bytes(Bytes::from(data))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Trace::new("anonymous", iter.into_iter().collect())
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "sample",
            vec![
                TraceRecord::read(99, PhysAddr::new(0x40)),
                TraceRecord::write(50, PhysAddr::new(0x80)),
                TraceRecord::dependent_read(0, PhysAddr::new(0xc0)),
            ],
        )
    }

    #[test]
    fn metrics() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.instruction_count(), (99 + 50) + 3);
        assert!((t.write_fraction() - 1.0 / 3.0).abs() < 1e-12);
        // 3 misses over 152 instructions ≈ 19.7 MPKI.
        assert!((t.mpki() - 3000.0 / 152.0).abs() < 1e-9);
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let decoded = Trace::from_bytes(t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = sample().to_bytes().to_vec();
        data[0] = b'X';
        assert_eq!(
            Trace::from_bytes(Bytes::from(data)),
            Err(DecodeTraceError::BadMagic)
        );
    }

    #[test]
    fn truncation_rejected() {
        let data = sample().to_bytes();
        let cut = data.slice(0..data.len() - 5);
        assert_eq!(Trace::from_bytes(cut), Err(DecodeTraceError::Truncated));
    }

    #[test]
    fn forged_record_count_is_truncation() {
        // 13 × this count wraps to 10 in 64 bits: exactly the 10 bytes
        // that follow it, so a wrapping size check would let it through.
        let mut data = MAGIC.to_vec();
        data.extend_from_slice(&0u32.to_le_bytes());
        data.extend_from_slice(&0x13B1_3B13_B13B_13B2u64.to_le_bytes());
        data.extend_from_slice(&[0; 10]);
        assert_eq!(data.len(), 30);
        assert_eq!(
            Trace::from_bytes(Bytes::from(data)),
            Err(DecodeTraceError::Truncated)
        );
    }

    #[test]
    fn bad_op_rejected() {
        let mut data = sample().to_bytes().to_vec();
        // First record's op byte sits after magic(8)+len(4)+name(6)+count(8)+gap(4).
        let op_at = 8 + 4 + 6 + 8 + 4;
        data[op_at] = 7;
        assert_eq!(
            Trace::from_bytes(Bytes::from(data)),
            Err(DecodeTraceError::BadOp(7))
        );
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::new("empty", vec![]);
        assert!(t.is_empty());
        assert_eq!(t.mpki(), 0.0);
        assert_eq!(t.write_fraction(), 0.0);
        let rt = Trace::from_bytes(t.to_bytes()).unwrap();
        assert_eq!(rt, t);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("fgnvm_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.trace");
        let t = sample();
        t.save(&path).unwrap();
        let loaded = Trace::load(&path).unwrap();
        assert_eq!(loaded, t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage_file() {
        let dir = std::env::temp_dir().join("fgnvm_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.trace");
        std::fs::write(&path, b"not a trace at all").unwrap();
        let err = Trace::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Trace = sample().records().iter().copied().collect();
        assert_eq!(t.len(), 3);
        t.extend(sample().records().iter().copied());
        assert_eq!(t.len(), 6);
    }
}
