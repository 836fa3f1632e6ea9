//! The five-part latency breakdown.
//!
//! [`Attribution`](crate::Attribution) folds every completed request's
//! lifecycle into five exact, additive components next to its ten-bucket
//! stall taxonomy, from the same per-request record:
//!
//! | component | interval | meaning |
//! |---|---|---|
//! | `queue` | arrival → first issue | waiting in the read/write queue |
//! | `retry` | first issue → last issue | re-issues (verify-budget exhaustion) |
//! | `bank`  | last issue → data start | array access (activate/sense/write) |
//! | `bus`   | data start → data end | data burst on the channel |
//! | `tail`  | data end → completion | post-burst work (ECC decode, verify lock) |
//!
//! `queue + retry + bank + bus + tail == total` for every request. Requests
//! that never reach the array (store-to-load forwarded reads, coalesced
//! writes) complete with their whole — usually zero — latency in `queue`.

use crate::hist::Log2Hist;

/// Per-component latency histograms for one operation class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Arrival → first command issue.
    pub queue: Log2Hist,
    /// First issue → last issue (zero unless the write was re-issued).
    pub retry: Log2Hist,
    /// Last issue → first data beat.
    pub bank: Log2Hist,
    /// Data burst occupancy.
    pub bus: Log2Hist,
    /// Last data beat → completion (ECC decode, write-verify lock).
    pub tail: Log2Hist,
    /// Whole-lifetime latency.
    pub total: Log2Hist,
}

impl LatencyBreakdown {
    /// Records one request: `[queue, retry, bank, bus, tail]` and its
    /// whole-lifetime `total`.
    pub(crate) fn record(&mut self, parts: [u64; 5], total: u64) {
        let [queue, retry, bank, bus, tail] = parts;
        self.queue.record(queue);
        self.retry.record(retry);
        self.bank.record(bank);
        self.bus.record(bus);
        self.tail.record(tail);
        self.total.record(total);
    }

    /// Serializes all six histograms as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queue\":{},\"retry\":{},\"bank\":{},\"bus\":{},\"tail\":{},\"total\":{}}}",
            self.queue.to_json(),
            self.retry.to_json(),
            self.bank.to_json(),
            self.bus.to_json(),
            self.tail.to_json(),
            self.total.to_json()
        )
    }

    pub(crate) fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        for h in [
            &self.queue,
            &self.retry,
            &self.bank,
            &self.bus,
            &self.tail,
            &self.total,
        ] {
            h.save_state(w);
        }
    }

    pub(crate) fn load_state(
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<Self, fgnvm_types::SnapshotError> {
        Ok(LatencyBreakdown {
            queue: Log2Hist::load_state(r)?,
            retry: Log2Hist::load_state(r)?,
            bank: Log2Hist::load_state(r)?,
            bus: Log2Hist::load_state(r)?,
            tail: Log2Hist::load_state(r)?,
            total: Log2Hist::load_state(r)?,
        })
    }
}
