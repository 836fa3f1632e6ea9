//! Deterministic device fault model: transient read errors, write-verify
//! failures, and wear-induced stuck-at faults.
//!
//! NVM cells fail in ways DRAM cells do not. Resistance drift and sensing
//! noise flip bits transiently on reads (a *raw bit error rate*, RBER);
//! programming pulses fail stochastically, which real PCM devices catch
//! with an on-die *write-verify* step that re-applies the pulse; and cells
//! wear out after enough SET/RESET cycles, leaving *stuck-at* faults that
//! no retry can clear. Each bank owns one [`FaultModel`] instance so that
//! faults surface exactly where the paper's architecture localizes them:
//! at the (SAG, CD) tile serving the access.
//!
//! Determinism is load-bearing: two runs with identical configurations and
//! traces must produce identical fault streams, so every draw is a pure
//! hash of `(seed, row, line, serial)` rather than a stateful RNG shared
//! across banks. The serial number is the bank's own access counter, which
//! is itself deterministic for a deterministic controller.

use std::collections::HashMap;

/// Per-access fault outcome, carried on [`crate::Issued`].
///
/// The default value (all zeros / false) means "no fault machinery
/// engaged" and is what every access reports when the fault model is
/// disabled — keeping the disabled path bit-identical to a build without
/// the reliability layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultOutcome {
    /// Extra write-verify iterations this write needed (0 = first pulse
    /// verified clean). Each retry re-occupies the tile for another tWP.
    pub retries: u32,
    /// True if the write exhausted its retry budget and still failed
    /// verify; the controller must re-issue it.
    pub verify_failed: bool,
    /// Transient bit errors in the sensed line (reads only).
    pub bit_errors: u32,
    /// True if the accessed row has worn past the endurance threshold and
    /// reads see a permanent stuck-at fault.
    pub stuck_fault: bool,
}

/// Deterministic per-bank fault injector.
///
/// Construct with [`FaultModel::new`] and attach to a bank via its
/// `with_faults` builder. All draws hash `(seed, row, line, serial)`, so
/// identical configurations replay identical fault streams.
#[derive(Debug, Clone)]
pub struct FaultModel {
    seed: u64,
    rber: f64,
    write_fail_prob: f64,
    max_write_retries: u32,
    wear_stuck_threshold: u64,
    line_bits: u64,
    /// Writes absorbed per row of this bank (programming pulses, counting
    /// retries — retrying accelerates wear).
    row_writes: HashMap<u32, u64>,
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of a 64-bit input (one
/// generator step from state `z`).
fn mix(mut z: u64) -> u64 {
    fgnvm_types::splitmix64(&mut z)
}

impl FaultModel {
    /// Creates a fault model for one bank.
    ///
    /// `seed` should already be decorrelated per bank (the controller
    /// folds the bank index into the configured seed). `line_bits` is the
    /// number of bits sensed per line access, the exposure window for
    /// transient read errors.
    pub fn new(
        seed: u64,
        rber: f64,
        write_fail_prob: f64,
        max_write_retries: u32,
        wear_stuck_threshold: u64,
        line_bits: u64,
    ) -> Self {
        FaultModel {
            seed,
            rber,
            write_fail_prob,
            max_write_retries,
            wear_stuck_threshold,
            line_bits,
            row_writes: HashMap::new(),
        }
    }

    /// A uniform draw in `[0, 1)` from the model's hash stream, keyed by
    /// the access identity and a per-access draw counter `k`.
    fn unit(&self, row: u32, line: u32, serial: u64, k: u64) -> f64 {
        let mut h = mix(self.seed ^ mix(u64::from(row)));
        h = mix(h ^ mix(u64::from(line).wrapping_shl(32) | serial));
        h = mix(h ^ k);
        // 53 high bits give a uniform double in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draws the transient-error and stuck-at outcome for a read of
    /// (`row`, `line`). `serial` is the bank's read counter at this access.
    ///
    /// Returns `(bit_errors, stuck_fault)`.
    pub fn read_faults(&self, row: u32, line: u32, serial: u64) -> (u32, bool) {
        let stuck = self.wear_stuck_threshold > 0
            && self
                .row_writes
                .get(&row)
                .is_some_and(|&w| w >= self.wear_stuck_threshold);
        if self.rber <= 0.0 {
            return (0, stuck);
        }
        // Knuth's Poisson sampler over λ = RBER · line_bits. RBERs are
        // small (≤ 1e-2) and lines are a few thousand bits, so λ stays
        // far below the sampler's numeric limits.
        let lambda = self.rber * self.line_bits as f64;
        let limit = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= self.unit(row, line, serial, u64::from(k));
            if p <= limit {
                return (k, stuck);
            }
            k += 1;
        }
    }

    /// Runs the write-verify loop for a write to (`row`, `line`).
    /// `serial` is the bank's write counter at this access.
    ///
    /// Returns `(retries, verify_failed)`: `retries` extra programming
    /// pulses were spent (each costs a full tWP on top of the first), and
    /// `verify_failed` is true if the final pulse still failed — the
    /// retry budget is exhausted and the controller must re-issue.
    /// Every pulse, successful or not, wears the row.
    pub fn write_attempts(&mut self, row: u32, line: u32, serial: u64) -> (u32, bool) {
        let mut retries = 0u32;
        let mut failed = false;
        if self.write_fail_prob > 0.0 {
            loop {
                let u = self.unit(row, line, serial, 0x100 + u64::from(retries));
                if u >= self.write_fail_prob {
                    break;
                }
                if retries == self.max_write_retries {
                    failed = true;
                    break;
                }
                retries += 1;
            }
        }
        if self.wear_stuck_threshold > 0 {
            *self.row_writes.entry(row).or_insert(0) += u64::from(retries) + 1;
        }
        (retries, failed)
    }

    /// Serialize the model's only mutable state — the per-row wear
    /// counters — in sorted key order so checkpoints are deterministic.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("faults");
        let mut rows: Vec<(u32, u64)> = self.row_writes.iter().map(|(&k, &v)| (k, v)).collect();
        rows.sort_unstable();
        w.usize(rows.len());
        for (row, writes) in rows {
            w.u32(row);
            w.u64(writes);
        }
    }

    /// Restore wear counters written by [`FaultModel::save_state`]. The
    /// immutable hash parameters are rebuilt from configuration, not the
    /// checkpoint.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("faults")?;
        let n = r.count()?;
        let mut rows = HashMap::with_capacity(n);
        for _ in 0..n {
            let row = r.u32()?;
            let writes = r.u64()?;
            rows.insert(row, writes);
        }
        self.row_writes = rows;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_draw_nothing() {
        let mut m = FaultModel::new(7, 0.0, 0.0, 3, 0, 2048);
        assert_eq!(m.read_faults(5, 1, 0), (0, false));
        assert_eq!(m.write_attempts(5, 1, 0), (0, false));
        // Wear tracking disabled: the map stays empty.
        assert!(m.row_writes.is_empty());
    }

    #[test]
    fn fault_streams_are_deterministic() {
        let a = FaultModel::new(42, 1e-3, 0.3, 4, 0, 2048);
        let b = FaultModel::new(42, 1e-3, 0.3, 4, 0, 2048);
        for serial in 0..200 {
            assert_eq!(
                a.read_faults(serial as u32 % 16, 0, serial),
                b.read_faults(serial as u32 % 16, 0, serial)
            );
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = FaultModel::new(1, 5e-3, 0.0, 0, 0, 2048);
        let b = FaultModel::new(2, 5e-3, 0.0, 0, 0, 2048);
        let errs = |m: &FaultModel| -> u32 {
            (0..500).map(|s| m.read_faults(s as u32 % 32, 0, s).0).sum()
        };
        // Both streams see errors, but not the same stream.
        assert!(errs(&a) > 0 && errs(&b) > 0);
        let same = (0..500)
            .filter(|&s| a.read_faults(s as u32 % 32, 0, s) == b.read_faults(s as u32 % 32, 0, s))
            .count();
        assert!(same < 500, "seeds produced identical streams");
    }

    #[test]
    fn rber_scales_error_count() {
        let lo = FaultModel::new(9, 1e-4, 0.0, 0, 0, 2048);
        let hi = FaultModel::new(9, 1e-2, 0.0, 0, 0, 2048);
        let count = |m: &FaultModel| -> u32 {
            (0..2000)
                .map(|s| m.read_faults(s as u32 % 64, 0, s).0)
                .sum()
        };
        assert!(count(&hi) > count(&lo) * 4);
    }

    #[test]
    fn always_failing_writes_exhaust_the_budget() {
        let mut m = FaultModel::new(3, 0.0, 1.0, 2, 0, 2048);
        assert_eq!(m.write_attempts(0, 0, 0), (2, true));
        // Retry cap 0: a single pulse, immediately reported failed.
        let mut m = FaultModel::new(3, 0.0, 1.0, 0, 0, 2048);
        assert_eq!(m.write_attempts(0, 0, 0), (0, true));
    }

    #[test]
    fn retry_rate_tracks_fail_probability() {
        let mut m = FaultModel::new(11, 0.0, 0.4, 8, 0, 2048);
        let mut retries = 0u64;
        let mut failures = 0u64;
        for s in 0..2000 {
            let (r, f) = m.write_attempts(s as u32 % 64, 0, s);
            retries += u64::from(r);
            failures += u64::from(f);
        }
        // E[retries] ≈ p/(1-p) ≈ 0.67 per write; failures need 9 straight
        // misses (0.4^9 ≈ 2.6e-4) so they are rare but the retry mass is
        // substantial.
        assert!(retries > 800 && retries < 2000, "retries = {retries}");
        assert!(failures < 20, "failures = {failures}");
    }

    #[test]
    fn wear_accumulates_into_stuck_faults() {
        let mut m = FaultModel::new(5, 0.0, 0.0, 0, 10, 2048);
        for s in 0..9 {
            m.write_attempts(3, 0, s);
        }
        assert_eq!(m.read_faults(3, 0, 0), (0, false));
        m.write_attempts(3, 0, 9);
        assert_eq!(
            m.read_faults(3, 0, 0),
            (0, true),
            "10th write crosses the threshold"
        );
        // Other rows are unaffected.
        assert_eq!(m.read_faults(4, 0, 0), (0, false));
    }
}
