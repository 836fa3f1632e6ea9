//! A conventional DRAM bank, for the paper's motivating contrast.
//!
//! The paper's §1–§2 argue that DRAM cannot be subdivided the way NVM can:
//! its reads are *destructive* (every activation must restore the row —
//! tRAS — and precharge the bitlines — tRP — before another row opens) and
//! it must be *refreshed* periodically, both of which FgNVM's substrate
//! avoids. This model makes that contrast measurable: faster device
//! timings than PCM, but the full activate/restore/precharge cycle plus
//! rigid refresh windows that block the bank.
//!
//! Refresh is modeled as fixed windows: every `t_refi` cycles the bank is
//! unavailable for `t_rfc` cycles. Banks refresh *staggered* (each bank's
//! window is phase-shifted by `t_refi / banks`), the standard per-bank
//! scheme that keeps the channel partially available. Commands never
//! *start* inside a window; operations that started before a window may
//! overlap its beginning (a small idealization in the bank's favor).
//!
//! DRAM additionally obeys **tFAW** — at most four activations per rank
//! within any rolling `t_faw` window (a charge-pump power limit). Being a
//! rank-level constraint, it is enforced by the memory controller (see
//! `fgnvm-mem`), not per bank. NVM has no such constraint — another
//! degree of freedom the paper's design space enjoys.

use fgnvm_types::config::RowPolicy;
use fgnvm_types::geometry::Geometry;
use fgnvm_types::request::Op;
use fgnvm_types::time::{Cycle, CycleCount};
use fgnvm_types::TimingCycles;

use crate::access::{Access, AccessPlan, BlockReason, Blocked, Issued, PlanKind};
use crate::stats::BankStats;
use crate::Bank;

/// Refresh parameters in controller cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefreshCycles {
    /// Interval between refresh commands (tREFI; DDR3: 7.8 µs).
    pub t_refi: CycleCount,
    /// Duration of one refresh (tRFC; DDR3 4Gb-class: ~300 ns).
    pub t_rfc: CycleCount,
    /// Phase offset of this bank's windows (staggered per-bank refresh).
    pub phase: CycleCount,
    /// Four-activation window (tFAW; DDR3: ~30 ns = 12 cycles).
    pub t_faw: CycleCount,
}

impl RefreshCycles {
    /// DDR3-like refresh on a 400 MHz controller clock: tREFI = 7.8 µs =
    /// 3120 cycles, tRFC = 300 ns = 120 cycles, tFAW = 12 cycles.
    pub fn ddr3_like() -> Self {
        RefreshCycles {
            t_refi: CycleCount::new(3120),
            t_rfc: CycleCount::new(120),
            phase: CycleCount::ZERO,
            t_faw: CycleCount::new(12),
        }
    }

    /// This parameter set phase-shifted for bank `index` of `banks`
    /// (staggered per-bank refresh).
    pub fn staggered(self, index: u32, banks: u32) -> Self {
        let step = self.t_refi.raw() / u64::from(banks.max(1));
        RefreshCycles {
            phase: CycleCount::new(step * u64::from(index)),
            ..self
        }
    }
}

/// Conventional DRAM bank: destructive reads, precharge, refresh.
#[derive(Debug, Clone)]
pub struct DramBank {
    timing: TimingCycles,
    refresh: RefreshCycles,
    policy: RowPolicy,
    row_bits: u64,
    line_bits: u64,
    open_row: Option<u32>,
    /// Instant of the last activate (tRAS reference); `None` on a fresh
    /// (precharged) bank.
    act_at: Option<Cycle>,
    /// Column commands allowed after the activation completes.
    act_done: Cycle,
    /// Next column command slot.
    next_col: Cycle,
    /// All in-flight operations done (precharge may begin).
    quiesce: Cycle,
    stats: BankStats,
}

impl DramBank {
    /// Creates an idle DRAM bank.
    pub fn new(geometry: &Geometry, timing: TimingCycles, refresh: RefreshCycles) -> Self {
        DramBank {
            timing,
            refresh,
            policy: RowPolicy::Open,
            row_bits: u64::from(geometry.row_bytes()) * 8,
            line_bits: u64::from(geometry.line_bytes()) * 8,
            open_row: None,
            act_at: None,
            act_done: Cycle::ZERO,
            next_col: Cycle::ZERO,
            quiesce: Cycle::ZERO,
            stats: BankStats::new(),
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Sets the row-buffer policy (builder-style). Closed-page
    /// auto-precharges after every access: no row hits, but the precharge
    /// overlaps idle time instead of delaying the next activation.
    #[must_use]
    pub fn with_policy(mut self, policy: RowPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// If `now` falls inside a refresh window, the cycle the window ends.
    fn refresh_block(&self, now: Cycle) -> Option<Cycle> {
        let refi = self.refresh.t_refi.raw();
        if refi == 0 {
            return None;
        }
        // Windows start at phase, phase + tREFI, … (staggered per bank).
        let shifted = now.raw().wrapping_sub(self.refresh.phase.raw());
        if now.raw() < self.refresh.phase.raw() {
            return None; // before this bank's first window
        }
        let offset = shifted % refi;
        (offset < self.refresh.t_rfc.raw())
            .then(|| Cycle::new(now.raw() - offset) + self.refresh.t_rfc)
    }

    /// Earliest instant a *different* row can be activated: in-flight ops
    /// done, tRAS satisfied since the last activate, then tRP precharge.
    /// A fresh (precharged) bank activates immediately.
    fn row_switch_ready(&self) -> Cycle {
        match self.act_at {
            None => self.quiesce,
            Some(act_at) => {
                let ras_done = act_at + self.timing.t_ras;
                self.quiesce.max(ras_done) + self.timing.t_rp
            }
        }
    }

    fn column_ready(&self) -> Cycle {
        self.act_done.max(self.next_col)
    }
}

impl Bank for DramBank {
    fn plan(&self, access: &Access, now: Cycle) -> Result<AccessPlan, Blocked> {
        let t = &self.timing;
        let row_open = self.open_row == Some(access.row);
        let (ready, kind, lead) = if row_open {
            let lead = match access.op {
                Op::Read => t.t_cas,
                Op::Write => t.t_cwd,
            };
            let kind = match access.op {
                Op::Read => PlanKind::RowHit,
                Op::Write => PlanKind::Write,
            };
            (self.column_ready(), kind, lead)
        } else {
            let lead = match access.op {
                Op::Read => t.t_rcd + t.t_cas,
                Op::Write => t.t_rcd + t.t_cwd,
            };
            let kind = match access.op {
                Op::Read => PlanKind::Activate,
                Op::Write => PlanKind::Write,
            };
            (self.row_switch_ready(), kind, lead)
        };
        let refreshing = self.refresh_block(now).is_some();
        if refreshing || now < ready {
            let reason = if refreshing {
                BlockReason::BankBusy
            } else if row_open {
                BlockReason::ColumnPath
            } else {
                BlockReason::RowLocked
            };
            // The access needs its own gate *and* the bank out of refresh:
            // the first instant from its gate on outside every window
            // (windows never abut, as tREFI exceeds tRFC). Skipping past a
            // window the gate lands in keeps the retry stable as the clock
            // enters that window (see `Bank::plan`).
            let gate = now.max(ready);
            return Err(Blocked {
                reason,
                retry_at: self.refresh_block(gate).unwrap_or(gate),
            });
        }
        Ok(AccessPlan {
            kind,
            earliest_data: now + lead,
            sense_bits: if kind == PlanKind::Activate {
                self.row_bits
            } else {
                0
            },
        })
    }

    fn commit(
        &mut self,
        access: &Access,
        plan: &AccessPlan,
        now: Cycle,
        data_start: Cycle,
    ) -> Issued {
        assert!(
            data_start >= plan.earliest_data,
            "data burst scheduled before the bank can deliver it"
        );
        let t = self.timing;
        let shift = data_start - plan.earliest_data;
        let cmd = now + shift;
        let data_end = data_start + t.t_burst;
        let row_open = self.open_row == Some(access.row);
        if !row_open {
            // Activation (destructive read): the row must later be
            // restored; tRAS runs from here.
            self.stats.activations += 1;
            self.open_row = Some(access.row);
            self.act_at = Some(cmd);
            self.act_done = cmd + t.t_rcd;
            self.next_col = self.act_done + t.t_ccd;
            if access.op.is_read() {
                self.stats.sensed_bits += plan.sense_bits;
            }
        } else {
            self.next_col = cmd + t.t_ccd;
        }
        let completion = match access.op {
            Op::Read => {
                self.stats.reads += 1;
                if plan.kind == PlanKind::RowHit {
                    self.stats.row_hits += 1;
                }
                data_end
            }
            Op::Write => {
                self.stats.writes += 1;
                self.stats.written_bits += self.line_bits;
                // DRAM write: data burst + write recovery (no tWP).
                data_end + t.t_wr
            }
        };
        self.quiesce = self.quiesce.max(completion);
        if self.policy == RowPolicy::Closed {
            // Auto-precharge. Under closed page every access activates at
            // `cmd`; the precharge may start once the row is restored
            // (tRAS from the ACT) and the column op has handed its data
            // to the I/O FIFO (read-to-precharge ≈ tCCD after the column
            // command; writes must also finish recovery). The burst can
            // still be draining — that is the policy's whole point: tRP
            // runs in the background instead of on the next request's
            // critical path.
            let ras_done = cmd + t.t_ras;
            let pre_start = match access.op {
                Op::Read => ras_done.max(cmd + t.t_rcd + t.t_ccd),
                Op::Write => ras_done.max(completion),
            };
            self.quiesce = self.quiesce.max(pre_start + t.t_rp);
            self.open_row = None;
            self.act_at = None;
        }
        Issued {
            data_start,
            data_end,
            completion,
            sense_bits: plan.sense_bits,
            kind: plan.kind,
            // DRAM is outside the NVM fault model's scope.
            faults: crate::faults::FaultOutcome::default(),
        }
    }

    fn stats(&self) -> &BankStats {
        &self.stats
    }

    fn next_ready_hint(&self, now: Cycle) -> Cycle {
        self.column_ready().min(self.row_switch_ready()).max(now)
    }

    fn plan_class(&self, access: &Access) -> u128 {
        // `plan` reads the access only through the op and whether its row
        // is the open row; refresh windows gate by `now` alone.
        u128::from(access.op.is_read()) | u128::from(self.open_row == Some(access.row)) << 1
    }

    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("bank.dram");
        w.opt_u32(self.open_row);
        w.opt_u64(self.act_at.map(Cycle::raw));
        w.u64(self.act_done.raw());
        w.u64(self.next_col.raw());
        w.u64(self.quiesce.raw());
        self.stats.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("bank.dram")?;
        self.open_row = r.opt_u32()?;
        self.act_at = r.opt_u64()?.map(Cycle::new);
        self.act_done = Cycle::new(r.u64()?);
        self.next_col = Cycle::new(r.u64()?);
        self.quiesce = Cycle::new(r.u64()?);
        self.stats = BankStats::load_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_types::address::TileCoord;
    use fgnvm_types::TimingConfig;

    fn dram() -> DramBank {
        let geom = Geometry::builder().sags(1).cds(1).build().unwrap();
        let timing = TimingConfig::ddr3_like().to_cycles().unwrap();
        DramBank::new(&geom, timing, RefreshCycles::ddr3_like())
    }

    fn read(row: u32, line: u32) -> Access {
        Access {
            op: Op::Read,
            row,
            line,
            coord: TileCoord {
                sag: 0,
                cd_first: 0,
                cd_count: 1,
            },
        }
    }

    #[test]
    fn refresh_window_blocks_the_bank() {
        let b = dram();
        // Cycle 0 is inside the first refresh window (phase 0 < tRFC).
        let blocked = b.plan(&read(0, 0), Cycle::ZERO).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::BankBusy);
        assert_eq!(blocked.retry_at, Cycle::new(120));
        // After the window the bank accepts.
        assert!(b.plan(&read(0, 0), Cycle::new(120)).is_ok());
        // The next window starts at tREFI.
        let blocked = b.plan(&read(0, 0), Cycle::new(3120 + 5)).unwrap_err();
        assert_eq!(blocked.retry_at, Cycle::new(3120 + 120));
    }

    #[test]
    fn dram_reads_are_faster_than_pcm() {
        let mut b = dram();
        let now = Cycle::new(200);
        let a = read(3, 0);
        let p = b.plan(&a, now).unwrap();
        // DDR3-like: tRCD 6 + tCL 6 = 12 cycles to data, far below PCM's 48.
        assert_eq!((p.earliest_data - now).raw(), 12);
        let issued = b.commit(&a, &p, now, p.earliest_data);
        assert!(issued.completion < now + CycleCount::new(20));
    }

    #[test]
    fn row_switch_pays_ras_and_rp() {
        let mut b = dram();
        let now = Cycle::new(200);
        let a = read(3, 0);
        let p = b.plan(&a, now).unwrap();
        b.commit(&a, &p, now, p.earliest_data);
        // A different row must wait for tRAS (from ACT) then tRP.
        let blocked = b.plan(&read(9, 0), Cycle::new(201)).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::RowLocked);
        // The burst ends at 216 (> tRAS at 214); +tRP 6 → 222.
        assert_eq!(blocked.retry_at, Cycle::new(222));
        assert!(b.plan(&read(9, 0), Cycle::new(222)).is_ok());
    }

    #[test]
    fn hits_pipeline_and_sense_once() {
        let mut b = dram();
        let now = Cycle::new(200);
        let a = read(3, 0);
        let p = b.plan(&a, now).unwrap();
        b.commit(&a, &p, now, p.earliest_data);
        let t1 = Cycle::new(212);
        let hit = read(3, 1);
        let p2 = b.plan(&hit, t1).unwrap();
        assert_eq!(p2.kind, PlanKind::RowHit);
        assert_eq!(p2.sense_bits, 0);
        b.commit(&hit, &p2, t1, p2.earliest_data);
        assert_eq!(b.stats().sensed_bits, 8192); // one activation only
        assert_eq!(b.stats().row_hits, 1);
    }

    #[test]
    fn fresh_bank_activates_without_precharge_penalty() {
        let mut b = dram();
        let now = Cycle::new(130); // outside bank 0's refresh window
        let a = read(3, 0);
        let p = b.plan(&a, now).unwrap();
        // No phantom tRAS/tRP on a precharged idle bank.
        assert_eq!(p.earliest_data, now + CycleCount::new(12));
        b.commit(&a, &p, now, p.earliest_data);
        // Subsequent switches do pay tRAS/tRP.
        let blocked = b.plan(&read(9, 0), now + CycleCount::new(1)).unwrap_err();
        assert!(blocked.retry_at > now + CycleCount::new(12));
    }

    #[test]
    fn staggered_refresh_offsets_windows() {
        let geom = Geometry::builder().sags(1).cds(1).build().unwrap();
        let timing = TimingConfig::ddr3_like().to_cycles().unwrap();
        let refresh = RefreshCycles::ddr3_like().staggered(4, 8);
        let b = DramBank::new(&geom, timing, refresh);
        // Bank 4 of 8: phase = 3120/8 × 4 = 1560. Cycle 0 is open...
        assert!(b.plan(&read(0, 0), Cycle::ZERO).is_ok());
        // ...and its window covers 1560..1680.
        let blocked = b.plan(&read(0, 0), Cycle::new(1565)).unwrap_err();
        assert_eq!(blocked.retry_at, Cycle::new(1560 + 120));
    }

    #[test]
    fn closed_page_hides_precharge_but_forfeits_hits() {
        let geom = Geometry::builder().sags(1).cds(1).build().unwrap();
        let timing = TimingConfig::ddr3_like().to_cycles().unwrap();
        let mut b = DramBank::new(&geom, timing, RefreshCycles::ddr3_like())
            .with_policy(fgnvm_types::config::RowPolicy::Closed);
        let now = Cycle::new(200);
        let a = read(3, 0);
        let p = b.plan(&a, now).unwrap();
        b.commit(&a, &p, now, p.earliest_data);
        assert_eq!(b.open_row(), None, "closed page auto-precharges");
        // A *different* row activates as soon as restore + precharge
        // finish in the background: tRAS(14 from ACT at 200) → 214, +tRP
        // 6 → 220, vs 222 under open-page (precharge starts only at the
        // switch, after the burst ends at 216).
        let blocked = b.plan(&read(9, 0), Cycle::new(201)).unwrap_err();
        assert_eq!(blocked.retry_at, Cycle::new(220));
        // The SAME row also re-activates — no hits under closed page.
        let p2 = b.plan(&read(3, 1), Cycle::new(220)).unwrap();
        assert_eq!(p2.kind, PlanKind::Activate);
    }

    #[test]
    fn writes_have_no_program_time() {
        let mut b = dram();
        let now = Cycle::new(200);
        let w = Access {
            op: Op::Write,
            ..read(5, 0)
        };
        let p = b.plan(&w, now).unwrap();
        let issued = b.commit(&w, &p, now, p.earliest_data);
        // tRCD 6 + tCWD 4 + tBURST 4 + tWR 6 = 20 cycles, vs PCM's ~77.
        assert_eq!(issued.completion, now + CycleCount::new(20));
    }
}
