//! Bottleneck attribution: an exact stall-cycle decomposition per request.
//!
//! Every cycle of every completed request's lifetime is classified into
//! exactly one bucket of an exhaustive stall taxonomy ([`StallCause`]):
//!
//! | bucket | meaning |
//! |---|---|
//! | `queue-wait` | queued but no modeled resource blocked it (scheduler order, issue-width, drain policy) |
//! | `sag-conflict` | an earlier access held the target subarray group (per-SAG single open row / rook rule) |
//! | `cd-conflict` | an earlier access held an overlapping column division's sense path |
//! | `global-io` | the shared global I/O bus (or rank turnaround) delayed the data burst |
//! | `tfaw-window` | a DRAM rank's four-activation window gated the issue |
//! | `write-block` | a write's programming occupancy blocked the access |
//! | `verify-retry` | write verify-retry extension: on-die `k·tWP` retries plus controller re-issues |
//! | `underfetch-resense` | the extra `tRCD` sensing a column slice the open row never fetched |
//! | `ctrl-overhead` | controller-side work: ECC decode tail, forwarding/merge handling |
//! | `service` | intrinsic device service: sense, burst, programming |
//!
//! The decomposition is a *partition* of `[arrival, completion)` — buckets
//! sum **exactly** to the end-to-end latency, by construction, for every
//! request. `fgnvm-check` enforces this as a conservation invariant.
//!
//! The same open-request record also yields the five-part
//! queue/retry/bank/bus/tail [`LatencyBreakdown`] per operation class (see
//! [`span`](crate::span)): one map of in-flight requests feeds both views.
//!
//! Attribution is computed purely from the lifecycle hooks
//! (`on_enqueued` / `on_command` / `on_completed`), which fire identically
//! under cycle stepping and event-driven fast-forward — so attribution
//! output is bit-identical across stepping modes, like every other
//! observer artifact. Pre-issue waits are classified by replaying the
//! per-bank command history analytically (resource windows plus a
//! reconstructed tFAW schedule), never by probing per-cycle state: one
//! sweep over the edges of the windows and tFAW gates that overlap the
//! wait.

use std::collections::HashMap;

use crate::bank_map::BankMap;
use crate::json::number;
use crate::span::LatencyBreakdown;
use crate::{CommandIssue, InstantKind};

/// Number of taxonomy buckets.
pub const BUCKETS: usize = 10;

/// The exhaustive stall taxonomy. Every attributed cycle lands in exactly
/// one of these buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Queued with no modeled resource blocking (scheduler order,
    /// commands-per-cycle limit, drain policy).
    QueueWait = 0,
    /// Target subarray group held by an earlier access (per-SAG single
    /// open row; the rook-placement rule's row axis).
    SagConflict = 1,
    /// Overlapping column division's sense/IO path held by an earlier
    /// access (the rook-placement rule's column axis).
    CdConflict = 2,
    /// Shared global I/O serialization: bus busy or rank-to-rank
    /// turnaround pushed the data burst later than the bank allowed.
    GlobalIo = 3,
    /// DRAM four-activation window (tFAW) gated the issue.
    TfawWindow = 4,
    /// A write's programming occupancy blocked the access.
    WriteBlock = 5,
    /// Write verify-retry extension: on-die retries (`k·tWP`) plus
    /// controller-level re-issues after verify-budget exhaustion.
    VerifyRetry = 6,
    /// Extra `tRCD` re-sensing a column slice the open row never fetched
    /// (the paper's underfetch case).
    UnderfetchResense = 7,
    /// Controller-side overhead: ECC decode tail, forward/merge handling.
    CtrlOverhead = 8,
    /// Intrinsic device service: sensing, data burst, cell programming.
    Service = 9,
}

impl StallCause {
    /// Every bucket, in canonical (JSON/report) order.
    pub const ALL: [StallCause; BUCKETS] = [
        StallCause::QueueWait,
        StallCause::SagConflict,
        StallCause::CdConflict,
        StallCause::GlobalIo,
        StallCause::TfawWindow,
        StallCause::WriteBlock,
        StallCause::VerifyRetry,
        StallCause::UnderfetchResense,
        StallCause::CtrlOverhead,
        StallCause::Service,
    ];

    /// Stable display label, used in JSON documents and report tables.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::QueueWait => "queue-wait",
            StallCause::SagConflict => "sag-conflict",
            StallCause::CdConflict => "cd-conflict",
            StallCause::GlobalIo => "global-io",
            StallCause::TfawWindow => "tfaw-window",
            StallCause::WriteBlock => "write-block",
            StallCause::VerifyRetry => "verify-retry",
            StallCause::UnderfetchResense => "underfetch-resense",
            StallCause::CtrlOverhead => "ctrl-overhead",
            StallCause::Service => "service",
        }
    }
}

/// Maps a discrete instant to the bucket its latency cost lands in.
///
/// The match is exhaustive on purpose (no `_` arm): adding an
/// [`InstantKind`] without deciding its attribution is a compile error.
pub fn classify_instant(kind: InstantKind) -> StallCause {
    match kind {
        InstantKind::EccCorrected => StallCause::CtrlOverhead,
        InstantKind::EccUncorrectable => StallCause::CtrlOverhead,
        InstantKind::WriteReissue => StallCause::VerifyRetry,
        InstantKind::Remap => StallCause::CtrlOverhead,
        InstantKind::Watchdog => StallCause::QueueWait,
        // Wear-out escalation events are controller bookkeeping: retiring a
        // row, flipping a bank read-only, and declaring capacity exhaustion
        // all happen on the controller side of the command path.
        InstantKind::RowRetired => StallCause::CtrlOverhead,
        InstantKind::BankReadOnly => StallCause::CtrlOverhead,
        InstantKind::CapacityExhausted => StallCause::CtrlOverhead,
    }
}

/// Maps a command plan-kind label to the bucket its *intrinsic* pre-burst
/// time (issue → earliest data) lands in. Returns `None` for labels the
/// taxonomy does not know — the observer counts those as unclassified and
/// the `fgnvm-check` invariant fails the run, so a new command kind cannot
/// ship silently unattributed.
pub fn classify_command(label: &str) -> Option<StallCause> {
    match label {
        "row-hit" => Some(StallCause::Service),
        "activate" => Some(StallCause::Service),
        "underfetch" => Some(StallCause::UnderfetchResense),
        "write" => Some(StallCause::Service),
        _ => None,
    }
}

/// Static model facts the classifier needs, derived from the system
/// configuration when the observer is attached to a memory system.
#[derive(Debug, Clone, Copy)]
pub struct AttributionParams {
    /// Subarray groups per bank.
    pub sags: u32,
    /// Column divisions per bank.
    pub cds: u32,
    /// The bank serializes all accesses (baseline/DRAM, or Multi-Activation
    /// disabled): any in-flight access conflicts regardless of tile.
    pub serialized: bool,
    /// Sensing always fetches the whole row (Partial-Activation disabled):
    /// a read's sense spans every column division.
    pub full_row_sense: bool,
    /// A programming write occupies the whole bank (Backgrounded Writes
    /// disabled).
    pub write_blocks_bank: bool,
    /// Activate-to-data delay, used to carve the underfetch re-sense cost.
    pub t_rcd: u64,
    /// Per-attempt write programming time, used to size verify-retry
    /// extensions.
    pub t_wp: u64,
    /// Rolling four-activation window (DRAM only).
    pub t_faw: Option<u64>,
    /// Banks per rank, for mapping bank index → rank.
    pub banks_per_rank: u32,
}

impl AttributionParams {
    /// Conservative defaults for observers built without a configuration:
    /// tile-level conflicts only, no tFAW, no timing carve-outs.
    pub fn bare(sags: u32, cds: u32) -> Self {
        AttributionParams {
            sags,
            cds,
            serialized: false,
            full_row_sense: false,
            write_blocks_bank: false,
            t_rcd: 0,
            t_wp: 0,
            t_faw: None,
            banks_per_rank: 1,
        }
    }
}

/// One completed request's attributed lifetime.
#[derive(Debug, Clone, Copy)]
pub struct RequestAttribution {
    /// Request id.
    pub id: u64,
    /// True for reads.
    pub is_read: bool,
    /// Tenant the request belonged to (0 for untagged traffic).
    pub tenant: u16,
    /// Arrival cycle.
    pub arrival: u64,
    /// Completion cycle.
    pub completion: u64,
    /// Cycles attributed per bucket, indexed by [`StallCause`] as usize.
    pub cycles: [u64; BUCKETS],
}

impl RequestAttribution {
    /// Sum of all attributed cycles. The conservation invariant demands
    /// this equals `completion - arrival` exactly.
    pub fn attributed(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

/// Aggregated attribution for one operation class (reads or writes).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTotals {
    /// Completed requests folded in.
    pub count: u64,
    /// Total end-to-end cycles across those requests.
    pub total: u64,
    /// Cycles per bucket, summed over requests.
    pub cycles: [u64; BUCKETS],
    /// Requests whose largest bucket was this one (the per-request
    /// critical path).
    pub dominant: [u64; BUCKETS],
}

impl ClassTotals {
    fn fold(&mut self, r: &RequestAttribution) {
        self.count += 1;
        self.total += r.completion.saturating_sub(r.arrival);
        let mut best = 0usize;
        for (i, c) in r.cycles.iter().enumerate() {
            self.cycles[i] += c;
            if *c > r.cycles[best] {
                best = i;
            }
        }
        self.dominant[best] += 1;
    }

    /// Share of total cycles per bucket (zeros when nothing completed).
    pub fn shares(&self) -> [f64; BUCKETS] {
        let mut out = [0.0; BUCKETS];
        if self.total > 0 {
            for (o, c) in out.iter_mut().zip(self.cycles.iter()) {
                *o = *c as f64 / self.total as f64;
            }
        }
        out
    }

    fn to_json(self) -> String {
        let buckets: Vec<String> = StallCause::ALL
            .iter()
            .map(|b| format!("\"{}\":{}", b.label(), self.cycles[*b as usize]))
            .collect();
        let dominant: Vec<String> = StallCause::ALL
            .iter()
            .map(|b| format!("\"{}\":{}", b.label(), self.dominant[*b as usize]))
            .collect();
        format!(
            "{{\"count\":{},\"total\":{},\"buckets\":{{{}}},\"dominant\":{{{}}}}}",
            self.count,
            self.total,
            buckets.join(","),
            dominant.join(",")
        )
    }
}

/// A past command's resource-occupancy window on one bank.
#[derive(Debug, Clone, Copy)]
struct Window {
    at: u64,
    end: u64,
    is_write: bool,
    sag: u32,
    cd_first: u32,
    cd_count: u32,
}

impl Window {
    fn span(&self) -> u64 {
        self.end.saturating_sub(self.at)
    }
}

/// One bank's command history, pruned as requests retire.
#[derive(Debug, Clone)]
struct BankWindows {
    windows: Vec<Window>,
    /// An upper bound on every window's `end - at`: a window starting at
    /// or before `w0 - max_span` ended by `w0`. Not serialized; rebuilt
    /// from the windows on restore.
    max_span: u64,
    /// `windows` are in nondecreasing `at` order, as an in-order command
    /// stream records them; only then can a dead prefix be skipped.
    sorted: bool,
}

impl BankWindows {
    fn new(windows: Vec<Window>) -> Self {
        BankWindows {
            max_span: windows.iter().map(Window::span).max().unwrap_or(0),
            sorted: windows.windows(2).all(|p| p[0].at <= p[1].at),
            windows,
        }
    }

    fn push(&mut self, w: Window) {
        self.sorted &= self.windows.last().is_none_or(|last| last.at <= w.at);
        self.max_span = self.max_span.max(w.span());
        self.windows.push(w);
    }

    /// The windows that can still end after `w0`.
    fn live_after(&self, w0: u64) -> &[Window] {
        if !self.sorted {
            return &self.windows;
        }
        let dead = self
            .windows
            .partition_point(|w| w.at.saturating_add(self.max_span) <= w0);
        &self.windows[dead..]
    }
}

/// Blocking levels of a pre-issue wait, weakest first; a cycle no level
/// covers is queueing.
const LEVELS: [StallCause; 4] = [
    StallCause::TfawWindow,
    StallCause::CdConflict,
    StallCause::SagConflict,
    StallCause::WriteBlock,
];

/// One edge of the classifier's sweep: at `pos`, a blocker of level
/// index `level` starts (`opens`) or stops.
type Edge = (u64, u8, bool);

#[derive(Debug, Clone, Copy)]
struct OpenReq {
    arrival: u64,
    is_read: bool,
    tenant: u16,
    /// Start of the not-yet-attributed suffix of the lifetime; after the
    /// first issue, the end of the latest data burst.
    mark: u64,
    first_issue: u64,
    last_issue: u64,
    data_start: u64,
    cycles: [u64; BUCKETS],
    issues: u32,
    last_retries: u32,
}

/// The attribution tracker: hooks in, exact per-request decompositions out.
#[derive(Debug, Default)]
pub struct Attribution {
    params: AttributionParams,
    open: HashMap<u64, OpenReq>,
    /// Per-(channel, bank) command history.
    windows: BankMap<BankWindows>,
    /// Per-(channel, rank) activation start cycles (tFAW reconstruction).
    acts: BankMap<Vec<u64>>,
    /// The classifier's edge buffer, reused across commands.
    edges: Vec<Edge>,
    /// Aggregate over completed reads.
    pub reads: ClassTotals,
    /// Aggregate over completed writes.
    pub writes: ClassTotals,
    /// Per-request records, in completion order.
    pub requests: Vec<RequestAttribution>,
    /// Commands whose plan-kind label the taxonomy did not recognize.
    /// Non-zero fails the `fgnvm-check` attribution invariant.
    pub unclassified: u64,
    /// Five-part latency breakdown over completed reads.
    pub read_spans: LatencyBreakdown,
    /// Five-part latency breakdown over completed writes.
    pub write_spans: LatencyBreakdown,
    /// Completed requests that never issued a command (forwarded reads,
    /// coalesced writes).
    pub never_issued: u64,
    /// Command issues beyond the first for some request (write re-issues).
    pub reissues: u64,
    /// Transient: the pre-issue wait decomposition of the command most
    /// recently passed to [`Attribution::on_command`], reduced to its
    /// dominant bucket (ties break to the lowest bucket index) and total
    /// length. Consumed by the flight recorder within the same hook;
    /// never serialized — no checkpoint can land inside one hook.
    last_wait: Option<(StallCause, u64)>,
}

impl Default for AttributionParams {
    fn default() -> Self {
        AttributionParams::bare(1, 1)
    }
}

impl Attribution {
    /// A tracker using the given model facts.
    pub fn new(params: AttributionParams) -> Self {
        Attribution {
            params,
            ..Attribution::default()
        }
    }

    /// The model facts this tracker classifies against.
    pub fn params(&self) -> &AttributionParams {
        &self.params
    }

    /// Hook: a request entered the system.
    pub fn on_enqueued(&mut self, id: u64, is_read: bool, tenant: u16, now: u64) {
        self.open.insert(
            id,
            OpenReq {
                arrival: now,
                is_read,
                tenant,
                mark: now,
                first_issue: 0,
                last_issue: 0,
                data_start: 0,
                cycles: [0; BUCKETS],
                issues: 0,
                last_retries: 0,
            },
        );
    }

    /// Hook: a command issued. Attributes the wait since the last mark and
    /// the command's own pre-burst and burst segments, then advances the
    /// mark to the burst end (the completion hook attributes the tail).
    pub fn on_command(&mut self, cmd: &CommandIssue) {
        self.last_wait = None;
        let rank = cmd
            .bank
            .checked_div(self.params.banks_per_rank)
            .unwrap_or(0);
        // Classify before recording: a command never blocks itself.
        let intrinsic = match classify_command(cmd.kind) {
            Some(bucket) => bucket,
            None => {
                self.unclassified += 1;
                StallCause::Service
            }
        };
        if let Some(r) = self.open.get_mut(&cmd.id) {
            let w0 = r.mark;
            let at = cmd.at.max(w0);
            let before = r.cycles;
            if r.issues == 0 {
                r.first_issue = at;
                let acts = match self.params.t_faw {
                    Some(_) if is_activation(cmd.kind) => self.acts.get((cmd.channel, rank)),
                    _ => None,
                };
                classify_wait(
                    &self.params,
                    self.windows.get((cmd.channel, cmd.bank)),
                    acts.map(Vec::as_slice),
                    cmd,
                    (w0, at),
                    &mut self.edges,
                    &mut r.cycles,
                );
            } else {
                // Re-issue after verify-budget exhaustion: the whole bounce
                // (residual programming + requeue wait) is retry extension.
                self.reissues += 1;
                r.cycles[StallCause::VerifyRetry as usize] += at - w0;
            }
            if at > w0 {
                let mut best = 0usize;
                for i in 1..BUCKETS {
                    if r.cycles[i] - before[i] > r.cycles[best] - before[best] {
                        best = i;
                    }
                }
                self.last_wait = Some((StallCause::ALL[best], at - w0));
            }
            // Monotone boundary chain at ≤ e ≤ data_start ≤ data_end keeps
            // the decomposition an exact partition even on odd inputs.
            let data_start = cmd.data_start.max(at);
            let data_end = cmd.data_end.max(data_start);
            let e = cmd.earliest_data.clamp(at, data_start);
            let pre = e - at;
            if intrinsic == StallCause::UnderfetchResense {
                // The underfetch's extra sense is tRCD; anything beyond that
                // (CAS etc.) is ordinary service.
                let carve = pre.min(self.params.t_rcd);
                r.cycles[StallCause::UnderfetchResense as usize] += carve;
                r.cycles[StallCause::Service as usize] += pre - carve;
            } else {
                r.cycles[intrinsic as usize] += pre;
            }
            r.cycles[StallCause::GlobalIo as usize] += data_start - e;
            r.cycles[StallCause::Service as usize] += data_end - data_start;
            r.last_issue = at;
            r.data_start = data_start;
            r.mark = data_end;
            r.issues += 1;
            r.last_retries = cmd.retries;
        }
        // Record this command's occupancy window for later waiters.
        let end = cmd.completion.max(cmd.data_end);
        self.windows
            .get_or_insert_with((cmd.channel, cmd.bank), || BankWindows::new(Vec::new()))
            .push(Window {
                at: cmd.at,
                end,
                is_write: !cmd.is_read,
                sag: cmd.sag,
                cd_first: cmd.cd,
                cd_count: cmd.cd_count.max(1),
            });
        if self.params.t_faw.is_some() && is_activation(cmd.kind) {
            self.acts
                .get_or_insert_with((cmd.channel, rank), Vec::new)
                .push(cmd.at);
        }
        self.prune(cmd.at);
    }

    /// Hook: request `id` completed at `now`. Attributes the tail and folds
    /// the finished record into the aggregates and the latency breakdown.
    pub fn on_completed(&mut self, id: u64, now: u64) {
        let Some(mut r) = self.open.remove(&id) else {
            return;
        };
        let tail = now.saturating_sub(r.mark);
        let total = now.saturating_sub(r.arrival);
        let parts = if r.issues == 0 {
            // Never reached the array: the whole lifetime is queueing.
            self.never_issued += 1;
            [total, 0, 0, 0, 0]
        } else {
            [
                r.first_issue - r.arrival,
                r.last_issue - r.first_issue,
                r.data_start - r.last_issue,
                r.mark - r.data_start,
                tail,
            ]
        };
        if r.is_read {
            self.read_spans.record(parts, total);
        } else {
            self.write_spans.record(parts, total);
        }
        if r.issues == 0 {
            // Satisfied without touching the array (store-to-load forward,
            // write coalescing): pure controller handling.
            r.cycles[StallCause::CtrlOverhead as usize] += tail;
        } else if r.is_read {
            // Post-burst read tail is ECC decode / delivery.
            r.cycles[StallCause::CtrlOverhead as usize] += tail;
        } else {
            // Post-burst write tail is programming; on-die verify retries
            // each re-pay tWP on top of the base attempt.
            let retry = tail.min(u64::from(r.last_retries) * self.params.t_wp);
            r.cycles[StallCause::VerifyRetry as usize] += retry;
            r.cycles[StallCause::Service as usize] += tail - retry;
        }
        let record = RequestAttribution {
            id,
            is_read: r.is_read,
            tenant: r.tenant,
            arrival: r.arrival,
            completion: now.max(r.arrival),
            cycles: r.cycles,
        };
        if r.is_read {
            self.reads.fold(&record);
        } else {
            self.writes.fold(&record);
        }
        self.requests.push(record);
    }

    /// Requests currently in flight.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.reads.count + self.writes.count
    }

    /// Takes the most recent command's dominant pre-issue wait, if the
    /// command waited at all. Valid only within the same `on_command`
    /// dispatch (the next command overwrites it).
    pub fn take_last_wait(&mut self) -> Option<(StallCause, u64)> {
        self.last_wait.take()
    }

    /// Serialize the full tracker state — open requests, command-history
    /// windows, activation history, aggregates, the per-request records and
    /// the latency breakdowns — into a checkpoint. `params` are *not*
    /// written: they are static model facts rebuilt from the configuration
    /// at restore time.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("attr");
        let mut ids: Vec<u64> = self.open.keys().copied().collect();
        ids.sort_unstable();
        w.usize(ids.len());
        for id in ids {
            let r = &self.open[&id];
            w.u64(id);
            w.u64(r.arrival);
            w.bool(r.is_read);
            w.u32(u32::from(r.tenant));
            w.u64(r.mark);
            w.u64(r.first_issue);
            w.u64(r.last_issue);
            w.u64(r.data_start);
            for c in &r.cycles {
                w.u64(*c);
            }
            w.u32(r.issues);
            w.u32(r.last_retries);
        }
        w.usize(self.windows.len());
        for (key, list) in self.windows.iter() {
            w.u32(key.0);
            w.u32(key.1);
            w.usize(list.windows.len());
            for win in &list.windows {
                w.u64(win.at);
                w.u64(win.end);
                w.bool(win.is_write);
                w.u32(win.sag);
                w.u32(win.cd_first);
                w.u32(win.cd_count);
            }
        }
        w.usize(self.acts.len());
        for (key, list) in self.acts.iter() {
            w.u32(key.0);
            w.u32(key.1);
            w.usize(list.len());
            for at in list {
                w.u64(*at);
            }
        }
        for totals in [&self.reads, &self.writes] {
            w.u64(totals.count);
            w.u64(totals.total);
            for c in &totals.cycles {
                w.u64(*c);
            }
            for d in &totals.dominant {
                w.u64(*d);
            }
        }
        w.usize(self.requests.len());
        for rec in &self.requests {
            w.u64(rec.id);
            w.bool(rec.is_read);
            w.u32(u32::from(rec.tenant));
            w.u64(rec.arrival);
            w.u64(rec.completion);
            for c in &rec.cycles {
                w.u64(*c);
            }
        }
        w.u64(self.unclassified);
        w.u64(self.never_issued);
        w.u64(self.reissues);
        self.read_spans.save_state(w);
        self.write_spans.save_state(w);
    }

    /// Restore a tracker written by [`Attribution::save_state`] into this
    /// one, replacing all mutable state but keeping the current `params`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated or mistagged stream.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("attr")?;
        let n = r.count()?;
        self.open = HashMap::with_capacity(n);
        for _ in 0..n {
            let id = r.u64()?;
            let req = OpenReq {
                arrival: r.u64()?,
                is_read: r.bool()?,
                tenant: r.u32()? as u16,
                mark: r.u64()?,
                first_issue: r.u64()?,
                last_issue: r.u64()?,
                data_start: r.u64()?,
                cycles: read_buckets(r)?,
                issues: r.u32()?,
                last_retries: r.u32()?,
            };
            self.open.insert(id, req);
        }
        let n = r.usize()?;
        self.windows = BankMap::default();
        for _ in 0..n {
            let key = (r.u32()?, r.u32()?);
            let len = r.count()?;
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                list.push(Window {
                    at: r.u64()?,
                    end: r.u64()?,
                    is_write: r.bool()?,
                    sag: r.u32()?,
                    cd_first: r.u32()?,
                    cd_count: r.u32()?,
                });
            }
            self.windows.insert(key, BankWindows::new(list));
        }
        let n = r.usize()?;
        self.acts = BankMap::default();
        for _ in 0..n {
            let key = (r.u32()?, r.u32()?);
            let len = r.count()?;
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                list.push(r.u64()?);
            }
            self.acts.insert(key, list);
        }
        for totals in [&mut self.reads, &mut self.writes] {
            totals.count = r.u64()?;
            totals.total = r.u64()?;
            totals.cycles = read_buckets(r)?;
            totals.dominant = read_buckets(r)?;
        }
        let n = r.count()?;
        self.requests = Vec::with_capacity(n);
        for _ in 0..n {
            self.requests.push(RequestAttribution {
                id: r.u64()?,
                is_read: r.bool()?,
                tenant: r.u32()? as u16,
                arrival: r.u64()?,
                completion: r.u64()?,
                cycles: read_buckets(r)?,
            });
        }
        self.unclassified = r.u64()?;
        self.never_issued = r.u64()?;
        self.reissues = r.u64()?;
        self.read_spans = LatencyBreakdown::load_state(r)?;
        self.write_spans = LatencyBreakdown::load_state(r)?;
        Ok(())
    }

    /// Drops history that can no longer affect any in-flight request: a
    /// window whose occupancy ended before every open request's mark (or
    /// before `now`, when nothing is open) can never cover a future wait.
    fn prune(&mut self, now: u64) {
        const KEEP: usize = 96;
        let over = self.windows.values().any(|v| v.windows.len() > KEEP)
            || self.acts.values().any(|v| v.len() > KEEP);
        if !over {
            return;
        }
        let horizon = self
            .open
            .values()
            .map(|r| r.mark)
            .min()
            .unwrap_or(now)
            .min(now);
        let faw = self.params.t_faw.unwrap_or(0);
        for list in self.windows.values_mut() {
            list.windows.retain(|w| w.end > horizon);
        }
        for list in self.acts.values_mut() {
            // An activation still matters while its tFAW window can gate a
            // future issue, and the sliding 4-tuples need their neighbors.
            let cut = list.len().saturating_sub(
                list.iter()
                    .rev()
                    .take_while(|a| **a + faw > horizon)
                    .count()
                    + 3,
            );
            list.drain(..cut);
        }
    }

    /// The attribution document: counts, per-class bucket totals, dominant
    /// (critical-path) tallies, and the unclassified counter.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"unclassified\":{},\"open\":{},\"read\":{},\"write\":{}}}",
            self.requests.len(),
            self.unclassified,
            self.open.len(),
            self.reads.to_json(),
            self.writes.to_json()
        )
    }

    /// The five-part latency-breakdown document: completion, never-issued,
    /// re-issue and in-flight counts plus the read and write breakdowns.
    pub fn spans_json(&self) -> String {
        format!(
            "{{\"completed\":{},\"never_issued\":{},\"reissues\":{},\"open\":{},\"read\":{},\"write\":{}}}",
            self.completed(),
            self.never_issued,
            self.reissues,
            self.open.len(),
            self.read_spans.to_json(),
            self.write_spans.to_json()
        )
    }
}

/// True for plan kinds that activate a row (and so count towards tFAW).
fn is_activation(kind: &str) -> bool {
    kind == "activate" || kind == "underfetch"
}

/// The blocking level (index into [`LEVELS`]) a past window imposes on
/// `cmd`, or `None` when it shares no resource with it.
fn window_level(p: &AttributionParams, w: &Window, cmd: &CommandIssue) -> Option<u8> {
    let sag_hit = p.serialized || w.sag == cmd.sag;
    let cd_hit = cd_overlap(
        p.full_row_sense,
        (w.cd_first, w.cd_count),
        (cmd.cd, cmd.cd_count.max(1)),
    );
    if w.is_write && (sag_hit || cd_hit || p.write_blocks_bank) {
        Some(3) // write-block
    } else if sag_hit {
        Some(2) // sag-conflict
    } else if cd_hit {
        Some(1) // cd-conflict
    } else {
        None
    }
}

/// Partitions the pre-issue wait `[w0, w1)` among blocking causes and adds
/// it to `cycles`.
///
/// Every cycle goes to the strongest blocker covering it (write-block >
/// SAG > CD > tFAW > queue): when several resources overlapped, the cycles
/// go to the structurally strongest one, and whatever no modeled resource
/// covers is queueing. `windows` is the bank's command history; `acts`,
/// the rank's activation starts when `cmd` activates under tFAW. One sweep
/// over the clipped blocker edges, sorted in the reused `edges` buffer,
/// keeps a live count per level.
fn classify_wait(
    p: &AttributionParams,
    windows: Option<&BankWindows>,
    acts: Option<&[u64]>,
    cmd: &CommandIssue,
    (w0, w1): (u64, u64),
    edges: &mut Vec<Edge>,
    cycles: &mut [u64; BUCKETS],
) {
    if w1 <= w0 {
        return;
    }
    edges.clear();
    let mut blocker = |start: u64, end: u64, level: u8| {
        let (start, end) = (start.max(w0), end.min(w1));
        if start < end {
            edges.push((start, level, true));
            edges.push((end, level, false));
        }
    };
    for w in windows.map_or(&[][..], |list| list.live_after(w0)) {
        if let Some(level) = window_level(p, w, cmd) {
            blocker(w.at, w.end, level);
        }
    }
    if let (Some(t_faw), Some(acts)) = (p.t_faw, acts) {
        // tFAW gate intervals: with four activations inside a rolling
        // window, a fifth must wait until the oldest ages out.
        for quad in acts.windows(4) {
            blocker(quad[3], quad[0] + t_faw, 0);
        }
    }
    edges.sort_unstable_by_key(|e| e.0);
    let mut live = [0u32; LEVELS.len()];
    let mut cursor = w0;
    for &(pos, level, opens) in edges.iter() {
        if pos > cursor {
            let cause = live
                .iter()
                .rposition(|n| *n > 0)
                .map_or(StallCause::QueueWait, |l| LEVELS[l]);
            cycles[cause as usize] += pos - cursor;
            cursor = pos;
        }
        if opens {
            live[level as usize] += 1;
        } else {
            live[level as usize] -= 1;
        }
    }
    // Every blocker closed by `w1`: the rest is queueing.
    cycles[StallCause::QueueWait as usize] += w1 - cursor;
}

fn read_buckets(
    r: &mut fgnvm_types::SnapshotReader<'_>,
) -> Result<[u64; BUCKETS], fgnvm_types::SnapshotError> {
    let mut out = [0u64; BUCKETS];
    for c in &mut out {
        *c = r.u64()?;
    }
    Ok(out)
}

fn cd_overlap(full_row: bool, a: (u32, u32), b: (u32, u32)) -> bool {
    full_row || (a.0 < b.0 + b.1 && b.0 < a.0 + a.1)
}

/// One what-if scenario: which buckets a structural change relieves, and
/// by how much.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable scenario name.
    pub name: &'static str,
    /// What the hypothetical change is.
    pub description: &'static str,
    /// `(bucket, relieved fraction in per-mille)` pairs.
    pub relief: &'static [(StallCause, u32)],
}

/// The named scenarios the estimator evaluates, mirroring the paper's
/// mode-comparison reasoning.
pub const SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "enable-multi-issue",
        description: "widen the global I/O path (Multi-Issue): no bus serialization",
        relief: &[(StallCause::GlobalIo, 1000)],
    },
    Scenario {
        name: "double-cds",
        description:
            "double the column divisions: halve CD sense conflicts and underfetch re-senses",
        relief: &[
            (StallCause::CdConflict, 500),
            (StallCause::UnderfetchResense, 500),
        ],
    },
    Scenario {
        name: "double-sags",
        description: "double the subarray groups: halve SAG row conflicts",
        relief: &[(StallCause::SagConflict, 500)],
    },
    Scenario {
        name: "zero-write-blocking",
        description: "perfect backgrounded writes: no write-occupancy blocking",
        relief: &[(StallCause::WriteBlock, 1000)],
    },
    Scenario {
        name: "perfect-verify",
        description: "writes verify on the first attempt: no retry extension",
        relief: &[(StallCause::VerifyRetry, 1000)],
    },
    Scenario {
        name: "infinite-issue",
        description: "no scheduler/queue/tFAW limits: issue the moment resources free",
        relief: &[
            (StallCause::QueueWait, 1000),
            (StallCause::TfawWindow, 1000),
        ],
    },
];

/// One scenario's estimated effect, per operation class and overall.
#[derive(Debug, Clone, Copy)]
pub struct WhatIfBound {
    /// The scenario evaluated.
    pub scenario: Scenario,
    /// Cycles the scenario would remove from completed reads.
    pub relieved_read: u64,
    /// Cycles the scenario would remove from completed writes.
    pub relieved_write: u64,
    /// Amdahl-style upper bound on mean read-latency speedup.
    pub read_speedup: f64,
    /// Amdahl-style upper bound on mean write-latency speedup.
    pub write_speedup: f64,
    /// Bound over all attributed cycles.
    pub overall_speedup: f64,
}

fn relieved(totals: &ClassTotals, scenario: &Scenario) -> u64 {
    scenario
        .relief
        .iter()
        .map(|(b, per_mille)| totals.cycles[*b as usize] * u64::from(*per_mille) / 1000)
        .sum()
}

fn bound(total: u64, removed: u64) -> f64 {
    if total == 0 {
        1.0
    } else {
        total as f64 / (total - removed.min(total.saturating_sub(1))) as f64
    }
}

/// Evaluates every named scenario against the attributed totals. The
/// returned speedups are *upper bounds* in the Amdahl sense: relieving a
/// bottleneck cannot shrink latency by more than the cycles attributed to
/// it (second-order effects only uncover other bottlenecks).
pub fn what_if(attr: &Attribution) -> Vec<WhatIfBound> {
    SCENARIOS
        .iter()
        .map(|s| {
            let rr = relieved(&attr.reads, s);
            let rw = relieved(&attr.writes, s);
            WhatIfBound {
                scenario: *s,
                relieved_read: rr,
                relieved_write: rw,
                read_speedup: bound(attr.reads.total, rr),
                write_speedup: bound(attr.writes.total, rw),
                overall_speedup: bound(attr.reads.total + attr.writes.total, rr + rw),
            }
        })
        .collect()
}

/// Serializes the what-if bounds as a JSON array (canonical scenario order).
pub fn what_if_json(bounds: &[WhatIfBound]) -> String {
    let items: Vec<String> = bounds
        .iter()
        .map(|b| {
            format!(
                "{{\"name\":\"{}\",\"relieved_read\":{},\"relieved_write\":{},\
                 \"read_speedup\":{},\"write_speedup\":{},\"overall_speedup\":{}}}",
                b.scenario.name,
                b.relieved_read,
                b.relieved_write,
                number(b.read_speedup),
                number(b.write_speedup),
                number(b.overall_speedup)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(id: u64, at: u64) -> CommandIssue {
        CommandIssue {
            channel: 0,
            bank: 0,
            id,
            is_read: true,
            kind: "activate",
            arrival: 0,
            at,
            earliest_data: at + 30,
            data_start: at + 30,
            data_end: at + 38,
            completion: at + 50,
            row: 1,
            sag: 0,
            cd: 0,
            cd_count: 1,
            retries: 0,
        }
    }

    #[test]
    fn uncontended_read_is_service_plus_queue() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, true, 0, 100);
        a.on_command(&cmd(1, 110));
        a.on_completed(1, 148);
        let r = &a.requests[0];
        assert_eq!(r.attributed(), 48);
        assert_eq!(r.cycles[StallCause::QueueWait as usize], 10);
        assert_eq!(r.cycles[StallCause::Service as usize], 38);
    }

    #[test]
    fn sag_conflict_wait_is_attributed() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, true, 0, 0);
        a.on_command(&cmd(1, 0)); // occupies sag 0 over [0, 50)
        a.on_enqueued(2, true, 0, 10);
        a.on_command(&cmd(2, 60)); // same sag, waited 10..60
        a.on_completed(1, 38);
        a.on_completed(2, 98);
        let r2 = a.requests.iter().find(|r| r.id == 2).unwrap();
        assert_eq!(r2.attributed(), 88);
        // Blocked by command 1's window [0,50): 40 cycles of SAG conflict,
        // then 10 cycles of plain queueing until issue at 60.
        assert_eq!(r2.cycles[StallCause::SagConflict as usize], 40);
        assert_eq!(r2.cycles[StallCause::QueueWait as usize], 10);
    }

    #[test]
    fn write_block_outranks_tile_conflicts() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, false, 0, 0);
        let mut w = cmd(1, 0);
        w.is_read = false;
        w.kind = "write";
        w.completion = 200;
        a.on_command(&w);
        a.on_enqueued(2, true, 0, 0);
        a.on_command(&cmd(2, 200));
        a.on_completed(2, 238);
        let r2 = a.requests.iter().find(|r| r.id == 2).unwrap();
        assert_eq!(r2.cycles[StallCause::WriteBlock as usize], 200);
        assert_eq!(r2.attributed(), 238);
    }

    #[test]
    fn global_io_is_the_bus_push() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(3, true, 0, 0);
        let mut c = cmd(3, 0);
        c.data_start = c.earliest_data + 6; // bus pushed the burst 6 late
        c.data_end = c.data_start + 8;
        a.on_command(&c);
        a.on_completed(3, c.data_end);
        let r = &a.requests[0];
        assert_eq!(r.cycles[StallCause::GlobalIo as usize], 6);
        assert_eq!(r.attributed(), c.data_end);
    }

    #[test]
    fn underfetch_carves_trcd() {
        let mut p = AttributionParams::bare(4, 4);
        p.t_rcd = 22;
        let mut a = Attribution::new(p);
        a.on_enqueued(4, true, 0, 0);
        let mut c = cmd(4, 0);
        c.kind = "underfetch";
        a.on_command(&c);
        a.on_completed(4, c.data_end);
        let r = &a.requests[0];
        assert_eq!(r.cycles[StallCause::UnderfetchResense as usize], 22);
        // 30 pre-burst − 22 carved + 8 burst.
        assert_eq!(r.cycles[StallCause::Service as usize], 16);
    }

    #[test]
    fn verify_retries_extend_the_write_tail() {
        let mut p = AttributionParams::bare(4, 4);
        p.t_wp = 40;
        let mut a = Attribution::new(p);
        a.on_enqueued(5, false, 0, 0);
        let mut c = cmd(5, 0);
        c.is_read = false;
        c.kind = "write";
        c.retries = 2;
        c.completion = c.data_end + 120; // (1+2)·tWP
        a.on_command(&c);
        a.on_completed(5, c.completion);
        let r = &a.requests[0];
        assert_eq!(r.cycles[StallCause::VerifyRetry as usize], 80);
        assert_eq!(r.attributed(), c.completion);
    }

    #[test]
    fn last_wait_reports_the_dominant_block() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, true, 0, 0);
        a.on_command(&cmd(1, 0)); // issued instantly — no wait
        assert_eq!(a.take_last_wait(), None);
        a.on_enqueued(2, true, 0, 10);
        a.on_command(&cmd(2, 60)); // 40 SAG-conflict + 10 queue cycles
        assert_eq!(a.take_last_wait(), Some((StallCause::SagConflict, 50)));
        assert_eq!(a.take_last_wait(), None); // consumed
    }

    /// A command bursting over `data_start..data_end`, with no bus push.
    fn issue(id: u64, at: u64, data_start: u64, data_end: u64) -> CommandIssue {
        CommandIssue {
            earliest_data: data_start,
            data_start,
            data_end,
            completion: data_end,
            ..cmd(id, at)
        }
    }

    fn write(id: u64, at: u64, data_start: u64, data_end: u64) -> CommandIssue {
        CommandIssue {
            is_read: false,
            kind: "write",
            ..issue(id, at, data_start, data_end)
        }
    }

    #[test]
    fn components_sum_to_total() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, true, 0, 100);
        a.on_command(&issue(1, 130, 160, 168));
        a.on_completed(1, 172);
        let r = &a.read_spans;
        assert_eq!(r.queue.sum(), 30);
        assert_eq!(r.retry.sum(), 0);
        assert_eq!(r.bank.sum(), 30);
        assert_eq!(r.bus.sum(), 8);
        assert_eq!(r.tail.sum(), 4);
        assert_eq!(r.total.sum(), 72);
        assert_eq!(
            r.queue.sum() + r.retry.sum() + r.bank.sum() + r.bus.sum() + r.tail.sum(),
            r.total.sum()
        );
    }

    #[test]
    fn reissue_lands_in_retry() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(7, false, 0, 0);
        a.on_command(&write(7, 10, 15, 20));
        a.on_command(&write(7, 50, 55, 60)); // re-issued after verify failure
        a.on_completed(7, 80);
        assert_eq!(a.reissues, 1);
        let w = &a.write_spans;
        assert_eq!(w.queue.sum(), 10);
        assert_eq!(w.retry.sum(), 40);
        assert_eq!(w.bank.sum(), 5);
        assert_eq!(w.bus.sum(), 5);
        assert_eq!(w.tail.sum(), 20);
        assert_eq!(w.total.sum(), 80);
    }

    #[test]
    fn forwarded_request_is_pure_queueing() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(3, true, 0, 42);
        a.on_completed(3, 42); // store-to-load forwarded, same cycle
        assert_eq!(a.never_issued, 1);
        assert_eq!(a.read_spans.queue.count(), 1);
        assert_eq!(a.read_spans.queue.sum(), 0);
        assert_eq!(a.read_spans.total.counts()[0], 1); // exercises bucket 0
    }

    #[test]
    fn unknown_completion_is_ignored() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_completed(99, 10);
        a.on_command(&issue(99, 5, 6, 7));
        assert_eq!(a.completed(), 0);
        assert_eq!(a.open_count(), 0);
    }

    #[test]
    fn breakdown_survives_a_checkpoint_between_issues() {
        let run = |checkpoint: bool| {
            let params = AttributionParams::bare(4, 4);
            let mut a = Attribution::new(params);
            a.on_enqueued(7, false, 0, 0);
            a.on_command(&write(7, 10, 15, 20));
            if checkpoint {
                let mut w = fgnvm_types::SnapshotWriter::new();
                a.save_state(&mut w);
                let bytes = w.finish();
                let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
                a = Attribution::new(params);
                a.load_state(&mut r).expect("decodes");
            }
            a.on_command(&write(7, 50, 55, 60));
            a.on_completed(7, 80);
            a
        };
        let (straight, resumed) = (run(false), run(true));
        assert_eq!(resumed.write_spans.retry.sum(), 40);
        assert_eq!(resumed.write_spans, straight.write_spans);
        assert_eq!(resumed.spans_json(), straight.spans_json());
        assert_eq!(resumed.to_json(), straight.to_json());
    }

    /// The segment-by-segment classifier the sweep replaced, kept as its
    /// oracle: it cuts `[w0, w1)` at every window and tFAW-gate edge and
    /// rescans the bank's whole history for every segment.
    fn classify_wait_by_segments(
        p: &AttributionParams,
        windows: &[Window],
        acts: Option<&[u64]>,
        cmd: &CommandIssue,
        w0: u64,
        w1: u64,
    ) -> [u64; BUCKETS] {
        let mut cycles = [0; BUCKETS];
        if w1 <= w0 {
            return cycles;
        }
        let target_cd = (cmd.cd, cmd.cd_count.max(1));
        let mut faw_gates: Vec<(u64, u64)> = Vec::new();
        if let Some(t_faw) = p.t_faw {
            if cmd.kind == "activate" || cmd.kind == "underfetch" {
                if let Some(acts) = acts {
                    for quad in acts.windows(4) {
                        let open = quad[0] + t_faw;
                        if open > quad[3] {
                            faw_gates.push((quad[3], open));
                        }
                    }
                }
            }
        }
        let mut cuts: Vec<u64> = vec![w0, w1];
        for w in windows {
            for b in [w.at, w.end] {
                if b > w0 && b < w1 {
                    cuts.push(b);
                }
            }
        }
        for (s, e) in &faw_gates {
            for b in [*s, *e] {
                if b > w0 && b < w1 {
                    cuts.push(b);
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for seg in cuts.windows(2) {
            let (s, e) = (seg[0], seg[1]);
            let mut cause = StallCause::QueueWait;
            if faw_gates.iter().any(|(gs, ge)| *gs < e && s < *ge) {
                cause = StallCause::TfawWindow;
            }
            for w in windows {
                if w.at >= e || w.end <= s {
                    continue;
                }
                let tile_hit = p.serialized
                    || w.sag == cmd.sag
                    || cd_overlap(p.full_row_sense, (w.cd_first, w.cd_count), target_cd);
                if w.is_write && (tile_hit || p.write_blocks_bank) {
                    cause = StallCause::WriteBlock;
                    break;
                }
                if p.serialized || w.sag == cmd.sag {
                    cause = StallCause::SagConflict;
                } else if cd_overlap(p.full_row_sense, (w.cd_first, w.cd_count), target_cd)
                    && cause != StallCause::SagConflict
                {
                    cause = StallCause::CdConflict;
                }
            }
            cycles[cause as usize] += e - s;
        }
        cycles
    }

    /// A uniform draw below `n`.
    fn below(rng: &mut u64, n: u64) -> u64 {
        fgnvm_types::splitmix64(rng) % n
    }

    const KINDS: [&str; 4] = ["row-hit", "activate", "underfetch", "write"];

    /// A random command on channel 0, bank `< 4`, issued at `at`.
    fn random_cmd(rng: &mut u64, id: u64, at: u64) -> CommandIssue {
        let kind = KINDS[below(rng, 4) as usize];
        // Occasionally an inverted window (device end before issue).
        let end = if below(rng, 20) == 0 {
            at.saturating_sub(below(rng, 5))
        } else {
            at + below(rng, 120)
        };
        CommandIssue {
            channel: 0,
            bank: below(rng, 4) as u32,
            id,
            is_read: kind != "write",
            kind,
            arrival: at,
            at,
            earliest_data: at,
            data_start: at,
            data_end: end.min(at + 8),
            completion: end,
            row: 0,
            sag: below(rng, 4) as u32,
            cd: below(rng, 4) as u32,
            cd_count: below(rng, 3) as u32,
            retries: 0,
        }
    }

    /// Classifies the wait `[w0, cmd.at)` through the tracker's own
    /// `on_command` path (a fresh request marked at `w0`, a zero-length
    /// pre-burst), and through the oracle over the same history.
    fn both_ways(
        a: &mut Attribution,
        cmd: &CommandIssue,
        w0: u64,
    ) -> ([u64; BUCKETS], [u64; BUCKETS]) {
        let cmd = &CommandIssue {
            earliest_data: cmd.at,
            data_start: cmd.at,
            data_end: cmd.at,
            ..*cmd
        };
        let p = a.params;
        let rank = cmd.bank.checked_div(p.banks_per_rank).unwrap_or(0);
        let windows = a
            .windows
            .get((cmd.channel, cmd.bank))
            .map(|l| l.windows.clone())
            .unwrap_or_default();
        let acts = a.acts.get((cmd.channel, rank)).cloned();
        let expected = classify_wait_by_segments(&p, &windows, acts.as_deref(), cmd, w0, cmd.at);
        a.on_enqueued(cmd.id, cmd.is_read, 0, w0);
        a.on_command(cmd);
        (a.open[&cmd.id].cycles, expected)
    }

    #[test]
    fn sweep_matches_the_segment_oracle() {
        let mut rng = 0x5eed_u64;
        let mut skipped = 0;
        for case in 0..1200u64 {
            let params = AttributionParams {
                serialized: case & 1 != 0,
                full_row_sense: case & 2 != 0,
                write_blocks_bank: case & 4 != 0,
                t_faw: (case & 8 != 0).then(|| 10 + below(&mut rng, 60)),
                banks_per_rank: 1 + below(&mut rng, 4) as u32,
                ..AttributionParams::bare(4, 4)
            };
            // Command histories of varied length (past the prune threshold
            // for some), usually in issue order, sometimes not.
            let in_order = below(&mut rng, 8) != 0;
            let len = below(&mut rng, 240);
            let mut a = Attribution::new(params);
            let mut at = 0;
            for id in 0..len {
                at = if in_order {
                    at + below(&mut rng, 12)
                } else {
                    below(&mut rng, len * 6 + 1)
                };
                let cmd = random_cmd(&mut rng, 1_000_000 + id, at);
                a.on_command(&cmd);
            }
            let mut bytes = fgnvm_types::SnapshotWriter::new();
            a.save_state(&mut bytes);
            let bytes = bytes.finish();
            let mut restored = Attribution::new(params);
            let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
            restored.load_state(&mut r).expect("decodes");
            for q in 0..4 {
                let w1 = at + below(&mut rng, 40);
                let w0 = w1.saturating_sub(below(&mut rng, 200));
                let cmd = random_cmd(&mut rng, q, w1);
                if let Some(list) = a.windows.get((0, cmd.bank)) {
                    skipped += list.windows.len() - list.live_after(w0).len();
                }
                for (tracker, label) in [(&mut a, "live"), (&mut restored, "restored")] {
                    let (got, expected) = both_ways(tracker, &cmd, w0);
                    assert_eq!(got, expected, "case {case} query {q} ({label}): {params:?}");
                }
            }
        }
        assert!(skipped > 0, "no query skipped a dead window prefix");
    }

    #[test]
    fn every_command_label_classifies() {
        for label in ["row-hit", "activate", "underfetch", "write"] {
            assert!(classify_command(label).is_some(), "{label} unclassified");
        }
        assert!(classify_command("refresh-all").is_none());
    }

    #[test]
    fn what_if_bounds_are_amdahl() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, true, 0, 0);
        a.on_command(&cmd(1, 0));
        a.on_completed(1, 38);
        let bounds = what_if(&a);
        assert_eq!(bounds.len(), SCENARIOS.len());
        for b in &bounds {
            assert!(b.overall_speedup >= 1.0);
        }
        let json = what_if_json(&bounds);
        assert!(json.starts_with("[{\"name\":\"enable-multi-issue\""));
    }
}
