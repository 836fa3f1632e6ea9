//! The two `serve` workloads.
//!
//! The untraced run calls `fgnvm_sim::serve` as a user would. The traced
//! run drives its own loop over the public `MemorySystem` calls, with a
//! timer around each call into a layer; that loop must reproduce the
//! untraced run's metrics registry byte for byte, or it would be
//! measuring a different program.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fgnvm_mem::MemorySystem;
use fgnvm_obs::Registry;
use fgnvm_sim::{AdmissionPolicy, ServeConfig, ServeState};
use fgnvm_types::config::{SchedulerKind, SystemConfig};
use fgnvm_types::{Completion, Cycle, Op, PhysAddr};
use fgnvm_workloads::{parse_tenants, ArrivalKind, TenantSpec, TenantStream};

use crate::layers;
use crate::metrics::{self, frac, Acc};
use crate::report::{Kind, Report};
use crate::spans::Spans;
use crate::timing;

/// The parameter file both serve workloads run on.
const CONFIG: &str = "configs/fgnvm_8x2.cfg";

/// `serve-loaded`: the tenant form of the legacy default stream.
const LOADED_TENANTS: &str = "load:poisson:gap=12:read=65:mix=hot64";
const LOADED_OPS: u64 = 100_000;

/// `serve-tenants`: a read-mostly hot-set tenant with a read-p99 SLO, a
/// scan tenant on the upper half of the address space, and a write-heavy
/// MMPP batch tenant whose bursts overflow the queues.
const MIXED_TENANTS: &str = "hot:poisson:gap=40:read=90:mix=hot64:slo=400,\
     scan:poisson:gap=80:read=80:mix=50-100,\
     batch:mmpp:calm=400:burst=1:dwell-calm=4000:dwell-burst=250:read=20";
const MIXED_OPS: u64 = 120_000;

/// One serve workload, fully built from its seed.
pub struct Workload {
    /// The memory configuration.
    pub config: SystemConfig,
    /// The serve knobs, tenants included.
    pub sc: ServeConfig,
    /// Requests the arrival streams generate before the run ends.
    pub generated: u64,
}

/// Builds a serve workload. `ckpt_dir` receives its checkpoints, if it
/// takes any.
pub fn setup(name: &str, seed: u64, ckpt_dir: &Path) -> Result<Workload, String> {
    let text = std::fs::read_to_string(CONFIG).map_err(|e| format!("{CONFIG}: {e}"))?;
    let mut config =
        fgnvm_types::parse_system_config(&text).map_err(|e| format!("{CONFIG}: {e}"))?;
    let mixed = name == "serve-tenants";
    let (spec, ops) = if mixed {
        config.scheduler = SchedulerKind::FrfcfsQos;
        (MIXED_TENANTS, MIXED_OPS)
    } else {
        (LOADED_TENANTS, LOADED_OPS)
    };
    let tenants = parse_tenants(spec).map_err(|e| e.to_string())?;
    let lines = config.geometry.capacity_bytes() / u64::from(config.geometry.line_bytes());
    let (generated, last_arrival) = arrival_plan(seed, &tenants, ops, lines);
    let mut sc = ServeConfig {
        // Far past the last arrival: every run ends by draining.
        horizon: last_arrival.saturating_mul(2) + 1_000_000,
        ops,
        seed,
        tenants,
        policy: AdmissionPolicy::Reject,
        ..ServeConfig::default()
    };
    if mixed {
        sc.audit = true;
        sc.checkpoint_every = last_arrival.div_ceil(3).max(1);
        sc.checkpoint_dir = Some(ckpt_dir.to_path_buf());
    }
    MemorySystem::new(config).map_err(|e| e.to_string())?;
    Ok(Workload {
        config,
        sc,
        generated,
    })
}

/// Replays the tenants' arrival streams in the order the serve loop
/// admits them — earliest arrival first, ties to the lower tenant id —
/// and returns how many requests are generated and the cycle of the last.
fn arrival_plan(seed: u64, tenants: &[TenantSpec], ops: u64, lines: u64) -> (u64, u64) {
    let mut streams: Vec<(TenantStream, u64)> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut s = TenantStream::new(seed, i as u16);
            let first = s.next_gap(&t.arrival, 0).unwrap_or(u64::MAX);
            (s, first)
        })
        .collect();
    let mut last = 0;
    for generated in 0..ops {
        let Some(i) = (0..streams.len())
            .filter(|&i| streams[i].1 < u64::MAX)
            .min_by_key(|&i| (streams[i].1, i))
        else {
            return (generated, last);
        };
        let (stream, at) = &mut streams[i];
        last = *at;
        stream.next_op(&tenants[i], lines);
        *at = next_arrival(stream, &tenants[i].arrival, last);
    }
    (ops, last)
}

fn next_arrival(stream: &mut TenantStream, arrival: &ArrivalKind, arrived_at: u64) -> u64 {
    match stream.next_gap(arrival, arrived_at) {
        Some(gap) => arrived_at.saturating_add(gap.max(1)),
        None => u64::MAX,
    }
}

fn params(report: &mut Report, w: &Workload) {
    report.param("config", CONFIG);
    report.param("scheduler", format!("{:?}", w.config.scheduler));
    report.param("tenants", fgnvm_workloads::render_tenants(&w.sc.tenants));
    report.param("ops", w.sc.ops);
    report.param("horizon", w.sc.horizon);
    report.param("policy", w.sc.policy.name());
    report.param("audit", w.sc.audit);
    report.param("telemetry_window", w.sc.telemetry_window);
    report.param("checkpoint_every", w.sc.checkpoint_every);
}

/// Splits a flat registry JSON object into `(name, value)` pairs.
fn json_fields(json: &str) -> Vec<(&str, &str)> {
    let body = json.trim().trim_start_matches('{').trim_end_matches('}');
    let mut out = Vec::new();
    let mut in_str = false;
    let mut start = 0;
    let bytes = body.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => in_str = !in_str,
            b',' if !in_str => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out.iter()
        .filter_map(|f| f.split_once("\":"))
        .map(|(k, v)| (k.trim_start_matches('"'), v))
        .collect()
}

fn field(json: &str, name: &str) -> f64 {
    json_fields(json)
        .iter()
        .find(|(k, _)| *k == name)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0.0)
}

/// The simulated counters of a serve run: the memory system's counters
/// and the serve loop's own, without the observer's.
fn sim_counters(metrics_json: &str) -> String {
    json_fields(metrics_json)
        .iter()
        .filter(|(k, _)| {
            (k.starts_with("mem.") && !k.starts_with("mem.audit."))
                || k.starts_with("bank.")
                || k.starts_with("serve.")
        })
        .map(|(k, v)| format!("{k}={v};"))
        .collect()
}

/// The untraced run: repeats the workload for `seconds`, then checks the
/// last repetition's report.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    tmp: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let timed = timing::repeat(
        seconds,
        || setup(name, seed, tmp),
        |w| {
            let _ = std::fs::remove_dir_all(tmp);
            let r = fgnvm_sim::serve(w.config, &w.sc).map_err(|e| e.to_string())?;
            let digest = fgnvm_sim::profile::fnv1a_hex(sim_counters(&r.metrics_json).as_bytes());
            Ok((r, digest))
        },
    )?;
    let (w, r) = (&timed.setup, &timed.out);
    params(report, w);
    conservation(report, w, r);
    if w.sc.checkpoint_every > 0 {
        check_resume(report, w, r, tmp)?;
    }

    let failed = w.generated.saturating_sub(r.completions);
    report.attempted = w.generated;
    report.failed = failed;
    timed.report(report, r.completions as f64);
    report.add(
        "failed_frac",
        frac(failed as f64, w.generated as f64),
        "ratio",
        Kind::Modelled,
    );
    let m = &r.metrics_json;
    report.add(
        "sim_read_lat_mean_cyc",
        field(m, "mem.avg_read_latency"),
        "cycles",
        Kind::Modelled,
    );
    report.add(
        "sim_write_lat_mean_cyc",
        field(m, "mem.avg_write_latency"),
        "cycles",
        Kind::Modelled,
    );
    if name == "serve-tenants" {
        report.add(
            "sim_refused_frac",
            metrics::refused_frac(r.rejected, r.admitted),
            "ratio",
            Kind::Modelled,
        );
    }
    Ok(())
}

/// Request conservation: everything admitted completed, the serve report and
/// the memory system agree on the totals, per-tenant tables fold to
/// them, and the attribution classified every cycle.
fn conservation(report: &mut Report, w: &Workload, r: &fgnvm_sim::ServeReport) {
    let m = &r.metrics_json;
    let mem_done = field(m, "mem.completed_reads") + field(m, "mem.completed_writes");
    let mem_in = field(m, "mem.enqueued_reads") + field(m, "mem.enqueued_writes");
    let t_done: u64 = r.tenants.iter().map(|t| t.completions).sum();
    let t_in: u64 = r.tenants.iter().map(|t| t.admitted).sum();
    let failed = w.generated.saturating_sub(r.completions);
    let problems: Vec<&str> = [
        (
            r.completions + failed == w.generated,
            "more completions than generated requests",
        ),
        (
            r.completions == r.admitted,
            "admitted requests did not all complete",
        ),
        (
            mem_done == r.completions as f64,
            "memory and serve completions differ",
        ),
        (
            mem_in == r.admitted as f64,
            "memory and serve admissions differ",
        ),
        (
            t_done == r.completions && t_in == r.admitted,
            "tenant tables do not fold",
        ),
        (
            r.admitted.saturating_sub(r.retried) <= w.generated,
            "more first admissions than arrivals",
        ),
        (
            field(m, "obs.attr.unclassified") == 0.0,
            "obs_attr_unclassified != 0",
        ),
    ]
    .iter()
    .filter(|(ok, _)| !ok)
    .map(|(_, why)| *why)
    .collect();
    report.check(
        "conservation",
        problems.is_empty(),
        format!(
            "generated={} admitted={} completed={} failed={} {}",
            w.generated,
            r.admitted,
            r.completions,
            failed,
            problems.join("; ")
        ),
    );
}

/// Checkpoint files a run left in `dir`, in cycle order.
fn checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().to_string();
            let cycle = name
                .strip_prefix("ckpt-")?
                .strip_suffix(".ckpt")?
                .parse()
                .ok()?;
            Some((cycle, e.path()))
        })
        .collect();
    out.sort();
    out
}

/// `resume()` from the middle checkpoint must reproduce the
/// uninterrupted run's metrics byte for byte.
fn check_resume(
    report: &mut Report,
    w: &Workload,
    r: &fgnvm_sim::ServeReport,
    dir: &Path,
) -> Result<(), String> {
    let ckpts = checkpoints(dir);
    let Some((cycle, path)) = ckpts.get(ckpts.len() / 2) else {
        report.check("resume", false, "no checkpoint was written");
        return Ok(());
    };
    let resumed = fgnvm_sim::resume(w.config, path, &w.sc).map_err(|e| e.to_string())?;
    report.check(
        "resume",
        resumed.metrics_json == r.metrics_json,
        format!("from cycle {cycle} of {} checkpoints", ckpts.len()),
    );
    Ok(())
}

/// What a traced pass switches on.
#[derive(Debug, Clone, Copy)]
struct Mode {
    observer: bool,
    audit: bool,
    checkpoints: bool,
}

/// Per-call timers of one traced pass.
#[derive(Debug, Default)]
struct Layers {
    tick: Acc,
    tick_cycles: u64,
    next_event: Acc,
    enqueue: Acc,
    refused: u64,
    telemetry: Acc,
    save: Acc,
    write: Acc,
    export: Acc,
    /// The benchmark's own bookkeeping (latency histograms, checkpoint
    /// comparison), excluded from the loop's self time.
    bench: Acc,
    snapshot_bytes: u64,
}

impl Layers {
    fn children_ns(&self) -> u64 {
        [
            self.tick,
            self.next_event,
            self.enqueue,
            self.telemetry,
            self.save,
            self.write,
            self.export,
            self.bench,
        ]
        .iter()
        .map(|a| a.ns)
        .sum()
    }
}

/// One tenant's slice of the loop state.
struct TenantState {
    stream: TenantStream,
    next_arrival_at: u64,
    admitted: u64,
    rejected: u64,
    retried: u64,
    completions: u64,
    slo_windows: u64,
    slo_violations: u64,
}

/// A refused request waiting out its backoff.
#[derive(Clone, Copy)]
struct Waiting {
    retry_at: u64,
    op_index: u64,
    attempts: u32,
    op: Op,
    addr: PhysAddr,
    tenant: u16,
}

/// The benchmark's serve loop: the admission, backoff, telemetry and
/// checkpoint policy of `fgnvm_sim::serve` under the Reject policy and
/// per-tenant SLOs the workloads use, driven through public calls. The
/// registry comparison in [`traced`] catches any divergence.
struct ServeLoop<'a> {
    sc: &'a ServeConfig,
    tenants: Vec<TenantState>,
    backoff: Vec<Waiting>,
    next_op: u64,
    completions: u64,
    last_progress: u64,
    rejected: u64,
    retried: u64,
    admitted: u64,
    windows_seen: u64,
    layers: Layers,
    /// Exact read-latency histograms, per tenant.
    read_lat: Vec<Vec<u64>>,
}

/// Everything a traced pass leaves behind.
struct Pass {
    mem: MemorySystem,
    layers: Layers,
    metrics_json: String,
    sim: String,
    read_lat: Vec<Vec<u64>>,
    completions: u64,
    /// Checkpoints this pass wrote whose bytes differ from the reference
    /// run's at the same cycle.
    ckpt_mismatch: Vec<u64>,
}

impl<'a> ServeLoop<'a> {
    fn new(sc: &'a ServeConfig) -> Self {
        let tenants = sc
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut stream = TenantStream::new(sc.seed, i as u16);
                let next_arrival_at = stream.next_gap(&spec.arrival, 0).unwrap_or(u64::MAX);
                TenantState {
                    stream,
                    next_arrival_at,
                    admitted: 0,
                    rejected: 0,
                    retried: 0,
                    completions: 0,
                    slo_windows: 0,
                    slo_violations: 0,
                }
            })
            .collect();
        ServeLoop {
            sc,
            read_lat: vec![Vec::new(); sc.tenants.len()],
            tenants,
            backoff: Vec::new(),
            next_op: 0,
            completions: 0,
            last_progress: 0,
            rejected: 0,
            retried: 0,
            admitted: 0,
            windows_seen: 0,
            layers: Layers::default(),
        }
    }

    fn enqueue(&mut self, mem: &mut MemorySystem, op: Op, addr: PhysAddr, tenant: u16) -> bool {
        let t = Instant::now();
        let ok = mem.enqueue_for(op, addr, tenant).is_some();
        self.layers.enqueue.record(t);
        if !ok {
            self.layers.refused += 1;
        }
        ok
    }

    /// Counts a refusal and schedules the retry after an exponential
    /// backoff.
    fn requeue(&mut self, w: Waiting, now: u64) -> Waiting {
        self.rejected += 1;
        if let Some(t) = self.tenants.get_mut(usize::from(w.tenant)) {
            t.rejected += 1;
        }
        let delay = self
            .sc
            .backoff_base
            .saturating_mul(1u64 << w.attempts.min(32))
            .min(self.sc.backoff_max.max(1));
        Waiting {
            retry_at: now + delay.max(1),
            attempts: w.attempts.saturating_add(1),
            ..w
        }
    }

    /// Closes the telemetry windows ending at or before `now` and burns
    /// the SLOs of the newly closed ones.
    fn close_windows(&mut self, mem: &mut MemorySystem, now: u64) {
        let t = Instant::now();
        mem.sample_telemetry_gauges();
        if let Some(ts) = mem.observer_mut().and_then(|o| o.timeseries_mut()) {
            ts.roll_to(now);
            let ts = mem
                .observer()
                .and_then(|o| o.timeseries())
                .expect("rolled above");
            for w in ts.windows() {
                if w.index < self.windows_seen {
                    continue;
                }
                self.windows_seen = w.index + 1;
                for (i, (spec, ts)) in self.sc.tenants.iter().zip(&mut self.tenants).enumerate() {
                    if spec.slo_read_p99 == 0 {
                        continue;
                    }
                    ts.slo_windows += 1;
                    if let Some(slice) = w.tenants.get(i) {
                        if slice.read_latency.percentile(0.99) > spec.slo_read_p99 {
                            ts.slo_violations += 1;
                        }
                    }
                }
            }
        }
        self.layers.telemetry.record(t);
    }

    fn absorb(&mut self, out: &[Completion]) {
        let t = Instant::now();
        self.completions += out.len() as u64;
        for c in out {
            let tenant = usize::from(c.tenant);
            if let Some(ts) = self.tenants.get_mut(tenant) {
                ts.completions += 1;
            }
            if c.op.is_read() {
                if let Some(h) = self.read_lat.get_mut(tenant) {
                    metrics::hist_add(h, c.latency().raw());
                }
            }
        }
        if let Some(last) = out.iter().map(|c| c.finished.raw()).max() {
            self.last_progress = self.last_progress.max(last);
        }
        self.layers.bench.record(t);
    }

    /// Drives `mem` to the end of the run. In `ref_ckpts` mode each
    /// checkpoint is saved with the reference run's serve state at the
    /// same cycle and compared with the reference file.
    fn run(
        &mut self,
        mem: &mut MemorySystem,
        mode: Mode,
        ref_ckpts: &[(u64, PathBuf, ServeState)],
        out_dir: &Path,
        mismatch: &mut Vec<u64>,
    ) -> Result<(), String> {
        let sc = self.sc;
        let line_bytes = u64::from(mem.config().geometry.line_bytes());
        let lines = mem.config().geometry.capacity_bytes() / line_bytes.max(1);
        let window = (sc.telemetry_window > 0).then_some(sc.telemetry_window);
        let mut out: Vec<Completion> = Vec::new();
        loop {
            let now = mem.now().raw();
            if now >= sc.horizon {
                break;
            }
            let earliest = self
                .tenants
                .iter()
                .map(|t| t.next_arrival_at)
                .min()
                .unwrap_or(u64::MAX);
            let arrivals_left = self.next_op < sc.ops && earliest < u64::MAX;
            let work_pending = !mem.is_idle() || !self.backoff.is_empty();
            if !arrivals_left && !work_pending {
                break;
            }
            let mut target = sc.horizon;
            if arrivals_left {
                target = target.min(earliest);
            }
            if let Some(r) = self.backoff.iter().map(|b| b.retry_at).min() {
                target = target.min(r);
            }
            if let Some(k) = now.checked_div(sc.checkpoint_every) {
                target = target.min((k + 1) * sc.checkpoint_every);
            }
            if sc.watchdog_cycles > 0 && work_pending {
                target = target.min(self.last_progress.saturating_add(sc.watchdog_cycles));
            }
            if let Some(win) = window {
                target = target.min((now / win + 1).saturating_mul(win));
            }
            if !mem.is_idle() {
                let t = Instant::now();
                let ev = mem.next_event_at();
                self.layers.next_event.record(t);
                if let Some(ev) = ev {
                    target = target.min(ev.raw().max(now + 1));
                }
            }
            if target > now {
                out.clear();
                let t = Instant::now();
                mem.tick_to(Cycle::new(target), &mut out);
                self.layers.tick.record(t);
                self.layers.tick_cycles += target - now;
                self.absorb(&out);
            }
            let now = mem.now().raw();

            let work_pending = !mem.is_idle() || !self.backoff.is_empty();
            if sc.watchdog_cycles > 0
                && work_pending
                && now.saturating_sub(self.last_progress) >= sc.watchdog_cycles
            {
                return Err(format!("serve watchdog tripped at cycle {now}"));
            }
            mem.check_capacity().map_err(|e| e.to_string())?;
            if let Some(win) = window {
                if mode.observer && now > 0 && now.is_multiple_of(win) {
                    self.close_windows(mem, now);
                }
            }

            self.backoff
                .sort_unstable_by_key(|b| (b.retry_at, b.op_index));
            let mut still_waiting = Vec::new();
            for entry in std::mem::take(&mut self.backoff) {
                if entry.retry_at > now {
                    still_waiting.push(entry);
                } else if self.enqueue(mem, entry.op, entry.addr, entry.tenant) {
                    self.admitted += 1;
                    self.retried += 1;
                    if let Some(t) = self.tenants.get_mut(usize::from(entry.tenant)) {
                        t.admitted += 1;
                        t.retried += 1;
                    }
                    self.last_progress = self.last_progress.max(now);
                } else {
                    still_waiting.push(self.requeue(entry, now));
                }
            }
            self.backoff = still_waiting;

            while self.next_op < sc.ops {
                let Some(ti) = (0..self.tenants.len())
                    .filter(|&i| self.tenants[i].next_arrival_at <= now)
                    .min_by_key(|&i| (self.tenants[i].next_arrival_at, i))
                else {
                    break;
                };
                let spec = &sc.tenants[ti];
                let op_index = self.next_op;
                self.next_op += 1;
                let ts = &mut self.tenants[ti];
                let arrived_at = ts.next_arrival_at;
                let (op, line) = ts.stream.next_op(spec, lines);
                ts.next_arrival_at = next_arrival(&mut ts.stream, &spec.arrival, arrived_at);
                let addr = PhysAddr::new(line * line_bytes);
                let tenant = ti as u16;
                if self.enqueue(mem, op, addr, tenant) {
                    self.admitted += 1;
                    self.tenants[ti].admitted += 1;
                    self.last_progress = self.last_progress.max(now);
                } else {
                    let w = Waiting {
                        retry_at: now,
                        op_index,
                        attempts: 0,
                        op,
                        addr,
                        tenant,
                    };
                    let w = self.requeue(w, now);
                    self.backoff.push(w);
                }
            }

            if mode.checkpoints
                && sc.checkpoint_every > 0
                && now > 0
                && now.is_multiple_of(sc.checkpoint_every)
            {
                self.checkpoint(mem, now, ref_ckpts, out_dir, mismatch)?;
            }
        }
        if mode.observer && window.is_some() {
            self.close_windows(mem, mem.now().raw());
        }
        Ok(())
    }

    fn checkpoint(
        &mut self,
        mem: &MemorySystem,
        now: u64,
        ref_ckpts: &[(u64, PathBuf, ServeState)],
        out_dir: &Path,
        mismatch: &mut Vec<u64>,
    ) -> Result<(), String> {
        let Some((_, ref_path, state)) = ref_ckpts.iter().find(|(c, _, _)| *c == now) else {
            mismatch.push(now);
            return Ok(());
        };
        let t = Instant::now();
        let blob = fgnvm_sim::save_checkpoint(state, mem);
        self.layers.save.record(t);
        self.layers.snapshot_bytes += blob.len() as u64;
        let t = Instant::now();
        let path = out_dir.join(format!("traced-{now:012}.ckpt"));
        let tmp = out_dir.join(format!("traced-{now:012}.ckpt.tmp"));
        std::fs::write(&tmp, &blob)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        self.layers.write.record(t);
        let t = Instant::now();
        let reference =
            std::fs::read(ref_path).map_err(|e| format!("{}: {e}", ref_path.display()))?;
        if reference != blob {
            mismatch.push(now);
        }
        self.layers.bench.record(t);
        Ok(())
    }

    /// The run's metrics registry, in the order `serve` builds it.
    fn registry(&self, mem: &MemorySystem) -> Registry {
        let mut reg = Registry::new();
        mem.export_metrics(&mut reg);
        if let Some(obs) = mem.observer() {
            obs.export_metrics(&mut reg);
        }
        reg.set_counter("serve.admitted", self.admitted);
        reg.set_counter("serve.completions", self.completions);
        reg.set_counter("serve.rejected", self.rejected);
        reg.set_counter("serve.retried", self.retried);
        reg.set_counter("serve.blocked_cycles", 0);
        reg.set_counter("serve.windows_emitted", self.windows_seen);
        reg.set_counter("serve.slo_windows", 0);
        reg.set_counter("serve.slo_violations", 0);
        reg.set_counter("serve.final_cycle", mem.now().raw());
        for (i, t) in self.tenants.iter().enumerate() {
            let p = format!("serve.tenant.{i}");
            reg.set_counter(&format!("{p}.admitted"), t.admitted);
            reg.set_counter(&format!("{p}.completions"), t.completions);
            reg.set_counter(&format!("{p}.rejected"), t.rejected);
            reg.set_counter(&format!("{p}.retried"), t.retried);
            reg.set_counter(&format!("{p}.slo_windows"), t.slo_windows);
            reg.set_counter(&format!("{p}.slo_violations"), t.slo_violations);
        }
        reg
    }
}

/// One traced pass over the workload with the given layers on.
fn pass(
    w: &Workload,
    mode: Mode,
    ref_ckpts: &[(u64, PathBuf, ServeState)],
    out_dir: &Path,
) -> Result<Pass, String> {
    let mut mem = MemorySystem::new(w.config).map_err(|e| e.to_string())?;
    mem.set_fast_forward(true);
    if mode.observer {
        mem.enable_observer();
    }
    mem.enable_command_log(1 << 16);
    if mode.observer && w.sc.telemetry_window > 0 {
        mem.enable_telemetry(w.sc.telemetry_window, 128, 256);
    }
    if mode.audit {
        mem.enable_audit();
    }
    let mut serve_loop = ServeLoop::new(&w.sc);
    let mut ckpt_mismatch = Vec::new();
    serve_loop.run(&mut mem, mode, ref_ckpts, out_dir, &mut ckpt_mismatch)?;
    let t = Instant::now();
    let metrics_json = serve_loop.registry(&mem).to_json();
    serve_loop.layers.export.record(t);
    // Only the pass that runs the workload's own layers can reproduce
    // the observer and serve counters; every pass shares the memory's.
    let mut mem_reg = Registry::new();
    mem.export_metrics(&mut mem_reg);
    let sim = format!(
        "{}|final={}|admitted={}|completions={}|rejected={}|retried={}",
        mem_reg.to_json(),
        mem.now().raw(),
        serve_loop.admitted,
        serve_loop.completions,
        serve_loop.rejected,
        serve_loop.retried
    );
    Ok(Pass {
        mem,
        completions: serve_loop.completions,
        layers: serve_loop.layers,
        metrics_json,
        sim,
        read_lat: serve_loop.read_lat,
        ckpt_mismatch,
    })
}

/// The traced run: a reference `serve()` call, then the benchmark's own
/// loop with the workload's layers on (timed per call), with the
/// observer off, and with the other audit setting; layers inside
/// `tick_to` are the differences between those passes.
pub fn traced(
    name: &str,
    seed: u64,
    tmp: &Path,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<Vec<(&'static str, f64)>, String> {
    let w = setup(name, seed, tmp)?;
    params(report, &w);
    let _ = std::fs::remove_dir_all(tmp);
    std::fs::create_dir_all(tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;

    let span = spans.open("reference.serve", None);
    let reference = fgnvm_sim::serve(w.config, &w.sc).map_err(|e| e.to_string())?;
    spans.close(span);
    let ref_wall = spans.duration_s(span);
    report.runs = 1;
    report.digest = fgnvm_sim::profile::fnv1a_hex(sim_counters(&reference.metrics_json).as_bytes());
    report.attempted = w.generated;
    report.failed = w.generated.saturating_sub(reference.completions);
    conservation(report, &w, &reference);

    let mut ref_ckpts = Vec::new();
    for (cycle, path) in checkpoints(tmp) {
        let (state, _) =
            fgnvm_sim::load_checkpoint_file(w.config, &path).map_err(|e| e.to_string())?;
        ref_ckpts.push((cycle, path, state));
    }
    let mut restore = Acc::default();
    if let Some((_, path, _)) = ref_ckpts.get(ref_ckpts.len() / 2) {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let t = Instant::now();
        fgnvm_sim::load_checkpoint(w.config, &bytes).map_err(|e| e.to_string())?;
        restore.record(t);
    }

    let with_audit = Mode {
        observer: true,
        audit: true,
        checkpoints: false,
    };
    let obs_only = Mode {
        audit: false,
        ..with_audit
    };
    let off = Mode {
        observer: false,
        ..obs_only
    };
    let main_mode = Mode {
        checkpoints: w.sc.checkpoint_every > 0,
        ..(if w.sc.audit { with_audit } else { obs_only })
    };
    let main_span = spans.open("pass.main", None);
    let main = pass(&w, main_mode, &ref_ckpts, tmp)?;
    spans.close(main_span);
    let pass_s = spans.duration_s(main_span);
    report.check(
        "traced_loop_reproduces_serve",
        main.metrics_json == reference.metrics_json,
        "metrics registry byte-identical to serve()",
    );
    report.check(
        "traced_checkpoints_match",
        main.ckpt_mismatch.is_empty() && main.layers.save.calls == ref_ckpts.len() as u64,
        format!(
            "{} checkpoints saved, mismatched at {:?}",
            main.layers.save.calls, main.ckpt_mismatch
        ),
    );

    // The other two passes only time layers and count; they must leave
    // the simulated counters identical.
    let span = spans.open("pass.audit_toggled", None);
    let other = pass(&w, if w.sc.audit { obs_only } else { with_audit }, &[], tmp)?;
    spans.close(span);
    let (audit_pass, obs_pass) = if w.sc.audit {
        (&main, &other)
    } else {
        (&other, &main)
    };
    let audit = audit_pass
        .mem
        .observer()
        .and_then(|o| o.audit())
        .expect("the audit pass runs the audit");
    let sched = layers::sched_metrics(&[audit], audit_pass.mem.now().raw());
    let audit_s = audit_pass.layers.tick.secs() - obs_pass.layers.tick.secs();
    let obs_tick = obs_pass.layers.tick.secs();
    let same_other = other.sim == main.sim;
    drop(other);
    let span = spans.open("pass.observer_off", None);
    let off_pass = pass(&w, off, &[], tmp)?;
    spans.close(span);
    let hooks_s = obs_tick - off_pass.layers.tick.secs();
    report.check(
        "counting_passes_leave_counters_identical",
        same_other && off_pass.sim == main.sim,
        "audit-toggled and observer-off passes",
    );
    drop(off_pass);

    let l = &main.layers;
    let mem = &main.mem;
    let stats = mem.stats();
    let banks = mem.bank_stats();
    let final_cycle = mem.now().raw();
    let channels = f64::from(mem.config().geometry.channels());
    let requests = main.completions as f64;
    let obs = mem.observer().expect("main pass runs the observer");
    let mut all_reads = Vec::new();
    for h in &main.read_lat {
        metrics::hist_merge(&mut all_reads, h);
    }
    let tenant_p99 = |i: usize| {
        main.read_lat
            .get(i)
            .map_or(0.0, |h| metrics::hist_percentile(h, 0.99) as f64)
    };
    let mut m = vec![
        ("mem.tick_s", l.tick.secs()),
        ("mem.tick_calls", l.tick.calls as f64),
        ("mem.ns_per_req", frac(l.tick.ns as f64, requests)),
        ("mem.next_event_s", l.next_event.secs()),
        ("mem.next_event_calls", l.next_event.calls as f64),
        ("mem.enqueue_s", l.enqueue.secs()),
        ("mem.enqueue_calls", l.enqueue.calls as f64),
        (
            "mem.enqueue_refused_frac",
            frac(l.refused as f64, l.enqueue.calls as f64),
        ),
        ("mem.leap_frac", metrics::leap_frac(l.tick_cycles, 0)),
        ("mem.hops", l.tick.calls as f64),
        (
            "mem.cycles_per_hop",
            frac(l.tick_cycles as f64, l.tick.calls as f64),
        ),
        (
            "mem.read_lat_p50_cyc",
            metrics::hist_percentile(&all_reads, 0.5) as f64,
        ),
        (
            "mem.read_lat_p99_cyc",
            metrics::hist_percentile(&all_reads, 0.99) as f64,
        ),
        ("mem.t0.read_lat_p99_cyc", tenant_p99(0)),
        ("mem.t1.read_lat_p99_cyc", tenant_p99(1)),
        ("mem.t2.read_lat_p99_cyc", tenant_p99(2)),
        ("mem.read_queue_depth_mean", stats.avg_read_queue_depth()),
        (
            "mem.bus_busy_frac",
            frac(
                mem.bus_busy_cycles().raw() as f64,
                final_cycle as f64 * channels,
            ),
        ),
    ];
    m.extend(sched);
    m.extend(layers::bank_metrics(&banks));
    m.extend(layers::attr_metrics(&[
        obs.attribution.reads,
        obs.attribution.writes,
    ]));
    m.extend([
        ("obs.hooks_s", hooks_s),
        ("obs.audit_s", audit_s),
        ("obs.telemetry_s", l.telemetry.secs()),
        ("obs.export_s", l.export.secs()),
        ("obs.trace_events", obs.trace.len() as f64),
        ("obs.attr_records", obs.attribution.requests.len() as f64),
        ("snapshot.save_s", l.save.secs()),
        ("snapshot.write_s", l.write.secs()),
        ("snapshot.restore_s", restore.secs()),
        ("snapshot.bytes", l.snapshot_bytes as f64),
        (
            "snapshot.bytes_per_req",
            frac(l.snapshot_bytes as f64, requests),
        ),
        ("sim.driver_self_s", pass_s - l.children_ns() as f64 * 1e-9),
        ("trace.overhead_frac", pass_s / ref_wall - 1.0),
    ]);
    Ok(m)
}
