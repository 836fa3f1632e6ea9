//! The `paper-figs` workload: `experiment::fig4` then `experiment::fig5`.
//!
//! The untraced run calls the two experiments as the reproduction
//! binary does. The traced run rebuilds the same (trace, config) jobs,
//! runs them through the same `run_jobs` executor with `Core::run` over a
//! timing wrapper of the public `MemoryBackend` trait, and must
//! reproduce every figure value bit for bit.

use std::cell::Cell;
use std::time::Instant;

use fgnvm_bank::BankStats;
use fgnvm_cpu::{Core, CoreResult, Trace};
use fgnvm_mem::{EnergyBreakdown, MemoryBackend, MemorySystem};
use fgnvm_obs::{AuditLog, ClassTotals};
use fgnvm_sim::runner::{effective_jobs, run_jobs, ExperimentParams};
use fgnvm_sim::{Fig4Result, Fig5Result};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::{Completion, Cycle, Op, PhysAddr, RequestId};
use fgnvm_workloads::all_profiles;

use crate::layers;
use crate::metrics::{self, frac, Acc};
use crate::report::{Kind, Report};
use crate::spans::Spans;
use crate::timing;

/// Memory operations per generated trace.
const OPS: usize = 6_000;

fn params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        ops: OPS,
        seed,
        ..ExperimentParams::full()
    }
}

/// The configurations of Fig. 4 and Fig. 5, in column order.
fn configs() -> Result<[[SystemConfig; 4]; 2], String> {
    let e = |e: fgnvm_types::ConfigError| e.to_string();
    Ok([
        [
            SystemConfig::baseline(),
            SystemConfig::fgnvm(8, 2).map_err(e)?,
            SystemConfig::many_banks_matching(8, 2).map_err(e)?,
            SystemConfig::fgnvm_multi_issue(8, 2, 2).map_err(e)?,
        ],
        [
            SystemConfig::baseline(),
            SystemConfig::fgnvm(8, 2).map_err(e)?,
            SystemConfig::fgnvm(8, 8).map_err(e)?,
            SystemConfig::fgnvm(8, 32).map_err(e)?,
        ],
    ])
}

/// Builds and validates everything the experiments are handed, and
/// generates the traces they replay to count the memory operations a
/// repetition simulates: every trace runs once per configuration.
fn setup(seed: u64) -> Result<(ExperimentParams, usize, u64), String> {
    let p = params(seed);
    let configs = configs()?;
    for cfg in configs.iter().flatten() {
        MemorySystem::new(*cfg).map_err(|e| e.to_string())?;
    }
    Core::new(p.core).map_err(|e| e.to_string())?;
    let traces = traces(&p);
    let ops: usize = traces.iter().map(Trace::len).sum();
    Ok((p, traces.len(), (ops * configs.len() * 4) as u64))
}

/// The traces `fig4` and `fig5` generate, one per profile.
fn traces(p: &ExperimentParams) -> Vec<Trace> {
    let geometry = SystemConfig::baseline().geometry;
    all_profiles()
        .iter()
        .map(|pr| pr.generate(geometry, p.seed, p.ops))
        .collect()
}

fn describe(report: &mut Report, p: &ExperimentParams, profiles: usize) {
    report.param("experiments", "fig4,fig5");
    report.param("profiles", profiles);
    report.param("configs_per_figure", 4);
    report.param("ops_per_trace", p.ops);
    report.param("jobs", effective_jobs());
}

/// Every figure value at full precision: the simulated outcome.
fn digest(f4: &Fig4Result, f5: &Fig5Result) -> String {
    fgnvm_sim::profile::fnv1a_hex(format!("{:?}{:?}", f4.rows, f5.rows).as_bytes())
}

fn figures(p: &ExperimentParams) -> Result<(Fig4Result, Fig5Result), String> {
    let f4 = fgnvm_sim::fig4(p).map_err(|e| e.to_string())?;
    let f5 = fgnvm_sim::fig5(p).map_err(|e| e.to_string())?;
    Ok((f4, f5))
}

/// The checked-in goldens, compared read-only.
fn check_goldens(report: &mut Report) -> Result<(), String> {
    for name in ["fig4", "fig5"] {
        let actual = fgnvm_sim::golden::snapshot(name)?;
        let path = fgnvm_sim::golden::golden_dir().join(format!("{name}.csv"));
        let expected =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        report.check(
            &format!("golden_{name}"),
            actual == expected,
            format!("tests/goldens/{name}.csv"),
        );
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let timed = timing::repeat(
        seconds,
        || setup(seed),
        |(p, _, _)| {
            let (f4, f5) = figures(p)?;
            let d = digest(&f4, &f5);
            Ok(((f4, f5), d))
        },
    )?;
    let (p, profiles, requests) = &timed.setup;
    let (f4, f5) = &timed.out;
    describe(report, p, *profiles);
    check_goldens(report)?;
    let values: Vec<f64> = f4
        .rows
        .iter()
        .flat_map(|r| [r.fgnvm, r.many_banks, r.multi_issue])
        .chain(
            f5.rows
                .iter()
                .flat_map(|r| [r.e8x2, r.e8x8, r.e8x32, r.perfect]),
        )
        .collect();
    report.check(
        "figures_finite",
        values.iter().all(|v| v.is_finite() && *v > 0.0),
        format!("{} values", values.len()),
    );
    report.attempted = (2 * 4 * profiles) as u64;
    report.failed = 0;
    timed.report(report, *requests as f64);
    report.add("failed_frac", 0.0, "ratio", Kind::Modelled);
    let col = |f: fn(&fgnvm_sim::experiment::Fig4Row) -> f64| -> Vec<f64> {
        f4.rows.iter().map(f).collect()
    };
    let speedup = metrics::gmean(&col(|r| r.fgnvm));
    let energy = [
        metrics::mean(&f5.rows.iter().map(|r| r.e8x2).collect::<Vec<_>>()),
        metrics::mean(&f5.rows.iter().map(|r| r.e8x8).collect::<Vec<_>>()),
        metrics::mean(&f5.rows.iter().map(|r| r.e8x32).collect::<Vec<_>>()),
    ];
    report.add("sim_ipc_speedup_gmean", speedup, "x", Kind::Modelled);
    report.add(
        "sim_mi_speedup_gmean",
        metrics::gmean(&col(|r| r.multi_issue)),
        "x",
        Kind::Modelled,
    );
    report.add("sim_energy_rel_mean", energy[0], "ratio", Kind::Modelled);
    report.add(
        "paper_err_speedup",
        metrics::paper_err_speedup(speedup),
        "ratio",
        Kind::Modelled,
    );
    report.add(
        "paper_err_energy",
        metrics::paper_err_energy(energy),
        "ratio",
        Kind::Modelled,
    );
    Ok(())
}

/// `Core::run`'s view of the memory: every trait call is timed and
/// counted before it reaches the `MemorySystem`.
struct TimedBackend<'m> {
    mem: &'m mut MemorySystem,
    step: Acc,
    leap: Acc,
    drain: Acc,
    enqueue: Acc,
    next_event: Cell<Acc>,
    refused: u64,
    step_cycles: u64,
    leap_cycles: u64,
    read_lat: Vec<u64>,
    completions: u64,
    /// The wrapper's own bookkeeping, charged to neither side.
    bench: Acc,
}

impl TimedBackend<'_> {
    fn absorb(&mut self, done: &[Completion]) {
        let t = Instant::now();
        self.completions += done.len() as u64;
        for c in done.iter().filter(|c| c.op.is_read()) {
            metrics::hist_add(&mut self.read_lat, c.latency().raw());
        }
        self.bench.record(t);
    }
}

impl MemoryBackend for TimedBackend<'_> {
    fn enqueue(&mut self, op: Op, addr: PhysAddr) -> Option<RequestId> {
        let t = Instant::now();
        let id = MemoryBackend::enqueue(self.mem, op, addr);
        self.enqueue.record(t);
        self.refused += u64::from(id.is_none());
        id
    }

    fn enqueue_prefetch(&mut self, addr: PhysAddr) -> Option<RequestId> {
        let t = Instant::now();
        let id = MemoryBackend::enqueue_prefetch(self.mem, addr);
        self.enqueue.record(t);
        self.refused += u64::from(id.is_none());
        id
    }

    fn tick_into(&mut self, out: &mut Vec<Completion>) {
        let before = out.len();
        let t = Instant::now();
        MemoryBackend::tick_into(self.mem, out);
        self.step.record(t);
        self.step_cycles += 1;
        self.absorb(&out[before..]);
    }

    fn next_event_at(&self) -> Option<Cycle> {
        let t = Instant::now();
        let at = MemoryBackend::next_event_at(&*self.mem);
        let mut acc = self.next_event.get();
        acc.record(t);
        self.next_event.set(acc);
        at
    }

    fn tick_to(&mut self, target: Cycle, out: &mut Vec<Completion>) {
        let before = out.len();
        let from = self.mem.now();
        let t = Instant::now();
        MemoryBackend::tick_to(self.mem, target, out);
        self.leap.record(t);
        self.leap_cycles += (self.mem.now() - from).raw();
        self.absorb(&out[before..]);
    }

    fn now(&self) -> Cycle {
        self.mem.now()
    }

    fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Completion> {
        let from = self.mem.now();
        let t = Instant::now();
        let done = MemoryBackend::run_until_idle(self.mem, max_cycles);
        self.drain.record(t);
        self.step_cycles += (self.mem.now() - from).raw();
        self.absorb(&done);
        done
    }
}

/// One (trace, config) job of the traced grid.
struct Job {
    trace: usize,
    config: SystemConfig,
}

/// What one traced job measured.
struct JobOut {
    core: CoreResult,
    energy: EnergyBreakdown,
    banks: BankStats,
    depth_sum: u64,
    depth_samples: u64,
    bus_busy: u64,
    mem_cycles: u64,
    channels: u64,
    step: Acc,
    leap: Acc,
    drain: Acc,
    enqueue: Acc,
    next_event: Acc,
    refused: u64,
    step_cycles: u64,
    leap_cycles: u64,
    read_lat: Vec<u64>,
    completions: u64,
    bench: Acc,
    span: (u64, u64),
    audit: Option<AuditLog>,
    attr: [ClassTotals; 2],
}

fn run_job(
    trace: &Trace,
    config: &SystemConfig,
    p: &ExperimentParams,
    counting: bool,
    origin: Instant,
) -> Result<JobOut, String> {
    let core = Core::new(p.core).map_err(|e| e.to_string())?;
    let mut mem = MemorySystem::new(*config).map_err(|e| e.to_string())?;
    mem.set_fast_forward(p.fast_forward);
    if counting {
        mem.enable_audit();
    }
    let start = origin.elapsed().as_nanos() as u64;
    let mut timed = TimedBackend {
        mem: &mut mem,
        step: Acc::default(),
        leap: Acc::default(),
        drain: Acc::default(),
        enqueue: Acc::default(),
        next_event: Cell::new(Acc::default()),
        refused: 0,
        step_cycles: 0,
        leap_cycles: 0,
        read_lat: Vec::new(),
        completions: 0,
        bench: Acc::default(),
    };
    let result = core.run(trace, &mut timed);
    let end = origin.elapsed().as_nanos() as u64;
    let TimedBackend {
        step,
        leap,
        drain,
        enqueue,
        next_event,
        refused,
        step_cycles,
        leap_cycles,
        read_lat,
        completions,
        bench,
        ..
    } = timed;
    let stats = mem.stats();
    let obs = mem.observer();
    Ok(JobOut {
        core: result,
        energy: mem.energy(),
        banks: mem.bank_stats(),
        depth_sum: stats.read_queue_depth_sum,
        depth_samples: stats.queue_depth_samples,
        bus_busy: mem.bus_busy_cycles().raw(),
        mem_cycles: mem.now().raw(),
        channels: u64::from(config.geometry.channels()),
        step,
        leap,
        drain,
        enqueue,
        next_event: next_event.get(),
        refused,
        step_cycles,
        leap_cycles,
        read_lat,
        completions,
        bench,
        span: (start, end),
        audit: obs.and_then(|o| o.audit()).cloned(),
        attr: obs.map_or([ClassTotals::default(); 2], |o| {
            [o.attribution.reads, o.attribution.writes]
        }),
    })
}

fn run_grid(
    jobs: &[Job],
    traces: &[Trace],
    p: &ExperimentParams,
    counting: bool,
    origin: Instant,
) -> Result<Vec<JobOut>, String> {
    run_jobs(jobs, |_, job| {
        run_job(&traces[job.trace], &job.config, p, counting, origin)
    })
    .into_iter()
    .collect()
}

/// Fig. 4 and Fig. 5 values rebuilt from the traced jobs, in the
/// experiments' own formulas.
fn rebuild(outs: &[JobOut], profiles: usize) -> (Vec<[f64; 3]>, Vec<[f64; 3]>) {
    let f4 = (0..profiles)
        .map(|t| {
            let base = outs[t * 4].core;
            [1, 2, 3].map(|c| outs[t * 4 + c].core.speedup_over(&base))
        })
        .collect();
    let off = profiles * 4;
    let f5 = (0..profiles)
        .map(|t| {
            let base = outs[off + t * 4].energy;
            [1, 2, 3].map(|c| outs[off + t * 4 + c].energy.relative_to(&base))
        })
        .collect();
    (f4, f5)
}

pub fn traced(
    seed: u64,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (p, profiles, _) = setup(seed)?;
    describe(report, &p, profiles);

    let reference = spans.open("reference.fig4_fig5", None);
    let (f4, f5) = figures(&p)?;
    spans.close(reference);
    let ref_wall = spans.duration_s(reference);
    report.runs = 1;
    report.digest = digest(&f4, &f5);
    check_goldens(report)?;

    let pass = spans.open("pass.traced", None);
    let origin = spans.origin();
    let gen = spans.open("figs.generate_traces", Some(pass));
    let traces = traces(&p);
    spans.close(gen);
    let [c4, c5] = configs()?;
    let jobs: Vec<Job> = [c4, c5]
        .iter()
        .flat_map(|cs| {
            (0..traces.len())
                .flat_map(move |t| cs.iter().map(move |&config| Job { trace: t, config }))
        })
        .collect();
    let duplicates = c5.iter().filter(|c| c4.contains(c)).count() * traces.len();
    let exec = spans.open("sim.run_jobs", Some(pass));
    let outs = run_grid(&jobs, &traces, &p, false, origin)?;
    spans.close(exec);
    for o in &outs {
        spans.push("core.run", Some(exec), o.span);
    }
    let (r4, r5) = rebuild(&outs, traces.len());
    spans.close(pass);
    let same4 = r4.iter().zip(&f4.rows).all(|(v, r)| {
        v.map(f64::to_bits) == [r.fgnvm, r.many_banks, r.multi_issue].map(f64::to_bits)
    });
    let same5 = r5
        .iter()
        .zip(&f5.rows)
        .all(|(v, r)| v.map(f64::to_bits) == [r.e8x2, r.e8x8, r.e8x32].map(f64::to_bits));
    report.attempted = jobs.len() as u64;
    report.failed = 0;
    report.check(
        "traced_grid_reproduces_figures",
        same4 && same5 && r4.len() == f4.rows.len() && r5.len() == f5.rows.len(),
        "every Fig. 4 speedup and Fig. 5 energy bit-identical",
    );

    let counting = spans.open("pass.counting", None);
    let counted = run_grid(&jobs, &traces, &p, true, spans.origin())?;
    spans.close(counting);
    report.check(
        "counting_pass_leaves_counters_identical",
        outs.iter()
            .zip(&counted)
            .all(|(a, b)| a.core == b.core && a.energy == b.energy && a.banks == b.banks),
        "audit and observer on, every job's core, energy and bank counters",
    );

    let sum = |f: fn(&JobOut) -> Acc| {
        outs.iter().fold(Acc::default(), |mut a, o| {
            a.merge(f(o));
            a
        })
    };
    let total = |f: fn(&JobOut) -> u64| outs.iter().map(f).sum::<u64>();
    let mut tick = sum(|o| o.step);
    tick.merge(sum(|o| o.leap));
    tick.merge(sum(|o| o.drain));
    let leap = sum(|o| o.leap);
    let next_event = sum(|o| o.next_event);
    let enqueue = sum(|o| o.enqueue);
    let mut backend = tick;
    backend.merge(next_event);
    backend.merge(enqueue);
    let requests = total(|o| o.completions) as f64;
    let mut reads = Vec::new();
    for o in &outs {
        metrics::hist_merge(&mut reads, &o.read_lat);
    }
    let mut banks = BankStats::new();
    for o in &outs {
        banks += o.banks;
    }
    let job_s: Vec<f64> = outs
        .iter()
        .map(|o| (o.span.1 - o.span.0) as f64 * 1e-9)
        .collect();
    let job_sum: f64 = job_s.iter().sum();
    let workers = effective_jobs().min(jobs.len()) as f64;
    let exec_s = spans.duration_s(exec);
    let pass_span = spans.span(pass);
    let cpu_self_ns = total(|o| o.span.1 - o.span.0) - backend.ns - total(|o| o.bench.ns);
    let p99 = metrics::hist_percentile(&reads, 0.99) as f64;

    let mut m = vec![
        ("mem.tick_s", tick.secs()),
        ("mem.tick_calls", tick.calls as f64),
        ("mem.ns_per_req", frac(tick.ns as f64, requests)),
        ("mem.next_event_s", next_event.secs()),
        ("mem.next_event_calls", next_event.calls as f64),
        ("mem.enqueue_s", enqueue.secs()),
        ("mem.enqueue_calls", enqueue.calls as f64),
        (
            "mem.enqueue_refused_frac",
            frac(total(|o| o.refused) as f64, enqueue.calls as f64),
        ),
        (
            "mem.leap_frac",
            metrics::leap_frac(total(|o| o.leap_cycles), total(|o| o.step_cycles)),
        ),
        ("mem.hops", leap.calls as f64),
        (
            "mem.cycles_per_hop",
            frac(total(|o| o.leap_cycles) as f64, leap.calls as f64),
        ),
        (
            "mem.read_lat_p50_cyc",
            metrics::hist_percentile(&reads, 0.5) as f64,
        ),
        ("mem.read_lat_p99_cyc", p99),
        ("mem.t0.read_lat_p99_cyc", p99),
        (
            "mem.read_queue_depth_mean",
            frac(
                total(|o| o.depth_sum) as f64,
                total(|o| o.depth_samples) as f64,
            ),
        ),
        (
            "mem.bus_busy_frac",
            frac(
                total(|o| o.bus_busy) as f64,
                total(|o| o.mem_cycles * o.channels) as f64,
            ),
        ),
    ];
    let logs: Vec<&AuditLog> = counted.iter().filter_map(|o| o.audit.as_ref()).collect();
    m.extend(layers::sched_metrics(
        &logs,
        counted.iter().map(|o| o.mem_cycles).sum(),
    ));
    m.extend(layers::bank_metrics(&banks));
    let attr: Vec<ClassTotals> = counted.iter().flat_map(|o| o.attr).collect();
    m.extend(layers::attr_metrics(&attr));
    m.extend([
        ("cpu.self_s", cpu_self_ns as f64 * 1e-9),
        (
            "cpu.backend_calls_per_req",
            frac(backend.calls as f64, requests),
        ),
        ("sim.jobs", jobs.len() as f64),
        ("sim.jobs_dup", duplicates as f64),
        ("sim.job_s_p50", metrics::median(&job_s)),
        ("sim.job_s_max", job_s.iter().copied().fold(0.0, f64::max)),
        ("sim.executor_busy_frac", frac(job_sum, exec_s * workers)),
        (
            "sim.driver_self_s",
            metrics::self_time(pass_span, &[spans.span(exec)]) as f64 * 1e-9,
        ),
        (
            "trace.overhead_frac",
            (pass_span.1 - pass_span.0) as f64 * 1e-9 / ref_wall - 1.0,
        ),
    ]);
    Ok(m)
}
