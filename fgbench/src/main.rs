//! `fgbench`: the FgNVM simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path fgbench/Cargo.toml -- \
//!     --workload serve-loaded --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. With `--trace 0` it repeats the
//! workload for `--seconds` and reports the end-to-end metrics; with
//! `--trace 1` it makes one traced run and reports the per-layer metrics.
//! Every line before the last is the human report (provenance, every
//! metric with its unit and whether it is host-measured or modelled, the
//! simulated-counter digest, the correctness checks); the last line is
//! the JSON result. The exit code is non-zero when a check fails.

mod figs;
mod layers;
mod metrics;
mod report;
mod serve_wl;
mod spans;
mod timing;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Kind, Report};
use spans::Spans;

const WORKLOADS: [&str; 3] = ["serve-loaded", "serve-tenants", "paper-figs"];

/// The end-to-end metrics of the JSON result: the ones every workload
/// has. Workload-specific and modelled metrics are in the report lines.
const END_TO_END: [&str; 4] = ["setup_s", "wall_s", "req_per_s", "peak_rss_mb"];

/// The per-layer metrics of the JSON result, with unit and kind. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("mem.tick_s", "s", Kind::Host),
    ("mem.tick_calls", "count", Kind::Modelled),
    ("mem.ns_per_req", "ns", Kind::Host),
    ("mem.next_event_s", "s", Kind::Host),
    ("mem.next_event_calls", "count", Kind::Modelled),
    ("mem.enqueue_s", "s", Kind::Host),
    ("mem.enqueue_calls", "count", Kind::Modelled),
    ("mem.enqueue_refused_frac", "ratio", Kind::Modelled),
    ("mem.leap_frac", "ratio", Kind::Modelled),
    ("mem.hops", "count", Kind::Modelled),
    ("mem.cycles_per_hop", "cycles", Kind::Modelled),
    ("mem.read_lat_p50_cyc", "cycles", Kind::Modelled),
    ("mem.read_lat_p99_cyc", "cycles", Kind::Modelled),
    ("mem.t0.read_lat_p99_cyc", "cycles", Kind::Modelled),
    ("mem.t1.read_lat_p99_cyc", "cycles", Kind::Modelled),
    ("mem.t2.read_lat_p99_cyc", "cycles", Kind::Modelled),
    ("mem.read_queue_depth_mean", "count", Kind::Modelled),
    ("mem.bus_busy_frac", "ratio", Kind::Modelled),
    ("sched.candidates_per_issue", "count", Kind::Modelled),
    ("sched.rejects_per_issue", "count", Kind::Modelled),
    ("sched.reject.cd_busy_frac", "ratio", Kind::Modelled),
    ("sched.reject.sag_busy_frac", "ratio", Kind::Modelled),
    ("sched.issue_rate", "1/cycle", Kind::Modelled),
    ("sched.opportunity_per_issue", "count", Kind::Modelled),
    ("bank.row_hit_rate", "ratio", Kind::Modelled),
    ("bank.overlap_frac", "ratio", Kind::Modelled),
    ("bank.reads_under_write_frac", "ratio", Kind::Modelled),
    ("bank.underfetch_frac", "ratio", Kind::Modelled),
    ("bank.sensed_bits_per_read", "bits", Kind::Modelled),
    ("attr.queue_wait_frac", "ratio", Kind::Modelled),
    ("attr.sag_conflict_frac", "ratio", Kind::Modelled),
    ("attr.cd_conflict_frac", "ratio", Kind::Modelled),
    ("attr.global_io_frac", "ratio", Kind::Modelled),
    ("attr.tfaw_window_frac", "ratio", Kind::Modelled),
    ("attr.write_block_frac", "ratio", Kind::Modelled),
    ("attr.verify_retry_frac", "ratio", Kind::Modelled),
    ("attr.underfetch_resense_frac", "ratio", Kind::Modelled),
    ("attr.ctrl_overhead_frac", "ratio", Kind::Modelled),
    ("attr.service_frac", "ratio", Kind::Modelled),
    ("cpu.self_s", "s", Kind::Host),
    ("cpu.backend_calls_per_req", "count", Kind::Modelled),
    ("obs.hooks_s", "s", Kind::Host),
    ("obs.audit_s", "s", Kind::Host),
    ("obs.telemetry_s", "s", Kind::Host),
    ("obs.export_s", "s", Kind::Host),
    ("obs.trace_events", "count", Kind::Modelled),
    ("obs.attr_records", "count", Kind::Modelled),
    ("snapshot.save_s", "s", Kind::Host),
    ("snapshot.write_s", "s", Kind::Host),
    ("snapshot.restore_s", "s", Kind::Host),
    ("snapshot.bytes", "bytes", Kind::Modelled),
    ("snapshot.bytes_per_req", "bytes", Kind::Modelled),
    ("sim.jobs", "count", Kind::Modelled),
    ("sim.jobs_dup", "count", Kind::Modelled),
    ("sim.job_s_p50", "s", Kind::Host),
    ("sim.job_s_max", "s", Kind::Host),
    ("sim.executor_busy_frac", "ratio", Kind::Host),
    ("sim.driver_self_s", "s", Kind::Host),
    ("trace.overhead_frac", "ratio", Kind::Host),
];

const USAGE: &str = "usage: fgbench --workload serve-loaded|serve-tenants|paper-figs \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} wants a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(
    args: &Args,
    tmp: &std::path::Path,
    report: &mut Report,
) -> Result<Vec<&'static str>, String> {
    if !args.trace {
        match args.workload.as_str() {
            "paper-figs" => figs::run(args.seed, args.seconds, report)?,
            name => serve_wl::run(name, args.seed, args.seconds, tmp, report)?,
        }
        return Ok(END_TO_END.to_vec());
    }
    let mut spans = Spans::new();
    let measured = match args.workload.as_str() {
        "paper-figs" => figs::traced(args.seed, report, &mut spans)?,
        name => serve_wl::traced(name, args.seed, tmp, report, &mut spans)?,
    };
    for (name, _) in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| n == name),
            "{name} is missing from the per-layer list"
        );
    }
    for &(name, unit, kind) in PER_LAYER {
        let value = measured
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        report.add(name, value, unit, kind);
    }
    report.spans = spans.to_json();
    Ok(PER_LAYER.iter().map(|(n, _, _)| *n).collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Checkpoints of the run, inside the checkout, removed at the end.
    let tmp = PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    let mut report = Report::default();
    let result = run(&args, &tmp, &mut report);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    let selected = match result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fgbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.print(
        &format!(
            "fgbench workload={} seed={} seconds={} trace={} git_sha={} nproc={nproc}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            fgnvm_sim::profile::git_sha(),
        ),
        &selected,
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
