//! Command-line entry point regenerating the paper's tables and figures.
//!
//! ```text
//! fgnvm-repro <command> [--ops N] [--seed S] [--csv|--md]
//!
//! commands:
//!   table1    area overheads (Table 1)
//!   table2    memory system setup (Table 2)
//!   fig4      relative IPC: FgNVM / 128 banks / Multi-Issue (Figure 4)
//!   fig5      relative energy: 8x2 / 8x8 / 8x32 / Perfect (Figure 5)
//!   ablation  per-access-mode contribution study
//!   sweep     SAG x CD sensitivity sweep
//!   summary   headline numbers vs the paper's §6 claims
//!   dims      1D (SALP-like) vs 2D subdivision at equal unit count
//!   sched     scheduler study (FCFS / FRFCFS / TLP-augmented)
//!   maps      address-mapping sensitivity
//!   tech      PCM baseline vs FgNVM vs DDR3-like DRAM
//!   pause     write-pausing study on write-heavy workloads
//!   scaling   channel-scaling study
//!   mlc       SLC vs MLC PCM cell study
//!   mix       multiprogrammed consolidation pressure
//!   coloring  OS page-placement (identity / scattered / SAG-striped)
//!   timeline  per-epoch power/bandwidth time series
//!   writes    Backgrounded-Writes headroom vs write intensity
//!   depth     transaction-queue depth sensitivity
//!   detail    per-workload metric detail on the 8x8 FgNVM
//!   tail      read-latency distribution (p50/p95/p99) under write-heavy traffic
//!   wear      Start-Gap wear leveling: lifetime gain vs gap-traffic cost
//!   policy    DRAM open- vs closed-page (a knob PCM's substrate dissolves)
//!   mlp       FgNVM speedup vs core ROB/MSHR window (the MLP dependence)
//!   cores     4-core consolidation: throughput / weighted speedup / fairness
//!   hybrid    DRAM-buffered PCM (ref [8]) vs and with FgNVM
//!   reliability  fault injection: RBER x write-verify sweep through ECC/retry/remap
//!   reliability-horizon  device lifetime: the wear-out escalation ladder
//!             over increasing serve horizons
//!   observe   instrumented run: spans, SAGxCD heatmap, Perfetto trace [cfg]
//!   audit     issue-audited run: realized rate vs measured opportunity
//!             ceiling vs Amdahl bound, block attribution, missed-pair
//!             grid; the conservation invariant gates the exit status
//!             [a.cfg b.cfg ...]
//!   profile   bottleneck attribution + what-if bounds; appends runs.jsonl
//!             ledger lines: profile [a.cfg ...] [--seeds N] [--ledger FILE]
//!   compare   run the workloads on N parameter files: compare a.cfg b.cfg ...
//!             OR diff two run ledgers: compare base.jsonl cand.jsonl
//!   check     conformance-oracle audit of real runs: check [a.cfg b.cfg ...]
//!   fuzz      command-sequence fuzzer: fuzz [--cases N] | fuzz file.case
//!             (--kill-resume additionally checkpoints each case at a
//!             derived cycle, restores, and diffs against the straight run)
//!   serve     crash-safe long-horizon run: serve [cfg] --horizon N
//!             [--checkpoint-every N --checkpoint-dir D] [--resume CKPT]
//!             [--policy reject|block] [--watchdog N]
//!             [--telemetry-out FILE] [--telemetry-every N] [--prom-out FILE]
//!             [--live] [--progress] [--slo-read-p99 N] [--dump-flight FILE]
//!             [--audit]
//!   regress   self-check headline results against recorded bands (CI)
//!   all       everything above
//! ```
//!
//! `serve` drives an open-loop workload for `--horizon` cycles, writing a
//! full-state checkpoint every `--checkpoint-every` cycles; a killed run
//! resumed with `--resume <ckpt>` finishes bit-identically to an
//! uninterrupted one. `--telemetry-out` streams one schema-versioned JSON
//! window record per telemetry window (`--telemetry-every N` cycles, 0
//! disables); `--prom-out` keeps a Prometheus text exposition current;
//! `--live` draws a sparkline status line; `--progress` prints a one-line
//! heartbeat per window; `--slo-read-p99 N` tracks per-window SLO burn;
//! `--dump-flight FILE` writes the flight-recorder post-mortem (JSON +
//! ASCII timeline) at exit. `--horizon` belongs to `serve` and `fairness`
//! alone; any other command rejects it. `--jobs N` caps sweep parallelism
//! (0 = number of host cores).
//!
//! `observe` additionally honors `--trace-out FILE` (Chrome trace-event
//! JSON, loadable at `ui.perfetto.dev`) and `--metrics-out FILE` (the
//! counter registry + latency breakdowns + heatmap as one JSON document).
//!
//! `profile` runs the stall-attribution profiler over `--seeds N` seeds per
//! configuration (the built-in presets when no `.cfg` files are given) and
//! appends one schema-versioned record per run to the `--ledger FILE`
//! ledger (default `target/runs.jsonl`). `compare` on two `.jsonl` ledgers
//! prints a noise-aware regression report (`--report FILE` also writes it
//! as Markdown) and exits non-zero when the candidate regresses.

use std::process::ExitCode;

use fgnvm_sim::runner::ExperimentParams;
use fgnvm_sim::{experiment, Table};

#[derive(Debug)]
struct Cli {
    command: String,
    args: Vec<String>,
    params: ExperimentParams,
    csv: bool,
    markdown: bool,
    json: bool,
    out_dir: Option<std::path::PathBuf>,
    trace_out: Option<std::path::PathBuf>,
    metrics_out: Option<std::path::PathBuf>,
    cases: usize,
    seeds: usize,
    ledger: std::path::PathBuf,
    report_out: Option<std::path::PathBuf>,
    horizon: Option<u64>,
    checkpoint_every: u64,
    checkpoint_dir: Option<std::path::PathBuf>,
    resume: Option<std::path::PathBuf>,
    policy: String,
    watchdog: u64,
    jobs: usize,
    kill_resume: bool,
    telemetry_out: Option<std::path::PathBuf>,
    telemetry_every: Option<u64>,
    prom_out: Option<std::path::PathBuf>,
    live: bool,
    progress: bool,
    slo_read_p99: u64,
    dump_flight: Option<std::path::PathBuf>,
    tenants: Option<String>,
    audit: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut params = ExperimentParams::full();
    let mut csv = false;
    let mut markdown = false;
    let mut json = false;
    let mut out_dir = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut cases = 500;
    let mut seeds = 3;
    let mut ledger = std::path::PathBuf::from("target/runs.jsonl");
    let mut report_out = None;
    let mut horizon = None;
    let mut checkpoint_every = 0u64;
    let mut checkpoint_dir = None;
    let mut resume = None;
    let mut policy = "reject".to_string();
    let mut watchdog = 1_000_000u64;
    let mut jobs = 0usize;
    let mut kill_resume = false;
    let mut telemetry_out = None;
    let mut telemetry_every = None;
    let mut prom_out = None;
    let mut live = false;
    let mut progress = false;
    let mut slo_read_p99 = 0u64;
    let mut dump_flight = None;
    let mut tenants = None;
    let mut audit = false;
    let mut positional = Vec::new();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--ops" => {
                let v = args.next().ok_or("--ops needs a value")?;
                params.ops = v.parse().map_err(|_| format!("bad --ops value: {v}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                params.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            "--csv" => csv = true,
            "--md" => markdown = true,
            "--json" => json = true,
            "--out" => {
                let dir = args.next().ok_or("--out needs a directory")?;
                out_dir = Some(std::path::PathBuf::from(dir));
            }
            "--trace-out" => {
                let file = args.next().ok_or("--trace-out needs a file")?;
                trace_out = Some(std::path::PathBuf::from(file));
            }
            "--metrics-out" => {
                let file = args.next().ok_or("--metrics-out needs a file")?;
                metrics_out = Some(std::path::PathBuf::from(file));
            }
            "--cases" => {
                let v = args.next().ok_or("--cases needs a value")?;
                cases = v.parse().map_err(|_| format!("bad --cases value: {v}"))?;
            }
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a value")?;
                seeds = v.parse().map_err(|_| format!("bad --seeds value: {v}"))?;
                if seeds == 0 {
                    return Err("--seeds must be at least 1".to_string());
                }
            }
            "--ledger" => {
                let file = args.next().ok_or("--ledger needs a file")?;
                ledger = std::path::PathBuf::from(file);
            }
            "--report" => {
                let file = args.next().ok_or("--report needs a file")?;
                report_out = Some(std::path::PathBuf::from(file));
            }
            "--horizon" => {
                let v = args.next().ok_or("--horizon needs a value")?;
                horizon = Some(v.parse().map_err(|_| format!("bad --horizon value: {v}"))?);
            }
            "--checkpoint-every" => {
                let v = args.next().ok_or("--checkpoint-every needs a value")?;
                checkpoint_every = v
                    .parse()
                    .map_err(|_| format!("bad --checkpoint-every value: {v}"))?;
            }
            "--checkpoint-dir" => {
                let dir = args.next().ok_or("--checkpoint-dir needs a directory")?;
                checkpoint_dir = Some(std::path::PathBuf::from(dir));
            }
            "--resume" => {
                let file = args.next().ok_or("--resume needs a checkpoint file")?;
                resume = Some(std::path::PathBuf::from(file));
            }
            "--policy" => {
                let v = args.next().ok_or("--policy needs reject|block")?;
                if fgnvm_sim::AdmissionPolicy::from_name(&v).is_none() {
                    return Err(format!("bad --policy value: {v} (want reject|block)"));
                }
                policy = v;
            }
            "--watchdog" => {
                let v = args.next().ok_or("--watchdog needs a value")?;
                watchdog = v
                    .parse()
                    .map_err(|_| format!("bad --watchdog value: {v}"))?;
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                jobs = v.parse().map_err(|_| format!("bad --jobs value: {v}"))?;
            }
            "--kill-resume" => kill_resume = true,
            "--telemetry-out" => {
                let file = args.next().ok_or("--telemetry-out needs a file")?;
                telemetry_out = Some(std::path::PathBuf::from(file));
            }
            "--telemetry-every" => {
                let v = args.next().ok_or("--telemetry-every needs a value")?;
                telemetry_every = Some(
                    v.parse()
                        .map_err(|_| format!("bad --telemetry-every value: {v}"))?,
                );
            }
            "--prom-out" => {
                let file = args.next().ok_or("--prom-out needs a file")?;
                prom_out = Some(std::path::PathBuf::from(file));
            }
            "--live" => live = true,
            "--progress" => progress = true,
            "--slo-read-p99" => {
                let v = args.next().ok_or("--slo-read-p99 needs a value")?;
                slo_read_p99 = v
                    .parse()
                    .map_err(|_| format!("bad --slo-read-p99 value: {v}"))?;
            }
            "--dump-flight" => {
                let file = args.next().ok_or("--dump-flight needs a file")?;
                dump_flight = Some(std::path::PathBuf::from(file));
            }
            "--audit" => audit = true,
            "--tenants" => {
                let spec = args.next().ok_or("--tenants needs a spec string")?;
                // Validate up front so a typo fails before any simulation.
                fgnvm_workloads::parse_tenants(&spec).map_err(|e| e.to_string())?;
                tenants = Some(spec);
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    Ok(Cli {
        command,
        args: positional,
        params,
        csv,
        markdown,
        json,
        out_dir,
        trace_out,
        metrics_out,
        cases,
        seeds,
        ledger,
        report_out,
        horizon,
        checkpoint_every,
        checkpoint_dir,
        resume,
        policy,
        watchdog,
        jobs,
        kill_resume,
        telemetry_out,
        telemetry_every,
        prom_out,
        live,
        progress,
        slo_read_p99,
        dump_flight,
        tenants,
        audit,
    })
}

fn usage() -> String {
    "usage: fgnvm-repro <table1|table2|fig4|fig5|ablation|sweep|dims|sched|maps|tech|pause|scaling|mlc|mix|coloring|timeline|writes|depth|detail|cores|hybrid|reliability|reliability-horizon|tail|wear|policy|mlp|observe|audit|profile|compare|check|fuzz|serve|fairness|regress|summary|all> \
     [--ops N] [--seed S] [--seeds N] [--cases N] [--csv|--md|--json] [--out DIR] [--trace-out FILE] [--metrics-out FILE] [--ledger FILE] [--report FILE] [--jobs N] \
     [--horizon N] [--checkpoint-every N] [--checkpoint-dir DIR] [--resume FILE] [--policy reject|block] [--watchdog N] [--kill-resume] [--audit] \
     [--telemetry-out FILE] [--telemetry-every N] [--prom-out FILE] [--live] [--progress] [--slo-read-p99 N] [--dump-flight FILE] [--tenants SPEC]"
        .to_string()
}

#[derive(Debug, Clone, Copy)]
enum Format {
    Text,
    Csv,
    Markdown,
    Json,
}

fn emit_to(table: &Table, format: Format, out_dir: Option<&std::path::Path>) {
    match format {
        Format::Csv => print!("{}", table.to_csv()),
        Format::Markdown => println!("{}", table.to_markdown()),
        Format::Json => println!("{}", table.to_json()),
        Format::Text => println!("{}", table.render()),
    }
    if let Some(dir) = out_dir {
        let _ = std::fs::create_dir_all(dir);
        // Derive a file stem from the table title.
        let stem: String = table
            .title()
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .take(4)
            .collect::<Vec<_>>()
            .join("_");
        if let Err(e) = std::fs::write(dir.join(format!("{stem}.csv")), table.to_csv()) {
            eprintln!("warning: could not write artifact: {e}");
        }
    }
}

/// Registered studies `all` leaves out: the per-epoch and per-workload
/// dumps, and the serve-driven horizon sweep.
const NOT_IN_ALL: [&str; 3] = ["timeline", "detail", "reliability-horizon"];

fn run(cli: &Cli) -> Result<(), String> {
    let p = &cli.params;
    fgnvm_sim::runner::set_jobs(cli.jobs);
    let format = if cli.csv {
        Format::Csv
    } else if cli.markdown {
        Format::Markdown
    } else if cli.json {
        Format::Json
    } else {
        Format::Text
    };
    let fail = |e: fgnvm_types::ConfigError| e.to_string();
    let emit = |table: &Table, format: Format| emit_to(table, format, cli.out_dir.as_deref());
    // `serve` and `fairness` read --ops as an arrival count, where 0 is a
    // valid (idle) run; everywhere else it is a trace length.
    if p.ops == 0 && !matches!(cli.command.as_str(), "serve" | "fairness") {
        return Err("--ops must be at least 1: it sets the trace length".into());
    }
    // Only the serve drivers run to a horizon; the lifetime sweep has its
    // own command with its own horizons.
    if cli.horizon.is_some() && !matches!(cli.command.as_str(), "serve" | "fairness") {
        return Err(format!(
            "--horizon applies only to serve and fairness (the lifetime sweep is `reliability-horizon`), not to `{}`",
            cli.command
        ));
    }
    if let Some(run_study) = fgnvm_sim::study(&cli.command) {
        let study = run_study(p).map_err(|e| e.to_string())?;
        emit(&study.to_table(), format);
        if matches!(format, Format::Text) {
            print!("{}", study.ascii);
        }
        return Ok(());
    }
    match cli.command.as_str() {
        "table1" => emit(&experiment::table1(), format),
        "table2" => emit(&experiment::table2(), format),
        "fig4" => emit(&experiment::fig4(p).map_err(fail)?.to_table(), format),
        "fig5" => emit(&experiment::fig5(p).map_err(fail)?.to_table(), format),
        "ablation" => emit(&experiment::ablation(p).map_err(fail)?.to_table(), format),
        "sweep" => emit(&experiment::sweep(p).map_err(fail)?.to_table(), format),
        "summary" => emit(&experiment::summary(p).map_err(fail)?.to_table(), format),
        "serve" => serve_command(cli)?,
        "fairness" => fairness_command(cli)?,
        "observe" => {
            let config = match cli.args.first() {
                Some(path) => load_config(path)?,
                None => fgnvm_types::SystemConfig::fgnvm(8, 2).map_err(fail)?,
            };
            let out = fgnvm_sim::observe(&config, p).map_err(fail)?;
            emit(&out.summary, format);
            emit(&out.heatmap_table, format);
            if matches!(format, Format::Text) {
                print!("{}", out.heatmap_ascii);
                print!("{}", out.decomposition_ascii);
                print!("{}", out.timeseries_ascii);
                print!("{}", out.audit_ascii);
            }
            if let Some(path) = &cli.trace_out {
                std::fs::write(path, &out.trace_json)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!(
                    "trace written to {} (load it at ui.perfetto.dev)",
                    path.display()
                );
            }
            if let Some(path) = &cli.metrics_out {
                std::fs::write(path, &out.metrics_json)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("metrics written to {}", path.display());
            }
            if let Some(dir) = &cli.out_dir {
                let _ = std::fs::create_dir_all(dir);
                if let Err(e) = std::fs::write(dir.join("heatmap.csv"), &out.heatmap_csv) {
                    eprintln!("warning: could not write artifact: {e}");
                }
            }
        }
        "audit" => audit_command(cli, p, format)?,
        "profile" => profile_command(cli, p, format)?,
        "compare" => {
            if cli.args.is_empty() {
                return Err(
                    "compare needs parameter files (a.cfg b.cfg ...) or two run ledgers \
                     (base.jsonl cand.jsonl)"
                        .into(),
                );
            }
            if cli.args.iter().all(|a| a.ends_with(".jsonl")) {
                compare_ledgers_command(cli, format)?;
            } else {
                emit(&compare_param_files(&cli.args, p)?, format)
            }
        }
        "check" => {
            emit(&oracle_check(&cli.args, p)?, format);
        }
        "fuzz" => fuzz_command(cli, p)?,
        "regress" => regress(p)?,
        "all" => {
            emit(&experiment::table2(), format);
            emit(&experiment::table1(), format);
            emit(&experiment::fig4(p).map_err(fail)?.to_table(), format);
            emit(&experiment::fig5(p).map_err(fail)?.to_table(), format);
            emit(&experiment::ablation(p).map_err(fail)?.to_table(), format);
            emit(&experiment::sweep(p).map_err(fail)?.to_table(), format);
            for (name, run_study) in fgnvm_sim::STUDIES {
                if !NOT_IN_ALL.contains(name) {
                    emit(&run_study(p).map_err(|e| e.to_string())?.to_table(), format);
                }
            }
            emit(&experiment::summary(p).map_err(fail)?.to_table(), format);
        }
        other => return Err(format!("unknown command: {other}\n{}", usage())),
    }
    Ok(())
}

/// Loads and parses one `.cfg` parameter file, reporting problems through
/// the SimError taxonomy.
fn load_config(path: &str) -> Result<fgnvm_types::SystemConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        fgnvm_types::SimError::Io {
            path: path.to_string(),
            message: e.to_string(),
        }
        .to_string()
    })?;
    fgnvm_types::parse_system_config(&text)
        .map_err(|e| format!("{path}: {}", fgnvm_types::SimError::from(e)))
}

/// The built-in preset configurations the `profile` and `check` commands
/// fall back to when no parameter files are given.
fn preset_configs() -> Result<Vec<(String, fgnvm_types::SystemConfig)>, String> {
    let fail = |e: fgnvm_types::ConfigError| e.to_string();
    Ok(vec![
        ("baseline".into(), fgnvm_types::SystemConfig::baseline()),
        (
            "fgnvm-8x2".into(),
            fgnvm_types::SystemConfig::fgnvm(8, 2).map_err(fail)?,
        ),
        (
            "multi-issue-8x4".into(),
            fgnvm_types::SystemConfig::fgnvm_multi_issue(8, 4, 2).map_err(fail)?,
        ),
        (
            "pausing-8x8".into(),
            fgnvm_types::SystemConfig::fgnvm_with_pausing(8, 8).map_err(fail)?,
        ),
        ("dram".into(), fgnvm_types::SystemConfig::dram()),
    ])
}

/// The `audit` command: an issue-audited run per configuration. Prints the
/// realized issue rate, the measured opportunity ceiling, and the Amdahl
/// bound side by side plus the decision-stream ASCII digest; any audit
/// conservation failure makes the command exit non-zero.
fn audit_command(cli: &Cli, p: &ExperimentParams, format: Format) -> Result<(), String> {
    let configs: Vec<(String, fgnvm_types::SystemConfig)> = if cli.args.is_empty() {
        vec![(
            "fgnvm-8x2".into(),
            fgnvm_types::SystemConfig::fgnvm(8, 2).map_err(|e| e.to_string())?,
        )]
    } else {
        cli.args
            .iter()
            .map(|path| Ok((config_stem(path), load_config(path)?)))
            .collect::<Result<_, String>>()?
    };
    let mut violations = 0usize;
    for (name, config) in &configs {
        let out = fgnvm_sim::audit(config, name, p).map_err(|e| e.to_string())?;
        match format {
            Format::Json => println!("{}", out.audit_json),
            _ => {
                emit_to(&out.summary, format, cli.out_dir.as_deref());
                if matches!(format, Format::Text) {
                    print!("{}", out.audit_ascii);
                }
            }
        }
        if let Some(path) = &cli.metrics_out {
            std::fs::write(path, &out.audit_json)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        for failure in &out.invariant_failures {
            eprintln!("{name}: {failure}");
            violations += 1;
        }
    }
    if violations > 0 {
        return Err(format!(
            "issue audit found {violations} conservation failure(s)"
        ));
    }
    Ok(())
}

/// The `profile` command: stall attribution, critical-path ranking, and
/// what-if bounds per configuration, plus one ledger line per seed.
fn profile_command(cli: &Cli, p: &ExperimentParams, format: Format) -> Result<(), String> {
    use std::io::Write as _;
    let configs: Vec<(String, fgnvm_types::SystemConfig)> = if cli.args.is_empty() {
        preset_configs()?
    } else {
        cli.args
            .iter()
            .map(|path| Ok((config_stem(path), load_config(path)?)))
            .collect::<Result<_, String>>()?
    };
    let seeds: Vec<u64> = (0..cli.seeds as u64).map(|i| p.seed + i).collect();
    if let Some(dir) = cli.ledger.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    let mut ledger = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&cli.ledger)
        .map_err(|e| format!("opening {}: {e}", cli.ledger.display()))?;
    let mut lines = 0usize;
    for (name, config) in &configs {
        let out = fgnvm_sim::profile(config, name, p, &seeds).map_err(|e| e.to_string())?;
        emit_to(&out.summary, format, cli.out_dir.as_deref());
        emit_to(&out.attribution_table, format, cli.out_dir.as_deref());
        emit_to(&out.whatif_table, format, cli.out_dir.as_deref());
        if matches!(format, Format::Text) {
            print!("{}", out.decomposition_ascii);
        }
        if let Some(path) = &cli.metrics_out {
            std::fs::write(path, &out.attribution_json)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        for record in &out.records {
            writeln!(ledger, "{}", record.to_json_line())
                .map_err(|e| format!("appending to {}: {e}", cli.ledger.display()))?;
            lines += 1;
        }
    }
    println!(
        "{lines} run record(s) appended to {} (schema v{})",
        cli.ledger.display(),
        fgnvm_sim::SCHEMA_VERSION
    );
    Ok(())
}

/// `compare` on two `.jsonl` ledgers: the noise-aware cross-run regression
/// gate. Exits non-zero when the candidate regresses any gated metric.
fn compare_ledgers_command(cli: &Cli, format: Format) -> Result<(), String> {
    let [base_path, cand_path] = cli.args.as_slice() else {
        return Err("ledger compare needs exactly two files: compare base.jsonl cand.jsonl".into());
    };
    let read =
        |path: &String| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    let outcome = fgnvm_sim::compare_ledgers(&read(base_path)?, &read(cand_path)?);
    match format {
        Format::Json => println!("{}", outcome.to_json()),
        _ => print!("{}", outcome.to_markdown()),
    }
    if let Some(path) = &cli.report_out {
        std::fs::write(path, outcome.to_markdown())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    if outcome.regressions() > 0 {
        return Err(format!(
            "{} metric(s) regressed beyond the noise threshold",
            outcome.regressions()
        ));
    }
    println!("no regressions beyond noise thresholds");
    Ok(())
}

/// `path/to/fgnvm-8x8.cfg` → `fgnvm-8x8`, for ledger group keys.
fn config_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// Runs the standard workloads on each parameter-file configuration and
/// tabulates geometric-mean speedups against the first file.
fn compare_param_files(files: &[String], params: &ExperimentParams) -> Result<Table, String> {
    use fgnvm_sim::report::geometric_mean;
    use fgnvm_sim::runner::run_one;
    use fgnvm_types::Geometry;
    // File and parse problems are routed through the SimError taxonomy so
    // the CLI reports them uniformly instead of panicking.
    let configs: Vec<_> = files
        .iter()
        .map(|f| load_config(f))
        .collect::<Result<_, String>>()?;
    let profiles = fgnvm_workloads::all_profiles();
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for profile in &profiles {
        let trace = profile.generate(Geometry::default(), params.seed, params.ops);
        let mut reference = None;
        for (i, config) in configs.iter().enumerate() {
            let outcome = run_one(&trace, config, params).map_err(|e| e.to_string())?;
            let base = *reference.get_or_insert(outcome.core.ipc());
            per_config[i].push(outcome.core.ipc() / base);
        }
    }
    let mut table = Table::new(
        "Parameter-file comparison (gmean speedup vs the first file)",
        &["file", "speedup"],
    );
    for (file, speedups) in files.iter().zip(&per_config) {
        table.push_row(vec![
            file.clone(),
            format!("{:.2}x", geometric_mean(speedups)),
        ]);
    }
    Ok(table)
}

/// Self-check: re-derives the headline results and asserts they sit inside
/// the bands recorded in EXPERIMENTS.md. Exits non-zero on drift, making
/// this a one-command regression gate for the repository.
fn regress(params: &ExperimentParams) -> Result<(), String> {
    use fgnvm_model::area::AreaModel;
    let fixed = ExperimentParams {
        ops: 3000,
        seed: 7,
        ..*params
    };
    let mut failures = Vec::new();
    let mut check = |name: &str, value: f64, lo: f64, hi: f64| {
        let ok = (lo..=hi).contains(&value);
        println!(
            "{} {name}: {value:.3} (band {lo:.3}..{hi:.3})",
            if ok { "PASS" } else { "FAIL" }
        );
        if !ok {
            failures.push(name.to_string());
        }
    };
    let summary = experiment::summary(&fixed).map_err(|e| e.to_string())?;
    check("fig4 fgnvm gmean", summary.fgnvm_speedup, 1.05, 1.30);
    let (e2, e8, e32) = summary.energy;
    check("fig5 8x2 mean", e2, 0.54, 0.67);
    check("fig5 8x8 mean", e8, 0.29, 0.40);
    check("fig5 8x32 mean", e32, 0.25, 0.36);
    let (avg, max) = AreaModel::paper_calibrated().table1();
    check("table1 avg um2", avg.total_um2(), 2930.0, 2990.0);
    check("table1 max %", max.percent_of_chip, 0.33, 0.42);
    let run = |name: &str| {
        let study = fgnvm_sim::study(name).expect("registered study");
        study(&fixed).map_err(|e| e.to_string())
    };
    let tail = run("tail")?;
    let p99 = |design: &str| tail.value(&[design], "~p99").expect("tail row");
    check(
        "tail p99 contraction",
        p99("baseline") / p99("FgNVM 8x8"),
        1.3,
        6.0,
    );
    let wear = run("wear")?;
    let leveled = |column: &str| wear.value(&["start-gap /8"], column).expect("leveled row");
    check("wear lifetime gain", leveled("lifetime gain"), 2.0, 30.0);
    check("wear relative ipc", leveled("relative IPC"), 0.85, 1.5);
    let mlp = run("mlp")?.values(&[], "speedup");
    let (narrow, wide) = (mlp[0], mlp[mlp.len() - 1]);
    check("mlp speedup growth", wide / narrow, 1.10, 2.5);
    if failures.is_empty() {
        println!("regression check passed");
        Ok(())
    } else {
        Err(format!("regression check failed: {}", failures.join(", ")))
    }
}

/// Audits real runs of each configuration through the conformance oracle
/// (`fgnvm-check`): the whole command stream is replayed against the
/// analytically derived legality envelope and the whole-run conservation
/// invariants are checked.
/// Any violation makes the command fail, so CI can gate on it.
fn oracle_check(args: &[String], p: &ExperimentParams) -> Result<Table, String> {
    let configs: Vec<(String, fgnvm_types::SystemConfig)> = if args.is_empty() {
        preset_configs()?
    } else {
        args.iter()
            .map(|path| Ok((path.clone(), load_config(path)?)))
            .collect::<Result<_, String>>()?
    };
    let mut table = Table::new(
        "Conformance audit (oracle + invariants)",
        &[
            "config",
            "commands",
            "max tile conc",
            "violations",
            "status",
        ],
    );
    let mut total = 0usize;
    for (name, config) in &configs {
        let outcome = fgnvm_check::run_and_audit(config, p.ops, p.seed)
            .map_err(|e| format!("{name}: {e}"))?;
        let violations = outcome.violation_count();
        total += violations;
        let max_conc = outcome
            .reports
            .iter()
            .map(|r| r.max_tile_concurrency)
            .max()
            .unwrap_or(0);
        table.push_row(vec![
            name.clone(),
            outcome.commands.to_string(),
            max_conc.to_string(),
            violations.to_string(),
            if violations == 0 {
                "clean".into()
            } else {
                "VIOLATED".into()
            },
        ]);
        if violations > 0 {
            for report in &outcome.reports {
                for v in &report.violations {
                    eprintln!("{name}: {v}");
                }
            }
            for failure in &outcome.invariants.failures {
                eprintln!("{name}: {failure}");
            }
        }
    }
    if total > 0 {
        // Print what we have before failing so the table is not lost.
        println!("{}", table.render());
        return Err(format!("conformance audit found {total} violation(s)"));
    }
    Ok(table)
}

/// Runs the command-sequence fuzzer, or replays a `.case` file if one is
/// given. On failure the shrunk counterexample is written next to the
/// artifacts (`--out DIR`, default `target/fuzz-cases/`) for replay.
fn fuzz_command(cli: &Cli, p: &ExperimentParams) -> Result<(), String> {
    if let Some(path) = cli.args.first() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let case = fgnvm_check::parse_case(&text).map_err(|e| format!("{path}: {e}"))?;
        return match fgnvm_check::execute_case(&case) {
            Ok(report) => {
                println!(
                    "{path}: clean ({} requests, {} commands, max tile concurrency {})",
                    report.accepted, report.commands, report.max_tile_concurrency
                );
                Ok(())
            }
            Err(message) => Err(format!("{path}: case fails: {message}")),
        };
    }
    // `--tenants` (any valid spec) switches the fuzzer into multi-tenant
    // generation; the fuzzer draws its own tenant palettes, and every
    // tenant case also runs the kill/resume differential.
    let opts = fgnvm_check::FuzzOptions {
        cases: cli.cases,
        seed: p.seed,
        kill_resume: cli.kill_resume || cli.tenants.is_some(),
        tenants: cli.tenants.is_some(),
        ..fgnvm_check::FuzzOptions::default()
    };
    let outcome = fgnvm_check::fuzz(&opts);
    match outcome.failure {
        None => {
            println!(
                "fuzz: {} cases clean (seed {}, up to {} ops each{})",
                outcome.cases_run,
                opts.seed,
                opts.max_ops,
                if opts.kill_resume {
                    ", kill/resume differential on"
                } else {
                    ""
                }
            );
            Ok(())
        }
        Some(failure) => {
            let dir = cli
                .out_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("target/fuzz-cases"));
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let file = dir.join(format!("fail-{}.case", failure.index));
            std::fs::write(&file, failure.case_file())
                .map_err(|e| format!("writing {}: {e}", file.display()))?;
            Err(format!(
                "fuzz: case {} of {} failed (seed {}): {}\nshrunk reproducer written to {} \
                 (replay with `fgnvm-repro fuzz {}`)",
                failure.index,
                outcome.cases_run,
                opts.seed,
                failure.message,
                file.display(),
                file.display()
            ))
        }
    }
}

/// The `serve` command: a crash-safe long-horizon run with periodic
/// checkpoints. `--resume FILE` continues a killed run from a checkpoint
/// and lands bit-identically on the uninterrupted run's final state.
fn serve_command(cli: &Cli) -> Result<(), String> {
    let config = match cli.args.first() {
        Some(path) => load_config(path)?,
        None => fgnvm_types::SystemConfig::fgnvm(8, 2).map_err(|e| e.to_string())?,
    };
    let mut sc = fgnvm_sim::ServeConfig::default();
    if let Some(horizon) = cli.horizon.filter(|&h| h > 0) {
        sc.horizon = horizon;
        // Default arrival pressure tracks the horizon (~1 op / 40 cycles)
        // unless --ops was given explicitly.
        sc.ops = horizon / 40;
    }
    if cli.params.ops != fgnvm_sim::ExperimentParams::full().ops {
        sc.ops = cli.params.ops as u64;
    }
    sc.seed = cli.params.seed;
    sc.checkpoint_every = cli.checkpoint_every;
    sc.checkpoint_dir = cli.checkpoint_dir.clone();
    sc.policy = fgnvm_sim::AdmissionPolicy::from_name(&cli.policy)
        .ok_or_else(|| format!("bad --policy value: {}", cli.policy))?;
    sc.watchdog_cycles = cli.watchdog;
    if let Some(win) = cli.telemetry_every {
        sc.telemetry_window = win;
    }
    sc.telemetry_out = cli.telemetry_out.clone();
    sc.prom_out = cli.prom_out.clone();
    sc.live = cli.live;
    sc.progress = cli.progress;
    sc.slo_read_p99 = cli.slo_read_p99;
    sc.dump_flight = cli.dump_flight.clone();
    sc.audit = cli.audit;
    if let Some(spec) = &cli.tenants {
        sc.tenants = fgnvm_workloads::parse_tenants(spec).map_err(|e| e.to_string())?;
    }
    let report = match &cli.resume {
        Some(ckpt) => fgnvm_sim::resume(config, ckpt, &sc).map_err(|e| e.to_string())?,
        None => fgnvm_sim::serve(config, &sc).map_err(|e| e.to_string())?,
    };
    println!(
        "serve: {} admitted, {} completed, {} rejected ({} retried, {} blocked cycles) \
         by cycle {}; {} checkpoint(s); wear: {} remapped, {} retired, {} read-only bank(s), \
         {} write(s) refused",
        report.admitted,
        report.completions,
        report.rejected,
        report.retried,
        report.blocked_cycles,
        report.final_cycle,
        report.checkpoints_written,
        report.remapped_rows,
        report.retired_rows,
        report.read_only_banks,
        report.read_only_write_rejections,
    );
    if report.windows_emitted > 0 {
        println!(
            "telemetry: {} window(s) emitted{}",
            report.windows_emitted,
            cli.telemetry_out
                .as_ref()
                .map(|p| format!(" to {}", p.display()))
                .unwrap_or_default(),
        );
    }
    if cli.slo_read_p99 > 0 {
        println!(
            "slo: read p99 <= {} cy violated in {} of {} window(s)",
            cli.slo_read_p99, report.slo_violations, report.slo_windows,
        );
    }
    for t in &report.tenants {
        println!(
            "tenant {}: {} admitted, {} completed, {} rejected ({} retried); \
             read p50/p95/p99 = {}/{}/{} cy{}",
            t.name,
            t.admitted,
            t.completions,
            t.rejected,
            t.retried,
            t.read_p50,
            t.read_p95,
            t.read_p99,
            if t.slo_read_p99 > 0 {
                format!(
                    "; slo read p99 <= {} cy violated in {} of {} window(s)",
                    t.slo_read_p99, t.slo_violations, t.slo_windows,
                )
            } else {
                String::new()
            },
        );
    }
    if let Some(path) = &cli.metrics_out {
        std::fs::write(path, &report.metrics_json)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("metrics written to {}", path.display());
    }
    Ok(())
}

fn fairness_command(cli: &Cli) -> Result<(), String> {
    let config = match cli.args.first() {
        Some(path) => load_config(path)?,
        None => fgnvm_types::SystemConfig::fgnvm(8, 2).map_err(|e| e.to_string())?,
    };
    let spec = cli
        .tenants
        .as_ref()
        .ok_or("fairness needs --tenants with at least two tenants")?;
    let mut sc = fgnvm_sim::ServeConfig::default();
    if let Some(horizon) = cli.horizon.filter(|&h| h > 0) {
        sc.horizon = horizon;
        sc.ops = horizon / 40;
    }
    if cli.params.ops != fgnvm_sim::ExperimentParams::full().ops {
        sc.ops = cli.params.ops as u64;
    }
    sc.seed = cli.params.seed;
    sc.policy = fgnvm_sim::AdmissionPolicy::from_name(&cli.policy)
        .ok_or_else(|| format!("bad --policy value: {}", cli.policy))?;
    if let Some(win) = cli.telemetry_every {
        sc.telemetry_window = win;
    }
    sc.tenants = fgnvm_workloads::parse_tenants(spec).map_err(|e| e.to_string())?;
    let report = fgnvm_sim::fairness(config, &sc).map_err(|e| e.to_string())?;
    println!("fairness: isolated vs shared read p99 per tenant (cycles)");
    println!("tenant       isolated    frfcfs       qos");
    for row in &report.tenants {
        println!(
            "{:<12} {:>8} {:>9} {:>9}",
            row.name, row.isolated_p99, row.shared_frfcfs_p99, row.shared_qos_p99,
        );
    }
    println!(
        "p99 gap (max-min across tenants): frfcfs = {} cy, qos = {} cy",
        report.frfcfs_p99_gap, report.qos_p99_gap,
    );
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
