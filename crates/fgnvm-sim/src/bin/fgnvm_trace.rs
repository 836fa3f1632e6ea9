//! Trace tooling: generate, inspect, and replay memory traces.
//!
//! ```text
//! fgnvm-trace list
//! fgnvm-trace generate <profile> <ops> <out.trace> [--seed S]
//! fgnvm-trace info <file.trace>
//! fgnvm-trace replay <file.trace> [--design baseline|fgnvm:SxC|dram|manybanks:SxC]
//! fgnvm-trace replay <file.trace> --params <nvmain-style.cfg>
//! fgnvm-trace replay <file.trace> --viz          # ASCII bank-activity lanes
//! fgnvm-trace replay <file.trace> --viz-tiles 0  # SAG lanes of one bank
//! fgnvm-trace replay <file.trace> --check        # audit the command log
//! fgnvm-trace dump fgnvm:8x8                     # emit a parameter file
//! ```

use std::process::ExitCode;

use fgnvm_cpu::{Core, CoreConfig, Trace};
use fgnvm_mem::MemorySystem;
use fgnvm_types::config::SystemConfig;
use fgnvm_types::geometry::Geometry;
use fgnvm_workloads::{all_profiles, profile};

fn usage() -> String {
    "usage:\n  fgnvm-trace list\n  fgnvm-trace generate <profile> <ops> <out.trace> [--seed S]\n  \
     fgnvm-trace info <file.trace>\n  fgnvm-trace replay <file.trace> \
     [--design baseline|fgnvm:SxC|dram|manybanks:SxC | --params file.cfg] [--check]\n  \
     fgnvm-trace dump <design>   # emit the design as an NVMain-style parameter file"
        .to_string()
}

/// Parses `fgnvm:8x2`-style design names.
fn parse_design(spec: &str) -> Result<SystemConfig, String> {
    let parse_shape = |shape: &str| -> Result<(u32, u32), String> {
        let (s, c) = shape
            .split_once('x')
            .ok_or_else(|| format!("bad shape: {shape}"))?;
        Ok((
            s.parse().map_err(|_| format!("bad SAG count: {s}"))?,
            c.parse().map_err(|_| format!("bad CD count: {c}"))?,
        ))
    };
    match spec.split_once(':') {
        None => match spec {
            "baseline" => Ok(SystemConfig::baseline()),
            "dram" => Ok(SystemConfig::dram()),
            other => Err(format!("unknown design: {other}\n{}", usage())),
        },
        Some(("fgnvm", shape)) => {
            let (s, c) = parse_shape(shape)?;
            SystemConfig::fgnvm(s, c).map_err(|e| e.to_string())
        }
        Some(("manybanks", shape)) => {
            let (s, c) = parse_shape(shape)?;
            SystemConfig::many_banks_matching(s, c).map_err(|e| e.to_string())
        }
        Some((other, _)) => Err(format!("unknown design: {other}\n{}", usage())),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().ok_or_else(usage)?;
    match command.as_str() {
        "list" => {
            println!(
                "{:<18} {:>6} {:>7} {:>9} {:>8} {:>10}",
                "profile", "mpki", "writes", "locality", "streams", "dependent"
            );
            for p in all_profiles() {
                println!(
                    "{:<18} {:>6.0} {:>6.0}% {:>8.0}% {:>8} {:>9.0}%",
                    p.name,
                    p.mpki,
                    p.write_fraction * 100.0,
                    p.row_locality * 100.0,
                    p.streams,
                    p.dependent_fraction * 100.0
                );
            }
            Ok(())
        }
        "generate" => {
            let name = args.get(1).ok_or_else(usage)?;
            let ops: usize = args
                .get(2)
                .ok_or_else(usage)?
                .parse()
                .map_err(|_| "bad op count".to_string())?;
            let out = args.get(3).ok_or_else(usage)?;
            let mut seed = 7u64;
            if let Some(i) = args.iter().position(|a| a == "--seed") {
                seed = args
                    .get(i + 1)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad seed".to_string())?;
            }
            let p = profile(name).ok_or_else(|| format!("unknown profile: {name} (try `list`)"))?;
            let trace = p.generate(Geometry::default(), seed, ops);
            trace.save(out).map_err(|e| e.to_string())?;
            println!(
                "wrote {} ops ({:.1} MPKI) to {out}",
                trace.len(),
                trace.mpki()
            );
            Ok(())
        }
        "info" => {
            let path = args.get(1).ok_or_else(usage)?;
            let trace = Trace::load(path).map_err(|e| e.to_string())?;
            let dependent = trace.records().iter().filter(|r| r.dependent).count() as f64
                / trace.len().max(1) as f64;
            println!("name:          {}", trace.name());
            println!("memory ops:    {}", trace.len());
            println!("instructions:  {}", trace.instruction_count());
            println!("mpki:          {:.1}", trace.mpki());
            println!("write frac:    {:.1}%", trace.write_fraction() * 100.0);
            println!("dependent:     {:.1}%", dependent * 100.0);
            let profile = fgnvm_cpu::analyze(&trace, Geometry::default());
            println!(
                "line footprint:   {} lines ({} KiB)",
                profile.distinct_lines,
                profile.distinct_lines / 16
            );
            println!("row footprint:    {} rows", profile.distinct_rows);
            let geom = Geometry::default();
            println!(
                "(bank,SAG) pairs: {} of {}",
                profile.distinct_bank_sags,
                geom.total_banks() * geom.sags()
            );
            println!("row adjacency:    {:.1}%", profile.row_adjacency * 100.0);
            println!("bank imbalance:   {:.2} (CV)", profile.bank_imbalance);
            Ok(())
        }
        "dump" => {
            let design = args.get(1).ok_or_else(usage)?;
            let config = parse_design(design)?;
            print!("{}", fgnvm_types::write_system_config(&config));
            Ok(())
        }
        "replay" => {
            let path = args.get(1).ok_or_else(usage)?;
            let mut design = "fgnvm:8x2".to_string();
            if let Some(i) = args.iter().position(|a| a == "--design") {
                design = args.get(i + 1).ok_or("--design needs a value")?.clone();
            }
            let trace = Trace::load(path).map_err(|e| e.to_string())?;
            let config = if let Some(i) = args.iter().position(|a| a == "--params") {
                let file = args.get(i + 1).ok_or("--params needs a file")?;
                design = format!("params:{file}");
                let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
                fgnvm_types::parse_system_config(&text).map_err(|e| e.to_string())?
            } else {
                parse_design(&design)?
            };
            let viz = args.iter().any(|a| a == "--viz");
            let check = args.iter().any(|a| a == "--check");
            let viz_tiles: Option<usize> = args
                .iter()
                .position(|a| a == "--viz-tiles")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok());
            let core = Core::new(CoreConfig::nehalem_like()).map_err(|e| e.to_string())?;
            let mut memory = MemorySystem::new(config).map_err(|e| e.to_string())?;
            if viz || viz_tiles.is_some() {
                memory.enable_command_log(256);
            }
            if check {
                // Unbounded enough that nothing is evicted; eviction would
                // silently skip the history-dependent checks.
                memory.enable_command_log(1 << 22);
            }
            let result = core.run(&trace, &mut memory);
            let banks = memory.bank_stats();
            println!("design:        {design}");
            println!("ipc:           {:.3}", result.ipc());
            println!(
                "read latency:  {:.0} mem cycles",
                memory.stats().avg_read_latency()
            );
            println!("row hit rate:  {:.0}%", banks.row_hit_rate() * 100.0);
            println!("energy:        {:.1} uJ", memory.energy().total_pj() / 1e6);
            if viz {
                let records: Vec<_> = memory.command_log(0).records().copied().collect();
                let banks = memory.config().geometry.banks_per_rank() as usize;
                println!("\nlast {} commands, channel 0:", records.len());
                print!(
                    "{}",
                    fgnvm_sim::viz::render_lanes(&records, banks.min(16), 96)
                );
            }
            if check {
                let oracle =
                    fgnvm_check::Oracle::new(memory.config()).map_err(|e| e.to_string())?;
                let mut clean = true;
                for channel in 0..memory.config().geometry.channels() {
                    let report = oracle.audit(memory.command_log(channel));
                    println!("audit ch{channel}:     {report}");
                    clean &= report.is_clean();
                }
                if !clean {
                    return Err("protocol violations found".to_string());
                }
            }
            if let Some(bank) = viz_tiles {
                let records: Vec<_> = memory.command_log(0).records().copied().collect();
                let sags = memory.config().geometry.sags();
                println!();
                print!(
                    "{}",
                    fgnvm_sim::viz::render_tile_grid(&records, bank, sags, 96)
                );
            }
            Ok(())
        }
        other => Err(format!("unknown command: {other}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
