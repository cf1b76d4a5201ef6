//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last on standard output, one JSON line
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! output was incorrect or any check failed, 2 on bad arguments. A traced
//! run also writes its spans to `perfbench-out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::host::{probe_summary, PROBE_REFERENCE_S};
use perfbench::report::{host_steal_s, metadata_json};
use perfbench::workloads::{run, RunConfig, WORKLOADS};

fn parse_args() -> Result<RunConfig, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let meta = metadata_json(&config.workload, config.seed, config.seconds, config.trace);
    println!("# meta {meta}");
    let steal_before = host_steal_s();
    let wall = std::time::Instant::now();
    let (report, tracer) = run(&config);
    if let (Some(before), Some(after)) = (steal_before, host_steal_s()) {
        println!(
            "# host steal {:.2} CPU-s over {:.1} s of wall time",
            after - before,
            wall.elapsed().as_secs_f64()
        );
    }
    if let Some((median, lo, hi, n)) = probe_summary() {
        println!(
            "# host probe {:.2} ms of CPU per thread, median of {n} ({:.2}–{:.2}); {:.2} at \
             the reference speed",
            median * 1e3,
            lo * 1e3,
            hi * 1e3,
            PROBE_REFERENCE_S * 1e3
        );
    }

    if config.trace {
        println!("# self time per span (count, total ms, self ms)");
        for (name, (count, total, own)) in tracer.self_times() {
            println!(
                "#   {name:<32} {count:>7} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let dir = PathBuf::from("perfbench-out");
        let path = dir.join(format!("spans-{}-{}.jsonl", config.workload, config.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path, &meta)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for line in report.table().lines() {
        println!("# {line}");
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
