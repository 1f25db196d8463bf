//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <tables|statespace> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run facts as one JSON line, then, as the last line of
//! standard output, the result record. Traced runs also write their spans
//! and summary under `.bench_out/`. Exits 2 on a bad command line and 1 on
//! an I/O failure, printing no result in either case.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workload::{Scale, Workload};
use perfbench::{run, RunConfig};

const USAGE: &str = "usage: perfbench --workload <tables|statespace> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::Tables,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from(".bench_out"),
        min_passes: 3,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    // A traced run alternates untraced and traced passes; one pair of each
    // is enough for the overhead estimate.
    if cfg.trace {
        cfg.min_passes = 1;
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for m in &report.messages {
                eprintln!("perfbench: FAILED {m}");
            }
            println!("{}", report.meta_line());
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
