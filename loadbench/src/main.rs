//! `loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints what the run recorded, then, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 0 only when every
//! answer was right and every metric was measured.

use loadbench::gen::Workload;
use loadbench::metrics::{self, END_TO_END, PER_LAYER};
use loadbench::run::{self, Args};
use std::process::ExitCode;

const USAGE: &str = "usage: loadbench --workload <ingest-resident|read-mix|durable-ingest> --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("not a positive duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run::run(&args);
    for line in &report.lines {
        println!("{line}");
    }
    if !report.correct {
        eprintln!("loadbench: the run failed; no result");
        return ExitCode::FAILURE;
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        metrics::render_result(
            true,
            report.attempted,
            report.failed,
            catalogue,
            &report.values
        )
    );
    ExitCode::SUCCESS
}
