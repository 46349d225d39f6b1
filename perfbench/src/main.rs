//! Benchmark runner for the gang-scheduling workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pin-reference > perfbench/reference/n_p.txt
//! ```
//!
//! Runs one workload for about `--seconds` seconds, checks every output,
//! and prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The workloads and
//! metrics are described in `perfbench/README.md`.

mod loadgen;
mod metrics;
mod reference;
mod replay;
mod rng;
mod service;
mod stats;
mod sweeps;
mod trace;
mod xval;

use metrics::{result_line, Metrics, Tally};
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: &[&str] = &["paper_sweeps", "large_p", "service_mixed", "xval_sim"];

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| *w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where traced runs write their spans: `perfbench/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write a traced run's spans as Chrome trace events; a write failure is
/// reported but does not fail the run.
pub fn write_trace(tr: &trace::Tracer, run: &Run) {
    let path = out_dir().join(format!("trace-{}-seed{}.json", run.workload, run.seed));
    match tr.write_chrome_trace(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--pin-reference") {
        return match sweeps::pin_reference() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let outcome = match run.workload {
        "paper_sweeps" => sweeps::run(sweeps::Kind::Paper, &run, &mut tally, &mut metrics),
        "large_p" => sweeps::run(sweeps::Kind::LargeP, &run, &mut tally, &mut metrics),
        "service_mixed" => service::run(&run, &mut tally, &mut metrics),
        "xval_sim" => xval::run(&run, &mut tally, &mut metrics),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", run.workload);
        return ExitCode::FAILURE;
    }
    let line = result_line(&mut tally, &metrics, run.trace);
    for p in &tally.problems {
        eprintln!("perfbench: {p}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let run = parse_args(&args("--workload large_p --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (run.workload, run.seed, run.seconds, run.trace),
            ("large_p", 7, 12.0, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload large_p --trace 2")).is_err());
        assert!(parse_args(&args("--workload large_p --seconds")).is_err());
    }
}
