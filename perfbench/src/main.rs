//! `perfbench` — run one CDAS benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). A failed output check prints the result with
//! `"correct": false` and exits with code 1; bad arguments or a broken set-up exit
//! with code 2 and print no result.

use std::path::PathBuf;
use std::process::ExitCode;

use cdas_perfbench::{result_json, run, Options, Size, Workload};

/// Scratch space under the directory the benchmark runs from.
const WORK_DIR: &str = ".perfbench";

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(value) = iter.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace all need a valid value");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        drop_answer: None,
        work_dir: PathBuf::from(WORK_DIR),
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    for failure in &outcome.checks.failures {
        eprintln!("check failed: {failure}");
    }
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        eprintln!("{:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&outcome.checks, metrics));
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
