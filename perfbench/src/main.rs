//! `perfbench` — runs one workload and ends with one JSON line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--node-bin PATH] [--spans-out PATH]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics. Normally started through `run.py`, which builds this binary
//! and `ssj-node` first.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::workload::{Backend, Workload, NAMES};
use perfbench::{timed, traced, Options};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--node-bin PATH] [--spans-out PATH]",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut node_bin, mut spans_out) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::by_name(value);
                workload.is_some()
            }
            "--seed" => {
                seed = value.parse::<u64>().ok();
                seed.is_some()
            }
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0);
                seconds.is_some()
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                };
                trace.is_some()
            }
            "--node-bin" => {
                node_bin = Some(PathBuf::from(value));
                true
            }
            "--spans-out" => {
                spans_out = Some(PathBuf::from(value));
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value '{value}' for {flag}"));
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    if workload.backend == Backend::Tcp && !node_bin.as_deref().is_some_and(Path::is_file) {
        return usage("aol-tcp needs --node-bin naming a built ssj-node binary");
    }
    let opts = Options {
        workload,
        seed,
        seconds,
        records: None,
        node_bin,
        spans_out,
    };
    println!(
        "workload         : {} (seed {}, {} s, trace {})",
        opts.workload.name,
        seed,
        seconds,
        u8::from(trace)
    );
    let report = if trace {
        traced::run(&opts)
    } else {
        timed::run(&opts)
    };
    report.print_table();
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
