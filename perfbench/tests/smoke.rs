//! Tiny-n smoke runs of every workload, end-to-end and traced. The TCP
//! workload needs the `ssj-node` binary; it is skipped with a message
//! when none is built.

use std::path::PathBuf;

use perfbench::report::Report;
use perfbench::workload::{Backend, Workload, NAMES};
use perfbench::{timed, traced, Options};

/// `ssj-node` from `SSJ_NODE_BIN`, or next to this test's build output.
fn node_bin() -> Option<PathBuf> {
    if let Some(p) = std::env::var_os("SSJ_NODE_BIN").map(PathBuf::from) {
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .skip(1)
        .take(3)
        .map(|dir| dir.join("ssj-node"))
        .find(|p| p.is_file())
}

fn options(name: &str) -> Option<Options> {
    let workload = Workload::by_name(name).expect("known workload");
    let node_bin = node_bin();
    if workload.backend == Backend::Tcp && node_bin.is_none() {
        println!("skipping {name}: ssj-node is not built (cargo build --release -p ssj-cli)");
        return None;
    }
    let records = if workload.backend == Backend::Chaos {
        150
    } else {
        800
    };
    Some(Options {
        workload,
        seed: 11,
        seconds: 0.01,
        records: Some(records),
        node_bin,
        spans_out: None,
    })
}

fn assert_sane(name: &str, report: &Report, metrics: &[&str]) {
    assert!(report.correct(), "{name}: {} failed records", report.failed);
    assert!(report.attempted > 0);
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, metrics, "{name}: metric names");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{name}: {} is not finite", m.name);
    }
    let json = report.json_line();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

const END_TO_END: [&str; 4] = [
    "throughput_rps",
    "setup_s",
    "cpu_us_per_record",
    "peak_rss_mb",
];

#[test]
fn every_workload_runs_end_to_end() {
    for name in NAMES {
        let Some(opts) = options(name) else { continue };
        let report = timed::run(&opts);
        assert_sane(name, &report, &END_TO_END);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{name}: {} must never be 0", m.name);
        }
    }
}

#[test]
fn every_workload_runs_traced() {
    let mut names: Option<Vec<&'static str>> = None;
    for name in NAMES {
        let Some(opts) = options(name) else { continue };
        let report = traced::run(&opts);
        let got: Vec<&'static str> = report.metrics.iter().map(|m| m.name).collect();
        // Every workload reports the same per-layer metric set.
        let want = names.get_or_insert_with(|| got.clone()).clone();
        assert_sane(name, &report, &want);
        let unattributed = report.get("replay.unattributed_frac").unwrap().value;
        assert!(
            unattributed <= traced::UNATTRIBUTED_LIMIT,
            "{name}: {unattributed}"
        );
        let applies = |m: &str| report.get(m).unwrap().applies;
        assert_eq!(applies("dispatcher.busy_frac"), !opts.workload.is_cluster());
        assert_eq!(applies("session.respawns"), opts.workload.is_cluster());
        assert_eq!(
            applies("transport.tax_us_per_record"),
            opts.workload.backend == Backend::Tcp
        );
    }
    assert_eq!(names.map(|n| n.len()), Some(33));
}
