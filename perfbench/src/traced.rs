//! The traced run (`--trace 1`), kept apart from the end-to-end run: it
//! times each layer from outside through the system's public calls and
//! prints one number per layer metric.
//!
//! It records its own spans around every call into a layer: calibrate,
//! the pipeline runs (untraced and with `DistributedJoinConfig::trace`
//! on, alternating, on the threaded workloads), the reference join, every
//! correctness check, and a single-threaded replay of the stream through
//! the layers one at a time — `LengthRouter::route`, then each joiner's
//! routed sub-stream through a fresh `StreamJoiner` (`probe`/`insert`),
//! then every routed message, ack and result pair through
//! `Frame::encode_sealed`/`decode_checked`. The replay's self-time table
//! names the share of its wall time no layer span covers.

use std::time::{Duration, Instant};

use obs::Stage;
use ssj_core::join::{BundleConfig, BundleJoiner, MatchPair, StreamJoiner};
use ssj_distrib::bolts::JoinerSnapshot;
use ssj_distrib::wire::Frame;
use ssj_distrib::{
    ClusterBackend, ClusterResult, DistributedJoinResult, JoinMsg, LengthRouter, RecordMsg,
    RouteDecision, Router,
};
use ssj_partition::{imbalance, CostModel, LengthHistogram, LengthPartition};
use ssj_text::Record;
use stormlite::{LatencyHistogram, Timestamp};

use crate::check::{failed_records, probe_keys, records_hash, reference_pairs, ProbeKey};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{busy_frac, max_over_avg, median, ratio};
use crate::workload::{Backend, Outcome, Workload, CALIBRATION_PREFIX, K};
use crate::Options;

/// Calibrations timed for `partition.calibrate_ms` (median reported).
pub const CALIBRATE_REPS: usize = 15;
/// One-record cluster runs timed for `cluster.spawn_ms` (median).
pub const SPAWN_REPS: usize = 7;
/// Pipeline rounds at least (one round = the pair of runs compared).
pub const MIN_ROUNDS: usize = 2;
/// The replay's unattributed share may not exceed this.
pub const UNATTRIBUTED_LIMIT: f64 = 0.10;
/// The replay's layer spans. Every other span in the replay (the
/// `replay` span itself, each `core.joiner` wrapper) is bookkeeping: its
/// self time is the unattributed remainder.
pub const LAYERS: [&str; 5] = [
    "route",
    "core.probe",
    "core.insert",
    "wire.encode_seal",
    "wire.decode_check",
];

/// What a replayed message does at its joiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Probe only.
    Probe,
    /// Index only.
    Index,
    /// Probe, then index.
    Both,
}

impl Kind {
    fn msg(self, record: &Record) -> JoinMsg {
        let payload = RecordMsg::solo(record.clone(), Timestamp::ZERO);
        match self {
            Kind::Probe => JoinMsg::Probe(payload),
            Kind::Index => JoinMsg::Index(payload),
            Kind::Both => JoinMsg::ProbeAndIndex(payload),
        }
    }
}

/// Splits routing decisions into each joiner's sub-stream of
/// `(record index, kind)`, in arrival order — what the dispatcher sends.
fn substreams(decisions: &[RouteDecision], k: usize) -> Vec<Vec<(usize, Kind)>> {
    let mut subs = vec![Vec::new(); k];
    for (i, d) in decisions.iter().enumerate() {
        for (j, sub) in subs.iter_mut().enumerate() {
            let index = d.index.binary_search(&j).is_ok();
            let probe = d.probe.binary_search(&j).is_ok();
            match (probe, index) {
                (true, true) => sub.push((i, Kind::Both)),
                (true, false) => sub.push((i, Kind::Probe)),
                (false, true) => sub.push((i, Kind::Index)),
                (false, false) => {}
            }
        }
    }
    subs
}

/// Per-layer numbers of the single-threaded replay.
struct Replay {
    route_ns_per_record: f64,
    msgs_per_record: f64,
    probe_ns_per_record: f64,
    insert_ns_per_record: f64,
    joiners: Vec<BundleJoiner>,
    pairs: Vec<MatchPair>,
    encode_ns_per_msg: f64,
    decode_ns_per_msg: f64,
    wire_bytes_per_record: f64,
    undecodable: u64,
}

/// Duration of the span most recently recorded as `name`, in ns.
fn span_ns(spans: &Spans, name: &str) -> f64 {
    spans
        .last(name)
        .map_or(0.0, |id| spans.spans()[id].duration().as_nanos() as f64)
}

/// Replays the stream through the layers one at a time. Every layer's
/// input is built first, outside the `replay` span, so that span holds
/// nothing but layer calls and the loops around them; the time outside
/// the [`LAYERS`] spans is what no layer accounts for.
fn replay(
    spans: &mut Spans,
    w: &Workload,
    records: &[Record],
    partition: &LengthPartition,
    results: &[MatchPair],
) -> Replay {
    let n = records.len() as f64;
    let router = || LengthRouter::new(w.join().threshold, partition.clone());

    // One data frame and one ack per routed message, one result frame per
    // pair: the launcher↔node traffic of this stream in both directions.
    let (subs, msgs, frames) = spans.time("replay.prepare", |_| {
        let mut r = router();
        let decisions: Vec<RouteDecision> = records.iter().map(|rec| r.route(rec)).collect();
        let msgs: usize = decisions.iter().map(RouteDecision::message_count).sum();
        let subs = substreams(&decisions, K);
        let mut frames = Vec::with_capacity(2 * msgs + results.len());
        for sub in &subs {
            for (seq, &(i, kind)) in sub.iter().enumerate() {
                let seq = seq as u64;
                frames.push(Frame::Data {
                    seq,
                    msg: kind.msg(&records[i]),
                });
                frames.push(Frame::Ack { seq });
            }
        }
        frames.extend(results.iter().map(|&pair| Frame::Result {
            pair,
            ingest: Timestamp::ZERO,
        }));
        (subs, msgs, frames)
    });

    let mut pairs = Vec::new();
    let mut joiners = Vec::with_capacity(K);
    let (mut probe_total, mut insert_total) = (Duration::ZERO, Duration::ZERO);
    let (encoded, undecodable) = spans.time("replay", |spans| {
        spans.time("route", |_| {
            let mut r = router();
            for rec in records {
                std::hint::black_box(r.route(rec));
            }
        });
        for sub in &subs {
            let joiner = spans.time("core.joiner", |spans| {
                let mut joiner = BundleJoiner::new(BundleConfig::new(w.join()));
                let (mut probe, mut insert) = (Duration::ZERO, Duration::ZERO);
                let (mut probes, mut inserts) = (0u64, 0u64);
                // The clock is read right around each call, so the loop
                // and half of each clock read stay in `core.joiner`'s
                // own time, which counts as unattributed.
                let start = Instant::now();
                for &(i, kind) in sub {
                    let r = &records[i];
                    if kind != Kind::Index {
                        let t = Instant::now();
                        joiner.probe(r, &mut pairs);
                        probe += t.elapsed();
                        probes += 1;
                    }
                    if kind != Kind::Probe {
                        let t = Instant::now();
                        joiner.insert(r);
                        insert += t.elapsed();
                        inserts += 1;
                    }
                }
                spans.folded("core.probe", start, probe, probes);
                spans.folded("core.insert", start + probe, insert, inserts);
                probe_total += probe;
                insert_total += insert;
                joiner
            });
            joiners.push(joiner);
        }
        let encoded = spans.time("wire.encode_seal", |_| {
            frames
                .iter()
                .map(|f| f.encode_sealed().expect("frame encodes"))
                .collect::<Vec<_>>()
        });
        let undecodable = spans.time("wire.decode_check", |_| {
            encoded
                .iter()
                .filter(|b| Frame::decode_checked(b, true).is_err())
                .count() as u64
        });
        (encoded, undecodable)
    });

    let frame_count = frames.len() as f64;
    let bytes = spans.time("replay.free", |_| {
        let bytes: usize = encoded.iter().map(Vec::len).sum();
        drop((frames, encoded, subs));
        bytes
    });
    Replay {
        route_ns_per_record: span_ns(spans, "route") / n,
        msgs_per_record: msgs as f64 / n,
        probe_ns_per_record: probe_total.as_nanos() as f64 / n,
        insert_ns_per_record: insert_total.as_nanos() as f64 / n,
        joiners,
        pairs,
        encode_ns_per_msg: ratio(span_ns(spans, "wire.encode_seal"), frame_count),
        decode_ns_per_msg: ratio(span_ns(spans, "wire.decode_check"), frame_count),
        wire_bytes_per_record: bytes as f64 / n,
        undecodable,
    }
}

/// Checks one pipeline run against the reference inside a `check` span.
fn check(spans: &mut Spans, report: &mut Report, out: &Outcome, want: &[ProbeKey]) {
    let failed = spans.time("check", |_| failed_records(&probe_keys(out.pairs()), want));
    report.attempted += out.records() as u64;
    report.failed += failed;
}

/// Max/avg over joiners of `candidates + verify_steps`: the exact work
/// the partition handed each one.
fn work_imbalance(joiners: &[JoinerSnapshot]) -> f64 {
    let work: Vec<f64> = joiners
        .iter()
        .map(|j| (j.stats.candidates + j.stats.verify_steps) as f64)
        .collect();
    max_over_avg(&work)
}

/// Runs the traced measurement and returns every per-layer metric.
pub fn run(opts: &Options) -> Report {
    let w = &opts.workload;
    let mut spans = Spans::new(format!("{}-seed{}", w.name, opts.seed));
    let mut report = Report::default();
    let node = opts.node_bin();

    let records = spans.time("generate", |_| w.records(opts.seed, opts.stream_len()));
    let results = spans.time("reference", |_| reference_pairs(&records, w.join()));
    let want = probe_keys(&results);
    println!(
        "input            : {} records, hash {:016x}, {} reference pairs",
        records.len(),
        records_hash(&records),
        want.len()
    );

    let (partition, calibrate_ms) = spans.time("calibrate", |_| {
        let mut ms = Vec::with_capacity(CALIBRATE_REPS);
        let mut partition = None;
        for _ in 0..CALIBRATE_REPS {
            let t0 = Instant::now();
            partition = Some(w.calibrate(&records));
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        (partition.expect("calibrated"), ms)
    });
    let prefix = &records[..CALIBRATION_PREFIX.min(records.len())];
    let hist = LengthHistogram::from_records(prefix);
    let cost = CostModel::build(&hist, w.join().threshold, hist.max_len());
    let modeled_imbalance = imbalance(&partition, &cost);

    let spawn_ms: Vec<f64> = if w.is_cluster() {
        spans.time("spawn_probe", |_| {
            (0..SPAWN_REPS)
                .filter_map(|_| w.spawn_probe(&records, &partition, node))
                .map(|d| d.as_secs_f64() * 1e3)
                .collect()
        })
    } else {
        Vec::new()
    };

    let warm = spans.time("warmup", |_| w.run(&records, &partition, 0, node, false));
    check(&mut spans, &mut report, &warm, &want);
    drop(warm);

    // Pipeline rounds until the budget is spent. Threaded: an untraced and
    // a traced run. aol-tcp: a TCP run and the same input in-process.
    // tweet-chaos: one run, in whole cycles of chaos schedules.
    let cycle = w.schedules() as usize;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let (mut plain_walls, mut paired_walls) = (Vec::new(), Vec::new());
    let mut last_traced: Option<DistributedJoinResult> = None;
    let mut cluster_runs: Vec<ClusterResult> = Vec::new();
    let mut last_joiners: Vec<JoinerSnapshot> = Vec::new();
    while plain_walls.len() < MIN_ROUNDS
        || Instant::now() < deadline
        || plain_walls.len() % cycle != 0
    {
        let round = plain_walls.len() as u64 + 1;
        let out = spans.time("pipeline", |_| {
            w.run(&records, &partition, round, node, false)
        });
        check(&mut spans, &mut report, &out, &want);
        plain_walls.push(out.wall().as_secs_f64());
        last_joiners = out.joiners().to_vec();
        match w.backend {
            Backend::Threads => {
                let traced = spans.time("pipeline.traced", |_| {
                    w.run(&records, &partition, round, node, true)
                });
                check(&mut spans, &mut report, &traced, &want);
                paired_walls.push(traced.wall().as_secs_f64());
                if let Outcome::Threads(r) = traced {
                    last_traced = Some(*r);
                }
            }
            Backend::Tcp => {
                let cfg = w.cluster_config(&partition, ClusterBackend::InProcess, None);
                let inproc = spans.time("pipeline.inprocess", |_| {
                    Outcome::Cluster(Box::new(ssj_distrib::run_cluster(&records, &cfg)))
                });
                check(&mut spans, &mut report, &inproc, &want);
                paired_walls.push(inproc.wall().as_secs_f64());
            }
            Backend::Chaos => {}
        }
        if let Outcome::Cluster(c) = out {
            cluster_runs.push(*c);
        }
    }
    println!(
        "pipeline         : {} rounds, median wall {:.3} ms",
        plain_walls.len(),
        median(&plain_walls) * 1e3
    );

    let replayed = replay(&mut spans, w, &records, &partition, &results);
    let replay_id = spans.last("replay").expect("replay span");
    let replay_failed = spans.time("check.replay", |_| {
        failed_records(&probe_keys(&replayed.pairs), &want)
    });
    report.attempted += records.len() as u64;
    report.failed += replay_failed + replayed.undecodable;
    let unattributed = spans.unattributed_frac(replay_id, &LAYERS);

    println!("\nreplay self time (single-threaded, one span per layer call site):");
    spans.print_table(replay_id, &LAYERS, UNATTRIBUTED_LIMIT);
    if unattributed > UNATTRIBUTED_LIMIT {
        println!(
            "WARNING: {:.1}% of the replay wall is outside the layer spans (limit {:.0}%)",
            unattributed * 100.0,
            UNATTRIBUTED_LIMIT * 100.0
        );
    }
    if let Some(path) = &opts.spans_out {
        match spans.write_jsonl(path) {
            Ok(()) => println!(
                "spans            : {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => println!("spans            : not written ({e})"),
        }
    }
    println!();

    // ssj-partition
    report.median("partition.calibrate_ms", "ms", calibrate_ms);
    report.value("partition.modeled_imbalance", "ratio", modeled_imbalance);
    report.value(
        "partition.work_imbalance",
        "ratio",
        work_imbalance(&last_joiners),
    );
    match &last_traced {
        Some(r) => report.value("partition.busy_imbalance", "ratio", r.load_imbalance()),
        None => report.not_applicable("partition.busy_imbalance", "ratio"),
    }

    // ssj-distrib::route
    report.value("route.ns_per_record", "ns", replayed.route_ns_per_record);
    report.value("route.msgs_per_record", "count", replayed.msgs_per_record);

    // ssj-distrib::bolts + stormlite::topology
    bolt_metrics(&mut report, last_traced.as_ref());

    // ssj-core
    let stats: Vec<_> = replayed.joiners.iter().map(|j| j.stats().clone()).collect();
    let sum = |f: fn(&ssj_core::JoinStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    report.value(
        "core.probe_ns_per_record",
        "ns",
        replayed.probe_ns_per_record,
    );
    report.value(
        "core.insert_ns_per_record",
        "ns",
        replayed.insert_ns_per_record,
    );
    report.value(
        "core.candidates_per_probe",
        "count",
        ratio(sum(|s| s.candidates), sum(|s| s.probed)),
    );
    report.value(
        "core.verify_steps_per_probe",
        "count",
        ratio(sum(|s| s.verify_steps), sum(|s| s.probed)),
    );
    report.value(
        "core.results_per_candidate",
        "frac",
        ratio(sum(|s| s.results), sum(|s| s.candidates)),
    );
    report.value(
        "core.bundle_absorb_frac",
        "frac",
        ratio(sum(|s| s.bundle_absorbed), sum(|s| s.indexed)),
    );
    let stored: usize = replayed.joiners.iter().map(|j| j.stored()).sum();
    let postings: usize = replayed.joiners.iter().map(|j| j.postings()).sum();
    report.value("core.stored_records", "count", stored as f64);
    report.value("core.postings", "count", postings as f64);

    // ssj-distrib::wire + stormlite::crc32c
    report.value(
        "wire.encode_seal_ns_per_msg",
        "ns",
        replayed.encode_ns_per_msg,
    );
    report.value(
        "wire.decode_check_ns_per_msg",
        "ns",
        replayed.decode_ns_per_msg,
    );
    report.value("wire.bytes_per_record", "B", replayed.wire_bytes_per_record);

    // stormlite::transport / process boundary
    if w.backend == Backend::Tcp {
        let tax = (median(&plain_walls) - median(&paired_walls)) * 1e6 / records.len() as f64;
        report.value("transport.tax_us_per_record", "us", tax);
    } else {
        report.not_applicable("transport.tax_us_per_record", "us");
    }
    if w.is_cluster() {
        report.median("cluster.spawn_ms", "ms", spawn_ms);
        let last = cluster_runs.last().expect("at least one cluster run");
        let p50 = last.stages.get(Stage::Dispatch).quantile(0.5);
        report.value("cluster.dispatch_p50_us", "us", p50.as_secs_f64() * 1e6);
        let runs = cluster_runs.len() as f64;
        let streamed: usize = cluster_runs.iter().map(|c| c.records).sum();
        let total = |f: fn(&ClusterResult) -> u64| cluster_runs.iter().map(f).sum::<u64>() as f64;
        report.value(
            "session.retransmits_per_record",
            "count",
            ratio(total(|c| c.retransmissions), streamed as f64),
        );
        report.value(
            "session.dup_results_dropped",
            "count",
            total(|c| c.dup_results_dropped) / runs,
        );
        report.value(
            "session.respawns",
            "count",
            total(|c| c.health.respawns) / runs,
        );
    } else {
        for (name, unit) in [
            ("cluster.spawn_ms", "ms"),
            ("cluster.dispatch_p50_us", "us"),
            ("session.retransmits_per_record", "count"),
            ("session.dup_results_dropped", "count"),
            ("session.respawns", "count"),
        ] {
            report.not_applicable(name, unit);
        }
    }

    // obs
    if w.backend == Backend::Threads {
        report.value(
            "obs.trace_overhead_frac",
            "frac",
            median(&paired_walls) / median(&plain_walls) - 1.0,
        );
    } else {
        report.not_applicable("obs.trace_overhead_frac", "frac");
    }
    report.value("replay.unattributed_frac", "frac", unattributed);
    report
}

/// Busy fractions, frame and byte counts, and queue waits of the
/// threaded pipeline's tasks.
fn bolt_metrics(report: &mut Report, run: Option<&DistributedJoinResult>) {
    let names: [(&'static str, &'static str); 8] = [
        ("dispatcher.busy_frac", "frac"),
        ("joiner.busy_frac_max", "frac"),
        ("joiner.busy_frac_min", "frac"),
        ("sink.busy_frac", "frac"),
        ("dispatcher.frames_per_record", "count"),
        ("dispatcher.bytes_per_record", "B"),
        ("joiner.queue_wait_p50_us", "us"),
        ("joiner.queue_wait_p99_us", "us"),
    ];
    let Some(r) = run else {
        for (name, unit) in names {
            report.not_applicable(name, unit);
        }
        return;
    };
    let busy = |comp: &str| -> Vec<f64> {
        r.report
            .tasks
            .iter()
            .filter(|(c, _, _)| c == comp)
            .map(|(_, _, m)| busy_frac(m.busy, r.wall))
            .collect()
    };
    let joiners = busy("joiner");
    let mut wait = LatencyHistogram::new();
    for (_, _, m) in r.report.tasks.iter().filter(|(c, _, _)| c == "joiner") {
        wait.merge(&m.queue_wait);
    }
    let dispatcher = r.report.component("dispatcher");
    let n = r.records as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let values = [
        busy("dispatcher").iter().sum(),
        joiners.iter().copied().fold(0.0, f64::max),
        joiners.iter().copied().fold(f64::INFINITY, f64::min),
        busy("sink").iter().sum(),
        ratio(dispatcher.msgs_out as f64, n),
        ratio(dispatcher.bytes_out as f64, n),
        us(wait.quantile(0.5)),
        us(wait.quantile(0.99)),
    ];
    for ((name, unit), v) in names.into_iter().zip(values) {
        report.value(name, unit, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substreams_follow_the_dispatcher() {
        let d = |index: Vec<usize>, probe: Vec<usize>| RouteDecision { index, probe };
        let decisions = [
            d(vec![0], vec![0, 1]),
            d(vec![1], vec![1]),
            d(vec![1], vec![0]),
        ];
        let subs = substreams(&decisions, 2);
        assert_eq!(subs[0], vec![(0, Kind::Both), (2, Kind::Probe)]);
        assert_eq!(
            subs[1],
            vec![(0, Kind::Probe), (1, Kind::Both), (2, Kind::Index)]
        );
        let msgs: usize = decisions.iter().map(RouteDecision::message_count).sum();
        assert_eq!(msgs, subs.iter().map(Vec::len).sum::<usize>());
    }
}
