//! The end-to-end run (`--trace 0`): one warm-up stream, then closed-loop
//! timed streams until the time budget is spent and, on the chaos
//! workload, the last cycle of chaos schedules is whole, with timed
//! set-ups between them. Every stream's pairs, the warm-up's included,
//! are checked against the reference.

use std::time::{Duration, Instant};

use ssj_partition::LengthPartition;
use ssj_text::Record;

use crate::check::{failed_records, probe_keys, records_hash, reference};
use crate::report::Report;
use crate::stats::{mean, ratio, throughput};
use crate::sys::{cpu_time, peak_rss_mb, reset_peak_rss};
use crate::Options;

/// Set-ups are timed in bursts, one before the first timed stream and one
/// after every stream, so the samples span the whole run rather than one
/// moment of a shared machine. A burst times at least `SETUP_BURST_REPS`
/// set-ups, then more until `SETUP_BURST` has passed or
/// `SETUP_BURST_MAX_REPS` are done. `setup_s` is the mean of all, not
/// their median: on `enron-threads` a calibration takes either about
/// 0.45 ms or about 0.8 ms, the mode holding for a burst and changing
/// between bursts, so the median of a run jumps between the two modes
/// while the mean moves only with their mix.
pub const SETUP_BURST_REPS: usize = 3;
/// See [`SETUP_BURST_REPS`].
pub const SETUP_BURST: Duration = Duration::from_millis(20);
/// See [`SETUP_BURST_REPS`].
pub const SETUP_BURST_MAX_REPS: usize = 200;
/// Timed streams per run at least, however short the budget.
pub const MIN_STREAMS: usize = 3;

/// Runs the end-to-end measurement and returns every end-to-end metric.
pub fn run(opts: &Options) -> Report {
    let w = &opts.workload;
    let records = w.records(opts.seed, opts.stream_len());
    let want = reference(&records, w.join());
    println!(
        "input            : {} records, hash {:016x}, {} reference pairs",
        records.len(),
        records_hash(&records),
        want.len()
    );

    let mut setup = Vec::new();
    let partition = setup_burst(opts, &records, &mut setup);

    let mut report = Report::default();
    let warm = w.run(&records, &partition, 0, opts.node_bin(), false);
    let warm_failed = failed_records(&probe_keys(warm.pairs()), &want);
    report.attempted += warm.records() as u64;
    report.failed += warm_failed;
    println!(
        "warm-up          : {:.0} rec/s, {} pairs, {warm_failed} failed records",
        throughput(warm.records(), warm.wall()),
        warm.pairs().len()
    );
    drop(warm);

    let (mut rps, mut cpu_us, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut streamed, mut wall, mut cpu_total) = (0usize, Duration::ZERO, Duration::ZERO);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let cycle = w.schedules() as usize;
    while rps.len() < MIN_STREAMS || Instant::now() < deadline || rps.len() % cycle != 0 {
        reset_peak_rss();
        let cpu0 = cpu_time();
        let stream = rps.len() as u64 + 1;
        let out = w.run(&records, &partition, stream, opts.node_bin(), false);
        let cpu = cpu_time().saturating_sub(cpu0);
        let peak = peak_rss_mb();
        let failed = failed_records(&probe_keys(out.pairs()), &want);
        streamed += out.records();
        wall += out.wall();
        cpu_total += cpu;
        report.attempted += out.records() as u64;
        report.failed += failed;
        rps.push(throughput(out.records(), out.wall()));
        cpu_us.push(ratio(cpu.as_secs_f64() * 1e6, out.records() as f64));
        rss.push(peak);
        setup_burst(opts, &records, &mut setup);
        println!(
            "stream {:>3}       : {:>10.0} rec/s, wall {:>8.3} ms, cpu {:>7.3} us/rec, \
             peak rss {:>7.1} MB, {} pairs, {failed} failed records",
            rps.len(),
            rps[rps.len() - 1],
            out.wall().as_secs_f64() * 1e3,
            cpu_us[cpu_us.len() - 1],
            peak,
            out.pairs().len()
        );
    }

    // Rates are taken over all timed streams together (records over their
    // summed wall and CPU time), not as a median of per-stream rates: on
    // the chaos workload a stream's wall is dominated by a few
    // retransmission timeouts, so per-stream rates are coarse.
    report.aggregate("throughput_rps", "1/s", throughput(streamed, wall), rps);
    report.aggregate("setup_s", "s", mean(&setup), setup);
    let cpu_per_record = ratio(cpu_total.as_secs_f64() * 1e6, streamed as f64);
    report.aggregate("cpu_us_per_record", "us", cpu_per_record, cpu_us);
    report.median("peak_rss_mb", "MB", rss);
    report
}

/// One burst of timed set-ups: calibrate the partition, plus node spawn
/// and handshake on the cluster workloads. Returns the partition.
fn setup_burst(opts: &Options, records: &[Record], samples: &mut Vec<f64>) -> LengthPartition {
    let w = &opts.workload;
    let started = Instant::now();
    let mut reps = 0;
    loop {
        let t0 = Instant::now();
        let partition = w.calibrate(records);
        let calibrate = t0.elapsed();
        let spawn = w
            .spawn_probe(records, &partition, opts.node_bin())
            .unwrap_or_default();
        samples.push((calibrate + spawn).as_secs_f64());
        reps += 1;
        if reps >= SETUP_BURST_MAX_REPS
            || (reps >= SETUP_BURST_REPS && started.elapsed() >= SETUP_BURST)
        {
            return partition;
        }
    }
}
