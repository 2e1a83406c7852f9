//! Cross-process cluster tests: the launcher drives real `ssj-node` OS
//! processes over localhost TCP and must be bit-exact with both the
//! reference oracle and the in-process backend — through clean runs,
//! supervised kills of live processes, link chaos, and checkpoint
//! restores that cross a process boundary.
//!
//! Cargo builds the `ssj-node` binary for us and hands its path over via
//! `CARGO_BIN_EXE_ssj-node`, so these tests need no manual setup and run
//! on ephemeral loopback ports (the launcher binds 127.0.0.1:0).

use ssj_core::{JoinConfig, MatchPair, Window};
use ssj_distrib::{ClusterBackend, ClusterResult, LocalAlgo, PartitionMethod, Strategy};
use std::path::PathBuf;
use std::time::Duration;
use testkit::{
    assert_pairs_equal, cluster_config_for, differential_records, run_cluster_differential,
    run_cluster_restore_differential, sacked_kill_case, self_join_surviving, sorted_keys,
    with_deadline, DifferentialCase, SACKED_KILLS,
};

/// Hard per-test timeout: the self-healing failure mode under test is
/// "the cluster hangs", so every fault test runs under a deadline that
/// converts a hang into a named panic instead of a stuck CI job.
const TEST_DEADLINE: Duration = Duration::from_secs(120);

/// The `ssj-node` binary Cargo built alongside this test.
fn tcp_backend() -> ClusterBackend {
    ClusterBackend::Tcp {
        node_bin: PathBuf::from(env!("CARGO_BIN_EXE_ssj-node")),
    }
}

/// Same base case as the in-process differential suite, so each TCP test
/// here has an in-process twin pinned to the identical oracle.
fn base_case() -> DifferentialCase {
    DifferentialCase::new(
        150,
        3,
        JoinConfig::jaccard(0.7),
        LocalAlgo::bundle(),
        Strategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 50,
        },
    )
}

#[test]
fn tcp_cluster_matches_oracle() {
    let out = run_cluster_differential(11, &base_case(), tcp_backend());
    assert!(
        out.pairs > 0,
        "workload produced no pairs — test is vacuous"
    );
    assert_eq!(out.shed, 0);
}

#[test]
fn tcp_cluster_bistream_matches_oracle() {
    let out = run_cluster_differential(5, &base_case().bistream(), tcp_backend());
    assert!(out.pairs > 0, "bistream workload produced no pairs");
}

#[test]
fn tcp_cluster_recovers_from_a_killed_node_process() {
    // The launcher kills a live ssj-node OS process mid-run, respawns it,
    // replays, and the final pair set must still equal the oracle exactly
    // (run_cluster_differential also asserts a restart actually happened).
    let mut case = base_case().with_crash();
    case.join = case.join.with_window(Window::Count(60));
    let out = run_cluster_differential(23, &case, tcp_backend());
    assert!(out.pairs > 0);
}

#[test]
fn tcp_cluster_crash_composes_with_link_chaos() {
    // Kill + seeded link faults (drops, dups, delays, reorders) at once:
    // the at-least-once layer must mask everything bit-exactly.
    let mut case = base_case().with_crash().with_chaos();
    case.join = case.join.with_window(Window::Count(60));
    let out = run_cluster_differential(23, &case, tcp_backend());
    assert!(
        out.result.retransmissions > 0,
        "chaos was requested but nothing was ever retransmitted"
    );
}

#[test]
fn tcp_sack_kill_while_frames_are_held_is_exact() {
    // The TCP twin of the in-process kill sweep: a live ssj-node process
    // killed under heavy loss usually dies holding SACKed frames, which
    // its successor never received. Each point must stay exact.
    with_deadline(TEST_DEADLINE, || {
        for (seed, at) in SACKED_KILLS {
            let out = run_cluster_differential(seed, &sacked_kill_case(seed, at), tcp_backend());
            assert!(
                out.result.sacks_received > 0,
                "seed {seed}: no selective ack over TCP"
            );
        }
    });
}

#[test]
fn tcp_sack_clean_run_sends_no_sack() {
    // TCP never drops or reorders, so a node never holds a frame above a
    // gap and the selective-ack path stays silent.
    with_deadline(TEST_DEADLINE, || {
        let mut case = base_case();
        case.records = 1_000;
        let out = run_cluster_differential(11, &case, tcp_backend()).result;
        assert_eq!(out.sacks_received, 0);
        assert_eq!(out.fast_retransmissions, 0);
    });
}

#[test]
fn tcp_cluster_checkpointed_crash_matches_oracle() {
    let mut case = base_case().with_crash().with_checkpoints(20);
    case.join = case.join.with_window(Window::Count(60));
    let out = run_cluster_differential(17, &case, tcp_backend());
    assert!(
        out.result.epochs_committed > 0,
        "no epoch ever committed — the checkpoint knob did nothing"
    );
}

#[test]
fn tcp_cluster_restore_crosses_process_boundaries() {
    // Phase one's node processes checkpoint and die with the whole
    // cluster; phase two's brand-new processes restore the snapshots over
    // the wire and owe exactly the post-cut oracle pairs.
    let out = run_cluster_restore_differential(9, &base_case(), tcp_backend());
    assert!(out.cut.is_some(), "phase one committed no epoch");
    assert!(out.pairs > 0, "post-cut suffix produced no pairs");
}

#[test]
fn tcp_stall_window_is_masked_exactly() {
    // A lossless stall on a real socket wire: frames freeze, then release
    // in order — nothing may be lost, duplicated, or reordered past the
    // at-least-once layer.
    with_deadline(TEST_DEADLINE, || {
        let case = base_case().with_stall(1, 10, 15);
        let out = run_cluster_differential(41, &case, tcp_backend());
        assert!(out.pairs > 0);
        assert_eq!(out.shed, 0);
        assert!(out.result.health.stalled_frames > 0, "stall never fired");
    });
}

#[test]
fn tcp_one_way_partition_is_masked_exactly() {
    // Outbound frames silently vanish for a window; retransmission under
    // the original seqs must mask the loss bit-exactly.
    with_deadline(TEST_DEADLINE, || {
        let case = base_case().with_partition(0, 8, 12, false);
        let out = run_cluster_differential(43, &case, tcp_backend());
        assert!(out.pairs > 0);
        assert_eq!(out.shed, 0);
        assert!(
            out.result.health.partition_dropped_frames > 0,
            "partition never fired"
        );
        assert!(
            out.result.retransmissions > 0,
            "dropped frames were never retransmitted"
        );
    });
}

#[test]
fn tcp_two_way_partition_trips_the_detector_within_its_bound() {
    // Both directions go dark long enough to outlast `suspect_after`: the
    // heartbeat detector must declare the node suspect, respawn it, and
    // the result must still equal the oracle exactly. The window length
    // (170 transmissions, vs a 64-frame in-flight cap plus one 40ms
    // retransmission wave) keeps the wire dark past the deadline but lets
    // the respawn retransmission close the window.
    with_deadline(TEST_DEADLINE, || {
        let case = base_case().with_partition(0, 10, 170, true);
        let cfg = cluster_config_for(47, &case, tcp_backend());
        let health = cfg.health.expect("outage cases enable the detector");

        let out = run_cluster_differential(47, &case, tcp_backend());
        assert_eq!(out.shed, 0);
        let h = &out.result.health;
        assert!(h.suspects >= 1, "the detector never fired");
        assert!(h.respawns >= 1, "a suspect node was never respawned");

        // Detection latency = observed silence at suspicion: at least the
        // configured deadline, at most the deadline plus one heartbeat
        // interval and scheduling slack for the detector pass itself.
        let bound = health.suspect_after + health.heartbeat_interval + Duration::from_millis(250);
        assert!(h.detection_latency.count() >= 1);
        assert!(
            h.detection_latency.max() <= bound,
            "detection latency {:?} exceeds bound {:?}",
            h.detection_latency.max(),
            bound
        );
        assert!(h.detection_latency.quantile(0.0) >= health.suspect_after);

        // The same histogram must surface in the exported metrics.
        let snap = out.result.metrics_snapshot();
        assert!(
            snap.names().contains(&"dssj_cluster_detection_latency"),
            "detection latency missing from the metrics snapshot"
        );
    });
}

#[test]
fn tcp_exhausted_budget_fences_with_exact_shed_accounting() {
    // Budget zero: the first kill fences the node instead of respawning
    // it. run_cluster_differential compares against the shed-adjusted
    // oracle, so passing proves the degraded answer is exactly the join
    // over surviving records — never a hang, never a silent partial set.
    with_deadline(TEST_DEADLINE, || {
        // A longer stream and an early kill horizon: over real sockets ack
        // draining is bursty, so the default mid-stream horizon can land
        // after the last record was already dispatched and acked, leaving
        // nothing to shed and proving nothing. Fencing at ack 30 of a
        // 400-record stream guarantees records remain behind the fence on
        // every interleaving.
        let mut case = base_case().with_crash_at(30).with_recovery_budget(0);
        case.records = 400;
        case.join = case.join.with_window(Window::Count(60));
        let out = run_cluster_differential(23, &case, tcp_backend());
        assert_eq!(out.result.health.fenced_tasks.len(), 1);
        assert!(out.shed > 0, "a fenced task with no records is vacuous");
        assert_eq!(out.result.health.respawns, 0);
    });
}

#[test]
fn tcp_crash_within_budget_stays_exact_and_unfenced() {
    with_deadline(TEST_DEADLINE, || {
        let mut case = base_case().with_crash().with_recovery_budget(2);
        case.join = case.join.with_window(Window::Count(60));
        let out = run_cluster_differential(23, &case, tcp_backend());
        assert_eq!(out.shed, 0, "within budget nothing may be shed");
        assert!(out.result.health.fenced_tasks.is_empty());
    });
}

#[test]
fn tcp_golden_digests_survive_partitions_under_logical_time() {
    // Wire digests fold first-transmission data bytes only — before the
    // chaos gate, excluding retransmissions and heartbeats — so neither a
    // partition window nor detector timing may perturb them: two runs
    // over real sockets must stay byte-identical.
    with_deadline(TEST_DEADLINE, || {
        let case = base_case().with_partition(1, 8, 12, false);
        let records = testkit::differential_records(53, case.records);
        let digests_for = || {
            let mut cfg = cluster_config_for(53, &case, tcp_backend());
            cfg.logical_time = true;
            ssj_distrib::run_cluster(&records, &cfg)
                .wire_digests
                .expect("logical-time runs always produce wire digests")
        };
        let a = digests_for();
        let b = digests_for();
        assert_eq!(a, b, "partitioned TCP replay diverged under logical time");
    });
}

#[test]
fn tcp_corruption_window_heals_to_the_clean_run_bit_exactly() {
    // A scripted single-bit flip on a real socket wire: the node detects
    // the checksum mismatch and dies, the detector respawns it with
    // session resume, and the healed result must equal both the oracle
    // (asserted inside run_cluster_differential) and a clean twin run of
    // the identical seed, bit-exactly.
    with_deadline(TEST_DEADLINE, || {
        let corrupt = base_case().with_corruption(1, 10, 2, false);
        let out = run_cluster_differential(29, &corrupt, tcp_backend());
        assert!(out.pairs > 0);
        assert_eq!(out.shed, 0, "healing must not shed");
        assert!(
            out.result.health.respawns >= 1,
            "corruption never triggered a healing respawn"
        );

        let clean = run_cluster_differential(29, &base_case(), tcp_backend());
        assert_eq!(clean.result.health.respawns, 0);
        assert_eq!(
            sorted_keys(&out.result.pairs),
            sorted_keys(&clean.result.pairs),
            "healed run diverged from its clean twin"
        );
    });
}

#[test]
fn tcp_inbound_corruption_is_counted_and_healed() {
    // The launcher-side flavor: a frame from the node is flipped on
    // receive. The launcher must classify it (corrupt_frames), discard
    // the poisoned incarnation, and heal by respawn — visible in the
    // exported metrics.
    with_deadline(TEST_DEADLINE, || {
        let case = base_case().with_corruption(0, 12, 2, true);
        let out = run_cluster_differential(37, &case, tcp_backend());
        assert!(out.pairs > 0);
        assert!(
            out.result.integrity.corrupt_frames >= 1,
            "inbound corruption window never hit a frame"
        );
        assert!(out.result.health.respawns >= 1);
        let snap = out.result.metrics_snapshot();
        assert!(
            snap.names().contains(&"dssj_cluster_corrupt_frames_total"),
            "corrupt-frame counter missing from the metrics snapshot"
        );
    });
}

#[test]
fn tcp_and_in_process_backends_are_equivalent() {
    // The tentpole equivalence claim, head to head: same seed, same case,
    // both backends — identical pair sets (each is separately pinned to
    // the oracle inside run_cluster_differential; this closes the loop).
    let case = base_case();
    let tcp = run_cluster_differential(31, &case, tcp_backend());
    let inproc = run_cluster_differential(31, &case, ClusterBackend::InProcess);
    assert_eq!(
        sorted_keys(&tcp.result.pairs),
        sorted_keys(&inproc.result.pairs)
    );
}

#[test]
fn tcp_golden_digests_match_in_process_and_replay_exactly() {
    // Golden-transcript property: under logical time, each wire's
    // outbound data stream is byte-deterministic, so its FNV-1a digest
    // must be identical run-to-run over real sockets AND across backends.
    // (Ack/result interleaving stays nondeterministic — see the
    // determinism contract in ssj_distrib::cluster's module docs.)
    let case = base_case();
    let records = testkit::differential_records(41, case.records);

    let digests_for = |backend: ClusterBackend| {
        let mut cfg = cluster_config_for(41, &case, backend);
        cfg.logical_time = true;
        ssj_distrib::run_cluster(&records, &cfg)
            .wire_digests
            .expect("logical-time runs always produce wire digests")
    };

    let tcp_a = digests_for(tcp_backend());
    let tcp_b = digests_for(tcp_backend());
    let inproc = digests_for(ClusterBackend::InProcess);
    assert_eq!(tcp_a, tcp_b, "TCP replay diverged under logical time");
    assert_eq!(tcp_a, inproc, "TCP and in-process transcripts diverged");
    assert_eq!(tcp_a.len(), case.k);
}

/// A retransmission timeout far beyond [`TEST_DEADLINE`]. With it, a frame
/// left in the launcher's write batch is never rescued by a retransmit, so
/// a launcher that waits without flushing first hangs into the deadline
/// panic instead of merely running slow.
const NO_RETRY: Duration = Duration::from_secs(3600);

/// Runs `case` with the launcher's in-flight cap at `capacity` on `backend`,
/// with retransmission out of reach, and checks the pairs against the
/// oracle over the records that were not shed.
fn run_capped(
    seed: u64,
    case: &DifferentialCase,
    capacity: usize,
    backend: ClusterBackend,
) -> ClusterResult {
    let records = differential_records(seed, case.records);
    let mut cfg = cluster_config_for(seed, case, backend);
    cfg.channel_capacity = capacity;
    cfg.retry.base_timeout = NO_RETRY;
    cfg.retry.max_timeout = NO_RETRY;
    let out = ssj_distrib::run_cluster(&records, &cfg);
    let expect = self_join_surviving(&records, &case.join, &out.shed_records);
    assert_pairs_equal(seed, &out.pairs, expect, &format!("capacity {capacity}"));
    out
}

#[test]
fn tcp_launcher_flushes_before_every_backpressure_wait() {
    // Every cap is below the batcher's 32-frame threshold, so the frames
    // a full wire waits on are still batched unless the launcher flushes
    // before it waits.
    with_deadline(TEST_DEADLINE, || {
        for capacity in [1, 3, 31] {
            let tcp = run_capped(59, &base_case(), capacity, tcp_backend());
            let inproc = run_capped(59, &base_case(), capacity, ClusterBackend::InProcess);
            assert!(!tcp.pairs.is_empty(), "capacity {capacity}: no pairs");
            assert_eq!(
                sorted_keys(&tcp.pairs),
                sorted_keys(&inproc.pairs),
                "capacity {capacity}: TCP and in-process diverged"
            );
        }
    });
}

#[test]
fn tcp_launcher_sheds_exactly_under_the_flush_policy() {
    // A watermark below both the cap and the batch threshold: the launcher
    // sheds instead of waiting, with the backlog it gives up on pushed out
    // first. Which records are shed is timing-driven; the answer over the
    // rest must stay exact and the run must finish.
    with_deadline(TEST_DEADLINE, || {
        let mut case = base_case().with_shedding(30);
        case.records = 600;
        let tcp = run_capped(61, &case, 31, tcp_backend());
        let inproc = run_capped(61, &case, 31, ClusterBackend::InProcess);
        // The first 30 records can never be shed, and they hold pairs.
        assert!(
            !tcp.pairs.is_empty(),
            "no surviving pairs — test is vacuous"
        );
        // Shedding is timing-driven, so the two backends shed different
        // records; on the records both kept, they must agree exactly.
        let kept_by_both = |pairs: &[MatchPair]| {
            let shed =
                |id: u64| tcp.shed_records.contains(&id) || inproc.shed_records.contains(&id);
            let kept: Vec<MatchPair> = pairs
                .iter()
                .filter(|p| !shed(p.earlier.0) && !shed(p.later.0))
                .copied()
                .collect();
            sorted_keys(&kept)
        };
        assert_eq!(kept_by_both(&tcp.pairs), kept_by_both(&inproc.pairs));
    });
}

#[test]
fn tcp_launcher_coalesces_frames_into_few_writes() {
    // Structural gate on the flush policy, independent of wall-clock
    // timing: a launcher that flushed after every dispatched record would
    // write about one frame per batch here.
    with_deadline(TEST_DEADLINE, || {
        let mut case = base_case();
        case.records = 3000;
        let tcp = run_cluster_differential(67, &case, tcp_backend()).result;
        let ratio = tcp.wire_frames as f64 / tcp.wire_writes.max(1) as f64;
        assert!(
            ratio >= 4.0,
            "launcher wrote {} frames in {} batches ({ratio:.2} per write)",
            tcp.wire_frames,
            tcp.wire_writes
        );
    });
}
