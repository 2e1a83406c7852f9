//! Real-cluster execution: k joiner processes over sockets, one launcher.
//!
//! [`run_cluster`] / [`run_cluster_bistream`] run the same logical
//! topology as [`crate::driver::run_distributed`] — source → dispatcher →
//! k joiners → sink — but split it at the process boundary: the launcher
//! keeps the source, the dispatcher (router, shed watermark, recovery
//! buffers, checkpoint coordinator) and the sink, while each joiner runs
//! behind one [`stormlite::Wire`]. Two backends are interchangeable:
//!
//! * [`ClusterBackend::InProcess`] — joiners are threads behind channel
//!   wires. Same protocol, no sockets; this is the reference the TCP
//!   backend is differentially tested against.
//! * [`ClusterBackend::Tcp`] — joiners are real `ssj-node` OS processes
//!   connected over localhost TCP (ephemeral ports, see
//!   [`stormlite::listen_loopback`]).
//!
//! # The at-least-once protocol, over the wire
//!
//! Every routed [`JoinMsg`] travels as a `Data{seq, msg}` frame with a
//! per-connection sequence number. A node processes frames in strict
//! `seq` order (buffering out-of-order arrivals, re-acking
//! retransmissions of already-processed sequence numbers) and writes
//! every result/snapshot frame a message produces *before* its
//! `Ack{seq}` on the same FIFO stream.
//!
//! Loss is repaired by selective ack (protocol v4). Before it blocks, a
//! node whose reorder buffer holds frames above a gap, and has grown
//! since its last report, sends one [`Frame::Sack`] listing its lowest
//! held `seq` ranges. The launcher marks those frames SACKed and resends
//! at once only the frames the loss rule names lost: unacked, not
//! SACKed, and sent at least [`crate::session::SACK_REORDER`]
//! transmissions before the newest SACKed frame. The backoff timer built
//! from [`stormlite::RetryConfig`] stays as the backstop for a lost tail
//! or a lost retransmission; it skips SACKed frames, and a link's window
//! is scanned only once its earliest due instant has passed. A gap-free
//! wire never carries a `Sack`, and v2/v3 nodes, which never send one,
//! are repaired by the timer alone. The reorder buffer and the loss rule
//! live, free of I/O, in [`crate::session`]. Because acks
//! follow results in FIFO order, a received ack proves every result of
//! that message arrived; conversely any lost output suffix corresponds to
//! unacked frames, which are reprocessed after recovery — producing
//! byte-identical duplicate results the launcher's sink drops by pair
//! key. The net effect is effectively-once output, exactly what the
//! in-process engine's reliable wires deliver.
//!
//! # Crash recovery
//!
//! When a node dies (supervised [`ClusterFault`] kill, or a socket
//! failure), the launcher consumes whatever the node managed to deliver —
//! TCP hands over the written prefix in order, so every ack, result and
//! snapshot the node emitted before dying still counts — then restarts
//! the node, replays its lost index state over [`Frame::Restore`]
//! (checkpoint snapshot plus the replay-buffer tail, index-only exactly
//! like the in-process replay path) and retransmits the unacked frames in
//! their original order under their original sequence numbers. The
//! restored state equals the state after the acked prefix, so
//! reprocessing the unacked suffix is bit-exact. The fresh node holds
//! nothing, so every SACKed mark is cleared when the suffix is resent.
//!
//! # Backpressure → shedding
//!
//! The launcher bounds in-flight (sent-but-unacked) frames per wire at
//! `channel_capacity` — the cluster analogue of the in-process bounded
//! channel — and, when a shed watermark is set, sheds whole records whose
//! deepest target backlog reaches the watermark, before any emit or
//! replay buffering, mirroring [`crate::bolts::DispatcherBolt`]. On the
//! node side the TCP receive queue is bounded too: a full queue stops the
//! socket reader, which closes the kernel receive window, so pressure is
//! real end to end.
//!
//! Both ends follow one flush rule: **flush only before blocking**. Sends
//! go into the wire's write batch, which writes on its own once it holds
//! 32 frames or 64 KiB. The launcher flushes every wire before it waits —
//! a full in-flight window, the end-of-stream drain, the wait for `Done`
//! — and flushes the target wires before it sheds a record; handshake,
//! `Eos`, heartbeat, respawn and retransmission waves flush at once. A
//! node flushes whenever its inbound queue runs dry. No end ever waits on
//! a reply to a frame still sitting in its own batch, and a run of small
//! frames shares one `write` instead of paying one each.
//!
//! # Determinism over real sockets — what holds and what cannot
//!
//! With [`ClusterConfig::logical_time`] set, ingest/barrier stamps come
//! from a logical counter instead of the wall clock, and each wire's
//! *outbound data stream* (first transmissions, in sequence order) is
//! byte-deterministic for a fixed input — [`ClusterResult::wire_digests`]
//! captures it and the golden-transcript test pins it. Everything beyond
//! that outbound stream is **inherently nondeterministic over real
//! sockets**: OS scheduling of k processes interleaves result arrival
//! across wires, retransmission timers fire on real time, and wall-clock
//! latencies vary run to run. The determinism contract is therefore:
//! per-wire outbound frame bytes (under logical time) and the final
//! *result set* are exact; arrival order and timing metrics are not —
//! which is why every cross-process test compares sorted pair sets, never
//! transcripts of arrival.

use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::{Event, LatencyHistogram, MetricsSnapshot, Stage, StageProfile};
use ssj_core::join::bistream::merge_streams;
use ssj_core::snapshot::{decode_window_slice, encode_window_vec, SnapshotEntry};
use ssj_core::{JoinConfig, MatchPair, Threshold};
use ssj_text::{FxHashSet, Record};
use stormlite::{
    ChaosLink, ChaosWindow, CloseReason, LinkFault, LinkOutage, RetryConfig, TcpWire, Timestamp,
    Wire, WireEvent,
};

use crate::bolts::{JoinerSnapshot, LocalState, PrefixDedup};
use crate::checkpoint::{CheckpointConfig, CheckpointCoordinator, SnapshotStore};
use crate::driver::{build_router, prepare_restore, DistributedJoinConfig, LocalAlgo, Strategy};
use crate::msg::{JoinMsg, RecordMsg};
use crate::recovery::{RecoveryState, ReplayEntry};
use crate::route::Router;
use crate::session::{apply_sack, InFlight, ReorderBuffer};
use crate::wire::{
    encode_data, seal_if, send_frame, Frame, NodeConfig, NodeReport, CHECKSUM_PROTO_VERSION,
    MAX_SACK_RANGES, MIN_PROTO_VERSION, PROTO_VERSION, SACK_PROTO_VERSION,
};

/// How joiner tasks are hosted.
#[derive(Debug, Clone)]
pub enum ClusterBackend {
    /// Joiners run as threads behind in-process channel wires — the
    /// reference backend every TCP run is differentially compared to.
    InProcess,
    /// Joiners run as `ssj-node` OS processes over localhost TCP.
    Tcp {
        /// Path to the `ssj-node` binary to spawn.
        node_bin: PathBuf,
    },
}

/// A supervised mid-run kill: the launcher kills joiner `task` once it
/// has acknowledged `after_acks` frames, then restarts it and replays —
/// the cluster analogue of [`stormlite::FaultPlan`]'s joiner crashes.
#[derive(Debug, Clone, Copy)]
pub struct ClusterFault {
    /// Which joiner task to kill.
    pub task: usize,
    /// Kill after this many acknowledged frames from that task.
    pub after_acks: u64,
}

/// Heartbeat-driven failure detection and bounded self-healing.
///
/// The launcher treats *any* inbound frame as a life sign, so a busy node
/// acking data never trips the detector; heartbeats only force traffic on
/// an otherwise idle wire. A wire silent for longer than `suspect_after`
/// is declared suspect and recovered (kill + respawn + session resume
/// under the original sequence numbers). The detector runs on the wall
/// clock even under [`ClusterConfig::logical_time`] — heartbeat frames
/// are never folded into wire digests, so detector timing cannot perturb
/// the deterministic outbound data stream.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Probe an idle wire with a [`Frame::Heartbeat`] this often.
    pub heartbeat_interval: Duration,
    /// Declare a node suspect after this long without any inbound frame.
    pub suspect_after: Duration,
    /// Respawns allowed per task before it is fenced and its partition is
    /// shed with exact recall accounting. `None` = recover forever.
    /// Fencing accounting is defined for self-joins only.
    pub recovery_budget: Option<u32>,
}

impl HealthConfig {
    /// Defaults tuned for localhost wires: probe every 25ms, suspect
    /// after 250ms of silence, never fence.
    pub fn recommended() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(25),
            suspect_after: Duration::from_millis(250),
            recovery_budget: None,
        }
    }
}

/// What a scripted [`ClusterOutage`] does to its wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageKind {
    /// Outbound frames freeze (lossless) for the window, then release.
    Stall,
    /// Outbound frames are dropped for the window; inbound still flows.
    PartitionOneWay,
    /// Both directions are cut: outbound drops, inbound is held (in
    /// order) until the window passes.
    PartitionTwoWay,
    /// Outbound (launcher→node) data frames in the window each have one
    /// bit flipped in flight. With frame checksums (protocol v3) the node
    /// detects the mismatch and dies with an error close, which the
    /// launcher heals exactly like a crash — corruption is a dropped
    /// frame with extra steps.
    Corrupt,
    /// Inbound (node→launcher) frames in the window each have one bit
    /// flipped just before the launcher parses them, exercising the
    /// launcher-side classified corruption path: discard the poisoned
    /// incarnation's remaining output, respawn, retransmit. The window is
    /// keyed on this wire's inbound frame ordinal.
    CorruptInbound,
}

/// A scripted outage on one launcher→joiner wire, keyed on that wire's
/// data-transmission ordinal so placement is deterministic across
/// schedulers and heartbeat cadences (see [`stormlite::ChaosWindow`]).
#[derive(Debug, Clone, Copy)]
pub struct ClusterOutage {
    /// The joiner task whose wire is disturbed.
    pub task: usize,
    /// The window opens after this many data transmissions on the wire.
    pub after: u64,
    /// The window covers this many subsequent transmissions.
    pub len: u64,
    /// Stall or partition.
    pub kind: OutageKind,
}

impl ClusterOutage {
    fn window(self) -> ChaosWindow {
        ChaosWindow {
            after: self.after,
            len: self.len,
        }
    }

    /// The outbound [`LinkOutage`] this scripts, if any —
    /// [`OutageKind::CorruptInbound`] is applied launcher-side instead.
    fn to_link_outage(self) -> Option<LinkOutage> {
        let window = self.window();
        match self.kind {
            OutageKind::Stall => Some(LinkOutage::Stall(window)),
            OutageKind::PartitionOneWay => Some(LinkOutage::Partition {
                window,
                two_way: false,
            }),
            OutageKind::PartitionTwoWay => Some(LinkOutage::Partition {
                window,
                two_way: true,
            }),
            OutageKind::Corrupt => Some(LinkOutage::Corrupt(window)),
            OutageKind::CorruptInbound => None,
        }
    }
}

/// Configuration of one cluster run.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of joiner tasks (= nodes).
    pub k: usize,
    /// Similarity threshold and window.
    pub join: JoinConfig,
    /// Local join algorithm each node runs.
    pub local: LocalAlgo,
    /// Routing strategy (calibrated launcher-side; nodes only join).
    pub strategy: Strategy,
    /// Where joiners run.
    pub backend: ClusterBackend,
    /// Per-wire in-flight bound (sent-but-unacked frames) — the cluster
    /// analogue of the in-process bounded channel capacity.
    pub channel_capacity: usize,
    /// Seeded link chaos on every launcher→joiner wire (drops, dups,
    /// delays — masked by the at-least-once protocol).
    pub chaos_seed: Option<u64>,
    /// Shed whole records when a target wire's backlog reaches this.
    pub shed_watermark: Option<usize>,
    /// Barrier-driven checkpointing, coordinated by the launcher.
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from the latest complete checkpoint in this store.
    pub restore_from: Option<Arc<dyn SnapshotStore>>,
    /// Supervised mid-run kill + restart of one node.
    pub fault: Option<ClusterFault>,
    /// Scripted stall/partition windows on individual wires.
    pub outages: Vec<ClusterOutage>,
    /// Heartbeat liveness detection and recovery budgets.
    pub health: Option<HealthConfig>,
    /// Protocol version the in-process node threads announce in their
    /// `Hello` — a test knob proving the launcher interoperates with
    /// older peers (`Some(2)` runs the link without frame checksums,
    /// exactly as a stale `ssj-node` binary would). `None` = current
    /// [`PROTO_VERSION`]. Ignored by the TCP backend, where the spawned
    /// binary's own version speaks for itself.
    pub node_proto: Option<u16>,
    /// Retransmission backoff for unacked frames.
    pub retry: RetryConfig,
    /// Stamp ingest/barrier times from a logical counter instead of the
    /// wall clock, making each wire's outbound data stream
    /// byte-deterministic (the golden-transcript mode). Latency metrics
    /// are meaningless under logical time and are skipped.
    pub logical_time: bool,
}

impl ClusterConfig {
    /// Paper-default cluster setup, mirroring
    /// [`DistributedJoinConfig::recommended`].
    pub fn recommended(k: usize, join: JoinConfig, backend: ClusterBackend) -> Self {
        let base = DistributedJoinConfig::recommended(k, join);
        Self {
            k,
            join,
            local: base.local,
            strategy: base.strategy,
            backend,
            channel_capacity: 256,
            chaos_seed: None,
            shed_watermark: None,
            checkpoint: None,
            restore_from: None,
            fault: None,
            outages: Vec::new(),
            health: None,
            node_proto: None,
            retry: RetryConfig {
                base_timeout: Duration::from_millis(40),
                backoff_factor: 2,
                max_timeout: Duration::from_millis(640),
            },
            logical_time: false,
        }
    }
}

/// Liveness, outage and self-healing counters for one cluster run.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Heartbeat probes sent to idle wires.
    pub heartbeats_sent: u64,
    /// Heartbeat echoes received back.
    pub health_acks: u64,
    /// Liveness deadlines that expired (a node declared suspect).
    pub suspects: u64,
    /// Respawn recoveries performed (scripted kills included).
    pub respawns: u64,
    /// Tasks fenced after exhausting their recovery budget.
    pub fenced_tasks: Vec<usize>,
    /// Silence observed at each suspicion — bounded by `suspect_after`
    /// plus one detector pass when the detector is healthy.
    pub detection_latency: LatencyHistogram,
    /// Frames held by stall windows across all wires.
    pub stalled_frames: u64,
    /// Frames dropped by partition windows across all wires.
    pub partition_dropped_frames: u64,
    /// Wires that reported a clean peer close.
    pub clean_closes: u64,
    /// Wires that died with an I/O error or mid-frame truncation.
    pub error_closes: u64,
    /// Inbound frames rejected as corrupt (checksum mismatch, undecodable
    /// body, or a protocol-violating frame kind) — each one poisons its
    /// incarnation and triggers recovery instead of a panic.
    pub corrupt_frames: u64,
    /// Snapshot frames whose window payload failed to decode; the epoch
    /// publication is refused and the node recovered.
    pub corrupt_snapshots: u64,
}

/// Everything a cluster run reports.
#[derive(Debug)]
pub struct ClusterResult {
    /// Every distinct verified pair, in arrival order at the sink (which
    /// is nondeterministic across wires — compare via
    /// [`ClusterResult::sorted_pairs`]).
    pub pairs: Vec<MatchPair>,
    /// Final per-node reports, one per task.
    pub joiners: Vec<JoinerSnapshot>,
    /// Streamed records (restore re-dispatch tuples excluded).
    pub records: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Ids of records shed at the dispatcher.
    pub shed_records: Vec<u64>,
    /// The checkpoint cut resumed from, if the run restored.
    pub restored_cut: Option<u64>,
    /// Duplicate result frames dropped by the sink's pair-key filter —
    /// nonzero only when crashes or chaos forced reprocessing.
    pub dup_results_dropped: u64,
    /// Frames retransmitted by the at-least-once layer: timer and
    /// selective-ack repairs plus respawn resends.
    pub retransmissions: u64,
    /// The share of `retransmissions` resent at once because a selective
    /// ack exposed them as lost (see [`crate::session`]).
    pub fast_retransmissions: u64,
    /// [`Frame::Sack`] reports received from the nodes.
    pub sacks_received: u64,
    /// First send → ack latency of every frame that needed a resend
    /// (timer, selective-ack or respawn): how long loss repair took.
    pub repair_latency: LatencyHistogram,
    /// Frames the launcher sent over all its wires (respawned
    /// incarnations included): data, retransmissions and control.
    pub wire_frames: u64,
    /// Write batches those frames went out in. `wire_frames / wire_writes`
    /// is the coalescing factor; in-process wires write every frame on its
    /// own, so there the two are equal.
    pub wire_writes: u64,
    /// Checkpoint epochs committed during the run.
    pub epochs_committed: u64,
    /// Launcher-side per-stage latencies (route, dispatch, deliver,
    /// retry, emit, checkpoint).
    pub stages: StageProfile,
    /// End-to-end dispatch→result latency (empty under logical time).
    pub latency: LatencyHistogram,
    /// Per-wire FNV-1a digest of first-transmission data-frame bytes, in
    /// sequence order — present only under `logical_time`, where that
    /// stream is deterministic (see the module docs for what is not).
    pub wire_digests: Option<Vec<u64>>,
    /// Liveness and self-healing counters.
    pub health: HealthReport,
    /// Wall-clock suspect/recover/fence span events, in occurrence order
    /// (`a` = task, `b` = stage-specific operand; see [`obs::Stage`]).
    pub health_events: Vec<Event>,
    /// End-to-end integrity counters: wire-frame rejections (mirroring
    /// [`HealthReport::corrupt_frames`]) plus storage-side quarantines and
    /// verified-restore fallbacks.
    pub integrity: stormlite::IntegrityReport,
}

impl ClusterResult {
    /// Pairs sorted by `(earlier, later)` key — the canonical form every
    /// equivalence assertion compares, because arrival order across wires
    /// is not deterministic.
    pub fn sorted_pairs(&self) -> Vec<MatchPair> {
        let mut pairs = self.pairs.clone();
        pairs.sort_by_key(MatchPair::key);
        pairs
    }

    /// Streamed records per wall-clock second.
    pub fn throughput(&self) -> f64 {
        self.records as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Every field of this result as label-disciplined metric samples,
    /// ready for [`obs::prometheus`] — the cluster-level counterpart of
    /// `RunReport::metrics_snapshot`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let counters: [(&str, &str, u64); 21] = [
            (
                "dssj_cluster_pairs_total",
                "Distinct verified result pairs",
                self.pairs.len() as u64,
            ),
            (
                "dssj_cluster_records_total",
                "Records streamed through the dispatcher",
                self.records as u64,
            ),
            (
                "dssj_cluster_shed_records_total",
                "Records shed by watermark or fencing",
                self.shed_records.len() as u64,
            ),
            (
                "dssj_cluster_dup_results_dropped_total",
                "Duplicate result frames dropped by the sink",
                self.dup_results_dropped,
            ),
            (
                "dssj_cluster_retransmissions_total",
                "Frames retransmitted by the at-least-once layer",
                self.retransmissions,
            ),
            (
                "dssj_cluster_fast_retransmissions_total",
                "Frames resent at once because a selective ack exposed them as lost",
                self.fast_retransmissions,
            ),
            (
                "dssj_cluster_sacks_received_total",
                "Selective-ack reports received from the nodes",
                self.sacks_received,
            ),
            (
                "dssj_cluster_wire_frames_total",
                "Frames the launcher sent over its wires",
                self.wire_frames,
            ),
            (
                "dssj_cluster_wire_writes_total",
                "Write batches the launcher's outbound frames went out in",
                self.wire_writes,
            ),
            (
                "dssj_cluster_epochs_committed_total",
                "Checkpoint epochs committed",
                self.epochs_committed,
            ),
            (
                "dssj_cluster_heartbeats_sent_total",
                "Liveness probes sent to joiner wires",
                self.health.heartbeats_sent,
            ),
            (
                "dssj_cluster_health_acks_total",
                "Heartbeat echoes received",
                self.health.health_acks,
            ),
            (
                "dssj_cluster_suspects_total",
                "Liveness deadlines expired",
                self.health.suspects,
            ),
            (
                "dssj_cluster_respawns_total",
                "Node respawn recoveries",
                self.health.respawns,
            ),
            (
                "dssj_cluster_stalled_frames_total",
                "Frames held by stall windows",
                self.health.stalled_frames,
            ),
            (
                "dssj_cluster_partition_dropped_frames_total",
                "Frames dropped by partition windows",
                self.health.partition_dropped_frames,
            ),
            (
                "dssj_cluster_corrupt_frames_total",
                "Inbound frames rejected as corrupt",
                self.health.corrupt_frames,
            ),
            (
                "dssj_cluster_corrupt_snapshots_total",
                "Snapshot frames with undecodable windows",
                self.health.corrupt_snapshots,
            ),
            (
                "dssj_cluster_corrupt_snapshot_parts_total",
                "Stored snapshot parts rejected by integrity checks",
                self.integrity.corrupt_snapshot_parts,
            ),
            (
                "dssj_cluster_corrupt_manifests_total",
                "Stored manifests rejected by integrity checks",
                self.integrity.corrupt_manifests,
            ),
            (
                "dssj_cluster_quarantined_epochs_total",
                "Committed epochs quarantined as unverifiable",
                self.integrity.quarantined_epochs,
            ),
        ];
        for (name, help, v) in counters {
            snap.push_counter(name, help, &[], v);
        }
        snap.push_counter(
            "dssj_cluster_wire_closes_total",
            "Wire closes by classified reason",
            &[("reason", "clean")],
            self.health.clean_closes,
        );
        snap.push_counter(
            "dssj_cluster_wire_closes_total",
            "Wire closes by classified reason",
            &[("reason", "error")],
            self.health.error_closes,
        );
        snap.push_gauge(
            "dssj_cluster_joiners",
            "Joiner tasks in the run",
            &[],
            self.joiners.len() as i64,
        );
        snap.push_gauge(
            "dssj_cluster_fenced_tasks",
            "Tasks fenced after budget exhaustion",
            &[],
            self.health.fenced_tasks.len() as i64,
        );
        snap.push_gauge(
            "dssj_cluster_restore_fallback_depth",
            "Epochs restore stepped back past to find a verified one",
            &[],
            self.integrity.restore_fallback_depth.min(i64::MAX as u64) as i64,
        );
        snap.push_histogram(
            "dssj_cluster_result_latency",
            "Dispatch-to-result latency (empty under logical time)",
            &[],
            &self.latency,
        );
        snap.push_histogram(
            "dssj_cluster_repair_latency",
            "First send to ack of every frame that needed a resend",
            &[],
            &self.repair_latency,
        );
        snap.push_histogram(
            "dssj_cluster_detection_latency",
            "Silence observed when each suspect was declared",
            &[],
            &self.health.detection_latency,
        );
        for (stage, hist) in self.stages.stages() {
            snap.push_histogram(
                "dssj_cluster_stage_latency",
                "Launcher-side per-stage latency",
                &[("stage", stage.name())],
                hist,
            );
        }
        snap
    }
}

/// Runs a self-join on a cluster and reports the joined output.
pub fn run_cluster(records: &[Record], cfg: &ClusterConfig) -> ClusterResult {
    let source: Vec<JoinMsg> = records
        .iter()
        .map(|r| JoinMsg::Probe(RecordMsg::solo(r.clone(), Timestamp::ZERO)))
        .collect();
    Launcher::new(records.to_vec(), false, cfg).run(source)
}

/// Runs a bi-stream (R–S) join on a cluster: the two streams are merged
/// into one arrival order by record id, exactly like the in-process
/// driver.
pub fn run_cluster_bistream(
    left: &[Record],
    right: &[Record],
    cfg: &ClusterConfig,
) -> ClusterResult {
    let merged = merge_streams(left, right);
    let arrival: Vec<Record> = merged.iter().map(|(_, r)| r.clone()).collect();
    let source: Vec<JoinMsg> = merged
        .into_iter()
        .map(|(side, record)| {
            JoinMsg::Probe(RecordMsg {
                record,
                ingest: Timestamp::ZERO,
                side: Some(side),
            })
        })
        .collect();
    Launcher::new(arrival, true, cfg).run(source)
}

// ---------------------------------------------------------------------------
// Node side
// ---------------------------------------------------------------------------

/// Node-side inbound frame queue bound. The launcher's in-flight cap is
/// the tight bound; this only absorbs retransmission/duplication slack
/// before socket backpressure (a stalled reader, a closed TCP window)
/// kicks in. The launcher sees that backpressure as acks that stop
/// coming: its shed watermark counts unacknowledged in-flight frames.
const NODE_INBOUND_CAP: usize = 4096;

/// Launcher-side inbound queue bound — effectively unbounded, because
/// the launcher must never deadlock against a node that is blocked
/// writing results while the launcher is blocked writing data.
const LAUNCHER_INBOUND_CAP: usize = 1 << 20;

/// A joiner node's engine: the same local state machine as the in-process
/// joiner bolt, driven by wire frames instead of topology tuples.
struct NodeEngine {
    local: LocalState,
    dedup: Option<PrefixDedup>,
    task: usize,
    buf: Vec<MatchPair>,
    /// Whether outbound frames carry a CRC32C trailer (protocol ≥ 3).
    checksums: bool,
}

impl NodeEngine {
    fn new(cfg: &NodeConfig, checksums: bool) -> Self {
        let threshold = Threshold::new(cfg.sim, cfg.tau);
        let jc = JoinConfig {
            threshold,
            window: cfg.window,
        };
        let local = if cfg.bistream {
            LocalState::bi(|| cfg.algo.build(jc))
        } else {
            LocalState::Solo(cfg.algo.build(jc))
        };
        let dedup = cfg
            .dedup
            .then(|| PrefixDedup::new(threshold, cfg.window, cfg.k as usize, cfg.task as usize));
        Self {
            local,
            dedup,
            task: cfg.task as usize,
            buf: Vec::new(),
            checksums,
        }
    }

    fn advance(&mut self, record: &Record) {
        if let Some(d) = &mut self.dedup {
            d.advance(record.id().0, record.timestamp());
        }
    }

    fn probe(&mut self, payload: &RecordMsg, wire: &mut dyn Wire) -> io::Result<()> {
        let mut pairs = std::mem::take(&mut self.buf);
        pairs.clear();
        self.local.probe(payload, &mut pairs);
        for pair in &pairs {
            if let Some(d) = &self.dedup {
                if !d.should_emit(&payload.record, pair.earlier) {
                    continue;
                }
            }
            send_frame(
                wire,
                &Frame::Result {
                    pair: *pair,
                    ingest: payload.ingest,
                },
                self.checksums,
            )?;
        }
        self.buf = pairs;
        Ok(())
    }

    fn insert(&mut self, payload: &RecordMsg) {
        self.local.insert(payload);
        if let Some(d) = &mut self.dedup {
            d.on_index(&payload.record);
        }
    }

    /// Processes one in-order message. Every frame it produces is written
    /// to the wire *before* the caller writes the message's ack, which is
    /// what lets an ack stand in for "all of this message's output
    /// arrived".
    fn process(&mut self, msg: JoinMsg, wire: &mut dyn Wire) -> io::Result<()> {
        match msg {
            JoinMsg::Probe(payload) => {
                self.advance(&payload.record);
                self.probe(&payload, wire)?;
            }
            JoinMsg::Index(payload) => {
                self.advance(&payload.record);
                self.insert(&payload);
            }
            JoinMsg::ProbeAndIndex(payload) => {
                self.advance(&payload.record);
                self.probe(&payload, wire)?;
                self.insert(&payload);
            }
            JoinMsg::Barrier { epoch, .. } => {
                let entries = self.local.window_snapshot();
                let bytes = encode_window_vec(&entries)?;
                send_frame(
                    wire,
                    &Frame::Snapshot {
                        epoch,
                        task: self.task as u32,
                        window: bytes,
                    },
                    self.checksums,
                )?;
            }
            JoinMsg::Batch(msgs) => {
                // The cluster launcher ships one message per data frame
                // today, but a batch decodes to plain in-order processing
                // either way (the codec rejects nesting).
                for m in msgs {
                    self.process(m, wire)?;
                }
            }
            JoinMsg::Result { .. } => {
                return Err(proto_err("nodes never receive result messages"));
            }
        }
        Ok(())
    }

    /// Index-only state rebuild from a [`Frame::Restore`] body — mirrors
    /// the in-process replay path (nothing is probed, no results are
    /// produced, so a restore can never duplicate a pair).
    fn apply_restore(&mut self, window: &[u8]) -> io::Result<()> {
        let entries: Vec<ReplayEntry> = decode_window_slice(window)?
            .into_iter()
            .map(|(side, record)| ReplayEntry { record, side })
            .collect();
        self.local.restore(&entries);
        if let Some(d) = &mut self.dedup {
            for e in &entries {
                d.on_index(&e.record);
            }
        }
        Ok(())
    }

    fn report(&mut self) -> NodeReport {
        let snap = self.local.snapshot(self.task);
        NodeReport {
            stats: snap.stats,
            stored: snap.stored as u64,
            postings: snap.postings as u64,
        }
    }
}

fn proto_err(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Serves one joiner node over an established wire: handshake, then
/// process data frames in sequence order until end of stream. This is
/// the entire node-side program — the `ssj-node` binary is a TCP
/// connection plus this loop, and the in-process backend runs the same
/// loop on a thread.
pub fn node_serve(wire: &mut dyn Wire, task: usize) -> io::Result<()> {
    node_serve_at(wire, task, PROTO_VERSION)
}

/// [`node_serve`] announcing an explicit protocol version — the
/// interop-test entry point for emulating an older node. At `proto < 3`
/// the link runs without frame checksums, exactly as a v2 binary would;
/// at `proto < 4` the node never sends a [`Frame::Sack`], exactly as a v3
/// binary would.
/// The `Hello` itself always travels unsealed: it is what negotiates
/// whether checksums are on for the rest of the stream.
pub fn node_serve_at(wire: &mut dyn Wire, task: usize, proto: u16) -> io::Result<()> {
    let checksums = proto >= CHECKSUM_PROTO_VERSION;
    let sacks = proto >= SACK_PROTO_VERSION;
    send_frame(
        wire,
        &Frame::Hello {
            proto,
            task: task as u32,
        },
        false,
    )?;
    wire.flush()?;
    let cfg = match wire.recv_timeout(Duration::from_secs(30))? {
        WireEvent::Frame(b) => match Frame::decode_checked(&b, checksums)? {
            Frame::Config(c) => c,
            other => return Err(proto_err(format!("expected Config, got {other:?}"))),
        },
        WireEvent::Idle => return Err(proto_err("timed out waiting for Config")),
        WireEvent::Closed(_) => return Ok(()), // launcher abandoned the handshake
    };
    if cfg.task as usize != task {
        return Err(proto_err("Config addressed to a different task"));
    }
    let mut engine = NodeEngine::new(&cfg, checksums);
    // Out-of-order arrivals (chaos drops/delays/duplicates) wait here until
    // the sequence gap closes; processing is strictly in `seq` order.
    let mut pending: ReorderBuffer<JoinMsg> = ReorderBuffer::new(cfg.resume_seq);
    loop {
        let event = if wire.queue_depth() > 0 {
            wire.try_recv()?
        } else {
            // Inbound queue drained: report what waits above a gap, so the
            // launcher resends only the holes, then push buffered
            // results/acks out before blocking, so the launcher is never
            // left waiting on a batch.
            if sacks {
                if let Some(held) = pending.report(MAX_SACK_RANGES) {
                    send_frame(wire, &Frame::Sack { held }, checksums)?;
                }
            }
            wire.flush()?;
            wire.recv_timeout(Duration::from_millis(100))?
        };
        match event {
            WireEvent::Idle => continue,
            WireEvent::Closed(_) => return Ok(()), // launcher is done with us
            WireEvent::Frame(b) => match Frame::decode_checked(&b, checksums)? {
                Frame::Heartbeat { nonce, sent_at } => {
                    // Echo immediately and flush: the probe exists to make
                    // an idle-but-alive wire visible, so it must not sit
                    // in the outbound batch.
                    send_frame(wire, &Frame::HealthAck { nonce, sent_at }, checksums)?;
                    wire.flush()?;
                }
                Frame::Data { seq, msg } => {
                    if !pending.insert(seq, msg) {
                        // Retransmission of an already-processed frame: its
                        // effects (and results) are final; just re-ack.
                        send_frame(wire, &Frame::Ack { seq }, checksums)?;
                    }
                    while let Some((seq, msg)) = pending.pop_ready() {
                        engine.process(msg, wire)?;
                        send_frame(wire, &Frame::Ack { seq }, checksums)?;
                    }
                }
                Frame::Restore { window } => engine.apply_restore(&window)?,
                Frame::Eos => {
                    if !pending.is_empty() {
                        return Err(proto_err("end of stream with unfilled sequence gaps"));
                    }
                    send_frame(wire, &Frame::Done(engine.report()), checksums)?;
                    wire.flush()?;
                    // Linger until the launcher closes, so the Done frame
                    // is never lost to an early teardown.
                    loop {
                        match wire.recv_timeout(Duration::from_secs(30))? {
                            WireEvent::Closed(_) | WireEvent::Idle => return Ok(()),
                            WireEvent::Frame(b) => {
                                // Keep answering liveness probes while
                                // lingering, so a slow teardown is never
                                // mistaken for a hung node.
                                if let Ok(Frame::Heartbeat { nonce, sent_at }) =
                                    Frame::decode_checked(&b, checksums)
                                {
                                    send_frame(
                                        wire,
                                        &Frame::HealthAck { nonce, sent_at },
                                        checksums,
                                    )?;
                                    wire.flush()?;
                                }
                            }
                        }
                    }
                }
                other => return Err(proto_err(format!("unexpected frame {other:?}"))),
            },
        }
    }
}

/// Entry point of the `ssj-node` binary: connect to the launcher at
/// `addr` (e.g. `127.0.0.1:41234`), then serve joiner `task`.
pub fn node_main(addr: &str, task: usize) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut wire = TcpWire::new(stream, NODE_INBOUND_CAP)?;
    node_serve(&mut wire, task)
}

// ---------------------------------------------------------------------------
// Launcher side
// ---------------------------------------------------------------------------

enum NodeProc {
    Thread(Option<JoinHandle<io::Result<()>>>),
    Child(Child),
}

struct PendingFrame {
    msg: JoinMsg,
    /// `(id, timestamp)` of the carried record (`None` for barriers):
    /// drives [`RecoveryState::mark_processed`] when the ack arrives.
    record_meta: Option<(u64, u64)>,
    /// The first transmission: delivery and repair latency run from here.
    first_sent: Instant,
    last_sent: Instant,
    /// Timer retransmissions so far (the backoff exponent).
    retries: u32,
    /// The link's transmission ordinal at the last send.
    tx: u64,
    /// The node reported holding this frame: the timer leaves it alone.
    sacked: bool,
}

impl InFlight for PendingFrame {
    fn tx(&self) -> u64 {
        self.tx
    }
    fn sacked(&self) -> bool {
        self.sacked
    }
    fn set_sacked(&mut self) {
        self.sacked = true;
    }
}

struct NodeLink {
    wire: Box<dyn Wire>,
    proc: NodeProc,
    next_seq: u64,
    /// Sent-but-unacknowledged frames, by sequence number. Acks arrive in
    /// order (the node processes in order over FIFO wires), so this is
    /// always a contiguous suffix of the sequence space.
    unacked: BTreeMap<u64, PendingFrame>,
    acked: u64,
    chaos: Option<ChaosLink>,
    incarnation: u64,
    restored_from_epoch: Option<u64>,
    /// FNV-1a over first-transmission data-frame bytes, in seq order;
    /// folded only under logical time, the one mode that reports it.
    digest: u64,
    eos_sent: bool,
    done: Option<NodeReport>,
    /// Wall-clock time of the last inbound frame — the life sign the
    /// failure detector watches. Reset on respawn.
    last_seen: Instant,
    /// When the last heartbeat probe went out on this wire.
    hb_last: Instant,
    /// Inbound frames held while a two-way partition window covers this
    /// wire; released in order at heal, or replayed into the launcher
    /// before a kill so ack contiguity is never broken.
    held_inbound: Vec<Vec<u8>>,
    /// Respawns charged against this task's recovery budget.
    health_respawns: u32,
    /// Fenced: budget exhausted, partition shed, wire abandoned.
    fenced: bool,
    /// Whether frames on this link carry CRC32C trailers — negotiated
    /// from the node's `Hello` protocol version (≥ 3).
    checksums: bool,
    /// Whether the node may send [`Frame::Sack`] (protocol ≥ 4).
    sacks: bool,
    /// Data transmissions on this link so far: the ordinal the loss rule
    /// compares (see [`crate::session`]). Never reset.
    tx: u64,
    /// Earliest instant any unacked, un-SACKed frame can become due for a
    /// timer retransmission; `None` when none can. `service_timers` scans
    /// the window only once this has passed.
    timer_due: Option<Instant>,
    /// The incarnation is being killed and its output drained: a `Sack`
    /// it sent is moot (the successor gets the whole unacked suffix), so
    /// nothing is resent into the dying wire.
    retiring: bool,
    /// Scripted [`OutageKind::CorruptInbound`] windows, keyed on this
    /// wire's inbound frame ordinal.
    corrupt_inbound: Vec<ChaosWindow>,
    /// Inbound frames received (pump path) — the ordinal the corrupt
    /// windows key on. Not reset on respawn, so window placement is
    /// global to the wire like the outbound chaos ordinal.
    inbound_seq: u64,
    /// A corrupt frame arrived from this incarnation: everything else it
    /// sends is untrustworthy (an ack surviving a corrupted result would
    /// cancel the retransmission that re-creates the result), so the
    /// remaining inbound backlog is discarded instead of drained during
    /// the respawn. Cleared once the fresh incarnation is up.
    poisoned: bool,
}

impl NodeLink {
    fn new(
        wire: Box<dyn Wire>,
        proc: NodeProc,
        chaos: Option<ChaosLink>,
        corrupt_inbound: Vec<ChaosWindow>,
    ) -> Self {
        Self {
            wire,
            proc,
            next_seq: 0,
            unacked: BTreeMap::new(),
            acked: 0,
            chaos,
            incarnation: 0,
            restored_from_epoch: None,
            digest: FNV_OFFSET,
            eos_sent: false,
            done: None,
            last_seen: Instant::now(),
            hb_last: Instant::now(),
            held_inbound: Vec::new(),
            health_respawns: 0,
            fenced: false,
            checksums: false,
            sacks: false,
            tx: 0,
            timer_due: None,
            retiring: false,
            corrupt_inbound,
            inbound_seq: 0,
            poisoned: false,
        }
    }

    /// Adopts what the protocol version a fresh incarnation announced
    /// turns on: checksums from v3, selective acks from v4.
    fn negotiate(&mut self, proto: u16) {
        self.checksums = proto >= CHECKSUM_PROTO_VERSION;
        self.sacks = proto >= SACK_PROTO_VERSION;
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn backoff(retry: &RetryConfig, retries: u32) -> Duration {
    let factor = retry.backoff_factor.saturating_pow(retries.min(16)).max(1);
    (retry.base_timeout * factor).min(retry.max_timeout)
}

enum RunClock {
    Wall(Instant),
    Logical(u64),
}

impl RunClock {
    fn now(&mut self) -> Timestamp {
        match self {
            RunClock::Wall(anchor) => {
                Timestamp::from_nanos(anchor.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
            }
            RunClock::Logical(c) => {
                *c += 1;
                Timestamp::from_nanos(*c)
            }
        }
    }
}

/// Dispatcher-side checkpoint bookkeeping, mirroring the in-process
/// dispatcher bolt's barrier injection.
struct CheckpointDriver {
    coordinator: Arc<CheckpointCoordinator>,
    routed_since_barrier: u64,
    last_dispatched: Option<u64>,
    /// Per task: last index-target id routed there (its snapshot cut).
    cuts: Vec<Option<u64>>,
}

struct Launcher<'a> {
    cfg: &'a ClusterConfig,
    bistream: bool,
    arrival: Vec<Record>,
    router: Option<Box<dyn Router + Send>>,
    needs_dedup: bool,
    recovery: Option<Arc<RecoveryState>>,
    checkpoint: Option<CheckpointDriver>,
    links: Vec<NodeLink>,
    listener: Option<TcpListener>,
    clock: RunClock,
    // Sink state.
    pairs: Vec<MatchPair>,
    seen: FxHashSet<(u64, u64)>,
    dup_results_dropped: u64,
    latency: LatencyHistogram,
    // Metrics and control.
    stages: StageProfile,
    retransmissions: u64,
    fast_retransmissions: u64,
    sacks_received: u64,
    repair_latency: LatencyHistogram,
    /// Outbound frames and write batches of retired wires (see
    /// [`ClusterResult::wire_frames`]).
    wire_frames: u64,
    wire_writes: u64,
    shed_log: Vec<u64>,
    /// Epoch publications already forwarded to the coordinator — a
    /// restarted node reprocessing a barrier re-sends its snapshot, and
    /// the coordinator treats over-publication as a protocol violation.
    published: FxHashSet<(u64, u64)>,
    fault_armed: Option<ClusterFault>,
    pending_kill: Option<usize>,
    pending_dead: Option<usize>,
    // Health / self-healing state. The detector runs on the wall clock
    // even under logical time (see `HealthConfig`), anchored here.
    wall_anchor: Instant,
    hb_nonce: u64,
    health_report: HealthReport,
    health_events: Vec<Event>,
    /// Records shed by fencing (retroactive in-flight sheds included):
    /// the sink filters every past and future pair against this set so a
    /// fenced run reports exactly the surviving-record join.
    shed_ids: FxHashSet<u64>,
    any_fenced: bool,
}

impl<'a> Launcher<'a> {
    fn new(arrival: Vec<Record>, bistream: bool, cfg: &'a ClusterConfig) -> Self {
        assert!(cfg.k >= 1, "need at least one joiner");
        Self {
            cfg,
            bistream,
            arrival,
            router: None,
            needs_dedup: false,
            recovery: None,
            checkpoint: None,
            links: Vec::new(),
            listener: None,
            clock: if cfg.logical_time {
                RunClock::Logical(0)
            } else {
                RunClock::Wall(Instant::now())
            },
            pairs: Vec::new(),
            seen: FxHashSet::default(),
            dup_results_dropped: 0,
            latency: LatencyHistogram::new(),
            stages: StageProfile::new(),
            retransmissions: 0,
            fast_retransmissions: 0,
            sacks_received: 0,
            repair_latency: LatencyHistogram::new(),
            wire_frames: 0,
            wire_writes: 0,
            shed_log: Vec::new(),
            published: FxHashSet::default(),
            fault_armed: cfg.fault,
            pending_kill: None,
            pending_dead: None,
            wall_anchor: Instant::now(),
            hb_nonce: 0,
            health_report: HealthReport::default(),
            health_events: Vec::new(),
            shed_ids: FxHashSet::default(),
            any_fenced: false,
        }
    }

    /// Wall nanoseconds since launcher construction — the event clock for
    /// health spans, deliberately independent of the logical run clock so
    /// detector activity can never perturb ingest stamps or digests.
    fn wall_nanos(&self) -> u64 {
        self.wall_anchor
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
    }

    fn run(mut self, source: Vec<JoinMsg>) -> ClusterResult {
        let started = Instant::now();
        let threshold = self.cfg.join.threshold;
        let window = self.cfg.join.window;

        // Restore path: identical source surgery to the in-process driver
        // (drop covered records, prepend the window as index-only tuples,
        // adopt the persisted partition).
        let mut source = source;
        let mut strategy = self.cfg.strategy.clone();
        let mut restored_cut = None;
        let mut prepended = 0;
        let mut restore_integrity = stormlite::IntegrityReport::default();
        if let Some(store) = &self.cfg.restore_from {
            (restored_cut, prepended, restore_integrity) = prepare_restore(
                &mut source,
                &mut strategy,
                store.as_ref(),
                self.cfg.k,
                self.bistream,
            );
        }
        let n_records = source.len() - prepended;

        let router = build_router(&strategy, threshold, window, self.cfg.k, &self.arrival);
        self.needs_dedup = router.needs_result_dedup();
        self.router = Some(router);

        // Recovery machinery is needed whenever anything can kill a node:
        // scripted faults, checkpoint restores, the liveness detector, or
        // scripted outages (which drive the detector into respawns).
        let can_lose_a_node = self.cfg.fault.is_some()
            || self.cfg.checkpoint.is_some()
            || self.cfg.health.is_some()
            || !self.cfg.outages.is_empty();
        self.recovery = can_lose_a_node.then(|| Arc::new(RecoveryState::new(self.cfg.k, window)));
        self.checkpoint = self.cfg.checkpoint.as_ref().map(|cp| {
            let recovery = self.recovery.clone().expect("created just above");
            CheckpointDriver {
                coordinator: Arc::new(
                    CheckpointCoordinator::new(self.cfg.k, cp, recovery)
                        .expect("checkpoint store unavailable"),
                ),
                routed_since_barrier: 0,
                last_dispatched: None,
                cuts: vec![None; self.cfg.k],
            }
        });

        if matches!(self.cfg.backend, ClusterBackend::Tcp { .. }) {
            self.listener =
                Some(stormlite::listen_loopback().expect("cannot bind a loopback listener"));
        }
        for task in 0..self.cfg.k {
            let (wire, proc_) = self.spawn_one(task);
            let outages: Vec<LinkOutage> = self
                .cfg
                .outages
                .iter()
                .filter(|o| o.task == task)
                .filter_map(|o| o.to_link_outage())
                .collect();
            let corrupt_inbound: Vec<ChaosWindow> = self
                .cfg
                .outages
                .iter()
                .filter(|o| o.task == task && o.kind == OutageKind::CorruptInbound)
                .map(|o| o.window())
                .collect();
            let chaos = match (self.cfg.chaos_seed, outages.is_empty()) {
                (Some(seed), _) => Some(
                    // Each wire gets an independent deterministic fault
                    // stream derived from the run seed and its task.
                    ChaosLink::new(
                        seed,
                        LinkFault::seeded(seed.wrapping_add(task as u64)),
                        2,
                        task,
                    )
                    .with_outages(outages),
                ),
                (None, false) => Some(ChaosLink::from_outages(outages)),
                (None, true) => None,
            };
            self.links
                .push(NodeLink::new(wire, proc_, chaos, corrupt_inbound));
            if let Some(r) = &self.recovery {
                r.begin_incarnation(task);
            }
            let (hello, proto) =
                read_hello(self.links[task].wire.as_mut()).expect("node handshake failed");
            assert_eq!(hello as usize, task, "node announced the wrong task");
            self.links[task].negotiate(proto);
            let config = self.node_config(task, 0);
            let link = &mut self.links[task];
            send_frame(link.wire.as_mut(), &Frame::Config(config), link.checksums)
                .expect("send node config");
            link.wire.flush().expect("flush node config");
        }

        // Dispatch the stream.
        for msg in source {
            let t0 = Instant::now();
            self.dispatch(msg);
            self.stages.record(Stage::Dispatch, t0.elapsed());
            self.pump(Duration::ZERO);
            self.service_timers();
            self.service_health();
        }
        // Drain: every frame acked (fenced wires already dropped theirs).
        while self
            .links
            .iter()
            .any(|l| !l.fenced && !l.unacked.is_empty())
        {
            self.pump(Duration::from_micros(500));
            self.service_timers();
            self.service_health();
        }
        // End of stream. Chaos-held (stalled/delayed) frames are released
        // first — all of them were already delivered via retransmission,
        // so the node just re-acks — then every node gets Eos and reports.
        for task in 0..self.cfg.k {
            if self.links[task].fenced {
                continue;
            }
            let held: Vec<Vec<u8>> = self.links[task]
                .chaos
                .as_mut()
                .map(|c| c.drain())
                .unwrap_or_default();
            for f in held {
                let _ = self.links[task].wire.send(&f);
            }
            self.send_eos(task);
        }
        while self.links.iter().any(|l| !l.fenced && l.done.is_none()) {
            self.pump(Duration::from_micros(500));
            self.service_health();
        }

        // Teardown: closing the wires releases the lingering nodes.
        let mut joiners = Vec::new();
        let mut digests = Vec::new();
        for (task, link) in std::mem::take(&mut self.links).into_iter().enumerate() {
            if let Some(chaos) = &link.chaos {
                let (stalled, dropped) = chaos.outage_counters();
                self.health_report.stalled_frames += stalled;
                self.health_report.partition_dropped_frames += dropped;
            }
            // A fenced task has no final report; its counters default.
            let report = link.done.clone().unwrap_or_default();
            let (replayed, replay_overflow) = self
                .recovery
                .as_ref()
                .map(|r| (r.replayed(task), r.overflowed(task)))
                .unwrap_or((0, 0));
            joiners.push(JoinerSnapshot {
                task,
                stats: report.stats,
                stored: report.stored as usize,
                postings: report.postings as usize,
                incarnation: link.incarnation,
                replayed,
                replay_overflow,
                restored_from_epoch: link.restored_from_epoch,
            });
            digests.push(link.digest);
            self.retire_wire(link.wire);
            match link.proc {
                NodeProc::Thread(Some(handle)) => {
                    let _ = handle.join();
                }
                NodeProc::Thread(None) => {}
                NodeProc::Child(mut child) => {
                    let _ = child.wait();
                }
            }
        }
        let mut integrity = restore_integrity;
        if let Some(cp) = &self.checkpoint {
            integrity.merge(&cp.coordinator.integrity());
        }
        integrity.corrupt_frames = self.health_report.corrupt_frames;
        ClusterResult {
            pairs: self.pairs,
            joiners,
            records: n_records,
            wall: started.elapsed(),
            shed_records: self.shed_log,
            restored_cut,
            dup_results_dropped: self.dup_results_dropped,
            retransmissions: self.retransmissions,
            fast_retransmissions: self.fast_retransmissions,
            sacks_received: self.sacks_received,
            repair_latency: self.repair_latency,
            wire_frames: self.wire_frames,
            wire_writes: self.wire_writes,
            epochs_committed: self
                .checkpoint
                .as_ref()
                .map(|cp| cp.coordinator.epochs_committed())
                .unwrap_or(0),
            stages: self.stages,
            latency: self.latency,
            wire_digests: self.cfg.logical_time.then_some(digests),
            health: self.health_report,
            health_events: self.health_events,
            integrity,
        }
    }

    fn node_config(&self, task: usize, resume_seq: u64) -> NodeConfig {
        NodeConfig {
            task: task as u32,
            k: self.cfg.k as u32,
            sim: self.cfg.join.threshold.sim_fn(),
            tau: self.cfg.join.threshold.tau(),
            window: self.cfg.join.window,
            algo: self.cfg.local,
            bistream: self.bistream,
            dedup: self.needs_dedup,
            resume_seq,
        }
    }

    /// Spawns one joiner's process/thread and returns its wire. TCP nodes
    /// are spawned one at a time, so the next accepted connection is
    /// always the node just launched.
    fn spawn_one(&mut self, task: usize) -> (Box<dyn Wire>, NodeProc) {
        match &self.cfg.backend {
            ClusterBackend::InProcess => {
                let (launcher_end, node_end) = stormlite::channel_wire_pair_asym(
                    self.cfg.channel_capacity * 2 + 64,
                    LAUNCHER_INBOUND_CAP,
                );
                let mut node_wire = node_end;
                let proto = self.cfg.node_proto.unwrap_or(PROTO_VERSION);
                let handle = std::thread::Builder::new()
                    .name(format!("ssj-node-{task}"))
                    .spawn(move || node_serve_at(&mut node_wire, task, proto))
                    .expect("spawn node thread");
                (Box::new(launcher_end), NodeProc::Thread(Some(handle)))
            }
            ClusterBackend::Tcp { node_bin } => {
                let listener = self.listener.as_ref().expect("listener bound before spawn");
                let addr = listener.local_addr().expect("listener address").to_string();
                let child = Command::new(node_bin)
                    .arg("--connect")
                    .arg(&addr)
                    .arg("--task")
                    .arg(task.to_string())
                    .stdin(Stdio::null())
                    .spawn()
                    .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", node_bin.display()));
                let (stream, _) = listener.accept().expect("node never connected back");
                let wire = TcpWire::new(stream, LAUNCHER_INBOUND_CAP).expect("wrap node socket");
                (Box::new(wire), NodeProc::Child(child))
            }
        }
    }

    /// Routes and emits one source message, mirroring the in-process
    /// dispatcher bolt exactly: restore tuples index-only with no
    /// shedding, shed check before any side effect, probes interleaved
    /// around index targets, replay buffering before every index emit,
    /// barrier bookkeeping last.
    fn dispatch(&mut self, msg: JoinMsg) {
        let incoming = msg.payload().expect("source messages carry records");
        let payload = RecordMsg {
            record: incoming.record.clone(),
            ingest: self.clock.now(),
            side: incoming.side,
        };
        let t0 = Instant::now();
        let decision = self
            .router
            .as_mut()
            .expect("router built before dispatch")
            .route(&payload.record);
        self.stages.record(Stage::Route, t0.elapsed());
        let id = payload.record.id().0;
        let meta = Some((id, payload.record.timestamp()));

        if matches!(msg, JoinMsg::Index(_)) {
            // Restore re-dispatch: index-only state rebuild — no probes
            // (their results already exist), no shedding (state, not load).
            // Fenced targets are simply skipped: any future probe that
            // would have needed this state there is itself shed below.
            for &ix in &decision.index {
                if self.links[ix].fenced {
                    continue;
                }
                self.buffer_for_replay(ix, &payload);
                self.send_with_backpressure(ix, JoinMsg::Index(payload.clone()), meta);
            }
            self.note_dispatched(id, &decision.index);
            return;
        }
        if self.any_fenced {
            // Fenced-partition shedding: a record with *any* fenced target
            // is shed whole. Routing completeness makes this exact — if a
            // surviving record could match this one, its probe targets
            // would include every task where this record indexes, so pairs
            // between two surviving records never route through a fenced
            // task.
            let hits_fenced = decision
                .index
                .iter()
                .chain(decision.probe.iter())
                .any(|&t| self.links[t].fenced);
            if hits_fenced {
                self.shed_ids.insert(id);
                self.shed_log.push(id);
                return;
            }
        }
        if let Some(watermark) = self.cfg.shed_watermark {
            // Deepest backlog among this record's targets, checked before
            // any emit or replay buffering so a shed record leaves no
            // trace downstream.
            let depth = decision
                .index
                .iter()
                .chain(decision.probe.iter())
                .map(|&t| self.links[t].unacked.len())
                .max()
                .unwrap_or(0);
            if depth >= watermark {
                // Shedding gives up on the backlog like a wait would, so
                // the backlog goes out first: frames still batched here
                // can never be acked.
                for &t in decision.index.iter().chain(decision.probe.iter()) {
                    let _ = self.links[t].wire.flush();
                }
                self.shed_log.push(id);
                return;
            }
        }
        let mut probe_iter = decision.probe.iter().peekable();
        for &ix in &decision.index {
            while let Some(&&p) = probe_iter.peek() {
                if p < ix {
                    self.send_with_backpressure(p, JoinMsg::Probe(payload.clone()), meta);
                    probe_iter.next();
                } else {
                    break;
                }
            }
            self.buffer_for_replay(ix, &payload);
            if probe_iter.peek() == Some(&&ix) {
                probe_iter.next();
                self.send_with_backpressure(ix, JoinMsg::ProbeAndIndex(payload.clone()), meta);
            } else {
                self.send_with_backpressure(ix, JoinMsg::Index(payload.clone()), meta);
            }
        }
        for &p in probe_iter {
            self.send_with_backpressure(p, JoinMsg::Probe(payload.clone()), meta);
        }
        self.note_dispatched(id, &decision.index);
    }

    fn buffer_for_replay(&self, task: usize, payload: &RecordMsg) {
        if let Some(recovery) = &self.recovery {
            recovery.buffer_index_target(task, ReplayEntry::from_payload(payload));
        }
    }

    /// Checkpoint bookkeeping after a record's messages are emitted; at
    /// every interval boundary a barrier goes down all k wires.
    fn note_dispatched(&mut self, id: u64, index_targets: &[usize]) {
        // After a fence the coordinator can never again collect all k
        // snapshots, so no new epoch is started; in-flight epochs simply
        // never commit, which nothing blocks on.
        if self.any_fenced {
            return;
        }
        let barrier = {
            let Some(cp) = &mut self.checkpoint else {
                return;
            };
            cp.last_dispatched = Some(id);
            for &t in index_targets {
                cp.cuts[t] = Some(id);
            }
            cp.routed_since_barrier += 1;
            if cp.routed_since_barrier < cp.coordinator.interval() {
                return;
            }
            cp.routed_since_barrier = 0;
            let injected_at = self.clock.now();
            let epoch = cp.coordinator.begin_epoch(
                injected_at,
                cp.last_dispatched.expect("set just above"),
                cp.cuts.clone(),
                self.bistream,
                self.router
                    .as_ref()
                    .expect("router built before dispatch")
                    .length_partition()
                    .cloned(),
            );
            (epoch, injected_at)
        };
        let (epoch, injected_at) = barrier;
        for t in 0..self.cfg.k {
            self.send_with_backpressure(t, JoinMsg::Barrier { epoch, injected_at }, None);
        }
    }

    /// Sends after bounding this wire's in-flight backlog at the channel
    /// capacity — the launcher-side equivalent of a bounded channel
    /// blocking the dispatcher.
    fn send_with_backpressure(&mut self, task: usize, msg: JoinMsg, meta: Option<(u64, u64)>) {
        loop {
            if self.links[task].fenced {
                // The target was fenced mid-dispatch (recovery triggered
                // from inside this wait): shed the whole record so the
                // surviving-set accounting stays exact. Frames of this
                // record already sent elsewhere are filtered at the sink.
                if let Some((id, _)) = meta {
                    if self.shed_ids.insert(id) {
                        self.shed_log.push(id);
                    }
                }
                return;
            }
            if self.links[task].unacked.len() < self.cfg.channel_capacity {
                break;
            }
            self.pump(Duration::from_micros(200));
            self.service_timers();
            self.service_health();
        }
        self.send_data(task, msg, meta);
    }

    /// Assigns the next sequence number, records the frame as in-flight,
    /// folds its bytes into the wire digest (under logical time, the only
    /// mode that reports it), and transmits. The digest folds the
    /// *unsealed* frame bytes, so golden digests are identical whether or
    /// not the link negotiated checksums.
    fn send_data(&mut self, task: usize, msg: JoinMsg, record_meta: Option<(u64, u64)>) {
        let link = &mut self.links[task];
        let seq = link.next_seq;
        link.next_seq += 1;
        let unsealed = encode_data(seq, &msg).expect("data frames are always encodable");
        if self.cfg.logical_time {
            link.digest = fnv1a(link.digest, &unsealed);
        }
        let frame = seal_if(unsealed, link.checksums);
        let now = Instant::now();
        link.tx += 1;
        link.unacked.insert(
            seq,
            PendingFrame {
                msg,
                record_meta,
                first_sent: now,
                last_sent: now,
                retries: 0,
                tx: link.tx,
                sacked: false,
            },
        );
        let due = now + backoff(&self.cfg.retry, 0);
        link.timer_due = Some(link.timer_due.map_or(due, |d| d.min(due)));
        self.transmit(task, frame);
    }

    /// Stamps unacked frame `seq` as sent again now, at the link's next
    /// transmission ordinal, and transmits it. Returns the time since its
    /// previous send.
    fn resend(&mut self, task: usize, seq: u64, now: Instant) -> Duration {
        let link = &mut self.links[task];
        link.tx += 1;
        let p = link
            .unacked
            .get_mut(&seq)
            .expect("only unacked frames are resent");
        let age = now.saturating_duration_since(p.last_sent);
        p.last_sent = now;
        p.tx = link.tx;
        let frame = encode_data(seq, &p.msg).expect("data frames are always encodable");
        let frame = seal_if(frame, link.checksums);
        self.retransmissions += 1;
        self.transmit(task, frame);
        age
    }

    /// Pushes one encoded frame through the wire, via the chaos link when
    /// one is armed. A send failure means the node died mid-write; the
    /// frame stays in `unacked` and recovery retransmits it.
    fn transmit(&mut self, task: usize, frame: Vec<u8>) {
        let frames = match &mut self.links[task].chaos {
            Some(chaos) => chaos.transmit(frame),
            None => vec![frame],
        };
        let link = &mut self.links[task];
        for f in frames {
            if link.wire.send(&f).is_err() {
                self.pending_dead = Some(task);
                return;
            }
        }
    }

    fn send_eos(&mut self, task: usize) {
        debug_assert!(self.links[task].unacked.is_empty(), "Eos before full ack");
        self.links[task].eos_sent = true;
        let link = &mut self.links[task];
        if send_frame(link.wire.as_mut(), &Frame::Eos, link.checksums).is_err()
            || link.wire.flush().is_err()
        {
            self.recover_or_fence(task); // re-sends Eos on the fresh wire
        }
    }

    /// Drains every wire's inbound queue, then handles any death or
    /// supervised kill noticed along the way. With `idle_wait` nonzero
    /// and nothing received, sleeps briefly to avoid a hot spin.
    ///
    /// Outbound frames are flushed only when `idle_wait` is nonzero: the
    /// launcher is about to wait on the nodes, so everything they could
    /// answer must be on the wire first. A non-blocking pump leaves the
    /// wire's batcher to decide when to write.
    fn pump(&mut self, idle_wait: Duration) {
        let mut got = false;
        for task in 0..self.links.len() {
            if self.links[task].fenced {
                continue;
            }
            if !idle_wait.is_zero() {
                let _ = self.links[task].wire.flush();
            }
            // A two-way partition also cuts the inbound direction: frames
            // that arrive while the window is active are held in order and
            // released once it heals, so the node looks silent without
            // anything being lost.
            let inbound_blocked = self.links[task]
                .chaos
                .as_ref()
                .is_some_and(|c| c.inbound_blocked());
            if !inbound_blocked && !self.links[task].held_inbound.is_empty() {
                let held = std::mem::take(&mut self.links[task].held_inbound);
                for b in held {
                    got = true;
                    self.links[task].last_seen = Instant::now();
                    if !self.on_frame(task, &b) {
                        // Corrupt frame: the rest of the held batch dies
                        // with the poisoned incarnation; recovery
                        // retransmits everything it covered.
                        self.pending_dead = Some(task);
                        break;
                    }
                }
            }
            loop {
                if self.links[task].fenced {
                    break; // fenced from inside on_frame handling
                }
                if self.links[task].poisoned {
                    break; // stop consuming a poisoned incarnation
                }
                match self.links[task].wire.try_recv() {
                    Ok(WireEvent::Frame(b)) => {
                        let mut b = b;
                        self.scripted_rx_corruption(task, &mut b);
                        if inbound_blocked {
                            self.links[task].held_inbound.push(b);
                            continue; // held frames are not a life sign
                        }
                        got = true;
                        self.links[task].last_seen = Instant::now();
                        if !self.on_frame(task, &b) {
                            self.pending_dead = Some(task);
                            break;
                        }
                    }
                    Ok(WireEvent::Idle) => break,
                    Ok(WireEvent::Closed(reason)) => {
                        if self.links[task].done.is_none() {
                            match reason {
                                CloseReason::Clean => self.health_report.clean_closes += 1,
                                _ => self.health_report.error_closes += 1,
                            }
                            self.pending_dead = Some(task);
                        }
                        break;
                    }
                    Err(_) => {
                        if self.links[task].done.is_none() {
                            self.health_report.error_closes += 1;
                            self.pending_dead = Some(task);
                        }
                        break;
                    }
                }
            }
        }
        if let Some(t) = self.pending_kill.take() {
            self.recover_or_fence(t);
        }
        if let Some(t) = self.pending_dead.take() {
            self.recover_or_fence(t);
        }
        if !got && !idle_wait.is_zero() {
            std::thread::sleep(idle_wait);
        }
    }

    /// Applies any scripted inbound-corruption window to a frame just
    /// received from `task`: advances this wire's inbound frame ordinal
    /// and flips one deterministic bit while a window covers it. Only the
    /// pump receive path advances the ordinal, so window placement is
    /// independent of recovery-time drains.
    fn scripted_rx_corruption(&mut self, task: usize, frame: &mut [u8]) {
        let link = &mut self.links[task];
        if link.corrupt_inbound.is_empty() {
            return;
        }
        link.inbound_seq += 1;
        let seq = link.inbound_seq;
        if !frame.is_empty() && link.corrupt_inbound.iter().any(|w| w.covers(seq)) {
            let byte = (seq as usize * 31) % frame.len();
            frame[byte] ^= 1 << (seq % 8);
        }
    }

    /// Classifies one corrupt or protocol-violating inbound frame: count
    /// it, emit a span, and poison the incarnation so the caller discards
    /// its remaining output and recovers — the wire-corruption analogue
    /// of an error close, never a panic. Always returns `false` so call
    /// sites can `return self.note_corrupt(..)`.
    fn note_corrupt(&mut self, task: usize, snapshot: bool) -> bool {
        self.health_report.corrupt_frames += 1;
        if snapshot {
            self.health_report.corrupt_snapshots += 1;
        }
        self.links[task].poisoned = true;
        self.stages.record(Stage::Corrupt, Duration::ZERO);
        self.health_events.push(Event::instant(
            self.wall_nanos(),
            Stage::Corrupt,
            task as u64,
            u64::from(snapshot),
        ));
        false
    }

    /// Handles one inbound frame from `task`. Returns `false` when the
    /// frame is corrupt (checksum mismatch, undecodable body) or
    /// protocol-violating: the incarnation is poisoned and the caller
    /// must stop consuming it and trigger recovery.
    fn on_frame(&mut self, task: usize, bytes: &[u8]) -> bool {
        let frame = match Frame::decode_checked(bytes, self.links[task].checksums) {
            Ok(f) => f,
            Err(_) => return self.note_corrupt(task, false),
        };
        match frame {
            Frame::Ack { seq } => {
                let Some(acked) = self.links[task].unacked.remove(&seq) else {
                    return true; // re-ack of a frame a retransmission already covered
                };
                self.links[task].acked += 1;
                // Measured from the first send, so repair time shows up in
                // the delivery profile instead of vanishing behind the
                // last retransmission.
                let delivered = acked.first_sent.elapsed();
                self.stages.record(Stage::Deliver, delivered);
                if acked.last_sent > acked.first_sent {
                    // Resent at least once: this delivery needed repair.
                    self.repair_latency.record(delivered);
                }
                if acked.retries > 0 {
                    // An ack for a frame that needed retransmission means
                    // the link just healed (or caught up): reset the
                    // remaining unacked frames' grown backoff so recovery
                    // proceeds at the base cadence instead of waiting out
                    // a fully-grown exponential delay. Shorter timeouts can
                    // be due at once, so the timer scans on its next pass.
                    let link = &mut self.links[task];
                    for p in link.unacked.values_mut() {
                        p.retries = 0;
                    }
                    link.timer_due = Some(Instant::now());
                }
                if let (Some(recovery), Some((id, ts))) = (&self.recovery, acked.record_meta) {
                    recovery.mark_processed(task, id, ts);
                }
                if let Some(fault) = self.fault_armed {
                    if fault.task == task && self.links[task].acked >= fault.after_acks {
                        self.fault_armed = None;
                        self.pending_kill = Some(task);
                    }
                }
            }
            Frame::Result { pair, ingest } => {
                // Results touching a fence-shed record are excluded: the
                // shed set defines the surviving records, and the reported
                // join is exactly the join over survivors.
                if self.any_fenced
                    && (self.shed_ids.contains(&pair.earlier.0)
                        || self.shed_ids.contains(&pair.later.0))
                {
                    return true;
                }
                if self.seen.insert(pair.key()) {
                    if let RunClock::Wall(anchor) = &self.clock {
                        let lat = anchor
                            .elapsed()
                            .saturating_sub(Duration::from_nanos(ingest.as_nanos()));
                        self.latency.record(lat);
                        self.stages.record(Stage::Emit, lat);
                    }
                    self.pairs.push(pair);
                } else {
                    self.dup_results_dropped += 1;
                }
            }
            Frame::Snapshot {
                epoch,
                task: from,
                window,
            } => {
                // Decode before the publish-dedup insert: a corrupt
                // window must not permanently claim the `(epoch, task)`
                // slot, or the respawned node's clean re-publication
                // would be refused and the epoch could never commit.
                let Ok(entries) = decode_window_slice(&window) else {
                    return self.note_corrupt(task, true);
                };
                if self.checkpoint.is_none() {
                    // A snapshot with no checkpointing armed is a
                    // protocol violation — classified, not a panic.
                    return self.note_corrupt(task, false);
                }
                // Publish-dedup: a restarted node reprocessing a barrier
                // re-sends its snapshot; the first publication stands.
                if self.published.insert((epoch, u64::from(from))) {
                    let cp = self.checkpoint.as_ref().expect("checked just above");
                    let t0 = Instant::now();
                    cp.coordinator.publish(epoch, from as usize, &entries);
                    self.stages.record(Stage::Checkpoint, t0.elapsed());
                }
            }
            Frame::Done(report) => {
                self.links[task].done = Some(report);
            }
            Frame::HealthAck { .. } => {
                // The life sign itself was already recorded by `pump`
                // (any inbound frame updates `last_seen`); the echo only
                // feeds the counters.
                self.health_report.health_acks += 1;
            }
            Frame::Sack { held } => {
                if !self.links[task].sacks {
                    // A node that negotiated v2/v3 cannot send this.
                    return self.note_corrupt(task, false);
                }
                self.on_sack(task, &held);
            }
            // Hello, Config, Data, Restore, Eos, Heartbeat never flow
            // node→launcher: a decodable-but-misdirected frame is as
            // untrustworthy as an undecodable one.
            _ => return self.note_corrupt(task, false),
        }
        true
    }

    /// Selective-ack repair: marks the frames the node holds, then resends
    /// at once every frame the loss rule names lost (see
    /// [`crate::session`]) and flushes once.
    fn on_sack(&mut self, task: usize, held: &[(u64, u64)]) {
        self.sacks_received += 1;
        let lost = apply_sack(&mut self.links[task].unacked, held);
        if lost.is_empty() || self.links[task].retiring {
            return;
        }
        let now = Instant::now();
        for seq in lost {
            let age = self.resend(task, seq, now);
            self.fast_retransmissions += 1;
            self.stages.record(Stage::Retry, age);
        }
        let _ = self.links[task].wire.flush();
    }

    /// The backstop for what selective acks cannot expose (a lost tail, a
    /// lost retransmission with nothing sent after it): retransmits
    /// overdue unacked frames the node has not reported holding, with
    /// exponential backoff, and flushes the wire after a retransmission
    /// wave — an overdue frame has waited long enough, whatever the
    /// batcher's thresholds say. A link is scanned only once its earliest
    /// possible due time has passed.
    fn service_timers(&mut self) {
        let retry = self.cfg.retry;
        let now = Instant::now();
        for task in 0..self.links.len() {
            let link = &mut self.links[task];
            if link.timer_due.is_none_or(|due| now < due) {
                continue;
            }
            let mut overdue = Vec::new();
            let mut next_due: Option<Instant> = None;
            for (&seq, p) in link.unacked.iter_mut().filter(|(_, p)| !p.sacked) {
                // An overdue frame is resent now, below.
                let sent = if now.duration_since(p.last_sent) >= backoff(&retry, p.retries) {
                    p.retries += 1;
                    overdue.push(seq);
                    now
                } else {
                    p.last_sent
                };
                let due = sent + backoff(&retry, p.retries);
                next_due = Some(next_due.map_or(due, |d| d.min(due)));
            }
            link.timer_due = next_due;
            if overdue.is_empty() {
                continue;
            }
            for seq in overdue {
                let age = self.resend(task, seq, now);
                self.stages.record(Stage::Retry, age);
            }
            let _ = self.links[task].wire.flush();
        }
    }

    /// The failure detector: probes idle wires with heartbeats and
    /// declares wires silent past the deadline suspect. Runs on the wall
    /// clock even under logical time — heartbeats go through
    /// `transmit_control`, which never advances the chaos ordinal or the
    /// wire digest, so detector cadence cannot perturb determinism.
    fn service_health(&mut self) {
        let Some(h) = self.cfg.health else {
            return;
        };
        let now = Instant::now();
        for task in 0..self.links.len() {
            if self.links[task].fenced || self.links[task].done.is_some() {
                continue;
            }
            if now.duration_since(self.links[task].hb_last) >= h.heartbeat_interval {
                self.links[task].hb_last = now;
                self.hb_nonce += 1;
                self.health_report.heartbeats_sent += 1;
                let frame = Frame::Heartbeat {
                    nonce: self.hb_nonce,
                    sent_at: self.wall_nanos(),
                }
                .encode()
                .expect("heartbeats are always encodable");
                self.transmit_control(task, seal_if(frame, self.links[task].checksums));
                let _ = self.links[task].wire.flush();
            }
            let silent = now.duration_since(self.links[task].last_seen);
            if silent >= h.suspect_after {
                self.health_report.suspects += 1;
                self.health_report.detection_latency.record(silent);
                self.stages.record(Stage::Suspect, silent);
                self.health_events.push(Event::span(
                    self.wall_nanos(),
                    Stage::Suspect,
                    silent.as_nanos().min(u128::from(u64::MAX)) as u64,
                    task as u64,
                    silent.as_nanos().min(u128::from(u64::MAX)) as u64,
                ));
                self.recover_or_fence(task);
            }
        }
        if let Some(t) = self.pending_dead.take() {
            self.recover_or_fence(t);
        }
    }

    /// Sends a control frame (heartbeat) through the wire's chaos gate
    /// without advancing the data-transmission ordinal or the digest.
    fn transmit_control(&mut self, task: usize, frame: Vec<u8>) {
        let frames = match &mut self.links[task].chaos {
            Some(chaos) => chaos.transmit_control(frame),
            None => vec![frame],
        };
        let link = &mut self.links[task];
        for f in frames {
            if link.wire.send(&f).is_err() {
                self.pending_dead = Some(task);
                return;
            }
        }
    }

    /// A node is dead or suspect: respawn it while the recovery budget
    /// lasts, fence it once the budget is exhausted.
    fn recover_or_fence(&mut self, task: usize) {
        if self.links[task].fenced {
            return;
        }
        if let Some(max) = self.cfg.health.and_then(|h| h.recovery_budget) {
            if self.links[task].health_respawns >= max {
                self.fence(task);
                return;
            }
        }
        self.links[task].health_respawns += 1;
        self.health_report.respawns += 1;
        let t0 = Instant::now();
        self.kill_and_respawn(task);
        self.stages.record(Stage::Recover, t0.elapsed());
        self.health_events.push(Event::span(
            self.wall_nanos(),
            Stage::Recover,
            t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            task as u64,
            u64::from(self.links[task].health_respawns),
        ));
    }

    /// Degrade gracefully: abandon the task and shed its partition with
    /// exact recall accounting. Every record with any fenced target is
    /// shed whole from here on (see `dispatch`), the in-flight suffix is
    /// retroactively shed, and every past or future pair touching a shed
    /// record is filtered — so the reported join is *exactly* the join
    /// over surviving records, never a silent partial answer.
    fn fence(&mut self, task: usize) {
        assert!(
            !self.bistream,
            "fencing accounting is defined for self-joins only; \
             do not set a recovery budget on bi-stream runs"
        );
        if self.links[task].fenced {
            return;
        }
        self.links[task].fenced = true;
        self.any_fenced = true;
        self.health_report.fenced_tasks.push(task);
        if let NodeProc::Child(child) = &mut self.links[task].proc {
            // Free the OS process now; teardown reaps it. Thread nodes
            // exit when their wire drops at teardown.
            let _ = child.kill();
        }
        // Retroactively shed the in-flight suffix: whether the dead node
        // processed those records is unknowable, so they leave the
        // surviving set entirely.
        let inflight: Vec<u64> = self.links[task]
            .unacked
            .values()
            .filter_map(|p| p.record_meta.map(|(id, _)| id))
            .collect();
        self.links[task].unacked.clear();
        self.links[task].held_inbound.clear();
        let shed_now = inflight.len() as u64;
        for id in inflight {
            if self.shed_ids.insert(id) {
                self.shed_log.push(id);
            }
        }
        // Purge pairs already emitted with a now-shed endpoint; future
        // arrivals are filtered in `on_frame`.
        let shed_ids = &self.shed_ids;
        self.pairs
            .retain(|p| !shed_ids.contains(&p.earlier.0) && !shed_ids.contains(&p.later.0));
        self.stages.record(Stage::Fence, Duration::ZERO);
        self.health_events.push(Event::instant(
            self.wall_nanos(),
            Stage::Fence,
            task as u64,
            shed_now,
        ));
    }

    /// Consumes whatever `task` already delivered without blocking.
    /// Stops at the first corrupt frame: the poisoned remainder is
    /// discarded and recovery retransmits whatever it covered.
    fn drain_available(&mut self, task: usize) {
        while !self.links[task].poisoned {
            match self.links[task].wire.try_recv() {
                Ok(WireEvent::Frame(b)) => {
                    if !self.on_frame(task, &b) {
                        break;
                    }
                }
                _ => break,
            }
        }
    }

    /// Consumes the delivered prefix of a dead TCP node until the socket
    /// reports end of stream: everything it wrote before dying counts —
    /// up to the first corrupt frame, beyond which nothing does.
    fn drain_until_closed(&mut self, task: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !self.links[task].poisoned {
            match self.links[task]
                .wire
                .recv_timeout(Duration::from_millis(50))
            {
                Ok(WireEvent::Frame(b)) => {
                    if !self.on_frame(task, &b) {
                        break;
                    }
                }
                Ok(WireEvent::Closed(_)) | Err(_) => break,
                Ok(WireEvent::Idle) => {
                    if Instant::now() > deadline {
                        break;
                    }
                }
            }
        }
    }

    /// Kills (if still alive) and restarts one node: consume its
    /// delivered prefix, respawn, handshake with the resume sequence,
    /// replay lost index state, retransmit the unacked suffix.
    fn kill_and_respawn(&mut self, task: usize) {
        assert!(
            self.recovery.is_some(),
            "node {task} died but no fault/checkpoint/health machinery is enabled"
        );
        self.links[task].retiring = true;
        // Deliver any partition-held inbound frames first: they precede
        // whatever the drain below will surface, and skipping them would
        // punch holes in the contiguous unacked suffix the resume
        // sequence number is derived from. A poisoned incarnation's held
        // frames are discarded instead — an ack surviving a corrupted
        // result would cancel the retransmission that re-creates it.
        let held = std::mem::take(&mut self.links[task].held_inbound);
        if !self.links[task].poisoned {
            for b in held {
                if !self.on_frame(task, &b) {
                    break;
                }
            }
        }
        let mut old_thread = None;
        match std::mem::replace(&mut self.links[task].proc, NodeProc::Thread(None)) {
            NodeProc::Child(mut child) => {
                let _ = child.kill();
                let _ = child.wait();
                // The kernel still holds the prefix the node wrote before
                // dying; consume it, then the reader reports Closed.
                self.drain_until_closed(task);
            }
            NodeProc::Thread(h) => {
                // In-process "kill": consume what is already delivered,
                // then drop the wire below — the node thread sees Closed
                // (or a failed send) and exits, its state dying with it.
                self.drain_available(task);
                old_thread = h;
            }
        }
        let (wire, proc_) = self.spawn_one(task);
        let old_wire = std::mem::replace(&mut self.links[task].wire, wire);
        self.links[task].proc = proc_;
        self.links[task].retiring = false;
        self.retire_wire(old_wire);
        if let Some(handle) = old_thread {
            let _ = handle.join();
        }
        self.links[task].incarnation = self
            .recovery
            .as_ref()
            .expect("asserted above")
            .begin_incarnation(task);

        let (hello, proto) =
            read_hello(self.links[task].wire.as_mut()).expect("respawn handshake failed");
        assert_eq!(
            hello as usize, task,
            "respawned node announced the wrong task"
        );
        // Fresh incarnation: fresh liveness horizon, fresh trust, fresh
        // checksum negotiation.
        self.links[task].last_seen = Instant::now();
        self.links[task].hb_last = Instant::now();
        self.links[task].poisoned = false;
        self.links[task].negotiate(proto);
        let checksums = self.links[task].checksums;
        // Unacked seqs form a contiguous suffix; the node resumes at its
        // lowest (or at next_seq when nothing is in flight).
        let resume = self.links[task]
            .unacked
            .keys()
            .next()
            .copied()
            .unwrap_or(self.links[task].next_seq);
        let config = self.node_config(task, resume);
        send_frame(
            self.links[task].wire.as_mut(),
            &Frame::Config(config),
            checksums,
        )
        .expect("send respawn config");

        // Replay the lost index state: the committed snapshot (if any)
        // plus the replay-buffer suffix it does not cover, both applied
        // index-only ahead of any data (FIFO guarantees the order).
        let (snapshot, replay) = match &self.checkpoint {
            Some(cp) => cp.coordinator.restore_and_replay_for(task),
            None => (
                None,
                self.recovery
                    .as_ref()
                    .expect("asserted above")
                    .replay_for(task),
            ),
        };
        if let Some((epoch, entries)) = snapshot {
            self.links[task].restored_from_epoch = Some(epoch);
            self.send_restore(task, &entries);
        }
        if !replay.is_empty() {
            let entries: Vec<SnapshotEntry> =
                replay.into_iter().map(|e| (e.side, e.record)).collect();
            self.send_restore(task, &entries);
        }

        // Retransmit the unacked suffix: original order, original seqs.
        // The old incarnation's output is drained by now, and the new one
        // holds nothing: every frame is unreported again.
        let now = Instant::now();
        let seqs: Vec<u64> = self.links[task].unacked.keys().copied().collect();
        for p in self.links[task].unacked.values_mut() {
            p.sacked = false;
        }
        for seq in seqs {
            self.resend(task, seq, now);
        }
        self.links[task].timer_due = Some(now);
        if self.links[task].eos_sent {
            let _ = send_frame(self.links[task].wire.as_mut(), &Frame::Eos, checksums);
        }
        let _ = self.links[task].wire.flush();
    }

    /// Closes a wire, adding its outbound counters to the run totals.
    fn retire_wire(&mut self, wire: Box<dyn Wire>) {
        let (frames, writes) = wire.write_counters();
        self.wire_frames += frames;
        self.wire_writes += writes;
    }

    fn send_restore(&mut self, task: usize, entries: &[SnapshotEntry]) {
        let bytes = encode_window_vec(entries).expect("window entries are always encodable");
        let checksums = self.links[task].checksums;
        send_frame(
            self.links[task].wire.as_mut(),
            &Frame::Restore { window: bytes },
            checksums,
        )
        .expect("send restore frame");
    }
}

/// Reads the node's `Hello` off a fresh wire and returns its task index
/// and announced protocol version. Any version in
/// [`MIN_PROTO_VERSION`]`..=`[`PROTO_VERSION`] is accepted — the caller
/// enables per-link frame checksums iff the peer speaks ≥ 3. The Hello
/// itself always travels unsealed (it is the negotiation).
fn read_hello(wire: &mut dyn Wire) -> io::Result<(u32, u16)> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match wire.recv_timeout(Duration::from_millis(200))? {
            WireEvent::Frame(b) => match Frame::decode(&b)? {
                Frame::Hello { proto, task } => {
                    if !(MIN_PROTO_VERSION..=PROTO_VERSION).contains(&proto) {
                        return Err(proto_err(format!(
                            "node speaks protocol {proto}, launcher speaks \
                             {MIN_PROTO_VERSION}..={PROTO_VERSION}"
                        )));
                    }
                    return Ok((task, proto));
                }
                other => return Err(proto_err(format!("expected Hello, got {other:?}"))),
            },
            WireEvent::Idle => {
                if Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "node never said hello",
                    ));
                }
            }
            WireEvent::Closed(_) => return Err(proto_err("node closed during handshake")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_core::Window;

    /// A launcher with one hand-made link that negotiated `proto`; the
    /// returned wire end stands in for the node.
    fn launcher_with_link(cfg: &ClusterConfig, proto: u16) -> (Launcher<'_>, Box<dyn Wire>) {
        let (launcher_end, node_end) = stormlite::channel_wire_pair(16);
        let mut launcher = Launcher::new(Vec::new(), false, cfg);
        launcher.links.push(NodeLink::new(
            Box::new(launcher_end),
            NodeProc::Thread(None),
            None,
            Vec::new(),
        ));
        launcher.links[0].negotiate(proto);
        (launcher, Box::new(node_end))
    }

    fn cfg() -> ClusterConfig {
        let join = JoinConfig {
            threshold: Threshold::jaccard(0.8),
            window: Window::Unbounded,
        };
        ClusterConfig::recommended(1, join, ClusterBackend::InProcess)
    }

    fn probe(id: u64) -> JoinMsg {
        let record = Record::from_sorted(ssj_text::RecordId(id), id, vec![ssj_text::TokenId(1)]);
        JoinMsg::Probe(RecordMsg::solo(record, Timestamp::ZERO))
    }

    fn sealed_if(frame: &Frame, proto: u16) -> Vec<u8> {
        seal_if(frame.encode().unwrap(), proto >= CHECKSUM_PROTO_VERSION)
    }

    #[test]
    fn a_sack_below_v4_is_a_classified_protocol_violation() {
        let cfg = cfg();
        let sack = Frame::Sack { held: vec![(3, 5)] };
        for proto in [MIN_PROTO_VERSION, CHECKSUM_PROTO_VERSION] {
            let (mut launcher, _node) = launcher_with_link(&cfg, proto);
            assert!(!launcher.on_frame(0, &sealed_if(&sack, proto)), "v{proto}");
            assert_eq!(launcher.health_report.corrupt_frames, 1, "v{proto}");
            assert!(launcher.links[0].poisoned, "v{proto}");
            assert_eq!(launcher.sacks_received, 0, "v{proto}");
        }
        let (mut launcher, _node) = launcher_with_link(&cfg, SACK_PROTO_VERSION);
        assert!(launcher.on_frame(0, &sealed_if(&sack, SACK_PROTO_VERSION)));
        assert_eq!(launcher.sacks_received, 1);
        assert_eq!(launcher.health_report.corrupt_frames, 0);
    }

    #[test]
    fn a_malformed_sack_is_corrupt_not_a_panic() {
        let cfg = cfg();
        // Tag 0x0C, two ranges, the second below the first.
        let mut body = vec![0x0C, 2];
        for v in [8u64, 9, 2, 4] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        let (mut launcher, _node) = launcher_with_link(&cfg, SACK_PROTO_VERSION);
        assert!(!launcher.on_frame(0, &seal_if(body, true)));
        assert_eq!(launcher.health_report.corrupt_frames, 1);
        assert_eq!(launcher.sacks_received, 0);
    }

    #[test]
    fn a_sack_resends_only_the_holes_and_the_timer_skips_held_frames() {
        let mut cfg = cfg();
        cfg.retry.base_timeout = Duration::ZERO;
        let (mut launcher, mut node) = launcher_with_link(&cfg, SACK_PROTO_VERSION);
        for id in 0..8 {
            launcher.send_data(0, probe(id), None);
        }
        let sent = |node: &mut Box<dyn Wire>| -> Vec<u64> {
            std::iter::from_fn(|| match node.try_recv().unwrap() {
                WireEvent::Frame(b) => match Frame::decode_checked(&b, true).unwrap() {
                    Frame::Data { seq, .. } => Some(seq),
                    other => panic!("unexpected {other:?}"),
                },
                _ => None,
            })
            .collect()
        };
        assert_eq!(sent(&mut node), (0..8).collect::<Vec<u64>>());
        // Seq s went out as transmission s + 1. The node holds 2..4 and
        // 6..8: 0, 1 and 4 trail the newest held frame (7) by at least
        // SACK_REORDER sends and are lost; 5 is presumed still in flight.
        let sack = Frame::Sack {
            held: vec![(2, 4), (6, 8)],
        };
        assert!(launcher.on_frame(0, &sealed_if(&sack, SACK_PROTO_VERSION)));
        assert_eq!(sent(&mut node), vec![0, 1, 4]);
        assert_eq!(launcher.fast_retransmissions, 3);
        // With a zero timeout every un-held frame is overdue at once: the
        // timer resends 0, 1, 4 and 5, never the held 2, 3, 6, 7.
        launcher.service_timers();
        assert_eq!(sent(&mut node), vec![0, 1, 4, 5]);
        assert_eq!(launcher.retransmissions, 7);
        assert_eq!(launcher.fast_retransmissions, 3);
    }

    #[test]
    fn a_respawn_clears_every_sacked_mark() {
        let cfg = cfg();
        let (mut launcher, _node) = launcher_with_link(&cfg, SACK_PROTO_VERSION);
        launcher.recovery = Some(Arc::new(RecoveryState::new(1, cfg.join.window)));
        for id in 0..6 {
            launcher.send_data(0, probe(id), None);
        }
        // The node holds 1..6 when it dies; 0 is lost and resent at once.
        let sack = Frame::Sack { held: vec![(1, 6)] };
        assert!(launcher.on_frame(0, &sealed_if(&sack, SACK_PROTO_VERSION)));
        assert_eq!(launcher.fast_retransmissions, 1);
        // The fresh incarnation holds nothing: every frame is unreported
        // again, so the timer covers a resend the link might drop.
        launcher.kill_and_respawn(0);
        assert!(launcher.links[0].unacked.values().all(|p| !p.sacked));
        assert_eq!(launcher.retransmissions, 1 + 6);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !launcher.links[0].unacked.is_empty() {
            assert!(Instant::now() < deadline, "the respawned node never acked");
            launcher.pump(Duration::from_micros(200));
        }
    }
}
