//! The benchmark's named workloads and the one call each makes into the
//! system per timed stream.
//!
//! Every workload is a closed loop at saturation: the whole stream is
//! generated before timing and handed to the pipeline in one call, which
//! feeds records as fast as backpressure allows (channel capacity 1024
//! in-process, 256 in-flight frames per wire in the cluster). All use
//! Jaccard τ = 0.8, the bundle join, and `k = 2` joiners behind a
//! load-aware length partition calibrated on a 5k-record prefix.

use std::path::Path;
use std::time::{Duration, Instant};

use ssj_core::join::{JoinConfig, MatchPair};
use ssj_core::Window;
use ssj_distrib::bolts::JoinerSnapshot;
use ssj_distrib::{
    calibrate_partition, run_cluster, run_distributed, ClusterBackend, ClusterConfig,
    ClusterResult, DistributedJoinConfig, DistributedJoinResult, PartitionMethod, Strategy,
    TraceConfig,
};
use ssj_partition::LengthPartition;
use ssj_text::Record;
use ssj_workloads::{DatasetProfile, StreamGenerator};
use stormlite::{LinkFault, RetryConfig};

/// Joiners per run. The benchmark box has 2 vCPUs, so `k = 2` keeps the
/// TCP workload at two node processes.
pub const K: usize = 2;
/// Jaccard threshold of every workload.
pub const TAU: f64 = 0.8;
/// Records the length partition is calibrated on.
pub const CALIBRATION_PREFIX: usize = 5_000;
/// Dispatcher batch of the threaded workloads.
pub const DISPATCH_BATCH: usize = 32;

/// Retransmission backoff of the chaos workload. Its wires are in-process
/// channels with microsecond round trips, so it uses the tight timeouts of
/// `run_distributed`'s own chaos mode rather than the cluster default,
/// which is sized for TCP (40 ms base).
pub const CHAOS_RETRY: RetryConfig = RetryConfig {
    base_timeout: Duration::from_micros(500),
    backoff_factor: 2,
    max_timeout: Duration::from_millis(16),
};

/// Chaos schedules of the chaos workload; see [`Workload::schedules`].
pub const CHAOS_SCHEDULES: u64 = 4;

/// Least drop, duplicate and delay rate of every wire of a chaos
/// schedule. At 1% a wire sees over a hundred of each fault per stream.
pub const CHAOS_MIN_RATE: f64 = 0.01;

/// The fault mix of wire `task` under `chaos_seed`, as the cluster
/// derives it.
pub fn wire_faults(chaos_seed: u64, task: usize) -> LinkFault {
    LinkFault::seeded(chaos_seed.wrapping_add(task as u64))
}

/// The `chaos_seed` of chaos schedule `i`: the `i`-th of a fixed sequence
/// of candidate seeds on which every wire drops, duplicates and delays at
/// least [`CHAOS_MIN_RATE`] of its frames.
fn chaos_schedule(i: u64) -> u64 {
    (1u64..)
        .map(|c| 0x5eed_c4a0_5000_0000 ^ c.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .filter(|&seed| {
            (0..K).all(|task| {
                let f = wire_faults(seed, task);
                f.drop_rate.min(f.dup_rate).min(f.delay_rate) >= CHAOS_MIN_RATE
            })
        })
        .nth(i as usize)
        .expect("the candidate sequence is endless")
}

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["tweet-threads", "enron-threads", "aol-tcp", "tweet-chaos"];

/// Where the joiners run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `run_distributed` on OS threads.
    Threads,
    /// `run_cluster` with `ssj-node` processes over localhost TCP.
    Tcp,
    /// `run_cluster` in-process, with seeded chaos on every wire.
    Chaos,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as written in `BENCHMARK.json`.
    pub name: &'static str,
    /// Record generator profile.
    pub profile: DatasetProfile,
    /// Count window (records).
    pub window: u64,
    /// Records per timed stream.
    pub stream: usize,
    /// Where the joiners run.
    pub backend: Backend,
}

/// What one run of the pipeline returned.
pub enum Outcome {
    /// A `run_distributed` result.
    Threads(Box<DistributedJoinResult>),
    /// A `run_cluster` result.
    Cluster(Box<ClusterResult>),
}

impl Outcome {
    /// Every emitted result pair.
    pub fn pairs(&self) -> &[MatchPair] {
        match self {
            Outcome::Threads(r) => &r.pairs,
            Outcome::Cluster(r) => &r.pairs,
        }
    }

    /// Wall time of the streamed run as the system reports it.
    pub fn wall(&self) -> Duration {
        match self {
            Outcome::Threads(r) => r.wall,
            Outcome::Cluster(r) => r.wall,
        }
    }

    /// Records streamed.
    pub fn records(&self) -> usize {
        match self {
            Outcome::Threads(r) => r.records,
            Outcome::Cluster(r) => r.records,
        }
    }

    /// Final per-joiner statistics.
    pub fn joiners(&self) -> &[JoinerSnapshot] {
        match self {
            Outcome::Threads(r) => &r.joiners,
            Outcome::Cluster(r) => &r.joiners,
        }
    }
}

impl Workload {
    /// The workload called `name`, if any.
    pub fn by_name(name: &str) -> Option<Self> {
        let (profile, window, stream, backend) = match name {
            "tweet-threads" => (DatasetProfile::tweet(), 20_000, 200_000, Backend::Threads),
            "enron-threads" => (DatasetProfile::enron(), 5_000, 60_000, Backend::Threads),
            "aol-tcp" => (DatasetProfile::aol(), 20_000, 100_000, Backend::Tcp),
            "tweet-chaos" => (DatasetProfile::tweet(), 20_000, 25_000, Backend::Chaos),
            _ => return None,
        };
        let name = NAMES.into_iter().find(|n| *n == name)?;
        Some(Self {
            name,
            profile,
            window,
            stream,
            backend,
        })
    }

    /// Threshold and window of every run of this workload.
    pub fn join(&self) -> JoinConfig {
        JoinConfig::jaccard(TAU).with_window(Window::Count(self.window))
    }

    /// The first `n` records of this workload's stream for `seed`.
    pub fn records(&self, seed: u64, n: usize) -> Vec<Record> {
        StreamGenerator::new(self.profile.clone(), seed).take_records(n)
    }

    /// Whether the workload runs through `run_cluster`.
    pub fn is_cluster(&self) -> bool {
        self.backend != Backend::Threads
    }

    /// The load-aware length partition calibrated on the stream prefix.
    pub fn calibrate(&self, records: &[Record]) -> LengthPartition {
        let prefix = &records[..CALIBRATION_PREFIX.min(records.len())];
        calibrate_partition(prefix, self.join().threshold, K, PartitionMethod::LoadAware)
    }

    /// Configuration of a threaded run over a calibrated partition.
    pub fn threads_config(
        &self,
        partition: &LengthPartition,
        trace: bool,
    ) -> DistributedJoinConfig {
        DistributedJoinConfig {
            strategy: Strategy::Length(partition.clone()),
            channel_capacity: 1024,
            dispatch_batch: Some(DISPATCH_BATCH),
            trace: trace.then(TraceConfig::default),
            ..DistributedJoinConfig::recommended(K, self.join())
        }
    }

    /// Configuration of a cluster run over a calibrated partition.
    pub fn cluster_config(
        &self,
        partition: &LengthPartition,
        backend: ClusterBackend,
        chaos_seed: Option<u64>,
    ) -> ClusterConfig {
        let mut cfg = ClusterConfig::recommended(K, self.join(), backend);
        cfg.strategy = Strategy::Length(partition.clone());
        cfg.channel_capacity = 256;
        cfg.chaos_seed = chaos_seed;
        if self.backend == Backend::Chaos {
            cfg.retry = CHAOS_RETRY;
        }
        cfg
    }

    /// The cluster backend this workload runs on (`None` for threads).
    pub fn cluster_backend(&self, node_bin: Option<&Path>) -> Option<ClusterBackend> {
        match self.backend {
            Backend::Threads => None,
            Backend::Tcp => Some(ClusterBackend::Tcp {
                node_bin: node_bin
                    .expect("aol-tcp needs the ssj-node binary (--node-bin)")
                    .to_path_buf(),
            }),
            Backend::Chaos => Some(ClusterBackend::InProcess),
        }
    }

    /// Chaos schedules a run cycles through (1 off the chaos workload).
    /// A run times whole cycles only, so every run, on any commit, weighs
    /// the same fault mixes equally however many streams fit its budget.
    pub fn schedules(&self) -> u64 {
        if self.backend == Backend::Chaos {
            CHAOS_SCHEDULES
        } else {
            1
        }
    }

    /// The chaos schedule of stream number `stream` (`None` off the chaos
    /// workload): schedule `stream % CHAOS_SCHEDULES` of a fixed set, the
    /// same for every workload seed.
    pub fn chaos_seed(&self, stream: u64) -> Option<u64> {
        (self.backend == Backend::Chaos).then(|| chaos_schedule(stream % CHAOS_SCHEDULES))
    }

    /// One closed-loop run of the whole stream; `stream` numbers the runs
    /// of one invocation and picks the chaos schedule.
    pub fn run(
        &self,
        records: &[Record],
        partition: &LengthPartition,
        stream: u64,
        node_bin: Option<&Path>,
        trace: bool,
    ) -> Outcome {
        match self.cluster_backend(node_bin) {
            None => Outcome::Threads(Box::new(run_distributed(
                records,
                &self.threads_config(partition, trace),
            ))),
            Some(backend) => Outcome::Cluster(Box::new(run_cluster(
                records,
                &self.cluster_config(partition, backend, self.chaos_seed(stream)),
            ))),
        }
    }

    /// Node spawn and handshake cost of a cluster workload: the wall time
    /// of a one-record `run_cluster` (spawn, handshake, one data frame,
    /// end of stream and reaping). Chaos is off here, because it acts
    /// only on data frames and would add a retransmission timeout to what
    /// is meant to price bring-up. `None` for threaded workloads.
    pub fn spawn_probe(
        &self,
        records: &[Record],
        partition: &LengthPartition,
        node_bin: Option<&Path>,
    ) -> Option<Duration> {
        let backend = self.cluster_backend(node_bin)?;
        let cfg = self.cluster_config(partition, backend, None);
        let t0 = Instant::now();
        run_cluster(&records[..1], &cfg);
        Some(t0.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_nothing_else_does() {
        for name in NAMES {
            assert_eq!(Workload::by_name(name).unwrap().name, name);
        }
        assert!(Workload::by_name("tweet").is_none());
    }

    #[test]
    fn records_are_a_function_of_the_seed() {
        let w = Workload::by_name("enron-threads").unwrap();
        let hash = |seed| crate::check::records_hash(&w.records(seed, 300));
        assert_eq!(hash(7), hash(7));
        assert_ne!(hash(7), hash(8));
    }

    #[test]
    fn every_chaos_schedule_drops_duplicates_and_delays_on_every_wire() {
        let w = Workload::by_name("tweet-chaos").unwrap();
        assert_eq!(w.chaos_seed(1), w.chaos_seed(1 + CHAOS_SCHEDULES));
        let mut seeds: Vec<u64> = (0..CHAOS_SCHEDULES)
            .filter_map(|s| w.chaos_seed(s))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), CHAOS_SCHEDULES as usize);
        for stream in 0..CHAOS_SCHEDULES {
            let seed = w.chaos_seed(stream).unwrap();
            for task in 0..K {
                let f = wire_faults(seed, task);
                println!("schedule {stream} wire {task}: {f:?}");
                assert!(f.drop_rate.min(f.dup_rate).min(f.delay_rate) >= CHAOS_MIN_RATE);
            }
        }
        assert_eq!(Workload::by_name("aol-tcp").unwrap().chaos_seed(1), None);
    }
}
