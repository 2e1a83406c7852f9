//! The repository benchmark: four closed-loop workloads driven through
//! the system's public calls, end-to-end metrics from timed runs, and
//! per-layer metrics from a separate traced run. See `README.md` in this
//! directory for what each workload and metric is for.

pub mod check;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod timed;
pub mod traced;
pub mod workload;

use std::path::{Path, PathBuf};

use workload::Workload;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated records (and of the chaos schedule).
    pub seed: u64,
    /// Time budget of the measured loop, in seconds.
    pub seconds: f64,
    /// Records per stream; `None` uses the workload's size.
    pub records: Option<usize>,
    /// The `ssj-node` binary the TCP workload spawns.
    pub node_bin: Option<PathBuf>,
    /// Where the traced run writes its spans (JSON lines).
    pub spans_out: Option<PathBuf>,
}

impl Options {
    /// Records per timed stream.
    pub fn stream_len(&self) -> usize {
        self.records.unwrap_or(self.workload.stream)
    }

    /// The `ssj-node` binary, if one was given.
    pub fn node_bin(&self) -> Option<&Path> {
        self.node_bin.as_deref()
    }
}
