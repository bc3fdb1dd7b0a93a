//! The distributed SISG training engine (Section III of the paper),
//! simulated faithfully with threads as workers.
//!
//! What the paper runs on a 32-machine cluster, this crate runs on one
//! machine with one thread per worker, preserving every algorithmic
//! decision and *measuring* what the cluster design is about — cross-worker
//! communication, load balance, and scaling:
//!
//! - [`partition`] — the `Partitioner` abstraction: items are assigned to
//!   workers, SI and user types are assigned randomly (pipeline stage 3);
//! - [`hbgp`] — Heuristic Balanced Graph Partitioning (Section III-B):
//!   coarsen the item graph to leaf categories, then greedily merge the
//!   heaviest-edge pair under the `β·|V|/w` balance constraint;
//! - [`hotset`] — the ATNS shared set `Q` (Section III-A): tokens above a
//!   frequency threshold are replicated on every worker and their replicas
//!   averaged at regular intervals;
//! - [`runtime`] — Algorithm 1 (TNS) with threads as workers: every
//!   worker scans the corpus and processes the pairs whose target it owns
//!   (or whose hot target falls in its shard) on the rows it holds
//!   exclusively; a pair whose context another worker owns becomes a TNS
//!   request that the owner serves — negatives from its local noise
//!   distribution over `P_j ∪ Q`, its own output rows stepped, the
//!   gradient sent back — in a bulk-synchronous exchange after every block
//!   of sequences. Each shipment is counted as the bytes a cluster would
//!   move, and a run is bit-deterministic;
//! - [`report`] — communication, balance and throughput accounting used by
//!   the Figure 7 and ablation experiments.
//!
//! Fault tolerance (DESIGN.md §9) spans three modules: [`fault`] holds the
//! deterministic fault injector and retry policy, [`protocol`] the
//! driver-agnostic TNS worker state machine (sequence-numbered idempotent
//! requests, bounded retries, checkpoint/restore), and [`recovery`] the
//! stage-boundary checkpoint artifacts. The protocol has one driver, the
//! `sisg-simtest` crate's deterministic virtual-clock scheduler.
//!
//! Algorithm 1 is written once, in the private `tns` module: [`TnsRun`],
//! the one run set-up, one pair scan and one TNS step, which builds its
//! step list with `sisg_sgns::sgd::build_kept` and runs the one SGNS
//! kernel, `sisg_sgns::sgd::steps`, over one exclusive row access path.
//! Both engines drive it: [`runtime`] over each thread's block of the
//! store, [`protocol`] over each machine's shard.

#![warn(missing_docs)]

pub mod fault;
pub mod hbgp;
pub mod hotset;
pub mod partition;
pub mod pipeline;
pub mod protocol;
pub mod recovery;
pub mod report;
pub mod runtime;
mod tns;

pub use fault::{CrashSpec, FaultDecision, FaultPlan, RetryPolicy, StallSpec};
pub use hbgp::{partition_categories_traced, HbgpPartitioner, HbgpTrace};
pub use hotset::HotSet;
pub use partition::{HashPartitioner, PartitionMap, Partitioner};
pub use pipeline::{PipelinePreflight, ResumeError, TrainingPipeline};
pub use protocol::{
    Delivered, MachineCounters, Message, RetryVerdict, Step, TnsReport, TnsRequest, TnsResponse,
    WireError, WorkerMachine,
};
pub use recovery::{PipelineCheckpoint, ShardCheckpoint};
pub use report::{ClusterCostModel, DistReport};
pub use runtime::{build_partition, train_distributed, DistConfig};
pub use tns::TnsRun;
