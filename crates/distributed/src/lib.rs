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
//! - [`protocol`] — Algorithm 1's one worker, [`WorkerMachine`]: it owns
//!   a row block (its replicas of `Q`, then the tokens it owns), steps its
//!   local pairs in place and trades each exchange block's remote pairs
//!   with their owners — one batch per peer, one answer of summed
//!   gradients back — then averages the replicas of `Q` every sync round,
//!   with tags, retries, dedup and block checkpoints (DESIGN.md §9);
//! - [`runtime`] — the threaded driver: one thread per worker, messages
//!   carried through in-process mailboxes between barriers. The
//!   `sisg-simtest` crate is the other: the same machines under a virtual
//!   clock and a seeded fault plan, training the same store bit for bit;
//! - [`report`] — the Figure 7 and ablation accounting, and the
//!   exchange's message and fault counters; [`fault`] the deterministic
//!   fault injector; [`recovery`] the stage and block checkpoints.
//!
//! The run set-up is written once, in the private `tns` module: [`TnsRun`]
//! (partition, `Q`, noise tables, learning-rate schedule, row layout), one
//! pair scan and one TNS step over `sisg_sgns::sgd::steps`, the one SGNS
//! kernel.

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
    Advance, Answer, Batch, Delivered, MachineCounters, Message, Replicas, Tag, WireError,
    WorkerMachine, EXCHANGE_TOKENS,
};
pub use recovery::{BlockCheckpoint, PipelineCheckpoint};
pub use report::{ClusterCostModel, DistReport};
pub use runtime::{build_partition, train_distributed, DistConfig};
pub use tns::TnsRun;
