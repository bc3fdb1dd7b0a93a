//! Accounting of a distributed training run: the quantities Figures 7(a),
//! 7(b) and the partitioning/ATNS ablations report, and the message and
//! fault counters of the exchange that trained it.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use serde::{Deserialize, Serialize};
use sisg_obs::names as obs_names;

/// Everything measured during one distributed run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DistReport {
    /// Number of workers.
    pub workers: usize,
    /// Partitioner name (`hbgp` / `hash`).
    pub partitioner: String,
    /// Hot-set (`Q`) size actually used.
    pub hot_set_size: usize,
    /// Positive pairs processed, per worker — the load-balance signal.
    pub pairs_per_worker: Vec<u64>,
    /// Pairs whose target and context lived on the same worker (or in `Q`).
    pub local_pairs: u64,
    /// Pairs that required shipping an input vector + gradient.
    pub remote_pairs: u64,
    /// Pairs whose endpoints are both *items* (the traffic HBGP targets).
    pub item_pairs: u64,
    /// Item-item pairs that crossed workers.
    pub remote_item_pairs: u64,
    /// Pairs per worker by the kinds of their tokens, in `PairKinds` order:
    /// `[item→item, item↔SI, SI↔SI, user]`. A worker's four sum to its
    /// `pairs_per_worker`.
    pub pair_kinds_per_worker: Vec<[u64; 4]>,
    /// Bytes a cluster would move for remote pairs.
    pub pair_comm_bytes: u64,
    /// Bytes a cluster would move for hot-set synchronization.
    pub sync_comm_bytes: u64,
    /// Number of hot-set averaging rounds performed.
    pub sync_rounds: u64,
    /// TNS requests the owners served: one per remote pair.
    pub requests_served: u64,
    /// Output rows stepped, local pairs and served requests alike: every
    /// pair's context plus its kept negatives.
    pub rows_stepped: u64,
    /// Exchange blocks each worker went through.
    pub exchange_blocks: u64,
    /// Messages sent (batches, answers, replicas, retransmissions, replays).
    pub messages: u64,
    /// Vector payload bytes in those messages.
    pub payload_bytes: u64,
    /// Messages sent again after a timeout.
    pub retries: u64,
    /// Duplicate messages absorbed (and answered from the cache).
    pub deduped: u64,
    /// Malformed or stale messages ignored.
    pub ignored: u64,
    /// Faults a fault plan injected; 0 outside the simulator.
    pub faults_injected: u64,
    /// Worker restores from a block checkpoint; 0 outside the simulator.
    pub recoveries: u64,
    /// Enriched tokens scanned (× epochs).
    pub tokens_processed: u64,
    /// Wall-clock seconds of the parallel phase.
    pub seconds: f64,
    /// Fraction of adjacent-click transitions crossing workers.
    pub cut_fraction: f64,
    /// Max/mean per-worker item-frequency load.
    pub imbalance: f64,
    /// Each worker's wall time by phase of the exchange; empty for a
    /// simulated run, whose time is virtual.
    pub phases_per_worker: Vec<PhaseNs>,
}

/// One worker's wall time in each phase of the block exchange, in ns. The
/// machine charges every nanosecond from its start to its finish to
/// exactly one phase, so the five add up to its run time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseNs {
    /// Scanning a block — the pair stream and the local steps — posting
    /// its batches, and cutting the next block.
    pub scan: u64,
    /// Serving the peers' batches.
    pub serve: u64,
    /// Adding the answers' gradients to the target rows.
    pub apply: u64,
    /// Trading and averaging the replicas of `Q` at a round's end.
    pub average: u64,
    /// Outside the machine, between two of its steps: waiting at the
    /// driver's barrier and taking the peers' messages.
    pub barrier_wait: u64,
}

impl PhaseNs {
    /// The phases in `sisg_obs::names::DIST_PHASE_NS` order.
    pub(crate) fn to_array(self) -> [u64; 5] {
        [
            self.scan,
            self.serve,
            self.apply,
            self.average,
            self.barrier_wait,
        ]
    }

    /// All five phases: the worker's run time.
    pub fn total(&self) -> u64 {
        self.to_array().iter().sum()
    }
}

impl DistReport {
    /// Total positive pairs.
    pub fn total_pairs(&self) -> u64 {
        self.local_pairs + self.remote_pairs
    }

    /// Fraction of pairs needing cross-worker traffic.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_pairs();
        if total == 0 {
            0.0
        } else {
            self.remote_pairs as f64 / total as f64
        }
    }

    /// Fraction of *item-item* pairs crossing workers — the quantity HBGP
    /// minimizes (SI traffic is ATNS's job).
    pub fn item_remote_fraction(&self) -> f64 {
        if self.item_pairs == 0 {
            0.0
        } else {
            self.remote_item_pairs as f64 / self.item_pairs as f64
        }
    }

    /// Throughput in tokens per second — Figure 7(b)'s y-axis (the paper
    /// reports "billion tokens per hour"; multiply by 3600/1e9).
    pub fn tokens_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.tokens_processed as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Max/mean ratio of `pairs_per_worker` (1.0 = perfect compute balance).
    pub fn pair_imbalance(&self) -> f64 {
        let total: u64 = self.pairs_per_worker.iter().sum();
        if total == 0 || self.pairs_per_worker.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.pairs_per_worker.len() as f64;
        self.pairs_per_worker.iter().copied().max().unwrap_or(0) as f64 / mean
    }

    /// Barrier wait's share of the workers' summed run time: the exchange
    /// idle time (0 without phase times).
    pub fn exchange_idle_share(&self) -> f64 {
        let total: u64 = self.phases_per_worker.iter().map(PhaseNs::total).sum();
        let idle: u64 = self.phases_per_worker.iter().map(|p| p.barrier_wait).sum();
        idle as f64 / total.max(1) as f64
    }

    /// Total bytes moved (pairs + synchronization).
    pub fn total_comm_bytes(&self) -> u64 {
        self.pair_comm_bytes + self.sync_comm_bytes
    }

    /// Mirrors the run's accounting into the global obs registry, so the
    /// same numbers reach snapshots without any per-pair instrumentation.
    pub(crate) fn publish_to_obs(&self) {
        let reg = sisg_obs::registry();
        for (name, v) in [
            (obs_names::DIST_PAIRS_TOTAL, self.total_pairs()),
            (obs_names::DIST_REMOTE_PAIRS_TOTAL, self.remote_pairs),
            (obs_names::DIST_SYNC_ROUNDS_TOTAL, self.sync_rounds),
            (obs_names::DIST_SYNC_BYTES_TOTAL, self.sync_comm_bytes),
            (obs_names::DIST_CHANNEL_MESSAGES_TOTAL, self.messages),
            (
                obs_names::DIST_CHANNEL_PAYLOAD_BYTES_TOTAL,
                self.payload_bytes,
            ),
            (obs_names::DIST_RETRIES_TOTAL, self.retries),
            (obs_names::DIST_REQUESTS_DEDUPED_TOTAL, self.deduped),
        ] {
            reg.counter(name).add(v);
        }
        reg.gauge(obs_names::DIST_REMOTE_FRACTION)
            .set(self.remote_fraction());
        reg.gauge(obs_names::DIST_PAIR_IMBALANCE)
            .set(self.pair_imbalance());
        reg.gauge(obs_names::DIST_CUT_FRACTION)
            .set(self.cut_fraction);
        let worker_pairs = reg.histogram(obs_names::DIST_WORKER_PAIRS);
        for &pairs in &self.pairs_per_worker {
            worker_pairs.record(pairs);
        }
    }

    /// Models the wall-clock time of this run on a real cluster.
    ///
    /// This simulation runs all "workers" as threads of one process (on this
    /// reproduction's reference host, two cores), so measured wall time
    /// cannot show cluster scaling. The accounting, however, captures
    /// exactly what determines cluster time: the *slowest worker's* compute
    /// (Algorithm 1 is bulk-synchronous only at ATNS barriers) plus
    /// communication. The model is
    ///
    /// ```text
    /// t = max_w(pairs_w) · s_pair + (pair_bytes/w + sync_bytes) / bw + rounds · latency
    /// ```
    ///
    /// with `s_pair` calibrated from a measured single-worker run.
    pub fn modeled_seconds(&self, model: &ClusterCostModel) -> f64 {
        let max_pairs = self.pairs_per_worker.iter().copied().max().unwrap_or(0) as f64;
        let per_worker_bytes =
            self.pair_comm_bytes as f64 / self.workers.max(1) as f64 + self.sync_comm_bytes as f64;
        max_pairs * model.seconds_per_pair
            + per_worker_bytes / model.bytes_per_second
            + self.sync_rounds as f64 * model.sync_latency_seconds
    }
}

/// Cost model for [`DistReport::modeled_seconds`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterCostModel {
    /// Seconds of worker compute per positive pair (calibrate by running
    /// one worker and dividing measured seconds by its pair count).
    pub seconds_per_pair: f64,
    /// Effective network bandwidth per worker (the paper's cluster: 10 Gbps
    /// Ethernet ≈ 1.25 GB/s).
    pub bytes_per_second: f64,
    /// Latency of one ATNS all-reduce round.
    pub sync_latency_seconds: f64,
}

impl Default for ClusterCostModel {
    fn default() -> Self {
        Self {
            seconds_per_pair: 2e-6,
            bytes_per_second: 1.25e9,
            sync_latency_seconds: 0.05,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> DistReport {
        DistReport {
            workers: 2,
            partitioner: "hbgp".into(),
            hot_set_size: 8,
            pairs_per_worker: vec![60, 40],
            local_pairs: 80,
            remote_pairs: 20,
            item_pairs: 50,
            remote_item_pairs: 5,
            pair_comm_bytes: 1000,
            sync_comm_bytes: 200,
            sync_rounds: 3,
            requests_served: 20,
            rows_stepped: 540,
            tokens_processed: 500,
            seconds: 2.0,
            cut_fraction: 0.1,
            imbalance: 1.1,
            ..Default::default()
        }
    }

    #[test]
    fn derived_quantities() {
        let r = report();
        assert_eq!(r.total_pairs(), 100);
        assert!((r.remote_fraction() - 0.2).abs() < 1e-12);
        assert!((r.tokens_per_second() - 250.0).abs() < 1e-9);
        assert!((r.pair_imbalance() - 1.2).abs() < 1e-9);
        assert_eq!(r.total_comm_bytes(), 1200);
        assert!((r.item_remote_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_guarded() {
        let mut r = report();
        r.local_pairs = 0;
        r.remote_pairs = 0;
        r.seconds = 0.0;
        r.pairs_per_worker = vec![0, 0];
        assert_eq!(r.remote_fraction(), 0.0);
        assert_eq!(r.tokens_per_second(), 0.0);
        assert_eq!(r.pair_imbalance(), 1.0);
    }

    #[test]
    fn modeled_time_shrinks_with_balanced_workers() {
        let model = ClusterCostModel {
            seconds_per_pair: 1e-3,
            bytes_per_second: 1e9,
            sync_latency_seconds: 0.0,
        };
        let mut one = report();
        one.workers = 1;
        one.pairs_per_worker = vec![100];
        let mut two = report();
        two.workers = 2;
        two.pairs_per_worker = vec![50, 50];
        assert!(
            two.modeled_seconds(&model) < one.modeled_seconds(&model) * 0.6,
            "balanced two-worker run should nearly halve modeled time"
        );
    }

    #[test]
    fn imbalance_hurts_modeled_time() {
        let model = ClusterCostModel {
            seconds_per_pair: 1e-3,
            bytes_per_second: 1e12,
            sync_latency_seconds: 0.0,
        };
        let mut balanced = report();
        balanced.pairs_per_worker = vec![50, 50];
        let mut skewed = report();
        skewed.pairs_per_worker = vec![90, 10];
        assert!(skewed.modeled_seconds(&model) > balanced.modeled_seconds(&model));
    }

    #[test]
    fn serializes_to_json() {
        let r = report();
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(json.contains("\"workers\":2"));
        let back: DistReport = serde_json::from_str(&json).expect("report deserializes");
        assert_eq!(back.total_pairs(), 100);
    }
}
