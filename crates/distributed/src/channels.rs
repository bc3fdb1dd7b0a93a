//! True message-passing TNS — Algorithm 1 with vectors actually shipped
//! between workers over channels.
//!
//! The [`crate::runtime`] engine shares the embedding matrices between
//! threads and *accounts* for the traffic a cluster would generate; this
//! module is the complementary fidelity check: every worker owns a
//! **disjoint shard** of the input and output matrices (no shared vector
//! state at all), and a remote pair really does serialize the target's
//! input vector into a [`TnsRequest`], cross a bounded crossbeam channel
//! to the context's owner, get its TNS step executed there (output update
//! plus negatives from the owner's local noise distribution), and return
//! the input gradient in a [`TnsResponse`] — exactly the lines 7–20 of
//! Algorithm 1.
//!
//! The protocol itself — pair scanning, sequence-numbered idempotent
//! requests, retry/give-up, checkpointing — lives in the driver-agnostic
//! [`crate::protocol::WorkerMachine`], and the run around the machines
//! (partition, tables, schedule, store assembly) in
//! [`crate::protocol::TnsRun`]; this module is the *threaded driver*: one
//! thread per worker, one bounded inbox per worker, and a
//! seeded [`FaultPlan`] optionally applied at every send (drop/duplicate;
//! crash/stall schedules need the virtual-clock simulator in
//! `crates/simtest`).
//!
//! Deadlock freedom: channels are bounded, so sends go through a
//! service-while-full outbox pump — when a peer's inbox is full the
//! sender drains and serves its *own* inbox before retrying, which keeps
//! every queue draining and every request answerable. A worker blocked
//! waiting for its gradient reply keeps servicing incoming requests, a
//! response that never arrives is retransmitted a bounded number of times
//! and then abandoned (graceful degradation), and termination uses a
//! service-while-waiting barrier (an atomic counter the workers poll
//! while continuing to answer requests) so no TNS call can be stranded.
//! The hot-set machinery is deliberately out of scope here — this engine
//! isolates the TNS protocol; ATNS behaviour is covered by the
//! shared-memory runtime.

use crate::fault::{FaultDecision, FaultPlan};
use crate::partition::PartitionMap;
use crate::protocol::{
    Delivered, MachineCounters, Message, RetryVerdict, Step, TnsRun, WorkerMachine,
};
use crate::runtime::DistConfig;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use sisg_corpus::{Corpus, EnrichedCorpus, ItemCatalog};
use sisg_embedding::EmbeddingStore;
use sisg_obs::names as obs_names;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

pub use crate::protocol::{TnsRequest, TnsResponse};

/// Counters of one message-passing run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChannelReport {
    /// Positive pairs processed in total.
    pub pairs: u64,
    /// Pairs that crossed a channel (request + response messages each).
    pub remote_pairs: u64,
    /// Total messages passed (including retransmissions and dedup
    /// replays; zero-fault runs see exactly `2 × remote_pairs`).
    pub messages: u64,
    /// Bytes of vector payload actually moved.
    pub payload_bytes: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Pairs trained by each worker (same accounting as
    /// [`crate::DistReport::pairs_per_worker`]).
    pub pairs_per_worker: Vec<u64>,
    /// Remote pairs initiated by each worker.
    pub remote_pairs_per_worker: Vec<u64>,
    /// Retransmissions after response timeouts.
    pub retries: u64,
    /// Duplicate requests absorbed by the idempotency cache.
    pub requests_deduped: u64,
    /// Responses discarded as duplicate or stale.
    pub stale_responses: u64,
    /// Remote pairs abandoned after exhausting retries.
    pub gave_up: u64,
    /// Messages the fault injector dropped, duplicated or delayed.
    pub faults_injected: u64,
    /// Worker restores from checkpoint (always 0 under this driver; the
    /// simulator fills it in).
    pub recoveries: u64,
}

impl ChannelReport {
    pub(crate) fn absorb(&mut self, c: &MachineCounters) {
        self.pairs += c.pairs;
        self.remote_pairs += c.remote_pairs;
        self.messages += c.messages;
        self.payload_bytes += c.payload_bytes;
        self.retries += c.retries;
        self.requests_deduped += c.requests_deduped;
        self.stale_responses += c.stale_responses;
        self.gave_up += c.gave_up;
        self.pairs_per_worker.push(c.pairs);
        self.remote_pairs_per_worker.push(c.remote_pairs);
    }

    /// Mirrors the run's fault/retry counters into the obs registry.
    pub(crate) fn publish_to_obs(&self) {
        let reg = sisg_obs::registry();
        reg.counter(obs_names::DIST_CHANNEL_MESSAGES_TOTAL)
            .add(self.messages);
        reg.counter(obs_names::DIST_CHANNEL_PAYLOAD_BYTES_TOTAL)
            .add(self.payload_bytes);
        reg.counter(obs_names::DIST_FAULTS_INJECTED_TOTAL)
            .add(self.faults_injected);
        reg.counter(obs_names::DIST_RETRIES_TOTAL).add(self.retries);
        reg.counter(obs_names::DIST_REQUESTS_DEDUPED_TOTAL)
            .add(self.requests_deduped);
    }
}

/// Driver knobs of one threaded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelOptions {
    /// Bounded capacity of each worker's inbox. Small capacities force
    /// the backpressure path; the default keeps queues comfortably deep.
    pub capacity: usize,
    /// Seeded fault schedule applied at every send. Must be
    /// [`FaultPlan::threaded_compatible`] (crash/stall schedules need the
    /// virtual-clock simulator).
    pub faults: FaultPlan,
}

impl Default for ChannelOptions {
    fn default() -> Self {
        Self {
            capacity: 64,
            faults: FaultPlan::none(),
        }
    }
}

/// Trains with real message passing under the default (fault-free)
/// options. Returns the assembled store and the message accounting.
/// `config.hot_set_size` is ignored (see module docs).
pub fn train_distributed_channels(
    enriched: &EnrichedCorpus,
    sessions: &Corpus,
    catalog: &ItemCatalog,
    config: &DistConfig,
) -> (EmbeddingStore, ChannelReport) {
    train_distributed_channels_with(
        enriched,
        sessions,
        catalog,
        config,
        &ChannelOptions::default(),
    )
}

/// Trains with real message passing under explicit driver options
/// (bounded-channel capacity and an optional message-fault schedule).
pub fn train_distributed_channels_with(
    enriched: &EnrichedCorpus,
    sessions: &Corpus,
    catalog: &ItemCatalog,
    config: &DistConfig,
    options: &ChannelOptions,
) -> (EmbeddingStore, ChannelReport) {
    assert!(options.capacity > 0, "need a nonzero channel capacity");
    assert!(
        options.faults.threaded_compatible(),
        "crash/stall schedules require the simtest virtual-clock scheduler"
    );
    let run = TnsRun::new(enriched, sessions, catalog, config);
    let w = config.workers;

    // One bounded inbox per worker.
    let (senders, receivers): (Vec<Sender<Message>>, Vec<Receiver<Message>>) =
        (0..w).map(|_| bounded(options.capacity)).unzip();
    let scanning_done = AtomicUsize::new(0);

    // Channel-depth tracking: senders increment, receivers decrement, and
    // the peak is the run's backpressure high-water mark. Signed because a
    // receiver can observe a message before its sender's increment lands.
    let in_flight = AtomicI64::new(0);
    let depth_peak = AtomicU64::new(0);

    let span = sisg_obs::span(obs_names::DIST_CHANNELS_TRAIN_SPAN);
    let mut machines = Vec::with_capacity(w);
    let mut faults_injected = 0;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(w);
        for (me, receiver) in receivers.iter().enumerate() {
            let driver = Driver {
                machine: WorkerMachine::new(&run, me),
                partition: run.partition(),
                outbox: VecDeque::new(),
                senders: senders.clone(),
                rx: receiver.clone(),
                plan: &options.faults,
                me,
                send_index: 0,
                faults_injected: 0,
                in_flight: &in_flight,
                depth_peak: &depth_peak,
            };
            let scanning_done = &scanning_done;
            handles.push(scope.spawn(move || driver.run(scanning_done, w)));
        }
        for h in handles {
            let (machine, faults) = h.join().expect("worker thread panicked");
            machines.push(machine);
            faults_injected += faults;
        }
    });
    let report = ChannelReport {
        seconds: span.finish().as_secs_f64(),
        faults_injected,
        ..Default::default()
    };
    sisg_obs::registry()
        .gauge(obs_names::DIST_CHANNEL_DEPTH_PEAK)
        // ORDERING: Relaxed — all workers have joined; reading a stat
        // counter after join needs no extra synchronization.
        .record_max(depth_peak.load(Ordering::Relaxed) as f64);
    run.assemble(machines, report)
}

/// How long a worker parks on its own inbox when it has nothing else to
/// do (peer queue full, or waiting out the termination barrier): long
/// enough not to burn a core spinning, short enough to re-probe promptly.
const PARK_WAIT: Duration = Duration::from_micros(200);

/// Bumps the in-flight message count on a successful send and maintains
/// the peak.
fn track_send(in_flight: &AtomicI64, peak: &AtomicU64) {
    // ORDERING: Relaxed — backpressure stats only; the channel itself
    // synchronizes message payloads, these counters publish nothing.
    let depth = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
    peak.fetch_max(depth.max(0) as u64, Ordering::Relaxed);
}

/// The threaded per-worker driver: pumps the machine, the bounded
/// channels, and the fault injector.
struct Driver<'a> {
    machine: WorkerMachine<'a>,
    partition: &'a PartitionMap,
    outbox: VecDeque<(usize, Message)>,
    senders: Vec<Sender<Message>>,
    rx: Receiver<Message>,
    plan: &'a FaultPlan,
    me: usize,
    send_index: u64,
    faults_injected: u64,
    in_flight: &'a AtomicI64,
    depth_peak: &'a AtomicU64,
}

impl<'a> Driver<'a> {
    /// Applies the fault plan to one outgoing message and enqueues the
    /// surviving copies. Delay decisions degrade to plain delivery here;
    /// only the simulator models latency.
    fn route(&mut self, to: usize, msg: Message) {
        let decision = self.plan.decide(self.me, self.send_index);
        self.send_index += 1;
        match decision {
            FaultDecision::Deliver | FaultDecision::Delay(_) => {
                if matches!(decision, FaultDecision::Delay(_)) {
                    self.faults_injected += 1;
                }
                self.outbox.push_back((to, msg));
            }
            FaultDecision::Drop => self.faults_injected += 1,
            FaultDecision::Duplicate => {
                self.faults_injected += 1;
                self.outbox.push_back((to, msg.clone()));
                self.outbox.push_back((to, msg));
            }
        }
    }

    /// Hands one received message to the machine and routes any reply.
    fn dispatch(&mut self, msg: Message) {
        // ORDERING: Relaxed — depth stat only; `msg` itself was already
        // synchronized by the channel receive.
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        match self.machine.deliver(msg) {
            Delivered::Reply { to, response } => {
                self.route(to, Message::Response(response));
            }
            Delivered::Applied | Delivered::Ignored => {}
        }
    }

    /// Drains everything currently in the inbox. Returns true if any
    /// message was handled.
    fn service_inbox(&mut self) -> bool {
        let mut any = false;
        while let Ok(msg) = self.rx.try_recv() {
            self.dispatch(msg);
            any = true;
        }
        any
    }

    /// Flushes the outbox, servicing the own inbox whenever a peer's
    /// queue is full — the backpressure-safe send loop. Every worker
    /// keeps draining its inbox while it waits for space, so the cycle of
    /// full queues always breaks and the loop terminates.
    fn pump(&mut self) {
        while let Some((to, msg)) = self.outbox.pop_front() {
            match self.senders[to].try_send(msg) {
                Ok(()) => track_send(self.in_flight, self.depth_peak),
                Err(TrySendError::Full(msg)) => {
                    self.outbox.push_front((to, msg));
                    if !self.service_inbox() {
                        // Nothing to serve: park on the own inbox instead
                        // of spinning — either a message arrives (handle
                        // it) or the timeout fires and the peer's queue
                        // is probed again. Liveness is unchanged; an idle
                        // wait no longer burns a core.
                        if let Ok(msg) = self.rx.recv_timeout(PARK_WAIT) {
                            self.dispatch(msg);
                        }
                    }
                }
                // A peer already shut down (post-barrier); drop quietly.
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }

    /// Single-attempt flush for shutdown: peers may have exited and
    /// stopped draining, so a full queue just drops the message.
    fn flush_best_effort(&mut self) {
        while let Some((to, msg)) = self.outbox.pop_front() {
            if self.senders[to].try_send(msg).is_ok() {
                track_send(self.in_flight, self.depth_peak);
            }
        }
    }

    fn run(mut self, scanning_done: &AtomicUsize, w: usize) -> (WorkerMachine<'a>, u64) {
        let retry = self.plan.retry;
        loop {
            // Service first, pump second: replies generated while draining
            // the inbox must hit the wire before this worker blocks in
            // `recv_timeout`, or a peer waits out its full timeout for a
            // response that is sitting in our outbox.
            self.service_inbox();
            self.pump();
            if self.machine.is_waiting() {
                match self.rx.recv_timeout(retry.timeout) {
                    Ok(msg) => self.dispatch(msg),
                    Err(RecvTimeoutError::Timeout) => {
                        match self.machine.retry(retry.max_attempts) {
                            RetryVerdict::Resend(req) => {
                                let owner = self.partition.owner(req.context);
                                self.route(owner, Message::Request(req));
                            }
                            RetryVerdict::GaveUp | RetryVerdict::Idle => {}
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            } else {
                match self.machine.step() {
                    Step::Sent(req) => {
                        let owner = self.partition.owner(req.context);
                        self.route(owner, Message::Request(req));
                    }
                    Step::Progress | Step::EpochEnd(_) => {}
                    Step::Finished => break,
                }
            }
        }

        // Service-while-waiting termination: answer requests until every
        // worker has finished scanning, then drain the inbox.
        //
        // ORDERING: Release on the increment / Acquire on the poll — each
        // worker publishes everything it did before declaring itself done,
        // and a worker that observes the full count sees all of it. A
        // single counter polled for one threshold needs no SeqCst total
        // order; the shard payloads additionally flow through the result
        // mutex and `join`.
        scanning_done.fetch_add(1, Ordering::Release);
        while scanning_done.load(Ordering::Acquire) < w {
            let served = self.service_inbox();
            self.pump();
            if !served {
                // Park on the inbox rather than spin-yield; requests that
                // arrive while waiting out the barrier still get served.
                if let Ok(msg) = self.rx.recv_timeout(PARK_WAIT) {
                    self.dispatch(msg);
                }
            }
        }
        self.service_inbox();
        self.flush_best_effort();

        (self.machine, self.faults_injected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::PartitionStrategy;
    use sisg_corpus::{CorpusConfig, EnrichOptions, GeneratedCorpus, ItemId, TokenId};
    use sisg_embedding::math::cosine;

    fn corpus() -> GeneratedCorpus {
        GeneratedCorpus::generate(CorpusConfig::tiny())
    }

    fn config(workers: usize) -> DistConfig {
        DistConfig {
            workers,
            dim: 16,
            window: 3,
            negatives: 3,
            epochs: 1,
            hot_set_size: 0,
            sync_interval: 1_000,
            ..Default::default()
        }
    }

    /// Options with a timeout far beyond scheduler noise: exact-ledger
    /// assertions (`messages == 2 × remote_pairs`) need a run where no
    /// retransmission fires just because the test host oversubscribed its
    /// cores for half a second.
    fn patient(capacity: usize) -> ChannelOptions {
        let mut opts = ChannelOptions {
            capacity,
            ..Default::default()
        };
        opts.faults.retry.timeout = std::time::Duration::from_secs(30);
        opts
    }

    #[test]
    fn single_worker_passes_no_messages() {
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::NONE);
        let (store, report) =
            train_distributed_channels(&enriched, &gen.sessions, &gen.catalog, &config(1));
        assert_eq!(report.remote_pairs, 0);
        assert_eq!(report.messages, 0);
        assert!(report.pairs > 10_000);
        assert_eq!(store.n_tokens(), enriched.space().len());
    }

    #[test]
    fn remote_pairs_really_cross_channels() {
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::NONE);
        let cfg = DistConfig {
            strategy: PartitionStrategy::Hash, // maximal cross-worker traffic
            ..config(4)
        };
        let (_, report) = train_distributed_channels_with(
            &enriched,
            &gen.sessions,
            &gen.catalog,
            &cfg,
            &patient(64),
        );
        assert!(report.remote_pairs > 1_000, "hash partition must go remote");
        // Every remote pair = one request + one response message.
        assert_eq!(report.messages, report.remote_pairs * 2);
        // Payload: input vector out + gradient back, dim × 4 bytes each.
        assert_eq!(report.payload_bytes, report.remote_pairs * 2 * 16 * 4);
        assert_eq!(report.retries, 0, "fault-free run must not retransmit");
        assert_eq!(report.requests_deduped, 0);
        assert_eq!(report.gave_up, 0);
    }

    #[test]
    fn message_passing_learns_structure() {
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::NONE);
        let mut cfg = config(4);
        cfg.epochs = 2;
        let (store, _) = train_distributed_channels(&enriched, &gen.sessions, &gen.catalog, &cfg);
        let mut within = 0.0f64;
        let mut cross = 0.0f64;
        let (mut wn, mut cn) = (0u32, 0u32);
        for a in 0..120u32 {
            for b in (a + 1)..120u32 {
                let s = cosine(store.input(TokenId(a)), store.input(TokenId(b))) as f64;
                if gen.catalog.leaf_category(ItemId(a)) == gen.catalog.leaf_category(ItemId(b)) {
                    within += s;
                    wn += 1;
                } else {
                    cross += s;
                    cn += 1;
                }
            }
        }
        assert!(
            within / wn as f64 > cross / cn as f64,
            "message-passing engine failed to learn category structure"
        );
    }

    #[test]
    fn hbgp_reduces_real_message_traffic() {
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::NONE);
        let hbgp_cfg = config(4);
        let hash_cfg = DistConfig {
            strategy: PartitionStrategy::Hash,
            ..config(4)
        };
        let (_, hbgp) =
            train_distributed_channels(&enriched, &gen.sessions, &gen.catalog, &hbgp_cfg);
        let (_, hash) =
            train_distributed_channels(&enriched, &gen.sessions, &gen.catalog, &hash_cfg);
        assert!(
            hbgp.payload_bytes < hash.payload_bytes / 2,
            "HBGP should at least halve real traffic: {} vs {}",
            hbgp.payload_bytes,
            hash.payload_bytes
        );
    }

    #[test]
    fn backpressure_capacity_one_still_terminates() {
        // Hash partitioning with capacity-1 inboxes forces the
        // service-while-full path constantly; the run must terminate with
        // the exact same pair accounting as a comfortable capacity (the
        // scan streams are deterministic and independent of queue depth).
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::NONE);
        let cfg = DistConfig {
            strategy: PartitionStrategy::Hash,
            ..config(4)
        };
        let (_, squeezed) = train_distributed_channels_with(
            &enriched,
            &gen.sessions,
            &gen.catalog,
            &cfg,
            &patient(1),
        );
        let (_, roomy) = train_distributed_channels_with(
            &enriched,
            &gen.sessions,
            &gen.catalog,
            &cfg,
            &patient(64),
        );
        assert!(squeezed.remote_pairs > 1_000);
        assert_eq!(squeezed.pairs_per_worker, roomy.pairs_per_worker);
        assert_eq!(squeezed.remote_pairs, roomy.remote_pairs);
        assert_eq!(squeezed.messages, squeezed.remote_pairs * 2);
    }

    #[test]
    fn message_faults_degrade_gracefully() {
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::NONE);
        let cfg = DistConfig {
            strategy: PartitionStrategy::Hash,
            ..config(4)
        };
        let mut faults = FaultPlan::message_faults(0xBAD5EED, 0.2, 0.1, 0.0);
        faults.retry.timeout = std::time::Duration::from_millis(5);
        let opts = ChannelOptions {
            capacity: 16,
            faults,
        };
        let (_, faulty) =
            train_distributed_channels_with(&enriched, &gen.sessions, &gen.catalog, &cfg, &opts);
        let (_, clean) = train_distributed_channels(&enriched, &gen.sessions, &gen.catalog, &cfg);
        // The scan streams are fault-independent: the same pairs are
        // attempted no matter what the network does.
        assert_eq!(faulty.pairs_per_worker, clean.pairs_per_worker);
        assert_eq!(faulty.remote_pairs, clean.remote_pairs);
        assert!(faulty.faults_injected > 0, "plan must actually inject");
        assert!(faulty.retries > 0, "drops must cause retransmissions");
        assert!(faulty.requests_deduped > 0, "dups must hit the cache");
        // Retries recover almost everything; a handful of gave-ups are
        // acceptable, deadlock or mass abandonment is not.
        assert!(
            faulty.gave_up * 100 < faulty.remote_pairs,
            "gave up {} of {} remote pairs",
            faulty.gave_up,
            faulty.remote_pairs
        );
    }
}
