//! Deterministic fault simulation for the distributed TNS engine — the
//! one driver of the message-passing protocol.
//!
//! Threads cannot replay a failure: the interleaving differs on every run,
//! and a crash schedule ("kill worker 2 after 500 pairs, restart it 200
//! ticks later") cannot even be expressed. A [`WorkerMachine`] is
//! single-owner by construction, so this crate drives the machines under a
//! **virtual-clock scheduler**: every send, delivery, timeout, stall, crash
//! and restart is an event on a totally ordered queue `(tick, event-id)`,
//! and every fault decision is a pure function of the [`FaultPlan`] seed —
//! so one seed replays to a byte-identical event trace, forever.
//!
//! What the simulator models (DESIGN.md §9):
//!
//! - **Message faults** — each send rolls drop / duplicate / delay against
//!   the plan; delays reorder deliveries, duplicates exercise the
//!   idempotency cache, drops exercise retry/give-up.
//! - **Stalls** — a worker freezes for a fixed number of ticks after
//!   processing a threshold of pairs, forcing its peers through their
//!   timeout paths.
//! - **Crash + recovery** — a worker is killed after a threshold of pairs,
//!   its inbox is lost, and after `down_ticks` it restores from its last
//!   epoch-boundary [`ShardCheckpoint`] (serialized and re-parsed, so the
//!   byte codec is on the recovery path) under a bumped incarnation.
//! - **Timeouts** — a waiting worker retransmits after
//!   [`RetryPolicy::timeout_ticks`] virtual ticks and abandons the pair
//!   after `max_attempts`.
//!
//! [`simulate`] returns the assembled embedding store, the protocol
//! accounting, and the streamed FNV-1a [`SimOutcome::trace_hash`] of the
//! processed event sequence — the regression tests pin those hashes per
//! seed. [`SimOutcome::completed`] is the no-deadlock verdict: the event
//! queue drained with every worker finished.
//!
//! [`RetryPolicy::timeout_ticks`]: sisg_distributed::RetryPolicy

#![warn(missing_docs)]

use sisg_core::{CoreError, SisgModel, Variant};
use sisg_corpus::split::{NextItemSplit, SplitStage};
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{Corpus, EnrichedCorpus, ItemCatalog};
use sisg_distributed::recovery::record_recovery;
use sisg_distributed::{
    Delivered, DistConfig, FaultDecision, FaultPlan, Message, PartitionMap, RetryVerdict,
    ShardCheckpoint, Step, TnsReport, TnsRun, WorkerMachine,
};
use sisg_embedding::EmbeddingStore;
use sisg_eval::hitrate::evaluate_hit_rates;
use sisg_obs::Fnv1a;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One simulated run: the training configuration, the fault schedule, and
/// a hard event budget that converts a livelock bug into a clean failure.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Training configuration. `hot_set_size` is ignored: `TnsRun::new`
    /// runs the machines with an empty `Q`, so they train plain TNS through
    /// the same pair scan and TNS step the shared-memory runtime runs ATNS
    /// with.
    pub dist: DistConfig,
    /// Seeded fault schedule. [`FaultPlan::none`] simulates a healthy
    /// cluster.
    pub plan: FaultPlan,
    /// Maximum processed events before the run is declared stuck
    /// (`completed = false`); generous for any legitimate schedule.
    pub max_events: u64,
}

impl SimConfig {
    /// A simulation of `dist` under `plan` with the default event budget.
    pub fn new(dist: DistConfig, plan: FaultPlan) -> Self {
        Self {
            dist,
            plan,
            max_events: 20_000_000,
        }
    }
}

/// The result of one simulated run.
pub struct SimOutcome {
    /// The assembled global embedding store.
    pub store: EmbeddingStore,
    /// Protocol accounting.
    pub report: TnsReport,
    /// Streaming FNV-1a hash of the processed event sequence — two runs of
    /// the same corpus/config/plan produce the same hash, byte for byte.
    pub trace_hash: u64,
    /// Number of events processed.
    pub events: u64,
    /// Final virtual-clock value.
    pub ticks: u64,
    /// True when the event queue drained with every worker finished and
    /// every inbox empty — the no-deadlock/no-livelock verdict.
    pub completed: bool,
}

const TAG_TURN: u64 = 1;
const TAG_DELIVER: u64 = 2;
const TAG_RESTART: u64 = 3;
const TAG_CRASH: u64 = 4;
const TAG_STALL: u64 = 5;
const TAG_LOST: u64 = 6;
const TAG_DROP: u64 = 7;

enum EventKind {
    /// Give worker `worker` one unit of work; stale when `gen` no longer
    /// matches the worker's current turn generation.
    Turn { worker: usize, gen: u64 },
    /// A message arrives at `to`'s inbox.
    Deliver { to: usize, msg: Message },
    /// A crashed worker restores from its checkpoint.
    Restart { worker: usize },
}

struct Event {
    time: u64,
    eid: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.eid) == (other.time, other.eid)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.eid).cmp(&(other.time, other.eid))
    }
}

struct SimWorker<'a> {
    machine: Option<WorkerMachine<'a>>,
    inbox: VecDeque<Message>,
    /// Virtual tick at which the outstanding request times out.
    deadline: Option<u64>,
    /// Per-send fault-roll index, monotonically increasing (retransmits
    /// get fresh rolls).
    send_index: u64,
    incarnation: u64,
    /// Serialized epoch-boundary [`ShardCheckpoint`]; refreshed at every
    /// [`Step::EpochEnd`].
    checkpoint: Vec<u8>,
    turn_gen: u64,
    turn_time: Option<u64>,
    crash_fired: bool,
    stall_fired: bool,
    down: bool,
    restore_failed: bool,
}

/// What a turn decided, applied after the worker borrow is released.
enum TurnAction {
    /// Nothing left to do; the worker's turn chain pauses until a
    /// delivery or restart wakes it.
    Idle,
    /// Take the next turn at this tick.
    Next(u64),
    /// Ship a message, then take the next turn at `next` (if any).
    Send {
        to: usize,
        msg: Message,
        next: Option<u64>,
    },
    /// A stall fired: freeze until this tick.
    Stalled(u64),
}

struct Sim<'a> {
    run: &'a TnsRun<'a>,
    plan: &'a FaultPlan,
    workers: Vec<SimWorker<'a>>,
    heap: BinaryHeap<Reverse<Event>>,
    next_eid: u64,
    trace: Fnv1a,
    events: u64,
    now: u64,
    faults_injected: u64,
    recoveries: u64,
}

impl<'a> Sim<'a> {
    fn new(run: &'a TnsRun<'a>, w: usize, plan: &'a FaultPlan) -> Self {
        let mut sim = Self {
            run,
            plan,
            workers: Vec::with_capacity(w),
            heap: BinaryHeap::new(),
            next_eid: 0,
            trace: Fnv1a::new(),
            events: 0,
            now: 0,
            faults_injected: 0,
            recoveries: 0,
        };
        for me in 0..w {
            let machine = WorkerMachine::new(run, me);
            let checkpoint = machine.checkpoint().to_bytes();
            sim.workers.push(SimWorker {
                machine: Some(machine),
                inbox: VecDeque::new(),
                deadline: None,
                send_index: 0,
                incarnation: 0,
                checkpoint,
                turn_gen: 0,
                turn_time: None,
                crash_fired: false,
                stall_fired: false,
                down: false,
                restore_failed: false,
            });
        }
        for me in 0..w {
            sim.schedule_turn(me, 0);
        }
        sim
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        let eid = self.next_eid;
        self.next_eid += 1;
        self.heap.push(Reverse(Event { time, eid, kind }));
    }

    /// Schedules a turn for `w` at `t`, keeping at most one live turn per
    /// worker (the earliest requested; later pending ones go stale via the
    /// generation counter).
    fn schedule_turn(&mut self, w: usize, t: u64) {
        let wk = &mut self.workers[w];
        if wk.down {
            return;
        }
        if let Some(existing) = wk.turn_time {
            if existing <= t {
                return;
            }
        }
        wk.turn_gen += 1;
        wk.turn_time = Some(t);
        let gen = wk.turn_gen;
        self.push(t, EventKind::Turn { worker: w, gen });
    }

    /// Routes one message through the fault plan.
    fn send(&mut self, from: usize, to: usize, msg: Message, now: u64) {
        let idx = {
            let wk = &mut self.workers[from];
            let idx = wk.send_index;
            wk.send_index += 1;
            idx
        };
        match self.plan.decide(from, idx) {
            FaultDecision::Deliver => self.push(now + 1, EventKind::Deliver { to, msg }),
            FaultDecision::Drop => {
                self.faults_injected += 1;
                self.trace.u64(TAG_DROP);
                self.trace.u64(now);
                self.trace.u64(from as u64);
            }
            FaultDecision::Duplicate => {
                self.faults_injected += 1;
                self.push(
                    now + 1,
                    EventKind::Deliver {
                        to,
                        msg: msg.clone(),
                    },
                );
                self.push(now + 2, EventKind::Deliver { to, msg });
            }
            FaultDecision::Delay(d) => {
                self.faults_injected += 1;
                self.push(now + 1 + d, EventKind::Deliver { to, msg });
            }
        }
    }

    fn on_turn(&mut self, w: usize, now: u64) {
        let retry_ticks = self.plan.retry.timeout_ticks.max(1);
        let max_attempts = self.plan.retry.max_attempts;
        let stall = self.plan.stalls.iter().find(|s| s.worker == w).copied();
        let action = {
            let partition = self.run.partition();
            let wk = &mut self.workers[w];
            let Some(machine) = wk.machine.as_mut() else {
                return;
            };
            let stall_due =
                stall.is_some_and(|s| !wk.stall_fired && machine.counters().pairs >= s.after_pairs);
            if stall_due {
                wk.stall_fired = true;
                TurnAction::Stalled(now + stall.map(|s| s.ticks).unwrap_or(1).max(1))
            } else {
                let mut st = WkState {
                    inbox: &mut wk.inbox,
                    deadline: &mut wk.deadline,
                    checkpoint: &mut wk.checkpoint,
                };
                machine_turn(machine, &mut st, partition, now, retry_ticks, max_attempts)
            }
        };
        match action {
            TurnAction::Idle => {}
            TurnAction::Next(t) => self.schedule_turn(w, t),
            TurnAction::Send { to, msg, next } => {
                self.send(w, to, msg, now);
                if let Some(t) = next {
                    self.schedule_turn(w, t);
                }
            }
            TurnAction::Stalled(until) => {
                self.faults_injected += 1;
                self.trace.u64(TAG_STALL);
                self.trace.u64(now);
                self.trace.u64(w as u64);
                self.schedule_turn(w, until);
            }
        }
        self.check_crash(w, now);
    }

    fn on_deliver(&mut self, to: usize, msg: Message, now: u64) {
        let lost = {
            let wk = &mut self.workers[to];
            if wk.down || wk.machine.is_none() {
                true
            } else {
                wk.inbox.push_back(msg);
                false
            }
        };
        if lost {
            self.trace.u64(TAG_LOST);
            self.trace.u64(now);
            self.trace.u64(to as u64);
        } else {
            self.schedule_turn(to, now);
        }
    }

    fn check_crash(&mut self, w: usize, now: u64) {
        let Some(spec) = self.plan.crashes.iter().find(|c| c.worker == w).copied() else {
            return;
        };
        let fire = {
            let wk = &self.workers[w];
            !wk.crash_fired
                && !wk.down
                && wk
                    .machine
                    .as_ref()
                    .is_some_and(|m| m.counters().pairs >= spec.after_pairs)
        };
        if !fire {
            return;
        }
        {
            let wk = &mut self.workers[w];
            wk.crash_fired = true;
            wk.down = true;
            wk.machine = None;
            wk.inbox.clear();
            wk.deadline = None;
            wk.turn_gen += 1;
            wk.turn_time = None;
        }
        self.faults_injected += 1;
        self.trace.u64(TAG_CRASH);
        self.trace.u64(now);
        self.trace.u64(w as u64);
        self.push(
            now + spec.down_ticks.max(1),
            EventKind::Restart { worker: w },
        );
    }

    fn on_restart(&mut self, w: usize, now: u64) {
        let ck = match ShardCheckpoint::from_bytes(&self.workers[w].checkpoint) {
            Ok(ck) => ck,
            Err(_) => {
                self.workers[w].restore_failed = true;
                return;
            }
        };
        let incarnation = self.workers[w].incarnation + 1;
        match WorkerMachine::restore(self.run, w, &ck, incarnation) {
            Ok(machine) => {
                {
                    let wk = &mut self.workers[w];
                    wk.machine = Some(machine);
                    wk.incarnation = incarnation;
                    wk.down = false;
                    wk.deadline = None;
                }
                self.recoveries += 1;
                record_recovery();
                self.schedule_turn(w, now);
            }
            Err(_) => {
                self.workers[w].restore_failed = true;
            }
        }
    }

    /// Drives the event queue to completion (or the event budget).
    /// Returns true when the queue drained naturally.
    fn run(&mut self, max_events: u64) -> bool {
        while let Some(Reverse(ev)) = self.heap.pop() {
            if self.events >= max_events {
                return false;
            }
            self.now = ev.time;
            match ev.kind {
                EventKind::Turn { worker, gen } => {
                    if self.workers[worker].turn_gen != gen {
                        continue; // superseded by an earlier wake-up
                    }
                    self.workers[worker].turn_time = None;
                    self.events += 1;
                    self.trace.u64(TAG_TURN);
                    self.trace.u64(ev.time);
                    self.trace.u64(worker as u64);
                    self.on_turn(worker, ev.time);
                }
                EventKind::Deliver { to, msg } => {
                    self.events += 1;
                    self.trace.u64(TAG_DELIVER);
                    self.trace.u64(ev.time);
                    self.trace.u64(to as u64);
                    self.trace.bytes(&msg.to_bytes());
                    self.on_deliver(to, msg, ev.time);
                }
                EventKind::Restart { worker } => {
                    self.events += 1;
                    self.trace.u64(TAG_RESTART);
                    self.trace.u64(ev.time);
                    self.trace.u64(worker as u64);
                    self.on_restart(worker, ev.time);
                }
            }
        }
        true
    }
}

/// The pieces of [`SimWorker`] a turn may mutate while the machine itself
/// is mutably borrowed.
struct WkState<'s> {
    inbox: &'s mut VecDeque<Message>,
    deadline: &'s mut Option<u64>,
    checkpoint: &'s mut Vec<u8>,
}

/// One unit of machine work: serve the inbox first (a reply a peer waits
/// on goes out before this worker does anything else), then the timeout
/// path, then the scan.
fn machine_turn(
    machine: &mut WorkerMachine<'_>,
    st: &mut WkState<'_>,
    partition: &PartitionMap,
    now: u64,
    retry_ticks: u64,
    max_attempts: u32,
) -> TurnAction {
    if let Some(msg) = st.inbox.pop_front() {
        return match machine.deliver(msg) {
            Delivered::Reply { to, response } => TurnAction::Send {
                to,
                msg: Message::Response(response),
                next: Some(now + 1),
            },
            Delivered::Applied => {
                *st.deadline = None;
                TurnAction::Next(now + 1)
            }
            Delivered::Ignored => TurnAction::Next(now + 1),
        };
    }
    if machine.is_waiting() {
        let dl = st.deadline.unwrap_or(now);
        if now < dl {
            return TurnAction::Next(dl);
        }
        return match machine.retry(max_attempts) {
            RetryVerdict::Resend(req) => {
                let owner = partition.owner(req.context);
                *st.deadline = Some(now + retry_ticks);
                TurnAction::Send {
                    to: owner,
                    msg: Message::Request(req),
                    next: Some(now + retry_ticks),
                }
            }
            RetryVerdict::GaveUp | RetryVerdict::Idle => {
                *st.deadline = None;
                TurnAction::Next(now + 1)
            }
        };
    }
    if machine.is_finished() {
        return TurnAction::Idle;
    }
    match machine.step() {
        Step::Sent(req) => {
            let owner = partition.owner(req.context);
            *st.deadline = Some(now + retry_ticks);
            TurnAction::Send {
                to: owner,
                msg: Message::Request(req),
                next: Some(now + retry_ticks),
            }
        }
        Step::Progress => TurnAction::Next(now + 1),
        Step::EpochEnd(_) => {
            *st.checkpoint = machine.checkpoint().to_bytes();
            TurnAction::Next(now + 1)
        }
        Step::Finished => TurnAction::Idle,
    }
}

/// Runs one simulated distributed training under `sim`'s fault plan.
///
/// Pure virtual time: no wall clock, no OS scheduling, no thread entropy —
/// the outcome (trace hash, counters, and with `workers == 1` or a
/// fault-free plan even the float bits) is a function of
/// `(enriched, catalog, sim)` alone.
pub fn simulate(
    enriched: &EnrichedCorpus<'_>,
    catalog: &ItemCatalog,
    sim: &SimConfig,
) -> SimOutcome {
    let run = TnsRun::new(enriched, catalog, &sim.dist);
    let mut engine = Sim::new(&run, sim.dist.workers, &sim.plan);
    let drained = engine.run(sim.max_events);
    let completed = drained
        && engine.workers.iter().all(|wk| {
            !wk.down
                && !wk.restore_failed
                && wk.inbox.is_empty()
                && wk.machine.as_ref().is_some_and(|m| m.is_finished())
        });
    let report = TnsReport {
        faults_injected: engine.faults_injected,
        recoveries: engine.recoveries,
        ..Default::default()
    };
    // A worker still down at the end contributes its last checkpoint.
    let machines = engine
        .workers
        .into_iter()
        .enumerate()
        .filter_map(|(me, wk)| {
            wk.machine.or_else(|| {
                let ck = ShardCheckpoint::from_bytes(&wk.checkpoint).ok()?;
                WorkerMachine::restore(&run, me, &ck, wk.incarnation + 1).ok()
            })
        });
    let (store, report) = run.assemble(machines, report);

    SimOutcome {
        store,
        report,
        trace_hash: engine.trace.finish(),
        events: engine.events,
        ticks: engine.now,
        completed,
    }
}

/// HitRate@10 of `store` under the next-item protocol on `sessions`,
/// scored by the SGNS rule (cosine over item input rows) of a
/// [`SisgModel`] over `space`.
///
/// Used for *relative* comparisons between two runs of the same corpus
/// (faulted vs. fault-free, crashed-and-recovered vs. uninterrupted), so
/// the eval cases are drawn from the full session set for both sides.
/// Fails when `store` does not cover `space`.
pub fn hit_rate_at_10(
    store: &EmbeddingStore,
    space: &TokenSpace,
    sessions: &Corpus,
) -> Result<f64, CoreError> {
    let split = NextItemSplit::default().split(sessions, SplitStage::Test);
    let model = SisgModel::from_store(Variant::Sgns, space.clone(), store.clone())?;
    Ok(evaluate_hit_rates("sim", &model, &split.eval, &[10])
        .at(10)
        .unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::{CorpusConfig, EnrichOptions, GeneratedCorpus};
    use sisg_distributed::runtime::PartitionStrategy;
    use sisg_embedding::codec;

    fn dist(workers: usize) -> DistConfig {
        DistConfig {
            workers,
            dim: 8,
            window: 2,
            negatives: 2,
            epochs: 1,
            hot_set_size: 0,
            sync_interval: 1_000,
            strategy: PartitionStrategy::Hash,
            ..Default::default()
        }
    }

    #[test]
    fn fault_free_simulation_completes_and_replays() {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);
        let cfg = SimConfig::new(dist(3), FaultPlan::none());
        let a = simulate(&enriched, &corpus.catalog, &cfg);
        assert!(a.completed, "fault-free run must drain");
        assert!(a.report.pairs > 0);
        assert_eq!(a.report.messages, a.report.remote_pairs * 2);
        assert_eq!(a.report.retries, 0);
        assert_eq!(a.report.faults_injected, 0);
        let b = simulate(&enriched, &corpus.catalog, &cfg);
        assert_eq!(a.trace_hash, b.trace_hash, "virtual clock must replay");
        assert_eq!(a.events, b.events);
        assert_eq!(codec::encode(&a.store), codec::encode(&b.store));
    }
}
