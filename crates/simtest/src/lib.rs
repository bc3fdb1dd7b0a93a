//! Deterministic fault simulation for Section III — the second driver of
//! the [`WorkerMachine`]s the threaded runtime trains with.
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
//! What the simulator models (DESIGN.md §9): every message travels as
//! bytes ([`Message::to_bytes`]) and each send rolls drop / duplicate /
//! delay against the plan; a stall freezes a worker after a threshold of
//! pairs; a crash loses the worker's inbox, and after `down_ticks` it
//! restores from its last [`BlockCheckpoint`] (serialized and re-parsed,
//! so the codec is on the recovery path) under a bumped incarnation; a
//! waiting worker retransmits every [`RetryPolicy::timeout_ticks`] ticks.
//!
//! Without a crash, a simulation trains the store the threaded runtime
//! trains, bit for bit (`tests/parity.rs`): a machine computes nothing
//! from the order its messages arrive in. A crash costs the restarted
//! worker its noise stream and the work since its checkpoint.
//!
//! [`simulate`] returns the assembled embedding store, the run's
//! [`DistReport`], and the streamed FNV-1a [`SimOutcome::trace_hash`] of
//! the processed event sequence — the regression tests pin those hashes
//! per seed. [`SimOutcome::completed`] is the no-deadlock verdict: the
//! event queue drained with every worker finished.
//!
//! [`RetryPolicy::timeout_ticks`]: sisg_distributed::RetryPolicy
#![deny(clippy::unwrap_used, clippy::expect_used)]

use sisg_core::{CoreError, SisgModel, Variant};
use sisg_corpus::split::{NextItemSplit, SplitStage};
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{Corpus, EnrichedCorpus, ItemCatalog};
use sisg_distributed::recovery::record_recovery;
use sisg_distributed::{
    Advance, BlockCheckpoint, DistConfig, DistReport, FaultDecision, FaultPlan, Message, TnsRun,
    WorkerMachine,
};
use sisg_embedding::EmbeddingStore;
use sisg_eval::hitrate::evaluate_hit_rates;
use sisg_obs::names as obs_names;
use sisg_obs::Fnv1a;
use std::collections::{BTreeMap, VecDeque};

/// One simulated run: the training configuration, the fault schedule, and
/// a hard event budget that converts a livelock bug into a clean failure.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Training configuration, hot set `Q` included.
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
    /// The run's accounting, message and fault counters included.
    pub report: DistReport,
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
    /// A message's bytes arrive at `to`'s inbox.
    Deliver { to: usize, bytes: Vec<u8> },
    /// A crashed worker restores from its checkpoint.
    Restart { worker: usize },
}

struct SimWorker<'a> {
    /// The worker's machine; not driven while the worker is down.
    machine: WorkerMachine<'a>,
    inbox: VecDeque<Vec<u8>>,
    /// Virtual tick at which a waiting machine retransmits.
    deadline: Option<u64>,
    /// Per-send fault-roll index, monotonically increasing (retransmits
    /// get fresh rolls).
    send_index: u64,
    incarnation: u32,
    /// Serialized block-boundary [`BlockCheckpoint`]; refreshed at every
    /// [`Advance::Boundary`].
    checkpoint: Vec<u8>,
    turn_gen: u64,
    turn_time: Option<u64>,
    crash_fired: bool,
    stall_fired: bool,
    /// Crashed, and not (or not successfully) restored yet.
    down: bool,
}

struct Sim<'a> {
    plan: &'a FaultPlan,
    workers: Vec<SimWorker<'a>>,
    /// Pending events by `(tick, event-id)`: one total order.
    queue: BTreeMap<(u64, u64), EventKind>,
    next_eid: u64,
    trace: Fnv1a,
    events: u64,
    now: u64,
    faults_injected: u64,
    recoveries: u64,
    /// Scratch for the messages one turn sends.
    out: Vec<(usize, Message)>,
}

impl<'a> Sim<'a> {
    fn new(machines: Vec<WorkerMachine<'a>>, plan: &'a FaultPlan) -> Self {
        let workers: Vec<SimWorker<'a>> = machines
            .into_iter()
            .map(|machine| SimWorker {
                checkpoint: machine.checkpoint().to_bytes(),
                machine,
                inbox: VecDeque::new(),
                deadline: None,
                send_index: 0,
                incarnation: 0,
                turn_gen: 0,
                turn_time: None,
                crash_fired: false,
                stall_fired: false,
                down: false,
            })
            .collect();
        let mut sim = Self {
            plan,
            workers,
            queue: BTreeMap::new(),
            next_eid: 0,
            trace: Fnv1a::new(),
            events: 0,
            now: 0,
            faults_injected: 0,
            recoveries: 0,
            out: Vec::new(),
        };
        for me in 0..sim.workers.len() {
            sim.schedule_turn(me, 0);
        }
        sim
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        let eid = self.next_eid;
        self.next_eid += 1;
        self.queue.insert((time, eid), kind);
    }

    fn trace(&mut self, tag: u64, now: u64, worker: usize) {
        self.trace.u64(tag);
        self.trace.u64(now);
        self.trace.u64(worker as u64);
    }

    /// Schedules a turn for `w` at `t`, keeping at most one live turn per
    /// worker (the earliest requested; later pending ones go stale via the
    /// generation counter).
    fn schedule_turn(&mut self, w: usize, t: u64) {
        let wk = &mut self.workers[w];
        if wk.down || wk.turn_time.is_some_and(|existing| existing <= t) {
            return;
        }
        wk.turn_gen += 1;
        wk.turn_time = Some(t);
        let gen = wk.turn_gen;
        self.push(t, EventKind::Turn { worker: w, gen });
    }

    /// Routes the messages of `self.out` from `from` through the fault
    /// plan.
    fn send_out(&mut self, from: usize, now: u64) {
        for (to, msg) in std::mem::take(&mut self.out) {
            let bytes = msg.to_bytes();
            let idx = self.workers[from].send_index;
            self.workers[from].send_index += 1;
            match self.plan.decide(from, idx) {
                FaultDecision::Deliver => self.push(now + 1, EventKind::Deliver { to, bytes }),
                FaultDecision::Drop => {
                    self.faults_injected += 1;
                    self.trace(TAG_DROP, now, from);
                }
                FaultDecision::Duplicate => {
                    self.faults_injected += 1;
                    let copy = bytes.clone();
                    self.push(now + 1, EventKind::Deliver { to, bytes: copy });
                    self.push(now + 2, EventKind::Deliver { to, bytes });
                }
                FaultDecision::Delay(d) => {
                    self.faults_injected += 1;
                    self.push(now + 1 + d, EventKind::Deliver { to, bytes });
                }
            }
        }
    }

    /// One unit of machine work: take one message from the inbox if there
    /// is one, else advance the machine, else wait for the deadline and
    /// retransmit.
    fn on_turn(&mut self, w: usize, now: u64) {
        let timeout = self.plan.retry.timeout_ticks.max(1);
        let stall = self.plan.stalls.iter().find(|s| s.worker == w).copied();
        let wk = &mut self.workers[w];
        if wk.down {
            return;
        }
        let machine = &mut wk.machine;
        let stall_due =
            stall.filter(|s| !wk.stall_fired && machine.counters().pairs >= s.after_pairs);
        let next = if let Some(s) = stall_due {
            wk.stall_fired = true;
            Some(now + s.ticks.max(1))
        } else if let Some(bytes) = wk.inbox.pop_front() {
            // Bytes that fail to decode are a lost message.
            if let Ok(msg) = Message::from_bytes(&bytes) {
                machine.deliver(msg, &mut self.out);
            }
            Some(now + 1)
        } else {
            match machine.advance(&mut self.out) {
                Advance::Sent => {
                    wk.deadline = Some(now + timeout);
                    Some(now + 1)
                }
                Advance::Boundary => {
                    wk.deadline = None;
                    wk.checkpoint = machine.checkpoint().to_bytes();
                    Some(now + 1)
                }
                Advance::Waiting => {
                    let deadline = *wk.deadline.get_or_insert(now + timeout);
                    if now >= deadline {
                        machine.retransmit(&mut self.out);
                        wk.deadline = Some(now + timeout);
                    }
                    wk.deadline
                }
                Advance::Finished => {
                    wk.deadline = None;
                    None
                }
            }
        };
        if stall_due.is_some() {
            self.faults_injected += 1;
            self.trace(TAG_STALL, now, w);
        }
        self.send_out(w, now);
        if let Some(t) = next {
            self.schedule_turn(w, t);
        }
        self.check_crash(w, now);
    }

    fn on_deliver(&mut self, to: usize, bytes: Vec<u8>, now: u64) {
        let wk = &mut self.workers[to];
        if wk.down {
            self.trace(TAG_LOST, now, to);
        } else {
            wk.inbox.push_back(bytes);
            self.schedule_turn(to, now);
        }
    }

    fn check_crash(&mut self, w: usize, now: u64) {
        let Some(spec) = self.plan.crashes.iter().find(|c| c.worker == w).copied() else {
            return;
        };
        let wk = &mut self.workers[w];
        let fire = !wk.crash_fired && !wk.down && wk.machine.counters().pairs >= spec.after_pairs;
        if !fire {
            return;
        }
        wk.crash_fired = true;
        wk.down = true;
        wk.inbox.clear();
        wk.deadline = None;
        wk.turn_gen += 1;
        wk.turn_time = None;
        self.faults_injected += 1;
        self.trace(TAG_CRASH, now, w);
        self.push(
            now + spec.down_ticks.max(1),
            EventKind::Restart { worker: w },
        );
    }

    fn on_restart(&mut self, w: usize, now: u64) {
        let wk = &mut self.workers[w];
        let incarnation = wk.incarnation + 1;
        let restored = BlockCheckpoint::from_bytes(&wk.checkpoint)
            .map_err(drop)
            .and_then(|ck| wk.machine.restore(ck, incarnation).map_err(drop));
        if restored.is_err() {
            return; // the worker stays down: the run cannot complete
        }
        wk.incarnation = incarnation;
        wk.down = false;
        self.recoveries += 1;
        record_recovery();
        self.schedule_turn(w, now);
    }

    /// Drives the event queue to completion (or the event budget).
    /// Returns true when the queue drained naturally.
    fn run(&mut self, max_events: u64) -> bool {
        while let Some(((time, _), kind)) = self.queue.pop_first() {
            if self.events >= max_events {
                return false;
            }
            self.now = time;
            match kind {
                EventKind::Turn { worker, gen } => {
                    if self.workers[worker].turn_gen != gen {
                        continue; // superseded by an earlier wake-up
                    }
                    self.workers[worker].turn_time = None;
                    self.events += 1;
                    self.trace(TAG_TURN, time, worker);
                    self.on_turn(worker, time);
                }
                EventKind::Deliver { to, bytes } => {
                    self.events += 1;
                    self.trace(TAG_DELIVER, time, to);
                    self.trace.bytes(&bytes);
                    self.on_deliver(to, bytes, time);
                }
                EventKind::Restart { worker } => {
                    self.events += 1;
                    self.trace(TAG_RESTART, time, worker);
                    self.on_restart(worker, time);
                }
            }
        }
        true
    }
}

/// Runs one simulated distributed training under `sim`'s fault plan.
///
/// Pure virtual time: no wall clock, no OS scheduling, no thread entropy —
/// the outcome (trace hash, counters and float bits) is a function of
/// `(enriched, catalog, sim)` alone.
pub fn simulate(
    enriched: &EnrichedCorpus<'_>,
    catalog: &ItemCatalog,
    sim: &SimConfig,
) -> SimOutcome {
    let run = TnsRun::new(enriched, catalog, &sim.dist);
    let (mut input, mut output) = run.initial_store();
    let mut engine = Sim::new(run.machines(&mut input, &mut output), &sim.plan);
    let drained = engine.run(sim.max_events);
    let completed = drained
        && engine
            .workers
            .iter()
            .all(|wk| !wk.down && wk.inbox.is_empty() && wk.machine.is_finished());
    // A worker still down at the end contributes its last checkpoint.
    for wk in engine.workers.iter_mut().filter(|wk| wk.down) {
        if let Ok(ck) = BlockCheckpoint::from_bytes(&wk.checkpoint) {
            let _ = wk.machine.restore(ck, wk.incarnation + 1);
        }
    }
    let counters: Vec<_> = engine
        .workers
        .iter()
        .map(|wk| wk.machine.counters().clone())
        .collect();
    let (trace_hash, events, ticks) = (engine.trace.finish(), engine.events, engine.now);
    let (faults_injected, recoveries) = (engine.faults_injected, engine.recoveries);
    drop(engine);
    let (store, mut report) = run.assemble(&counters, input, output, 0.0);
    report.faults_injected = faults_injected;
    report.recoveries = recoveries;
    sisg_obs::registry()
        .counter(obs_names::DIST_FAULTS_INJECTED_TOTAL)
        .add(faults_injected);
    SimOutcome {
        store,
        report,
        trace_hash,
        events,
        ticks,
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
