//! Loom-lite schedule-exhaustive interleaving checker.
//!
//! This crate model-checks the small concurrent protocols the serving stack
//! relies on (epoch-pointer hot swap, admission-cache swap-clear,
//! per-(tenant, shard) admission slots and their handoff through the shard
//! queue) and the Section III runtime's in-process block exchange, by
//! enumerating **every** interleaving of 2–3 modeled threads and
//! asserting an invariant after each complete execution.
//!
//! # How it works
//!
//! Model threads are real OS threads, but they never run concurrently: each
//! shim operation ([`ModelAtomicU64`], [`ModelRwLock`], [`ModelBarrier`],
//! [`ModelCell`]) first
//! parks the thread at a *decision point* and waits for the controller to
//! grant it. The controller waits until every thread is parked (or finished),
//! computes the set of *enabled* threads (lock acquisitions are disabled while
//! the lock is held incompatibly), and picks one. Each pick is a choice point
//! in a DFS: the explorer replays a recorded prefix of choices, extends it
//! with first-choice defaults, and backtracks after every complete execution
//! until the whole schedule tree is exhausted. Because exactly one thread runs
//! between decision points, every execution is deterministic given its choice
//! sequence, and the enumeration covers all sequentially-consistent
//! interleavings of the modeled steps.
//!
//! Deadlocks (no thread enabled, not all finished) are detected, counted, and
//! the execution is aborted: every shim call returns [`Aborted`] so blocked
//! threads unwind without panicking.
//!
//! # Smoke cap
//!
//! Setting `SISG_INTERLEAVE_SMOKE=<n>` caps exploration at `n` executions and
//! marks the [`Report`] as `truncated`; tests skip exact-count pinning when
//! truncated so CI can run a fast smoke pass while local runs stay exhaustive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

pub mod models;

/// Error returned by every shim operation once the current execution has been
/// aborted (after a detected deadlock). Bodies propagate it with `?` so all
/// threads unwind cleanly instead of blocking forever or panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

/// What a parked model thread wants to do next. Lock intents carry the lock
/// id so the controller can decide enabledness from its own lock table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Intent {
    /// A plain shared-memory step (atomic load/store, cell read/write).
    Op,
    /// Acquire the read side of lock `rid`; enabled while no writer holds it.
    AcquireRead(usize),
    /// Acquire the write side of lock `rid`; enabled while it is free.
    AcquireWrite(usize),
    /// Release a held lock; always enabled.
    Release { rid: usize, write: bool },
    /// Pass barrier `bid` in its generation `gen`; enabled once every party
    /// waits there (or one has already passed it).
    Barrier { bid: usize, gen: u64 },
}

/// Lifecycle of one model thread as seen by the controller.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Executing between decision points (or not yet at its first one).
    Running,
    /// Parked at a decision point, waiting to be granted.
    Wants(Intent),
    /// Granted; will transition back to Running, perform the step, and park
    /// again (or finish).
    Granted,
    /// Body returned (normally or via [`Aborted`]).
    Finished,
}

#[derive(Debug, Clone, Copy)]
struct LockState {
    readers: usize,
    writer: bool,
}

/// One modeled barrier: its party count and how many times it opened.
#[derive(Debug, Clone, Copy)]
struct BarrierState {
    parties: usize,
    generation: u64,
}

struct SchedInner {
    phases: Vec<Phase>,
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
    aborted: bool,
}

struct Sched {
    inner: Mutex<SchedInner>,
    cv: Condvar,
}

fn lock_inner(sched: &Sched) -> MutexGuard<'_, SchedInner> {
    // A model-thread panic would poison this mutex; the scheduler state is
    // still consistent (every mutation is complete before unlock), so recover
    // the guard rather than propagating the poison.
    sched.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a>(sched: &'a Sched, guard: MutexGuard<'a, SchedInner>) -> MutexGuard<'a, SchedInner> {
    sched.cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Per-thread handle passed to every model body; shim operations use it to
/// park at decision points.
pub struct Ctx {
    sched: Arc<Sched>,
    tid: usize,
}

impl Ctx {
    fn step(&self, intent: Intent) -> Result<(), Aborted> {
        let mut g = lock_inner(&self.sched);
        if g.aborted {
            return Err(Aborted);
        }
        g.phases[self.tid] = Phase::Wants(intent);
        self.sched.cv.notify_all();
        loop {
            if g.aborted {
                return Err(Aborted);
            }
            if matches!(g.phases[self.tid], Phase::Granted) {
                break;
            }
            g = wait(&self.sched, g);
        }
        g.phases[self.tid] = Phase::Running;
        Ok(())
    }
}

/// A model thread body. The `Result` lets bodies propagate [`Aborted`] with
/// `?` when the execution is torn down after a deadlock.
pub type Body = Box<dyn FnOnce(&Ctx) -> Result<(), Aborted> + Send + 'static>;

/// Post-execution invariant check, run by the explorer after every complete
/// (non-deadlocked) execution. Returns `Err(description)` on a violation.
pub type Checker = Box<dyn FnOnce() -> Result<(), String>>;

/// Allocator for per-execution scheduler resources (lock and barrier ids).
/// A fresh one is handed to the model builder for every execution.
pub struct Alloc {
    locks: usize,
    /// Party count of every barrier.
    barriers: Vec<usize>,
}

impl Alloc {
    fn new_rid(&mut self) -> usize {
        let rid = self.locks;
        self.locks += 1;
        rid
    }
}

/// Outcome of exhaustively exploring a model's schedule tree.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of maximal schedules (complete or deadlocked executions) explored.
    pub executions: u64,
    /// Executions that ended in a deadlock (no thread enabled, not all finished).
    pub deadlocks: u64,
    /// Executions whose post-hoc invariant check failed.
    pub violations: u64,
    /// Description of the first invariant violation, if any.
    pub first_violation: Option<String>,
    /// True when the `SISG_INTERLEAVE_SMOKE` cap (or an explicit cap) stopped
    /// exploration before the schedule tree was exhausted.
    pub truncated: bool,
}

impl Report {
    /// True when every explored schedule completed without deadlock or
    /// invariant violation.
    pub fn ok(&self) -> bool {
        self.deadlocks == 0 && self.violations == 0
    }
}

fn smoke_cap() -> Option<u64> {
    std::env::var("SISG_INTERLEAVE_SMOKE")
        .ok()?
        .trim()
        .parse()
        .ok()
}

/// Explore every interleaving of the model produced by `build`, honoring the
/// `SISG_INTERLEAVE_SMOKE` execution cap if set.
///
/// `build` is called once per execution with a fresh [`Alloc`] and must return
/// the thread bodies plus the invariant checker for that execution's shared
/// state. It must be deterministic: the same choice sequence must reproduce
/// the same behavior, or the explorer's replay assertion fires.
pub fn explore<F>(build: F) -> Report
where
    F: Fn(&mut Alloc) -> (Vec<Body>, Checker),
{
    explore_with_cap(smoke_cap(), build)
}

/// [`explore`] with an explicit execution cap instead of the environment
/// variable (used by tests so parallel tests never race on the process env).
fn explore_with_cap<F>(cap: Option<u64>, build: F) -> Report
where
    F: Fn(&mut Alloc) -> (Vec<Body>, Checker),
{
    let mut schedule: Vec<(usize, usize)> = Vec::new();
    let mut report = Report {
        executions: 0,
        deadlocks: 0,
        violations: 0,
        first_violation: None,
        truncated: false,
    };
    loop {
        let mut alloc = Alloc {
            locks: 0,
            barriers: Vec::new(),
        };
        let (bodies, checker) = build(&mut alloc);
        let sched = Arc::new(Sched {
            inner: Mutex::new(SchedInner {
                phases: vec![Phase::Running; bodies.len()],
                locks: vec![
                    LockState {
                        readers: 0,
                        writer: false
                    };
                    alloc.locks
                ],
                barriers: alloc
                    .barriers
                    .iter()
                    .map(|&parties| BarrierState {
                        parties,
                        generation: 0,
                    })
                    .collect(),
                aborted: false,
            }),
            cv: Condvar::new(),
        });
        let deadlocked = run_one(&sched, bodies, &mut schedule);
        report.executions += 1;
        if deadlocked {
            report.deadlocks += 1;
        } else if let Err(msg) = checker() {
            report.violations += 1;
            if report.first_violation.is_none() {
                report.first_violation = Some(msg);
            }
        }
        if let Some(c) = cap {
            if report.executions >= c {
                report.truncated = true;
                return report;
            }
        }
        // Backtrack: advance the deepest choice point that still has an
        // unexplored branch; drop exhausted tail entries. An empty stack means
        // the whole tree has been visited.
        loop {
            match schedule.last_mut() {
                None => return report,
                Some(last) => {
                    if last.0 + 1 < last.1 {
                        last.0 += 1;
                        break;
                    }
                    schedule.pop();
                }
            }
        }
    }
}

/// Run one execution, replaying the choice prefix in `schedule` and extending
/// it with first-choice defaults at new choice points. Returns true if the
/// execution deadlocked.
fn run_one(sched: &Arc<Sched>, bodies: Vec<Body>, schedule: &mut Vec<(usize, usize)>) -> bool {
    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(tid, body)| {
            let ctx = Ctx {
                sched: Arc::clone(sched),
                tid,
            };
            thread::spawn(move || {
                let _ = body(&ctx);
                let mut g = lock_inner(&ctx.sched);
                g.phases[ctx.tid] = Phase::Finished;
                ctx.sched.cv.notify_all();
            })
        })
        .collect();

    let mut depth = 0usize;
    let deadlocked = loop {
        let mut g = lock_inner(sched);
        while g
            .phases
            .iter()
            .any(|p| matches!(p, Phase::Running | Phase::Granted))
        {
            g = wait(sched, g);
        }
        if g.phases.iter().all(|p| matches!(p, Phase::Finished)) {
            break false;
        }
        let enabled: Vec<usize> = g
            .phases
            .iter()
            .enumerate()
            .filter_map(|(tid, p)| match p {
                Phase::Wants(intent) => match intent {
                    Intent::Op | Intent::Release { .. } => Some(tid),
                    Intent::AcquireRead(rid) => (!g.locks[*rid].writer).then_some(tid),
                    Intent::AcquireWrite(rid) => {
                        (!g.locks[*rid].writer && g.locks[*rid].readers == 0).then_some(tid)
                    }
                    Intent::Barrier { bid, gen } => {
                        let b = g.barriers[*bid];
                        let waiting = g
                            .phases
                            .iter()
                            .filter(|p| matches!(p, Phase::Wants(i) if i == intent))
                            .count();
                        (b.generation > *gen || waiting == b.parties).then_some(tid)
                    }
                },
                _ => None,
            })
            .collect();
        if enabled.is_empty() {
            // Deadlock: some threads are parked on acquisitions that can never
            // be granted. Abort so every blocked shim call returns Aborted.
            g.aborted = true;
            sched.cv.notify_all();
            while !g.phases.iter().all(|p| matches!(p, Phase::Finished)) {
                g = wait(sched, g);
            }
            break true;
        }
        let pick = if depth < schedule.len() {
            let (choice, width) = schedule[depth];
            assert_eq!(
                width,
                enabled.len(),
                "non-deterministic model: replay reached a choice point with a \
                 different enabled set"
            );
            choice
        } else {
            schedule.push((0, enabled.len()));
            0
        };
        depth += 1;
        let tid = enabled[pick];
        if let Phase::Wants(intent) = g.phases[tid] {
            match intent {
                Intent::Op => {}
                Intent::AcquireRead(rid) => g.locks[rid].readers += 1,
                Intent::AcquireWrite(rid) => g.locks[rid].writer = true,
                Intent::Release { rid, write } => {
                    if write {
                        g.locks[rid].writer = false;
                    } else {
                        g.locks[rid].readers -= 1;
                    }
                }
                Intent::Barrier { bid, gen } => {
                    // The first party through opens this generation for
                    // the others.
                    let b = &mut g.barriers[bid];
                    b.generation = b.generation.max(gen + 1);
                }
            }
        }
        g.phases[tid] = Phase::Granted;
        sched.cv.notify_all();
        drop(g);
    };
    for h in handles {
        let _ = h.join();
    }
    deadlocked
}

/// Model of a word-width atomic. Every `load`/`store` is one scheduler step;
/// `value` reads without stepping, for post-execution checkers.
#[derive(Clone)]
pub struct ModelAtomicU64 {
    v: Arc<AtomicU64>,
}

impl ModelAtomicU64 {
    /// New atomic with the given initial value.
    pub fn new(v: u64) -> Self {
        Self {
            v: Arc::new(AtomicU64::new(v)),
        }
    }

    /// Atomically load the value (one scheduler step).
    pub fn load(&self, ctx: &Ctx) -> Result<u64, Aborted> {
        ctx.step(Intent::Op)?;
        // ORDERING: Relaxed — the scheduler's mutex/condvar handoff already
        // totally orders all model steps; the atomic only carries the value.
        Ok(self.v.load(Ordering::Relaxed))
    }

    /// Atomically store the value (one scheduler step).
    pub fn store(&self, ctx: &Ctx, val: u64) -> Result<(), Aborted> {
        ctx.step(Intent::Op)?;
        // ORDERING: Relaxed — same scheduler-handoff argument as `load`.
        self.v.store(val, Ordering::Relaxed);
        Ok(())
    }

    /// Atomically replace the value with `new` if it equals `current` (one
    /// scheduler step). Returns the value seen: `Ok` when the exchange
    /// happened, `Err` with the differing value otherwise.
    pub fn compare_exchange(
        &self,
        ctx: &Ctx,
        current: u64,
        new: u64,
    ) -> Result<Result<u64, u64>, Aborted> {
        ctx.step(Intent::Op)?;
        // ORDERING: Relaxed — same scheduler-handoff argument as `load`.
        Ok(self
            .v
            .compare_exchange(current, new, Ordering::Relaxed, Ordering::Relaxed))
    }

    /// Read the value without taking a scheduler step (checker-only).
    pub fn value(&self) -> u64 {
        // ORDERING: Relaxed — called after all model threads have been
        // joined, so there is nothing left to order against.
        self.v.load(Ordering::Relaxed)
    }
}

/// Model of `std::sync::Barrier`: `wait` is one scheduler step, enabled
/// once every party has arrived at the same generation.
#[derive(Clone)]
pub struct ModelBarrier {
    bid: usize,
}

impl ModelBarrier {
    /// Register a barrier for `parties` threads with the execution's
    /// scheduler.
    pub fn new(alloc: &mut Alloc, parties: usize) -> Self {
        alloc.barriers.push(parties);
        Self {
            bid: alloc.barriers.len() - 1,
        }
    }

    /// Blocks (as a scheduler step) until every party waits here.
    pub fn wait(&self, ctx: &Ctx) -> Result<(), Aborted> {
        // Read while this thread is the only one running: the generation
        // it arrives in.
        let gen = lock_inner(&ctx.sched).barriers[self.bid].generation;
        ctx.step(Intent::Barrier { bid: self.bid, gen })
    }
}

/// Model of a reader-writer lock. Guards are RAII tokens whose drop performs
/// the release step; the protected data lives in [`ModelCell`]s.
#[derive(Clone)]
pub struct ModelRwLock {
    rid: usize,
}

impl ModelRwLock {
    /// Register a new lock with the execution's scheduler.
    pub fn new(alloc: &mut Alloc) -> Self {
        Self {
            rid: alloc.new_rid(),
        }
    }

    /// Acquire the read side; blocks (as a scheduler step) until no writer
    /// holds the lock.
    pub fn read(&self, ctx: &Ctx) -> Result<ModelReadGuard, Aborted> {
        ctx.step(Intent::AcquireRead(self.rid))?;
        Ok(ModelReadGuard {
            sched: Arc::clone(&ctx.sched),
            tid: ctx.tid,
            rid: self.rid,
        })
    }

    /// Acquire the write side; blocks (as a scheduler step) until the lock is
    /// completely free.
    pub fn write(&self, ctx: &Ctx) -> Result<ModelWriteGuard, Aborted> {
        ctx.step(Intent::AcquireWrite(self.rid))?;
        Ok(ModelWriteGuard {
            sched: Arc::clone(&ctx.sched),
            tid: ctx.tid,
            rid: self.rid,
        })
    }
}

/// RAII token for a held read lock; dropping it is the release step.
pub struct ModelReadGuard {
    sched: Arc<Sched>,
    tid: usize,
    rid: usize,
}

impl Drop for ModelReadGuard {
    fn drop(&mut self) {
        let ctx = Ctx {
            sched: Arc::clone(&self.sched),
            tid: self.tid,
        };
        let _ = ctx.step(Intent::Release {
            rid: self.rid,
            write: false,
        });
    }
}

/// RAII token for a held write lock; dropping it is the release step.
pub struct ModelWriteGuard {
    sched: Arc<Sched>,
    tid: usize,
    rid: usize,
}

impl Drop for ModelWriteGuard {
    fn drop(&mut self) {
        let ctx = Ctx {
            sched: Arc::clone(&self.sched),
            tid: self.tid,
        };
        let _ = ctx.step(Intent::Release {
            rid: self.rid,
            write: true,
        });
    }
}

/// Model of a shared non-atomic slot (e.g. the snapshot pointer target or a
/// cache table). Every `get`/`set` is one scheduler step; `peek` reads without
/// stepping, for post-execution checkers.
pub struct ModelCell<T: Clone> {
    v: Arc<Mutex<T>>,
}

impl<T: Clone> Clone for ModelCell<T> {
    fn clone(&self) -> Self {
        Self {
            v: Arc::clone(&self.v),
        }
    }
}

impl<T: Clone> ModelCell<T> {
    /// New cell with the given initial value.
    pub fn new(v: T) -> Self {
        Self {
            v: Arc::new(Mutex::new(v)),
        }
    }

    /// Read the value (one scheduler step).
    pub fn get(&self, ctx: &Ctx) -> Result<T, Aborted> {
        ctx.step(Intent::Op)?;
        Ok(self
            .v
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone())
    }

    /// Overwrite the value (one scheduler step).
    pub fn set(&self, ctx: &Ctx, val: T) -> Result<(), Aborted> {
        ctx.step(Intent::Op)?;
        *self.v.lock().unwrap_or_else(PoisonError::into_inner) = val;
        Ok(())
    }

    /// Read the value without taking a scheduler step (checker-only).
    pub fn peek(&self) -> T {
        self.v
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Observation log shared between model bodies and the checker. Pushes do not
/// take a scheduler step: recording what a thread *already observed* is
/// bookkeeping, not a protocol action, and must not perturb the schedule
/// space.
pub struct ObsLog<T> {
    v: Arc<Mutex<Vec<T>>>,
}

impl<T> Clone for ObsLog<T> {
    fn clone(&self) -> Self {
        Self {
            v: Arc::clone(&self.v),
        }
    }
}

impl<T> Default for ObsLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ObsLog<T> {
    /// New empty log.
    pub fn new() -> Self {
        Self {
            v: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Append an observation (non-stepping).
    pub fn push(&self, t: T) {
        self.v
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(t);
    }

    /// Drain all observations (checker-only).
    pub fn take(&self) -> Vec<T> {
        std::mem::take(&mut *self.v.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_thread(steps: usize) -> (Body, ModelAtomicU64) {
        let a = ModelAtomicU64::new(0);
        let h = a.clone();
        let body: Body = Box::new(move |ctx| {
            for _ in 0..steps {
                let cur = h.load(ctx)?;
                h.store(ctx, cur + 1)?;
            }
            Ok(())
        });
        (body, a)
    }

    #[test]
    fn single_thread_has_exactly_one_schedule() {
        let r = explore(|_| {
            let (body, a) = op_thread(3);
            let checker: Checker = Box::new(move || {
                if a.value() == 3 {
                    Ok(())
                } else {
                    Err(format!("expected 3 increments, saw {}", a.value()))
                }
            });
            (vec![body], checker)
        });
        assert!(r.ok(), "{:?}", r.first_violation);
        assert_eq!(r.executions, 1);
        assert!(!r.truncated);
    }

    #[test]
    fn two_single_step_threads_have_two_schedules() {
        // Two threads, one Op each: the only choice is who goes first.
        let r = explore(|_| {
            let a = ModelAtomicU64::new(0);
            let (h1, h2) = (a.clone(), a.clone());
            let t1: Body = Box::new(move |ctx| h1.store(ctx, 1));
            let t2: Body = Box::new(move |ctx| h2.store(ctx, 2));
            let checker: Checker = Box::new(move || {
                let v = a.value();
                if v == 1 || v == 2 {
                    Ok(())
                } else {
                    Err(format!("impossible final value {v}"))
                }
            });
            (vec![t1, t2], checker)
        });
        assert!(r.ok(), "{:?}", r.first_violation);
        assert_eq!(r.executions, 2);
    }

    #[test]
    fn unsynchronized_read_modify_write_race_is_found() {
        // Two threads each do load-then-store of (loaded + 1): the classic
        // lost update. Exhaustive enumeration must find an execution where
        // the final value is 1 instead of 2.
        let r = explore(|_| {
            let a = ModelAtomicU64::new(0);
            let mk = |h: ModelAtomicU64| -> Body {
                Box::new(move |ctx| {
                    let cur = h.load(ctx)?;
                    h.store(ctx, cur + 1)?;
                    Ok(())
                })
            };
            let (t1, t2) = (mk(a.clone()), mk(a.clone()));
            let checker: Checker = Box::new(move || {
                if a.value() == 2 {
                    Ok(())
                } else {
                    Err(format!("lost update: final value {}", a.value()))
                }
            });
            (vec![t1, t2], checker)
        });
        // 4 steps split 2/2 across threads: C(4,2) = 6 interleavings, of
        // which 4 interleave the load/store pairs and lose an update.
        assert_eq!(r.executions, 6);
        assert_eq!(r.violations, 4, "{:?}", r.first_violation);
        assert_eq!(r.deadlocks, 0);
    }

    #[test]
    fn write_lock_serializes_read_modify_write() {
        // Same increment race, but under a write lock: no lost updates, and
        // the schedule space collapses to the two thread orders.
        let r = explore(|alloc| {
            let lock = ModelRwLock::new(alloc);
            let a = ModelAtomicU64::new(0);
            let mk = |lock: ModelRwLock, h: ModelAtomicU64| -> Body {
                Box::new(move |ctx| {
                    let g = lock.write(ctx)?;
                    let cur = h.load(ctx)?;
                    h.store(ctx, cur + 1)?;
                    drop(g);
                    Ok(())
                })
            };
            let (t1, t2) = (mk(lock.clone(), a.clone()), mk(lock, a.clone()));
            let checker: Checker = Box::new(move || {
                if a.value() == 2 {
                    Ok(())
                } else {
                    Err(format!("lost update under lock: final {}", a.value()))
                }
            });
            (vec![t1, t2], checker)
        });
        assert!(r.ok(), "{:?}", r.first_violation);
        // Once a thread holds the write lock the other is disabled until the
        // release step, so only the initial acquisition order branches.
        assert_eq!(r.executions, 2);
    }

    #[test]
    fn explicit_cap_truncates_and_reports_it() {
        let r = explore_with_cap(Some(3), |_| {
            let (t1, _) = op_thread(2);
            let (t2, _) = op_thread(2);
            let checker: Checker = Box::new(|| Ok(()));
            (vec![t1, t2], checker)
        });
        assert!(r.truncated);
        assert_eq!(r.executions, 3);
    }

    #[test]
    fn readers_do_not_exclude_each_other_but_writers_do() {
        // Two readers + one writer on one lock, one Op each inside the
        // critical section. Readers overlapping is allowed (no deadlock, no
        // violation); the writer is mutually exclusive with both.
        let r = explore(|alloc| {
            let lock = ModelRwLock::new(alloc);
            let mk_reader = |lock: ModelRwLock| -> Body {
                Box::new(move |ctx| {
                    let g = lock.read(ctx)?;
                    ctx.step(Intent::Op)?;
                    drop(g);
                    Ok(())
                })
            };
            let lw = lock.clone();
            let writer: Body = Box::new(move |ctx| {
                let g = lw.write(ctx)?;
                ctx.step(Intent::Op)?;
                drop(g);
                Ok(())
            });
            let checker: Checker = Box::new(|| Ok(()));
            (
                vec![mk_reader(lock.clone()), mk_reader(lock), writer],
                checker,
            )
        });
        assert!(r.ok());
        assert!(r.executions > 0);
    }
}
