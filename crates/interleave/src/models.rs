//! Models of the concrete concurrent protocols this workspace ships, each as
//! a correct variant and (where a historical bug class exists) a deliberately
//! broken variant the checker must catch.
//!
//! The models are deliberately tiny — a handful of scheduler steps per thread
//! — so the full schedule tree stays exhaustively enumerable, while still
//! exercising the exact step ordering the production code relies on:
//!
//! * [`hot_swap`] — the serve engine's epoch-pointer snapshot swap
//!   (`crates/serve/src/engine.rs`): the epoch bump must happen *inside* the
//!   write lock or a reader can pair a stale epoch with a fresh answer.
//! * [`cache_swap_clear`] — the admission-cache table swap: a reader that
//!   reloads the table after a version bump must also refresh its cached
//!   answer, or it serves a stale value under the new version.
//! * [`admission_slot`] — the serve engine's per-(tenant, shard) budget
//!   slot: a claim must be one read-modify-write or two submitters can
//!   both take the last slot.
//! * [`slot_handoff`] — the budget slot travels with its task and is
//!   freed only once the worker has dequeued it, so queued tasks never
//!   outnumber slots; freeing it when the caller drops its response lets
//!   a queue overflow.
//! * [`deadlock_demo`] — two locks acquired in opposite orders, proving the
//!   explorer's deadlock detection fires.

use crate::{
    explore, Aborted, Body, Checker, Ctx, ModelAtomicU64, ModelCell, ModelRwLock, ObsLog, Report,
};

/// Epoch-pointer hot swap, as in the serve engine: a writer installs two
/// successive snapshot generations (answer = generation × 100) under a write
/// lock and bumps the epoch counter; a reader probes the epoch and, when it
/// moved, re-reads epoch + answer under the read lock.
///
/// Invariant: every (epoch, answer) pair a reader serves satisfies
/// `answer == epoch * 100` (the initial pair is (0, 0)).
///
/// With `bump_after_unlock = false` the epoch bump happens inside the write
/// lock — the protocol the production engine uses — and no interleaving can
/// produce a torn pair. With `bump_after_unlock = true` the bump moves after
/// the unlock, and the checker finds schedules where a reader pairs epoch 1
/// with the generation-2 answer.
pub fn hot_swap(bump_after_unlock: bool) -> Report {
    explore(move |alloc| {
        let lock = ModelRwLock::new(alloc);
        let epoch = ModelAtomicU64::new(0);
        let answer = ModelCell::new(0u64);
        let obs: ObsLog<(u64, u64)> = ObsLog::new();

        let writer: Body = {
            let (lock, epoch, answer) = (lock.clone(), epoch.clone(), answer.clone());
            Box::new(move |ctx| {
                for generation in 1..=2u64 {
                    let w = lock.write(ctx)?;
                    answer.set(ctx, generation * 100)?;
                    if !bump_after_unlock {
                        epoch.store(ctx, generation)?;
                    }
                    drop(w);
                    if bump_after_unlock {
                        epoch.store(ctx, generation)?;
                    }
                }
                Ok(())
            })
        };

        let reader: Body = {
            let obs = obs.clone();
            Box::new(move |ctx| {
                let mut served = (0u64, 0u64);
                let probe = epoch.load(ctx)?;
                if probe != served.0 {
                    let r = lock.read(ctx)?;
                    let e = epoch.load(ctx)?;
                    let v = answer.get(ctx)?;
                    drop(r);
                    served = (e, v);
                }
                obs.push(served);
                Ok(())
            })
        };

        let checker: Checker = Box::new(move || {
            for (e, v) in obs.take() {
                if v != e * 100 {
                    return Err(format!("torn epoch/answer pair: epoch {e} with answer {v}"));
                }
            }
            Ok(())
        });
        (vec![writer, reader], checker)
    })
}

/// Admission-cache swap-clear: a writer swaps the backing table (value = 100)
/// and bumps its version inside a write lock; a reader serves twice from a
/// thread-local cache of (version, answer), reloading the table under the
/// read lock whenever its cached version is stale.
///
/// Invariant: every served (version, answer) pair satisfies
/// `answer == version * 100`.
///
/// With `skip_clear = false` the reload refreshes the cached answer along
/// with the version — no interleaving serves stale data. With
/// `skip_clear = true` the reload updates the version but forgets to refresh
/// the answer (the swap-without-clear bug class), and the checker finds
/// schedules serving the old answer under the new version.
pub fn cache_swap_clear(skip_clear: bool) -> Report {
    explore(move |alloc| {
        let lock = ModelRwLock::new(alloc);
        let version = ModelAtomicU64::new(0);
        let table = ModelCell::new(0u64);
        let obs: ObsLog<(u64, u64)> = ObsLog::new();

        let writer: Body = {
            let (lock, version, table) = (lock.clone(), version.clone(), table.clone());
            Box::new(move |ctx| {
                let w = lock.write(ctx)?;
                table.set(ctx, 100)?;
                version.store(ctx, 1)?;
                drop(w);
                Ok(())
            })
        };

        let reader: Body = {
            let obs = obs.clone();
            Box::new(move |ctx| {
                let mut cache = (0u64, 0u64);
                for _serve in 0..2 {
                    let probe = version.load(ctx)?;
                    if probe != cache.0 {
                        let r = lock.read(ctx)?;
                        let val = table.get(ctx)?;
                        let ver = version.load(ctx)?;
                        drop(r);
                        cache.0 = ver;
                        if !skip_clear {
                            cache.1 = val;
                        }
                    }
                    obs.push(cache);
                }
                Ok(())
            })
        };

        let checker: Checker = Box::new(move || {
            for (ver, ans) in obs.take() {
                if ans != ver * 100 {
                    return Err(format!(
                        "stale cache read: version {ver} served answer {ans}"
                    ));
                }
            }
            Ok(())
        });
        (vec![writer, reader], checker)
    })
}

/// Per-(tenant, shard) admission slots, as in the serve engine's
/// `submit`: a tenant has one slot on the shard, held at start by an
/// earlier response. A releaser drops that response (a decrement), and
/// two submitters each try once to claim the slot: read the count and,
/// if it is below the budget, raise it by one. A submitter that sees the
/// budget full sheds.
///
/// Invariant: once every thread is done, the count equals the number of
/// successful claims, and at most one submitter claimed the one slot.
///
/// With `split_claim = false` the claim is the engine's `fetch_update`: a
/// load, then a compare-exchange from the loaded value that retries on
/// failure — one atomic read-modify-write, which never oversubscribes.
/// With `split_claim = true` the claim is a load followed by a plain
/// store, and the checker finds schedules where both submitters read the
/// freed slot and both claim it.
pub fn admission_slot(split_claim: bool) -> Report {
    const SLOTS: u64 = 1;
    explore(move |_alloc| {
        let in_flight = ModelAtomicU64::new(1);
        let claims: ObsLog<()> = ObsLog::new();

        let releaser: Body = {
            let in_flight = in_flight.clone();
            Box::new(move |ctx| sub_one(ctx, &in_flight))
        };
        let mk_submitter = |in_flight: ModelAtomicU64, claims: ObsLog<()>| -> Body {
            Box::new(move |ctx| loop {
                let v = in_flight.load(ctx)?;
                if v >= SLOTS {
                    return Ok(()); // shed: the budget is exhausted
                }
                if split_claim {
                    in_flight.store(ctx, v + 1)?;
                } else if in_flight.compare_exchange(ctx, v, v + 1)?.is_err() {
                    continue;
                }
                claims.push(());
                return Ok(());
            })
        };
        let submitter_a = mk_submitter(in_flight.clone(), claims.clone());
        let submitter_b = mk_submitter(in_flight.clone(), claims.clone());

        let checker: Checker = Box::new(move || {
            let claimed = claims.take().len() as u64;
            let count = in_flight.value();
            if claimed > SLOTS || count != claimed {
                return Err(format!(
                    "oversubscribed slot: {claimed} claims of {SLOTS} slot, count {count}"
                ));
            }
            Ok(())
        });
        (vec![releaser, submitter_a, submitter_b], checker)
    })
}

/// Raises `a` by one with a load + compare-exchange retry loop (the model
/// of one atomic read-modify-write) and returns the new value.
fn add_one(ctx: &Ctx, a: &ModelAtomicU64) -> Result<u64, Aborted> {
    loop {
        let v = a.load(ctx)?;
        if a.compare_exchange(ctx, v, v + 1)?.is_ok() {
            return Ok(v + 1);
        }
    }
}

/// Lowers `a` by one, the same way as [`add_one`].
fn sub_one(ctx: &Ctx, a: &ModelAtomicU64) -> Result<(), Aborted> {
    loop {
        let v = a.load(ctx)?;
        if a.compare_exchange(ctx, v, v - 1)?.is_ok() {
            return Ok(());
        }
    }
}

/// The serve engine's slot handoff: a tenant has one slot on the shard,
/// held at start by a queued task whose caller is about to abandon its
/// response. Three threads run:
///
/// * the caller drops its response;
/// * the worker dequeues the task and answers it;
/// * a second submitter of the same tenant claims a slot (as in
///   [`admission_slot`]) and, if it got one, enqueues its task and
///   records the queue depth it produced.
///
/// The reply channel is one word: empty, answered (the slot is inside),
/// or abandoned. With `release_on_caller_drop = false` the slot travels
/// with the task, as in the engine: the worker's answer and the caller's
/// drop each try to move the channel out of empty, and whichever comes
/// second frees the slot — the worker when the caller is gone, the
/// caller's drop when the answer (and the slot in it) is already there.
/// With `release_on_caller_drop = true` the caller's drop frees the slot
/// at once while its task may still be queued, and the checker finds
/// schedules where the submitter's task lands behind it.
///
/// Invariant: queued tasks ≤ slots at every enqueue.
pub fn slot_handoff(release_on_caller_drop: bool) -> Report {
    const SLOTS: u64 = 1;
    const EMPTY: u64 = 0;
    const ANSWERED: u64 = 1;
    const ABANDONED: u64 = 2;
    explore(move |_alloc| {
        let in_flight = ModelAtomicU64::new(1);
        let queued = ModelAtomicU64::new(1);
        let reply = ModelAtomicU64::new(EMPTY);
        let depths: ObsLog<u64> = ObsLog::new();

        let caller: Body = {
            let (in_flight, reply) = (in_flight.clone(), reply.clone());
            Box::new(move |ctx| {
                if release_on_caller_drop {
                    return sub_one(ctx, &in_flight);
                }
                if reply.compare_exchange(ctx, EMPTY, ABANDONED)?.is_err() {
                    // The answer is buffered: dropping it frees the slot.
                    sub_one(ctx, &in_flight)?;
                }
                Ok(())
            })
        };
        let worker: Body = {
            let (in_flight, queued) = (in_flight.clone(), queued.clone());
            Box::new(move |ctx| {
                sub_one(ctx, &queued)?;
                let sent = reply.compare_exchange(ctx, EMPTY, ANSWERED)?;
                if sent.is_err() && !release_on_caller_drop {
                    // The caller is gone: the failed send frees the slot.
                    sub_one(ctx, &in_flight)?;
                }
                Ok(())
            })
        };
        let submitter: Body = {
            let (in_flight, queued, depths) = (in_flight.clone(), queued.clone(), depths.clone());
            Box::new(move |ctx| loop {
                let v = in_flight.load(ctx)?;
                if v >= SLOTS {
                    return Ok(()); // shed: the budget is exhausted
                }
                if in_flight.compare_exchange(ctx, v, v + 1)?.is_ok() {
                    depths.push(add_one(ctx, &queued)?);
                    return Ok(());
                }
            })
        };

        let checker: Checker = Box::new(move || {
            for depth in depths.take() {
                if depth > SLOTS {
                    return Err(format!(
                        "queue overflow: {depth} queued tasks on {SLOTS} slot"
                    ));
                }
            }
            Ok(())
        });
        (vec![caller, worker, submitter], checker)
    })
}

/// Classic lock-order-inversion deadlock: two threads take the same two
/// write locks in opposite orders. The explorer must find the schedules where
/// each thread holds one lock and waits forever on the other, and report them
/// as deadlocks without hanging or panicking.
pub fn deadlock_demo() -> Report {
    explore(|alloc| {
        let l1 = ModelRwLock::new(alloc);
        let l2 = ModelRwLock::new(alloc);

        let mk = |first: ModelRwLock, second: ModelRwLock| -> Body {
            Box::new(move |ctx| {
                let a = first.write(ctx)?;
                let b = second.write(ctx)?;
                drop(b);
                drop(a);
                Ok(())
            })
        };
        let t1 = mk(l1.clone(), l2.clone());
        let t2 = mk(l2, l1);
        let checker: Checker = Box::new(|| Ok(()));
        (vec![t1, t2], checker)
    })
}
