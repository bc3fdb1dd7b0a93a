//! Exhaustive model checks of the workspace's concurrent protocols.
//!
//! Every test pins the exact number of maximal schedules the explorer visits
//! (skipped when `SISG_INTERLEAVE_SMOKE` truncates the run): the counts for
//! the no-tear models are closed-form multinomials, so a drift in any pinned
//! count means the explorer's enumeration itself regressed, not just a model.

use sisg_interleave::models;

/// Serve-engine hot swap with the epoch bump inside the write lock: no
/// interleaving of 2 swaps against a concurrent serve can pair a stale epoch
/// with a fresh answer.
#[test]
fn hot_swap_is_torn_free_across_all_schedules() {
    let r = models::hot_swap(false);
    assert_eq!(r.violations, 0, "unexpected: {:?}", r.first_violation);
    assert_eq!(r.deadlocks, 0);
    if !r.truncated {
        assert_eq!(r.executions, 11);
    }
}

/// Moving the epoch bump after the unlock — the bug class rule 9 and the
/// engine's ORDERING comments guard against — must be caught: the reader can
/// observe epoch 1 paired with the generation-2 answer.
#[test]
fn hot_swap_with_bump_after_unlock_is_caught() {
    let r = models::hot_swap(true);
    assert!(r.violations > 0, "broken variant was not caught");
    assert_eq!(r.deadlocks, 0);
    if !r.truncated {
        assert_eq!(r.executions, 26);
        assert_eq!(r.violations, 12);
    }
    let msg = r.first_violation.expect("violation recorded");
    assert!(msg.contains("torn epoch/answer pair"), "{msg}");
}

/// Admission-cache swap: a reader that refreshes both its cached version and
/// its cached answer on reload never serves stale data, in any interleaving.
#[test]
fn cache_swap_clear_never_serves_stale_reads() {
    let r = models::cache_swap_clear(false);
    assert_eq!(r.violations, 0, "unexpected: {:?}", r.first_violation);
    assert_eq!(r.deadlocks, 0);
    if !r.truncated {
        assert_eq!(r.executions, 14);
    }
}

/// Forgetting to clear the cached answer on table swap must be caught: the
/// reader serves the old answer under the new version.
#[test]
fn cache_swap_without_clear_is_caught() {
    let r = models::cache_swap_clear(true);
    assert!(r.violations > 0, "broken variant was not caught");
    if !r.truncated {
        // Same step structure as the correct variant (the bug is a skipped
        // local refresh, not a skipped step), so the tree size must match it.
        assert_eq!(r.executions, 14);
        assert_eq!(r.violations, 8);
    }
    let msg = r.first_violation.expect("violation recorded");
    assert!(msg.contains("stale cache read"), "{msg}");
}

/// Serve-engine admission slots: a claim that is one read-modify-write
/// (load, then compare-exchange with retry — the engine's `fetch_update`)
/// never lets two submitters hold one slot, in any interleaving against
/// the releaser.
#[test]
fn admission_slot_claim_never_oversubscribes() {
    let r = models::admission_slot(false);
    assert_eq!(r.violations, 0, "unexpected: {:?}", r.first_violation);
    assert_eq!(r.deadlocks, 0);
    if !r.truncated {
        assert_eq!(r.executions, 16);
    }
}

/// Splitting the claim into a load and a plain store must be caught: both
/// submitters read the freed slot and both claim it.
#[test]
fn admission_slot_split_claim_is_caught() {
    let r = models::admission_slot(true);
    assert!(r.violations > 0, "broken variant was not caught");
    assert_eq!(r.deadlocks, 0);
    if !r.truncated {
        assert_eq!(r.executions, 16);
        assert_eq!(r.violations, 4);
    }
    let msg = r.first_violation.expect("violation recorded");
    assert!(msg.contains("oversubscribed slot"), "{msg}");
}

/// Serve-engine slot handoff: the slot travels with the task and is freed
/// by whichever of the worker's answer and the caller's drop comes second,
/// so a second submit can never queue behind a task that still holds the
/// tenant's one slot.
#[test]
fn slot_handoff_never_queues_past_the_slots() {
    let r = models::slot_handoff(false);
    assert_eq!(r.violations, 0, "unexpected: {:?}", r.first_violation);
    assert_eq!(r.deadlocks, 0);
    if !r.truncated {
        assert_eq!(r.executions, 28);
    }
}

/// Freeing the slot when the caller drops its response — while its task
/// may still be queued — must be caught: the submitter's task lands
/// behind it and the queue outgrows the slots.
#[test]
fn slot_release_on_caller_drop_is_caught() {
    let r = models::slot_handoff(true);
    assert!(r.violations > 0, "broken variant was not caught");
    assert_eq!(r.deadlocks, 0);
    if !r.truncated {
        assert_eq!(r.executions, 136);
        assert_eq!(r.violations, 7);
    }
    let msg = r.first_violation.expect("violation recorded");
    assert!(msg.contains("queue overflow"), "{msg}");
}

/// The Section III runtime's block exchange: a requester that posts its
/// batch before the barrier gets, in every schedule, the answer to that
/// block's batch.
#[test]
fn block_exchange_serves_each_block_its_own_batch() {
    let r = models::block_exchange(false);
    assert_eq!(r.violations, 0, "unexpected: {:?}", r.first_violation);
    assert_eq!(r.deadlocks, 0);
    if !r.truncated {
        assert_eq!(r.executions, 300);
    }
}

/// Posting after the barrier must be caught: the owner can take the
/// mailbox first and serve it empty, or serve the last block's batch.
#[test]
fn block_exchange_with_post_after_barrier_is_caught() {
    let r = models::block_exchange(true);
    assert!(r.violations > 0, "broken variant was not caught");
    assert_eq!(r.deadlocks, 0);
    if !r.truncated {
        assert_eq!(r.executions, 2025);
        assert_eq!(r.violations, 1944);
    }
    let msg = r.first_violation.expect("violation recorded");
    assert!(msg.contains("empty or stale mailbox"), "{msg}");
}

/// Opposite-order lock acquisition deadlocks in exactly the schedules where
/// each thread holds one lock before the other wants its second; the explorer
/// must detect those without hanging and still complete the rest of the tree.
#[test]
fn opposite_lock_order_deadlock_is_detected() {
    let r = models::deadlock_demo();
    assert!(r.deadlocks > 0, "deadlock was not detected");
    assert_eq!(r.violations, 0);
    if !r.truncated {
        assert_eq!(r.executions, 6);
        assert_eq!(r.deadlocks, 2);
    }
}
