//! Probe: print enumeration counts for pinning.
fn main() {
    let r = sisg_interleave::models::hot_swap(false);
    println!(
        "hot_swap correct: exec={} viol={} dead={}",
        r.executions, r.violations, r.deadlocks
    );
    let r = sisg_interleave::models::hot_swap(true);
    println!(
        "hot_swap broken:  exec={} viol={} dead={} first={:?}",
        r.executions, r.violations, r.deadlocks, r.first_violation
    );
    let r = sisg_interleave::models::cache_swap_clear(false);
    println!(
        "cache correct:    exec={} viol={} dead={}",
        r.executions, r.violations, r.deadlocks
    );
    let r = sisg_interleave::models::cache_swap_clear(true);
    println!(
        "cache broken:     exec={} viol={} dead={} first={:?}",
        r.executions, r.violations, r.deadlocks, r.first_violation
    );
    let r = sisg_interleave::models::deadlock_demo();
    println!(
        "deadlock demo:    exec={} viol={} dead={}",
        r.executions, r.violations, r.deadlocks
    );
}
