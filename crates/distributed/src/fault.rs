//! Deterministic fault injection for the Section III machines' exchange.
//!
//! A [`FaultPlan`] is a *pure function* from `(seed, sender, send index)`
//! to a [`FaultDecision`]: every message send — including retransmissions,
//! which get a fresh send index — is independently dropped, duplicated,
//! delayed, or delivered, with probabilities fixed by the plan. Because
//! the decision is a hash of the plan seed and the per-sender send
//! counter (no shared RNG, no wall clock), the virtual-clock simulator in
//! `crates/simtest` — the protocol's one driver — replays a seed to a
//! byte-identical event trace.
//!
//! Crash and stall injection ([`CrashSpec`]/[`StallSpec`]) rewind a worker
//! to a checkpoint or freeze it for a window of virtual time.

/// SplitMix64 finalizer — the workspace's standard seed/decision mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What the injected "network" does with one message send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Silently drop the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Deliver after the given number of extra virtual-clock ticks
    /// (reordering the message behind later sends).
    Delay(u64),
}

/// Kill one worker once its processed-pair counter reaches a threshold;
/// it loses all state since its last block checkpoint and restarts
/// `down_ticks` later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Worker to crash.
    pub worker: usize,
    /// Crash fires after the worker has trained this many pairs.
    pub after_pairs: u64,
    /// Virtual ticks the worker stays down before restoring.
    pub down_ticks: u64,
}

/// Freeze one worker (it stops taking turns and buffers deliveries) for a
/// window of virtual time. State is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSpec {
    /// Worker to stall.
    pub worker: usize,
    /// Stall fires after the worker has trained this many pairs.
    pub after_pairs: u64,
    /// Virtual ticks the worker is frozen for.
    pub ticks: u64,
}

/// Retry behavior of a machine whose batches or replicas went unanswered:
/// it resends them every `timeout_ticks` and never gives up (the
/// simulator's event budget catches a livelock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Virtual-clock timeout per attempt.
    pub timeout_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { timeout_ticks: 64 }
    }
}

/// A complete, seeded fault schedule for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed all per-message decisions derive from.
    pub seed: u64,
    /// Probability a message is dropped.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is delayed/reordered.
    pub delay: f64,
    /// Maximum extra ticks of an injected delay (uniform in `1..=max`).
    pub max_delay_ticks: u64,
    /// Scheduled worker crashes.
    pub crashes: Vec<CrashSpec>,
    /// Scheduled worker stalls.
    pub stalls: Vec<StallSpec>,
    /// Retry/timeout behavior under this plan.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay_ticks: 8,
            crashes: Vec::new(),
            stalls: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// A message-fault-only plan (no crashes/stalls) with the given seed.
    pub fn message_faults(seed: u64, drop: f64, duplicate: f64, delay: f64) -> Self {
        Self {
            seed,
            drop,
            duplicate,
            delay,
            ..Self::default()
        }
    }

    /// The deterministic decision for the `send_index`-th send of worker
    /// `sender`. Retransmissions consume fresh indices, so a retried
    /// message is re-rolled rather than dropped forever.
    pub fn decide(&self, sender: usize, send_index: u64) -> FaultDecision {
        if self.drop == 0.0 && self.duplicate == 0.0 && self.delay == 0.0 {
            return FaultDecision::Deliver;
        }
        let h = mix64(
            self.seed
                ^ (sender as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ send_index.wrapping_mul(0xE703_7ED1_A0B4_28DB),
        );
        // 53-bit uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.drop {
            FaultDecision::Drop
        } else if u < self.drop + self.duplicate {
            FaultDecision::Duplicate
        } else if u < self.drop + self.duplicate + self.delay {
            let ticks = 1 + mix64(h) % self.max_delay_ticks.max(1);
            FaultDecision::Delay(ticks)
        } else {
            FaultDecision::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_always_delivers() {
        let plan = FaultPlan::none();
        for i in 0..1_000 {
            assert_eq!(plan.decide(i % 7, i as u64), FaultDecision::Deliver);
        }
    }

    #[test]
    fn decisions_are_deterministic_and_sender_scoped() {
        let plan = FaultPlan::message_faults(0xFEED, 0.2, 0.1, 0.1);
        for i in 0..500u64 {
            assert_eq!(plan.decide(3, i), plan.decide(3, i), "replay differs");
        }
        // Different senders see different schedules.
        let diverges = (0..500u64).any(|i| plan.decide(0, i) != plan.decide(1, i));
        assert!(diverges, "per-sender schedules should not be identical");
    }

    #[test]
    fn decision_rates_track_probabilities() {
        let plan = FaultPlan::message_faults(7, 0.25, 0.10, 0.05);
        let n = 20_000u64;
        let mut drops = 0u64;
        let mut dups = 0u64;
        let mut delays = 0u64;
        for i in 0..n {
            match plan.decide(0, i) {
                FaultDecision::Drop => drops += 1,
                FaultDecision::Duplicate => dups += 1,
                FaultDecision::Delay(t) => {
                    assert!((1..=plan.max_delay_ticks).contains(&t));
                    delays += 1;
                }
                FaultDecision::Deliver => {}
            }
        }
        let rate = |c: u64| c as f64 / n as f64;
        assert!(
            (rate(drops) - 0.25).abs() < 0.02,
            "drop rate {}",
            rate(drops)
        );
        assert!((rate(dups) - 0.10).abs() < 0.02, "dup rate {}", rate(dups));
        assert!((rate(delays) - 0.05).abs() < 0.02, "delay {}", rate(delays));
    }

    #[test]
    fn retry_rerolls_eventually_deliver() {
        // Even at a 50% drop rate, 16 fresh rolls almost surely deliver.
        const ATTEMPTS: u32 = 16;
        let plan = FaultPlan::message_faults(99, 0.5, 0.0, 0.0);
        let mut idx = 0u64;
        for _ in 0..100 {
            let delivered = (0..ATTEMPTS).any(|_| {
                let d = plan.decide(2, idx);
                idx += 1;
                d != FaultDecision::Drop
            });
            assert!(delivered);
        }
    }
}
