//! Named workload profiles: arrival processes, SLOs, and the standard
//! four-tenant matrix.

use sisg_core::SiAggregation;
use sisg_serve::{TenantConfig, TenantId};

/// A tenant's request mix, as relative weights over the three request
/// classes. Weights need not sum to anything in particular, but at least
/// one must be nonzero — [`run_scenario`](crate::run_scenario) rejects an
/// all-zero mix, which describes a tenant that can never send a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestMix {
    /// Relative weight of warm (known-item) candidate requests.
    pub warm: u32,
    /// Relative weight of cold-item (Eq. 6 SI-only) requests.
    pub cold_item: u32,
    /// Relative weight of cold-user (demographics-only) requests.
    pub cold_user: u32,
}

impl RequestMix {
    /// Sum of the three weights.
    pub fn total(&self) -> u64 {
        self.warm as u64 + self.cold_item as u64 + self.cold_user as u64
    }
}

/// A tenant's declared service-level objectives, judged per tenant by
/// [`run_scenario`](crate::run_scenario) from that tenant's own metric
/// slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSlo {
    /// Maximum acceptable p99 worker-side latency in nanoseconds, read
    /// from the tenant's `serve.tenant.<label>.request.ns` histogram.
    pub p99_latency_ns: f64,
    /// Maximum acceptable shed rate (budget sheds / submitted requests).
    pub max_shed_rate: f64,
    /// Minimum acceptable CTR under the eval click model.
    pub min_ctr: f64,
}

impl Default for TenantSlo {
    fn default() -> Self {
        Self {
            // Generous enough that a healthy engine on a loaded CI host
            // stays green; the latency verdict exists to catch order-of-
            // magnitude regressions, not to microbenchmark.
            p99_latency_ns: 250.0e6,
            max_shed_rate: 0.05,
            min_ctr: 0.0,
        }
    }
}

/// How many requests a tenant submits on each scenario tick. All four
/// processes are deterministic functions of `(tick, total_ticks)`, so a
/// replay with the same seed produces the same arrival counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// A constant `per_tick` requests on every tick.
    Steady {
        /// Requests per tick.
        per_tick: u32,
    },
    /// A triangular ramp from `base` at the run's edges up to `peak` at
    /// mid-run — the scenario-scale stand-in for a diurnal traffic curve.
    DiurnalRamp {
        /// Requests per tick at the start and end of the run.
        base: u32,
        /// Requests per tick at the middle of the run.
        peak: u32,
    },
    /// `base` requests per tick, except `burst` requests during the first
    /// `width` ticks of every `period`-tick window (a flash-sale spike).
    Burst {
        /// Off-burst requests per tick.
        base: u32,
        /// In-burst requests per tick.
        burst: u32,
        /// Window length in ticks; `0` disables bursting.
        period: u32,
        /// Burst length at the start of each window.
        width: u32,
    },
    /// A constant `per_tick` requests, all aimed at a handful of cold
    /// *hot-key* items that route to a single shard — the adversarial
    /// workload that exhausts its own per-shard budget while leaving
    /// every other tenant's slots untouched.
    AdversarialHotKey {
        /// Requests per tick, all on the hot keys.
        per_tick: u32,
        /// Number of distinct hot-key items to rotate over.
        hot_items: u32,
    },
}

impl ArrivalProcess {
    /// Requests this process submits on `tick` of a `ticks`-tick run.
    pub fn arrivals(&self, tick: u32, ticks: u32) -> u32 {
        match *self {
            ArrivalProcess::Steady { per_tick } => per_tick,
            ArrivalProcess::DiurnalRamp { base, peak } => {
                let half = (ticks / 2).max(1);
                let pos = if tick <= half {
                    tick
                } else {
                    ticks.saturating_sub(tick)
                };
                let span = peak.saturating_sub(base) as u64;
                base + (span * pos.min(half) as u64 / half as u64) as u32
            }
            ArrivalProcess::Burst {
                base,
                burst,
                period,
                width,
            } => {
                if period > 0 && tick % period < width {
                    burst
                } else {
                    base
                }
            }
            ArrivalProcess::AdversarialHotKey { per_tick, .. } => per_tick,
        }
    }
}

/// One named workload driven by [`run_scenario`](crate::run_scenario):
/// the tenant's serving contract, its request mix and arrival process,
/// its candidate count, and the SLO it is judged against.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantProfile {
    /// The tenant's serving contract, installed into the engine's tenant
    /// table via [`engine_config`](crate::engine_config).
    pub config: TenantConfig,
    /// Which request classes this tenant sends, by relative weight.
    pub mix: RequestMix,
    /// When (and how many) requests this tenant submits.
    pub arrival: ArrivalProcess,
    /// Candidates requested per query.
    pub k: usize,
    /// The declared objectives the tenant is judged against.
    pub slo: TenantSlo,
}

/// The homepage browse feed: overwhelmingly warm traffic, the largest
/// shed-budget and cache shares, a steady arrival rate, and a strict
/// zero-shed SLO — the tenant whose isolation the scenario matrix
/// demonstrates.
fn head_heavy(id: TenantId) -> TenantProfile {
    TenantProfile {
        config: TenantConfig::new(id, "head_heavy")
            .shed_budget(8)
            .cache_share(4),
        mix: RequestMix {
            warm: 90,
            cold_item: 8,
            cold_user: 2,
        },
        arrival: ArrivalProcess::Steady { per_tick: 24 },
        k: 10,
        slo: TenantSlo {
            max_shed_rate: 0.0,
            min_ctr: 0.005,
            ..TenantSlo::default()
        },
    }
}

/// A "new arrivals" surface: mostly cold-item (Eq. 6) traffic under the
/// EGES-style norm-weighted SI aggregation, ramping diurnally.
fn cold_start_heavy(id: TenantId) -> TenantProfile {
    TenantProfile {
        config: TenantConfig::new(id, "cold_start")
            .shed_budget(4)
            .cache_share(3)
            .si_weighting(SiAggregation::Weighted),
        mix: RequestMix {
            warm: 20,
            cold_item: 60,
            cold_user: 20,
        },
        arrival: ArrivalProcess::DiurnalRamp { base: 6, peak: 16 },
        k: 10,
        slo: TenantSlo::default(),
    }
}

/// A flash-sale promo page: browse-like mix, quiet between sales, sharp
/// periodic bursts during them.
fn promo_burst(id: TenantId) -> TenantProfile {
    TenantProfile {
        config: TenantConfig::new(id, "promo_burst")
            .shed_budget(2)
            .cache_share(2),
        mix: RequestMix {
            warm: 70,
            cold_item: 25,
            cold_user: 5,
        },
        arrival: ArrivalProcess::Burst {
            base: 2,
            burst: 8,
            period: 8,
            width: 2,
        },
        k: 10,
        slo: TenantSlo::default(),
    }
}

/// The abusive integration: a small shed-budget share, no cache share,
/// and a hot-key hammer aimed at one shard. Its declared shed SLO is
/// deliberately tight, so the scenario report shows it *failing its own
/// verdict* while the other tenants stay green — the isolation claim.
fn adversarial_hot_key(id: TenantId) -> TenantProfile {
    TenantProfile {
        config: TenantConfig::new(id, "adversarial")
            .shed_budget(1)
            .cache_share(0),
        mix: RequestMix {
            warm: 0,
            cold_item: 100,
            cold_user: 0,
        },
        arrival: ArrivalProcess::AdversarialHotKey {
            per_tick: 12,
            hot_items: 3,
        },
        k: 10,
        slo: TenantSlo {
            max_shed_rate: 0.10,
            ..TenantSlo::default()
        },
    }
}

/// The standard four-tenant scenario matrix — one profile per archetype,
/// with ids 1 through 4. Sized so that, with the
/// [`engine_config`](crate::engine_config) defaults, the three honest
/// tenants never exhaust their budgets while the adversarial tenant
/// reliably exhausts its own.
pub fn standard_matrix() -> Vec<TenantProfile> {
    vec![
        head_heavy(TenantId(1)),
        cold_start_heavy(TenantId(2)),
        promo_burst(TenantId(3)),
        adversarial_hot_key(TenantId(4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_and_adversarial_are_flat() {
        let s = ArrivalProcess::Steady { per_tick: 7 };
        let a = ArrivalProcess::AdversarialHotKey {
            per_tick: 9,
            hot_items: 2,
        };
        for tick in 0..40 {
            assert_eq!(s.arrivals(tick, 40), 7);
            assert_eq!(a.arrivals(tick, 40), 9);
        }
    }

    #[test]
    fn diurnal_ramp_peaks_mid_run_and_returns_to_base() {
        let r = ArrivalProcess::DiurnalRamp { base: 4, peak: 20 };
        assert_eq!(r.arrivals(0, 40), 4);
        assert_eq!(r.arrivals(20, 40), 20);
        assert_eq!(r.arrivals(40, 40), 4);
        // Monotone on the way up.
        for tick in 0..20 {
            assert!(r.arrivals(tick, 40) <= r.arrivals(tick + 1, 40));
        }
        // Degenerate run lengths must not divide by zero.
        assert_eq!(r.arrivals(0, 0), 4);
        assert_eq!(r.arrivals(0, 1), 4);
    }

    #[test]
    fn burst_fires_at_window_starts() {
        let b = ArrivalProcess::Burst {
            base: 2,
            burst: 8,
            period: 8,
            width: 2,
        };
        for tick in 0..32 {
            let expected = if tick % 8 < 2 { 8 } else { 2 };
            assert_eq!(b.arrivals(tick, 32), expected, "tick {tick}");
        }
        let off = ArrivalProcess::Burst {
            base: 3,
            burst: 9,
            period: 0,
            width: 1,
        };
        assert_eq!(off.arrivals(5, 32), 3, "period 0 disables bursting");
    }

    #[test]
    fn standard_matrix_is_four_distinct_tenants() {
        let m = standard_matrix();
        assert_eq!(m.len(), 4);
        let mut ids: Vec<u32> = m.iter().map(|p| p.config.id.0).collect();
        let mut labels: Vec<&str> = m.iter().map(|p| p.config.label.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(ids.len(), 4, "tenant ids must be unique");
        assert_eq!(labels.len(), 4, "tenant labels must be unique");
        // The matrix exercises both SI-weighting modes.
        assert!(m
            .iter()
            .any(|p| p.config.si_weighting == SiAggregation::Weighted));
        assert!(m
            .iter()
            .any(|p| p.config.si_weighting == SiAggregation::Sum));
    }
}
