//! The deterministic tick-driven scenario runner.
//!
//! [`run_scenario`] drives every [`TenantProfile`] against one shared
//! [`ServeEngine`] in lockstep ticks: each tick submits every tenant's
//! arrivals (in profile order, from per-tenant seeded streams), then
//! collects every accepted response before the next tick begins. Budget
//! slots are held from submission to collection, so whether a request is
//! shed depends only on the submission order and the tenant's slot count
//! — never on how fast a worker thread happens to drain its queue. The
//! same seed therefore reproduces the same shed counts and the same
//! [`ScenarioReport::trace_hash`] on any machine.

use crate::profile::{ArrivalProcess, TenantProfile, TenantSlo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_core::CoreError;
use sisg_corpus::{GeneratedCorpus, ItemId, UserId};
use sisg_eval::ctr::click_propensity;
use sisg_obs::names::tenant_metric;
use sisg_obs::Fnv1a;
use sisg_serve::{ServeEngine, ServeEngineConfig, ServeError, ServeRequest, TenantId};

/// Scenario-level knobs: how long to run and the master seed every
/// per-tenant stream derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Lockstep ticks to run.
    pub ticks: u32,
    /// Master seed; per-tenant request and click streams derive from it.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            ticks: 40,
            seed: 42,
        }
    }
}

/// Every way a scenario can fail to run. The runner is panic-free: a
/// malformed matrix or an engine failure comes back here.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The profile list was empty.
    NoProfiles,
    /// A profile's request mix has every weight zero, so the tenant could
    /// never send a request.
    EmptyMix(TenantId),
    /// A profile names a tenant absent from the engine's tenant table.
    UnknownTenant(TenantId),
    /// The corpus cannot supply the items a profile needs (for example,
    /// no cold items exist for an adversarial hot-key tenant).
    InsufficientCatalog {
        /// What the catalog was missing.
        reason: &'static str,
    },
    /// The engine failed in a way the scenario contract rules out. The
    /// runner collects every response before the next tick, so budget
    /// slots bound each shard queue and sheds come back as
    /// `SloBudgetExhausted`, never as this.
    Engine(ServeError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoProfiles => write!(f, "scenario has no tenant profiles"),
            ScenarioError::EmptyMix(t) => {
                write!(f, "{t} has an all-zero request mix")
            }
            ScenarioError::UnknownTenant(t) => {
                write!(f, "{t} is not in the engine's tenant table")
            }
            ScenarioError::InsufficientCatalog { reason } => {
                write!(f, "catalog cannot supply the scenario: {reason}")
            }
            ScenarioError::Engine(e) => write!(f, "engine failure: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A tenant's pass/fail against each of its declared objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloVerdict {
    /// p99 worker-side latency within [`TenantSlo::p99_latency_ns`].
    pub latency_ok: bool,
    /// Shed rate within [`TenantSlo::max_shed_rate`].
    pub shed_ok: bool,
    /// Click model CTR at or above [`TenantSlo::min_ctr`].
    pub ctr_ok: bool,
}

impl SloVerdict {
    /// True when every objective passed.
    pub fn all_ok(&self) -> bool {
        self.latency_ok && self.shed_ok && self.ctr_ok
    }
}

/// One tenant's slice of a scenario run: scenario-local traffic counts,
/// engine-side per-tenant counters, the click-model CTR, and the SLO
/// verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// The tenant's id.
    pub tenant_id: u32,
    /// The tenant's metric label.
    pub label: String,
    /// Requests the scenario submitted for this tenant.
    pub submitted: u64,
    /// Requests that completed with an answer.
    pub completed: u64,
    /// Requests shed against this tenant's own budget
    /// (`SloBudgetExhausted`).
    pub shed: u64,
    /// `shed / submitted` (0 when nothing was submitted).
    pub shed_rate: f64,
    /// p99 of the tenant's `serve.tenant.<label>.request.ns` histogram,
    /// in nanoseconds (0 when the histogram is empty).
    pub p99_latency_ns: f64,
    /// Slate positions shown to the click model.
    pub shown: u64,
    /// Clicks drawn by the click model.
    pub clicks: u64,
    /// `clicks / shown` (0 when nothing was shown).
    pub ctr: f64,
    /// Warm artifact lookups, from the tenant's engine counters.
    pub warm_hits: u64,
    /// Cold-item (Eq. 6) requests, from the tenant's engine counters.
    pub cold_item_requests: u64,
    /// Cold-user requests, from the tenant's engine counters.
    pub cold_user_requests: u64,
    /// Cold-path answers served from the tenant's cache partition.
    pub cache_hits: u64,
    /// The SLO this tenant was judged against.
    pub slo: TenantSlo,
    /// The per-objective verdicts.
    pub verdict: SloVerdict,
}

/// The full result of one scenario run: one [`TenantOutcome`] per
/// profile (in profile order) and a latency-free trace hash that pins
/// the run's observable behavior for replay tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Per-tenant outcomes, in profile order.
    pub tenants: Vec<TenantOutcome>,
    /// Ticks the scenario ran.
    pub ticks: u32,
    /// The master seed it ran under.
    pub seed: u64,
    /// FNV-1a over every request's (tick, tenant, class, key, outcome,
    /// cache-hit flag, answer shape) — everything deterministic about the
    /// run, deliberately excluding wall-clock latency.
    pub trace_hash: u64,
}

impl ScenarioReport {
    /// The outcome for the tenant labeled `label`, if present.
    pub fn tenant(&self, label: &str) -> Option<&TenantOutcome> {
        self.tenants.iter().find(|t| t.label == label)
    }
}

/// Builds the standard engine configuration for a profile list: 4
/// shards, a 64-deep queue per shard (so the standard matrix's budget
/// shares split into per-shard slot counts without oversubscription),
/// and an admission cache that admits on first sight, partitioned by the
/// profiles' cache shares.
pub fn engine_config(profiles: &[TenantProfile]) -> Result<ServeEngineConfig, CoreError> {
    ServeEngineConfig::builder()
        .n_shards(4)
        .queue_capacity(64)
        .cache_capacity(1024)
        .cache_admit_after(1)
        .tenants(profiles.iter().map(|p| p.config.clone()).collect())
        .build()
}

/// One generated request plus the click-model context it is scored in.
struct GeneratedRequest {
    req: ServeRequest,
    /// The impression context for [`click_propensity`]: the clicked item
    /// for candidate requests, a sampled landing item for cold users.
    context: ItemId,
    user: UserId,
    /// Request-class code for the trace hash (0 warm, 1 cold item,
    /// 2 cold user).
    class: u8,
    /// Hashable request key (item id, or packed demographics).
    key: u32,
}

/// Scenario-local mutable state of one tenant.
struct TenantRun {
    rng: StdRng,
    click_rng: StdRng,
    hot_keys: Vec<ItemId>,
    submitted: u64,
    shed: u64,
    completed: u64,
    shown: u64,
    clicks: u64,
}

/// Warm/cold item pools derived from the engine's serving snapshot.
struct Pools {
    warm: Vec<ItemId>,
    cold: Vec<ItemId>,
}

fn build_pools(corpus: &GeneratedCorpus, engine: &ServeEngine) -> Result<Pools, ScenarioError> {
    let snapshot = engine.snapshot();
    let mut warm = Vec::new();
    let mut cold = Vec::new();
    for i in 0..corpus.config.n_items {
        let item = ItemId(i);
        if snapshot.is_cold(item) {
            cold.push(item);
        } else {
            warm.push(item);
        }
    }
    if warm.is_empty() && cold.is_empty() {
        return Err(ScenarioError::InsufficientCatalog {
            reason: "the catalog is empty",
        });
    }
    // A fully-warm or fully-cold artifact still runs: the missing class
    // borrows the other pool so every mix weight stays servable.
    if warm.is_empty() {
        warm = cold.clone();
    }
    if cold.is_empty() {
        cold = warm.clone();
    }
    Ok(Pools { warm, cold })
}

/// Hot keys for an adversarial tenant: cold items that all route to
/// shard 0, so the tenant's traffic concentrates on a single shard's
/// budget slots.
fn hot_keys(pools: &Pools, n_shards: usize, hot_items: u32) -> Result<Vec<ItemId>, ScenarioError> {
    let keys: Vec<ItemId> = pools
        .cold
        .iter()
        .copied()
        .filter(|i| i.index() % n_shards == 0)
        .take(hot_items.max(1) as usize)
        .collect();
    if keys.is_empty() {
        return Err(ScenarioError::InsufficientCatalog {
            reason: "no cold items route to shard 0 for the hot-key tenant",
        });
    }
    Ok(keys)
}

fn generate(
    corpus: &GeneratedCorpus,
    profile: &TenantProfile,
    run: &mut TenantRun,
    pools: &Pools,
) -> GeneratedRequest {
    let user = UserId(run.rng.gen_range(0..corpus.config.n_users));
    let candidates = |item: ItemId, k: usize| ServeRequest::Candidates {
        item,
        si_values: *corpus.catalog.si_values(item),
        k,
    };
    if let ArrivalProcess::AdversarialHotKey { .. } = profile.arrival {
        let item = run.hot_keys[run.rng.gen_range(0..run.hot_keys.len())];
        return GeneratedRequest {
            req: candidates(item, profile.k),
            context: item,
            user,
            class: 1,
            key: item.0,
        };
    }
    let mix = profile.mix;
    let roll = run.rng.gen_range(0..mix.total().max(1));
    if roll < u64::from(mix.warm) {
        let item = pools.warm[run.rng.gen_range(0..pools.warm.len())];
        GeneratedRequest {
            req: candidates(item, profile.k),
            context: item,
            user,
            class: 0,
            key: item.0,
        }
    } else if roll < u64::from(mix.warm) + u64::from(mix.cold_item) {
        let item = pools.cold[run.rng.gen_range(0..pools.cold.len())];
        GeneratedRequest {
            req: candidates(item, profile.k),
            context: item,
            user,
            class: 1,
            key: item.0,
        }
    } else {
        // Both generated genders exist in every registry (the null-gender
        // bucket is the rare third), so the demographic always matches.
        let gender = run.rng.gen_range(0..2u32) as u8;
        let context = ItemId(run.rng.gen_range(0..corpus.config.n_items));
        GeneratedRequest {
            req: ServeRequest::ColdUser {
                gender: Some(gender),
                age: None,
                purchase: None,
                k: profile.k,
            },
            context,
            user,
            class: 2,
            key: u32::from(gender),
        }
    }
}

/// Runs `profiles` against `engine` for `cfg.ticks` lockstep ticks and
/// judges every tenant against its own SLO.
///
/// The engine must have been started with a tenant table containing
/// every profile's tenant (see [`engine_config`]); sheds then come back
/// as per-tenant `SloBudgetExhausted` verdicts, which the runner counts
/// rather than treats as failures. Any other engine error aborts the
/// scenario. A profile whose request mix is all zero is
/// [`ScenarioError::EmptyMix`].
pub fn run_scenario(
    corpus: &GeneratedCorpus,
    engine: &ServeEngine,
    profiles: &[TenantProfile],
    cfg: &ScenarioConfig,
) -> Result<ScenarioReport, ScenarioError> {
    if profiles.is_empty() {
        return Err(ScenarioError::NoProfiles);
    }
    if let Some(p) = profiles.iter().find(|p| p.mix.total() == 0) {
        return Err(ScenarioError::EmptyMix(p.config.id));
    }
    let stats_before = engine.tenant_stats();
    for p in profiles {
        if !stats_before.iter().any(|s| s.tenant == p.config.id) {
            return Err(ScenarioError::UnknownTenant(p.config.id));
        }
    }
    let pools = build_pools(corpus, engine)?;
    let n_shards = engine.config().n_shards();

    // Empirical popularity for the click model's prior, exactly as the
    // eval A/B simulation computes it.
    let popularity = corpus.sessions.item_clicks(corpus.config.n_items);

    let mut runs: Vec<TenantRun> = Vec::with_capacity(profiles.len());
    for p in profiles {
        let salt = u64::from(p.config.id.0) + 1;
        let keys = match p.arrival {
            ArrivalProcess::AdversarialHotKey { hot_items, .. } => {
                hot_keys(&pools, n_shards, hot_items)?
            }
            _ => Vec::new(),
        };
        runs.push(TenantRun {
            rng: StdRng::seed_from_u64(cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            click_rng: StdRng::seed_from_u64(cfg.seed ^ salt.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)),
            hot_keys: keys,
            submitted: 0,
            shed: 0,
            completed: 0,
            shown: 0,
            clicks: 0,
        });
    }

    // Ids and counts fold as 4-byte little-endian words, flags as one byte.
    let mut trace = Fnv1a::new();
    for tick in 0..cfg.ticks {
        // Submit every tenant's arrivals for this tick. Accepted requests
        // hold their tenant's budget slot until collected below, so the
        // shed decisions in this phase are a pure function of submission
        // order and slot counts.
        let mut pending = Vec::new();
        for (pi, profile) in profiles.iter().enumerate() {
            let arrivals = profile.arrival.arrivals(tick, cfg.ticks);
            for _ in 0..arrivals {
                let generated = generate(corpus, profile, &mut runs[pi], &pools);
                runs[pi].submitted += 1;
                trace.bytes(&tick.to_le_bytes());
                trace.bytes(&profile.config.id.0.to_le_bytes());
                trace.bytes(&[generated.class]);
                trace.bytes(&generated.key.to_le_bytes());
                match engine.submit(generated.req.for_tenant(profile.config.id)) {
                    Ok(p) => {
                        trace.bytes(&[0]);
                        pending.push((pi, generated, p));
                    }
                    Err(ServeError::SloBudgetExhausted { .. }) => {
                        trace.bytes(&[1]);
                        runs[pi].shed += 1;
                    }
                    Err(e) => return Err(ScenarioError::Engine(e)),
                }
            }
        }
        // Collect every accepted response, in submission order, scoring
        // each slate with the eval click model.
        for (pi, generated, p) in pending {
            let resp = match p.wait() {
                Ok(resp) => resp,
                Err(e) => return Err(ScenarioError::Engine(e)),
            };
            runs[pi].completed += 1;
            trace.bytes(&[u8::from(resp.cache_hit)]);
            let top = resp.recommendations.first().map_or(u32::MAX, |r| r.item.0);
            trace.bytes(&(resp.recommendations.len() as u32).to_le_bytes());
            trace.bytes(&top.to_le_bytes());
            for (pos, rec) in resp.recommendations.iter().enumerate() {
                runs[pi].shown += 1;
                let p_click = click_propensity(
                    corpus,
                    &popularity,
                    generated.user,
                    generated.context,
                    rec.item,
                ) / (2.0 + pos as f64).log2();
                if runs[pi].click_rng.gen::<f64>() < p_click {
                    runs[pi].clicks += 1;
                }
            }
        }
    }

    let stats_after = engine.tenant_stats();
    let mut tenants = Vec::with_capacity(profiles.len());
    for (profile, run) in profiles.iter().zip(&runs) {
        let id = profile.config.id;
        let (Some(before), Some(after)) = (
            stats_before.iter().find(|s| s.tenant == id),
            stats_after.iter().find(|s| s.tenant == id),
        ) else {
            return Err(ScenarioError::UnknownTenant(id));
        };
        let p99_latency_ns = sisg_obs::registry()
            .histogram(&tenant_metric(&profile.config.label, "request.ns"))
            .quantile(0.99)
            .unwrap_or(0.0);
        let shed_rate = if run.submitted == 0 {
            0.0
        } else {
            run.shed as f64 / run.submitted as f64
        };
        let ctr = if run.shown == 0 {
            0.0
        } else {
            run.clicks as f64 / run.shown as f64
        };
        let slo = profile.slo;
        tenants.push(TenantOutcome {
            tenant_id: id.0,
            label: profile.config.label.clone(),
            submitted: run.submitted,
            completed: run.completed,
            shed: run.shed,
            shed_rate,
            p99_latency_ns,
            shown: run.shown,
            clicks: run.clicks,
            ctr,
            warm_hits: after.warm_hits.saturating_sub(before.warm_hits),
            cold_item_requests: after
                .cold_item_requests
                .saturating_sub(before.cold_item_requests),
            cold_user_requests: after
                .cold_user_requests
                .saturating_sub(before.cold_user_requests),
            cache_hits: after.cache_hits.saturating_sub(before.cache_hits),
            slo,
            verdict: SloVerdict {
                latency_ok: p99_latency_ns <= slo.p99_latency_ns,
                shed_ok: shed_rate <= slo.max_shed_rate,
                ctr_ok: ctr >= slo.min_ctr,
            },
        });
    }
    Ok(ScenarioReport {
        tenants,
        ticks: cfg.ticks,
        seed: cfg.seed,
        trace_hash: trace.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::standard_matrix;

    #[test]
    fn standard_matrix_builds_a_valid_engine_config() {
        let profiles = standard_matrix();
        let config = engine_config(&profiles).expect("standard matrix validates");
        assert_eq!(config.tenants().len(), 4);
        // Budget slots never oversubscribe the queue (the property that
        // makes tenant sheds deterministic).
        let slots: usize = config.tenant_budget_slots().iter().sum();
        assert!(slots <= config.queue_capacity());
        // Every honest tenant's worst-case per-tick arrivals fit its own
        // per-shard slot count, so only the adversarial tenant sheds.
        let ticks = 40;
        for (profile, slots) in profiles.iter().zip(config.tenant_budget_slots()) {
            let peak = (0..ticks)
                .map(|t| profile.arrival.arrivals(t, ticks))
                .max()
                .unwrap_or(0);
            if matches!(profile.arrival, ArrivalProcess::AdversarialHotKey { .. }) {
                assert!(
                    peak as usize > slots,
                    "the adversarial tenant must oversubscribe its own budget"
                );
            } else {
                assert!(
                    peak as usize <= slots,
                    "{}: peak {peak} must fit {slots} per-shard slots",
                    profile.config.label
                );
            }
        }
    }

    #[test]
    fn empty_profile_list_is_a_typed_error() {
        let display = ScenarioError::NoProfiles.to_string();
        assert!(display.contains("no tenant profiles"));
        let unknown = ScenarioError::UnknownTenant(TenantId(7)).to_string();
        assert!(unknown.contains("tenant#7"));
        let empty_mix = ScenarioError::EmptyMix(TenantId(5)).to_string();
        assert!(empty_mix.contains("tenant#5"));
    }
}
