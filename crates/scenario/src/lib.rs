//! Deterministic multi-tenant traffic scenarios for the serve engine.
//!
//! A production matching tier never serves one workload: the homepage
//! browse feed, a cold-start-heavy "new arrivals" surface, a flash-sale
//! promo page, and the occasional abusive integration all hit the same
//! engine at once, and each owner cares only about *their own* latency,
//! shed rate, and CTR. This crate turns that setting into a reproducible
//! harness:
//!
//! - [`TenantProfile`] names a workload: a
//!   [`TenantConfig`](sisg_serve::TenantConfig) (identity, shed/cache
//!   shares, SI-weighting mode), a [`RequestMix`], a seeded
//!   [`ArrivalProcess`], a candidate count `k`, and a declared
//!   [`TenantSlo`].
//! - [`run_scenario`] drives every profile concurrently against one
//!   [`ServeEngine`](sisg_serve::ServeEngine) in deterministic ticks —
//!   submit every tenant's arrivals for the tick, then collect every
//!   response — so shed decisions depend only on submission order and
//!   per-tenant budget slots, never on worker timing.
//! - [`ScenarioReport`] slices the outcome per tenant (p99 latency from
//!   the tenant's `serve.tenant.<label>.request.ns` histogram, shed rate
//!   from scenario-local counters, CTR from the eval click model) and
//!   judges each tenant against its own SLO.
//!
//! Everything is seeded: the same corpus, engine config, profiles, and
//! [`ScenarioConfig`] reproduce the same per-tenant request streams, the
//! same shed counts, and the same [`ScenarioReport::trace_hash`], which
//! is what lets CI pin scenario outcomes.

#![warn(missing_docs)]

pub mod profile;
pub mod runner;

pub use profile::{
    adversarial_hot_key, cold_start_heavy, head_heavy, promo_burst, standard_matrix,
    ArrivalProcess, RequestMix, TenantProfile, TenantSlo,
};
pub use runner::{
    engine_config, run_scenario, ScenarioConfig, ScenarioError, ScenarioReport, SloVerdict,
    TenantOutcome,
};
