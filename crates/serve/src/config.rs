//! Engine configuration, built through a validating builder so a zero
//! shard count, zero-capacity queue, or malformed tenant table is a typed
//! build-time error, never a mid-request assertion.
//!
//! The tenant table (DESIGN.md §13) declares the workloads one engine
//! serves concurrently: each [`TenantConfig`] names a tenant, weights its
//! share of the shed budget and the admission cache, and fixes its
//! cold-path SI aggregation mode. An engine declared without a table
//! serves one implicit `default` tenant that owns the whole queue and
//! cache. The builder is the only construction path outside this crate —
//! fields are private and every invalid shape (duplicate tenant ids,
//! zero-share shed budgets, labels that do not fit the metric-catalog
//! grammar, budget oversubscription) is rejected with a typed
//! [`CoreError::InvalidConfig`].

use sisg_core::{CoreError, SiAggregation};
use sisg_obs::names::is_valid_tenant_label;

/// How a snapshot answers cold-item / cold-user requests (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdPathMode {
    /// Exact brute-force scan over the full f32 item matrix.
    BruteForce,
    /// A scan of an int8 scale-per-row copy of the unit-norm item matrix
    /// (68 B/item at d64 against 256 B for the f32 row), with an exact f32
    /// re-rank of its shortlist so final scores match the brute-force path
    /// bit-for-bit on the items both return.
    QuantAnn {
        /// int8 shortlist re-ranked at f32: a query keeps its best
        /// `max(ef_search, fetch)` items by int8 score. Must be ≥ 1.
        ef_search: usize,
    },
}

/// Identity of a serving tenant. Tenant ids are caller-chosen small
/// integers; untagged requests carry [`TenantId::DEFAULT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant untagged requests are attributed to, and the id of the
    /// implicit `default` tenant an engine declared without a tenant table
    /// serves.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// One tenant's declared serving contract: identity, metric label, shed
/// and cache shares, and cold-path SI aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Tenant identity; must be unique within the engine's tenant table.
    pub id: TenantId,
    /// Metric label — the `<label>` segment of the tenant's
    /// `serve.tenant.<label>.*` metric family. Must be unique and fit the
    /// catalog grammar (lowercase ascii, digits, `_`; nonempty).
    pub label: String,
    /// Relative share of the engine's shed budget (in-flight request
    /// slots per shard). Must be nonzero: a zero-share tenant would be
    /// shed on every request, which is a misconfiguration, not a policy.
    pub shed_budget: u32,
    /// Relative share of each worker's admission-cache capacity. Zero is
    /// allowed and disables caching for this tenant.
    pub cache_share: u32,
    /// How the cold-item path aggregates SI token vectors for this
    /// tenant: the plain Eq. 6 sum, or the EGES-style norm-weighted
    /// average (see [`SiAggregation`]).
    pub si_weighting: SiAggregation,
}

impl TenantConfig {
    /// A tenant with the default contract: equal shed and cache shares
    /// and Eq. 6 sum aggregation.
    pub fn new(id: TenantId, label: impl Into<String>) -> Self {
        Self {
            id,
            label: label.into(),
            shed_budget: 1,
            cache_share: 1,
            si_weighting: SiAggregation::Sum,
        }
    }

    /// Sets the relative shed-budget share.
    pub fn shed_budget(mut self, weight: u32) -> Self {
        self.shed_budget = weight;
        self
    }

    /// Sets the relative admission-cache share.
    pub fn cache_share(mut self, weight: u32) -> Self {
        self.cache_share = weight;
        self
    }

    /// Sets the cold-path SI aggregation mode.
    pub fn si_weighting(mut self, mode: SiAggregation) -> Self {
        self.si_weighting = mode;
        self
    }
}

/// Tuning knobs of the sharded engine. Construct through
/// [`ServeEngineConfig::builder`]; fields are private so the builder's
/// validation cannot be bypassed by a struct literal.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEngineConfig {
    n_shards: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    cache_admit_after: u32,
    cold_path: ColdPathMode,
    tenants: Vec<TenantConfig>,
}

impl Default for ServeEngineConfig {
    fn default() -> Self {
        Self {
            n_shards: 8,
            queue_capacity: 64,
            cache_capacity: 1024,
            cache_admit_after: 2,
            cold_path: ColdPathMode::BruteForce,
            tenants: Vec::new(),
        }
    }
}

impl ServeEngineConfig {
    /// Starts a validated builder with the default configuration.
    pub fn builder() -> ServeEngineConfigBuilder {
        ServeEngineConfigBuilder {
            config: Self::default(),
        }
    }

    /// Worker threads; candidate lists are item-sharded across them.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Per-shard in-flight request bound, split into the tenants' budget
    /// slots. Every queued task holds a slot, so no shard queue ever holds
    /// more; a tenant whose slots are taken is shed with
    /// [`ServeError::SloBudgetExhausted`](crate::ServeError::SloBudgetExhausted)
    /// instead of blocking.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Cold-path cache entries per shard; `0` disables caching.
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// Times a cold key must be seen before its answer is admitted to the
    /// cache.
    pub fn cache_admit_after(&self) -> u32 {
        self.cache_admit_after
    }

    /// Cold-path execution strategy of the snapshot [`start`] builds; a
    /// snapshot handed to [`install`] was built with its own.
    ///
    /// [`start`]: crate::ServeEngine::start
    /// [`install`]: crate::ServeEngine::install
    pub fn cold_path(&self) -> ColdPathMode {
        self.cold_path
    }

    /// The tenant table. A table declared empty is resolved by
    /// [`ServeEngine::start`](crate::ServeEngine::start) to one implicit
    /// tenant, `TenantConfig::new(TenantId::DEFAULT, "default")`, so the
    /// config a running engine reports always lists the tenants it serves.
    pub fn tenants(&self) -> &[TenantConfig] {
        &self.tenants
    }

    /// The config an engine runs: this one, or — when no tenant was
    /// declared — this one with the implicit `default` tenant, which then
    /// owns every queue slot and the whole cache.
    pub(crate) fn with_implicit_tenant(mut self) -> Self {
        if self.tenants.is_empty() {
            self.tenants
                .push(TenantConfig::new(TenantId::DEFAULT, "default"));
        }
        self
    }

    /// Per-tenant shed-budget slots: each tenant gets
    /// `max(1, floor(queue_capacity · share / Σ shares))` in-flight
    /// request slots per shard. Parallel to [`tenants`](Self::tenants).
    pub fn tenant_budget_slots(&self) -> Vec<usize> {
        let total: u64 = self.tenants.iter().map(|t| t.shed_budget as u64).sum();
        self.tenants
            .iter()
            .map(|t| {
                // `total` ≥ 1 here: validation rejects zero shares before
                // it sums the slots.
                let exact = (self.queue_capacity as u64 * t.shed_budget as u64) / total;
                (exact as usize).max(1)
            })
            .collect()
    }

    /// Per-tenant admission-cache capacities (entries per worker):
    /// `floor(cache_capacity · share / Σ shares)`; zero disables caching
    /// for that tenant. Parallel to [`tenants`](Self::tenants).
    pub fn tenant_cache_capacities(&self) -> Vec<usize> {
        let total: u64 = self.tenants.iter().map(|t| t.cache_share as u64).sum();
        self.tenants
            .iter()
            .map(|t| {
                (self.cache_capacity as u64 * t.cache_share as u64)
                    .checked_div(total)
                    .unwrap_or(0) as usize
            })
            .collect()
    }

    /// Validates the configuration. [`ServeEngine::start`] re-checks, so
    /// an in-crate struct literal cannot bypass the builder's guarantees.
    ///
    /// [`ServeEngine::start`]: crate::ServeEngine::start
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.n_shards == 0 {
            return Err(CoreError::InvalidConfig {
                field: "n_shards",
                reason: "must be at least 1",
            });
        }
        if self.queue_capacity == 0 {
            return Err(CoreError::InvalidConfig {
                field: "queue_capacity",
                reason: "must be at least 1",
            });
        }
        if self.cache_admit_after == 0 {
            return Err(CoreError::InvalidConfig {
                field: "cache_admit_after",
                reason: "must be at least 1",
            });
        }
        if let ColdPathMode::QuantAnn { ef_search: 0 } = self.cold_path {
            return Err(CoreError::InvalidConfig {
                field: "cold_path.ef_search",
                reason: "must be at least 1",
            });
        }
        let mut ids = std::collections::BTreeSet::new();
        let mut labels = std::collections::BTreeSet::new();
        for tenant in &self.tenants {
            if !ids.insert(tenant.id) {
                return Err(CoreError::InvalidConfig {
                    field: "tenants.id",
                    reason: "duplicate tenant id",
                });
            }
            if !is_valid_tenant_label(&tenant.label) {
                return Err(CoreError::InvalidConfig {
                    field: "tenants.label",
                    reason: "must be nonempty lowercase ascii, digits, or '_'",
                });
            }
            if !labels.insert(tenant.label.clone()) {
                return Err(CoreError::InvalidConfig {
                    field: "tenants.label",
                    reason: "duplicate tenant label",
                });
            }
            if tenant.shed_budget == 0 {
                return Err(CoreError::InvalidConfig {
                    field: "tenants.shed_budget",
                    reason: "must be nonzero; a zero-share tenant is shed on every request",
                });
            }
        }
        // Budget slots are the engine's only shed rule, and every queued
        // task holds one, so this bound is the bound on each shard's
        // queue depth.
        let slots: usize = self.tenant_budget_slots().iter().sum();
        if slots > self.queue_capacity {
            return Err(CoreError::InvalidConfig {
                field: "tenants.shed_budget",
                reason: "summed per-tenant budget slots exceed queue_capacity; \
                         raise queue_capacity or reduce the tenant count",
            });
        }
        Ok(())
    }
}

/// Builder for [`ServeEngineConfig`].
#[derive(Debug, Clone)]
pub struct ServeEngineConfigBuilder {
    config: ServeEngineConfig,
}

impl ServeEngineConfigBuilder {
    /// Worker threads (item shards).
    pub fn n_shards(mut self, n: usize) -> Self {
        self.config.n_shards = n;
        self
    }

    /// Per-shard in-flight request bound, split into budget slots.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.config.queue_capacity = cap;
        self
    }

    /// Cold-path cache entries per shard (`0` disables caching).
    pub fn cache_capacity(mut self, cap: usize) -> Self {
        self.config.cache_capacity = cap;
        self
    }

    /// Cold-key sightings required before admission to the cache.
    pub fn cache_admit_after(mut self, n: u32) -> Self {
        self.config.cache_admit_after = n;
        self
    }

    /// Cold-path execution strategy (f32 brute force vs int8 scan + f32
    /// re-rank).
    pub fn cold_path(mut self, mode: ColdPathMode) -> Self {
        self.config.cold_path = mode;
        self
    }

    /// Replaces the tenant table.
    pub fn tenants(mut self, tenants: Vec<TenantConfig>) -> Self {
        self.config.tenants = tenants;
        self
    }

    /// Appends one tenant to the table.
    pub fn tenant(mut self, tenant: TenantConfig) -> Self {
        self.config.tenants.push(tenant);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ServeEngineConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_degenerate_configs() {
        for (build, field) in [
            (ServeEngineConfig::builder().n_shards(0).build(), "n_shards"),
            (
                ServeEngineConfig::builder().queue_capacity(0).build(),
                "queue_capacity",
            ),
            (
                ServeEngineConfig::builder().cache_admit_after(0).build(),
                "cache_admit_after",
            ),
            (
                ServeEngineConfig::builder()
                    .cold_path(ColdPathMode::QuantAnn { ef_search: 0 })
                    .build(),
                "cold_path.ef_search",
            ),
        ] {
            match build {
                Err(CoreError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn builder_rejects_duplicate_tenant_ids() {
        let err = ServeEngineConfig::builder()
            .tenant(TenantConfig::new(TenantId(1), "a"))
            .tenant(TenantConfig::new(TenantId(1), "b"))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig {
                field: "tenants.id",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_duplicate_tenant_labels() {
        let err = ServeEngineConfig::builder()
            .tenant(TenantConfig::new(TenantId(1), "same"))
            .tenant(TenantConfig::new(TenantId(2), "same"))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig {
                field: "tenants.label",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_invalid_tenant_labels() {
        for label in ["", "Upper", "has space", "dot.ted", "dash-ed"] {
            let err = ServeEngineConfig::builder()
                .tenant(TenantConfig::new(TenantId(1), label))
                .build()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::InvalidConfig {
                        field: "tenants.label",
                        ..
                    }
                ),
                "label {label:?} not rejected: {err:?}"
            );
        }
    }

    #[test]
    fn builder_rejects_zero_share_shed_budget() {
        let err = ServeEngineConfig::builder()
            .tenant(TenantConfig::new(TenantId(1), "a").shed_budget(0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig {
                field: "tenants.shed_budget",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_budget_oversubscription() {
        // queue_capacity 2 but 3 tenants: each gets the max(1, ·) floor
        // slot, summing past the queue.
        let err = ServeEngineConfig::builder()
            .queue_capacity(2)
            .tenant(TenantConfig::new(TenantId(1), "a"))
            .tenant(TenantConfig::new(TenantId(2), "b"))
            .tenant(TenantConfig::new(TenantId(3), "c"))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig {
                field: "tenants.shed_budget",
                ..
            }
        ));
    }

    #[test]
    fn budget_slots_split_the_queue_proportionally() {
        let cfg = ServeEngineConfig::builder()
            .queue_capacity(64)
            .tenant(TenantConfig::new(TenantId(1), "big").shed_budget(3))
            .tenant(TenantConfig::new(TenantId(2), "small").shed_budget(1))
            .build()
            .expect("valid");
        assert_eq!(cfg.tenant_budget_slots(), vec![48, 16]);
        let caches = ServeEngineConfig::builder()
            .cache_capacity(100)
            .tenant(TenantConfig::new(TenantId(1), "cached").cache_share(1))
            .tenant(TenantConfig::new(TenantId(2), "uncached").cache_share(0))
            .build()
            .expect("valid");
        assert_eq!(caches.tenant_cache_capacities(), vec![100, 0]);
        // Undeclared, the table resolves to one tenant owning everything.
        let implicit = ServeEngineConfig::builder()
            .queue_capacity(64)
            .cache_capacity(100)
            .build()
            .expect("valid")
            .with_implicit_tenant();
        assert_eq!(
            implicit.tenants(),
            &[TenantConfig::new(TenantId::DEFAULT, "default")]
        );
        assert_eq!(implicit.tenant_budget_slots(), vec![64]);
        assert_eq!(implicit.tenant_cache_capacities(), vec![100]);
    }

    #[test]
    fn builder_accepts_and_applies_overrides() {
        let cfg = ServeEngineConfig::builder()
            .n_shards(4)
            .queue_capacity(16)
            .cache_capacity(0)
            .cache_admit_after(3)
            .cold_path(ColdPathMode::QuantAnn { ef_search: 96 })
            .tenant(
                TenantConfig::new(TenantId(7), "promo")
                    .shed_budget(2)
                    .cache_share(3)
                    .si_weighting(sisg_core::SiAggregation::Weighted),
            )
            .build()
            .expect("valid");
        assert_eq!(cfg.n_shards(), 4);
        assert_eq!(cfg.queue_capacity(), 16);
        assert_eq!(cfg.cache_capacity(), 0);
        assert_eq!(cfg.cache_admit_after(), 3);
        assert_eq!(cfg.cold_path(), ColdPathMode::QuantAnn { ef_search: 96 });
        assert_eq!(cfg.tenants().len(), 1);
        assert_eq!(cfg.tenants()[0].id, TenantId(7));
        assert_eq!(
            cfg.tenants()[0].si_weighting,
            sisg_core::SiAggregation::Weighted
        );
        assert_eq!(
            ServeEngineConfig::default().cold_path(),
            ColdPathMode::BruteForce
        );
    }
}
