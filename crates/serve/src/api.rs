//! The typed request/response surface of the serve engine.

use crate::config::TenantId;
use sisg_core::{CoreError, Recommendation};
use sisg_corpus::schema::ItemFeature;
use sisg_corpus::ItemId;

/// One serving query. The two variants are the paper's two online paths:
/// candidate lookup after a click (warm artifact or Eq. 6 cold fallback)
/// and demographic-only cold-user matching (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeRequest {
    /// Candidates to show after a click on `item`. `si_values` is the
    /// item's catalog side information, consulted only when the item is
    /// cold (Eq. 6 inference).
    Candidates {
        /// The clicked item.
        item: ItemId,
        /// The item's SI values, one per [`ItemFeature`] slot.
        si_values: [u32; ItemFeature::COUNT],
        /// Candidates requested.
        k: usize,
    },
    /// Candidates for a history-less user known only by demographics.
    ColdUser {
        /// Gender bucket, if known.
        gender: Option<u8>,
        /// Age bucket, if known.
        age: Option<u8>,
        /// Purchase-power bucket, if known.
        purchase: Option<u8>,
        /// Candidates requested.
        k: usize,
    },
}

impl ServeRequest {
    /// Candidates requested by this query.
    pub fn k(&self) -> usize {
        match self {
            ServeRequest::Candidates { k, .. } | ServeRequest::ColdUser { k, .. } => *k,
        }
    }

    /// Tags this request with a tenant. Requests submitted without a tag
    /// are attributed to [`TenantId::DEFAULT`].
    pub fn for_tenant(self, tenant: TenantId) -> TenantRequest {
        TenantRequest {
            tenant,
            request: self,
        }
    }
}

/// A [`ServeRequest`] tagged with the tenant it belongs to. Engine entry
/// points take `impl Into<TenantRequest>`, so existing callers passing a
/// bare [`ServeRequest`] keep compiling and are attributed to
/// [`TenantId::DEFAULT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantRequest {
    /// The tenant this request is accounted against.
    pub tenant: TenantId,
    /// The query itself.
    pub request: ServeRequest,
}

impl From<ServeRequest> for TenantRequest {
    fn from(request: ServeRequest) -> Self {
        TenantRequest {
            tenant: TenantId::DEFAULT,
            request,
        }
    }
}

/// A successful answer from the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The ranked candidate list (may be shorter than `k` for thin
    /// catalogs or short warm lists).
    pub recommendations: Vec<Recommendation>,
    /// The snapshot epoch that answered — bumps on every hot-swap, so a
    /// load generator can watch a new model roll in.
    pub epoch: u64,
    /// The shard (worker) that served the request.
    pub shard: usize,
    /// True when a cold-path answer came from the admission-gated cache.
    pub cache_hit: bool,
    /// The tenant this response was accounted against
    /// ([`TenantId::DEFAULT`] for untagged traffic).
    pub tenant: TenantId,
}

/// Every way a request can fail. No panic is reachable from the public
/// API: malformed queries, budget sheds, and shutdown all come back here.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request was structurally invalid for the served model
    /// (unknown item, out-of-range SI value, unmatched demographics).
    Rejected(CoreError),
    /// Never returned: the tenant budget slot is the engine's only shed
    /// rule ([`ServeError::SloBudgetExhausted`]), and every queued task
    /// holds one, so no shard queue can fill. Kept only until its last
    /// outside match arm is gone.
    Overloaded {
        /// The saturated shard.
        shard: usize,
    },
    /// The tenant's in-flight budget on the target shard is exhausted —
    /// the request is shed against the tenant's own SLO budget, leaving
    /// other tenants' slots untouched.
    SloBudgetExhausted {
        /// The tenant whose budget ran out.
        tenant: TenantId,
        /// The shard the request was headed for.
        shard: usize,
    },
    /// The request was tagged with a tenant id absent from the engine's
    /// tenant table.
    UnknownTenant(TenantId),
    /// The engine (or the target worker) has shut down.
    Disconnected,
    /// The OS refused to spawn a worker thread at engine start.
    Spawn,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(e) => write!(f, "request rejected: {e}"),
            ServeError::Overloaded { shard } => {
                write!(f, "shard {shard} queue full — request shed")
            }
            ServeError::SloBudgetExhausted { tenant, shard } => {
                write!(
                    f,
                    "{tenant} budget exhausted on shard {shard} — request shed"
                )
            }
            ServeError::UnknownTenant(tenant) => {
                write!(f, "{tenant} is not in the engine's tenant table")
            }
            ServeError::Disconnected => write!(f, "serve engine is shut down"),
            ServeError::Spawn => write!(f, "could not spawn a worker thread"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Rejected(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let rejected = ServeError::Rejected(CoreError::UnknownItem(ItemId(9)));
        assert!(rejected.to_string().contains('9'));
        let shed = ServeError::SloBudgetExhausted {
            tenant: TenantId(4),
            shard: 1,
        };
        assert!(shed.to_string().contains("tenant#4"));
        assert!(shed.to_string().contains("shard 1"));
        let unknown = ServeError::UnknownTenant(TenantId(8));
        assert!(unknown.to_string().contains("tenant#8"));
    }

    #[test]
    fn untagged_requests_land_on_the_default_tenant() {
        let req = ServeRequest::ColdUser {
            gender: None,
            age: None,
            purchase: None,
            k: 5,
        };
        let tagged: TenantRequest = req.into();
        assert_eq!(tagged.tenant, TenantId::DEFAULT);
        assert_eq!(tagged.request, req);
        assert_eq!(req.for_tenant(TenantId(3)).tenant, TenantId(3));
    }

    #[test]
    fn k_reads_both_variants() {
        let a = ServeRequest::Candidates {
            item: ItemId(0),
            si_values: [0; ItemFeature::COUNT],
            k: 7,
        };
        let b = ServeRequest::ColdUser {
            gender: None,
            age: None,
            purchase: None,
            k: 9,
        };
        assert_eq!(a.k(), 7);
        assert_eq!(b.k(), 9);
    }
}
