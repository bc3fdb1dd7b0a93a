//! The metric-name catalog.
//!
//! Every metric an instrumented crate records is named here, once, so call
//! sites can't typo a name and tooling can enumerate the full surface.
//! `docs/OBSERVABILITY.md` documents each entry; the
//! `metrics_catalog` integration test in `crates/bench` runs instrumented
//! workloads and cross-checks every name that shows up in a snapshot
//! against that document.

/// Skip-gram pairs trained (positives; negatives are `negatives ×` this).
pub const SGNS_PAIRS_TOTAL: &str = "sgns.pairs_total";
/// Tokens kept after subsampling, summed over epochs and threads.
pub const SGNS_TOKENS_TOTAL: &str = "sgns.tokens_total";
/// Tokens removed by Mikolov subsampling.
pub const SGNS_TOKENS_DROPPED_TOTAL: &str = "sgns.tokens_dropped_total";
/// Skip-gram pairs trained by the kinds of their tokens, flushed per
/// epoch: item→item, item↔SI, SI↔SI, and any pair with a user type. They
/// sum to `sgns.pairs_total`.
pub const SGNS_PAIR_KINDS_TOTAL: [&str; 4] = [
    "sgns.pairs.item_item_total",
    "sgns.pairs.item_si_total",
    "sgns.pairs.si_si_total",
    "sgns.pairs.user_total",
];
/// Exponential moving average of the per-pair SGNS loss.
pub const SGNS_LOSS_EMA: &str = "sgns.loss_ema";
/// Effective (decayed) learning rate at the last flush.
pub const SGNS_LR: &str = "sgns.lr";
/// Fraction of corpus tokens dropped by subsampling, `0.0..=1.0`.
pub const SGNS_SUBSAMPLE_DROP_RATE: &str = "sgns.subsample_drop_rate";
/// Positive pairs per second of the last completed training run.
pub const SGNS_PAIRS_PER_SEC: &str = "sgns.pairs_per_sec";
/// Surviving tokens per second of the last completed training run.
pub const SGNS_TOKENS_PER_SEC: &str = "sgns.tokens_per_sec";
/// Span: one SGNS training run (`sisg_sgns::train*`).
pub const SGNS_TRAIN_SPAN: &str = "sgns.train";

/// EGES skip-gram pairs trained over random-walk windows.
pub const EGES_PAIRS_TOTAL: &str = "eges.pairs_total";
/// Random-walk tokens consumed by the EGES trainer.
pub const EGES_TOKENS_TOTAL: &str = "eges.tokens_total";
/// Effective (decayed) learning rate at the last flush.
pub const EGES_LR: &str = "eges.lr";
/// Span: one EGES training run.
pub const EGES_TRAIN_SPAN: &str = "eges.train";

/// Pairs trained across all distributed workers.
pub const DIST_PAIRS_TOTAL: &str = "dist.pairs_total";
/// Pairs whose context vector lived on a remote HBGP partition.
pub const DIST_REMOTE_PAIRS_TOTAL: &str = "dist.remote_pairs_total";
/// `remote / total` pair ratio — the HBGP cut quality as trained.
pub const DIST_REMOTE_FRACTION: &str = "dist.remote_fraction";
/// `max / mean` per-worker pair count — step skew across workers.
pub const DIST_PAIR_IMBALANCE: &str = "dist.pair_imbalance";
/// Fraction of corpus transitions cut by the partitioner.
pub const DIST_CUT_FRACTION: &str = "dist.cut_fraction";
/// Hot-set replica synchronization rounds.
pub const DIST_SYNC_ROUNDS_TOTAL: &str = "dist.sync.rounds_total";
/// Bytes moved by hot-set replica synchronization.
pub const DIST_SYNC_BYTES_TOTAL: &str = "dist.sync.bytes_total";
/// Span: one hot-set synchronization barrier (leader-side).
pub const DIST_SYNC_SPAN: &str = "dist.sync";
/// Span: one shared-memory distributed training run.
pub const DIST_TRAIN_SPAN: &str = "dist.train";
/// Histogram: per-worker trained-pair counts (spread = step skew).
pub const DIST_WORKER_PAIRS: &str = "dist.worker.pairs";
/// Messages the message-passing TNS protocol's machines sent.
pub const DIST_CHANNEL_MESSAGES_TOTAL: &str = "dist.channel.messages_total";
/// Vector payload bytes in those messages.
pub const DIST_CHANNEL_PAYLOAD_BYTES_TOTAL: &str = "dist.channel.payload_bytes_total";
/// Messages dropped/duplicated/delayed by the deterministic fault injector.
pub const DIST_FAULTS_INJECTED_TOTAL: &str = "dist.faults_injected";
/// Remote TNS requests retransmitted after a response timeout.
pub const DIST_RETRIES_TOTAL: &str = "dist.retries";
/// Duplicate requests absorbed by the idempotency cache.
pub const DIST_REQUESTS_DEDUPED_TOTAL: &str = "dist.requests_deduped";
/// Worker restores from checkpoint (crash recovery + pipeline resumes).
pub const DIST_RECOVERIES_TOTAL: &str = "dist.recoveries";
/// Histograms: one Section III worker's wall time in each phase of the
/// block exchange, summed per sync round, in **nanoseconds**: scan (the
/// pair stream and the local steps), serve, apply, average, and
/// barrier wait (time outside the machine).
pub const DIST_PHASE_NS: [&str; 5] = [
    "dist.phase.scan.ns",
    "dist.phase.serve.ns",
    "dist.phase.apply.ns",
    "dist.phase.average.ns",
    "dist.phase.barrier_wait.ns",
];
/// Barrier wait's share of the workers' summed run time in the last
/// threaded Section III run.
pub const DIST_EXCHANGE_IDLE_SHARE: &str = "dist.exchange_idle_share";

/// Snapshot hot-swaps installed by the engine.
pub const SERVE_SWAPS_TOTAL: &str = "serve.swaps_total";
/// Admission-cache clears performed by workers after observing a new epoch.
pub const SERVE_CACHE_CLEARS_TOTAL: &str = "serve.cache_clears_total";
/// Histogram: in-worker request service time in **nanoseconds**. The one
/// deliberate exception to the `.us` convention: typical engine requests
/// finish in well under a microsecond (a cache hit is a map probe), so a
/// whole-µs histogram collapses every percentile into bucket 0; ns
/// resolution keeps p50/p90/p99 meaningful. Consumers divide by 1000.
pub const SERVE_REQUEST_NS: &str = "serve.request.ns";
/// Cold-path searches answered by the quantized cold index (an int8 scan
/// of the catalog + f32 re-rank of its shortlist) instead of an f32 scan.
pub const SERVE_QUANT_COLD_SEARCHES_TOTAL: &str = "serve.quant.cold_searches_total";
/// int8-shortlist items re-ranked with the exact f32 scorer, summed over
/// quantized cold-path searches (`max(ef_search, fetch)` per search).
pub const SERVE_QUANT_RERANKED_TOTAL: &str = "serve.quant.reranked_total";
/// Gauge: quantized payload bytes per item of the cold index (`dim` int8
/// weights + 4-byte scale; the index has no other per-item memory).
pub const SERVE_QUANT_BYTES_PER_ITEM: &str = "serve.quant.bytes_per_item";
/// Histogram: wall-clock **milliseconds** of one `ColdIndex` build (one
/// thread, one normalize-and-quantize pass) — once at engine start and
/// per snapshot built for `install` (a stream publish) under
/// `ColdPathMode::QuantAnn`.
pub const SERVE_COLD_INDEX_BUILD_MS: &str = "serve.cold_index.build_ms";

/// Prefix of the tenant-labeled `serve.tenant.<label>.<suffix>` family.
///
/// Unlike every other catalog entry, tenant metrics carry a runtime
/// label — the tenant name declared in the serve engine's
/// `TenantConfig` — so they are cataloged as *templates*: each suffix in
/// [`SERVE_TENANT_SUFFIXES`] is documented once in
/// `docs/OBSERVABILITY.md` with a literal `<label>` segment, and
/// [`split_tenant_metric`] decides whether a concrete emitted name
/// instantiates a declared template. Labels are validated by
/// [`is_valid_tenant_label`] (lowercase ascii, digits, `_`; nonempty) so
/// a tenant name can never collide with the `.`-separated catalog
/// grammar.
const SERVE_TENANT_PREFIX: &str = "serve.tenant.";

/// The declared per-tenant metric suffixes — the only names allowed
/// after `serve.tenant.<label>.`. They are the engine's only per-request
/// counters: each request is counted once, in its tenant's slice.
pub const SERVE_TENANT_SUFFIXES: &[&str] = &[
    "requests_total",
    "shed_total",
    "warm_hits_total",
    "cold_item_requests_total",
    "cold_user_requests_total",
    "cache_hits_total",
    "request.ns",
];

/// True when `label` is usable as the tenant segment of a metric name:
/// nonempty, lowercase ascii letters, digits, or underscores only.
pub fn is_valid_tenant_label(label: &str) -> bool {
    !label.is_empty()
        && label
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The concrete metric name for one tenant and one declared suffix, e.g.
/// `tenant_metric("browse", "shed_total")` → `serve.tenant.browse.shed_total`.
pub fn tenant_metric(label: &str, suffix: &str) -> String {
    let mut name =
        String::with_capacity(SERVE_TENANT_PREFIX.len() + label.len() + 1 + suffix.len());
    name.push_str(SERVE_TENANT_PREFIX);
    name.push_str(label);
    name.push('.');
    name.push_str(suffix);
    name
}

/// Splits a concrete `serve.tenant.<label>.<suffix>` name into its label
/// and suffix, returning `None` unless the label is valid and the suffix
/// is declared in [`SERVE_TENANT_SUFFIXES`].
pub fn split_tenant_metric(name: &str) -> Option<(&str, &str)> {
    let rest = name.strip_prefix(SERVE_TENANT_PREFIX)?;
    let (label, suffix) = rest.split_once('.')?;
    if is_valid_tenant_label(label) && SERVE_TENANT_SUFFIXES.contains(&suffix) {
        Some((label, suffix))
    } else {
        None
    }
}

/// Session events consumed by the streaming ingest pipeline.
pub const STREAM_EVENTS_TOTAL: &str = "stream.events_total";
/// Ingest batches folded into the incremental trainer.
pub const STREAM_BATCHES_TOTAL: &str = "stream.batches_total";
/// Serving snapshots frozen and published through the serve engine.
pub const STREAM_PUBLISHES_TOTAL: &str = "stream.publishes_total";
/// Vocabulary tokens admitted online (first nonzero frequency observed
/// after warm start, via the SI enrichment path).
pub const STREAM_VOCAB_ADMITTED_TOTAL: &str = "stream.vocab_admitted_total";
/// Histogram: event-to-servable freshness in microseconds — time from an
/// event's (virtual or real) arrival to the publication that made its
/// updates servable.
pub const STREAM_FRESHNESS_US: &str = "stream.freshness.us";
/// Span: one incremental training fold over an ingest batch.
pub const STREAM_TRAIN_SPAN: &str = "stream.train";

/// Histogram: int8 HNSW `search()` latency in microseconds (`crates/ann`;
/// the serve path does not call the index).
pub const ANN_SEARCH_US: &str = "ann.search.us";
/// Histogram: HNSW nodes visited per search (hops).
pub const ANN_HNSW_HOPS: &str = "ann.hnsw.hops";
/// Ground-truth + ANN probe queries issued by the recall harness.
pub const ANN_RECALL_PROBES_TOTAL: &str = "ann.recall.probes_total";
/// True-neighbor hits accumulated by the recall harness.
pub const ANN_RECALL_HITS_TOTAL: &str = "ann.recall.hits_total";

/// Every catalog name, including the `.us` histogram each span feeds.
/// Documentation tooling iterates this; there must be no duplicates.
pub const ALL: &[&str] = &[
    SGNS_PAIRS_TOTAL,
    SGNS_TOKENS_TOTAL,
    SGNS_TOKENS_DROPPED_TOTAL,
    SGNS_PAIR_KINDS_TOTAL[0],
    SGNS_PAIR_KINDS_TOTAL[1],
    SGNS_PAIR_KINDS_TOTAL[2],
    SGNS_PAIR_KINDS_TOTAL[3],
    SGNS_LOSS_EMA,
    SGNS_LR,
    SGNS_SUBSAMPLE_DROP_RATE,
    SGNS_PAIRS_PER_SEC,
    SGNS_TOKENS_PER_SEC,
    "sgns.train.us",
    EGES_PAIRS_TOTAL,
    EGES_TOKENS_TOTAL,
    EGES_LR,
    "eges.train.us",
    DIST_PAIRS_TOTAL,
    DIST_REMOTE_PAIRS_TOTAL,
    DIST_REMOTE_FRACTION,
    DIST_PAIR_IMBALANCE,
    DIST_CUT_FRACTION,
    DIST_SYNC_ROUNDS_TOTAL,
    DIST_SYNC_BYTES_TOTAL,
    "dist.sync.us",
    "dist.train.us",
    DIST_WORKER_PAIRS,
    DIST_CHANNEL_MESSAGES_TOTAL,
    DIST_CHANNEL_PAYLOAD_BYTES_TOTAL,
    DIST_FAULTS_INJECTED_TOTAL,
    DIST_RETRIES_TOTAL,
    DIST_REQUESTS_DEDUPED_TOTAL,
    DIST_RECOVERIES_TOTAL,
    DIST_PHASE_NS[0],
    DIST_PHASE_NS[1],
    DIST_PHASE_NS[2],
    DIST_PHASE_NS[3],
    DIST_PHASE_NS[4],
    DIST_EXCHANGE_IDLE_SHARE,
    SERVE_SWAPS_TOTAL,
    SERVE_CACHE_CLEARS_TOTAL,
    SERVE_REQUEST_NS,
    SERVE_QUANT_COLD_SEARCHES_TOTAL,
    SERVE_QUANT_RERANKED_TOTAL,
    SERVE_QUANT_BYTES_PER_ITEM,
    SERVE_COLD_INDEX_BUILD_MS,
    STREAM_EVENTS_TOTAL,
    STREAM_BATCHES_TOTAL,
    STREAM_PUBLISHES_TOTAL,
    STREAM_VOCAB_ADMITTED_TOTAL,
    STREAM_FRESHNESS_US,
    "stream.train.us",
    ANN_SEARCH_US,
    ANN_HNSW_HOPS,
    ANN_RECALL_PROBES_TOTAL,
    ANN_RECALL_HITS_TOTAL,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn tenant_metric_round_trips_through_split() {
        for suffix in super::SERVE_TENANT_SUFFIXES {
            let name = super::tenant_metric("promo_burst", suffix);
            assert_eq!(
                super::split_tenant_metric(&name),
                Some(("promo_burst", *suffix)),
                "round trip failed for {name}"
            );
        }
        assert_eq!(
            super::tenant_metric("browse", "shed_total"),
            "serve.tenant.browse.shed_total"
        );
    }

    #[test]
    fn split_tenant_metric_rejects_non_template_names() {
        for bad in [
            "serve.swaps_total",               // no tenant prefix
            "serve.tenant.browse.bogus_total", // undeclared suffix
            "serve.tenant..shed_total",        // empty label
            "serve.tenant.Browse.shed_total",  // uppercase label
            "serve.tenant.a-b.shed_total",     // dash in label
            "serve.tenant.browse",             // missing suffix
            "serve.tenant.browse.request",     // truncated declared suffix
            "stream.tenant.browse.shed_total", // wrong family
        ] {
            assert_eq!(super::split_tenant_metric(bad), None, "accepted {bad}");
        }
        // `request.ns` itself contains a dot; the split must treat the
        // first dot after the label as the boundary and still match.
        assert_eq!(
            super::split_tenant_metric("serve.tenant.t0.request.ns"),
            Some(("t0", "request.ns"))
        );
    }

    #[test]
    fn tenant_label_validation_matches_catalog_grammar() {
        assert!(super::is_valid_tenant_label("head_heavy"));
        assert!(super::is_valid_tenant_label("t0"));
        assert!(!super::is_valid_tenant_label(""));
        assert!(!super::is_valid_tenant_label("Head"));
        assert!(!super::is_valid_tenant_label("a.b"));
        assert!(!super::is_valid_tenant_label("a b"));
    }

    #[test]
    fn catalog_has_no_duplicates_and_sane_names() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(name), "duplicate catalog entry {name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "bad metric name {name}"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'));
        }
    }

    #[test]
    fn span_names_have_their_us_histograms_in_all() {
        for span in [
            super::SGNS_TRAIN_SPAN,
            super::EGES_TRAIN_SPAN,
            super::DIST_SYNC_SPAN,
            super::DIST_TRAIN_SPAN,
            super::STREAM_TRAIN_SPAN,
        ] {
            let us = format!("{span}.us");
            assert!(
                ALL.contains(&us.as_str()),
                "span {span} missing {us} in ALL"
            );
        }
    }
}
