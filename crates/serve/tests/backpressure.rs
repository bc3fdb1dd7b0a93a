//! Deterministic backpressure on the one shed rule. A tenantless engine
//! serves its implicit `default` tenant, which owns every queue slot: an
//! uncollected response sheds the next request against that tenant's
//! budget. An abandoned response keeps its slot until the worker has run
//! its task, so it sheds only its own tenant, never a neighbour. The
//! tenantless test is the only one here on the `default` slice: every
//! tenantless engine in a process shares `serve.tenant.default.*`, so
//! other engine tests would race the exact counts below.

use sisg_core::{MatchingService, ServingConfig, SisgModel, Variant};
use sisg_corpus::{CorpusConfig, GeneratedCorpus, ItemId};
use sisg_serve::{
    ServeEngine, ServeEngineConfig, ServeEngineConfigBuilder, ServeError, ServeRequest,
    TenantConfig, TenantId,
};
use sisg_sgns::SgnsConfig;

fn engine(corpus: &GeneratedCorpus, config: ServeEngineConfigBuilder) -> ServeEngine {
    let (model, _) = SisgModel::train(
        corpus,
        Variant::SisgFU,
        &SgnsConfig {
            dim: 16,
            epochs: 1,
            threads: 1,
            ..Default::default()
        },
    )
    .expect("train");
    let clicks = vec![1u64; corpus.config.n_items as usize];
    let service = MatchingService::build(
        model,
        corpus.users.clone(),
        &clicks,
        ServingConfig {
            k: 20,
            min_clicks_for_warm: 1,
        },
    )
    .expect("build");
    let config = config
        .n_shards(1)
        .cache_capacity(0)
        .build()
        .expect("valid config");
    ServeEngine::start(service, config).expect("engine starts")
}

fn item_zero(corpus: &GeneratedCorpus) -> ServeRequest {
    ServeRequest::Candidates {
        item: ItemId(0),
        si_values: *corpus.catalog.si_values(ItemId(0)),
        k: 5,
    }
}

#[test]
fn a_held_response_sheds_the_next_request_on_budget() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let req = item_zero(&corpus);

    // A held response sheds the next request with SloBudgetExhausted:
    // the default tenant's one slot is taken, whatever the worker does.
    let one_slot = engine(&corpus, ServeEngineConfig::builder().queue_capacity(1));
    let rows = one_slot.tenant_stats();
    assert_eq!(rows.len(), 1, "a tenantless engine reports one tenant");
    assert_eq!(
        (rows[0].tenant, rows[0].label.as_str()),
        (TenantId::DEFAULT, "default")
    );
    let held = one_slot.submit(req).expect("the one slot is free");
    let err = one_slot.submit(req).expect_err("the one slot is held");
    assert_eq!(
        err,
        ServeError::SloBudgetExhausted {
            tenant: TenantId::DEFAULT,
            shard: 0
        }
    );
    // Collecting the response frees the slot.
    assert_eq!(held.wait().expect("held request completes").shard, 0);
    let resp = one_slot.serve(req).expect("slot freed after collection");
    assert_eq!(resp.tenant, TenantId::DEFAULT);
    let row = &one_slot.tenant_stats()[0];
    assert_eq!((row.requests, row.shed, row.warm_hits), (2, 1, 2));
}

#[test]
fn an_abandoned_response_sheds_only_its_own_tenant() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let req = item_zero(&corpus);
    let (a, b) = (TenantId(1), TenantId(2));
    // A 2-deep shard split into one slot for each tenant.
    let engine = engine(
        &corpus,
        ServeEngineConfig::builder()
            .queue_capacity(2)
            .tenant(TenantConfig::new(a, "bp_abandoner"))
            .tenant(TenantConfig::new(b, "bp_neighbour")),
    );

    // The hold returns once the worker is parked, so the queue is empty.
    // A's abandoned task stays queued and keeps A's one slot: A's next
    // submit sheds against A's own budget.
    let hold = engine.hold_shard(0).expect("hold accepted");
    drop(engine.submit(req.for_tenant(a)).expect("A's slot is free"));
    let err = engine
        .submit(req.for_tenant(a))
        .expect_err("the abandoned task still holds A's slot");
    assert_eq!(
        err,
        ServeError::SloBudgetExhausted {
            tenant: a,
            shard: 0
        }
    );

    // B's slot is untouched by A's abandoned task, and the queue has room
    // for every slot, so B is admitted and answered once the hold drops.
    let pending = engine
        .submit(req.for_tenant(b))
        .expect("A's abandoned task cannot shed B");
    drop(hold);
    assert_eq!(pending.wait().expect("B is answered").tenant, b);

    // The queue is FIFO: B's answer came after the worker ran A's
    // abandoned task, whose failed reply freed A's slot, so A is admitted
    // again without waiting.
    let resp = engine
        .serve(req.for_tenant(a))
        .expect("the worker freed A's slot");
    assert!(!resp.recommendations.is_empty());
    let rows = engine.tenant_stats();
    assert_eq!(
        (rows[1].tenant, rows[1].requests, rows[1].shed),
        (b, 1, 0),
        "the neighbour was never shed"
    );
    assert_eq!(
        (rows[0].tenant, rows[0].requests, rows[0].shed),
        (a, 2, 1),
        "the abandoned task still ran, and A alone paid for its slot"
    );
}
