//! Deterministic backpressure on the one admission path. A tenantless
//! engine serves its implicit `default` tenant, which owns every queue
//! slot: an uncollected response sheds the next request against that
//! tenant's budget, and abandoned responses on a held shard fill the
//! queue until it sheds with `Overloaded`. Single test in its own binary:
//! every tenantless engine in a process shares the
//! `serve.tenant.default.*` slice, so other engine tests would race the
//! exact counts below.

use sisg_core::{MatchingService, ServingConfig, SisgModel, Variant};
use sisg_corpus::{CorpusConfig, GeneratedCorpus, ItemId};
use sisg_serve::{ServeEngine, ServeEngineConfig, ServeError, ServeRequest, TenantId};
use sisg_sgns::SgnsConfig;

fn engine(corpus: &GeneratedCorpus, queue_capacity: usize) -> ServeEngine {
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
    let config = ServeEngineConfig::builder()
        .n_shards(1)
        .queue_capacity(queue_capacity)
        .cache_capacity(0)
        .build()
        .expect("valid config");
    ServeEngine::start(service, config).expect("engine starts")
}

#[test]
fn held_responses_shed_on_budget_and_abandoned_ones_fill_the_queue() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let req = ServeRequest::Candidates {
        item: ItemId(0),
        si_values: *corpus.catalog.si_values(ItemId(0)),
        k: 5,
    };

    // A held response sheds the next request with SloBudgetExhausted:
    // the default tenant's one slot is taken, whatever the worker does.
    let one_slot = engine(&corpus, 1);
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
    assert_eq!(one_slot.stats().overloaded, 0, "the budget shed first");
    drop(one_slot);

    // Abandoned responses on a held shard end in Overloaded. The hold
    // returns once the worker is parked, so the 2-deep queue is empty. A
    // dropped response frees its budget slot but its task stays queued:
    // two abandoned submits fill the queue, and the third finds a free
    // slot and a full queue.
    let two_deep = engine(&corpus, 2);
    let hold = two_deep.hold_shard(0).expect("hold accepted");
    for _ in 0..2 {
        drop(two_deep.submit(req).expect("slot and queue space free"));
    }
    let err = two_deep.submit(req).expect_err("the queue is full");
    assert_eq!(err, ServeError::Overloaded { shard: 0 });
    assert_eq!(two_deep.stats().overloaded, 1);
    assert_eq!(two_deep.tenant_stats()[0].shed, 0, "no budget ran out");

    // Releasing the hold drains the abandoned tasks and the shard
    // recovers. A shed is transient by design: the worker may not have
    // been scheduled yet, so a brief retry loop is the client contract.
    drop(hold);
    let resp = loop {
        match two_deep.serve(req) {
            Ok(resp) => break resp,
            Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
            Err(other) => panic!("expected recovery, got {other}"),
        }
    };
    assert!(!resp.recommendations.is_empty());
    assert_eq!(
        two_deep.tenant_stats()[0].requests,
        3,
        "two abandoned tasks still ran, plus the recovery request"
    );
}
