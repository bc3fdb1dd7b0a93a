//! Cross-crate smoke test of the online loop: train on the tiny corpus,
//! build the matching service, serve it from a tenantless engine (its
//! implicit `default` tenant), publish a streamed model into that engine,
//! then run the standard scenario matrix on a tenanted engine and check
//! its per-tenant verdicts.

use sisg_scenario::{engine_config, run_scenario, standard_matrix, ScenarioConfig};
use sisg_stream::{IngestPipeline, StreamConfig};
use taobao_sisg::core::{MatchingService, ServingConfig, SisgModel, Variant};
use taobao_sisg::corpus::{CorpusConfig, GeneratedCorpus, ItemId};
use taobao_sisg::serve::{ServeEngine, ServeEngineConfig, ServeRequest, TenantId};
use taobao_sisg::sgns::SgnsConfig;

#[test]
fn train_serve_publish_and_scenario_verdicts() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let sgns = SgnsConfig {
        dim: 16,
        window: 3,
        negatives: 3,
        epochs: 1,
        ..Default::default()
    };
    let serving = ServingConfig {
        k: 20,
        min_clicks_for_warm: 3,
    };
    let clicks = corpus.sessions.item_clicks(corpus.config.n_items);
    let service = |seed| {
        let sgns = SgnsConfig {
            seed,
            ..sgns.clone()
        };
        let (model, _) = SisgModel::train(&corpus, Variant::SisgFU, &sgns).expect("train");
        MatchingService::build(model, corpus.users.clone(), &clicks, serving).expect("build")
    };

    // Serve: a tenantless engine answers as its implicit default tenant.
    let engine = ServeEngine::start(
        service(1),
        ServeEngineConfig::builder()
            .n_shards(2)
            .build()
            .expect("valid"),
    )
    .expect("engine starts");
    let requests: Vec<ServeRequest> = (0..8)
        .map(ItemId)
        .map(|item| ServeRequest::Candidates {
            item,
            si_values: *corpus.catalog.si_values(item),
            k: 10,
        })
        .collect();
    for &req in &requests {
        let resp = engine.serve(req).expect("serve");
        assert_eq!(resp.epoch, 0);
        assert_eq!(resp.tenant, TenantId::DEFAULT);
        assert!(!resp.recommendations.is_empty());
    }
    let rows = engine.tenant_stats();
    assert_eq!(rows.len(), 1, "one implicit tenant");
    assert_eq!(rows[0].label, "default");
    assert!(rows[0].requests >= requests.len() as u64);

    // Publish: a streamed model lands in the running engine.
    let mut pipeline = IngestPipeline::new(
        corpus.catalog.clone(),
        corpus.users.clone(),
        StreamConfig {
            sgns: sgns.clone(),
            serving,
            ..Default::default()
        },
    )
    .expect("stream config");
    pipeline
        .warm_start(&corpus.sessions)
        .expect("warm start folds the corpus");
    assert_eq!(pipeline.publish(&engine, 0).expect("publish"), 1);
    let resp = engine.serve(requests[0]).expect("serve after publish");
    assert_eq!(resp.epoch, 1);

    // Scenario: the adversary sheds against its own budget alone.
    let profiles = standard_matrix();
    let tenanted = ServeEngine::start(service(1), engine_config(&profiles).expect("valid"))
        .expect("engine starts");
    let report = run_scenario(
        &corpus,
        &tenanted,
        &profiles,
        &ScenarioConfig { ticks: 12, seed: 7 },
    )
    .expect("scenario runs");
    for t in &report.tenants {
        assert_eq!(t.submitted, t.completed + t.shed, "{}", t.label);
        assert_eq!(t.verdict.shed_ok, t.label != "adversarial", "{}", t.label);
    }
    assert!(report
        .tenant("head_heavy")
        .expect("tenant")
        .verdict
        .all_ok());
}
