//! Integration tests for the scenario harness: deterministic replay of
//! the standard matrix (pinned shed counts and trace hash per seed) and
//! the SLO isolation claim — the adversarial hot-key tenant sheds
//! against its own budget while the steady browse tenant's verdicts stay
//! green.

use sisg_core::{MatchingService, ServingConfig, SisgModel, Variant};
use sisg_corpus::{CorpusConfig, GeneratedCorpus};
use sisg_scenario::{
    engine_config, run_scenario, standard_matrix, ArrivalProcess, RequestMix, ScenarioConfig,
    ScenarioError, TenantProfile,
};
use sisg_serve::{ServeEngine, ServeEngineConfig, TenantId};
use sisg_sgns::SgnsConfig;

/// Deterministic training with a real cold tail, so every request class
/// in the matrix is exercised.
fn build_service(corpus: &GeneratedCorpus, seed: u64) -> MatchingService {
    let cfg = SgnsConfig {
        dim: 16,
        window: 3,
        negatives: 3,
        epochs: 1,
        seed,
        ..Default::default()
    };
    let (model, _) = SisgModel::train(corpus, Variant::SisgFU, &cfg).expect("train");
    MatchingService::build(
        model,
        corpus.users.clone(),
        &corpus.sessions.item_clicks(corpus.config.n_items),
        ServingConfig {
            k: 20,
            min_clicks_for_warm: 3,
        },
    )
    .expect("build")
}

fn start_engine(corpus: &GeneratedCorpus, profiles: &[TenantProfile]) -> ServeEngine {
    let config = engine_config(profiles).expect("standard matrix validates");
    ServeEngine::start(build_service(corpus, 1), config).expect("engine starts")
}

/// The adversarial tenant's deterministic shed count: all its requests
/// route to one shard, so each tick accepts exactly its per-shard slot
/// count and sheds the rest.
fn expected_adversarial_shed(profiles: &[TenantProfile], ticks: u32) -> u64 {
    let config = engine_config(profiles).expect("valid");
    let (idx, profile) = profiles
        .iter()
        .enumerate()
        .find(|(_, p)| matches!(p.arrival, ArrivalProcess::AdversarialHotKey { .. }))
        .expect("matrix has an adversarial tenant");
    let slots = config.tenant_budget_slots()[idx] as u64;
    (0..ticks)
        .map(|t| u64::from(profile.arrival.arrivals(t, ticks)).saturating_sub(slots))
        .sum()
}

#[test]
fn replay_is_deterministic_with_pinned_shed_counts() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let profiles = standard_matrix();
    let cfg = ScenarioConfig { ticks: 24, seed: 7 };

    let engine_a = start_engine(&corpus, &profiles);
    let report_a = run_scenario(&corpus, &engine_a, &profiles, &cfg).expect("scenario runs");
    drop(engine_a);

    let engine_b = start_engine(&corpus, &profiles);
    let report_b = run_scenario(&corpus, &engine_b, &profiles, &cfg).expect("scenario runs");
    drop(engine_b);

    assert_eq!(
        report_a.trace_hash, report_b.trace_hash,
        "same seed must replay the same trace"
    );
    for (a, b) in report_a.tenants.iter().zip(&report_b.tenants) {
        assert_eq!(a.submitted, b.submitted, "{}: submitted", a.label);
        assert_eq!(a.shed, b.shed, "{}: shed", a.label);
        assert_eq!(a.completed, b.completed, "{}: completed", a.label);
        assert_eq!(a.clicks, b.clicks, "{}: clicks", a.label);
        assert_eq!(a.cache_hits, b.cache_hits, "{}: cache hits", a.label);
    }

    // The shed count is not merely replayable — it is *predictable* from
    // the arrival process and the tenant's slot count.
    let adversarial = report_a.tenant("adversarial").expect("tenant reported");
    assert_eq!(
        adversarial.shed,
        expected_adversarial_shed(&profiles, cfg.ticks),
        "adversarial sheds must equal arrivals minus per-shard slots, every tick"
    );

    // A different seed drives different request streams.
    let engine_c = start_engine(&corpus, &profiles);
    let report_c = run_scenario(
        &corpus,
        &engine_c,
        &profiles,
        &ScenarioConfig { ticks: 24, seed: 8 },
    )
    .expect("scenario runs");
    assert_ne!(
        report_a.trace_hash, report_c.trace_hash,
        "different seeds must produce different traces"
    );
}

#[test]
fn adversarial_tenant_sheds_alone_and_steady_tenant_stays_green() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let profiles = standard_matrix();
    let cfg = ScenarioConfig::default();
    let engine = start_engine(&corpus, &profiles);
    let report = run_scenario(&corpus, &engine, &profiles, &cfg).expect("scenario runs");
    assert_eq!(report.tenants.len(), 4);

    // The adversary exhausts its own budget and fails its own shed SLO.
    let adversarial = report.tenant("adversarial").expect("tenant reported");
    assert!(adversarial.shed > 0, "hot-key hammering must shed");
    assert!(
        !adversarial.verdict.shed_ok,
        "the adversary must fail its own shed verdict (rate {})",
        adversarial.shed_rate
    );
    assert_eq!(
        adversarial.submitted,
        adversarial.completed + adversarial.shed,
        "every adversarial request either completes or sheds"
    );

    // Its hammering is invisible to every other tenant's budget.
    for label in ["head_heavy", "cold_start", "promo_burst"] {
        let t = report.tenant(label).expect("tenant reported");
        assert_eq!(t.shed, 0, "{label} must not shed");
        assert_eq!(t.submitted, t.completed, "{label} completes everything");
        assert!(t.verdict.shed_ok, "{label} shed verdict must be green");
        assert!(
            t.verdict.latency_ok,
            "{label} p99 {}ns exceeds its SLO {}ns",
            t.p99_latency_ns, t.slo.p99_latency_ns
        );
    }

    // The browse tenant meets its full SLO, CTR floor included.
    let head = report.tenant("head_heavy").expect("tenant reported");
    assert!(
        head.verdict.all_ok(),
        "head_heavy must be fully green: {:?} (ctr {})",
        head.verdict,
        head.ctr
    );
    assert!(head.shown > 0 && head.clicks > 0, "click model engaged");

    // Request classes landed where the mixes say: the cold-start tenant
    // drove cold traffic, the browse tenant mostly warm.
    let cold_start = report.tenant("cold_start").expect("tenant reported");
    assert!(
        cold_start.cold_item_requests + cold_start.cold_user_requests > cold_start.warm_hits,
        "cold_start tenant must be cold-dominated"
    );
    assert!(
        head.warm_hits > head.cold_item_requests + head.cold_user_requests,
        "head_heavy tenant must be warm-dominated"
    );
    // The adversary's repeated hot keys hit its cache... which it has no
    // share of, so its cold requests all recompute.
    assert_eq!(adversarial.cache_hits, 0, "no cache share, no cache hits");
    assert!(adversarial.cold_item_requests > 0);
}

#[test]
fn profile_tenants_missing_from_the_engine_are_typed_errors() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let profiles = standard_matrix();
    // An engine declared without a tenant table serves only its implicit
    // default tenant.
    let engine = ServeEngine::start(
        build_service(&corpus, 1),
        ServeEngineConfig::builder().build().expect("valid"),
    )
    .expect("engine starts");
    let err = run_scenario(&corpus, &engine, &profiles, &ScenarioConfig::default())
        .expect_err("a tenantless engine cannot host the matrix");
    assert_eq!(err, ScenarioError::UnknownTenant(TenantId(1)));

    let empty: Vec<TenantProfile> = Vec::new();
    let err = run_scenario(&corpus, &engine, &empty, &ScenarioConfig::default())
        .expect_err("empty matrix is rejected");
    assert_eq!(err, ScenarioError::NoProfiles);
}

#[test]
fn all_zero_request_mix_is_a_typed_error() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let mut profiles = standard_matrix();
    profiles[1].mix = RequestMix {
        warm: 0,
        cold_item: 0,
        cold_user: 0,
    };
    let engine = start_engine(&corpus, &profiles);
    let err = run_scenario(&corpus, &engine, &profiles, &ScenarioConfig::default())
        .expect_err("a tenant that can never send a request is rejected");
    assert_eq!(err, ScenarioError::EmptyMix(profiles[1].config.id));
}
