//! The three serving workloads, one closed-loop client each.
//!
//! A closed loop models the ranking stage that calls the matcher and waits
//! for its candidates: the client keeps a fixed number of requests in
//! flight and sends the next one when the oldest returns.
//!
//! - `serve_hot`: a trained 2 400-item catalog behind a warm admission
//!   cache; 75 % cold-item / 20 % warm / 5 % cold-user requests over Zipf
//!   keys, 16 in flight. Nearly every answer is a cache or warm-list hit,
//!   so the work is `submit`, the shard queue, the wake-up and the cache
//!   lookup. No kernel or ANN change should move it.
//! - `serve_cold_brute`: a synthesized all-cold 50 000-item d64 catalog,
//!   cache off, 90 % cold-item / 10 % cold-user over uniform keys, 2 in
//!   flight. Every request is an Eq. 6 vector plus a full f32 scan.
//! - `serve_cold_quant`: the same catalog, stream and seed through the
//!   int8 HNSW cold path with an exact f32 re-rank.

use super::{
    click_counts, head_sessions, timed, Fnv, RunConfig, Slicer, Verdict, Window, Workload, K,
    N_SHARDS, TRAIN_ITEMS, WARMUP_SHARE,
};
use crate::catalog::LayerMetrics;
use crate::hist::median;
use crate::probes;
use crate::trace::{durations_ns, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_ann::qhnsw::{HnswConfig, QHnswIndex};
use sisg_core::cold_start::cold_item_vector_with;
use sisg_core::{
    MatchingService, Recommendation, ServingConfig, SiAggregation, SisgModel, Variant,
};
use sisg_corpus::schema::SchemaCardinalities;
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::zipf::{zipf_weights, CumulativeSampler};
use sisg_corpus::{CorpusConfig, GeneratedCorpus, ItemFeature, ItemId, UserRegistry};
use sisg_embedding::{EmbeddingStore, QuantMatrix};
use sisg_serve::{
    ColdPathMode, PendingResponse, ServeEngine, ServeEngineConfig, ServeError, ServeRequest,
    ServingSnapshot,
};
use sisg_sgns::SgnsConfig;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Items of the synthesized cold catalog: 12.8 MB of f32 rows, 6.4 MB a
/// shard, so the exact scan streams from memory and not from the 4 MB L2.
const COLD_ITEMS: u32 = 50_000;
/// Leading sessions the `serve_hot` model trains on, a quarter of the
/// corpus; the workload needs lists to serve, not a good model.
const HOT_TRAIN_SESSIONS: usize = 7_500;
/// Layer-0 beam width of the quantized cold path.
const QUANT_EF_SEARCH: usize = 160;
/// Recall@10 the quantized path must keep against the exact scan.
const QUANT_RECALL_FLOOR: f64 = 0.95;
/// Depth of the precomputed warm lists.
const LIST_DEPTH: usize = 32;
/// Clicks below which an item is served through the cold path.
const MIN_CLICKS_FOR_WARM: u64 = 3;
/// The traced run records spans for one request in this many.
const SPAN_SAMPLE: u64 = 64;
/// Demographic keys of the cold-user requests (those the registry can
/// answer are kept).
const USER_KEYS: [(Option<u8>, Option<u8>, Option<u8>); 5] = [
    (None, None, None),
    (Some(0), None, None),
    (Some(1), None, None),
    (None, Some(1), None),
    (None, None, Some(1)),
];

/// How a workload's answers are judged against the direct service's.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Quality {
    /// Share of answers identical to the exact ones; must be 1.
    Parity,
    /// Share of the exact top ten the answers contain, with its floor.
    Recall { floor: f64 },
}

/// Everything that tells the three serving workloads apart.
pub struct Shape {
    dim: usize,
    /// Requests the client keeps in flight.
    in_flight: usize,
    cache_capacity: usize,
    cold_path: ColdPathMode,
    /// Leading stream requests whose answers are checked.
    n_reference: usize,
    /// Requests in the generated stream (replayed in a cycle).
    stream_len: usize,
    quality: Quality,
    /// Generates the catalog and the request stream from the seed.
    inputs: fn(&Shape, u64, &mut Tracer, &mut LayerMetrics) -> Inputs,
}

const COLD: Shape = Shape {
    dim: 64,
    in_flight: 2,
    cache_capacity: 0,
    cold_path: ColdPathMode::BruteForce,
    n_reference: 200,
    stream_len: 1 << 14,
    quality: Quality::Parity,
    inputs: synth_inputs,
};

/// A serving workload: a name and a shape.
pub trait Serving {
    /// The workload's name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// What runs.
    const SHAPE: Shape;
}

/// `serve_hot`.
pub struct ServeHot;
/// `serve_cold_brute`.
pub struct ServeColdBrute;
/// `serve_cold_quant`.
pub struct ServeColdQuant;

impl Serving for ServeHot {
    const NAME: &'static str = "serve_hot";
    const SHAPE: Shape = Shape {
        dim: 32,
        in_flight: 16,
        cache_capacity: 1024,
        cold_path: ColdPathMode::BruteForce,
        n_reference: 2_000,
        stream_len: 1 << 17,
        quality: Quality::Parity,
        inputs: trained_inputs,
    };
}
impl Serving for ServeColdBrute {
    const NAME: &'static str = "serve_cold_brute";
    const SHAPE: Shape = COLD;
}
impl Serving for ServeColdQuant {
    const NAME: &'static str = "serve_cold_quant";
    const SHAPE: Shape = Shape {
        cold_path: ColdPathMode::QuantAnn {
            ef_search: QUANT_EF_SEARCH,
        },
        quality: Quality::Recall {
            floor: QUANT_RECALL_FLOOR,
        },
        ..COLD
    };
}

/// Builds the service an engine serves from; runs inside set-up.
type ServiceBuilder = Box<dyn Fn(&mut Tracer, &mut LayerMetrics) -> MatchingService>;

/// Seed-determined inputs: the catalog, as the recipe of its service,
/// and the request stream.
pub struct Inputs {
    stream: Vec<ServeRequest>,
    users: UserRegistry,
    service: ServiceBuilder,
}

fn answerable_user_keys(users: &UserRegistry) -> Vec<(Option<u8>, Option<u8>, Option<u8>)> {
    USER_KEYS
        .into_iter()
        .filter(|&(g, a, p)| !users.types_matching(g, a, p).is_empty())
        .collect()
}

fn cold_user(key: (Option<u8>, Option<u8>, Option<u8>)) -> ServeRequest {
    ServeRequest::ColdUser {
        gender: key.0,
        age: key.1,
        purchase: key.2,
        k: K,
    }
}

/// The `serve_hot` mix: Zipf-ranked keys inside a cold pool, a warm pool
/// and the cold-user keys, so a few keys take most of the traffic and the
/// admission cache holds every one of them.
pub(super) fn hot_stream(corpus: &GeneratedCorpus, seed: u64, len: usize) -> Vec<ServeRequest> {
    let clicks = click_counts(&corpus.sessions, corpus.config.n_items);
    let (cold, warm): (Vec<ItemId>, Vec<ItemId>) = (0..corpus.config.n_items)
        .map(ItemId)
        .partition(|it| clicks[it.index()] < MIN_CLICKS_FOR_WARM);
    let users = answerable_user_keys(&corpus.users);
    let zipf = |n: usize| CumulativeSampler::new(&zipf_weights(n.max(1), 1.0));
    let (cold_rank, warm_rank) = (zipf(cold.len()), zipf(warm.len()));
    let candidates = |item: ItemId| ServeRequest::Candidates {
        item,
        si_values: *corpus.catalog.si_values(item),
        k: K,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E17);
    (0..len)
        .map(|_| {
            let roll: f64 = rng.gen();
            if roll < 0.75 && !cold.is_empty() {
                candidates(cold[cold_rank.sample(&mut rng)])
            } else if roll < 0.95 || users.is_empty() {
                candidates(warm[warm_rank.sample(&mut rng)])
            } else {
                cold_user(users[rng.gen_range(0..users.len())])
            }
        })
        .collect()
}

/// The cold mix: uniform keys over the whole synthesized catalog.
fn cold_stream(
    si_values: &[[u32; ItemFeature::COUNT]],
    users: &UserRegistry,
    seed: u64,
    len: usize,
) -> Vec<ServeRequest> {
    let user_keys = answerable_user_keys(users);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0AA7);
    (0..len)
        .map(|_| {
            let roll: f64 = rng.gen();
            if roll < 0.90 || user_keys.is_empty() {
                let item = rng.gen_range(0..si_values.len());
                ServeRequest::Candidates {
                    item: ItemId(item as u32),
                    si_values: si_values[item],
                    k: K,
                }
            } else {
                cold_user(user_keys[rng.gen_range(0..user_keys.len())])
            }
        })
        .collect()
}

/// `serve_hot`: a generated corpus, the model trained on it in set-up.
fn trained_inputs(shape: &Shape, seed: u64, tr: &mut Tracer, layer: &mut LayerMetrics) -> Inputs {
    let (corpus, generate_s) = timed(tr, "corpus.generate", || {
        GeneratedCorpus::generate(CorpusConfig::scaled(TRAIN_ITEMS, seed))
    });
    layer.set("corpus.generate_s", generate_s);
    let dim = shape.dim;
    Inputs {
        stream: hot_stream(&corpus, seed, shape.stream_len),
        users: corpus.users.clone(),
        service: Box::new(move |tr, layer| trained_service(&corpus, dim, seed, tr, layer)),
    }
}

/// `serve_cold_*`: side information of a never-clicked catalog, the item
/// vectors synthesized from it in set-up.
fn synth_inputs(shape: &Shape, seed: u64, _tr: &mut Tracer, _layer: &mut LayerMetrics) -> Inputs {
    let cards = SchemaCardinalities::for_items(COLD_ITEMS);
    let users = UserRegistry::generate(64, 4, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11C);
    let si_values: Vec<[u32; ItemFeature::COUNT]> = (0..COLD_ITEMS)
        .map(|_| {
            let mut vals = [0u32; ItemFeature::COUNT];
            for feature in ItemFeature::ALL {
                vals[feature.slot()] = rng.gen_range(0..cards.cardinality(feature));
            }
            vals
        })
        .collect();
    let dim = shape.dim;
    let service_users = users.clone();
    Inputs {
        stream: cold_stream(&si_values, &users, seed, shape.stream_len),
        users,
        service: Box::new(move |tr, layer| {
            synth_service(&si_values, &service_users, dim, seed, tr, layer)
        }),
    }
}

/// Trains the cheap `serve_hot` model and freezes its warm lists.
fn trained_service(
    corpus: &GeneratedCorpus,
    dim: usize,
    seed: u64,
    tr: &mut Tracer,
    layer: &mut LayerMetrics,
) -> MatchingService {
    let head = head_sessions(&corpus.sessions, HOT_TRAIN_SESSIONS);
    let (model, _) = tr.span("core.train", None, 0, || {
        SisgModel::train_on_sessions(
            &head,
            &corpus.catalog,
            &corpus.users,
            corpus.config.n_items,
            Variant::SisgFU,
            &SgnsConfig {
                dim,
                window: 2,
                negatives: 2,
                epochs: 1,
                threads: 1,
                seed,
                ..Default::default()
            },
        )
        .expect("the frozen training config is valid")
    });
    let clicks = click_counts(&corpus.sessions, corpus.config.n_items);
    frozen_service(model, corpus.users.clone(), &clicks, tr, layer)
}

fn frozen_service(
    model: SisgModel,
    users: UserRegistry,
    clicks: &[u64],
    tr: &mut Tracer,
    layer: &mut LayerMetrics,
) -> MatchingService {
    let (service, build_s) = timed(tr, "core.list_build", || {
        MatchingService::build(
            model,
            users,
            clicks,
            ServingConfig {
                k: LIST_DEPTH,
                min_clicks_for_warm: MIN_CLICKS_FOR_WARM,
            },
        )
        .expect("click counts cover the catalog")
    });
    layer.set("core.list_build_s", build_s);
    service
}

/// Synthesizes the all-cold catalog without training (the construction of
/// `perf_serve`): every SI token keeps its random initial vector and an
/// item's vector is the sum of its SI vectors plus item-specific noise, so
/// items sharing a shop or brand cluster — the structure Eq. 6 relies on —
/// while staying distinct. No item has a click, so every request takes the
/// cold path.
fn synth_service(
    si_values: &[[u32; ItemFeature::COUNT]],
    users: &UserRegistry,
    dim: usize,
    seed: u64,
    tr: &mut Tracer,
    layer: &mut LayerMetrics,
) -> MatchingService {
    let n_items = si_values.len() as u32;
    let model = tr.span("embedding.synthesize", None, 0, || {
        let cards = SchemaCardinalities::for_items(n_items);
        let space = TokenSpace::new(n_items, &cards, users.n_user_types());
        let mut store = EmbeddingStore::new(space.len(), dim, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x401E);
        let mut row = vec![0.0f32; dim];
        for (i, vals) in si_values.iter().enumerate() {
            row.fill(0.0);
            for feature in ItemFeature::ALL {
                let token = space.side_info(feature, vals[feature.slot()]);
                for (r, &v) in row.iter_mut().zip(store.input(token)) {
                    *r += v;
                }
            }
            for r in row.iter_mut() {
                *r += (rng.gen::<f32>() - 0.5) / dim as f32;
            }
            store.input_matrix_mut().row_mut(i).copy_from_slice(&row);
        }
        SisgModel::from_store(Variant::SisgFU, space, store)
            .expect("the synthesized store covers the space")
    });
    frozen_service(model, users.clone(), &vec![0; n_items as usize], tr, layer)
}

fn engine_config(shape: &Shape) -> ServeEngineConfig {
    ServeEngineConfig::builder()
        .n_shards(N_SHARDS)
        .queue_capacity(256)
        .cache_capacity(shape.cache_capacity)
        .cache_admit_after(1)
        .cold_path(shape.cold_path)
        .build()
        .expect("the frozen engine config is valid")
}

/// The direct, engine-free answer to one request.
fn direct_answer(service: &MatchingService, req: &ServeRequest) -> Vec<Recommendation> {
    match *req {
        ServeRequest::Candidates { item, si_values, k } => service.candidates(item, &si_values, k),
        ServeRequest::ColdUser {
            gender,
            age,
            purchase,
            k,
        } => service.cold_user_candidates(gender, age, purchase, k),
    }
    .expect("generated requests are answerable")
}

/// Result of one closed-loop run.
struct LoopOutcome {
    window: Window,
    shed: u64,
    /// 99th-percentile latency over the whole run, µs.
    latency_p99_us: f64,
}

/// Drives `engine` for `duration`, keeping `in_flight` requests pending
/// and replaying `stream` from its start. Latency runs from just before
/// `submit` to the return of `wait`. Answers to the leading requests are
/// moved into `capture` (by stream index) for verification afterwards.
fn closed_loop(
    engine: &ServeEngine,
    stream: &[ServeRequest],
    in_flight: usize,
    duration: Duration,
    capture: &mut [Option<Vec<Recommendation>>],
    tr: &mut Tracer,
) -> LoopOutcome {
    struct Pending {
        response: PendingResponse,
        sent: Instant,
        seq: u64,
        span: Option<crate::trace::SpanId>,
    }
    let (mut attempted, mut failed, mut shed) = (0u64, 0u64, 0u64);
    let mut ring: VecDeque<Pending> = VecDeque::with_capacity(in_flight);
    let mut seq = 0u64;
    let started = Instant::now();
    let deadline = started + duration;
    let mut slicer = Slicer::new(started);
    let mut open = true;
    loop {
        while open && ring.len() < in_flight {
            let sent = Instant::now();
            if sent >= deadline {
                open = false;
                break;
            }
            let req = stream[(seq % stream.len() as u64) as usize];
            let span = (tr.enabled() && seq.is_multiple_of(SPAN_SAMPLE))
                .then(|| tr.begin("serve.request", None, seq));
            let submit = span.map(|s| tr.begin("serve.submit", Some(s), seq));
            let submitted = engine.submit(req);
            if let Some(s) = submit {
                tr.end(s);
            }
            match submitted {
                Ok(response) => ring.push_back(Pending {
                    response,
                    sent,
                    seq,
                    span,
                }),
                Err(e) => {
                    attempted += 1;
                    failed += 1;
                    shed += u64::from(matches!(
                        e,
                        ServeError::Overloaded { .. } | ServeError::SloBudgetExhausted { .. }
                    ));
                    if let Some(s) = span {
                        tr.end(s);
                    }
                }
            }
            seq += 1;
        }
        let Some(p) = ring.pop_front() else { break };
        let wait = p.span.map(|s| tr.begin("serve.wait", Some(s), p.seq));
        let answer = p.response.wait();
        let now = Instant::now();
        if let Some(s) = wait {
            tr.end(s);
        }
        if let Some(s) = p.span {
            tr.end(s);
        }
        attempted += 1;
        match answer {
            Ok(resp) => {
                slicer.record(now, (now - p.sent).as_nanos() as u64);
                if let Some(slot) = capture.get_mut(p.seq as usize) {
                    *slot = Some(resp.recommendations);
                }
            }
            Err(_) => failed += 1,
        }
    }
    LoopOutcome {
        shed,
        latency_p99_us: slicer.quantile_us(0.99),
        window: slicer.finish(attempted, failed),
    }
}

/// The started engine with its reference answers.
pub struct Prepared<'a> {
    inputs: &'a Inputs,
    window: Duration,
    engine: ServeEngine,
    /// Exact answers to the leading stream requests.
    reference: Vec<Vec<Recommendation>>,
    /// The last window's answers to the same requests.
    captured: Vec<Option<Vec<Recommendation>>>,
}

impl<S: Serving> Workload for S {
    const NAME: &'static str = <S as Serving>::NAME;
    type Inputs = Inputs;
    type Prepared<'a> = Prepared<'a>;

    fn inputs(cfg: &RunConfig, tr: &mut Tracer, layer: &mut LayerMetrics) -> Inputs {
        (S::SHAPE.inputs)(&S::SHAPE, cfg.seed, tr, layer)
    }

    fn prepare<'a>(
        cfg: &RunConfig,
        inputs: &'a Inputs,
        tr: &mut Tracer,
        layer: &mut LayerMetrics,
    ) -> Prepared<'a> {
        let shape = S::SHAPE;
        let service = (inputs.service)(tr, layer);
        // Reference answers straight from the service, before the engine
        // takes it over.
        let reference: Vec<Vec<Recommendation>> = inputs.stream[..shape.n_reference]
            .iter()
            .enumerate()
            .map(|(i, req)| {
                tr.span("core.direct_candidates", None, i as u64, || {
                    direct_answer(&service, req)
                })
            })
            .collect();
        let (engine, start_s) = timed(tr, "serve.engine_start", || {
            ServeEngine::start(service, engine_config(&shape)).expect("the engine starts")
        });
        layer.set("serve.engine_start_s", start_s);

        let window = cfg.window();
        closed_loop(
            &engine,
            &inputs.stream,
            shape.in_flight,
            window.mul_f64(WARMUP_SHARE),
            &mut [],
            &mut Tracer::new(false),
        );
        Prepared {
            inputs,
            window,
            engine,
            captured: vec![None; reference.len()],
            reference,
        }
    }

    fn measure(p: &mut Prepared<'_>, tr: &mut Tracer, layer: &mut LayerMetrics) -> Window {
        let shape = S::SHAPE;
        let server_ns = sisg_obs::registry().histogram(sisg_obs::names::SERVE_REQUEST_NS);
        server_ns.reset();
        p.captured.fill(None);
        let before = p.engine.stats();
        let first_span = tr.spans().len();
        let run = closed_loop(
            &p.engine,
            &p.inputs.stream,
            shape.in_flight,
            p.window,
            &mut p.captured,
            tr,
        );
        let after = p.engine.stats();

        let served = (after.requests - before.requests).max(1) as f64;
        layer.set(
            "serve.cache_hit_share",
            (after.cache_hits - before.cache_hits) as f64 / served,
        );
        layer.set(
            "serve.warm_share",
            (after.warm_hits - before.warm_hits) as f64 / served,
        );
        layer.set(
            "serve.cold_miss_share",
            (after.cache_misses - before.cache_misses) as f64 / served,
        );
        layer.set("serve.shed_total", run.shed as f64);
        layer.set("serve.failed_total", run.window.failed as f64);
        layer.set("serve.client_latency_p99_us", run.latency_p99_us);
        let server_p50_ns = server_ns.quantile(0.5).unwrap_or(0.0);
        layer.set("serve.server_request_ns_p50", server_p50_ns);
        layer.set(
            "serve.server_request_ns_p99",
            server_ns.quantile(0.99).unwrap_or(0.0),
        );
        if tr.enabled() {
            let spans = &tr.spans()[first_span..];
            let submit_us = median(&durations_ns(spans, "serve.submit")) / 1e3;
            layer.set("serve.submit_us_p50", submit_us);
            layer.set(
                "serve.wait_us_p50",
                median(&durations_ns(spans, "serve.wait")) / 1e3,
            );
            // What the client sees beyond its own submit call and the
            // worker's service time: queueing, the channel and the wake-up.
            layer.set(
                "serve.queue_residual_us_p50",
                run.window.p50_us - submit_us - server_p50_ns / 1e3,
            );
        }
        run.window
    }

    fn probes(p: &Prepared<'_>, tr: &mut Tracer, layer: &mut LayerMetrics) {
        let shape = S::SHAPE;
        let snapshot = p.engine.snapshot();
        let model = snapshot.model();
        let n_items = snapshot.n_items();
        layer.set(
            "core.direct_candidates_us_p50",
            median(&durations_ns(tr.spans(), "core.direct_candidates")) / 1e3,
        );

        // Eq. 6 vectors of the reference requests, timed one by one.
        let span = tr.begin("core.cold_vector_probe", None, 0);
        let mut vector_ns = Vec::new();
        let queries: Vec<Vec<f32>> = p.inputs.stream[..shape.n_reference.min(200)]
            .iter()
            .filter_map(|req| match req {
                ServeRequest::Candidates { si_values, .. } => Some(si_values),
                ServeRequest::ColdUser { .. } => None,
            })
            .map(|si| {
                let started = Instant::now();
                let v = cold_item_vector_with(model, si, SiAggregation::Sum)
                    .expect("generated SI values are in range");
                vector_ns.push(started.elapsed().as_nanos() as f64);
                v
            })
            .collect();
        tr.end(span);
        layer.set("core.cold_vector_us", median(&vector_ns) / 1e3);

        // The exact scan alone, on the workload's own matrix.
        let (_, scan_s) = timed(tr, "embedding.scan_probe", || {
            for q in &queries {
                std::hint::black_box(model.similar_items_to_vector(q, K + 1));
            }
        });
        layer.set(
            "embedding.scan_rows_per_s",
            (queries.len() * n_items) as f64 / scan_s,
        );

        probes::kernels(shape.dim, tr, layer);
        if shape.cache_capacity == 0 && shape.cold_path == ColdPathMode::BruteForce {
            // Share of the worker's service time that rows × ns-per-dot
            // does not explain (top-k heap, vector build, allocation).
            let predicted_ns = n_items as f64 * layer.get("embedding.dot_ns").unwrap_or(0.0);
            let server_ns = layer.get("serve.server_request_ns_p50").unwrap_or(0.0);
            layer.set(
                "serve.brute_unexplained_share",
                1.0 - predicted_ns / server_ns.max(1.0),
            );
        }

        // A second snapshot from the same model: the resharding (and, for
        // the quantized path, index build) that `ServeEngine::start` hides.
        let clone = SisgModel::from_store(
            model.variant(),
            model.space().clone(),
            model.store().clone(),
        )
        .expect("a served model rebuilds from its own store");
        let clicks: Vec<u64> = (0..n_items as u32)
            .map(|i| {
                if snapshot.is_cold(ItemId(i)) {
                    0
                } else {
                    MIN_CLICKS_FOR_WARM
                }
            })
            .collect();
        let users = p.inputs.users.clone();
        let service = frozen_service(clone, users, &clicks, tr, &mut LayerMetrics::default());
        let (probe_snapshot, snapshot_s) = timed(tr, "serve.snapshot_build", || {
            ServingSnapshot::from_service_with(service, N_SHARDS, shape.cold_path)
        });
        layer.set("serve.snapshot_build_s", snapshot_s);

        if matches!(shape.cold_path, ColdPathMode::QuantAnn { .. }) {
            if let Some(index) = probe_snapshot.cold_index() {
                layer.set(
                    "embedding.quant_bytes_per_item",
                    index.bytes_per_item() as f64,
                );
                layer.set(
                    "ann.link_bytes_per_item",
                    index.link_bytes() as f64 / n_items as f64,
                );
            }
            drop(probe_snapshot);
            probes::quant_kernel(shape.dim, tr, layer);
            quant_index_probe(model, &queries, tr, layer);
        }
    }

    fn verify(
        p: Prepared<'_>,
        window: &Window,
        _tr: &mut Tracer,
        _layer: &mut LayerMetrics,
    ) -> Verdict {
        let mut identical = 0usize;
        let mut overlap = 0usize;
        let mut wanted = 0usize;
        let mut answered = 0usize;
        for (exact, got) in p.reference.iter().zip(&p.captured) {
            wanted += exact.len();
            let Some(got) = got else { continue };
            answered += 1;
            identical += usize::from(got == exact);
            overlap += got
                .iter()
                .filter(|r| exact.iter().any(|e| e.item == r.item))
                .count();
        }
        let n = p.reference.len().max(1) as f64;
        let parity = identical as f64 / n;
        let recall = overlap as f64 / wanted.max(1) as f64;
        let quality = S::SHAPE.quality;
        let mut verdict = Verdict {
            quality_at_10: match quality {
                Quality::Parity => parity,
                Quality::Recall { .. } => recall,
            },
            ..Default::default()
        };
        verdict.require(window.failed == 0, || {
            format!(
                "{} of {} requests failed or were shed",
                window.failed, window.attempted
            )
        });
        verdict.require(answered == p.reference.len(), || {
            format!(
                "only {answered} of {} checked requests were answered",
                p.reference.len()
            )
        });
        match quality {
            Quality::Parity => verdict.require(parity == 1.0, || {
                format!("answer parity with the direct service is {parity:.4}, not 1")
            }),
            Quality::Recall { floor } => verdict.require(recall >= floor, || {
                format!("recall@10 {recall:.4} is below {floor}")
            }),
        }
        verdict
    }

    fn input_checksum(inputs: &Inputs) -> u64 {
        let mut h = Fnv::default();
        for req in &inputs.stream {
            match *req {
                ServeRequest::Candidates { item, si_values, k } => {
                    h.fold(u64::from(item.0));
                    for v in si_values {
                        h.fold(u64::from(v));
                    }
                    h.fold(k as u64);
                }
                ServeRequest::ColdUser {
                    gender,
                    age,
                    purchase,
                    k,
                } => {
                    for d in [gender, age, purchase] {
                        h.fold(d.map_or(u64::MAX, u64::from));
                    }
                    h.fold(k as u64);
                }
            }
        }
        h.finish()
    }
}

/// Builds the per-shard int8 HNSW directly (what `ColdIndex::build` does
/// inside the snapshot) and searches it with the workload's own queries.
fn quant_index_probe(
    model: &SisgModel,
    queries: &[Vec<f32>],
    tr: &mut Tracer,
    layer: &mut LayerMetrics,
) {
    let rows = model.item_norm_matrix();
    let config = HnswConfig {
        ef_search: QUANT_EF_SEARCH,
        ..HnswConfig::default()
    };
    let (indexes, build_s) = timed(tr, "ann.qhnsw_build", || {
        (0..N_SHARDS)
            .map(|s| {
                let count = (rows.rows() + N_SHARDS - 1 - s) / N_SHARDS;
                let shard =
                    QuantMatrix::from_rows(count, rows.dim(), |l| rows.row(l * N_SHARDS + s));
                QHnswIndex::build(shard, config)
            })
            .collect::<Vec<_>>()
    });
    layer.set("ann.qhnsw_build_s", build_s);

    let span = tr.begin("ann.qhnsw_search_probe", None, 0);
    let mut search_ns = Vec::with_capacity(queries.len());
    let mut hops = 0u64;
    for q in queries {
        let started = Instant::now();
        for index in &indexes {
            let (hits, h) = index.search_with_effort(q, K + 1);
            std::hint::black_box(hits);
            hops += h;
        }
        search_ns.push(started.elapsed().as_nanos() as f64);
    }
    tr.end(span);
    layer.set("ann.qhnsw_search_us_p50", median(&search_ns) / 1e3);
    layer.set(
        "ann.hops_per_search",
        hops as f64 / queries.len().max(1) as f64,
    );
}
