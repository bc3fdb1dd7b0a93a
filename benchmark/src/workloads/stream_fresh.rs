//! `stream_fresh`: clicks folded into a live engine — a benchmark-owned
//! driver over `IngestPipeline::{warm_start, ingest_batch, publish}`
//! (`run_live` itself is not timed; the driver calls the same public
//! stages so that each can be timed from outside).
//!
//! Phase A is an open loop: a generator thread releases batches on a fixed
//! schedule at about half of the pipeline's capacity, because clicks do not
//! wait for the trainer. Every event is stamped with the time it was due,
//! and its latency runs from then to the return of the `publish` that made
//! it servable. Phase B takes the rest of the window: events are due at
//! once and drained flat out, one publication cycle after the other; its
//! events per second is the throughput. A second thread
//! sends paced `serve_hot`-mix queries throughout, so installs and cache
//! clears happen beside reads.

use super::serve::hot_stream;
use super::{
    head_sessions, hit_rate_verdict, sessions_checksum, timed, RunConfig, Verdict, Window,
    Workload, K, N_SHARDS,
};
use crate::catalog::LayerMetrics;
use crate::hist::{median, percentile_sorted, LogHistogram};
use crate::probes;
use crate::trace::Tracer;
use sisg_core::{ServingConfig, Variant};
use sisg_corpus::split::{EvalCase, NextItemSplit, SplitStage};
use sisg_corpus::{Corpus, CorpusConfig, EventLog, GeneratedCorpus, SessionEvent};
use sisg_serve::{ServeEngine, ServeEngineConfig, ServeRequest, ServingSnapshot};
use sisg_sgns::SgnsConfig;
use sisg_stream::{IngestPipeline, StreamConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Catalog size; smaller than the trained workloads' so that one window
/// holds at least forty publications (every publish re-freezes all lists).
const ITEMS: u32 = 1_200;
/// Sessions the pipeline warm-starts on ("today").
const TODAY_SESSIONS: usize = 9_000;
const DIM: usize = 32;
/// Sessions per ingest batch, batches per publication, and their product.
const BATCH_SESSIONS: usize = 64;
const PUBLISH_EVERY: usize = 4;
const CYCLE_SESSIONS: usize = BATCH_SESSIONS * PUBLISH_EVERY;
/// Phase A takes this share of the window and phase B the rest.
const PHASE_A_SHARE: f64 = 0.6;
/// Phase A's event rate, calibrated once on the reference host and frozen:
/// phase B drains 4 200 events/s there at the host's lower speed, and
/// phase A releases events at half of that, so the schedule stays below
/// capacity whatever the host does.
const PHASE_A_EVENTS_PER_S: f64 = 2_100.0;
/// The event log holds enough sessions for phase B to drain this many a
/// second, three times what the reference host does; a pipeline faster
/// than that ends phase B early, when the log runs out.
const PHASE_B_MAX_EVENTS_PER_S: f64 = 12_000.0;
/// Paced query load beside the ingest.
const QUERIES_PER_S: f64 = 2_000.0;
/// Released-but-unfolded batches tolerated when phase A ends; more means
/// the backlog was growing, i.e. the schedule is past capacity.
const BACKLOG_LIMIT: usize = 4 * PUBLISH_EVERY;
/// HR@10 below this means the published model is broken, whatever the
/// seed and the window: the warm-started model alone scores 0.51 on a 1 s
/// window's sessions, and ten seeds gave 0.62 to 0.69 after 15 s.
const HR_FLOOR: f64 = 0.45;

/// See the module docs.
pub struct StreamFresh;

/// Sessions streamed after the warm start ("tomorrow"): the warm-up cycle
/// plus what the two phases of `seconds` of window can take.
fn tomorrow_sessions(seconds: f64) -> usize {
    let per_second =
        PHASE_A_SHARE * PHASE_A_EVENTS_PER_S + (1.0 - PHASE_A_SHARE) * PHASE_B_MAX_EVENTS_PER_S;
    // Two cycles of slack: a traced run rounds two half windows.
    CYCLE_SESSIONS * (3 + (seconds * per_second / CYCLE_SESSIONS as f64).ceil() as usize)
}

/// Seed-determined inputs.
pub struct Inputs {
    corpus: GeneratedCorpus,
    today: Corpus,
    /// Tomorrow's sessions, whole.
    tomorrow: Corpus,
    /// Tomorrow's session prefixes, in the same order: only they stream
    /// in, the held-out next clicks never reach training.
    events: EventLog,
    queries: Vec<ServeRequest>,
}

/// The warm pipeline and the engine it publishes into.
pub struct Prepared<'a> {
    inputs: &'a Inputs,
    window: Duration,
    pipeline: IngestPipeline,
    engine: ServeEngine,
    /// Next event of `inputs.events` to ingest.
    cursor: usize,
    /// Gate failures seen inside the windows.
    failures: Vec<String>,
}

/// Sleeps until `due`; returns how late the wake-up was.
fn sleep_until(due: Instant) -> Duration {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

/// What the paced query thread saw.
struct QueryOutcome {
    sent: u64,
    failed: u64,
    latency: LogHistogram,
}

/// Sends `queries` in a cycle at [`QUERIES_PER_S`] until `stop`, one at a
/// time. Latency runs from the time a query was due, so a stall delays —
/// and is charged to — every query scheduled behind it.
fn paced_queries(
    engine: &ServeEngine,
    queries: &[ServeRequest],
    stop: &AtomicBool,
) -> QueryOutcome {
    let mut out = QueryOutcome {
        sent: 0,
        failed: 0,
        latency: LogHistogram::new(),
    };
    let started = Instant::now();
    let gap = Duration::from_secs_f64(1.0 / QUERIES_PER_S);
    // ORDERING: Relaxed — the flag publishes no data; the scope join
    // orders the final reads.
    while !stop.load(Ordering::Relaxed) {
        let due = started + gap.mul_f64(out.sent as f64);
        sleep_until(due);
        let req = queries[out.sent as usize % queries.len()];
        let ok = engine.serve(req).is_ok();
        out.latency.record(due.elapsed().as_nanos() as u64);
        out.sent += 1;
        out.failed += u64::from(!ok);
    }
    out
}

/// Per-window bookkeeping of the ingest driver.
#[derive(Default)]
struct Driver {
    /// Due times (ns since the window start) of events folded but not yet
    /// published.
    unpublished: Vec<u64>,
    /// Wall time of every `ingest_batch` and `publish` call, ns.
    fold_ns: Vec<f64>,
    publish_ns: Vec<f64>,
    /// Trainer seconds and pairs reported by the folds' `TrainStats`.
    train_s: f64,
    pairs: u64,
    last_epoch: u64,
    /// Events of a failed fold, or left unpublished by a failed publish.
    failed_events: u64,
    failures: Vec<String>,
}

impl Driver {
    fn busy_s(&self) -> f64 {
        (self.fold_ns.iter().sum::<f64>() + self.publish_ns.iter().sum::<f64>()) / 1e9
    }
}

/// Phase A's latencies, due time to servable: every publication cycle is
/// one slice of the window.
struct CycleLatency {
    cycle: LogHistogram,
    all: LogHistogram,
    p50_us: Vec<f64>,
}

impl CycleLatency {
    fn new() -> Self {
        Self {
            cycle: LogHistogram::new(),
            all: LogHistogram::new(),
            p50_us: Vec::new(),
        }
    }

    /// The events due at `due_ns` all became servable at `servable_ns`.
    fn record_cycle(&mut self, servable_ns: u64, due_ns: &[u64]) {
        self.cycle.clear();
        for due in due_ns {
            let latency = servable_ns.saturating_sub(*due);
            self.cycle.record(latency);
            self.all.record(latency);
        }
        self.p50_us.push(self.cycle.quantile_us(0.5));
    }
}

/// The ingest side of a [`Prepared`], borrowed apart from the engine so
/// that the query thread can read the engine meanwhile.
struct Ingest<'a> {
    events: &'a [SessionEvent],
    pipeline: &'a mut IngestPipeline,
    engine: &'a ServeEngine,
    cursor: &'a mut usize,
}

impl Prepared<'_> {
    fn ingest(&mut self) -> Ingest<'_> {
        Ingest {
            events: self.inputs.events.events(),
            pipeline: &mut self.pipeline,
            engine: &self.engine,
            cursor: &mut self.cursor,
        }
    }
}

impl Ingest<'_> {
    /// Folds the next batch; `due_ns` yields each event's due time.
    fn fold(&mut self, driver: &mut Driver, tr: &mut Tracer, due_ns: impl Fn(usize) -> u64) {
        let range = *self.cursor..*self.cursor + BATCH_SESSIONS;
        let batch = (range.start / BATCH_SESSIONS) as u64;
        driver.unpublished.extend(range.clone().map(due_ns));
        *self.cursor = range.end;
        let (pipeline, events) = (&mut *self.pipeline, &self.events[range]);
        let started = Instant::now();
        let stats = tr.span("stream.fold", None, batch, || pipeline.ingest_batch(events));
        driver.fold_ns.push(started.elapsed().as_nanos() as f64);
        match stats {
            Ok(stats) => {
                driver.train_s += stats.seconds;
                driver.pairs += stats.pairs;
            }
            Err(e) => {
                driver.failed_events += BATCH_SESSIONS as u64;
                driver.failures.push(format!("ingest_batch failed: {e}"));
            }
        }
    }

    /// Publishes; every unpublished event becomes servable at the return.
    fn publish(
        &mut self,
        driver: &mut Driver,
        window_start: Instant,
        latency: Option<&mut CycleLatency>,
        tr: &mut Tracer,
    ) {
        let now_us = window_start.elapsed().as_micros() as u64;
        let batch = (*self.cursor / BATCH_SESSIONS) as u64;
        let (pipeline, engine) = (&mut *self.pipeline, self.engine);
        let started = Instant::now();
        let published = tr.span("stream.publish", None, batch, || {
            pipeline.publish(engine, now_us)
        });
        driver.publish_ns.push(started.elapsed().as_nanos() as f64);
        let servable_ns = window_start.elapsed().as_nanos() as u64;
        match published {
            Ok(epoch) if epoch > driver.last_epoch => driver.last_epoch = epoch,
            Ok(epoch) => {
                driver.failed_events += driver.unpublished.len() as u64;
                driver.failures.push(format!(
                    "a publish returned epoch {epoch} after {}",
                    driver.last_epoch
                ));
            }
            Err(e) => {
                driver.failed_events += driver.unpublished.len() as u64;
                driver.failures.push(format!("publish failed: {e}"));
            }
        }
        if let Some(latency) = latency {
            latency.record_cycle(servable_ns, &driver.unpublished);
        }
        driver.unpublished.clear();
    }
}

impl Workload for StreamFresh {
    const NAME: &'static str = "stream_fresh";
    type Inputs = Inputs;
    type Prepared<'a> = Prepared<'a>;

    fn inputs(cfg: &RunConfig, tr: &mut Tracer, layer: &mut LayerMetrics) -> Inputs {
        let (corpus, generate_s) = timed(tr, "corpus.generate", || {
            GeneratedCorpus::generate(CorpusConfig {
                n_sessions: (TODAY_SESSIONS + tomorrow_sessions(cfg.seconds)) as u32,
                ..CorpusConfig::scaled(ITEMS, cfg.seed)
            })
        });
        layer.set("corpus.generate_s", generate_s);
        let mut today = Corpus::new();
        let mut tomorrow = Corpus::new();
        for (i, s) in corpus.sessions.iter().enumerate() {
            if i < TODAY_SESSIONS {
                today.push(s.user, s.items);
            } else {
                tomorrow.push(s.user, s.items);
            }
        }
        let prefixes = NextItemSplit::default()
            .split(&tomorrow, SplitStage::Test)
            .train;
        let events = EventLog::from_sessions(&prefixes, cfg.seed, 500);
        let queries = hot_stream(&corpus, cfg.seed, 1 << 15);
        Inputs {
            corpus,
            today,
            tomorrow,
            events,
            queries,
        }
    }

    fn prepare<'a>(
        cfg: &RunConfig,
        inputs: &'a Inputs,
        tr: &mut Tracer,
        layer: &mut LayerMetrics,
    ) -> Prepared<'a> {
        let config = StreamConfig {
            variant: Variant::SisgFU,
            sgns: SgnsConfig {
                dim: DIM,
                window: 2,
                negatives: 3,
                epochs: 1,
                threads: 1,
                seed: cfg.seed,
                ..Default::default()
            },
            serving: ServingConfig {
                k: K,
                min_clicks_for_warm: 2,
            },
            batch_sessions: BATCH_SESSIONS,
            publish_every: PUBLISH_EVERY,
        };
        let mut pipeline = IngestPipeline::new(
            inputs.corpus.catalog.clone(),
            inputs.corpus.users.clone(),
            config,
        )
        .expect("the frozen stream config is valid");
        tr.span("stream.warm_start", None, 0, || {
            pipeline
                .warm_start(&inputs.today)
                .expect("the warm start trains");
        });
        let (service, build_s) = timed(tr, "core.list_build", || {
            pipeline.freeze().expect("the warm model freezes")
        });
        layer.set("core.list_build_s", build_s);
        let (engine, start_s) = timed(tr, "serve.engine_start", || {
            ServeEngine::start(
                service,
                ServeEngineConfig::builder()
                    .n_shards(N_SHARDS)
                    .queue_capacity(256)
                    .cache_capacity(1024)
                    .cache_admit_after(1)
                    .build()
                    .expect("the frozen engine config is valid"),
            )
            .expect("the engine starts")
        });
        layer.set("serve.engine_start_s", start_s);

        let mut prepared = Prepared {
            inputs,
            window: cfg.window(),
            pipeline,
            engine,
            cursor: 0,
            failures: Vec::new(),
        };
        // Warm-up: one publication cycle, flat out.
        let mut driver = Driver::default();
        let mut off = Tracer::new(false);
        let mut ingest = prepared.ingest();
        for _ in 0..PUBLISH_EVERY {
            ingest.fold(&mut driver, &mut off, |_| 0);
        }
        ingest.publish(&mut driver, Instant::now(), None, &mut off);
        prepared.failures.append(&mut driver.failures);
        prepared
    }

    fn measure(p: &mut Prepared<'_>, tr: &mut Tracer, layer: &mut LayerMetrics) -> Window {
        // Phase A releases whole publication cycles on its schedule for
        // its share of the window.
        let event_gap_ns = 1e9 / PHASE_A_EVENTS_PER_S;
        let left = (p.inputs.events.len() - p.cursor) / CYCLE_SESSIONS;
        let cycles_a = (p.window.as_secs_f64() * PHASE_A_SHARE * PHASE_A_EVENTS_PER_S
            / CYCLE_SESSIONS as f64) as usize;
        let batches_a = cycles_a.clamp(1, left.max(1)) * PUBLISH_EVERY;
        let admitted = sisg_obs::registry().counter(sisg_obs::names::STREAM_VOCAB_ADMITTED_TOTAL);
        let admitted_before = admitted.get();
        let stats_before = p.engine.stats();

        let mut driver = Driver {
            last_epoch: p.engine.epoch(),
            ..Default::default()
        };
        let mut latency = CycleLatency::new();
        let mut backlog_max = 0usize;
        let mut backlog_end = 0usize;
        let mut generator_lag_us: Vec<f64> = Vec::with_capacity(batches_a);
        let stop = AtomicBool::new(false);
        let released = AtomicUsize::new(0);
        let window_start = Instant::now();
        let deadline = window_start + p.window;
        let mut phase_a = (0.0f64, 0.0f64);
        let mut phase_b_s = 0.0f64;
        // Events per second of every phase-B publication cycle.
        let mut cycle_rates: Vec<f64> = Vec::new();

        let query_stream = &p.inputs.queries;
        let mut ingest = p.ingest();
        let queries = std::thread::scope(|scope| {
            let engine = ingest.engine;
            let query_thread = scope.spawn(|| paced_queries(engine, query_stream, &stop));

            // Phase A: batch j is released when its last event is due.
            let (tx, rx) = mpsc::channel::<usize>();
            let released = &released;
            let generator = scope.spawn(move || {
                let mut lag_us = Vec::with_capacity(batches_a);
                for j in 0..batches_a {
                    let due_ns = ((j + 1) * BATCH_SESSIONS) as f64 * event_gap_ns;
                    let late = sleep_until(window_start + Duration::from_nanos(due_ns as u64));
                    lag_us.push(late.as_nanos() as f64 / 1e3);
                    // ORDERING: Relaxed — a statistic; the channel send
                    // below is what hands the batch over.
                    released.fetch_add(1, Ordering::Relaxed);
                    if tx.send(j).is_err() {
                        break;
                    }
                }
                lag_us
            });
            let first_event = *ingest.cursor;
            for folded in 0..batches_a {
                if rx.recv().is_err() {
                    break;
                }
                // ORDERING: Relaxed — see the generator.
                let backlog = released.load(Ordering::Relaxed).saturating_sub(folded + 1);
                backlog_max = backlog_max.max(backlog);
                backlog_end = backlog;
                ingest.fold(&mut driver, tr, |event| {
                    ((event - first_event + 1) as f64 * event_gap_ns) as u64
                });
                if (folded + 1) % PUBLISH_EVERY == 0 {
                    ingest.publish(&mut driver, window_start, Some(&mut latency), tr);
                }
            }
            generator_lag_us = generator.join().expect("the generator thread joins");
            phase_a = (window_start.elapsed().as_secs_f64(), driver.busy_s());

            // Phase B: events are due at once; one publication cycle after
            // the other until the window ends or the log runs out.
            let phase_b_start = Instant::now();
            let mut cycle_start = phase_b_start;
            loop {
                let due_ns = window_start.elapsed().as_nanos() as u64;
                for _ in 0..PUBLISH_EVERY {
                    ingest.fold(&mut driver, tr, |_| due_ns);
                }
                ingest.publish(&mut driver, window_start, None, tr);
                let now = Instant::now();
                cycle_rates.push(CYCLE_SESSIONS as f64 / (now - cycle_start).as_secs_f64());
                cycle_start = now;
                if now >= deadline || *ingest.cursor + CYCLE_SESSIONS > ingest.events.len() {
                    break;
                }
            }
            phase_b_s = phase_b_start.elapsed().as_secs_f64();
            // ORDERING: Relaxed — see `paced_queries`.
            stop.store(true, Ordering::Relaxed);
            query_thread.join().expect("the query thread joins")
        });

        let events_a = (batches_a * BATCH_SESSIONS) as u64;
        let events_b = (cycle_rates.len() * CYCLE_SESSIONS) as u64;
        if backlog_end > BACKLOG_LIMIT {
            driver.failures.push(format!(
                "phase A ended {backlog_end} batches behind (limit {BACKLOG_LIMIT})"
            ));
        }
        if queries.failed > 0 {
            driver.failures.push(format!(
                "{} of {} paced queries failed or were shed",
                queries.failed, queries.sent
            ));
        }
        p.failures.append(&mut driver.failures);

        let stats = p.engine.stats();
        generator_lag_us.sort_by(f64::total_cmp);
        layer.set(
            "stream.generator_lag_us_p99",
            percentile_sorted(&generator_lag_us, 0.99),
        );
        layer.set("stream.backlog_max_batches", backlog_max as f64);
        // Share of phase A the driver spent folding and publishing; phase
        // B is flat out by construction.
        layer.set("stream.busy_share", phase_a.1 / phase_a.0);
        layer.set("stream.fold_us_p50", median(&driver.fold_ns) / 1e3);
        layer.set("stream.publish_ms_p50", median(&driver.publish_ns) / 1e6);
        layer.set(
            "stream.fold_train_share",
            driver.train_s / (driver.fold_ns.iter().sum::<f64>() / 1e9),
        );
        layer.set("stream.events_total", (events_a + events_b) as f64);
        layer.set("stream.publishes_total", driver.publish_ns.len() as f64);
        layer.set(
            "stream.vocab_admitted_total",
            (admitted.get() - admitted_before) as f64,
        );
        layer.set("sgns.train_s", driver.train_s);
        layer.set("sgns.pairs_total", driver.pairs as f64);
        layer.set("sgns.pairs_per_s", driver.pairs as f64 / driver.train_s);
        layer.set(
            "serve.swaps_total",
            (stats.swaps - stats_before.swaps) as f64,
        );
        layer.set(
            "serve.cache_clears_total",
            (stats.cache_clears - stats_before.cache_clears) as f64,
        );
        layer.set("serve.failed_total", queries.failed as f64);
        layer.set(
            "serve.query_latency_p50_us",
            queries.latency.quantile_us(0.5),
        );
        layer.set(
            "serve.query_latency_p99_us",
            queries.latency.quantile_us(0.99),
        );
        Window {
            attempted: events_a + events_b + queries.sent,
            failed: driver.failed_events + queries.failed,
            ops_per_s: events_b as f64 / phase_b_s,
            p50_us: latency.all.quantile_us(0.5),
            p90_us: latency.all.quantile_us(0.9),
            latency_samples: latency.all.count(),
            slice_ops_per_s: cycle_rates,
            slice_p50_us: latency.p50_us,
        }
    }

    fn probes(p: &Prepared<'_>, tr: &mut Tracer, layer: &mut LayerMetrics) {
        // The two halves of a publication, alone: freezing the model into
        // top-K lists, and the engine's pointer swap.
        let mut freeze_ms = Vec::new();
        let mut install_us = Vec::new();
        for i in 0..5 {
            let (service, freeze_s) = timed(tr, "stream.freeze", || {
                p.pipeline.freeze().expect("the live model freezes")
            });
            freeze_ms.push(freeze_s * 1e3);
            let snapshot = ServingSnapshot::from_service(service, N_SHARDS);
            let started = Instant::now();
            let installed = tr.span("serve.install", None, i, || p.engine.install(snapshot));
            install_us.push(started.elapsed().as_nanos() as f64 / 1e3);
            installed.expect("a snapshot resharded for this engine installs");
        }
        layer.set("stream.freeze_ms_p50", median(&freeze_ms));
        layer.set("serve.install_us_p50", median(&install_us));
        probes::kernels(DIM, tr, layer);
    }

    fn verify(
        p: Prepared<'_>,
        _window: &Window,
        tr: &mut Tracer,
        layer: &mut LayerMetrics,
    ) -> Verdict {
        // The held-out next clicks of the sessions that streamed in.
        let streamed = head_sessions(&p.inputs.tomorrow, p.cursor);
        let eval: Vec<EvalCase> = NextItemSplit::default()
            .split(&streamed, SplitStage::Test)
            .eval;
        let snapshot = p.engine.snapshot();
        let mut verdict = hit_rate_verdict(snapshot.model(), &eval, HR_FLOOR, tr, layer);
        verdict.failures.extend(p.failures);
        verdict
    }

    fn input_checksum(inputs: &Inputs) -> u64 {
        sessions_checksum(&inputs.events.to_corpus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_event_log_covers_the_warm_up_and_both_phases_of_any_window() {
        for seconds in [1.0, 15.0, 60.0] {
            let phase_a = PHASE_A_SHARE * seconds * PHASE_A_EVENTS_PER_S;
            let phase_b = (1.0 - PHASE_A_SHARE) * seconds * PHASE_B_MAX_EVENTS_PER_S;
            let sessions = tomorrow_sessions(seconds);
            assert!(sessions as f64 >= CYCLE_SESSIONS as f64 + phase_a + phase_b);
            assert_eq!(sessions % CYCLE_SESSIONS, 0);
        }
    }
}
