//! The bounded ingest pipeline: stream → incremental train → freeze →
//! publish.
//!
//! One [`IngestPipeline`] owns the online model state — cumulative token
//! frequencies, cumulative item clicks, and the live
//! [`EmbeddingStore`] — and folds event batches into it. The drift rules
//! (DESIGN.md §12) are all *exact*:
//!
//! - **Frequencies are cumulative counts.** Each batch is enriched through
//!   the same SI path as offline training and its vocabulary counts are
//!   added to the running tables, so after any prefix the tables equal a
//!   from-scratch enrichment of that prefix, token for token.
//! - **Noise/subsample tables are rebuilt per fold** from the cumulative
//!   counts (inside `train_into`), never decayed or approximated.
//! - **Vocabulary admission** is a token's first nonzero count within the
//!   fixed [`TokenSpace`]: new items, SI values, and user types become
//!   trainable the moment the enrichment path first emits them.
//! - **Flat learning rate.** The linear word2vec decay assumes a known
//!   corpus size; the stream has none, so each batch trains at
//!   `sgns.learning_rate` throughout (its fold config pins
//!   `min_learning_rate` to that rate).
//!
//! Determinism: [`IngestPipeline::run_replay`] is single-threaded and
//! seeded (per-batch seeds derive from `sgns.seed` and the batch index),
//! so the same [`EventLog`] replays to bit-identical stores, byte-identical
//! snapshot codecs, and the same trace hash. A caller that wants real
//! arrival clocks drives [`IngestPipeline::warm_start`] /
//! [`IngestPipeline::ingest_batch`] / [`IngestPipeline::publish`] on its
//! own clock (the repo benchmark's `stream_fresh` workload does).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::metrics::stream_metrics;
use crate::trace::{store_checksum, TAG_BATCH, TAG_DONE, TAG_PUBLISH, TAG_WARM_START};
use crate::StreamError;
use sisg_core::model::enriched_stride;
use sisg_core::{MatchingService, ServingConfig, SisgModel, Variant};
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{
    Corpus, EnrichedCorpus, EventLog, ItemCatalog, ItemId, SessionEvent, UserId, UserRegistry,
};
use sisg_embedding::{codec, EmbeddingStore};
use sisg_obs::{names, span, Fnv1a};
use sisg_serve::{ServeEngine, ServeRequest, ServingSnapshot};
use sisg_sgns::{train_into, SgnsConfig, TrainStats};

/// Configuration of one streaming ingest run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The SISG variant trained online (decides enrichment + window mode).
    pub variant: Variant,
    /// SGNS hyper-parameters. `seed` doubles as the stream seed (per-batch
    /// seeds derive from it); `learning_rate` is the flat online rate.
    pub sgns: SgnsConfig,
    /// Freeze options for published snapshots (top-K depth, cold
    /// threshold).
    pub serving: ServingConfig,
    /// Events folded per incremental training step. Must be at least 1.
    pub batch_sessions: usize,
    /// Publication cadence, in batches. Must be at least 1.
    pub publish_every: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            variant: Variant::SisgFU,
            sgns: SgnsConfig::default(),
            serving: ServingConfig::default(),
            batch_sessions: 32,
            publish_every: 4,
        }
    }
}

impl StreamConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), StreamError> {
        if self.batch_sessions == 0 {
            return Err(StreamError::InvalidConfig {
                field: "batch_sessions",
                reason: "must be at least 1",
            });
        }
        if self.publish_every == 0 {
            return Err(StreamError::InvalidConfig {
                field: "publish_every",
                reason: "must be at least 1",
            });
        }
        self.serving.validate()?;
        self.sgns
            .validate()
            .map_err(|(field, reason)| StreamError::Sgns(format!("{field} {reason}")))
    }
}

/// What one full pipeline run produced — the replay tests' comparison
/// surface.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// FNV-1a over every control-flow decision of the run (no float
    /// bits — see [`crate::trace`]). Pinned per seed in CI.
    pub trace_hash: u64,
    /// Events ingested.
    pub events: u64,
    /// Batches folded.
    pub batches: u64,
    /// Snapshots published.
    pub publishes: u64,
    /// Tokens admitted online (first nonzero cumulative count).
    pub vocab_admitted: u64,
    /// The engine epoch after the final publication.
    pub final_epoch: u64,
    /// Bit-pattern hash of the final store (run-to-run float check).
    pub store_checksum: u64,
    /// The encoded final store — "byte-identical snapshot codecs" is
    /// equality of this field across runs.
    pub codec: Vec<u8>,
}

/// The streaming ingest pipeline. See the module docs for the dataflow.
pub struct IngestPipeline {
    config: StreamConfig,
    catalog: ItemCatalog,
    users: UserRegistry,
    space: TokenSpace,
    /// Cumulative enriched-token counts over everything ingested so far.
    freqs: Vec<u64>,
    /// Cumulative per-item click counts (the freeze cold threshold).
    clicks: Vec<u64>,
    /// The live model. `None` only transiently inside a fold.
    store: Option<EmbeddingStore>,
    events: u64,
    batches: u64,
    publishes: u64,
    vocab_admitted: u64,
    /// Arrival stamps of events ingested but not yet published.
    pending: Vec<u64>,
    trace: Fnv1a,
}

impl std::fmt::Debug for IngestPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestPipeline")
            .field("events", &self.events)
            .field("batches", &self.batches)
            .field("publishes", &self.publishes)
            .field("vocab_admitted", &self.vocab_admitted)
            .finish_non_exhaustive()
    }
}

impl IngestPipeline {
    /// Creates a pipeline over a fixed item/user universe. The store is
    /// word2vec-initialized from `config.sgns.seed`; nothing is trained
    /// until a warm start or the first batch.
    pub fn new(
        catalog: ItemCatalog,
        users: UserRegistry,
        config: StreamConfig,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        let space = TokenSpace::new(
            catalog.n_items(),
            catalog.cardinalities(),
            users.n_user_types(),
        );
        let n_tokens = space.len();
        let n_items = space.n_items() as usize;
        let store = EmbeddingStore::new(n_tokens, config.sgns.dim, config.sgns.seed);
        let mut trace = Fnv1a::new();
        trace.u64(config.sgns.seed);
        trace.u64(config.batch_sessions as u64);
        trace.u64(config.publish_every as u64);
        trace.u64(n_tokens as u64);
        Ok(Self {
            config,
            catalog,
            users,
            space,
            freqs: vec![0; n_tokens],
            clicks: vec![0; n_items],
            store: Some(store),
            events: 0,
            batches: 0,
            publishes: 0,
            vocab_admitted: 0,
            pending: Vec::new(),
            trace,
        })
    }

    /// The cumulative enriched-token frequency table (property-test
    /// surface: equals a from-scratch enrichment of the ingested prefix).
    pub fn freqs(&self) -> &[u64] {
        &self.freqs
    }

    /// The cumulative per-item click counts.
    pub fn clicks(&self) -> &[u64] {
        &self.clicks
    }

    /// The shared token layout.
    pub fn space(&self) -> &TokenSpace {
        &self.space
    }

    /// Snapshots published so far.
    pub fn publishes(&self) -> u64 {
        self.publishes
    }

    /// Folds an offline base corpus with the full *decaying* batch
    /// schedule — "yesterday's" model the stream then keeps fresh. Counts
    /// fold into the same cumulative tables as streamed batches. A corpus
    /// naming an unknown item or user is rejected whole, before any state
    /// changes.
    pub fn warm_start(&mut self, sessions: &Corpus) -> Result<TrainStats, StreamError> {
        self.check_ids(sessions.iter().map(|s| (s.user, s.items)))?;
        let enriched = self.enrich(sessions);
        let admitted = self.fold_counts(&enriched);
        self.fold_clicks(sessions);
        let cfg = self.fold_config(self.config.sgns.seed, self.config.sgns.min_learning_rate);
        let Some(store) = self.store.take() else {
            return Err(poisoned_store());
        };
        let (store, stats) = train_into(&enriched, &self.freqs, &cfg, store);
        self.store = Some(store);
        self.trace.u64(TAG_WARM_START);
        self.trace.u64(sessions.len() as u64);
        self.trace.u64(admitted);
        self.trace.u64(stats.pairs);
        Ok(stats)
    }

    /// Folds one batch of stream events: enrich → update cumulative
    /// tables → one flat-rate training increment. Arrival stamps queue up
    /// for the freshness histogram at the next publication. A batch naming
    /// an unknown item or user is rejected whole, before any state changes:
    /// it is not counted, folded or traced.
    pub fn ingest_batch(&mut self, events: &[SessionEvent]) -> Result<TrainStats, StreamError> {
        self.check_ids(events.iter().map(|e| (e.user, e.items.as_slice())))?;
        let batch_idx = self.batches;
        self.batches += 1;
        stream_metrics().batches.inc();
        if events.is_empty() {
            self.trace.u64(TAG_BATCH);
            self.trace.u64(batch_idx);
            self.trace.u64(0);
            return Ok(TrainStats::default());
        }
        let mut sessions =
            Corpus::with_capacity(events.len(), events.iter().map(|e| e.items.len()).sum());
        for e in events {
            sessions.push(e.user, &e.items);
            self.pending.push(e.time);
        }
        let enriched = self.enrich(&sessions);
        let admitted = self.fold_counts(&enriched);
        self.fold_clicks(&sessions);
        self.events += events.len() as u64;
        stream_metrics().events.add(events.len() as u64);

        // Mix the batch index into the seed so successive increments draw
        // fresh (but replayable) sampling decisions.
        let seed = self
            .config
            .sgns
            .seed
            .wrapping_add((batch_idx + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let cfg = self.fold_config(seed, self.config.sgns.learning_rate);
        let Some(store) = self.store.take() else {
            return Err(poisoned_store());
        };
        let fold_span = span(names::STREAM_TRAIN_SPAN);
        let (store, stats) = train_into(&enriched, &self.freqs, &cfg, store);
        drop(fold_span);
        self.store = Some(store);

        self.trace.u64(TAG_BATCH);
        self.trace.u64(batch_idx);
        self.trace.u64(events.len() as u64);
        self.trace.u64(admitted);
        self.trace.u64(stats.pairs);
        self.trace.u64(events.last().map_or(0, |e| e.time));
        Ok(stats)
    }

    /// Freezes the current model into a buildable matching service (the
    /// artifact a publication wraps in a snapshot). The live store is
    /// cloned; ingestion can continue while the caller holds the freeze.
    pub fn freeze(&self) -> Result<MatchingService, StreamError> {
        let Some(store) = &self.store else {
            return Err(poisoned_store());
        };
        let model = SisgModel::from_store(self.config.variant, self.space.clone(), store.clone())?;
        Ok(MatchingService::build(
            model,
            self.users.clone(),
            &self.clicks,
            self.config.serving,
        )?)
    }

    /// Freezes and publishes a snapshot through `engine`'s hot swap.
    /// `now` is the current clock reading (virtual ticks in replay, real
    /// µs for a wall-clock caller); every pending event's `now - arrival`
    /// lands in the `stream.freshness.us` histogram. Returns the new
    /// engine epoch.
    pub fn publish(&mut self, engine: &ServeEngine, now: u64) -> Result<u64, StreamError> {
        let service = self.freeze()?;
        let snapshot = ServingSnapshot::from_service_with(
            service,
            engine.config().n_shards(),
            engine.config().cold_path(),
        );
        let epoch = engine.install(snapshot)?;
        self.publishes += 1;
        stream_metrics().publishes.inc();
        let drained = self.pending.len() as u64;
        for t in self.pending.drain(..) {
            stream_metrics().freshness_us.record(now.saturating_sub(t));
        }
        // Best-effort probe: makes at least one worker observe the new
        // epoch (and clear its admission cache) right away instead of on
        // the next organic request. Under live load the probe may be shed;
        // that is not a publication failure.
        let probe_epoch = if self.space.n_items() > 0 {
            let item = ItemId(0);
            match engine.serve(ServeRequest::Candidates {
                item,
                si_values: *self.catalog.si_values(item),
                k: 1,
            }) {
                Ok(resp) => resp.epoch,
                Err(_) => u64::MAX,
            }
        } else {
            u64::MAX
        };
        self.trace.u64(TAG_PUBLISH);
        self.trace.u64(epoch);
        self.trace.u64(drained);
        self.trace.u64(now);
        self.trace.u64(probe_epoch);
        Ok(epoch)
    }

    /// Replays the full log under its **virtual clock** (the event
    /// times): single-threaded, deterministic, bit-reproducible. Folds
    /// every batch, publishes every `publish_every` batches and once more
    /// at the end (if anything is pending or nothing was ever published)
    /// so the final events are always servable; a publication is stamped
    /// with the latest event time folded so far.
    pub fn run_replay(
        &mut self,
        log: &EventLog,
        engine: &ServeEngine,
    ) -> Result<ReplayOutcome, StreamError> {
        let mut last_event = 0u64;
        let mut since_publish = 0usize;
        let mut final_epoch = engine.epoch();
        for batch in log.batches(self.config.batch_sessions) {
            last_event = batch.last().map_or(last_event, |e| e.time);
            self.ingest_batch(batch)?;
            since_publish += 1;
            if since_publish == self.config.publish_every {
                final_epoch = self.publish(engine, last_event)?;
                since_publish = 0;
            }
        }
        if since_publish > 0 || self.publishes == 0 {
            final_epoch = self.publish(engine, last_event)?;
        }
        Ok(self.outcome(final_epoch))
    }

    /// The stream boundary: every user must be in the registry and every
    /// clicked item in the catalog. Enrichment indexes both by id, so an
    /// unchecked id would panic there or train as an unrelated token.
    fn check_ids<'a>(
        &self,
        sessions: impl Iterator<Item = (UserId, &'a [ItemId])>,
    ) -> Result<(), StreamError> {
        let (n_items, n_users) = (self.space.n_items(), self.users.n_users());
        for (user, items) in sessions {
            if user.0 >= n_users {
                return Err(StreamError::UnknownUser { user, n_users });
            }
            if let Some(&item) = items.iter().find(|item| item.0 >= n_items) {
                return Err(StreamError::UnknownItem { item, n_items });
            }
        }
        Ok(())
    }

    /// Enriches a session batch through the same SI path as offline
    /// training — the vocabulary-admission mechanism.
    fn enrich<'s>(&self, sessions: &'s Corpus) -> EnrichedCorpus<'s> {
        EnrichedCorpus::build_from_sessions(
            sessions,
            &self.catalog,
            &self.users,
            self.space.n_items(),
            self.config.variant.enrich_options(),
        )
    }

    /// Adds a batch's vocabulary counts to the cumulative tables and
    /// returns how many tokens were admitted (first nonzero count).
    fn fold_counts(&mut self, enriched: &EnrichedCorpus<'_>) -> u64 {
        let mut admitted = 0u64;
        for (slot, &add) in self.freqs.iter_mut().zip(enriched.vocab().freqs()) {
            if add > 0 && *slot == 0 {
                admitted += 1;
            }
            *slot += add;
        }
        self.vocab_admitted += admitted;
        stream_metrics().vocab_admitted.add(admitted);
        admitted
    }

    fn fold_clicks(&mut self, sessions: &Corpus) {
        for s in sessions.iter() {
            for &item in s.items {
                if let Some(slot) = self.clicks.get_mut(item.index()) {
                    *slot += 1;
                }
            }
        }
    }

    /// Builds the per-fold SGNS config: variant window mode, the window
    /// stride-scaled against the *cumulative* token mix, and the given
    /// seed/LR-floor.
    fn fold_config(&self, seed: u64, min_learning_rate: f32) -> SgnsConfig {
        let mut cfg = self.config.sgns.clone();
        cfg.window_mode = self.config.variant.window_mode();
        cfg.window = self.effective_window();
        cfg.seed = seed;
        cfg.min_learning_rate = min_learning_rate;
        cfg
    }

    /// The offline trainer's window scaling
    /// ([`sisg_core::model::enriched_stride`]) against the cumulative
    /// frequency tables.
    fn effective_window(&self) -> usize {
        if !self.config.variant.uses_si() {
            return self.config.sgns.window;
        }
        self.config.sgns.window
            * enriched_stride(
                &self.freqs,
                self.space.n_items() as usize,
                self.config.sgns.subsample,
            )
    }

    fn outcome(&mut self, final_epoch: u64) -> ReplayOutcome {
        self.trace.u64(TAG_DONE);
        self.trace.u64(self.events);
        self.trace.u64(self.batches);
        self.trace.u64(self.publishes);
        self.trace.u64(self.vocab_admitted);
        self.trace.u64(final_epoch);
        let (checksum, codec) = match &self.store {
            Some(store) => (store_checksum(store), codec::encode(store).to_vec()),
            None => (0, Vec::new()),
        };
        ReplayOutcome {
            trace_hash: self.trace.finish(),
            events: self.events,
            batches: self.batches,
            publishes: self.publishes,
            vocab_admitted: self.vocab_admitted,
            final_epoch,
            store_checksum: checksum,
            codec,
        }
    }
}

/// The store is `None` only if a previous fold was interrupted mid-call
/// (it returned early with the store checked out) — a poisoned pipeline.
fn poisoned_store() -> StreamError {
    StreamError::InvalidConfig {
        field: "store",
        reason: "pipeline poisoned by an earlier interrupted fold",
    }
}
