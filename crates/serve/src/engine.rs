//! The sharded worker-pool engine.
//!
//! [`ServeEngine::start`] wraps a built
//! [`MatchingService`] in a
//! [`ServingSnapshot`] shared by the worker threads, each owning a request
//! queue and a worker-local admission-gated cold-path cache.
//! Requests route deterministically —
//! candidate lookups by `item % n_shards`, cold-user queries by a
//! demographic hash — so a repeating cold key always lands on the shard
//! that cached it.
//!
//! # Backpressure
//!
//! Submission never blocks, which is the only sane contract for an online
//! matcher (a blocked caller would stack up latency exactly when the
//! system is least able to absorb it). Every request first claims one of
//! its tenant's in-flight budget slots on the target shard — an engine
//! declared without a tenant table serves one implicit `default` tenant
//! holding all `queue_capacity` slots — and an exhausted budget sheds with
//! [`ServeError::SloBudgetExhausted`]. That is the only shed rule: the
//! slot travels with the task into the shard queue and back with the
//! answer, and frees when the caller collects it (or, for an abandoned
//! response, when the worker has answered). Every queued task holds a
//! slot, so a shard queue never holds more than `queue_capacity` tasks and
//! needs no bound of its own.
//!
//! # Hot swap
//!
//! [`ServeEngine::install`] publishes a new snapshot under a write lock and
//! bumps the epoch inside the same critical section, so workers always
//! observe a coherent `(epoch, snapshot)` pair. Workers poll the epoch
//! with one relaxed-cost atomic load per request and re-clone the `Arc`
//! only when it moves; requests already in flight finish on the old
//! snapshot (its `Arc` keeps it alive) and nothing is dropped.

use crate::api::{ServeError, ServeRequest, ServeResponse, TenantRequest};
use crate::cache::AdmissionCache;
use crate::config::{ServeEngineConfig, TenantId};
use crate::metrics::{serve_metrics, TenantMetrics};
use crate::snapshot::ServingSnapshot;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use sisg_core::{MatchingService, SiAggregation};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

/// State shared between the engine handle and every worker.
struct EngineShared {
    /// The current snapshot. Written only by [`ServeEngine::install`], which
    /// also bumps `epoch` inside the write critical section — readers
    /// that take the read lock therefore always see a coherent pair.
    snapshot: RwLock<Arc<ServingSnapshot>>,
    epoch: AtomicU64,
}

/// Takes the read lock, recovering from a poisoned writer (the data is a
/// plain `Arc` swap, always internally consistent).
fn read_snapshot(lock: &RwLock<Arc<ServingSnapshot>>) -> RwLockReadGuard<'_, Arc<ServingSnapshot>> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_snapshot(
    lock: &RwLock<Arc<ServingSnapshot>>,
) -> RwLockWriteGuard<'_, Arc<ServingSnapshot>> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One unit of work on a shard queue.
enum Task {
    /// Answer a request and reply on the enclosed channel.
    Serve {
        req: ServeRequest,
        /// The budget slot `submit` claimed; the worker reads the tenant
        /// from it and sends it back with the answer.
        slot: SlotGuard,
        reply: Sender<Reply>,
    },
    /// Signal `parked`, then park until the paired [`ShardHold`] is
    /// dropped (test hook for deterministic backpressure).
    Hold {
        parked: Sender<()>,
        gate: Receiver<()>,
    },
}

/// An answer and the budget slot its request held. Whoever drops it frees
/// the slot: [`PendingResponse::wait`] on collection, or the worker when
/// the caller has already abandoned the response.
type Reply = (Result<ServeResponse, ServeError>, SlotGuard);

/// Values of one tenant's counters, for baseline/delta stats reads.
#[derive(Debug, Clone, Copy, Default)]
struct TenantCounters {
    requests: u64,
    shed: u64,
    warm_hits: u64,
    cold_items: u64,
    cold_users: u64,
    cache_hits: u64,
}

impl TenantCounters {
    fn now(m: &TenantMetrics) -> Self {
        Self {
            requests: m.requests.get(),
            shed: m.shed.get(),
            warm_hits: m.warm_hits.get(),
            cold_items: m.cold_items.get(),
            cold_users: m.cold_users.get(),
            cache_hits: m.cache_hits.get(),
        }
    }

    fn since(self, baseline: Self) -> Self {
        Self {
            requests: self.requests.saturating_sub(baseline.requests),
            shed: self.shed.saturating_sub(baseline.shed),
            warm_hits: self.warm_hits.saturating_sub(baseline.warm_hits),
            cold_items: self.cold_items.saturating_sub(baseline.cold_items),
            cold_users: self.cold_users.saturating_sub(baseline.cold_users),
            cache_hits: self.cache_hits.saturating_sub(baseline.cache_hits),
        }
    }
}

/// Engine-side state of one tenant: its metric slice, shed budget, and
/// per-shard in-flight accounting.
pub(crate) struct TenantRuntime {
    pub(crate) id: TenantId,
    label: String,
    /// In-flight request slots per shard
    /// ([`ServeEngineConfig::tenant_budget_slots`]).
    slots: u32,
    pub(crate) si_weighting: SiAggregation,
    pub(crate) metrics: TenantMetrics,
    /// Counter values at engine start, so [`ServeEngine::tenant_stats`]
    /// reports per-engine deltas off the process-global registry.
    baseline: TenantCounters,
    /// `in_flight[shard]` = requests submitted to `shard` and not yet
    /// collected (or, if abandoned, not yet answered). Bounded by `slots`;
    /// the bound is what makes shed decisions deterministic — for callers
    /// that collect what they submit they depend only on submission and
    /// collection order, never on worker timing.
    in_flight: Vec<AtomicU32>,
}

impl TenantRuntime {
    /// This tenant's counters as deltas since engine start.
    fn counters(&self) -> TenantCounters {
        TenantCounters::now(&self.metrics).since(self.baseline)
    }
}

/// The engine's resolved tenant table. Shared with every budget slot, so
/// whoever drops a slot can release it.
struct TenantTable {
    tenants: Vec<TenantRuntime>,
}

impl TenantTable {
    fn index_of(&self, id: TenantId) -> Option<usize> {
        // Tenant tables are small (a handful of workload profiles); a
        // linear scan beats a hash map at this size and allocates nothing.
        self.tenants.iter().position(|t| t.id == id)
    }
}

/// RAII release of one tenant budget slot. It moves with its task into
/// the shard queue and back through the reply channel (see [`Reply`]), so
/// a task holds its slot for as long as it is queued.
struct SlotGuard {
    table: Arc<TenantTable>,
    /// Index in the tenant table, and of the tenant's cache partition in
    /// each worker.
    tenant: usize,
    shard: usize,
}

impl SlotGuard {
    fn runtime(&self) -> &TenantRuntime {
        &self.table.tenants[self.tenant]
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        // ORDERING: Release — pairs with the AcqRel acquisition in
        // `ServeEngine::submit`; a submitter that observes the freed slot
        // also observes everything this request did.
        self.runtime().in_flight[self.shard].fetch_sub(1, Ordering::Release);
    }
}

/// A handle that keeps one worker parked; dropping it releases the worker.
/// Produced by [`ServeEngine::hold_shard`] once the worker is parked and
/// its queue is empty, so tests can queue requests behind it
/// deterministically instead of racing a flood of requests.
pub struct ShardHold {
    /// Dropping the sender disconnects the worker's `gate.recv()`.
    _gate: Sender<()>,
}

impl std::fmt::Debug for ShardHold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHold").finish_non_exhaustive()
    }
}

/// An in-flight request submitted with [`ServeEngine::submit`]. Its task
/// holds the tenant's budget slot until the response is collected with
/// [`PendingResponse::wait`]. Dropping the handle does not withdraw the
/// task: it stays queued, holding its slot, until the worker has answered
/// it.
pub struct PendingResponse {
    reply: Receiver<Reply>,
}

impl std::fmt::Debug for PendingResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingResponse").finish_non_exhaustive()
    }
}

impl PendingResponse {
    /// Blocks until the worker answers, then frees the budget slot.
    /// Returns [`ServeError::Disconnected`] if the engine shut down first.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        match self.reply.recv() {
            Ok((result, _slot)) => result,
            Err(_) => Err(ServeError::Disconnected),
        }
    }
}

/// Engine counters as deltas since [`ServeEngine::start`]: the sum of this
/// engine's tenant slices plus the engine-level swap and cache-clear
/// counters.
///
/// The obs registry is the single source of truth; this snapshot is a
/// convenience read of it. Deltas are per-process, so two engines in one
/// process see each other's swaps and clears, and the traffic of each
/// other's tenants that share a label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests that reached a worker (sheds are not counted here).
    pub requests: u64,
    /// Warm artifact lookups.
    pub warm_hits: u64,
    /// Cold-item (Eq. 6) requests.
    pub cold_item_requests: u64,
    /// Cold-user requests.
    pub cold_user_requests: u64,
    /// Cold-path answers served from the admission cache.
    pub cache_hits: u64,
    /// Cold-path answers that had to be computed: every cold request
    /// passes the cache once, so this is cold requests minus cache hits.
    pub cache_misses: u64,
    /// Snapshot hot-swaps installed.
    pub swaps: u64,
    /// Worker admission-cache clears (each worker clears once per epoch
    /// it observes, so one swap yields up to `n_shards` clears).
    pub cache_clears: u64,
}

/// One tenant's counters as deltas since [`ServeEngine::start`], read
/// from the tenant's `serve.tenant.<label>.*` metric slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant these counters belong to.
    pub tenant: TenantId,
    /// The tenant's metric label.
    pub label: String,
    /// Requests that reached a worker (budget sheds are in `shed`).
    pub requests: u64,
    /// Requests shed against this tenant's own budget
    /// ([`ServeError::SloBudgetExhausted`]).
    pub shed: u64,
    /// Warm artifact lookups.
    pub warm_hits: u64,
    /// Cold-item (Eq. 6) requests.
    pub cold_item_requests: u64,
    /// Cold-user requests.
    pub cold_user_requests: u64,
    /// Cold-path answers served from this tenant's cache partition.
    pub cache_hits: u64,
}

/// The sharded, hot-swappable online matching engine.
pub struct ServeEngine {
    config: ServeEngineConfig,
    shared: Arc<EngineShared>,
    tenant_table: Arc<TenantTable>,
    senders: Vec<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
    /// `serve.swaps_total` and `serve.cache_clears_total` at start.
    baseline: (u64, u64),
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("config", &self.config)
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Reshards `service` across `config.n_shards` workers and starts the
    /// pool. A config without tenants runs one implicit `default` tenant
    /// with every queue slot and the whole cache. Fails on an invalid
    /// config or if the OS refuses a thread.
    pub fn start(service: MatchingService, config: ServeEngineConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let config = config.with_implicit_tenant();
        let metrics = serve_metrics();
        let baseline = (metrics.swaps.get(), metrics.cache_clears.get());
        let snapshot = Arc::new(ServingSnapshot::from_service_with(
            service,
            config.n_shards(),
            config.cold_path(),
        ));
        if let Some(index) = snapshot.cold_index() {
            metrics
                .quant_bytes_per_item
                .set(index.bytes_per_item() as f64);
        }
        let shared = Arc::new(EngineShared {
            snapshot: RwLock::new(Arc::clone(&snapshot)),
            epoch: AtomicU64::new(0),
        });
        let slots = config.tenant_budget_slots();
        let cache_caps = config.tenant_cache_capacities();
        let tenant_table = Arc::new(TenantTable {
            tenants: config
                .tenants()
                .iter()
                .zip(&slots)
                .map(|(t, &s)| {
                    let tm = TenantMetrics::for_label(&t.label);
                    TenantRuntime {
                        id: t.id,
                        label: t.label.clone(),
                        slots: s as u32,
                        si_weighting: t.si_weighting,
                        metrics: tm,
                        baseline: TenantCounters::now(&tm),
                        in_flight: (0..config.n_shards()).map(|_| AtomicU32::new(0)).collect(),
                    }
                })
                .collect(),
        });
        let mut senders = Vec::with_capacity(config.n_shards());
        let mut workers = Vec::with_capacity(config.n_shards());
        for shard in 0..config.n_shards() {
            // Unbounded: every queued task holds a budget slot, and the
            // slots of all tenants sum to at most `queue_capacity`.
            let (tx, rx) = unbounded::<Task>();
            let worker_shared = Arc::clone(&shared);
            let worker_snapshot = Arc::clone(&snapshot);
            // One cache partition per tenant, sized by its cache share.
            let caches: Vec<AdmissionCache> = cache_caps
                .iter()
                .map(|&cap| AdmissionCache::new(cap, config.cache_admit_after()))
                .collect();
            let spawned = std::thread::Builder::new()
                .name(format!("sisg-serve-{shard}"))
                .spawn(move || worker_loop(shard, rx, worker_shared, worker_snapshot, caches));
            match spawned {
                Ok(handle) => {
                    senders.push(tx);
                    workers.push(handle);
                }
                Err(_) => {
                    drop(tx);
                    drop(senders);
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(ServeError::Spawn);
                }
            }
        }
        Ok(Self {
            config,
            shared,
            tenant_table,
            senders,
            workers,
            baseline,
        })
    }

    /// The engine configuration, with the implicit `default` tenant in
    /// its table when none was declared.
    pub fn config(&self) -> &ServeEngineConfig {
        &self.config
    }

    /// The current snapshot epoch (0 at start, +1 per [`Self::install`]).
    pub fn epoch(&self) -> u64 {
        // ORDERING: Acquire — pairs with the AcqRel bump in `install` so a
        // caller that observes epoch N also observes snapshot N's contents.
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot (an `Arc` clone; in-flight swaps don't affect
    /// it). Exposed for parity checks and warm-list introspection.
    pub fn snapshot(&self) -> Arc<ServingSnapshot> {
        Arc::clone(&read_snapshot(&self.shared.snapshot))
    }

    /// Engine counters as deltas since this engine started (read from the
    /// obs registry — see [`EngineStats`] for the multi-engine caveat).
    pub fn stats(&self) -> EngineStats {
        let m = serve_metrics();
        let mut stats = EngineStats {
            swaps: m.swaps.get().saturating_sub(self.baseline.0),
            cache_clears: m.cache_clears.get().saturating_sub(self.baseline.1),
            ..EngineStats::default()
        };
        for t in &self.tenant_table.tenants {
            let c = t.counters();
            stats.requests += c.requests;
            stats.warm_hits += c.warm_hits;
            stats.cold_item_requests += c.cold_items;
            stats.cold_user_requests += c.cold_users;
            stats.cache_hits += c.cache_hits;
        }
        stats.cache_misses =
            (stats.cold_item_requests + stats.cold_user_requests).saturating_sub(stats.cache_hits);
        stats
    }

    /// Per-tenant counters as deltas since this engine started, in tenant
    /// table order. An engine declared without tenants reports one row,
    /// its implicit `default` tenant.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.tenant_table
            .tenants
            .iter()
            .map(|t| {
                let c = t.counters();
                TenantStats {
                    tenant: t.id,
                    label: t.label.clone(),
                    requests: c.requests,
                    shed: c.shed,
                    warm_hits: c.warm_hits,
                    cold_item_requests: c.cold_items,
                    cold_user_requests: c.cold_users,
                    cache_hits: c.cache_hits,
                }
            })
            .collect()
    }

    /// The shard a request routes to.
    fn shard_for(&self, req: &ServeRequest) -> usize {
        match *req {
            ServeRequest::Candidates { item, .. } => item.index() % self.config.n_shards(),
            ServeRequest::ColdUser {
                gender,
                age,
                purchase,
                ..
            } => {
                // FNV-1a over the demographic bytes: deterministic across
                // runs (unlike `DefaultHasher`), so a repeating cold-user
                // key always lands on the shard holding its cache entry.
                let mut h = sisg_obs::Fnv1a::new();
                h.bytes(&[
                    gender.map_or(0xff, |g| g),
                    age.map_or(0xff, |a| a),
                    purchase.map_or(0xff, |p| p),
                    gender.is_some() as u8
                        | (age.is_some() as u8) << 1
                        | (purchase.is_some() as u8) << 2,
                ]);
                (h.finish() % self.config.n_shards() as u64) as usize
            }
        }
    }

    /// Submits a request without waiting for the answer. Never blocks.
    ///
    /// The request first claims one of its tenant's in-flight budget slots
    /// on the target shard; an exhausted budget sheds with
    /// [`ServeError::SloBudgetExhausted`] (the tenant's own verdict —
    /// other tenants' slots are untouched), and an undeclared tenant is
    /// [`ServeError::UnknownTenant`]. Untagged [`ServeRequest`]s belong to
    /// [`TenantId::DEFAULT`], the implicit tenant of an engine declared
    /// without a tenant table. The slot travels with the task and frees
    /// when the returned [`PendingResponse`] is collected, or — if it is
    /// dropped — once the worker has answered. For callers that collect
    /// what they submit, budget sheds depend only on submission/collection
    /// order: deterministic under any worker timing.
    pub fn submit(&self, req: impl Into<TenantRequest>) -> Result<PendingResponse, ServeError> {
        let TenantRequest { tenant, request } = req.into();
        let shard = self.shard_for(&request);
        let idx = self
            .tenant_table
            .index_of(tenant)
            .ok_or(ServeError::UnknownTenant(tenant))?;
        let rt = &self.tenant_table.tenants[idx];
        // ORDERING: AcqRel on success pairs with the Release decrement in
        // `SlotGuard::drop`, so a claimed slot observes the prior holder's
        // effects; Acquire on failure only observes the count.
        let claimed = rt.in_flight[shard].fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
            (v < rt.slots).then_some(v + 1)
        });
        if claimed.is_err() {
            rt.metrics.shed.inc();
            return Err(ServeError::SloBudgetExhausted { tenant, shard });
        }
        let slot = SlotGuard {
            table: Arc::clone(&self.tenant_table),
            tenant: idx,
            shard,
        };
        let (reply_tx, reply_rx) = bounded(1);
        let task = Task::Serve {
            req: request,
            slot,
            reply: reply_tx,
        };
        // A failed send hands the task back; dropping it frees the slot.
        self.senders[shard]
            .send(task)
            .map_err(|_| ServeError::Disconnected)?;
        Ok(PendingResponse { reply: reply_rx })
    }

    /// Submits a request and blocks for the answer.
    pub fn serve(&self, req: impl Into<TenantRequest>) -> Result<ServeResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// Atomically installs a pre-built [`ServingSnapshot`] (the streaming
    /// pipeline's publication path: the snapshot is frozen off-thread, the
    /// engine only pays the pointer swap) and returns the new epoch.
    /// In-flight requests finish on the old snapshot; workers pick up the
    /// new one (and drop their cold caches) on their next request.
    ///
    /// The snapshot must have been built for this engine's worker count;
    /// one built for another count is rejected instead of installed, so
    /// the installed snapshot's `n_shards()` always equals the engine's.
    pub fn install(&self, snapshot: ServingSnapshot) -> Result<u64, ServeError> {
        if snapshot.n_shards() != self.config.n_shards() {
            return Err(ServeError::Rejected(sisg_core::CoreError::InvalidConfig {
                field: "n_shards",
                reason: "snapshot was built for a different worker count",
            }));
        }
        if let Some(index) = snapshot.cold_index() {
            serve_metrics()
                .quant_bytes_per_item
                .set(index.bytes_per_item() as f64);
        }
        let next = Arc::new(snapshot);
        let mut guard = write_snapshot(&self.shared.snapshot);
        *guard = next;
        // The bump must happen inside the write critical section: readers
        // holding the read lock then see epoch and snapshot move together.
        // ORDERING: AcqRel — the release half publishes the new snapshot to
        // Acquire loads of the epoch; the acquire half keeps the bump from
        // floating above the `*guard = next` store in this section.
        let epoch = self.shared.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        drop(guard);
        serve_metrics().swaps.inc();
        Ok(epoch)
    }

    /// Parks `shard`'s worker until the returned guard is dropped (test
    /// hook: lets a test queue requests behind it deterministically).
    /// Blocks until the worker has drained what was queued before the hold
    /// and parked, so the queue is empty when this returns.
    pub fn hold_shard(&self, shard: usize) -> Result<ShardHold, ServeError> {
        let sender = self.senders.get(shard).ok_or(ServeError::Rejected(
            sisg_core::CoreError::InvalidConfig {
                field: "shard",
                reason: "out of range for this engine",
            },
        ))?;
        let (gate_tx, gate_rx) = bounded(1);
        let (parked_tx, parked_rx) = bounded(1);
        let hold = Task::Hold {
            parked: parked_tx,
            gate: gate_rx,
        };
        sender.send(hold).map_err(|_| ServeError::Disconnected)?;
        parked_rx.recv().map_err(|_| ServeError::Disconnected)?;
        Ok(ShardHold { _gate: gate_tx })
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // Disconnect every queue, then join: workers drain what was
        // already accepted (no dropped in-flight work) and exit on the
        // hung-up channel.
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: drains its shard queue, tracking the shared epoch with a
/// single atomic load per request and re-reading the snapshot under the
/// read lock only when the epoch moves.
fn worker_loop(
    shard: usize,
    rx: Receiver<Task>,
    shared: Arc<EngineShared>,
    mut snapshot: Arc<ServingSnapshot>,
    mut caches: Vec<AdmissionCache>,
) {
    let metrics = serve_metrics();
    // ORDERING: Acquire — pairs with `install`'s AcqRel bump; see `epoch()`.
    let mut epoch = shared.epoch.load(Ordering::Acquire);
    while let Ok(task) = rx.recv() {
        match task {
            Task::Hold { parked, gate } => {
                // Parked until the ShardHold drops its sender (recv then
                // returns Err) or sends an explicit release.
                let _ = parked.send(());
                let _ = gate.recv();
            }
            Task::Serve { req, slot, reply } => {
                // ORDERING: Acquire — the cheap per-request staleness probe; pairs
                // with `install`'s AcqRel bump.
                let current = shared.epoch.load(Ordering::Acquire);
                if current != epoch {
                    let guard = read_snapshot(&shared.snapshot);
                    // Epoch and snapshot are written under the same write
                    // lock, so this pair is coherent.
                    // ORDERING: Acquire — re-read under the read lock; the lock makes
                    // the epoch/snapshot pair coherent, Acquire keeps this load from
                    // reordering above the lock acquisition.
                    epoch = shared.epoch.load(Ordering::Acquire);
                    snapshot = Arc::clone(&guard);
                    drop(guard);
                    // All tenant partitions answer from the snapshot, so
                    // a new epoch invalidates every one of them; this
                    // still counts as one clear per worker.
                    for cache in &mut caches {
                        cache.clear();
                    }
                    metrics.cache_clears.inc();
                }
                let tenant = slot.runtime();
                let cache = &mut caches[slot.tenant];
                let result = snapshot.serve(&req, tenant, shard, epoch, cache, metrics);
                // The caller may have abandoned its PendingResponse: the
                // failed send hands the reply back, and dropping it here
                // frees the slot.
                let _ = reply.try_send((result, slot));
            }
        }
    }
}
