//! The TNS message protocol as a pure, driver-agnostic state machine.
//!
//! [`WorkerMachine`] owns one worker's disjoint model shard and advances
//! the Algorithm 1 scan one pair at a time: [`WorkerMachine::step`]
//! processes local pairs in place and *emits* a [`TnsRequest`] when a
//! pair's context lives on another shard; [`WorkerMachine::deliver`]
//! serves incoming requests (negatives from the local noise distribution,
//! output updates in place, gradient returned) and matches incoming
//! responses against the one outstanding request.
//!
//! The machines have one driver: the single-threaded virtual-clock
//! scheduler in `crates/simtest`, which moves the messages between them
//! and replays seeded fault schedules deterministically. A machine is
//! single-owner by construction, so nothing here needs a thread.
//!
//! What surrounds the machines is a [`TnsRun`], the run set-up the
//! threaded runtime shares: every machine borrows it, pulls its pairs from
//! a shared pair scan, steps them through the one TNS step, and the run
//! assembles the trained store and the [`TnsReport`] from the finished
//! machines — the driver owns only its transport.
//!
//! Fault tolerance lives in the protocol, not the driver:
//!
//! - **Sequence numbers + duplicate suppression.** Every request carries a
//!   per-sender monotonically increasing `seq`. The serving side remembers
//!   the last `seq` it served per peer together with the cached response:
//!   a duplicate request is answered by *replaying* the cached response
//!   without re-applying the update (idempotent at-least-once delivery),
//!   and a response whose `seq` does not match the outstanding request is
//!   discarded — so duplicated or delayed messages never double-apply a
//!   gradient.
//! - **Bounded retries.** A requester whose response never arrives asks
//!   the machine to [`WorkerMachine::retry`]; after `max_attempts` the
//!   pair is skipped and counted (`gave_up`) instead of deadlocking.
//! - **Checkpoint/restore.** [`WorkerMachine::checkpoint`] snapshots the
//!   shard, counters and sequence state at an epoch boundary;
//!   [`WorkerMachine::restore`] rebuilds a machine from it. Restores use
//!   an *incarnation* number to move into a fresh region of the sequence
//!   space, so a restarted worker can never be confused with its pre-crash
//!   self by a peer's duplicate cache.
//!
//! This module (plus [`crate::fault`] and [`crate::recovery`]) is in the
//! `xtask lint` panic-free set: no `unwrap`/`expect` — every fallible path
//! returns a `Result` or degrades gracefully.

use crate::partition::PartitionMap;
use crate::recovery::ShardCheckpoint;
use crate::tns::{PairScan, StepState, TnsRun};
use sisg_corpus::TokenId;
use sisg_embedding::{kernels, EmbeddingStore, Matrix};
use sisg_obs::names as obs_names;
use sisg_sgns::sgd::OutputRows;

/// A remote TNS call: "here is my input vector for `target`; run the step
/// against `context` on your shard and send the gradient back".
#[derive(Debug, Clone, PartialEq)]
pub struct TnsRequest {
    /// Requesting worker (where the response goes).
    pub from: usize,
    /// Per-sender sequence number (monotonically increasing; the upper 16
    /// bits carry the sender's incarnation after a crash restore).
    pub seq: u64,
    /// The target token (for accounting; the vector travels alongside).
    pub target: TokenId,
    /// The context token, owned by the receiving worker.
    pub context: TokenId,
    /// The target's input vector `v_i`.
    pub input: Vec<f32>,
    /// Learning rate to apply on the remote side.
    pub lr: f32,
}

/// The gradient shipped back to the requester.
#[derive(Debug, Clone, PartialEq)]
pub struct TnsResponse {
    /// Sequence number of the request this answers.
    pub seq: u64,
    /// The target token the gradient belongs to.
    pub target: TokenId,
    /// `∂L/∂v_i`, to be applied by the owner of the input vector.
    pub grad: Vec<f32>,
}

/// A protocol message: one request or one response.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A remote TNS call.
    Request(TnsRequest),
    /// Its gradient reply.
    Response(TnsResponse),
}

/// Compact little-endian byte codec for messages and checkpoints. Decoding
/// is panic-free: truncated or malformed input returns [`WireError`].
pub(crate) mod wire {
    /// Decode failure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WireError {
        /// Input ended before the structure was complete.
        Truncated,
        /// Unknown message tag byte.
        BadTag(u8),
        /// Checkpoint magic bytes missing.
        BadMagic,
        /// Unsupported format version.
        BadVersion(u32),
        /// Bytes left over after a complete structure.
        Trailing,
    }

    impl std::fmt::Display for WireError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                WireError::Truncated => write!(f, "input truncated"),
                WireError::BadTag(t) => write!(f, "unknown tag {t}"),
                WireError::BadMagic => write!(f, "bad magic"),
                WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
                WireError::Trailing => write!(f, "trailing bytes"),
            }
        }
    }

    pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
        out.reserve(vs.len() * 4);
        for v in vs {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// A bounds-checked cursor over an input buffer.
    pub(crate) struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub(crate) fn new(buf: &'a [u8]) -> Self {
            Self { buf, pos: 0 }
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
            let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
            let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
            self.pos = end;
            Ok(slice)
        }

        pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
            Ok(self.take(1)?[0])
        }

        pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
            let b = self.take(4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
            let b = self.take(8)?;
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            Ok(u64::from_le_bytes(a))
        }

        pub(crate) fn f32(&mut self) -> Result<f32, WireError> {
            let b = self.take(4)?;
            Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        /// The next `n` elements of `size` bytes each, as one slice. `n`
        /// is a declared count straight off the wire, so the bytes are
        /// taken — and found missing — before anything is allocated for
        /// them.
        pub(crate) fn elems(
            &mut self,
            n: usize,
            size: usize,
        ) -> Result<std::slice::ChunksExact<'a, u8>, WireError> {
            let bytes = n.checked_mul(size).ok_or(WireError::Truncated)?;
            Ok(self.take(bytes)?.chunks_exact(size))
        }

        pub(crate) fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
            Ok(self
                .elems(n, 4)?
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect())
        }

        pub(crate) fn finish(self) -> Result<(), WireError> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(WireError::Trailing)
            }
        }
    }
}

pub use wire::WireError;

const TAG_REQUEST: u8 = 1;
const TAG_RESPONSE: u8 = 2;

impl Message {
    /// Serializes the message into a compact little-endian byte form (the
    /// shape duplicate injection and checkpointing round-trip through).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Request(req) => {
                out.push(TAG_REQUEST);
                wire::put_u32(&mut out, req.from as u32);
                wire::put_u64(&mut out, req.seq);
                wire::put_u32(&mut out, req.target.0);
                wire::put_u32(&mut out, req.context.0);
                out.extend_from_slice(&req.lr.to_le_bytes());
                wire::put_u32(&mut out, req.input.len() as u32);
                wire::put_f32s(&mut out, &req.input);
            }
            Message::Response(resp) => {
                out.push(TAG_RESPONSE);
                wire::put_u64(&mut out, resp.seq);
                wire::put_u32(&mut out, resp.target.0);
                wire::put_u32(&mut out, resp.grad.len() as u32);
                wire::put_f32s(&mut out, &resp.grad);
            }
        }
        out
    }

    /// Decodes a message previously produced by [`Message::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = wire::Reader::new(buf);
        let msg = match r.u8()? {
            TAG_REQUEST => {
                let from = r.u32()? as usize;
                let seq = r.u64()?;
                let target = TokenId(r.u32()?);
                let context = TokenId(r.u32()?);
                let lr = r.f32()?;
                let dim = r.u32()? as usize;
                let input = r.f32s(dim)?;
                Message::Request(TnsRequest {
                    from,
                    seq,
                    target,
                    context,
                    input,
                    lr,
                })
            }
            TAG_RESPONSE => {
                let seq = r.u64()?;
                let target = TokenId(r.u32()?);
                let dim = r.u32()? as usize;
                let grad = r.f32s(dim)?;
                Message::Response(TnsResponse { seq, target, grad })
            }
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// One worker's disjoint shard of the model: dense rows for the tokens it
/// owns, indexed through the global partition map.
#[derive(Debug)]
struct Shard {
    /// Row index within the shard for each global token (`u32::MAX` = not
    /// owned).
    local_index: Vec<u32>,
    /// Input (target-side) rows of the owned tokens.
    pub(crate) input: Matrix,
    /// Output (context-side) rows of the owned tokens.
    pub(crate) output: Matrix,
}

impl Shard {
    /// Builds the shard of worker `me` under `partition`, seeding the
    /// input rows deterministically per worker.
    pub fn new(partition: &PartitionMap, me: usize, dim: usize, seed: u64) -> Self {
        let mut local_index = vec![u32::MAX; partition.len()];
        let mut count = 0u32;
        for (t, slot) in local_index.iter_mut().enumerate() {
            if partition.owner(TokenId(t as u32)) == me {
                *slot = count;
                count += 1;
            }
        }
        Self {
            local_index,
            // Per-worker seed offset: shards only need determinism, not
            // row-for-row equality with a single-process initialization.
            input: Matrix::uniform_init(count as usize, dim, seed ^ (me as u64) << 17),
            output: Matrix::zeros(count as usize, dim),
        }
    }

    /// Number of rows (owned tokens) in this shard.
    pub fn rows(&self) -> usize {
        self.input.rows()
    }

    #[inline]
    pub(crate) fn row(&self, token: TokenId) -> usize {
        let r = self.local_index[token.index()];
        debug_assert_ne!(r, u32::MAX, "token not owned by this shard");
        r as usize
    }

    /// True when `token` is a row of this shard (false for any token
    /// outside the token space).
    fn owns(&self, token: TokenId) -> bool {
        self.local_index
            .get(token.index())
            .is_some_and(|&r| r != u32::MAX)
    }

    #[inline]
    fn local(&self, token: TokenId) -> TokenId {
        TokenId(self.row(token) as u32)
    }

    /// Copies this shard's owned rows into global matrices.
    pub(crate) fn export_into(
        &self,
        partition: &PartitionMap,
        me: usize,
        input: &mut Matrix,
        output: &mut Matrix,
    ) {
        for t in 0..self.local_index.len() {
            let r = self.local_index[t];
            if r != u32::MAX && partition.owner(TokenId(t as u32)) == me {
                input.row_mut(t).copy_from_slice(self.input.row(r as usize));
                output
                    .row_mut(t)
                    .copy_from_slice(self.output.row(r as usize));
            }
        }
    }
}

impl OutputRows for Shard {
    // Step tokens map to shard-local rows: a bijection, so distinct tokens
    // stay distinct and the batched dot phase sees the same step list.
    #[inline]
    fn dot(&self, t: TokenId, v: &[f32]) -> f32 {
        self.output.dot(self.local(t), v)
    }
    #[inline]
    fn dot_x4(&self, [a, b, c, d]: [TokenId; 4], v: &[f32]) -> [f32; 4] {
        self.output.dot_x4(
            [self.local(a), self.local(b), self.local(c), self.local(d)],
            v,
        )
    }
    #[inline]
    fn fused_step(&mut self, t: TokenId, g: f32, v: &[f32], grad: &mut [f32]) {
        let local = self.local(t);
        self.output.fused_step(local, g, v, grad);
    }
}

/// The machine-side half of [`TnsRun`]: collecting the finished machines.
impl TnsRun<'_> {
    /// Ends the run: exports every finished machine's shard into one
    /// global store, folds its counters into `report` (which arrives with
    /// the driver's own fields — injected faults, recoveries — filled in,
    /// and receives `pairs_per_worker` in iteration order) and mirrors the
    /// totals into the obs registry.
    pub fn assemble<'m>(
        &self,
        machines: impl IntoIterator<Item = WorkerMachine<'m>>,
        mut report: TnsReport,
    ) -> (EmbeddingStore, TnsReport) {
        let rows = self.enriched.space().len();
        let mut input = Matrix::zeros(rows, self.config.dim);
        let mut output = Matrix::zeros(rows, self.config.dim);
        for machine in machines {
            report.absorb(&machine.counters);
            machine
                .shard
                .export_into(&self.partition, machine.me, &mut input, &mut output);
        }
        report.publish_to_obs();
        (EmbeddingStore::from_matrices(input, output), report)
    }
}

/// Per-machine protocol counters, aggregated into a [`TnsReport`] by
/// [`TnsRun::assemble`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MachineCounters {
    /// Positive pairs this worker was responsible for.
    pub pairs: u64,
    /// Pairs whose context lived on another shard.
    pub remote_pairs: u64,
    /// Protocol messages this machine emitted (requests, responses,
    /// retransmissions, dedup replays).
    pub messages: u64,
    /// Vector payload bytes in those messages.
    pub payload_bytes: u64,
    /// Retransmissions after a response timeout.
    pub retries: u64,
    /// Duplicate requests absorbed by the idempotency cache.
    pub requests_deduped: u64,
    /// Responses discarded as duplicate or stale.
    pub stale_responses: u64,
    /// Remote pairs abandoned after exhausting retry attempts.
    pub gave_up: u64,
}

/// Counters of one message-passing run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TnsReport {
    /// Positive pairs processed in total.
    pub pairs: u64,
    /// Pairs whose TNS call crossed workers (request + response messages
    /// each).
    pub remote_pairs: u64,
    /// Total messages passed (including retransmissions and dedup
    /// replays; zero-fault runs see exactly `2 × remote_pairs`).
    pub messages: u64,
    /// Bytes of vector payload actually moved.
    pub payload_bytes: u64,
    /// Pairs trained by each worker (same accounting as
    /// [`crate::DistReport::pairs_per_worker`]).
    pub pairs_per_worker: Vec<u64>,
    /// Retransmissions after response timeouts.
    pub retries: u64,
    /// Duplicate requests absorbed by the idempotency cache.
    pub requests_deduped: u64,
    /// Responses discarded as duplicate or stale.
    pub stale_responses: u64,
    /// Remote pairs abandoned after exhausting retries.
    pub gave_up: u64,
    /// Messages the fault injector dropped, duplicated or delayed, plus
    /// stalls and crashes fired.
    pub faults_injected: u64,
    /// Worker restores from checkpoint.
    pub recoveries: u64,
}

impl TnsReport {
    fn absorb(&mut self, c: &MachineCounters) {
        self.pairs += c.pairs;
        self.remote_pairs += c.remote_pairs;
        self.messages += c.messages;
        self.payload_bytes += c.payload_bytes;
        self.retries += c.retries;
        self.requests_deduped += c.requests_deduped;
        self.stale_responses += c.stale_responses;
        self.gave_up += c.gave_up;
        self.pairs_per_worker.push(c.pairs);
    }

    /// Mirrors the run's message and fault/retry counters into the obs
    /// registry.
    fn publish_to_obs(&self) {
        let reg = sisg_obs::registry();
        reg.counter(obs_names::DIST_CHANNEL_MESSAGES_TOTAL)
            .add(self.messages);
        reg.counter(obs_names::DIST_CHANNEL_PAYLOAD_BYTES_TOTAL)
            .add(self.payload_bytes);
        reg.counter(obs_names::DIST_FAULTS_INJECTED_TOTAL)
            .add(self.faults_injected);
        reg.counter(obs_names::DIST_RETRIES_TOTAL).add(self.retries);
        reg.counter(obs_names::DIST_REQUESTS_DEDUPED_TOTAL)
            .add(self.requests_deduped);
    }
}

/// What one [`WorkerMachine::step`] call did.
#[derive(Debug)]
pub enum Step {
    /// A remote pair was started: ship this request to
    /// `partition.owner(request.context)`; the machine now waits.
    Sent(TnsRequest),
    /// Local progress (a local pair, or scan advance); step again.
    Progress,
    /// An epoch boundary: the value is the number of completed epochs.
    /// A good moment to checkpoint; step again to continue.
    EpochEnd(usize),
    /// All epochs are complete.
    Finished,
}

/// What [`WorkerMachine::deliver`] did with an incoming message.
#[derive(Debug)]
pub enum Delivered {
    /// The message was a request; ship this response back to `to`.
    Reply {
        /// The requesting worker.
        to: usize,
        /// The gradient response (or a replay of the cached one).
        response: TnsResponse,
    },
    /// The message was the awaited response; the gradient was applied and
    /// the machine is no longer waiting.
    Applied,
    /// Duplicate or stale; nothing to do.
    Ignored,
}

/// What [`WorkerMachine::retry`] decided.
#[derive(Debug)]
pub enum RetryVerdict {
    /// Retransmit this request (same sequence number).
    Resend(TnsRequest),
    /// Attempts exhausted; the pair was skipped and the machine resumes
    /// scanning.
    GaveUp,
    /// Nothing outstanding (stale timeout).
    Idle,
}

/// Error restoring a machine from a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// Checkpoint was taken by a different worker index.
    WorkerMismatch {
        /// Worker the checkpoint belongs to.
        expected: usize,
        /// Worker attempting the restore.
        got: usize,
    },
    /// Shard shape in the checkpoint does not match the partition.
    ShapeMismatch {
        /// Rows/dim derived from the current partition and config.
        expected: (usize, usize),
        /// Rows/dim recorded in the checkpoint.
        got: (usize, usize),
    },
    /// Checkpoint epoch is beyond the configured epoch count.
    EpochOutOfRange(usize),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::WorkerMismatch { expected, got } => {
                write!(f, "checkpoint is for worker {expected}, not {got}")
            }
            RestoreError::ShapeMismatch { expected, got } => {
                write!(f, "shard shape {got:?} != expected {expected:?}")
            }
            RestoreError::EpochOutOfRange(e) => write!(f, "epoch {e} out of range"),
        }
    }
}

struct Pending {
    req: TnsRequest,
    attempts: u32,
}

#[derive(Clone)]
struct Served {
    last_seq: u64,
    reply: Option<TnsResponse>,
}

/// One worker of the message-passing TNS engine as an explicit state
/// machine (see the module docs for the protocol).
pub struct WorkerMachine<'a> {
    run: &'a TnsRun<'a>,
    me: usize,
    shard: Shard,
    counters: MachineCounters,
    scan: PairScan<'a>,
    state: StepState,
    next_seq: u64,
    pending: Option<Pending>,
    served: Vec<Served>,
    done: bool,
}

/// Bits of the sequence space reserved for the per-send counter; the bits
/// above carry the incarnation, so every restore starts a strictly larger
/// sequence range than anything the pre-crash self could have sent.
const SEQ_INCARNATION_SHIFT: u32 = 48;

impl<'a> WorkerMachine<'a> {
    /// A fresh machine for worker `me` of `run`, at epoch 0 (incarnation 0).
    pub fn new(run: &'a TnsRun<'a>, me: usize) -> Self {
        let config = run.config;
        Self {
            run,
            me,
            shard: Shard::new(&run.partition, me, config.dim, config.seed),
            counters: MachineCounters::default(),
            scan: PairScan::new(run, me, 0),
            state: StepState::new(config, me, 0),
            next_seq: 1,
            pending: None,
            served: vec![
                Served {
                    last_seq: 0,
                    reply: None,
                };
                config.workers
            ],
            done: config.epochs == 0,
        }
    }

    /// This worker's index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// True while a remote request is outstanding.
    pub fn is_waiting(&self) -> bool {
        self.pending.is_some()
    }

    /// True once every epoch has been scanned to completion.
    pub fn is_finished(&self) -> bool {
        self.done && self.pending.is_none()
    }

    /// The machine's protocol counters so far.
    pub fn counters(&self) -> &MachineCounters {
        &self.counters
    }

    /// Epochs fully completed so far.
    pub fn epoch(&self) -> usize {
        self.scan.epoch()
    }

    /// Advances the scan to the next pair this worker is responsible for
    /// and processes it, or crosses an epoch boundary. Must not be called
    /// while waiting; a call made while waiting gets `Progress` back.
    pub fn step(&mut self) -> Step {
        if self.done {
            return Step::Finished;
        }
        if self.pending.is_some() {
            return Step::Progress;
        }
        let Some(pair) = self.scan.next(self.run.enriched.len()) else {
            self.scan.next_epoch();
            if self.scan.epoch() >= self.run.config.epochs {
                self.done = true;
                return Step::Finished;
            }
            return Step::EpochEnd(self.scan.epoch());
        };
        self.counters.pairs += 1;
        let target_row = self.shard.row(pair.target);
        if pair.route == self.me {
            // Fully local TNS step.
            let input = self.shard.input.row(target_row);
            self.state.pair.row.copy_from_slice(input);
            self.run.tns_step(
                &mut self.shard,
                self.me,
                pair.context,
                pair.lr,
                &mut self.state,
            );
            kernels::add_assign(self.shard.input.row_mut(target_row), &self.state.pair.grad);
            return Step::Progress;
        }
        // Remote pair: emit the request and wait.
        let input: Vec<f32> = self.shard.input.row(target_row).to_vec();
        self.counters.remote_pairs += 1;
        self.counters.messages += 1;
        self.counters.payload_bytes += (input.len() * 4) as u64;
        let req = TnsRequest {
            from: self.me,
            seq: self.next_seq,
            target: pair.target,
            context: pair.context,
            input,
            lr: pair.lr,
        };
        self.next_seq += 1;
        self.pending = Some(Pending {
            req: req.clone(),
            attempts: 1,
        });
        Step::Sent(req)
    }

    /// Handles one incoming message: serves requests (idempotently) and
    /// matches responses against the outstanding request.
    pub fn deliver(&mut self, msg: Message) -> Delivered {
        match msg {
            Message::Request(req) => {
                let Some(served) = self.served.get_mut(req.from) else {
                    return Delivered::Ignored; // malformed sender index
                };
                if req.input.len() != self.state.pair.row.len() || !self.shard.owns(req.context) {
                    return Delivered::Ignored; // malformed vector length or misrouted
                }
                if req.seq == served.last_seq {
                    // At-least-once delivery: replay the cached response
                    // instead of re-applying the update.
                    self.counters.requests_deduped += 1;
                    return match &served.reply {
                        Some(cached) => {
                            self.counters.messages += 1;
                            self.counters.payload_bytes += (cached.grad.len() * 4) as u64;
                            Delivered::Reply {
                                to: req.from,
                                response: cached.clone(),
                            }
                        }
                        None => Delivered::Ignored,
                    };
                }
                if req.seq < served.last_seq {
                    // An even older duplicate; its requester moved on.
                    self.counters.requests_deduped += 1;
                    return Delivered::Ignored;
                }
                // Fresh request: serve it and cache the reply.
                self.state.pair.row.copy_from_slice(&req.input);
                self.run.tns_step(
                    &mut self.shard,
                    self.me,
                    req.context,
                    req.lr,
                    &mut self.state,
                );
                let response = TnsResponse {
                    seq: req.seq,
                    target: req.target,
                    grad: self.state.pair.grad.clone(),
                };
                self.counters.messages += 1;
                self.counters.payload_bytes += (response.grad.len() * 4) as u64;
                if let Some(s) = self.served.get_mut(req.from) {
                    s.last_seq = req.seq;
                    s.reply = Some(response.clone());
                }
                Delivered::Reply {
                    to: req.from,
                    response,
                }
            }
            Message::Response(resp) => {
                let matches = self.pending.as_ref().is_some_and(|p| p.req.seq == resp.seq);
                if !matches {
                    self.counters.stale_responses += 1;
                    return Delivered::Ignored;
                }
                if let Some(p) = self.pending.take() {
                    let v = self.shard.input.row_mut(self.shard.row(p.req.target));
                    for (slot, &g) in v.iter_mut().zip(&resp.grad) {
                        *slot += g;
                    }
                }
                Delivered::Applied
            }
        }
    }

    /// Called by the driver when the outstanding request timed out:
    /// retransmits up to `max_attempts` total attempts, then abandons the
    /// pair so the scan can continue.
    pub fn retry(&mut self, max_attempts: u32) -> RetryVerdict {
        match &mut self.pending {
            None => RetryVerdict::Idle,
            Some(p) if p.attempts >= max_attempts => {
                self.counters.gave_up += 1;
                self.pending = None;
                RetryVerdict::GaveUp
            }
            Some(p) => {
                p.attempts += 1;
                self.counters.retries += 1;
                self.counters.messages += 1;
                self.counters.payload_bytes += (p.req.input.len() * 4) as u64;
                RetryVerdict::Resend(p.req.clone())
            }
        }
    }

    /// Snapshots the machine at an epoch boundary (shard rows, counters,
    /// sequence state). Taken right after [`Step::EpochEnd`] (or at start
    /// of run), the snapshot plus a rescan of the epoch reproduces the
    /// worker's contribution.
    pub fn checkpoint(&self) -> ShardCheckpoint {
        ShardCheckpoint {
            worker: self.me as u32,
            epoch: self.epoch() as u32,
            rows: self.shard.input.rows() as u32,
            dim: self.run.config.dim as u32,
            input: self.shard.input.as_slice().to_vec(),
            output: self.shard.output.as_slice().to_vec(),
            counters: self.counters.clone(),
            next_seq: self.next_seq,
        }
    }

    /// Rebuilds worker `me` from an epoch-boundary checkpoint. `incarnation`
    /// must increase on every restore of the same worker: it reseeds the
    /// noise stream and jumps the sequence space forward, so peers cannot
    /// confuse the restarted worker with its pre-crash self.
    pub fn restore(
        run: &'a TnsRun<'a>,
        me: usize,
        ck: &ShardCheckpoint,
        incarnation: u64,
    ) -> Result<Self, RestoreError> {
        let config = run.config;
        if ck.worker as usize != me {
            return Err(RestoreError::WorkerMismatch {
                expected: ck.worker as usize,
                got: me,
            });
        }
        if ck.epoch as usize > config.epochs {
            return Err(RestoreError::EpochOutOfRange(ck.epoch as usize));
        }
        let mut machine = Self::new(run, me);
        let expected = (machine.shard.rows(), config.dim);
        let got = (ck.rows as usize, ck.dim as usize);
        if expected != got || ck.input.len() != ck.output.len() {
            return Err(RestoreError::ShapeMismatch { expected, got });
        }
        if ck.input.len() != expected.0 * expected.1 {
            return Err(RestoreError::ShapeMismatch {
                expected,
                got: (ck.input.len() / got.1.max(1), got.1),
            });
        }
        machine.shard.input = Matrix::from_data(expected.0, expected.1, ck.input.clone());
        machine.shard.output = Matrix::from_data(expected.0, expected.1, ck.output.clone());
        machine.counters = ck.counters.clone();
        machine.scan = PairScan::new(run, me, ck.epoch as usize);
        machine.done = machine.epoch() >= config.epochs;
        machine.state = StepState::new(config, me, incarnation);
        let incarnation_floor = incarnation << SEQ_INCARNATION_SHIFT;
        machine.next_seq = ck.next_seq.max(incarnation_floor) + 1;
        Ok(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(dim: usize) -> TnsRequest {
        TnsRequest {
            from: 3,
            seq: 0x0001_0000_0000_002A,
            target: TokenId(17),
            context: TokenId(901),
            input: (0..dim).map(|d| d as f32 * 0.25 - 1.0).collect(),
            lr: 0.0213,
        }
    }

    #[test]
    fn request_round_trips_through_bytes() {
        let original = Message::Request(req(16));
        let bytes = original.to_bytes();
        let decoded = Message::from_bytes(&bytes).expect("decode");
        assert_eq!(decoded, original);
    }

    #[test]
    fn response_round_trips_through_bytes() {
        let original = Message::Response(TnsResponse {
            seq: 7,
            target: TokenId(123),
            grad: vec![1.5, -2.25, 0.0, f32::MIN_POSITIVE],
        });
        let bytes = original.to_bytes();
        assert_eq!(Message::from_bytes(&bytes).expect("decode"), original);
    }

    #[test]
    fn decode_rejects_malformed_input_without_panicking() {
        let bytes = Message::Request(req(8)).to_bytes();
        // Every truncation fails cleanly.
        for cut in 0..bytes.len() {
            assert!(Message::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(Message::from_bytes(&long), Err(WireError::Trailing));
        // Unknown tag is rejected.
        assert_eq!(Message::from_bytes(&[9]), Err(WireError::BadTag(9)));
        assert_eq!(Message::from_bytes(&[]), Err(WireError::Truncated));
    }

    /// A request whose vector does not match the run's dimensionality, or
    /// whose context this shard does not own, is malformed input: ignored,
    /// never stepped (the kernels would panic).
    #[test]
    fn malformed_requests_are_ignored() {
        use crate::runtime::DistConfig;
        use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
        let gen = GeneratedCorpus::generate(CorpusConfig::tiny());
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::NONE);
        let config = DistConfig {
            workers: 2,
            dim: 16,
            ..Default::default()
        };
        let run = TnsRun::new(&enriched, &gen.catalog, &config);
        let mut machine = WorkerMachine::new(&run, 0);
        let members = run.partition().members();
        let request = |dim, context| {
            Message::Request(TnsRequest {
                from: 1,
                seq: 1,
                context,
                ..req(dim)
            })
        };
        let ignored = |msg| matches!(msg, Delivered::Ignored);
        assert!(ignored(machine.deliver(request(8, members[0][0]))));
        assert!(ignored(machine.deliver(request(16, members[1][0]))));
        assert!(ignored(machine.deliver(request(16, TokenId(u32::MAX)))));
        assert!(matches!(
            machine.deliver(request(16, members[0][0])),
            Delivered::Reply { to: 1, .. }
        ));
    }
}
