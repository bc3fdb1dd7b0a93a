//! The one Section III worker, [`WorkerMachine`], and the three messages
//! its exchange is made of.
//!
//! A machine owns one worker's row block — its replicas of the hot set `Q`
//! first, then the non-hot tokens it owns — with its `PairScan`, noise
//! stream and counters. It trains in exchange blocks: runs of whole
//! sequences that first reach [`EXCHANGE_TOKENS`] enriched tokens or the
//! end of a sync round, cut from the corpus alone, so every worker cuts
//! the same blocks. Per block:
//!
//! 1. **Scan.** Step every local pair in place; send each peer one
//!    [`Batch`] (possibly empty) of the remote pairs it owns: the
//!    `(target, context)` list, one copy of each distinct target row and
//!    the number of pairs scanned.
//! 2. **Serve.** Once every peer's count is in, the learning rate is
//!    `lr_at` of all pairs scanned so far; serve the batches in worker
//!    order on this machine's output rows and noise stream, one
//!    [`Answer`] of summed gradients per batch.
//! 3. **Apply.** Once every answer is in, add the gradients to the target
//!    rows, in worker order.
//! 4. **Average.** At the end of a sync round, trade [`Replicas`] of `Q`
//!    and average them, summed in worker order, then scaled by `1/w`.
//!
//! Nothing a machine computes depends on when a message arrives. So the
//! threaded runtime (in-process mailboxes between barriers) and the
//! `sisg-simtest` simulator (checksummed bytes under a seeded fault plan)
//! train the same store bit for bit.
//!
//! Fault tolerance lives here, not in the drivers (DESIGN.md §9): every
//! message is tagged `(incarnation, epoch, block)`; a batch already served
//! gets its cached answer again, and a sender's older incarnation is
//! ignored; [`WorkerMachine::retransmit`] resends what is unanswered;
//! [`WorkerMachine::checkpoint`] snapshots the machine between blocks and
//! [`WorkerMachine::restore`] fast-forwards a fresh scan to it without
//! stepping. No machine waits on a block a peer has left: a finished
//! block's answers and replicas are replayed on request, and an answer
//! says whether its sender still waits for the receiver's.
//!
//! This module (with `tns`, `hotset`, `report`, [`crate::fault`] and
//! [`crate::recovery`]) is panic-free code (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::hotset::average_replicas;
use crate::recovery::BlockCheckpoint;
use crate::report::{DistReport, PhaseNs};
use crate::tns::{LocalRows, PairScan, ScanPair, StepState, TnsRun};
use sisg_corpus::TokenId;
use sisg_embedding::{kernels, EmbeddingStore, Matrix};
use sisg_obs::names as obs_names;
use sisg_obs::Stopwatch;
use std::sync::Arc;

/// Enriched tokens every worker scans between two exchanges: a block is
/// the run of whole sequences that first reaches this many tokens (or the
/// end of a sync round). A smaller block costs exchanges and leaves idle
/// the worker with the smaller share of a block's targets; a larger one
/// holds more pairs until the exchange and delays remote gradients
/// longer. DESIGN.md §9 has the measurement behind the value.
pub const EXCHANGE_TOKENS: usize = 1024;

/// Which exchange a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// The sender's incarnation: 0, then one more per restore.
    pub incarnation: u32,
    /// The block's epoch.
    pub epoch: u32,
    /// The block's index within its epoch.
    pub block: u32,
}

/// One block's remote pairs for one owner.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The requesting worker.
    pub from: usize,
    /// The block.
    pub tag: Tag,
    /// Pairs the sender scanned in the block, local and remote: every
    /// machine sums them into the learning-rate schedule.
    pub pairs_scanned: u64,
    /// Row width.
    pub dim: usize,
    /// `(row, context)` per remote pair, in scan order: `row` indexes
    /// `rows`, and the rows appear in order of their first use.
    pub pairs: Arc<Vec<(u32, TokenId)>>,
    /// One copy of each distinct target's input row, row-major.
    pub rows: Arc<Vec<f32>>,
}

/// The owner's answer to one [`Batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The serving worker.
    pub from: usize,
    /// The block.
    pub tag: Tag,
    /// Pairs the sender scanned in the block.
    pub pairs_scanned: u64,
    /// The sender still waits for the receiver's answer to its own batch.
    pub waiting: bool,
    /// Row width.
    pub dim: usize,
    /// The summed gradient of each row of the answered batch.
    pub grads: Arc<Vec<f32>>,
}

/// A worker's replicas of `Q` at the end of a sync round.
#[derive(Debug, Clone, PartialEq)]
pub struct Replicas {
    /// The sending worker.
    pub from: usize,
    /// The block that closes the round.
    pub tag: Tag,
    /// Sent again after a timeout: the sender asks for the receiver's.
    pub pull: bool,
    /// Row width.
    pub dim: usize,
    /// The input replicas in slot order, then the output replicas.
    pub rows: Arc<Vec<f32>>,
}

/// One protocol message. Its vectors are shared, not copied, between the
/// copy a machine keeps for retransmission or replay and the one it sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A block's remote pairs for one owner.
    Batch(Batch),
    /// The owner's summed gradients.
    Answer(Answer),
    /// Replicas of `Q` to average.
    Replicas(Replicas),
}

/// Little-endian byte codec for messages and checkpoints: decoding is
/// panic-free and allocates no more than the input holds.
pub(crate) mod wire {
    /// Decode failure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WireError {
        /// Input ended before the structure was complete.
        Truncated,
        /// Unknown message tag byte.
        BadTag(u8),
        /// A message's trailing checksum does not match its bytes.
        BadChecksum,
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
                WireError::BadChecksum => write!(f, "checksum mismatch"),
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

    /// Appends the FNV-1a checksum of everything before it.
    pub(crate) fn seal(out: &mut Vec<u8>) {
        let mut h = sisg_obs::Fnv1a::new();
        h.bytes(out);
        put_u64(out, h.finish());
    }

    /// The body of a sealed buffer, once its checksum matches. One changed
    /// byte anywhere changes an FNV-1a hash, so no single flip gets by.
    pub(crate) fn open(buf: &[u8]) -> Result<&[u8], WireError> {
        let at = buf.len().checked_sub(8).ok_or(WireError::Truncated)?;
        let (body, sum) = buf.split_at(at);
        let mut h = sisg_obs::Fnv1a::new();
        h.bytes(body);
        if h.finish().to_le_bytes() == sum {
            Ok(body)
        } else {
            Err(WireError::BadChecksum)
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

        /// A declared row width, a declared row count and that many rows.
        pub(crate) fn rows(&mut self) -> Result<(usize, Vec<f32>), WireError> {
            let dim = self.u32()? as usize;
            let rows = self.u32()? as usize;
            let n = rows.checked_mul(dim).ok_or(WireError::Truncated)?;
            Ok((dim, self.f32s(n)?))
        }

        pub(crate) fn finish(self) -> Result<(), WireError> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(WireError::Trailing)
            }
        }
    }

    /// Writes a row width, the row count of `rows` at that width and the
    /// rows.
    pub(crate) fn put_rows(out: &mut Vec<u8>, dim: usize, rows: &[f32]) {
        put_u32(out, dim as u32);
        put_u32(out, rows.len().checked_div(dim).unwrap_or(0) as u32);
        put_f32s(out, rows);
    }
}

pub use wire::WireError;

const TAG_BATCH: u8 = 1;
const TAG_ANSWER: u8 = 2;
const TAG_REPLICAS: u8 = 3;

impl Message {
    /// The sender and the tag.
    fn origin(&self) -> (usize, Tag) {
        match self {
            Message::Batch(b) => (b.from, b.tag),
            Message::Answer(a) => (a.from, a.tag),
            Message::Replicas(r) => (r.from, r.tag),
        }
    }

    /// Floats of vector payload: rows, gradients or replicas.
    fn payload_floats(&self) -> usize {
        match self {
            Message::Batch(b) => b.rows.len(),
            Message::Answer(a) => a.grads.len(),
            Message::Replicas(r) => r.rows.len(),
        }
    }

    /// Serializes the message into its little-endian byte form, sealed
    /// with a checksum: what the simulator moves between machines.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let (kind, (from, tag)) = match self {
            Message::Batch(_) => (TAG_BATCH, self.origin()),
            Message::Answer(_) => (TAG_ANSWER, self.origin()),
            Message::Replicas(_) => (TAG_REPLICAS, self.origin()),
        };
        out.push(kind);
        for v in [from as u32, tag.incarnation, tag.epoch, tag.block] {
            wire::put_u32(&mut out, v);
        }
        match self {
            Message::Batch(b) => {
                wire::put_u64(&mut out, b.pairs_scanned);
                wire::put_u32(&mut out, b.pairs.len() as u32);
                for &(row, context) in b.pairs.iter() {
                    wire::put_u32(&mut out, row);
                    wire::put_u32(&mut out, context.0);
                }
                wire::put_rows(&mut out, b.dim, &b.rows);
            }
            Message::Answer(a) => {
                wire::put_u64(&mut out, a.pairs_scanned);
                out.push(u8::from(a.waiting));
                wire::put_rows(&mut out, a.dim, &a.grads);
            }
            Message::Replicas(r) => {
                out.push(u8::from(r.pull));
                wire::put_rows(&mut out, r.dim, &r.rows);
            }
        }
        wire::seal(&mut out);
        out
    }

    /// Decodes a message produced by [`Message::to_bytes`]; never panics,
    /// and allocates no more than `buf` holds.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = wire::Reader::new(wire::open(buf)?);
        let kind = r.u8()?;
        let from = r.u32()? as usize;
        let tag = Tag {
            incarnation: r.u32()?,
            epoch: r.u32()?,
            block: r.u32()?,
        };
        let msg = match kind {
            TAG_BATCH => {
                let pairs_scanned = r.u64()?;
                let n = r.u32()? as usize;
                let pairs: Vec<_> = r
                    .elems(n, 8)?
                    .map(|b| {
                        let row = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                        (row, TokenId(u32::from_le_bytes([b[4], b[5], b[6], b[7]])))
                    })
                    .collect();
                let (dim, rows) = r.rows()?;
                Message::Batch(Batch {
                    from,
                    tag,
                    pairs_scanned,
                    dim,
                    pairs: Arc::new(pairs),
                    rows: Arc::new(rows),
                })
            }
            TAG_ANSWER => {
                let pairs_scanned = r.u64()?;
                let waiting = r.u8()? != 0;
                let (dim, grads) = r.rows()?;
                Message::Answer(Answer {
                    from,
                    tag,
                    pairs_scanned,
                    waiting,
                    dim,
                    grads: Arc::new(grads),
                })
            }
            TAG_REPLICAS => {
                let pull = r.u8()? != 0;
                let (dim, rows) = r.rows()?;
                Message::Replicas(Replicas {
                    from,
                    tag,
                    pull,
                    dim,
                    rows: Arc::new(rows),
                })
            }
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// One machine's counters, summed into a [`DistReport`] by
/// [`TnsRun::assemble`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MachineCounters {
    /// Positive pairs this worker was responsible for.
    pub pairs: u64,
    /// Pairs whose context another worker owns.
    pub remote_pairs: u64,
    /// Pairs whose endpoints are both items.
    pub item_pairs: u64,
    /// Pairs of an item and an SI token, either way round.
    pub item_si_pairs: u64,
    /// Pairs whose endpoints are both SI tokens.
    pub si_si_pairs: u64,
    /// Pairs with a user-type token.
    pub user_pairs: u64,
    /// Item-item pairs that crossed workers.
    pub remote_item_pairs: u64,
    /// Bytes a cluster would move for the remote pairs: a row each way.
    pub comm_bytes: u64,
    /// Remote pairs this machine served.
    pub requests_served: u64,
    /// Output rows stepped, local pairs and served ones alike.
    pub rows_stepped: u64,
    /// Exchange blocks finished.
    pub blocks: u64,
    /// Averagings of `Q`.
    pub sync_rounds: u64,
    /// Messages sent: batches, answers, replicas, retransmissions, replays.
    pub messages: u64,
    /// Vector payload bytes in those messages.
    pub payload_bytes: u64,
    /// Messages sent again after a timeout.
    pub retries: u64,
    /// Duplicate messages absorbed (and answered from the cache).
    pub deduped: u64,
    /// Malformed or stale messages ignored.
    pub ignored: u64,
}

/// The checkpoint codec's order of the counters, written once.
macro_rules! counter_array {
    ($($field:ident),*) => {
        impl MachineCounters {
            /// The counters in declaration order.
            pub(crate) fn to_array(&self) -> [u64; 17] {
                [$(self.$field),*]
            }

            /// The inverse of [`MachineCounters::to_array`].
            pub(crate) fn from_array([$($field),*]: [u64; 17]) -> Self {
                Self { $($field),* }
            }
        }
    };
}

counter_array!(
    pairs,
    remote_pairs,
    item_pairs,
    item_si_pairs,
    si_si_pairs,
    user_pairs,
    remote_item_pairs,
    comm_bytes,
    requests_served,
    rows_stepped,
    blocks,
    sync_rounds,
    messages,
    payload_bytes,
    retries,
    deduped,
    ignored
);

impl MachineCounters {
    /// Accounts one pair of worker `me`; a remote one ships a row each way.
    fn record(&mut self, me: usize, pair: &ScanPair, run: &TnsRun) {
        let space = run.enriched.space();
        let both_items = space.is_item(pair.target) && space.is_item(pair.context);
        self.pairs += 1;
        if pair.route != me {
            self.remote_pairs += 1;
            self.remote_item_pairs += u64::from(both_items);
            self.comm_bytes += 2 * (run.config.dim as u64) * 4;
        }
    }
}

/// How far one [`WorkerMachine::advance`] call got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// The machine finished a step and queued its messages for every
    /// peer: deliver them, then call again.
    Sent,
    /// The machine needs messages it does not have yet.
    Waiting,
    /// A block is finished: [`WorkerMachine::checkpoint`] now restores to
    /// the start of the next one.
    Boundary,
    /// Every epoch is trained.
    Finished,
}

/// What [`WorkerMachine::deliver`] did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivered {
    /// Taken into the current block, or kept for the next step.
    Taken,
    /// A copy of one the machine already had, or of one it has moved past:
    /// absorbed, and the reply the sender lacks queued again.
    Duplicate,
    /// Malformed (wrong width, a context not served here, an unknown
    /// sender) or stale (an older incarnation, an unknown block).
    Ignored,
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
    /// Block shape in the checkpoint does not match the run.
    ShapeMismatch {
        /// Rows/dim of the worker's block in this run.
        expected: (usize, usize),
        /// Rows/dim recorded in the checkpoint.
        got: (usize, usize),
    },
    /// The checkpoint's epoch or block is beyond the run.
    OutOfRange {
        /// The checkpoint's epoch.
        epoch: usize,
        /// The checkpoint's block.
        block: usize,
    },
}

/// Where a machine is in its current block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Nothing scanned yet; a checkpoint restores to here.
    Scan,
    /// Batches sent; serving once every peer's count is in.
    Serve,
    /// Served; applying once every answer is in.
    Apply,
    /// Replicas sent; averaging once every peer's are in.
    Average,
    /// Every epoch trained.
    Done,
}

/// What a machine knows of one peer in the current block.
#[derive(Default)]
struct Peer {
    /// Highest incarnation seen from the peer.
    incarnation: u32,
    /// The batch this machine sent the peer, kept for retransmission.
    batch: Option<Batch>,
    /// Local rows of that batch's targets, in its row order.
    targets: Vec<u32>,
    /// Pairs the peer scanned in the block.
    scanned: Option<u64>,
    /// The peer's batch, until served.
    inbound: Option<Batch>,
    /// The peer already holds this machine's answer (it said so).
    has_our_answer: bool,
    /// This machine's answer to the peer, kept for replays.
    answer: Option<Answer>,
    /// The peer's gradients for this machine's batch.
    grads: Option<Arc<Vec<f32>>>,
    /// The peer's replicas of `Q`.
    replicas: Option<Arc<Vec<f32>>>,
}

/// A worker's input and output rows.
pub(crate) type Rows<'a> = (&'a mut [f32], &'a mut [f32]);

/// One Section III worker as an explicit state machine (see the module
/// docs for the protocol).
///
/// Aligned to two cache lines, so the lines a worker writes on every pair
/// share no line or adjacent-line prefetch pair with another thread's data
/// wherever a driver keeps the machine: beside the other machines
/// (`TnsRun::machines`) or on its thread's stack beside the driver's
/// barrier (the threaded runtime).
#[repr(align(128))]
pub struct WorkerMachine<'a> {
    run: &'a TnsRun<'a>,
    me: usize,
    incarnation: u32,
    /// The block's input rows: replicas of `Q`, then the owned tokens.
    input: &'a mut [f32],
    /// The block's output rows, in the same order.
    output: &'a mut [f32],
    scan: PairScan<'a>,
    state: StepState,
    /// [`LocalRows::step_rows`].
    step_rows: Vec<TokenId>,
    counters: MachineCounters,
    /// Wall time by phase, laps of `clock`; `flushed` is the part already
    /// recorded in obs.
    phases: PhaseNs,
    flushed: PhaseNs,
    clock: Stopwatch,
    /// Pairs all workers scanned in the blocks served so far.
    progress: u64,
    /// Index of the current block within its epoch.
    block: u32,
    /// One past the current block's last sequence.
    end: usize,
    /// The block ends a sync round.
    closes_round: bool,
    stage: Stage,
    /// Pairs this machine scanned in the current block.
    scanned: u64,
    /// Remote `(target, context)` pairs queued per route while scanning.
    queued: Vec<Vec<(TokenId, TokenId)>>,
    peers: Vec<Peer>,
    /// The replicas this machine sent in the current block.
    sent_replicas: Option<Replicas>,
    /// Messages for a later step, delivered again at every step change.
    early: Vec<Message>,
    /// The answers of the block finished last, per peer, for replays.
    last_answers: Vec<Option<Answer>>,
    /// The replicas this machine sent in the block finished last.
    last_replicas: Option<Replicas>,
    /// While a batch is built: one plus the row index of each local row.
    row_slot: Vec<u32>,
    /// Row vectors of finished blocks' messages no peer holds any more,
    /// reused instead of allocated again every block.
    spare: Vec<Vec<f32>>,
    /// The payloads of every empty batch and answer this machine sends:
    /// at many workers most are empty, and these allocate nothing.
    no_pairs: Arc<Vec<(u32, TokenId)>>,
    no_rows: Arc<Vec<f32>>,
}

impl<'a> WorkerMachine<'a> {
    /// Worker `me` of `run`, as its `incarnation`, over its block of the
    /// run's rows.
    pub(crate) fn new(run: &'a TnsRun<'a>, me: usize, incarnation: u32, rows: Rows<'a>) -> Self {
        let (input, output) = rows;
        let config = run.config;
        let (w, rows) = (config.workers, run.block_rows(me));
        let mut machine = Self {
            run,
            me,
            incarnation,
            input,
            output,
            scan: PairScan::new(run, me, 0),
            state: StepState::new(config, me, u64::from(incarnation)),
            step_rows: Vec::with_capacity(config.negatives + 1),
            counters: MachineCounters::default(),
            phases: PhaseNs::default(),
            flushed: PhaseNs::default(),
            clock: Stopwatch::start(),
            progress: 0,
            block: 0,
            end: 0,
            closes_round: false,
            stage: Stage::Scan,
            scanned: 0,
            queued: vec![Vec::new(); w],
            peers: (0..w).map(|_| Peer::default()).collect(),
            sent_replicas: None,
            early: Vec::new(),
            last_answers: vec![None; w],
            last_replicas: None,
            row_slot: vec![0; rows],
            spare: Vec::new(),
            no_pairs: Arc::default(),
            no_rows: Arc::default(),
        };
        machine.enter_block(0);
        machine
    }

    /// This worker's index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// True once every epoch is trained.
    pub fn is_finished(&self) -> bool {
        self.stage == Stage::Done
    }

    /// The machine's counters so far.
    pub fn counters(&self) -> &MachineCounters {
        &self.counters
    }

    /// The machine's wall time by phase so far.
    pub(crate) fn phases(&self) -> PhaseNs {
        self.phases
    }

    /// Nanoseconds since the previous lap.
    fn lap(&mut self) -> u64 {
        self.clock.lap().as_nanos() as u64
    }

    /// The current block's tag.
    fn tag(&self) -> Tag {
        Tag {
            incarnation: self.incarnation,
            epoch: self.scan.epoch() as u32,
            block: self.block,
        }
    }

    /// Cuts the block that starts at sequence `start`, or ends the run
    /// once every epoch is scanned.
    fn enter_block(&mut self, start: usize) {
        if self.scan.epoch() >= self.run.config.epochs {
            self.stage = Stage::Done;
            return;
        }
        (self.end, self.closes_round) = cut_block(self.run, start);
        self.stage = Stage::Scan;
    }

    /// The block after the current one, as `(epoch, block)`.
    fn next_block(&self) -> (u32, u32) {
        let epoch = self.scan.epoch() as u32;
        if self.end >= self.run.enriched.len() {
            (epoch + 1, 0)
        } else {
            (epoch, self.block + 1)
        }
    }

    /// Runs the machine until it has queued messages for its peers, needs
    /// theirs, finishes a block or finishes the run. With one worker there
    /// are no peers, and a call runs to the next block boundary.
    /// Every nanosecond between two calls counts as barrier wait, and
    /// each phase a call runs counts to that phase.
    pub fn advance(&mut self, out: &mut Vec<(usize, Message)>) -> Advance {
        self.phases.barrier_wait += self.lap();
        let alone = self.peers.len() == 1;
        loop {
            match self.stage {
                Stage::Scan => {
                    self.scan_block();
                    self.stage = Stage::Serve;
                    self.post_batches(out);
                    self.redeliver(out);
                    self.phases.scan += self.lap();
                    if !alone {
                        return Advance::Sent;
                    }
                }
                Stage::Serve => {
                    if !self.ready_to_serve() {
                        return Advance::Waiting;
                    }
                    self.serve(out);
                    self.stage = Stage::Apply;
                    self.phases.serve += self.lap();
                    if !alone {
                        return Advance::Sent;
                    }
                }
                Stage::Apply => {
                    if self.peer_ids().any(|j| self.peers[j].grads.is_none()) {
                        return Advance::Waiting;
                    }
                    self.apply();
                    self.phases.apply += self.lap();
                    if self.closes_round {
                        self.counters.sync_rounds += 1;
                        if !alone && !self.run.hot.is_empty() {
                            self.post_replicas(out);
                            self.stage = Stage::Average;
                            self.redeliver(out);
                            self.phases.average += self.lap();
                            return Advance::Sent;
                        }
                        self.average();
                        self.phases.average += self.lap();
                    }
                    return self.end_block(out);
                }
                Stage::Average => {
                    if self.peer_ids().any(|j| self.peers[j].replicas.is_none()) {
                        return Advance::Waiting;
                    }
                    self.average();
                    self.phases.average += self.lap();
                    return self.end_block(out);
                }
                Stage::Done => return Advance::Finished,
            }
        }
    }

    /// Finishes the block (cutting the next one counts as scan) and, at the
    /// end of a sync round, records the round's phase times in obs.
    fn end_block(&mut self, out: &mut Vec<(usize, Message)>) -> Advance {
        let round = self.closes_round;
        self.finish_block(out);
        self.phases.scan += self.lap();
        if round {
            let (now, before) = (self.phases.to_array(), self.flushed.to_array());
            for (name, (n, b)) in obs_names::DIST_PHASE_NS.iter().zip(now.iter().zip(before)) {
                sisg_obs::registry().histogram(name).record(n - b);
            }
            self.flushed = self.phases;
        }
        Advance::Boundary
    }

    /// Every worker but this one.
    fn peer_ids(&self) -> impl Iterator<Item = usize> {
        let me = self.me;
        (0..self.peers.len()).filter(move |&j| j != me)
    }

    /// Queues `msg` for worker `to` and counts it.
    fn send(&mut self, to: usize, msg: Message, out: &mut Vec<(usize, Message)>) {
        self.counters.messages += 1;
        self.counters.payload_bytes += msg.payload_floats() as u64 * 4;
        out.push((to, msg));
    }

    /// Scans the current block: steps every local pair in place on the
    /// learning rate of the pairs served so far and queues every remote
    /// one for its route.
    fn scan_block(&mut self) {
        let (run, me) = (self.run, self.me);
        let dim = run.config.dim;
        let lr = run.lr_at(self.progress);
        let mut pairs = 0;
        while let Some(pair) = self.scan.next(self.end) {
            pairs += 1;
            self.counters.record(me, &pair, run);
            if pair.route != me {
                self.queued[pair.route].push((pair.target, pair.context));
                continue;
            }
            let row = run.local[pair.target.index()] as usize * dim;
            let target = &mut self.input[row..row + dim];
            self.state.pair.row.copy_from_slice(target);
            let mut rows = LocalRows {
                rows: &mut *self.output,
                local: &run.local,
                step_rows: &mut self.step_rows,
            };
            run.tns_step(&mut rows, me, pair.context, lr, &mut self.state);
            self.counters.rows_stepped += self.state.pair.kept.len() as u64;
            kernels::add_assign(target, &self.state.pair.grad);
        }
        self.scanned = pairs;
        let kinds = self.scan.take_pair_kinds();
        let c = &mut self.counters;
        c.item_pairs += kinds.item_item;
        c.item_si_pairs += kinds.item_si;
        c.si_si_pairs += kinds.si_si;
        c.user_pairs += kinds.user;
    }

    /// Sends every peer its batch of the block: the queued pairs and one
    /// copy of each distinct target row as it stands after the scan.
    fn post_batches(&mut self, out: &mut Vec<(usize, Message)>) {
        let (run, dim, tag) = (self.run, self.run.config.dim, self.tag());
        for to in self.peer_ids() {
            let mut queued = std::mem::take(&mut self.queued[to]);
            let targets = &mut self.peers[to].targets;
            targets.clear();
            let mut rows = self.spare.pop().unwrap_or_default();
            let pairs: Vec<_> = queued
                .iter()
                .map(|&(target, context)| {
                    let r = run.local[target.index()] as usize;
                    let slot = &mut self.row_slot[r];
                    if *slot == 0 {
                        targets.push(r as u32);
                        rows.extend_from_slice(&self.input[r * dim..(r + 1) * dim]);
                        *slot = targets.len() as u32;
                    }
                    (*slot - 1, context)
                })
                .collect();
            for &r in targets.iter() {
                self.row_slot[r as usize] = 0;
            }
            queued.clear();
            self.queued[to] = queued;
            let batch = Batch {
                from: self.me,
                tag,
                pairs_scanned: self.scanned,
                dim,
                pairs: match pairs.is_empty() {
                    true => Arc::clone(&self.no_pairs),
                    false => Arc::new(pairs),
                },
                rows: self.share(rows),
            };
            self.send(to, Message::Batch(batch.clone()), out);
            self.peers[to].batch = Some(batch);
        }
    }

    /// `rows` as a message payload; an empty vector goes back to the
    /// spares, and the payload is the machine's shared empty one.
    fn share(&mut self, rows: Vec<f32>) -> Arc<Vec<f32>> {
        if !rows.is_empty() {
            return Arc::new(rows);
        }
        self.spare.push(rows);
        Arc::clone(&self.no_rows)
    }

    /// Every peer's count is in, and the batch of every peer that still
    /// needs an answer.
    fn ready_to_serve(&self) -> bool {
        self.peer_ids().all(|j| {
            let p = &self.peers[j];
            p.scanned.is_some() && (p.inbound.is_some() || p.has_our_answer)
        })
    }

    /// Serves the peers' batches in worker order on this machine's output
    /// rows and noise stream, at the learning rate of every pair scanned
    /// up to the end of this block, and answers each with the summed
    /// gradient of each of its rows.
    fn serve(&mut self, out: &mut Vec<(usize, Message)>) {
        let (run, me, dim) = (self.run, self.me, self.run.config.dim);
        let peers: u64 = self
            .peer_ids()
            .map(|j| self.peers[j].scanned.unwrap_or(0))
            .sum();
        self.progress += self.scanned + peers;
        let lr = run.lr_at(self.progress);
        for from in self.peer_ids() {
            let Some(batch) = self.peers[from].inbound.take() else {
                continue;
            };
            let mut grads = self.spare.pop().unwrap_or_default();
            for &(row, context) in batch.pairs.iter() {
                let at = row as usize * dim;
                self.state
                    .pair
                    .row
                    .copy_from_slice(&batch.rows[at..at + dim]);
                let mut rows = LocalRows {
                    rows: &mut *self.output,
                    local: &run.local,
                    step_rows: &mut self.step_rows,
                };
                run.tns_step(&mut rows, me, context, lr, &mut self.state);
                self.counters.rows_stepped += self.state.pair.kept.len() as u64;
                // Rows appear in order of first use (checked on delivery):
                // a row's first gradient is copied, later ones added.
                if at == grads.len() {
                    grads.extend_from_slice(&self.state.pair.grad);
                } else {
                    kernels::add_assign(&mut grads[at..at + dim], &self.state.pair.grad);
                }
            }
            self.counters.requests_served += batch.pairs.len() as u64;
            let answer = Answer {
                from: me,
                tag: self.tag(),
                pairs_scanned: self.scanned,
                waiting: self.peers[from].grads.is_none(),
                dim,
                grads: self.share(grads),
            };
            self.send(from, Message::Answer(answer.clone()), out);
            self.peers[from].answer = Some(answer);
        }
    }

    /// Adds every answer's gradients to their target rows, peer by peer in
    /// worker order.
    fn apply(&mut self) {
        let dim = self.run.config.dim;
        for to in self.peer_ids() {
            let peer = &self.peers[to];
            let Some(grads) = &peer.grads else { continue };
            for (&r, grad) in peer.targets.iter().zip(grads.chunks_exact(dim)) {
                let at = r as usize * dim;
                kernels::add_assign(&mut self.input[at..at + dim], grad);
            }
        }
    }

    /// Sends every peer this machine's replicas of `Q`.
    fn post_replicas(&mut self, out: &mut Vec<(usize, Message)>) {
        let q = self.run.hot.len() * self.run.config.dim;
        let mut rows = Vec::with_capacity(2 * q);
        rows.extend_from_slice(&self.input[..q]);
        rows.extend_from_slice(&self.output[..q]);
        let replicas = Replicas {
            from: self.me,
            tag: self.tag(),
            pull: false,
            dim: self.run.config.dim,
            rows: Arc::new(rows),
        };
        for to in self.peer_ids() {
            self.send(to, Message::Replicas(replicas.clone()), out);
        }
        self.sent_replicas = Some(replicas);
    }

    /// Averages every worker's replicas of `Q` into this machine's, per
    /// element summed in worker order from zero, then scaled by `1/w`.
    fn average(&mut self) {
        let (run, me, w) = (self.run, self.me, self.peers.len());
        if run.hot.is_empty() {
            return;
        }
        let span = (me == 0).then(|| sisg_obs::span(obs_names::DIST_SYNC_SPAN));
        let (dim, q) = (run.config.dim, run.hot.len() * run.config.dim);
        let peers = &self.peers;
        for (part, own) in [&mut *self.input, &mut *self.output]
            .into_iter()
            .enumerate()
        {
            let replica = |j: usize| match &peers[j].replicas {
                Some(rows) => &rows[part * q..(part + 1) * q],
                None => &[][..],
            };
            average_replicas(&mut own[..q], me, w, replica, dim);
        }
        if let Some(span) = span {
            span.finish();
        }
    }

    /// Closes the block: keeps its answers and replicas for replays, and
    /// moves to the next block.
    fn finish_block(&mut self, out: &mut Vec<(usize, Message)>) {
        self.counters.blocks += 1;
        let mut recycle = |v: Arc<Vec<f32>>| {
            if let Ok(mut v) = Arc::try_unwrap(v) {
                v.clear();
                self.spare.push(v);
            }
        };
        for (j, peer) in self.peers.iter_mut().enumerate() {
            let last = std::mem::replace(&mut self.last_answers[j], peer.answer.take());
            last.into_iter().for_each(|a| recycle(a.grads));
            peer.batch.take().into_iter().for_each(|b| recycle(b.rows));
            (peer.scanned, peer.inbound, peer.grads, peer.replicas) = (None, None, None, None);
            peer.has_our_answer = false;
        }
        self.last_replicas = self.sent_replicas.take();
        let mut start = self.end;
        if self.end >= self.run.enriched.len() {
            self.scan.next_epoch();
            (self.block, start) = (0, 0);
        } else {
            self.block += 1;
        }
        self.enter_block(start);
        self.redeliver(out);
    }

    /// Delivers the messages kept for a later step again.
    fn redeliver(&mut self, out: &mut Vec<(usize, Message)>) {
        for msg in std::mem::take(&mut self.early) {
            self.deliver(msg, out);
        }
    }

    /// Takes one message from a peer; any reply it calls for (a replayed
    /// answer or replicas) is queued in `out`.
    pub fn deliver(&mut self, msg: Message, out: &mut Vec<(usize, Message)>) -> Delivered {
        let verdict = self.take(msg, out);
        match verdict {
            Delivered::Duplicate => self.counters.deduped += 1,
            Delivered::Ignored => self.counters.ignored += 1,
            Delivered::Taken => {}
        }
        verdict
    }

    fn take(&mut self, msg: Message, out: &mut Vec<(usize, Message)>) -> Delivered {
        let (from, tag) = msg.origin();
        if from >= self.peers.len() || from == self.me || !self.well_formed(&msg) {
            return Delivered::Ignored;
        }
        if tag.incarnation < self.peers[from].incarnation {
            return Delivered::Ignored;
        }
        self.peers[from].incarnation = tag.incarnation;
        let stage = self.stage;
        let block = |t: Tag| (t.epoch, t.block);
        let is_now = block(tag) == (self.scan.epoch() as u32, self.block) && stage != Stage::Done;
        let was_last = |m: Option<Tag>| m.map(block) == Some(block(tag));
        let taken_or_duplicate = |duplicate: bool| match duplicate {
            true => Delivered::Duplicate,
            false => Delivered::Taken,
        };
        let peer = &mut self.peers[from];
        let reply = match msg {
            Message::Batch(batch) => match stage {
                Stage::Scan | Stage::Serve if is_now => {
                    peer.scanned = Some(batch.pairs_scanned);
                    return taken_or_duplicate(peer.inbound.replace(batch).is_some());
                }
                _ if is_now => {
                    let waiting = stage == Stage::Apply && peer.grads.is_none();
                    peer.answer
                        .clone()
                        .map(|a| Message::Answer(Answer { waiting, ..a }))
                }
                _ if was_last(self.last_answers[from].as_ref().map(|a| a.tag)) => {
                    self.last_answers[from].clone().map(|a| {
                        Message::Answer(Answer {
                            waiting: false,
                            ..a
                        })
                    })
                }
                _ if block(tag) == self.next_block() && stage != Stage::Done => {
                    self.early.push(Message::Batch(batch));
                    return Delivered::Taken;
                }
                _ => return Delivered::Ignored,
            },
            Message::Answer(answer) => match stage {
                Stage::Scan if is_now => {
                    self.early.push(Message::Answer(answer));
                    return Delivered::Taken;
                }
                Stage::Serve | Stage::Apply if is_now => {
                    if answer.grads.len() != peer.targets.len() * self.run.config.dim {
                        return Delivered::Ignored;
                    }
                    peer.scanned.get_or_insert(answer.pairs_scanned);
                    peer.has_our_answer |= !answer.waiting;
                    let duplicate = peer.grads.is_some();
                    peer.grads.get_or_insert(answer.grads);
                    return taken_or_duplicate(duplicate);
                }
                _ => return Delivered::Ignored,
            },
            // Only a pull gets this machine's replicas back: answering every
            // copy would let two machines echo each other.
            Message::Replicas(replicas) => {
                let own = if is_now && stage == Stage::Average {
                    let duplicate = peer.replicas.is_some();
                    peer.replicas.get_or_insert(replicas.rows);
                    if !duplicate && !replicas.pull {
                        return Delivered::Taken;
                    }
                    &self.sent_replicas
                } else if is_now && self.closes_round {
                    self.early.push(Message::Replicas(replicas));
                    return Delivered::Taken;
                } else if was_last(self.last_replicas.as_ref().map(|r| r.tag)) {
                    &self.last_replicas
                } else {
                    return Delivered::Ignored;
                };
                own.clone().filter(|_| replicas.pull).map(Message::Replicas)
            }
        };
        if let Some(reply) = reply {
            self.send(from, reply, out);
        }
        Delivered::Duplicate
    }

    /// A message this machine can use: the run's row width, a
    /// `(row, context)` list whose rows appear in order of first use and
    /// match the rows sent, contexts this worker serves (owned and not
    /// hot: a hot context is stepped by its scanner), and replicas of all
    /// of `Q`.
    fn well_formed(&self, msg: &Message) -> bool {
        let run = self.run;
        let dim = run.config.dim;
        match msg {
            Message::Batch(b) => {
                let mut rows = 0usize;
                let contexts_served = b.pairs.iter().all(|&(row, context)| {
                    let row = row as usize;
                    if row == rows {
                        rows += 1;
                    }
                    row < rows
                        && context.index() < run.local.len()
                        && !run.hot.contains(context)
                        && run.partition.owner(context) == self.me
                });
                b.dim == dim && contexts_served && Some(b.rows.len()) == rows.checked_mul(dim)
            }
            Message::Answer(a) => a.dim == dim && a.grads.len() % dim.max(1) == 0,
            Message::Replicas(r) => {
                r.dim == dim && Some(r.rows.len()) == (2 * run.hot.len()).checked_mul(dim)
            }
        }
    }

    /// Sends again what the peers have not answered: the batches of a
    /// block still being exchanged, or this machine's replicas while it
    /// waits for theirs. The driver calls it after a timeout.
    pub fn retransmit(&mut self, out: &mut Vec<(usize, Message)>) {
        let resend: Vec<(usize, Message)> = match self.stage {
            Stage::Serve | Stage::Apply => self
                .peer_ids()
                .filter(|&j| self.peers[j].grads.is_none())
                .filter_map(|j| Some((j, Message::Batch(self.peers[j].batch.clone()?))))
                .collect(),
            Stage::Average => self
                .peer_ids()
                .filter(|&j| self.peers[j].replicas.is_none())
                .filter_map(|j| {
                    let own = self.sent_replicas.clone()?;
                    Some((j, Message::Replicas(Replicas { pull: true, ..own })))
                })
                .collect(),
            Stage::Scan | Stage::Done => Vec::new(),
        };
        for (to, msg) in resend {
            self.counters.retries += 1;
            self.send(to, msg, out);
        }
    }

    /// Snapshots the machine between two blocks — call it at
    /// [`Advance::Boundary`] (or before the first `advance`): its rows,
    /// counters, learning-rate progress, position, and the answers and
    /// replicas of the block just finished, which peers that lag may still
    /// ask for.
    pub fn checkpoint(&self) -> BlockCheckpoint {
        debug_assert!(matches!(self.stage, Stage::Scan | Stage::Done));
        BlockCheckpoint {
            worker: self.me as u32,
            epoch: self.scan.epoch() as u32,
            block: self.block,
            progress: self.progress,
            rows: self.run.block_rows(self.me) as u32,
            dim: self.run.config.dim as u32,
            input: self.input.to_vec(),
            output: self.output.to_vec(),
            counters: self.counters.clone(),
            answers: self.last_answers.clone(),
            replicas: self.last_replicas.clone(),
        }
    }

    /// Rebuilds this machine from a block checkpoint of its worker, in
    /// place over its rows: everything it held since is lost, as in a
    /// crash. `incarnation` must grow with every restore of the same
    /// worker: it tags the machine's messages, so peers ignore its
    /// pre-crash self, and reseeds its noise stream. The scan is
    /// fast-forwarded to the checkpoint's block without stepping, on the
    /// epoch's scan seed, so it rescans the same pairs.
    pub fn restore(&mut self, ck: BlockCheckpoint, incarnation: u32) -> Result<(), RestoreError> {
        let (run, me) = (self.run, self.me);
        let config = run.config;
        if ck.worker as usize != me {
            return Err(RestoreError::WorkerMismatch {
                expected: ck.worker as usize,
                got: me,
            });
        }
        let expected = (run.block_rows(me), config.dim);
        let got = (ck.rows as usize, ck.dim as usize);
        let len = expected.0 * expected.1;
        if expected != got
            || ck.input.len() != len
            || ck.output.len() != len
            || ck.answers.len() != config.workers
        {
            return Err(RestoreError::ShapeMismatch { expected, got });
        }
        // The ends of the epoch's blocks before the checkpoint's.
        let (epoch, block) = (ck.epoch as usize, ck.block as usize);
        let mut ends = Vec::new();
        while ends.len() < block && epoch < config.epochs {
            let end = cut_block(run, ends.last().copied().unwrap_or(0)).0;
            if end >= run.enriched.len() {
                break;
            }
            ends.push(end);
        }
        if epoch > config.epochs || ends.len() < block {
            return Err(RestoreError::OutOfRange { epoch, block });
        }
        let (input, output) = (
            std::mem::take(&mut self.input),
            std::mem::take(&mut self.output),
        );
        input.copy_from_slice(&ck.input);
        output.copy_from_slice(&ck.output);
        *self = Self::new(run, me, incarnation, (input, output));
        self.counters = ck.counters;
        self.progress = ck.progress;
        self.scan = PairScan::new(run, me, epoch);
        for &end in &ends {
            while self.scan.next(end).is_some() {}
        }
        // The checkpoint's counters hold the kinds of the pairs skipped.
        self.scan.take_pair_kinds();
        self.block = ck.block;
        self.enter_block(ends.last().copied().unwrap_or(0));
        self.last_answers = ck.answers;
        self.last_replicas = ck.replicas;
        Ok(())
    }
}

/// Cuts the exchange block that starts at sequence `start`: its end, and
/// whether it closes a sync round. A configured `sync_interval` of 0
/// means "synchronize after every sequence", like 1.
fn cut_block(run: &TnsRun<'_>, start: usize) -> (usize, bool) {
    let (n, interval) = (run.enriched.len(), run.config.sync_interval.max(1));
    let round_end = ((start / interval + 1) * interval).min(n);
    let (mut end, mut tokens) = (start, 0);
    while end < round_end && tokens < EXCHANGE_TOKENS {
        tokens += run.enriched.sequence_len(end);
        end += 1;
    }
    (end, end >= round_end)
}

impl TnsRun<'_> {
    /// The run's machines at the start of training, one per worker, each
    /// over its block of `input` and `output` ([`TnsRun::initial_store`]'s
    /// rows).
    pub fn machines<'m>(
        &'m self,
        input: &'m mut Matrix,
        output: &'m mut Matrix,
    ) -> Vec<WorkerMachine<'m>> {
        let inputs = self.split(input.as_mut_slice());
        let outputs = self.split(output.as_mut_slice());
        inputs
            .into_iter()
            .zip(outputs)
            .enumerate()
            .map(|(j, rows)| WorkerMachine::new(self, j, 0, rows))
            .collect()
    }

    /// Ends the run: moves the trained rows back into store order (a hot
    /// token's from its owner's replica), sums the machines' `counters`
    /// (in worker order) into the report, with `seconds` the wall time of
    /// training, and mirrors the totals into the obs registry.
    pub fn assemble(
        &self,
        counters: &[MachineCounters],
        mut input: Matrix,
        mut output: Matrix,
        seconds: f64,
    ) -> (EmbeddingStore, DistReport) {
        self.collect(&mut input);
        self.collect(&mut output);
        let (dim, w) = (self.config.dim, self.config.workers);
        let sum = |f: fn(&MachineCounters) -> u64| counters.iter().map(f).sum();
        let max = |f: fn(&MachineCounters) -> u64| counters.iter().map(f).max().unwrap_or(0);
        let sync_rounds = max(|c| c.sync_rounds);
        let remote_pairs = sum(|c| c.remote_pairs);
        let report = DistReport {
            workers: w,
            partitioner: self.config.strategy.name().into(),
            hot_set_size: self.hot.len(),
            pairs_per_worker: counters.iter().map(|c| c.pairs).collect(),
            local_pairs: sum(|c| c.pairs) - remote_pairs,
            remote_pairs,
            item_pairs: sum(|c| c.item_pairs),
            pair_kinds_per_worker: counters
                .iter()
                .map(|c| [c.item_pairs, c.item_si_pairs, c.si_si_pairs, c.user_pairs])
                .collect(),
            remote_item_pairs: sum(|c| c.remote_item_pairs),
            pair_comm_bytes: sum(|c| c.comm_bytes),
            sync_comm_bytes: self.hot.sync_bytes(w, dim) * sync_rounds,
            sync_rounds,
            requests_served: sum(|c| c.requests_served),
            rows_stepped: sum(|c| c.rows_stepped),
            exchange_blocks: max(|c| c.blocks),
            messages: sum(|c| c.messages),
            payload_bytes: sum(|c| c.payload_bytes),
            retries: sum(|c| c.retries),
            deduped: sum(|c| c.deduped),
            ignored: sum(|c| c.ignored),
            tokens_processed: self.enriched.total_tokens() * self.config.epochs as u64,
            seconds,
            cut_fraction: self.partition.cut_fraction(self.enriched.sessions()),
            imbalance: self.item_imbalance(),
            ..DistReport::default()
        };
        report.publish_to_obs();
        (EmbeddingStore::from_matrices(input, output), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::DistConfig;
    use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};

    fn batch(dim: usize) -> Batch {
        Batch {
            from: 3,
            tag: Tag {
                incarnation: 1,
                epoch: 2,
                block: 42,
            },
            pairs_scanned: 977,
            dim,
            pairs: Arc::new(vec![(0, TokenId(901)), (1, TokenId(17)), (0, TokenId(5))]),
            rows: Arc::new((0..2 * dim).map(|d| d as f32 * 0.25 - 1.0).collect()),
        }
    }

    #[test]
    fn messages_round_trip_through_bytes() {
        let b = batch(4);
        let answer = Answer {
            from: 1,
            tag: b.tag,
            pairs_scanned: 12,
            waiting: true,
            dim: 4,
            grads: Arc::new(vec![1.5, -2.25, 0.0, f32::MIN_POSITIVE]),
        };
        let replicas = Replicas {
            from: 0,
            tag: b.tag,
            pull: true,
            dim: 2,
            rows: Arc::new(vec![0.5; 8]),
        };
        for msg in [
            Message::Batch(b),
            Message::Answer(answer),
            Message::Replicas(replicas),
        ] {
            assert_eq!(Message::from_bytes(&msg.to_bytes()), Ok(msg));
        }
    }

    fn run_fixture(gen: &GeneratedCorpus) -> (EnrichedCorpus<'_>, DistConfig) {
        let enriched = EnrichedCorpus::build(gen, EnrichOptions::FULL);
        let config = DistConfig {
            workers: 2,
            dim: 16,
            hot_set_size: 8,
            ..Default::default()
        };
        (enriched, config)
    }

    /// A batch whose rows do not match the run's width, whose context this
    /// worker does not serve (another's, a hot one, or none at all), whose
    /// sender is unknown or whose tag is stale is ignored — never served
    /// (the kernels would panic) and never answered.
    #[test]
    fn malformed_batches_are_ignored() {
        let gen = GeneratedCorpus::generate(CorpusConfig::tiny());
        let (enriched, config) = run_fixture(&gen);
        let run = TnsRun::new(&enriched, &gen.catalog, &config);
        let (mut input, mut output) = run.initial_store();
        let mut machine = run.machines(&mut input, &mut output).swap_remove(0);
        let hot = run.hot.tokens()[0];
        let members = run.partition().members();
        let served = |me: usize| {
            members[me]
                .iter()
                .copied()
                .find(|&t| !run.hot.contains(t))
                .expect("an owned non-hot token")
        };
        let tag = Tag {
            incarnation: 0,
            epoch: 0,
            block: 0,
        };
        let request = |from: usize, dim: usize, context: TokenId, tag: Tag| {
            Message::Batch(Batch {
                from,
                tag,
                pairs_scanned: 1,
                dim,
                pairs: Arc::new(vec![(0, context)]),
                rows: Arc::new(vec![0.5; dim]),
            })
        };
        let mut out = Vec::new();
        let mut deliver = |msg| machine.deliver(msg, &mut out);
        assert_eq!(deliver(request(1, 8, served(0), tag)), Delivered::Ignored);
        assert_eq!(deliver(request(1, 16, served(1), tag)), Delivered::Ignored);
        assert_eq!(deliver(request(1, 16, hot, tag)), Delivered::Ignored);
        let nowhere = TokenId(u32::MAX);
        assert_eq!(deliver(request(1, 16, nowhere, tag)), Delivered::Ignored);
        assert_eq!(deliver(request(7, 16, served(0), tag)), Delivered::Ignored);
        assert_eq!(deliver(request(0, 16, served(0), tag)), Delivered::Ignored);
        let far = Tag { block: 9, ..tag };
        assert_eq!(deliver(request(1, 16, served(0), far)), Delivered::Ignored);
        assert_eq!(deliver(request(1, 16, served(0), tag)), Delivered::Taken);
        let older = Tag {
            incarnation: 0,
            ..tag
        };
        let newer = Tag {
            incarnation: 3,
            ..tag
        };
        assert_eq!(
            deliver(request(1, 16, served(0), newer)),
            Delivered::Duplicate
        );
        assert_eq!(
            deliver(request(1, 16, served(0), older)),
            Delivered::Ignored
        );
        assert!(
            out.is_empty(),
            "nothing is answered before the block is served"
        );
        assert_eq!(machine.counters().ignored, 8);
    }
}
