//! Crash-recovery checkpoints for the distributed engines.
//!
//! Two artifact granularities, matching the two ways a production run can
//! die (DESIGN.md §9):
//!
//! - [`PipelineCheckpoint`] — the stage-boundary artifacts of the
//!   preparation pipeline (Section III-C stages 1–4): a fingerprint of
//!   the enriched corpus plus the exact partition map and hot set. A
//!   restarted coordinator revalidates the fingerprint and reuses the
//!   partition/hot set instead of re-running HBGP.
//! - [`BlockCheckpoint`] — one worker's snapshot between two exchange
//!   blocks (its row block, counters, learning-rate progress and position,
//!   plus the answers and replicas of the block just finished). A killed
//!   worker restores the snapshot and fast-forwards its scan to the block
//!   without stepping; the epoch-scoped scan RNG (`tns::scan_seed`) makes
//!   the rescan deterministic.
//!
//! Both serialize to a compact little-endian byte format (magic +
//! version) whose decode path is panic-free; this module is panic-free
//! code (DESIGN.md §7).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::protocol::wire::{put_f32s, put_u32, put_u64, Reader};
use crate::protocol::{Answer, MachineCounters, Message, Replicas, WireError};
use sisg_corpus::{EnrichedCorpus, TokenId};
use sisg_obs::names as obs_names;

/// Magic prefix of a serialized [`BlockCheckpoint`].
const BLOCK_MAGIC: &[u8; 8] = b"SISGBKCK";
/// Magic prefix of a serialized [`PipelineCheckpoint`].
const PIPELINE_MAGIC: &[u8; 8] = b"SISGPLCK";
/// Format version both checkpoint kinds currently write.
const VERSION: u32 = 1;

/// Records one recovery event (worker restore or pipeline resume) in the
/// observability registry (`dist.recoveries`).
pub fn record_recovery() {
    sisg_obs::registry()
        .counter(obs_names::DIST_RECOVERIES_TOTAL)
        .add(1);
}

/// One worker's snapshot between two exchange blocks: everything needed
/// to rebuild a [`crate::WorkerMachine`] mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCheckpoint {
    /// Worker index the snapshot belongs to.
    pub worker: u32,
    /// Epoch of the block the machine restarts at.
    pub epoch: u32,
    /// That block's index within its epoch.
    pub block: u32,
    /// Pairs all workers scanned before that block (the learning-rate
    /// schedule's position).
    pub progress: u64,
    /// Rows of the worker's block.
    pub rows: u32,
    /// Embedding dimensionality.
    pub dim: u32,
    /// Input rows, row-major `rows × dim`.
    pub input: Vec<f32>,
    /// Output rows, row-major `rows × dim`.
    pub output: Vec<f32>,
    /// Counters at snapshot time (restored so reports stay consistent
    /// across a crash).
    pub counters: MachineCounters,
    /// Per worker, the answer this one sent it in the block just finished,
    /// for a peer that still asks.
    pub answers: Vec<Option<Answer>>,
    /// The replicas this worker sent in the block just finished, if it
    /// closed a sync round.
    pub replicas: Option<Replicas>,
}

/// Reads a checkpoint's magic and version.
fn header(r: &mut Reader<'_>, magic: &[u8; 8]) -> Result<(), WireError> {
    for &b in magic {
        if r.u8()? != b {
            return Err(WireError::BadMagic);
        }
    }
    match r.u32()? {
        VERSION => Ok(()),
        version => Err(WireError::BadVersion(version)),
    }
}

/// Writes an optional message as a length-prefixed sealed encoding
/// (length 0 = none).
fn put_message(out: &mut Vec<u8>, msg: Option<Message>) {
    let bytes = msg.map(|m| m.to_bytes()).unwrap_or_default();
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(&bytes);
}

/// Reads what [`put_message`] wrote.
fn message(r: &mut Reader<'_>) -> Result<Option<Message>, WireError> {
    let len = r.u32()? as usize;
    if len == 0 {
        return Ok(None);
    }
    let bytes: Vec<u8> = r.elems(len, 1)?.map(|b| b[0]).collect();
    Message::from_bytes(&bytes).map(Some)
}

impl BlockCheckpoint {
    /// Serializes the checkpoint into the compact byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + (self.input.len() + self.output.len()) * 4);
        out.extend_from_slice(BLOCK_MAGIC);
        for v in [VERSION, self.worker, self.epoch, self.block] {
            put_u32(&mut out, v);
        }
        put_u64(&mut out, self.progress);
        put_u32(&mut out, self.rows);
        put_u32(&mut out, self.dim);
        for v in self.counters.to_array() {
            put_u64(&mut out, v);
        }
        put_u32(&mut out, self.answers.len() as u32);
        for answer in &self.answers {
            put_message(&mut out, answer.clone().map(Message::Answer));
        }
        put_message(&mut out, self.replicas.clone().map(Message::Replicas));
        put_u32(&mut out, self.input.len() as u32);
        put_f32s(&mut out, &self.input);
        put_u32(&mut out, self.output.len() as u32);
        put_f32s(&mut out, &self.output);
        out
    }

    /// Decodes a checkpoint previously produced by
    /// [`BlockCheckpoint::to_bytes`]; never panics on malformed input.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        header(&mut r, BLOCK_MAGIC)?;
        let (worker, epoch, block) = (r.u32()?, r.u32()?, r.u32()?);
        let progress = r.u64()?;
        let (rows, dim) = (r.u32()?, r.u32()?);
        let mut counters = [0u64; 14];
        for c in counters.iter_mut() {
            *c = r.u64()?;
        }
        let n_answers = r.u32()? as usize;
        // Each entry takes at least its four length bytes: a hostile count
        // runs out of input before it can ask for memory.
        let mut answers = Vec::new();
        for _ in 0..n_answers {
            answers.push(match message(&mut r)? {
                Some(Message::Answer(a)) => Some(a),
                Some(_) => return Err(WireError::BadTag(0)),
                None => None,
            });
        }
        let replicas = match message(&mut r)? {
            Some(Message::Replicas(rep)) => Some(rep),
            Some(_) => return Err(WireError::BadTag(0)),
            None => None,
        };
        let n_in = r.u32()? as usize;
        let input = r.f32s(n_in)?;
        let n_out = r.u32()? as usize;
        let output = r.f32s(n_out)?;
        r.finish()?;
        Ok(Self {
            worker,
            epoch,
            block,
            progress,
            rows,
            dim,
            input,
            output,
            counters: MachineCounters::from_array(counters),
            answers,
            replicas,
        })
    }
}

/// A deterministic fingerprint of an enriched corpus (FNV-1a over
/// structure, sequences and user assignments) — cheap to recompute on
/// resume, and any divergence means the checkpointed partition would be
/// meaningless.
pub fn enriched_fingerprint(enriched: &EnrichedCorpus<'_>) -> u64 {
    let mut h = sisg_obs::Fnv1a::new();
    h.u64(enriched.space().len() as u64);
    h.u64(enriched.len() as u64);
    h.u64(enriched.total_tokens());
    let mut seq = Vec::new();
    for (i, session) in enriched.sessions().iter().enumerate() {
        h.u64(session.user.0 as u64);
        enriched.sequence_into(i, &mut seq);
        for t in &seq {
            h.u64(t.0 as u64);
        }
    }
    h.finish()
}

/// The stage-boundary artifacts of the preparation pipeline, ready to be
/// persisted between stages 1–4 and training.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCheckpoint {
    /// Worker count the partition was made for.
    pub workers: u32,
    /// Fingerprint of the enriched corpus the artifacts derive from.
    pub enriched_fingerprint: u64,
    /// Stage-3 output: owner of every token.
    pub owners: Vec<u16>,
    /// Stage-4 output: the hot-set tokens.
    pub hot_tokens: Vec<TokenId>,
}

impl PipelineCheckpoint {
    /// Serializes the checkpoint into the compact byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.owners.len() * 2 + self.hot_tokens.len() * 4);
        out.extend_from_slice(PIPELINE_MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, self.workers);
        put_u64(&mut out, self.enriched_fingerprint);
        put_u32(&mut out, self.owners.len() as u32);
        for &o in &self.owners {
            out.extend_from_slice(&o.to_le_bytes());
        }
        put_u32(&mut out, self.hot_tokens.len() as u32);
        for &t in &self.hot_tokens {
            put_u32(&mut out, t.0);
        }
        out
    }

    /// Decodes a checkpoint previously produced by
    /// [`PipelineCheckpoint::to_bytes`]; never panics on malformed input.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        header(&mut r, PIPELINE_MAGIC)?;
        let workers = r.u32()?;
        let fingerprint = r.u64()?;
        let n_owners = r.u32()? as usize;
        let owners = r
            .elems(n_owners, 2)?
            .map(|b| u16::from_le_bytes([b[0], b[1]]))
            .collect();
        let n_hot = r.u32()? as usize;
        let hot_tokens = r
            .elems(n_hot, 4)?
            .map(|b| TokenId(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            .collect();
        r.finish()?;
        Ok(Self {
            workers,
            enriched_fingerprint: fingerprint,
            owners,
            hot_tokens,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_block() -> BlockCheckpoint {
        use crate::protocol::Tag;
        let tag = Tag {
            incarnation: 1,
            epoch: 1,
            block: 6,
        };
        BlockCheckpoint {
            worker: 2,
            epoch: 1,
            block: 7,
            progress: 98_765,
            rows: 3,
            dim: 2,
            input: vec![0.5, -1.0, 2.0, 0.0, 3.25, -0.125],
            output: vec![1.0, 1.0, 0.0, -2.0, 0.5, 0.75],
            counters: MachineCounters::from_array(std::array::from_fn(|i| 10 * i as u64 + 1)),
            answers: vec![
                Some(Answer {
                    from: 2,
                    tag,
                    pairs_scanned: 40,
                    waiting: false,
                    dim: 2,
                    grads: Arc::new(vec![0.25, -0.5]),
                }),
                None,
                None,
            ],
            replicas: Some(Replicas {
                from: 2,
                tag,
                pull: false,
                dim: 2,
                rows: Arc::new(vec![1.0; 4]),
            }),
        }
    }

    #[test]
    fn block_checkpoint_round_trips() {
        let ck = sample_block();
        let bytes = ck.to_bytes();
        assert_eq!(BlockCheckpoint::from_bytes(&bytes), Ok(ck));
    }

    #[test]
    fn block_checkpoint_rejects_corruption() {
        let bytes = sample_block().to_bytes();
        for cut in 0..bytes.len() {
            assert!(BlockCheckpoint::from_bytes(&bytes[..cut]).is_err());
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            BlockCheckpoint::from_bytes(&bad_magic),
            Err(WireError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert_eq!(
            BlockCheckpoint::from_bytes(&bad_version),
            Err(WireError::BadVersion(99))
        );
    }

    #[test]
    fn pipeline_checkpoint_round_trips() {
        let ck = PipelineCheckpoint {
            workers: 4,
            enriched_fingerprint: 0xDEAD_BEEF_0123_4567,
            owners: vec![0, 3, 1, 2, 2, 0],
            hot_tokens: vec![TokenId(5), TokenId(900)],
        };
        let bytes = ck.to_bytes();
        assert_eq!(PipelineCheckpoint::from_bytes(&bytes), Ok(ck));
        assert!(PipelineCheckpoint::from_bytes(&bytes[..10]).is_err());
    }
}
