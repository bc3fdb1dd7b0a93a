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
//! - [`ShardCheckpoint`] — one worker's epoch-boundary model snapshot
//!   (shard matrices, protocol counters, sequence state). A killed worker
//!   restores the snapshot and rescans the epoch; the epoch-scoped scan
//!   RNG (`tns::scan_seed`) makes the rescan deterministic.
//!
//! Both serialize to a compact little-endian byte format (magic +
//! version) whose decode path is panic-free; this module is in the
//! `xtask lint` panic-free set.

use crate::protocol::wire::{put_f32s, put_u32, put_u64, Reader};
use crate::protocol::{MachineCounters, WireError};
use sisg_corpus::{EnrichedCorpus, TokenId};
use sisg_obs::names as obs_names;

/// Magic prefix of a serialized [`ShardCheckpoint`].
const SHARD_MAGIC: &[u8; 8] = b"SISGSHCK";
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

/// One worker's epoch-boundary snapshot: everything needed to rebuild a
/// [`crate::protocol::WorkerMachine`] mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Worker index the snapshot belongs to.
    pub worker: u32,
    /// Epochs fully completed when the snapshot was taken.
    pub epoch: u32,
    /// Shard row count (owned tokens).
    pub rows: u32,
    /// Embedding dimensionality.
    pub dim: u32,
    /// Input matrix data, row-major `rows × dim`.
    pub input: Vec<f32>,
    /// Output matrix data, row-major `rows × dim`.
    pub output: Vec<f32>,
    /// Protocol counters at snapshot time (restored so reports stay
    /// consistent across a crash).
    pub counters: MachineCounters,
    /// Next request sequence number at snapshot time.
    pub next_seq: u64,
}

impl ShardCheckpoint {
    /// Serializes the checkpoint into the compact byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + (self.input.len() + self.output.len()) * 4);
        out.extend_from_slice(SHARD_MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, self.worker);
        put_u32(&mut out, self.epoch);
        put_u32(&mut out, self.rows);
        put_u32(&mut out, self.dim);
        put_u64(&mut out, self.next_seq);
        let c = &self.counters;
        for v in [
            c.pairs,
            c.remote_pairs,
            c.messages,
            c.payload_bytes,
            c.retries,
            c.requests_deduped,
            c.stale_responses,
            c.gave_up,
        ] {
            put_u64(&mut out, v);
        }
        put_u32(&mut out, self.input.len() as u32);
        put_f32s(&mut out, &self.input);
        put_u32(&mut out, self.output.len() as u32);
        put_f32s(&mut out, &self.output);
        out
    }

    /// Decodes a checkpoint previously produced by
    /// [`ShardCheckpoint::to_bytes`]; never panics on malformed input.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        for &b in SHARD_MAGIC {
            if r.u8()? != b {
                return Err(WireError::BadMagic);
            }
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let worker = r.u32()?;
        let epoch = r.u32()?;
        let rows = r.u32()?;
        let dim = r.u32()?;
        let next_seq = r.u64()?;
        let counters = MachineCounters {
            pairs: r.u64()?,
            remote_pairs: r.u64()?,
            messages: r.u64()?,
            payload_bytes: r.u64()?,
            retries: r.u64()?,
            requests_deduped: r.u64()?,
            stale_responses: r.u64()?,
            gave_up: r.u64()?,
        };
        let n_in = r.u32()? as usize;
        let input = r.f32s(n_in)?;
        let n_out = r.u32()? as usize;
        let output = r.f32s(n_out)?;
        r.finish()?;
        Ok(Self {
            worker,
            epoch,
            rows,
            dim,
            input,
            output,
            counters,
            next_seq,
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
        for &b in PIPELINE_MAGIC {
            if r.u8()? != b {
                return Err(WireError::BadMagic);
            }
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
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

    fn sample_shard() -> ShardCheckpoint {
        ShardCheckpoint {
            worker: 2,
            epoch: 1,
            rows: 3,
            dim: 2,
            input: vec![0.5, -1.0, 2.0, 0.0, 3.25, -0.125],
            output: vec![1.0, 1.0, 0.0, -2.0, 0.5, 0.75],
            counters: MachineCounters {
                pairs: 1234,
                remote_pairs: 56,
                messages: 112,
                payload_bytes: 7168,
                retries: 3,
                requests_deduped: 2,
                stale_responses: 1,
                gave_up: 0,
            },
            next_seq: 57,
        }
    }

    #[test]
    fn shard_checkpoint_round_trips() {
        let ck = sample_shard();
        let bytes = ck.to_bytes();
        assert_eq!(ShardCheckpoint::from_bytes(&bytes), Ok(ck));
    }

    #[test]
    fn shard_checkpoint_rejects_corruption() {
        let bytes = sample_shard().to_bytes();
        for cut in 0..bytes.len() {
            assert!(ShardCheckpoint::from_bytes(&bytes[..cut]).is_err());
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            ShardCheckpoint::from_bytes(&bad_magic),
            Err(WireError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert_eq!(
            ShardCheckpoint::from_bytes(&bad_version),
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
