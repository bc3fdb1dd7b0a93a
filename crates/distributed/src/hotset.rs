//! The ATNS shared hot set `Q` and its per-worker vector replicas.
//!
//! Section III-A: "our implementation of TNS allows the top-K frequent
//! items to be kept in all partitions at the same time. The corresponding
//! vectors are then synchronized (averaged) at regular intervals." In
//! practice `Q` "usually contains the most common SI features such as age,
//! gender, color, etc." (Section III-C stage 4).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use sisg_corpus::vocab::Vocab;
use sisg_corpus::TokenId;
use sisg_embedding::kernels;

/// The shared hot set: a dense membership/slot index over the token space.
#[derive(Debug, Clone)]
pub struct HotSet {
    /// `slot_plus_one[token] == 0` means "not hot"; otherwise slot+1.
    slot_plus_one: Vec<u32>,
    tokens: Vec<TokenId>,
}

impl HotSet {
    /// The `k` most frequent tokens of `vocab` (pass `k = 0` to disable
    /// sharing entirely).
    pub fn top_k(vocab: &Vocab, k: usize) -> Self {
        Self::from_tokens(vocab.len(), vocab.top_k(k))
    }

    /// Builds the set from an explicit token list.
    pub fn from_tokens(space_len: usize, tokens: Vec<TokenId>) -> Self {
        let mut slot_plus_one = vec![0u32; space_len];
        for (slot, t) in tokens.iter().enumerate() {
            slot_plus_one[t.index()] = slot as u32 + 1;
        }
        Self {
            slot_plus_one,
            tokens,
        }
    }

    /// Number of hot tokens.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when sharing is disabled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Replica slot of `token`, or `None` when it is not hot.
    #[inline]
    pub fn slot(&self, token: TokenId) -> Option<usize> {
        match self.slot_plus_one[token.index()] {
            0 => None,
            s => Some(s as usize - 1),
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, token: TokenId) -> bool {
        self.slot_plus_one[token.index()] != 0
    }

    /// The hot tokens, by slot.
    #[inline]
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }
}

impl HotSet {
    /// Bytes a cluster moves for one averaging round of `workers` replicas
    /// of both matrices at `dim`: an all-reduce in which every worker
    /// sends and receives its `|Q| × dim` block of each matrix once.
    pub(crate) fn sync_bytes(&self, workers: usize, dim: usize) -> u64 {
        if workers == 0 {
            return 0;
        }
        (workers as u64) * (self.len() as u64) * (dim as u64) * 4 * 2 * 2
    }
}

/// Averages worker `me`'s replicas of one matrix with every other
/// worker's, slot-wise (Section III-A), into `own`. `own` is `me`'s
/// `|Q| × dim` replica block and `replica(j)` worker `j`'s, rows in slot
/// order. Per element, the `workers` replicas are summed in worker order
/// from zero, then multiplied by `1/w` — the same sum on every worker.
pub(crate) fn average_replicas<'r>(
    own: &mut [f32],
    me: usize,
    workers: usize,
    replica: impl Fn(usize) -> &'r [f32],
    dim: usize,
) {
    let mut acc = vec![0.0f32; dim];
    for (slot, row) in own.chunks_exact_mut(dim.max(1)).enumerate() {
        let span = slot * dim..(slot + 1) * dim;
        // The unrolled kernels are elementwise (per-lane order is
        // unchanged), so the documented reconciliation order — and the
        // bit-identity test below — is preserved.
        acc.fill(0.0);
        for j in 0..workers {
            kernels::add_assign(
                &mut acc,
                if j == me {
                    row
                } else {
                    &replica(j)[span.clone()]
                },
            );
        }
        kernels::scale(&mut acc, 1.0 / workers as f32);
        row.copy_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::schema::SchemaCardinalities;
    use sisg_corpus::vocab::{TokenSpace, VocabBuilder};

    fn vocab() -> Vocab {
        let space = TokenSpace::new(50, &SchemaCardinalities::for_items(50), 5);
        let mut b = VocabBuilder::new(space);
        for _ in 0..10 {
            b.record(TokenId(3));
        }
        for _ in 0..5 {
            b.record(TokenId(7));
        }
        b.record(TokenId(1));
        b.build()
    }

    #[test]
    fn top_k_picks_most_frequent() {
        let v = vocab();
        let hot = HotSet::top_k(&v, 2);
        assert_eq!(hot.len(), 2);
        assert!(hot.contains(TokenId(3)));
        assert!(hot.contains(TokenId(7)));
        assert!(!hot.contains(TokenId(1)));
        assert_eq!(hot.slot(TokenId(3)), Some(0));
    }

    /// Averages every worker's block the way each machine does: its own
    /// against everyone's as they stood before any was averaged.
    fn average_all(blocks: &mut [Vec<f32>], dim: usize) {
        let before = blocks.to_vec();
        let workers = blocks.len();
        for (me, own) in blocks.iter_mut().enumerate() {
            average_replicas(own, me, workers, |j| &before[j], dim);
        }
    }

    #[test]
    fn replicas_average_in_place() {
        let mut blocks = vec![vec![1.0f32; 8], vec![2.0; 8], vec![3.0; 8]];
        blocks[1][5] = 5.0;
        average_all(&mut blocks, 4);
        for b in &blocks {
            assert_eq!(b[..4], [2.0; 4]);
            assert_eq!(b[4..], [2.0, 3.0, 2.0, 2.0]);
        }
        let hot = HotSet::top_k(&vocab(), 2);
        assert_eq!(hot.sync_bytes(3, 4), 3 * 2 * 4 * 4 * 2 * 2);
    }

    /// Sequential reference for one slot's reconciliation, mirroring the
    /// documented op order of [`average_replicas`]: worker rows are
    /// summed in worker order, then multiplied by `1/w`.
    fn reference_sync(rows: &[Vec<f32>]) -> Vec<f32> {
        let mut acc = vec![0.0f32; rows[0].len()];
        for row in rows {
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        let inv = 1.0 / rows.len() as f32;
        for a in acc.iter_mut() {
            *a *= inv;
        }
        acc
    }

    #[test]
    fn averaging_is_bit_identical_to_sequential_reference() {
        // Values chosen so that float op *order* matters: the sums are
        // inexact, so any reordering inside `average_replicas` would
        // change low-order bits and fail the `to_bits` comparison below.
        let (workers, slots, dim) = (3, 2, 4);
        let value = |w: usize, slot: usize, d: usize| {
            0.1 + 0.3 * w as f32 + 0.7 * slot as f32 + 0.013 * d as f32
        };
        let mut blocks: Vec<Vec<f32>> = (0..workers)
            .map(|w| {
                (0..slots * dim)
                    .map(|i| value(w, i / dim, i % dim))
                    .collect()
            })
            .collect();
        average_all(&mut blocks, dim);

        for slot in 0..slots {
            let rows: Vec<Vec<f32>> = (0..workers)
                .map(|w| (0..dim).map(|d| value(w, slot, d)).collect())
                .collect();
            let expected = reference_sync(&rows);
            for (w, block) in blocks.iter().enumerate() {
                let got = &block[slot * dim..(slot + 1) * dim];
                for (g, e) in got.iter().zip(&expected) {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "slot {slot} worker {w}: {g} != {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_hot_set_syncs_for_free() {
        let hot = HotSet::top_k(&vocab(), 0);
        assert_eq!(hot.sync_bytes(2, 4), 0);
        average_all(&mut [Vec::new(), Vec::new()], 4);
    }
}
