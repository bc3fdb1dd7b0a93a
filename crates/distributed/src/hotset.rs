//! The ATNS shared hot set `Q` and its per-worker vector replicas.
//!
//! Section III-A: "our implementation of TNS allows the top-K frequent
//! items to be kept in all partitions at the same time. The corresponding
//! vectors are then synchronized (averaged) at regular intervals." In
//! practice `Q` "usually contains the most common SI features such as age,
//! gender, color, etc." (Section III-C stage 4).

use sisg_corpus::vocab::Vocab;
use sisg_corpus::TokenId;
use sisg_embedding::kernels;
use sisg_embedding::matrix::RowPtr;
use sisg_embedding::Matrix;

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

/// Per-worker replicas of the input and output vectors of every hot token.
#[derive(Debug)]
pub struct ReplicaSet {
    /// `input[w]` is worker `w`'s replica matrix (`|Q| × dim`).
    input: Vec<Matrix>,
    output: Vec<Matrix>,
    dim: usize,
}

impl ReplicaSet {
    /// Initializes every worker's replicas from the canonical store rows.
    pub fn init(store: &sisg_embedding::EmbeddingStore, hot: &HotSet, workers: usize) -> Self {
        let dim = store.dim();
        let make = |src: &Matrix| -> Vec<Matrix> {
            let mut m = Matrix::zeros(hot.len(), dim);
            for (slot, t) in hot.tokens().iter().enumerate() {
                m.row_mut(slot).copy_from_slice(src.row(t.index()));
            }
            vec![m; workers]
        };
        Self {
            input: make(store.input_matrix()),
            output: make(store.output_matrix()),
            dim,
        }
    }

    /// Worker `w`'s replica of the *input* vector in `slot`, as a sound
    /// shared Hogwild view ([`RowPtr`]). Workers conventionally touch only
    /// their own replica index; violating that loses updates but cannot
    /// corrupt memory.
    #[inline]
    pub fn input_row(&self, worker: usize, slot: usize) -> RowPtr<'_> {
        self.input[worker].row_ptr(slot)
    }

    /// Worker `w`'s replica of the *output* vector in `slot` — same
    /// contract as [`Self::input_row`].
    #[inline]
    pub fn output_row(&self, worker: usize, slot: usize) -> RowPtr<'_> {
        self.output[worker].row_ptr(slot)
    }

    /// Averages all replicas slot-wise (Section III-A), writing the mean
    /// back to every replica and to the canonical store rows. Must be
    /// called while no worker is training (the runtime does this at a
    /// barrier). Returns the number of bytes a cluster would move for this
    /// all-reduce.
    pub fn synchronize(&self, store: &sisg_embedding::EmbeddingStore, hot: &HotSet) -> u64 {
        let workers = self.input.len();
        if workers == 0 || hot.is_empty() {
            return 0;
        }
        let mut acc = vec![0.0f32; self.dim];
        for (matrices, canonical) in [
            (&self.input, store.input_matrix()),
            (&self.output, store.output_matrix()),
        ] {
            for (slot, t) in hot.tokens().iter().enumerate() {
                // The unrolled kernels are elementwise (per-lane order is
                // unchanged), so the documented reconciliation order — and
                // the bit-identity test below — is preserved.
                acc.fill(0.0);
                for m in matrices.iter() {
                    kernels::add_assign(&mut acc, m.row(slot));
                }
                kernels::scale(&mut acc, 1.0 / workers as f32);
                // Callers guarantee quiescence at a barrier; the relaxed
                // atomic stores are sound even if they don't.
                for m in matrices.iter() {
                    m.row_ptr(slot).store_from(&acc);
                }
                canonical.row_ptr(t.index()).store_from(&acc);
            }
        }
        // All-reduce cost: every worker sends and receives its |Q|×dim×2
        // block once.
        (workers as u64) * (hot.len() as u64) * (self.dim as u64) * 4 * 2 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::schema::SchemaCardinalities;
    use sisg_corpus::vocab::{TokenSpace, VocabBuilder};
    use sisg_embedding::EmbeddingStore;

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

    #[test]
    fn replicas_start_identical_and_average() {
        let v = vocab();
        let hot = HotSet::top_k(&v, 2);
        let store = EmbeddingStore::new(v.len(), 4, 9);
        let replicas = ReplicaSet::init(&store, &hot, 3);
        // Diverge worker replicas.
        replicas.input_row(0, 0).store_from(&[1.0; 4]);
        replicas.input_row(1, 0).store_from(&[2.0; 4]);
        replicas.input_row(2, 0).store_from(&[3.0; 4]);
        let bytes = replicas.synchronize(&store, &hot);
        assert!(bytes > 0);
        let expected = [2.0f32; 4];
        let mut got = [0.0f32; 4];
        replicas.input_row(0, 0).load_into(&mut got);
        assert_eq!(got, expected);
        replicas.input_row(2, 0).load_into(&mut got);
        assert_eq!(got, expected);
        // Canonical row of the hottest token also holds the average.
        assert_eq!(store.input(hot.tokens()[0]), &expected);
    }

    /// Sequential reference for one slot's reconciliation, mirroring the
    /// documented op order of [`ReplicaSet::synchronize`]: worker rows are
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
    fn synchronize_is_bit_identical_to_sequential_reference() {
        // Values chosen so that float op *order* matters: the sums are
        // inexact, so any reordering inside `synchronize` would change
        // low-order bits and fail the `to_bits` comparison below.
        let v = vocab();
        let hot = HotSet::top_k(&v, 2);
        let store = EmbeddingStore::new(v.len(), 4, 9);
        let replicas = ReplicaSet::init(&store, &hot, 3);

        let mut worker_rows: Vec<Vec<Vec<f32>>> = Vec::new();
        for slot in 0..hot.len() {
            let mut base = [0.0f32; 4];
            replicas.input_row(0, slot).load_into(&mut base);
            let mut rows = Vec::new();
            for w in 0..3 {
                // Perturb each replica with values whose sums are
                // inexact in f32.
                let row: Vec<f32> = (0..4)
                    .map(|d| base[d] + 0.1 + 0.3 * w as f32 + 0.7 * slot as f32 + 0.013 * d as f32)
                    .collect();
                replicas.input_row(w, slot).store_from(&row);
                rows.push(row);
            }
            worker_rows.push(rows);
        }

        replicas.synchronize(&store, &hot);

        for (slot, rows) in worker_rows.iter().enumerate() {
            let expected = reference_sync(rows);
            let mut got = [0.0f32; 4];
            for w in 0..3 {
                replicas.input_row(w, slot).load_into(&mut got);
                for (g, e) in got.iter().zip(&expected) {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "slot {slot} worker {w}: {g} != {e}"
                    );
                }
            }
            // The canonical store row must hold the same bits too.
            let canonical = store.input(hot.tokens()[slot]);
            for (g, e) in canonical.iter().zip(&expected) {
                assert_eq!(g.to_bits(), e.to_bits(), "canonical slot {slot}");
            }
        }
    }

    #[test]
    fn empty_hot_set_syncs_for_free() {
        let v = vocab();
        let hot = HotSet::top_k(&v, 0);
        let store = EmbeddingStore::new(v.len(), 4, 9);
        let replicas = ReplicaSet::init(&store, &hot, 2);
        assert_eq!(replicas.synchronize(&store, &hot), 0);
    }
}
