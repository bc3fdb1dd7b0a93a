//! The one skip-gram pair stream: sgns ([`crate::train`]), Section III's
//! TNS workers and the EGES baseline draw their positive pairs from a
//! [`PairStream`] (DESIGN.md §5 has its contract and the callers' rules).

use crate::sampler::{PairSampler, SubsampleTable};
use crate::trainer::Sequences;
use rand::Rng;
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::TokenId;

/// Positive pairs counted by the kinds of their two tokens, as
/// [`TokenSpace::kind`] classifies them: the work Eq. 4's enrichment adds
/// to a plain item sequence, kind by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairKinds {
    /// Item → item.
    pub item_item: u64,
    /// An item and an SI token, either way round.
    pub item_si: u64,
    /// SI ↔ SI.
    pub si_si: u64,
    /// Any pair with a user-type token.
    pub user: u64,
}

impl PairKinds {
    /// All pairs counted.
    pub const fn total(&self) -> u64 {
        self.item_item + self.item_si + self.si_si + self.user
    }

    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &PairKinds) {
        self.item_item += other.item_item;
        self.item_si += other.item_si;
        self.si_si += other.si_si;
        self.user += other.user;
    }
}

/// Counts `pairs` into `kinds` by [`TokenSpace::kind`]'s classes; a source
/// without a token space holds items only.
fn count_kinds(space: Option<&TokenSpace>, pairs: &[(TokenId, TokenId)], kinds: &mut PairKinds) {
    // 0 for an item, 1 for SI, 3 for a user type: a pair's two codes sum
    // to 0 (item→item), 1 (item↔SI), 2 (SI↔SI) or ≥ 3 (a user type).
    let code = |t| match space {
        Some(s) if s.is_user_type(t) => 3,
        Some(s) if !s.is_item(t) => 1,
        _ => 0,
    };
    for &(t, c) in pairs {
        match code(t) + code(c) {
            0 => kinds.item_item += 1,
            1 => kinds.item_si += 1,
            2 => kinds.si_si += 1,
            _ => kinds.user += 1,
        }
    }
}

/// The skip-gram pairs of a [`Sequences`] source, one sequence at a time:
/// sequence `i` is expanded into a reused buffer, subsampled with the
/// caller's RNG (no [`SubsampleTable`]: every token kept, nothing drawn)
/// and windowed, and its pairs whose target the caller's filter keeps
/// are handed out in order — exactly those of
/// [`SubsampleTable::filter_into`] then [`PairSampler::pairs_where_into`].
/// A sequence is subsampled whole before its first pair is handed out,
/// so a caller drawing negatives from the same RNG keeps word2vec's order.
/// The pairs of every expanded sequence are counted by [`PairKinds`].
pub struct PairStream<'a, S: Sequences + ?Sized> {
    seqs: &'a S,
    subsample: Option<&'a SubsampleTable>,
    sampler: PairSampler,
    /// Next sequence to expand.
    next_seq: usize,
    /// Raw tokens of the sequences before the one being handed out.
    tokens_before: u64,
    /// Tokens surviving subsampling, over every expanded sequence.
    kept_tokens: u64,
    /// The source's token space, which sorts the pairs by kind.
    space: Option<&'a TokenSpace>,
    /// Kept pairs by kind since the last [`PairStream::take_pair_kinds`].
    kinds: PairKinds,
    /// The sequence being handed out, its kept tokens and kept pairs.
    seq: Vec<TokenId>,
    kept: Vec<TokenId>,
    pairs: Vec<(TokenId, TokenId)>,
    /// Next pair of `pairs` to hand out.
    at: usize,
}

impl<'a, S: Sequences + ?Sized> PairStream<'a, S> {
    /// A stream over every sequence of `seqs` from the first, subsampled
    /// by `subsample` (`None`: the identity) and windowed by `sampler`.
    pub fn new(seqs: &'a S, subsample: Option<&'a SubsampleTable>, sampler: PairSampler) -> Self {
        Self {
            seqs,
            subsample,
            sampler,
            next_seq: 0,
            tokens_before: 0,
            kept_tokens: 0,
            space: seqs.space(),
            kinds: PairKinds::default(),
            seq: Vec::with_capacity(64),
            kept: Vec::with_capacity(64),
            pairs: Vec::with_capacity(256),
            at: 0,
        }
    }

    /// The next pair of the whole source, every target kept.
    pub fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<(TokenId, TokenId)> {
        self.next_until(usize::MAX, rng, |_, _| true)
    }

    /// The next pair among the sequences before `end` whose target
    /// `keep(i, target)` accepts, `i` being the sequence's index; `None`
    /// once those sequences are consumed. A later call with a larger `end`
    /// resumes where this one stopped.
    pub fn next_until<R: Rng + ?Sized>(
        &mut self,
        end: usize,
        rng: &mut R,
        mut keep: impl FnMut(usize, TokenId) -> bool,
    ) -> Option<(TokenId, TokenId)> {
        loop {
            if let Some(&pair) = self.pairs.get(self.at) {
                self.at += 1;
                return Some(pair);
            }
            let i = self.next_seq;
            if i >= end.min(self.seqs.n_sequences()) {
                return None;
            }
            self.next_seq += 1;
            self.tokens_before += self.seq.len() as u64;
            self.seqs.sequence_into(i, &mut self.seq);
            let kept = match self.subsample {
                Some(table) => {
                    table.filter_into(&self.seq, rng, &mut self.kept);
                    &self.kept
                }
                None => &self.seq,
            };
            self.kept_tokens += kept.len() as u64;
            self.sampler
                .pairs_where_into(kept, |t| keep(i, t), &mut self.pairs);
            count_kinds(self.space, &self.pairs, &mut self.kinds);
            self.at = 0;
        }
    }

    /// Raw tokens of the sequences before the one whose pairs are being
    /// handed out: the learning-rate progress of sgns and EGES.
    pub fn tokens_before(&self) -> u64 {
        self.tokens_before
    }

    /// Tokens of every sequence expanded so far that survived subsampling.
    pub fn kept_tokens(&self) -> u64 {
        self.kept_tokens
    }

    /// The kept pairs of the sequences expanded since the last call, by
    /// kind; a caller that drains each sequence reads the pairs it took.
    pub fn take_pair_kinds(&mut self) -> PairKinds {
        std::mem::take(&mut self.kinds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pair lands in the kind of its two tokens' classes.
    #[test]
    fn pairs_are_counted_by_the_kinds_of_their_tokens() {
        use sisg_corpus::schema::SchemaCardinalities;
        let space = TokenSpace::new(4, &SchemaCardinalities::for_items(4), 2);
        let (item, user) = (TokenId(1), TokenId(space.len() as u32 - 1));
        let si = TokenId(4);
        let pairs = [
            (item, item),
            (item, si),
            (si, item),
            (si, si),
            (user, si),
            (item, user),
        ];
        let mut kinds = PairKinds::default();
        count_kinds(Some(&space), &pairs, &mut kinds);
        let want = PairKinds {
            item_item: 1,
            item_si: 2,
            si_si: 1,
            user: 2,
        };
        assert_eq!(kinds, want);
        let mut plain = PairKinds::default();
        count_kinds(None, &pairs, &mut plain);
        assert_eq!(plain.item_item, 6, "a source without a space holds items");
    }
}
