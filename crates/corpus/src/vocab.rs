//! The training vocabulary: a dense id space over items, SI instances and
//! user types, plus corpus frequencies.
//!
//! The paper feeds *strings* like `leaf_category_1234` into a word2vec engine;
//! internally any such engine immediately interns strings into dense ids. We
//! keep the layout deterministic ([`TokenSpace`]) so items, SI instances and
//! user types occupy contiguous id ranges — this makes partitioning, noise
//! tables and embedding matrices simple flat arrays — while still being able
//! to render every token in the paper's `[FeatureName]_[FeatureValue]`
//! encoding via [`TokenSpace::describe`].

use crate::schema::{ItemFeature, SchemaCardinalities};
use crate::token::{ItemId, TokenId, UserTypeId};
use serde::{Deserialize, Serialize};

/// What a [`TokenId`] denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// An item token.
    Item(ItemId),
    /// A side-information instance: one discrete value of one item feature.
    SideInfo(ItemFeature, u32),
    /// A user-type token.
    UserType(UserTypeId),
}

/// Deterministic dense layout of the token id space.
///
/// Ids are assigned as `[items | SI feature 0 values | … | SI feature 7
/// values | user types]`. The layout is a pure function of the corpus shape,
/// so every component (workers, partitioners, noise tables) can derive it
/// independently without shipping a dictionary around — mirroring how the
/// production system distributes its dictionary `D` in stage 2 of the
/// training pipeline (Section III-C).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenSpace {
    n_items: u32,
    si_offsets: [u32; ItemFeature::COUNT],
    si_cards: [u32; ItemFeature::COUNT],
    user_type_offset: u32,
    n_user_types: u32,
}

impl TokenSpace {
    /// Builds the layout for `n_items` items, the SI value spaces given by
    /// `cards`, and `n_user_types` user types.
    pub fn new(n_items: u32, cards: &SchemaCardinalities, n_user_types: u32) -> Self {
        let mut si_offsets = [0u32; ItemFeature::COUNT];
        let mut si_cards = [0u32; ItemFeature::COUNT];
        let mut cursor = n_items;
        for feature in ItemFeature::ALL {
            si_offsets[feature.slot()] = cursor;
            let card = cards.cardinality(feature);
            si_cards[feature.slot()] = card;
            cursor = cursor.checked_add(card).expect("token space overflows u32");
        }
        let user_type_offset = cursor;
        cursor = cursor
            .checked_add(n_user_types)
            .expect("token space overflows u32");
        let _total = cursor;
        Self {
            n_items,
            si_offsets,
            si_cards,
            user_type_offset,
            n_user_types,
        }
    }

    /// Total number of distinct tokens.
    #[inline]
    pub fn len(&self) -> usize {
        (self.user_type_offset + self.n_user_types) as usize
    }

    /// True when the space contains no tokens at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of item tokens; items occupy ids `0..n_items()`.
    #[inline]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Number of user types.
    #[inline]
    pub fn n_user_types(&self) -> u32 {
        self.n_user_types
    }

    /// Token id of an item.
    #[inline]
    pub fn item(&self, item: ItemId) -> TokenId {
        debug_assert!(item.0 < self.n_items);
        TokenId(item.0)
    }

    /// Token id of the SI instance `feature = value`.
    #[inline]
    pub fn side_info(&self, feature: ItemFeature, value: u32) -> TokenId {
        let slot = feature.slot();
        debug_assert!(value < self.si_cards[slot], "SI value out of range");
        TokenId(self.si_offsets[slot] + value)
    }

    /// Non-panicking [`Self::side_info`]: `None` when `value` exceeds the
    /// feature's cardinality. The serving path uses this so a malformed
    /// request becomes a typed error instead of an out-of-bounds panic.
    #[inline]
    pub fn try_side_info(&self, feature: ItemFeature, value: u32) -> Option<TokenId> {
        let slot = feature.slot();
        (value < self.si_cards[slot]).then(|| TokenId(self.si_offsets[slot] + value))
    }

    /// Non-panicking [`Self::user_type`]: `None` when `ut` is out of range.
    #[inline]
    pub fn try_user_type(&self, ut: UserTypeId) -> Option<TokenId> {
        (ut.0 < self.n_user_types).then(|| TokenId(self.user_type_offset + ut.0))
    }

    /// Number of realized values of one SI feature in this layout.
    #[inline]
    pub fn si_cardinality(&self, feature: ItemFeature) -> u32 {
        self.si_cards[feature.slot()]
    }

    /// Token id of a user type.
    #[inline]
    pub fn user_type(&self, ut: UserTypeId) -> TokenId {
        debug_assert!(ut.0 < self.n_user_types);
        TokenId(self.user_type_offset + ut.0)
    }

    /// True when `token` denotes an item.
    #[inline]
    pub fn is_item(&self, token: TokenId) -> bool {
        token.0 < self.n_items
    }

    /// True when `token` denotes a user type.
    #[inline]
    pub fn is_user_type(&self, token: TokenId) -> bool {
        token.0 >= self.user_type_offset
    }

    /// Classifies a token id.
    pub fn kind(&self, token: TokenId) -> TokenKind {
        if self.is_item(token) {
            return TokenKind::Item(ItemId(token.0));
        }
        if self.is_user_type(token) {
            debug_assert!(token.0 < self.user_type_offset + self.n_user_types);
            return TokenKind::UserType(UserTypeId(token.0 - self.user_type_offset));
        }
        for feature in ItemFeature::ALL {
            let slot = feature.slot();
            let start = self.si_offsets[slot];
            if token.0 >= start && token.0 < start + self.si_cards[slot] {
                return TokenKind::SideInfo(feature, token.0 - start);
            }
        }
        unreachable!("token id {token} outside the token space")
    }

    /// Renders a token in the paper's string encoding, e.g.
    /// `leaf_category_1234`, `item_42`, or `user_type_7`.
    pub fn describe(&self, token: TokenId) -> String {
        match self.kind(token) {
            TokenKind::Item(item) => format!("item_{}", item.0),
            TokenKind::SideInfo(feature, value) => feature.encode(value),
            TokenKind::UserType(ut) => format!("user_type_{}", ut.0),
        }
    }

    /// Parses the paper's string encoding back into a token id — the
    /// inverse of [`Self::describe`]. Returns `None` for unknown feature
    /// names or out-of-range values, so external corpora can be imported
    /// defensively.
    pub fn parse(&self, text: &str) -> Option<TokenId> {
        let (name, value) = text.rsplit_once('_')?;
        let value: u32 = value.parse().ok()?;
        match name {
            "item" => (value < self.n_items).then(|| self.item(ItemId(value))),
            "user_type" => (value < self.n_user_types).then(|| self.user_type(UserTypeId(value))),
            _ => {
                let feature = ItemFeature::ALL.into_iter().find(|f| f.name() == name)?;
                (value < self.si_cards[feature.slot()]).then(|| self.side_info(feature, value))
            }
        }
    }
}

/// Corpus token frequencies over a [`TokenSpace`].
///
/// This is the dictionary `D` of the training pipeline (Section III-C stage
/// 2): it backs the noise distribution, Mikolov subsampling, the ATNS shared
/// hot set `Q`, and the HBGP item weights.
#[derive(Debug, Clone)]
pub struct Vocab {
    space: TokenSpace,
    freqs: Vec<u64>,
    total: u64,
}

impl Vocab {
    /// Creates a vocab with all frequencies zero.
    pub fn new(space: TokenSpace) -> Self {
        let freqs = vec![0; space.len()];
        Self {
            space,
            freqs,
            total: 0,
        }
    }

    /// The underlying token layout.
    #[inline]
    pub fn space(&self) -> &TokenSpace {
        &self.space
    }

    /// Number of distinct tokens (including zero-frequency ones).
    #[inline]
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// True when the vocabulary is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Occurrence count of `token` in the (enriched) corpus.
    #[inline]
    pub fn freq(&self, token: TokenId) -> u64 {
        self.freqs[token.index()]
    }

    /// Total number of token occurrences.
    #[inline]
    pub fn total_tokens(&self) -> u64 {
        self.total
    }

    /// Raw frequency slice, indexed by token id.
    #[inline]
    pub fn freqs(&self) -> &[u64] {
        &self.freqs
    }

    /// The `k` most frequent tokens, descending.
    pub fn top_k(&self, k: usize) -> Vec<TokenId> {
        let mut all: Vec<u32> = (0..self.freqs.len() as u32).collect();
        all.sort_by_key(|&i| std::cmp::Reverse(self.freqs[i as usize]));
        all.truncate(k);
        all.into_iter().map(TokenId).collect()
    }
}

/// Accumulates token counts while a corpus is generated or scanned.
#[derive(Debug, Clone)]
pub struct VocabBuilder {
    vocab: Vocab,
}

impl VocabBuilder {
    /// Starts counting over `space`.
    pub fn new(space: TokenSpace) -> Self {
        Self {
            vocab: Vocab::new(space),
        }
    }

    /// Records one occurrence of `token`.
    #[inline]
    pub fn record(&mut self, token: TokenId) {
        self.vocab.freqs[token.index()] += 1;
        self.vocab.total += 1;
    }

    /// Records every token of an enriched sequence.
    pub fn record_sequence(&mut self, tokens: &[TokenId]) {
        for &t in tokens {
            self.record(t);
        }
    }

    /// Finishes counting.
    pub fn build(self) -> Vocab {
        self.vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> TokenSpace {
        TokenSpace::new(100, &SchemaCardinalities::for_items(100), 10)
    }

    #[test]
    fn items_occupy_prefix() {
        let s = space();
        assert_eq!(s.item(ItemId(0)), TokenId(0));
        assert_eq!(s.item(ItemId(99)), TokenId(99));
        assert!(s.is_item(TokenId(99)));
        assert!(!s.is_item(TokenId(100)));
    }

    #[test]
    fn ranges_are_disjoint_and_cover_space() {
        let s = space();
        let mut seen = vec![false; s.len()];
        for i in 0..100 {
            seen[s.item(ItemId(i)).index()] = true;
        }
        let cards = SchemaCardinalities::for_items(100);
        for f in ItemFeature::ALL {
            for v in 0..cards.cardinality(f) {
                let idx = s.side_info(f, v).index();
                assert!(!seen[idx], "overlap at {idx}");
                seen[idx] = true;
            }
        }
        for u in 0..10 {
            let idx = s.user_type(UserTypeId(u)).index();
            assert!(!seen[idx], "overlap at {idx}");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&b| b), "layout leaves holes");
    }

    #[test]
    fn kind_inverts_constructors() {
        let s = space();
        assert_eq!(s.kind(s.item(ItemId(5))), TokenKind::Item(ItemId(5)));
        assert_eq!(
            s.kind(s.side_info(ItemFeature::Brand, 3)),
            TokenKind::SideInfo(ItemFeature::Brand, 3)
        );
        assert_eq!(
            s.kind(s.user_type(UserTypeId(7))),
            TokenKind::UserType(UserTypeId(7))
        );
    }

    #[test]
    fn describe_uses_paper_encoding() {
        let s = space();
        assert_eq!(s.describe(s.item(ItemId(42))), "item_42");
        assert!(s
            .describe(s.side_info(ItemFeature::LeafCategory, 3))
            .starts_with("leaf_category_"));
        assert_eq!(s.describe(s.user_type(UserTypeId(1))), "user_type_1");
    }

    #[test]
    fn parse_inverts_describe() {
        let s = space();
        for idx in (0..s.len()).step_by(7) {
            let t = TokenId(idx as u32);
            let text = s.describe(t);
            assert_eq!(s.parse(&text), Some(t), "roundtrip failed for {text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        let s = space();
        assert_eq!(s.parse("item_999999"), None, "out-of-range item");
        assert_eq!(s.parse("nonsense_3"), None, "unknown feature");
        assert_eq!(s.parse("item_abc"), None, "non-numeric value");
        assert_eq!(s.parse(""), None);
        assert_eq!(s.parse("item"), None, "no separator");
    }

    #[test]
    fn vocab_counts_and_top_k() {
        let s = space();
        let mut b = VocabBuilder::new(s.clone());
        for _ in 0..5 {
            b.record(TokenId(3));
        }
        b.record(TokenId(7));
        let v = b.build();
        assert_eq!(v.freq(TokenId(3)), 5);
        assert_eq!(v.freq(TokenId(7)), 1);
        assert_eq!(v.freq(TokenId(0)), 0);
        assert_eq!(v.total_tokens(), 6);
        assert_eq!(v.top_k(1), vec![TokenId(3)]);
    }
}
