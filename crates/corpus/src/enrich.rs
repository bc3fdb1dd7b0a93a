//! Sequence enrichment — Eq. (4) of the paper.
//!
//! Given a behavior sequence `S_u = (v_1, …, v_p)`, the enriched sequence is
//!
//! ```text
//! v_1, SI¹_1, …, SIⁿ_1,  …,  v_p, SI¹_p, …, SIⁿ_p,  UT_u
//! ```
//!
//! i.e. every item is followed by its side-information tokens and the user's
//! user-type token is appended. The enriched sequences can then be fed into
//! *any* standard SGNS implementation — this is the paper's "practicability"
//! point. The SISG variants of Table III correspond to toggling the two
//! options here (and the directional window in the trainer).
//!
//! [`EnrichedCorpus`] is a view, not a copy: with eight SI per item the
//! enriched corpus is about 9× its click log, so it is never stored. The
//! view borrows the clicks and keeps a per-item token block and a
//! per-sequence user-type token; readers expand one sequence at a time
//! into a buffer they reuse ([`EnrichedCorpus::sequence_into`]).

use crate::catalog::ItemCatalog;
use crate::generator::GeneratedCorpus;
use crate::schema::ItemFeature;
use crate::session::Corpus;
use crate::token::{ItemId, TokenId};
use crate::users::UserRegistry;
use crate::vocab::{TokenSpace, Vocab, VocabBuilder};
use serde::{Deserialize, Serialize};

/// Which SI is injected during enrichment. `{include_si: false,
/// include_user_types: false}` degenerates to plain SGNS sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnrichOptions {
    /// Inject the eight item-SI tokens after every item (the `-F` variants).
    pub include_si: bool,
    /// Append the user-type token to every sequence (the `-U` variants).
    pub include_user_types: bool,
}

impl EnrichOptions {
    /// Plain item sequences (the `SGNS` baseline row of Table III).
    pub const NONE: Self = Self {
        include_si: false,
        include_user_types: false,
    };
    /// Item SI only (`SISG-F`).
    pub const SI_ONLY: Self = Self {
        include_si: true,
        include_user_types: false,
    };
    /// User types only (`SISG-U`).
    pub const USER_TYPES_ONLY: Self = Self {
        include_si: false,
        include_user_types: true,
    };
    /// Full enrichment (`SISG-F-U`, `SISG-F-U-D`).
    pub const FULL: Self = Self {
        include_si: true,
        include_user_types: true,
    };
}

/// Enriched training sequences as a view over the click corpus, plus the
/// vocabulary counted over them.
///
/// Nothing here is sized by enriched tokens: the view borrows the sessions
/// and keeps one token block `[item, SI¹…SI⁸]` per catalog item and one
/// user-type token per sequence; [`EnrichedCorpus::sequence_into`] expands
/// the `i`-th Eq. (4) sequence into a caller's buffer on demand. Heap use
/// is O(items + sequences), on top of the click corpus it reads.
#[derive(Debug, Clone)]
pub struct EnrichedCorpus<'a> {
    space: TokenSpace,
    options: EnrichOptions,
    sessions: &'a Corpus,
    /// Tokens every click on an item expands to, `per_item` per item:
    /// the item token, then its eight SI tokens when `include_si`.
    item_tokens: Vec<TokenId>,
    per_item: usize,
    /// The user-type token of each sequence; empty unless
    /// `include_user_types`.
    user_types: Vec<TokenId>,
    vocab: Vocab,
}

impl<'a> EnrichedCorpus<'a> {
    /// Enriches every session of `corpus` according to `options`.
    pub fn build(corpus: &'a GeneratedCorpus, options: EnrichOptions) -> Self {
        Self::build_from_sessions(
            &corpus.sessions,
            &corpus.catalog,
            &corpus.users,
            corpus.config.n_items,
            options,
        )
    }

    /// Enriches an arbitrary session set (e.g. the training half of a
    /// next-item split) against the given catalogs.
    ///
    /// # Panics
    /// Panics when a session clicks an item `>= n_items`, or, with
    /// `include_user_types`, comes from a user outside `users`.
    pub fn build_from_sessions(
        sessions: &'a Corpus,
        catalog: &ItemCatalog,
        users: &UserRegistry,
        n_items: u32,
        options: EnrichOptions,
    ) -> Self {
        let space = TokenSpace::new(n_items, catalog.cardinalities(), users.n_user_types());
        let per_item = 1 + if options.include_si {
            ItemFeature::COUNT
        } else {
            0
        };
        let mut item_tokens = Vec::with_capacity(n_items as usize * per_item);
        for item in (0..n_items).map(ItemId) {
            item_tokens.push(space.item(item));
            if options.include_si {
                let si = catalog.si_values(item);
                item_tokens.extend(
                    ItemFeature::ALL.map(|feature| space.side_info(feature, si[feature.slot()])),
                );
            }
        }
        let user_types: Vec<TokenId> = if options.include_user_types {
            sessions
                .iter()
                .map(|s| space.user_type(users.user_type(s.user)))
                .collect()
        } else {
            Vec::new()
        };

        let mut vocab = VocabBuilder::new(space.clone());
        for session in sessions.iter() {
            for &item in session.items {
                vocab.record_sequence(&item_tokens[item.index() * per_item..][..per_item]);
            }
        }
        vocab.record_sequence(&user_types);

        Self {
            space,
            options,
            sessions,
            item_tokens,
            per_item,
            user_types,
            vocab: vocab.build(),
        }
    }

    /// The token layout shared by all components.
    #[inline]
    pub fn space(&self) -> &TokenSpace {
        &self.space
    }

    /// The enrichment options this corpus was built with.
    #[inline]
    pub fn options(&self) -> EnrichOptions {
        self.options
    }

    /// The per-token frequency dictionary (stage 2 of the training pipeline).
    #[inline]
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The click sessions the sequences expand: sequence `i` is session `i`.
    #[inline]
    pub fn sessions(&self) -> &'a Corpus {
        self.sessions
    }

    /// Number of sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when there are no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Total number of tokens — the `#Tokens` column of Table II.
    #[inline]
    pub fn total_tokens(&self) -> u64 {
        self.sessions.total_clicks() * self.per_item as u64 + self.user_types.len() as u64
    }

    /// Length of the `i`-th enriched sequence: `p·(1 + 8·si) + u` for a
    /// session of `p` clicks.
    #[inline]
    pub fn sequence_len(&self, i: usize) -> usize {
        self.sessions.session(i).len() * self.per_item
            + usize::from(self.options.include_user_types)
    }

    /// Writes the `i`-th enriched sequence into `out`, replacing its
    /// contents.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn sequence_into(&self, i: usize, out: &mut Vec<TokenId>) {
        out.clear();
        for &item in self.sessions.session(i).items {
            out.extend_from_slice(
                &self.item_tokens[item.index() * self.per_item..][..self.per_item],
            );
        }
        if let Some(&ut) = self.user_types.get(i) {
            out.push(ut);
        }
    }

    /// Writes the enriched sequences as text, one session per line, tokens
    /// in the paper's `[FeatureName]_[FeatureValue]` encoding — the exact
    /// artifact the paper feeds "directly into any standard SGNS
    /// implementation, such as word2vec".
    pub fn write_text<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        let mut seq = Vec::new();
        for i in 0..self.len() {
            self.sequence_into(i, &mut seq);
            let mut first = true;
            for &t in &seq {
                if !first {
                    write!(out, " ")?;
                }
                write!(out, "{}", self.space.describe(t))?;
                first = false;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Exact number of positive (target, context) pairs a window sampler
    /// would draw with window `m` — the `#Positive pairs` column of
    /// Table II. `directional` counts only right-context pairs
    /// (Section II-C).
    pub fn count_positive_pairs(&self, window: usize, directional: bool) -> u64 {
        (0..self.len())
            .map(|i| pairs_in_sequence(self.sequence_len(i), window, directional))
            .sum()
    }
}

/// Number of window pairs in one sequence of length `len`.
fn pairs_in_sequence(len: usize, window: usize, directional: bool) -> u64 {
    let mut n = 0u64;
    for i in 0..len {
        let right = window.min(len - 1 - i);
        n += right as u64;
        if !directional {
            n += window.min(i) as u64;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CorpusConfig;
    use crate::vocab::TokenKind;

    fn corpus() -> GeneratedCorpus {
        GeneratedCorpus::generate(CorpusConfig::tiny())
    }

    #[test]
    fn plain_options_reproduce_click_counts() {
        let c = corpus();
        let e = EnrichedCorpus::build(&c, EnrichOptions::NONE);
        assert_eq!(e.total_tokens(), c.sessions.total_clicks());
        let mut seq = Vec::new();
        for (i, s) in c.sessions.iter().enumerate() {
            e.sequence_into(i, &mut seq);
            assert_eq!(seq.len(), s.len());
            assert_eq!(e.sequence_len(i), s.len());
        }
    }

    #[test]
    fn full_enrichment_matches_eq4_layout() {
        let c = corpus();
        let e = EnrichedCorpus::build(&c, EnrichOptions::FULL);
        let session = c.sessions.session(0);
        let mut seq = Vec::new();
        e.sequence_into(0, &mut seq);
        assert_eq!(e.sequence_len(0), seq.len());
        assert_eq!(seq.len(), session.len() * (1 + ItemFeature::COUNT) + 1);
        // First token is the first item; the next 8 are its SI in ALL order.
        assert_eq!(seq[0], e.space().item(session.items[0]));
        let si = c.catalog.si_values(session.items[0]);
        for f in ItemFeature::ALL {
            assert_eq!(seq[1 + f.slot()], e.space().side_info(f, si[f.slot()]));
        }
        // Last token is the user type.
        let ut = c.users.user_type(session.user);
        assert_eq!(*seq.last().unwrap(), e.space().user_type(ut));
    }

    #[test]
    fn si_only_has_no_user_types() {
        let c = corpus();
        let e = EnrichedCorpus::build(&c, EnrichOptions::SI_ONLY);
        let mut seq = Vec::new();
        for i in 0..e.len() {
            e.sequence_into(i, &mut seq);
            for &t in &seq {
                assert!(!matches!(e.space().kind(t), TokenKind::UserType(_)));
            }
        }
    }

    #[test]
    fn vocab_counts_match_token_stream() {
        let c = corpus();
        let e = EnrichedCorpus::build(&c, EnrichOptions::FULL);
        assert_eq!(e.vocab().total_tokens(), e.total_tokens());
        // SI tokens of hot leaf categories must dominate item frequencies —
        // the imbalance ATNS is designed for.
        let max_item_freq = (0..e.space().n_items())
            .map(|i| e.vocab().freq(TokenId(i)))
            .max()
            .unwrap();
        let top = e.vocab().top_k(1)[0];
        assert!(e.vocab().freq(top) >= max_item_freq);
    }

    #[test]
    fn text_export_roundtrips_through_parse() {
        let c = corpus();
        let e = EnrichedCorpus::build(&c, EnrichOptions::FULL);
        let mut buf = Vec::new();
        e.write_text(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), e.len());
        // Every token string parses back to the id it came from.
        let mut seq = Vec::new();
        for (i, line) in lines.iter().enumerate().take(20) {
            let parsed: Vec<_> = line
                .split(' ')
                .map(|tok| e.space().parse(tok).expect("token parses"))
                .collect();
            e.sequence_into(i, &mut seq);
            assert_eq!(parsed, seq);
        }
        assert!(text.contains("leaf_category_"), "paper encoding expected");
    }

    #[test]
    fn pair_counting_formula() {
        // len 4, window 2, symmetric: pos0:2, pos1:3, pos2:3, pos3:2 = 10.
        assert_eq!(pairs_in_sequence(4, 2, false), 10);
        // directional: pos0:2, pos1:2, pos2:1, pos3:0 = 5.
        assert_eq!(pairs_in_sequence(4, 2, true), 5);
        assert_eq!(pairs_in_sequence(1, 5, false), 0);
        assert_eq!(pairs_in_sequence(0, 5, true), 0);
    }

    #[test]
    fn directional_pairs_are_fewer() {
        let c = corpus();
        let e = EnrichedCorpus::build(&c, EnrichOptions::FULL);
        let sym = e.count_positive_pairs(5, false);
        let dir = e.count_positive_pairs(5, true);
        assert!(dir < sym);
        assert!(dir * 2 >= sym.saturating_sub(e.len() as u64 * 10));
    }
}
