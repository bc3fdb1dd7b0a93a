//! `EnrichedCorpus` is a view: it expands Eq. 4 one sequence at a time
//! from the click corpus. Everything read through it must equal what the
//! old build produced when it materialized every enriched token into one
//! flat array. That materializing loop is kept here, and only here, as the
//! reference, for all four `EnrichOptions` on the tiny corpus.
//!
//! The pinned figures were taken from the materializing build; they hold
//! the view to the same token counts, pair counts, text bytes and
//! checkpoint fingerprints.

use sisg_corpus::{
    CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus, ItemFeature, TokenId, UserId,
};
use sisg_distributed::recovery::enriched_fingerprint;

/// The materializing build: every sequence's tokens in one flat array.
struct Materialized {
    users: Vec<UserId>,
    tokens: Vec<TokenId>,
    offsets: Vec<usize>,
}

impl Materialized {
    fn build(c: &GeneratedCorpus, options: EnrichOptions, e: &EnrichedCorpus<'_>) -> Self {
        let space = e.space();
        let (mut users, mut tokens, mut offsets) = (Vec::new(), Vec::new(), vec![0]);
        for session in c.sessions.iter() {
            users.push(session.user);
            for &item in session.items {
                tokens.push(space.item(item));
                if options.include_si {
                    let si = c.catalog.si_values(item);
                    for feature in ItemFeature::ALL {
                        tokens.push(space.side_info(feature, si[feature.slot()]));
                    }
                }
            }
            if options.include_user_types {
                tokens.push(space.user_type(c.users.user_type(session.user)));
            }
            offsets.push(tokens.len());
        }
        Self {
            users,
            tokens,
            offsets,
        }
    }

    fn sequence(&self, i: usize) -> &[TokenId] {
        &self.tokens[self.offsets[i]..self.offsets[i + 1]]
    }

    fn len(&self) -> usize {
        self.users.len()
    }
}

/// Window pairs by enumeration, not by formula.
fn enumerate_pairs(m: &Materialized, window: usize, directional: bool) -> u64 {
    let mut n = 0u64;
    for i in 0..m.len() {
        let len = m.sequence(i).len();
        for pos in 0..len {
            for other in pos.saturating_sub(window)..(pos + window + 1).min(len) {
                let counted = if directional {
                    other > pos
                } else {
                    other != pos
                };
                n += u64::from(counted);
            }
        }
    }
    n
}

fn reference_text(m: &Materialized, e: &EnrichedCorpus<'_>) -> Vec<u8> {
    let mut out = String::new();
    for i in 0..m.len() {
        let line: Vec<String> = m
            .sequence(i)
            .iter()
            .map(|&t| e.space().describe(t))
            .collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out.into_bytes()
}

/// The checkpoint fingerprint as it was computed over the flat array.
fn reference_fingerprint(m: &Materialized, e: &EnrichedCorpus<'_>) -> u64 {
    let mut h = sisg_obs::Fnv1a::new();
    h.u64(e.space().len() as u64);
    h.u64(m.len() as u64);
    h.u64(m.tokens.len() as u64);
    for i in 0..m.len() {
        h.u64(m.users[i].0 as u64);
        for t in m.sequence(i) {
            h.u64(t.0 as u64);
        }
    }
    h.finish()
}

fn bytes_hash(bytes: &[u8]) -> u64 {
    let mut h = sisg_obs::Fnv1a::new();
    for &b in bytes {
        h.u64(b as u64);
    }
    h.finish()
}

/// Figures of the materializing build on `CorpusConfig::tiny()`:
/// options, total tokens, window-5 pairs (symmetric, directional), text
/// byte length and FNV, checkpoint fingerprint.
const PINS: [(EnrichOptions, u64, u64, u64, usize, u64, u64); 4] = [
    (
        EnrichOptions::NONE,
        10_624,
        65_768,
        32_884,
        92_869,
        0x881c_5c13_7bda_4e1c,
        0x76b8_3055_76f3_4976,
    ),
    (
        EnrichOptions::SI_ONLY,
        95_616,
        911_160,
        455_580,
        1_259_130,
        0x3e56_3218_3ff9_3665,
        0x17dc_4741_3468_b285,
    ),
    (
        EnrichOptions::USER_TYPES_ONLY,
        12_124,
        78_126,
        39_063,
        112_931,
        0x47fd_bec3_664f_eb3c,
        0x5aea_abc7_edec_4319,
    ),
    (
        EnrichOptions::FULL,
        97_116,
        926_160,
        463_080,
        1_279_192,
        0x4bf0_a547_e48b_2ee5,
        0x6487_fb21_15b6_6472,
    ),
];

#[test]
fn the_view_reads_exactly_what_the_materializing_build_wrote() {
    let c = GeneratedCorpus::generate(CorpusConfig::tiny());
    for (options, tokens, sym5, dir5, text_len, text_hash, fingerprint) in PINS {
        let e = EnrichedCorpus::build(&c, options);
        let m = Materialized::build(&c, options, &e);
        assert_eq!(e.len(), m.len(), "{options:?}");

        // One buffer for every sequence: each call must replace, not append.
        let mut seq = vec![TokenId(u32::MAX); 3];
        for i in 0..m.len() {
            e.sequence_into(i, &mut seq);
            assert_eq!(seq, m.sequence(i), "{options:?} sequence {i}");
            assert_eq!(e.sequence_len(i), seq.len(), "{options:?} sequence {i}");
        }

        assert_eq!(e.total_tokens(), m.tokens.len() as u64, "{options:?}");
        assert_eq!(e.total_tokens(), tokens, "{options:?}");
        let mut freqs = vec![0u64; e.space().len()];
        for t in &m.tokens {
            freqs[t.index()] += 1;
        }
        assert_eq!(e.vocab().freqs(), freqs.as_slice(), "{options:?}");
        assert_eq!(e.vocab().total_tokens(), tokens, "{options:?}");

        for window in [1, 3, 5] {
            for directional in [false, true] {
                assert_eq!(
                    e.count_positive_pairs(window, directional),
                    enumerate_pairs(&m, window, directional),
                    "{options:?} window {window} directional {directional}"
                );
            }
        }
        assert_eq!(e.count_positive_pairs(5, false), sym5, "{options:?}");
        assert_eq!(e.count_positive_pairs(5, true), dir5, "{options:?}");

        let mut text = Vec::new();
        e.write_text(&mut text)
            .expect("writing to a Vec cannot fail");
        assert!(text == reference_text(&m, &e), "{options:?} text differs");
        assert_eq!(text.len(), text_len, "{options:?}");
        assert_eq!(bytes_hash(&text), text_hash, "{options:?}");

        assert_eq!(
            enriched_fingerprint(&e),
            reference_fingerprint(&m, &e),
            "{options:?}"
        );
        assert_eq!(enriched_fingerprint(&e), fingerprint, "{options:?}");
    }
}
