//! Dataset statistics — the columns of Table II.

use crate::enrich::EnrichedCorpus;
use crate::generator::GeneratedCorpus;
use crate::schema::ItemFeature;
use crate::token::TokenId;
use crate::vocab::TokenKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One row of Table II: the statistics of one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Dataset label (e.g. `taobao-25k`).
    pub name: String,
    /// Number of distinct items observed in sessions (`#Items`).
    pub n_items: u64,
    /// Number of SI features (`#SI`; 8 in the paper).
    pub n_si: u64,
    /// Number of distinct user types observed (`#User types`).
    pub n_user_types: u64,
    /// Total enriched token occurrences (`#Tokens`).
    pub n_tokens: u64,
    /// Window positive pairs (`#Positive pairs`).
    pub n_positive_pairs: u64,
    /// Positive pairs × (1 + negatives) (`#Training pairs`).
    pub n_training_pairs: u64,
}

impl DatasetStats {
    /// Computes the Table II row for an enriched corpus, with `negatives`
    /// negatives per positive pair (the paper's production setting is 20).
    /// Reads one expanded sequence at a time, so even the largest scales
    /// need no more memory than their click log.
    pub fn compute(
        name: &str,
        corpus: &GeneratedCorpus,
        enriched: &EnrichedCorpus<'_>,
        window: usize,
        negatives: u64,
    ) -> Self {
        let mut items_seen = vec![false; enriched.space().n_items() as usize];
        let mut types_seen = vec![false; enriched.space().n_user_types() as usize];
        let mut seq = Vec::new();
        for i in 0..enriched.len() {
            enriched.sequence_into(i, &mut seq);
            for &t in &seq {
                match enriched.space().kind(t) {
                    TokenKind::Item(item) => items_seen[item.index()] = true,
                    TokenKind::UserType(ut) => types_seen[ut.index()] = true,
                    TokenKind::SideInfo(..) => {}
                }
            }
        }
        // When user types are not injected, report the registry's realized
        // count (they exist even if unused, as in the SGNS ablation rows).
        let n_user_types = if enriched.options().include_user_types {
            types_seen.iter().filter(|&&b| b).count() as u64
        } else {
            corpus.users.n_user_types() as u64
        };
        let n_positive = enriched.count_positive_pairs(window, false);
        Self {
            name: name.to_owned(),
            n_items: items_seen.iter().filter(|&&b| b).count() as u64,
            n_si: ItemFeature::COUNT as u64,
            n_user_types,
            n_tokens: enriched.total_tokens(),
            n_positive_pairs: n_positive,
            n_training_pairs: n_positive * (1 + negatives),
        }
    }
}

/// Empirical asymmetry of a corpus: the fraction of frequently-seen ordered
/// item pairs whose forward and backward transition counts differ by at least
/// `ratio`. The paper estimates ~20% of pairs differ significantly
/// (Section II-C).
pub fn asymmetry_rate(corpus: &GeneratedCorpus, min_count: u64, ratio: f64) -> f64 {
    let mut forward: HashMap<(TokenId, TokenId), u64> = HashMap::new();
    for s in corpus.sessions.iter() {
        for w in s.items.windows(2) {
            *forward
                .entry((TokenId(w[0].0), TokenId(w[1].0)))
                .or_default() += 1;
        }
    }
    let mut asymmetric = 0u64;
    let mut considered = 0u64;
    for (&(a, b), &f) in &forward {
        if a >= b {
            continue;
        }
        let r = forward.get(&(b, a)).copied().unwrap_or(0);
        if f + r >= min_count {
            considered += 1;
            let hi = f.max(r) as f64;
            let lo = f.min(r) as f64;
            if hi >= ratio * lo.max(1.0) {
                asymmetric += 1;
            }
        }
    }
    if considered == 0 {
        0.0
    } else {
        asymmetric as f64 / considered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enrich::EnrichOptions;
    use crate::generator::CorpusConfig;

    #[test]
    fn stats_shape_matches_table_ii() {
        let c = GeneratedCorpus::generate(CorpusConfig::tiny());
        let e = EnrichedCorpus::build(&c, EnrichOptions::FULL);
        let s = DatasetStats::compute("tiny", &c, &e, 5, 20);
        assert_eq!(s.n_si, 8);
        assert!(s.n_items > 0 && s.n_items <= c.config.n_items as u64);
        assert!(s.n_user_types > 0);
        // Enriched tokens ≈ 9× clicks + one user type per session.
        assert_eq!(
            s.n_tokens,
            c.sessions.total_clicks() * 9 + c.sessions.len() as u64
        );
        assert_eq!(s.n_training_pairs, s.n_positive_pairs * 21);
        // Positive pairs per token should be in the same ballpark as the
        // paper (~9 pairs per token with their window).
        let per_token = s.n_positive_pairs as f64 / s.n_tokens as f64;
        assert!((2.0..=10.0).contains(&per_token), "got {per_token}");
    }

    #[test]
    fn asymmetry_is_near_paper_estimate() {
        let c = GeneratedCorpus::generate(CorpusConfig::tiny());
        let rate = asymmetry_rate(&c, 5, 2.0);
        assert!(
            (0.1..=0.9).contains(&rate),
            "asymmetry rate {rate} out of plausible range"
        );
    }

    #[test]
    fn symmetric_corpus_has_low_asymmetry() {
        let mut cfg = CorpusConfig::tiny();
        cfg.backward_acceptance = 1.0; // disable the stage bias
        let c = GeneratedCorpus::generate(cfg);
        let asym_off = asymmetry_rate(&c, 8, 3.0);
        let c2 = GeneratedCorpus::generate(CorpusConfig::tiny());
        let asym_on = asymmetry_rate(&c2, 8, 3.0);
        assert!(
            asym_on > asym_off,
            "stage bias should raise asymmetry: {asym_on} vs {asym_off}"
        );
    }
}
