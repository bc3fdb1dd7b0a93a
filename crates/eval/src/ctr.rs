//! The online A/B test simulation behind Figure 3.
//!
//! The paper measures homepage CTR of SISG-F-U-D candidates vs well-tuned
//! CF candidates over eight days, with the *same* DNN ranking both arms. We
//! reproduce the experiment's structure:
//!
//! 1. an **impression** samples a real (user, clicked-item) context from
//!    the corpus;
//! 2. each arm's matching model supplies a candidate set for that context;
//! 3. a shared **ranker** (the DNN stand-in: the true click propensity
//!    perturbed by log-normal noise) orders the candidates and the top
//!    `slate_size` are shown;
//! 4. the user clicks each shown item according to a **click model** with
//!    position bias.
//!
//! The click model mirrors the ground-truth affinity structure the corpus
//! generator used (category coherence, forward funnel stage, SI overlap,
//! demographic match), so a matching model that captured that structure
//! earns a genuinely higher CTR — which is exactly the paper's claim about
//! why SISG beats CF.

use crate::hitrate::ItemRetriever;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sisg_corpus::schema::ItemFeature;
use sisg_corpus::{GeneratedCorpus, ItemId, UserId};

/// A named matching-stage arm of the A/B test.
pub struct CandidateSource<'a> {
    /// Arm label (e.g. `SISG-F-U-D`, `CF`).
    pub name: String,
    /// The matching model.
    pub retriever: &'a dyn ItemRetriever,
}

/// Parameters of the simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CtrConfig {
    /// Simulated days (paper: 8).
    pub days: usize,
    /// Impressions per day per arm.
    pub impressions_per_day: usize,
    /// Candidate-set size requested from the matching stage.
    pub candidates: usize,
    /// Items shown per impression after ranking.
    pub slate_size: usize,
    /// Log-normal σ of the ranker's estimation noise (0 = oracle ranker).
    pub ranker_noise: f64,
    /// Seed; each day derives its own stream (hence the day-to-day wiggle).
    pub seed: u64,
}

impl Default for CtrConfig {
    fn default() -> Self {
        Self {
            days: 8,
            impressions_per_day: 2_000,
            // At Taobao, matching reduces ~1e9 items to ~1e3 candidates —
            // a 1e-6 selection the ranker cannot undo — and the homepage
            // feed eventually exposes the whole candidate set. Showing the
            // full set (ranker decides *position*, position bias decides
            // attention) preserves that regime at simulation scale:
            // candidate quality, not ranker filtering, decides CTR.
            candidates: 10,
            slate_size: 10,
            ranker_noise: 1.0,
            seed: 42,
        }
    }
}

/// Daily CTR of one arm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CtrSeries {
    /// Arm label.
    pub method: String,
    /// CTR per day.
    pub daily_ctr: Vec<f64>,
}

impl CtrSeries {
    /// Mean CTR over all days.
    pub fn mean(&self) -> f64 {
        if self.daily_ctr.is_empty() {
            return 0.0;
        }
        self.daily_ctr.iter().sum::<f64>() / self.daily_ctr.len() as f64
    }
}

/// The ground-truth click propensity of `user` clicking `candidate` after
/// `context`. Scores are in `(0, 0.5]`.
pub fn click_propensity(
    corpus: &GeneratedCorpus,
    popularity: &[u64],
    user: UserId,
    context: ItemId,
    candidate: ItemId,
) -> f64 {
    if candidate == context {
        return 0.0;
    }
    let cat = &corpus.catalog;
    let mut p = 0.02f64;
    let (lc, lk) = (cat.leaf_category(context), cat.leaf_category(candidate));
    if lc == lk {
        p *= 4.0;
    } else if cat.top_level_of(lc) == cat.top_level_of(lk) {
        p *= 2.0;
    }
    // Funnel direction: users keep moving forward through stages. The 4x
    // forward/backward ratio matches the generator's backward_acceptance of
    // 0.25 — this is the asymmetry of Section II-C, which symmetric models
    // (CF, non-directional SISG) cannot target.
    if cat.is_forward(context, candidate) {
        p *= 1.5;
    } else {
        p *= 0.25;
    }
    // SI affinity beyond the category match itself.
    let extra = cat.si_overlap(context, candidate).saturating_sub(2);
    p *= 1.0 + 0.25 * extra as f64;
    // Demographic match.
    let demo_slot = ItemFeature::AgeGenderPurchaseLevel.slot();
    let user_demo = corpus
        .users
        .demographics_cross(corpus.users.user_type(user));
    if cat.si_values(candidate)[demo_slot] == user_demo {
        p *= 1.3;
    }
    // Mild popularity prior (empirical, like a production pCTR feature).
    let max_pop = popularity.iter().copied().max().unwrap_or(1).max(1);
    let rel = popularity[candidate.index()] as f64 / max_pop as f64;
    p *= 1.0 + 0.5 * rel.powf(0.3);
    p.min(0.5)
}

/// Runs the A/B test and returns one [`CtrSeries`] per arm, in input order.
pub fn simulate_ab_test(
    corpus: &GeneratedCorpus,
    sources: &[CandidateSource<'_>],
    config: &CtrConfig,
) -> Vec<CtrSeries> {
    assert!(config.slate_size <= config.candidates);
    // Empirical popularity for the click model's prior.
    let popularity = corpus.sessions.item_clicks(corpus.config.n_items);

    let mut out: Vec<CtrSeries> = sources
        .iter()
        .map(|s| CtrSeries {
            method: s.name.clone(),
            daily_ctr: Vec::with_capacity(config.days),
        })
        .collect();

    for day in 0..config.days {
        // One impression stream per day, shared by all arms (paired design —
        // both arms see the same users/contexts, as bucketed A/B tests do).
        let mut day_rng = StdRng::seed_from_u64(config.seed ^ (day as u64 + 1).wrapping_mul(0xC7));
        let impressions: Vec<(UserId, ItemId)> = (0..config.impressions_per_day)
            .map(|_| sample_context(corpus, &mut day_rng))
            .collect();

        for (arm, source) in sources.iter().enumerate() {
            let mut arm_rng = StdRng::seed_from_u64(
                config.seed ^ (day as u64 + 1).wrapping_mul(0x1F3) ^ (arm as u64) << 32,
            );
            let mut shown = 0u64;
            let mut clicks = 0u64;
            for &(user, context) in &impressions {
                let candidates = source.retriever.retrieve(context, config.candidates);
                if candidates.is_empty() {
                    continue;
                }
                // Shared ranker: true propensity × log-normal noise.
                let mut ranked: Vec<(ItemId, f64)> = candidates
                    .iter()
                    .map(|&c| {
                        let true_p = click_propensity(corpus, &popularity, user, context, c);
                        let noise = (arm_rng.gen::<f64>() - 0.5) * 2.0 * config.ranker_noise;
                        (c, true_p * noise.exp())
                    })
                    .collect();
                ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                for (pos, &(item, _)) in ranked.iter().take(config.slate_size).enumerate() {
                    shown += 1;
                    let p = click_propensity(corpus, &popularity, user, context, item)
                        / (2.0 + pos as f64).log2();
                    if arm_rng.gen::<f64>() < p {
                        clicks += 1;
                    }
                }
            }
            out[arm].daily_ctr.push(if shown > 0 {
                clicks as f64 / shown as f64
            } else {
                0.0
            });
        }
    }
    out
}

/// Samples a realistic impression context: a random position in a random
/// session.
fn sample_context(corpus: &GeneratedCorpus, rng: &mut StdRng) -> (UserId, ItemId) {
    loop {
        let s = corpus
            .sessions
            .session(rng.gen_range(0..corpus.sessions.len()));
        if !s.is_empty() {
            let pos = rng.gen_range(0..s.len());
            return (s.user, s.items[pos]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::CorpusConfig;

    /// Oracle arm: retrieves by true propensity (upper bound).
    struct Oracle<'a> {
        corpus: &'a GeneratedCorpus,
        popularity: Vec<u64>,
    }
    impl ItemRetriever for Oracle<'_> {
        fn retrieve(&self, query: ItemId, k: usize) -> Vec<ItemId> {
            let user = UserId(0);
            let mut scored: Vec<(ItemId, f64)> = (0..self.corpus.config.n_items)
                .map(ItemId)
                .filter(|&i| i != query)
                .map(|i| {
                    (
                        i,
                        click_propensity(self.corpus, &self.popularity, user, query, i),
                    )
                })
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            scored.truncate(k);
            scored.into_iter().map(|(i, _)| i).collect()
        }
    }

    /// Random arm: retrieves arbitrary items (lower bound).
    struct Random;
    impl ItemRetriever for Random {
        fn retrieve(&self, query: ItemId, k: usize) -> Vec<ItemId> {
            (0..k as u32)
                .map(|i| ItemId(i * 7 % 400))
                .filter(|&i| i != query)
                .collect()
        }
    }

    fn corpus() -> GeneratedCorpus {
        GeneratedCorpus::generate(CorpusConfig::tiny())
    }

    #[test]
    fn oracle_beats_random() {
        let c = corpus();
        let oracle = Oracle {
            corpus: &c,
            popularity: c.sessions.item_clicks(c.config.n_items),
        };
        let sources = [
            CandidateSource {
                name: "oracle".into(),
                retriever: &oracle,
            },
            CandidateSource {
                name: "random".into(),
                retriever: &Random,
            },
        ];
        let cfg = CtrConfig {
            days: 3,
            impressions_per_day: 300,
            ..Default::default()
        };
        let series = simulate_ab_test(&c, &sources, &cfg);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].daily_ctr.len(), 3);
        assert!(
            series[0].mean() > series[1].mean() * 1.2,
            "oracle {} must beat random {}",
            series[0].mean(),
            series[1].mean()
        );
    }

    #[test]
    fn propensity_prefers_same_category_and_forward_stage() {
        let c = corpus();
        let pop = vec![1u64; c.config.n_items as usize];
        let ctx = ItemId(0);
        let same_cat = (0..c.config.n_items)
            .map(ItemId)
            .find(|&i| i != ctx && c.catalog.leaf_category(i) == c.catalog.leaf_category(ctx))
            .unwrap();
        let cross_top = (0..c.config.n_items)
            .map(ItemId)
            .find(|&i| {
                c.catalog.top_level_of(c.catalog.leaf_category(i))
                    != c.catalog.top_level_of(c.catalog.leaf_category(ctx))
            })
            .unwrap();
        let p_same = click_propensity(&c, &pop, UserId(0), ctx, same_cat);
        let p_cross = click_propensity(&c, &pop, UserId(0), ctx, cross_top);
        assert!(p_same > p_cross, "{p_same} vs {p_cross}");
        assert_eq!(click_propensity(&c, &pop, UserId(0), ctx, ctx), 0.0);
    }

    #[test]
    fn propensity_is_bounded() {
        let c = corpus();
        let pop = vec![1_000u64; c.config.n_items as usize];
        for a in 0..50u32 {
            for b in 0..50u32 {
                let p = click_propensity(&c, &pop, UserId(1), ItemId(a), ItemId(b));
                assert!((0.0..=0.5).contains(&p));
            }
        }
    }
}
