//! The high-level matching-stage API.
//!
//! A [`Recommender`] bundles a trained [`SisgModel`] with the catalogs it
//! was trained against and answers the three production queries the paper
//! describes: similar items for a clicked item (the matching stage proper),
//! cold-item candidates (Eq. 6), and cold-user candidates (Figure 4).

use crate::cold_start;
use crate::error::CoreError;
use crate::model::{SisgModel, SisgTrainReport};
use crate::variants::Variant;
use sisg_corpus::schema::ItemFeature;
use sisg_corpus::{GeneratedCorpus, ItemCatalog, ItemId, UserRegistry};
use sisg_embedding::Neighbor;
use sisg_sgns::SgnsConfig;

/// One recommended item with its similarity score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// The recommended item.
    pub item: ItemId,
    /// Similarity under the model's retrieval rule.
    pub score: f32,
}

/// Item retrieval scores rows `0..n_items` of the joint space, where a
/// token id *is* the item id.
impl From<Neighbor> for Recommendation {
    fn from(n: Neighbor) -> Self {
        Self {
            item: ItemId(n.token.0),
            score: n.score,
        }
    }
}

fn recommendations(neighbors: Vec<Neighbor>) -> Vec<Recommendation> {
    neighbors.into_iter().map(Recommendation::from).collect()
}

/// The matching-stage recommender.
pub struct Recommender {
    model: SisgModel,
    catalog: ItemCatalog,
    users: UserRegistry,
    report: SisgTrainReport,
}

impl Recommender {
    /// Trains `variant` on `corpus` and wraps the result. Fails on
    /// degenerate hyper-parameters.
    pub fn train(
        corpus: &GeneratedCorpus,
        variant: Variant,
        sgns: &SgnsConfig,
    ) -> Result<Self, CoreError> {
        let (model, report) = SisgModel::train(corpus, variant, sgns)?;
        Ok(Self {
            model,
            catalog: corpus.catalog.clone(),
            users: corpus.users.clone(),
            report,
        })
    }

    /// The underlying model.
    pub fn model(&self) -> &SisgModel {
        &self.model
    }

    /// The training report.
    pub fn report(&self) -> &SisgTrainReport {
        &self.report
    }

    /// Candidate set for a clicked item — the core matching-stage query.
    pub fn similar_items(&self, clicked: ItemId, k: usize) -> Vec<Recommendation> {
        recommendations(self.model.similar_items(clicked, k))
    }

    /// Candidates for a brand-new item known only by its SI values. Fails
    /// on an SI value outside the trained feature cardinality.
    pub fn recommend_for_cold_item(
        &self,
        si_values: &[u32; ItemFeature::COUNT],
        k: usize,
    ) -> Result<Vec<Recommendation>, CoreError> {
        cold_start::cold_item_recommendations(&self.model, si_values, k).map(recommendations)
    }

    /// Candidates for a user with no history, from demographics alone.
    /// Fails with [`CoreError::NoMatchingUserType`] when no realized user
    /// type matches.
    pub fn recommend_for_cold_user(
        &self,
        gender: Option<u8>,
        age: Option<u8>,
        purchase: Option<u8>,
        k: usize,
    ) -> Result<Vec<Recommendation>, CoreError> {
        cold_start::cold_user_recommendations(&self.model, &self.users, gender, age, purchase, k)
            .map(recommendations)
    }

    /// The item catalog the recommender serves.
    pub fn catalog(&self) -> &ItemCatalog {
        &self.catalog
    }

    /// The user registry the recommender serves.
    pub fn users(&self) -> &UserRegistry {
        &self.users
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::CorpusConfig;

    fn recommender() -> Recommender {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let cfg = SgnsConfig {
            dim: 16,
            window: 4,
            negatives: 5,
            epochs: 1,
            ..Default::default()
        };
        Recommender::train(&corpus, Variant::SisgFUD, &cfg).expect("train")
    }

    #[test]
    fn similar_items_returns_k_scored_results() {
        let r = recommender();
        let recs = r.similar_items(ItemId(1), 7);
        assert_eq!(recs.len(), 7);
        assert!(recs.iter().all(|rec| rec.item != ItemId(1)));
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn cold_user_path_works_end_to_end() {
        let r = recommender();
        let recs = r
            .recommend_for_cold_user(Some(0), Some(1), None, 5)
            .expect("matching user type");
        assert_eq!(recs.len(), 5);
    }

    #[test]
    fn cold_item_path_works_end_to_end() {
        let r = recommender();
        let si = *r.catalog().si_values(ItemId(2));
        let recs = r.recommend_for_cold_item(&si, 5).expect("valid SI");
        assert_eq!(recs.len(), 5);
    }
}
