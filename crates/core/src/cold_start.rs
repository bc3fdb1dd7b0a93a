//! Cold-start inference — Section IV-C of the paper.
//!
//! *Cold items* (Eq. 6): a new item with no interactions gets the vector
//! `v = Σ_k SI_k(v)`, the sum of the input vectors of its SI values.
//!
//! *Cold users* (Figure 4): a user with no history but known demographics
//! gets the average of all user-type vectors matching those demographics.
//!
//! This module builds those query vectors only. Turning one into an answer
//! (fetch the nearest items, drop the query item, keep `k`) is
//! [`MatchingService`](crate::MatchingService)'s one answer rule.
//!
//! Every builder validates its token references against the model's
//! [`TokenSpace`](sisg_corpus::vocab::TokenSpace) and returns a typed
//! [`CoreError`] for out-of-range SI values or unmatched demographics, so
//! the serving layer can turn a malformed request into a client error
//! instead of a panic.

use crate::error::CoreError;
use crate::model::SisgModel;
use sisg_corpus::schema::ItemFeature;
use sisg_corpus::{UserRegistry, UserTypeId};
use sisg_embedding::math::{add_assign, scale};

/// How the SI token vectors of a cold item are aggregated into its
/// inferred embedding.
///
/// The paper's SISG formulation (Eq. 6) is a plain sum. EGES (Wang et
/// al., "Billion-scale Commodity Embedding for E-commerce Recommendation
/// in Alibaba") instead learns per-item attention over the SI slots and
/// aggregates with a weighted average, on the observation that features
/// contribute unequally — a brand says more about a flagship phone than
/// its shipping bucket does. SISG has no learned attention, so
/// [`SiAggregation::Weighted`] uses the training signal the model *does*
/// carry: each SI token's input-vector norm. Tokens that absorbed more
/// gradient (frequent, discriminative features) grow longer vectors, so
/// norm-proportional weights are a training-derived stand-in for the
/// EGES attention — and dot-product ranking is invariant to positive
/// scaling of the query, so the weighted *average* ranks directly
/// against the item matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SiAggregation {
    /// Plain SISG sum of the SI token vectors (Eq. 6 verbatim).
    #[default]
    Sum,
    /// EGES-style weighted average, each SI token weighted by its
    /// input-vector norm (see the type-level docs for why norms stand in
    /// for the learned EGES attention).
    Weighted,
}

/// The inferred cold-item embedding under an explicit [`SiAggregation`]
/// mode — the per-tenant SI-weighting knob of the serving tier.
pub fn cold_item_vector_with(
    model: &SisgModel,
    si_values: &[u32; ItemFeature::COUNT],
    aggregation: SiAggregation,
) -> Result<Vec<f32>, CoreError> {
    let mut v = vec![0.0f32; model.store().dim()];
    let mut norm_sum = 0.0f32;
    for feature in ItemFeature::ALL {
        let value = si_values[feature.slot()];
        let token =
            model
                .space()
                .try_side_info(feature, value)
                .ok_or(CoreError::SiValueOutOfRange {
                    feature,
                    value,
                    cardinality: model.space().si_cardinality(feature),
                })?;
        let row = model.token_input(token);
        match aggregation {
            SiAggregation::Sum => add_assign(&mut v, row),
            SiAggregation::Weighted => {
                let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
                norm_sum += norm;
                for (acc, &x) in v.iter_mut().zip(row) {
                    *acc += norm * x;
                }
            }
        }
    }
    if aggregation == SiAggregation::Weighted && norm_sum > 0.0 {
        scale(&mut v, 1.0 / norm_sum);
    }
    Ok(v)
}

/// The averaged user-type vector for a demographic group. Fails with
/// [`CoreError::NoMatchingUserType`] when no realized user type matches.
pub fn cold_user_vector(
    model: &SisgModel,
    users: &UserRegistry,
    gender: Option<u8>,
    age: Option<u8>,
    purchase: Option<u8>,
) -> Result<Vec<f32>, CoreError> {
    let types = users.types_matching(gender, age, purchase);
    average_user_types(model, &types)
}

/// The average of specific user-type input vectors. Fails on an empty type
/// set ([`CoreError::NoMatchingUserType`]) and on a type id outside the
/// trained registry ([`CoreError::UnknownUserType`]).
pub fn average_user_types(model: &SisgModel, types: &[UserTypeId]) -> Result<Vec<f32>, CoreError> {
    if types.is_empty() {
        return Err(CoreError::NoMatchingUserType);
    }
    let mut v = vec![0.0f32; model.store().dim()];
    for &ut in types {
        let token = model
            .space()
            .try_user_type(ut)
            .ok_or(CoreError::UnknownUserType(ut))?;
        add_assign(&mut v, model.token_input(token));
    }
    scale(&mut v, 1.0 / types.len() as f32);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;
    use sisg_corpus::{CorpusConfig, GeneratedCorpus, ItemId};
    use sisg_sgns::SgnsConfig;

    fn trained() -> (GeneratedCorpus, SisgModel) {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let cfg = SgnsConfig {
            dim: 16,
            window: 4,
            negatives: 5,
            epochs: 2,
            ..Default::default()
        };
        let (model, _) = SisgModel::train(&corpus, Variant::SisgFU, &cfg).expect("train");
        (corpus, model)
    }

    #[test]
    fn weighted_aggregation_is_a_norm_weighted_average_of_the_sum_terms() {
        let (corpus, model) = trained();
        let si = *corpus.catalog.si_values(ItemId(3));
        let sum = cold_item_vector_with(&model, &si, SiAggregation::Sum).expect("sum");
        let weighted =
            cold_item_vector_with(&model, &si, SiAggregation::Weighted).expect("weighted");
        assert_eq!(
            SiAggregation::default(),
            SiAggregation::Sum,
            "Sum must be the Eq. 6 default"
        );
        // Reference computation: norm-weighted average over the SI rows.
        let mut expected = vec![0.0f32; model.store().dim()];
        let mut norm_sum = 0.0f32;
        for feature in ItemFeature::ALL {
            let token = model
                .space()
                .try_side_info(feature, si[feature.slot()])
                .expect("trained SI");
            let row = model.token_input(token);
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            norm_sum += norm;
            for (e, &x) in expected.iter_mut().zip(row) {
                *e += norm * x;
            }
        }
        // Multiply by the reciprocal, exactly as `scale` does — dividing
        // here would round differently and fail the bit-exact compare.
        let inv = 1.0 / norm_sum;
        for e in &mut expected {
            *e *= inv;
        }
        assert_eq!(weighted, expected, "weighted path must match the reference");
        assert_ne!(
            sum, weighted,
            "the two aggregation modes must actually differ on trained vectors"
        );
    }

    #[test]
    fn weighted_aggregation_reranks_relative_to_sum() {
        // The quality knob is real only if the two modes can produce
        // different candidate rankings somewhere in the catalog.
        let (corpus, model) = trained();
        let diverged = (0..corpus.config.n_items).map(ItemId).any(|item| {
            let si = *corpus.catalog.si_values(item);
            let a = cold_item_vector_with(&model, &si, SiAggregation::Sum).expect("sum");
            let b = cold_item_vector_with(&model, &si, SiAggregation::Weighted).expect("weighted");
            let rank = |v: &[f32]| {
                model
                    .similar_items_to_vector(v, 10)
                    .into_iter()
                    .map(|n| n.token.0)
                    .collect::<Vec<_>>()
            };
            rank(&a) != rank(&b)
        });
        assert!(
            diverged,
            "Sum and Weighted produced identical top-10 lists for every item"
        );
    }

    #[test]
    fn out_of_range_si_value_is_a_typed_error() {
        let (corpus, model) = trained();
        let mut si = *corpus.catalog.si_values(ItemId(0));
        si[ItemFeature::Brand.slot()] = u32::MAX;
        let err = cold_item_vector_with(&model, &si, SiAggregation::Sum).unwrap_err();
        assert!(matches!(
            err,
            CoreError::SiValueOutOfRange {
                feature: ItemFeature::Brand,
                value: u32::MAX,
                ..
            }
        ));
    }

    #[test]
    fn cold_user_vector_requires_matching_types() {
        let (corpus, model) = trained();
        assert!(cold_user_vector(&model, &corpus.users, Some(0), None, None).is_ok());
        // Gender index 9 does not exist.
        assert_eq!(
            cold_user_vector(&model, &corpus.users, Some(9), None, None).unwrap_err(),
            CoreError::NoMatchingUserType
        );
    }

    #[test]
    fn averaging_single_type_is_identity() {
        let (corpus, model) = trained();
        let ut = corpus.users.user_type(sisg_corpus::UserId(0));
        let avg = average_user_types(&model, &[ut]).expect("known type");
        assert_eq!(avg, model.token_input(model.space().user_type(ut)).to_vec());
    }

    #[test]
    fn unknown_user_type_is_a_typed_error() {
        let (_, model) = trained();
        let bogus = UserTypeId(u32::MAX);
        assert_eq!(
            average_user_types(&model, &[bogus]).unwrap_err(),
            CoreError::UnknownUserType(bogus)
        );
    }
}
