//! The side-information schema of Table I.
//!
//! The paper uses eight item features and two user features, all discrete.
//! In the training sequences they are encoded as `[FeatureName]_[FeatureValue]`,
//! e.g. `leaf_category_1234`. This module fixes the feature set, its encoding,
//! and the default cardinalities used by the synthetic generator (scaled-down
//! but shape-preserving relative to the production catalog).

use serde::{Deserialize, Serialize};

/// The eight item features of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ItemFeature {
    TopLevelCategory,
    LeafCategory,
    Shop,
    City,
    Brand,
    Style,
    Material,
    /// Cross feature of the demographics of the item's typical buyers.
    AgeGenderPurchaseLevel,
}

impl ItemFeature {
    /// All item features, in the fixed order used for per-item SI arrays.
    pub const ALL: [ItemFeature; 8] = [
        ItemFeature::TopLevelCategory,
        ItemFeature::LeafCategory,
        ItemFeature::Shop,
        ItemFeature::City,
        ItemFeature::Brand,
        ItemFeature::Style,
        ItemFeature::Material,
        ItemFeature::AgeGenderPurchaseLevel,
    ];

    /// Number of item features; the paper's Table II reports this as `#SI = 8`.
    pub const COUNT: usize = Self::ALL.len();

    /// Position of this feature in [`Self::ALL`].
    #[inline]
    pub fn slot(self) -> usize {
        match self {
            ItemFeature::TopLevelCategory => 0,
            ItemFeature::LeafCategory => 1,
            ItemFeature::Shop => 2,
            ItemFeature::City => 3,
            ItemFeature::Brand => 4,
            ItemFeature::Style => 5,
            ItemFeature::Material => 6,
            ItemFeature::AgeGenderPurchaseLevel => 7,
        }
    }

    /// The `FeatureName` half of the `[FeatureName]_[FeatureValue]` encoding.
    pub fn name(self) -> &'static str {
        match self {
            ItemFeature::TopLevelCategory => "top_level_category",
            ItemFeature::LeafCategory => "leaf_category",
            ItemFeature::Shop => "shop",
            ItemFeature::City => "city",
            ItemFeature::Brand => "brand",
            ItemFeature::Style => "style",
            ItemFeature::Material => "material",
            ItemFeature::AgeGenderPurchaseLevel => "age_gender_purchase_level",
        }
    }

    /// Encodes a feature value the way it appears in training sequences.
    pub fn encode(self, value: u32) -> String {
        format!("{}_{}", self.name(), value)
    }
}

/// Gender values used in user-type strings. `Null` models users who have not
/// provided a gender — the paper notes "Gender" takes three values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Gender {
    Female,
    Male,
    Null,
}

impl Gender {
    /// All gender values.
    pub const ALL: [Gender; 3] = [Gender::Female, Gender::Male, Gender::Null];

    /// Short code used in user-type strings (`F`, `M`, `N`).
    pub fn code(self) -> &'static str {
        match self {
            Gender::Female => "F",
            Gender::Male => "M",
            Gender::Null => "N",
        }
    }
}

/// Age buckets used in user-type strings (e.g. `19-25`).
pub const AGE_BUCKETS: [&str; 7] = ["0-18", "19-25", "26-30", "31-35", "36-45", "46-60", "61+"];

/// Purchase-power levels, used in the `age_gender_purchase_level` item cross
/// feature and in the cold-start case study of Figure 4.
pub const PURCHASE_LEVELS: usize = 3;

/// Cardinalities of the discrete value spaces of each item feature, used by
/// the synthetic generator. Scaled down from production but preserving the
/// ordering of magnitudes (shops ≫ brands ≫ leaf categories ≫ top-level
/// categories ≫ styles/materials/cities).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemaCardinalities {
    /// Number of top-level categories.
    pub top_level_categories: u32,
    /// Number of leaf categories (each belongs to one top-level category).
    pub leaf_categories: u32,
    /// Number of shops (each belongs to one city).
    pub shops: u32,
    /// Number of cities.
    pub cities: u32,
    /// Number of brands.
    pub brands: u32,
    /// Number of styles.
    pub styles: u32,
    /// Number of materials.
    pub materials: u32,
}

impl SchemaCardinalities {
    /// Cardinalities scaled for a corpus of roughly `items` items, keeping the
    /// per-feature ratios constant: ~40 items per leaf category, ~12 items per
    /// shop, ~80 per brand, and fixed small value spaces for the rest.
    pub fn for_items(items: u32) -> Self {
        let at_least = |n: u32, floor: u32| n.max(floor);
        Self {
            top_level_categories: at_least(items / 2_000, 8).min(120),
            leaf_categories: at_least(items / 40, 16),
            shops: at_least(items / 12, 32),
            cities: at_least(items / 5_000, 10).min(300),
            brands: at_least(items / 80, 16),
            styles: 40,
            materials: 25,
        }
    }

    /// Value-space size of `feature` under these cardinalities.
    pub fn cardinality(&self, feature: ItemFeature) -> u32 {
        match feature {
            ItemFeature::TopLevelCategory => self.top_level_categories,
            ItemFeature::LeafCategory => self.leaf_categories,
            ItemFeature::Shop => self.shops,
            ItemFeature::City => self.cities,
            ItemFeature::Brand => self.brands,
            ItemFeature::Style => self.styles,
            ItemFeature::Material => self.materials,
            ItemFeature::AgeGenderPurchaseLevel => {
                (Gender::ALL.len() * AGE_BUCKETS.len() * PURCHASE_LEVELS) as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_item_features_as_in_table_ii() {
        assert_eq!(ItemFeature::COUNT, 8);
    }

    #[test]
    fn slots_match_all_order() {
        for (i, f) in ItemFeature::ALL.iter().enumerate() {
            assert_eq!(f.slot(), i);
        }
    }

    #[test]
    fn encoding_matches_paper_example() {
        assert_eq!(ItemFeature::LeafCategory.encode(1234), "leaf_category_1234");
    }

    #[test]
    fn gender_has_three_values() {
        assert_eq!(Gender::ALL.len(), 3);
        assert_eq!(Gender::Female.code(), "F");
    }

    #[test]
    fn cardinalities_scale_with_items() {
        let small = SchemaCardinalities::for_items(10_000);
        let large = SchemaCardinalities::for_items(1_000_000);
        assert!(large.leaf_categories > small.leaf_categories);
        assert!(large.shops > large.brands);
        assert!(large.brands > large.top_level_categories);
        for f in ItemFeature::ALL {
            assert!(small.cardinality(f) > 0, "{f:?} must be non-empty");
        }
    }

    #[test]
    fn age_gender_purchase_cross_cardinality() {
        let c = SchemaCardinalities::for_items(1000);
        assert_eq!(
            c.cardinality(ItemFeature::AgeGenderPurchaseLevel),
            (3 * 7 * 3) as u32
        );
    }
}
