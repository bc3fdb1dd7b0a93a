//! Users, demographics, and *user types*.
//!
//! A user type (Section II-B) is a fine-grained categorization of users from
//! a combination of user metadata, rendered as
//! `[gender]_[age]_[t1]_[t2]_…` — e.g. `F_19-25_t3_t7`. The number of tags
//! per type varies. The registry interns every realized combination, so the
//! number of user types grows with the user population exactly as in
//! Table II (hundreds of thousands of types for hundreds of millions of
//! items; proportionally fewer here).

use crate::catalog::ItemCatalog;
use crate::schema::{Gender, AGE_BUCKETS, PURCHASE_LEVELS};
use crate::token::{UserId, UserTypeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Maximum number of distinct behavioral tags the generator can assign.
const MAX_TAG_KINDS: usize = 16;

/// The interned key of a user type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserTypeKey {
    /// Gender index into [`Gender::ALL`].
    pub gender: u8,
    /// Age-bucket index into [`AGE_BUCKETS`].
    pub age: u8,
    /// Purchase-power level, `0..PURCHASE_LEVELS`.
    pub purchase: u8,
    /// Bitmask over tag kinds.
    pub tags: u16,
}

impl UserTypeKey {
    /// Renders the paper's user-type string, e.g. `F_19-25_t3_t7`.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}_{}",
            Gender::ALL[self.gender as usize].code(),
            AGE_BUCKETS[self.age as usize]
        );
        s.push_str(&format!("_p{}", self.purchase));
        for t in 0..MAX_TAG_KINDS {
            if self.tags & (1 << t) != 0 {
                s.push_str(&format!("_t{t}"));
            }
        }
        s
    }
}

/// All users with their demographics and interned user types.
#[derive(Debug, Clone)]
pub struct UserRegistry {
    user_type: Vec<UserTypeId>,
    type_keys: Vec<UserTypeKey>,
}

impl UserRegistry {
    /// Generates `n_users` users with correlated demographics and tags.
    ///
    /// `tag_kinds` bounds the tag universe (at most `MAX_TAG_KINDS`). Tags are
    /// drawn with per-(gender, age) propensities so that user types cluster
    /// demographically — this is what makes the Figure 5 t-SNE structure
    /// (gender/age regions) reproducible.
    pub fn generate(n_users: u32, tag_kinds: usize, seed: u64) -> Self {
        assert!(tag_kinds <= MAX_TAG_KINDS, "too many tag kinds");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x05E2_7E61);

        // Per-(gender, age) tag propensities.
        let mut propensity = [[0.0f64; MAX_TAG_KINDS]; 21];
        for (cell, row) in propensity.iter_mut().enumerate() {
            let mut cell_rng = StdRng::seed_from_u64(seed ^ (cell as u64).wrapping_mul(0x9E37));
            for p in row.iter_mut().take(tag_kinds) {
                *p = if cell_rng.gen_bool(0.3) {
                    cell_rng.gen_range(0.3..0.8)
                } else {
                    cell_rng.gen_range(0.0..0.08)
                };
            }
        }

        let mut user_type = Vec::with_capacity(n_users as usize);
        let mut type_keys: Vec<UserTypeKey> = Vec::new();
        let mut type_index: HashMap<UserTypeKey, UserTypeId> = HashMap::new();
        for _ in 0..n_users {
            let gender: u8 = {
                let u: f64 = rng.gen();
                if u < 0.52 {
                    0 // female
                } else if u < 0.95 {
                    1 // male
                } else {
                    2 // null
                }
            };
            let age: u8 = {
                // Younger buckets dominate an e-commerce app.
                let weights = [0.06, 0.28, 0.24, 0.16, 0.14, 0.09, 0.03];
                let mut u: f64 = rng.gen();
                let mut chosen = weights.len() - 1;
                for (i, w) in weights.iter().enumerate() {
                    if u < *w {
                        chosen = i;
                        break;
                    }
                    u -= w;
                }
                chosen as u8
            };
            let purchase: u8 = rng.gen_range(0..PURCHASE_LEVELS) as u8;
            let cell = (gender as usize) * AGE_BUCKETS.len() + age as usize;
            let mut tags = 0u16;
            for (t, p) in propensity[cell].iter().enumerate().take(tag_kinds) {
                if rng.gen_bool(*p) {
                    tags |= 1 << t;
                }
            }
            let key = UserTypeKey {
                gender,
                age,
                purchase,
                tags,
            };
            let ut = *type_index.entry(key).or_insert_with(|| {
                let id = UserTypeId(type_keys.len() as u32);
                type_keys.push(key);
                id
            });
            user_type.push(ut);
        }

        Self {
            user_type,
            type_keys,
        }
    }

    /// Number of users.
    #[inline]
    pub fn n_users(&self) -> u32 {
        self.user_type.len() as u32
    }

    /// Number of distinct realized user types (the `#User types` column of
    /// Table II).
    #[inline]
    pub fn n_user_types(&self) -> u32 {
        self.type_keys.len() as u32
    }

    /// The user type of `user`.
    #[inline]
    pub fn user_type(&self, user: UserId) -> UserTypeId {
        self.user_type[user.index()]
    }

    /// The interned key of a user type.
    #[inline]
    pub fn type_key(&self, ut: UserTypeId) -> &UserTypeKey {
        &self.type_keys[ut.index()]
    }

    /// The paper-format string of a user type.
    pub fn type_string(&self, ut: UserTypeId) -> String {
        self.type_keys[ut.index()].render()
    }

    /// All user types matching a partial demographic query — used for the
    /// cold-start user recommendation of Figure 4 ("average all user type
    /// vectors which belong to a user type containing `female` and
    /// `age 21-25`").
    pub fn types_matching(
        &self,
        gender: Option<u8>,
        age: Option<u8>,
        purchase: Option<u8>,
    ) -> Vec<UserTypeId> {
        self.type_keys
            .iter()
            .enumerate()
            .filter(|(_, k)| {
                gender.is_none_or(|g| k.gender == g)
                    && age.is_none_or(|a| k.age == a)
                    && purchase.is_none_or(|p| k.purchase == p)
            })
            .map(|(i, _)| UserTypeId(i as u32))
            .collect()
    }

    /// The demographics cross-feature value (as used by the item catalog's
    /// `age_gender_purchase_level`) of a user type.
    pub fn demographics_cross(&self, ut: UserTypeId) -> u32 {
        let k = self.type_key(ut);
        ItemCatalog::encode_demographics(k.gender as usize, k.age as usize, k.purchase as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_are_interned() {
        let r = UserRegistry::generate(5_000, 10, 42);
        assert!(r.n_user_types() > 50, "expected many realized types");
        assert!(r.n_user_types() <= 5_000);
        // One id per key.
        let keys: std::collections::HashSet<UserTypeKey> = (0..r.n_user_types())
            .map(|t| *r.type_key(UserTypeId(t)))
            .collect();
        assert_eq!(keys.len(), r.n_user_types() as usize);
    }

    #[test]
    fn render_matches_paper_format() {
        let key = UserTypeKey {
            gender: 0,
            age: 1,
            purchase: 2,
            tags: 0b101,
        };
        assert_eq!(key.render(), "F_19-25_p2_t0_t2");
    }

    #[test]
    fn matching_filters_correctly() {
        let r = UserRegistry::generate(5_000, 10, 42);
        let females = r.types_matching(Some(0), None, None);
        assert!(!females.is_empty());
        for ut in &females {
            assert_eq!(r.type_key(*ut).gender, 0);
        }
        let all = r.types_matching(None, None, None);
        assert_eq!(all.len() as u32, r.n_user_types());
    }

    #[test]
    fn deterministic_generation() {
        let a = UserRegistry::generate(1_000, 8, 9);
        let b = UserRegistry::generate(1_000, 8, 9);
        assert_eq!(a.n_user_types(), b.n_user_types());
        for u in 0..1_000 {
            assert_eq!(a.user_type(UserId(u)), b.user_type(UserId(u)));
        }
    }

    #[test]
    fn demographics_cross_roundtrips_through_catalog_encoding() {
        use crate::catalog::ItemCatalog;
        let r = UserRegistry::generate(500, 8, 3);
        for u in 0..100u32 {
            let ut = r.user_type(UserId(u));
            let key = r.type_key(ut);
            let cross = r.demographics_cross(ut);
            let (g, a, p) = ItemCatalog::decode_demographics(cross);
            assert_eq!(g as u8, key.gender);
            assert_eq!(a as u8, key.age);
            assert_eq!(p as u8, key.purchase);
        }
    }

    #[test]
    fn gender_distribution_is_plausible() {
        let r = UserRegistry::generate(20_000, 10, 7);
        let mut counts = [0u32; 3];
        for u in 0..r.n_users() {
            counts[r.type_key(r.user_type(UserId(u))).gender as usize] += 1;
        }
        assert!(counts[0] > counts[1], "females should outnumber males");
        assert!(counts[2] < counts[1] / 2, "null gender should be rare");
    }
}
