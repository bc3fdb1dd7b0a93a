//! Typed identifiers used throughout the workspace.
//!
//! All identifiers are thin `u32` newtypes: corpora at the scales we simulate
//! (up to a few million items) fit comfortably, and flat `u32` ids keep the
//! hot training loops free of hashing and pointer chasing.

use serde::{Deserialize, Serialize};

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index, for use as an array offset.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_newtype! {
    /// Identifier of an item (a commodity on Taobao).
    ItemId
}

id_newtype! {
    /// Identifier of a user.
    UserId
}

id_newtype! {
    /// Identifier of a *user type*: a fine-grained categorization of users
    /// from a combination of user metadata (Section II-B of the paper).
    UserTypeId
}

id_newtype! {
    /// Identifier of a leaf category. Leaf categories drive both session
    /// coherence and the HBGP partitioning strategy (Section III-B).
    LeafCategoryId
}

id_newtype! {
    /// Dense id of a token in the training vocabulary.
    ///
    /// A token is anything that appears in an enriched sequence (Eq. 4):
    /// an item, an SI instance such as `leaf_category_1234`, or a user type.
    TokenId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        assert_eq!(ItemId(42).index(), 42);
    }

    #[test]
    fn display_is_raw_value() {
        assert_eq!(TokenId(7).to_string(), "7");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(UserId(1) < UserId(2));
        let mut v = vec![TokenId(3), TokenId(1), TokenId(2)];
        v.sort();
        assert_eq!(v, vec![TokenId(1), TokenId(2), TokenId(3)]);
    }
}
