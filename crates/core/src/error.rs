//! The typed error surface of the SISG core.
//!
//! Every fallible public path of this crate — model construction, the
//! matching-stage artifact, and the two cold-start fallbacks — returns
//! [`CoreError`] instead of asserting. The serving layer must never be
//! able to panic out from under a request (clippy's `unwrap_used` and
//! `expect_used` and `xtask lint`'s `no-assert` ban `unwrap`/`expect`/
//! `assert!` in this crate's non-test code), so invalid
//! configurations are rejected at build time and malformed queries come
//! back as values the caller can route, count, and degrade on.

use sisg_corpus::schema::ItemFeature;
use sisg_corpus::{ItemId, UserId, UserTypeId};

/// Errors raised by model construction and the serving paths.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration field failed validation at build time.
    InvalidConfig {
        /// The offending field, e.g. `"k"` or `"dim"`.
        field: &'static str,
        /// Why the value was rejected.
        reason: &'static str,
    },
    /// `item_clicks` does not cover the model's item catalog.
    ClickCountMismatch {
        /// Items in the model's token space.
        items: usize,
        /// Entries in the provided click-count slice.
        clicks: usize,
    },
    /// An embedding store does not cover the token space it was paired
    /// with (or carries no dimensions at all).
    StoreSpaceMismatch {
        /// Tokens the space requires.
        space_tokens: usize,
        /// Rows the store actually has.
        store_tokens: usize,
    },
    /// A query or a training session named an item outside the catalog.
    UnknownItem(ItemId),
    /// A training session came from a user outside the registry.
    UnknownUser(UserId),
    /// A query named a user type outside the trained registry.
    UnknownUserType(UserTypeId),
    /// A cold-item query carried an SI value outside the feature's
    /// realized value space.
    SiValueOutOfRange {
        /// The feature whose value was out of range.
        feature: ItemFeature,
        /// The offending value.
        value: u32,
        /// The feature's cardinality in the trained token space.
        cardinality: u32,
    },
    /// A cold-user query matched no realized user type.
    NoMatchingUserType,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: `{field}` {reason}")
            }
            CoreError::ClickCountMismatch { items, clicks } => write!(
                f,
                "click counts must cover items: {items} items, {clicks} counts"
            ),
            CoreError::StoreSpaceMismatch {
                space_tokens,
                store_tokens,
            } => write!(
                f,
                "embedding store has {store_tokens} rows but the token space needs {space_tokens}"
            ),
            CoreError::UnknownItem(item) => write!(f, "unknown item {}", item.0),
            CoreError::UnknownUser(user) => write!(f, "unknown user {}", user.0),
            CoreError::UnknownUserType(ut) => write!(f, "unknown user type {}", ut.0),
            CoreError::SiValueOutOfRange {
                feature,
                value,
                cardinality,
            } => write!(
                f,
                "SI value {value} out of range for {feature:?} (cardinality {cardinality})"
            ),
            CoreError::NoMatchingUserType => {
                write!(f, "no realized user type matches the demographics")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<(CoreError, &str)> = vec![
            (
                CoreError::InvalidConfig {
                    field: "k",
                    reason: "must be at least 1",
                },
                "k",
            ),
            (
                CoreError::ClickCountMismatch {
                    items: 10,
                    clicks: 9,
                },
                "10",
            ),
            (
                CoreError::StoreSpaceMismatch {
                    space_tokens: 5,
                    store_tokens: 3,
                },
                "3",
            ),
            (CoreError::UnknownItem(ItemId(7)), "7"),
            (CoreError::UnknownUser(UserId(5)), "user 5"),
            (CoreError::UnknownUserType(UserTypeId(3)), "3"),
            (
                CoreError::SiValueOutOfRange {
                    feature: ItemFeature::Brand,
                    value: 99,
                    cardinality: 4,
                },
                "99",
            ),
            (CoreError::NoMatchingUserType, "user type"),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "`{text}` lacks `{needle}`");
        }
    }
}
