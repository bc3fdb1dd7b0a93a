//! Behavior sequences and their container.
//!
//! A session is one user's ordered click sequence `S_u = (v_1, …, v_p)`
//! (Figure 1(a) of the paper). The [`Corpus`] stores all sessions in a flat
//! CSR layout — one `Vec<ItemId>` of concatenated clicks plus offsets — so
//! that scanning billions of (scaled-down: millions of) clicks touches
//! contiguous memory.

use crate::token::{ItemId, UserId};

/// A borrowed view of one session inside a [`Corpus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRef<'a> {
    /// The user who produced this session.
    pub user: UserId,
    /// The clicked items, in click order.
    pub items: &'a [ItemId],
}

impl SessionRef<'_> {
    /// Number of clicks in the session.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the session has no clicks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// All recorded behavior sequences, in flat CSR layout.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    users: Vec<UserId>,
    clicks: Vec<ItemId>,
    offsets: Vec<u64>,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Self {
            users: Vec::new(),
            clicks: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Creates an empty corpus preallocated for `sessions` sessions of about
    /// `clicks` total clicks.
    pub fn with_capacity(sessions: usize, clicks: usize) -> Self {
        let mut offsets = Vec::with_capacity(sessions + 1);
        offsets.push(0);
        Self {
            users: Vec::with_capacity(sessions),
            clicks: Vec::with_capacity(clicks),
            offsets,
        }
    }

    /// Appends a session. Empty sessions are stored too (they are filtered by
    /// consumers that need at least two clicks).
    pub fn push(&mut self, user: UserId, items: &[ItemId]) {
        self.users.push(user);
        self.clicks.extend_from_slice(items);
        self.offsets.push(self.clicks.len() as u64);
    }

    /// Number of sessions.
    #[inline]
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the corpus holds no sessions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Total number of clicks across all sessions.
    #[inline]
    pub fn total_clicks(&self) -> u64 {
        self.clicks.len() as u64
    }

    /// The `i`-th session.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn session(&self, i: usize) -> SessionRef<'_> {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        SessionRef {
            user: self.users[i],
            items: &self.clicks[start..end],
        }
    }

    /// Iterates over all sessions.
    pub fn iter(&self) -> impl Iterator<Item = SessionRef<'_>> + '_ {
        (0..self.len()).map(move |i| self.session(i))
    }

    /// The largest item id referenced, plus one; zero for an empty corpus.
    pub fn max_item_bound(&self) -> u64 {
        self.clicks
            .iter()
            .map(|it| u64::from(it.0) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Clicks per item over every session, `n_items` entries long. A click
    /// on an id `>= n_items` lies outside the catalog and is not counted.
    pub fn item_clicks(&self, n_items: u32) -> Vec<u64> {
        let mut clicks = vec![0u64; n_items as usize];
        for item in &self.clicks {
            if let Some(slot) = clicks.get_mut(item.index()) {
                *slot += 1;
            }
        }
        clicks
    }
}

impl<'a> IntoIterator for &'a Corpus {
    type Item = SessionRef<'a>;
    type IntoIter = Box<dyn Iterator<Item = SessionRef<'a>> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(raw: &[u32]) -> Vec<ItemId> {
        raw.iter().copied().map(ItemId).collect()
    }

    #[test]
    fn push_and_read_back() {
        let mut c = Corpus::new();
        c.push(UserId(1), &items(&[3, 1, 4]));
        c.push(UserId(2), &items(&[1, 5]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_clicks(), 5);
        let s0 = c.session(0);
        assert_eq!(s0.user, UserId(1));
        assert_eq!(s0.items, items(&[3, 1, 4]).as_slice());
        assert_eq!(c.session(1).items.len(), 2);
    }

    #[test]
    fn empty_sessions_are_kept() {
        let mut c = Corpus::new();
        c.push(UserId(9), &[]);
        assert_eq!(c.len(), 1);
        assert!(c.session(0).is_empty());
    }

    #[test]
    fn iterator_visits_in_order() {
        let mut c = Corpus::new();
        c.push(UserId(0), &items(&[1]));
        c.push(UserId(1), &items(&[2, 3]));
        let users: Vec<UserId> = c.iter().map(|s| s.user).collect();
        assert_eq!(users, vec![UserId(0), UserId(1)]);
    }

    #[test]
    fn max_item_bound_tracks_largest_id() {
        let mut c = Corpus::new();
        assert_eq!(c.max_item_bound(), 0);
        c.push(UserId(0), &items(&[0, 7, 2]));
        assert_eq!(c.max_item_bound(), 8);
        c.push(UserId(1), &items(&[u32::MAX]));
        assert_eq!(c.max_item_bound(), 1 << 32);
    }

    #[test]
    fn item_clicks_counts_the_catalog_and_skips_ids_outside_it() {
        let mut c = Corpus::new();
        c.push(UserId(0), &items(&[2, 0, 2]));
        c.push(UserId(1), &items(&[]));
        c.push(UserId(2), &items(&[3, 2, 9, u32::MAX]));
        assert_eq!(c.item_clicks(4), vec![1, 0, 3, 1]);
        assert_eq!(
            c.item_clicks(2),
            vec![1, 0],
            "ids 2, 3, 9 and MAX fall outside"
        );
        assert!(c.item_clicks(0).is_empty());
        assert!(Corpus::new().item_clicks(3).iter().all(|&n| n == 0));
    }
}
