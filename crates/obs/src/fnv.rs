//! The workspace's one FNV-1a: trace hashes, graph and store checksums,
//! corpus fingerprints and cold-user shard routing all fold through it.
//!
//! Unlike `DefaultHasher` it is stable across runs, hosts and toolchains,
//! which is what lets tests pin its outputs as constants.

/// A streaming 64-bit FNV-1a hasher.
///
/// Callers choose their own word width and order — `bytes` for raw or
/// narrower-than-u64 words (`h.bytes(&x.to_le_bytes())`), `u64` for
/// little-endian 8-byte words.
///
/// ```
/// use sisg_obs::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Starts at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds a byte slice, one byte at a time in slice order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one word as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything folded so far (the hasher stays usable).
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        // From the FNV reference distribution (64-bit FNV-1a).
        for (input, expect) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325u64),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv1a::new();
            h.bytes(input);
            assert_eq!(h.finish(), expect, "{input:?}");
        }
    }

    #[test]
    fn u64_is_the_little_endian_bytes_and_order_matters() {
        let mut word = Fnv1a::new();
        word.u64(0x0102_0304_0506_0708);
        let mut bytes = Fnv1a::new();
        bytes.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(word.finish(), bytes.finish());

        let mut swapped = Fnv1a::new();
        swapped.bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_ne!(word.finish(), swapped.finish());
    }
}
