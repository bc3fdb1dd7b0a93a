//! Compact binary (de)serialization of embedding stores.
//!
//! The production pipeline writes all embeddings daily for downstream
//! consumers; this codec is the equivalent artifact boundary. Layout (all
//! little-endian):
//!
//! ```text
//! magic "SISGEMB1" | u32 rows | u32 dim | rows*dim f32 input | rows*dim f32 output
//! ```

use crate::matrix::Matrix;
use crate::store::EmbeddingStore;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// File magic; bump the trailing digit on layout changes.
pub const MAGIC: &[u8; 8] = b"SISGEMB1";

/// Errors produced while decoding an embedding blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// The blob is shorter than its header claims.
    Truncated {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// Header declares an implausible shape (zero dim with nonzero rows, or
    /// a size overflowing `usize`).
    BadShape,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a SISG embedding blob (bad magic)"),
            CodecError::Truncated { expected, actual } => {
                write!(f, "truncated blob: expected {expected} bytes, got {actual}")
            }
            CodecError::BadShape => write!(f, "implausible matrix shape in header"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes a store into a standalone blob.
///
/// ```
/// use sisg_embedding::{codec, EmbeddingStore};
///
/// let store = EmbeddingStore::new(10, 4, 42);
/// let blob = codec::encode(&store);
/// let back = codec::decode(&blob).unwrap();
/// assert_eq!(back.n_tokens(), 10);
/// assert_eq!(back.input_matrix().as_slice(), store.input_matrix().as_slice());
/// ```
pub fn encode(store: &EmbeddingStore) -> Bytes {
    let rows = store.n_tokens();
    let dim = store.dim();
    let mut buf = BytesMut::with_capacity(MAGIC.len() + 8 + rows * dim * 8);
    buf.put_slice(MAGIC);
    buf.put_u32_le(rows as u32);
    buf.put_u32_le(dim as u32);
    for v in store.input_matrix().as_slice() {
        buf.put_f32_le(*v);
    }
    for v in store.output_matrix().as_slice() {
        buf.put_f32_le(*v);
    }
    buf.freeze()
}

/// Deserializes a blob produced by [`encode`].
pub fn decode(mut blob: &[u8]) -> Result<EmbeddingStore, CodecError> {
    if blob.len() < MAGIC.len() + 8 || &blob[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    blob.advance(MAGIC.len());
    let rows = blob.get_u32_le() as usize;
    let dim = blob.get_u32_le() as usize;
    if rows > 0 && dim == 0 {
        return Err(CodecError::BadShape);
    }
    // Two matrices of `rows × dim` four-byte floats. The header is outside
    // input: the byte count is checked against what the blob holds before
    // anything below is sized by it.
    let expected = rows
        .checked_mul(dim)
        .and_then(|n| n.checked_mul(8))
        .ok_or(CodecError::BadShape)?;
    if blob.remaining() < expected {
        return Err(CodecError::Truncated {
            expected: expected.saturating_add(MAGIC.len() + 8),
            actual: MAGIC.len() + 8 + blob.remaining(),
        });
    }
    let mut read_matrix = |rows: usize, dim: usize| {
        let mut data = Vec::with_capacity(rows * dim);
        for _ in 0..rows * dim {
            data.push(blob.get_f32_le());
        }
        Matrix::from_data(rows, dim, data)
    };
    let input = read_matrix(rows, dim);
    let output = read_matrix(rows, dim);
    Ok(EmbeddingStore::from_matrices(input, output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::TokenId;

    #[test]
    fn roundtrip_preserves_everything() {
        let store = EmbeddingStore::new(7, 5, 99);
        let blob = encode(&store);
        let back = decode(&blob).unwrap();
        assert_eq!(back.n_tokens(), 7);
        assert_eq!(back.dim(), 5);
        for t in 0..7 {
            assert_eq!(back.input(TokenId(t)), store.input(TokenId(t)));
            assert_eq!(back.output(TokenId(t)), store.output(TokenId(t)));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            decode(b"NOTSISG0\0\0\0\0\0\0\0\0"),
            Err(CodecError::BadMagic)
        ));
        assert!(matches!(decode(b""), Err(CodecError::BadMagic)));
    }

    #[test]
    fn truncation_detected() {
        let blob = encode(&EmbeddingStore::new(4, 4, 1));
        let cut = &blob[..blob.len() - 5];
        assert!(matches!(decode(cut), Err(CodecError::Truncated { .. })));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn hostile_header_is_a_typed_error() {
        let header = |rows: u32, dim: u32| {
            let mut blob = MAGIC.to_vec();
            blob.extend_from_slice(&rows.to_le_bytes());
            blob.extend_from_slice(&dim.to_le_bytes());
            blob
        };
        // rows·dim·2 fits a usize, the byte count does not.
        assert_eq!(
            decode(&header(1 << 31, 1 << 31)).unwrap_err(),
            CodecError::BadShape
        );
        // rows·dim = 2^61 − 2, the largest count whose bytes still fit:
        // a truncated blob, and the reported size must not wrap either.
        assert_eq!(
            decode(&header(2 * ((1 << 30) - 1), (1 << 30) + 1)).unwrap_err(),
            CodecError::Truncated {
                expected: usize::MAX,
                actual: 16,
            }
        );
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = EmbeddingStore::new(0, 3, 1);
        let back = decode(&encode(&store)).unwrap();
        assert_eq!(back.n_tokens(), 0);
    }
}
