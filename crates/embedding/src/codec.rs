//! Compact binary (de)serialization of embedding stores.
//!
//! The production pipeline writes all embeddings daily for downstream
//! consumers; this codec is the equivalent artifact boundary. Layout (all
//! little-endian):
//!
//! ```text
//! magic "SISGEMB1" | u32 rows | u32 dim | rows*dim f32 input | rows*dim f32 output
//! ```
//!
//! A second, mmap-friendly format carries int8 scale-per-row quantized
//! matrices (DESIGN.md §11). Sections start on [`QUANT_ALIGN`]-byte
//! boundaries and the header carries explicit offsets, so a consumer can
//! map the file and serve straight out of it through the zero-copy
//! [`QuantView`] / [`QuantBlob`] — no deserialization pass:
//!
//! ```text
//! offset  0: magic "SISGQNT1"
//! offset  8: u32 rows
//! offset 12: u32 dim
//! offset 16: u32 scales_off   (64; start of the f32 scales section)
//! offset 20: u32 data_off     (aligned start of the i8 weights section)
//! ...        zero padding to scales_off
//! scales_off: rows × f32 le   per-row scales
//! ...        zero padding to data_off
//! data_off:  rows × dim × i8  row-major quantized weights
//! ```

use crate::matrix::Matrix;
use crate::quant::{QuantMatrix, QuantRows};
use crate::store::EmbeddingStore;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// File magic; bump the trailing digit on layout changes.
pub const MAGIC: &[u8; 8] = b"SISGEMB1";

/// Magic of the quantized-store format.
pub const QUANT_MAGIC: &[u8; 8] = b"SISGQNT1";

/// Section alignment of the quantized format — cache-line sized so an
/// mmap'd blob gives naturally aligned scale/weight sections.
pub const QUANT_ALIGN: usize = 64;

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

fn align_up(v: usize, a: usize) -> usize {
    v.div_ceil(a) * a
}

/// Serializes a quantized matrix into the mmap-friendly format above.
pub fn encode_quant(qm: &QuantMatrix) -> Bytes {
    let rows = qm.rows();
    let dim = qm.dim();
    let scales_off = QUANT_ALIGN;
    let data_off = align_up(scales_off + rows * 4, QUANT_ALIGN);
    let mut buf = BytesMut::with_capacity(data_off + rows * dim);
    buf.put_slice(QUANT_MAGIC);
    buf.put_u32_le(rows as u32);
    buf.put_u32_le(dim as u32);
    buf.put_u32_le(scales_off as u32);
    buf.put_u32_le(data_off as u32);
    let pad = [0u8; QUANT_ALIGN];
    buf.put_slice(&pad[..scales_off - buf.len()]);
    for &s in qm.scales() {
        buf.put_f32_le(s);
    }
    buf.put_slice(&pad[..data_off - buf.len()]);
    let weights = qm.data();
    // SAFETY: the layout cast of `QuantView::row` in reverse — i8 and u8
    // have identical size and alignment, so an i8 slice viewed as u8 with
    // the same length and lifetime is sound (a plain bit-preserving view).
    buf.put_slice(unsafe {
        std::slice::from_raw_parts(weights.as_ptr().cast::<u8>(), weights.len())
    });
    buf.freeze()
}

/// A zero-copy read view over a quantized blob: rows and scales resolve
/// to slices of the underlying bytes, nothing is parsed up front beyond
/// the 24-byte header.
#[derive(Debug, Clone, Copy)]
pub struct QuantView<'a> {
    scales: &'a [u8],
    data: &'a [u8],
    rows: usize,
    dim: usize,
}

impl<'a> QuantView<'a> {
    /// Validates the header and section bounds of `blob` and returns a
    /// view into it. The blob is not copied.
    pub fn parse(blob: &'a [u8]) -> Result<Self, CodecError> {
        let header = QUANT_MAGIC.len() + 16;
        if blob.len() < QUANT_MAGIC.len() || &blob[..QUANT_MAGIC.len()] != QUANT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        if blob.len() < header {
            return Err(CodecError::Truncated {
                expected: header,
                actual: blob.len(),
            });
        }
        let word = |at: usize| {
            u32::from_le_bytes([blob[at], blob[at + 1], blob[at + 2], blob[at + 3]]) as usize
        };
        let rows = word(8);
        let dim = word(12);
        let scales_off = word(16);
        let data_off = word(20);
        if rows > 0 && dim == 0 {
            return Err(CodecError::BadShape);
        }
        let scales_end = rows
            .checked_mul(4)
            .and_then(|n| scales_off.checked_add(n))
            .ok_or(CodecError::BadShape)?;
        let data_end = rows
            .checked_mul(dim)
            .and_then(|n| data_off.checked_add(n))
            .ok_or(CodecError::BadShape)?;
        if scales_off < header || scales_end > data_off {
            return Err(CodecError::BadShape);
        }
        if data_end > blob.len() {
            return Err(CodecError::Truncated {
                expected: data_end,
                actual: blob.len(),
            });
        }
        Ok(Self {
            scales: &blob[scales_off..scales_end],
            data: &blob[data_off..data_end],
            rows,
            dim,
        })
    }
}

impl QuantRows for QuantView<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn row(&self, i: usize) -> &[i8] {
        let bytes = &self.data[i * self.dim..(i + 1) * self.dim];
        // SAFETY: i8 and u8 have identical size and alignment, so
        // reinterpreting an in-bounds u8 slice as i8 with the same length
        // and lifetime is sound (a plain bit-preserving view).
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const i8, bytes.len()) }
    }

    #[inline]
    fn scale(&self, i: usize) -> f32 {
        let b = &self.scales[i * 4..i * 4 + 4];
        f32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }
}

/// An owning zero-copy handle over an encoded quantized blob: holds the
/// [`Bytes`] and serves rows/scales as views into them. This is the
/// serving-side shape — shards keep the encoded bytes (mmap-equivalent)
/// and score straight out of them.
#[derive(Debug, Clone)]
pub struct QuantBlob {
    bytes: Bytes,
    rows: usize,
    dim: usize,
    scales_off: usize,
    data_off: usize,
}

impl QuantBlob {
    /// Validates `bytes` (same checks as [`QuantView::parse`]) and wraps
    /// them without copying the payload.
    pub fn new(bytes: Bytes) -> Result<Self, CodecError> {
        let view = QuantView::parse(&bytes)?;
        let (rows, dim) = (view.rows, view.dim);
        // Recover section offsets from the parsed slices' positions.
        let base = bytes.as_ptr() as usize;
        let scales_off = view.scales.as_ptr() as usize - base;
        let data_off = view.data.as_ptr() as usize - base;
        Ok(Self {
            bytes,
            rows,
            dim,
            scales_off,
            data_off,
        })
    }

    /// Total encoded size in bytes (header + padding + payload).
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// A borrowed view of the same blob.
    pub fn view(&self) -> QuantView<'_> {
        QuantView {
            scales: &self.bytes[self.scales_off..self.scales_off + self.rows * 4],
            data: &self.bytes[self.data_off..self.data_off + self.rows * self.dim],
            rows: self.rows,
            dim: self.dim,
        }
    }
}

impl QuantRows for QuantBlob {
    fn rows(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn row(&self, i: usize) -> &[i8] {
        let bytes = &self.bytes[self.data_off + i * self.dim..self.data_off + (i + 1) * self.dim];
        // SAFETY: identical layout cast as QuantView::row — in-bounds u8
        // slice viewed as i8 with the same length and lifetime.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const i8, bytes.len()) }
    }

    #[inline]
    fn scale(&self, i: usize) -> f32 {
        let at = self.scales_off + i * 4;
        let b = &self.bytes[at..at + 4];
        f32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }
}

/// Decodes a quantized blob into an owned [`QuantMatrix`] (the
/// copy-everything path; serving prefers [`QuantBlob`]).
pub fn decode_quant(blob: &[u8]) -> Result<QuantMatrix, CodecError> {
    let view = QuantView::parse(blob)?;
    let (rows, dim) = (view.rows, view.dim);
    let mut data = Vec::with_capacity(rows * dim);
    let mut scales = Vec::with_capacity(rows);
    for i in 0..rows {
        data.extend_from_slice(view.row(i));
        scales.push(view.scale(i));
    }
    Ok(QuantMatrix::from_parts(rows, dim, data, scales))
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

    #[test]
    fn quant_roundtrip_preserves_everything() {
        let m = Matrix::uniform_init(11, 6, 17);
        let qm = QuantMatrix::from_matrix(&m);
        let blob = encode_quant(&qm);
        let back = decode_quant(&blob).unwrap();
        assert_eq!(back.rows(), 11);
        assert_eq!(back.dim(), 6);
        for i in 0..11 {
            assert_eq!(back.row(i), qm.row(i), "row {i}");
            assert_eq!(back.scale(i).to_bits(), qm.scale(i).to_bits(), "scale {i}");
        }
    }

    #[test]
    fn quant_view_and_blob_agree_with_owned_matrix() {
        let m = Matrix::uniform_init(9, 5, 23);
        let qm = QuantMatrix::from_matrix(&m);
        let bytes = encode_quant(&qm);
        let view = QuantView::parse(&bytes).unwrap();
        let blob = QuantBlob::new(bytes.clone()).unwrap();
        assert_eq!(blob.encoded_len(), bytes.len());
        for i in 0..9 {
            assert_eq!(view.row(i), qm.row(i));
            assert_eq!(blob.row(i), qm.row(i));
            assert_eq!(blob.view().row(i), qm.row(i));
            assert_eq!(view.scale(i).to_bits(), qm.scale(i).to_bits());
            assert_eq!(blob.scale(i).to_bits(), qm.scale(i).to_bits());
        }
    }

    #[test]
    fn quant_sections_are_aligned() {
        let qm = QuantMatrix::from_matrix(&Matrix::uniform_init(33, 7, 3));
        let blob = encode_quant(&qm);
        let word = |at: usize| {
            u32::from_le_bytes([blob[at], blob[at + 1], blob[at + 2], blob[at + 3]]) as usize
        };
        assert_eq!(&blob[..8], QUANT_MAGIC);
        assert_eq!(word(16) % QUANT_ALIGN, 0, "scales section unaligned");
        assert_eq!(word(20) % QUANT_ALIGN, 0, "weights section unaligned");
        assert!(word(16) + 33 * 4 <= word(20));
    }

    #[test]
    fn quant_bad_magic_and_truncation_rejected() {
        assert!(matches!(
            QuantView::parse(b"NOTQUANT"),
            Err(CodecError::BadMagic)
        ));
        let qm = QuantMatrix::from_matrix(&Matrix::uniform_init(4, 4, 1));
        let blob = encode_quant(&qm);
        let cut = &blob[..blob.len() - 3];
        assert!(matches!(
            QuantView::parse(cut),
            Err(CodecError::Truncated { .. })
        ));
        // A header whose sections overlap is rejected as a bad shape.
        let mut evil = blob.to_vec();
        evil[20..24].copy_from_slice(&(8u32).to_le_bytes()); // data_off inside header
        assert!(matches!(QuantView::parse(&evil), Err(CodecError::BadShape)));
    }

    #[test]
    fn quant_empty_matrix_roundtrips() {
        let qm = QuantMatrix::from_matrix(&Matrix::zeros(0, 3));
        let back = decode_quant(&encode_quant(&qm)).unwrap();
        assert_eq!(back.rows(), 0);
    }
}
