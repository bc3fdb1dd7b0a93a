//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! Implements the surface the embedding codec uses: [`BytesMut`] as an
//! append-only builder, [`Bytes`] as an immutable byte container, the
//! little-endian getters of [`Buf`] for `&[u8]`, and the little-endian
//! putters of [`BufMut`]. No refcounted zero-copy slicing — the codec
//! never splits buffers.

use std::ops::Deref;

/// An immutable, contiguous byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self { data }
    }
}

/// A growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Read access to a byte cursor, little-endian getters included.
///
/// Implemented for `&[u8]`, which advances by reassigning the slice —
/// exactly how the real crate's blanket impl behaves.
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;
    /// Skips `cnt` bytes.
    ///
    /// # Panics
    /// Panics when fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);
    /// Copies `dst.len()` bytes out and advances.
    ///
    /// # Panics
    /// Panics when fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads a little-endian `u32` and advances.
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_le_bytes(raw)
    }

    /// Reads a little-endian `f32` and advances.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    /// Reads a little-endian `u64` and advances.
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        u64::from_le_bytes(raw)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of buffer");
        *self = &self[cnt..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "read past end of buffer");
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
}

/// Write access to a growable byte buffer, little-endian putters included.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_slice(b"hd");
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_f32_le(1.5);
        let frozen = buf.freeze();
        let mut cursor: &[u8] = &frozen;
        cursor.advance(2);
        assert_eq!(cursor.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cursor.get_f32_le(), 1.5);
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn reading_past_end_panics() {
        let mut cursor: &[u8] = &[1, 2];
        let _ = cursor.get_u32_le();
    }
}
