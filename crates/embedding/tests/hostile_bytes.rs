//! Hostile bytes at the embedding crate's two artifact boundaries: the
//! `SISGEMB1` codec (`codec::decode`) and the word2vec text reader
//! (`word2vec::read_text`). Every mutation of a valid input — a cut at
//! every offset, every byte flipped, each header count set to `u32::MAX`,
//! `usize::MAX` and the edges where a size overflows — ends in `Ok` or a
//! typed error, never a panic, and the reader's peak heap stays linear in
//! the input's length: no header sizes a buffer.
//!
//! Its own test binary because it installs a counting global allocator.
//! Live and peak bytes are counted per thread and every read runs on the
//! test's own thread, so the harness's other threads do not disturb it.

use proptest::prelude::*;
use sisg_embedding::codec::{self, CodecError};
use sisg_embedding::word2vec::{self, W2vParseError};
use sisg_embedding::{EmbeddingStore, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialized
// thread-local `Cell`s that never allocate (`try_with`: an allocation
// during thread teardown is not counted). The default `alloc_zeroed` and
// `realloc` go through `alloc` and `dealloc`, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size());
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak heap a read may hold per input byte, on top of 4 KiB. A decoded
/// store is its blob's floats (1 B/B); the text reader's buffers grow by
/// doubling over values of at least two bytes each, and a row name costs
/// a 24 B `String` per line of at least two bytes.
const BYTES_PER_INPUT_BYTE: usize = 32;

/// Runs `read` on `input`: it must not panic, and its peak heap, result
/// included, must stay within the linear bound. Returns the verdict.
fn hostile<T, E>(input: &[u8], read: impl FnOnce(&[u8]) -> Result<T, E>) -> Result<T, E> {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let verdict = catch_unwind(AssertUnwindSafe(|| read(input)))
        .unwrap_or_else(|_| panic!("the reader panicked on {input:?}"));
    let peak = PEAK.with(Cell::get) - base;
    let bound = BYTES_PER_INPUT_BYTE * input.len() + 4096;
    assert!(peak <= bound, "peak heap {peak} B > {bound} B on {input:?}");
    verdict
}

/// A `SISGEMB1` blob with its two header counts replaced.
fn with_header(blob: &[u8], rows: u32, dim: u32) -> Vec<u8> {
    let mut out = blob.to_vec();
    out[8..12].copy_from_slice(&rows.to_le_bytes());
    out[12..16].copy_from_slice(&dim.to_le_bytes());
    out
}

/// `matrix` in word2vec text format.
fn text_of(matrix: &Matrix) -> String {
    let mut buf = Vec::new();
    word2vec::write_text(matrix, |i| format!("t{i}"), &mut buf).expect("write to a Vec");
    String::from_utf8(buf).expect("write_text emits UTF-8")
}

#[test]
fn codec_header_counts_at_the_size_edges_are_typed() {
    // A 3 × 2 store; on 64-bit hosts `rows · dim · 8` overflows from
    // 2^31 × 2^31 on.
    let blob = codec::encode(&EmbeddingStore::new(3, 2, 5));
    let (g, max) = (1 << 30, u32::MAX);
    let edges = [0, 1, 2, 3, 4, g, g + 1, 2 * g, max - 1, max];
    for rows in edges {
        for dim in edges {
            match hostile(&with_header(&blob, rows, dim), codec::decode) {
                Ok(store) => assert_eq!(
                    [store.n_tokens(), store.dim()],
                    [rows, dim].map(|n| n as usize)
                ),
                Err(CodecError::BadShape | CodecError::Truncated { .. }) => {}
                Err(e) => panic!("rows {rows} dim {dim}: {e:?}"),
            }
        }
    }
    if cfg!(target_pointer_width = "64") {
        let header = &blob[..16];
        // rows·dim·2 fits a usize, the byte count does not.
        let overflow = with_header(header, 1 << 31, 1 << 31);
        assert_eq!(codec::decode(&overflow).unwrap_err(), CodecError::BadShape);
        // rows·dim = 2^61 − 2, the largest count whose bytes still fit:
        // a truncated blob, and the reported size must not wrap either.
        let largest = with_header(header, 2 * ((1 << 30) - 1), (1 << 30) + 1);
        let (expected, actual) = (usize::MAX, 16);
        assert_eq!(
            codec::decode(&largest).unwrap_err(),
            CodecError::Truncated { expected, actual }
        );
    }
}

#[test]
fn word2vec_header_counts_at_the_size_edges_are_typed() {
    let text = text_of(&Matrix::uniform_init(3, 2, 5));
    let body = text.split_once('\n').expect("a header line").1;
    // The extremes of both widths, one past `usize::MAX`, and the largest
    // `rows · dim` whose `f32` bytes fit an `isize` and the next one.
    let (u32_max, cells, max) = (u32::MAX as usize, (isize::MAX / 4) as usize, usize::MAX);
    let counts = [0, 1, 2, 3, 4, u32_max, cells, cells + 1, max];
    let mut edges: Vec<String> = counts.map(|n| n.to_string()).to_vec();
    edges.extend(["18446744073709551616", "-1", ""].map(String::from));
    for rows in &edges {
        for dim in &edges {
            let input = format!("{rows} {dim}\n{body}");
            if let Ok((names, m)) = hostile(input.as_bytes(), |b| word2vec::read_text(b)) {
                assert_eq!(
                    [names.len(), m.dim()].map(|n| n.to_string()),
                    [rows.as_str(), dim.as_str()]
                );
            }
        }
    }
    // Header-only inputs: a shape no host can allocate, a `rows × dim`
    // that overflows `usize`, and one whose bytes exceed `isize::MAX`.
    let (expected, actual) = (1_000_000_000_000, 0);
    assert_eq!(
        word2vec::read_text(&b"1000000000000 1\n"[..]).unwrap_err(),
        W2vParseError::Truncated { expected, actual }
    );
    assert_eq!(
        word2vec::read_text(&b"18446744073709551615 2\n"[..]).unwrap_err(),
        W2vParseError::BadHeader
    );
    assert_eq!(
        word2vec::read_text(&b"3 4611686018427387904\n"[..]).unwrap_err(),
        W2vParseError::BadHeader
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_cut_and_flip_of_a_codec_blob_is_typed(rows in 0usize..6, dim in 1usize..5, seed in any::<u64>()) {
        let blob = codec::encode(&EmbeddingStore::new(rows, dim, seed));
        prop_assert!(hostile(&blob, codec::decode).is_ok());
        // A cut inside the magic and the header is not a blob; past them,
        // the header promises bytes that are missing.
        for cut in 0..blob.len() {
            let want = match cut {
                0..16 => CodecError::BadMagic,
                _ => CodecError::Truncated { expected: blob.len(), actual: cut },
            };
            prop_assert_eq!(hostile(&blob[..cut], codec::decode).map(drop), Err(want));
        }
        // A flipped magic byte is not a blob, a flipped count is typed
        // (`hostile` checks that much), and a flipped float is a float.
        let mut flipped = blob.to_vec();
        for i in 0..blob.len() {
            flipped[i] ^= 0xFF;
            let verdict = hostile(&flipped, codec::decode).map(drop);
            match i {
                0..8 => prop_assert_eq!(verdict, Err(CodecError::BadMagic)),
                8..16 => {}
                _ => prop_assert_eq!(verdict, Ok(())),
            }
            flipped[i] ^= 0xFF;
        }
    }

    #[test]
    fn every_cut_and_flip_of_a_word2vec_file_is_typed(rows in 0usize..5, dim in 1usize..4, seed in any::<u64>()) {
        let text = text_of(&Matrix::uniform_init(rows, dim, seed)).into_bytes();
        prop_assert!(hostile(&text, |b| word2vec::read_text(b)).is_ok());
        // Every line ends with its newline, so no cut parses: not even
        // one inside the last value (`0.25` cut to `0.2`).
        for cut in 0..text.len() {
            prop_assert!(hostile(&text[..cut], |b| word2vec::read_text(b)).is_err(), "cut at {cut}");
        }
        let mut flipped = text.clone();
        for i in 0..text.len() {
            flipped[i] ^= 0xFF;
            let _ = hostile(&flipped, |b| word2vec::read_text(b));
            flipped[i] ^= 0xFF;
        }
    }
}
