//! Hostile length prefixes: a blob whose header is valid but whose element
//! count is `u32::MAX` must come back `Truncated` *without* the decoder
//! first asking the allocator for the 8–16 GiB the count describes — no
//! decoder may request more memory than the bytes it was given could hold.
//!
//! Its own test binary because it installs a counting global allocator.
//! One `#[test]` only: the high-water mark is process-wide.

use sisg_distributed::{
    Message, PipelineCheckpoint, ShardCheckpoint, TnsRequest, TnsResponse, WireError,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single allocation request since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; recording the size touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ORDERING: Relaxed — a statistic; the one test thread both resets
        // and reads it.
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A request no decoder of a ~100-byte blob has any business exceeding.
const FEW_KIB: usize = 4 << 10;

/// Sets the little-endian `u32` count that starts `back` bytes from the
/// end of `blob` to `u32::MAX`, decodes, and checks the verdict and the
/// largest allocation the decoder asked for on the way to it.
fn check<T>(what: &str, mut blob: Vec<u8>, back: usize, decode: fn(&[u8]) -> Result<T, WireError>) {
    let at = blob.len() - back;
    blob[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    // ORDERING: Relaxed — as in `Counting::alloc`.
    LARGEST.store(0, Ordering::Relaxed);
    let result = decode(&blob).map(drop);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(result, Err(WireError::Truncated), "{what}");
    assert!(
        largest <= FEW_KIB,
        "{what}: a {}-byte blob made the decoder request {largest} bytes",
        blob.len()
    );
}

#[test]
fn a_u32_max_count_is_truncated_before_anything_is_allocated_for_it() {
    // Each blob is a valid encoding of a value with empty vectors, so its
    // tail is the vectors' zero counts; `check` sets one of them to MAX.
    let token = sisg_corpus::TokenId(3);
    let request = Message::Request(TnsRequest {
        from: 1,
        seq: 7,
        target: token,
        context: token,
        input: Vec::new(),
        lr: 0.025,
    });
    let response = Message::Response(TnsResponse {
        seq: 7,
        target: token,
        grad: Vec::new(),
    });
    let shard = ShardCheckpoint {
        worker: 0,
        epoch: 1,
        rows: 0,
        dim: 16,
        input: Vec::new(),
        output: Vec::new(),
        counters: Default::default(),
        next_seq: 1,
    };
    let pipeline = PipelineCheckpoint {
        workers: 2,
        enriched_fingerprint: 0xFEED,
        owners: Vec::new(),
        hot_tokens: Vec::new(),
    };
    check("request input", request.to_bytes(), 4, Message::from_bytes);
    check("response grad", response.to_bytes(), 4, Message::from_bytes);
    check(
        "shard input",
        shard.to_bytes(),
        8,
        ShardCheckpoint::from_bytes,
    );
    check(
        "shard output",
        shard.to_bytes(),
        4,
        ShardCheckpoint::from_bytes,
    );
    check(
        "owners",
        pipeline.to_bytes(),
        8,
        PipelineCheckpoint::from_bytes,
    );
    check(
        "hot tokens",
        pipeline.to_bytes(),
        4,
        PipelineCheckpoint::from_bytes,
    );
}
