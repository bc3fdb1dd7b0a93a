//! Hostile bytes at the exchange's one byte boundary. Every mutation of a
//! batch, answer or replicas message — a cut at every offset, every byte
//! flipped, each declared count (pairs, rows, dim) set to `u32::MAX` —
//! decodes to a typed `WireError`, without a panic and without the decoder
//! asking the allocator for more bytes than it was given. The checksum
//! catches every flip; with the checksum resealed, a hostile count still
//! comes back `Truncated` before anything is allocated for it. The
//! checkpoints' length prefixes get the same check, and a block checkpoint
//! of the right shape placed past the run is refused by `restore` before
//! anything is sized from its position.
//!
//! Its own test binary because it installs a counting global allocator.
//! One `#[test]` only: the high-water mark is process-wide.

use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus, TokenId};
use sisg_distributed::protocol::RestoreError;
use sisg_distributed::{
    Answer, Batch, BlockCheckpoint, DistConfig, Message, PipelineCheckpoint, Replicas, Tag, TnsRun,
    WireError,
};
use sisg_obs::Fnv1a;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Decodes `blob`, and returns the verdict and the largest allocation the
/// decoder asked for on the way to it.
fn decode<T>(
    blob: &[u8],
    decode: fn(&[u8]) -> Result<T, WireError>,
) -> (Result<(), WireError>, usize) {
    // ORDERING: Relaxed — as in `Counting::alloc`.
    LARGEST.store(0, Ordering::Relaxed);
    let result = decode(blob).map(drop);
    (result, LARGEST.load(Ordering::Relaxed))
}

/// A decoder that keeps only the verdict.
type Decoder = fn(&[u8]) -> Result<(), WireError>;

/// Sets the little-endian `u32` at `at` to `u32::MAX`.
fn max_at(blob: &mut [u8], at: usize) {
    blob[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
}

/// Recomputes a message's trailing checksum after its body was edited.
fn reseal(blob: &mut [u8]) {
    let at = blob.len() - 8;
    let mut h = Fnv1a::new();
    h.bytes(&blob[..at]);
    blob[at..].copy_from_slice(&h.finish().to_le_bytes());
}

fn messages() -> Vec<(&'static str, Message, [usize; 3])> {
    let tag = Tag {
        incarnation: 1,
        epoch: 0,
        block: 3,
    };
    let batch = Message::Batch(Batch {
        from: 1,
        tag,
        pairs_scanned: 40,
        dim: 4,
        pairs: Arc::new(vec![(0, TokenId(9)), (1, TokenId(12)), (0, TokenId(9))]),
        rows: Arc::new((0..8).map(|x| x as f32 * 0.5).collect()),
    });
    let answer = Message::Answer(Answer {
        from: 0,
        tag,
        pairs_scanned: 38,
        waiting: true,
        dim: 4,
        grads: Arc::new(vec![0.25; 8]),
    });
    let replicas = Message::Replicas(Replicas {
        from: 2,
        tag,
        pull: false,
        dim: 4,
        rows: Arc::new(vec![-1.0; 16]),
    });
    // Offsets of the declared counts (pairs, rows, dim) past the 17-byte
    // header of kind, sender and tag. The rows start with their dim, then
    // their count; before them a batch has its scanned count, pair count
    // and three pairs, an answer its scanned count and flag, replicas a
    // flag.
    let at = |dim: usize| [dim + 4, dim];
    let [b_rows, b_dim] = at(17 + 8 + 4 + 3 * 8);
    let [a_rows, a_dim] = at(17 + 8 + 1);
    let [r_rows, r_dim] = at(17 + 1);
    vec![
        ("batch", batch, [25, b_rows, b_dim]),
        ("answer", answer, [0, a_rows, a_dim]),
        ("replicas", replicas, [0, r_rows, r_dim]),
    ]
}

/// A request no decoder of a ~100-byte checkpoint has any business
/// exceeding.
const FEW_KIB: usize = 4 << 10;

#[test]
fn every_mutation_of_a_message_is_a_typed_error_within_its_own_bytes() {
    for (what, msg, counts) in messages() {
        let bytes = msg.to_bytes();
        assert_eq!(Message::from_bytes(&bytes), Ok(msg), "{what} round trip");
        let within = |blob: &[u8], case: String| {
            let (result, largest) = decode(blob, Message::from_bytes);
            assert!(result.is_err(), "{case} decoded");
            assert!(
                largest <= blob.len(),
                "{case}: a {}-byte blob made the decoder request {largest} bytes",
                blob.len()
            );
            result
        };
        for cut in 0..bytes.len() {
            let _ = within(&bytes[..cut], format!("{what} cut at {cut}"));
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            let result = within(&flipped, format!("{what} byte {i} flipped"));
            assert_eq!(result, Err(WireError::BadChecksum), "{what} byte {i}");
        }
        for (name, at) in ["pairs", "rows", "dim"].iter().zip(counts) {
            if at == 0 {
                continue; // an answer and replicas declare no pair count
            }
            let mut hostile = bytes.clone();
            max_at(&mut hostile, at);
            let unsealed = within(&hostile, format!("{what} {name} = MAX"));
            assert_eq!(unsealed, Err(WireError::BadChecksum));
            reseal(&mut hostile);
            let sealed = within(&hostile, format!("{what} {name} = MAX, resealed"));
            assert_eq!(sealed, Err(WireError::Truncated), "{what} {name}");
        }
    }

    // Checkpoints: each blob is a valid encoding with empty vectors, so its
    // tail is the vectors' zero counts; one of them goes to MAX.
    let block = BlockCheckpoint {
        worker: 0,
        epoch: 1,
        block: 2,
        progress: 7,
        rows: 0,
        dim: 16,
        input: Vec::new(),
        output: Vec::new(),
        counters: Default::default(),
        answers: Vec::new(),
        replicas: None,
    };
    let pipeline = PipelineCheckpoint {
        workers: 2,
        enriched_fingerprint: 0xFEED,
        owners: Vec::new(),
        hot_tokens: Vec::new(),
    };
    let checkpoints: [(&str, Vec<u8>, usize, Decoder); 4] = [
        ("block input", block.to_bytes(), 8, |b| {
            BlockCheckpoint::from_bytes(b).map(drop)
        }),
        ("block output", block.to_bytes(), 4, |b| {
            BlockCheckpoint::from_bytes(b).map(drop)
        }),
        ("owners", pipeline.to_bytes(), 8, |b| {
            PipelineCheckpoint::from_bytes(b).map(drop)
        }),
        ("hot tokens", pipeline.to_bytes(), 4, |b| {
            PipelineCheckpoint::from_bytes(b).map(drop)
        }),
    ];
    for (what, mut blob, back, from_bytes) in checkpoints {
        let at = blob.len() - back;
        max_at(&mut blob, at);
        let (result, largest) = decode(&blob, from_bytes);
        assert_eq!(result, Err(WireError::Truncated), "{what}");
        assert!(
            largest <= FEW_KIB,
            "{what}: a {}-byte blob made the decoder request {largest} bytes",
            blob.len()
        );
    }

    let gen = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&gen, EnrichOptions::FULL);
    let config = DistConfig {
        workers: 2,
        dim: 16,
        hot_set_size: 8,
        ..Default::default()
    };
    let run = TnsRun::new(&enriched, &gen.catalog, &config);
    let (mut input, mut output) = run.initial_store();
    let mut machine = run.machines(&mut input, &mut output).swap_remove(0);
    let past = config.epochs as u32 + 1;
    for (epoch, block) in [(0, u32::MAX), (u32::MAX, u32::MAX), (past, 0)] {
        let ck = BlockCheckpoint {
            epoch,
            block,
            ..machine.checkpoint()
        };
        // ORDERING: Relaxed — as in `Counting::alloc`.
        LARGEST.store(0, Ordering::Relaxed);
        let result = machine.restore(ck, 1);
        let largest = LARGEST.load(Ordering::Relaxed);
        let out_of_range = RestoreError::OutOfRange {
            epoch: epoch as usize,
            block: block as usize,
        };
        assert_eq!(result, Err(out_of_range), "epoch {epoch}, block {block}");
        assert!(
            largest <= FEW_KIB,
            "epoch {epoch}, block {block}: restore requested {largest} bytes"
        );
    }
    assert!(machine.restore(machine.checkpoint(), 1).is_ok());
}
