//! Training must not materialize the enriched corpus. Eq. 4 turns every
//! click into 1 + 8 SI tokens, so one flat array of enriched tokens costs
//! 4 B × `total_tokens`, about 9× the click log. The trainer instead
//! expands one sequence at a time from the clicks it borrows, and its peak
//! live heap is the store it returns plus an O(clicks + tokens-in-space)
//! working set that stays far below that array.
//!
//! Its own test binary because it installs a counting global allocator.
//! Live and peak bytes are counted per thread, and training runs on the
//! test's own thread, so the harness's other threads cannot disturb the
//! measurement.

use sisg_core::{SisgModel, Variant};
use sisg_corpus::{CorpusConfig, EnrichedCorpus, GeneratedCorpus};
use sisg_sgns::SgnsConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    // `try_with`: an allocation during thread teardown is simply not counted.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialized
// thread-local `Cell`s that never allocate. The default `alloc_zeroed` and
// `realloc` go through `alloc` and `dealloc`, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn training_peak_heap_is_the_store_plus_less_than_the_enriched_tokens() {
    let corpus = GeneratedCorpus::generate(CorpusConfig {
        n_sessions: 6_000,
        ..CorpusConfig::tiny()
    });
    let variant = Variant::SisgFUD;
    let sgns = SgnsConfig {
        dim: 16,
        window: 2,
        negatives: 2,
        epochs: 1,
        ..Default::default()
    };
    // The figures the budget is stated in, read off a view that is dropped
    // before the measurement starts.
    let (total_tokens, space_len) = {
        let e = EnrichedCorpus::build(&corpus, variant.enrich_options());
        (e.total_tokens() as usize, e.space().len())
    };
    let clicks = corpus.sessions.total_clicks() as usize;

    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let (model, _) = SisgModel::train_on_sessions(
        &corpus.sessions,
        &corpus.catalog,
        &corpus.users,
        corpus.config.n_items,
        variant,
        &sgns,
    )
    .expect("valid config");
    let peak = PEAK.with(Cell::get) - before;

    let store_bytes = 2 * space_len * sgns.dim * std::mem::size_of::<f32>();
    // The view borrows the clicks, so 4 B per click covers its user-type
    // tokens and item blocks with room to spare, but not a copy of the
    // sessions. Then the per-token tables (counts, subsampling, the alias
    // noise table) and a fixed allowance for small buffers.
    let budget = 4 * clicks + 64 * space_len + 64 * 1024;
    let enriched_array = total_tokens * std::mem::size_of::<u32>();
    assert!(
        budget < enriched_array,
        "the budget ({budget} B) must be tighter than the enriched token array \
         ({enriched_array} B) it rules out"
    );
    assert!(
        peak <= store_bytes + budget,
        "training peaked at {peak} B of live heap; store {store_bytes} B + budget {budget} B \
         ({clicks} clicks, {space_len} tokens in space, an enriched array would be \
         {enriched_array} B)"
    );
    assert_eq!(model.space().len(), space_len);
}
