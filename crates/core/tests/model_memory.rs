//! Wrapping a store in a model must not copy its item rows: cosine
//! retrieval scales the store's own input rows by a cached `1/‖v‖`, so
//! `SisgModel::from_store` allocates 4 B per item and nothing `dim`-wide.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread, so the harness's own threads cannot disturb
//! the measurement.

use sisg_core::{SisgModel, Variant};
use sisg_corpus::schema::SchemaCardinalities;
use sisg_corpus::vocab::TokenSpace;
use sisg_embedding::EmbeddingStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown is simply not counted.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` that never allocates. The default `alloc_zeroed` and
// `realloc` go through `alloc`, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn from_store_allocates_four_bytes_per_item_not_a_matrix() {
    const ITEMS: u32 = 4_000;
    const DIM: usize = 64;
    let cards = SchemaCardinalities::for_items(ITEMS);
    let space = TokenSpace::new(ITEMS, &cards, 3);
    let store = EmbeddingStore::new(space.len(), DIM, 7);

    let before = ALLOCATED.with(Cell::get);
    let model = SisgModel::from_store(Variant::SisgFU, space, store).expect("store covers space");
    let allocated = ALLOCATED.with(Cell::get) - before;

    let budget = ITEMS as usize * std::mem::size_of::<f32>() + 4 * 1024;
    assert!(
        allocated <= budget,
        "from_store allocated {allocated} B for {ITEMS} × d{DIM} items; budget {budget} B \
         (a normalized item matrix alone is {} B)",
        ITEMS as usize * DIM * std::mem::size_of::<f32>()
    );
    assert_eq!(model.space().n_items(), ITEMS);
}
