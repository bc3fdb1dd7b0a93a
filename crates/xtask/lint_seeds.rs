//! Seeds for the lint rules rustc and clippy own (DESIGN.md §7). Each
//! violation seed ends its line with a `lint:` marker naming the lint that
//! must report that line; every other line is a pass-case seed and must
//! stay clean. `scripts/check.sh` lints this file with the workspace's own
//! `[workspace.lints]` and `clippy.toml` and fails on any difference.
//! `test = false` keeps it out of every other build: it does not compile.
#![allow(dead_code)]

/// Former xtask rule 1 (`safety-comment`).
mod safety_comment {
    fn blocks_without_a_comment(p: *mut f32) {
        unsafe { *p = 1.0 }; // lint: clippy::undocumented_unsafe_blocks
        let _not_a_comment = "SAFETY: p is valid";
        unsafe { *p = 1.0 }; // lint: clippy::undocumented_unsafe_blocks
    }

    fn block_with_a_comment(p: *mut f32) {
        // SAFETY: p is valid and exclusive here.
        unsafe { *p = 1.0 };
    }

    /// Does things.
    pub unsafe fn fn_without_a_safety_doc() {} // lint: clippy::missing_safety_doc

    /// Does things.
    ///
    /// # Safety
    /// Caller must uphold X.
    pub unsafe fn fn_with_a_safety_doc() {}

    /// Writes through `p`.
    ///
    /// # Safety
    /// `p` is valid for writes.
    unsafe fn op_outside_a_block(p: *mut f32) {
        *p = 1.0; // lint: unsafe_op_in_unsafe_fn
    }

    /// Calling a `#[target_feature]` fn is unsafe too.
    fn calls_a_feature_fn(x: f32) -> f32 {
        #[target_feature(enable = "avx2")]
        /// Doubles `x`.
        ///
        /// # Safety
        /// Call only where AVX2 was detected at run time.
        fn double(x: f32) -> f32 {
            x * 2.0
        }
        unsafe { double(x) } // lint: clippy::undocumented_unsafe_blocks
    }

    #[target_feature(enable = "avx2")]
    fn feature_fn_without_a_safety_doc() {} // lint: clippy::missing_safety_doc

    fn prose_and_strings() -> &'static str {
        // this mentions unsafe in prose
        "unsafe"
    }
}

/// Former xtask rule 4 (`no-unwrap`): the panic-free code denies both
/// lints at its crate root or file top.
mod no_unwrap {
    #![deny(clippy::unwrap_used, clippy::expect_used)]

    fn unwrap(x: Option<u32>) -> u32 {
        x.unwrap() // lint: clippy::unwrap_used
    }

    fn expect(x: Option<u32>) -> u32 {
        x.expect("boom") // lint: clippy::expect_used
    }

    fn comments_and_strings() -> &'static str {
        // never call .unwrap() here
        /* nor .expect("x") */
        "first line
         unsafe thread_rng Instant::now() .unwrap()"
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn tests_may_unwrap() {
            "1".parse::<u32>().unwrap();
            "1".parse::<u32>().expect("one");
        }
    }
}

/// Outside the panic-free code `unwrap` stays allowed.
fn unwrap_outside_the_panic_free_code() -> u32 {
    "1".parse().unwrap()
}

/// Former xtask rules 5 (`no-instant`) and 10 (`no-sleep`).
mod no_instant_no_sleep {
    use std::thread;
    use std::time::Duration;

    fn clocks_and_waits() {
        let _t = std::time::Instant::now(); // lint: clippy::disallowed_methods
        std::thread::sleep(Duration::from_millis(1)); // lint: clippy::disallowed_methods
        thread::sleep(Duration::from_millis(1)); // lint: clippy::disallowed_methods
        std::thread::yield_now(); // lint: clippy::disallowed_methods
    }

    /// An exempt clock (`sisg_obs::Stopwatch`, `compat/crossbeam`) or a
    /// test-side busy wait states its reason in one allow.
    #[allow(clippy::disallowed_methods)] // The seed's own exempt clock.
    fn exempt() {
        let _t = std::time::Instant::now();
        std::thread::yield_now();
    }

    // callers must not sleep() here
    fn strings() -> &'static str {
        "yield_now() Instant::now()"
    }
}

/// Former xtask rule 3 (`missing-docs`): `missing_docs` reaches every
/// package that inherits the workspace lints.
pub mod missing_docs {
    pub fn undocumented() {} // lint: missing_docs

    /// Documented.
    pub fn documented() {}

    fn private_items_need_no_docs() {}
}
