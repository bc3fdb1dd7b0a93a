//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! This build environment has no network access and no vendored registry,
//! so the workspace resolves `rand` to this crate via a path dependency
//! (see `[workspace.dependencies]` in the root `Cargo.toml`). It reimplements exactly the API surface the
//! workspace uses — seeded [`rngs::StdRng`], the [`Rng`] / [`SeedableRng`]
//! traits, `gen`, `gen_range`, and `gen_bool` — with deterministic,
//! high-quality generators (SplitMix64 seeding into xoshiro256++).
//!
//! Deliberately **not** implemented: `thread_rng`, `from_entropy`, OS
//! entropy of any kind. The repo's determinism guarantee (DESIGN.md §5)
//! bans unseeded randomness, and this stub makes it unrepresentable: a
//! call to either does not compile, in test code or not (DESIGN.md §7).
//!
//! ```compile_fail,E0425
//! let _rng = rand::thread_rng();
//! ```
//!
//! ```compile_fail,E0599
//! use rand::SeedableRng;
//! let _rng = rand::rngs::StdRng::from_entropy();
//! ```
//!
//! An explicit seed is the one way in:
//!
//! ```
//! use rand::{Rng, SeedableRng};
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let _draw: u32 = rng.gen();
//! ```

use std::ops::{Range, RangeInclusive};

/// The low-level generator interface: a source of uniformly distributed
/// machine words.
pub trait RngCore {
    /// The next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniformly distributed bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A type that can be sampled uniformly from an RNG via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits -> uniform in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u8 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 24) as u8
    }
}

impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range_32 {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as i64 - self.start as i64) as u64;
                let draw = ((rng.next_u64() as u128 * span as u128) >> 64) as i64;
                (self.start as i64 + draw) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi as i64 - lo as i64) as u64 + 1;
                let draw = ((rng.next_u64() as u128 * span as u128) >> 64) as i64;
                (lo as i64 + draw) as $t
            }
        }
    )*};
}
int_range_32!(u8, u16, u32, i8, i16, i32);

macro_rules! int_range_64 {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = self.end.wrapping_sub(self.start) as u64;
                let draw = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start.wrapping_add(draw as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = hi.wrapping_sub(lo) as u128 + 1;
                // `span` can be 2^64 (full domain); the multiply-shift
                // handles that case because draw is taken mod 2^64 anyway.
                let draw = ((rng.next_u64() as u128 * span) >> 64) as u64;
                lo.wrapping_add(draw as $t)
            }
        }
    )*};
}
int_range_64!(u64, usize, i64, isize);

impl SampleRange<f32> for Range<f32> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "empty gen_range");
        self.start + f32::sample_standard(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty gen_range");
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

/// The user-facing generator interface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Draws `true` with probability `p`.
    ///
    /// # Panics
    /// Panics when `p` is not in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        f64::sample_standard(self) < p
    }

    /// Fills `dest` with random bytes.
    #[inline]
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full-width seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a 64-bit seed, expanding it with
    /// SplitMix64 exactly like the real `rand` crate does.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// SplitMix64 — used for seed expansion only.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[inline]
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded generator: xoshiro256++.
    ///
    /// Not the ChaCha12 generator the real crate uses — the workspace only
    /// relies on *self-consistent* determinism (same seed, same stream),
    /// never on the exact byte stream of upstream `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // An all-zero state is the one fixed point of xoshiro; nudge it.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            Self { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-2.5f32..2.5);
            assert!((-2.5..2.5).contains(&w));
            let x = rng.gen_range(0usize..=4);
            assert!(x <= 4);
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed bin: {c}");
        }
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum = 0.0f64;
        for _ in 0..10_000 {
            let f = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        assert!((0.45..0.55).contains(&(sum / 10_000.0)));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }
}
