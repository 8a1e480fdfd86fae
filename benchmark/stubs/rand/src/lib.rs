//! Offline stand-in for `rand` 0.8 (see `benchmark/stubs/libc` for why).
//!
//! It carries the part of the API the workspace's data generators and the
//! benchmark use: `Rng::{gen, gen_range}`, `SeedableRng::
//! seed_from_u64` and `seq::SliceRandom::{shuffle, choose}`. Streams differ
//! from the real crate's, so generated datasets are stand-in datasets:
//! deterministic in the seed, same distributions, other bytes.
use std::ops::{Range, RangeInclusive};

/// The source of randomness: 64 fresh bits per call.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators that can be created from a `u64` seed.
pub trait SeedableRng: Sized {
    /// A generator whose whole stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// One value drawn from the type's standard distribution.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Types `Rng::gen_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R)
        -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: $t,
                hi: $t,
                inclusive: bool,
                rng: &mut R,
            ) -> $t {
                let span = (hi as i128 - lo as i128) + i128::from(inclusive);
                assert!(span > 0, "cannot sample an empty range");
                // Multiply-shift maps 64 random bits onto the span; the bias
                // is below 2^-40 for every span the workspace uses.
                let offset = (u128::from(rng.next_u64()) * span as u128) >> 64;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(lo: f64, hi: f64, inclusive: bool, rng: &mut R) -> f64 {
        assert!(lo < hi || (inclusive && lo <= hi), "cannot sample an empty range");
        let v = lo + (hi - lo) * f64::sample(rng);
        if inclusive || v < hi {
            v
        } else {
            lo
        }
    }
}

/// Range forms `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// One value drawn uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(lo, hi, true, rng)
    }
}

/// The user-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the type's standard distribution (`f64` in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value drawn uniformly from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Slice helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// One element chosen uniformly, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}
