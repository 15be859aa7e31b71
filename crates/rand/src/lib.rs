//! Offline vendored subset of the `rand` 0.8 API.
//!
//! The build environment has no network access and no crates.io mirror,
//! so the workspace vendors the exact API surface it uses: the
//! [`RngCore`]/[`Rng`]/[`SeedableRng`] traits, a deterministic
//! [`rngs::StdRng`], uniform `gen_range` over integer and float ranges,
//! `gen_bool`, and `gen` for seed-sized integers.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — not the
//! ChaCha12 of upstream `rand`, so streams differ from the real crate,
//! but every consumer in this workspace only relies on *determinism*
//! (same seed ⇒ same stream), which this provides. The uniform integer
//! sampler uses Lemire's widening-multiply rejection method, so small
//! ranges are unbiased.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Error type carried by [`RngCore::try_fill_bytes`]; the vendored
/// generators are infallible, so this is never constructed by them.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random generator error")
    }
}

impl std::error::Error for Error {}

/// The core of a random number generator: raw word and byte output.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fallible [`RngCore::fill_bytes`]; infallible here.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

/// Values `Rng::gen` can produce from raw generator output.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_uint {
    ($($t:ty),*) => {
        $(impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        })*
    };
}
standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

/// A uniform draw in `[0, 1)` with 53 bits of precision.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An unbiased uniform draw below `n` (Lemire's method).
fn below_u64<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(n);
    let mut lo = m as u64;
    if lo < n {
        let threshold = n.wrapping_neg() % n;
        while lo < threshold {
            m = u128::from(rng.next_u64()) * u128::from(n);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value from the range using `rng`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {
        $(
            impl SampleRange<$t> for Range<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128) as u128 as u64;
                    (self.start as i128 + below_u64(rng, span) as i128) as $t
                }
            }
            impl SampleRange<$t> for RangeInclusive<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "cannot sample empty range");
                    let span = (end as i128 - start as i128) as u128 as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    (start as i128 + below_u64(rng, span + 1) as i128) as $t
                }
            }
        )*
    };
}
sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! sample_range_float {
    ($($t:ty),*) => {
        $(
            impl SampleRange<$t> for Range<$t> {
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(
                        self.start < self.end && self.start.is_finite() && self.end.is_finite(),
                        "cannot sample empty or non-finite float range"
                    );
                    loop {
                        let v = self.start + (self.end - self.start) * unit_f64(rng) as $t;
                        if v < self.end {
                            return v.max(self.start);
                        }
                    }
                }
            }
        )*
    };
}
sample_range_float!(f32, f64);

/// Convenience layer over [`RngCore`]: typed draws.
pub trait Rng: RngCore {
    /// Draws a value of any [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Draws `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]: {p}");
        unit_f64(self) < p
    }

    /// Fills `dest` with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator constructible from a small seed.
pub trait SeedableRng: Sized {
    /// The full-entropy seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a 64-bit seed, expanded via SplitMix64
    /// exactly like upstream `rand`'s default implementation.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let x = splitmix64(&mut state);
            for (dst, src) in chunk.iter_mut().zip(x.to_le_bytes()) {
                *dst = src;
            }
        }
        Self::from_seed(seed)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**.
    ///
    /// Every generator comes from a seed. The crate has no ambient,
    /// OS-seeded source (`thread_rng`, `random`, `from_entropy`,
    /// `OsRng`), so all stochasticity flows from the experiment seed:
    ///
    /// ```
    /// use rand::{rngs::StdRng, Rng, SeedableRng};
    /// let mut rng = StdRng::seed_from_u64(20050607);
    /// let roll: u64 = rng.gen();
    /// assert_eq!(roll, StdRng::seed_from_u64(20050607).gen::<u64>());
    /// ```
    ///
    /// ```compile_fail,E0425
    /// let mut rng = rand::thread_rng();
    /// ```
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (lane, chunk) in s.iter_mut().zip(seed.chunks(8)) {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(chunk);
                *lane = u64::from_le_bytes(bytes);
            }
            if s == [0; 4] {
                // xoshiro must not start from the all-zero state.
                let mut state = 0x6a09_e667_f3bc_c909;
                for lane in &mut s {
                    *lane = splitmix64(&mut state);
                }
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be unrelated, {same}/64 collide");
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_all_values() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v: usize = rng.gen_range(0..5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..5 drawn: {seen:?}");
        for _ in 0..500 {
            let v = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&v));
        }
        for _ in 0..100 {
            let v: i32 = rng.gen_range(-3..=3);
            assert!((-3..=3).contains(&v));
        }
    }

    #[test]
    fn uniform_int_sampling_is_roughly_unbiased() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 60_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[rng.gen_range(0usize..3)] += 1;
        }
        for c in counts {
            let p = f64::from(c) / n as f64;
            assert!((p - 1.0 / 3.0).abs() < 0.02, "badly biased: {counts:?}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let p = hits as f64 / 20_000.0;
        assert!((p - 0.25).abs() < 0.02, "gen_bool(0.25) hit rate {p}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn erased_rng_core_object_is_usable() {
        let mut rng = StdRng::seed_from_u64(11);
        let dynrng: &mut dyn RngCore = &mut rng;
        let a = dynrng.next_u32();
        let mut bytes = [0u8; 4];
        dynrng.try_fill_bytes(&mut bytes).expect("infallible");
        let _ = a;
    }

    #[test]
    fn mean_of_unit_draws_is_centered() {
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        assert!((sum / f64::from(n) - 0.5).abs() < 0.01);
    }
}
