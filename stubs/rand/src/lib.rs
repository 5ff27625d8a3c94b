//! Offline stand-in for the [`rand`](https://crates.io/crates/rand)
//! crate (0.9-series API).
//!
//! The build environment has no network access, so the workspace vendors
//! the exact API surface it consumes: [`SeedableRng::seed_from_u64`],
//! [`Rng::random`], [`Rng::random_range`] / [`Rng::random_bool`], and
//! [`rngs::StdRng`]. The generator behind `StdRng` is xoshiro256**
//! (public domain, Blackman & Vigna) seeded through SplitMix64 — not the
//! ChaCha12 of upstream `rand`, so streams differ from upstream, but
//! every consumer in this workspace only requires *deterministic,
//! well-distributed* values, never a specific stream.
//!
//! Replace this stub with the real crate by pointing the
//! `[workspace.dependencies]` entry back at crates.io.
//!
//! # Extensions
//!
//! `StdRng` here has an exposed state and a jump-ahead that upstream's
//! ChaCha-based `StdRng` lacks. A swap to upstream needs
//! `rand_xoshiro::Xoshiro256StarStar` (whose `jump` covers only fixed
//! 2¹²⁸ steps) and ports of:
//! - [`rngs::StdRng::state`] and [`rngs::StdRng::from_state`], which
//!   checkpoints use to resume a stream mid-way;
//! - [`rngs::StdRng::advance`], an arbitrary jump ahead, which
//!   `einspline`'s lane fill uses to start each lane at its place in
//!   the serial stream;
//! - [`rngs::step_lanes`], which steps many xoshiro256** states at once
//!   through the same transition [`RngCore::next_u64`] runs; the lane
//!   fill steps 16.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of uniform random `u64`s.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// User-facing generator interface, mirroring `rand::Rng` (0.9 names).
pub trait Rng: RngCore {
    /// A uniformly random value of type `T` (`f32`/`f64` in `[0, 1)`,
    /// integers over their full range, `bool` fair).
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// A uniformly random value in `range` (half-open or inclusive).
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.random::<f64>() < p
    }

    /// Fill `dest` with uniformly random values.
    fn fill<T: Standard>(&mut self, dest: &mut [T])
    where
        Self: Sized,
    {
        for x in dest {
            *x = self.random();
        }
    }
}

impl<R: RngCore> Rng for R {}

/// A generator constructible from a seed, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a deterministic function of
    /// `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types with a canonical "uniform" distribution (the role of
/// `StandardUniform` in upstream rand).
pub trait Standard {
    /// Draw one value from `rng`.
    fn from_rng<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn from_rng<R: RngCore>(rng: &mut R) -> Self {
        // 53 mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore>(rng: &mut R) -> Self {
        // 24 mantissa bits -> [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that can be sampled uniformly, mirroring `SampleRange`.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

/// Multiply-shift bounded draw: maps a random `u64` onto `[0, n)`.
/// The modulo bias is < 2^-32 for every `n` this workspace uses.
fn bounded(rng: &mut impl RngCore, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((rng.next_u64() as u128 * n as u128) >> 64) as u64
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    // Full-width inclusive range of a 64-bit type.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + bounded(rng, span) as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let u: $t = Standard::from_rng(rng);
                self.start + (self.end - self.start) * u
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let u: $t = Standard::from_rng(rng);
                lo + (hi - lo) * u
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// One xoshiro256** step of the state words `s0..s3`: returns the
    /// output and steps the words. This is the one copy of the
    /// transition; [`StdRng`]'s `next_u64` runs it on its state and
    /// [`step_lanes`] on every lane.
    #[inline(always)]
    fn step(s0: &mut u64, s1: &mut u64, s2: &mut u64, s3: &mut u64) -> u64 {
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// One xoshiro256** step of `L` independent generators held
    /// word-major (`s[w][l]` is word `w` of lane `l`): returns each
    /// lane's output and steps each lane's state, as `next_u64` on each
    /// would. A caller with `L` = 8 or 16 gets a loop the compiler
    /// vectorizes across lanes.
    #[inline(always)]
    pub fn step_lanes<const L: usize>(s: &mut [[u64; L]; 4]) -> [u64; L] {
        let [s0, s1, s2, s3] = s;
        let mut out = [0; L];
        for l in 0..L {
            out[l] = step(&mut s0[l], &mut s1[l], &mut s2[l], &mut s3[l]);
        }
        out
    }

    /// The characteristic polynomial of xoshiro256**'s state transition,
    /// `x²⁵⁶ + Σ_k c_k x^k` with `c_k` bit `k % 64` of word `k / 64`.
    /// The transition is linear over GF(2) and its polynomial is
    /// primitive, so every state sequence satisfies this recurrence
    /// (the `tests` module recovers it with Berlekamp–Massey).
    pub(crate) const CHAR_POLY: [u64; 4] = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];

    /// `x · a` modulo [`CHAR_POLY`].
    fn mul_x(a: [u64; 4]) -> [u64; 4] {
        let mut r = [
            a[0] << 1,
            a[1] << 1 | a[0] >> 63,
            a[2] << 1 | a[1] >> 63,
            a[3] << 1 | a[2] >> 63,
        ];
        if a[3] >> 63 == 1 {
            for (r, c) in r.iter_mut().zip(CHAR_POLY) {
                *r ^= c;
            }
        }
        r
    }

    /// `a · b` modulo [`CHAR_POLY`] (Horner over the bits of `b`).
    fn mul_mod(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
        let mut acc = [0; 4];
        for i in (0..256).rev() {
            acc = mul_x(acc);
            if b[i / 64] >> (i % 64) & 1 == 1 {
                for (acc, a) in acc.iter_mut().zip(a) {
                    *acc ^= a;
                }
            }
        }
        acc
    }

    /// `x^k` modulo [`CHAR_POLY`], by square-and-multiply.
    fn x_pow(k: u128) -> [u64; 4] {
        let mut r = [1, 0, 0, 0];
        for bit in (0..u128::BITS - k.leading_zeros()).rev() {
            r = mul_mod(r, r);
            if k >> bit & 1 == 1 {
                r = mul_x(r);
            }
        }
        r
    }

    impl StdRng {
        /// Export the full generator state.
        ///
        /// Together with [`StdRng::from_state`] this makes the stream
        /// *resumable*: a generator restored from a saved state continues
        /// producing exactly the draws the original would have produced.
        /// This is a stub extension (upstream `rand`'s `StdRng` hides its
        /// ChaCha state); checkpoint code prefers exact state export over
        /// counter-based reseeding because it is valid mid-stream — no
        /// "draws consumed so far" bookkeeping, no constraint that every
        /// consumer draw a fixed number of values per generation.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuild a generator from a state exported by [`StdRng::state`].
        ///
        /// # Panics
        /// Panics on the all-zero state, which is a fixed point of
        /// xoshiro256** (the generator would emit zeros forever). Any
        /// state produced by [`super::SeedableRng::seed_from_u64`] or by a
        /// stepped generator is non-zero.
        pub fn from_state(s: [u64; 4]) -> Self {
            assert!(s != [0; 4], "xoshiro256** state must be non-zero");
            Self { s }
        }

        /// Jump the stream `draws` draws ahead: afterwards the generator
        /// is where `draws` calls of [`RngCore::next_u64`] would have
        /// left it. A stub extension, like [`StdRng::state`].
        ///
        /// The transition `T` is linear over GF(2), so `Tᵏ` is a
        /// polynomial in `T` of degree below 256: `xᵏ` modulo its
        /// characteristic polynomial (Haramoto et al., INFORMS J. Comput.
        /// 20(3), 2008). The jump evaluates that polynomial on the state
        /// with 256 steps, whatever `draws` is; `advance(2¹²⁸)` (two
        /// calls of `1 << 127`) is Vigna's published `jump()`.
        pub fn advance(&mut self, draws: u128) {
            let g = x_pow(draws);
            let mut acc = [0; 4];
            for i in 0..256 {
                if g[i / 64] >> (i % 64) & 1 == 1 {
                    for (acc, s) in acc.iter_mut().zip(self.s) {
                        *acc ^= s;
                    }
                }
                self.next_u64();
            }
            self.s = acc;
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion of the seed into the full state, as
            // recommended by the xoshiro authors; never all-zero.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = &mut self.s;
            step(s0, s1, s2, s3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn unit_floats_in_range_and_well_spread() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        const N: usize = 10_000;
        for _ in 0..N {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let y: f32 = rng.random();
        assert!((0.0..1.0).contains(&y));
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let k: i32 = rng.random_range(-2..=2);
            assert!((-2..=2).contains(&k));
            seen[(k + 2) as usize] = true;
            let u: usize = rng.random_range(0..17);
            assert!(u < 17);
            let f: f64 = rng.random_range(-1.5..2.5);
            assert!((-1.5..2.5).contains(&f));
        }
        assert!(seen.iter().all(|&s| s), "inclusive endpoints reachable");
    }

    #[test]
    fn bool_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }

    /// Drive `rng` through one draw of every generator method the
    /// workspace uses and return the bit patterns for exact comparison.
    fn draw_everything(rng: &mut StdRng) -> Vec<u64> {
        use super::RngCore;
        // vec! arguments evaluate left to right, so the draw order is
        // fixed and documented by position.
        let mut out = vec![
            rng.next_u64(),
            u64::from(rng.next_u32()),
            rng.random::<f64>().to_bits(),
            u64::from(rng.random::<f32>().to_bits()),
            rng.random::<u64>(),
            u64::from(rng.random::<bool>()),
            rng.random_range(-5i32..9) as u64,
            rng.random_range(0usize..=13) as u64,
            rng.random_range(i64::MIN..=i64::MAX) as u64,
            rng.random_range(-1.5f64..2.5).to_bits(),
            rng.random_range(0.0f64..=1.0).to_bits(),
            u64::from(rng.random_bool(0.37)),
        ];
        let mut buf = [0.0f64; 4];
        rng.fill(&mut buf);
        out.extend(buf.iter().map(|x| x.to_bits()));
        out
    }

    #[test]
    fn state_save_restore_continues_stream_exactly() {
        // save → restore → draw must equal the uninterrupted draw, for
        // every generator method used anywhere in the workspace, from an
        // arbitrary mid-stream point.
        let mut original = StdRng::seed_from_u64(0xC4A7);
        for _ in 0..17 {
            let _ = original.random::<f64>(); // advance mid-stream
        }
        let saved = original.state();
        let uninterrupted = draw_everything(&mut original);
        let mut restored = StdRng::from_state(saved);
        let resumed = draw_everything(&mut restored);
        assert_eq!(uninterrupted, resumed);
        // And the generators stay in lockstep afterwards.
        for _ in 0..100 {
            assert_eq!(original.random::<u64>(), restored.random::<u64>());
        }
    }

    #[test]
    fn state_roundtrips_bitwise() {
        let rng = StdRng::seed_from_u64(99);
        let s = rng.state();
        assert_eq!(StdRng::from_state(s).state(), s);
        assert_ne!(s, [0; 4], "seeding never lands on the fixed point");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn all_zero_state_rejected() {
        let _ = StdRng::from_state([0; 4]);
    }

    /// Vigna's published `jump()` for xoshiro256** (prng.di.unimi.it),
    /// transcribed: the state `2¹²⁸` draws ahead.
    fn vigna_jump(rng: &mut StdRng) {
        use super::RngCore;
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut acc = [0u64; 4];
        for word in JUMP {
            for b in 0..64 {
                if word & 1 << b != 0 {
                    for (acc, s) in acc.iter_mut().zip(rng.state()) {
                        *acc ^= s;
                    }
                }
                rng.next_u64();
            }
        }
        *rng = StdRng::from_state(acc);
    }

    #[test]
    fn advance_by_two_to_the_128_is_vignas_jump() {
        for seed in [0, 5, 0xC4A7] {
            let mut want = StdRng::seed_from_u64(seed);
            vigna_jump(&mut want);
            // 2¹²⁸ does not fit a u128: two halves.
            let mut got = StdRng::seed_from_u64(seed);
            got.advance(1 << 127);
            got.advance(1 << 127);
            assert_eq!(got.state(), want.state(), "seed {seed}");
        }
    }

    #[test]
    fn advance_equals_that_many_draws() {
        for k in [0u32, 1, 63, 64, 65, 1000] {
            let mut stepped = StdRng::seed_from_u64(u64::from(k) + 3);
            let mut jumped = stepped.clone();
            for _ in 0..k {
                let _ = stepped.random::<u64>();
            }
            jumped.advance(u128::from(k));
            assert_eq!(jumped.state(), stepped.state(), "k = {k}");
            assert_eq!(jumped.random::<u64>(), stepped.random::<u64>(), "k = {k}");
        }
    }

    #[test]
    fn advances_compose() {
        let pairs: [(u128, u128); 4] = [
            (0, 17),
            (300, 1 << 20),
            ((1 << 100) + 12_345, (3 << 90) + 7),
            (u128::MAX - 5, 5),
        ];
        for (a, b) in pairs {
            let mut twice = StdRng::seed_from_u64(77);
            let mut once = twice.clone();
            twice.advance(a);
            twice.advance(b);
            once.advance(a + b);
            assert_eq!(twice.state(), once.state(), "{a} + {b}");
        }
    }

    /// The shortest linear recurrence over GF(2) that generates `bits`
    /// (Berlekamp–Massey): `c` with `c[0] = 1` and
    /// `bits[i] = Σ_{j=1..L} c[j]·bits[i − j]`, `L = c.len() − 1`.
    fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
        let n = bits.len();
        let (mut c, mut b) = (vec![0u8; n + 1], vec![0u8; n + 1]);
        (c[0], b[0]) = (1, 1);
        let (mut l, mut m) = (0, 1);
        for i in 0..n {
            let d = (1..=l).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
            if d == 0 {
                m += 1;
                continue;
            }
            let before = c.clone();
            for j in 0..=n - m {
                c[j + m] ^= b[j];
            }
            if 2 * l <= i {
                (l, b, m) = (i + 1 - l, before, 1);
            } else {
                m += 1;
            }
        }
        c.truncate(l + 1);
        c
    }

    #[test]
    fn char_poly_is_the_recurrence_of_the_state_bits() {
        // Any one state bit along the stream obeys the characteristic
        // polynomial, and a primitive polynomial is its shortest one.
        let mut rng = StdRng::seed_from_u64(2);
        let bits: Vec<u8> = (0..512)
            .map(|_| {
                let bit = (rng.state()[0] & 1) as u8;
                let _ = rng.random::<u64>();
                bit
            })
            .collect();
        let c = berlekamp_massey(&bits);
        assert_eq!(c.len(), 257, "degree 256");
        let mut poly = [0u64; 4];
        for k in 0..256 {
            poly[k / 64] |= u64::from(c[256 - k]) << (k % 64);
        }
        assert_eq!(poly, super::rngs::CHAR_POLY);
    }
}
