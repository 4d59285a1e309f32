//! The per-tile random stream.
//!
//! Every tile owns one [`TileRng`], seeded from the run seed and the tile's
//! index, and draws all of its arbitration, routing and traffic randomness
//! from it. A tile's draws therefore depend on nothing outside the tile, which
//! is why a sharded or multi-process run draws exactly what the sequential run
//! draws. The generator is xoshiro256++ seeded through splitmix64; its four
//! state words travel in checkpoints.

use std::ops::{Range, RangeInclusive};

/// Mixed into every seed before splitmix64 expands it.
const SEED_DOMAIN: u64 = 0xC4AC_4A12_C4AC_4A12;
/// The splitmix64 increment, also the word that replaces the all-zero state
/// (xoshiro's one fixed point).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A tile's xoshiro256++ generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileRng {
    s: [u64; 4],
}

impl TileRng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed ^ SEED_DOMAIN;
        let mut s = [0; 4];
        for w in &mut s {
            sm = sm.wrapping_add(GOLDEN);
            let z = (sm ^ (sm >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *w = z ^ (z >> 31);
        }
        Self::from_state(s)
    }

    /// Rebuilds a generator from words returned by [`state`](Self::state).
    /// The all-zero state is replaced, so no generator is ever stuck at zero.
    pub fn from_state(s: [u64; 4]) -> Self {
        let s = if s == [0; 4] { [GOLDEN, 0, 0, 0] } else { s };
        Self { s }
    }

    /// The four state words (for checkpoints).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `r.start + x % span`: uniform up to a modulo bias that spans far below
    /// 2⁶⁴ make negligible. Panics if `r` is empty.
    pub fn range(&mut self, r: Range<u64>) -> u64 {
        assert!(r.start < r.end, "cannot sample from empty range");
        r.start + self.next_u64() % (r.end - r.start)
    }

    /// The inclusive form of [`range`](Self::range); `0..=u64::MAX` returns
    /// the raw word. Panics if `r` is empty.
    pub fn range_inclusive(&mut self, r: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = r.into_inner();
        assert!(lo <= hi, "cannot sample from empty range");
        let x = self.next_u64();
        match (hi - lo).checked_add(1) {
            Some(span) => lo + x % span,
            None => x,
        }
    }

    /// Shuffles `items` in place (Fisher–Yates, from the back).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_inclusive(0..=i as u64) as usize;
            items.swap(i, j);
        }
    }
}
