//! Offline stand-in for `rand_chacha` (see `benchmark/stubs/libc` for why).
//!
//! `ChaCha8Rng` here is xoshiro256** seeded through SplitMix64: a good,
//! fast, deterministic generator under the name the workspace imports. It
//! is not the ChaCha stream cipher.
use rand::{RngCore, SeedableRng};

/// Deterministic generator standing in for `rand_chacha::ChaCha8Rng`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    s: [u64; 4],
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        ChaCha8Rng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }
}
