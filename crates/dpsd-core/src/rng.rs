//! Seeded random-number-generator helpers.
//!
//! Every randomized component in this workspace takes an explicit
//! `&mut impl Rng`, and top-level builders accept a `u64` seed so that
//! experiments are exactly reproducible. This module centralizes the
//! concrete generator choice.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Creates the workspace-standard seeded generator.
///
/// `StdRng` here is the vendored `rand` shim's xoshiro256\*\* seeded
/// through SplitMix64, not the ChaCha12 of the published crate: it is
/// statistically strong and reproducible per seed, but not
/// cryptographic, so an analyst who learns or guesses the seed can
/// replay the noise (ROADMAP item G).
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent child generator from a seed and a stream label.
///
/// Used to give each tree level / component its own stream so that adding
/// noise draws in one place does not shift every downstream sample.
pub fn derived(seed: u64, stream: u64) -> StdRng {
    // SplitMix64 step decorrelates (seed, stream) pairs.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let same = (0..16).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 2);
    }

    #[test]
    fn derived_streams_are_independent() {
        let mut a = derived(7, 0);
        let mut b = derived(7, 1);
        let same = (0..16).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 2);
        // Same (seed, stream) reproduces.
        let mut c = derived(7, 1);
        let mut d = derived(7, 1);
        assert_eq!(c.gen::<u64>(), d.gen::<u64>());
    }
}
