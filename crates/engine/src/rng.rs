//! A tiny deterministic PRNG for the random simulation policy.
//!
//! Random simulations and statistical checks must replay identically
//! on every platform and worker count, so the engine carries its own
//! SplitMix64 instead of a randomness dependency (the workspace has no
//! registry dependencies at all).

/// SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).
///
/// # Example
///
/// ```
/// use moccml_engine::SplitMix64;
/// let mut rng = SplitMix64::new(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// // same seed ⇒ same sequence
/// assert_eq!(SplitMix64::new(42).next_u64(), a);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        // multiply-shift bounded sampling (Lemire); bias is negligible
        // for the small bounds used when picking among acceptable steps.
        let x = self.next_u64() as u128;
        ((x * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn bounded_sampling_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        for bound in 1..20usize {
            for _ in 0..50 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn bounded_sampling_covers_all_values() {
        let mut rng = SplitMix64::new(3);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.next_below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
