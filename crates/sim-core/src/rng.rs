//! Deterministic random-number generation.
//!
//! Every stochastic choice in the simulation draws from a [`DetRng`] seeded
//! from the experiment configuration, so a run is exactly reproducible.

/// A small, fast, seedable RNG with convenience helpers.
///
/// The generator is xoshiro256++ seeded through SplitMix64, implemented
/// here directly so the simulation's determinism depends on no external
/// crate: the stream for a given seed is frozen by this file alone.
///
/// Carries its seed so that independent child streams can be derived with
/// [`DetRng::fork`] (one stream per node / application / purpose), keeping
/// consumers from perturbing each other's sequences.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    state: [u64; 4],
}

/// One step of SplitMix64: advances `x` and returns the next output.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let state = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        DetRng { seed, state }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derive an independent child stream; `stream` tags the purpose (node
    /// id, app id, …) so different consumers never share a sequence.
    pub fn fork(&self, stream: u64) -> Self {
        // SplitMix64-style mix of the parent seed and the stream tag.
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        DetRng::new(z ^ (z >> 31))
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "DetRng::below(0)");
        // Lemire's widening-multiply method with rejection: unbiased for
        // every `n` and needs one multiply in the common case.
        let mut m = (self.next_u64() as u128) * (n as u128);
        if (m as u64) < n {
            let t = n.wrapping_neg() % n;
            while (m as u64) < t {
                m = (self.next_u64() as u128) * (n as u128);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "DetRng::range: empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.below(1000) == b.below(1000)).count();
        assert!(same < 8, "streams should diverge, {same} collisions");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let root = DetRng::new(7);
        let mut c1 = root.fork(1);
        let mut c1b = DetRng::new(7).fork(1);
        let mut c2 = root.fork(2);
        let v1: Vec<u64> = (0..16).map(|_| c1.below(1 << 30)).collect();
        let v1b: Vec<u64> = (0..16).map(|_| c1b.below(1 << 30)).collect();
        let v2: Vec<u64> = (0..16).map(|_| c2.below(1 << 30)).collect();
        assert_eq!(v1, v1b);
        assert_ne!(v1, v2);
    }

    #[test]
    fn fork_of_stream_zero_differs_from_parent() {
        let root = DetRng::new(7);
        let mut child = root.fork(0);
        let mut parent = DetRng::new(7);
        let a: Vec<u64> = (0..16).map(|_| child.below(1 << 30)).collect();
        let b: Vec<u64> = (0..16).map(|_| parent.below(1 << 30)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(3);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
