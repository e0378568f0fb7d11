//! Deterministic random number generation with named sub-stream derivation.
//!
//! Every stochastic component in the workspace (domain universe, miner
//! deployment, link-creation model, chain simulation) draws from a
//! [`DetRng`] derived from a single experiment seed plus a human-readable
//! label, e.g. `DetRng::seed(42).derive("web.alexa")`. This guarantees that
//! experiments are reproducible bit-for-bit and that adding randomness to
//! one subsystem does not perturb another.
//!
//! The generator is xoshiro256** seeded through SplitMix64, the standard
//! construction recommended by the xoshiro authors.

/// Deterministic xoshiro256** generator.
///
/// ```
/// use minedig_primitives::DetRng;
///
/// let root = DetRng::seed(42);
/// let mut web = root.derive("web");
/// let mut chain = root.derive("chain");
/// // Same label → same stream; different labels → independent streams.
/// assert_eq!(root.derive("web").next_u64(), web.next_u64());
/// assert_ne!(web.next_u64(), chain.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> DetRng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for lane in &mut s {
            *lane = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        DetRng { s }
    }

    /// Derives an independent generator for the sub-stream named `label`.
    ///
    /// Derivation hashes (current state, label) with Keccak-256 so distinct
    /// labels yield statistically independent streams and derivation does
    /// not advance `self`.
    pub fn derive(&self, label: &str) -> DetRng {
        let mut input = Vec::with_capacity(32 + label.len());
        for lane in &self.s {
            input.extend_from_slice(&lane.to_le_bytes());
        }
        input.extend_from_slice(label.as_bytes());
        let h = crate::keccak::keccak256(&input);
        let mut s = [0u64; 4];
        for (i, lane) in s.iter_mut().enumerate() {
            *lane = u64::from_le_bytes(h[i * 8..i * 8 + 8].try_into().unwrap());
        }
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        DetRng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Next 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, n)`. Panics if `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range(0)");
        // Lemire's method with rejection to remove modulo bias.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo < n {
                let threshold = n.wrapping_neg() % n;
                if lo < threshold {
                    continue;
                }
            }
            return (m >> 64) as u64;
        }
    }

    /// Uniform `usize` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.gen_range((hi - lo) as u64) as usize
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Picks a uniformly random element of `items`. Panics on empty input.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// Samples an index according to the given non-negative weights.
    /// Panics if the weights sum to zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        self.weighted_index_by(weights, |&w| w)
    }

    /// [`weighted_index`](DetRng::weighted_index) over the weights that
    /// `weight` reads off `items`: the same draw, without building a
    /// weights slice first.
    pub fn weighted_index_by<T>(&mut self, items: &[T], weight: impl Fn(&T) -> f64) -> usize {
        let total: f64 = items.iter().map(&weight).sum();
        assert!(total > 0.0, "weighted_index with zero total weight");
        let mut target = self.f64() * total;
        for (i, item) in items.iter().enumerate() {
            let w = weight(item);
            if target < w {
                return i;
            }
            target -= w;
        }
        items.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }

    /// Exponential variate with the given rate parameter.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0);
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// Pareto (power-law) variate with scale `x_min` and shape `alpha`.
    ///
    /// Used for heavy-tailed populations such as the links-per-user
    /// distribution of the short-link service (Figure 3 of the paper).
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0);
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        x_min / u.powf(1.0 / alpha)
    }

    /// Standard normal variate (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Poisson variate (Knuth's method; adequate for the small means used
    /// by the calendar/holiday models).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0);
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            // Normal approximation for larger means keeps this O(1).
            let v = lambda + lambda.sqrt() * self.normal();
            return v.max(0.0).round() as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

/// Zipf distribution sampler over ranks `1..=n` with exponent `s`.
///
/// Precomputes the CDF, so sampling is O(log n); used for the popularity
/// of domains in the synthetic web universe.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the sampler has no ranks (never constructible; kept for
    /// clippy's `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n` (0-based; rank 0 is the most popular).
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `k` (0-based).
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = DetRng::seed(42);
        let mut a1 = root.derive("web");
        let mut a2 = root.derive("web");
        let mut b = root.derive("chain");
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(a1.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_does_not_advance_parent() {
        let mut root = DetRng::seed(42);
        let before = root.clone().next_u64();
        let _ = root.derive("x");
        assert_eq!(root.next_u64(), before);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = DetRng::seed(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut rng = DetRng::seed(2);
        for _ in 0..1000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut rng = DetRng::seed(3);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = DetRng::seed(4);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let share2 = counts[2] as f64 / 30_000.0;
        assert!((0.65..0.75).contains(&share2), "share {share2}");
    }

    #[test]
    fn weighted_index_by_draws_what_weighted_index_draws() {
        let items = [("a", 15.2), ("b", 0.0), ("c", 7.3), ("d", 1e-3), ("e", 2.4)];
        let weights: Vec<f64> = items.iter().map(|&(_, w)| w).collect();
        let (mut by, mut plain) = (DetRng::seed(6), DetRng::seed(6));
        for _ in 0..10_000 {
            assert_eq!(
                by.weighted_index_by(&items, |&(_, w)| w),
                plain.weighted_index(&weights)
            );
        }
        assert_eq!(by.next_u64(), plain.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn pareto_exceeds_scale() {
        let mut rng = DetRng::seed(6);
        for _ in 0..1000 {
            assert!(rng.pareto(2.0, 1.1) >= 2.0);
        }
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = DetRng::seed(7);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.poisson(4.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((3.8..4.2).contains(&mean), "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_path() {
        let mut rng = DetRng::seed(8);
        let n = 5_000;
        let total: u64 = (0..n).map(|_| rng.poisson(100.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((97.0..103.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = DetRng::seed(9);
        let mut rank0 = 0;
        for _ in 0..10_000 {
            if z.sample(&mut rng) == 0 {
                rank0 += 1;
            }
        }
        // H(1000) ≈ 7.49 so pmf(0) ≈ 0.133.
        assert!((1_000..1_700).contains(&rank0), "rank0 {rank0}");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2);
        let sum: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::seed(10);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
