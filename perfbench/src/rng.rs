//! A small seeded generator for benchmark inputs (SplitMix64). The
//! benchmark owns its input stream so that a seed means the same inputs
//! regardless of any dependency's generator.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for a named purpose under the same seed.
    pub fn fork(&self, stream: u64) -> Self {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n.max(1)
    }

    /// Exponential with unit mean.
    pub fn exp1(&mut self) -> f64 {
        -(1.0 - self.uniform()).ln()
    }

    /// Index drawn from a Zipf(`s`) popularity over `n` items.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        let total: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut u = self.uniform() * total;
        for k in 1..=n {
            u -= (k as f64).powf(-s);
            if u <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}
