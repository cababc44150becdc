//! A small seeded generator (SplitMix64 seeding, xorshift64* output):
//! every input the benchmark feeds the compiler is a function of the
//! workload seed.

#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)).max(1))
    }

    /// An independent stream derived from this one and `tag`.
    pub fn fork(&self, tag: u64) -> Rng {
        Rng::new(self.0 ^ tag.wrapping_mul(0x2545_F491_4F6C_DD1D))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// `counts[i]` copies of index `i`, in seeded order: a fixed mix whose
    /// order, not composition, depends on the seed.
    pub fn mix(&mut self, counts: &[usize]) -> Vec<usize> {
        let mut v: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
            .collect();
        self.shuffle(&mut v);
        v
    }
}
