//! Stable hashing and seeded streams: 64-bit FNV-1a and SplitMix64.
//!
//! Golden-image checksums and telemetry-trace fingerprints must hash
//! identically across runs, platforms and Rust versions, which the standard
//! library's `DefaultHasher` does not guarantee. Both `render-sim` and the
//! core telemetry use this one implementation so the two can never drift.
//!
//! Every seeded random stream in the workspace (LAN jitter and faults, the
//! fleet's workload mix, the bootstrap resampler) is a [`SplitMix64`], and
//! every derived seed or lattice hash goes through its finalizer [`mix64`],
//! so a stream is a pure function of its seed on every platform.

/// SplitMix64's increment: 2^64 divided by the golden ratio, made odd.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer (Steele, Lea & Flood 2014): a bijection on `u64`
/// that spreads every input bit over the whole output word.
pub const fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of `word` as a double in `[0, 1)`, at full precision.
pub(crate) fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded SplitMix64 stream: one add and one [`mix64`] per word. It passes
/// BigCrush, and the same seed gives the same words everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Starts the stream at `seed`.
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next raw word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// An index in `0..n`: the next word modulo `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "SplitMix64::below needs a non-empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// A value in `0..=max`: the next word modulo `max + 1`, or the raw word
    /// when `max` is `u64::MAX`.
    pub fn up_to(&mut self, max: u64) -> u64 {
        match max.checked_add(1) {
            Some(span) => self.next_u64() % span,
            None => self.next_u64(),
        }
    }

    /// `true` with probability `p`: 53 random bits, read as a fraction in
    /// `[0, 1)`, fall below `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "chance probability {p} outside [0, 1]");
        unit_f64(self.next_u64()) < p
    }
}

/// Incremental FNV-1a over bytes and little-endian integers.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// Starts a hash at the FNV-1a offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u8(*b);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Feeds a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_fnv1a_reference_vectors() {
        // Classic test vectors for 64-bit FNV-1a.
        let hash = |s: &str| {
            let mut h = Fnv1a::new();
            h.write_bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_u64_is_order_sensitive() {
        let mut a = Fnv1a::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv1a::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn split_mix64_seed_zero_stream_is_pinned() {
        // Every seeded report fingerprint rests on these words.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn below_and_up_to_stay_in_bounds() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(rng.below(3) < 3);
            assert!(rng.up_to(20) <= 20);
        }
        assert_eq!(rng.below(1), 0);
        assert_eq!(rng.up_to(0), 0);
        let mut raw = rng.clone();
        for _ in 0..4 {
            assert_eq!(rng.up_to(u64::MAX), raw.next_u64());
        }
    }

    #[test]
    fn chance_hits_at_its_probability() {
        let mut rng = SplitMix64::new(99);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
