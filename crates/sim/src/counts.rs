//! Measurement outcome histograms.

use std::collections::BTreeMap;

/// A histogram of measured bitstrings.
///
/// Keys are little-endian bit masks: bit `q` of the key is the classical bit
/// that qubit `q`'s measurement wrote. Qubits that were never measured
/// contribute 0 bits.
///
/// # Example
///
/// ```
/// use supermarq_sim::Counts;
///
/// let mut counts = Counts::new(2);
/// counts.record(0b11);
/// counts.record(0b11);
/// counts.record(0b00);
/// assert_eq!(counts.total(), 3);
/// assert!((counts.probability(0b11) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    num_bits: usize,
    counts: BTreeMap<u64, usize>,
}

impl Counts {
    /// An empty histogram over `num_bits` classical bits.
    pub fn new(num_bits: usize) -> Self {
        assert!(num_bits <= 64, "counts support at most 64 bits");
        Counts {
            num_bits,
            counts: BTreeMap::new(),
        }
    }

    /// Builds a histogram from `(bits, count)` pairs.
    pub fn from_pairs(num_bits: usize, pairs: impl IntoIterator<Item = (u64, usize)>) -> Self {
        let mut c = Counts::new(num_bits);
        for (k, v) in pairs {
            c.record_n(k, v);
        }
        c
    }

    /// Number of classical bits per outcome.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Records one observation of `bits`.
    pub fn record(&mut self, bits: u64) {
        self.record_n(bits, 1);
    }

    /// Records `count` observations of `bits` in one histogram update —
    /// O(log outcomes) instead of the O(count) of repeated [`Counts::record`]
    /// calls. Recording zero observations is a no-op (no empty entry is
    /// created, keeping histogram equality well-defined).
    pub fn record_n(&mut self, bits: u64, count: usize) {
        debug_assert!(
            self.num_bits >= u64::BITS as usize || bits >> self.num_bits == 0,
            "bitstring {bits:#b} exceeds the {}-bit register",
            self.num_bits
        );
        if count == 0 {
            return;
        }
        *self.counts.entry(bits).or_insert(0) += count;
    }

    /// Total number of recorded shots.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Count for a specific outcome.
    pub fn count(&self, bits: u64) -> usize {
        self.counts.get(&bits).copied().unwrap_or(0)
    }

    /// Empirical probability of an outcome (0 if no shots recorded).
    pub fn probability(&self, bits: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.count(bits) as f64 / total as f64
    }

    /// Iterates over `(bits, count)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// The empirical probability for every observed outcome.
    pub fn to_probabilities(&self) -> BTreeMap<u64, f64> {
        let total = self.total() as f64;
        self.counts
            .iter()
            .map(|(&k, &v)| (k, v as f64 / total))
            .collect()
    }

    /// Marginalizes onto the given bit positions: output bit `i` is input
    /// bit `bits[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any requested bit is out of range.
    pub fn marginal(&self, bits: &[usize]) -> Counts {
        for &b in bits {
            assert!(b < self.num_bits, "bit {b} out of range");
        }
        let mut out = Counts::new(bits.len());
        for (&key, &count) in &self.counts {
            let mut m = 0u64;
            for (i, &b) in bits.iter().enumerate() {
                if key >> b & 1 == 1 {
                    m |= 1 << i;
                }
            }
            out.record_n(m, count);
        }
        out
    }

    /// The empirical expectation of a diagonal observable
    /// `sum_k c_k prod_{q in S_k} Z_q`, where each term is given as a
    /// `(coefficient, support mask)` pair: `<term> = E[(-1)^{popcount(bits & mask)}]`.
    pub fn expectation_z(&self, terms: &[(f64, u64)]) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut value = 0.0;
        for &(c, mask) in terms {
            let mut acc = 0i64;
            for (&key, &count) in &self.counts {
                let parity = (key & mask).count_ones() % 2;
                let sign = if parity == 0 { 1 } else { -1 };
                acc += sign * count as i64;
            }
            value += c * acc as f64 / total as f64;
        }
        value
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bit widths differ.
    pub(crate) fn merge(&mut self, other: &Counts) {
        assert_eq!(self.num_bits, other.num_bits, "bit width mismatch");
        for (&k, &v) in &other.counts {
            self.record_n(k, v);
        }
    }

    /// The most frequently observed outcome, if any shots exist. Ties break
    /// toward the smaller key.
    pub fn most_common(&self) -> Option<(u64, usize)> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&k, &v)| (k, v))
    }
}

impl std::fmt::Display for Counts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{:0width$b}: {v}", k, width = self.num_bits.max(1)))
            .collect();
        write!(f, "{{{}}}", entries.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut c = Counts::new(3);
        c.record(0b101);
        c.record(0b101);
        c.record(0b010);
        assert_eq!(c.total(), 3);
        assert_eq!(c.count(0b101), 2);
        assert_eq!(c.count(0b111), 0);
        assert_eq!(c.counts.len(), 2);
        assert_eq!(c.most_common(), Some((0b101, 2)));
    }

    #[test]
    fn empty_counts_probability_is_zero() {
        let c = Counts::new(2);
        assert_eq!(c.probability(0), 0.0);
        assert_eq!(c.most_common(), None);
    }

    #[test]
    fn marginal_extracts_bits() {
        let c = Counts::from_pairs(3, [(0b110, 4), (0b001, 2)]);
        // Keep bits [1, 2] -> outputs 0b11 (from 0b110) and 0b00 (from 0b001).
        let m = c.marginal(&[1, 2]);
        assert_eq!(m.num_bits(), 2);
        assert_eq!(m.count(0b11), 4);
        assert_eq!(m.count(0b00), 2);
    }

    #[test]
    fn expectation_of_single_z() {
        // 75% of shots have bit0 = 0 -> <Z0> = 0.5.
        let c = Counts::from_pairs(1, [(0, 3), (1, 1)]);
        let e = c.expectation_z(&[(1.0, 0b1)]);
        assert!((e - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_zz_parity() {
        // Bell-like counts: 00 and 11 each half -> <Z0 Z1> = 1.
        let c = Counts::from_pairs(2, [(0b00, 500), (0b11, 500)]);
        let e = c.expectation_z(&[(1.0, 0b11)]);
        assert!((e - 1.0).abs() < 1e-12);
        // <Z0> = 0.
        let e0 = c.expectation_z(&[(1.0, 0b01)]);
        assert!(e0.abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counts::from_pairs(2, [(0b01, 1)]);
        let b = Counts::from_pairs(2, [(0b01, 2), (0b10, 3)]);
        a.merge(&b);
        assert_eq!(a.count(0b01), 3);
        assert_eq!(a.count(0b10), 3);
        assert_eq!(a.total(), 6);
    }

    #[test]
    #[should_panic(expected = "bit width mismatch")]
    fn merge_rejects_mismatched_width() {
        let mut a = Counts::new(1);
        let b = Counts::new(2);
        a.merge(&b);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut repeated = Counts::new(3);
        for _ in 0..1000 {
            repeated.record(0b101);
        }
        let mut batched = Counts::new(3);
        batched.record_n(0b101, 1000);
        assert_eq!(repeated, batched);
    }

    #[test]
    fn record_n_of_zero_is_a_no_op() {
        let mut c = Counts::new(2);
        c.record_n(0b01, 0);
        assert_eq!(c.counts.len(), 0);
        assert_eq!(c, Counts::new(2));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "range check is a debug assertion")]
    #[should_panic(expected = "exceeds the 2-bit register")]
    fn record_rejects_out_of_range_bitstrings() {
        let mut c = Counts::new(2);
        c.record(0b100);
    }

    #[test]
    fn full_width_registers_accept_any_bitstring() {
        let mut c = Counts::new(64);
        c.record(u64::MAX);
        assert_eq!(c.count(u64::MAX), 1);
    }

    #[test]
    fn display_formats_binary() {
        let c = Counts::from_pairs(3, [(0b101, 2)]);
        assert_eq!(c.to_string(), "{101: 2}");
    }
}
