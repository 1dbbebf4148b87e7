//! Bit-packed vectors over GF(2).

use crate::{words_for, WORD_BITS};
use std::fmt;
use std::ops::{BitXor, BitXorAssign};

/// A fixed-length vector over GF(2), packed 64 bits per word.
///
/// `BitVec` is the universal currency of the workspace: error patterns,
/// syndromes, codewords, logical-operator supports and matrix rows are all
/// `BitVec`s. Addition over GF(2) is XOR ([`BitXorAssign`]), and the inner
/// product is the parity of the AND ([`BitVec::dot`]).
///
/// # Examples
///
/// ```
/// use qldpc_gf2::BitVec;
///
/// let mut e = BitVec::zeros(8);
/// e.set(3, true);
/// e.set(5, true);
/// assert_eq!(e.weight(), 2);
/// assert_eq!(e.iter_ones().collect::<Vec<_>>(), vec![3, 5]);
///
/// let f = BitVec::from_indices(8, &[5, 6]);
/// assert!(e.dot(&f)); // overlap {5} has odd parity
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of the given length.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = qldpc_gf2::BitVec::zeros(100);
    /// assert_eq!(v.len(), 100);
    /// assert_eq!(v.weight(), 0);
    /// ```
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; words_for(len)],
        }
    }

    /// Creates a vector with ones exactly at `indices`.
    ///
    /// Repeated indices are idempotent (the bit is simply set again).
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut v = Self::zeros(len);
        for &i in indices {
            v.set(i, true);
        }
        v
    }

    /// Creates a vector directly from its packed word representation —
    /// the inverse of [`Self::as_words`], used by serializers (e.g. the
    /// wire codec) that ship the words verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not exactly `ceil(len / 64)` or if any
    /// bit beyond `len` is set in the final word (the zero-padding
    /// invariant every `BitVec` operation relies on). Wire-facing
    /// callers must validate untrusted input *before* constructing.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), words_for(len), "word count mismatch");
        if !len.is_multiple_of(WORD_BITS) {
            let tail = words.last().copied().unwrap_or(0);
            assert_eq!(
                tail >> (len % WORD_BITS),
                0,
                "set bits beyond the vector length"
            );
        }
        Self { len, words }
    }

    /// Creates a vector from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Sets the bit at `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
    }

    /// Flips the bit at `index`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn flip(&mut self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % WORD_BITS);
        self.words[index / WORD_BITS] ^= mask;
        self.words[index / WORD_BITS] & mask != 0
    }

    /// Number of ones in the vector (Hamming weight).
    #[inline]
    pub fn weight(&self) -> usize {
        qldpc_simd::popcount_words(&self.words) as usize
    }

    /// Returns `true` if every bit is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Sets every bit to zero, keeping the length.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Inner product over GF(2): the parity of `|self ∧ other|`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn dot(&self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "dot product of unequal lengths");
        let mut acc = 0u64;
        for (a, b) in self.words.iter().zip(&other.words) {
            acc ^= a & b;
        }
        acc.count_ones() % 2 == 1
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            vec: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates over all bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Read-only view of the backing words. The final word's unused high
    /// bits are always zero.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable view of the backing words.
    ///
    /// Callers must keep the unused high bits of the final word zero; all
    /// `BitVec` constructors and operations preserve this invariant.
    #[inline]
    pub(crate) fn as_words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// XORs `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn xor_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "xor of unequal lengths");
        qldpc_simd::xor_words(&mut self.words, &other.words);
    }

    /// Concatenates two vectors.
    pub fn concat(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.len + other.len);
        for i in self.iter_ones() {
            out.set(i, true);
        }
        for i in other.iter_ones() {
            out.set(self.len + i, true);
        }
        out
    }

    /// Returns the sub-vector covering `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(range.end <= self.len, "slice range out of bounds");
        let mut out = Self::zeros(range.len());
        for (j, i) in range.clone().enumerate() {
            if self.get(i) {
                out.set(j, true);
            }
        }
        out
    }
}

/// Iterator over set-bit indices produced by [`BitVec::iter_ones`].
pub struct IterOnes<'a> {
    vec: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_idx];
        }
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_assign(rhs);
    }
}

impl BitXor<&BitVec> for &BitVec {
    type Output = BitVec;

    fn bitxor(self, rhs: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(rhs);
        out
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitVec(len={}, ones={:?})",
            self.len,
            self.iter_ones().collect::<Vec<_>>()
        )
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_zero() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert!(v.is_zero());
        assert_eq!(v.weight(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(200);
        for i in [0, 63, 64, 127, 128, 199] {
            v.set(i, true);
            assert!(v.get(i));
        }
        assert_eq!(v.weight(), 6);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.weight(), 5);
    }

    #[test]
    fn flip_toggles() {
        let mut v = BitVec::zeros(10);
        assert!(v.flip(3));
        assert!(!v.flip(3));
        assert!(v.is_zero());
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let v = BitVec::from_indices(300, &[0, 63, 64, 65, 255, 299]);
        assert_eq!(
            v.iter_ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 255, 299]
        );
    }

    #[test]
    fn dot_is_overlap_parity() {
        let a = BitVec::from_indices(100, &[1, 2, 3, 70]);
        let b = BitVec::from_indices(100, &[2, 3, 70, 71]);
        // overlap {2,3,70} odd
        assert!(a.dot(&b));
        let c = BitVec::from_indices(100, &[2, 3]);
        assert!(!a.dot(&c));
    }

    #[test]
    fn xor_is_addition() {
        let a = BitVec::from_indices(64, &[0, 1, 2]);
        let b = BitVec::from_indices(64, &[2, 3]);
        let c = &a ^ &b;
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![0, 1, 3]);
    }

    #[test]
    fn concat_and_slice() {
        let a = BitVec::from_indices(5, &[1, 4]);
        let b = BitVec::from_indices(3, &[0]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 8);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![1, 4, 5]);
        assert_eq!(c.slice(4..8).iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(c.slice(5..8).iter_ones().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(4).get(4);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn dot_length_mismatch_panics() {
        BitVec::zeros(4).dot(&BitVec::zeros(5));
    }

    #[test]
    fn from_iterator_collects() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v.weight(), 2);
    }
}
