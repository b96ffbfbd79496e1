//! Iteration over set members by trailing-zero scanning.

/// Iterator over the indices of set bits, in increasing order.
///
/// Produced by [`NodeSet::iter`](crate::NodeSet::iter). Scans one word at a
/// time and strips the lowest set bit per step, so iteration cost is
/// proportional to the number of members plus the number of words.
pub struct OnesIter<'a> {
    words: &'a [u64],
    /// Index of the word currently being drained.
    word_idx: usize,
    /// Remaining bits of the current word.
    current: u64,
}

impl<'a> OnesIter<'a> {
    /// Iterates the set bits of raw bitset words (bit `b` of word `i` is
    /// index `64·i + b`), for callers that keep bitsets as word slices.
    pub fn new(words: &'a [u64]) -> Self {
        OnesIter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // strip lowest set bit
        Some(self.word_idx * 64 + bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.current.count_ones() as usize
            + self.words[(self.word_idx + 1).min(self.words.len())..]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for OnesIter<'_> {}

impl std::iter::FusedIterator for OnesIter<'_> {}

#[cfg(test)]
mod tests {
    use crate::NodeSet;

    #[test]
    fn size_hint_is_exact() {
        let s = NodeSet::from_indices(300, [0, 63, 64, 128, 299]);
        let mut it = s.iter();
        assert_eq!(it.size_hint(), (5, Some(5)));
        it.next();
        assert_eq!(it.size_hint(), (4, Some(4)));
        assert_eq!(it.len(), 4);
    }

    #[test]
    fn fused_after_exhaustion() {
        let s = NodeSet::from_indices(10, [2]);
        let mut it = s.iter();
        assert_eq!(it.next(), Some(2));
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn crosses_word_boundaries() {
        let s = NodeSet::from_indices(130, [63, 64, 127, 128]);
        assert_eq!(s.to_vec(), vec![63, 64, 127, 128]);
    }
}
