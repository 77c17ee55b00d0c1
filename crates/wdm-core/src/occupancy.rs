//! Output-channel availability (paper §V).
//!
//! When connections hold for more than one time slot (e.g. optical burst
//! switching), some output wavelength channels may still be occupied by
//! previously admitted connections at scheduling time. The paper's remedy is
//! to remove the occupied right-side vertices from the request graph; the
//! same matching algorithms then apply to the reduced graph. [`ChannelMask`]
//! records which of the `k` output channels of a fiber are free.
//!
//! ## Word-parallel layout
//!
//! The mask is backed by packed `u64` words: bit `w % 64` of word `w / 64`
//! is 1 iff channel `w` is free, and every bit at position `>= k` (the
//! padding of the last word) is kept at 0. That invariant makes the bulk
//! queries word-parallel instead of channel-by-channel:
//!
//! * `free_count` is a popcount over the words,
//! * `is_free` is a single bit test,
//! * the window queries ([`ChannelMask::any_free_in_window`],
//!   [`ChannelMask::first_free_in_window`], [`ChannelMask::free_in_window`])
//!   mask off the partial first/last word and scan whole words, finding the
//!   first free channel with `trailing_zeros`,
//! * the span queries ([`ChannelMask::any_free_in_span`] and friends) handle
//!   a wrapping adjacency arc as two word-masked window probes,
//! * [`ChannelMask::iter_free`] peels bits (`x &= x - 1`) instead of testing
//!   every channel.
//!
//! These are the kernels under the compact schedulers' hot path: First
//! Available builds its free-channel tables from them, and Break-and-FA
//! probes adjacency arcs without ever looping over individual channels.

use crate::error::Error;
use crate::interval::Span;

/// Bits per backing word.
const WORD_BITS: usize = 64;

/// An inclusive, non-wrapping channel window `(lo, hi)`.
type Window = (usize, usize);

/// Availability of the `k` output wavelength channels of one output fiber.
///
/// Bit `w` (set = free) lives in `words[w / 64]` at position `w % 64`; bits
/// at positions `>= k` are always 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChannelMask {
    k: usize,
    words: Vec<u64>,
}

/// Number of `u64` words needed for `k` channels.
fn word_count(k: usize) -> usize {
    k.div_ceil(WORD_BITS)
}

/// Mask selecting bit positions `lo % 64 ..= 63` of a word.
fn low_cut(lo: usize) -> u64 {
    u64::MAX << (lo % WORD_BITS)
}

/// Mask selecting bit positions `0 ..= hi % 64` of a word.
fn high_cut(hi: usize) -> u64 {
    u64::MAX >> (WORD_BITS - 1 - hi % WORD_BITS)
}

/// Set bits across non-empty `words` with `first` ANDed into the first word
/// and `last` into the last (both into a single word): the popcount under
/// the window queries, given the window's slice of backing words.
fn masked_popcount(words: &[u64], first: u64, last: u64) -> usize {
    let n = words.len();
    let mut count = 0usize;
    for (i, &word) in words.iter().enumerate() {
        let mut word = word;
        if i == 0 {
            word &= first;
        }
        if i == n - 1 {
            word &= last;
        }
        count += word.count_ones() as usize;
    }
    count
}

/// Lowest set bit position (relative to bit 0 of `words[0]`) under the same
/// first/last masking as [`masked_popcount`], or `None` if all masked bits
/// are 0.
fn first_set(words: &[u64], first: u64, last: u64) -> Option<usize> {
    let n = words.len();
    for (i, &word) in words.iter().enumerate() {
        let mut word = word;
        if i == 0 {
            word &= first;
        }
        if i == n - 1 {
            word &= last;
        }
        if word != 0 {
            return Some(i * WORD_BITS + word.trailing_zeros() as usize);
        }
    }
    None
}

impl ChannelMask {
    /// All `k` channels free (the paper's §III–IV setting).
    pub fn all_free(k: usize) -> ChannelMask {
        let mut mask = ChannelMask { k, words: vec![u64::MAX; word_count(k)] };
        mask.clear_padding();
        mask
    }

    /// All `k` channels occupied.
    pub fn all_occupied(k: usize) -> ChannelMask {
        ChannelMask { k, words: vec![0; word_count(k)] }
    }

    /// Builds a mask from explicit per-channel flags (`true` = free).
    pub fn from_flags(free: Vec<bool>) -> Result<ChannelMask, Error> {
        if free.is_empty() {
            return Err(Error::ZeroWavelengths);
        }
        let mut mask = ChannelMask::all_occupied(free.len());
        for (w, &b) in free.iter().enumerate() {
            if b {
                mask.words[w / WORD_BITS] |= 1u64 << (w % WORD_BITS);
            }
        }
        Ok(mask)
    }

    /// A mask with exactly the given channels occupied.
    ///
    /// ```
    /// use wdm_core::ChannelMask;
    /// let mask = ChannelMask::with_occupied(6, &[0, 3])?;
    /// assert!(!mask.is_free(0));
    /// assert_eq!(mask.free_channels(), vec![1, 2, 4, 5]);
    /// # Ok::<(), wdm_core::Error>(())
    /// ```
    pub fn with_occupied(k: usize, occupied: &[usize]) -> Result<ChannelMask, Error> {
        let mut mask = ChannelMask::all_free(k);
        for &w in occupied {
            mask.set_occupied(w)?;
        }
        Ok(mask)
    }

    /// Zeroes the padding bits of the last word (positions `>= k`).
    fn clear_padding(&mut self) {
        if !self.k.is_multiple_of(WORD_BITS) {
            if let Some(last) = self.words.last_mut() {
                *last &= high_cut(self.k - 1);
            }
        }
    }

    /// The number of wavelengths per fiber.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The packed backing words: bit `w % 64` of word `w / 64` is 1 iff
    /// channel `w` is free, and the padding bits at positions `>= k` are 0.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether channel `w` is free: a single bit test.
    ///
    /// # Panics
    ///
    /// Panics if `w >= k`.
    pub fn is_free(&self, w: usize) -> bool {
        assert!(w < self.k, "channel {w} out of range 0..{}", self.k);
        self.words[w / WORD_BITS] >> (w % WORD_BITS) & 1 != 0
    }

    /// Marks channel `w` occupied.
    pub fn set_occupied(&mut self, w: usize) -> Result<(), Error> {
        if w >= self.k {
            return Err(Error::InvalidWavelength { wavelength: w, k: self.k });
        }
        debug_assert!(w / WORD_BITS < self.words.len(), "words cover all k channels");
        self.words[w / WORD_BITS] &= !(1u64 << (w % WORD_BITS));
        Ok(())
    }

    /// Marks channel `w` free.
    pub fn set_free(&mut self, w: usize) -> Result<(), Error> {
        if w >= self.k {
            return Err(Error::InvalidWavelength { wavelength: w, k: self.k });
        }
        debug_assert!(w / WORD_BITS < self.words.len(), "words cover all k channels");
        self.words[w / WORD_BITS] |= 1u64 << (w % WORD_BITS);
        Ok(())
    }

    /// The number of free channels: a popcount over the words.
    pub fn free_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every channel is free.
    pub fn is_all_free(&self) -> bool {
        self.free_count() == self.k
    }

    /// The free channel wavelengths in ascending order.
    pub fn free_channels(&self) -> Vec<usize> {
        self.iter_free().collect()
    }

    /// Fills `out` with the free channel wavelengths in ascending order.
    ///
    /// Allocation-free once `out` has capacity `k`: the buffer is cleared
    /// (keeping capacity) and refilled by peeling bits off each word.
    pub fn free_channels_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.iter_free());
    }

    /// Marks every channel free again, keeping the mask's `k`.
    ///
    /// The reusable counterpart of [`ChannelMask::all_free`] for per-slot
    /// state that must not re-allocate.
    pub fn reset_all_free(&mut self) {
        self.words.fill(u64::MAX);
        self.clear_padding();
    }

    /// Iterates free channel wavelengths in ascending order by peeling the
    /// lowest set bit of each word (`x &= x - 1`).
    pub fn iter_free(&self) -> FreeChannels<'_> {
        FreeChannels {
            words: &self.words,
            base: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Prefix counts of free channels: `prefix[w]` is the number of free
    /// channels with wavelength `< w`, for `w` in `0..=k`.
    ///
    /// This lets a span of wavelengths be mapped to a contiguous range of
    /// positions in the free-channel list in `O(1)` after `O(k)` setup, the
    /// trick that keeps the compact schedulers linear-time under occupancy.
    pub fn free_prefix_counts(&self) -> Vec<usize> {
        let mut prefix = Vec::with_capacity(self.k + 1);
        self.free_prefix_counts_into(&mut prefix);
        prefix
    }

    /// Fills `out` with the free-channel prefix counts (see
    /// [`ChannelMask::free_prefix_counts`]). Allocation-free once `out` has
    /// capacity `k + 1`.
    ///
    /// One branch-free pass: the buffer is sized to `k + 1` once and each
    /// word's bits are shifted out into its 64-entry chunk, with no
    /// per-entry capacity check.
    pub fn free_prefix_counts_into(&self, out: &mut Vec<usize>) {
        out.resize(self.k + 1, 0);
        let Some((first, rest)) = out.split_first_mut() else { return };
        *first = 0;
        let mut acc = 0usize;
        for (chunk, &word) in rest.chunks_mut(WORD_BITS).zip(&self.words) {
            let mut w = word;
            for slot in chunk {
                acc += (w & 1) as usize;
                w >>= 1;
                *slot = acc;
            }
        }
    }

    /// The number of free channels in the inclusive window `[lo, hi]`
    /// (non-wrapping): a popcount over word-masked words.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi >= k`.
    pub fn free_in_window(&self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi < self.k, "window [{lo}, {hi}] invalid for k = {}", self.k);
        let (w0, w1) = (lo / WORD_BITS, hi / WORD_BITS);
        masked_popcount(&self.words[w0..=w1], low_cut(lo), high_cut(hi))
    }

    /// Whether any channel in the inclusive window `[lo, hi]` is free.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi >= k`.
    pub fn any_free_in_window(&self, lo: usize, hi: usize) -> bool {
        self.first_free_in_window(lo, hi).is_some()
    }

    /// The lowest free channel in the inclusive window `[lo, hi]`, found via
    /// mask + `trailing_zeros` — no per-channel probing.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi >= k`.
    pub fn first_free_in_window(&self, lo: usize, hi: usize) -> Option<usize> {
        assert!(lo <= hi && hi < self.k, "window [{lo}, {hi}] invalid for k = {}", self.k);
        let (w0, w1) = (lo / WORD_BITS, hi / WORD_BITS);
        first_set(&self.words[w0..=w1], low_cut(lo), high_cut(hi)).map(|bit| w0 * WORD_BITS + bit)
    }

    /// The two non-wrapping windows covered by `span` on this mask's ring:
    /// the leading window and, when the span wraps past `k − 1`, the
    /// wrapped-around tail.
    fn span_windows(&self, span: Span) -> (Option<Window>, Option<Window>) {
        if span.is_empty() {
            return (None, None);
        }
        let k = self.k;
        let last = span.last(k);
        if span.wraps(k) {
            (Some((span.start(), k - 1)), Some((0, last)))
        } else {
            (Some((span.start(), last)), None)
        }
    }

    /// Whether any channel of the (possibly wrapping) span is free: at most
    /// two word-masked window probes.
    ///
    /// # Panics
    ///
    /// Panics if the span does not fit a ring of `k` channels.
    pub fn any_free_in_span(&self, span: Span) -> bool {
        let (head, tail) = self.span_windows(span);
        head.is_some_and(|(lo, hi)| self.any_free_in_window(lo, hi))
            || tail.is_some_and(|(lo, hi)| self.any_free_in_window(lo, hi))
    }

    /// The number of free channels in the (possibly wrapping) span.
    ///
    /// # Panics
    ///
    /// Panics if the span does not fit a ring of `k` channels.
    pub fn free_in_span(&self, span: Span) -> usize {
        let (head, tail) = self.span_windows(span);
        head.map_or(0, |(lo, hi)| self.free_in_window(lo, hi))
            + tail.map_or(0, |(lo, hi)| self.free_in_window(lo, hi))
    }

    /// The first free channel of the span *in clockwise span order* (i.e.
    /// starting from `span.start()`, wrapping past `k − 1` if the span
    /// does), or `None` if every channel in the span is occupied.
    ///
    /// # Panics
    ///
    /// Panics if the span does not fit a ring of `k` channels.
    pub fn first_free_in_span(&self, span: Span) -> Option<usize> {
        let (head, tail) = self.span_windows(span);
        head.and_then(|(lo, hi)| self.first_free_in_window(lo, hi))
            .or_else(|| tail.and_then(|(lo, hi)| self.first_free_in_window(lo, hi)))
    }

    /// Verifies the packed-representation invariants: the word count matches
    /// `k` and no padding bit (position `>= k`) is set.
    ///
    /// The certificate layer runs this alongside the matching certificates
    /// so [`crate::verify::certify`] catches any drift between the
    /// word-level kernels and the per-channel semantics.
    pub fn check_integrity(&self) -> Result<(), Error> {
        if self.words.len() != word_count(self.k) {
            return Err(Error::LengthMismatch {
                expected: word_count(self.k),
                actual: self.words.len(),
            });
        }
        if !self.k.is_multiple_of(WORD_BITS) {
            if let Some(&last) = self.words.last() {
                if last & !high_cut(self.k - 1) != 0 {
                    return Err(Error::MaskPaddingCorrupt { word: self.words.len() - 1 });
                }
            }
        }
        Ok(())
    }
}

/// Iterator over free channels, ascending; see [`ChannelMask::iter_free`].
#[derive(Debug, Clone)]
pub struct FreeChannels<'a> {
    /// Remaining words, including the one `current` was peeled from.
    words: &'a [u64],
    /// Channel index of bit 0 of `words[0]`.
    base: usize,
    /// Unconsumed bits of the word at `base`.
    current: u64,
}

impl Iterator for FreeChannels<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.words = self.words.get(1..)?;
            self.base += WORD_BITS;
            self.current = *self.words.first()?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_free_and_all_occupied() {
        let free = ChannelMask::all_free(4);
        assert!(free.is_all_free());
        assert_eq!(free.free_count(), 4);
        let occ = ChannelMask::all_occupied(4);
        assert_eq!(occ.free_count(), 0);
        assert_eq!(occ.free_channels(), Vec::<usize>::new());
    }

    #[test]
    fn occupy_and_release() {
        let mut m = ChannelMask::all_free(6);
        m.set_occupied(2).unwrap();
        m.set_occupied(5).unwrap();
        assert!(!m.is_free(2));
        assert!(m.is_free(3));
        assert_eq!(m.free_channels(), vec![0, 1, 3, 4]);
        m.set_free(2).unwrap();
        assert!(m.is_free(2));
        assert_eq!(m.free_count(), 5);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = ChannelMask::all_free(3);
        assert_eq!(m.set_occupied(3), Err(Error::InvalidWavelength { wavelength: 3, k: 3 }));
        assert_eq!(m.set_free(9), Err(Error::InvalidWavelength { wavelength: 9, k: 3 }));
        assert!(ChannelMask::with_occupied(3, &[4]).is_err());
        assert!(ChannelMask::from_flags(vec![]).is_err());
    }

    #[test]
    fn prefix_counts() {
        let m = ChannelMask::with_occupied(6, &[0, 3]).unwrap();
        // free: 1, 2, 4, 5
        assert_eq!(m.free_prefix_counts(), vec![0, 0, 1, 2, 2, 3, 4]);
        // Position of a free wavelength w in the free list = prefix[w].
        for (pos, w) in m.free_channels().into_iter().enumerate() {
            assert_eq!(m.free_prefix_counts()[w], pos);
        }
    }

    #[test]
    fn with_occupied_builder() {
        let m = ChannelMask::with_occupied(5, &[1, 1, 4]).unwrap();
        assert_eq!(m.free_channels(), vec![0, 2, 3]);
    }

    #[test]
    fn multi_word_masks() {
        // Straddle the 64-bit word boundary.
        let k = 130;
        let occupied: Vec<usize> = vec![0, 63, 64, 65, 127, 128, 129];
        let m = ChannelMask::with_occupied(k, &occupied).unwrap();
        assert_eq!(m.free_count(), k - occupied.len());
        for w in 0..k {
            assert_eq!(m.is_free(w), !occupied.contains(&w), "channel {w}");
        }
        assert_eq!(m.free_channels().len(), k - occupied.len());
        assert_eq!(m.free_prefix_counts()[k], k - occupied.len());
        m.check_integrity().unwrap();
    }

    #[test]
    fn window_queries() {
        let m = ChannelMask::with_occupied(70, &[0, 1, 2, 3, 4, 5, 64, 65, 66]).unwrap();
        assert!(!m.any_free_in_window(0, 5));
        assert!(m.any_free_in_window(0, 6));
        assert_eq!(m.first_free_in_window(0, 69), Some(6));
        assert_eq!(m.first_free_in_window(60, 66), Some(60));
        assert_eq!(m.first_free_in_window(64, 66), None);
        assert_eq!(m.free_in_window(0, 69), 70 - 9);
        assert_eq!(m.free_in_window(62, 67), 3);
        assert_eq!(m.free_in_window(6, 6), 1);
    }

    #[test]
    fn span_queries_wrap_around() {
        // Adjacency arc {5, 0, 1} on a 6-ring (paper Fig. 2(a), λ0).
        let span = Span::on_ring(-1, 3, 6);
        let m = ChannelMask::with_occupied(6, &[0, 1]).unwrap();
        assert!(m.any_free_in_span(span));
        assert_eq!(m.free_in_span(span), 1);
        // Clockwise span order starts at 5, which is free.
        assert_eq!(m.first_free_in_span(span), Some(5));
        let m2 = ChannelMask::with_occupied(6, &[5, 0]).unwrap();
        assert_eq!(m2.first_free_in_span(span), Some(1));
        let m3 = ChannelMask::with_occupied(6, &[5, 0, 1]).unwrap();
        assert!(!m3.any_free_in_span(span));
        assert_eq!(m3.first_free_in_span(span), None);
        assert_eq!(m3.free_in_span(Span::EMPTY), 0);
    }

    #[test]
    fn iter_free_peels_words() {
        let m = ChannelMask::with_occupied(128, &(0..128).step_by(2).collect::<Vec<_>>()).unwrap();
        let odd: Vec<usize> = m.iter_free().collect();
        assert_eq!(odd, (1..128).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn reset_keeps_k_and_clears_padding() {
        let mut m = ChannelMask::with_occupied(67, &[0, 66]).unwrap();
        m.reset_all_free();
        assert!(m.is_all_free());
        assert_eq!(m.k(), 67);
        m.check_integrity().unwrap();
        assert_eq!(m.free_count(), 67);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn is_free_out_of_range_panics() {
        let m = ChannelMask::all_free(4);
        let _ = m.is_free(4);
    }

    #[test]
    #[should_panic(expected = "invalid for k")]
    fn inverted_window_panics() {
        let m = ChannelMask::all_free(8);
        let _ = m.free_in_window(5, 3);
    }
}
