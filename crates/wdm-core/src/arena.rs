//! Reusable scratch buffers for the allocation-free scheduling hot path.
//!
//! The paper's headline claim is per-slot cost: First Available is `O(k)`
//! and Break-and-First-Available is `O(dk)` per fiber, cheap enough to run
//! in every time slot. Those bounds only translate into wall-clock speed if
//! the constant factors stay small — and a scheduler that re-allocates its
//! interval lists, matching arrays, and BFS queues on every slot spends more
//! time in the allocator than in the algorithm.
//!
//! [`ScratchArena`] owns every buffer the compact schedulers need.
//! [`crate::algorithms::Matcher::schedule_into`] and the `*_into`/`*_in`
//! forms of the reference algorithms borrow the arena, `clear()` the
//! buffers they use (which keeps capacity), and refill them. After a warmup
//! slot has grown each buffer to its steady-state size for the fiber's `k`,
//! subsequent slots perform **zero heap allocations** — a property pinned by
//! the counting-allocator regression test in `wdm-alloc-count`.
//!
//! ## Ownership model
//!
//! One arena per output fiber. The paper's distributed architecture
//! partitions requests by destination fiber and schedules each fiber
//! independently, so `wdm-interconnect` stores an arena inside each
//! per-fiber unit: a fiber's scheduler only ever borrows its own arena, and
//! no arena is shared between fibers.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::algorithms::repair::RepairWords;
use crate::algorithms::Assignment;

/// One wavelength's pending requests mapped onto the free-channel interval
/// it can reach — the compact left-vertex representation shared by First
/// Available and the single-break reduction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScratchItem {
    /// The input wavelength.
    pub wavelength: usize,
    /// Requests still grantable on this wavelength.
    pub remaining: usize,
    /// First adjacent free-channel position (inclusive).
    pub begin: usize,
    /// Last adjacent free-channel position (inclusive).
    pub end: usize,
}

/// Per-fiber scratch buffers for the compact schedulers and the matching
/// baselines. See the [module docs](self) for the ownership model.
///
/// An arena may be reused across conversions and fiber sizes; buffers grow
/// monotonically to the largest size seen and are never shrunk.
#[derive(Debug, Clone, Default)]
pub struct ScratchArena {
    /// Interval items per wavelength (FA / single-break left vertices).
    pub(crate) items: Vec<ScratchItem>,
    /// Active-item queue of the First Available scan.
    pub(crate) active: VecDeque<usize>,
    /// Free output channels, in scan order (possibly rotated for a break).
    pub(crate) outputs: Vec<usize>,
    /// Free-channel prefix counts (possibly rotated for a break).
    pub(crate) prefix: Vec<usize>,
    /// Break-and-FA: the wavelengths with a pending request, as a bitset in
    /// the [`crate::ChannelMask`] word layout, walked to build
    /// `rot_requests`.
    pub(crate) pending: Vec<u64>,
    /// Break-and-FA: nonzero-request wavelengths in rotated left order
    /// (starting at the breaking wavelength, its breaking copy removed).
    /// Built once per slot and shared by all `d` break candidates.
    pub(crate) rot_requests: Vec<(usize, usize)>,
    /// Break-and-FA: the candidate schedule of the break being evaluated.
    pub(crate) candidate: Vec<Assignment>,
    /// The final schedule of the slot (read via [`Self::assignments`]).
    pub(crate) assignments: Vec<Assignment>,
    /// Hopcroft–Karp BFS layer distances.
    pub(crate) dist: Vec<usize>,
    /// Hopcroft–Karp / Berge BFS queue.
    pub(crate) queue: VecDeque<usize>,
    /// Kuhn visited stamps per right vertex.
    pub(crate) visited: Vec<usize>,
    /// Left-side matching array (graph algorithms).
    pub(crate) match_left: Vec<Option<usize>>,
    /// Right-side matching array (graph algorithms); Break-and-FA's
    /// maximality check loads its incumbent's channel owners here.
    pub(crate) match_right: Vec<Option<usize>>,
    /// Glover: left vertices sorted by interval begin.
    pub(crate) by_begin: Vec<(usize, usize, usize)>,
    /// Glover: min-`END` priority queue of active left vertices.
    pub(crate) heap: BinaryHeap<Reverse<(usize, usize)>>,
    /// Warm-start repair (and Break-and-FA's maximality check): granted
    /// channels per wavelength so far.
    pub(crate) repair_matched: Vec<usize>,
    /// Warm-start repair: BFS predecessor wavelength (self = augmentation
    /// seed).
    pub(crate) repair_parent: Vec<usize>,
    /// Warm-start repair: the channel through which the predecessor reached
    /// this wavelength (the channel it would steal on augmentation).
    pub(crate) repair_entry: Vec<usize>,
    /// Warm-start repair (and Break-and-FA's maximality check): the
    /// owned-channel, seed, and search bitsets.
    pub(crate) repair_words: RepairWords,
}

impl ScratchArena {
    /// An empty arena. Buffers grow on first use; use [`Self::for_k`] to
    /// pre-size them and make even the first slot allocation-free.
    pub fn new() -> ScratchArena {
        ScratchArena::default()
    }

    /// An arena pre-sized for a fiber with `k` wavelength channels: every
    /// buffer the compact schedulers touch is reserved up front, so no
    /// warmup slot is needed before the zero-allocation steady state.
    ///
    /// The graph-algorithm buffers (Hopcroft–Karp, Kuhn, Glover) are sized
    /// for up to `k` left vertices; larger request graphs grow them on first
    /// use.
    pub fn for_k(k: usize) -> ScratchArena {
        ScratchArena {
            items: Vec::with_capacity(k),
            active: VecDeque::with_capacity(k),
            outputs: Vec::with_capacity(k),
            prefix: Vec::with_capacity(k + 1),
            pending: Vec::with_capacity(k.div_ceil(64)),
            rot_requests: Vec::with_capacity(k),
            candidate: Vec::with_capacity(k + 1),
            assignments: Vec::with_capacity(k + 1),
            dist: Vec::with_capacity(k),
            queue: VecDeque::with_capacity(k),
            visited: Vec::with_capacity(k),
            match_left: Vec::with_capacity(k),
            match_right: Vec::with_capacity(k),
            by_begin: Vec::with_capacity(k),
            heap: BinaryHeap::with_capacity(k),
            repair_matched: Vec::with_capacity(k),
            repair_parent: Vec::with_capacity(k),
            repair_entry: Vec::with_capacity(k),
            repair_words: RepairWords::for_k(k),
        }
    }

    /// The schedule produced by the last
    /// [`crate::FiberScheduler::schedule_slot`] call that used this arena.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presized_arena_has_capacity() {
        let a = ScratchArena::for_k(16);
        assert!(a.items.capacity() >= 16);
        assert!(a.prefix.capacity() >= 17);
        assert!(a.assignments.capacity() >= 16);
        assert!(a.repair_matched.capacity() >= 16);
        assert!(a.repair_parent.capacity() >= 16);
        assert!(a.repair_entry.capacity() >= 16);
        assert!(a.assignments().is_empty());
    }

    #[test]
    fn default_is_empty() {
        let a = ScratchArena::new();
        assert!(a.assignments().is_empty());
        assert_eq!(a.items.capacity(), 0);
    }
}
