//! Warm-start repair of the previous slot's matching.
//!
//! The paper's slot-synchronous model makes consecutive slots *coherent*:
//! multi-slot holds and advance reservations (§V) keep most of the
//! request/occupancy state identical from one slot to the next, so the
//! maximum matching of slot `t+1` differs from slot `t`'s by a handful of
//! departures and arrivals. Recomputing Break-and-First-Available from
//! scratch every slot throws that structure away.
//!
//! [`repair_schedule_into`] instead *repairs* the previous matching:
//!
//! 1. **Survivor filter** — keep every previous grant whose channel is still
//!    free and whose wavelength still has a pending request (departed
//!    requests and newly occupied channels drop out here), `O(k)`.
//! 2. **Bounded augmentation** — the survivors form a valid (not necessarily
//!    maximum) matching; repeated multi-source BFS over the wavelengths
//!    finds augmenting paths from deficient wavelengths to free unowned
//!    channels. When no augmenting path remains, the matching is maximum by
//!    Berge's theorem — the same argument the Hopcroft–Karp certificate
//!    uses — so its cardinality equals a from-scratch
//!    [`super::break_fa`]/[`super::first_available`]/Hopcroft–Karp run.
//! 3. **Budget** — if the deficit after filtering exceeds the repair budget
//!    (traffic too incoherent for repair to pay off), or the augmentation
//!    loop runs past it, the call reports [`None`] and the caller falls back
//!    to the from-scratch scheduler.
//!
//! Per-wavelength request *counts* make this a capacitated b-matching, but
//! requests on one wavelength are interchangeable (they share an adjacency
//! set), so BFS over the `k` wavelengths — not over expanded request
//! vertices — is equivalent and keeps a repair round at `O(dk)`.
//!
//! ## Word-parallel layout
//!
//! A coherent slot changes about one arrival and one departure per fiber,
//! so nearly all of a repair is bookkeeping over the `k` channels. It runs
//! over `u64` bitsets in the [`ChannelMask`] layout (bit `i % 64` of word
//! `i / 64` stands for channel or wavelength `i`):
//!
//! * the survivor filter builds the set of held channels in one
//!   branch-free pass, drops the held channels that are no longer free
//!   together, and runs the per-wavelength checks on the held-and-free bits
//!   only;
//! * the churn gate's capped deficit is `Σ min(count, d)` less the
//!   survivors, and its free-channel supply a popcount of the free, unowned
//!   channels; each augmenting path lowers both by one, so the search stops
//!   when either reaches zero, and the seed set (the wavelengths with an
//!   ungranted request) is built, in one branch-free pass, only when a
//!   search runs;
//! * before each BFS round the set of channels reachable from the seeds
//!   along alternating paths grows one layer at a time, each layer the
//!   conversion-window dilation of the wavelength frontier. If it never
//!   touches a free unowned channel no augmenting path exists, and the
//!   round, which would only prove maximality, is skipped;
//! * the ordered BFS runs only when a path exists, in the scalar search's
//!   order, so it applies the same augmenting path;
//! * the schedule is emitted from the owned-channel bitset.
//!
//! The result is bit-for-bit the scalar repair's, which the tests keep as
//! their oracle.

use std::collections::VecDeque;

use wdm_attr::hot_path;

use crate::arena::ScratchArena;
use crate::conversion::Conversion;
use crate::error::Error;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

use super::Assignment;

/// Bits per bitset word (the [`ChannelMask`] layout).
const WORD_BITS: usize = 64;

/// Default augmentation budget used by
/// [`crate::FiberScheduler::schedule_slot`]: repairs needing more
/// augmenting paths than this fall back to the from-scratch scheduler.
///
/// On coherent traffic the number of augmentations per slot is about the
/// number of *new* arrivals since the previous slot (each departure only
/// removes a survivor; each arrival adds at most one augmenting path), so a
/// small constant covers the steady state while keeping the worst-case
/// repair cost at `O(dk)` times a constant.
pub const DEFAULT_REPAIR_BUDGET: usize = 8;

/// Scalar outcome of a successful matching repair.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Previous-slot grants that survived the filter (still-valid matches).
    pub survivors: usize,
    /// Augmenting paths applied to restore maximality.
    pub augmentations: usize,
    /// Total grants in the repaired matching (`survivors + augmentations`).
    pub granted: usize,
}

/// The repair's bitsets, `⌈k / 64⌉` words each, kept in [`ScratchArena`] so
/// a repair never allocates. Every buffer is overwritten before it is read.
#[derive(Debug, Clone, Default)]
pub(crate) struct RepairWords {
    /// Channels granted in the matching being repaired.
    owned: Vec<u64>,
    /// Wavelengths with an ungranted request: the BFS seeds.
    seeds: Vec<u64>,
    /// Wavelengths the current search has reached.
    visited: Vec<u64>,
    /// Wavelengths whose conversion windows the next layer covers.
    frontier: Vec<u64>,
    /// Channels the current search has reached.
    reached: Vec<u64>,
    /// The layer of channels being grown.
    layer: Vec<u64>,
    /// The dilation's shift operand.
    shifted: Vec<u64>,
}

impl RepairWords {
    /// Buffers with room for `k` channels or wavelengths.
    pub(crate) fn for_k(k: usize) -> RepairWords {
        let n = k.div_ceil(WORD_BITS);
        RepairWords {
            owned: Vec::with_capacity(n),
            seeds: Vec::with_capacity(n),
            visited: Vec::with_capacity(n),
            frontier: Vec::with_capacity(n),
            reached: Vec::with_capacity(n),
            layer: Vec::with_capacity(n),
            shifted: Vec::with_capacity(n),
        }
    }

    /// Sizes every buffer to `n` words.
    fn resize(&mut self, n: usize) {
        let RepairWords { owned, seeds, visited, frontier, reached, layer, shifted } = self;
        for words in [owned, seeds, visited, frontier, reached, layer, shifted] {
            words.resize(n, 0);
        }
    }
}

/// Repairs the previous slot's matching (`owner`) against this slot's
/// requests and channel availability, writing the repaired — and certified
/// maximum-cardinality — schedule into `out`.
///
/// `owner[u]` is the input wavelength granted output channel `u` in the
/// previous slot (`None` = channel was unassigned). On success the array is
/// updated in place to the repaired matching and `Some(outcome)` is
/// returned; the repaired cardinality equals what a from-scratch maximum
/// matching (Break-and-FA, First Available, Hopcroft–Karp) would grant,
/// though the per-wavelength channel choices may differ. `out` lists the
/// repaired matching in ascending channel order, so it equals `owner`.
///
/// Returns `Ok(None)` — leaving `out` empty and `owner` unspecified — when
/// the repair would exceed `budget` augmenting paths: the caller must fall
/// back to a from-scratch scheduler and refresh `owner` from its result.
///
/// Allocation-free at steady state: all working storage lives in `scratch`.
///
/// Paper: §V (scheduling under occupancy) + Berge's augmenting-path
/// characterization of maximum matchings, applied incrementally across the
/// slot-synchronous model of §II.
#[hot_path]
#[wdm_attr::allow_reach(
    panic_free,
    reason = "owner is length-checked against k at entry, every bitset holds ceil(k/64) words, and every index is a wavelength or channel < k by the survivor filter; the repaired schedule is certified against the reference matcher in debug builds"
)]
pub fn repair_schedule_into(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
    owner: &mut [Option<usize>],
    budget: usize,
    scratch: &mut ScratchArena,
    out: &mut Vec<Assignment>,
) -> Result<Option<RepairOutcome>, Error> {
    out.clear();
    conv.check_k(requests.k())?;
    conv.check_k(mask.k())?;
    let k = conv.k();
    if owner.len() != k {
        return Err(Error::LengthMismatch { expected: k, actual: owner.len() });
    }

    let free = mask.words();
    scratch.repair_words.resize(free.len());
    scratch.repair_matched.clear();
    scratch.repair_matched.resize(k, 0);
    scratch.repair_parent.resize(k, 0);
    scratch.repair_entry.resize(k, 0);
    let mut repair = Repair {
        reach: Reach::new(conv),
        counts: requests.counts(),
        free,
        owner,
        matched: &mut scratch.repair_matched,
        bits: &mut scratch.repair_words,
        parent: &mut scratch.repair_parent,
        entry: &mut scratch.repair_entry,
        queue: &mut scratch.queue,
    };

    // 1. Survivor filter: a previous grant stays iff its channel is still
    //    free, its wavelength still has an ungranted request, and it lies in
    //    the conversion range (always true for state produced by this
    //    module; checked so a stale caller-held array cannot corrupt the
    //    schedule). `lost` counts the grants that did not survive — a direct
    //    measure of how incoherent this slot is relative to the last one.
    let lost = repair.filter_survivors();
    let survivors: usize = repair.bits.owned.iter().map(|w| w.count_ones() as usize).sum();

    // 2. Churn gate: each augmenting path raises one deficient wavelength's
    //    grant count by one (a wavelength never holds more grants than its
    //    adjacency degree) *and* claims one free unowned channel, so the
    //    augmentations still needed are bounded by the smaller of the capped
    //    demand deficit and the free-channel supply. `lost` is added on top:
    //    a slot that dropped many survivors is incoherent even when the
    //    remaining augmentation count happens to be small, and each BFS
    //    round over the half-stale matching costs about as much as the
    //    from-scratch pass — repair only pays when the *whole* delta
    //    (departures and arrivals) is a handful. Incoherent slots therefore
    //    bail here in O(k) instead of burning BFS rounds first; a saturated
    //    coherent slot — high unmet demand but no free channels left and no
    //    departures — passes and repairs with zero augmentations. Every
    //    survivor lies in its wavelength's conversion window, so a
    //    wavelength holds at most `min(count, degree)` grants and the capped
    //    deficit is `Σ min(count, degree) − survivors`.
    let degree = conv.degree();
    let capped: usize = requests.counts().iter().map(|&count| count.min(degree)).sum();
    let mut deficit = capped - survivors;
    let mut free_unowned: usize =
        free.iter().zip(&repair.bits.owned).map(|(f, o)| (f & !o).count_ones() as usize).sum();
    if lost + deficit.min(free_unowned) > budget {
        return Ok(None);
    }

    // 3. Augment until maximum (Berge) or until the budget is exhausted.
    //    Each augmenting path lowers both the deficit and the free-channel
    //    supply by one, so none remains once either is zero; otherwise the
    //    word-level reachability check decides whether a path exists, and
    //    the ordered BFS runs only then, to pick and apply it.
    let mut augmentations = 0usize;
    if deficit > 0 && free_unowned > 0 {
        repair.find_seeds();
    }
    while deficit > 0 && free_unowned > 0 && repair.path_exists() {
        let Some((w, u)) = repair.search() else { break };
        repair.apply(w, u);
        deficit -= 1;
        free_unowned -= 1;
        augmentations += 1;
        if augmentations > budget {
            return Ok(None);
        }
    }

    // 4. Emit the repaired schedule in ascending channel order — the
    //    deterministic order the grant resolver and trace replay rely on.
    repair.emit(out);
    Ok(Some(RepairOutcome { survivors, augmentations, granted: out.len() }))
}

/// Whether `schedule`, a valid schedule of `requests` on `mask`'s free
/// channels, is a maximum matching: the repair's word-level reachability
/// check finds no augmenting path from a wavelength with an ungranted
/// request to a free unowned channel, so none exists (Berge).
///
/// Loads the schedule into arena buffers: the channel owners
/// (`ScratchArena::match_right`, written only at the channels `schedule`
/// grants — the check reads no other entry), the per-wavelength grant
/// counts (`repair_matched`) and the repair's bitsets (`repair_words`).
/// The BFS `queue` (`ScratchArena::queue`) completes the repair state the
/// check runs on; the check leaves it untouched. `O(k)` plus `O(log d)`
/// word passes per alternating layer.
#[allow(clippy::too_many_arguments)]
pub(super) fn is_maximum(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
    schedule: &[Assignment],
    owner: &mut Vec<Option<usize>>,
    matched: &mut Vec<usize>,
    bits: &mut RepairWords,
    queue: &mut VecDeque<usize>,
) -> bool {
    let k = conv.k();
    let free = mask.words();
    owner.resize(k, None);
    matched.clear();
    matched.resize(k, 0);
    bits.resize(free.len());
    bits.owned.fill(0);
    for a in schedule {
        let word = bits.owned.get_mut(a.output / WORD_BITS);
        if let (Some(slot), Some(m), Some(word)) =
            (owner.get_mut(a.output), matched.get_mut(a.input), word)
        {
            *slot = Some(a.input);
            *m += 1;
            *word |= 1 << (a.output % WORD_BITS);
        }
    }
    // The reachability check reads none of the ordered search's state.
    let mut repair = Repair {
        reach: Reach::new(conv),
        counts: requests.counts(),
        free,
        owner,
        matched,
        bits,
        parent: &mut [],
        entry: &mut [],
        queue,
    };
    repair.find_seeds();
    !repair.path_exists()
}

/// The bits of word `i` inside the inclusive channel window `[lo, hi]`, for
/// `lo / 64 <= i <= hi / 64`.
fn window_mask(i: usize, lo: usize, hi: usize) -> u64 {
    let base = i * WORD_BITS;
    (u64::MAX << lo.saturating_sub(base)) & (u64::MAX >> (base + WORD_BITS - 1).saturating_sub(hi))
}

/// The lowest channel of the window `[lo, hi]` whose bit is set in
/// `word(i)` for its word `i`.
fn first_in((lo, hi): (usize, usize), word: impl Fn(usize) -> u64) -> Option<usize> {
    (lo / WORD_BITS..=hi / WORD_BITS).find_map(|i| {
        let hit = word(i) & window_mask(i, lo, hi);
        (hit != 0).then(|| i * WORD_BITS + hit.trailing_zeros() as usize)
    })
}

/// `dst |= src << t` across words; bits shifted past the last word drop.
fn or_shl(dst: &mut [u64], src: &[u64], t: usize) {
    let (q, r) = (t / WORD_BITS, t % WORD_BITS);
    for i in q..dst.len() {
        let mut word = src[i - q] << r;
        if r != 0 && i > q {
            word |= src[i - q - 1] >> (WORD_BITS - r);
        }
        dst[i] |= word;
    }
}

/// `dst |= src >> t` across words; bits shifted below bit 0 drop.
fn or_shr(dst: &mut [u64], src: &[u64], t: usize) {
    let (q, r) = (t / WORD_BITS, t % WORD_BITS);
    let n = src.len();
    for i in 0..n.saturating_sub(q) {
        let mut word = src[i + q] >> r;
        if r != 0 && i + q + 1 < n {
            word |= src[i + q + 1] << (WORD_BITS - r);
        }
        dst[i] |= word;
    }
}

/// The conversion window in offset form: channel `u` is adjacent to
/// wavelength `w` iff `u − w ∈ [−e, f]`, taken mod `k` when circular.
#[derive(Debug, Clone, Copy)]
struct Reach {
    k: usize,
    e: usize,
    f: usize,
    circular: bool,
}

impl Reach {
    fn new(conv: &Conversion) -> Reach {
        Reach { k: conv.k(), e: conv.e(), f: conv.f(), circular: conv.is_circular() }
    }

    /// Whether wavelength `w` converts to channel `u`, both `< k`.
    fn converts(self, w: usize, u: usize) -> bool {
        if self.circular {
            // (u − w + e) mod k, reduced from [1, 3k) without a division.
            let mut t = u + self.k + self.e - w;
            t -= self.k * usize::from(t >= self.k);
            t -= self.k * usize::from(t >= self.k);
            t <= self.e + self.f
        } else {
            w <= u + self.e && u <= w + self.f
        }
    }

    /// The adjacency arc of wavelength `w` as ascending channel windows
    /// `(lo, hi)` in span order: a circular arc that wraps past `k − 1`
    /// continues in a second window from 0.
    fn arc(self, w: usize) -> ((usize, usize), Option<(usize, usize)>) {
        if !self.circular {
            return ((w.saturating_sub(self.e), (w + self.f).min(self.k - 1)), None);
        }
        let lo = if w >= self.e { w - self.e } else { w + self.k - self.e };
        let hi = lo + self.e + self.f;
        if hi < self.k {
            ((lo, hi), None)
        } else {
            ((lo, self.k - 1), Some((0, hi - self.k)))
        }
    }

    /// Replaces the wavelength set `x` by the channels adjacent to it: the
    /// union of `x` shifted by every offset in `[−e, f]`, rotated on the
    /// ring when circular. Spreading by `e` downwards and then by `f`
    /// upwards gives exactly that window, also where a non-circular shift
    /// drops bits at an end.
    fn dilate(self, x: &mut [u64], shifted: &mut [u64]) {
        self.spread(x, shifted, self.e, false);
        self.spread(x, shifted, self.f, true);
    }

    /// `x ← ⋃_{t ∈ [0, n]} (x shifted by t)`, upwards or downwards. Each
    /// step doubles the offsets covered, so a spread is `O(log n)` word
    /// passes.
    fn spread(self, x: &mut [u64], shifted: &mut [u64], n: usize, up: bool) {
        let padding = x.len() * WORD_BITS - self.k;
        let mut covered = 1;
        while covered <= n {
            let step = covered.min(n + 1 - covered);
            shifted.copy_from_slice(x);
            // On the ring, the bits a shift by `step` pushes past one end
            // come back by the opposite shift of `k − step`.
            if up {
                or_shl(x, shifted, step);
                if self.circular {
                    or_shr(x, shifted, self.k - step);
                }
            } else {
                or_shr(x, shifted, step);
                if self.circular {
                    or_shl(x, shifted, self.k - step);
                }
            }
            if let Some(last) = x.last_mut() {
                *last &= u64::MAX >> padding;
            }
            covered += step;
        }
    }
}

/// One repair call: the slot's instance, the matching being repaired, and
/// the arena buffers it works in.
struct Repair<'a> {
    reach: Reach,
    counts: &'a [usize],
    free: &'a [u64],
    owner: &'a mut [Option<usize>],
    /// Granted channels per wavelength.
    matched: &'a mut [usize],
    bits: &'a mut RepairWords,
    /// BFS predecessor of each visited wavelength (itself for a seed).
    parent: &'a mut [usize],
    /// The channel through which the predecessor reached each visited
    /// wavelength: the one it takes over on augmentation.
    entry: &'a mut [usize],
    queue: &'a mut VecDeque<usize>,
}

impl Repair<'_> {
    /// The survivor filter: clears every stale `owner` entry, leaves the
    /// surviving grants in `bits.owned` and their counts in `matched`, and
    /// returns the number of grants lost. Grants of one wavelength survive
    /// in ascending channel order up to its request count.
    fn filter_survivors(&mut self) -> usize {
        let k = self.reach.k;
        let (counts, matched) = (&self.counts[..k], &mut self.matched[..k]);
        let mut lost = 0;
        let words = self.owner.chunks_mut(WORD_BITS).zip(self.bits.owned.iter_mut());
        for (i, (slots, owned)) in words.enumerate() {
            let held = slots
                .iter()
                .enumerate()
                .fold(0u64, |acc, (b, slot)| acc | (u64::from(slot.is_some()) << b));
            let mut gone = held & !self.free[i];
            lost += gone.count_ones() as usize;
            while gone != 0 {
                slots[gone.trailing_zeros() as usize] = None;
                gone &= gone - 1;
            }
            let mut kept = held & self.free[i];
            let mut live = kept;
            while live != 0 {
                let b = live.trailing_zeros() as usize;
                live &= live - 1;
                match slots[b] {
                    Some(w)
                        if w < k
                            && matched[w] < counts[w]
                            && self.reach.converts(w, i * WORD_BITS + b) =>
                    {
                        matched[w] += 1;
                    }
                    _ => {
                        slots[b] = None;
                        kept &= !(1 << b);
                        lost += 1;
                    }
                }
            }
            *owned = kept;
        }
        lost
    }

    /// Writes the seed set, the wavelengths with `matched < count`, into
    /// `bits.seeds` in one branch-free pass.
    fn find_seeds(&mut self) {
        let words = self.bits.seeds.iter_mut().zip(self.counts.chunks(WORD_BITS));
        for ((seeds, counts), matched) in words.zip(self.matched.chunks(WORD_BITS)) {
            *seeds = counts
                .iter()
                .zip(matched)
                .enumerate()
                .fold(0, |word, (b, (&count, &m))| word | (u64::from(m < count) << b));
        }
    }

    /// Whether an augmenting path exists, decided in words: grows the set
    /// of wavelengths and channels reachable from the seeds along
    /// alternating paths one layer at a time, and reports whether it
    /// touches a free unowned channel. Writes only the search bitsets.
    fn path_exists(&mut self) -> bool {
        let RepairWords { owned, seeds, visited, frontier, reached, layer, shifted } =
            &mut *self.bits;
        frontier.copy_from_slice(seeds);
        visited.copy_from_slice(seeds);
        reached.fill(0);
        while frontier.iter().any(|&w| w != 0) {
            // The next channels: the frontier's conversion windows, kept
            // when free and not yet reached.
            layer.copy_from_slice(frontier);
            self.reach.dilate(layer, shifted);
            let mut open = 0;
            for (i, word) in layer.iter_mut().enumerate() {
                *word &= self.free[i] & !reached[i];
                reached[i] |= *word;
                open |= *word & !owned[i];
            }
            if open != 0 {
                return true;
            }
            // The next frontier: the unvisited wavelengths holding them.
            frontier.fill(0);
            for (i, &word) in layer.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let u = i * WORD_BITS + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if let Some(h) = self.owner[u] {
                        frontier[h / WORD_BITS] |= 1 << (h % WORD_BITS);
                    }
                }
            }
            for (next, seen) in frontier.iter_mut().zip(visited.iter_mut()) {
                *next &= !*seen;
                *seen |= *next;
            }
        }
        false
    }

    /// One ordered multi-source BFS round, in the scalar search's order —
    /// seeds ascending, first in first out, each wavelength's arc in span
    /// order from `w − e`, the first free unowned channel winning — with
    /// each window read as a bitmask. Returns the wavelength that reached a
    /// free unowned channel and the channel, the end of the augmenting path
    /// the scalar search applies (`None` = the matching is maximum, by
    /// Berge).
    fn search(&mut self) -> Option<(usize, usize)> {
        let bits = &mut *self.bits;
        bits.visited.copy_from_slice(&bits.seeds);
        self.queue.clear();
        for (i, &word) in bits.seeds.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let s = i * WORD_BITS + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                self.parent[s] = s;
                self.queue.push_back(s);
            }
        }
        let (free, owned) = (self.free, &bits.owned);
        while let Some(w) = self.queue.pop_front() {
            let (head, tail) = self.reach.arc(w);
            let open = |i: usize| free[i] & !owned[i];
            if let Some(u) = first_in(head, open).or_else(|| tail.and_then(|t| first_in(t, open))) {
                return Some((w, u));
            }
            // No free unowned channel in the arc: the holder of each free
            // channel in it could hand that channel to `w`.
            for (lo, hi) in std::iter::once(head).chain(tail) {
                for i in lo / WORD_BITS..=hi / WORD_BITS {
                    let mut held = free[i] & owned[i] & window_mask(i, lo, hi);
                    while held != 0 {
                        let u = i * WORD_BITS + held.trailing_zeros() as usize;
                        held &= held - 1;
                        if let Some(h) = self.owner[u] {
                            let bit = 1 << (h % WORD_BITS);
                            if bits.visited[h / WORD_BITS] & bit == 0 {
                                bits.visited[h / WORD_BITS] |= bit;
                                self.parent[h] = w;
                                self.entry[h] = u;
                                self.queue.push_back(h);
                            }
                        }
                    }
                }
            }
        }
        None
    }

    /// Applies the augmenting path ending at free unowned channel `take`,
    /// found from wavelength `w`: walking the parent chain back to the
    /// seed, each wavelength hands its entry channel to its parent and
    /// takes the next one.
    fn apply(&mut self, mut w: usize, mut take: usize) {
        self.bits.owned[take / WORD_BITS] |= 1 << (take % WORD_BITS);
        loop {
            self.owner[take] = Some(w);
            if self.parent[w] == w {
                self.matched[w] += 1;
                if self.matched[w] >= self.counts[w] {
                    self.bits.seeds[w / WORD_BITS] &= !(1 << (w % WORD_BITS));
                }
                return;
            }
            take = self.entry[w];
            w = self.parent[w];
        }
    }

    /// Writes the matching to `out` in ascending channel order.
    fn emit(&self, out: &mut Vec<Assignment>) {
        for (i, &word) in self.bits.owned.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let u = i * WORD_BITS + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if let Some(w) = self.owner[u] {
                    out.push(Assignment { input: w, output: u });
                }
            }
        }
    }
}

/// The scalar repair the word-parallel one replaced, kept verbatim as the
/// test oracle: [`repair_schedule_into`] must return the same outcome and
/// schedule on every input, and leave the same `owner` array whenever it
/// repairs.
#[cfg(test)]
mod reference {
    use super::*;

    /// BFS parent sentinel: wavelength not yet visited in this round.
    const UNVISITED: usize = usize::MAX;

    /// The scalar [`super::repair_schedule_into`].
    pub(super) fn repair_schedule_into(
        conv: &Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
        owner: &mut [Option<usize>],
        budget: usize,
        scratch: &mut ScratchArena,
        out: &mut Vec<Assignment>,
    ) -> Result<Option<RepairOutcome>, Error> {
        out.clear();
        conv.check_k(requests.k())?;
        conv.check_k(mask.k())?;
        let k = conv.k();
        if owner.len() != k {
            return Err(Error::LengthMismatch { expected: k, actual: owner.len() });
        }

        let matched = &mut scratch.repair_matched;
        matched.clear();
        matched.resize(k, 0);

        // 1. Survivor filter: a previous grant stays iff its channel is still
        //    free, its wavelength still has an ungranted request, and it lies in
        //    the conversion range (always true for state produced by this
        //    module; checked so a stale caller-held array cannot corrupt the
        //    schedule). `lost` counts the grants that did not survive — a direct
        //    measure of how incoherent this slot is relative to the last one.
        let mut survivors = 0usize;
        let mut lost = 0usize;
        for (u, slot) in owner.iter_mut().enumerate() {
            if let Some(w) = *slot {
                if w < k && mask.is_free(u) && matched[w] < requests.count(w) && conv.converts(w, u)
                {
                    matched[w] += 1;
                    survivors += 1;
                } else {
                    *slot = None;
                    lost += 1;
                }
            }
        }

        // 2. Churn gate: each augmenting path raises one deficient wavelength's
        //    grant count by one (a wavelength never holds more grants than its
        //    adjacency degree) *and* claims one free unowned channel, so the
        //    augmentations still needed are bounded by the smaller of the capped
        //    demand deficit and the free-channel supply. `lost` is added on top:
        //    a slot that dropped many survivors is incoherent even when the
        //    remaining augmentation count happens to be small, and each BFS
        //    round over the half-stale matching costs about as much as the
        //    from-scratch pass — repair only pays when the *whole* delta
        //    (departures and arrivals) is a handful. Incoherent slots therefore
        //    bail here in O(k) instead of burning BFS rounds first; a saturated
        //    coherent slot — high unmet demand but no free channels left and no
        //    departures — passes and repairs with zero augmentations.
        let degree = conv.degree();
        let mut deficit = 0usize;
        for (w, &m) in matched.iter().enumerate() {
            deficit += requests.count(w).min(degree).saturating_sub(m);
        }
        let mut free_unowned = 0usize;
        for (u, o) in owner.iter().enumerate() {
            if o.is_none() && mask.is_free(u) {
                free_unowned += 1;
            }
        }
        if lost + deficit.min(free_unowned) > budget {
            return Ok(None);
        }

        // 3. Augment until maximum (Berge) or until the budget is exhausted.
        let parent = &mut scratch.repair_parent;
        let entry = &mut scratch.repair_entry;
        parent.clear();
        parent.resize(k, UNVISITED);
        entry.clear();
        entry.resize(k, 0);
        let mut augmentations = 0usize;
        while bfs_augment(conv, requests, mask, owner, matched, parent, entry, &mut scratch.queue) {
            augmentations += 1;
            if augmentations > budget {
                return Ok(None);
            }
        }

        // 4. Emit the repaired schedule in ascending channel order — the
        //    deterministic order the grant resolver and trace replay rely on.
        for (u, &o) in owner.iter().enumerate() {
            if let Some(w) = o {
                out.push(Assignment { input: w, output: u });
            }
        }
        Ok(Some(RepairOutcome { survivors, augmentations, granted: out.len() }))
    }

    /// One multi-source BFS round: finds a single augmenting path from any
    /// deficient wavelength to a free unowned channel and applies it. Returns
    /// whether a path was found (`false` = the matching is maximum, by Berge).
    #[allow(clippy::too_many_arguments)]
    fn bfs_augment(
        conv: &Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
        owner: &mut [Option<usize>],
        matched: &mut [usize],
        parent: &mut [usize],
        entry: &mut [usize],
        queue: &mut std::collections::VecDeque<usize>,
    ) -> bool {
        let k = conv.k();
        parent.fill(UNVISITED);
        queue.clear();
        // Seeds: wavelengths with an ungranted request (a seed is its own
        // parent). Ascending order keeps the search deterministic.
        for w in 0..k {
            if matched[w] < requests.count(w) {
                parent[w] = w;
                queue.push_back(w);
            }
        }
        while let Some(w) = queue.pop_front() {
            for u in conv.adjacency(w).iter(k) {
                if !mask.is_free(u) {
                    continue;
                }
                match owner[u] {
                    None => {
                        // Free unowned channel: walk the parent chain back to
                        // the seed, each wavelength handing its old channel to
                        // its parent and taking the next one.
                        let mut wv = w;
                        let mut take = u;
                        loop {
                            owner[take] = Some(wv);
                            if parent[wv] == wv {
                                matched[wv] += 1;
                                return true;
                            }
                            take = entry[wv];
                            wv = parent[wv];
                        }
                    }
                    Some(holder) => {
                        // Channel already granted: its holder could release it
                        // (to `w`) if the holder finds another channel — the
                        // alternating-path step.
                        if parent[holder] == UNVISITED {
                            parent[holder] = w;
                            entry[holder] = u;
                            queue.push_back(holder);
                        }
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use crate::algorithms::{validate_assignments, Matcher};
    use crate::graph::RequestGraph;
    use crate::FiberScheduler;
    use crate::Policy;

    fn owners_from(schedule: &[Assignment], k: usize) -> Vec<Option<usize>> {
        let mut owner = vec![None; k];
        for a in schedule {
            owner[a.output] = Some(a.input);
        }
        owner
    }

    fn optimal(conv: &Conversion, rv: &RequestVector, mask: &ChannelMask) -> usize {
        let graph = RequestGraph::with_mask(*conv, rv, mask).unwrap();
        crate::algorithms::kuhn(&graph).size()
    }

    #[test]
    fn repair_from_empty_matches_cold_schedule() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let mask = ChannelMask::all_free(6);
        let mut owner = vec![None; 6];
        let mut scratch = ScratchArena::for_k(6);
        let mut out = Vec::new();
        let outcome =
            repair_schedule_into(&conv, &rv, &mask, &mut owner, 16, &mut scratch, &mut out)
                .unwrap()
                .unwrap();
        assert_eq!(outcome.survivors, 0);
        assert_eq!(outcome.granted, 6, "paper Fig. 3: maximum matching grants 6 of 7");
        validate_assignments(&conv, &rv, &mask, &out).unwrap();
        crate::verify::certify_assignments(&conv, &rv, &mask, &out).unwrap();
    }

    #[test]
    fn coherent_slot_repairs_with_few_augmentations() {
        let conv = Conversion::symmetric_circular(8, 3).unwrap();
        let rv = RequestVector::from_counts(vec![1, 1, 0, 1, 1, 0, 1, 1]).unwrap();
        let mask = ChannelMask::all_free(8);
        let cold = FiberScheduler::new(conv, Policy::BreakFirstAvailable)
            .schedule_with_mask(&rv, &mask)
            .unwrap();
        let mut owner = owners_from(cold.assignments(), 8);

        // Next slot: one departure (wavelength 3), one arrival (wavelength
        // 2), one channel newly occupied by a hold.
        let rv2 = RequestVector::from_counts(vec![1, 1, 1, 0, 1, 0, 1, 1]).unwrap();
        let mask2 = ChannelMask::with_occupied(8, &[7]).unwrap();
        let mut scratch = ScratchArena::for_k(8);
        let mut out = Vec::new();
        let outcome =
            repair_schedule_into(&conv, &rv2, &mask2, &mut owner, 8, &mut scratch, &mut out)
                .unwrap()
                .unwrap();
        assert!(outcome.survivors >= 4, "most grants survive a one-flow delta");
        assert!(outcome.augmentations <= 3);
        assert_eq!(outcome.granted, optimal(&conv, &rv2, &mask2));
        validate_assignments(&conv, &rv2, &mask2, &out).unwrap();
        crate::verify::certify_assignments(&conv, &rv2, &mask2, &out).unwrap();
    }

    #[test]
    fn budget_exceeded_falls_back() {
        // Empty warm state and 12 fresh requests: deficit far above budget.
        let conv = Conversion::symmetric_circular(12, 3).unwrap();
        let rv = RequestVector::from_counts(vec![1; 12]).unwrap();
        let mask = ChannelMask::all_free(12);
        let mut owner = vec![None; 12];
        let mut scratch = ScratchArena::for_k(12);
        let mut out = Vec::new();
        let outcome =
            repair_schedule_into(&conv, &rv, &mask, &mut owner, 2, &mut scratch, &mut out).unwrap();
        assert!(outcome.is_none());
        assert!(out.is_empty());
    }

    #[test]
    fn stale_owner_entries_are_filtered() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![1, 0, 0, 0, 0, 0]).unwrap();
        let mask = ChannelMask::with_occupied(6, &[5]).unwrap();
        // Stale state: grant on an occupied channel, grant for a wavelength
        // with no request, out-of-range grant.
        let mut owner = vec![None; 6];
        owner[5] = Some(0); // channel now occupied
        owner[2] = Some(1); // wavelength 1 no longer requests
        owner[3] = Some(3); // out of conversion range? 3 -> 3 is in range; use count 0
        let mut scratch = ScratchArena::for_k(6);
        let mut out = Vec::new();
        let outcome =
            repair_schedule_into(&conv, &rv, &mask, &mut owner, 8, &mut scratch, &mut out)
                .unwrap()
                .unwrap();
        assert_eq!(outcome.survivors, 0);
        assert_eq!(outcome.granted, 1);
        validate_assignments(&conv, &rv, &mask, &out).unwrap();
    }

    #[test]
    fn repaired_schedule_certifies_as_maximum() {
        let conv = Conversion::circular(10, 2, 1).unwrap();
        let rv = RequestVector::from_counts(vec![2, 0, 1, 1, 0, 0, 3, 0, 1, 1]).unwrap();
        let mask = ChannelMask::with_occupied(10, &[2, 8]).unwrap();
        let seed = FiberScheduler::new(conv, Policy::BreakFirstAvailable)
            .schedule_with_mask(&rv, &ChannelMask::all_free(10))
            .unwrap();
        let mut owner = owners_from(seed.assignments(), 10);
        let mut scratch = ScratchArena::for_k(10);
        let mut out = Vec::new();
        let outcome =
            repair_schedule_into(&conv, &rv, &mask, &mut owner, 8, &mut scratch, &mut out).unwrap();
        assert_eq!(outcome.map(|o| o.granted), Some(out.len()), "the repair stays within budget");
        crate::verify::certify(&conv, &rv, &mask, &out, None).unwrap();
        assert_eq!(owner, owners_from(&out, 10), "owner holds the repaired matching");
    }

    #[test]
    fn wrong_dimensions_rejected() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::new(6);
        let mask = ChannelMask::all_free(6);
        let mut scratch = ScratchArena::new();
        let mut out = Vec::new();
        let mut short_owner = vec![None; 5];
        assert!(matches!(
            repair_schedule_into(&conv, &rv, &mask, &mut short_owner, 8, &mut scratch, &mut out),
            Err(Error::LengthMismatch { expected: 6, actual: 5 })
        ));
        let rv5 = RequestVector::new(5);
        let mut owner = vec![None; 6];
        assert!(repair_schedule_into(&conv, &rv5, &mask, &mut owner, 8, &mut scratch, &mut out)
            .is_err());
    }

    /// Channel `b + off` on a ring of `k`.
    fn at(k: usize, b: usize, off: isize) -> usize {
        (b as isize + off).rem_euclid(k as isize) as usize
    }

    /// Runs the word-parallel repair and the reference on the same input
    /// and asserts they agree on the result, the schedule, and the owner
    /// array. Returns the result, the repaired owner array, and the arena
    /// the word-parallel repair ran in, its BFS queue preloaded with a
    /// sentinel that only an ordered BFS round clears.
    fn repair_both(
        conv: &Conversion,
        rv: &RequestVector,
        mask: &ChannelMask,
        owner: &[Option<usize>],
    ) -> (Option<RepairOutcome>, Vec<Option<usize>>, ScratchArena) {
        let (mut expected_owner, mut expected_out) = (owner.to_vec(), Vec::new());
        let expected = reference::repair_schedule_into(
            conv,
            rv,
            mask,
            &mut expected_owner,
            DEFAULT_REPAIR_BUDGET,
            &mut ScratchArena::new(),
            &mut expected_out,
        )
        .unwrap();
        let mut scratch = ScratchArena::for_k(conv.k());
        scratch.queue.push_back(usize::MAX);
        let (mut got_owner, mut out) = (owner.to_vec(), Vec::new());
        let got = repair_schedule_into(
            conv,
            rv,
            mask,
            &mut got_owner,
            DEFAULT_REPAIR_BUDGET,
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(got, expected);
        assert_eq!(out, expected_out);
        assert_eq!(got_owner, expected_owner);
        (got, got_owner, scratch)
    }

    /// A saturated run of channels around `b`: wavelength `b − 1` (three
    /// requests) holds `b − 2 ..= b`, wavelength `b` (two requests) holds
    /// `b + 1`, and the run is walled in by occupied channels `b − 3` and
    /// `b + 2`, so `b`'s second request has no augmenting path although
    /// free unowned channels remain elsewhere.
    fn contended(
        k: usize,
        b: usize,
    ) -> (Conversion, RequestVector, ChannelMask, Vec<Option<usize>>) {
        let conv = Conversion::circular(k, 1, 1).unwrap();
        let mut counts = vec![0; k];
        counts[at(k, b, -1)] = 3;
        counts[b] = 2;
        let mask = ChannelMask::with_occupied(k, &[at(k, b, -3), at(k, b, 2)]).unwrap();
        let mut owner = vec![None; k];
        for off in -2..=0 {
            owner[at(k, b, off)] = Some(at(k, b, -1));
        }
        owner[at(k, b, 1)] = Some(b);
        (conv, RequestVector::from_counts(counts).unwrap(), mask, owner)
    }

    /// (a) A deficient wavelength with no augmenting path repairs with zero
    /// augmentations, the word-level check skipping the BFS round: at the
    /// ring seam on `k = 8`, and across the 63/64 word boundary and the
    /// 129/0 seam on `k = 130`.
    #[test]
    fn contended_slot_without_a_path_skips_the_bfs() {
        for (k, b) in [(8, 0), (130, 64), (130, 0)] {
            let (conv, rv, mask, owner) = contended(k, b);
            let (outcome, repaired, scratch) = repair_both(&conv, &rv, &mask, &owner);
            assert_eq!(
                outcome,
                Some(RepairOutcome { survivors: 4, augmentations: 0, granted: 4 }),
                "k = {k}, b = {b}"
            );
            assert_eq!(repaired, owner, "k = {k}, b = {b}: nothing moves");
            assert!(
                scratch.queue.iter().eq([usize::MAX].iter()),
                "k = {k}, b = {b}: no BFS round ran"
            );
        }
    }

    /// (b) The only augmenting path crosses channel boundary `b − 1 | b`
    /// through two alternating hops: seed `b − 2` takes `b − 1` from
    /// wavelength `b − 1`, which takes `b` from wavelength `b`, which takes
    /// the free channel `b + 1`. At the ring seam on `k = 8`, and (c) across
    /// the 63/64 word boundary and the 129/0 seam on `k = 130`.
    #[test]
    fn only_path_across_a_boundary_is_applied_exactly() {
        for (k, b) in [(8, 0), (130, 64), (130, 0)] {
            let conv = Conversion::circular(k, 1, 1).unwrap();
            let (s, h1) = (at(k, b, -2), at(k, b, -1));
            let mut counts = vec![0; k];
            counts[s] = 2;
            counts[h1] = 1;
            counts[b] = 1;
            let free = [s, h1, b, at(k, b, 1)];
            let occupied: Vec<usize> = (0..k).filter(|u| !free.contains(u)).collect();
            let mask = ChannelMask::with_occupied(k, &occupied).unwrap();
            let mut owner = vec![None; k];
            owner[s] = Some(s);
            owner[h1] = Some(h1);
            owner[b] = Some(b);

            let rv = RequestVector::from_counts(counts).unwrap();
            let (outcome, repaired, _) = repair_both(&conv, &rv, &mask, &owner);
            assert_eq!(
                outcome,
                Some(RepairOutcome { survivors: 3, augmentations: 1, granted: 4 }),
                "k = {k}, b = {b}"
            );
            let mut expected = vec![None; k];
            expected[s] = Some(s);
            expected[h1] = Some(s);
            expected[b] = Some(h1);
            expected[at(k, b, 1)] = Some(b);
            assert_eq!(repaired, expected, "k = {k}, b = {b}");
        }
    }

    /// One repair input: a conversion, this slot's requests and mask, the
    /// previous slot's maximum matching with stale entries mixed in, and a
    /// budget.
    #[derive(Debug, Clone)]
    struct Case {
        conv: Conversion,
        counts: Vec<usize>,
        free: Vec<bool>,
        owner: Vec<Option<usize>>,
        budget: usize,
    }

    /// Circular, non-circular and full-range conversion for `k = 1..=130`
    /// (one to three mask words, `k % 64 ≠ 0` included), with the reach
    /// cut to at most 3 a side half the time.
    fn conversion() -> impl Strategy<Value = Conversion> {
        (1usize..=130, 0usize..3).prop_flat_map(|(k, kind)| {
            (Just(k), Just(kind), 0..k, 0..k, proptest::bool::ANY)
                .prop_filter("degree <= k", |&(k, _, e, f, _)| e + f < k)
                .prop_map(|(k, kind, e, f, narrow)| {
                    let (e, f) = if narrow { (e % 4, f % 4) } else { (e, f) };
                    match kind {
                        0 => Conversion::circular(k, e, f),
                        1 => Conversion::non_circular(k, e, f),
                        _ => Conversion::full(k),
                    }
                    .unwrap()
                })
        })
    }

    /// A previous slot (counts `0..=d+2`, random mask) scheduled from
    /// scratch, then up to 3/64 of its counts redrawn and of its channels
    /// flipped. About 1/64 of the owner entries are cleared and 1/64 set
    /// to a random wavelength in `0..k+3`, so the array holds wavelengths
    /// `>= k`, grants on occupied channels, non-convertible pairs, and more
    /// grants than requests.
    fn case() -> impl Strategy<Value = Case> {
        conversion()
            .prop_flat_map(|conv| {
                let (k, d) = (conv.k(), conv.degree());
                (
                    Just(conv),
                    (vec(0..=d + 2, k), vec(proptest::bool::weighted(0.8), k)),
                    (0usize..4, vec((0usize..64, 0..=d + 2, 0usize..64), k)),
                    vec((0usize..64, 0..k + 3), k),
                    0usize..=12,
                )
            })
            .prop_map(|(conv, (mut counts, mut free), (churn, deltas), stale, budget)| {
                let k = conv.k();
                let previous = Policy::Auto
                    .schedule(
                        &conv,
                        &RequestVector::from_counts(counts.clone()).unwrap(),
                        &ChannelMask::from_flags(free.clone()).unwrap(),
                    )
                    .unwrap();
                let mut owner = owners_from(&previous, k);
                for (slot, (pick, w)) in owner.iter_mut().zip(stale) {
                    match pick {
                        0 => *slot = None,
                        1 => *slot = Some(w),
                        _ => {}
                    }
                }
                for (w, (recount, count, flip)) in deltas.into_iter().enumerate() {
                    if recount < churn {
                        counts[w] = count;
                    }
                    if flip < churn {
                        free[w] = !free[w];
                    }
                }
                Case { conv, counts, free, owner, budget }
            })
    }

    /// Proptest sample size, shrunk under Miri (same convention as the
    /// other differential batteries).
    fn cases(native: u32) -> ProptestConfig {
        ProptestConfig::with_cases(if cfg!(miri) { 16 } else { native })
    }

    proptest! {
        #![proptest_config(cases(1000))]

        /// The word-parallel repair is bit-identical to the scalar
        /// reference: the same outcome and schedule on every input, the
        /// same owner array whenever it repairs, and no dependence on what
        /// earlier calls left in the arena.
        #[test]
        fn word_parallel_repair_is_bit_identical_to_the_reference(c in case()) {
            let rv = RequestVector::from_counts(c.counts.clone()).unwrap();
            let mask = ChannelMask::from_flags(c.free.clone()).unwrap();
            let mut arena = ScratchArena::new();
            let (mut expected_owner, mut expected_out) = (c.owner.clone(), Vec::new());
            let expected = reference::repair_schedule_into(
                &c.conv, &rv, &mask, &mut expected_owner, c.budget, &mut arena, &mut expected_out,
            );
            // First over the arena the reference left, then over the one
            // this repair left.
            for _ in 0..2 {
                let mut owner = c.owner.clone();
                let mut out = vec![Assignment { input: 0, output: 0 }];
                let got = repair_schedule_into(
                    &c.conv, &rv, &mask, &mut owner, c.budget, &mut arena, &mut out,
                );
                prop_assert_eq!(&got, &expected);
                prop_assert_eq!(&out, &expected_out);
                if matches!(got, Ok(Some(_))) {
                    prop_assert_eq!(&owner, &expected_owner);
                }
            }
        }
    }
}
