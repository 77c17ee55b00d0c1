//! The Break and First Available Algorithm (paper Table 3, Theorem 2).
//!
//! Under circular symmetrical conversion the request graph is *circular*
//! convex — adjacency sets are arcs of the wavelength ring — and First
//! Available does not directly apply. The paper's remedy:
//!
//! 1. pick any request `a_i` (Lemma 4: at least one of its incident edges
//!    belongs to some crossing-free maximum matching);
//! 2. for each free channel `b_u` adjacent to `a_i`, *break* the graph at
//!    `a_i b_u` — delete both endpoints and every edge crossing the breaking
//!    edge — producing a convex reduced graph (Lemma 2);
//! 3. run First Available on each reduced graph (`O(k)` each);
//! 4. return the largest result plus its breaking edge (Lemma 3).
//!
//! Total: `O(dk)`, independent of the interconnect size `N`.
//!
//! Two implementations are provided: [`BreakFirstAvailable`] is the compact
//! production scheduler that never materializes a graph, and
//! [`break_fa_matching`] is the explicit reference version built from
//! [`crate::breaking::break_graph`]. The test suite checks both against the
//! Hopcroft–Karp/Kuhn oracles.

use crate::arena::{ScratchArena, ScratchItem};
use crate::breaking::break_graph;
use crate::conversion::{Conversion, ConversionKind};
use crate::error::Error;
use crate::graph::RequestGraph;
use crate::matching::Matching;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

use super::first_available::{first_available, ConvexInstance};
use super::full_range::FullRange;
use super::repair::is_maximum;
use super::{Assignment, Matcher};

/// Bits per bitset word (the [`ChannelMask`] layout).
const WORD_BITS: usize = 64;

/// The fewest unevaluated free breaking channels for which the break loop
/// checks a promoted incumbent for maximality. One check costs about as
/// much as one or two breaks and ends the loop on a quarter to three
/// quarters of its calls, so it pays only when it can skip about three
/// breaks (EXPERIMENTS.md E23); below `d = 4` it never runs.
const BERGE_MIN_AHEAD: usize = 3;

/// How the breaking vertex `a_i` is chosen. Any choice yields a maximum
/// matching (Lemma 4 holds for every vertex); the choice is exposed for the
/// ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakChoice {
    /// The first request in left order: the lowest-indexed wavelength with a
    /// pending request (the paper's presentation order).
    #[default]
    FirstRequest,
    /// The wavelength with the most pending requests.
    DensestWavelength,
}

/// The compact `O(dk)` Break and First Available scheduler for circular
/// conversion, breaking at the vertex its [`BreakChoice`] picks.
///
/// The `d` candidate schedules are evaluated in the scratch arena without
/// materializing a graph, and the winner (breaking edge included) is a
/// maximum matching (Theorem 2). Full-range conversion is dispatched to the
/// trivial [`FullRange`] scheduler; non-circular conversion is rejected (use
/// [`super::FirstAvailable`]).
///
/// ```
/// use wdm_core::{ChannelMask, Conversion, RequestVector};
/// use wdm_core::algorithms::{BreakFirstAvailable, Matcher};
///
/// let conv = Conversion::symmetric_circular(6, 3)?;
/// let requests = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2])?;
/// let bfa = BreakFirstAvailable::default();
/// let grants = bfa.schedule(&conv, &requests, &ChannelMask::all_free(6))?;
/// assert_eq!(grants.len(), 6); // the maximum matching of paper Fig. 4(a)
/// # Ok::<(), wdm_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakFirstAvailable(pub BreakChoice);

impl Matcher for BreakFirstAvailable {
    /// Paper: Theorem 2 (Break and First Available, Table 3; Lemmas 2–4).
    fn schedule_into(
        &self,
        conv: &Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
        scratch: &mut ScratchArena,
        out: &mut Vec<Assignment>,
    ) -> Result<Option<usize>, Error> {
        out.clear();
        conv.check_k(requests.k())?;
        conv.check_k(mask.k())?;
        if conv.is_full() {
            return FullRange.schedule_into(conv, requests, mask, scratch, out);
        }
        if conv.kind() != ConversionKind::Circular {
            return Err(Error::UnsupportedConversion {
                algorithm: "Break and First Available",
                requires: "circular conversion (use First Available for non-circular)",
            });
        }
        let Some(w_i) = choose_breaking_wavelength(conv, requests, mask, self.0) else {
            return Ok(None);
        };

        // The `d` break candidates share one set of per-slot tables: the
        // ascending free-channel list, its prefix counts, and the rotated
        // nonzero-request list. Each candidate re-derives its own rotation from
        // them by offset arithmetic instead of rebuilding O(k) state.
        build_break_tables(requests, mask, w_i, scratch);
        let ScratchArena {
            items,
            outputs,
            prefix,
            rot_requests,
            candidate,
            match_right,
            repair_matched,
            repair_words,
            queue,
            ..
        } = scratch;
        let tables = SlotTables {
            w_i,
            outputs: outputs.as_slice(),
            prefix: prefix.as_slice(),
            rot_requests: rot_requests.as_slice(),
        };

        // No candidate can exceed the breaking edge plus one grant per rotated
        // free channel or per pending request, whichever runs out first.
        let total_requests: usize = tables.rot_requests.iter().map(|&(_, c)| c).sum();
        let best_possible = total_requests.min(tables.outputs.len() - 1) + 1;

        // `out` holds the best schedule so far; `candidate` is the workspace of
        // the break currently being evaluated. Swapping the two vecs promotes a
        // better candidate without copying or allocating. The breaking channels
        // are `w_i`'s adjacency arc `w_i − e, …, w_i + f` in ring order; `ahead`
        // counts its free ones not yet evaluated.
        let d = conv.degree();
        let mut ahead = (0..d).filter(|&s| mask.is_free(arc_channel(conv, w_i, s))).count();
        let mut found = false;
        for s in 0..d {
            let u = arc_channel(conv, w_i, s);
            if !mask.is_free(u) {
                continue;
            }
            ahead -= 1;
            let beat = if found { Some(out.len()) } else { None };
            if single_break_shared(conv, &tables, items, s, beat, candidate) {
                candidate.push(Assignment { input: w_i, output: u });
                if !found || candidate.len() > out.len() {
                    std::mem::swap(out, candidate);
                    found = true;
                    // Promotion needs a strictly larger schedule, so once the
                    // incumbent is maximum no later break can replace it: stop
                    // at the counting bound, or when no augmenting path exists
                    // (Berge) and enough breaks remain for the check to pay.
                    if out.len() >= best_possible
                        || ahead >= BERGE_MIN_AHEAD
                            && is_maximum(
                                conv,
                                requests,
                                mask,
                                out,
                                match_right,
                                repair_matched,
                                repair_words,
                                queue,
                            )
                    {
                        break;
                    }
                }
            }
        }
        Ok(None)
    }
}

/// Picks the breaking wavelength: a wavelength with pending requests and at
/// least one free adjacent channel. Wavelengths with no free adjacent
/// channel are isolated on every copy and can never be matched, so they are
/// skipped. The free-adjacency probe is two word-masked window queries, not
/// a per-channel loop.
fn choose_breaking_wavelength(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
    choice: BreakChoice,
) -> Option<usize> {
    let eligible = requests.iter_nonzero().filter(|&(w, _)| conv.any_adjacent_free(w, mask));
    match choice {
        BreakChoice::FirstRequest => eligible.map(|(w, _)| w).next(),
        BreakChoice::DensestWavelength => eligible.max_by_key(|&(_, c)| c).map(|(w, _)| w),
    }
}

/// The channel at offset `s < d` of `w_i`'s adjacency arc: `w_i − e + s` on
/// the ring, reduced by conditional subtraction (the sum is below `3k`).
fn arc_channel(conv: &Conversion, w_i: usize, s: usize) -> usize {
    let k = conv.k();
    let mut u = w_i + k - conv.e() + s;
    u -= k * usize::from(u >= k);
    u -= k * usize::from(u >= k);
    u
}

/// Per-slot tables shared by every break candidate of one slot — built once
/// by [`build_break_tables`], read by [`single_break_shared`].
struct SlotTables<'a> {
    /// The breaking wavelength.
    w_i: usize,
    /// Free channels in ascending wavelength order.
    outputs: &'a [usize],
    /// `prefix[w]` = number of free channels with wavelength `< w`.
    prefix: &'a [usize],
    /// Nonzero-request `(wavelength, count)` pairs in rotated left order
    /// `w_i, w_i+1, …, w_i−1`, with the breaking copy of `w_i` removed.
    rot_requests: &'a [(usize, usize)],
}

/// Fills `scratch.outputs`/`scratch.prefix`/`scratch.rot_requests` with the
/// slot-wide tables of [`SlotTables`]. `O(k)` once per slot, allocation-free
/// at steady state.
///
/// The prefix counts come from one branch-free pass over the mask words.
/// The rotated request list walks a bitset of the nonzero counts (built in
/// one branch-free pass) with `trailing_zeros`, from `w_i` to the end and
/// then wrapped onto `0..w_i`, so only the pending wavelengths are visited.
fn build_break_tables(
    requests: &RequestVector,
    mask: &ChannelMask,
    w_i: usize,
    scratch: &mut ScratchArena,
) {
    mask.free_channels_into(&mut scratch.outputs);
    mask.free_prefix_counts_into(&mut scratch.prefix);
    let counts = requests.counts();
    let pending = &mut scratch.pending;
    pending.clear();
    pending.extend(counts.chunks(WORD_BITS).map(|chunk| {
        chunk.iter().enumerate().fold(0u64, |word, (b, &c)| word | (u64::from(c > 0) << b))
    }));
    let rot = &mut scratch.rot_requests;
    rot.clear();
    // Rotated left order: w_i, w_i+1, …, k−1, 0, …, w_i−1. The breaking
    // vertex is the first copy on w_i; the remaining copies stay (all
    // `After` the breaking vertex in left order). The word holding `w_i` is
    // read twice: its bits from `w_i` up first, the ones below `w_i` last.
    let split = w_i / WORD_BITS;
    let from = u64::MAX << (w_i % WORD_BITS);
    let upper = pending.iter().enumerate().skip(split);
    let lower = pending.iter().enumerate().take(split + 1);
    let walk = upper
        .map(|(i, &word)| (i, if i == split { word & from } else { word }))
        .chain(lower.map(|(i, &word)| (i, if i == split { word & !from } else { word })));
    for (i, word) in walk {
        let mut rest = word;
        while rest != 0 {
            let w = i * WORD_BITS + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let count = counts.get(w).copied().unwrap_or(0) - usize::from(w == w_i);
            if count > 0 {
                rot.push((w, count));
            }
        }
    }
}

/// Runs First Available on the reduced graph obtained by breaking at
/// `(tables.w_i, u)` — without the breaking edge itself — and writes the
/// granted assignments into `out`, returning `true`. The breaking channel
/// `u` is the one at offset `s` of `w_i`'s adjacency arc ([`arc_channel`]),
/// so the breaking edge's signed offset is `t = s − e`: it cuts `e + t = s`
/// channels below `u` and `f − t = d − 1 − s` above it.
///
/// The rotation for the break at `u` (channel order `u+1, …, u−1`, `u`
/// removed) is re-derived from the shared ascending tables by offset
/// arithmetic: with `c_u = prefix[u]` free channels below `u`, the rotated
/// prefix is `prefix[u+1+r] − prefix[u+1]` while `r` stays in the tail
/// `u+1..k` and wraps onto `prefix[r − tail]` after it, and the `p`-th
/// rotated free channel is `outputs[c_u+1+p]` (above `u`) or
/// `outputs[p − after]` (wrapped). Ring distances are reduced by
/// conditional subtraction (every operand is below `3k`), not `% k`.
///
/// First Available then runs as a merge over the items: by Lemma 2 their
/// begins and ends are both monotone, so the earliest-deadline active item
/// is always the first unfinished one, and item `j` takes the next
/// `min(remaining_j, end_j + 1 − start)` positions from
/// `start = max(cursor, begin_j)` — `O(items + grants)`, the grants copied
/// as at most two contiguous runs of `outputs`. Allocation-free at steady
/// state.
///
/// When `beat` is `Some(best)`, the candidate is abandoned (returning
/// `false`, `out` unspecified) as soon as its upper bound — grants so far
/// plus the requests and positions still unspent — can no longer
/// *strictly* exceed `best` with the breaking edge added. Since the caller
/// only promotes strictly larger candidates, abandonment never changes the
/// final schedule.
fn single_break_shared(
    conv: &Conversion,
    tables: &SlotTables<'_>,
    items: &mut Vec<ScratchItem>,
    s: usize,
    beat: Option<usize>,
    out: &mut Vec<Assignment>,
) -> bool {
    let k = conv.k();
    let d = conv.degree();
    let SlotTables { w_i, outputs, prefix, rot_requests } = *tables;
    let f_total = outputs.len();
    let u = arc_channel(conv, w_i, s);
    debug_assert!(s < d, "breaking offset inside the arc");
    debug_assert!(outputs.get(prefix[u]) == Some(&u), "breaking channel must be free");
    out.clear();

    // Rotated free-channel geometry for the break at `u`.
    let c_u = prefix[u];
    let after = f_total - c_u - 1;
    let tail = k - 1 - u;
    let base = prefix[u + 1];
    let rot_prefix = |r: usize| {
        if r <= tail {
            prefix[u + 1 + r] - base
        } else {
            (prefix[k] - base) + prefix[r - tail]
        }
    };
    // The breaking edge's reach below and above `u`: `e + t` and `f − t`.
    let (below, above) = (s, d - 1 - s);
    // The rotated start of a full adjacency `[w − e, w + f]` is
    // `(w + full) mod k`; `full ∈ [1, 2k)` keeps the sum below `3k`.
    let full = 2 * k - conv.e() - u - 1;

    items.clear();
    // Left vertices in the rotated order, pre-filtered to nonzero counts.
    // Each item's reduced span is derived directly in rotated coordinates
    // (position of channel `w` = `(w − u − 1) mod k`), specializing
    // [`crate::breaking::reduced_span`] case by case with the per-candidate
    // offsets hoisted; the debug assertion below pins the specialization to
    // the specification.
    let mut total = 0usize;
    for &(w, count) in rot_requests {
        let (r_start, len) = if w == w_i {
            // Remaining copies of `w_i` sit after the breaking vertex:
            // adjacency shrinks to `[u+1, w_i+f]`, rotated start 0.
            (0, above)
        } else {
            // Clockwise distance below w_i; `k − sm` is the distance above.
            // Both are ≥ 1 because `w ≠ w_i`.
            let mut sm = w_i + k - w;
            sm -= k * usize::from(sm >= k);
            if sm <= above {
                // `w ∈ [u−f, w_i−1]`: plus-side links past `u` are cut,
                // adjacency `[w−e, u−1]` ends at rotated position k−2.
                let len = below + sm;
                (k - 1 - len, len)
            } else if k - sm <= below {
                // `w ∈ [w_i+1, u+e]` (sp = k − sm): minus-side links before
                // `u` are cut, adjacency `[u+1, w+f]` starts at rotation 0.
                (0, above + (k - sm))
            } else {
                // `w ∉ [u−f, u+e]`: full adjacency `[w−e, w+f]`.
                let mut r = w + full;
                r -= k * usize::from(r >= k);
                r -= k * usize::from(r >= k);
                (r, d)
            }
        };
        #[cfg(debug_assertions)]
        {
            let span = crate::breaking::reduced_span(
                conv,
                w_i,
                u,
                w,
                crate::breaking::SameWavelengthOrder::After,
            );
            debug_assert_eq!(len, span.len(), "specialized span length for w={w} u={u}");
            if !span.is_empty() {
                debug_assert_eq!(
                    r_start,
                    (span.start() + k - u - 1) % k,
                    "specialized span start for w={w} u={u}"
                );
            }
        }
        if len == 0 {
            continue;
        }
        debug_assert!(r_start + len < k, "reduced span must avoid the removed channel");
        let begin = rot_prefix(r_start);
        let end_excl = rot_prefix(r_start + len);
        if end_excl > begin {
            let width = end_excl - begin;
            let remaining = count.min(d).min(width);
            total += remaining;
            items.push(ScratchItem { wavelength: w, remaining, begin, end: end_excl - 1 });
        }
    }
    debug_assert!(
        items.windows(2).all(|w| w[0].begin <= w[1].begin && w[0].end <= w[1].end),
        "reduced instance must have monotone endpoints (Lemma 2)"
    );

    let positions = f_total - 1;
    if let Some(best) = beat {
        if total.min(positions) < best {
            return false;
        }
    }

    // First Available as a merge: the positions below `cursor` are granted
    // or skipped, and `potential` bounds the grants still to come by the
    // remaining counts of the items not yet reached.
    let mut cursor = 0usize;
    let mut potential = total;
    for item in items.iter() {
        potential -= item.remaining;
        let start = cursor.max(item.begin);
        if item.end >= start {
            let stop = start + item.remaining.min(item.end + 1 - start);
            // Positions below `after` lie above `u`, the rest wrapped.
            let grant = |&output: &usize| Assignment { input: item.wavelength, output };
            if start < after {
                let run = c_u + 1 + start..c_u + 1 + stop.min(after);
                out.extend(outputs[run].iter().map(grant));
            }
            if stop > after {
                out.extend(outputs[start.max(after) - after..stop - after].iter().map(grant));
            }
            cursor = stop;
        }
        if let Some(best) = beat {
            if out.len() + potential.min(positions - cursor) < best {
                return false;
            }
        }
    }
    true
}

/// Runs First Available on the reduced graph obtained by breaking at
/// `(w_i, u)`, `u` the free channel at offset `s` of `w_i`'s adjacency arc
/// ([`arc_channel`]) — without the breaking edge itself — and writes the
/// granted assignments into `out`. `O(k)`, allocation-free at steady state.
///
/// Builds the per-slot tables for a single break; Break-and-FA builds them
/// once and calls [`single_break_shared`] directly for all `d` candidates.
/// Used by the approximation scheduler, which evaluates exactly one break.
pub(crate) fn single_break_into(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
    w_i: usize,
    s: usize,
    scratch: &mut ScratchArena,
    out: &mut Vec<Assignment>,
) {
    debug_assert!(mask.is_free(arc_channel(conv, w_i, s)));
    build_break_tables(requests, mask, w_i, scratch);
    let ScratchArena { items, outputs, prefix, rot_requests, .. } = scratch;
    let tables = SlotTables {
        w_i,
        outputs: outputs.as_slice(),
        prefix: prefix.as_slice(),
        rot_requests: rot_requests.as_slice(),
    };
    let completed = single_break_shared(conv, &tables, items, s, None, out);
    debug_assert!(completed, "an unbounded candidate always runs to completion");
}

/// The explicit reference implementation of Break and First Available on a
/// request graph (circular conversion).
///
/// Builds every reduced graph with [`break_graph`] (Definition 1 applied
/// edge by edge) and runs the interval First Available on it. `O(d·E)` —
/// used for verification, not production.
///
/// Paper: Theorem 2 (Break and First Available, Table 3; Lemmas 2–4).
pub fn break_fa_matching(graph: &RequestGraph) -> Matching {
    let nl = graph.left_count();
    let nr = graph.right_count();
    let empty = Matching::empty(nl, nr);
    // The breaking vertex: first request with at least one free adjacent
    // channel.
    let Some(i) = (0..nl).find(|&j| !graph.adjacent(j).is_empty()) else {
        return empty;
    };

    let mut best = empty;
    for &p in graph.adjacent(i) {
        let broken = break_graph(graph, i, p);
        let inst = ConvexInstance::from_broken(&broken);
        let match_of_right = first_available(&inst);
        let mut candidate = Matching::empty(nl, nr);
        if candidate.add(i, p).is_err() {
            unreachable!("breaking edge endpoints are unused");
        }
        for (new_p, &new_j) in match_of_right.iter().enumerate() {
            if let Some(new_j) = new_j {
                if candidate.add(broken.left_map[new_j], broken.right_map[new_p]).is_err() {
                    unreachable!(
                        "reduced-graph matches are vertex-disjoint from the breaking edge"
                    );
                }
            }
        }
        if candidate.size() > best.size() {
            best = candidate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (k, e, f, counts, occupied-channels) test case.
    type OccupiedCase = (usize, usize, usize, Vec<usize>, Vec<usize>);
    use crate::algorithms::{hopcroft_karp, kuhn, validate_assignments};

    const BFA: BreakFirstAvailable = BreakFirstAvailable(BreakChoice::FirstRequest);

    fn paper_conv() -> Conversion {
        Conversion::symmetric_circular(6, 3).unwrap()
    }

    fn paper_requests() -> RequestVector {
        RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap()
    }

    /// Paper Fig. 4(a): maximum matching of size 6 under circular
    /// conversion.
    #[test]
    fn figure_4a_maximum_matching() {
        let conv = paper_conv();
        let rv = paper_requests();
        let mask = ChannelMask::all_free(6);
        let a = BFA.schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(a.len(), 6);
        validate_assignments(&conv, &rv, &mask, &a).unwrap();
    }

    #[test]
    fn explicit_version_agrees_on_paper_example() {
        let conv = paper_conv();
        let g = RequestGraph::new(conv, &paper_requests()).unwrap();
        let m = break_fa_matching(&g);
        assert_eq!(m.size(), 6);
        m.validate(&g).unwrap();
    }

    /// Paper §I worked example: 2 on λ1, 3 on λ2, 1 on λ4 with k=6, d=3 —
    /// only five of the six requests can be satisfied.
    #[test]
    fn section_1_contention_example() {
        let conv = paper_conv();
        let rv = RequestVector::from_counts(vec![0, 2, 3, 0, 1, 0]).unwrap();
        let mask = ChannelMask::all_free(6);
        let a = BFA.schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(a.len(), 5);
        validate_assignments(&conv, &rv, &mask, &a).unwrap();
    }

    #[test]
    fn deterministic_battery_matches_oracle() {
        let cases: Vec<(usize, usize, usize, Vec<usize>)> = vec![
            (6, 1, 1, vec![2, 1, 0, 1, 1, 2]),
            (6, 1, 1, vec![0, 2, 3, 0, 1, 0]),
            (6, 1, 1, vec![6, 0, 0, 0, 0, 0]),
            (6, 1, 1, vec![1, 1, 1, 1, 1, 1]),
            (8, 2, 1, vec![0, 0, 5, 0, 0, 0, 3, 0]),
            (8, 1, 2, vec![2, 2, 2, 2, 0, 0, 0, 0]),
            (5, 2, 2, vec![5, 0, 0, 0, 5]),
            (7, 3, 2, vec![1, 2, 3, 0, 0, 0, 1]),
            (4, 1, 1, vec![4, 4, 4, 4]),
            (3, 1, 0, vec![2, 0, 2]),
            (2, 0, 1, vec![3, 3]),
        ];
        for (k, e, f, counts) in cases {
            let conv = Conversion::circular(k, e, f).unwrap();
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let mask = ChannelMask::all_free(k);
            let a = BFA.schedule(&conv, &rv, &mask).unwrap();
            validate_assignments(&conv, &rv, &mask, &a).unwrap();
            let g = RequestGraph::new(conv, &rv).unwrap();
            let oracle = hopcroft_karp(&g).size();
            assert_eq!(a.len(), oracle, "compact: k={k} e={e} f={f} counts={counts:?}");
            let explicit = break_fa_matching(&g);
            explicit.validate(&g).unwrap();
            assert_eq!(explicit.size(), oracle, "explicit: k={k} e={e} f={f} counts={counts:?}");
        }
    }

    #[test]
    fn occupied_channels_battery_matches_oracle() {
        let cases: Vec<OccupiedCase> = vec![
            (6, 1, 1, vec![2, 1, 0, 1, 1, 2], vec![0]),
            (6, 1, 1, vec![2, 1, 0, 1, 1, 2], vec![1, 4]),
            (6, 1, 1, vec![2, 2, 2, 2, 2, 2], vec![0, 1, 2]),
            (8, 2, 1, vec![1, 1, 1, 1, 1, 1, 1, 1], vec![7, 0, 1]),
            (5, 1, 1, vec![3, 0, 0, 0, 3], vec![2]),
            (6, 2, 2, vec![4, 0, 0, 0, 0, 4], vec![5, 0, 1]),
        ];
        for (k, e, f, counts, occupied) in cases {
            let conv = Conversion::circular(k, e, f).unwrap();
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let mask = ChannelMask::with_occupied(k, &occupied).unwrap();
            let a = BFA.schedule(&conv, &rv, &mask).unwrap();
            validate_assignments(&conv, &rv, &mask, &a).unwrap();
            let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
            let oracle = kuhn(&g).size();
            assert_eq!(
                a.len(),
                oracle,
                "k={k} e={e} f={f} counts={counts:?} occupied={occupied:?}"
            );
        }
    }

    #[test]
    fn full_range_dispatches_to_trivial_scheduler() {
        let conv = Conversion::full(6).unwrap();
        let rv = paper_requests();
        let mask = ChannelMask::all_free(6);
        let a = BFA.schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn non_circular_rejected() {
        let conv = Conversion::non_circular(6, 1, 1).unwrap();
        assert!(matches!(
            BFA.schedule(&conv, &RequestVector::new(6), &ChannelMask::all_free(6)),
            Err(Error::UnsupportedConversion { .. })
        ));
    }

    #[test]
    fn empty_requests() {
        let conv = paper_conv();
        let a = BFA.schedule(&conv, &RequestVector::new(6), &ChannelMask::all_free(6)).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn fully_occupied_fiber() {
        let conv = paper_conv();
        let a = BFA.schedule(&conv, &paper_requests(), &ChannelMask::all_occupied(6)).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn isolated_breaking_wavelength_is_skipped() {
        // λ0's whole adjacency {5, 0, 1} is occupied, but λ3 can still be
        // granted. The scheduler must not give up just because the first
        // request is isolated.
        let conv = paper_conv();
        let rv = RequestVector::from_counts(vec![2, 0, 0, 1, 0, 0]).unwrap();
        let mask = ChannelMask::with_occupied(6, &[5, 0, 1]).unwrap();
        let a = BFA.schedule(&conv, &rv, &mask).unwrap();
        validate_assignments(&conv, &rv, &mask, &a).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].input, 3);
    }

    #[test]
    fn break_choice_does_not_change_size() {
        let conv = paper_conv();
        let rv = paper_requests();
        let mask = ChannelMask::all_free(6);
        let first =
            BreakFirstAvailable(BreakChoice::FirstRequest).schedule(&conv, &rv, &mask).unwrap();
        let densest = BreakFirstAvailable(BreakChoice::DensestWavelength)
            .schedule(&conv, &rv, &mask)
            .unwrap();
        assert_eq!(first.len(), densest.len());
        validate_assignments(&conv, &rv, &mask, &densest).unwrap();
    }

    #[test]
    fn d2_even_degree_circular() {
        // d = 2 (e = 0, f = 1), the smallest practical limited-range case.
        let conv = Conversion::circular(6, 0, 1).unwrap();
        let rv = RequestVector::from_counts(vec![2, 0, 2, 0, 2, 0]).unwrap();
        let mask = ChannelMask::all_free(6);
        let a = BFA.schedule(&conv, &rv, &mask).unwrap();
        validate_assignments(&conv, &rv, &mask, &a).unwrap();
        let g = RequestGraph::new(conv, &rv).unwrap();
        assert_eq!(a.len(), kuhn(&g).size());
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn single_wavelength_ring() {
        let conv = Conversion::full(1).unwrap();
        let rv = RequestVector::from_counts(vec![3]).unwrap();
        let mask = ChannelMask::all_free(1);
        let a = BFA.schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(a.len(), 1);
    }

    /// The pre-optimization Break-and-FA, kept verbatim as the differential
    /// reference: every candidate break rebuilds its rotated free-channel
    /// tables from scratch, exactly as the scheduler did before the
    /// shared-table rewrite. The fast path must stay *bit-identical* to it.
    mod reference {
        use std::collections::VecDeque;

        use super::*;
        use crate::breaking::{reduced_span, SameWavelengthOrder};

        fn single_break_reference(
            conv: &Conversion,
            requests: &RequestVector,
            mask: &ChannelMask,
            w_i: usize,
            u: usize,
        ) -> Vec<Assignment> {
            let k = conv.k();
            let d = conv.degree();
            let mut out = Vec::new();

            // Free channels in the rotated order u+1, …, u−1 (u removed).
            let mut rot_prefix = vec![0usize];
            let mut rot_out = Vec::new();
            let mut acc = 0usize;
            for r in 0..k - 1 {
                let x = (u + 1 + r) % k;
                if mask.is_free(x) {
                    rot_out.push(x);
                    acc += 1;
                }
                rot_prefix.push(acc);
            }

            let mut items: Vec<ScratchItem> = Vec::new();
            for off in 0..k {
                let w = (w_i + off) % k;
                let mut count = requests.count(w);
                if count == 0 {
                    continue;
                }
                if w == w_i {
                    count -= 1;
                    if count == 0 {
                        continue;
                    }
                }
                let span = reduced_span(conv, w_i, u, w, SameWavelengthOrder::After);
                if span.is_empty() {
                    continue;
                }
                let r_start = (span.start() + k - u - 1) % k;
                let begin = rot_prefix[r_start];
                let end_excl = rot_prefix[r_start + span.len()];
                if end_excl > begin {
                    let width = end_excl - begin;
                    items.push(ScratchItem {
                        wavelength: w,
                        remaining: count.min(d).min(width),
                        begin,
                        end: end_excl - 1,
                    });
                }
            }

            let mut active: VecDeque<usize> = VecDeque::new();
            let mut next = 0usize;
            for (p, &out_w) in rot_out.iter().enumerate() {
                while next < items.len() && items[next].begin <= p {
                    active.push_back(next);
                    next += 1;
                }
                while let Some(&i) = active.front() {
                    if items[i].end < p {
                        active.pop_front();
                    } else {
                        break;
                    }
                }
                if let Some(&i) = active.front() {
                    out.push(Assignment { input: items[i].wavelength, output: out_w });
                    items[i].remaining -= 1;
                    if items[i].remaining == 0 {
                        active.pop_front();
                    }
                }
            }
            out
        }

        /// The reference's breaking wavelength.
        fn breaking_wavelength(
            conv: &Conversion,
            requests: &RequestVector,
            mask: &ChannelMask,
            choice: BreakChoice,
        ) -> Option<usize> {
            let k = conv.k();
            let eligible = requests
                .iter_nonzero()
                .filter(|&(w, _)| conv.adjacency(w).iter(k).any(|u| mask.is_free(u)));
            match choice {
                BreakChoice::FirstRequest => eligible.map(|(w, _)| w).next(),
                BreakChoice::DensestWavelength => eligible.max_by_key(|&(_, c)| c).map(|(w, _)| w),
            }
        }

        /// Every break's candidate size (breaking edge included), in the
        /// order Break-and-FA evaluates them, and the counting bound
        /// `min(pending − 1, free − 1) + 1` no candidate can exceed. Empty
        /// when nothing can be broken.
        pub(super) fn break_sizes(
            conv: &Conversion,
            requests: &RequestVector,
            mask: &ChannelMask,
            choice: BreakChoice,
        ) -> (Vec<usize>, usize) {
            let Some(w_i) = breaking_wavelength(conv, requests, mask, choice) else {
                return (Vec::new(), 0);
            };
            let sizes = conv
                .adjacency(w_i)
                .iter(conv.k())
                .filter(|&u| mask.is_free(u))
                .map(|u| single_break_reference(conv, requests, mask, w_i, u).len() + 1)
                .collect();
            (sizes, (requests.total() - 1).min(mask.free_count() - 1) + 1)
        }

        /// The single-break approximation over the reference break: the
        /// first request with a free adjacent channel, broken at the free
        /// adjacent channel with the smallest Theorem 3 bound (the first in
        /// arc order on a tie). Returns the schedule, `δ(u)` and the bound.
        pub(super) fn approx_reference(
            conv: &Conversion,
            requests: &RequestVector,
            mask: &ChannelMask,
        ) -> (Vec<Assignment>, usize, usize) {
            let Some(w_i) = breaking_wavelength(conv, requests, mask, BreakChoice::FirstRequest)
            else {
                return (Vec::new(), 0, 0);
            };
            let (e, f) = (conv.e(), conv.f());
            let mut best: Option<(usize, usize)> = None;
            for (delta, u) in conv.adjacency(w_i).iter(conv.k()).enumerate() {
                let bound = delta.max(e + f - delta);
                if mask.is_free(u) && best.is_none_or(|(_, b)| bound < b) {
                    best = Some((delta, bound));
                }
            }
            let (delta, bound) = best.unwrap();
            let u = conv.adjacency(w_i).iter(conv.k()).nth(delta).unwrap();
            let mut out = single_break_reference(conv, requests, mask, w_i, u);
            out.push(Assignment { input: w_i, output: u });
            (out, delta + 1, bound)
        }

        pub(super) fn break_fa_reference(
            conv: &Conversion,
            requests: &RequestVector,
            mask: &ChannelMask,
            choice: BreakChoice,
        ) -> Result<Vec<Assignment>, Error> {
            conv.check_k(requests.k())?;
            conv.check_k(mask.k())?;
            if conv.is_full() {
                // Same dispatch the scheduler has always had: a full-range
                // ring needs no breaking.
                return FullRange.schedule(conv, requests, mask);
            }
            assert_eq!(conv.kind(), ConversionKind::Circular, "reference covers circular only");
            let k = conv.k();
            let Some(w_i) = breaking_wavelength(conv, requests, mask, choice) else {
                return Ok(Vec::new());
            };

            let mut out = Vec::new();
            let mut found = false;
            for u in conv.adjacency(w_i).iter(k) {
                if !mask.is_free(u) {
                    continue;
                }
                let mut candidate = single_break_reference(conv, requests, mask, w_i, u);
                candidate.push(Assignment { input: w_i, output: u });
                if !found || candidate.len() > out.len() {
                    out = candidate;
                    found = true;
                }
            }
            Ok(out)
        }
    }

    /// One instance per regime of the Berge stop, each pinned by its
    /// reference break sizes (breaking edge included, in evaluation order)
    /// below the counting bound, so only the maximality check can end the
    /// loop early: the first break is already maximum; only the last break
    /// is; the maximum is first reached mid-loop with at least
    /// [`BERGE_MIN_AHEAD`] free breaking channels ahead, where the check
    /// runs; and with fewer, where it does not. The `k = 130` instances sit
    /// across the ring's wrap, a multi-word mask with channels `8..122`
    /// occupied.
    #[test]
    fn berge_stop_regimes_match_the_reference() {
        // (k, d, nonzero counts, occupied channels, sizes, counting bound)
        type Regime = (usize, usize, Vec<(usize, usize)>, Vec<usize>, Vec<usize>, usize);
        let wrap = |hi: [usize; 6], lo: [usize; 6]| -> Vec<(usize, usize)> {
            (124..130).zip(hi).chain((0..6).zip(lo)).collect()
        };
        let occupied = |extra: &[usize]| -> Vec<usize> { (8..122).chain(extra.to_vec()).collect() };
        let cases: Vec<Regime> = vec![
            (
                16,
                7,
                vec![(0, 3), (1, 2), (3, 2), (5, 3), (12, 3)],
                vec![0, 2, 5],
                vec![12, 11, 10, 9, 8],
                13,
            ),
            (
                130,
                7,
                wrap([3, 1, 0, 2, 2, 3], [1, 0, 0, 1, 2, 0]),
                occupied(&[122, 124, 126]),
                vec![6, 7, 8, 9, 10, 11, 12],
                13,
            ),
            (
                130,
                7,
                wrap([3, 0, 3, 1, 3, 3], [1, 2, 1, 3, 0, 0]),
                occupied(&[128]),
                vec![12, 13, 14, 14, 14, 14],
                15,
            ),
            (
                130,
                9,
                wrap([0, 2, 2, 2, 1, 3], [1, 3, 0, 0, 0, 1]),
                occupied(&[122, 3]),
                vec![8, 9, 10, 11, 12, 13, 13, 13],
                14,
            ),
        ];
        for (k, d, nonzero, occupied, sizes, bound) in cases {
            let conv = Conversion::symmetric_circular(k, d).unwrap();
            let mut counts = vec![0; k];
            for (w, c) in nonzero {
                counts[w] = c;
            }
            let rv = RequestVector::from_counts(counts).unwrap();
            let mask = ChannelMask::with_occupied(k, &occupied).unwrap();
            let choice = BreakChoice::FirstRequest;
            assert_eq!(reference::break_sizes(&conv, &rv, &mask, choice), (sizes, bound), "k={k}");
            let mut arena = ScratchArena::new();
            for choice in [choice, BreakChoice::DensestWavelength] {
                let mut fast = Vec::new();
                BreakFirstAvailable(choice)
                    .schedule_into(&conv, &rv, &mask, &mut arena, &mut fast)
                    .unwrap();
                let slow = reference::break_fa_reference(&conv, &rv, &mask, choice).unwrap();
                assert_eq!(fast, slow, "k={k} d={d} {choice:?}");
            }
        }
    }

    /// Bit-identity of the shared-table fast path against the
    /// pre-optimization reference on the deterministic batteries.
    #[test]
    fn fast_path_bit_identical_to_reference_battery() {
        let cases: Vec<OccupiedCase> = vec![
            (6, 1, 1, vec![2, 1, 0, 1, 1, 2], vec![]),
            (6, 1, 1, vec![2, 1, 0, 1, 1, 2], vec![1, 4]),
            (6, 1, 1, vec![0, 2, 3, 0, 1, 0], vec![]),
            (8, 2, 1, vec![0, 0, 5, 0, 0, 0, 3, 0], vec![]),
            (8, 2, 1, vec![1, 1, 1, 1, 1, 1, 1, 1], vec![7, 0, 1]),
            (5, 2, 2, vec![5, 0, 0, 0, 5], vec![2]),
            (7, 3, 2, vec![1, 2, 3, 0, 0, 0, 1], vec![]),
            (4, 1, 1, vec![4, 4, 4, 4], vec![]),
            (3, 1, 0, vec![2, 0, 2], vec![]),
            (2, 0, 1, vec![3, 3], vec![]),
            (6, 2, 2, vec![4, 0, 0, 0, 0, 4], vec![5, 0, 1]),
        ];
        for (k, e, f, counts, occupied) in cases {
            let conv = Conversion::circular(k, e, f).unwrap();
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let mask = ChannelMask::with_occupied(k, &occupied).unwrap();
            for choice in [BreakChoice::FirstRequest, BreakChoice::DensestWavelength] {
                let fast = BreakFirstAvailable(choice).schedule(&conv, &rv, &mask).unwrap();
                let slow = reference::break_fa_reference(&conv, &rv, &mask, choice).unwrap();
                assert_eq!(
                    fast, slow,
                    "k={k} e={e} f={f} counts={counts:?} occupied={occupied:?} {choice:?}"
                );
            }
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The fast BFA produces assignments *bit-identical* to the
            /// pre-optimization reference — not just equal cardinality — on
            /// random circular instances with occupied channels, for both
            /// breaking-vertex policies.
            #[test]
            fn fast_bfa_bit_identical_to_reference(
                (k, e, f, counts, free) in (1usize..=14).prop_flat_map(|k| {
                    let reach =
                        (0..k, 0..k).prop_filter("degree <= k", move |&(e, f)| e + f < k);
                    (
                        Just(k),
                        reach,
                        proptest::collection::vec(0usize..=4, k),
                        proptest::collection::vec(proptest::bool::weighted(0.7), k),
                    )
                        .prop_map(|(k, (e, f), counts, free)| (k, e, f, counts, free))
                })
            ) {
                let conv = Conversion::circular(k, e, f).unwrap();
                let rv = RequestVector::from_counts(counts).unwrap();
                let mask = ChannelMask::from_flags(free).unwrap();
                for choice in [BreakChoice::FirstRequest, BreakChoice::DensestWavelength] {
                    let fast = BreakFirstAvailable(choice).schedule(&conv, &rv, &mask).unwrap();
                    let slow =
                        reference::break_fa_reference(&conv, &rv, &mask, choice).unwrap();
                    prop_assert_eq!(&fast, &slow, "choice {:?}", choice);
                }
            }
        }

        /// Rings around one, two and three mask words, `d` up to 9, counts
        /// `0..=d+2`, and a free-channel density drawn per case.
        fn wide_instance() -> impl Strategy<Value = (Conversion, Vec<usize>, Vec<bool>)> {
            const KS: [usize; 7] = [63, 64, 65, 127, 128, 129, 130];
            const DENSITY: [f64; 5] = [0.3, 0.5, 0.7, 0.9, 1.0];
            (0..KS.len(), 0usize..=8, 0usize..=8, 0..DENSITY.len()).prop_flat_map(|(i, e, f, j)| {
                let (k, density) = (KS[i], DENSITY[j]);
                let e = e.min(8 - f);
                let conv = Conversion::circular(k, e, f).unwrap();
                let d = conv.degree();
                (
                    Just(conv),
                    proptest::collection::vec(0..=d + 2, k),
                    proptest::collection::vec(proptest::bool::weighted(density), k),
                )
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

            /// The same bit-identity on multi-word rings, for both
            /// breaking-vertex policies and for the single-break
            /// approximation (schedule, `δ(u)` and bound), over one arena
            /// that every call leaves dirty for the next.
            #[test]
            fn fast_bfa_bit_identical_on_multiword_rings((conv, counts, free) in wide_instance()) {
                let rv = RequestVector::from_counts(counts).unwrap();
                let mask = ChannelMask::from_flags(free).unwrap();
                let mut arena = ScratchArena::new();
                let mut fast = Vec::new();
                for choice in [
                    BreakChoice::FirstRequest,
                    BreakChoice::DensestWavelength,
                    BreakChoice::FirstRequest,
                ] {
                    BreakFirstAvailable(choice)
                        .schedule_into(&conv, &rv, &mask, &mut arena, &mut fast)
                        .unwrap();
                    let slow =
                        reference::break_fa_reference(&conv, &rv, &mask, choice).unwrap();
                    prop_assert_eq!(&fast, &slow, "choice {:?}", choice);
                }
                let stats = crate::algorithms::approx_schedule_into(
                    &conv, &rv, &mask, &mut arena, &mut fast,
                )
                .unwrap();
                let (slow, delta, bound) = reference::approx_reference(&conv, &rv, &mask);
                prop_assert_eq!(&fast, &slow);
                if !slow.is_empty() {
                    prop_assert_eq!((stats.delta, stats.bound), (delta, bound));
                }
            }
        }
    }
}
