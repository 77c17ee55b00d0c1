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

use wdm_attr::hot_path;

use crate::arena::ScratchArena;
use crate::conversion::Conversion;
use crate::error::Error;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

use super::Assignment;

/// BFS parent sentinel: wavelength not yet visited in this round.
const UNVISITED: usize = usize::MAX;

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

/// Repairs the previous slot's matching (`owner`) against this slot's
/// requests and channel availability, writing the repaired — and certified
/// maximum-cardinality — schedule into `out`.
///
/// `owner[u]` is the input wavelength granted output channel `u` in the
/// previous slot (`None` = channel was unassigned). On success the array is
/// updated in place to the repaired matching and `Some(outcome)` is
/// returned; the repaired cardinality equals what a from-scratch maximum
/// matching (Break-and-FA, First Available, Hopcroft–Karp) would grant,
/// though the per-wavelength channel choices may differ.
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
    reason = "owner is length-checked against k at entry and every index is a wavelength or channel < k by the survivor filter; the repaired schedule is certified against the reference matcher in debug builds"
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
            if w < k && mask.is_free(u) && matched[w] < requests.count(w) && conv.converts(w, u) {
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
#[wdm_attr::allow_reach(
    panic_free,
    reason = "parent/entry/matched are sized to k by the caller and the queue only ever holds channels < k drawn from the conversion adjacency, so every BFS index stays in range"
)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::validate_assignments;
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
}
