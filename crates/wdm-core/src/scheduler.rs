//! The per-output-fiber scheduler façade.
//!
//! The paper's distributed architecture runs one scheduler per output fiber:
//! requests are partitioned by destination, and the decisions for one fiber
//! never affect another (no request belongs to two fibers). This module
//! packages the matching algorithms behind one interface; the interconnect
//! crates instantiate `N` of these, one per output fiber.

use wdm_attr::hot_path;

use crate::algorithms::{
    repair_schedule_into, Approximate, Assignment, BreakFirstAvailable, FirstAvailable, FullRange,
    HopcroftKarp, Matcher, DEFAULT_REPAIR_BUDGET,
};
use crate::arena::ScratchArena;
use crate::conversion::{Conversion, ConversionKind};
use crate::error::Error;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

/// Which scheduling algorithm a [`FiberScheduler`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Policy {
    /// Pick the paper's optimal algorithm for the conversion kind:
    /// the trivial scheduler for full-range, First Available (`O(k)`) for
    /// non-circular, Break and First Available (`O(dk)`) for circular.
    #[default]
    Auto,
    /// First Available (Table 2). Only valid for non-circular conversion.
    FirstAvailable,
    /// Break and First Available (Table 3). Valid for circular conversion;
    /// dispatches full-range to the trivial scheduler.
    BreakFirstAvailable,
    /// The `O(k)` single-break approximation (§IV-C). Valid for circular
    /// conversion; within `(d−1)/2` of the maximum.
    Approximate,
    /// Hopcroft–Karp on the explicit request graph — the paper's baseline.
    /// Valid for every conversion kind; much slower.
    HopcroftKarp,
}

impl Policy {
    /// The stable short name used in CLI flags, trace files, and wire
    /// frames. Round-trips through [`Policy::from_str`].
    pub const fn name(self) -> &'static str {
        match self {
            Policy::Auto => "auto",
            Policy::FirstAvailable => "fa",
            Policy::BreakFirstAvailable => "bfa",
            Policy::Approximate => "approx",
            Policy::HopcroftKarp => "hk",
        }
    }

    /// The policy/conversion-kind compatibility table: FA needs
    /// non-circular conversion; BFA and the approximation need circular
    /// (full range included); Auto and Hopcroft–Karp accept every kind.
    /// The interconnect checks it whenever a fiber unit is built or changes
    /// policy or conversion, which makes the per-slot algorithms' own kind
    /// guards unreachable, and the scenario compiler when it validates a
    /// plan.
    pub fn check_conversion(self, conversion: &Conversion) -> Result<(), Error> {
        let (algorithm, requires) = match (self, conversion.is_circular()) {
            (Policy::Auto | Policy::HopcroftKarp, _)
            | (Policy::FirstAvailable, false)
            | (Policy::BreakFirstAvailable | Policy::Approximate, true) => return Ok(()),
            (Policy::FirstAvailable, true) => (
                "First Available",
                "non-circular conversion (use Break and First Available for circular)",
            ),
            (Policy::BreakFirstAvailable, false) => (
                "Break and First Available",
                "circular conversion (use First Available for non-circular)",
            ),
            (Policy::Approximate, false) => (
                "single-break approximation",
                "circular conversion (First Available is already exact and O(k) for non-circular)",
            ),
        };
        Err(Error::UnsupportedConversion { algorithm, requires })
    }
}

impl core::fmt::Display for Policy {
    fn fmt(&self, out: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        out.write_str(self.name())
    }
}

impl core::str::FromStr for Policy {
    type Err = Error;

    fn from_str(name: &str) -> Result<Policy, Error> {
        match name {
            "auto" => Ok(Policy::Auto),
            "fa" => Ok(Policy::FirstAvailable),
            "bfa" => Ok(Policy::BreakFirstAvailable),
            "approx" => Ok(Policy::Approximate),
            "hk" => Ok(Policy::HopcroftKarp),
            other => Err(Error::UnknownPolicy { name: other.to_owned() }),
        }
    }
}

impl Matcher for Policy {
    /// Runs the policy's scheduler from scratch. [`Policy::Auto`] picks by
    /// conversion kind: [`FullRange`] for full-range, [`BreakFirstAvailable`]
    /// for circular, [`FirstAvailable`] for non-circular.
    ///
    /// Paper: §III–IV (Theorems 1–3), dispatched by conversion kind.
    fn schedule_into(
        &self,
        conv: &Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
        scratch: &mut ScratchArena,
        out: &mut Vec<Assignment>,
    ) -> Result<Option<usize>, Error> {
        match self {
            Policy::Auto if conv.is_full() => {
                FullRange.schedule_into(conv, requests, mask, scratch, out)
            }
            Policy::Auto if conv.kind() == ConversionKind::Circular => {
                BreakFirstAvailable::default().schedule_into(conv, requests, mask, scratch, out)
            }
            Policy::Auto | Policy::FirstAvailable => {
                FirstAvailable.schedule_into(conv, requests, mask, scratch, out)
            }
            Policy::BreakFirstAvailable => {
                BreakFirstAvailable::default().schedule_into(conv, requests, mask, scratch, out)
            }
            Policy::Approximate => Approximate.schedule_into(conv, requests, mask, scratch, out),
            Policy::HopcroftKarp => HopcroftKarp.schedule_into(conv, requests, mask, scratch, out),
        }
    }
}

/// The decision for one output fiber in one time slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    assignments: Vec<Assignment>,
    requested: usize,
    /// For the approximation policy: Theorem 3's bound on the distance to a
    /// maximum matching. `Some(0)` or `None` means the schedule is maximum.
    approx_bound: Option<usize>,
}

impl Schedule {
    /// The granted request → channel assignments.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Number of granted requests.
    pub fn granted(&self) -> usize {
        self.assignments.len()
    }

    /// Total number of requests that were presented.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// Number of rejected requests (output contention losses).
    pub fn rejected(&self) -> usize {
        self.requested - self.assignments.len()
    }

    /// Whether the schedule is guaranteed to be a maximum matching.
    pub fn is_exact(&self) -> bool {
        matches!(self.approx_bound, None | Some(0))
    }

    /// For approximate schedules, Theorem 3's bound on the lost throughput.
    pub fn approx_bound(&self) -> Option<usize> {
        self.approx_bound
    }

    /// Number of granted requests per input wavelength.
    pub fn granted_per_wavelength(&self, k: usize) -> Vec<usize> {
        let mut counts = vec![0usize; k];
        for a in &self.assignments {
            counts[a.input] += 1;
        }
        counts
    }
}

/// How one slot's schedule was computed (see
/// [`FiberScheduler::schedule_slot`] and [`FiberScheduler::warm_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPath {
    /// From-scratch dispatch: no warm state was available or applicable.
    Cold,
    /// The previous slot's matching was repaired in place
    /// ([`crate::algorithms::repair_schedule_into`]).
    Repaired,
    /// Warm repair exceeded its augmentation budget (incoherent slot); the
    /// schedule came from the from-scratch dispatcher.
    Fallback,
}

/// The scalar outcome of one [`FiberScheduler::schedule_slot`] call; the
/// assignments themselves stay in the arena
/// ([`ScratchArena::assignments`]), so the steady-state slot loop never
/// allocates.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotStats {
    /// Number of granted requests.
    pub granted: usize,
    /// Total number of requests that were presented.
    pub requested: usize,
    /// For the approximation policy: Theorem 3's bound on the distance to a
    /// maximum matching. `Some(0)` or `None` means the schedule is maximum.
    pub approx_bound: Option<usize>,
    /// Whether the slot was scheduled warm (repaired), cold, or via the
    /// repair-budget fallback.
    pub path: SlotPath,
}

impl SlotStats {
    /// Number of rejected requests (output contention losses).
    pub fn rejected(&self) -> usize {
        self.requested - self.granted
    }

    /// Whether the schedule is guaranteed to be a maximum matching.
    pub fn is_exact(&self) -> bool {
        matches!(self.approx_bound, None | Some(0))
    }
}

/// Cumulative per-scheduler counters over the warm-start slot loop: how
/// many slots were repaired, fell back, or ran cold. Reset with
/// [`FiberScheduler::reset_warm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Slots whose schedule was repaired from the previous slot's matching.
    pub repaired: u64,
    /// Slots where repair exceeded its budget and from-scratch dispatch ran.
    pub fallback: u64,
    /// Slots scheduled from scratch with no warm state (first slot, a
    /// preceding error, or a policy/conversion the warm path does not cover).
    pub cold: u64,
}

impl WarmStats {
    /// Total slots scheduled since construction (or the last reset).
    pub fn slots(&self) -> u64 {
        self.repaired + self.fallback + self.cold
    }

    /// Fraction of slots served by the warm repair path, in `[0, 1]`.
    pub fn repair_rate(&self) -> f64 {
        let slots = self.slots();
        if slots == 0 {
            0.0
        } else {
            self.repaired as f64 / slots as f64
        }
    }

    /// Bumps the counter for one scheduled slot.
    fn record(&mut self, path: SlotPath) {
        match path {
            SlotPath::Cold => self.cold += 1,
            SlotPath::Repaired => self.repaired += 1,
            SlotPath::Fallback => self.fallback += 1,
        }
    }
}

/// A scheduler for one output fiber.
///
/// The scheduler is *stateful* across [`Self::schedule_slot`] calls: it
/// keeps the previous slot's matching (one `Option<usize>` owner per output
/// channel) and warm-starts the next slot by repairing it instead of
/// recomputing from scratch — the slot-to-slot coherence created by
/// multi-slot holds and advance reservations (§V) makes the delta small.
/// The stateless entry points ([`Self::schedule`],
/// [`Self::schedule_with_mask`]) always run cold and leave the warm state
/// untouched.
#[derive(Debug, Clone)]
pub struct FiberScheduler {
    conversion: Conversion,
    policy: Policy,
    /// Previous slot's matching: `warm_owner[u]` = input wavelength granted
    /// output channel `u`. Only meaningful while `warm_valid`.
    warm_owner: Vec<Option<usize>>,
    /// Whether `warm_owner` holds the previous slot's schedule.
    warm_valid: bool,
    /// Consecutive repair attempts that tripped the budget; drives the
    /// fallback backoff.
    warm_streak: u32,
    /// Cold slots left before the warm path is attempted again. While
    /// positive, slots skip both the repair attempt *and* the warm-state
    /// refresh, so persistently incoherent traffic pays nothing for the
    /// warm machinery; the counter doubles with `warm_streak` (capped at
    /// [`WARM_BACKOFF_CAP`]) and clears on the first repaired slot.
    warm_skip: u32,
    /// Cumulative cold/repaired/fallback slot counters.
    warm_stats: WarmStats,
}

/// Longest warm-path backoff, in slots: after repeated budget trips the
/// scheduler re-probes the traffic for coherence once per this many slots,
/// bounding both the steady-state overhead on incoherent traffic (one
/// attempt per cap-sized window) and the re-warm latency when the traffic
/// turns coherent again.
const WARM_BACKOFF_CAP: u32 = 64;

impl FiberScheduler {
    /// Creates a scheduler for the given conversion scheme and policy.
    pub fn new(conversion: Conversion, policy: Policy) -> FiberScheduler {
        FiberScheduler {
            conversion,
            policy,
            warm_owner: vec![None; conversion.k()],
            warm_valid: false,
            warm_streak: 0,
            warm_skip: 0,
            warm_stats: WarmStats::default(),
        }
    }

    /// The conversion scheme.
    pub fn conversion(&self) -> &Conversion {
        &self.conversion
    }

    /// The scheduling policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Cumulative warm-start counters (repaired / fallback / cold slots).
    pub fn warm_stats(&self) -> WarmStats {
        self.warm_stats
    }

    /// Discards the warm state and zeroes the counters: the next
    /// [`Self::schedule_slot`] runs cold.
    pub fn reset_warm(&mut self) {
        self.warm_valid = false;
        self.warm_streak = 0;
        self.warm_skip = 0;
        self.warm_stats = WarmStats::default();
    }

    /// Invalidates the warm state without touching the cumulative counters:
    /// the next [`Self::schedule_slot`] runs cold, and the cold slot is
    /// counted like any other. Used when the scheduling ground truth shifts
    /// under the scheduler (conversion or policy change mid-run) — the
    /// stale `warm_owner` matching must never be repaired against a
    /// different conversion range.
    pub fn invalidate_warm(&mut self) {
        self.warm_valid = false;
        self.warm_streak = 0;
        self.warm_skip = 0;
    }

    /// Swaps the conversion scheme mid-run — the converter-failure /
    /// recovery path. The wavelength count must be unchanged (`k` is
    /// physical fiber capacity; only the conversion *degree* can shrink or
    /// recover). The warm matching is invalidated, never repaired across
    /// the swap; cumulative warm counters are preserved.
    pub fn set_conversion(&mut self, conversion: Conversion) -> Result<(), Error> {
        if conversion.k() != self.conversion.k() {
            return Err(Error::WavelengthCountMismatch {
                expected: self.conversion.k(),
                actual: conversion.k(),
            });
        }
        self.conversion = conversion;
        self.invalidate_warm();
        Ok(())
    }

    /// Swaps the scheduling policy mid-run — the degraded-mode fallback
    /// path. The warm matching is invalidated (policies disagree on channel
    /// choice, so a repaired foreign matching would not be the policy's
    /// own); cumulative warm counters are preserved. Callers are
    /// responsible for policy/conversion-kind compatibility (see the
    /// construction-time matrix in `wdm-interconnect`).
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
        self.invalidate_warm();
    }

    /// Whether the warm repair path applies to this scheduler's
    /// policy/conversion: the compact exact schedulers over a non-full
    /// conversion range. Full-range conversion is already `O(k)` from
    /// scratch, the approximation's bound is defined by its own break
    /// choice, and Hopcroft–Karp is the deliberately-from-scratch baseline.
    fn warm_capable(&self) -> bool {
        !self.conversion.is_full()
            && matches!(
                self.policy,
                Policy::Auto | Policy::FirstAvailable | Policy::BreakFirstAvailable
            )
    }

    /// Schedules a slot in which every output channel is free (§III–IV).
    pub fn schedule(&self, requests: &RequestVector) -> Result<Schedule, Error> {
        self.schedule_with_mask(requests, &ChannelMask::all_free(self.conversion.k()))
    }

    /// Schedules a slot in which some output channels may be occupied by
    /// earlier multi-slot connections (§V). Always runs the from-scratch
    /// dispatcher; the warm state is neither read nor modified.
    pub fn schedule_with_mask(
        &self,
        requests: &RequestVector,
        mask: &ChannelMask,
    ) -> Result<Schedule, Error> {
        let mut arena = ScratchArena::new();
        let stats = self.cold_slot(requests, mask, &mut arena)?;
        Ok(Schedule {
            assignments: std::mem::take(&mut arena.assignments),
            requested: stats.requested,
            approx_bound: stats.approx_bound,
        })
    }

    /// Schedules a slot out of a caller-provided [`ScratchArena`]: the
    /// production per-slot path.
    ///
    /// The granted assignments are left in [`ScratchArena::assignments`] and
    /// only the scalar [`SlotStats`] is returned, so the steady state — once
    /// the arena's buffers have grown to the fiber's `k`, or from the first
    /// slot with [`ScratchArena::for_k`] — performs **zero heap
    /// allocations** (exception: [`Policy::HopcroftKarp`] materializes the
    /// explicit request graph, which is the cost the paper's compact
    /// schedulers exist to avoid). The zero-allocation property is pinned by
    /// the counting-allocator test in `wdm-alloc-count`.
    ///
    /// On error the arena's assignment buffer is left empty and the warm
    /// state is discarded (the next slot runs cold).
    ///
    /// Consecutive calls warm-start: the previous slot's matching is kept in
    /// the scheduler and repaired against the new requests/mask
    /// ([`crate::algorithms::repair_schedule_into`]); when the slots are too
    /// different the repair budget trips and the from-scratch dispatcher
    /// runs instead. Either way the schedule is a certified maximum matching
    /// with the same cardinality a cold run would grant (the channel
    /// assignment itself may differ); [`SlotStats::path`] reports which path
    /// ran, and [`Self::warm_stats`] accumulates the counts.
    #[hot_path]
    pub fn schedule_slot(
        &mut self,
        requests: &RequestVector,
        mask: &ChannelMask,
        arena: &mut ScratchArena,
    ) -> Result<SlotStats, Error> {
        // The assignment buffer is moved out for the duration of the call so
        // the algorithms can borrow the rest of the arena mutably alongside
        // it; `take`/restore moves pointers, not data.
        let mut out = std::mem::take(&mut arena.assignments);
        let result = self.dispatch_warm(requests, mask, arena, &mut out);
        let stats = match result {
            Ok((approx_bound, path)) => {
                self.debug_certify(requests, mask, &out, approx_bound);
                self.warm_stats.record(path);
                // A repaired slot left `warm_owner` equal to `out` in place.
                // Otherwise refresh the warm matching only when the next
                // slot will actually consult it: during a fallback backoff
                // the rebuild is pure overhead, and skipping it keeps
                // backed-off slots at exactly the cold path's cost.
                if path == SlotPath::Repaired {
                    debug_assert!(
                        self.warm_valid
                            && self.warm_owner.iter().flatten().count() == out.len()
                            && out.iter().all(|a| self.warm_owner[a.output] == Some(a.input)),
                        "the repair leaves warm_owner equal to its schedule"
                    );
                } else if self.warm_capable() && self.warm_skip == 0 {
                    debug_assert!(
                        out.iter().all(|a| a.output < self.warm_owner.len()),
                        "certified assignments land on in-range output channels"
                    );
                    self.warm_owner.fill(None);
                    for a in &out {
                        self.warm_owner[a.output] = Some(a.input);
                    }
                    self.warm_valid = true;
                } else {
                    self.warm_valid = false;
                }
                Ok(SlotStats {
                    granted: out.len(),
                    requested: requests.total(),
                    approx_bound,
                    path,
                })
            }
            Err(e) => {
                out.clear();
                self.warm_valid = false;
                Err(e)
            }
        };
        arena.assignments = out;
        stats
    }

    /// Picks the slot's scheduling path: warm repair when the previous
    /// slot's matching is held, falling back to from-scratch dispatch when
    /// the repair budget trips; cold dispatch otherwise.
    ///
    /// Repeated budget trips back the warm path off exponentially (2, 4, …,
    /// [`WARM_BACKOFF_CAP`] slots): incoherent traffic settles into pure
    /// cold scheduling with one coherence probe per backoff window, while
    /// the first successful repair clears the streak. Backed-off slots are
    /// counted as [`SlotPath::Cold`] — no warm state is consulted.
    fn dispatch_warm(
        &mut self,
        requests: &RequestVector,
        mask: &ChannelMask,
        arena: &mut ScratchArena,
        out: &mut Vec<Assignment>,
    ) -> Result<(Option<usize>, SlotPath), Error> {
        if self.warm_valid {
            match repair_schedule_into(
                &self.conversion,
                requests,
                mask,
                &mut self.warm_owner,
                DEFAULT_REPAIR_BUDGET,
                arena,
                out,
            )? {
                Some(_outcome) => {
                    self.warm_streak = 0;
                    return Ok((None, SlotPath::Repaired));
                }
                None => {
                    self.warm_streak = (self.warm_streak + 1).min(WARM_BACKOFF_CAP.ilog2());
                    self.warm_skip = 1 << self.warm_streak;
                    return self
                        .policy
                        .schedule_into(&self.conversion, requests, mask, arena, out)
                        .map(|bound| (bound, SlotPath::Fallback));
                }
            }
        }
        self.warm_skip = self.warm_skip.saturating_sub(1);
        self.policy
            .schedule_into(&self.conversion, requests, mask, arena, out)
            .map(|bound| (bound, SlotPath::Cold))
    }

    /// From-scratch scheduling into the arena without touching the warm
    /// state: the body shared by the stateless entry points and the cold leg
    /// of [`Self::schedule_slot`]. The slot is *not* counted in
    /// [`Self::warm_stats`].
    fn cold_slot(
        &self,
        requests: &RequestVector,
        mask: &ChannelMask,
        arena: &mut ScratchArena,
    ) -> Result<SlotStats, Error> {
        let mut out = std::mem::take(&mut arena.assignments);
        let result = self.policy.schedule_into(&self.conversion, requests, mask, arena, &mut out);
        let stats = match result {
            Ok(approx_bound) => {
                self.debug_certify(requests, mask, &out, approx_bound);
                Ok(SlotStats {
                    granted: out.len(),
                    requested: requests.total(),
                    approx_bound,
                    path: SlotPath::Cold,
                })
            }
            Err(e) => {
                out.clear();
                Err(e)
            }
        };
        arena.assignments = out;
        stats
    }

    /// Debug builds run the full certificate on every slot: exact policies
    /// (warm-repaired slots included) must produce a feasible *maximum*
    /// matching (Theorems 1 and 2, Berge for the repair path), the
    /// approximation must stay within its Theorem 3 bound.
    fn debug_certify(
        &self,
        requests: &RequestVector,
        mask: &ChannelMask,
        out: &[Assignment],
        approx_bound: Option<usize>,
    ) {
        debug_assert!(
            crate::verify::certify(&self.conversion, requests, mask, out, approx_bound).is_ok(),
            "scheduler produced an uncertifiable schedule under {:?}",
            self.policy
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_requests() -> RequestVector {
        RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap()
    }

    #[test]
    fn auto_policy_dispatches_by_kind() {
        let mask = ChannelMask::all_free(6);
        for conv in [
            Conversion::symmetric_circular(6, 3).unwrap(),
            Conversion::non_circular(6, 1, 1).unwrap(),
            Conversion::full(6).unwrap(),
        ] {
            let s = FiberScheduler::new(conv, Policy::Auto);
            let schedule = s.schedule_with_mask(&paper_requests(), &mask).unwrap();
            assert_eq!(schedule.granted(), 6, "conv {conv:?}");
            assert_eq!(schedule.rejected(), 1);
            assert!(schedule.is_exact());
        }
    }

    #[test]
    fn all_policies_agree_with_baseline_on_paper_example() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = paper_requests();
        let baseline =
            FiberScheduler::new(conv, Policy::HopcroftKarp).schedule(&rv).unwrap().granted();
        for policy in [Policy::Auto, Policy::BreakFirstAvailable] {
            let got = FiberScheduler::new(conv, policy).schedule(&rv).unwrap().granted();
            assert_eq!(got, baseline, "{policy:?}");
        }
        // The approximation may lose up to (d−1)/2 = 1.
        let approx = FiberScheduler::new(conv, Policy::Approximate).schedule(&rv).unwrap();
        assert!(approx.granted() + approx.approx_bound().unwrap() >= baseline);
    }

    #[test]
    fn wrong_policy_for_kind_errors() {
        let circular = Conversion::symmetric_circular(6, 3).unwrap();
        assert!(FiberScheduler::new(circular, Policy::FirstAvailable)
            .schedule(&RequestVector::new(6))
            .is_err());
        let non_circular = Conversion::non_circular(6, 1, 1).unwrap();
        assert!(FiberScheduler::new(non_circular, Policy::BreakFirstAvailable)
            .schedule(&RequestVector::new(6))
            .is_err());
    }

    #[test]
    fn schedule_accounting() {
        let conv = Conversion::none(4).unwrap();
        let rv = RequestVector::from_counts(vec![3, 0, 1, 0]).unwrap();
        let s = FiberScheduler::new(conv, Policy::Auto).schedule(&rv).unwrap();
        assert_eq!(s.requested(), 4);
        assert_eq!(s.granted(), 2);
        assert_eq!(s.rejected(), 2);
        assert_eq!(s.granted_per_wavelength(4), vec![1, 0, 1, 0]);
    }

    #[test]
    fn hopcroft_karp_policy_with_mask() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = paper_requests();
        let mask = ChannelMask::with_occupied(6, &[0, 1]).unwrap();
        let hk =
            FiberScheduler::new(conv, Policy::HopcroftKarp).schedule_with_mask(&rv, &mask).unwrap();
        let bfa = FiberScheduler::new(conv, Policy::BreakFirstAvailable)
            .schedule_with_mask(&rv, &mask)
            .unwrap();
        assert_eq!(hk.granted(), bfa.granted());
    }

    /// After every repaired slot of a coherent sequence `warm_owner` equals
    /// that slot's assignments: the array the rebuild that repaired slots
    /// skip would have produced.
    #[test]
    fn repaired_slots_leave_warm_owner_equal_to_the_schedule() {
        for (conv, policy) in [
            (Conversion::symmetric_circular(64, 7).unwrap(), Policy::BreakFirstAvailable),
            (Conversion::symmetric_non_circular(64, 7).unwrap(), Policy::FirstAvailable),
            (Conversion::symmetric_circular(130, 9).unwrap(), Policy::Auto),
        ] {
            let k = conv.k();
            let mut scheduler = FiberScheduler::new(conv, policy);
            let mut arena = ScratchArena::for_k(k);
            let mut state = 0x9E37_79B9_7F4A_7C15_u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as usize
            };
            let mut counts: Vec<usize> = (0..k).map(|_| next() % 3).collect();
            let mut free: Vec<bool> = (0..k).map(|_| next() % 8 != 0).collect();
            let mut repaired = 0;
            for _ in 0..400 {
                // Two wavelengths redrawn per slot, and now and then a
                // channel taken or released.
                for _ in 0..2 {
                    let w = next() % k;
                    counts[w] = next() % 3;
                }
                if next() % 4 == 0 {
                    let u = next() % k;
                    free[u] = !free[u];
                }
                let rv = RequestVector::from_counts(counts.clone()).unwrap();
                let mask = ChannelMask::from_flags(free.clone()).unwrap();
                let stats = scheduler.schedule_slot(&rv, &mask, &mut arena).unwrap();
                if stats.path == SlotPath::Repaired {
                    repaired += 1;
                    let mut expected = vec![None; k];
                    for a in arena.assignments() {
                        expected[a.output] = Some(a.input);
                    }
                    assert_eq!(scheduler.warm_owner, expected, "{policy:?}, k = {k}");
                }
            }
            assert!(repaired > 300, "{policy:?}, k = {k}: only {repaired} of 400 slots repaired");
        }
    }

    #[test]
    fn policy_names_round_trip() {
        let all = [
            Policy::Auto,
            Policy::FirstAvailable,
            Policy::BreakFirstAvailable,
            Policy::Approximate,
            Policy::HopcroftKarp,
        ];
        for p in all {
            assert_eq!(p.name().parse::<Policy>().unwrap(), p);
            assert_eq!(p.to_string(), p.name());
        }
        assert!(matches!(
            "nonsense".parse::<Policy>(),
            Err(Error::UnknownPolicy { ref name }) if name == "nonsense"
        ));
    }
}
