//! The scheduling/matching algorithms of the paper plus baselines.
//!
//! | Algorithm | Paper | Applies to | Complexity |
//! |-----------|-------|-----------|------------|
//! | [`first_available`] | Table 2, Thm 1 | non-circular conversion (convex request graphs with monotone endpoints) | `O(k)` |
//! | [`glover`] | Table 1 | any convex bipartite graph | `O((n+k) log n)` |
//! | [`break_fa`] | Table 3, Thm 2 | circular conversion | `O(dk)` |
//! | [`approx`] | §IV-C, Thm 3 | circular conversion | `O(k)`, within `(d−1)/2` of optimal |
//! | [`full_range`] | §I | full-range conversion | `O(k)` |
//! | [`hopcroft_karp`] | baseline [1] | arbitrary request graphs | `O(E sqrt(V))` |
//! | [`kuhn`] | verification oracle | arbitrary request graphs | `O(V · E)` |
//!
//! The per-slot schedulers implement [`Matcher`]: [`FirstAvailable`],
//! [`BreakFirstAvailable`], [`Approximate`], [`FullRange`], the
//! [`HopcroftKarp`] baseline, and [`crate::Policy`], which picks among them.
//! Each schedules a [`crate::RequestVector`] onto a [`crate::ChannelMask`]
//! out of a reused [`ScratchArena`] and reports the distance-to-maximum
//! bound its theorem guarantees, so [`crate::verify::certified`] judges
//! every scheduler by one certificate.
//!
//! The graph and interval functions (`first_available`,
//! `first_available_matching`, `break_fa_matching`, `glover`,
//! `hopcroft_karp`, `kuhn`, and their `*_into`/`*_in` arena forms) are the
//! reference implementations the tests compare the schedulers against.

pub mod approx;
pub mod break_fa;
pub mod first_available;
pub mod full_range;
pub mod glover;
pub mod hopcroft_karp;
pub mod kuhn;
pub mod repair;

pub use approx::{approx_schedule, approx_schedule_into, ApproxOutcome, ApproxStats, Approximate};
pub use break_fa::{break_fa_matching, BreakChoice, BreakFirstAvailable};
pub use first_available::{
    first_available, first_available_into, first_available_matching, ConvexInstance, FirstAvailable,
};
pub use full_range::FullRange;
pub use glover::{glover, glover_into};
pub use hopcroft_karp::{hopcroft_karp, hopcroft_karp_in, HopcroftKarp};
pub use kuhn::{kuhn, kuhn_in};
pub use repair::{repair_schedule_into, RepairOutcome, DEFAULT_REPAIR_BUDGET};

use crate::arena::ScratchArena;
use crate::conversion::Conversion;
use crate::error::Error;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

/// One granted connection in wavelength terms: a request that arrived on
/// `input` leaves on output channel `output`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Assignment {
    /// Input wavelength of the granted request.
    pub input: usize,
    /// Output wavelength channel assigned to it.
    pub output: usize,
}

/// A per-fiber scheduler: grants one slot's requests onto the free output
/// channels.
///
/// Every implementation is judged by one certificate
/// ([`crate::verify::certify`]): its schedule is feasible and a maximum
/// matching of the slot's request graph, or within the bound it reports of
/// one.
pub trait Matcher {
    /// Schedules one slot into caller-provided buffers.
    ///
    /// `out` is cleared and receives the granted assignments; every
    /// intermediate lives in `scratch`. Once both have reached steady-state
    /// capacity for the fiber's `k` (one warmup slot, or
    /// [`ScratchArena::for_k`]) the compact schedulers perform zero heap
    /// allocations.
    ///
    /// Returns the distance-to-maximum bound the algorithm guarantees:
    /// `None` when the schedule is a maximum matching, `Some(b)` when it is
    /// within `b` of one (Theorem 3).
    fn schedule_into(
        &self,
        conv: &Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
        scratch: &mut ScratchArena,
        out: &mut Vec<Assignment>,
    ) -> Result<Option<usize>, Error>;

    /// [`Self::schedule_into`] with fresh buffers, returning the granted
    /// assignments.
    fn schedule(
        &self,
        conv: &Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
    ) -> Result<Vec<Assignment>, Error> {
        let mut scratch = ScratchArena::new();
        let mut out = Vec::new();
        self.schedule_into(conv, requests, mask, &mut scratch, &mut out)?;
        Ok(out)
    }
}

/// Checks that a list of assignments is a feasible contention-free schedule
/// for the given requests and channel availability:
///
/// * every assigned output channel is free and used at most once,
/// * at most `requests.count(w)` grants are issued per input wavelength,
/// * every grant respects the conversion range.
///
/// Paper: §II (assignment validity: one grant per request and per channel, within conversion range).
pub fn validate_assignments(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
    assignments: &[Assignment],
) -> Result<(), Error> {
    conv.check_k(requests.k())?;
    conv.check_k(mask.k())?;
    let k = conv.k();
    let mut used_output = vec![false; k];
    let mut granted = vec![0usize; k];
    for a in assignments {
        if a.input >= k {
            return Err(Error::InvalidWavelength { wavelength: a.input, k });
        }
        if a.output >= k {
            return Err(Error::InvalidWavelength { wavelength: a.output, k });
        }
        if !mask.is_free(a.output) || used_output[a.output] {
            return Err(Error::AlreadyMatched { left_side: false, index: a.output });
        }
        used_output[a.output] = true;
        granted[a.input] += 1;
        if granted[a.input] > requests.count(a.input) {
            return Err(Error::AlreadyMatched { left_side: true, index: a.input });
        }
        if !conv.converts(a.input, a.output) {
            return Err(Error::NotAnEdge { left: a.input, right: a.output });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_feasible_schedule() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let mask = ChannelMask::all_free(6);
        let assignments = vec![
            Assignment { input: 0, output: 5 },
            Assignment { input: 0, output: 0 },
            Assignment { input: 1, output: 1 },
            Assignment { input: 3, output: 2 },
            Assignment { input: 4, output: 3 },
            Assignment { input: 5, output: 4 },
        ];
        validate_assignments(&conv, &rv, &mask, &assignments).unwrap();
    }

    #[test]
    fn validate_rejects_double_channel_use() {
        let conv = Conversion::full(4).unwrap();
        let rv = RequestVector::from_counts(vec![2, 0, 0, 0]).unwrap();
        let mask = ChannelMask::all_free(4);
        let assignments =
            vec![Assignment { input: 0, output: 1 }, Assignment { input: 0, output: 1 }];
        assert!(validate_assignments(&conv, &rv, &mask, &assignments).is_err());
    }

    #[test]
    fn validate_rejects_overgranting_a_wavelength() {
        let conv = Conversion::full(4).unwrap();
        let rv = RequestVector::from_counts(vec![1, 0, 0, 0]).unwrap();
        let mask = ChannelMask::all_free(4);
        let assignments =
            vec![Assignment { input: 0, output: 1 }, Assignment { input: 0, output: 2 }];
        assert!(validate_assignments(&conv, &rv, &mask, &assignments).is_err());
    }

    #[test]
    fn validate_rejects_occupied_channel() {
        let conv = Conversion::full(4).unwrap();
        let rv = RequestVector::from_counts(vec![1, 0, 0, 0]).unwrap();
        let mask = ChannelMask::with_occupied(4, &[1]).unwrap();
        let assignments = vec![Assignment { input: 0, output: 1 }];
        assert!(validate_assignments(&conv, &rv, &mask, &assignments).is_err());
    }

    #[test]
    fn validate_rejects_out_of_conversion_range() {
        let conv = Conversion::none(4).unwrap();
        let rv = RequestVector::from_counts(vec![1, 0, 0, 0]).unwrap();
        let mask = ChannelMask::all_free(4);
        let assignments = vec![Assignment { input: 0, output: 1 }];
        assert!(matches!(
            validate_assignments(&conv, &rv, &mask, &assignments),
            Err(Error::NotAnEdge { left: 0, right: 1 })
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_wavelengths() {
        let conv = Conversion::full(4).unwrap();
        let rv = RequestVector::from_counts(vec![1, 0, 0, 0]).unwrap();
        let mask = ChannelMask::all_free(4);
        assert!(
            validate_assignments(&conv, &rv, &mask, &[Assignment { input: 4, output: 0 }]).is_err()
        );
        assert!(
            validate_assignments(&conv, &rv, &mask, &[Assignment { input: 0, output: 4 }]).is_err()
        );
    }
}
