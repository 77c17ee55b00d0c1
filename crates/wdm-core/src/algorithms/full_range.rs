//! The trivial scheduler for full-range conversion (paper §I).
//!
//! With full-range converters every request can use every free channel, so
//! requests are indistinguishable in the wavelength domain: if at most as
//! many requests arrived as there are free channels, grant all; otherwise
//! grant exactly as many as there are free channels (the paper: "arbitrarily
//! pick k out of them").

use crate::arena::ScratchArena;
use crate::conversion::Conversion;
use crate::error::Error;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

use super::{Assignment, Matcher};

/// The `O(k)` scheduler for full-range conversion.
///
/// Grants requests in ascending wavelength order (the "arbitrary pick") and
/// assigns free channels in ascending order: `min(requests, free channels)`
/// grants, a maximum matching. Needs no scratch — the trivial scheduler has
/// no intermediate state. Returns an error if `conv` is not full-range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FullRange;

impl Matcher for FullRange {
    /// Paper: §I (full-range conversion: grant min(requests, free channels)).
    fn schedule_into(
        &self,
        conv: &Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
        _scratch: &mut ScratchArena,
        out: &mut Vec<Assignment>,
    ) -> Result<Option<usize>, Error> {
        out.clear();
        conv.check_k(requests.k())?;
        conv.check_k(mask.k())?;
        if !conv.is_full() {
            return Err(Error::UnsupportedConversion {
                algorithm: "full-range scheduler",
                requires: "full-range conversion (degree d = k, circular)",
            });
        }
        let mut free = mask.iter_free();
        'outer: for (w, count) in requests.iter_nonzero() {
            for _ in 0..count {
                match free.next() {
                    Some(ch) => out.push(Assignment { input: w, output: ch }),
                    None => break 'outer,
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::validate_assignments;

    #[test]
    fn grants_all_when_underloaded() {
        let conv = Conversion::full(6).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 0]).unwrap();
        let mask = ChannelMask::all_free(6);
        let a = FullRange.schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(a.len(), 5);
        validate_assignments(&conv, &rv, &mask, &a).unwrap();
    }

    #[test]
    fn grants_k_when_overloaded() {
        // The paper's observation: the Fig. 3 request vector is fully
        // satisfiable up to k with full-range conversion.
        let conv = Conversion::full(6).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let mask = ChannelMask::all_free(6);
        let a = FullRange.schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(a.len(), 6);
        validate_assignments(&conv, &rv, &mask, &a).unwrap();
    }

    #[test]
    fn respects_occupied_channels() {
        let conv = Conversion::full(4).unwrap();
        let rv = RequestVector::from_counts(vec![4, 0, 0, 0]).unwrap();
        let mask = ChannelMask::with_occupied(4, &[0, 2]).unwrap();
        let a = FullRange.schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(a.len(), 2);
        validate_assignments(&conv, &rv, &mask, &a).unwrap();
    }

    #[test]
    fn rejects_limited_range() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::new(6);
        let mask = ChannelMask::all_free(6);
        assert!(matches!(
            FullRange.schedule(&conv, &rv, &mask),
            Err(Error::UnsupportedConversion { .. })
        ));
    }
}
