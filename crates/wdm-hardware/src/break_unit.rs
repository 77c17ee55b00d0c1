//! The Break and First Available hardware unit (paper §IV-B).
//!
//! "We can also implement this algorithm in parallel and time complexity
//! could be reduced to O(k), but we then need d units of hardware." This
//! module models exactly that: `d` First-Available sub-units, one per
//! candidate breaking edge, each scanning the `k−1` rotated output channels
//! in lock-step; a compare tree picks the largest result. Cycle counts are
//! reported both for the sequential configuration (one unit reused `d`
//! times, `O(dk)` cycles) and the parallel one (`d` units, `O(k)` cycles).
//!
//! Full-range conversion degenerates to a single scan with all-ones masks
//! (the trivial scheduler of §I).

use wdm_core::algorithms::Assignment;
use wdm_core::breaking::{reduced_span, SameWavelengthOrder};
use wdm_core::{ChannelMask, Conversion, ConversionKind, Error, RequestVector};

use crate::register::BitRegister;

/// The outcome of a Break-and-First-Available hardware run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakResult {
    /// Wavelength-level grants (including the breaking edge).
    pub assignments: Vec<Assignment>,
    /// Number of sub-units instantiated (= candidate breaking edges tried).
    pub units: usize,
    /// Cycles when the sub-units run one after another: `units · (k−1) + 1`.
    pub cycles_sequential: usize,
    /// Cycles when the sub-units run in parallel: `(k−1) + ceil(log2 units)`
    /// for the scan plus the compare tree.
    pub cycles_parallel: usize,
}

/// A cycle-counted Break and First Available scheduling unit for circular
/// conversion (full-range included).
#[derive(Debug, Clone)]
pub struct BreakFaUnit {
    conv: Conversion,
}

impl BreakFaUnit {
    /// Builds the unit. Returns an error unless the conversion is circular.
    pub fn new(conv: Conversion) -> Result<BreakFaUnit, Error> {
        if conv.kind() != ConversionKind::Circular {
            return Err(Error::UnsupportedConversion {
                algorithm: "Break and First Available hardware unit",
                requires: "circular conversion",
            });
        }
        Ok(BreakFaUnit { conv })
    }

    /// The conversion scheme.
    pub fn conversion(&self) -> &Conversion {
        &self.conv
    }

    /// Runs one slot.
    pub fn run(&self, requests: &RequestVector, mask: &ChannelMask) -> Result<BreakResult, Error> {
        self.conv.check_k(requests.k())?;
        self.conv.check_k(mask.k())?;
        let k = self.conv.k();

        if self.conv.is_full() {
            return Ok(self.run_full_range(requests, mask));
        }

        // Breaking wavelength: first pending wavelength with a free adjacent
        // channel (isolated wavelengths can never be granted).
        let breaking = requests
            .iter_nonzero()
            .map(|(w, _)| w)
            .find(|&w| self.conv.adjacency(w).iter(k).any(|u| mask.is_free(u)));
        let Some(w_i) = breaking else {
            return Ok(BreakResult {
                assignments: Vec::new(),
                units: 0,
                cycles_sequential: 1,
                cycles_parallel: 1,
            });
        };

        let mut best: Option<Vec<Assignment>> = None;
        let mut units = 0usize;
        for u in self.conv.adjacency(w_i).iter(k) {
            if !mask.is_free(u) {
                continue;
            }
            units += 1;
            let mut candidate = self.sub_unit_scan(requests, mask, w_i, u);
            candidate.push(Assignment { input: w_i, output: u });
            if best.as_ref().is_none_or(|b| candidate.len() > b.len()) {
                best = Some(candidate);
            }
        }
        let scan = k.saturating_sub(1);
        Ok(BreakResult {
            assignments: best.unwrap_or_default(),
            units,
            cycles_sequential: units * scan + 1,
            // Scan plus the depth of the compare tree, ceil(log2 units).
            cycles_parallel: scan + units.next_power_of_two().trailing_zeros() as usize,
        })
    }

    /// One sub-unit: scans the `k−1` rotated channels, each cycle priority-
    /// encoding the first pending wavelength whose *reduced* adjacency set
    /// (paper §IV-A, embedded combinationally) contains the channel.
    fn sub_unit_scan(
        &self,
        requests: &RequestVector,
        mask: &ChannelMask,
        w_i: usize,
        u: usize,
    ) -> Vec<Assignment> {
        let k = self.conv.k();
        let mut counters: Vec<usize> = requests.counts().to_vec();
        counters[w_i] -= 1; // the breaking vertex is granted separately
                            // Pending register in *rotated* wavelength order so that "first
                            // pending" means first in the reduced graph's left order.
        let mut pending = BitRegister::new(k);
        for off in 0..k {
            let w = (w_i + off) % k;
            if counters[w] > 0 {
                pending.set(off);
            }
        }

        let mut assignments = Vec::new();
        for r in 0..k - 1 {
            let x = (u + 1 + r) % k; // rotated output channel
            if !mask.is_free(x) {
                continue;
            }
            // Combinational mask: wavelengths whose reduced adjacency
            // contains x — a subset of the d wavelengths reaching x.
            let mut mask_reg = BitRegister::new(k);
            for w in self.conv.reachable_from(x).iter(k) {
                let span = reduced_span(&self.conv, w_i, u, w, SameWavelengthOrder::After);
                if span.contains(x, k) {
                    mask_reg.set((w + k - w_i) % k);
                }
            }
            mask_reg.and_with(&pending);
            if let Some(off) = mask_reg.first_set() {
                let w = (w_i + off) % k;
                assignments.push(Assignment { input: w, output: x });
                counters[w] -= 1;
                if counters[w] == 0 {
                    pending.clear(off);
                }
            }
        }
        assignments
    }

    /// Full-range degenerate case: one scan, all-ones conversion masks.
    fn run_full_range(&self, requests: &RequestVector, mask: &ChannelMask) -> BreakResult {
        let k = self.conv.k();
        let mut counters: Vec<usize> = requests.counts().to_vec();
        let mut pending = BitRegister::new(k);
        for (w, &c) in counters.iter().enumerate() {
            if c > 0 {
                pending.set(w);
            }
        }
        let mut assignments = Vec::new();
        for u in 0..k {
            if !mask.is_free(u) {
                continue;
            }
            if let Some(w) = pending.first_set() {
                assignments.push(Assignment { input: w, output: u });
                counters[w] -= 1;
                if counters[w] == 0 {
                    pending.clear(w);
                }
            }
        }
        BreakResult { assignments, units: 1, cycles_sequential: k, cycles_parallel: k }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (k, e, f, counts, occupied-channels) test case.
    type OccupiedCase = (usize, usize, usize, Vec<usize>, Vec<usize>);
    use wdm_core::algorithms::{validate_assignments, BreakFirstAvailable, Matcher};

    #[test]
    fn matches_software_bfa_on_paper_example() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let mask = ChannelMask::all_free(6);
        let unit = BreakFaUnit::new(conv).unwrap();
        let hw = unit.run(&rv, &mask).unwrap();
        assert_eq!(hw.assignments.len(), 6);
        validate_assignments(&conv, &rv, &mask, &hw.assignments).unwrap();
        assert_eq!(hw.units, 3);
        assert_eq!(hw.cycles_sequential, 3 * 5 + 1);
    }

    #[test]
    fn matches_software_bfa_size_on_battery() {
        let cases: Vec<OccupiedCase> = vec![
            (6, 1, 1, vec![2, 1, 0, 1, 1, 2], vec![]),
            (6, 1, 1, vec![0, 2, 3, 0, 1, 0], vec![]),
            (6, 1, 1, vec![2, 2, 2, 2, 2, 2], vec![0, 3]),
            (8, 2, 1, vec![1, 0, 4, 0, 0, 2, 0, 1], vec![5]),
            (5, 2, 2, vec![5, 0, 0, 0, 5], vec![]),
            (7, 3, 2, vec![1, 2, 3, 0, 0, 0, 1], vec![6]),
            (4, 1, 1, vec![4, 4, 4, 4], vec![]),
            (2, 0, 1, vec![3, 3], vec![]),
        ];
        for (k, e, f, counts, occupied) in cases {
            let conv = Conversion::circular(k, e, f).unwrap();
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let mask = ChannelMask::with_occupied(k, &occupied).unwrap();
            let unit = BreakFaUnit::new(conv).unwrap();
            let hw = unit.run(&rv, &mask).unwrap();
            validate_assignments(&conv, &rv, &mask, &hw.assignments).unwrap();
            let sw = BreakFirstAvailable::default().schedule(&conv, &rv, &mask).unwrap();
            assert_eq!(
                hw.assignments.len(),
                sw.len(),
                "k={k} e={e} f={f} counts={counts:?} occupied={occupied:?}"
            );
        }
    }

    #[test]
    fn full_range_unit() {
        let conv = Conversion::full(6).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let mask = ChannelMask::all_free(6);
        let unit = BreakFaUnit::new(conv).unwrap();
        let hw = unit.run(&rv, &mask).unwrap();
        assert_eq!(hw.assignments.len(), 6);
        assert_eq!(hw.units, 1);
        validate_assignments(&conv, &rv, &mask, &hw.assignments).unwrap();
    }

    #[test]
    fn parallel_cycles_are_independent_of_d() {
        // d = 3 vs d = 7 on k = 16: parallel cycle counts differ only by the
        // compare tree depth, not by a factor of d.
        let rv = RequestVector::from_counts(vec![2; 16]).unwrap();
        let mask = ChannelMask::all_free(16);
        let d3 = BreakFaUnit::new(Conversion::symmetric_circular(16, 3).unwrap())
            .unwrap()
            .run(&rv, &mask)
            .unwrap();
        let d7 = BreakFaUnit::new(Conversion::symmetric_circular(16, 7).unwrap())
            .unwrap()
            .run(&rv, &mask)
            .unwrap();
        assert_eq!(d3.units, 3);
        assert_eq!(d7.units, 7);
        assert!(d7.cycles_sequential > 2 * d3.cycles_sequential);
        assert!(d7.cycles_parallel <= d3.cycles_parallel + 2);
    }

    #[test]
    fn no_requests() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let unit = BreakFaUnit::new(conv).unwrap();
        let hw = unit.run(&RequestVector::new(6), &ChannelMask::all_free(6)).unwrap();
        assert!(hw.assignments.is_empty());
        assert_eq!(hw.units, 0);
    }

    #[test]
    fn rejects_non_circular() {
        let conv = Conversion::non_circular(6, 1, 1).unwrap();
        assert!(BreakFaUnit::new(conv).is_err());
    }
}
