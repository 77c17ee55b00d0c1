//! The First Available hardware unit (paper §III).
//!
//! One clock cycle per output channel: mask the pending-wavelength register
//! with the channel's conversion-range mask, priority-encode the first
//! pending convertible wavelength, grant it, decrement its counter. `k`
//! cycles per slot, independent of `N` and `d` — the paper's `O(k)` claim in
//! cycle-exact form.

use wdm_core::algorithms::Assignment;
use wdm_core::{ChannelMask, Conversion, ConversionKind, Error, RequestVector};

use crate::encoder::PriorityEncoder;
use crate::register::BitRegister;

/// The outcome of running a hardware unit for one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitResult {
    /// Wavelength-level grants, in the order they were latched.
    pub assignments: Vec<Assignment>,
    /// Clock cycles consumed.
    pub cycles: usize,
}

/// A cycle-counted First Available scheduling unit for non-circular
/// conversion.
#[derive(Debug, Clone)]
pub struct FirstAvailableUnit {
    conv: Conversion,
    encoder: PriorityEncoder,
}

impl FirstAvailableUnit {
    /// Builds the unit. Returns an error unless the conversion is
    /// non-circular (Theorem 1's precondition).
    pub fn new(conv: Conversion) -> Result<FirstAvailableUnit, Error> {
        if conv.kind() != ConversionKind::NonCircular {
            return Err(Error::UnsupportedConversion {
                algorithm: "First Available hardware unit",
                requires: "non-circular conversion",
            });
        }
        Ok(FirstAvailableUnit { encoder: PriorityEncoder::new(&conv), conv })
    }

    /// The conversion scheme.
    pub fn conversion(&self) -> &Conversion {
        &self.conv
    }

    /// Runs one slot: `k` cycles, one output channel per cycle.
    pub fn run(&self, requests: &RequestVector, mask: &ChannelMask) -> Result<UnitResult, Error> {
        self.conv.check_k(requests.k())?;
        self.conv.check_k(mask.k())?;
        let k = self.conv.k();

        // Pending-per-wavelength down counters plus the one-bit "has
        // pending" summary register the encoder looks at.
        let mut counters: Vec<usize> = requests.counts().to_vec();
        let mut nonzero = BitRegister::new(k);
        for (w, &c) in counters.iter().enumerate() {
            if c > 0 {
                nonzero.set(w);
            }
        }

        let mut assignments = Vec::new();
        let mut cycles = 0usize;
        for u in 0..k {
            cycles += 1;
            if !mask.is_free(u) {
                continue;
            }
            if let Some(w) = self.encoder.encode(u, &nonzero) {
                assignments.push(Assignment { input: w, output: u });
                counters[w] -= 1;
                if counters[w] == 0 {
                    nonzero.clear(w);
                }
            }
        }
        Ok(UnitResult { assignments, cycles })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (k, e, f, counts, occupied-channels) test case.
    type OccupiedCase = (usize, usize, usize, Vec<usize>, Vec<usize>);
    use wdm_core::algorithms::{validate_assignments, FirstAvailable, Matcher};

    fn sorted(mut a: Vec<Assignment>) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = a.drain(..).map(|x| (x.input, x.output)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_software_fa_on_paper_example() {
        let conv = Conversion::non_circular(6, 1, 1).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let mask = ChannelMask::all_free(6);
        let unit = FirstAvailableUnit::new(conv).unwrap();
        let hw = unit.run(&rv, &mask).unwrap();
        let sw = FirstAvailable.schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(sorted(hw.assignments.clone()), sorted(sw));
        assert_eq!(hw.cycles, 6, "exactly k cycles");
        validate_assignments(&conv, &rv, &mask, &hw.assignments).unwrap();
    }

    #[test]
    fn matches_software_fa_on_battery() {
        let cases: Vec<OccupiedCase> = vec![
            (6, 1, 1, vec![2, 1, 0, 1, 1, 2], vec![]),
            (6, 1, 1, vec![2, 1, 0, 1, 1, 2], vec![0, 3]),
            (8, 2, 1, vec![1, 0, 4, 0, 0, 2, 0, 1], vec![7]),
            (8, 0, 3, vec![3, 3, 3, 3, 0, 0, 0, 0], vec![1, 2]),
            (4, 1, 1, vec![9, 9, 9, 9], vec![]),
            (5, 2, 2, vec![0, 0, 0, 0, 0], vec![0, 1, 2, 3, 4]),
        ];
        for (k, e, f, counts, occupied) in cases {
            let conv = Conversion::non_circular(k, e, f).unwrap();
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let mask = ChannelMask::with_occupied(k, &occupied).unwrap();
            let unit = FirstAvailableUnit::new(conv).unwrap();
            let hw = unit.run(&rv, &mask).unwrap();
            let sw = FirstAvailable.schedule(&conv, &rv, &mask).unwrap();
            assert_eq!(
                sorted(hw.assignments),
                sorted(sw),
                "k={k} e={e} f={f} counts={counts:?} occupied={occupied:?}"
            );
            assert_eq!(hw.cycles, k);
        }
    }

    #[test]
    fn cycle_count_is_k_regardless_of_load() {
        let conv = Conversion::non_circular(16, 1, 1).unwrap();
        let unit = FirstAvailableUnit::new(conv).unwrap();
        let empty = unit.run(&RequestVector::new(16), &ChannelMask::all_free(16)).unwrap();
        let full = unit
            .run(&RequestVector::from_counts(vec![10; 16]).unwrap(), &ChannelMask::all_free(16))
            .unwrap();
        assert_eq!(empty.cycles, 16);
        assert_eq!(full.cycles, 16);
    }

    #[test]
    fn rejects_circular_conversion() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        assert!(FirstAvailableUnit::new(conv).is_err());
    }

    #[test]
    fn rejects_mismatched_dimensions() {
        let conv = Conversion::non_circular(6, 1, 1).unwrap();
        let unit = FirstAvailableUnit::new(conv).unwrap();
        assert!(unit.run(&RequestVector::new(5), &ChannelMask::all_free(6)).is_err());
        assert!(unit.run(&RequestVector::new(6), &ChannelMask::all_free(7)).is_err());
    }
}
