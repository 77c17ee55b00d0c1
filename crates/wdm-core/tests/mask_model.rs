//! Differential proptests for the word-parallel [`ChannelMask`]: every
//! public operation is checked against a reference `Vec<bool>` model,
//! including the wraparound window/span queries the schedulers lean on.
//!
//! The packed representation (u64 words, popcounts, masked partial words,
//! `trailing_zeros` scans) must be observationally identical to the naive
//! per-channel flags it replaced — these tests pin that, operation by
//! operation, across word boundaries and mutation sequences.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;

use wdm_core::{ChannelMask, Span};

/// Checks every read-only operation of `mask` against the flags model
/// (`true` = free).
fn assert_matches_model(mask: &ChannelMask, model: &[bool]) {
    let k = model.len();
    assert_eq!(mask.k(), k);
    mask.check_integrity().unwrap();
    assert_eq!(mask.free_count(), model.iter().filter(|&&b| b).count());
    assert_eq!(mask.is_all_free(), model.iter().all(|&b| b));

    let free: Vec<usize> = (0..k).filter(|&w| model[w]).collect();
    assert_eq!(mask.free_channels(), free);
    assert_eq!(mask.iter_free().collect::<Vec<usize>>(), free);
    let mut buf = Vec::new();
    mask.free_channels_into(&mut buf);
    assert_eq!(buf, free);

    let mut prefix = vec![0usize];
    for w in 0..k {
        prefix.push(prefix[w] + usize::from(model[w]));
    }
    assert_eq!(mask.free_prefix_counts(), prefix);
    let mut prefix_buf = Vec::new();
    mask.free_prefix_counts_into(&mut prefix_buf);
    assert_eq!(prefix_buf, prefix);

    for (w, &free) in model.iter().enumerate() {
        assert_eq!(mask.is_free(w), free, "channel {w}");
    }
}

/// The model's answer to a window query: free channels in `[lo, hi]`.
fn model_window(model: &[bool], lo: usize, hi: usize) -> Vec<usize> {
    (lo..=hi).filter(|&w| model[w]).collect()
}

/// The model's answer to a span query: free channels in clockwise span
/// order, wrapping past `k − 1` when the span does.
fn model_span(model: &[bool], span: Span) -> Vec<usize> {
    span.iter(model.len()).filter(|&w| model[w]).collect()
}

/// Proptest sample size, shrunk under Miri: the interpreter runs each case
/// orders of magnitude slower than native code, and `cargo xtask miri` needs
/// the whole file inside the CI budget while still crossing every code path.
fn cases(native: u32) -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(miri) { 16 } else { native })
}

proptest! {
    #![proptest_config(cases(256))]

    /// Construction + every read-only query agrees with the flags model,
    /// across word boundaries (k up to 3 words + partial).
    #[test]
    fn reads_match_model(flags in proptest::collection::vec(proptest::bool::weighted(0.6), 1..201)) {
        let mask = ChannelMask::from_flags(flags.clone()).unwrap();
        assert_matches_model(&mask, &flags);
    }

    /// `with_occupied` and `all_free`/`all_occupied` agree with the model.
    #[test]
    fn builders_match_model(
        (k, occupied) in (1usize..=150).prop_flat_map(|k| {
            (Just(k), proptest::collection::vec(0..k, 0..13))
        })
    ) {
        let mask = ChannelMask::with_occupied(k, &occupied).unwrap();
        let mut model = vec![true; k];
        for &w in &occupied {
            model[w] = false;
        }
        assert_matches_model(&mask, &model);
        assert_matches_model(&ChannelMask::all_free(k), &vec![true; k]);
        assert_matches_model(&ChannelMask::all_occupied(k), &vec![false; k]);
    }

    /// Mutation sequences (occupy / free / reset) keep the packed mask in
    /// lockstep with the model, padding invariant included.
    #[test]
    fn mutations_match_model(
        (k, ops) in (1usize..=150).prop_flat_map(|k| {
            let op = (0..k, 0u8..=4).prop_map(|(w, kind)| (w, kind));
            (Just(k), proptest::collection::vec(op, 0..41))
        })
    ) {
        let mut mask = ChannelMask::all_free(k);
        let mut model = vec![true; k];
        for (w, kind) in ops {
            match kind {
                0 | 1 => {
                    mask.set_occupied(w).unwrap();
                    model[w] = false;
                }
                2 | 3 => {
                    mask.set_free(w).unwrap();
                    model[w] = true;
                }
                _ => {
                    mask.reset_all_free();
                    model.fill(true);
                }
            }
            assert_matches_model(&mask, &model);
        }
        // Out-of-range mutations are rejected without corrupting state.
        prop_assert!(mask.set_occupied(k).is_err());
        prop_assert!(mask.set_free(k + 7).is_err());
        assert_matches_model(&mask, &model);
    }

    /// Non-wrapping window queries (`free_in_window`, `any_free_in_window`,
    /// `first_free_in_window`) agree with a per-channel scan of the model.
    #[test]
    fn windows_match_model(
        (flags, lo, hi) in proptest::collection::vec(proptest::bool::weighted(0.4), 1..201)
            .prop_flat_map(|flags| {
                let k = flags.len();
                (0..k, 0..k).prop_map(move |(a, b)| (flags.clone(), a.min(b), a.max(b)))
            })
    ) {
        let mask = ChannelMask::from_flags(flags.clone()).unwrap();
        let expected = model_window(&flags, lo, hi);
        prop_assert_eq!(mask.free_in_window(lo, hi), expected.len());
        prop_assert_eq!(mask.any_free_in_window(lo, hi), !expected.is_empty());
        prop_assert_eq!(mask.first_free_in_window(lo, hi), expected.first().copied());
    }

    /// Span queries — including wraparound arcs, the circular-conversion
    /// case — agree with a clockwise per-channel scan of the model.
    #[test]
    fn spans_match_model(
        (flags, start, len) in proptest::collection::vec(proptest::bool::weighted(0.4), 1..201)
            .prop_flat_map(|flags| {
                let k = flags.len();
                let start = -(k as isize)..(2 * k as isize);
                (Just(flags), start, 0..=k)
            })
    ) {
        let k = flags.len();
        let span = Span::on_ring(start, len, k);
        let mask = ChannelMask::from_flags(flags.clone()).unwrap();
        let expected = model_span(&flags, span);
        prop_assert_eq!(mask.free_in_span(span), expected.len());
        prop_assert_eq!(mask.any_free_in_span(span), !expected.is_empty());
        prop_assert_eq!(mask.first_free_in_span(span), expected.first().copied());
    }
}
