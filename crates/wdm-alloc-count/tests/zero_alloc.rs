//! Allocation-regression test: steady-state `schedule_slot` is
//! allocation-free.
//!
//! The whole measurement lives in a single `#[test]` because the counters
//! are process-global: a second test allocating concurrently on a harness
//! thread would show up inside the measurement window.
//!
//! The assertion only runs in builds without debug assertions: with them
//! enabled, `schedule_slot` runs the full matching certificate every slot
//! (rebuilding the request graph and running Hopcroft–Karp), which allocates
//! by design. CI therefore runs this test with a plain `--release` pass in
//! addition to the release-with-debug-assertions matrix leg.
//!
//! The cold Break-and-First-Available path works entirely in `ScratchArena`
//! buffers that `for_k` primes: the slot tables (`outputs`, `prefix`, the
//! `pending` request bitset, `rot_requests`), the break candidates (`items`,
//! `candidate`), and, for the maximality check after a promotion with at
//! least three free breaking channels still ahead, `match_right`,
//! `repair_matched` and `repair_words`.
//!
//! Each output fiber's grant resolver sizes its per-wavelength source-fiber
//! rows (`⌈n/64⌉` words each), its `n·k` candidate index and its pointers
//! at construction; its granted-candidate bitset and its general loop's
//! chain links grow to the largest call during warmup. The `n = 65`
//! interconnect config keeps two-word rows in the measured window.

#![allow(clippy::unwrap_used)]

use wdm_alloc_count::CountingAlloc;
use wdm_core::{ChannelMask, Conversion, FiberScheduler, Policy, RequestVector, ScratchArena};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Minimal deterministic generator (xorshift64*) — no `rand` dependency, no
/// allocations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Fills `rv` and `mask` with a pseudo-random slot pattern, allocation-free.
fn fill_slot(rng: &mut Rng, k: usize, rv: &mut RequestVector, mask: &mut ChannelMask) {
    rv.clear();
    mask.reset_all_free();
    for w in 0..k {
        // ~60% of wavelengths carry 1–2 requests.
        let r = rng.next();
        if r % 10 < 6 {
            rv.add(w).unwrap();
            if r % 10 < 2 {
                rv.add(w).unwrap();
            }
        }
        // ~20% of channels are occupied by earlier multi-slot connections.
        if (r >> 32) % 10 < 2 {
            mask.set_occupied(w).unwrap();
        }
    }
}

#[test]
fn schedule_slot_steady_state_is_allocation_free() {
    const WARMUP: usize = 8;
    const MEASURED: usize = 512;

    let configs = [
        ("auto/non-circular", 32, Conversion::symmetric_non_circular(32, 7).unwrap(), Policy::Auto),
        ("auto/circular", 32, Conversion::symmetric_circular(32, 7).unwrap(), Policy::Auto),
        ("auto/full-range", 32, Conversion::full(32).unwrap(), Policy::Auto),
        ("fa", 32, Conversion::symmetric_non_circular(32, 5).unwrap(), Policy::FirstAvailable),
        ("bfa", 32, Conversion::symmetric_circular(32, 5).unwrap(), Policy::BreakFirstAvailable),
        ("approx", 32, Conversion::symmetric_circular(32, 7).unwrap(), Policy::Approximate),
        // Multi-word masks (k > 64 bits would need 2+ words; k = 64 fills a
        // whole word, the bench's hot point): the BFA entry drives the
        // shared-prefix candidate path with word-parallel window probes.
        ("fa/k64", 64, Conversion::symmetric_non_circular(64, 7).unwrap(), Policy::FirstAvailable),
        (
            "bfa/k64-shared",
            64,
            Conversion::symmetric_circular(64, 7).unwrap(),
            Policy::BreakFirstAvailable,
        ),
        (
            "bfa/k130-multiword",
            130,
            Conversion::symmetric_circular(130, 9).unwrap(),
            Policy::BreakFirstAvailable,
        ),
    ];

    for (name, k, conv, policy) in configs {
        let mut scheduler = FiberScheduler::new(conv, policy);
        let mut arena = ScratchArena::for_k(k);
        let mut rv = RequestVector::new(k);
        let mut mask = ChannelMask::all_free(k);
        let mut rng = Rng(0x5EED_0001);

        let mut granted = 0usize;
        for _ in 0..WARMUP {
            fill_slot(&mut rng, k, &mut rv, &mut mask);
            granted += scheduler.schedule_slot(&rv, &mask, &mut arena).unwrap().granted;
        }

        let before = ALLOC.heap_events();
        for _ in 0..MEASURED {
            fill_slot(&mut rng, k, &mut rv, &mut mask);
            granted += scheduler.schedule_slot(&rv, &mask, &mut arena).unwrap().granted;
        }
        let events = ALLOC.heap_events() - before;

        assert!(granted > 0, "{name}: workload must exercise the scheduler");
        if cfg!(debug_assertions) {
            // The per-slot debug_assert certificate allocates by design;
            // only the smoke run above is meaningful in this build.
            continue;
        }
        assert_eq!(
            events, 0,
            "{name}: {events} heap allocations in {MEASURED} steady-state schedule_slot calls"
        );
    }

    warm_repair_slot_loop_is_allocation_free();
    contended_cold_bfa_slot_loop_is_allocation_free();
    two_word_interconnect_slot_loop_is_allocation_free();
    sweep_slot_loop_is_allocation_free();
    coherent_sweep_slot_loop_is_allocation_free();
    serve_slot_loop_is_allocation_free();
    serve_coherent_slot_loop_is_allocation_free();
    serve_reservation_slot_loop_is_allocation_free();
    serve_scenario_slot_loop_is_allocation_free();
    fixed_layout_frames_decode_without_allocating();

    // Sanity-check the counter itself: a deliberate allocation must be seen
    // (done last so it cannot pollute the measurement windows above).
    let before = ALLOC.heap_events();
    let v: Vec<u64> = Vec::with_capacity(64);
    assert!(ALLOC.heap_events() > before, "counter must observe an explicit allocation");
    drop(v);
}

/// The warm-start repair path — the one coherent traffic actually rides —
/// must be allocation-free too: the repair buffers (`repair_matched`,
/// `repair_parent`, `repair_entry`, and the `repair_words` bitsets) live in
/// the [`ScratchArena`] and are primed by `for_k`, so a repaired slot
/// touches no heap at all — with multi-word masks (`k = 130`) as well.
///
/// The flow state driving the coherent pattern is pre-allocated before the
/// measurement window; only a couple of wavelengths change per slot, so the
/// repair path must serve the overwhelming majority of measured slots —
/// asserted via `warm_stats`, not assumed.
///
/// Called from the single `#[test]` above — the counters are process-global.
fn warm_repair_slot_loop_is_allocation_free() {
    const WARMUP: usize = 8;
    const MEASURED: usize = 512;

    let configs = [
        ("warm/bfa-circular", 64, Conversion::symmetric_circular(64, 7).unwrap(), Policy::Auto),
        (
            "warm/fa-non-circular",
            64,
            Conversion::symmetric_non_circular(64, 7).unwrap(),
            Policy::FirstAvailable,
        ),
        (
            "warm/bfa-k130-multiword",
            130,
            Conversion::symmetric_circular(130, 9).unwrap(),
            Policy::BreakFirstAvailable,
        ),
    ];

    for (name, k, conv, policy) in configs {
        let mut scheduler = FiberScheduler::new(conv, policy);
        let mut arena = ScratchArena::for_k(k);
        let mut rv = RequestVector::new(k);
        let mask = ChannelMask::all_free(k);
        let mut rng = Rng(0x5EED_0004);

        // Persistent flow state: ~60% of wavelengths carry one request; each
        // slot retargets roughly two of them. Allocated once, mutated in
        // place inside the window.
        let mut live: Vec<bool> = (0..k).map(|_| rng.next() % 10 < 6).collect();
        let fill = |rv: &mut RequestVector, live: &[bool]| {
            rv.clear();
            for (w, &on) in live.iter().enumerate() {
                if on {
                    rv.add(w).unwrap();
                }
            }
        };

        let mut granted = 0usize;
        for _ in 0..WARMUP {
            fill(&mut rv, &live);
            granted += scheduler.schedule_slot(&rv, &mask, &mut arena).unwrap().granted;
            let flip = rng.next() as usize % k;
            live[flip] = !live[flip];
        }

        let stats_before = scheduler.warm_stats();
        let before = ALLOC.heap_events();
        ALLOC.trap_backtraces(!cfg!(debug_assertions));
        for _ in 0..MEASURED {
            fill(&mut rv, &live);
            granted += scheduler.schedule_slot(&rv, &mask, &mut arena).unwrap().granted;
            let flip = rng.next() as usize % k;
            live[flip] = !live[flip];
        }
        ALLOC.trap_backtraces(false);
        let events = ALLOC.heap_events() - before;

        let repaired = scheduler.warm_stats().repaired - stats_before.repaired;
        assert!(granted > 0, "{name}: workload must exercise the scheduler");
        assert!(
            repaired as usize > MEASURED / 2,
            "{name}: only {repaired}/{MEASURED} measured slots took the repair path"
        );
        if cfg!(debug_assertions) {
            continue;
        }
        assert_eq!(
            events, 0,
            "{name}: {events} heap allocations in {MEASURED} warm-repaired schedule_slot calls"
        );
    }
}

/// Incoherent traffic at high load on a three-word ring (`k = 130`,
/// `d = 9`) keeps Break-and-First-Available on its cold path with
/// contended breaks: every input channel of `N = 8` sources holds a packet
/// for this fiber with probability 0.9/8 and a fifth of the channels are
/// occupied, so the maximum matching often falls short of both the
/// requests and the free channels. Those slots are the ones where the
/// counting bound cannot end the break loop and, with `d = 9` leaving
/// several free breaking channels ahead of a promotion, the maximality
/// check runs; the test asserts that they are common and that the cold
/// path carries the measured slots, then pins 0 allocations.
///
/// Called from the single `#[test]` above — the counters are process-global.
fn contended_cold_bfa_slot_loop_is_allocation_free() {
    const WARMUP: usize = 8;
    const MEASURED: usize = 512;
    const K: usize = 130;
    const SOURCES: usize = 8;

    let conv = Conversion::symmetric_circular(K, 9).unwrap();
    let mut scheduler = FiberScheduler::new(conv, Policy::BreakFirstAvailable);
    let mut arena = ScratchArena::for_k(K);
    let mut rv = RequestVector::new(K);
    let mut mask = ChannelMask::all_free(K);
    let mut rng = Rng(0x5EED_0005);
    let mut fill = |rv: &mut RequestVector, mask: &mut ChannelMask| {
        rv.clear();
        mask.reset_all_free();
        for w in 0..K {
            for _ in 0..SOURCES {
                if rng.next() % 80 < 9 {
                    rv.add(w).unwrap();
                }
            }
            if rng.next() % 10 < 2 {
                mask.set_occupied(w).unwrap();
            }
        }
    };

    for _ in 0..WARMUP {
        fill(&mut rv, &mut mask);
        // Warm-up: the stats are deliberately dropped.
        let _ = scheduler.schedule_slot(&rv, &mask, &mut arena).unwrap();
    }
    let stats_before = scheduler.warm_stats();
    let before = ALLOC.heap_events();
    ALLOC.trap_backtraces(!cfg!(debug_assertions));
    let mut short = 0usize;
    for _ in 0..MEASURED {
        fill(&mut rv, &mut mask);
        let stats = scheduler.schedule_slot(&rv, &mask, &mut arena).unwrap();
        short += usize::from(stats.granted < stats.requested.min(mask.free_count()));
    }
    ALLOC.trap_backtraces(false);
    let events = ALLOC.heap_events() - before;

    let stats = scheduler.warm_stats();
    let from_scratch = (stats.cold + stats.fallback) - (stats_before.cold + stats_before.fallback);
    assert!(
        from_scratch as usize > MEASURED / 2,
        "only {from_scratch}/{MEASURED} measured slots ran Break-and-First-Available from scratch"
    );
    assert!(
        short > MEASURED / 4,
        "only {short}/{MEASURED} measured slots were contended below the counting bound"
    );
    if cfg!(debug_assertions) {
        return;
    }
    assert_eq!(
        events, 0,
        "cold/bfa-k130-contended: {events} heap allocations in {MEASURED} schedule_slot calls"
    );
}

/// The interconnect slot loop (`Interconnect::advance_slot_into`) at
/// `n = 65`, where every fiber's resolver rows take two words and run the
/// general pick loop: `k = 16`, circular `d = 3`, BFA, every input channel
/// sending with probability 0.5 to a random fiber, holds of 1–3 slots.
///
/// Each fiber keeps its own buffers, and with 65 of them a random warmup
/// leaves some below their high-water mark for long. Priming therefore
/// sends one slot of packets from every input channel to each fiber in
/// turn, which takes every per-fiber buffer to its largest call; after a
/// short random warmup the measured slots must make 0 heap events, with
/// grants from source fibers on both row words.
///
/// Called from the single `#[test]` above — the counters are process-global.
fn two_word_interconnect_slot_loop_is_allocation_free() {
    use wdm_interconnect::{ConnectionRequest, Interconnect, InterconnectConfig, SlotResult};

    const N: usize = 65;
    const K: usize = 16;
    const WARMUP: usize = 16;
    const MEASURED: usize = 256;

    let conv = Conversion::symmetric_circular(K, 3).unwrap();
    let config =
        InterconnectConfig::packet_switch(N, conv).with_policy(Policy::BreakFirstAvailable);
    let mut ic = Interconnect::new(config).unwrap();
    let mut rng = Rng(0x5EED_0006);
    let mut requests: Vec<ConnectionRequest> = Vec::with_capacity(N * K);
    let mut out = SlotResult::default();

    for dst in 0..N {
        requests.clear();
        for fiber in 0..N {
            requests.extend((0..K).map(|w| ConnectionRequest::packet(fiber, w, dst)));
        }
        ic.advance_slot_into(&requests, &mut out).unwrap();
    }
    let mut slot = |rng: &mut Rng, requests: &mut Vec<ConnectionRequest>, out: &mut SlotResult| {
        requests.clear();
        for fiber in 0..N {
            for w in 0..K {
                let r = rng.next();
                if r.is_multiple_of(2) {
                    let dst = (r >> 8) as usize % N;
                    let hold = 1 + (r >> 32) as u32 % 3;
                    requests.push(ConnectionRequest::burst(fiber, w, dst, hold));
                }
            }
        }
        ic.advance_slot_into(requests, out).unwrap();
        let high = out.grants.iter().filter(|g| g.request.src_fiber >= 64).count();
        (out.grants.len(), high)
    };
    for _ in 0..WARMUP {
        let _ = slot(&mut rng, &mut requests, &mut out);
    }

    let (mut granted, mut high_word) = (0usize, 0usize);
    let before = ALLOC.heap_events();
    ALLOC.trap_backtraces(!cfg!(debug_assertions));
    for _ in 0..MEASURED {
        let (all, high) = slot(&mut rng, &mut requests, &mut out);
        granted += all;
        high_word += high;
    }
    ALLOC.trap_backtraces(false);
    let events = ALLOC.heap_events() - before;

    assert!(granted > 0, "interconnect/n65: workload must grant");
    assert!(high_word > 0, "interconnect/n65: source fiber 64 must win on the second row word");
    if cfg!(debug_assertions) {
        return;
    }
    assert_eq!(
        events, 0,
        "interconnect/n65: {events} heap allocations in {MEASURED} advance_slot_into calls"
    );
}

/// The persistent-worker sweep's *per-slot* loop must not allocate: running
/// the same grid with more measured slots may only add the amortized metric
/// buffer growth, not per-slot heap traffic.
///
/// Called from the single `#[test]` above — the counters are process-global,
/// so a separate test running on a parallel harness thread would pollute the
/// measurement windows.
fn sweep_slot_loop_is_allocation_free() {
    use wdm_sim::experiment::{run_sweep_with_threads, DegreeSpec, SweepConfig};

    let mut config = SweepConfig::uniform_packets(
        4,
        16,
        vec![DegreeSpec::None, DegreeSpec::Circular(3), DegreeSpec::Full],
        vec![0.4, 0.9],
    );
    config.sim.warmup_slots = 16;

    let mut measure = |slots: u64| {
        config.sim.measure_slots = slots;
        let before = ALLOC.heap_events();
        let rows = run_sweep_with_threads(&config, 2).unwrap();
        let events = ALLOC.heap_events() - before;
        assert_eq!(rows.len(), 6, "sweep must produce one row per grid point");
        events
    };

    // Same grid, same workers — the fixed costs (thread spawn, channel,
    // result slots, row vec) are identical, so the difference isolates what
    // the extra measured slots allocated.
    let short = measure(64);
    let long = measure(64 + 512);
    let marginal = long.saturating_sub(short);
    if cfg!(debug_assertions) {
        // The per-slot matching certificate allocates by design in this
        // build; the runs above were a smoke pass only.
        return;
    }
    // Amortized Vec growth inside the metrics accumulators (the per-slot
    // grant samples double as they grow) is tolerated: doubling means
    // O(log slots) events per grid point. Per-slot allocation — anything
    // linear in the extra 512 slots — is not.
    assert!(
        marginal <= 64,
        "sweep slot loop allocated {marginal} times for 512 extra slots across 6 grid points"
    );
}

/// The same marginal-allocation bound holds for the coherent-streams
/// workload: the per-channel flow state is part of the traffic model and is
/// sized at construction, so the extra measured slots ride the warm repair
/// path without heap traffic beyond the amortized metric-buffer growth.
///
/// Called from the single `#[test]` above — the counters are process-global.
fn coherent_sweep_slot_loop_is_allocation_free() {
    use wdm_sim::experiment::{run_sweep_with_threads, DegreeSpec, SweepConfig, Workload};

    let mut config = SweepConfig::uniform_packets(
        4,
        16,
        vec![DegreeSpec::Circular(3), DegreeSpec::NonCircular(3)],
        vec![0.4, 0.8],
    );
    config.workload = Workload::Coherent { mean_hold: 16.0 };
    config.sim.warmup_slots = 16;

    let mut measure = |slots: u64| {
        config.sim.measure_slots = slots;
        let before = ALLOC.heap_events();
        let rows = run_sweep_with_threads(&config, 2).unwrap();
        let events = ALLOC.heap_events() - before;
        assert_eq!(rows.len(), 4, "sweep must produce one row per grid point");
        events
    };

    let short = measure(64);
    let long = measure(64 + 512);
    let marginal = long.saturating_sub(short);
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        marginal <= 64,
        "coherent sweep slot loop allocated {marginal} times for 512 extra slots \
         across 4 grid points"
    );
}

/// The daemon's steady-state shard slot loop (`SlotEngine::submit` +
/// `SlotEngine::run_slot`, recording off) must be allocation-free: the
/// bounded queues, batch/tag buffers, claim table, reply vector, and every
/// `FiberUnit` arena reach their high-water marks during warmup and are
/// reused thereafter. The repeated-channels config sends each chosen input
/// channel twice, toward different destinations, so every slot also runs
/// source admission's collision path (one copy admitted, the other
/// source-busy).
///
/// Called from the single `#[test]` above — the counters are process-global.
fn serve_slot_loop_is_allocation_free() {
    use wdm_core::Policy as P;
    use wdm_serve::protocol::SubmitRequest;
    use wdm_serve::{EngineConfig, SlotEngine};

    const N: usize = 4;
    const K: usize = 32;
    const WARMUP: u64 = 32;
    const MEASURED: u64 = 512;

    // (name, conversion, policy, copies of each submitted request).
    let configs = [
        ("serve/auto-circular", Conversion::symmetric_circular(K, 5).unwrap(), P::Auto, 1),
        ("serve/fa", Conversion::symmetric_non_circular(K, 5).unwrap(), P::FirstAvailable, 1),
        ("serve/bfa", Conversion::symmetric_circular(K, 5).unwrap(), P::BreakFirstAvailable, 1),
        ("serve/approx", Conversion::symmetric_circular(K, 5).unwrap(), P::Approximate, 1),
        (
            "serve/bfa-repeated-channels",
            Conversion::symmetric_circular(K, 5).unwrap(),
            P::BreakFirstAvailable,
            2,
        ),
    ];

    // One slot of submissions: same shape every slot (~60% of (fiber,
    // wavelength) pairs, each sent `copies` times toward consecutive
    // destinations), so buffer high-water marks are hit in warmup.
    let submit_slot = |engine: &mut SlotEngine, rng: &mut Rng, next_id: &mut u64, copies: usize| {
        for fiber in 0..N {
            for w in 0..K {
                let r = rng.next();
                if r % 10 >= 6 {
                    continue;
                }
                let dst = (r >> 8) as usize % N;
                for copy in 0..copies {
                    let req = SubmitRequest {
                        id: *next_id,
                        src_fiber: fiber as u32,
                        src_wavelength: w as u32,
                        dst_fiber: ((dst + copy) % N) as u32,
                        duration: 1 + ((r >> 16) % 3) as u32,
                    };
                    *next_id += 1;
                    if let Some(_reply) = engine.submit(0, req) {
                        // `submit` denies only invalid requests and full
                        // queues, and neither occurs here; the reply is
                        // plain data, not an allocation.
                    }
                }
            }
        }
    };

    for (name, conv, policy, copies) in configs {
        let mut engine = SlotEngine::new(EngineConfig::new(N, conv, policy)).unwrap();
        let mut out = Vec::new();
        let mut rng = Rng(0x5EED_0002);
        let mut next_id = 0u64;

        let mut grants = 0usize;
        // Prime every buffer to its structural maximum: one slot sending
        // all N*K source channels to a single destination (each copy to the
        // next one) grows that shard's queue, the batch/tag/reply buffers,
        // and the per-fiber partition to the largest size any slot can
        // produce; the fiber→fiber slot maxes
        // the grant vector (all N*K grants) and, with duration 3, the active
        // tables (bounded by K occupied output channels per fiber).
        for fiber in 0..N {
            for w in 0..K {
                let req = SubmitRequest {
                    id: next_id,
                    src_fiber: fiber as u32,
                    src_wavelength: w as u32,
                    dst_fiber: fiber as u32,
                    duration: 3,
                };
                next_id += 1;
                if let Some(_reply) = engine.submit(0, req) {}
            }
        }
        out.clear();
        grants += engine.run_slot(&mut out).grants;
        // Let the duration-3 actives expire (they hold every source channel,
        // which would starve the all-to-one priming slots below of
        // candidates) — empty slots age them out.
        for _ in 0..3 {
            out.clear();
            grants += engine.run_slot(&mut out).grants;
        }
        for dst in 0..N {
            for fiber in 0..N {
                for w in 0..K {
                    for copy in 0..copies {
                        let req = SubmitRequest {
                            id: next_id,
                            src_fiber: fiber as u32,
                            src_wavelength: w as u32,
                            dst_fiber: ((dst + copy) % N) as u32,
                            duration: 3,
                        };
                        next_id += 1;
                        if let Some(_reply) = engine.submit(0, req) {}
                    }
                }
            }
            out.clear();
            grants += engine.run_slot(&mut out).grants;
        }
        for _ in 0..WARMUP {
            submit_slot(&mut engine, &mut rng, &mut next_id, copies);
            out.clear();
            grants += engine.run_slot(&mut out).grants;
        }

        // The trap prints a backtrace for any stray heap event, so a
        // regression names its call site instead of just a count.
        let before = ALLOC.heap_events();
        ALLOC.trap_backtraces(!cfg!(debug_assertions));
        for _ in 0..MEASURED {
            submit_slot(&mut engine, &mut rng, &mut next_id, copies);
            out.clear();
            grants += engine.run_slot(&mut out).grants;
        }
        ALLOC.trap_backtraces(false);
        let events = ALLOC.heap_events() - before;

        assert!(grants > 0, "{name}: workload must exercise the daemon engine");
        if cfg!(debug_assertions) {
            continue;
        }
        assert_eq!(
            events, 0,
            "{name}: {events} heap allocations in {MEASURED} steady-state daemon slots"
        );
    }
}

/// The daemon slot loop stays allocation-free on *coherent* traffic, where
/// the per-fiber schedulers ride the warm repair path nearly every slot:
/// persistent flows re-submit the same (source, destination) pairs each
/// slot, so the repaired matching barely changes. The flow table is
/// pre-allocated before the measurement window, and the repair rate is
/// asserted through [`wdm_serve::SlotEngine::warm_stats`], not assumed.
///
/// Called from the single `#[test]` above — the counters are process-global.
fn serve_coherent_slot_loop_is_allocation_free() {
    use wdm_core::Policy as P;
    use wdm_serve::protocol::SubmitRequest;
    use wdm_serve::{EngineConfig, SlotEngine};

    const N: usize = 4;
    const K: usize = 32;
    const WARMUP: u64 = 32;
    const MEASURED: u64 = 512;

    let conv = Conversion::symmetric_circular(K, 5).unwrap();
    let mut engine = SlotEngine::new(EngineConfig::new(N, conv, P::BreakFirstAvailable)).unwrap();
    let mut out = Vec::new();
    let mut rng = Rng(0x5EED_0005);
    let mut next_id = 0u64;

    // Persistent flow table: ~60% of (fiber, wavelength) channels carry a
    // flow toward a fixed destination; each slot retargets a couple of
    // channels. Allocated once, mutated in place.
    let mut flows: Vec<Option<u32>> = (0..N * K)
        .map(|_| {
            let r = rng.next();
            (r % 10 < 6).then_some(((r >> 8) % N as u64) as u32)
        })
        .collect();

    let drive_slot =
        |engine: &mut SlotEngine, flows: &mut Vec<Option<u32>>, rng: &mut Rng, id: &mut u64| {
            for fiber in 0..N {
                for w in 0..K {
                    if let Some(dst) = flows[fiber * K + w] {
                        let req = SubmitRequest {
                            id: *id,
                            src_fiber: fiber as u32,
                            src_wavelength: w as u32,
                            dst_fiber: dst,
                            duration: 1,
                        };
                        *id += 1;
                        if let Some(_reply) = engine.submit(0, req) {}
                    }
                }
            }
            // Two channel birth/death/retarget events per slot.
            for _ in 0..2 {
                let r = rng.next();
                let cell = (r % (N * K) as u64) as usize;
                flows[cell] = match flows[cell] {
                    Some(_) => None,
                    None => Some(((r >> 8) % N as u64) as u32),
                };
            }
        };

    // Prime the shard queues and reply buffers to their structural maxima
    // exactly like the incoherent daemon pin does.
    for dst in 0..N {
        for fiber in 0..N {
            for w in 0..K {
                let req = SubmitRequest {
                    id: next_id,
                    src_fiber: fiber as u32,
                    src_wavelength: w as u32,
                    dst_fiber: dst as u32,
                    duration: 1,
                };
                next_id += 1;
                if let Some(_reply) = engine.submit(0, req) {}
            }
        }
        out.clear();
        let _ = engine.run_slot(&mut out);
    }

    let mut grants = 0usize;
    for _ in 0..WARMUP {
        drive_slot(&mut engine, &mut flows, &mut rng, &mut next_id);
        out.clear();
        grants += engine.run_slot(&mut out).grants;
    }

    let warm_before = engine.warm_stats();
    let before = ALLOC.heap_events();
    ALLOC.trap_backtraces(!cfg!(debug_assertions));
    for _ in 0..MEASURED {
        drive_slot(&mut engine, &mut flows, &mut rng, &mut next_id);
        out.clear();
        grants += engine.run_slot(&mut out).grants;
    }
    ALLOC.trap_backtraces(false);
    let events = ALLOC.heap_events() - before;

    let repaired = engine.warm_stats().repaired - warm_before.repaired;
    let fiber_slots = MEASURED * N as u64;
    assert!(grants > 0, "serve/coherent: workload must exercise the daemon engine");
    assert!(
        repaired * 2 > fiber_slots,
        "serve/coherent: only {repaired}/{fiber_slots} fiber slots took the repair path"
    );
    if cfg!(debug_assertions) {
        return;
    }
    assert_eq!(
        events, 0,
        "serve/coherent: {events} heap allocations in {MEASURED} coherent daemon slots"
    );
}

/// The daemon slot loop stays allocation-free under a reservation-heavy
/// config: active holds admitted, activated, expired, and released every
/// slot alongside cell traffic. The pending ledger, hold registry, due-drain
/// scratch, and reservation segments of the result/reply buffers all reach
/// their high-water marks during warmup and are reused thereafter.
///
/// Called from the single `#[test]` above — the counters are process-global.
fn serve_reservation_slot_loop_is_allocation_free() {
    use wdm_core::Policy as P;
    use wdm_serve::protocol::{ReserveRequest, SubmitRequest};
    use wdm_serve::{EngineConfig, PreemptionPolicy, SlotEngine};

    const N: usize = 4;
    const K: usize = 32;
    const WARMUP: u64 = 32;
    const MEASURED: u64 = 512;

    let configs = [
        ("serve/resv-bfa-reserved-first", P::BreakFirstAvailable, PreemptionPolicy::ReservedFirst),
        ("serve/resv-auto-compete", P::Auto, PreemptionPolicy::Compete),
    ];

    // One slot's traffic: ~40% cell density plus a handful of short-lead
    // multi-slot reservations, so every slot sees admissions, activations
    // (some expiring on busy sources), and an occasional release.
    let drive_slot =
        |engine: &mut SlotEngine, rng: &mut Rng, next_id: &mut u64, held: &mut Vec<u64>| {
            for fiber in 0..N {
                for w in 0..K {
                    let r = rng.next();
                    if r % 10 >= 4 {
                        continue;
                    }
                    let req = SubmitRequest {
                        id: *next_id,
                        src_fiber: fiber as u32,
                        src_wavelength: w as u32,
                        dst_fiber: ((r >> 8) % N as u64) as u32,
                        duration: 1 + ((r >> 16) % 3) as u32,
                    };
                    *next_id += 1;
                    if let Some(_reply) = engine.submit(0, req) {}
                }
            }
            for _ in 0..4 {
                let r = rng.next();
                let req = ReserveRequest {
                    id: *next_id,
                    src_fiber: (r % N as u64) as u32,
                    src_wavelength: ((r >> 8) % K as u64) as u32,
                    dst_fiber: ((r >> 16) % N as u64) as u32,
                    start_in: 2 + ((r >> 24) % 4) as u32,
                    duration: 2 + ((r >> 32) % 2) as u32,
                };
                *next_id += 1;
                if let wdm_serve::engine::Verdict::Reserved { reservation, .. } =
                    engine.reserve(0, req).verdict
                {
                    held.push(reservation);
                }
            }
            // Release outstanding holds beyond a small window, keeping the
            // registry churning through swap_remove and bounding this local
            // tracking vec (stale ids — holds that already activated or
            // expired — make release a `false` no-op, which is fine).
            while held.len() > 8 {
                let r = rng.next() as usize % held.len();
                let rid = held.swap_remove(r);
                let _ = engine.release(0, rid);
            }
        };

    for (name, policy, preemption) in configs {
        let conv = Conversion::symmetric_circular(K, 5).unwrap();
        let mut engine = SlotEngine::new(
            EngineConfig::new(N, conv, policy)
                .with_reservation_horizon(128)
                .with_preemption(preemption),
        )
        .unwrap();
        let mut out = Vec::new();
        let mut rng = Rng(0x5EED_0003);
        let mut next_id = 0u64;
        let mut held: Vec<u64> = Vec::new();

        // Prime the reservation buffers to a structural maximum no steady
        // slot exceeds: book every (fiber, wavelength) source for the same
        // future slot, so the pending ledger, hold registry, due-drain
        // scratch, and the reservation grant/expiry segments of the result
        // and reply vectors all grow to N*K entries at once.
        for fiber in 0..N {
            for w in 0..K {
                let req = ReserveRequest {
                    id: next_id,
                    src_fiber: fiber as u32,
                    src_wavelength: w as u32,
                    dst_fiber: fiber as u32,
                    start_in: 2,
                    duration: 2,
                };
                next_id += 1;
                if let wdm_serve::engine::Verdict::Reserved { reservation, .. } =
                    engine.reserve(0, req).verdict
                {
                    held.push(reservation);
                }
            }
        }
        let mut resolved = 0usize;
        for _ in 0..4 {
            out.clear();
            let summary = engine.run_slot(&mut out);
            resolved += summary.reservation_grants + summary.reservation_expiries;
        }
        assert!(resolved > 0, "{name}: priming burst must activate holds");
        held.clear();
        // And the cell-path buffers: one slot draining all N*K source
        // channels grows the batch/tag/consumed/reply buffers to the
        // largest size any slot can produce (duration 1, so the grants
        // clear out before warmup).
        for fiber in 0..N {
            for w in 0..K {
                let req = SubmitRequest {
                    id: next_id,
                    src_fiber: fiber as u32,
                    src_wavelength: w as u32,
                    dst_fiber: fiber as u32,
                    duration: 1,
                };
                next_id += 1;
                if let Some(_reply) = engine.submit(0, req) {}
            }
        }
        out.clear();
        let _ = engine.run_slot(&mut out);
        out.clear();
        let _ = engine.run_slot(&mut out);

        let mut grants = 0usize;
        for _ in 0..WARMUP {
            drive_slot(&mut engine, &mut rng, &mut next_id, &mut held);
            out.clear();
            grants += engine.run_slot(&mut out).grants;
        }

        let before = ALLOC.heap_events();
        ALLOC.trap_backtraces(!cfg!(debug_assertions));
        let mut reservation_grants = 0usize;
        for _ in 0..MEASURED {
            drive_slot(&mut engine, &mut rng, &mut next_id, &mut held);
            out.clear();
            let summary = engine.run_slot(&mut out);
            grants += summary.grants;
            reservation_grants += summary.reservation_grants;
        }
        ALLOC.trap_backtraces(false);
        let events = ALLOC.heap_events() - before;

        assert!(grants > 0, "{name}: workload must exercise the daemon engine");
        assert!(reservation_grants > 0, "{name}: workload must activate holds in steady state");
        if cfg!(debug_assertions) {
            continue;
        }
        assert_eq!(
            events, 0,
            "{name}: {events} heap allocations in {MEASURED} reservation-heavy daemon slots"
        );
    }
}
/// The daemon slot loop stays allocation-free *with a storm in progress*:
/// a scenario plan strikes a converter failure and a fiber outage before
/// the window opens and keeps both disruptions (and the engaged
/// BFA→approx fallback) in force across every measured slot. The
/// [`wdm_serve::SlotEngine::apply_scenario`] call, which steps the shared
/// [`wdm_sim::ScenarioRuntime`], rides in the loop —
/// after the strike edges, its event cursor peeks past-the-end and the
/// fallback controller holds its engaged state, so the steady disrupted
/// slot touches no heap: submissions toward the dark fiber deny, the
/// degraded fiber schedules with its shrunk scheme, and every buffer was
/// sized at its high-water mark during warmup. (The strike edges
/// themselves may allocate — they rebuild a conversion scheme once — and
/// fire before the measurement window, exactly as in a real run where
/// events are rare edges between thousands of steady slots.)
///
/// Called from the single `#[test]` above — the counters are process-global.
fn serve_scenario_slot_loop_is_allocation_free() {
    use wdm_serve::protocol::SubmitRequest;
    use wdm_serve::{EngineConfig, ScenarioRuntime, SlotEngine};

    const N: usize = 4;
    const K: usize = 32;
    const WARMUP: u64 = 32;
    const MEASURED: u64 = 512;

    // Strikes at slots 0 and 1, recoveries far past the measured window:
    // every measured slot runs with fiber 1 degraded to d = 1, fiber 2
    // dark, and the approx fallback engaged (on_disruption).
    let doc = r#"
schema = 1
name = "alloc-pin-storm"

[interconnect]
n = 4
k = 32
degree = 5
kind = "circular"
policy = "bfa"

[run]
slots = 2000
seed = 1

[traffic]
load = 0.6
duration = { model = "deterministic", slots = 1 }

[[disruptions]]
at = 0
fiber = 1
kind = "converter-failure"
degree = 1
until = 1900

[[disruptions]]
at = 1
fiber = 2
kind = "outage"
until = 1900

[fallback]
policy = "approx"
on_disruption = true
"#;
    let plan = std::sync::Arc::new(wdm_scenario::load_plan(doc).expect("pin plan compiles"));

    let submit_slot = |engine: &mut SlotEngine, rng: &mut Rng, next_id: &mut u64| {
        for fiber in 0..N {
            for w in 0..K {
                let r = rng.next();
                if r % 10 >= 6 {
                    continue;
                }
                let req = SubmitRequest {
                    id: *next_id,
                    src_fiber: fiber as u32,
                    src_wavelength: w as u32,
                    dst_fiber: ((r >> 8) % N as u64) as u32,
                    duration: 1 + ((r >> 16) % 3) as u32,
                };
                *next_id += 1;
                if let Some(_reply) = engine.submit(0, req) {}
            }
        }
    };

    let mut engine =
        SlotEngine::new(EngineConfig::new(N, plan.conversion(), plan.policy())).unwrap();
    let mut rt = ScenarioRuntime::new(std::sync::Arc::clone(&plan), engine.interconnect())
        .expect("plan matches the engine topology");
    let mut out = Vec::new();
    let mut rng = Rng(0x5EED_0004);
    let mut next_id = 0u64;

    let mut grants = 0usize;
    // Fire the strike edges (slots 0 and 1) and prime every buffer to its
    // structural maximum under the disrupted topology, same recipe as the
    // plain serve pin: one full fiber→fiber slot, drain, then all-to-one
    // slots per destination — including the dark fiber, whose denies size
    // the reply vector just as grants would.
    for fiber in 0..N {
        for w in 0..K {
            let req = SubmitRequest {
                id: next_id,
                src_fiber: fiber as u32,
                src_wavelength: w as u32,
                dst_fiber: fiber as u32,
                duration: 3,
            };
            next_id += 1;
            if let Some(_reply) = engine.submit(0, req) {}
        }
    }
    out.clear();
    engine.apply_scenario(&mut rt, 0, &mut out).unwrap();
    grants += engine.run_slot(&mut out).grants;
    for _ in 0..3 {
        out.clear();
        engine.apply_scenario(&mut rt, 0, &mut out).unwrap();
        grants += engine.run_slot(&mut out).grants;
    }
    for dst in 0..N {
        for fiber in 0..N {
            for w in 0..K {
                let req = SubmitRequest {
                    id: next_id,
                    src_fiber: fiber as u32,
                    src_wavelength: w as u32,
                    dst_fiber: dst as u32,
                    duration: 3,
                };
                next_id += 1;
                if let Some(_reply) = engine.submit(0, req) {}
            }
        }
        out.clear();
        engine.apply_scenario(&mut rt, 0, &mut out).unwrap();
        grants += engine.run_slot(&mut out).grants;
    }
    for _ in 0..WARMUP {
        submit_slot(&mut engine, &mut rng, &mut next_id);
        out.clear();
        engine.apply_scenario(&mut rt, 0, &mut out).unwrap();
        grants += engine.run_slot(&mut out).grants;
    }
    assert!(rt.engaged(), "the fallback must be engaged across the window");
    assert_eq!(
        engine.policy(),
        wdm_core::Policy::Approximate,
        "the degraded policy must be in force across the window"
    );

    let before = ALLOC.heap_events();
    ALLOC.trap_backtraces(!cfg!(debug_assertions));
    for _ in 0..MEASURED {
        submit_slot(&mut engine, &mut rng, &mut next_id);
        out.clear();
        engine.apply_scenario(&mut rt, 0, &mut out).unwrap();
        grants += engine.run_slot(&mut out).grants;
    }
    ALLOC.trap_backtraces(false);
    let events = ALLOC.heap_events() - before;

    assert!(grants > 0, "scenario pin: workload must grant through the degraded fabric");
    assert!(rt.engaged(), "the fallback must still be engaged after the window");
    assert_eq!(rt.summary().events_applied, 2, "only the strike edges fire inside this run");
    if cfg!(debug_assertions) {
        return;
    }
    assert_eq!(
        events, 0,
        "scenario pin: {events} heap allocations in {MEASURED} disrupted daemon slots"
    );
}

/// Every fixed-layout frame decodes from the stack buffer of
/// `protocol::read_frame`, so a client reading a slot's GRANT, DENY,
/// RESERVE_ACK and SLOT_COMPLETE stream — and a daemon reader taking
/// HELLO, RESERVE, RELEASE and SHUTDOWN — touches no heap. The wire bytes
/// are encoded before the window; the window decodes them all. Unlike the
/// slot loops above, the decoder runs no certificate, so this holds in
/// every build.
///
/// Called from the single `#[test]` above — the counters are process-global.
fn fixed_layout_frames_decode_without_allocating() {
    use wdm_serve::protocol::{read_frame, write_frame, ReserveRequest};
    use wdm_serve::{DenyReason, Frame, PROTOCOL_VERSION};

    let request = ReserveRequest {
        id: 9,
        src_fiber: 1,
        src_wavelength: 2,
        dst_fiber: 3,
        start_in: 4,
        duration: 5,
    };
    let mut frames = vec![
        Frame::Hello { version: PROTOCOL_VERSION },
        Frame::Reserve { request },
        Frame::Release { reservation_id: 17 },
        Frame::Shutdown,
        Frame::ReserveAck { id: 9, reservation_id: 17, start_slot: 21 },
    ];
    for id in 0..64u64 {
        frames.push(if id % 3 == 0 {
            Frame::Deny { slot: 7, id, reason: DenyReason::OutputContention, retry_after_slots: 1 }
        } else {
            Frame::Grant { slot: 7, seq: id, id, output_wavelength: (id % 32) as u32 }
        });
    }
    frames.push(Frame::SlotComplete { slot: 7 });
    let mut wire = Vec::new();
    for frame in &frames {
        write_frame(&mut wire, frame).unwrap();
    }

    let before = ALLOC.heap_events();
    let mut reader = wire.as_slice();
    let mut decoded = 0usize;
    while !reader.is_empty() {
        let frame = read_frame(&mut reader).unwrap();
        decoded += usize::from(frame == frames[decoded]);
    }
    let events = ALLOC.heap_events() - before;

    assert_eq!(decoded, frames.len(), "every frame decodes to what was encoded");
    assert_eq!(
        events,
        0,
        "{events} heap allocations decoding {} fixed-layout frames",
        frames.len()
    );
}
