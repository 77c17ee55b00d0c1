//! `sim_coherent`: the simulator's slot loop. Per slot the benchmark makes
//! the two public calls `wdm_sim::Simulation::run` makes:
//! `CoherentStreams::generate_into` and `Interconnect::advance_slot_into`.
//!
//! Traffic: `N = 8` fibers at load 0.8 with a mean stream length of 64
//! slots (≈ 410 requests per slot). Consecutive slots share almost every
//! request, so warm repair serves nearly every fiber-slot. The timed span
//! is the `advance_slot_into` call; a slot it fails counts as a failed
//! operation.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wdm_interconnect::{ConnectionRequest, Interconnect, InterconnectConfig, SlotResult};
use wdm_sim::traffic::{CoherentStreams, TrafficModel};

use crate::replay::{SchedulerReplay, TraceCtx};
use crate::spans::{Layer, Spans};
use crate::{conversion, LayerCounts, Measured, Plan, Session, Tally, POLICY};

/// Fibers per side.
pub const N: usize = 8;
/// Stationary per-channel load.
pub const LOAD: f64 = 0.8;
/// Mean stream length, slots.
pub const MEAN_STREAM: f64 = 64.0;
const SALT: u64 = 0x51c0_0003;

/// The run sizes of this workload.
pub const PLAN: Plan = Plan {
    setup_reps: 21,
    warmup_slots: 64,
    chunk: 2000,
    grant_slots: 50_000,
    trace_slots: 40_000,
};

/// The interconnect and its coherent-stream traffic.
#[derive(Debug)]
pub struct SimSession {
    ic: Interconnect,
    traffic: CoherentStreams,
    rng: StdRng,
    requests: Vec<ConnectionRequest>,
    result: SlotResult,
    slot: u64,
    tally: Tally,
    counts: LayerCounts,
    mirror: Option<SchedulerReplay>,
}

/// Opens a session: builds the interconnect and the traffic model.
pub fn open(seed: u64, traced: bool) -> Result<SimSession, String> {
    let config = InterconnectConfig::packet_switch(N, conversion()).with_policy(POLICY);
    Ok(SimSession {
        ic: Interconnect::new(config).map_err(|e| e.to_string())?,
        traffic: CoherentStreams::new(N, crate::K, LOAD, MEAN_STREAM),
        rng: StdRng::seed_from_u64(seed ^ SALT),
        requests: Vec::with_capacity(N * crate::K),
        result: SlotResult::default(),
        slot: 0,
        tally: Tally::default(),
        counts: LayerCounts::default(),
        mirror: traced.then(|| SchedulerReplay::new(N, true)),
    })
}

impl Session for SimSession {
    fn slot(&mut self, spans: Option<&mut Spans>) -> Result<Option<u64>, String> {
        let slot = self.slot;
        self.slot += 1;
        let gen_start = Instant::now();
        self.traffic.generate_into(&mut self.rng, slot, &mut self.requests);
        let start = Instant::now();
        let advanced = self.ic.advance_slot_into(&self.requests, &mut self.result);
        let done = Instant::now();

        let n = self.requests.len() as u64;
        self.tally.slots += 1;
        self.tally.attempted += 1;
        self.tally.offered += n;
        // A slot fails if the interconnect refuses it or does not account
        // for every request it was handed.
        if advanced.is_err() || self.result.offered() != self.requests.len() {
            self.tally.failed += 1;
            return Ok(Some(
                u64::try_from(done.duration_since(start).as_nanos()).unwrap_or(u64::MAX),
            ));
        }
        self.tally.granted += self.result.grants.len() as u64;
        self.counts.interconnect.requests += n;
        self.counts.interconnect.source_busy += self.result.source_busy_losses() as u64;

        if let Some(mirror) = self.mirror.as_mut() {
            let ctx = match spans {
                Some(spans) => {
                    spans.record("traffic.generate", Layer::Traffic, None, slot, gen_start, start);
                    let parent = spans.record(
                        "interconnect.advance_slot_into",
                        Layer::Interconnect,
                        None,
                        slot,
                        start,
                        done,
                    );
                    Some(TraceCtx { spans, parent: Some(parent), slot })
                }
                None => None,
            };
            mirror.replay(&self.result, ctx, slot)?;
            mirror.check_paths(self.ic.warm_stats(), slot)?;
        }
        Ok(Some(u64::try_from(done.duration_since(start).as_nanos()).unwrap_or(u64::MAX)))
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn counts(&self) -> LayerCounts {
        LayerCounts { scheduler: self.ic.warm_stats(), ..self.counts }
    }

    fn finish(self) -> Result<(), String> {
        Ok(())
    }
}

/// Runs the untraced measurement.
pub fn run(seed: u64, seconds: f64) -> Result<Measured, String> {
    let (measured, session) = crate::measure(open, seed, &PLAN, seconds)?;
    session.finish()?;
    Ok(measured)
}
