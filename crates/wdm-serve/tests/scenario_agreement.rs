//! The daemon and the simulator step one [`ScenarioRuntime`], so a plan
//! driven through a live [`SlotEngine`] reproduces the offline
//! [`run_scenario`] request for request: the same runtime summary (events,
//! drops, cancellations, fallback edges) and the same measured offered and
//! granted counts, on every committed example scenario.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wdm_scenario::{load_plan, CompiledPlan};
use wdm_serve::{EngineConfig, ScenarioRuntime, ScenarioSummary, SlotEngine, SubmitRequest};
use wdm_sim::scenario::{run_scenario, ScenarioTraffic};
use wdm_sim::traffic::TrafficModel;

const PLANS: [(&str, &str); 3] = [
    ("steady", include_str!("../../../examples/scenarios/steady.toml")),
    ("diurnal_hotspot", include_str!("../../../examples/scenarios/diurnal_hotspot.toml")),
    ("converter_storm", include_str!("../../../examples/scenarios/converter_storm.toml")),
];

/// What the daemon side did with `plan`: the runtime's summary and the
/// measured (post-warmup) offered and granted counts.
///
/// Each slot runs the coordinator's sequence with a clock that never lags:
/// submit the plan's traffic for the slot, step the runtime, run the slot.
fn drive_engine(plan: &Arc<CompiledPlan>) -> (ScenarioSummary, u64, u64) {
    let config = EngineConfig::new(plan.n(), plan.conversion(), plan.policy());
    let mut engine = SlotEngine::new(config).unwrap();
    let mut runtime = ScenarioRuntime::new(Arc::clone(plan), engine.interconnect()).unwrap();
    let mut traffic = ScenarioTraffic::new(Arc::clone(plan));
    let mut rng = StdRng::seed_from_u64(plan.seed());
    let (mut requests, mut replies) = (Vec::new(), Vec::new());
    let (mut offered, mut granted, mut id) = (0u64, 0u64, 0u64);
    for slot in 0..plan.total_slots() {
        traffic.generate_into(&mut rng, slot, &mut requests);
        for r in &requests {
            let request = SubmitRequest {
                id,
                src_fiber: r.src_fiber.try_into().unwrap(),
                src_wavelength: r.src_wavelength.try_into().unwrap(),
                dst_fiber: r.dst_fiber.try_into().unwrap(),
                duration: r.duration,
            };
            id += 1;
            // One request per input channel per slot never fills a shard
            // queue, so admission passes everything, as in the simulator.
            assert_eq!(engine.submit(0, request), None, "slot {slot}: admission denied");
        }
        replies.clear();
        engine.apply_scenario(&mut runtime, 0, &mut replies).unwrap();
        let summary = engine.run_slot(&mut replies);
        if slot >= plan.warmup() {
            offered += summary.admitted as u64;
            granted += summary.grants as u64;
        }
    }
    (runtime.summary(), offered, granted)
}

#[test]
fn daemon_engine_reproduces_the_simulator_on_every_example_plan() {
    for (name, doc) in PLANS {
        let plan = Arc::new(load_plan(doc).unwrap());
        let report = run_scenario(&plan).unwrap();
        let (summary, offered, granted) = drive_engine(&plan);
        assert_eq!(summary, report.summary, "{name}: runtime summaries differ");
        assert_eq!(offered, report.metrics.offered(), "{name}: measured offered counts differ");
        assert_eq!(granted, report.metrics.granted(), "{name}: measured granted counts differ");
        assert!(granted > 0, "{name}: the plan must grant traffic");
        assert_eq!(summary.events_applied, plan.events().len(), "{name}: every event applied");
    }
}
