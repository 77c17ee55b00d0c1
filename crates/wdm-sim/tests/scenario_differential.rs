//! Differential and disruption-timeline tests for the scenario engine.
//!
//! The load-bearing guarantees:
//!
//! * a constant-rate, uniform-destination, no-disruption scenario is not
//!   merely statistically similar to the legacy [`BernoulliUniform`]
//!   workload — it draws the **bit-identical** request stream from the
//!   same seed (and likewise for the hotspot and bursty variants), so
//!   every existing experiment is reproducible as a scenario file;
//! * disruption events land at exactly their planned slots: a converter
//!   failure at slot `s` shrinks the fiber's effective degree before slot
//!   `s` is scheduled (dropping infeasible in-flight connections rather
//!   than silently keeping them), and recovery restores the baseline;
//! * scenario runs replay bit-identically.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use wdm_interconnect::{ConnectionRequest, Interconnect, InterconnectConfig, SlotResult};
use wdm_scenario::{load_plan, CompiledPlan, DisruptionChange};
use wdm_sim::scenario::{run_scenario, ScenarioRuntime, ScenarioTraffic};
use wdm_sim::traffic::{BernoulliUniform, BurstyOnOff, DurationModel, Hotspot, TrafficModel};

const N: usize = 4;
const K: usize = 8;
const SEED: u64 = 0xd1ff;
const SLOTS: u64 = 400;

fn plan(doc: &str) -> CompiledPlan {
    load_plan(doc).unwrap()
}

fn stream<T: TrafficModel>(mut model: T, slots: u64) -> Vec<Vec<ConnectionRequest>> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..slots).map(|slot| model.generate(&mut rng, slot)).collect()
}

fn scenario_stream(doc: &str, slots: u64) -> Vec<Vec<ConnectionRequest>> {
    stream(ScenarioTraffic::new(Arc::new(plan(doc))), slots)
}

const UNIFORM: &str = r#"
schema = 1

[interconnect]
n = 4
k = 8
degree = 3
kind = "circular"

[run]
slots = 400
seed = 53279

[traffic]
load = 0.6
duration = { model = "geometric", mean = 4.0 }
"#;

#[test]
fn uniform_scenario_is_bit_identical_to_bernoulli_uniform() {
    let legacy =
        stream(BernoulliUniform::new(N, K, 0.6, DurationModel::Geometric { mean: 4.0 }), SLOTS);
    assert_eq!(scenario_stream(UNIFORM, SLOTS), legacy);
}

#[test]
fn hotspot_scenario_is_bit_identical_to_hotspot_model() {
    let doc = format!("{UNIFORM}\n[traffic.hotspot]\nfiber = 2\nfraction = 0.4\n");
    let legacy =
        stream(Hotspot::new(N, K, 0.6, 2, 0.4, DurationModel::Geometric { mean: 4.0 }), SLOTS);
    assert_eq!(scenario_stream(&doc, SLOTS), legacy);
}

#[test]
fn bursty_scenario_is_bit_identical_to_bursty_model() {
    let doc = format!("{UNIFORM}\n[traffic.bursty]\np_on = 0.05\np_off = 0.2\n");
    let legacy =
        stream(BurstyOnOff::new(N, K, 0.05, 0.2, DurationModel::Geometric { mean: 4.0 }), SLOTS);
    assert_eq!(scenario_stream(&doc, SLOTS), legacy);
}

#[test]
fn phase_rates_change_the_stream_only_inside_their_phase() {
    // Rate 1.0 in the first phase: identical draws to the flat scenario
    // there; the 0.25-rate second phase must then diverge.
    let doc = UNIFORM.replacen(
        "[traffic]",
        "[[phases]]\nname = \"flat\"\nslots = 200\nrate = 1.0\n\n[[phases]]\nname = \"quiet\"\nslots = 200\nrate = 0.25\n\n[traffic]",
        1,
    );
    let flat = scenario_stream(UNIFORM, SLOTS);
    let phased = scenario_stream(&doc, SLOTS);
    assert_eq!(phased[..200], flat[..200], "identical until the rate changes");
    assert_ne!(phased[200..], flat[200..], "the quiet phase must thin the stream");
    let flat_tail: usize = flat[200..].iter().map(Vec::len).sum();
    let quiet_tail: usize = phased[200..].iter().map(Vec::len).sum();
    assert!(
        quiet_tail * 2 < flat_tail,
        "quarter rate should offer far fewer requests: {quiet_tail} vs {flat_tail}"
    );
}

/// Drives a plan's disruption timeline through the [`ScenarioRuntime`]
/// against a live interconnect, checking the state transitions at exactly
/// the planned slots.
#[test]
fn converter_failure_shrinks_effective_degree_exactly_at_its_slot() {
    let doc = format!(
        "{UNIFORM}
[[disruptions]]
at = 100
fiber = 1
kind = \"converter-failure\"
degree = 1
until = 250
"
    );
    let p = Arc::new(plan(&doc));
    let config = InterconnectConfig::packet_switch(p.n(), p.conversion());
    let mut interconnect = Interconnect::new(config).unwrap();
    let mut runtime = ScenarioRuntime::new(Arc::clone(&p), &interconnect).unwrap();
    let mut traffic = ScenarioTraffic::new(Arc::clone(&p));
    let mut rng = StdRng::seed_from_u64(p.seed());
    let mut requests = Vec::new();
    let mut result = SlotResult::default();
    let mut dropped_at_strike = 0usize;
    for slot in 0..p.total_slots() {
        // Before applying this slot's events the fiber still runs the
        // scheme of the previous slot.
        let degree_before = interconnect.fiber_conversion(1).unwrap().degree();
        match slot {
            0..=99 => assert_eq!(degree_before, 3, "baseline until the strike"),
            100..=249 => {
                if slot > 100 {
                    assert_eq!(degree_before, 1, "degraded from slot 100");
                }
            }
            _ => {
                if slot > 250 {
                    assert_eq!(degree_before, 3, "restored from slot 250");
                }
            }
        }
        let dropped_before = runtime.summary().dropped_connections;
        for event in runtime.before_slot(&mut interconnect, 0).unwrap() {
            // The change is visible the moment it applies.
            let expected = match event.change {
                DisruptionChange::ConverterFailure { degree, .. } => degree,
                _ => 3,
            };
            assert_eq!(interconnect.fiber_conversion(event.fiber).unwrap().degree(), expected);
        }
        if slot == 100 {
            dropped_at_strike = runtime.summary().dropped_connections - dropped_before;
            // Multi-slot geometric holds at load 0.6: the strike must
            // catch off-diagonal in-flight connections, and they are
            // dropped, never silently kept on a now-infeasible channel.
            assert!(dropped_at_strike > 0, "strike caught no active holds");
        }
        traffic.generate_into(&mut rng, slot, &mut requests);
        interconnect.advance_slot_into(&requests, &mut result).unwrap();
        // Invariant the shrink must uphold every slot: no active
        // connection on fiber 1 uses a conversion its current scheme
        // cannot perform (checked implicitly by advance_slot_into's debug
        // asserts; the drop count above proves the strike pruned).
    }
    assert_eq!(runtime.summary().events_applied, p.events().len(), "both events consumed");
    assert!(dropped_at_strike > 0);
}

#[test]
fn outage_cancels_reservations_and_recovery_restores_capacity() {
    let doc = format!(
        "{UNIFORM}
[[disruptions]]
at = 50
fiber = 0
kind = \"outage\"
until = 60
"
    );
    let p = plan(&doc);
    let report = run_scenario(&p).unwrap();
    assert_eq!(report.during.slots, 10);
    // While fiber 0 is dark, every request destined there is lost, so the
    // during-window loss rate must sit well above the steady baseline.
    assert!(
        report.during.loss_probability() > report.before.loss_probability(),
        "during {:.4} vs before {:.4}",
        report.during.loss_probability(),
        report.before.loss_probability()
    );
    // After rejoin the loss rate comes back down to the baseline ballpark.
    assert!(
        (report.after.loss_probability() - report.before.loss_probability()).abs() < 0.05,
        "after {:.4} vs before {:.4}",
        report.after.loss_probability(),
        report.before.loss_probability()
    );
}

#[test]
fn disruption_scenario_replays_bit_identically() {
    let doc = format!(
        "{UNIFORM}
[[phases]]
name = \"day\"
slots = 200
rate = 1.0

[[phases]]
name = \"peak\"
slots = 200
rate = 1.4
ramp = true

[[disruptions]]
at = 120
fiber = 2
kind = \"converter-failure\"
degree = 1
until = 180

[[disruptions]]
at = 260
fiber = 3
kind = \"outage\"
until = 300

[fallback]
policy = \"auto\"
on_disruption = true
"
    );
    let p = plan(&doc);
    let a = run_scenario(&p).unwrap();
    let b = run_scenario(&p).unwrap();
    let to_json = |r: &wdm_sim::scenario::ScenarioReport| serde_json::to_string(r).unwrap();
    assert_eq!(to_json(&a), to_json(&b), "same plan, same bits");
    let s = a.summary;
    assert!(s.dropped_connections > 0 || s.cancelled_reservations > 0 || a.during.slots > 0);
    assert!(s.fallback_engagements >= 1, "on_disruption fallback must engage");
    assert_eq!(s.fallback_engagements, s.fallback_reverts, "every engagement reverts");
}
