//! Scenario-driven simulation: a [`wdm_scenario::CompiledPlan`] executed
//! end to end — phased workload, mid-run disruptions, degraded-mode policy
//! fallback — with per-phase and before/during/after-disruption breakdowns.
//!
//! Three pieces:
//!
//! * [`ScenarioTraffic`] — a [`TrafficModel`] reading the plan's per-slot
//!   tables. For a constant-rate, uniform-destination, non-bursty plan its
//!   RNG draw order is **bit-identical** to
//!   [`BernoulliUniform`](crate::traffic::BernoulliUniform) at the same
//!   seed (verified by `tests/scenario_differential.rs`), so scenarios are
//!   a strict superset of the legacy workloads, not a parallel universe.
//! * [`ScenarioRuntime`] — the plan's side of every slot boundary, for the
//!   simulator and the `wdm-serve` daemon alike: its cursor applies the
//!   disruption events due at the interconnect's slot, its fallback
//!   controller swaps the policy, and its [`ScenarioSummary`] counts both.
//!   The simulator feeds it a lag of 0; the daemon feeds it the slot
//!   clock's lag and answers the holds an applied outage cancelled.
//! * [`run_scenario`] — the slot loop: steps the runtime, schedules the
//!   slot's traffic, and tallies each measured slot into its phase and
//!   disruption window.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use wdm_core::{Error, Policy};
use wdm_interconnect::{
    ConnectionRequest, DisruptionImpact, Interconnect, InterconnectConfig, SlotResult,
};
use wdm_scenario::{CompiledPlan, DisruptionChange, DisruptionEvent, DurationSpec};

use crate::engine::WarmSummary;
use crate::metrics::{Metrics, SlotObservation};
use crate::traffic::{DurationModel, TrafficModel};

/// Converts a plan's declarative holding-time spec into the simulator's
/// sampling model.
pub fn duration_model(spec: DurationSpec) -> DurationModel {
    match spec {
        DurationSpec::Deterministic { slots } => DurationModel::Deterministic(slots),
        DurationSpec::Geometric { mean } => DurationModel::Geometric { mean },
        DurationSpec::Pareto { min, shape } => DurationModel::Pareto { min, shape },
    }
}

/// A [`TrafficModel`] driven by a compiled scenario plan: per-slot phase
/// rates, optional hotspot destination skew, optional bursty on/off
/// sources, and any [`DurationSpec`] holding-time model.
#[derive(Debug, Clone)]
pub struct ScenarioTraffic {
    plan: Arc<CompiledPlan>,
    duration: DurationModel,
    /// Per input channel: the destination of the current burst, if ON.
    /// Empty unless the plan has `[traffic.bursty]`.
    burst_state: Vec<Option<usize>>,
}

impl ScenarioTraffic {
    /// Builds the traffic model for a compiled plan.
    pub fn new(plan: Arc<CompiledPlan>) -> ScenarioTraffic {
        let state_len = if plan.bursty().is_some() { plan.n() * plan.k() } else { 0 };
        ScenarioTraffic {
            duration: duration_model(plan.duration()),
            burst_state: vec![None; state_len],
            plan,
        }
    }

    fn draw_destination(&self, rng: &mut StdRng) -> usize {
        // Same draw order as `Hotspot`: one Bernoulli for the skew, then
        // the uniform fiber draw only on the cold branch.
        if let Some(h) = self.plan.hotspot() {
            if rng.gen_bool(h.fraction) {
                return h.fiber;
            }
        }
        rng.gen_range(0..self.plan.n())
    }
}

impl TrafficModel for ScenarioTraffic {
    fn n(&self) -> usize {
        self.plan.n()
    }

    fn k(&self) -> usize {
        self.plan.k()
    }

    fn generate_into(&mut self, rng: &mut StdRng, slot: u64, out: &mut Vec<ConnectionRequest>) {
        out.clear();
        let n = self.plan.n();
        let k = self.plan.k();
        if let Some(b) = self.plan.bursty() {
            // Two-state on/off channels (same chain as `BurstyOnOff`), with
            // the phase rate multiplier modulating the turn-on probability:
            // high-rate phases birth bursts faster, burst length is shaped
            // by p_off alone.
            let p_on = (b.p_on * self.plan.rate_multiplier(slot)).clamp(0.0, 1.0);
            for fiber in 0..n {
                for w in 0..k {
                    let idx = fiber * k + w;
                    match self.burst_state[idx] {
                        Some(dst) => {
                            out.push(ConnectionRequest::burst(
                                fiber,
                                w,
                                dst,
                                self.duration.sample(rng),
                            ));
                            if rng.gen_bool(b.p_off) {
                                self.burst_state[idx] = None;
                            }
                        }
                        None => {
                            if rng.gen_bool(p_on) {
                                self.burst_state[idx] = Some(self.draw_destination(rng));
                            }
                        }
                    }
                }
            }
        } else {
            // Bernoulli arrivals at the plan's per-slot offered load. With
            // no hotspot this is draw-for-draw the `BernoulliUniform` loop.
            let p = self.plan.offered_load(slot);
            for fiber in 0..n {
                for w in 0..k {
                    if rng.gen_bool(p) {
                        let dst = self.draw_destination(rng);
                        out.push(ConnectionRequest::burst(
                            fiber,
                            w,
                            dst,
                            self.duration.sample(rng),
                        ));
                    }
                }
            }
        }
    }

    fn offered_load(&self) -> f64 {
        // The plan's base load; per-slot values vary with the phase rate.
        self.plan.offered_load(0)
    }
}

/// Per-slot tallies aggregated over one contiguous or scattered slot set
/// (a phase, or a disruption window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct WindowStats {
    /// Measured slots in the window.
    pub slots: u64,
    /// Requests offered.
    pub offered: u64,
    /// Requests granted.
    pub granted: u64,
    /// Requests lost to output contention.
    pub contention_losses: u64,
    /// Requests suppressed because the source channel was busy.
    pub source_busy: u64,
}

impl WindowStats {
    fn record(&mut self, result: &SlotResult) {
        self.slots += 1;
        self.offered += result.offered() as u64;
        self.granted += result.grants.len() as u64;
        self.contention_losses += result.contention_losses() as u64;
        self.source_busy += result.source_busy_losses() as u64;
    }

    /// Loss probability over the window's offered requests.
    pub fn loss_probability(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.contention_losses as f64 / self.offered as f64
        }
    }

    /// Granted requests per slot.
    pub fn throughput_per_slot(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.granted as f64 / self.slots as f64
        }
    }
}

/// One phase's measured tallies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PhaseReport {
    /// Phase name from the scenario file.
    pub name: String,
    /// Its tallies over measured slots.
    pub stats: WindowStats,
}

/// The result of a scenario run.
#[must_use = "a scenario run is pure computation; the report is its only product"]
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Interconnect size `N`.
    pub n: usize,
    /// Wavelengths per fiber `k`.
    pub k: usize,
    /// Baseline conversion degree `d`.
    pub degree: usize,
    /// The seed the run derived from.
    pub seed: u64,
    /// Whole-run measured metrics (batch means, utilization, …).
    pub metrics: Metrics,
    /// Warm-start scheduling outcomes over the whole run.
    pub warm: WarmSummary,
    /// Per-phase breakdown, in timeline order.
    pub phases: Vec<PhaseReport>,
    /// Measured slots before the first disruption strikes.
    pub before: WindowStats,
    /// Measured slots with at least one disruption active.
    pub during: WindowStats,
    /// Measured slots after the first strike with no disruption active.
    pub after: WindowStats,
    /// What the scenario runtime did over the whole run, warmup included.
    pub summary: ScenarioSummary,
}

impl ScenarioReport {
    /// Normalized throughput over the whole measured window.
    pub fn normalized_throughput(&self) -> f64 {
        self.metrics.throughput_per_slot() / (self.n * self.k) as f64
    }
}

/// What a [`ScenarioRuntime`] did over a run: the disruption edges it
/// applied, the work they dropped, and the fallback controller's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
#[must_use]
pub struct ScenarioSummary {
    /// Disruption events applied (strike and recovery edges both count).
    pub events_applied: usize,
    /// In-flight connections dropped by converter failures and outages.
    pub dropped_connections: usize,
    /// Pending reservations cancelled by outages (the daemon answers each
    /// one's client with a capacity deny at cancellation time).
    pub cancelled_reservations: usize,
    /// Times the fallback controller engaged the degraded policy.
    pub fallback_engagements: u64,
    /// Times it reverted to the baseline policy.
    pub fallback_reverts: u64,
    /// Slots executed with the fallback policy in force.
    pub engaged_slots: u64,
}

/// Drives one [`CompiledPlan`] against a live [`Interconnect`]: a cursor
/// over the plan's slot-sorted disruption events plus the fallback
/// controller's engaged/baseline state.
///
/// Call [`Self::before_slot`] exactly once per executed slot, immediately
/// before the slot is scheduled, so a disruption planned for slot `s` is in
/// force when `s` is scheduled.
#[derive(Debug)]
pub struct ScenarioRuntime {
    plan: Arc<CompiledPlan>,
    cursor: usize,
    engaged: bool,
    /// The policy in force at attach, restored whenever the fallback
    /// reverts.
    base_policy: Policy,
    summary: ScenarioSummary,
}

impl ScenarioRuntime {
    /// Attaches a plan to an interconnect. A plan compiled for another
    /// topology is refused: its events name fibers, and its shrunk
    /// conversions wavelength counts, that must exist here
    /// ([`Error::LengthMismatch`] on `n`, [`Error::WavelengthCountMismatch`]
    /// on `k`).
    pub fn new(
        plan: Arc<CompiledPlan>,
        interconnect: &Interconnect,
    ) -> Result<ScenarioRuntime, Error> {
        if plan.n() != interconnect.n() {
            return Err(Error::LengthMismatch { expected: interconnect.n(), actual: plan.n() });
        }
        if plan.k() != interconnect.k() {
            return Err(Error::WavelengthCountMismatch {
                expected: interconnect.k(),
                actual: plan.k(),
            });
        }
        Ok(ScenarioRuntime {
            plan,
            cursor: 0,
            engaged: false,
            base_policy: interconnect.policy(),
            summary: ScenarioSummary::default(),
        })
    }

    /// What the runtime has done so far.
    pub fn summary(&self) -> ScenarioSummary {
        self.summary
    }

    /// Whether the fallback policy is currently in force.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// Applies everything the plan schedules at (or before) the
    /// interconnect's current slot: the pending disruption events, then one
    /// fallback decision given the slot loop's `lag_slots` (0 when the loop
    /// is the clock). Returns the events just applied, as a slice of the
    /// plan's timeline.
    pub fn before_slot(
        &mut self,
        interconnect: &mut Interconnect,
        lag_slots: u64,
    ) -> Result<&[DisruptionEvent], Error> {
        let slot = interconnect.slot();
        let first = self.cursor;
        while let Some(event) = self.plan.events().get(self.cursor) {
            if event.slot > slot {
                break;
            }
            let impact = apply_disruption(interconnect, event)?;
            self.cursor += 1;
            self.summary.events_applied += 1;
            self.summary.dropped_connections += impact.dropped_connections;
            self.summary.cancelled_reservations += impact.cancelled_reservations;
        }
        if let Some(rule) = self.plan.fallback() {
            let load = self.plan.offered_load(slot);
            let want = rule.decide(self.engaged, load, self.plan.is_disrupted(slot), lag_slots);
            if want != self.engaged {
                interconnect.set_policy_all(if want { rule.policy } else { self.base_policy })?;
                self.engaged = want;
                if want {
                    self.summary.fallback_engagements += 1;
                } else {
                    self.summary.fallback_reverts += 1;
                }
            }
        }
        if self.engaged {
            self.summary.engaged_slots += 1;
        }
        Ok(self.plan.events().get(first..self.cursor).unwrap_or_default())
    }
}

/// Applies one disruption event to a live interconnect, before the
/// event's slot is scheduled: a converter failure shrinks the fiber's
/// conversion scheme (dropping in-flight connections the narrow range
/// cannot realise), recovery restores the baseline, an outage takes the
/// fiber dark (cancelling the reservations booked toward it), and rejoin
/// brings it back cold.
fn apply_disruption(
    interconnect: &mut Interconnect,
    event: &DisruptionEvent,
) -> Result<DisruptionImpact, Error> {
    match event.change {
        DisruptionChange::ConverterFailure { conversion, .. } => {
            interconnect.shrink_conversion(event.fiber, conversion)
        }
        DisruptionChange::ConverterRecovery => interconnect.restore_conversion(event.fiber),
        DisruptionChange::Outage => interconnect.fail_fiber(event.fiber),
        DisruptionChange::Rejoin => interconnect.rejoin_fiber(event.fiber),
    }
}

/// Runs a compiled scenario to completion.
///
/// The run is a pure function of the plan: the RNG seeds from
/// [`CompiledPlan::seed`], the [`ScenarioRuntime`] applies disruption
/// events at exactly their planned slots (before the slot is scheduled),
/// and its fallback controller steps on planned quantities only (lag 0) —
/// so replaying the same plan is bit-identical.
pub fn run_scenario(plan: &CompiledPlan) -> Result<ScenarioReport, Error> {
    let plan = Arc::new(plan.clone());
    let config =
        InterconnectConfig::packet_switch(plan.n(), plan.conversion()).with_policy(plan.policy());
    let mut interconnect = Interconnect::new(config)?;
    let mut runtime = ScenarioRuntime::new(Arc::clone(&plan), &interconnect)?;
    let mut traffic = ScenarioTraffic::new(Arc::clone(&plan));
    let mut rng = StdRng::seed_from_u64(plan.seed());

    let mut metrics = Metrics::new();
    let mut phases: Vec<PhaseReport> = plan
        .phases()
        .iter()
        .map(|p| PhaseReport { name: p.name.clone(), stats: WindowStats::default() })
        .collect();
    let (mut before, mut during, mut after) =
        (WindowStats::default(), WindowStats::default(), WindowStats::default());
    let first_strike = plan.events().first().map(|e| e.slot);

    let warmup = plan.warmup();
    let total = plan.total_slots();
    // One request buffer and one result for the whole run, as in the
    // plain engine: the steady-state slot loop allocates nothing.
    let mut requests = Vec::new();
    let mut result = SlotResult::default();

    for slot in 0..total {
        // 1. The plan's disruption events and fallback decision land before
        //    the slot is scheduled (sim side: no slot lag, the loop is the
        //    clock).
        runtime.before_slot(&mut interconnect, 0)?;

        // 2. The slot itself.
        traffic.generate_into(&mut rng, slot, &mut requests);
        interconnect.advance_slot_into(&requests, &mut result)?;

        // 3. Measurement.
        if slot >= warmup {
            metrics.record_slot(SlotObservation {
                offered: result.offered(),
                granted: result.grants.len(),
                contention_losses: result.contention_losses(),
                source_busy: result.source_busy_losses(),
                completed: result.completed,
                rearranged: result.rearranged,
                active_now: interconnect.active_connections(),
            });
            if let Some(phase) = phases.get_mut(plan.phase_index(slot)) {
                phase.stats.record(&result);
            }
            let window = if plan.is_disrupted(slot) {
                &mut during
            } else if first_strike.is_none_or(|f| slot < f) {
                &mut before
            } else {
                &mut after
            };
            window.record(&result);
        }
    }

    Ok(ScenarioReport {
        name: plan.name().to_owned(),
        n: plan.n(),
        k: plan.k(),
        degree: plan.conversion().degree(),
        seed: plan.seed(),
        metrics,
        warm: interconnect.warm_stats().into(),
        phases,
        before,
        during,
        after,
        summary: runtime.summary(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_scenario::load_plan;

    fn plan(doc: &str) -> CompiledPlan {
        load_plan(doc).unwrap()
    }

    const BASE: &str = r#"
schema = 1
name = "unit"

[interconnect]
n = 4
k = 8
degree = 3
kind = "circular"
policy = "bfa"

[run]
warmup = 20
slots = 300
seed = 11

[traffic]
load = 0.5
duration = { model = "deterministic", slots = 1 }
"#;

    #[test]
    fn steady_scenario_reports_one_phase_all_before() {
        let report = run_scenario(&plan(BASE)).unwrap();
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].name, "steady");
        assert_eq!(report.phases[0].stats.slots, 300);
        assert_eq!(report.before.slots, 300);
        assert_eq!(report.during.slots + report.after.slots, 0);
        assert_eq!(report.summary, ScenarioSummary::default());
        assert!(report.metrics.granted() > 0);
        // The windows partition the measured slots exactly.
        assert_eq!(report.before.offered, report.metrics.offered());
    }

    #[test]
    fn disruption_windows_partition_measured_slots() {
        let doc = format!(
            "{BASE}
[[disruptions]]
at = 120
fiber = 1
kind = \"outage\"
until = 200
"
        );
        let report = run_scenario(&plan(&doc)).unwrap();
        assert_eq!(report.before.slots, 100, "measured slots 20..120");
        assert_eq!(report.during.slots, 80, "slots 120..200");
        assert_eq!(report.after.slots, 120, "slots 200..320");
        // The dark output fiber shifts losses up while it is out.
        assert!(report.during.loss_probability() > report.before.loss_probability());
        // Cell traffic can't drop connections on a deterministic-1 workload
        // unless the outage caught some active hold; with 1-slot packets
        // the drop count is whatever was in flight at the strike slot.
        assert!(report.during.offered > 0);
    }

    #[test]
    fn fallback_engages_and_reverts_over_a_load_hump() {
        let doc = BASE.replacen(
            "[traffic]",
            r#"[[phases]]
name = "calm"
slots = 100
rate = 0.5

[[phases]]
name = "rush"
slots = 100
rate = 2.0

[[phases]]
name = "calm2"
slots = 120
rate = 0.5

[fallback]
policy = "approx"
load_threshold = 0.8
revert_margin = 0.05

[traffic]"#,
            1,
        );
        let report = run_scenario(&plan(&doc)).unwrap();
        assert_eq!(report.summary.fallback_engagements, 1, "{:?}", report.summary);
        assert_eq!(report.summary.fallback_reverts, 1);
        // Engaged exactly during the rush phase (slots 100..200).
        assert_eq!(report.summary.engaged_slots, 100);
        assert_eq!(report.phases.len(), 3);
        assert!(report.phases[1].stats.offered > report.phases[0].stats.offered);
    }

    #[test]
    fn scenario_runs_are_replay_identical() {
        let doc = format!(
            "{BASE}
[[disruptions]]
at = 100
fiber = 0
kind = \"converter-failure\"
degree = 1
until = 150
"
        );
        let p = plan(&doc);
        let a = run_scenario(&p).unwrap();
        let b = run_scenario(&p).unwrap();
        assert_eq!(a.metrics.granted(), b.metrics.granted());
        assert_eq!(a.metrics.offered(), b.metrics.offered());
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.before, b.before);
        assert_eq!(a.during, b.during);
        assert_eq!(a.after, b.after);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn bursty_scenario_rate_scales_burst_births() {
        let doc = BASE
            .replacen(
                "[traffic]",
                r#"[[phases]]
name = "low"
slots = 160
rate = 0.2

[[phases]]
name = "high"
slots = 160
rate = 3.0

[traffic]"#,
                1,
            )
            .replacen(
                "duration = { model = \"deterministic\", slots = 1 }",
                "duration = { model = \"deterministic\", slots = 1 }\n\n[traffic.bursty]\np_on = 0.05\np_off = 0.3",
                1,
            );
        let report = run_scenario(&plan(&doc)).unwrap();
        let low = &report.phases[0].stats;
        let high = &report.phases[1].stats;
        assert!(
            high.offered > low.offered,
            "3x burst-birth rate must offer more: {high:?} vs {low:?}"
        );
    }

    const STORM: &str = r#"
schema = 1
name = "daemon-storm"

[interconnect]
n = 4
k = 8
degree = 5
kind = "circular"
policy = "bfa"

[run]
slots = 40
seed = 9

[traffic]
load = 0.5
duration = { model = "deterministic", slots = 2 }

[[disruptions]]
at = 4
fiber = 1
kind = "converter-failure"
degree = 1
until = 8

[[disruptions]]
at = 12
fiber = 2
kind = "outage"
until = 16

[fallback]
policy = "approx"
on_disruption = true
"#;

    fn interconnect_for(plan: &CompiledPlan) -> Interconnect {
        let config = InterconnectConfig::packet_switch(plan.n(), plan.conversion())
            .with_policy(plan.policy());
        Interconnect::new(config).unwrap()
    }

    #[test]
    fn topology_mismatch_is_rejected_at_attach() {
        let plan = Arc::new(plan(STORM));
        let conversion = wdm_core::Conversion::symmetric_circular(8, 5).unwrap();
        let other = Interconnect::new(
            InterconnectConfig::packet_switch(6, conversion).with_policy(Policy::Auto),
        )
        .unwrap();
        let err = ScenarioRuntime::new(Arc::clone(&plan), &other).unwrap_err();
        assert!(matches!(err, Error::LengthMismatch { expected: 6, actual: 4 }), "{err}");
    }

    #[test]
    fn events_fire_at_their_slots_and_fallback_tracks_disruption() {
        let plan = Arc::new(plan(STORM));
        let mut ic = interconnect_for(&plan);
        let mut rt = ScenarioRuntime::new(Arc::clone(&plan), &ic).unwrap();
        let mut result = SlotResult::default();
        for slot in 0..plan.total_slots() {
            assert_eq!(ic.slot(), slot);
            rt.before_slot(&mut ic, 0).unwrap();
            // Degraded policy exactly while a disruption window is open.
            let in_window = (4..8).contains(&slot) || (12..16).contains(&slot);
            assert_eq!(rt.engaged(), in_window, "slot {slot}");
            let expected =
                if in_window { Policy::Approximate } else { Policy::BreakFirstAvailable };
            assert_eq!(ic.policy(), expected, "slot {slot}");
            ic.advance_slot_into(&[], &mut result).unwrap();
        }
        let s = rt.summary();
        assert_eq!(s.events_applied, plan.events().len());
        assert_eq!(s.fallback_engagements, 2);
        assert_eq!(s.fallback_reverts, 2);
        assert_eq!(s.engaged_slots, 8);
    }

    #[test]
    fn lag_trigger_engages_without_a_disruption() {
        let doc = r#"
schema = 1

[interconnect]
n = 2
k = 4
degree = 3
kind = "circular"
policy = "bfa"

[run]
slots = 10
seed = 1

[traffic]
load = 0.2
duration = { model = "deterministic", slots = 1 }

[fallback]
policy = "approx"
lag_threshold = 3
"#;
        let plan = Arc::new(plan(doc));
        let mut ic = interconnect_for(&plan);
        let mut rt = ScenarioRuntime::new(Arc::clone(&plan), &ic).unwrap();
        let mut result = SlotResult::default();
        rt.before_slot(&mut ic, 0).unwrap();
        assert!(!rt.engaged());
        ic.advance_slot_into(&[], &mut result).unwrap();
        rt.before_slot(&mut ic, 5).unwrap();
        assert!(rt.engaged(), "lag >= threshold engages");
        ic.advance_slot_into(&[], &mut result).unwrap();
        rt.before_slot(&mut ic, 1).unwrap();
        assert!(rt.engaged(), "hysteresis: still lagging, stay engaged");
        ic.advance_slot_into(&[], &mut result).unwrap();
        rt.before_slot(&mut ic, 0).unwrap();
        assert!(!rt.engaged(), "lag cleared, revert");
        let s = rt.summary();
        assert_eq!(s.fallback_engagements, 1);
        assert_eq!(s.fallback_reverts, 1);
        assert_eq!(s.engaged_slots, 2);
    }
}
