//! Compilation: typed [`Scenario`] → deterministic per-slot [`CompiledPlan`].
//!
//! The compiler does all cross-field and timeline validation (fiber indices
//! in range, converter-failure degrees odd and strictly below the baseline,
//! per-fiber disruption intervals non-overlapping, fallback policies legal
//! for every conversion scheme the run can reach) and then materializes the
//! declarative file into flat per-slot tables:
//!
//! * `rate[slot]` — the phase rate multiplier, with linear ramps resolved;
//! * `phase_of[slot]` — which phase the slot belongs to;
//! * `disrupted[slot]` — whether any disruption is active.
//!
//! plus a slot-sorted [`DisruptionEvent`] list that the simulator and the
//! daemon consume with a cursor (no per-slot allocation, no searching).
//! Because every consumer reads the *same* compiled tables, `wdm-sim` and
//! `wdm-loadgen` driving a live daemon see bit-identical workloads by
//! construction.

use wdm_core::{Conversion, Policy};

use crate::error::ScenarioError;
use crate::model::{
    BurstySpec, ConversionKindSpec, DisruptionKindSpec, DurationSpec, HotspotSpec, Scenario,
};

/// Upper bound on `warmup + slots`: keeps the per-slot tables bounded
/// (~26 MB worst case) and catches a mistyped run length early.
pub const MAX_PLAN_SLOTS: u64 = 2_000_000;

/// One resolved phase: a contiguous `[start, end)` slot range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseInfo {
    /// Phase name from the scenario file (or `steady` for the implicit
    /// phase when no `[[phases]]` are declared).
    pub name: String,
    /// First slot of the phase.
    pub start: u64,
    /// One past the last slot of the phase.
    pub end: u64,
}

/// What a disruption event does when its slot arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DisruptionChange {
    /// Converters on the fiber fail: shrink to the pre-validated degraded
    /// scheme (same kind as the baseline, lower degree).
    ConverterFailure {
        /// The degraded conversion scheme, ready to apply.
        conversion: Conversion,
        /// Its degree, for reporting.
        degree: usize,
    },
    /// Converters are repaired: restore the baseline scheme.
    ConverterRecovery,
    /// The fiber's output goes dark.
    Outage,
    /// The fiber rejoins cold after an outage.
    Rejoin,
}

/// One entry in the slot-sorted disruption timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisruptionEvent {
    /// The slot at which the change applies (before scheduling that slot).
    pub slot: u64,
    /// The affected output fiber.
    pub fiber: usize,
    /// The change.
    pub change: DisruptionChange,
}

/// The resolved degraded-mode policy rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackRule {
    /// The policy to run while degraded.
    pub policy: Policy,
    /// Engage when planned offered load reaches this (sim-side trigger).
    pub load_threshold: Option<f64>,
    /// Engage when the slot loop lags by this many slots (daemon-side).
    pub lag_threshold: Option<u64>,
    /// Engage while any disruption is active.
    pub on_disruption: bool,
    /// Load must drop below `load_threshold - revert_margin` to revert.
    pub revert_margin: f64,
}

/// A scenario compiled into deterministic per-slot tables.
///
/// All accessors taking a slot clamp to the final slot, so reading past
/// the end of the plan (e.g. a daemon that keeps running) is well-defined:
/// the last phase and rate simply persist.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    name: String,
    n: usize,
    k: usize,
    policy: Policy,
    conversion: Conversion,
    warmup: u64,
    measured: u64,
    seed: u64,
    base_load: f64,
    duration: DurationSpec,
    hotspot: Option<HotspotSpec>,
    bursty: Option<BurstySpec>,
    rate: Vec<f64>,
    phase_of: Vec<u32>,
    disrupted: Vec<bool>,
    phases: Vec<PhaseInfo>,
    events: Vec<DisruptionEvent>,
    fallback: Option<FallbackRule>,
}

impl Scenario {
    /// Compiles the scenario into a deterministic per-slot plan, running
    /// all cross-field and timeline validation.
    pub fn compile(&self) -> Result<CompiledPlan, ScenarioError> {
        let ic = &self.interconnect;
        if ic.n == 0 {
            return Err(invalid("interconnect", "n", "must be at least 1"));
        }
        let conversion = build_conversion(ic.kind, ic.k, ic.degree)
            .map_err(|m| invalid("interconnect", "degree", m))?;
        if ic.policy.check_conversion(&conversion).is_err() {
            return Err(invalid(
                "interconnect",
                "policy",
                format!(
                    "policy `{}` does not support {} conversion",
                    ic.policy.name(),
                    ic.kind.name()
                ),
            ));
        }

        let total = self.run.warmup.checked_add(self.run.slots).filter(|t| *t <= MAX_PLAN_SLOTS);
        let Some(total) = total else {
            return Err(invalid(
                "run",
                "slots",
                format!("warmup + slots must be at most {MAX_PLAN_SLOTS}"),
            ));
        };
        if self.run.slots == 0 {
            return Err(invalid("run", "slots", "must be at least 1"));
        }

        validate_traffic(self)?;
        let (rate, phase_of, phases) = build_phase_tables(self, total)?;
        let (events, disrupted) = build_disruption_timeline(self, &conversion, total)?;
        let fallback = build_fallback(self, &conversion, &events)?;

        Ok(CompiledPlan {
            name: self.name.clone(),
            n: ic.n,
            k: ic.k,
            policy: ic.policy,
            conversion,
            warmup: self.run.warmup,
            measured: self.run.slots,
            seed: self.run.seed,
            base_load: self.traffic.load,
            duration: self.traffic.duration,
            hotspot: self.traffic.hotspot,
            bursty: self.traffic.bursty,
            rate,
            phase_of,
            disrupted,
            phases,
            events,
            fallback,
        })
    }
}

/// Parses and compiles a scenario document in one step.
pub fn load_plan(input: &str) -> Result<CompiledPlan, ScenarioError> {
    Scenario::parse(input)?.compile()
}

fn invalid(table: &str, field: &str, message: impl Into<String>) -> ScenarioError {
    ScenarioError::InvalidValue {
        table: table.to_owned(),
        field: field.to_owned(),
        message: message.into(),
    }
}

fn build_conversion(
    kind: ConversionKindSpec,
    k: usize,
    degree: usize,
) -> Result<Conversion, String> {
    let built = match kind {
        ConversionKindSpec::Circular => Conversion::symmetric_circular(k, degree),
        ConversionKindSpec::NonCircular => Conversion::symmetric_non_circular(k, degree),
        ConversionKindSpec::Full => Conversion::full(k),
        ConversionKindSpec::None => Conversion::none(k),
    };
    built.map_err(|e| e.to_string())
}

fn validate_traffic(s: &Scenario) -> Result<(), ScenarioError> {
    let t = &s.traffic;
    if !t.load.is_finite() || !(0.0..=1.0).contains(&t.load) {
        return Err(invalid("traffic", "load", "must be a per-channel probability in [0, 1]"));
    }
    match t.duration {
        DurationSpec::Deterministic { slots } => {
            if slots == 0 {
                return Err(invalid("traffic.duration", "slots", "must be at least 1"));
            }
        }
        DurationSpec::Geometric { mean } => {
            if !mean.is_finite() || mean < 1.0 {
                return Err(invalid("traffic.duration", "mean", "must be at least 1.0"));
            }
        }
        DurationSpec::Pareto { min, shape } => {
            if !min.is_finite() || min < 1.0 {
                return Err(invalid("traffic.duration", "min", "must be at least 1.0"));
            }
            if !shape.is_finite() || shape <= 1.0 {
                return Err(invalid("traffic.duration", "shape", "must exceed 1.0 (finite mean)"));
            }
        }
    }
    if let Some(h) = t.hotspot {
        if h.fiber >= s.interconnect.n {
            return Err(invalid(
                "traffic.hotspot",
                "fiber",
                format!("fiber {} out of range (n = {})", h.fiber, s.interconnect.n),
            ));
        }
        if !h.fraction.is_finite() || !(0.0..=1.0).contains(&h.fraction) {
            return Err(invalid("traffic.hotspot", "fraction", "must be in [0, 1]"));
        }
    }
    if let Some(b) = t.bursty {
        if !b.p_on.is_finite() || !(0.0..=1.0).contains(&b.p_on) {
            return Err(invalid("traffic.bursty", "p_on", "must be in [0, 1]"));
        }
        if !b.p_off.is_finite() || b.p_off <= 0.0 || b.p_off > 1.0 {
            return Err(invalid("traffic.bursty", "p_off", "must be in (0, 1]"));
        }
    }
    Ok(())
}

/// Per-slot rate multipliers, per-slot phase indices, resolved phases.
type PhaseTables = (Vec<f64>, Vec<u32>, Vec<PhaseInfo>);

#[allow(clippy::cast_precision_loss)]
fn build_phase_tables(s: &Scenario, total: u64) -> Result<PhaseTables, ScenarioError> {
    let total_usize = usize::try_from(total).unwrap_or(usize::MAX);
    let mut rate = Vec::with_capacity(total_usize);
    let mut phase_of = Vec::with_capacity(total_usize);
    let mut phases = Vec::new();

    if s.phases.is_empty() {
        rate.resize(total_usize, 1.0);
        phase_of.resize(total_usize, 0);
        phases.push(PhaseInfo { name: "steady".to_owned(), start: 0, end: total });
        return Ok((rate, phase_of, phases));
    }

    let mut cursor = 0_u64;
    let mut prev_rate = match s.phases.first() {
        Some(p) => p.rate,
        None => 1.0,
    };
    for (i, p) in s.phases.iter().enumerate() {
        if p.slots == 0 {
            return Err(invalid(
                "phases",
                "slots",
                format!("phase `{}` must last at least 1 slot", p.name),
            ));
        }
        if !p.rate.is_finite() || p.rate < 0.0 {
            return Err(invalid(
                "phases",
                "rate",
                format!("phase `{}` rate must be non-negative", p.name),
            ));
        }
        let index = u32::try_from(i).map_err(|_| invalid("phases", "slots", "too many phases"))?;
        if cursor >= total {
            // Later phases fall entirely past the end of the run; they are
            // declared but never reached.
            prev_rate = p.rate;
            continue;
        }
        let start = cursor;
        let end = cursor.saturating_add(p.slots).min(total);
        let span = p.slots as f64;
        for local in 0..(end - start) {
            let value = if p.ramp {
                prev_rate + (p.rate - prev_rate) * ((local + 1) as f64 / span)
            } else {
                p.rate
            };
            rate.push(value);
            phase_of.push(index);
        }
        phases.push(PhaseInfo { name: p.name.clone(), start, end });
        cursor = end;
        prev_rate = p.rate;
    }
    // The final declared phase's rate extends to the end of the run.
    if cursor < total {
        let index = u32::try_from(s.phases.len().saturating_sub(1)).unwrap_or(0);
        for _ in cursor..total {
            rate.push(prev_rate);
            phase_of.push(index);
        }
        if let Some(last) = phases.last_mut() {
            last.end = total;
        }
    }
    Ok((rate, phase_of, phases))
}

fn build_disruption_timeline(
    s: &Scenario,
    baseline: &Conversion,
    total: u64,
) -> Result<(Vec<DisruptionEvent>, Vec<bool>), ScenarioError> {
    let total_usize = usize::try_from(total).unwrap_or(usize::MAX);
    let mut disrupted = vec![false; total_usize];
    let mut events = Vec::new();
    // (fiber, start, end) intervals for the per-fiber overlap check.
    let mut intervals: Vec<(usize, u64, u64)> = Vec::new();

    for d in &s.disruptions {
        if d.fiber >= s.interconnect.n {
            return Err(invalid(
                "disruptions",
                "fiber",
                format!("fiber {} out of range (n = {})", d.fiber, s.interconnect.n),
            ));
        }
        if d.at >= total {
            return Err(invalid(
                "disruptions",
                "at",
                format!("slot {} is past the end of the run ({total} slots)", d.at),
            ));
        }
        let end = match d.until {
            Some(u) => {
                if u <= d.at {
                    return Err(invalid("disruptions", "until", "must be after `at`"));
                }
                u
            }
            None => total,
        };
        for (fiber, start, stop) in &intervals {
            if *fiber == d.fiber && d.at < *stop && *start < end {
                return Err(invalid(
                    "disruptions",
                    "at",
                    format!("overlapping disruptions on fiber {}", d.fiber),
                ));
            }
        }
        intervals.push((d.fiber, d.at, end));

        match d.kind {
            DisruptionKindSpec::ConverterFailure { degree } => {
                if s.interconnect.kind == ConversionKindSpec::None {
                    return Err(invalid(
                        "disruptions",
                        "kind",
                        "kind = \"none\" interconnects have no converters to fail",
                    ));
                }
                if degree % 2 == 0 || degree >= baseline.degree() {
                    return Err(invalid(
                        "disruptions",
                        "degree",
                        format!(
                            "degraded degree must be odd and below the baseline degree {}",
                            baseline.degree()
                        ),
                    ));
                }
                let shrunk_kind = match s.interconnect.kind {
                    ConversionKindSpec::NonCircular => ConversionKindSpec::NonCircular,
                    _ => ConversionKindSpec::Circular,
                };
                let conversion = build_conversion(shrunk_kind, s.interconnect.k, degree)
                    .map_err(|m| invalid("disruptions", "degree", m))?;
                events.push(DisruptionEvent {
                    slot: d.at,
                    fiber: d.fiber,
                    change: DisruptionChange::ConverterFailure { conversion, degree },
                });
                if let Some(u) = d.until {
                    if u < total {
                        events.push(DisruptionEvent {
                            slot: u,
                            fiber: d.fiber,
                            change: DisruptionChange::ConverterRecovery,
                        });
                    }
                }
            }
            DisruptionKindSpec::Outage => {
                events.push(DisruptionEvent {
                    slot: d.at,
                    fiber: d.fiber,
                    change: DisruptionChange::Outage,
                });
                if let Some(u) = d.until {
                    if u < total {
                        events.push(DisruptionEvent {
                            slot: u,
                            fiber: d.fiber,
                            change: DisruptionChange::Rejoin,
                        });
                    }
                }
            }
        }

        let from = usize::try_from(d.at).unwrap_or(usize::MAX);
        let to = usize::try_from(end.min(total)).unwrap_or(usize::MAX);
        for slot in disrupted.iter_mut().take(to).skip(from) {
            *slot = true;
        }
    }
    events.sort_by_key(|e| (e.slot, e.fiber));
    Ok((events, disrupted))
}

fn build_fallback(
    s: &Scenario,
    baseline: &Conversion,
    events: &[DisruptionEvent],
) -> Result<Option<FallbackRule>, ScenarioError> {
    let Some(f) = s.fallback else { return Ok(None) };
    if f.load_threshold.is_none() && f.lag_threshold.is_none() && !f.on_disruption {
        return Err(invalid(
            "fallback",
            "policy",
            "at least one trigger (load_threshold, lag_threshold, on_disruption) is required",
        ));
    }
    if let Some(t) = f.load_threshold {
        if !t.is_finite() || t <= 0.0 || t > 1.0 {
            return Err(invalid("fallback", "load_threshold", "must be in (0, 1]"));
        }
    }
    if !f.revert_margin.is_finite() || f.revert_margin < 0.0 {
        return Err(invalid("fallback", "revert_margin", "must be non-negative"));
    }
    // The fallback policy may engage while a fiber runs a degraded scheme,
    // so it must be legal for the baseline AND every shrunk conversion.
    if f.policy.check_conversion(baseline).is_err() {
        return Err(invalid(
            "fallback",
            "policy",
            format!(
                "fallback policy `{}` does not support the baseline conversion kind",
                f.policy.name()
            ),
        ));
    }
    for e in events {
        if let DisruptionChange::ConverterFailure { conversion, degree } = &e.change {
            if f.policy.check_conversion(conversion).is_err() {
                return Err(invalid(
                    "fallback",
                    "policy",
                    format!(
                        "fallback policy `{}` does not support the degraded degree-{degree} scheme",
                        f.policy.name()
                    ),
                ));
            }
        }
    }
    Ok(Some(FallbackRule {
        policy: f.policy,
        load_threshold: f.load_threshold,
        lag_threshold: f.lag_threshold,
        on_disruption: f.on_disruption,
        revert_margin: f.revert_margin,
    }))
}

impl FallbackRule {
    /// One step of the degraded-mode controller: given the current engaged
    /// state and this slot's observations, returns whether the fallback
    /// policy should be active for the slot.
    ///
    /// Engagement is edge-triggered with hysteresis: the rule engages when
    /// any configured trigger fires (planned load at or above
    /// `load_threshold`, an active disruption with `on_disruption`, or a
    /// slot-loop lag of at least `lag_threshold`), and reverts only once
    /// *every* configured trigger has cleared — load below
    /// `load_threshold - revert_margin`, no active disruption, and the lag
    /// fully drained — so the policy cannot flap at a threshold edge.
    pub fn decide(&self, engaged: bool, load: f64, disrupted: bool, lag_slots: u64) -> bool {
        let disrupt_hot = self.on_disruption && disrupted;
        let lag_hot = self.lag_threshold.is_some_and(|t| lag_slots >= t);
        if engaged {
            let load_clear = self.load_threshold.is_none_or(|t| load < t - self.revert_margin);
            let disrupt_clear = !disrupt_hot;
            let lag_clear = self.lag_threshold.is_none() || lag_slots == 0;
            !(load_clear && disrupt_clear && lag_clear)
        } else {
            let load_hot = self.load_threshold.is_some_and(|t| load >= t);
            load_hot || disrupt_hot || lag_hot
        }
    }
}

impl CompiledPlan {
    fn slot_index(&self, slot: u64) -> usize {
        let cap = self.rate.len().saturating_sub(1);
        usize::try_from(slot).unwrap_or(usize::MAX).min(cap)
    }

    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of fibers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Wavelengths per fiber.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The baseline scheduling policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The baseline conversion scheme.
    pub fn conversion(&self) -> Conversion {
        self.conversion
    }

    /// Warm-up slots excluded from measurement.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Measured slots (after warm-up).
    pub fn measured_slots(&self) -> u64 {
        self.measured
    }

    /// Total planned slots (`warmup + measured`).
    pub fn total_slots(&self) -> u64 {
        self.warmup + self.measured
    }

    /// RNG seed the whole run derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The base per-channel offered load before phase multipliers.
    pub fn base_load(&self) -> f64 {
        self.base_load
    }

    /// Holding-time model.
    pub fn duration(&self) -> DurationSpec {
        self.duration
    }

    /// Destination skew, if any.
    pub fn hotspot(&self) -> Option<HotspotSpec> {
        self.hotspot
    }

    /// On/off source modulation, if any.
    pub fn bursty(&self) -> Option<BurstySpec> {
        self.bursty
    }

    /// The phase rate multiplier at `slot` (clamped to the final slot).
    pub fn rate_multiplier(&self, slot: u64) -> f64 {
        self.rate[self.slot_index(slot)]
    }

    /// The effective per-channel arrival probability at `slot`:
    /// `base_load × rate`, clamped to `[0, 1]`.
    pub fn offered_load(&self, slot: u64) -> f64 {
        (self.base_load * self.rate_multiplier(slot)).clamp(0.0, 1.0)
    }

    /// The index (into [`CompiledPlan::phases`]) of the phase containing
    /// `slot` (clamped to the final slot).
    pub fn phase_index(&self, slot: u64) -> usize {
        usize::try_from(self.phase_of[self.slot_index(slot)]).unwrap_or(usize::MAX)
    }

    /// Whether any disruption is active at `slot` (clamped).
    pub fn is_disrupted(&self, slot: u64) -> bool {
        self.disrupted[self.slot_index(slot)]
    }

    /// The resolved phases, in timeline order.
    pub fn phases(&self) -> &[PhaseInfo] {
        &self.phases
    }

    /// The disruption timeline, sorted by `(slot, fiber)`. Consumers walk
    /// it with a cursor: apply every event whose slot equals the current
    /// slot before scheduling that slot.
    pub fn events(&self) -> &[DisruptionEvent] {
        &self.events
    }

    /// The degraded-mode policy rule, if any.
    pub fn fallback(&self) -> Option<&FallbackRule> {
        self.fallback.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(extra: &str) -> String {
        format!(
            r#"
schema = 1

[interconnect]
n = 4
k = 8
degree = 5
kind = "circular"
policy = "bfa"

[run]
warmup = 10
slots = 90
seed = 7

[traffic]
load = 0.5
duration = {{ model = "deterministic", slots = 1 }}
{extra}"#
        )
    }

    #[test]
    fn implicit_steady_phase_covers_whole_run() {
        let plan = load_plan(&doc("")).unwrap();
        assert_eq!(plan.total_slots(), 100);
        assert_eq!(plan.phases(), &[PhaseInfo { name: "steady".to_owned(), start: 0, end: 100 }]);
        assert!((plan.rate_multiplier(0) - 1.0).abs() < 1e-12);
        assert!((plan.offered_load(99) - 0.5).abs() < 1e-12);
        assert!((plan.offered_load(10_000) - 0.5).abs() < 1e-12, "reads past the end clamp");
        assert!(!plan.is_disrupted(50));
        assert!(plan.events().is_empty());
    }

    #[test]
    fn phases_tile_ramp_and_extend() {
        let plan = load_plan(&doc(r#"
[[phases]]
name = "night"
slots = 40
rate = 0.5

[[phases]]
name = "morning"
slots = 40
rate = 1.5
ramp = true
"#))
        .unwrap();
        assert_eq!(plan.phases().len(), 2);
        assert!((plan.rate_multiplier(0) - 0.5).abs() < 1e-12);
        assert!((plan.rate_multiplier(39) - 0.5).abs() < 1e-12);
        // Ramp: linear from 0.5 to 1.5 across slots 40..80, hitting 1.5
        // exactly at the phase's last slot.
        assert!((plan.rate_multiplier(79) - 1.5).abs() < 1e-12);
        let mid = plan.rate_multiplier(59);
        assert!(mid > 0.9 && mid < 1.1, "mid-ramp multiplier {mid}");
        // The final phase extends to the end of the run at its end rate.
        assert!((plan.rate_multiplier(99) - 1.5).abs() < 1e-12);
        assert_eq!(plan.phases()[1].end, 100);
        assert_eq!(plan.phase_index(5), 0);
        assert_eq!(plan.phase_index(95), 1);
        // Offered load clamps to 1.0.
        assert!(plan.offered_load(99) <= 1.0);
    }

    #[test]
    fn disruption_timeline_sorted_with_recovery_events() {
        let plan = load_plan(&doc(r#"
[[disruptions]]
at = 60
fiber = 1
kind = "outage"
until = 70

[[disruptions]]
at = 20
fiber = 2
kind = "converter-failure"
degree = 1
until = 40
"#))
        .unwrap();
        let events = plan.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].slot, 20);
        assert!(matches!(
            events[0].change,
            DisruptionChange::ConverterFailure { degree: 1, conversion } if conversion.degree() == 1
        ));
        assert_eq!(events[1].slot, 40);
        assert_eq!(events[1].change, DisruptionChange::ConverterRecovery);
        assert_eq!(events[2].change, DisruptionChange::Outage);
        assert_eq!(events[3].change, DisruptionChange::Rejoin);
        assert!(plan.is_disrupted(20) && plan.is_disrupted(39));
        assert!(!plan.is_disrupted(40) && !plan.is_disrupted(59));
        assert!(plan.is_disrupted(65) && !plan.is_disrupted(70));
    }

    #[test]
    fn open_ended_disruption_has_no_recovery_event() {
        let plan = load_plan(&doc(r#"
[[disruptions]]
at = 50
fiber = 0
kind = "outage"
"#))
        .unwrap();
        assert_eq!(plan.events().len(), 1);
        assert!(plan.is_disrupted(99));
    }

    #[test]
    fn timeline_validation_rejects_bad_disruptions() {
        for (extra, needle) in [
            ("[[disruptions]]\nat = 20\nfiber = 9\nkind = \"outage\"\n", "out of range"),
            ("[[disruptions]]\nat = 200\nfiber = 0\nkind = \"outage\"\n", "past the end"),
            (
                "[[disruptions]]\nat = 20\nfiber = 0\nkind = \"outage\"\nuntil = 20\n",
                "after `at`",
            ),
            (
                "[[disruptions]]\nat = 20\nfiber = 0\nkind = \"converter-failure\"\ndegree = 2\n",
                "odd",
            ),
            (
                "[[disruptions]]\nat = 20\nfiber = 0\nkind = \"converter-failure\"\ndegree = 5\n",
                "below the baseline",
            ),
            (
                "[[disruptions]]\nat = 20\nfiber = 0\nkind = \"outage\"\nuntil = 50\n\n[[disruptions]]\nat = 40\nfiber = 0\nkind = \"outage\"\n",
                "overlapping",
            ),
        ] {
            let err = load_plan(&doc(extra)).unwrap_err();
            assert!(err.to_string().contains(needle), "{extra} -> {err}");
        }
        // Same slots on a DIFFERENT fiber are fine.
        load_plan(&doc(
            "[[disruptions]]\nat = 20\nfiber = 0\nkind = \"outage\"\nuntil = 50\n\n[[disruptions]]\nat = 40\nfiber = 1\nkind = \"outage\"\n",
        ))
        .unwrap();
    }

    #[test]
    fn fallback_rules_validated_against_reachable_schemes() {
        // FA is illegal for the circular baseline.
        let err =
            load_plan(&doc("[fallback]\npolicy = \"fa\"\non_disruption = true\n")).unwrap_err();
        assert!(err.to_string().contains("baseline"));
        // No trigger at all is an authoring error.
        let err = load_plan(&doc("[fallback]\npolicy = \"approx\"\n")).unwrap_err();
        assert!(err.to_string().contains("trigger"));
        // A valid rule compiles.
        let plan = load_plan(&doc(
            "[fallback]\npolicy = \"approx\"\nload_threshold = 0.8\non_disruption = true\nrevert_margin = 0.05\n",
        ))
        .unwrap();
        let rule = plan.fallback().unwrap();
        assert_eq!(rule.policy, Policy::Approximate);
        assert_eq!(rule.load_threshold, Some(0.8));
        assert!(rule.on_disruption);
    }

    #[test]
    fn fallback_controller_engages_and_reverts_with_hysteresis() {
        let rule = FallbackRule {
            policy: Policy::Approximate,
            load_threshold: Some(0.8),
            lag_threshold: Some(4),
            on_disruption: true,
            revert_margin: 0.05,
        };
        // Engage on each trigger independently.
        assert!(!rule.decide(false, 0.5, false, 0));
        assert!(rule.decide(false, 0.8, false, 0), "load trigger");
        assert!(rule.decide(false, 0.5, true, 0), "disruption trigger");
        assert!(rule.decide(false, 0.5, false, 4), "lag trigger");
        // Hysteresis: load in the margin band keeps the fallback engaged,
        // but never engages it from cold.
        assert!(rule.decide(true, 0.78, false, 0), "0.78 >= 0.8 - 0.05 stays engaged");
        assert!(!rule.decide(false, 0.78, false, 0));
        assert!(!rule.decide(true, 0.70, false, 0), "below the margin reverts");
        // All configured triggers must clear: lag must drain fully.
        assert!(rule.decide(true, 0.1, false, 1));
        assert!(rule.decide(true, 0.1, true, 0));
        assert!(!rule.decide(true, 0.1, false, 0));
    }

    #[test]
    fn policy_kind_matrix_enforced_at_compile_time() {
        let bad = doc("").replacen("kind = \"circular\"", "kind = \"non-circular\"", 1);
        let err = load_plan(&bad).unwrap_err();
        assert!(err.to_string().contains("does not support"));
    }

    #[test]
    fn run_length_capped() {
        let bad = doc("").replacen("slots = 90", "slots = 3000000", 1);
        let err = load_plan(&bad).unwrap_err();
        assert!(err.to_string().contains("at most"));
    }

    #[test]
    fn traffic_validation_bounds_probabilities() {
        for (needle, replacement) in [
            ("load = 0.5", "load = 1.5"),
            (
                "duration = { model = \"deterministic\", slots = 1 }",
                "duration = { model = \"pareto\", min = 1.0, shape = 1.0 }",
            ),
            (
                "duration = { model = \"deterministic\", slots = 1 }",
                "duration = { model = \"geometric\", mean = 0.5 }",
            ),
        ] {
            let bad = doc("").replacen(needle, replacement, 1);
            assert!(load_plan(&bad).is_err(), "{replacement}");
        }
        let bad = doc("[traffic.hotspot]\nfiber = 4\nfraction = 0.5\n");
        assert!(load_plan(&bad).unwrap_err().to_string().contains("out of range"));
        let bad = doc("[traffic.bursty]\np_on = 0.5\np_off = 0.0\n");
        assert!(load_plan(&bad).is_err());
    }
}
