//! The typed scenario model (`schema = 1`) and its decoder.
//!
//! [`Scenario::parse`] turns a scenario TOML document into the typed model,
//! enforcing the schema contract:
//!
//! * **versioned** — the top-level `schema = 1` key is required; any other
//!   version is a typed [`ScenarioError::UnsupportedSchema`];
//! * **deny unknown fields** — every table tracks which keys the decoder
//!   consumed and rejects the rest ([`ScenarioError::UnknownField`]), so a
//!   typo like `sede = 42` fails loudly instead of silently running with a
//!   default;
//! * **typed errors** — every failure names the table, field, and what was
//!   expected.
//!
//! The model is *declarative*: it says what the workload and disruption
//! timeline look like, not how to run them. [`crate::compile`] turns it
//! into the deterministic per-slot [`crate::CompiledPlan`] both the
//! simulator and the daemon consume.

use core::str::FromStr;

use wdm_core::Policy;

use crate::error::ScenarioError;
use crate::toml::{parse as parse_toml, TomlTable, TomlValue};

/// The schema version this build speaks.
pub const SCHEMA_VERSION: i64 = 1;

/// A declarative scenario: workload shape plus disruption timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (optional, defaults to empty).
    pub name: String,
    /// The interconnect under test.
    pub interconnect: InterconnectSpec,
    /// Run length and seeding.
    pub run: RunSpec,
    /// The base traffic process.
    pub traffic: TrafficSpec,
    /// Load phases tiling the timeline from slot 0 (empty = one implicit
    /// steady phase at rate 1.0).
    pub phases: Vec<PhaseSpec>,
    /// The disruption timeline (may be empty).
    pub disruptions: Vec<DisruptionSpec>,
    /// Degraded-mode policy fallback rule, if any.
    pub fallback: Option<FallbackSpec>,
}

/// Which conversion scheme family the interconnect runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConversionKindSpec {
    /// Circular (wrap-around) limited-range conversion.
    Circular,
    /// Non-circular (clamped) limited-range conversion.
    NonCircular,
    /// Full-range conversion (`d = k`).
    Full,
    /// No conversion (`d = 1`).
    None,
}

impl ConversionKindSpec {
    /// The stable name used in scenario files.
    pub const fn name(self) -> &'static str {
        match self {
            ConversionKindSpec::Circular => "circular",
            ConversionKindSpec::NonCircular => "non-circular",
            ConversionKindSpec::Full => "full",
            ConversionKindSpec::None => "none",
        }
    }
}

/// The `[interconnect]` table.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectSpec {
    /// Number of input = output fibers.
    pub n: usize,
    /// Wavelengths per fiber.
    pub k: usize,
    /// Conversion degree `d` (ignored for `full` / `none` kinds, which fix
    /// it to `k` / 1 respectively).
    pub degree: usize,
    /// Conversion scheme family.
    pub kind: ConversionKindSpec,
    /// Scheduling policy (default `auto`).
    pub policy: Policy,
}

/// The `[run]` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Warm-up slots excluded from measurement (default 0).
    pub warmup: u64,
    /// Measured slots.
    pub slots: u64,
    /// RNG seed — the whole run is a pure function of this.
    pub seed: u64,
}

/// Connection holding-time models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurationSpec {
    /// Every connection holds exactly this many slots.
    Deterministic {
        /// Holding time in slots (≥ 1).
        slots: u32,
    },
    /// Geometric holding times with the given mean.
    Geometric {
        /// Mean holding time in slots (≥ 1).
        mean: f64,
    },
    /// Heavy-tailed (Pareto) holding times: most bursts are short, a few
    /// are very long — the batch-size distribution measured on real
    /// datacenter traffic.
    Pareto {
        /// Minimum holding time in slots (the Pareto scale, ≥ 1).
        min: f64,
        /// Tail exponent (the Pareto shape, > 1 for a finite mean).
        shape: f64,
    },
}

/// The optional `[traffic.hotspot]` table: destination skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotSpec {
    /// The hot destination fiber.
    pub fiber: usize,
    /// Fraction of requests drawn to it (the rest are uniform).
    pub fraction: f64,
}

/// The optional `[traffic.bursty]` table: two-state on/off sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstySpec {
    /// P(OFF → ON) per slot, before the phase rate multiplier.
    pub p_on: f64,
    /// P(ON → OFF) per slot.
    pub p_off: f64,
}

/// The `[traffic]` table.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Base per-channel offered load (multiplied by the phase rate).
    pub load: f64,
    /// Holding-time model.
    pub duration: DurationSpec,
    /// Destination skew, if any.
    pub hotspot: Option<HotspotSpec>,
    /// On/off source modulation, if any.
    pub bursty: Option<BurstySpec>,
}

/// One `[[phases]]` entry: a piecewise segment of the load curve.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase name (reported in per-phase breakdowns).
    pub name: String,
    /// Length in slots (≥ 1).
    pub slots: u64,
    /// Rate multiplier on `traffic.load` at the end of this phase.
    pub rate: f64,
    /// Whether the multiplier ramps linearly from the previous phase's
    /// rate to `rate` over this phase (diurnal curves), or holds `rate`
    /// flat from the first slot.
    pub ramp: bool,
}

/// What a `[[disruptions]]` entry does to its fiber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisruptionKindSpec {
    /// Converter failure: the fiber's conversion degree shrinks to
    /// `degree` at `at` and recovers to the baseline at `until`.
    ConverterFailure {
        /// The degraded conversion degree (odd, below the baseline).
        degree: usize,
    },
    /// Full fiber outage: the fiber goes dark at `at` and rejoins cold at
    /// `until`.
    Outage,
}

/// One `[[disruptions]]` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisruptionSpec {
    /// Slot at which the disruption strikes.
    pub at: u64,
    /// The affected output fiber.
    pub fiber: usize,
    /// What happens.
    pub kind: DisruptionKindSpec,
    /// Recovery slot (exclusive end of the disruption), if the fiber
    /// recovers inside the run.
    pub until: Option<u64>,
}

/// The optional `[fallback]` table: the degraded-mode policy rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackSpec {
    /// The policy to fall back to (e.g. `approx` when the baseline is
    /// `bfa`).
    pub policy: Policy,
    /// Engage when the planned offered load reaches this threshold
    /// (simulator-side trigger).
    pub load_threshold: Option<f64>,
    /// Engage when the daemon's slot loop lags the clock by this many
    /// slots (daemon-side trigger).
    pub lag_threshold: Option<u64>,
    /// Engage while any disruption is active.
    pub on_disruption: bool,
    /// Hysteresis: revert only once the load trigger clears its threshold
    /// minus this margin (prevents engage/revert flapping at the edge).
    pub revert_margin: f64,
}

impl Scenario {
    /// Parses a scenario TOML document into the typed model.
    ///
    /// Syntax, schema-version, unknown-field, and per-field validation
    /// errors are all typed [`ScenarioError`]s; cross-field and timeline
    /// validation happens in [`Scenario::compile`](crate::compile).
    pub fn parse(input: &str) -> Result<Scenario, ScenarioError> {
        let root = parse_toml(input)?;
        let mut r = Reader::new("", &root);
        let schema = r.require_i64("schema")?;
        if schema != SCHEMA_VERSION {
            return Err(ScenarioError::UnsupportedSchema {
                found: schema,
                supported: SCHEMA_VERSION,
            });
        }
        let name = r.optional_string("name")?.unwrap_or_default();
        let interconnect = decode_interconnect(r.require_table("interconnect")?)?;
        let run = decode_run(r.require_table("run")?)?;
        let traffic = decode_traffic(r.require_table("traffic")?)?;
        let phases = match r.take("phases") {
            Some(v) => decode_phase_list(v)?,
            None => Vec::new(),
        };
        let disruptions = match r.take("disruptions") {
            Some(v) => decode_disruption_list(v)?,
            None => Vec::new(),
        };
        let fallback = match r.optional_table("fallback")? {
            Some(t) => Some(decode_fallback(t)?),
            None => None,
        };
        r.finish()?;
        Ok(Scenario { name, interconnect, run, traffic, phases, disruptions, fallback })
    }
}

fn decode_interconnect(table: &TomlTable) -> Result<InterconnectSpec, ScenarioError> {
    let mut r = Reader::new("interconnect", table);
    let n = r.require_usize("n")?;
    let k = r.require_usize("k")?;
    let kind = match r.require_string("kind")?.as_str() {
        "circular" => ConversionKindSpec::Circular,
        "non-circular" => ConversionKindSpec::NonCircular,
        "full" => ConversionKindSpec::Full,
        "none" => ConversionKindSpec::None,
        other => {
            return Err(r.invalid(
                "kind",
                format!("unknown conversion kind `{other}` (circular|non-circular|full|none)"),
            ))
        }
    };
    let degree = match kind {
        ConversionKindSpec::Full => {
            if let Some(d) = r.optional_usize("degree")? {
                if d != k {
                    return Err(
                        r.invalid("degree", format!("kind = \"full\" fixes degree to k = {k}"))
                    );
                }
            }
            k
        }
        ConversionKindSpec::None => {
            if let Some(d) = r.optional_usize("degree")? {
                if d != 1 {
                    return Err(r.invalid("degree", "kind = \"none\" fixes degree to 1"));
                }
            }
            1
        }
        ConversionKindSpec::Circular | ConversionKindSpec::NonCircular => {
            r.require_usize("degree")?
        }
    };
    let policy = match r.optional_string("policy")? {
        Some(name) => match Policy::from_str(&name) {
            Ok(p) => p,
            Err(_) => {
                return Err(
                    r.invalid("policy", format!("unknown policy `{name}` (auto|fa|bfa|approx|hk)"))
                )
            }
        },
        None => Policy::Auto,
    };
    r.finish()?;
    Ok(InterconnectSpec { n, k, degree, kind, policy })
}

fn decode_run(table: &TomlTable) -> Result<RunSpec, ScenarioError> {
    let mut r = Reader::new("run", table);
    let warmup = r.optional_u64("warmup")?.unwrap_or(0);
    let slots = r.require_u64("slots")?;
    let seed = r.require_u64("seed")?;
    r.finish()?;
    Ok(RunSpec { warmup, slots, seed })
}

fn decode_traffic(table: &TomlTable) -> Result<TrafficSpec, ScenarioError> {
    let mut r = Reader::new("traffic", table);
    let load = r.require_f64("load")?;
    let duration = decode_duration(r.require_table("duration")?)?;
    let hotspot = match r.optional_table("hotspot")? {
        Some(t) => Some(decode_hotspot(t)?),
        None => None,
    };
    let bursty = match r.optional_table("bursty")? {
        Some(t) => Some(decode_bursty(t)?),
        None => None,
    };
    r.finish()?;
    Ok(TrafficSpec { load, duration, hotspot, bursty })
}

fn decode_duration(table: &TomlTable) -> Result<DurationSpec, ScenarioError> {
    let mut r = Reader::new("traffic.duration", table);
    let spec = match r.require_string("model")?.as_str() {
        "deterministic" => DurationSpec::Deterministic { slots: r.require_u32("slots")? },
        "geometric" => DurationSpec::Geometric { mean: r.require_f64("mean")? },
        "pareto" => {
            DurationSpec::Pareto { min: r.require_f64("min")?, shape: r.require_f64("shape")? }
        }
        other => {
            return Err(r.invalid(
                "model",
                format!("unknown duration model `{other}` (deterministic|geometric|pareto)"),
            ))
        }
    };
    r.finish()?;
    Ok(spec)
}

fn decode_hotspot(table: &TomlTable) -> Result<HotspotSpec, ScenarioError> {
    let mut r = Reader::new("traffic.hotspot", table);
    let spec =
        HotspotSpec { fiber: r.require_usize("fiber")?, fraction: r.require_f64("fraction")? };
    r.finish()?;
    Ok(spec)
}

fn decode_bursty(table: &TomlTable) -> Result<BurstySpec, ScenarioError> {
    let mut r = Reader::new("traffic.bursty", table);
    let spec = BurstySpec { p_on: r.require_f64("p_on")?, p_off: r.require_f64("p_off")? };
    r.finish()?;
    Ok(spec)
}

fn decode_phase_list(value: &TomlValue) -> Result<Vec<PhaseSpec>, ScenarioError> {
    let TomlValue::Array(items) = value else {
        return Err(ScenarioError::TypeMismatch {
            table: String::new(),
            field: "phases".to_owned(),
            expected: "array of tables ([[phases]])",
            found: value.type_name(),
        });
    };
    items.iter().map(decode_phase).collect()
}

fn decode_phase(value: &TomlValue) -> Result<PhaseSpec, ScenarioError> {
    let TomlValue::Table(table) = value else {
        return Err(ScenarioError::TypeMismatch {
            table: "phases".to_owned(),
            field: String::new(),
            expected: "table",
            found: value.type_name(),
        });
    };
    let mut r = Reader::new("phases", table);
    let spec = PhaseSpec {
        name: r.require_string("name")?,
        slots: r.require_u64("slots")?,
        rate: r.require_f64("rate")?,
        ramp: r.optional_bool("ramp")?.unwrap_or(false),
    };
    r.finish()?;
    Ok(spec)
}

fn decode_disruption_list(value: &TomlValue) -> Result<Vec<DisruptionSpec>, ScenarioError> {
    let TomlValue::Array(items) = value else {
        return Err(ScenarioError::TypeMismatch {
            table: String::new(),
            field: "disruptions".to_owned(),
            expected: "array of tables ([[disruptions]])",
            found: value.type_name(),
        });
    };
    items.iter().map(decode_disruption).collect()
}

fn decode_disruption(value: &TomlValue) -> Result<DisruptionSpec, ScenarioError> {
    let TomlValue::Table(table) = value else {
        return Err(ScenarioError::TypeMismatch {
            table: "disruptions".to_owned(),
            field: String::new(),
            expected: "table",
            found: value.type_name(),
        });
    };
    let mut r = Reader::new("disruptions", table);
    let at = r.require_u64("at")?;
    let fiber = r.require_usize("fiber")?;
    let kind = match r.require_string("kind")?.as_str() {
        "converter-failure" => {
            DisruptionKindSpec::ConverterFailure { degree: r.require_usize("degree")? }
        }
        "outage" => DisruptionKindSpec::Outage,
        other => {
            return Err(r.invalid(
                "kind",
                format!("unknown disruption kind `{other}` (converter-failure|outage)"),
            ))
        }
    };
    let until = r.optional_u64("until")?;
    r.finish()?;
    Ok(DisruptionSpec { at, fiber, kind, until })
}

fn decode_fallback(table: &TomlTable) -> Result<FallbackSpec, ScenarioError> {
    let mut r = Reader::new("fallback", table);
    let policy_name = r.require_string("policy")?;
    let Ok(policy) = Policy::from_str(&policy_name) else {
        return Err(
            r.invalid("policy", format!("unknown policy `{policy_name}` (auto|fa|bfa|approx|hk)"))
        );
    };
    let spec = FallbackSpec {
        policy,
        load_threshold: r.optional_f64("load_threshold")?,
        lag_threshold: r.optional_u64("lag_threshold")?,
        on_disruption: r.optional_bool("on_disruption")?.unwrap_or(false),
        revert_margin: r.optional_f64("revert_margin")?.unwrap_or(0.0),
    };
    r.finish()?;
    Ok(spec)
}

/// A consuming view over one table: typed getters mark keys consumed, and
/// [`Reader::finish`] rejects whatever is left — the mechanism behind the
/// deny-unknown-fields contract.
struct Reader<'t> {
    name: &'static str,
    table: &'t TomlTable,
    consumed: Vec<bool>,
}

impl<'t> Reader<'t> {
    fn new(name: &'static str, table: &'t TomlTable) -> Reader<'t> {
        Reader { name, table, consumed: vec![false; table.len()] }
    }

    fn take(&mut self, key: &str) -> Option<&'t TomlValue> {
        for (i, (k, v)) in self.table.entries().iter().enumerate() {
            if k == key {
                if let Some(slot) = self.consumed.get_mut(i) {
                    *slot = true;
                }
                return Some(v);
            }
        }
        None
    }

    fn table_name(&self) -> String {
        if self.name.is_empty() {
            "top level".to_owned()
        } else {
            self.name.to_owned()
        }
    }

    fn missing(&self, field: &str) -> ScenarioError {
        ScenarioError::MissingField { table: self.table_name(), field: field.to_owned() }
    }

    fn mismatch(&self, field: &str, expected: &'static str, found: &TomlValue) -> ScenarioError {
        ScenarioError::TypeMismatch {
            table: self.table_name(),
            field: field.to_owned(),
            expected,
            found: found.type_name(),
        }
    }

    fn invalid(&self, field: &str, message: impl Into<String>) -> ScenarioError {
        ScenarioError::InvalidValue {
            table: self.table_name(),
            field: field.to_owned(),
            message: message.into(),
        }
    }

    fn require(&mut self, key: &str) -> Result<&'t TomlValue, ScenarioError> {
        match self.take(key) {
            Some(v) => Ok(v),
            None => Err(self.missing(key)),
        }
    }

    fn require_string(&mut self, key: &str) -> Result<String, ScenarioError> {
        match self.require(key)? {
            TomlValue::String(s) => Ok(s.clone()),
            other => Err(self.mismatch(key, "string", other)),
        }
    }

    fn optional_string(&mut self, key: &str) -> Result<Option<String>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(TomlValue::String(s)) => Ok(Some(s.clone())),
            Some(other) => Err(self.mismatch(key, "string", other)),
        }
    }

    fn require_i64(&mut self, key: &str) -> Result<i64, ScenarioError> {
        match self.require(key)? {
            TomlValue::Integer(v) => Ok(*v),
            other => Err(self.mismatch(key, "integer", other)),
        }
    }

    fn require_u64(&mut self, key: &str) -> Result<u64, ScenarioError> {
        let v = self.require_i64(key)?;
        u64::try_from(v).map_err(|_| self.invalid(key, "must be non-negative"))
    }

    fn optional_u64(&mut self, key: &str) -> Result<Option<u64>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(TomlValue::Integer(v)) => {
                let v = *v;
                Ok(Some(u64::try_from(v).map_err(|_| self.invalid(key, "must be non-negative"))?))
            }
            Some(other) => Err(self.mismatch(key, "integer", other)),
        }
    }

    fn require_usize(&mut self, key: &str) -> Result<usize, ScenarioError> {
        let v = self.require_i64(key)?;
        usize::try_from(v).map_err(|_| self.invalid(key, "must be non-negative"))
    }

    fn optional_usize(&mut self, key: &str) -> Result<Option<usize>, ScenarioError> {
        match self.optional_u64(key)? {
            None => Ok(None),
            Some(v) => Ok(Some(usize::try_from(v).map_err(|_| self.invalid(key, "out of range"))?)),
        }
    }

    fn require_u32(&mut self, key: &str) -> Result<u32, ScenarioError> {
        let v = self.require_i64(key)?;
        u32::try_from(v).map_err(|_| self.invalid(key, "must fit in 0..2^32"))
    }

    fn require_f64(&mut self, key: &str) -> Result<f64, ScenarioError> {
        match self.require(key)? {
            TomlValue::Float(v) => Ok(*v),
            #[allow(clippy::cast_precision_loss)]
            TomlValue::Integer(v) => Ok(*v as f64),
            other => Err(self.mismatch(key, "float", other)),
        }
    }

    fn optional_f64(&mut self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(TomlValue::Float(v)) => Ok(Some(*v)),
            #[allow(clippy::cast_precision_loss)]
            Some(TomlValue::Integer(v)) => Ok(Some(*v as f64)),
            Some(other) => Err(self.mismatch(key, "float", other)),
        }
    }

    fn optional_bool(&mut self, key: &str) -> Result<Option<bool>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(TomlValue::Boolean(v)) => Ok(Some(*v)),
            Some(other) => Err(self.mismatch(key, "boolean", other)),
        }
    }

    fn require_table(&mut self, key: &str) -> Result<&'t TomlTable, ScenarioError> {
        match self.require(key)? {
            TomlValue::Table(t) => Ok(t),
            other => Err(self.mismatch(key, "table", other)),
        }
    }

    fn optional_table(&mut self, key: &str) -> Result<Option<&'t TomlTable>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(TomlValue::Table(t)) => Ok(Some(t)),
            Some(other) => Err(self.mismatch(key, "table", other)),
        }
    }

    /// Rejects the first unconsumed key, in file order.
    fn finish(self) -> Result<(), ScenarioError> {
        for (i, (k, _)) in self.table.entries().iter().enumerate() {
            if !self.consumed.get(i).copied().unwrap_or(true) {
                return Err(ScenarioError::UnknownField {
                    table: self.table_name(),
                    field: k.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
schema = 1

[interconnect]
n = 4
k = 6
degree = 3
kind = "circular"

[run]
slots = 100
seed = 7

[traffic]
load = 0.5
duration = { model = "deterministic", slots = 1 }
"#;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(s.name, "");
        assert_eq!(s.interconnect.n, 4);
        assert_eq!(s.interconnect.policy, Policy::Auto);
        assert_eq!(s.run.warmup, 0);
        assert_eq!(s.traffic.duration, DurationSpec::Deterministic { slots: 1 });
        assert!(s.phases.is_empty() && s.disruptions.is_empty() && s.fallback.is_none());
    }

    #[test]
    fn wrong_schema_version_rejected() {
        let doc = MINIMAL.replacen("schema = 1", "schema = 2", 1);
        assert_eq!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::UnsupportedSchema { found: 2, supported: 1 }
        );
    }

    #[test]
    fn unknown_fields_denied_at_every_level() {
        let doc = MINIMAL.replacen("schema = 1", "schema = 1\nmystery = 1", 1);
        assert_eq!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::UnknownField {
                table: "top level".to_owned(),
                field: "mystery".to_owned()
            }
        );
        let doc = MINIMAL.replacen("[run]", "[run]\nsede = 9", 1);
        assert_eq!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::UnknownField { table: "run".to_owned(), field: "sede".to_owned() }
        );
        let doc = MINIMAL.replacen("kind = \"circular\"", "kind = \"circular\"\nthreads = 2", 1);
        assert_eq!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::UnknownField {
                table: "interconnect".to_owned(),
                field: "threads".to_owned()
            }
        );
        let doc = MINIMAL.replacen(
            r#"duration = { model = "deterministic", slots = 1 }"#,
            r#"duration = { model = "deterministic", slots = 1, extra = 2 }"#,
            1,
        );
        assert!(matches!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::UnknownField { field, .. } if field == "extra"
        ));
    }

    #[test]
    fn missing_required_fields_are_typed() {
        let doc = MINIMAL.replacen("seed = 7\n", "", 1);
        assert_eq!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::MissingField { table: "run".to_owned(), field: "seed".to_owned() }
        );
    }

    #[test]
    fn type_mismatches_are_typed() {
        let doc = MINIMAL.replacen("slots = 100", "slots = \"many\"", 1);
        assert_eq!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::TypeMismatch {
                table: "run".to_owned(),
                field: "slots".to_owned(),
                expected: "integer",
                found: "string",
            }
        );
        let doc = MINIMAL.replacen("seed = 7", "seed = -1", 1);
        assert!(matches!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::InvalidValue { field, .. } if field == "seed"
        ));
    }

    #[test]
    fn full_scenario_round_trips_every_section() {
        let doc = r#"
schema = 1
name = "storm"

[interconnect]
n = 8
k = 8
degree = 5
kind = "circular"
policy = "bfa"

[run]
warmup = 50
slots = 1000
seed = 99

[traffic]
load = 0.7
duration = { model = "pareto", min = 1.0, shape = 2.5 }

[traffic.hotspot]
fiber = 3
fraction = 0.4

[traffic.bursty]
p_on = 0.1
p_off = 0.25

[[phases]]
name = "night"
slots = 300
rate = 0.5

[[phases]]
name = "morning"
slots = 300
rate = 1.2
ramp = true

[[disruptions]]
at = 400
fiber = 2
kind = "converter-failure"
degree = 1
until = 700

[[disruptions]]
at = 800
fiber = 5
kind = "outage"
until = 900

[fallback]
policy = "approx"
load_threshold = 0.8
lag_threshold = 4
on_disruption = true
revert_margin = 0.05
"#;
        let s = Scenario::parse(doc).unwrap();
        assert_eq!(s.name, "storm");
        assert_eq!(s.interconnect.policy, Policy::BreakFirstAvailable);
        assert_eq!(s.traffic.duration, DurationSpec::Pareto { min: 1.0, shape: 2.5 });
        assert_eq!(s.traffic.hotspot, Some(HotspotSpec { fiber: 3, fraction: 0.4 }));
        assert_eq!(s.traffic.bursty, Some(BurstySpec { p_on: 0.1, p_off: 0.25 }));
        assert_eq!(s.phases.len(), 2);
        assert!(s.phases[1].ramp);
        assert_eq!(s.disruptions.len(), 2);
        assert_eq!(s.disruptions[0].kind, DisruptionKindSpec::ConverterFailure { degree: 1 });
        assert_eq!(s.disruptions[1].kind, DisruptionKindSpec::Outage);
        let f = s.fallback.unwrap();
        assert_eq!(f.policy, Policy::Approximate);
        assert_eq!(f.lag_threshold, Some(4));
        assert!(f.on_disruption);
    }

    #[test]
    fn full_and_none_kinds_fix_the_degree() {
        let doc = MINIMAL.replacen("kind = \"circular\"", "kind = \"full\"", 1).replacen(
            "degree = 3\n",
            "",
            1,
        );
        assert_eq!(Scenario::parse(&doc).unwrap().interconnect.degree, 6);
        let doc = MINIMAL.replacen("kind = \"circular\"", "kind = \"full\"", 1);
        assert!(matches!(
            Scenario::parse(&doc).unwrap_err(),
            ScenarioError::InvalidValue { field, .. } if field == "degree"
        ));
        let doc = MINIMAL.replacen("kind = \"circular\"", "kind = \"none\"", 1).replacen(
            "degree = 3",
            "degree = 1",
            1,
        );
        assert_eq!(Scenario::parse(&doc).unwrap().interconnect.degree, 1);
    }

    #[test]
    fn unknown_enum_names_are_invalid_values() {
        for (needle, replacement) in [
            ("kind = \"circular\"", "kind = \"spiral\""),
            (
                "duration = { model = \"deterministic\", slots = 1 }",
                "duration = { model = \"zipf\" }",
            ),
        ] {
            let doc = MINIMAL.replacen(needle, replacement, 1);
            assert!(
                matches!(Scenario::parse(&doc).unwrap_err(), ScenarioError::InvalidValue { .. }),
                "replacement: {replacement}"
            );
        }
        let doc = MINIMAL.replacen("[run]", "[interconnect.x]\ny = 1\n[run]", 1);
        assert!(Scenario::parse(&doc).is_err());
    }
}
