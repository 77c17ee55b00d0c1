//! # wdm-sim
//!
//! The slotted simulation harness used to evaluate the scheduling
//! algorithms on whole-interconnect workloads:
//!
//! * [`traffic`] — synthetic arrival processes: i.i.d. Bernoulli with
//!   uniform destinations, hotspot destinations, bursty on/off sources, and
//!   deterministic or geometric multi-slot holding times (the models used by
//!   the paper's citations [11], [13], [14] — no public 2003 OXC traces
//!   exist, see DESIGN.md);
//! * [`metrics`] — per-slot accounting: offered load, carried load,
//!   contention losses, channel utilization, with batch-means confidence
//!   intervals;
//! * [`engine`] — ties a [`wdm_interconnect::Interconnect`] to a traffic
//!   model and runs warmup + measurement phases;
//! * [`analysis`] — the exact analytical throughput of full-range
//!   conversion (balls-in-bins), used to validate the simulator;
//! * [`experiment`] — parameter-sweep runner producing the CSV/JSON tables
//!   behind EXPERIMENTS.md;
//! * [`sweep_sync`] — the cursor/slot coordination protocol behind the
//!   multi-threaded sweep, model-checked exhaustively under loom
//!   (`cargo xtask loom`);
//! * [`scenario`] — executes a compiled `wdm-scenario` plan: phased load,
//!   mid-run disruptions (converter failures, fiber outages), degraded-mode
//!   policy fallback, with per-phase and per-disruption-window breakdowns;
//!   its [`ScenarioRuntime`] applies the plan at slot boundaries for the
//!   simulator and the `wdm-serve` daemon alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod analysis;
pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod scenario;
pub mod sweep_sync;
pub mod trace;
pub mod traffic;

pub use engine::{Report, ReservationSummary, Simulation, SimulationConfig, WarmSummary};
pub use metrics::{Metrics, SlotObservation};
pub use scenario::{
    duration_model, run_scenario, PhaseReport, ScenarioReport, ScenarioRuntime, ScenarioSummary,
    ScenarioTraffic, WindowStats,
};
pub use trace::{
    ReplayError, ReplayReport, SessionTrace, TraceConfig, TraceGrant, TraceRequest, TraceSlot,
};
pub use traffic::{
    BernoulliUniform, BurstyOnOff, DurationModel, Hotspot, ReservationTraffic, TrafficModel,
};
