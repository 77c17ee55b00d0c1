//! The metric catalogue: end-to-end metrics from an untraced run,
//! per-layer metrics from a traced one, and the result line.

use std::fmt::Write as _;

use crate::spans::{Layer, Totals};
use crate::stats::{
    chunk_latency, chunk_rate, highest_supported_percentile, samples_beyond, setup_time,
    undisturbed_chunks, undisturbed_setups, Chunk, MIN_UNDISTURBED_CHUNKS, MIN_UNDISTURBED_SETUPS,
};
use crate::{Measured, Traced};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process daemon, one client, one batch in flight.
    ServeLockstep,
    /// `SlotEngine` driven directly, with advance reservations.
    EngineHeavy,
    /// The simulator's slot loop over coherent streams.
    SimCoherent,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] =
        [Workload::ServeLockstep, Workload::EngineHeavy, Workload::SimCoherent];

    /// The workload's name on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLockstep => "serve_lockstep",
            Workload::EngineHeavy => "engine_heavy",
            Workload::SimCoherent => "sim_coherent",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The layers the workload runs, outermost first.
    pub fn layers(self) -> &'static [Layer] {
        match self {
            Workload::ServeLockstep => &[
                Layer::Traffic,
                Layer::Client,
                Layer::Server,
                Layer::Protocol,
                Layer::Engine,
                Layer::Interconnect,
                Layer::Scheduler,
            ],
            Workload::EngineHeavy => &[
                Layer::Traffic,
                Layer::Engine,
                Layer::Reservation,
                Layer::Interconnect,
                Layer::Scheduler,
            ],
            Workload::SimCoherent => &[Layer::Traffic, Layer::Interconnect, Layer::Scheduler],
        }
    }
}

/// One metric as printed: name, unit, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// How the value was estimated (printed beside it).
    pub estimator: String,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    higher: bool,
    value: f64,
    est: String,
) -> Metric {
    Metric { name: name.into(), unit, value, higher_is_better: higher, estimator: est }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let chunks = &m.chunks;
    let used = undisturbed_chunks(chunks).len();
    let per_chunk = |percentile: &str, what: &str| {
        format!(
            "{percentile} percentile over the {used} least stolen of {} chunks of {} slots (every steal-free one, at least {MIN_UNDISTURBED_CHUNKS}) of each chunk's {what}",
            chunks.len(),
            m.chunk_slots
        )
    };
    // Set-up times in ms, `*` marking those host steal fell in.
    let setup: Vec<String> = m
        .setups
        .iter()
        .map(|s| format!("{:.2}{}", s.seconds * 1e3, if s.steal_ticks > 0 { "*" } else { "" }))
        .collect();
    let setups_used = undisturbed_setups(&m.setups).len();
    vec![
        metric(
            "setup_s",
            "s",
            false,
            setup_time(&m.setups),
            format!(
                "median over the {setups_used} least stolen of {} set-ups (every steal-free one, at least {MIN_UNDISTURBED_SETUPS}) [ms: {}]",
                m.setups.len(),
                setup.join(" ")
            ),
        ),
        metric(
            "slots_per_s",
            "1/s",
            true,
            chunk_rate(chunks),
            per_chunk("10th", "slots per wall second"),
        ),
        metric(
            "verdict_p50_us",
            "us",
            false,
            chunk_latency(chunks, |c: &Chunk| c.p50_ns) / 1e3,
            per_chunk("90th", "median slot latency"),
        ),
        metric(
            "verdict_p90_us",
            "us",
            false,
            chunk_latency(chunks, |c: &Chunk| c.p90_ns) / 1e3,
            per_chunk("90th", "p90 slot latency"),
        ),
        metric(
            "grant_ratio",
            "ratio",
            true,
            ratio(m.window.granted as f64, m.window.offered as f64),
            format!(
                "{} granted / {} cell requests over the first {} measured slots",
                m.window.granted, m.window.offered, m.window.slots
            ),
        ),
        metric(
            "ok_ratio",
            "ratio",
            true,
            1.0 - ratio(m.total.failed as f64, m.total.attempted as f64),
            format!(
                "1 - error_ratio; {} failed of {} operations",
                m.total.failed, m.total.attempted
            ),
        ),
        metric(
            "peak_rss_mb",
            "MB",
            false,
            m.peak_rss_kb as f64 / 1024.0,
            "VmHWM of the benchmark process after the measured phase".to_owned(),
        ),
    ]
}

/// The whole-run tail of an untraced run (printed, not gated): p99 and
/// the highest percentile with at least ten samples beyond it.
pub fn tail_line(m: &Measured) -> String {
    let n = m.tail.total();
    let mut line = String::from("tail");
    let mut ladder = vec![99.0];
    if let Some(p) = highest_supported_percentile(n, 10) {
        if p > 99.0 {
            ladder.push(p);
        }
    }
    for p in ladder {
        let value = m.tail.quantile(p / 100.0).map_or(0.0, |ns| ns as f64 / 1e3);
        let _ = write!(
            line,
            " verdict_p{p}_us={value:.1} (samples={n}, beyond={})",
            samples_beyond(n, p)
        );
    }
    line
}

/// The per-layer metrics of one workload's traced pass, named
/// `<workload>.<layer>.<metric>`, then each layer's share of the per-slot
/// time and the tracing overhead against the untraced `reference` pass.
pub fn per_layer(w: Workload, t: &Traced, reference: &Measured) -> Vec<Metric> {
    let names = t.spans.by_name();
    let layers = t.spans.by_layer();
    let slots = t.tally.slots as f64;
    let c = &t.counts;
    let total = |name: &str| names.get(name).map_or(0, |t: &Totals| t.total_ns) as f64;
    let own = |layer: Layer| layers.get(&layer).map_or(0, |t: &Totals| t.self_ns) as f64;
    let us = |ns: f64| ratio(ns, slots) / 1e3;
    let sched = c.scheduler;
    let mut out = Vec::new();
    let mut add = |suffix: &str, unit: &'static str, higher: bool, value: f64| {
        let est = format!("{} traced slots", t.tally.slots);
        out.push(metric(format!("{}.{suffix}", w.name()), unit, higher, value, est));
    };
    for &layer in w.layers() {
        match layer {
            Layer::Traffic => {
                add("traffic.generate_us", "us/slot", false, us(total("traffic.generate")))
            }
            Layer::Client => {
                add("client.submit_us", "us/slot", false, us(total("client.submit")));
                add("client.wait_us", "us/slot", false, us(total("client.wait")));
            }
            Layer::Server => {
                add("server.self_us", "us/slot", false, us(own(Layer::Server)));
                add("server.cpu_us", "us/slot", false, us(t.host.threads.other_cpu_ns as f64));
                add(
                    "server.run_delay_us",
                    "us/slot",
                    false,
                    us(t.host.threads.other_run_delay_ns as f64),
                );
                add("server.frames", "frames/slot", false, ratio(c.server_frames as f64, slots));
            }
            Layer::Protocol => {
                let frames = c.protocol_frames as f64;
                add(
                    "protocol.encode_ns",
                    "ns/frame",
                    false,
                    ratio(total("protocol.encode"), frames),
                );
                add(
                    "protocol.decode_ns",
                    "ns/frame",
                    false,
                    ratio(total("protocol.decode"), frames),
                );
                add("protocol.bytes", "bytes/slot", false, ratio(c.protocol_bytes as f64, slots));
            }
            Layer::Engine => {
                add("engine.self_us", "us/slot", false, us(own(Layer::Engine)));
                let submits = c.engine_submits as f64;
                add(
                    "engine.submit_ns",
                    "ns/request",
                    false,
                    ratio(total("engine.submit"), submits),
                );
                add("engine.replies", "replies/slot", true, ratio(c.engine_replies as f64, slots));
            }
            Layer::Reservation => {
                let calls = c.interconnect.reserve_calls as f64;
                add(
                    "reservation.reserve_ns",
                    "ns/call",
                    false,
                    ratio(total("reservation.reserve"), calls),
                );
                let (attempted, admitted) = (c.reserve_attempted as f64, c.reserve_admitted as f64);
                add("reservation.admit_ratio", "ratio", true, ratio(admitted, attempted));
                add(
                    "reservation.expiry_ratio",
                    "ratio",
                    false,
                    ratio(c.reserve_expired as f64, admitted),
                );
            }
            Layer::Interconnect => {
                add("interconnect.self_us", "us/slot", false, us(own(Layer::Interconnect)));
                let requests = c.interconnect.requests as f64;
                add("interconnect.requests", "requests/slot", true, ratio(requests, slots));
                add(
                    "interconnect.source_busy_ratio",
                    "ratio",
                    false,
                    ratio(c.interconnect.source_busy as f64, requests),
                );
            }
            Layer::Scheduler => {
                let replayed = layers.get(&Layer::Scheduler).copied().unwrap_or_default();
                let (busy, calls) = (replayed.total_ns as f64, replayed.count as f64);
                add("scheduler.schedule_ns", "ns/call", false, ratio(busy, calls));
                let warm = (sched.repaired + sched.fallback) as f64;
                add("scheduler.repair_ratio", "ratio", true, ratio(sched.repaired as f64, warm));
                let fiber_slots = sched.slots() as f64;
                add("scheduler.cold_share", "ratio", false, ratio(sched.cold as f64, fiber_slots));
                add(
                    "scheduler.fallback_share",
                    "ratio",
                    false,
                    ratio(sched.fallback as f64, fiber_slots),
                );
            }
        }
    }
    // Shares: each layer's self time over the per-slot time (input
    // generation plus the live call). Client spans split the server's
    // round trip, so they are not a share of their own.
    let per_slot: f64 =
        layers.iter().filter(|(l, _)| **l != Layer::Client).map(|(_, t)| t.self_ns as f64).sum();
    for &layer in w.layers() {
        if layer != Layer::Client {
            add(&format!("share.{}", layer.name()), "share", false, ratio(own(layer), per_slot));
        }
    }
    // Tracing overhead: how far tracing moves the timed span (the replays
    // run outside it, so ≈ 1), and what the spans and replays cost in wall
    // time per slot.
    let p50 = |chunks: &[Chunk]| chunk_latency(chunks, |c: &Chunk| c.p50_ns);
    add("trace.verdict_p50_ratio", "ratio", false, ratio(p50(&t.chunks), p50(&reference.chunks)));
    add(
        "trace.slowdown",
        "ratio",
        false,
        ratio(chunk_rate(&reference.chunks), chunk_rate(&t.chunks)),
    );
    out
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Non-finite values are written as 0 and make the result incorrect.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(body, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        correct && finite,
        attempted.max(1)
    )
}

/// One human-readable line per metric.
pub fn metric_line(m: &Metric) -> String {
    let better = if m.higher_is_better { "higher" } else { "lower" };
    format!("metric {} = {} {} ({better} is better) [{}]", m.name, m.value, m.unit, m.estimator)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_its_four_keys() {
        let ms = vec![
            metric("a", "s", false, 0.25, String::new()),
            metric("b", "1/s", true, 1234.5, String::new()),
        ];
        assert_eq!(
            result_json(true, 10, 0, &ms),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 0.25, \"unit\": \"s\"}, \"b\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_fail_the_result() {
        let ms = vec![metric("a", "s", false, f64::NAN, String::new())];
        let json = result_json(true, 0, 0, &ms);
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 1,"), "{json}");
        assert!(json.contains("\"value\": 0,"), "{json}");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
