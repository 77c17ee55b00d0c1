//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer's public functions, made from the
//! benchmark's own code: name, layer, start, end, parent span and slot id.
//! Spans live in a vector until the run ends; [`Spans::write_tsv`] writes
//! them out.
//!
//! A span's *self time* is its duration minus the durations of its child
//! spans. A child is either a call nested inside the parent's interval or
//! a replay of the work the parent did internally (the engine's own
//! `Interconnect` call, replayed through a bare `Interconnect`), which the
//! benchmark cannot time from outside any other way.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layers spans are attributed to, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `wdm_sim::traffic` input generation.
    Traffic,
    /// `wdm_serve::client`.
    Client,
    /// The `wdm-serve` daemon (server + serve_sync), seen as a round trip.
    Server,
    /// `write_frame` / `read_frame`.
    Protocol,
    /// `wdm_serve::SlotEngine`.
    Engine,
    /// `Interconnect::reserve` into the `ReservationStore`.
    Reservation,
    /// `Interconnect::advance_slot_into`.
    Interconnect,
    /// `FiberScheduler::schedule_slot`.
    Scheduler,
}

impl Layer {
    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Traffic => "traffic",
            Layer::Client => "client",
            Layer::Server => "server",
            Layer::Protocol => "protocol",
            Layer::Engine => "engine",
            Layer::Reservation => "reservation",
            Layer::Interconnect => "interconnect",
            Layer::Scheduler => "scheduler",
        }
    }
}

/// Index of a recorded span.
pub type SpanId = u32;

/// One recorded span. Times are ns since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The call timed, e.g. `engine.run_slot`.
    pub name: &'static str,
    /// The layer it belongs to.
    pub layer: Layer,
    /// The span that caused it.
    pub parent: Option<SpanId>,
    /// The slot it served.
    pub slot: u64,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name or per-layer aggregate of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans aggregated.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns (negative when a replayed child ran slower
    /// than the parent's own call).
    pub self_ns: i64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder with room for `capacity` spans before it grows.
    pub fn with_capacity(capacity: usize) -> Spans {
        Spans { origin: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: Option<SpanId>,
        slot: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, layer, parent, slot, start_ns, end_ns });
        id
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.duration_ns() as i64;
            }
        }
        own
    }

    /// Totals per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Totals> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
        out
    }

    /// Totals per layer.
    pub fn by_layer(&self) -> BTreeMap<Layer, Totals> {
        let own = self.self_times();
        let mut out: BTreeMap<Layer, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let t = out.entry(s.layer).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `workload id parent slot layer name start_ns end_ns`.
    pub fn write_tsv(&self, w: &mut impl Write, workload: &str) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{workload}\t{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.slot,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Builds spans with exact offsets from one origin.
    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_nested_children_at_every_depth() {
        let mut s = Spans::with_capacity(8);
        let o = s.origin;
        // engine [0, 100) ⊃ interconnect [10, 70) ⊃ scheduler ×2 (15 + 20)
        let engine = s.record("engine.run_slot", Layer::Engine, None, 0, at(o, 0), at(o, 100));
        let ic = s.record(
            "interconnect.advance",
            Layer::Interconnect,
            Some(engine),
            0,
            at(o, 10),
            at(o, 70),
        );
        s.record("scheduler.schedule_slot", Layer::Scheduler, Some(ic), 0, at(o, 20), at(o, 35));
        s.record("scheduler.schedule_slot", Layer::Scheduler, Some(ic), 0, at(o, 40), at(o, 60));
        // A replayed reservation call after the engine span, parented to it.
        s.record(
            "reservation.reserve",
            Layer::Reservation,
            Some(engine),
            0,
            at(o, 120),
            at(o, 125),
        );
        let own = s.self_times();
        assert_eq!(own, vec![35_000, 25_000, 15_000, 20_000, 5_000]);
        let layers = s.by_layer();
        assert_eq!(layers[&Layer::Engine].self_ns, 35_000);
        assert_eq!(layers[&Layer::Interconnect].self_ns, 25_000);
        assert_eq!(
            layers[&Layer::Scheduler],
            Totals { count: 2, total_ns: 35_000, self_ns: 35_000 }
        );
        // Self times partition the root's duration.
        assert_eq!(own.iter().sum::<i64>(), 100_000);
    }

    #[test]
    fn a_slower_replay_makes_self_time_negative_not_clamped() {
        let mut s = Spans::with_capacity(2);
        let o = s.origin;
        let p = s.record("engine.run_slot", Layer::Engine, None, 3, at(o, 0), at(o, 10));
        s.record("interconnect.advance", Layer::Interconnect, Some(p), 3, at(o, 20), at(o, 32));
        assert_eq!(s.self_times(), vec![-2_000, 12_000]);
        assert_eq!(s.by_name()["engine.run_slot"].self_ns, -2_000);
    }

    #[test]
    fn tsv_has_one_line_per_span() {
        let mut s = Spans::with_capacity(2);
        let o = s.origin;
        let root = s.record("traffic.generate", Layer::Traffic, None, 7, at(o, 1), at(o, 2));
        s.record("client.submit", Layer::Client, Some(root), 7, at(o, 2), at(o, 5));
        let mut out = Vec::new();
        s.write_tsv(&mut out, "w").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "w\t0\t-\t7\ttraffic\ttraffic.generate\t1000\t2000\n\
             w\t1\t0\t7\tclient\tclient.submit\t2000\t5000\n"
        );
    }
}
