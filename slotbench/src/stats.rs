//! Order statistics, the per-chunk estimators behind the end-to-end
//! metrics, and a fixed-footprint log histogram for the ungated tails.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, interpolating
/// linearly between the two closest ranks. `NaN` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The `q`-quantile of unsorted values (sorts a copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// One finished chunk of consecutive measured slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// Median per-slot latency inside the chunk, ns.
    pub p50_ns: f64,
    /// 90th-percentile per-slot latency inside the chunk, ns.
    pub p90_ns: f64,
    /// Slots per second of wall time over the chunk.
    pub slots_per_s: f64,
    /// Host CPU steal ticks while the chunk ran.
    pub steal_ticks: u64,
}

/// Splits the measured phase into chunks of a fixed slot count and keeps
/// one [`Chunk`] summary per chunk, so memory stays bounded by the chunk
/// size however long the run is. Every latency also lands in a
/// [`LogHistogram`] for the whole-run tail.
#[derive(Debug)]
pub struct ChunkRecorder {
    size: usize,
    latencies: Vec<f64>,
    started: Instant,
    steal: Option<u64>,
    chunks: Vec<Chunk>,
    tail: LogHistogram,
}

impl ChunkRecorder {
    /// A recorder with `size` slots per chunk; the first chunk's wall clock
    /// starts now.
    pub fn new(size: usize) -> ChunkRecorder {
        ChunkRecorder {
            size: size.max(1),
            latencies: Vec::with_capacity(size.max(1)),
            started: Instant::now(),
            steal: crate::procfs::steal_ticks(),
            chunks: Vec::with_capacity(4096),
            tail: LogHistogram::new(),
        }
    }

    /// Records one measured slot's latency. Closing a full chunk sorts its
    /// samples, reads the host's steal counter and then restarts the wall
    /// clock, so the bookkeeping never counts toward the next chunk's rate.
    pub fn record(&mut self, latency_ns: u64) {
        self.latencies.push(latency_ns as f64);
        self.tail.record(latency_ns);
        if self.latencies.len() == self.size {
            let wall = self.started.elapsed().as_secs_f64();
            let steal = crate::procfs::steal_ticks();
            let stolen = crate::procfs::steal_between(self.steal, steal);
            self.chunks.push(summarize_chunk(&mut self.latencies, wall, stolen));
            self.latencies.clear();
            self.steal = steal;
            self.started = Instant::now();
        }
    }

    /// Leaves `paused` out of the current chunk's wall time.
    pub fn exclude(&mut self, paused: Duration) {
        self.started += paused;
    }

    /// The finished chunks (a trailing partial chunk is dropped).
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// The whole-run latency histogram.
    pub fn tail(&self) -> &LogHistogram {
        &self.tail
    }
}

/// Summarizes one full chunk: sorts `latencies` in place.
pub fn summarize_chunk(latencies: &mut [f64], wall_s: f64, steal_ticks: u64) -> Chunk {
    latencies.sort_by(f64::total_cmp);
    Chunk {
        p50_ns: quantile_sorted(latencies, 0.5),
        p90_ns: quantile_sorted(latencies, 0.9),
        slots_per_s: if wall_s > 0.0 { latencies.len() as f64 / wall_s } else { f64::NAN },
        steal_ticks,
    }
}

/// One timed set-up of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    /// Wall time, s.
    pub seconds: f64,
    /// Host CPU steal ticks while it ran.
    pub steal_ticks: u64,
}

/// Fewest chunks the chunk estimators read.
pub const MIN_UNDISTURBED_CHUNKS: usize = 10;
/// Fewest set-ups the set-up estimator reads.
pub const MIN_UNDISTURBED_SETUPS: usize = 5;

/// The items (chunks or set-ups) no host steal tick fell in; when fewer
/// than `min` are steal-free, the `min` items with the fewest steal ticks.
/// A stolen vCPU stalls the work in flight, which moves a chunk's p90 and
/// rate or a set-up's time by the steal's length, not by anything the
/// program did; in a run where steal hits almost every chunk, the least
/// stolen ones are still the closest to the program's own speed.
pub fn undisturbed<T: Copy>(items: &[T], min: usize, steal_ticks: fn(&T) -> u64) -> Vec<T> {
    let mut least_stolen = items.to_vec();
    least_stolen.sort_by_key(steal_ticks);
    let clean = least_stolen.iter().take_while(|i| steal_ticks(i) == 0).count();
    least_stolen.truncate(clean.max(min));
    least_stolen
}

/// The [`undisturbed`] chunks.
pub fn undisturbed_chunks(chunks: &[Chunk]) -> Vec<Chunk> {
    undisturbed(chunks, MIN_UNDISTURBED_CHUNKS, |c| c.steal_ticks)
}

/// The [`undisturbed`] set-ups.
pub fn undisturbed_setups(setups: &[Setup]) -> Vec<Setup> {
    undisturbed(setups, MIN_UNDISTURBED_SETUPS, |s| s.steal_ticks)
}

/// The chunk estimator: the `q`-quantile over the [`undisturbed`] chunks
/// of one per-chunk figure.
pub fn chunk_quantile(chunks: &[Chunk], q: f64, field: fn(&Chunk) -> f64) -> f64 {
    let values: Vec<f64> = undisturbed_chunks(chunks).iter().map(field).collect();
    quantile(&values, q)
}

/// The set-up estimator: the median of the [`undisturbed`] set-up times.
/// Not the slow decile the chunk timings read: a set-up lasts a few ms,
/// less than one 10 ms steal tick, so steal often slows a set-up without
/// moving the counter, and the slowest set-ups are those undetected
/// stalls. Over a stretch with a third of the host's CPU stolen, the slow
/// decile of `serve_lockstep` set-ups rose 33 %, the median 12 %.
pub fn setup_time(setups: &[Setup]) -> f64 {
    let values: Vec<f64> = undisturbed_setups(setups).iter().map(|s| s.seconds).collect();
    quantile(&values, 0.5)
}

/// The latency estimator: the 90th percentile over chunks of a per-chunk
/// latency — the figure nine chunks in ten meet. On a shared host a
/// single-threaded loop runs up to 1.5× faster while the host is quiet;
/// how long that lasts differs from run to run, so the median chunk
/// flips between the two speeds while the slow decile holds.
pub fn chunk_latency(chunks: &[Chunk], field: fn(&Chunk) -> f64) -> f64 {
    chunk_quantile(chunks, 0.9, field)
}

/// The throughput estimator: the 10th percentile over chunks of the
/// per-chunk rate — the rate nine chunks in ten sustain.
pub fn chunk_rate(chunks: &[Chunk]) -> f64 {
    chunk_quantile(chunks, 0.1, |c| c.slots_per_s)
}

/// Sub-buckets per power of two: ~1.6 % relative resolution.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (~18 minutes) are resolved; larger ones clamp.
const MAX_EXP: u32 = 40;

/// A log-linear histogram of nanosecond latencies with a fixed footprint.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram { counts: vec![0; bucket_of(u64::MAX) + 1], total: 0 }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The lower edge of the bucket holding the `q`-quantile sample, or
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(bucket_floor(bucket));
            }
        }
        Some(bucket_floor(self.counts.len() - 1))
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let exp = (63 - value.leading_zeros()).min(MAX_EXP);
    let value = value.min((1u64 << (MAX_EXP + 1)) - 1);
    let sub = ((value >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

fn bucket_floor(bucket: usize) -> u64 {
    if bucket < SUB {
        return bucket as u64;
    }
    let exp = (bucket / SUB) as u32 + SUB_BITS - 1;
    let sub = (bucket % SUB) as u64;
    (1u64 << exp) | (sub << (exp - SUB_BITS))
}

/// The percentile ladder tails are read from.
pub const TAIL_LADDER: [f64; 5] = [99.0, 99.9, 99.99, 99.999, 99.9999];

/// The highest percentile of [`TAIL_LADDER`] with at least `min_beyond`
/// samples beyond it; `None` if even p99 has fewer.
pub fn highest_supported_percentile(samples: u64, min_beyond: u64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= min_beyond as f64 - 1e-9)
}

/// Samples strictly beyond percentile `p` of `samples`.
pub fn samples_beyond(samples: u64, p: f64) -> u64 {
    (samples as f64 * (1.0 - p / 100.0)).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert!((quantile_sorted(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.3), 7.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), 3.0);
    }

    #[test]
    fn chunk_summary_sorts_and_rates() {
        let mut lat: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let c = summarize_chunk(&mut lat, 0.5, 3);
        assert_eq!(c.p50_ns, 5.5);
        assert!((c.p90_ns - 9.1).abs() < 1e-12);
        assert_eq!(c.slots_per_s, 20.0);
        assert_eq!(c.steal_ticks, 3);
        assert_eq!(lat[0], 1.0);
    }

    fn chunk(p50_ns: f64, slots_per_s: f64, steal_ticks: u64) -> Chunk {
        Chunk { p50_ns, p90_ns: 2.0 * p50_ns, slots_per_s, steal_ticks }
    }

    #[test]
    fn chunk_estimators_read_the_decile_nine_chunks_in_ten_meet() {
        // Ten chunks alternating between a fast and a slow host: the
        // estimators sit in the slow group however the two mix.
        let mut chunks: Vec<Chunk> = (0..10)
            .map(|i| if i % 2 == 0 { chunk(100.0, 1000.0, 0) } else { chunk(150.0, 650.0, 0) })
            .collect();
        assert_eq!(chunk_latency(&chunks, |c| c.p50_ns), 150.0);
        assert_eq!(chunk_latency(&chunks, |c| c.p90_ns), 300.0);
        assert_eq!(chunk_rate(&chunks), 650.0);
        chunks.truncate(3);
        assert_eq!(chunk_quantile(&chunks, 0.5, |c| c.p50_ns), 100.0);
    }

    #[test]
    fn chunks_with_host_steal_are_left_out_while_enough_remain() {
        let mut chunks: Vec<Chunk> =
            (0..MIN_UNDISTURBED_CHUNKS).map(|_| chunk(100.0, 1000.0, 0)).collect();
        // Twenty chunks hit by 20, 19, ..., 1 steal ticks, slower the more
        // steal they took.
        chunks.extend((1..=20u64).rev().map(|t| {
            let t_f = t as f64;
            chunk(100.0 + 40.0 * t_f, 1000.0 - 40.0 * t_f, t)
        }));
        assert_eq!(undisturbed_chunks(&chunks).len(), MIN_UNDISTURBED_CHUNKS);
        assert_eq!(chunk_latency(&chunks, |c| c.p50_ns), 100.0);
        assert_eq!(chunk_rate(&chunks), 1000.0);
        // One steal-free chunk too few: the ten least stolen chunks count,
        // the nine steal-free ones and the one with a single tick.
        chunks.remove(0);
        let used = undisturbed_chunks(&chunks);
        assert_eq!(used.len(), MIN_UNDISTURBED_CHUNKS);
        assert_eq!(used.iter().map(|c| c.steal_ticks).max(), Some(1));
        assert!((chunk_latency(&chunks, |c| c.p50_ns) - 104.0).abs() < 1e-9);
        assert!((chunk_rate(&chunks) - 996.0).abs() < 1e-9);
    }

    #[test]
    fn setup_time_is_the_median_of_steal_free_set_ups() {
        let setup = |ms: f64, steal_ticks: u64| Setup { seconds: ms / 1e3, steal_ticks };
        // 21 set-ups of 1..=21 ms: the median is the 11th value.
        let mut setups: Vec<Setup> = (1..=21).map(|ms| setup(f64::from(ms), 0)).collect();
        assert!((setup_time(&setups) - 0.011).abs() < 1e-12);
        // Sixteen slow set-ups hit by steal are left out: the median of
        // the five others (1..=5 ms) is 3 ms.
        for (i, s) in setups.iter_mut().enumerate().skip(MIN_UNDISTURBED_SETUPS) {
            *s = setup(100.0 + i as f64, 1);
        }
        assert!((setup_time(&setups) - 0.003).abs() < 1e-12);
        // One steal-free set-up too few: the five least stolen count, the
        // four steal-free ones (2..=5 ms) and the first with one tick.
        setups[0].steal_ticks = 2;
        assert_eq!(undisturbed_setups(&setups).len(), MIN_UNDISTURBED_SETUPS);
        assert!((setup_time(&setups) - 0.004).abs() < 1e-12);
    }

    #[test]
    fn recorder_closes_full_chunks_only() {
        let mut r = ChunkRecorder::new(4);
        for ns in [10, 20, 30, 40, 50, 60] {
            r.record(ns);
        }
        assert_eq!(r.chunks().len(), 1);
        assert_eq!(r.chunks()[0].p50_ns, 25.0);
        assert_eq!(r.tail().total(), 6);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..5000u64).chain([1 << 20, 123_456_789, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order at {v}");
            last = b;
            let floor = bucket_floor(b);
            assert!(floor <= v, "floor {floor} above {v}");
            if v < 1 << 40 {
                assert!((v - floor) as f64 <= v as f64 / SUB as f64 + 1.0, "{v} -> {floor}");
            }
        }
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((490_000..=500_000).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((975_000..=990_000).contains(&p99), "p99 {p99}");
        assert_eq!(LogHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported_percentile(999, 10), None);
        assert_eq!(highest_supported_percentile(1000, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, 10), Some(99.9));
        assert_eq!(highest_supported_percentile(160_000, 10), Some(99.99));
        assert_eq!(samples_beyond(160_000, 99.99), 16);
    }
}
