//! The standing Loom benchmark: four workloads driven through the public
//! API, every answer checked, end-to-end metrics from a plain run and
//! per-layer metrics from a separate traced run. See `README.md`.

pub mod host;
pub mod ingest;
pub mod layers;
pub mod query;
pub mod report;
pub mod stats;

use std::time::Duration;

use loom::HistogramSpec;

use report::{Report, QUERIES};
use stats::{median, Samples};

/// The workloads the binary runs. `BENCHMARK.json` gates all but
/// `query_hot` (see `README.md`).
pub const WORKLOADS: [&str; 4] = ["ingest_local", "ingest_tcp", "query_hot", "query_cold"];

/// Records per batch: every batch is 256 pushes followed by one `sync`.
pub const BATCH: usize = 256;

/// A run stops adding rounds or passes after this long even if it has
/// not reached its minimum sample counts, so a run always ends in time.
pub const HARD_STOP: Duration = Duration::from_secs(120);

/// Everything a run depends on besides the code under test.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed phase keeps adding rounds or passes.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Records pushed per ingest round (fixed, so recovery and disk
    /// figures compare across commits).
    pub ingest_records: usize,
    /// Rate scale of the fig12/fig13 case-study generators.
    pub scale: f64,
    /// Simulated seconds per case-study phase.
    pub phase_secs: f64,
    /// Ingest runs continue until they hold this many batch samples, so
    /// the tail percentile is the same on every run.
    pub min_batches: usize,
    /// Ingest runs continue until they hold this many read-back passes.
    pub min_readbacks: usize,
    /// Query runs continue until they hold this many passes.
    pub min_passes: usize,
    /// Query set-ups per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Consecutive batches per window: `batch_tail_ms` and
    /// `ingest_rec_per_s` are medians over windows of each window's tail
    /// and rate.
    pub tail_window: usize,
    /// Shift every reference answer, so every checked answer must fail.
    /// Only the benchmark's own tests set it.
    pub perturb: bool,
}

impl Params {
    /// The benchmark's fixed sizes.
    pub fn standard(seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            seed,
            seconds,
            trace,
            ingest_records: 1 << 18,
            scale: 0.02,
            phase_secs: 5.0,
            min_batches: 10_000,
            min_readbacks: 40,
            min_passes: 100,
            setup_reps: 3,
            tail_window: 100,
            perturb: false,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn tiny(seed: u64) -> Params {
        Params {
            seed,
            seconds: 0.0,
            trace: false,
            ingest_records: 20 * BATCH,
            scale: 0.0005,
            phase_secs: 2.0,
            // Enough samples for every tail metric.
            min_batches: 20,
            min_readbacks: 20,
            min_passes: 20,
            setup_reps: 1,
            tail_window: 20,
            perturb: false,
        }
    }
}

/// Histogram over nanosecond latencies spanning 1 µs–1 s (the case
/// studies' layout).
pub fn latency_histogram() -> HistogramSpec {
    HistogramSpec::exponential(1_000.0, 4.0, 10).expect("valid histogram")
}

/// Runs `workload`, returning its report.
pub fn run(workload: &str, p: &Params) -> Option<Report> {
    Some(match workload {
        "ingest_local" => ingest::ingest_local(p),
        "ingest_tcp" => ingest::ingest_tcp(p),
        "query_hot" => query::query(p, false),
        "query_cold" => query::query(p, true),
        _ => return None,
    })
}

/// Samples and counters gathered over one run, by every workload.
#[derive(Debug, Default)]
pub struct RunAcc {
    /// Set-up times.
    pub setup: Samples,
    /// Batch (256 pushes + `sync`, or one TCP batch until its ack)
    /// times of untraced phases.
    pub batch: Samples,
    /// Batch times of traced phases.
    pub batch_traced: Samples,
    /// Untraced ingest phases (rounds, or loads of a query set-up).
    pub phases: u64,
    /// Records synced or acked in those phases.
    pub phase_records: u64,
    /// `(percentile, ms)` batch-time tail of each window of
    /// `Params::tail_window` consecutive untraced batches.
    pub batch_tails: Vec<(f64, f64)>,
    /// Ingest rate (records per second) of each window of
    /// `Params::tail_window` consecutive untraced batches.
    pub window_rates: Vec<f64>,
    /// `Loom::open` times after a simulated crash (one sample per cycle).
    pub recovery: Samples,
    /// Untraced query-pass times.
    pub pass: Samples,
    /// Traced query-pass times.
    pub pass_traced: Samples,
    /// Per-pass time of the value-scan queries.
    pub scan: Samples,
    /// Per-pass time of the aggregate queries.
    pub agg: Samples,
    /// Per-pass time of the raw scans.
    pub raw: Samples,
    /// Allocated data-directory bytes per payload byte.
    pub disk: Vec<f64>,
    /// Individually timed `push` calls, in nanoseconds.
    pub push_ns: Vec<f64>,
    /// Individually timed `sync` calls, in microseconds.
    pub sync_us: Vec<f64>,
    /// Sum of the timed `push` and `sync` calls, and of the wall time of
    /// the batches holding them, in nanoseconds.
    pub timed_calls_ns: f64,
    /// See [`RunAcc::timed_calls_ns`].
    pub timed_batches_ns: f64,
    /// Cost of one clock read, in nanoseconds, when calls were timed.
    pub clock_ns: Option<f64>,
    /// Write-path counters.
    pub write: layers::WritePath,
    /// Recovery counters.
    pub recovery_layer: layers::Recovery,
    /// Engines reopened per crash cycle.
    pub engines: u64,
    /// Network counters.
    pub net: layers::Net,
    /// `(encode, decode)` time of one batch frame, in microseconds.
    pub frame_us: Option<(f64, f64)>,
    /// Read-path counters.
    pub read: layers::ReadPath,
    /// Per-query times, in [`QUERIES`] order.
    pub per_query: [Samples; 9],
    /// Query stats summed over traced passes.
    pub qstats: loom::QueryStats,
    /// Timed `compact()` calls, in seconds.
    pub compact_s: Vec<f64>,
    /// Chunks aged per `compact()` call.
    pub chunks_aged: Vec<f64>,
    /// Cold-tier compression ratio after each `compact()`.
    pub compression: Vec<f64>,
}

impl RunAcc {
    /// Closes an untraced ingest phase of `records` records whose batch
    /// times are `self.batch[first..]` and whose batches completed at
    /// `done` (seconds from the phase start, any order), taking the tail
    /// and the ingest rate of each whole window of `window` batches in it.
    pub fn end_phase(&mut self, first: usize, window: usize, records: u64, done: &mut [f64]) {
        for w in self.batch.0[first..].chunks_exact(window) {
            self.batch_tails.extend(Samples(w.to_vec()).tail_ms());
        }
        done.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for w in done.chunks_exact(window) {
            let end = w[window - 1];
            self.window_rates
                .push((window * BATCH) as f64 / (end - prev));
            prev = end;
        }
        self.phases += 1;
        self.phase_records += records;
    }

    /// Writes the run's metrics and sample facts into `rep`.
    pub fn finish(&self, rep: &mut Report) {
        rep.fact_num("batch_samples", self.batch.len() as f64);
        rep.fact_num("pass_samples", self.pass.len() as f64);
        rep.fact_num("recovery_samples", self.recovery.len() as f64);
        rep.fact_num("setup_samples", self.setup.len() as f64);
        rep.set("setup_s", self.setup.median_ms() / 1e3);
        rep.fact_num("ingest_phases", self.phases as f64);
        rep.fact_num("rate_windows", self.window_rates.len() as f64);
        rep.set("ingest_rec_per_s", median(&self.window_rates));
        rep.set("batch_p50_ms", self.batch.median_ms());
        if !self.batch_tails.is_empty() {
            let (percentiles, tails): (Vec<f64>, Vec<f64>) =
                self.batch_tails.iter().copied().unzip();
            rep.fact_num("batch_tail_percentile", median(&percentiles));
            rep.fact_num("batch_tail_windows", tails.len() as f64);
            rep.set("batch_tail_ms", median(&tails));
        }
        rep.set("recovery_s", self.recovery.median_ms() / 1e3);
        rep.set("pass_p50_ms", self.pass.median_ms());
        if let Some((p, v)) = self.pass.tail_ms() {
            rep.fact_num("pass_tail_percentile", p);
            rep.set("pass_tail_ms", v);
        }
        rep.set("scan_p50_ms", self.scan.median_ms());
        rep.set("agg_p50_ms", self.agg.median_ms());
        rep.set("raw_p50_ms", self.raw.median_ms());
        rep.set("disk_bytes_per_user_byte", median(&self.disk));
        rep.set("peak_rss_mb", host::peak_rss_mb());
        self.finish_layers(rep);
    }

    fn finish_layers(&self, rep: &mut Report) {
        if !self.push_ns.is_empty() {
            rep.set("engine.push_ns_mean", stats::mean(&self.push_ns));
            rep.set(
                "engine.push_ns_p99",
                stats::percentile(&mut self.push_ns.clone(), 99.0),
            );
            rep.set("engine.sync_us_p50", median(&self.sync_us));
            rep.set(
                "engine.sync_us_p99",
                stats::percentile(&mut self.sync_us.clone(), 99.0),
            );
            rep.set(
                "engine.timed_share",
                self.timed_calls_ns / self.timed_batches_ns,
            );
        }
        if let Some(ns) = self.clock_ns {
            rep.set("trace.clock_ns", ns);
        }
        self.write.report(rep);
        self.recovery_layer.report(rep, self.engines);
        self.net.report(rep);
        if let Some((enc, dec)) = self.frame_us {
            rep.set("net.frame_encode_us", enc);
            rep.set("net.frame_decode_us", dec);
        }
        self.read.report(rep);
        for (q, samples) in QUERIES.iter().zip(&self.per_query) {
            if !samples.is_empty() {
                rep.set(&format!("query.{q}_ms"), samples.median_ms());
            }
        }
        let passes = self.read.passes.max(1) as f64;
        let s = &self.qstats;
        if self.read.passes > 0 {
            rep.set(
                "query.summaries_scanned",
                s.summaries_scanned as f64 / passes,
            );
            rep.set("query.chunks_scanned", s.chunks_scanned as f64 / passes);
            rep.set("query.bytes_read", s.bytes_read as f64 / passes);
            let scanned = s.records_scanned.max(1) as f64;
            rep.set("query.match_ratio", s.records_matched as f64 / scanned);
            rep.set("query.columnar_row_share", s.columnar_rows as f64 / scanned);
        }
        if !self.pass_traced.is_empty() {
            rep.set("query.wall_ms", self.pass_traced.median_ms());
        }
        if !self.compact_s.is_empty() {
            rep.set("retention.compact_s", median(&self.compact_s));
            rep.set("retention.chunks_aged", median(&self.chunks_aged));
            rep.set("retention.compression_ratio", median(&self.compression));
        }
        let overhead = |traced: &Samples, plain: &Samples| {
            (!traced.is_empty() && !plain.is_empty())
                .then(|| (traced.median_ms() / plain.median_ms() - 1.0) * 100.0)
        };
        if let Some(o) = overhead(&self.batch_traced, &self.batch)
            .or_else(|| overhead(&self.pass_traced, &self.pass))
        {
            rep.set("trace.overhead_pct", o);
        }
    }
}
