//! Per-layer accounting from `metrics_snapshot()` deltas.

use loom::MetricsSnapshot;

use crate::report::Report;

/// Nearest-rank percentile of a latency histogram, reported as the upper
/// bound of the bucket holding it (nanoseconds); 0 when empty.
fn histogram_percentile(bounds: &[f64], counts: &[u64], p: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = crate::stats::nearest_rank(p, total as usize) as u64;
    let mut cumulative = 0;
    for (i, c) in counts.iter().enumerate() {
        cumulative += c;
        if cumulative >= rank {
            return bounds.get(i).or(bounds.last()).copied().unwrap_or(0.0);
        }
    }
    bounds.last().copied().unwrap_or(0.0)
}

/// Write-path (`hybridlog` and `coordinator`) counters summed over the
/// ingest phases of a run.
#[derive(Debug, Default)]
pub struct WritePath {
    /// Ingest phases (rounds or loads) folded in.
    pub phases: u64,
    /// Batches (256 pushes + `sync`) in those phases.
    pub batches: u64,
    /// Payload bytes pushed in those phases.
    pub payload_bytes: u64,
    flushes: u64,
    flush_nanos: u64,
    flushed_bytes: u64,
    backpressure_waits: u64,
    seqlock_retries: u64,
    flush_bounds: Vec<f64>,
    flush_counts: Vec<u64>,
    chunks_sealed: u64,
    summary_build_nanos: u64,
    ingest_drops: u64,
}

impl WritePath {
    /// Folds in one ingest phase bracketed by `before` and `after`.
    pub fn add(
        &mut self,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        batches: u64,
        payload_bytes: u64,
    ) {
        let (h0, h1) = (&before.hybridlog, &after.hybridlog);
        let (c0, c1) = (&before.coordinator, &after.coordinator);
        self.phases += 1;
        self.batches += batches;
        self.payload_bytes += payload_bytes;
        self.flushes += h1.flushes - h0.flushes;
        self.flush_nanos += h1.flush_nanos - h0.flush_nanos;
        self.flushed_bytes += h1.flushed_bytes - h0.flushed_bytes;
        self.backpressure_waits += h1.backpressure_waits - h0.backpressure_waits;
        self.seqlock_retries += h1.seqlock_retries - h0.seqlock_retries;
        self.chunks_sealed += c1.chunks_sealed - c0.chunks_sealed;
        self.summary_build_nanos += c1.summary_build_nanos - c0.summary_build_nanos;
        self.ingest_drops += c1.ingest_drops - c0.ingest_drops;
        let (a, b) = (&h0.flush_latency, &h1.flush_latency);
        if self.flush_counts.len() != b.counts.len() {
            self.flush_bounds = b.bounds.clone();
            self.flush_counts = vec![0; b.counts.len()];
        }
        for (i, total) in self.flush_counts.iter_mut().enumerate() {
            *total += b.counts[i] - a.counts.get(i).copied().unwrap_or(0);
        }
    }

    /// Sets the `hybridlog.*` and `coordinator.*` metrics: per batch,
    /// per phase, or per chunk as each name says.
    pub fn report(&self, r: &mut Report) {
        if self.phases == 0 {
            return;
        }
        let per_batch = |v: u64| v as f64 / self.batches.max(1) as f64;
        let per_phase = |v: u64| v as f64 / self.phases as f64;
        r.set("hybridlog.flushes_per_batch", per_batch(self.flushes));
        r.set(
            "hybridlog.flush_us_per_batch",
            per_batch(self.flush_nanos) / 1e3,
        );
        let (b, c) = (&self.flush_bounds, &self.flush_counts);
        r.set(
            "hybridlog.flush_p50_us",
            histogram_percentile(b, c, 50.0) / 1e3,
        );
        r.set(
            "hybridlog.flush_p99_us",
            histogram_percentile(b, c, 99.0) / 1e3,
        );
        r.set(
            "hybridlog.write_amp",
            self.flushed_bytes as f64 / self.payload_bytes.max(1) as f64,
        );
        r.set(
            "hybridlog.backpressure_waits",
            per_phase(self.backpressure_waits),
        );
        r.set("hybridlog.seqlock_retries", per_phase(self.seqlock_retries));
        r.set("coordinator.chunks_sealed", per_phase(self.chunks_sealed));
        r.set(
            "coordinator.summary_build_us_per_chunk",
            self.summary_build_nanos as f64 / 1e3 / self.chunks_sealed.max(1) as f64,
        );
        r.set("coordinator.ingest_drops", per_phase(self.ingest_drops));
    }
}

/// Recovery counters of freshly reopened engines.
#[derive(Debug, Default)]
pub struct Recovery {
    opens: u64,
    recovery_nanos: u64,
    truncated_bytes: u64,
}

impl Recovery {
    /// Folds in the snapshot of an engine just reopened after a crash.
    pub fn add(&mut self, reopened: &MetricsSnapshot) {
        self.opens += 1;
        self.recovery_nanos += reopened.coordinator.recovery_nanos;
        self.truncated_bytes += reopened.coordinator.recovery_truncated_bytes;
    }

    /// Sets `durability.*`, per reopen cycle of `engines` engines.
    pub fn report(&self, r: &mut Report, engines: u64) {
        let cycles = (self.opens / engines.max(1)).max(1) as f64;
        r.set(
            "durability.recovery_ms",
            self.recovery_nanos as f64 / 1e6 / cycles,
        );
        r.set(
            "durability.truncated_bytes",
            self.truncated_bytes as f64 / cycles,
        );
    }
}

/// Network counters summed over the timed phases of a run.
#[derive(Debug, Default)]
pub struct Net {
    rounds: u64,
    frames_read: u64,
    acks: u64,
    nacks: u64,
    replays: u64,
    disconnects: u64,
}

impl Net {
    /// Folds in one timed phase bracketed by `before` and `after`.
    pub fn add(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        let (a, b) = (&before.net, &after.net);
        self.rounds += 1;
        self.frames_read += b.frames_read - a.frames_read;
        self.acks += b.acks - a.acks;
        self.nacks += b.nacks - a.nacks;
        self.replays += b.replays - a.replays;
        self.disconnects += b.disconnects - a.disconnects;
    }

    /// Sets the `net.*` counters, per round.
    pub fn report(&self, r: &mut Report) {
        if self.rounds == 0 {
            return;
        }
        let per = |v: u64| v as f64 / self.rounds as f64;
        r.set("net.frames_read", per(self.frames_read));
        r.set("net.acks", per(self.acks));
        r.set("net.nacks", per(self.nacks));
        r.set("net.replays", per(self.replays));
        r.set("net.disconnects", per(self.disconnects));
    }
}

/// Read-path (`index`, `query`, `retention`) counters summed over passes.
#[derive(Debug, Default)]
pub struct ReadPath {
    /// Query passes folded in.
    pub passes: u64,
    queries: u64,
    query_nanos: u64,
    ts_seeks: u64,
    summary_probes: u64,
    chunk_hits: u64,
    false_positive_chunks: u64,
    cold_chunk_reads: u64,
}

impl ReadPath {
    /// Folds in one pass bracketed by `before` and `after`.
    pub fn add(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        let (i0, i1) = (&before.index, &after.index);
        self.passes += 1;
        self.queries += after.query.queries - before.query.queries;
        self.query_nanos += after.query.query_nanos - before.query.query_nanos;
        self.ts_seeks += i1.ts_seeks - i0.ts_seeks;
        self.summary_probes += i1.summary_probes - i0.summary_probes;
        self.chunk_hits += i1.chunk_hits - i0.chunk_hits;
        self.false_positive_chunks += i1.false_positive_chunks - i0.false_positive_chunks;
        self.cold_chunk_reads +=
            after.coordinator.tier_cold_chunk_reads - before.coordinator.tier_cold_chunk_reads;
    }

    /// Sets the snapshot-derived `index.*`, `query.engine_ms` and
    /// `retention.cold_chunk_reads_per_pass` metrics.
    pub fn report(&self, r: &mut Report) {
        if self.passes == 0 {
            return;
        }
        let per_pass = |v: u64| v as f64 / self.passes as f64;
        let per_query = |v: u64| v as f64 / self.queries.max(1) as f64;
        r.set("index.ts_seeks", per_pass(self.ts_seeks));
        r.set(
            "index.summary_probes_per_query",
            per_query(self.summary_probes),
        );
        r.set("index.chunk_hits_per_query", per_query(self.chunk_hits));
        r.set(
            "index.false_positive_ratio",
            self.false_positive_chunks as f64 / self.chunk_hits.max(1) as f64,
        );
        r.set("query.engine_ms", per_pass(self.query_nanos) / 1e6);
        r.set(
            "retention.cold_chunk_reads_per_pass",
            per_pass(self.cold_chunk_reads),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentile_reports_bucket_upper_bound() {
        let bounds = [1_000.0, 4_000.0, 16_000.0];
        let counts = [0, 90, 9, 1];
        assert_eq!(histogram_percentile(&bounds, &counts, 50.0), 4_000.0);
        assert_eq!(histogram_percentile(&bounds, &counts, 99.0), 16_000.0);
        assert_eq!(histogram_percentile(&bounds, &counts, 100.0), 16_000.0);
        assert_eq!(histogram_percentile(&bounds, &[0, 0, 0, 0], 50.0), 0.0);
    }
}
