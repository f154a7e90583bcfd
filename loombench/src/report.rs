//! Metric catalog, pass/fail accounting, and the result lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload of a plain run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_rec_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_tail_ms", "ms"),
    ("recovery_s", "s"),
    ("pass_p50_ms", "ms"),
    ("pass_tail_ms", "ms"),
    ("scan_p50_ms", "ms"),
    ("agg_p50_ms", "ms"),
    ("raw_p50_ms", "ms"),
    ("disk_bytes_per_user_byte", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The nine case-study queries, in the order one pass runs them.
pub const QUERIES: [&str; 9] = [
    "slow_requests",
    "slow_sendto",
    "max_request",
    "packet_dump",
    "app_max",
    "app_p9999",
    "pread_max",
    "pread_p9999",
    "pagecache_count",
];

/// Per-layer metrics, reported by every workload of a traced run; a
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.push_ns_mean", "ns"),
    ("engine.push_ns_p99", "ns"),
    ("engine.sync_us_p50", "us"),
    ("engine.sync_us_p99", "us"),
    ("engine.timed_share", "ratio"),
    ("hybridlog.flushes_per_batch", "count/batch"),
    ("hybridlog.flush_us_per_batch", "us/batch"),
    ("hybridlog.flush_p50_us", "us"),
    ("hybridlog.flush_p99_us", "us"),
    ("hybridlog.write_amp", "ratio"),
    ("hybridlog.backpressure_waits", "count"),
    ("hybridlog.seqlock_retries", "count"),
    ("coordinator.chunks_sealed", "count"),
    ("coordinator.summary_build_us_per_chunk", "us"),
    ("coordinator.ingest_drops", "count"),
    ("net.frame_encode_us", "us"),
    ("net.frame_decode_us", "us"),
    ("net.frames_read", "count"),
    ("net.acks", "count"),
    ("net.nacks", "count"),
    ("net.replays", "count"),
    ("net.disconnects", "count"),
    ("durability.recovery_ms", "ms"),
    ("durability.truncated_bytes", "bytes"),
    ("index.ts_seeks", "count"),
    ("index.summary_probes_per_query", "count"),
    ("index.chunk_hits_per_query", "count"),
    ("index.false_positive_ratio", "ratio"),
    ("query.slow_requests_ms", "ms"),
    ("query.slow_sendto_ms", "ms"),
    ("query.max_request_ms", "ms"),
    ("query.packet_dump_ms", "ms"),
    ("query.app_max_ms", "ms"),
    ("query.app_p9999_ms", "ms"),
    ("query.pread_max_ms", "ms"),
    ("query.pread_p9999_ms", "ms"),
    ("query.pagecache_count_ms", "ms"),
    ("query.summaries_scanned", "count"),
    ("query.chunks_scanned", "count"),
    ("query.bytes_read", "bytes"),
    ("query.match_ratio", "ratio"),
    ("query.columnar_row_share", "ratio"),
    ("query.engine_ms", "ms"),
    ("query.wall_ms", "ms"),
    ("retention.compact_s", "s"),
    ("retention.chunks_aged", "count"),
    ("retention.compression_ratio", "ratio"),
    ("retention.cold_chunk_reads_per_pass", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.clock_ns", "ns"),
];

/// Attempted and failed operations. An `Err`, a NACK, or a result that
/// fails its check counts as one failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation that passed when `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Counts one fallible operation, returning its value on success.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 10 {
            self.messages.push(msg);
        }
    }
}

/// One run's outcome: pass/fail counts, metrics, and run facts.
#[derive(Debug, Default)]
pub struct Report {
    /// Operation accounting.
    pub tally: Tally,
    metrics: BTreeMap<&'static str, f64>,
    facts: BTreeMap<String, String>,
}

/// Appends `s` to `out` as a JSON string literal.
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite number as JSON (`null` otherwise).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Report {
    /// Sets metric `name`, which must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.metrics.insert(name, value);
    }

    /// Records a string fact about the run.
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        let mut s = String::new();
        json_str(&mut s, &value.to_string());
        self.facts.insert(key.to_string(), s);
    }

    /// Records a numeric fact about the run.
    pub fn fact_num(&mut self, key: &str, value: f64) {
        self.facts.insert(key.to_string(), json_num(value));
    }

    /// The facts line: `{"facts": {...}}`.
    pub fn facts_line(&self) -> String {
        let mut out = String::from("{\"facts\": {");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_str(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str("}}");
        out
    }

    /// The result line with the catalog's metrics for the run mode: the
    /// end-to-end set for a plain run, the per-layer set for a traced
    /// one. A per-layer metric the workload does not exercise reads 0; a
    /// missing or non-finite end-to-end metric fails the run.
    pub fn result_line(&mut self, trace: bool) -> String {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        let mut body = String::new();
        let mut missing = Vec::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let v = self
                .metrics
                .get(name)
                .copied()
                .unwrap_or(if trace { 0.0 } else { f64::NAN });
            let v = if v.is_finite() {
                v
            } else {
                missing.push(*name);
                0.0
            };
            if i > 0 {
                body.push_str(", ");
            }
            json_str(&mut body, name);
            let _ = write!(body, ": {{\"value\": {}, \"unit\": ", json_num(v));
            json_str(&mut body, unit);
            body.push('}');
        }
        for name in missing {
            self.tally.attempted += 1;
            self.tally.fail(format!("metric {name} was not measured"));
        }
        let correct = self.tally.failed == 0 && self.tally.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.tally.check(true, String::new);
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert_eq!(r.tally.failed as usize, END_TO_END.len());
    }

    #[test]
    fn traced_run_fills_unexercised_layers_with_zero() {
        let mut r = Report::default();
        r.tally.check(true, String::new);
        r.set("net.acks", 7.0);
        let line = r.result_line(true);
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        assert!(line.contains("\"net.acks\": {\"value\": 7, \"unit\": \"count\"}"));
        assert!(line.contains("\"net.nacks\": {\"value\": 0,"));
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
        for q in QUERIES {
            assert!(seen.contains(format!("query.{q}_ms").as_str()));
        }
    }
}
