//! Chunk-parallel query execution (the worker pool behind §4.3's
//! operators).
//!
//! The planner selects a query's candidate chunks up front; sealed chunks
//! are immutable and every worker reads them through the same point-in-time
//! [`QueryView`](super::view::QueryView) snapshots, so chunk scans are
//! embarrassingly parallel. This module fans those scans out over a pool
//! of scoped threads and hands the per-chunk results back to the caller
//! **in submission order**, which is log order — callers deliver records
//! and merge partial aggregates exactly as the serial path would, so query
//! output is bit-identical for every pool size.
//!
//! Mechanics:
//! - workers pull chunk indexes from a shared atomic counter (work
//!   stealing, no per-chunk queue allocation);
//! - each worker owns one reusable chunk buffer and produces private
//!   per-chunk outputs (scan counters, record batches, partial
//!   aggregates) — no shared mutable state, no locks on the hot path;
//! - outputs are tagged with their chunk index and re-assembled into
//!   submission order after the pool joins;
//! - a worker panic propagates to the caller; errors surface as the
//!   failing task with the smallest chunk index, so error reporting is
//!   deterministic too.
//!
//! Callers keep `pool size == 1` on the plain serial code path (no
//! spawning, no batching) — this module is only entered for 2+ workers.

use crate::sync::atomic::{AtomicUsize, Ordering};

use super::columnar::{BufferPool, ScanBuffers};
use crate::error::Result;

/// Runs `task(worker_bufs, chunk_addr)` for every chunk address across
/// `workers` scoped threads and returns the outputs in input order.
///
/// `task` must be safe to call concurrently from multiple threads
/// (`Sync`); the [`ScanBuffers`] it receives is the calling worker's
/// private scan scratch, checked out of `pool` for the pool's lifetime
/// and recycled afterwards so buffer capacity survives across queries.
pub(crate) fn map_chunks<T, F>(
    pool: &BufferPool,
    workers: usize,
    chunks: &[u64],
    task: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&mut ScanBuffers, u64) -> Result<T> + Sync,
{
    debug_assert!(
        workers >= 2,
        "serial execution must stay on the caller's direct path"
    );
    let next = AtomicUsize::new(0);
    let worker_outputs: Vec<Vec<(usize, Result<T>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(chunks.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut bufs = pool.acquire();
                    let mut local: Vec<(usize, Result<T>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= chunks.len() {
                            break;
                        }
                        let result = task(&mut bufs, chunks[i]);
                        let failed = result.is_err();
                        local.push((i, result));
                        if failed {
                            // Other workers keep draining; the merge step
                            // below picks the lowest failing index.
                            break;
                        }
                    }
                    pool.release(bufs);
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outputs) => outputs,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    let mut slots: Vec<Option<T>> = Vec::with_capacity(chunks.len());
    slots.resize_with(chunks.len(), || None);
    let mut first_err: Option<(usize, crate::error::LoomError)> = None;
    for (i, result) in worker_outputs.into_iter().flatten() {
        match result {
            Ok(value) => slots[i] = Some(value),
            Err(e) => {
                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every chunk index is claimed exactly once"))
        .collect())
}

/// A batch of matching records collected by one worker from one chunk,
/// ready for in-order delivery to the user callback.
///
/// Payload bytes are appended to a single arena per batch instead of one
/// allocation per record.
#[derive(Default)]
pub(crate) struct RecordBatch {
    /// `(addr, ts, payload_len)` per matching record, in chunk order.
    recs: Vec<(u64, u64, u32)>,
    /// Concatenated payloads, in the same order.
    bytes: Vec<u8>,
}

impl RecordBatch {
    /// Appends a matching record to the batch.
    pub fn push(&mut self, addr: u64, ts: u64, payload: &[u8]) {
        self.recs.push((addr, ts, payload.len() as u32));
        self.bytes.extend_from_slice(payload);
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Removes all records, keeping the allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.recs.clear();
        self.bytes.clear();
    }

    /// Invokes `f(addr, ts, payload)` for every record in batch order.
    pub fn for_each<F>(&self, mut f: F)
    where
        F: FnMut(u64, u64, &[u8]),
    {
        let mut offset = 0usize;
        for &(addr, ts, len) in &self.recs {
            let payload = &self.bytes[offset..offset + len as usize];
            offset += len as usize;
            f(addr, ts, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LoomError;

    #[test]
    fn map_chunks_preserves_input_order() {
        let pool = BufferPool::default();
        let chunks: Vec<u64> = (0..257).collect();
        let out = map_chunks(&pool, 4, &chunks, |_bufs, addr| Ok(addr * 3)).unwrap();
        assert_eq!(out.len(), chunks.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn map_chunks_reports_the_lowest_failing_chunk() {
        let pool = BufferPool::default();
        let chunks: Vec<u64> = (0..64).collect();
        let err = map_chunks(&pool, 4, &chunks, |_bufs, addr| {
            if addr >= 10 {
                Err(LoomError::InvalidQuery(format!("chunk {addr}")))
            } else {
                Ok(addr)
            }
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("chunk 10"),
            "expected deterministic lowest-index error, got: {err}"
        );
    }

    #[test]
    fn worker_buffers_are_private_and_reused() {
        // Each task writes a marker and checks it never sees another
        // chunk's marker mid-write (buffers are per-worker, not shared).
        let pool = BufferPool::default();
        let chunks: Vec<u64> = (0..128).collect();
        let out = map_chunks(&pool, 3, &chunks, |bufs, addr| {
            bufs.chunk.bytes.clear();
            bufs.chunk.bytes.extend_from_slice(&addr.to_le_bytes());
            crate::sync::thread::yield_now();
            let read = u64::from_le_bytes(bufs.chunk.bytes[..8].try_into().unwrap());
            Ok(read == addr)
        })
        .unwrap();
        assert!(out.into_iter().all(|ok| ok));
    }

    #[test]
    fn record_batch_round_trips() {
        let mut b = RecordBatch::default();
        b.push(0, 100, b"abc");
        b.push(64, 200, b"");
        b.push(128, 300, b"xyzzy");
        assert_eq!(b.len(), 3);
        let mut seen = Vec::new();
        b.for_each(|addr, ts, payload| seen.push((addr, ts, payload.to_vec())));
        assert_eq!(
            seen,
            vec![
                (0, 100, b"abc".to_vec()),
                (64, 200, Vec::new()),
                (128, 300, b"xyzzy".to_vec()),
            ]
        );
    }
}
