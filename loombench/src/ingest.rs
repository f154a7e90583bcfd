//! The ingest workloads.
//!
//! `ingest_local` pushes seeded 48 B latency records in-process, round
//! robin over four sources, with a `sync` after every 256-record batch.
//! `ingest_tcp` sends the same records from one closed-loop
//! `IngestClient` to an in-process `NetServer`, to one source. Both run
//! in rounds: a fresh engine per round, a fixed record count,
//! `sync_durable`, then simulated-crash → reopen cycles, each followed by
//! a read-back pass that checks every record.

use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use daemon::net::{NetOptions, NetServer, WriterSlot};
use loom::net::{read_frame, write_frame, BatchOutcome, ClientConfig, IngestClient, Message};
use loom::{Aggregate, Config, ExtractorDesc, Loom, LoomWriter, SourceId, TimeRange, ValueRange};
use rand::{Rng as _, SeedableRng as _};
use telemetry::records::{LatencyRecord, LATENCY_NS_OFFSET};

use crate::host::{allocated_bytes, on_engine_cpu, DataDir};
use crate::report::{Report, Tally};
use crate::stats::{percentile, Samples};
use crate::{latency_histogram, Params, RunAcc, BATCH, HARD_STOP};

/// Size of one ingest record.
const RECORD: usize = telemetry::records::LATENCY_RECORD_SIZE;

/// One ingest record.
type Rec = [u8; RECORD];

const LOCAL_SOURCES: usize = 4;

/// Simulated-crash → reopen cycles per round.
const CRASH_CYCLES: usize = 2;

/// Engine set-ups per `ingest_local` round; the round keeps the last.
const LOCAL_SETUP_REPS: usize = 4;

/// Every timestamp: the read-back pass covers whole sources.
const ALL_TIME: TimeRange = TimeRange {
    start: 0,
    end: u64::MAX,
};

/// Generates `n` seeded latency records (log-normal latencies, median
/// 200 µs).
fn gen_records(seed: u64, n: usize) -> Vec<Rec> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let latency = telemetry::dist::LogNormal::from_median(200_000.0, 0.5);
    (0..n)
        .map(|i| {
            LatencyRecord {
                ts: i as u64 * 1_000,
                latency_ns: latency.sample(&mut rng) as u64,
                op: (i % LOCAL_SOURCES) as u32,
                pid: 1000,
                key_hash: rng.random(),
                seq: i as u64,
                flags: 0,
                cpu: rng.random_range(0..16),
            }
            .encode()
        })
        .collect()
}

fn latency_of(rec: &[u8]) -> f64 {
    let b: [u8; 8] = rec[LATENCY_NS_OFFSET..LATENCY_NS_OFFSET + 8]
        .try_into()
        .expect("8-byte field");
    u64::from_le_bytes(b) as f64
}

/// What one source must hold, and the answers its read-back queries
/// must return.
struct Expected {
    name: String,
    /// Indices into the input, in push order.
    rows: Vec<usize>,
    max: Option<f64>,
    threshold: f64,
    count_ge: u64,
}

impl Expected {
    /// The reference for source `name` holding `rows` of `input`.
    fn new(name: &str, rows: Vec<usize>, input: &[Rec], perturb: bool) -> Expected {
        let mut values: Vec<f64> = rows.iter().map(|&i| latency_of(&input[i])).collect();
        let max = values.iter().copied().reduce(f64::max);
        // The p99 (about 640 µs) sits mid-bin for every seed, so the scan
        // reads the same chunks whatever the seed.
        let threshold = percentile(&mut values, 99.0);
        let count_ge = values.iter().filter(|&&v| v >= threshold).count() as u64;
        let shift = if perturb { 1.0 } else { 0.0 };
        Expected {
            name: name.to_string(),
            rows,
            max: max.map(|m| m + shift),
            threshold,
            count_ge: count_ge + shift as u64,
        }
    }
}

/// Opens a fresh engine with one latency-indexed source per name.
fn open_engine(
    config: &Config,
    names: &[String],
) -> loom::Result<(Loom, LoomWriter, Vec<SourceId>)> {
    let (loom, writer) = on_engine_cpu(|| Loom::open(config.clone()))?;
    let mut ids = Vec::with_capacity(names.len());
    for name in names {
        let source = loom.define_source(name);
        loom.define_index_desc(source, ExtractorDesc::U64Le(8), latency_histogram())?;
        ids.push(source);
    }
    Ok((loom, writer, ids))
}

/// One read-back pass: per source a value scan above the source's p99,
/// a `Max` aggregate, and a raw scan that must return exactly the
/// expected records, newest first.
fn readback(
    loom: &Loom,
    expected: &[Expected],
    input: &[Rec],
    acc: &mut RunAcc,
    tally: &mut Tally,
) {
    let (mut scan, mut agg, mut raw) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let pass = Instant::now();
    let sources = loom.sources();
    for exp in expected {
        let Some(source) = sources.iter().find(|(_, n, _)| *n == exp.name).map(|s| s.0) else {
            tally.check(false, || {
                format!("source {} missing after reopen", exp.name)
            });
            continue;
        };
        let Some(&index) = loom.indexes_of(source).first() else {
            tally.check(false, || {
                format!("index of {} missing after reopen", exp.name)
            });
            continue;
        };
        let t = Instant::now();
        let mut n = 0u64;
        let r = loom
            .query(source)
            .index(index)
            .range(ALL_TIME)
            .value_range(ValueRange::at_least(exp.threshold))
            .scan(|_| n += 1);
        scan += t.elapsed();
        if tally.op("value scan", r).is_some() {
            tally.check(n == exp.count_ge, || {
                format!(
                    "{}: value scan matched {n}, expected {}",
                    exp.name, exp.count_ge
                )
            });
        }
        let t = Instant::now();
        let r = loom
            .query(source)
            .index(index)
            .range(ALL_TIME)
            .aggregate(Aggregate::Max);
        agg += t.elapsed();
        if let Some(r) = tally.op("max aggregate", r) {
            tally.check(r.value == exp.max, || {
                format!("{}: max {:?}, expected {:?}", exp.name, r.value, exp.max)
            });
        }
        let t = Instant::now();
        let mut pos = exp.rows.len();
        let mut same = true;
        let r = loom.raw_scan(source, ALL_TIME, |rec| {
            if pos > 0 && rec.payload == input[exp.rows[pos - 1]] {
                pos -= 1;
            } else {
                same = false;
            }
        });
        raw += t.elapsed();
        if tally.op("raw scan", r).is_some() {
            tally.check(same && pos == 0, || {
                format!(
                    "{}: raw scan differs from the {} synced records",
                    exp.name,
                    exp.rows.len()
                )
            });
        }
    }
    acc.pass.push(pass.elapsed());
    acc.scan.push(scan);
    acc.agg.push(agg);
    acc.raw.push(raw);
}

/// Simulated crash → reopen, [`CRASH_CYCLES`] times, each followed by a
/// read-back pass.
#[allow(clippy::too_many_arguments)]
fn crash_cycles(
    config: &Config,
    mut loom: Loom,
    mut writer: LoomWriter,
    expected: &[Expected],
    input: &[Rec],
    traced: bool,
    acc: &mut RunAcc,
    tally: &mut Tally,
) {
    acc.engines = 1;
    for _ in 0..CRASH_CYCLES {
        drop(loom);
        writer.simulate_crash();
        let (opened, took) = on_engine_cpu(|| {
            let t = Instant::now();
            (Loom::open(config.clone()), t.elapsed())
        });
        let Some((l, w)) = tally.op("reopen after crash", opened) else {
            return;
        };
        acc.recovery.push(took);
        if traced {
            acc.recovery_layer.add(&l.metrics_snapshot());
            let before = l.metrics_snapshot();
            readback(&l, expected, input, acc, tally);
            acc.read.add(&before, &l.metrics_snapshot());
        } else {
            readback(&l, expected, input, acc, tally);
        }
        (loom, writer) = (l, w);
    }
    drop(loom);
    writer.simulate_crash();
}

/// Adds rounds until the run has lasted `p.seconds` and holds
/// `p.min_batches` batch samples and `p.min_readbacks` read-back passes,
/// so the tail percentiles are the same on every run. In a traced run
/// every other round is traced, so the untraced rounds measure the
/// tracing overhead.
fn rounds(p: &Params, mut round: impl FnMut(bool, &mut RunAcc, &mut Tally)) -> Report {
    let mut rep = Report::default();
    let mut acc = RunAcc::default();
    let start = Instant::now();
    for i in 0.. {
        let enough = start.elapsed().as_secs_f64() >= p.seconds
            && acc.batch.len() + acc.batch_traced.len() >= p.min_batches
            && acc.pass.len() >= p.min_readbacks;
        if i > 0 && (enough || start.elapsed() >= HARD_STOP) {
            break;
        }
        round(p.trace && i % 2 == 1, &mut acc, &mut rep.tally);
    }
    acc.finish(&mut rep);
    rep
}

/// The `ingest_local` workload.
pub fn ingest_local(p: &Params) -> Report {
    let input = gen_records(p.seed, p.ingest_records);
    let names: Vec<String> = (0..LOCAL_SOURCES).map(|s| format!("local{s}")).collect();
    let expected: Vec<Expected> = (0..LOCAL_SOURCES)
        .map(|s| {
            let rows = (s..input.len()).step_by(LOCAL_SOURCES).collect();
            Expected::new(&names[s], rows, &input, p.perturb)
        })
        .collect();
    let payload = (input.len() * RECORD) as u64;
    rounds(p, |traced, acc, tally| {
        // Set up LOCAL_SETUP_REPS times and keep the last engine: one
        // open-and-define takes milliseconds, so a few samples per round
        // steady `setup_s`.
        let mut engine = None;
        for _ in 0..LOCAL_SETUP_REPS {
            if let Some((_, loom, writer, _)) = engine.take() {
                drop(loom);
                LoomWriter::simulate_crash(writer);
            }
            let Some(dir) = tally.op("create data dir", DataDir::new("ingest_local")) else {
                return;
            };
            let config = Config::new(dir.path());
            let t = Instant::now();
            let Some((loom, writer, ids)) = tally.op("open", open_engine(&config, &names)) else {
                return;
            };
            acc.setup.push(t.elapsed());
            engine = Some((dir, loom, writer, ids));
        }
        let Some((dir, loom, mut writer, ids)) = engine else {
            return;
        };
        let config = Config::new(dir.path());
        let before = loom.metrics_snapshot();
        let mut stamps = Vec::with_capacity(BATCH + 2);
        if traced {
            acc.push_ns.reserve(input.len());
            acc.sync_us.reserve(input.len() / BATCH + 1);
            acc.clock_ns.get_or_insert_with(clock_read_ns);
        }
        let first_batch = acc.batch.len();
        let mut done = Vec::with_capacity(input.len().div_ceil(BATCH));
        let phase = Instant::now();
        for (b, batch) in input.chunks(BATCH).enumerate() {
            let mut err = None;
            let t0 = Instant::now();
            if traced {
                // One clock read at each call boundary, so the intervals
                // tile the batch; each holds its call plus one clock read
                // (`trace.clock_ns`).
                stamps.clear();
                stamps.push(t0);
                for (j, rec) in batch.iter().enumerate() {
                    let r = writer.push(ids[(b * BATCH + j) % LOCAL_SOURCES], rec);
                    stamps.push(Instant::now());
                    if let Err(e) = r {
                        err.get_or_insert(e);
                    }
                }
                let r = writer.sync();
                stamps.push(Instant::now());
                err = err.or(r.err());
                let wall = t0.elapsed();
                let ns = |w: &[Instant]| (w[1] - w[0]).as_nanos() as f64;
                acc.push_ns
                    .extend(stamps[..=batch.len()].windows(2).map(ns));
                acc.sync_us.push(ns(&stamps[batch.len()..]) / 1e3);
                acc.timed_calls_ns += ns(&[stamps[0], stamps[batch.len() + 1]]);
                acc.timed_batches_ns += wall.as_nanos() as f64;
                acc.batch_traced.push(wall);
            } else {
                for (j, rec) in batch.iter().enumerate() {
                    let r = writer.push(ids[(b * BATCH + j) % LOCAL_SOURCES], rec);
                    err = err.or(r.err());
                }
                err = err.or(writer.sync().err());
                acc.batch.push(t0.elapsed());
                done.push(phase.elapsed().as_secs_f64());
            }
            tally.op("batch push+sync", err.map_or(Ok(()), Err));
        }
        if traced {
            let batches = input.len().div_ceil(BATCH) as u64;
            acc.write
                .add(&before, &loom.metrics_snapshot(), batches, payload);
        } else {
            acc.end_phase(first_batch, p.tail_window, input.len() as u64, &mut done);
        }
        tally.op("sync_durable", writer.sync_durable());
        acc.disk
            .push(allocated_bytes(dir.path()) as f64 / payload as f64);
        crash_cycles(&config, loom, writer, &expected, &input, traced, acc, tally);
    })
}

/// Median cost of one `Instant::now()`, in nanoseconds.
fn clock_read_ns() -> f64 {
    let per_round: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..10_000 {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / 10_000.0
        })
        .collect();
    crate::stats::median(&per_round)
}

/// The client's view of a timed TCP phase.
#[derive(Default)]
struct ClientRun {
    latency: Samples,
    /// Batch indices the server acked.
    acked: Vec<usize>,
    /// Seconds from the phase start to each ack.
    done: Vec<f64>,
}

/// Sends `input` in 256-record batches, each only after the previous ack.
fn client_loop(
    client: &mut IngestClient,
    source: u32,
    input: &[Rec],
    tally: &mut Tally,
) -> ClientRun {
    let mut run = ClientRun::default();
    // Built before the clock starts, so the rate does not time the
    // benchmark's own allocations.
    let batches: Vec<Vec<Vec<u8>>> = input
        .chunks(BATCH)
        .map(|batch| batch.iter().map(|r| r.to_vec()).collect())
        .collect();
    let phase = Instant::now();
    for (b, payloads) in batches.into_iter().enumerate() {
        let t = Instant::now();
        let r = client.send_batch(source, payloads);
        run.latency.push(t.elapsed());
        match tally.op("send_batch", r) {
            Some(BatchOutcome::Acked { .. }) => {
                run.acked.push(b);
                run.done.push(phase.elapsed().as_secs_f64());
            }
            Some(BatchOutcome::Nacked { code, detail }) => {
                tally.fail(format!("batch {b} nacked ({}): {detail}", code.as_str()));
            }
            None => break,
        }
    }
    run
}

/// Median `(encode, decode)` time in microseconds of one ingest-batch
/// frame through the public `write_frame` / `read_frame`.
fn frame_times(batch: &[Rec]) -> (f64, f64) {
    let msg = Message::IngestBatch {
        source: 1,
        batch_seq: 1,
        payloads: batch.iter().map(|r| r.to_vec()).collect(),
    };
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for _ in 0..500 {
        buf.clear();
        let t = Instant::now();
        let body = msg.encode_body();
        write_frame(&mut buf, msg.frame_type(), &body, msg.type_name()).expect("write to memory");
        enc.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        let (ty, body) = read_frame(&mut Cursor::new(&buf), "bench").expect("read own frame");
        let back = Message::decode(ty, &body).expect("decode own frame");
        dec.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(back);
    }
    (crate::stats::median(&enc), crate::stats::median(&dec))
}

/// The `ingest_tcp` workload.
pub fn ingest_tcp(p: &Params) -> Report {
    let input = gen_records(p.seed, p.ingest_records);
    let names = ["tcp0".to_string()];
    let mut frames = None;
    rounds(p, |traced, acc, tally| {
        if traced && frames.is_none() {
            frames = Some(frame_times(&input[..BATCH.min(input.len())]));
        }
        acc.frame_us = frames;
        let Some(dir) = tally.op("create data dir", DataDir::new("ingest_tcp")) else {
            return;
        };
        let config = Config::new(dir.path());
        let t = Instant::now();
        let Some((loom, writer, ids)) = tally.op("open", open_engine(&config, &names)) else {
            return;
        };
        let slot: WriterSlot = Arc::new(parking_lot::Mutex::named(
            "loombench.writer_slot",
            Some(writer),
        ));
        let server = on_engine_cpu(|| {
            NetServer::start(
                loom.clone(),
                Arc::clone(&slot),
                "127.0.0.1:0",
                NetOptions::default(),
            )
        });
        let Some(server) = tally.op("start server", server) else {
            return;
        };
        let connected =
            IngestClient::connect(ClientConfig::new(server.local_addr().to_string(), 1))
                .and_then(|mut client| client.resolve(&names[0]).map(|sid| (client, sid)));
        let Some((mut client, sid)) = tally.op("connect", connected) else {
            return;
        };
        tally.check(sid == ids[0].0, || {
            format!("{} resolved to {sid}, defined as {}", names[0], ids[0].0)
        });
        acc.setup.push(t.elapsed());
        let before = loom.metrics_snapshot();
        let first_batch = acc.batch.len();
        let mut run = client_loop(&mut client, sid, &input, tally);
        let after = loom.metrics_snapshot();
        let rows = run
            .acked
            .iter()
            .flat_map(|&b| b * BATCH..((b + 1) * BATCH).min(input.len()))
            .collect::<Vec<_>>();
        let acked_records = rows.len() as u64;
        let expected = [Expected::new(&names[0], rows, &input, p.perturb)];
        if traced {
            acc.batch_traced.0.extend_from_slice(&run.latency.0);
            let batches = run.acked.len() as u64;
            acc.write
                .add(&before, &after, batches, acked_records * RECORD as u64);
            acc.net.add(&before, &after);
        } else {
            acc.batch.0.extend_from_slice(&run.latency.0);
            acc.end_phase(first_batch, p.tail_window, acked_records, &mut run.done);
        }
        tally.op("drain server", server.drain(Duration::from_secs(5)));
        drop(client);
        let writer = slot.lock().take();
        let Some(mut writer) = writer else {
            tally.check(false, || "writer slot empty after drain".into());
            return;
        };
        tally.op("sync_durable", writer.sync_durable());
        acc.disk.push(
            allocated_bytes(dir.path()) as f64 / (acked_records * RECORD as u64).max(1) as f64,
        );
        crash_cycles(&config, loom, writer, &expected, &input, traced, acc, tally);
    })
}
