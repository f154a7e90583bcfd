//! On-disk format primitives shared by every durable structure: the
//! CRC32 checksum, log identifiers for corruption reports, the framed
//! record layout used by the manifest and the chunk index, and the
//! versioned superblock that makes a Loom data directory self-describing.
//!
//! Every entry Loom persists — record-log entries, timestamp-index
//! entries, chunk summaries, manifest records — carries a CRC32 over its
//! contents, so a torn tail or a flipped bit is *detected* during
//! recovery or reads instead of being mis-parsed as data.

use std::io::Read;
use std::path::Path;

use crate::config::Config;
use crate::error::{LoomError, Result};

/// On-disk format version stamped into the superblock. Bumped whenever
/// any persisted encoding changes incompatibly.
///
/// Version 2 added the shard count to the superblock fingerprint.
pub const FORMAT_VERSION: u32 = 2;

/// Magic bytes opening the superblock file.
pub const SUPERBLOCK_MAGIC: &[u8; 8] = b"LOOMSUP\x01";

/// File name of the superblock inside a data directory.
pub const SUPERBLOCK_FILE: &str = "loom.super";

/// File name of the manifest log inside a data directory.
pub const MANIFEST_FILE: &str = "manifest.log";

/// Identifies which durable structure an error or report refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogId {
    /// The record log (`records.log`).
    Records,
    /// The chunk index (`chunks.log`).
    Chunks,
    /// The timestamp index (`ts.log`).
    Ts,
    /// The schema/lifecycle manifest (`manifest.log`).
    Manifest,
    /// The superblock (`loom.super`).
    Superblock,
    /// A compressed cold-tier segment (`cold/<slice>/seg-N.seg`).
    ColdSegment,
}

impl LogId {
    /// The file name this log uses inside the data directory.
    pub fn file_name(&self) -> &'static str {
        match self {
            LogId::Records => "records.log",
            LogId::Chunks => "chunks.log",
            LogId::Ts => "ts.log",
            LogId::Manifest => MANIFEST_FILE,
            LogId::Superblock => SUPERBLOCK_FILE,
            LogId::ColdSegment => "cold segment",
        }
    }
}

impl std::fmt::Display for LogId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.file_name())
    }
}

/// CRC32 (IEEE 802.3, reflected) slice-by-8 lookup tables, built at
/// compile time.
///
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; table `k`
/// maps a byte to its CRC contribution from `k` positions further back,
/// so eight table lookups retire eight input bytes per iteration. Every
/// table is derived from the same polynomial, so the computed function —
/// and therefore every checksum already on disk — is unchanged.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Slice-by-8 table CRC over `bytes`, from and to the running
/// (pre-inversion) `state`: every input on targets or CPUs without the
/// carry-less-multiply kernel, inputs under [`CLMUL_MIN_LEN`] bytes, and
/// the sub-16-byte tail the kernel leaves.
fn table_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("len 8"));
        let lo = state ^ (word as u32);
        let hi = (word >> 32) as u32;
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Shortest input worth the carry-less-multiply kernel. Each kernel call
/// ends in a fixed-cost reduction (four dependent multiplies): on a
/// Xeon host the table was faster up to 24 bytes and the kernel from 32,
/// so a 24-byte record header and a short payload stay on the table.
const CLMUL_MIN_LEN: usize = 32;

/// Incremental CRC32 (IEEE) hasher, for checksums spanning several
/// buffers (e.g., a record header plus its separately stored payload).
///
/// On x86_64 CPUs with PCLMULQDQ and SSE4.1 (detected at run time), the
/// whole 16-byte blocks of an input of at least `CLMUL_MIN_LEN` (32) bytes
/// go through a carry-less-multiply folding kernel, about 15× faster
/// than the table on a 64 KiB chunk (17 against 1.1 GB/s on a Xeon
/// host). Shorter inputs, the sub-16-byte tail, and every input on other
/// targets and CPUs go through slice-by-8 tables. Both compute the same
/// function, so no checksum depends on the host. A cold chunk read
/// checksums its compressed frame and the whole decompressed 64 KiB
/// chunk; on the table alone those two checksums took over a third of a
/// cold query pass.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(mut self, bytes: &[u8]) -> Self {
        let mut rest = bytes;
        if bytes.len() >= CLMUL_MIN_LEN {
            let (state, done) = super::crc32_clmul::fold(self.state, bytes);
            self.state = state;
            rest = &bytes[done..];
        }
        self.state = table_update(self.state, rest);
        self
    }

    /// Finalizes and returns the checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC32 of one contiguous buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// CRC32 of two logically contiguous buffers (header ++ payload).
pub fn crc32_pair(a: &[u8], b: &[u8]) -> u32 {
    Crc32::new().update(a).update(b).finish()
}

/// The superblock: a tiny fixed-size file written once when a data
/// directory is created. It records the format version and the
/// configuration fingerprint — every parameter that shapes the on-disk
/// layout — so a reopen can refuse a mismatched [`Config`] instead of
/// mis-parsing the logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// On-disk format version ([`FORMAT_VERSION`] for new directories).
    pub format_version: u32,
    /// Record-log staging-block size.
    pub block_size: u64,
    /// Chunk-index staging-block size.
    pub index_block_size: u64,
    /// Timestamp-index staging-block size.
    pub ts_block_size: u64,
    /// Record-log chunk size (the unit of sparse indexing).
    pub chunk_size: u64,
    /// Timestamp-mark period.
    pub ts_mark_period: u64,
    /// Number of engine shards this directory is partitioned into
    /// (`1` = the flat single-funnel layout, all logs directly in the
    /// directory; `N > 1` = `shard-0 .. shard-N-1` subdirectories).
    pub shards: u64,
}

/// Encoded size: magic (8) + version (4) + six u64 fields + crc (4).
const SUPERBLOCK_SIZE: usize = 8 + 4 + 6 * 8 + 4;

impl Superblock {
    /// The superblock a fresh directory created with `config` gets.
    pub fn of(config: &Config) -> Self {
        Superblock {
            format_version: FORMAT_VERSION,
            block_size: config.block_size as u64,
            index_block_size: config.index_block_size as u64,
            ts_block_size: config.ts_block_size as u64,
            chunk_size: config.chunk_size as u64,
            ts_mark_period: config.ts_mark_period,
            shards: config.shards as u64,
        }
    }

    /// Encodes the superblock into its fixed-size on-disk form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SUPERBLOCK_SIZE);
        buf.extend_from_slice(SUPERBLOCK_MAGIC);
        buf.extend_from_slice(&self.format_version.to_le_bytes());
        buf.extend_from_slice(&self.block_size.to_le_bytes());
        buf.extend_from_slice(&self.index_block_size.to_le_bytes());
        buf.extend_from_slice(&self.ts_block_size.to_le_bytes());
        buf.extend_from_slice(&self.chunk_size.to_le_bytes());
        buf.extend_from_slice(&self.ts_mark_period.to_le_bytes());
        buf.extend_from_slice(&self.shards.to_le_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes and verifies a superblock.
    pub fn decode(bytes: &[u8]) -> Result<Superblock> {
        let corrupt = |reason: &str| LoomError::CorruptLog {
            log: LogId::Superblock,
            addr: 0,
            reason: reason.to_string(),
        };
        if bytes.len() < SUPERBLOCK_SIZE {
            return Err(corrupt(&format!(
                "superblock truncated: {} of {} bytes",
                bytes.len(),
                SUPERBLOCK_SIZE
            )));
        }
        if &bytes[0..8] != SUPERBLOCK_MAGIC {
            return Err(corrupt("bad superblock magic"));
        }
        let body = &bytes[..SUPERBLOCK_SIZE - 4];
        let stored = u32::from_le_bytes(
            bytes[SUPERBLOCK_SIZE - 4..SUPERBLOCK_SIZE]
                .try_into()
                .expect("len 4"),
        );
        if crc32(body) != stored {
            return Err(corrupt("superblock checksum mismatch"));
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("len 4"));
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("len 8"));
        let sb = Superblock {
            format_version: u32_at(8),
            block_size: u64_at(12),
            index_block_size: u64_at(20),
            ts_block_size: u64_at(28),
            chunk_size: u64_at(36),
            ts_mark_period: u64_at(44),
            shards: u64_at(52),
        };
        if sb.format_version != FORMAT_VERSION {
            return Err(corrupt(&format!(
                "unsupported format version {} (this build reads {})",
                sb.format_version, FORMAT_VERSION
            )));
        }
        Ok(sb)
    }

    /// Writes the superblock to `dir/loom.super` and syncs it.
    pub fn write_to(&self, dir: &Path) -> Result<()> {
        let path = dir.join(SUPERBLOCK_FILE);
        let bytes = self.encode();
        if let Some(k) = crate::fault::check(crate::fault::SUPERBLOCK_WRITE, "") {
            return Err(crate::error::LoomError::Io(k.to_io_error()));
        }
        let mut f = std::fs::File::create(&path)?;
        std::io::Write::write_all(&mut f, &bytes)?;
        f.sync_all()?;
        Ok(())
    }

    /// Reads and verifies the superblock from `dir/loom.super`.
    pub fn read_from(dir: &Path) -> Result<Superblock> {
        let mut f = std::fs::File::open(dir.join(SUPERBLOCK_FILE))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }

    /// Validates that `config` matches the layout this directory was
    /// created with. A mismatch (e.g., a different chunk size) would make
    /// every address computation wrong, so reopen refuses it.
    pub fn check_config(&self, config: &Config) -> Result<()> {
        let mismatch = |field: &str, disk: u64, cfg: u64| {
            Err(LoomError::InvalidConfig(format!(
                "config does not match existing data directory: \
                 {field} is {cfg} but the directory was created with {disk}"
            )))
        };
        if self.block_size != config.block_size as u64 {
            return mismatch("block_size", self.block_size, config.block_size as u64);
        }
        if self.index_block_size != config.index_block_size as u64 {
            return mismatch(
                "index_block_size",
                self.index_block_size,
                config.index_block_size as u64,
            );
        }
        if self.ts_block_size != config.ts_block_size as u64 {
            return mismatch(
                "ts_block_size",
                self.ts_block_size,
                config.ts_block_size as u64,
            );
        }
        if self.chunk_size != config.chunk_size as u64 {
            return mismatch("chunk_size", self.chunk_size, config.chunk_size as u64);
        }
        if self.ts_mark_period != config.ts_mark_period {
            return mismatch("ts_mark_period", self.ts_mark_period, config.ts_mark_period);
        }
        if self.shards != config.shards as u64 {
            // A dedicated typed error: unlike the layout parameters above
            // this is the mismatch an operator is most likely to hit (a
            // resharding attempt on an existing directory), and callers
            // want to distinguish it.
            return Err(LoomError::ShardMismatch {
                on_disk: self.shards,
                requested: config.shards as u64,
            });
        }
        Ok(())
    }
}

/// Appends one `[len][crc][body]` frame to `out` (the layout used by the
/// manifest and, with the same header shape, the chunk index).
pub fn write_frame(out: &mut Vec<u8>, body: &[u8]) {
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Size of a frame header: a u32 length plus a u32 CRC.
pub const FRAME_HEADER_SIZE: usize = 8;

/// Upper bound on a single frame body. Anything larger is treated as a
/// corrupt length prefix rather than attempted as an allocation.
pub const MAX_FRAME_LEN: u64 = 1 << 24;

/// Reads the frame starting at `pos` in `bytes`, verifying its checksum.
///
/// Returns `Ok(None)` when fewer than a whole frame remains (a torn
/// tail), and an error when the frame is present but invalid.
pub fn read_frame(bytes: &[u8], pos: usize, log: LogId) -> Result<Option<(&[u8], usize)>> {
    if pos + FRAME_HEADER_SIZE > bytes.len() {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len 4")) as u64;
    if len > MAX_FRAME_LEN {
        return Err(LoomError::CorruptLog {
            log,
            addr: pos as u64,
            reason: format!("frame length {len} exceeds maximum {MAX_FRAME_LEN}"),
        });
    }
    let body_start = pos + FRAME_HEADER_SIZE;
    let body_end = body_start + len as usize;
    if body_end > bytes.len() {
        return Ok(None);
    }
    let stored = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("len 4"));
    let body = &bytes[body_start..body_end];
    if crc32(body) != stored {
        return Err(LoomError::CorruptLog {
            log,
            addr: pos as u64,
            reason: "frame checksum mismatch".into(),
        });
    }
    Ok(Some((body, body_end)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_pair_equals_concatenation() {
        let a = b"hello ";
        let b = b"world";
        assert_eq!(crc32_pair(a, b), crc32(b"hello world"));
    }

    /// The slice-by-8 table must compute the identical function as the
    /// classic byte-at-a-time loop, for every input length (word
    /// remainders) and every split point across an incremental `update`
    /// boundary (carried state enters the 8-byte path mid-stream).
    #[test]
    fn crc32_slice_by_8_matches_bytewise_reference() {
        fn reference(bytes: &[u8]) -> u32 {
            let mut state = !0u32;
            for &b in bytes {
                state = (state >> 8) ^ CRC32_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
            }
            !state
        }
        let data: Vec<u8> = (0..193u32)
            .map(|i| (i.wrapping_mul(131) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                table_crc(&data[..len]),
                reference(&data[..len]),
                "len {len}"
            );
        }
        for split in 0..data.len() {
            let state = table_update(table_update(!0, &data[..split]), &data[split..]);
            assert_eq!(!state, reference(&data), "split {split}");
        }
    }

    /// CRC32 of `bytes` through the table alone.
    fn table_crc(bytes: &[u8]) -> u32 {
        !table_update(!0, bytes)
    }

    /// Deterministic pseudo-random bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Checksums already on disk must not drift: a record header encoded
    /// by the table-only implementation, and a kernel-length buffer's
    /// CRC computed by it.
    #[test]
    fn checksums_match_values_pinned_from_the_table_implementation() {
        let h = crate::record::RecordHeader {
            source: 7,
            len: 8,
            prev: 0x0123_4567_89AB_CDEF,
            ts: 1_700_000_000_123_456_789,
        };
        let encoded = h.encode(&0x4048_F5C3_0000_0000u64.to_le_bytes());
        assert_eq!(
            encoded,
            [
                0x07, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45,
                0x23, 0x01, 0x15, 0xcd, 0x85, 0x3d, 0xfe, 0x9c, 0x97, 0x17, 0xe4, 0x20, 0x4d, 0xa2,
            ]
        );
        let long: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(crc32(&long), 0x17BC_2A46);
    }

    /// Runs the kernel directly (whatever the length threshold in
    /// `Crc32::update`) and finishes the tail on the table.
    fn kernel_update(state: u32, bytes: &[u8]) -> u32 {
        let (state, done) = super::super::crc32_clmul::fold(state, bytes);
        let expect = if super::super::crc32_clmul::available() {
            bytes.len() & !15
        } else {
            0
        };
        assert_eq!(
            done,
            expect,
            "kernel consumed {done} of {} bytes",
            bytes.len()
        );
        table_update(state, &bytes[done..])
    }

    /// The kernel and the table agree for every length up to 1100 bytes
    /// (every 16-byte remainder, the single-lane and four-lane paths and
    /// their switch-over) and for a whole 64 KiB chunk, at every start
    /// offset within 16 bytes (unaligned loads), from a fresh and from a
    /// carried state.
    #[test]
    fn kernel_matches_table_at_every_length_and_offset() {
        let data = noise((1 << 16) + 16, 0x5EED);
        for offset in 0..16 {
            for len in (0..=1100).chain([1 << 16]) {
                let bytes = &data[offset..offset + len];
                for state in [!0u32, 0x1234_5678] {
                    assert_eq!(
                        kernel_update(state, bytes),
                        table_update(state, bytes),
                        "offset {offset} len {len} state {state:#x}"
                    );
                }
                assert_eq!(crc32(bytes), table_crc(bytes), "offset {offset} len {len}");
            }
        }
    }

    /// Chained `update` calls give the one-buffer checksum at every split
    /// point, with either side on the kernel or on the table.
    #[test]
    fn chained_updates_match_at_every_split_point() {
        let data = noise(700, 0xC0FFEE);
        let whole = table_crc(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_pair(a, b), whole, "split {split}");
            assert_eq!(
                !kernel_update(kernel_update(!0, a), b),
                whole,
                "kernel split {split}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn split_updates_match_table_on_random_buffers(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..3000),
            cuts in proptest::collection::vec(proptest::arbitrary::any::<u16>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut hasher = Crc32::new();
            let mut kernel = !0u32;
            let mut start = 0;
            for end in cuts.into_iter().chain([data.len()]) {
                hasher = hasher.update(&data[start..end]);
                kernel = kernel_update(kernel, &data[start..end]);
                start = end;
            }
            let whole = table_crc(&data);
            proptest::prop_assert_eq!(hasher.finish(), whole);
            proptest::prop_assert_eq!(!kernel, whole);
        }
    }

    #[test]
    fn superblock_round_trips() {
        let cfg = Config::small("/tmp/unused");
        let sb = Superblock::of(&cfg);
        let decoded = Superblock::decode(&sb.encode()).unwrap();
        assert_eq!(decoded, sb);
        assert!(decoded.check_config(&cfg).is_ok());
    }

    #[test]
    fn superblock_rejects_corruption_and_mismatch() {
        let cfg = Config::small("/tmp/unused");
        let sb = Superblock::of(&cfg);
        let mut bytes = sb.encode();
        bytes[10] ^= 0xFF;
        assert!(matches!(
            Superblock::decode(&bytes),
            Err(LoomError::CorruptLog {
                log: LogId::Superblock,
                ..
            })
        ));
        assert!(Superblock::decode(&bytes[..10]).is_err());

        let mut other = cfg.clone();
        other.chunk_size *= 2;
        assert!(matches!(
            sb.check_config(&other),
            Err(LoomError::InvalidConfig(_))
        ));

        let mut resharded = cfg.clone();
        resharded.shards = cfg.shards + 3;
        assert!(matches!(
            sb.check_config(&resharded),
            Err(LoomError::ShardMismatch { .. })
        ));
    }

    #[test]
    fn frames_round_trip_and_detect_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        write_frame(&mut buf, b"second record");
        let (body, next) = read_frame(&buf, 0, LogId::Manifest).unwrap().unwrap();
        assert_eq!(body, b"first");
        let (body2, next2) = read_frame(&buf, next, LogId::Manifest).unwrap().unwrap();
        assert_eq!(body2, b"second record");
        assert_eq!(next2, buf.len());
        // Torn tail: a partial frame reads as None.
        assert!(read_frame(&buf[..next + 3], next, LogId::Manifest)
            .unwrap()
            .is_none());
        // Flipped body byte: checksum error.
        let mut bad = buf.clone();
        bad[FRAME_HEADER_SIZE + 1] ^= 0x01;
        assert!(matches!(
            read_frame(&bad, 0, LogId::Manifest),
            Err(LoomError::CorruptLog { .. })
        ));
        // Nonsense length prefix: rejected before any allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            read_frame(&huge, 0, LogId::Manifest),
            Err(LoomError::CorruptLog { .. })
        ));
    }
}
