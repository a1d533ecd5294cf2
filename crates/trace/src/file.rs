//! Trace recording and replay.
//!
//! The paper drives its simulator from Pin-collected write traces. This
//! module provides the equivalent plumbing for this reproduction: any
//! [`Workload`] can be recorded to a compact binary trace file, and a
//! trace file (from here, or converted from a real Pin run) can be
//! replayed as a workload — so users with access to real traces can drop
//! them in without touching the simulator.
//!
//! # Format (`WLTR` version 1)
//!
//! Little-endian throughout:
//!
//! ```text
//! magic   [u8;4] = "WLTR"
//! version u32    = 1
//! space   u64      address-space size in blocks
//! count   u64      number of write records
//! records count × delta-encoded LEB128 block addresses (see below)
//! ```
//!
//! Addresses are stored zig-zag delta-encoded against the previous
//! address and LEB128-compressed: consecutive or nearby addresses (the
//! common case for real program traces) cost one byte each.

use crate::generator::Workload;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;
use wlr_base::AppAddr;

const MAGIC: &[u8; 4] = b"WLTR";
const VERSION: u32 = 1;

/// Errors arising from trace-file I/O and validation.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `WLTR` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// A record lies outside the declared address space.
    AddressOutOfRange {
        /// Offending address.
        address: u64,
        /// Declared address-space size.
        space: u64,
    },
    /// The file ended before `count` records were read.
    Truncated,
    /// A delta record's varint ran past 64 bits: the bytes are not a
    /// WLTR record stream (corruption, or a different format entirely).
    MalformedVarint,
    /// The trace declares an empty address space or no records.
    Empty,
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceFileError::BadMagic => write!(f, "not a WLTR trace file"),
            TraceFileError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceFileError::AddressOutOfRange { address, space } => {
                write!(f, "trace address {address} outside space of {space} blocks")
            }
            TraceFileError::Truncated => write!(f, "trace file ended early"),
            TraceFileError::MalformedVarint => {
                write!(f, "malformed record: varint exceeds 64 bits")
            }
            TraceFileError::Empty => write!(f, "trace has no records or empty space"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        // An EOF mid-read is a short file, not an environment failure:
        // surface it as the typed `Truncated` so callers can distinguish
        // "bad trace" from "bad filesystem".
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceFileError::Truncated
        } else {
            TraceFileError::Io(e)
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_leb128(out: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.write_all(&[byte])?;
            return Ok(());
        }
        out.write_all(&[byte | 0x80])?;
    }
}

fn read_leb128(inp: &mut impl Read) -> Result<u64, TraceFileError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        if inp.read(&mut byte)? == 0 {
            return Err(TraceFileError::Truncated);
        }
        // The tenth byte lands at bit 63: only its lowest payload bit fits.
        if shift == 63 && byte[0] & 0x7E != 0 {
            return Err(TraceFileError::MalformedVarint);
        }
        v |= u64::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(TraceFileError::MalformedVarint);
        }
    }
}

/// Streaming trace writer.
///
/// ```
/// use wlr_trace::file::{TraceReader, TraceWriter};
/// use wlr_base::AppAddr;
/// let dir = std::env::temp_dir().join("wltr-doc");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("t.wltr");
///
/// let mut w = TraceWriter::create(&path, 1024)?;
/// for a in [5u64, 6, 6, 900] {
///     w.record(AppAddr::new(a))?;
/// }
/// w.finish()?;
///
/// let mut r = TraceReader::open(&path)?;
/// assert_eq!(r.space(), 1024);
/// assert_eq!(r.remaining(), 4);
/// assert_eq!(r.next()?, Some(AppAddr::new(5)));
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<File>,
    space: u64,
    count: u64,
    prev: i64,
    path: std::path::PathBuf,
}

impl TraceWriter {
    /// Creates (truncating) a trace file for an address space of `space`
    /// blocks.
    ///
    /// # Errors
    ///
    /// I/O errors from file creation.
    pub fn create(path: impl AsRef<Path>, space: u64) -> Result<Self, TraceFileError> {
        let path = path.as_ref().to_path_buf();
        let mut out = BufWriter::new(File::create(&path)?);
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&space.to_le_bytes())?;
        out.write_all(&0u64.to_le_bytes())?; // count backpatched in finish()
        Ok(TraceWriter {
            out,
            space,
            count: 0,
            prev: 0,
            path,
        })
    }

    /// Appends one write record.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::AddressOutOfRange`] or I/O failures.
    pub fn record(&mut self, addr: AppAddr) -> Result<(), TraceFileError> {
        if addr.index() >= self.space {
            return Err(TraceFileError::AddressOutOfRange {
                address: addr.index(),
                space: self.space,
            });
        }
        let delta = addr.index() as i64 - self.prev;
        self.prev = addr.index() as i64;
        write_leb128(&mut self.out, zigzag(delta))?;
        self.count += 1;
        Ok(())
    }

    /// Records `n` writes drawn from `workload`.
    ///
    /// # Errors
    ///
    /// As [`Self::record`].
    pub fn record_from(
        &mut self,
        workload: &mut dyn Workload,
        n: u64,
    ) -> Result<(), TraceFileError> {
        for _ in 0..n {
            self.record(workload.next_write())?;
        }
        Ok(())
    }

    /// Flushes, backpatches the record count, and closes the file.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn finish(mut self) -> Result<(), TraceFileError> {
        self.out.flush()?;
        drop(self.out);
        // Backpatch the count field at offset 16.
        use std::io::SeekFrom;
        let mut f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
        f.seek(SeekFrom::Start(16))?;
        f.write_all(&self.count.to_le_bytes())?;
        Ok(())
    }
}

/// Streaming trace reader.
#[derive(Debug)]
pub struct TraceReader {
    inp: BufReader<File>,
    space: u64,
    remaining: u64,
    prev: i64,
}

impl TraceReader {
    /// Opens and validates a trace file's header.
    ///
    /// # Errors
    ///
    /// Header-validation or I/O failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let mut inp = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 4];
        inp.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(TraceFileError::BadMagic);
        }
        let mut buf4 = [0u8; 4];
        inp.read_exact(&mut buf4)?;
        let version = u32::from_le_bytes(buf4);
        if version != VERSION {
            return Err(TraceFileError::BadVersion(version));
        }
        let mut buf8 = [0u8; 8];
        inp.read_exact(&mut buf8)?;
        let space = u64::from_le_bytes(buf8);
        inp.read_exact(&mut buf8)?;
        let count = u64::from_le_bytes(buf8);
        if space == 0 || count == 0 {
            return Err(TraceFileError::Empty);
        }
        Ok(TraceReader {
            inp,
            space,
            remaining: count,
            prev: 0,
        })
    }

    /// Declared address-space size in blocks.
    pub fn space(&self) -> u64 {
        self.space
    }

    /// Records left to read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads the next record, or `None` at the end.
    ///
    /// # Errors
    ///
    /// Decoding or I/O failures; addresses outside the declared space.
    #[allow(clippy::should_implement_trait)] // fallible streaming next
    pub fn next(&mut self) -> Result<Option<AppAddr>, TraceFileError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let delta = unzigzag(read_leb128(&mut self.inp)?);
        let addr = self.prev.wrapping_add(delta);
        if addr < 0 || addr as u64 >= self.space {
            return Err(TraceFileError::AddressOutOfRange {
                address: addr as u64,
                space: self.space,
            });
        }
        self.prev = addr;
        self.remaining -= 1;
        Ok(Some(AppAddr::new(addr as u64)))
    }
}

/// A [`Workload`] replaying a recorded trace, looping back to the start
/// when exhausted (the paper "assumes each program runs multiple times to
/// produce the required wear-out effect", §IV-A).
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    space: u64,
    records: Vec<u64>,
    cursor: usize,
    laps: u64,
}

impl TraceWorkload {
    /// Loads an entire trace into memory for replay.
    ///
    /// # Errors
    ///
    /// Any [`TraceFileError`] from reading the file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let mut reader = TraceReader::open(path)?;
        // The header's count is a claim, not a size: every record takes at
        // least one byte, so reserve no more than the file has left, and
        // let a count beyond it end as `Truncated` where the bytes do.
        let file_bytes = reader.inp.get_ref().metadata()?.len();
        let bytes_left = file_bytes.saturating_sub(reader.inp.stream_position()?);
        let mut records = Vec::with_capacity(reader.remaining().min(bytes_left) as usize);
        while let Some(a) = reader.next()? {
            records.push(a.index());
        }
        Ok(TraceWorkload {
            space: reader.space(),
            records,
            cursor: 0,
            laps: 0,
        })
    }

    /// Builds a replay workload directly from addresses (tests, adapters).
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty or any address is out of range; use
    /// [`Self::try_from_records`] to get the typed error instead.
    pub fn from_records(space: u64, records: Vec<u64>) -> Self {
        match Self::try_from_records(space, records) {
            Ok(w) => w,
            Err(TraceFileError::Empty) => panic!("replay needs at least one record"),
            Err(e) => panic!("record outside the declared space: {e}"),
        }
    }

    /// Fallible variant of [`Self::from_records`]: validates the record
    /// set and returns the same typed errors the file reader produces.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::Empty`] for no records or a zero-block space,
    /// [`TraceFileError::AddressOutOfRange`] for a stray address.
    pub fn try_from_records(space: u64, records: Vec<u64>) -> Result<Self, TraceFileError> {
        if space == 0 || records.is_empty() {
            return Err(TraceFileError::Empty);
        }
        if let Some(&address) = records.iter().find(|&&a| a >= space) {
            return Err(TraceFileError::AddressOutOfRange { address, space });
        }
        Ok(TraceWorkload {
            space,
            records,
            cursor: 0,
            laps: 0,
        })
    }

    /// Completed full passes over the trace.
    pub fn laps(&self) -> u64 {
        self.laps
    }

    /// Number of records in one pass.
    pub fn records_per_lap(&self) -> usize {
        self.records.len()
    }
}

impl Workload for TraceWorkload {
    fn len(&self) -> u64 {
        self.space
    }

    fn next_write(&mut self) -> AppAddr {
        let a = self.records[self.cursor];
        self.cursor += 1;
        if self.cursor == self.records.len() {
            self.cursor = 0;
            self.laps += 1;
        }
        AppAddr::new(a)
    }

    fn label(&self) -> String {
        format!("trace({} records)", self.records.len())
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::ZipfWorkload;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("wltr-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_exact() {
        let path = tmp("round_trip.wltr");
        let addrs = [0u64, 1, 1, 1000, 2, 999, 0, 1023];
        let mut w = TraceWriter::create(&path, 1024).unwrap();
        for &a in &addrs {
            w.record(AppAddr::new(a)).unwrap();
        }
        w.finish().unwrap();

        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(r.space(), 1024);
        let mut got = Vec::new();
        while let Some(a) = r.next().unwrap() {
            got.push(a.index());
        }
        assert_eq!(got, addrs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recorded_workload_replays_identically() {
        let path = tmp("replay.wltr");
        let mut src = ZipfWorkload::new(512, 1.1, 9);
        let mut w = TraceWriter::create(&path, 512).unwrap();
        w.record_from(&mut src, 5_000).unwrap();
        w.finish().unwrap();

        // Re-generate the same stream and compare against replay.
        let mut src2 = ZipfWorkload::new(512, 1.1, 9);
        let mut replay = TraceWorkload::load(&path).unwrap();
        for i in 0..5_000 {
            assert_eq!(replay.next_write(), src2.next_write(), "record {i}");
        }
        assert_eq!(replay.laps(), 1, "exactly one full pass consumed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_loops_forever() {
        let mut w = TraceWorkload::from_records(16, vec![3, 5, 7]);
        let first_lap: Vec<u64> = (0..3).map(|_| w.next_write().index()).collect();
        let second_lap: Vec<u64> = (0..3).map(|_| w.next_write().index()).collect();
        assert_eq!(first_lap, second_lap);
        assert_eq!(w.laps(), 2);
        assert_eq!(w.records_per_lap(), 3);
    }

    #[test]
    fn compression_is_compact_for_local_traces() {
        let path = tmp("compact.wltr");
        let mut w = TraceWriter::create(&path, 1 << 20).unwrap();
        for i in 0..10_000u64 {
            w.record(AppAddr::new(1000 + i % 64)).unwrap();
        }
        w.finish().unwrap();
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(
            size < 24 + 2 * 10_000,
            "local trace should be ~1 byte/record, got {size} bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_range_record() {
        let path = tmp("range.wltr");
        let mut w = TraceWriter::create(&path, 16).unwrap();
        let err = w.record(AppAddr::new(16)).unwrap_err();
        assert!(matches!(err, TraceFileError::AddressOutOfRange { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("magic.wltr");
        std::fs::write(&path, b"NOPE00000000000000000000").unwrap();
        assert!(matches!(
            TraceReader::open(&path),
            Err(TraceFileError::BadMagic)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_file() {
        let path = tmp("trunc.wltr");
        let mut w = TraceWriter::create(&path, 64).unwrap();
        for i in 0..100u64 {
            w.record(AppAddr::new(i % 64)).unwrap();
        }
        w.finish().unwrap();
        // Chop the tail off.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let mut result = Ok(None);
        for _ in 0..100 {
            result = r.next();
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(TraceFileError::Truncated)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_header_as_truncated_not_io() {
        // 10 bytes: magic + version survive, the space field is cut short.
        let path = tmp("short_header.wltr");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 2]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            TraceReader::open(&path),
            Err(TraceFileError::Truncated)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_overlong_varint_as_malformed() {
        // A valid header followed by a record of eleven continuation
        // bytes: a varint that can never terminate within 64 bits.
        let path = tmp("overlong.wltr");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&64u64.to_le_bytes()); // space
        bytes.extend_from_slice(&1u64.to_le_bytes()); // count
        bytes.extend_from_slice(&[0x80u8; 11]);
        std::fs::write(&path, &bytes).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        assert!(matches!(r.next(), Err(TraceFileError::MalformedVarint)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_high_bits_past_64_in_a_tenth_byte() {
        // Nine continuation bytes put the tenth at bit 63, where only its
        // lowest payload bit fits: 0x02 would shift out and decode as 0.
        let path = tmp("tenth_byte.wltr");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&64u64.to_le_bytes()); // space
        bytes.extend_from_slice(&1u64.to_le_bytes()); // count
        bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
        std::fs::write(&path, &bytes).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        assert!(matches!(r.next(), Err(TraceFileError::MalformedVarint)));
        std::fs::remove_file(&path).ok();
        // The one bit that does fit still decodes: u64::MAX round-trips.
        let mut enc = Vec::new();
        write_leb128(&mut enc, u64::MAX).unwrap();
        assert_eq!(enc.len(), 10);
        assert_eq!(read_leb128(&mut enc.as_slice()).unwrap(), u64::MAX);
    }

    #[test]
    fn load_does_not_trust_the_header_count() {
        // 25 bytes declaring u64::MAX records: one record's worth of data.
        let path = tmp("huge_count.wltr");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&64u64.to_le_bytes()); // space
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // count
        bytes.push(0x02);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            TraceWorkload::load(&path),
            Err(TraceFileError::Truncated)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn try_from_records_returns_typed_errors() {
        assert!(matches!(
            TraceWorkload::try_from_records(4, vec![]),
            Err(TraceFileError::Empty)
        ));
        assert!(matches!(
            TraceWorkload::try_from_records(0, vec![0]),
            Err(TraceFileError::Empty)
        ));
        assert!(matches!(
            TraceWorkload::try_from_records(4, vec![1, 4]),
            Err(TraceFileError::AddressOutOfRange {
                address: 4,
                space: 4
            })
        ));
        let ok = TraceWorkload::try_from_records(4, vec![1, 3]).unwrap();
        assert_eq!(ok.records_per_lap(), 2);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_records_panic() {
        TraceWorkload::from_records(4, vec![]);
    }
}
