//! The v2 decoder: both admission entry points.
//!
//! [`CompactSource`] opens a v2 buffer, verifies it (framing walk +
//! per-block CRC and structural bounds — the admission-on-ingest pass),
//! and then streams records as a [`TraceSource`] decoding one block at
//! a time: O(block) memory however long the trace, an exact
//! [`TraceSource::size_hint`], and seek-to-block through the index
//! footer. [`decode_trace`] is the one-pass alternative for callers
//! that want the whole trace in memory: it decodes each block once,
//! straight into the output.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use clio_cache::hash::KeyedState;

use crate::error::TraceError;
use crate::header::TraceHeader;
use crate::reader::TraceFile;
use crate::record::{IoOp, TraceRecord};
use crate::source::{SourceMeta, TraceSource};

use super::block::{
    apply_delta32, apply_delta64, crc32, get_varint, unzigzag, BlockHeader, BlockIndexEntry,
    BLOCK_HEADER_LEN, INDEX_ENTRY_LEN,
};
use super::{BLOCK_TAG, COMPACT_MAGIC, COMPACT_VERSION, END_MAGIC, INDEX_TAG};

/// Decodes the container prelude (magic, version, embedded header),
/// returning the header and the offset of the first section tag.
fn decode_prelude(data: &[u8]) -> Result<(TraceHeader, usize), TraceError> {
    let need = |n: usize, context: &'static str| {
        if data.len() < n {
            Err(TraceError::Truncated { context })
        } else {
            Ok(())
        }
    };
    need(4, "magic")?;
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&data[0..4]);
    if magic != COMPACT_MAGIC {
        return Err(TraceError::BadMagic(magic));
    }
    need(6, "version")?;
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != COMPACT_VERSION {
        return Err(TraceError::BadVersion(version));
    }
    need(6 + 4 + 4 + 8 + 8 + 2, "header fields")?;
    let u32_at = |i: usize| u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    let u64_at = |i: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&data[i..i + 8]);
        u64::from_le_bytes(b)
    };
    let num_processes = u32_at(6);
    let num_files = u32_at(10);
    let num_records = u64_at(14);
    let records_offset = u64_at(22);
    let name_len = u16::from_le_bytes([data[30], data[31]]) as usize;
    need(32 + name_len, "sample file name")?;
    let sample_file = String::from_utf8(data[32..32 + name_len].to_vec())
        .map_err(|_| TraceError::BadHeader("sample file name is not UTF-8".into()))?;
    let header = TraceHeader { num_processes, num_files, num_records, records_offset, sample_file };
    header.validate()?;
    Ok((header, 32 + name_len))
}

/// Decodes the payload columns of one block, appending its records to
/// `out`, and applies every structural check the format defines.
///
/// The columns are fused into the records as they are read: the op
/// column appends one record per op, and each later column fills its
/// field in place. On `Err` the records appended so far are partial
/// and the caller must discard them.
fn decode_payload(
    payload: &[u8],
    header: &BlockHeader,
    roster: &TraceHeader,
    block: u64,
    out: &mut Vec<TraceRecord>,
) -> Result<(), TraceError> {
    let corrupt = |context: &'static str| TraceError::CorruptBlock { block, context };
    let n = header.record_count as usize;
    let mut pos = 0usize;

    // 1. Op tags, two nibbles per byte.
    let op_bytes = n.div_ceil(2);
    if payload.len() < op_bytes {
        return Err(corrupt("op column ran past the payload"));
    }
    // Only now is `n` bounded by the payload size (two ops per byte).
    let base = out.len();
    out.reserve(n);
    for i in 0..n {
        let byte = payload[i / 2];
        let nibble = if i % 2 == 0 { byte & 0x0F } else { byte >> 4 };
        let op = IoOp::from_code(nibble).ok_or_else(|| corrupt("op nibble outside 0-4"))?;
        out.push(TraceRecord {
            op,
            num_records: 0,
            pid: 0,
            file_id: 0,
            wall_clock_us: 0,
            proc_clock_us: 0,
            offset: 0,
            length: 0,
        });
    }
    if n % 2 == 1 && payload[op_bytes - 1] >> 4 != 0 {
        return Err(corrupt("nonzero padding nibble in op column"));
    }
    pos += op_bytes;
    let records = &mut out[base..];

    // 2. Pid dictionary + index column. Duplicates are found with a
    //    keyed set: the dictionary size is untrusted, so a linear scan
    //    per entry would make admission quadratic in it.
    let dict_len = get_varint(payload, &mut pos, block)?;
    if dict_len == 0 || dict_len > n as u64 {
        return Err(corrupt("pid dictionary size out of range"));
    }
    let mut dict = Vec::with_capacity(dict_len as usize);
    let mut seen = HashSet::with_capacity_and_hasher(dict_len as usize, KeyedState::default());
    for _ in 0..dict_len {
        let pid = get_varint(payload, &mut pos, block)?;
        if pid >= u64::from(roster.num_processes) {
            return Err(corrupt("dictionary pid outside the process roster"));
        }
        let pid = pid as u32;
        if !seen.insert(pid) {
            return Err(corrupt("duplicate pid in dictionary"));
        }
        dict.push(pid);
    }
    if dict.len() == 1 {
        records.iter_mut().for_each(|r| r.pid = dict[0]);
    } else {
        for r in records.iter_mut() {
            let idx = get_varint(payload, &mut pos, block)?;
            r.pid =
                *dict.get(idx as usize).ok_or_else(|| corrupt("pid index outside dictionary"))?;
        }
    }

    // 3. File ids.
    let mut prev_file = 0u32;
    let (mut seen_min, mut seen_max) = (u32::MAX, 0u32);
    for r in records.iter_mut() {
        let delta = unzigzag(get_varint(payload, &mut pos, block)?);
        let delta = i32::try_from(delta).map_err(|_| corrupt("file id delta overflows u32"))?;
        let file_id = apply_delta32(prev_file, delta);
        if file_id >= roster.num_files {
            return Err(corrupt("file id outside the file roster"));
        }
        if file_id < header.min_file || file_id > header.max_file {
            return Err(corrupt("file id outside the block's declared range"));
        }
        seen_min = seen_min.min(file_id);
        seen_max = seen_max.max(file_id);
        prev_file = file_id;
        r.file_id = file_id;
    }
    if seen_min != header.min_file || seen_max != header.max_file {
        return Err(corrupt("declared file id range not attained"));
    }

    // 4–5. Wall and process clocks.
    let mut prev_wall = 0u64;
    for r in records.iter_mut() {
        prev_wall = apply_delta64(prev_wall, unzigzag(get_varint(payload, &mut pos, block)?));
        r.wall_clock_us = prev_wall;
    }
    let first_wall = records.first().map(|r| r.wall_clock_us);
    let last_wall = records.last().map(|r| r.wall_clock_us);
    if first_wall != Some(header.first_clock) || last_wall != Some(header.last_clock) {
        return Err(corrupt("clock bounds mismatch"));
    }
    let mut prev_proc = 0u64;
    for r in records.iter_mut() {
        prev_proc = apply_delta64(prev_proc, unzigzag(get_varint(payload, &mut pos, block)?));
        r.proc_clock_us = prev_proc;
    }

    // 6. Repeat counts.
    for r in records.iter_mut() {
        let v = get_varint(payload, &mut pos, block)?;
        r.num_records = u32::try_from(v).map_err(|_| corrupt("repeat count overflows u32"))?;
    }

    // 7. Lengths.
    let mut prev_len = 0u64;
    for r in records.iter_mut() {
        prev_len = apply_delta64(prev_len, unzigzag(get_varint(payload, &mut pos, block)?));
        r.length = prev_len;
    }

    // 8. Offsets, predicted per (pid, file) stream. The keys are
    //    untrusted, so the table hashes with the keyed hasher.
    let mut stream_pos: HashMap<(u32, u32), u64, KeyedState> = HashMap::default();
    for r in records.iter_mut() {
        let predicted = stream_pos.entry((r.pid, r.file_id)).or_insert(0);
        r.offset = apply_delta64(*predicted, unzigzag(get_varint(payload, &mut pos, block)?));
        *predicted = r.offset.wrapping_add(r.length);
    }

    if pos != payload.len() {
        return Err(corrupt("payload length mismatch"));
    }
    Ok(())
}

/// Reads the block tag + header at `pos`, returning the header and the
/// payload range. Does not touch the payload.
fn frame_block(
    data: &[u8],
    pos: usize,
    block: u64,
) -> Result<(BlockHeader, std::ops::Range<usize>), TraceError> {
    let start = pos + 1; // past the tag byte
    if data.len() < start + BLOCK_HEADER_LEN {
        return Err(TraceError::Truncated { context: "block header" });
    }
    let header = BlockHeader::decode(&data[start..start + BLOCK_HEADER_LEN])?;
    if header.record_count == 0 {
        return Err(TraceError::CorruptBlock { block, context: "empty block" });
    }
    if header.raw_len as usize != header.record_count as usize * TraceRecord::ENCODED_LEN {
        return Err(TraceError::CorruptBlock { block, context: "raw length mismatch" });
    }
    let payload_start = start + BLOCK_HEADER_LEN;
    let payload_end = payload_start
        .checked_add(header.encoded_len as usize)
        .ok_or(TraceError::CorruptBlock { block, context: "encoded length overflows" })?;
    if payload_end > data.len() {
        return Err(TraceError::Truncated { context: "block payload" });
    }
    Ok((header, payload_start..payload_end))
}

/// Verifies the block's CRC and appends its decoded records to `out`.
fn decode_block(
    data: &[u8],
    pos: usize,
    block: u64,
    roster: &TraceHeader,
    out: &mut Vec<TraceRecord>,
) -> Result<(BlockHeader, usize), TraceError> {
    let (header, payload) = frame_block(data, pos, block)?;
    let end = payload.end;
    let payload = &data[payload];
    let computed = crc32(payload);
    if computed != header.crc32 {
        return Err(TraceError::ChecksumMismatch { block, stored: header.crc32, computed });
    }
    decode_payload(payload, &header, roster, block, out)?;
    Ok((header, end))
}

/// A verified, streaming v2 trace reader: the streaming admission
/// entry point.
///
/// Construction ([`CompactSource::from_bytes`] / [`CompactSource::load`])
/// is the admission pass: the whole container is framed and every block
/// CRC-checked and structurally decoded, its records discarded, before
/// the first record is handed out. Corrupt input is rejected with a
/// coded [`TraceError`] naming the block where it breaks, so nothing
/// unverified ever reaches a replay engine. Streaming then re-decodes
/// lazily, one block in memory at a time, directly from the shared
/// buffer (cloning the source or re-opening the same bytes copies
/// nothing but an `Arc`). Each block is thus decoded twice; that is the
/// price of O(block) memory. To hold the whole trace in memory anyway,
/// use the one-pass [`decode_trace`], which decodes each block once.
#[derive(Debug, Clone)]
pub struct CompactSource {
    data: Arc<Vec<u8>>,
    header: TraceHeader,
    /// Offset of the first section tag.
    blocks_start: usize,
    /// The parsed footer index (one entry per block).
    index: Vec<BlockIndexEntry>,
    /// Offset of the next undecoded section tag.
    pos: usize,
    /// Index of the next undecoded block.
    next_block: u64,
    /// Decoded records of the current block.
    block: Vec<TraceRecord>,
    /// Read cursor within `block`.
    cursor: usize,
    /// Records not yet yielded (exact).
    remaining: u64,
}

impl CompactSource {
    /// Opens and verifies a v2 container (see the type docs: this is
    /// the admission pass).
    pub fn from_bytes(data: impl Into<Arc<Vec<u8>>>) -> Result<Self, TraceError> {
        let source = Self::open_unverified(data.into())?;
        source.decode_blocks(&mut Vec::new(), false)?;
        Ok(source)
    }

    /// Opens and verifies a v2 file from disk.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, TraceError> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Frames the container (prelude, block walk, index footer, end
    /// marker) without decoding any payload. Every structural property
    /// of the *framing* is checked here; the per-block payload checks
    /// run in [`CompactSource::decode_blocks`].
    fn open_unverified(data: Arc<Vec<u8>>) -> Result<Self, TraceError> {
        let (header, blocks_start) = decode_prelude(&data)?;
        // Walk the blocks by frame, collecting what the footer must
        // agree with.
        let mut walked: Vec<BlockIndexEntry> = Vec::new();
        let mut pos = blocks_start;
        let mut total_records = 0u64;
        loop {
            let tag = *data.get(pos).ok_or(TraceError::Truncated { context: "section tag" })?;
            match tag {
                BLOCK_TAG => {
                    let block = walked.len() as u64;
                    let (bh, payload) = frame_block(&data, pos, block)?;
                    walked.push(BlockIndexEntry {
                        offset: pos as u64,
                        record_count: bh.record_count,
                        first_clock: bh.first_clock,
                    });
                    total_records += u64::from(bh.record_count);
                    pos = payload.end;
                }
                INDEX_TAG => break,
                _ => {
                    return Err(TraceError::CorruptBlock {
                        block: walked.len() as u64,
                        context: "unknown section tag",
                    })
                }
            }
        }
        if total_records != header.num_records {
            return Err(TraceError::BadHeader(format!(
                "header declares {} records, blocks carry {total_records}",
                header.num_records
            )));
        }
        // The index footer.
        let footer_at = pos;
        let need = |n: usize, context: &'static str| {
            if data.len() < n {
                Err(TraceError::Truncated { context })
            } else {
                Ok(())
            }
        };
        need(footer_at + 5, "index footer")?;
        let count = u32::from_le_bytes([
            data[footer_at + 1],
            data[footer_at + 2],
            data[footer_at + 3],
            data[footer_at + 4],
        ]) as usize;
        if count != walked.len() {
            return Err(TraceError::BadHeader(format!(
                "index declares {count} blocks, file carries {}",
                walked.len()
            )));
        }
        let entries_at = footer_at + 5;
        need(entries_at + count * INDEX_ENTRY_LEN + 8 + 4, "index entries")?;
        for (i, expected) in walked.iter().enumerate() {
            let at = entries_at + i * INDEX_ENTRY_LEN;
            let entry = BlockIndexEntry::decode(&data[at..at + INDEX_ENTRY_LEN])?;
            if entry != *expected {
                return Err(TraceError::CorruptBlock {
                    block: i as u64,
                    context: "index entry disagrees with the block it points at",
                });
            }
        }
        let tail = entries_at + count * INDEX_ENTRY_LEN;
        let mut off = [0u8; 8];
        off.copy_from_slice(&data[tail..tail + 8]);
        if u64::from_le_bytes(off) != footer_at as u64 {
            return Err(TraceError::BadHeader("footer self-offset disagrees".into()));
        }
        if data[tail + 8..tail + 12] != END_MAGIC {
            return Err(TraceError::BadHeader("missing end marker".into()));
        }
        let end = tail + 12;
        if end != data.len() {
            return Err(TraceError::TrailingBytes { extra: data.len() - end });
        }
        let remaining = header.num_records;
        Ok(Self {
            data,
            header,
            blocks_start,
            index: walked,
            pos: blocks_start,
            next_block: 0,
            block: Vec::new(),
            cursor: 0,
            remaining,
        })
    }

    /// CRC-checks and decodes every block exactly once, in file order.
    /// With `keep` the records accumulate in `out`; without it `out` is
    /// scratch, cleared before each block.
    fn decode_blocks(&self, out: &mut Vec<TraceRecord>, keep: bool) -> Result<(), TraceError> {
        let mut pos = self.blocks_start;
        for block in 0..self.index.len() as u64 {
            if !keep {
                out.clear();
            }
            let (_, end) = decode_block(&self.data, pos, block, &self.header, out)?;
            pos = end;
        }
        Ok(())
    }

    /// The embedded trace header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Number of blocks in the container.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// The block index footer: one entry per block, in file order.
    pub fn block_index(&self) -> &[BlockIndexEntry] {
        &self.index
    }

    /// Repositions the stream at the first record of block
    /// `block` (blocks are numbered from 0 in file order).
    pub fn seek_to_block(&mut self, block: usize) -> Result<(), TraceError> {
        let entry = *self.index.get(block).ok_or(TraceError::CorruptBlock {
            block: block as u64,
            context: "seek past the last block",
        })?;
        self.pos = entry.offset as usize;
        self.next_block = block as u64;
        self.block.clear();
        self.cursor = 0;
        self.remaining = self.index[block..].iter().map(|e| u64::from(e.record_count)).sum();
        Ok(())
    }

    /// Rewinds to the first record (an `Arc` clone of the buffer, no
    /// re-verification).
    pub fn reopened(&self) -> Self {
        let mut fresh = self.clone();
        fresh.pos = fresh.blocks_start;
        fresh.next_block = 0;
        fresh.block.clear();
        fresh.cursor = 0;
        fresh.remaining = fresh.header.num_records;
        fresh
    }

    /// Decodes the next block into the in-memory buffer. Returns
    /// `false` at end of stream. Blocks were verified at admission, so
    /// a decode failure here is unreachable on an immutable buffer;
    /// defensively, it ends the stream.
    fn advance_block(&mut self) -> bool {
        if self.next_block as usize >= self.index.len() {
            return false;
        }
        self.block.clear();
        match decode_block(&self.data, self.pos, self.next_block, &self.header, &mut self.block) {
            Ok((_, end)) => {
                self.pos = end;
                self.next_block += 1;
                self.cursor = 0;
                true
            }
            Err(_) => {
                debug_assert!(false, "verified block failed to decode");
                self.next_block = self.index.len() as u64;
                false
            }
        }
    }
}

impl TraceSource for CompactSource {
    fn meta(&self) -> SourceMeta {
        SourceMeta {
            sample_file: self.header.sample_file.clone(),
            num_processes: self.header.num_processes,
            num_files: self.header.num_files,
        }
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.cursor >= self.block.len() && !self.advance_block() {
            return None;
        }
        let r = self.block.get(self.cursor).copied();
        if r.is_some() {
            self.cursor += 1;
            self.remaining -= 1;
        }
        r
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining as usize;
        (left, Some(left))
    }
}

/// Decodes a whole v2 buffer into an in-memory [`TraceFile`]: the
/// one-pass admission entry point behind [`load_auto`](super::load_auto).
///
/// The container is framed first (prelude, block walk, index footer,
/// end marker). Then each block is CRC-checked and decoded exactly
/// once, its records appended straight to the output, which is
/// pre-sized from the header's record count. Any framing, CRC or
/// structural error returns `Err` — the same error
/// [`CompactSource::from_bytes`] returns for the same bytes — and the
/// partly built record buffer is dropped, so the whole file is verified
/// before a [`TraceFile`] exists. The result equals materializing a
/// [`CompactSource`] over the same bytes, header included.
pub fn decode_trace(data: impl Into<Arc<Vec<u8>>>) -> Result<TraceFile, TraceError> {
    let source = CompactSource::open_unverified(data.into())?;
    // The framing walk proved the block counts sum to `num_records`, but
    // not yet that each block's payload can hold its count; a valid
    // record costs several payload bytes, so the file length caps the
    // pre-size of a crafted header.
    let capacity = source.header.num_records.min(source.data.len() as u64) as usize;
    let mut records = Vec::with_capacity(capacity);
    source.decode_blocks(&mut records, true)?;
    let header = source.header;
    let mut trace = TraceFile::build(header.sample_file, header.num_processes, records)?;
    trace.header.num_files = trace.header.num_files.max(header.num_files);
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::super::encode::{encode_source_with_blocks, encode_trace};
    use super::*;
    use crate::source::SliceSource;
    use crate::synth::{synthesize, TraceProfile};

    fn sample(ops: usize) -> TraceFile {
        synthesize(&TraceProfile { data_ops: ops, ..Default::default() })
    }

    #[test]
    fn round_trips_records_and_header() {
        let t = sample(500);
        let bytes = encode_trace(&t).unwrap();
        let mut src = CompactSource::from_bytes(bytes).unwrap();
        assert_eq!(src.header().num_records, t.header.num_records);
        assert_eq!(src.header().sample_file, t.header.sample_file);
        let mut got = Vec::new();
        while let Some(r) = src.next_record() {
            got.push(r);
        }
        assert_eq!(got, t.records);
    }

    #[test]
    fn size_hint_is_exact_throughout() {
        let t = sample(100);
        let bytes = encode_source_with_blocks(&mut SliceSource::new(&t), 16).unwrap();
        let mut src = CompactSource::from_bytes(bytes).unwrap();
        let mut left = t.len();
        assert_eq!(src.size_hint(), (left, Some(left)));
        while src.next_record().is_some() {
            left -= 1;
            assert_eq!(src.size_hint(), (left, Some(left)));
        }
        assert_eq!(src.size_hint(), (0, Some(0)));
    }

    #[test]
    fn seek_to_block_yields_the_suffix() {
        let t = sample(200);
        let bytes = encode_source_with_blocks(&mut SliceSource::new(&t), 32).unwrap();
        let mut src = CompactSource::from_bytes(bytes).unwrap();
        assert!(src.block_count() > 2, "need a multi-block file");
        let skip: u64 = src.block_index()[..2].iter().map(|e| u64::from(e.record_count)).sum();
        src.seek_to_block(2).unwrap();
        assert_eq!(src.size_hint().0 as u64, t.header.num_records - skip);
        let mut got = Vec::new();
        while let Some(r) = src.next_record() {
            got.push(r);
        }
        assert_eq!(got, t.records[skip as usize..]);
        assert!(src.seek_to_block(src.block_count()).is_err());
    }

    #[test]
    fn reopened_streams_from_the_start() {
        let t = sample(50);
        let bytes = encode_trace(&t).unwrap();
        let mut src = CompactSource::from_bytes(bytes).unwrap();
        let _ = src.next_record();
        let _ = src.next_record();
        let mut fresh = src.reopened();
        assert_eq!(fresh.size_hint().0, t.len());
        assert_eq!(fresh.next_record(), Some(t.records[0]));
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraceFile::build("s.dat", 1, vec![]).unwrap();
        let bytes = encode_trace(&t).unwrap();
        let mut src = CompactSource::from_bytes(bytes).unwrap();
        assert_eq!(src.block_count(), 0);
        assert_eq!(src.size_hint(), (0, Some(0)));
        assert!(src.next_record().is_none());
    }

    #[test]
    fn truncation_is_coded() {
        let t = sample(100);
        let bytes = encode_trace(&t).unwrap();
        for cut in [3, 10, 40, bytes.len() / 2, bytes.len() - 5] {
            let err = CompactSource::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. }
                        | TraceError::BadHeader(_)
                        | TraceError::CorruptBlock { .. }
                        | TraceError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let t = sample(100);
        let mut bytes = encode_trace(&t).unwrap();
        // Flip a byte well inside the first block's payload.
        let at = 32 + t.header.sample_file.len() + 1 + BLOCK_HEADER_LEN + 10;
        bytes[at] ^= 0x40;
        assert!(matches!(
            CompactSource::from_bytes(bytes),
            Err(TraceError::ChecksumMismatch { block: 0, .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let t = sample(10);
        let mut bytes = encode_trace(&t).unwrap();
        bytes.push(0xAB);
        assert!(matches!(
            CompactSource::from_bytes(bytes),
            Err(TraceError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_coded() {
        let t = sample(10);
        let bytes = encode_trace(&t).unwrap();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(CompactSource::from_bytes(wrong), Err(TraceError::BadMagic(_))));
        let mut wrong = bytes;
        wrong[4] = 9;
        assert!(matches!(CompactSource::from_bytes(wrong), Err(TraceError::BadVersion(9))));
    }

    #[test]
    fn decode_trace_materializes() {
        let t = sample(300);
        let bytes = encode_trace(&t).unwrap();
        let back = decode_trace(bytes).unwrap();
        assert_eq!(back.records, t.records);
        assert_eq!(back.header.num_files, t.header.num_files);
        assert_eq!(back.header.num_processes, t.header.num_processes);
        assert_eq!(back.header.sample_file, t.header.sample_file);
    }

    #[test]
    fn large_pid_dictionary_admits_in_linear_time() {
        // One block whose dictionary holds 2^17 distinct pids. A
        // linear duplicate scan costs ~d^2/2 = 8.6e9 comparisons here
        // (over a second even in an optimized build); the keyed set
        // admits it in milliseconds.
        const PIDS: u32 = 1 << 17;
        let records: Vec<TraceRecord> = (0..PIDS)
            .map(|pid| TraceRecord { pid, ..TraceRecord::simple(IoOp::Read, 0, 0, 512) })
            .collect();
        let t = TraceFile::build("s.dat", PIDS, records).unwrap();
        let bytes = encode_source_with_blocks(&mut SliceSource::new(&t), PIDS as usize).unwrap();
        let started = std::time::Instant::now();
        let src = CompactSource::from_bytes(bytes.clone()).unwrap();
        let back = decode_trace(bytes).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(src.block_count(), 1);
        assert_eq!(back.records, t.records);
        assert!(elapsed < std::time::Duration::from_secs(1), "took {elapsed:?}");
    }
}
