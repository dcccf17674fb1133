//! End-to-end pins for the v2 compact trace format.
//!
//! Three properties, straight from the format's contract:
//!
//! 1. **Bitwise losslessness** — `decode(encode(T)) == T` record for
//!    record, for every built-in workload atom, the chain/mix
//!    combinators, and (by proptest) arbitrary synthesized profiles at
//!    arbitrary block granularities.
//! 2. **Admission-on-ingest** — flipping any single byte of a v2 file
//!    either fails decode with a coded `TraceError` or yields records
//!    that still pass strict verification; it never panics and never
//!    smuggles garbage past the trust boundary.
//! 3. **Stack integration** — a v2 file on disk drives the experiment
//!    pipeline (auto-detected `Workload::File`, strict admission,
//!    serial replay) to the same result as the same trace in v1.

use std::sync::Arc;

use proptest::prelude::*;

use clio_core::prelude::*;
use clio_core::trace::compact::{decode_trace, encode_trace, CompactSource, DEFAULT_BLOCK_RECORDS};
use clio_core::trace::source::{SharedSource, TraceSource};
use clio_core::trace::synth::{synthesize, TraceProfile};
use clio_core::trace::verify::{verify_strict, VerifyOptions};
use clio_core::trace::{TraceError, TraceFile};

/// Every built-in workload atom plus the combinators over them — the
/// same list the verify smoke admits.
const SPECS: [&str; 11] = [
    "synth",
    "seq",
    "rand",
    "dmine",
    "titan",
    "lu",
    "cholesky",
    "pgrep",
    "mix:dmine,lu",
    "mix:seq*3,rand*1",
    "chain:seq,rand",
];

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("clio-v2-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn drain(source: &mut dyn TraceSource) -> Vec<clio_core::trace::record::TraceRecord> {
    let mut out = Vec::new();
    while let Some(r) = source.next_record() {
        out.push(r);
    }
    out
}

#[test]
fn every_builtin_workload_round_trips_bitwise() {
    for spec in SPECS {
        let trace = Workload::parse(spec).unwrap().materialize().unwrap();
        let bytes = encode_trace(&trace).unwrap();
        let back = decode_trace(bytes).unwrap();
        assert_eq!(back.records, trace.records, "records differ for {spec}");
        assert_eq!(back.header.num_processes, trace.header.num_processes, "{spec}");
        assert_eq!(back.header.num_files, trace.header.num_files, "{spec}");
        assert_eq!(back.header.sample_file, trace.header.sample_file, "{spec}");
    }
}

#[test]
fn streaming_decode_matches_v1_stream() {
    let trace = Workload::parse("mix:dmine,lu").unwrap().materialize().unwrap();
    let bytes = encode_trace(&trace).unwrap();
    let mut v2 = CompactSource::from_bytes(bytes).unwrap();
    let mut v1 = SharedSource::new(Arc::clone(&trace));
    assert_eq!(v2.size_hint(), v1.size_hint(), "both sides know the exact length");
    assert_eq!(drain(&mut v2), drain(&mut v1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary synthesized profiles at arbitrary block granularities
    /// round-trip record-for-record.
    #[test]
    fn synthesized_profiles_round_trip(
        seed in any::<u64>(),
        data_ops in 0usize..240,
        write_fraction in 0.0f64..=1.0,
        sequentiality in 0.0f64..=1.0,
        explicit_seeks in any::<bool>(),
        block_records in 1usize..=DEFAULT_BLOCK_RECORDS,
    ) {
        let profile = TraceProfile {
            seed,
            data_ops,
            write_fraction,
            sequentiality,
            explicit_seeks,
            ..Default::default()
        };
        let trace = synthesize(&profile);
        let mut src = clio_core::trace::source::SliceSource::new(&trace);
        let bytes = clio_core::trace::compact::encode::encode_source_with_blocks(
            &mut src,
            block_records,
        ).unwrap();
        let back = decode_trace(bytes).unwrap();
        prop_assert_eq!(back.records, trace.records);
    }
}

/// The corrupt-block corpus: flip one byte at *every* position of a
/// multi-block v2 file. Each flip must either fail decode with a coded
/// error or decode to records that still pass strict verification —
/// and must never panic. Both admission entry points see every flip:
/// one-pass `decode_trace` must fail exactly when the streaming
/// `CompactSource::from_bytes` does, with the same error, and otherwise
/// return exactly the records the source streams.
#[test]
fn single_byte_flips_never_pass_unverified() {
    // A small trace in small blocks, so the corpus covers prelude,
    // several block headers and payloads, and the index footer without
    // taking minutes.
    let profile = TraceProfile { data_ops: 40, ..Default::default() };
    let trace = synthesize(&profile);
    let mut src = clio_core::trace::source::SliceSource::new(&trace);
    let bytes = clio_core::trace::compact::encode::encode_source_with_blocks(&mut src, 16).unwrap();

    let mut rejected = 0usize;
    let mut admitted = 0usize;
    for at in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= bit;
            let one_pass = decode_trace(corrupt.clone());
            match CompactSource::from_bytes(corrupt) {
                Err(e) => {
                    // Coded rejection: the contract held, on both paths.
                    let one_pass = one_pass.err().map(|e| format!("{e:?}"));
                    assert_eq!(
                        one_pass,
                        Some(format!("{e:?}")),
                        "flip at byte {at} (bit {bit:#04x}): one-pass decode disagrees"
                    );
                    rejected += 1;
                }
                Ok(source) => {
                    // The flip survived admission (header cosmetics,
                    // roster growth, advisory fields): whatever streams
                    // out must still satisfy the verifier's full rule
                    // table, and one-pass decode must return exactly it.
                    let mut streamed = source.reopened();
                    let records: Vec<_> = std::iter::from_fn(|| streamed.next_record()).collect();
                    let one_pass = one_pass.unwrap_or_else(|e| {
                        panic!("flip at byte {at} (bit {bit:#04x}): only one-pass rejects: {e}")
                    });
                    assert_eq!(one_pass.records, records, "flip at byte {at} (bit {bit:#04x})");
                    verify_strict(&mut source.reopened(), VerifyOptions::default()).unwrap_or_else(
                        |e| {
                            panic!(
                                "flip at byte {at} (bit {bit:#04x}) admitted records that fail \
                                strict verify: {e}"
                            )
                        },
                    );
                    admitted += 1;
                }
            }
        }
    }
    // The corpus must actually exercise both sides of the boundary:
    // most flips land in CRC-protected payload or framing (rejected),
    // a few land in cosmetic/advisory header bytes (admitted + still
    // verified).
    assert!(
        rejected > admitted,
        "CRC + structural checks reject the bulk: {rejected} vs {admitted}"
    );
    assert!(admitted > 0, "some flips (advisory fields) survive and must verify");
}

/// Only the *last* block is corrupt: one-pass decode has appended every
/// earlier block's records by the time it reaches it, and must still
/// return `Err` — never a partial trace.
#[test]
fn corrupt_last_block_yields_no_partial_trace() {
    let trace = synthesize(&TraceProfile { data_ops: 200, ..Default::default() });
    let mut src = clio_core::trace::source::SliceSource::new(&trace);
    let bytes = clio_core::trace::compact::encode::encode_source_with_blocks(&mut src, 32).unwrap();
    let source = CompactSource::from_bytes(bytes.clone()).unwrap();
    let last = source.block_count() - 1;
    assert!(last >= 2, "need a multi-block file");
    // The last payload byte sits just before the index footer, whose
    // offset the file's final twelve bytes record.
    let tail = bytes.len() - 12;
    let footer_at = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap()) as usize;
    let mut corrupt = bytes;
    corrupt[footer_at - 1] ^= 0x10;
    assert!(matches!(
        CompactSource::from_bytes(corrupt.clone()),
        Err(TraceError::ChecksumMismatch { block, .. }) if block == last as u64
    ));
    assert!(matches!(
        decode_trace(corrupt),
        Err(TraceError::ChecksumMismatch { block, .. }) if block == last as u64
    ));
}

#[test]
fn v2_file_drives_the_experiment_stack_like_v1() {
    let trace = Workload::parse("synth").unwrap().materialize().unwrap();
    let dir = temp_dir("stack");
    let v1_path = dir.join("t.clio");
    let v2_path = dir.join("t.clc2");
    std::fs::write(&v1_path, trace.to_bytes()).unwrap();
    std::fs::write(&v2_path, encode_trace(&trace).unwrap()).unwrap();

    // Auto-detection: both files materialize to the same records.
    let from_v1 = Workload::File(v1_path.clone()).materialize().unwrap();
    let from_v2 = Workload::File(v2_path.clone()).materialize().unwrap();
    assert_eq!(from_v1.records, from_v2.records);

    // Strict admission composes with the streaming v2 decoder, and the
    // replay results agree between formats.
    let mut reports = Vec::new();
    for path in [v1_path, v2_path] {
        let report = Experiment::builder()
            .workload(Workload::File(path))
            .engine(Engine::SerialReplay)
            .verify(VerifyMode::Strict)
            .build()
            .unwrap()
            .run()
            .unwrap();
        reports.push(report);
    }
    let (v1_report, v2_report) = (&reports[0], &reports[1]);
    assert_eq!(v1_report.records, v2_report.records);
    assert_eq!(
        v1_report.replay.as_ref().map(|r| r.total_ms()),
        v2_report.replay.as_ref().map(|r| r.total_ms()),
        "simulated replay must not depend on the on-disk format"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_and_oversized_v2_files_are_coded_errors() {
    let trace = TraceFile::build("s.dat", 1, synthesize(&TraceProfile::default()).records).unwrap();
    let bytes = encode_trace(&trace).unwrap();
    // Every prefix fails with an error, never a panic.
    for cut in (0..bytes.len()).step_by(97) {
        assert!(CompactSource::from_bytes(bytes[..cut].to_vec()).is_err(), "prefix {cut}");
    }
    // Concatenating two v2 files is trailing garbage, not two traces.
    let mut doubled = bytes.clone();
    doubled.extend_from_slice(&bytes);
    assert!(matches!(
        CompactSource::from_bytes(doubled),
        Err(clio_core::trace::TraceError::TrailingBytes { .. })
    ));
}
