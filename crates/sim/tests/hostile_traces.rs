//! Admitted-but-hostile traces must not make the simulators
//! pathologically slow.
//!
//! Strict admission bounds what a record may say, not how much work it
//! asks for: a single legal read may be 2^62 bytes long, and a legal
//! roster may hold tens of thousands of pids. Both used to cost the
//! simulators work linear in that size — per 64 KiB stripe unit, or per
//! roster entry on every record — so each test here gives a run a wall
//! budget that only O(1)-per-record work can meet.

use std::time::{Duration, Instant};

use clio_sim::machine::MachineConfig;
use clio_sim::sched_replay::{scheduled_trace_sim, SchedReplayOptions};
use clio_sim::trace_driven::{trace_sim, TraceSimOptions, TraceSimReport};
use clio_trace::record::{IoOp, TraceRecord};
use clio_trace::source::SliceSource;
use clio_trace::verify::verify_strict;
use clio_trace::TraceFile;

/// Wall budget of one simulator run in an optimized build; an
/// unoptimized test build, several times slower per record, gets 8×.
/// The linear-cost versions took about two days (huge length) and
/// about eight seconds (many pids) optimized.
const BUDGET: Duration = Duration::from_secs(if cfg!(debug_assertions) { 8 } else { 1 });

fn record(op: IoOp, pid: u32, clock_us: u64, offset: u64, length: u64) -> TraceRecord {
    TraceRecord { pid, wall_clock_us: clock_us, ..TraceRecord::simple(op, 0, offset, length) }
}

/// Builds `records` into a trace and checks strict admission accepts
/// it, so the inputs below are exactly what a verified pipeline lets
/// through.
fn admitted(processes: u32, records: Vec<TraceRecord>) -> TraceFile {
    let trace = TraceFile::build("hostile.dat", processes, records).expect("well-formed trace");
    let report = verify_strict(&mut SliceSource::new(&trace), Default::default())
        .expect("strict admission accepts the trace");
    assert_eq!(report.records, trace.len() as u64);
    trace
}

/// Runs `sim`, requiring it to finish within [`BUDGET`].
fn within_budget(what: &str, sim: impl FnOnce() -> TraceSimReport) -> TraceSimReport {
    let start = Instant::now();
    let report = sim();
    let elapsed = start.elapsed();
    assert!(elapsed < BUDGET, "{what} took {elapsed:?} (budget {BUDGET:?})");
    report
}

/// Every simulator the trace can drive: the flat-cost replay, and the
/// scheduled replay on one and on four disks.
fn run_all(trace: &TraceFile) -> Vec<TraceSimReport> {
    let mut reports = vec![within_budget("trace_sim", || {
        trace_sim(trace, &MachineConfig::uniprocessor(), &TraceSimOptions::default())
    })];
    for disks in [1, 4] {
        reports.push(within_budget(&format!("scheduled_trace_sim on {disks} disks"), || {
            scheduled_trace_sim(
                trace,
                &MachineConfig::with_disks(disks),
                &SchedReplayOptions::default(),
            )
        }));
    }
    reports
}

#[test]
fn a_huge_read_costs_constant_time() {
    let huge = 1u64 << 62;
    let trace = admitted(
        1,
        vec![
            record(IoOp::Open, 0, 0, 0, 0),
            record(IoOp::Read, 0, 1, 0, huge),
            record(IoOp::Close, 0, 2, 0, 0),
        ],
    );
    for report in run_all(&trace) {
        assert_eq!(report.bytes_moved, huge);
        assert_eq!(report.records, 3);
        // 2^62 bytes at 40 MiB/s is about 3,500 years of transfer.
        assert!(report.makespan > 1e10, "makespan {}", report.makespan);
    }
}

#[test]
fn many_pids_cost_constant_time_per_record() {
    let pids = 1u32 << 16;
    let mut records = Vec::with_capacity(3 * pids as usize);
    for (clock, op) in [IoOp::Open, IoOp::Read, IoOp::Close].into_iter().enumerate() {
        for pid in 0..pids {
            let length = if op == IoOp::Read { 4096 } else { 0 };
            records.push(record(op, pid, clock as u64, u64::from(pid) * 4096, length));
        }
    }
    let trace = admitted(pids, records);
    for report in run_all(&trace) {
        assert_eq!(report.pids.len(), pids as usize);
        assert_eq!(report.records, 3 * u64::from(pids));
        assert_eq!(report.bytes_moved, 4096 * u64::from(pids));
        assert!(report.process_finish.iter().all(|&f| f > 0.0), "every process finishes");
    }
}
